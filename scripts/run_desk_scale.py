#!/usr/bin/env python3
"""Desk-scale experiment: synthesize data, train, evaluate.

Runs the full pipeline from configs/desk_scale.cfg and asserts the
validation accuracy bar (0.95). Everything lands under runs/desk. It ends
by printing the train step's wall seconds and the process's peak resident
memory (VmHWM from /proc/self/status, where the system has one).
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from skelgru.cli import main  # noqa: E402

CONFIG = str(pathlib.Path(__file__).resolve().parents[1] / "configs" / "desk_scale.cfg")


def peak_rss() -> str:
    """This process's own peak resident memory. ``ru_maxrss`` is not used: a
    process started by vfork/posix_spawn reports its parent's peak there."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return "unknown (no VmHWM)"


def run() -> int:
    for argv in (
        ["synth", "--config", CONFIG],
        ["train", "--config", CONFIG],
        ["eval", "--config", CONFIG, "--split", "val"],
        ["eval", "--config", CONFIG, "--split", "test"],
    ):
        start = time.perf_counter()
        code = main(argv)
        if argv[0] == "train":
            train_seconds = time.perf_counter() - start
        if code != 0:
            print(f"step {argv[0]} failed with exit code {code}", file=sys.stderr)
            return code

    log = pathlib.Path("runs/desk/train_log.jsonl")
    best = max(json.loads(line)["val_acc"] for line in log.read_text().splitlines())
    print(f"best validation accuracy: {best:.6f} (bar: 0.95)")
    print(f"train wall seconds: {train_seconds:.1f}")
    print(f"peak resident memory (VmHWM): {peak_rss()}")
    return 0 if best >= 0.95 else 1


if __name__ == "__main__":
    sys.exit(run())
