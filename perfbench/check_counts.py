"""Check that the traced run's counts repeat exactly.

    python3 perfbench/check_counts.py [workload ...]

For each workload (all of them by default) it makes three short traced
runs, each in its own process: two with seed SEED and one with
HELD_OUT_SEED. Every per-layer
metric whose unit is ``count`` or ``bytes`` must be equal in the two
same-seed runs, and equal again under the held-out seed, because tape
records and bytes depend on shapes only. The exception is
``checkpoint.save_checkpoint.calls``: how often validation accuracy
improves depends on the data, so it is compared between same-seed runs
only. Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DEPENDENT = {"checkpoint.save_checkpoint.calls"}
SEED = 1
HELD_OUT_SEED = 7919
SECONDS = 5  # one training.train call or a few dozen requests


def traced_counts(workload: str, seed: int, names: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in names}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    names = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]

    failed = []
    for workload in args.workloads:
        first = traced_counts(workload, SEED, names)
        again = traced_counts(workload, SEED, names)
        held_out = traced_counts(workload, HELD_OUT_SEED, names)
        differ = [name for name in names if first[name] != again[name]
                  or (name not in DATA_DEPENDENT and first[name] != held_out[name])]
        for name in differ:
            print(f"{workload} {name}: seed {SEED} gave {first[name]} then "
                  f"{again[name]}; seed {HELD_OUT_SEED} gave {held_out[name]}")
        print(f"{workload}: {len(names) - len(differ)} of {len(names)} counts repeat exactly")
        failed += differ
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
