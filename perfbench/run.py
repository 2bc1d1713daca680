"""skelgru benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload train-desk-gat --seed 1 --seconds 25 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the repository
root; see perfbench/README.md for what each one measures. With
``--trace 0`` the run prints the end-to-end metrics, measured with
tracing off. With ``--trace 1`` it wraps the program's public functions
(see tracer.py) and prints the per-layer metrics instead, and writes the
aggregated spans to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 1 when any output check failed.
"""

import os

# The system is single-threaded; pin BLAS before numpy loads so runs on a
# shared machine are comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "skelgru").is_dir():  # never measure an installed copy instead
    raise SystemExit(f"no skelgru sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    info = provenance()
    print("provenance " + json.dumps(info, sort_keys=True))

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    tracer = tracing.Tracer()  # records only unit spans unless installed
    with tempfile.TemporaryDirectory(dir=base, prefix=f"{args.workload}-") as work:
        if args.trace:
            tracer.install()
        try:
            out = workloads.run_workload(
                args.workload, ROOT, Path(work), args.seed, args.seconds, tracer
            )
        finally:
            tracer.uninstall()

    if args.trace:
        mismatch = tracer.count_mismatch()
        if mismatch:
            out.fail(0, mismatch)
        values = tracer.layer_metrics(out.ingest_samples, out.checkpoint_bytes)
        values["trace.samples_per_s"] = out.samples_per_s  # minus samples_per_s: tracing cost
        trace_path = base / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"provenance": info, "args": vars(args), "metrics": values, **tracer.dump()},
            indent=1, default=str,
        ), encoding="utf-8")
        print(f"trace: {trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end(out)

    if set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json")
    for name in declared:
        print(f"{name} {values[name]:.6g} {declared[name]}")
    for problem in out.problems:
        print(f"FAILED {problem}")
    correct = not out.problems and out.failed == 0 and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


def end_to_end(out: workloads.Outcome) -> dict[str, float]:
    ms = sorted(out.op_ms) or [0.0]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    beyond = sum(1 for v in ms if v > p90)
    print(f"operations: {len(out.op_ms)} timed, {beyond} beyond p90; {len(out.setup_s)} set-ups")
    return {
        "setup_s": statistics.median(out.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_success_rate": (out.attempted - out.failed) / max(out.attempted, 1),
        "samples_per_s": out.samples_per_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
    }


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    info = {
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }
    info.update(openblas())
    return info


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas() -> dict:
    """Version and thread count of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                return {"openblas": get_config().decode(), "blas_threads": get_threads()}
    return {"openblas": "not loaded", "blas_threads": None}


if __name__ == "__main__":
    sys.exit(main())
