"""Seeded benchmark of treeflat's ``score`` path, end to end and per module.

    python3 perfbench/run.py --workload ensemble|deep|soft --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  The seed fixes every input.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` is a separate traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every time is
scaled to the host's full speed by a fixed reference task timed around each
sample (``timing.Reference``), because the shared host's speed moves by up
to 2.5x over tens of seconds.  A fuller report (environment, tree
statistics, sample counts, the reference times and unscaled medians, and
for traced runs the spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
EXIT_NO_PACKAGE = 2
# glibc's mallopt parameters: blocks of 8 MiB and more are mapped and
# returned on free; smaller ones are reused from the heap.  8 MiB lies about
# a factor of two from the nearest arrays the workloads allocate: deep's
# uint8 matrices (4.2 MB) below it, deep's float64 test matrix of 1000
# instances (16.4 MB) above it.  So a small change of shape or dtype does not
# move an array across it.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = {M_MMAP_THRESHOLD: 8 << 20, M_TRIM_THRESHOLD: 64 << 20}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ensemble", "deep", "soft"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def pin_allocator() -> str:
    """Fix glibc's mmap and trim thresholds.

    glibc raises both each time it frees a mapped block, so whether numpy's
    megabyte-sized arrays come from reused heap or from freshly mapped,
    zero-filled pages depends on what the process allocated before.  That
    alone moved ``fuzzy_ips`` on ``soft`` by a factor of two, and
    ``peak_rss_mb`` on ``deep`` by 32 MB, between runs of the same inputs.
    So every figure is taken under these pinned settings, not glibc's
    default dynamic thresholds.  Returns a description for the report.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default glibc malloc (no mallopt)"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if not all(mallopt(param, value) for param, value in MALLOC_SETTINGS.items()):
        return "default glibc malloc (mallopt refused)"
    return "pinned glibc malloc: mmap_threshold=8MiB trim_threshold=64MiB"


def prepare() -> str:
    """Pin BLAS threads and the allocator, then put the checkout's ``src``
    first on the path; refuse to measure any other copy of the package.
    Returns the allocator setting."""
    # One BLAS thread: the load is a single caller, and more threads than
    # cores only add noise on a small machine.  Must precede numpy's import.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    allocator = pin_allocator()
    src = ROOT / "src"
    if not (src / "treeflat" / "__init__.py").is_file():
        print(f"perfbench: no treeflat package under {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE)
    sys.path.insert(0, str(src))
    import treeflat

    if Path(treeflat.__file__).resolve().parent != (src / "treeflat").resolve():
        print(f"perfbench: imported treeflat from {treeflat.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE)
    return allocator


def measure(shape, seed: int, seconds: float, trace: bool, workdir: Path, allocator: str) -> tuple[dict, dict]:
    """Build the workload, gate it on the oracle, run the timed phases.
    Returns the result line and the report."""
    import bench
    import workloads

    w = workloads.build(shape, seed)
    try:
        run = bench.Run(w, bench.Files.write(w, workdir))
        run.gate()
        if trace:
            values, extra = bench.per_layer(run, seconds)
            units = bench.PER_LAYER_UNITS
        else:
            values, extra = bench.end_to_end(run, seconds)
            units = bench.END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = run.ops
    if trace:
        values["failed_share"] = ops.failed / ops.attempted
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": shape.name,
        "why": shape.why,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            **bench.environment(seed, {v: os.environ[v] for v in BLAS_THREAD_VARS}),
            "allocator": allocator,
        },
        "tree_stats": workloads.tree_stats(w.trees),
        "inputs": {
            "score_instances": len(w.X),
            "verify_instances": len(w.X_verify),
            "fuzzy_distributions": len(w.fuzzy),
        },
        "errors": ops.errors,
        "result": result,
        **extra,
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    allocator = prepare()
    import workloads

    shape = workloads.SHAPES[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, report = measure(
        shape, args.seed, args.seconds, bool(args.trace), OUT / f"work-{os.getpid()}", allocator
    )
    spans = report.pop("spans", None)
    OUT.mkdir(parents=True, exist_ok=True)
    if spans is not None:
        report["spans_file"] = f"{stem}.spans.json"
        (OUT / report["spans_file"]).write_text(json.dumps(spans), encoding="utf-8")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"# report: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(f"# tree stats: {json.dumps(report['tree_stats'])}")
    print(f"# environment: {json.dumps(report['environment'])}")
    for error in report["errors"]:
        print(f"# error: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
