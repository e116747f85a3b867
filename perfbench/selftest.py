"""Self-test of the benchmark at toy size; takes about a minute.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, in both the untraced and the traced run; that the oracle
gate counts a failure when an expectation is corrupted; and that the
benchmark refuses to run, without printing a result, where the package
source is missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run

TOY = {"trees": 3, "depth": 3, "score_instances": 6, "verify_instances": 2, "fuzzy_count": 3}


class SelfTestError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def toy(shape):
    return dataclasses.replace(shape, **{k: min(v, getattr(shape, k)) for k, v in TOY.items()})


def check_metrics(workload: str, trace: int, declared: list[dict], allocator: str) -> None:
    import workloads

    result, report = run.measure(
        toy(workloads.SHAPES[workload]), seed=7, seconds=0.05, trace=bool(trace),
        workdir=run.OUT / "selftest-work", allocator=allocator,
    )
    where = f"{workload} trace={trace}"
    check(result["correct"] and result["failed"] == 0, f"{where}: failures {report['errors']}")
    check(result["attempted"] >= 1, f"{where}: nothing attempted")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    check(set(got) == set(want), f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, unit in want.items():
        value = got[name]["value"]
        check(got[name]["unit"] == unit, f"{where}: {name} has unit {got[name]['unit']}, not {unit}")
        check(isinstance(value, float) and math.isfinite(value), f"{where}: {name} = {value!r}")
    json.dumps(result, allow_nan=False)


def check_gate_catches_corruption() -> None:
    import bench
    import workloads

    for name, shape in workloads.SHAPES.items():
        for corrupt in ("score", "fuzzy"):
            w = workloads.build(toy(shape), seed=3)
            if corrupt == "fuzzy":
                w.expected_fuzzy[0] = w.expected_fuzzy[0][::-1] * 0.5
            elif shape.soft:
                w.oracle_leaves[0, 0] = w.oracle_leaves[0, 0] % w.trees[0].num_leaves + 1
            else:
                w.expected_lines[0] += "1"
                w.expected_totals[0] += 1.0
            workdir = run.OUT / "selftest-gate"
            try:
                r = bench.Run(w, bench.Files.write(w, workdir))
                r.gate()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            check(r.ops.failed >= 1, f"{name}: gate missed a corrupted {corrupt} expectation")


def check_refuses_without_source() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py exited 0 without the package source")
    check('"metrics"' not in proc.stdout, "run.py printed a result without the package source")


def main() -> int:
    allocator = run.prepare()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads

    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) <= set(workloads.SHAPES), f"unknown workloads in BENCHMARK.json: {listed}")
    for workload in workloads.SHAPES:
        check_metrics(workload, 0, spec["end_to_end"], allocator)
        check_metrics(workload, 1, spec["per_layer"], allocator)
    check_gate_catches_corruption()
    check_refuses_without_source()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
