"""The measured phases of one benchmark run.

One process, one caller and a closed loop: each call starts after the
previous one returned.  ``end_to_end`` times what a user of ``treeflat``
waits for; ``per_layer`` is the separate traced run that times each package
module (``trees``, ``matrices``, ``traversal``, ``fuzzy``, ``cli``) from
outside, by calling its public functions.  Every output is checked against
the oracle before it counts, and a check that fails counts as a failed
operation.
"""

from __future__ import annotations

import io
import os
import platform
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

from treeflat import (
    TreeMatrices,
    build_fuzzy_matrix,
    build_left_matrix,
    build_right_matrix,
    build_signed_matrix,
    cli,
    compute_test_matrix,
    compute_test_vector,
    delta_traverse,
    dual_matrix_traverse,
    dual_traverse,
    ecoc_traverse,
    ensemble_score,
    leaf_probabilities,
    matrix_traverse,
    naive_traverse,
    parse_model,
    quickscorer_traverse,
    sign_traverse,
    signed_test_vector,
    soft_attention,
    validate,
)
from timing import Tracer, interleave, median_seconds, per_call_us, percentiles, tail_percentile
from workloads import Workload, compare_line, fuzzy_failures, score_failures

END_TO_END_UNITS = {
    "setup_s": "s",
    "score_ips": "instances/s",
    "verify_ips": "instances/s",
    "predict_p50_us": "us",
    "predict_p90_us": "us",
    "fuzzy_ips": "distributions/s",
    "peak_rss_mb": "MB",
}

SELECTORS = {
    "qs": (quickscorer_traverse, False),
    "dual": (dual_traverse, False),
    "matrix": (matrix_traverse, False),
    "dualmatrix": (dual_matrix_traverse, False),
    "sign": (sign_traverse, True),
    "ecoc": (ecoc_traverse, True),
    "delta": (delta_traverse, True),
}

LAYERS = ("trees", "matrices", "traversal", "fuzzy", "cli")

PER_LAYER_UNITS = {
    "trees.parse_s": "s",
    "trees.validate_s": "s",
    "trees.naive_us": "us",
    "matrices.right_s": "s",
    "matrices.left_s": "s",
    "matrices.signed_s": "s",
    "matrices.pack_s": "s",
    "matrices.fuzzy_us": "us",
    "traversal.build_s": "s",
    "traversal.test_vector_us": "us",
    "traversal.test_matrix_us": "us",
    **{f"traversal.select.{name}_us": "us" for name in SELECTORS},
    "traversal.ensemble_score_us": "us",
    "traversal.soft_attention_us": "us",
    "fuzzy.leaf_probabilities_us": "us",
    "cli.score_s": "s",
    "cli.compare_s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "traversal.model_bytes": "bytes",
    "traversal.bytes.right_u8": "bytes",
    "traversal.bytes.left_u8": "bytes",
    "traversal.bytes.right_i64": "bytes",
    "traversal.bytes.left_i64": "bytes",
    "traversal.bytes.signed": "bytes",
    "traversal.bytes.packed_masks": "bytes",
    "traversal.qs.ands_per_call": "count",
    "traversal.dual.nodes_ratio": "ratio",
    "traversal.ecoc.rows_ratio": "ratio",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.replay_s": "s",
    "trace.overhead_s": "s",
    "failed_share": "ratio",
}

PREDICT_BURST_S = 0.3  # latency samples taken after each set-up
TRACED_SHARE = 0.45  # of a traced run's --seconds, for commands and replays; the rest times layers
LAYER_PAIRS = 400  # (instance, tree) pairs cycled through by per-call layer timings
FUZZY_MATRIX_ENTRIES = 1 << 22  # prebuilt fuzzy matrices kept for leaf_probabilities_us


@dataclass
class Ops:
    """Operations attempted and failed; a failure is an exception, a non-zero
    exit or an output that differs from the oracle-derived expectation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, error: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error and len(self.errors) < 10:
            self.errors.append(error)


@dataclass
class Files:
    model: Path
    score_csv: Path
    verify_csv: Path

    @classmethod
    def write(cls, w: Workload, workdir: Path) -> "Files":
        workdir.mkdir(parents=True, exist_ok=True)
        files = cls(workdir / "model.json", workdir / "score.csv", workdir / "verify.csv")
        files.model.write_text(w.model_text, encoding="utf-8")
        for path, X in ((files.score_csv, w.X), (files.verify_csv, w.X_verify)):
            path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X), encoding="utf-8")
        return files


class Run:
    """One workload's inputs, the files the CLI reads, and the failure count."""

    def __init__(self, w: Workload, files: Files) -> None:
        self.w = w
        self.files = files
        self.ops = Ops()
        self.output_bytes = 0
        mode = ["--soft"] if w.shape.soft else ["--algo", "qs"]
        self.score_argv = ["score", str(files.model), str(files.score_csv), *mode]
        self.compare_argv = ["compare", str(files.model), str(files.verify_csv)]
        self.models: list[TreeMatrices] | None = None  # from the latest set-up
        if w.shape.soft:
            self.predict_inputs = [signed_test_vector(compute_test_vector(w.trees[0], x)) for x in w.X]
            self.predict_expected = [int(leaf) for leaf in w.oracle_leaves[:, 0]]
        else:
            self.predict_inputs = list(w.X)
            self.predict_expected = w.expected_totals
        self.cursor = 0
        self.peak_rss_mb = 0.0  # of the score path, set by the gate

    # -- repeats; each times its own call and checks the result afterwards --

    def _cli(self, argv: list[str], attempted: int):
        out, err = io.StringIO(), io.StringIO()
        try:
            start = perf_counter_ns()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            seconds = (perf_counter_ns() - start) / 1e9
        except Exception as exc:  # a traceback from the CLI is a failed operation
            self.ops.record(attempted, attempted, f"{argv[0]} raised {exc!r}")
            return None, None
        if code != 0:
            self.ops.record(attempted, attempted, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            return None, None
        return seconds, out.getvalue()

    def score_rep(self) -> float | None:
        n = len(self.w.X)
        seconds, out = self._cli(self.score_argv, n)
        if out is None:
            return None
        self.output_bytes = len(out.encode("utf-8"))
        failed = score_failures(self.w, out)
        self.ops.record(n, failed, f"score: {failed} lines differ from the oracle" if failed else None)
        return None if failed else seconds

    def compare_rep(self) -> float | None:
        seconds, out = self._cli(self.compare_argv, 1)
        if out is None:
            return None
        ok = out.strip() == compare_line(self.w)
        self.ops.record(1, 0 if ok else 1, None if ok else f"compare printed {out.strip()!r}")
        return seconds if ok else None

    def setup_rep(self) -> float | None:
        try:
            start = perf_counter_ns()
            trees = parse_model(self.w.model_text)
            reports = [validate(t) for t in trees]
            models = [TreeMatrices.build(t) for t in trees]
            seconds = (perf_counter_ns() - start) / 1e9
        except Exception as exc:
            self.ops.record(1, 1, f"setup raised {exc!r}")
            return None
        ok = len(models) == len(self.w.trees) and all(r.ok for r in reports)
        self.ops.record(1, 0 if ok else 1, None if ok else "setup: model did not validate")
        self.models = models if ok else None
        return seconds if ok else None

    def fuzzy_rep(self) -> float | None:
        w = self.w
        try:
            start = perf_counter_ns()
            dists = [leaf_probabilities(build_fuzzy_matrix(w.trees[k], p)) for k, p in w.fuzzy]
            seconds = (perf_counter_ns() - start) / 1e9
        except Exception as exc:
            self.ops.record(len(w.fuzzy), len(w.fuzzy), f"fuzzy raised {exc!r}")
            return None
        failed = fuzzy_failures(w, dists)
        self.ops.record(len(w.fuzzy), failed, f"fuzzy: {failed} distributions wrong" if failed else None)
        return None if failed else seconds

    def predict(self, models: list[TreeMatrices], budget_s: float, min_calls: int) -> list[float]:
        """Latencies in microseconds of single library calls, continuing the
        cycle through the instances where the last call left off:
        ``ensemble_score(models, x, "qs")`` for hard workloads and
        ``soft_attention`` on the signed test vector for ``soft``."""
        inputs, expected = self.predict_inputs, self.predict_expected
        samples: list[float] = []
        failed = calls = 0
        deadline = perf_counter() + budget_s
        while calls < min_calls or perf_counter() < deadline:
            k = self.cursor
            self.cursor = (k + 1) % len(inputs)
            calls += 1
            try:
                start = perf_counter_ns()
                if self.w.shape.soft:
                    got = soft_attention(models[0], inputs[k])
                else:
                    got = ensemble_score(models, inputs[k], "qs")
                elapsed = (perf_counter_ns() - start) / 1e3
            except Exception as exc:
                failed += 1
                self.ops.record(0, 0, f"predict raised {exc!r}")
                continue
            if (got.argmax_leaf if self.w.shape.soft else got) == expected[k]:
                samples.append(elapsed)
            else:
                failed += 1
        self.ops.record(calls, failed, f"predict: {failed} calls differ from the oracle" if failed else None)
        return samples

    def gate(self) -> None:
        """Check every output once against the oracle before any timing.

        Records the peak memory of the score path (set-up, predict, score
        and compare) once each has run once, before any fuzzy work: fuzzy
        routing builds dense float matrices that on ``deep`` outweigh the
        scoring models and would hide them.  Later rounds only repeat the
        same work, and how far the allocator's fragmentation grows over them
        depends on how many rounds fit in the run rather than on the program.
        """
        self.setup_rep()
        self.predict(self.models, 0.0, len(self.w.X))
        self.models = None
        self.score_rep()
        self.compare_rep()
        # ru_maxrss is in KiB on Linux.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.fuzzy_rep()


def _median(samples: list[float], what: str) -> float:
    if not samples:
        raise RuntimeError(f"no successful repeat of {what}")
    return median(samples)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced run: the metrics a user of the package sees."""
    w = run.w

    def predict_burst() -> list[float] | None:
        # Uses the models the set-up just built, so that no second copy is
        # alive to inflate the peak memory.
        if run.models is None:
            return None
        latencies = run.predict(run.models, PREDICT_BURST_S, 1)
        run.models = None
        return latencies

    samples, timing = interleave(
        [
            ("setup", run.setup_rep),
            ("predict", predict_burst),
            ("score", run.score_rep),
            ("setup", run.setup_rep),
            ("predict", predict_burst),
            ("verify", run.compare_rep),
            ("fuzzy", run.fuzzy_rep),
        ],
        seconds,
    )
    latencies = [us for burst in samples["predict"] for us in burst]
    if not latencies:
        raise RuntimeError("no successful predict call")
    p50, p90 = percentiles(latencies, [50, 90])
    values = {
        "setup_s": _median(samples["setup"], "setup"),
        "score_ips": len(w.X) / _median(samples["score"], "score"),
        "verify_ips": len(w.X_verify) / _median(samples["verify"], "compare"),
        "predict_p50_us": p50,
        "predict_p90_us": p90,
        "fuzzy_ips": len(w.fuzzy) / _median(samples["fuzzy"], "fuzzy"),
        "peak_rss_mb": run.peak_rss_mb,
    }
    detail = {
        **timing,
        "samples": {name: len(v) for name, v in samples.items()},
        "predict_samples": len(latencies),
        "predict_tail": tail_percentile(latencies),
        "raw_seconds": {name: v for name, v in samples.items() if name != "predict"},
    }
    return values, {"detail": detail}


def representation_counters(w: Workload, models: list[TreeMatrices]) -> dict:
    """Exact counts: bytes per representation and work per call, the latter
    over every (verify instance, tree) pair."""
    sizes = {
        "traversal.bytes.right_u8": sum(m.right.entries.nbytes for m in models),
        "traversal.bytes.left_u8": sum(m.left.entries.nbytes for m in models),
        "traversal.bytes.right_i64": sum(m.right_int.nbytes for m in models),
        "traversal.bytes.left_i64": sum(m.left_int.nbytes for m in models),
        "traversal.bytes.signed": sum(m.signed.nbytes for m in models),
        "traversal.bytes.packed_masks": sum(
            sys.getsizeof(v) for m in models for v in (*m.right_col_masks, *m.left_col_masks)
        ),
    }
    rest = sum(m.depths.nbytes + m.leaf_values.nbytes for m in models)
    ands = processed = internal = rows = leaves = pairs = 0
    for x in w.X_verify:
        for m in models:
            t = compute_test_vector(m.tree, x)
            ands += int(np.count_nonzero(t))
            processed += dual_traverse(m, t).nodes_processed
            internal += m.num_internal
            rows += len(ecoc_traverse(m, signed_test_vector(t)).score_vector)
            leaves += m.num_leaves
            pairs += 1
    return {
        "traversal.model_bytes": sum(sizes.values()) + rest,
        **sizes,
        "traversal.qs.ands_per_call": ands / pairs,
        "traversal.dual.nodes_ratio": processed / internal,
        "traversal.ecoc.rows_ratio": rows / leaves,
    }


def replay_score(run: Run, tracer: Tracer) -> str:
    """``cmd_score``'s steps in order, one span around each public call:
    parse, validate, build, then per instance test vector, selector, sum and
    format.  Returns the text ``treeflat score`` would print."""
    w = run.w
    root = tracer.begin("cli.score")
    text = run.files.model.read_text(encoding="utf-8")
    span = tracer.begin("trees.parse", root)
    trees = parse_model(text)
    tracer.end(span)
    span = tracer.begin("trees.validate", root)
    for tree in trees:
        validate(tree)
    tracer.end(span)
    X = np.asarray(
        [[float(v) for v in line.split(",")] for line in run.files.score_csv.read_text(encoding="utf-8").splitlines()],
        dtype=np.float64,
    )
    span = tracer.begin("traversal.build", root)
    models = [TreeMatrices.build(t) for t in trees]
    tracer.end(span)
    out = io.StringIO()
    for i, x in enumerate(X):
        if w.shape.soft:
            span = tracer.begin("traversal.test_vector", root, i)
            s = signed_test_vector(compute_test_vector(trees[0], x))
            tracer.end(span)
            span = tracer.begin("traversal.soft_attention", root, i)
            dist = soft_attention(models[0], s)
            tracer.end(span)
            span = tracer.begin("cli.format", root, i)
            out.write(",".join(f"{p:.12g}" for p in dist.probs) + "\n")
            tracer.end(span)
            continue
        results = []
        for tree, mats in zip(trees, models):
            span = tracer.begin("traversal.test_vector", root, i)
            t = compute_test_vector(tree, x)
            tracer.end(span)
            span = tracer.begin("traversal.select", root, i)
            results.append(quickscorer_traverse(mats, t))
            tracer.end(span)
        span = tracer.begin("cli.sum", root, i)
        total = sum(r.leaf_value for r in results)
        tracer.end(span)
        span = tracer.begin("cli.format", root, i)
        if len(results) == 1:
            out.write(f"{results[0].leaf_index} {results[0].leaf_value:.12g}\n")
        else:
            out.write(f"{total:.12g}\n")
        tracer.end(span)
    tracer.end(root)
    return out.getvalue()


def replay_fuzzy(run: Run, tracer: Tracer) -> list:
    """The fuzzy path behind ``fuzzy_ips``: build the fuzzy matrix, then take
    its row products, one span each per distribution."""
    root = tracer.begin("bench.fuzzy")
    dists = []
    for i, (k, p) in enumerate(run.w.fuzzy):
        span = tracer.begin("matrices.fuzzy", root, i)
        m = build_fuzzy_matrix(run.w.trees[k], p)
        tracer.end(span)
        span = tracer.begin("fuzzy.leaf_probabilities", root, i)
        dists.append(leaf_probabilities(m))
        tracer.end(span)
    tracer.end(root)
    return dists


def layer_timings(run: Run, models: list[TreeMatrices], budget_s: float) -> dict:
    """Each layer's public functions timed on their own, median of repeats.

    ``*_s`` metrics cover the whole model (every tree); ``*_us`` metrics are
    per call: per (instance, tree) pair, per instance for ``ensemble_score``
    and per distribution for the fuzzy functions.  ``test_matrix_us`` is the
    batch primitive over all score instances, divided per (instance, tree)
    pair so that it compares with ``test_vector_us``."""
    w = run.w
    trees = w.trees
    Xs = w.X[: max(2, LAYER_PAIRS // len(trees))]
    pairs = []
    for x in Xs:
        for tree, mats in zip(trees, models):
            t = compute_test_vector(tree, x)
            pairs.append((tree, mats, x, t, signed_test_vector(t)))
    bits = [(build_right_matrix(t), build_left_matrix(t)) for t in trees]
    prebuilt, entries = [], 0
    for k, p in w.fuzzy:
        if prebuilt and entries >= FUZZY_MATRIX_ENTRIES:
            break
        prebuilt.append(build_fuzzy_matrix(trees[k], p))
        entries += prebuilt[-1].size

    seconds = {
        "trees.parse_s": lambda: parse_model(w.model_text),
        "trees.validate_s": lambda: [validate(t) for t in trees],
        "matrices.right_s": lambda: [build_right_matrix(t) for t in trees],
        "matrices.left_s": lambda: [build_left_matrix(t) for t in trees],
        "matrices.signed_s": lambda: [build_signed_matrix(t) for t in trees],
        "matrices.pack_s": lambda: [(r.packed_columns(), l.packed_columns()) for r, l in bits],
        "traversal.build_s": lambda: [TreeMatrices.build(t) for t in trees],
    }
    per_call = {
        "trees.naive_us": (lambda p: naive_traverse(p[0], p[2]), pairs),
        "matrices.fuzzy_us": (lambda kp: build_fuzzy_matrix(trees[kp[0]], kp[1]), w.fuzzy),
        "traversal.test_vector_us": (lambda p: compute_test_vector(p[0], p[2]), pairs),
        **{
            f"traversal.select.{name}_us": (
                (lambda p, fn=fn: fn(p[1], p[4])) if signed else (lambda p, fn=fn: fn(p[1], p[3])),
                pairs,
            )
            for name, (fn, signed) in SELECTORS.items()
        },
        "traversal.ensemble_score_us": (lambda x: ensemble_score(models, x, "qs"), list(Xs)),
        "traversal.soft_attention_us": (lambda p: soft_attention(p[1], p[4]), pairs),
        "fuzzy.leaf_probabilities_us": (leaf_probabilities, prebuilt),
    }
    each = budget_s / (len(seconds) + len(per_call) + 1)
    values = {name: median_seconds(fn, each) for name, fn in seconds.items()}
    values.update({name: per_call_us(fn, items, each) for name, (fn, items) in per_call.items()})
    batch = median_seconds(lambda: [compute_test_matrix(t, w.X) for t in trees], each)
    values["traversal.test_matrix_us"] = batch * 1e6 / (len(w.X) * len(trees))
    return values


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    """Traced run: per-layer timings, exact counters, self time per layer from
    the replayed spans, and the tracing overhead.

    The untraced commands and the traced replays take turns in rounds, so
    that their difference, the tracing overhead, is not a drift of the
    machine's speed between two phases.
    """
    w = run.w
    models = [TreeMatrices.build(t) for t in w.trees]
    values = representation_counters(w, models)
    last: dict[str, Tracer] = {}

    def traced(kind, replay, failures, attempted):
        def rep() -> tuple[float, dict[str, float]] | None:
            tracer = Tracer()
            output = replay(run, tracer)
            failed = failures(w, output)
            run.ops.record(attempted, failed, f"{kind} replay: {failed} outputs wrong" if failed else None)
            last[kind] = tracer
            return None if failed else (tracer.root_seconds(), tracer.self_seconds_by_layer())

        return rep

    samples, timing = interleave(
        [
            ("cli_score", run.score_rep),
            ("replay", traced("score", replay_score, score_failures, len(w.X))),
            ("cli_compare", run.compare_rep),
            ("fuzzy_replay", traced("fuzzy", replay_fuzzy, fuzzy_failures, len(w.fuzzy))),
        ],
        seconds * TRACED_SHARE,
    )
    values["cli.score_s"] = _median(samples["cli_score"], "score")
    values["cli.output_bytes"] = run.output_bytes
    values["cli.compare_s"] = _median(samples["cli_compare"], "compare")
    for kind in ("replay", "fuzzy_replay"):
        if not samples[kind]:
            raise RuntimeError(f"no successful {kind}")
    layer_self = {
        kind: {layer: median(r[1].get(layer, 0.0) for r in samples[kind]) for layer in LAYERS}
        for kind in ("replay", "fuzzy_replay")
    }
    for layer in LAYERS:
        values[f"self.{layer}_s"] = layer_self["replay"][layer] + layer_self["fuzzy_replay"][layer]
    values["trace.replay_s"] = median(r[0] for r in samples["replay"])
    values["trace.overhead_s"] = values["trace.replay_s"] - values["cli.score_s"]
    # An estimate: the real command's wall time minus what the replay spent
    # inside the other layers.
    values["cli.self_s"] = values["cli.score_s"] - sum(
        layer_self["replay"][layer] for layer in LAYERS if layer != "cli"
    )
    values.update(layer_timings(run, models, seconds * (1.0 - TRACED_SHARE)))
    spans = {kind: tracer.columns() for kind, tracer in last.items()}
    detail = {
        **timing,
        "samples": {name: len(v) for name, v in samples.items()},
        "estimates": ["cli.self_s"],
        "span_counts": {kind: len(tracer.name) for kind, tracer in last.items()},
    }
    return values, {"detail": detail, "spans": spans}


def environment(seed: int, blas_vars: dict[str, str]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_vars,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
        "load": "one process, one caller, closed loop",
    }
