"""Command-line interface.

Subcommands: ``flatten`` dumps representation matrices, ``score`` evaluates
instances with a chosen algorithm, ``compare`` cross-checks every algorithm
against the recursive oracle, ``bench`` measures throughput, and ``gen``
writes random models plus matching instance files.

``score``, ``compare`` and ``bench`` run every arithmetic algorithm as
``batch_score``, so ``compare`` checks and ``bench`` times what ``score``
runs; ``naive`` is the per-pair oracle.  The per-vector traversals are the
reference the tests check, and no command calls them.

Exit codes: 0 success, 1 algorithms disagreed, 2 usage or parse error,
3 invalid model, 4 instance data does not fit the model.  The ``treeflat``
command restores the default action of SIGPIPE where the platform has one,
so a reader that stops early (``treeflat score ... | head``) ends it as it
ends ``cat``: silently, with the signal's status (141 in the shell), never
with exit 1.  ``main`` called in-process leaves signal handling alone.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Sequence

import numpy as np

from .matrices import (
    build_fuzzy_matrix,
    build_general_path_matrix,
    build_left_matrix,
    build_right_matrix,
    build_signed_matrix,
)
from .traversal import (
    ALGORITHMS,
    StackedTrees,
    batch_score,
    batch_soft_attention,
    sum_in_model_order,
)
from .trees import (
    BinaryDecisionTree,
    DimensionMismatchError,
    GeneralTree,
    TreeFormatError,
    generate_random_general_tree,
    generate_random_tree,
    naive_traverse,
    parse_model,
    parse_tree,
    serialize_ensemble,
    serialize_tree,
    validate,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_INVALID_MODEL = 3
EXIT_DATA_MISMATCH = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc}") from exc


def _load_trees(path: str) -> list[BinaryDecisionTree | GeneralTree]:
    try:
        trees = parse_model(_read_text(path))
    except TreeFormatError as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc}") from exc
    for i, tree in enumerate(trees):
        report = validate(tree)
        if not report.ok:
            where = f"{path} tree {i}" if len(trees) > 1 else path
            details = "; ".join(report.problems)
            raise CliError(EXIT_INVALID_MODEL, f"{where} is invalid: {details}")
    if not trees:
        raise CliError(EXIT_INVALID_MODEL, f"{path}: ensemble contains no trees")
    return trees


def _load_binary_trees(path: str) -> list[BinaryDecisionTree]:
    trees = _load_trees(path)
    for tree in trees:
        if not isinstance(tree, BinaryDecisionTree):
            raise CliError(
                EXIT_INVALID_MODEL,
                f"{path}: scoring needs binary trees; found a general tree",
            )
    dims = {t.feature_dim for t in trees}
    if len(dims) > 1:
        raise CliError(
            EXIT_INVALID_MODEL, f"{path}: trees disagree on feature_dim {sorted(dims)}"
        )
    return trees


def _load_instances(path: str, feature_dim: int) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise CliError(
                EXIT_USAGE, f"{path}:{lineno}: not a CSV row of floats"
            ) from exc
        rows.append(row)
    if not rows:
        return np.zeros((0, feature_dim))
    widths = {len(r) for r in rows}
    if len(widths) > 1 or widths != {feature_dim}:
        raise CliError(
            EXIT_DATA_MISMATCH,
            f"{path}: rows have {sorted(widths)} columns, model expects {feature_dim}",
        )
    return np.asarray(rows, dtype=np.float64)


def _format_matrix(m: np.ndarray, integer: bool) -> str:
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    for row in m:
        if integer:
            lines.append(" ".join(str(int(v)) for v in row))
        else:
            lines.append(" ".join(f"{float(v):.12g}" for v in row))
    return "\n".join(lines) + "\n"


def _parse_prob_vector(raw: str, expected: int) -> np.ndarray:
    try:
        values = [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, "--p must be a comma-separated float list") from exc
    if len(values) != expected:
        raise CliError(
            EXIT_USAGE, f"--p has {len(values)} entries, model has {expected} nodes"
        )
    p = np.asarray(values)
    if p.size and not (0.0 <= p.min() and p.max() <= 1.0):
        raise CliError(EXIT_USAGE, "--p entries must lie in [0, 1]")
    return p


def cmd_flatten(args) -> int:
    try:
        tree = parse_tree(_read_text(args.tree))
    except TreeFormatError as exc:
        raise CliError(EXIT_USAGE, f"{args.tree}: {exc}") from exc
    report = validate(tree)
    if not report.ok:
        raise CliError(
            EXIT_INVALID_MODEL, f"{args.tree} is invalid: " + "; ".join(report.problems)
        )
    kind = args.kind
    if kind == "path":
        if not isinstance(tree, GeneralTree):
            raise CliError(EXIT_USAGE, "kind 'path' needs a general tree file")
        sys.stdout.write(_format_matrix(build_general_path_matrix(tree), integer=False))
        return EXIT_OK
    if not isinstance(tree, BinaryDecisionTree):
        raise CliError(EXIT_USAGE, f"kind {kind!r} needs a binary tree file")
    if kind == "right":
        sys.stdout.write(_format_matrix(build_right_matrix(tree).entries, integer=True))
    elif kind == "left":
        sys.stdout.write(_format_matrix(build_left_matrix(tree).entries, integer=True))
    elif kind == "signed":
        sys.stdout.write(_format_matrix(build_signed_matrix(tree), integer=True))
    else:  # fuzzy
        if args.p is None:
            raise CliError(EXIT_USAGE, "kind 'fuzzy' needs --p with one entry per node")
        p = _parse_prob_vector(args.p, tree.num_internal)
        sys.stdout.write(_format_matrix(build_fuzzy_matrix(tree, p), integer=False))
    return EXIT_OK


def _naive_scores(
    trees: Sequence[BinaryDecisionTree], X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's exit leaves and leaf values, one (instance, tree) pair at
    a time, shaped as ``batch_score`` yields them."""
    shape = (len(X), len(trees))
    leaves = np.asarray([[naive_traverse(t, x) for t in trees] for x in X], dtype=np.int64)
    leaves = leaves.reshape(shape)
    values = [[t.leaf_values[leaf - 1] for t, leaf in zip(trees, row)] for row in leaves.tolist()]
    return leaves, np.asarray(values, dtype=np.float64).reshape(shape)


def _write_scores(out, leaves: np.ndarray, values: np.ndarray) -> None:
    """``leaf value`` lines for a single tree, summed scores for an ensemble."""
    if leaves.shape[1] == 1:
        rows = zip(leaves[:, 0].tolist(), values[:, 0].tolist())
        out.writelines(f"{leaf} {value:.12g}\n" for leaf, value in rows)
    else:
        out.writelines(f"{total:.12g}\n" for total in sum_in_model_order(values).tolist())


def cmd_score(args) -> int:
    trees = _load_binary_trees(args.model)
    X = _load_instances(args.instances, trees[0].feature_dim)
    if args.soft and len(trees) > 1:
        raise CliError(EXIT_USAGE, "--soft works on a single tree, not an ensemble")
    out = sys.stdout
    try:
        if args.soft:
            for probs in batch_soft_attention(StackedTrees.build(trees), X):
                out.writelines(",".join(f"{p:.12g}" for p in row) + "\n" for row in probs.tolist())
        elif args.algo == "naive":
            _write_scores(out, *_naive_scores(trees, X))
        else:
            for leaves, values in batch_score(StackedTrees.build(trees), X, args.algo):
                _write_scores(out, leaves, values)
    except DimensionMismatchError as exc:
        raise CliError(EXIT_DATA_MISMATCH, str(exc)) from exc
    return EXIT_OK


@dataclass
class Disagreement:
    instance: int
    algorithm: str
    leaf: int
    expected: int
    tree: int


@dataclass
class BenchRow:
    name: str
    instances_per_second: float
    total_ns: int
    leaf_agreement: bool


def _first_disagreement(
    trees: Sequence[BinaryDecisionTree], model: StackedTrees, X: np.ndarray
) -> Disagreement | None:
    """The first (instance, tree, algorithm in ``ALGORITHMS`` order) where a
    batch misses the oracle; batches run in lockstep, one chunk in memory."""
    names = [n for n in ALGORITHMS if n != "naive"]
    expected, _ = _naive_scores(trees, X)
    start = 0
    for chunks in zip(*(batch_score(model, X, name) for name in names)):
        got = np.stack([leaves for leaves, _ in chunks], axis=2)
        oracle = expected[start : start + len(got)]
        bad = np.argwhere(got != oracle[:, :, None])
        if len(bad):
            i, k, a = bad[0].tolist()
            return Disagreement(start + i, names[a], int(got[i, k, a]), int(oracle[i, k]), k)
        start += len(got)
    return None


def _verified_models(args) -> tuple[list[BinaryDecisionTree], StackedTrees, np.ndarray] | None:
    """Load the model and instances and check every algorithm against the
    oracle.  Prints the first disagreement and returns None if there is one."""
    trees = _load_binary_trees(args.model)
    X = _load_instances(args.instances, trees[0].feature_dim)
    model = StackedTrees.build(trees)
    try:
        bad = _first_disagreement(trees, model, X)
    except DimensionMismatchError as exc:
        raise CliError(EXIT_DATA_MISMATCH, str(exc)) from exc
    if bad is not None:
        print(
            f"disagreement: instance={bad.instance} algorithm={bad.algorithm} "
            f"leaf={bad.leaf} (oracle leaf={bad.expected}, tree={bad.tree})"
        )
        return None
    return trees, model, X


def cmd_compare(args) -> int:
    verified = _verified_models(args)
    if verified is None:
        return EXIT_DISAGREEMENT
    trees, _, X = verified
    print(f"all algorithms agree on {len(X)} instances x {len(trees)} trees")
    return EXIT_OK


def cmd_bench(args) -> int:
    verified = _verified_models(args)
    if verified is None:
        return EXIT_DISAGREEMENT
    trees, model, X = verified
    rows = []
    for name in ALGORITHMS:
        timings = []
        for _ in range(args.repeat):
            start = time.perf_counter_ns()
            if name == "naive":
                _naive_scores(trees, X)
            else:
                for _chunk in batch_score(model, X, name):
                    pass
            timings.append(time.perf_counter_ns() - start)
        total_ns = int(median(timings))
        per_second = len(X) / (total_ns / 1e9) if total_ns else float("inf")
        rows.append(BenchRow(name, per_second, total_ns, True))
    if args.csv:
        print("algorithm,instances_per_second,total_ns,leaf_agreement")
        for row in rows:
            print(
                f"{row.name},{row.instances_per_second:.6g},{row.total_ns},"
                f"{'true' if row.leaf_agreement else 'false'}"
            )
    else:
        print(f"{'algorithm':<12}{'instances/s':>14}{'total_ns':>14}  agreement")
        for row in rows:
            print(
                f"{row.name:<12}{row.instances_per_second:>14.6g}"
                f"{row.total_ns:>14}  {'ok' if row.leaf_agreement else 'FAIL'}"
            )
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    tree_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=args.count)]
    try:
        # The sampler and the serializer recurse once per level.
        if args.general:
            trees = [
                generate_random_general_tree(args.depth, args.fanout, s, args.dim)
                for s in tree_seeds
            ]
        else:
            trees = [generate_random_tree(args.depth, args.dim, s) for s in tree_seeds]
        text = serialize_tree(trees[0]) if len(trees) == 1 else serialize_ensemble(trees)
    except RecursionError:
        raise CliError(
            EXIT_USAGE,
            f"--depth {args.depth}: a sampled tree is nested too deeply to generate or write",
        ) from None
    X = rng.uniform(size=(args.instances, args.dim))
    try:
        Path(args.out_model).write_text(text, encoding="utf-8")
        with open(args.out_data, "w", encoding="utf-8") as fh:
            for row in X:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write output: {exc}") from exc
    return EXIT_OK


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeflat",
        description="Flatten decision trees into matrices and score them "
        "with equivalent arithmetic traversals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flatten", help="dump a representation matrix")
    p.add_argument("tree", help="tree file (JSON)")
    p.add_argument("kind", choices=["right", "left", "signed", "fuzzy", "path"])
    p.add_argument("--p", help="comma-separated branch probabilities (fuzzy only)")
    p.set_defaults(handler=cmd_flatten)

    p = sub.add_parser("score", help="score instances, one output line each")
    p.add_argument("model", help="tree or ensemble file (JSON)")
    p.add_argument("instances", help="CSV of feature vectors, no header")
    p.add_argument("--algo", default="qs", choices=sorted(ALGORITHMS))
    p.add_argument(
        "--soft",
        action="store_true",
        help="print the smooth leaf distribution instead of the exit leaf",
    )
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("compare", help="check that every algorithm agrees")
    p.add_argument("model")
    p.add_argument("instances")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("bench", help="measure per-algorithm throughput")
    p.add_argument("model")
    p.add_argument("instances")
    p.add_argument("--repeat", type=_positive_int, default=3, help="median of N runs")
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("gen", help="write a random model and instance CSV")
    p.add_argument("--depth", type=_positive_int, default=4)
    p.add_argument("--dim", type=_positive_int, default=4)
    p.add_argument("--count", type=_positive_int, default=1, help="trees in the model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--general", action="store_true", help="k-ary routing trees")
    p.add_argument("--fanout", type=_positive_int, default=3, help="max children (general)")
    p.add_argument("--instances", type=_positive_int, default=50)
    p.add_argument("--out-model", default="tree.json")
    p.add_argument("--out-data", default="instances.csv")
    p.set_defaults(handler=cmd_gen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"treeflat: {exc}", file=sys.stderr)
        return exc.code


def run() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
