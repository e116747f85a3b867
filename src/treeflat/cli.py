"""Command-line interface.

Subcommands: ``flatten`` dumps representation matrices, ``score`` evaluates
instances with a chosen algorithm, ``compare`` cross-checks every algorithm
against the recursive oracle, ``bench`` measures throughput, and ``gen``
writes random models plus matching instance files.

``score`` and ``bench`` run every algorithm as ``batch_score``, and
``compare`` runs them all at once as ``batch_leaves``, whose chunks share
one test matrix and each distinct rule.  Both run the same code per chunk,
so ``compare`` checks and ``bench`` times what ``score`` runs.  ``naive``,
the oracle, is one more name on that path: on each chunk it descends every
tree once per instance, and ``compare`` checks every other name against
it.  The per-vector traversals are the reference the tests check, and no
command calls them.

``score --soft`` and ``flatten`` print arrays whose values repeat by
construction (a softmax over a few integer path scores, 0/1 masks), so
``_format_rows`` formats each distinct value once, keyed for ``--soft`` by
(row, P s, leaf depth); the text is the same as formatting every entry.

Exit codes: 0 success, 1 algorithms disagreed (or one found no exit leaf
in some tree), 2 usage or parse error, 3 invalid model, 4 instance data
does not fit the model.  The ``treeflat`` command restores the default
action of SIGPIPE where the platform has one, so a reader that stops early
(``treeflat score ... | head``) ends it as it ends ``cat``: silently, with
the signal's status (141 in the shell), never with exit 1.  ``main``
called in-process leaves signal handling alone.
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
    _ExitLeafError,
    _soft_chunks,
    batch_leaves,
    batch_score,
    sum_in_model_order,
)
from .trees import (
    MAX_FEATURE_DIM,
    BinaryDecisionTree,
    DimensionMismatchError,
    GeneralTree,
    TreeFormatError,
    generate_random_general_tree,
    generate_random_tree,
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _load_model(path: str) -> StackedTrees:
    trees = _load_trees(path)
    for tree in trees:
        if not isinstance(tree, BinaryDecisionTree):
            raise CliError(
                EXIT_INVALID_MODEL,
                f"{path}: scoring needs binary trees; found a general tree",
            )
    try:
        return StackedTrees.build(trees)
    except DimensionMismatchError as exc:  # trees disagree on feature_dim
        raise CliError(EXIT_INVALID_MODEL, f"{path}: {exc}") from exc


def _load_instances(path: str, feature_dim: int) -> np.ndarray:
    """The rows of a headerless CSV of floats, as ``float()`` reads each cell.

    numpy's C text reader runs first.  It converts a cell with ``float()``'s
    own conversion and refuses every cell ``float()`` refuses, but for
    U+001C to U+001F around a number, which it strips as whitespace.
    ``splitlines`` ends a line at U+001C to U+001E, so only U+001F reaches
    it, and a text holding one skips it.  Whatever it refuses (a ``1_0``, a
    digit of another script, a whitespace-only or ragged row) or reads to
    another width, and a text with no non-empty line, which it would warn
    about, goes to ``_parse_instances``: the reference, whose errors name
    the line.
    """
    text = _read_text(path)
    lines = text.splitlines()
    if "\x1f" not in text and any(lines):
        try:
            X = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if X.shape[1] == feature_dim:
                return X
    return _parse_instances(path, lines, feature_dim)


def _parse_instances(path: str, lines: list[str], feature_dim: int) -> np.ndarray:
    """``_load_instances`` one ``float()`` per cell; blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = list(map(float, line.split(",")))
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


def _distinct(flat: np.ndarray, codes: np.ndarray | None) -> tuple[np.ndarray, list, np.ndarray]:
    """A table of the distinct codes of a flat array of values, by default
    the values themselves: whether each slot holds a code, the value of one
    entry with each code held, and each entry's slot.

    An integer code array whose range holds no more values than it has
    entries gets a slot per value of its range, with no sort: each slot
    takes the position of one of its entries.  Any other array is sorted by
    ``np.unique``.  Floats are told apart by bit pattern, so -0.0 and 0.0
    keep their own text."""
    keys = flat if codes is None else codes
    if keys.dtype.kind in "iu" and keys.size:
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < keys.size:
            slots = keys - lo
            first = np.full(hi - lo + 1, -1)
            first[slots] = np.arange(keys.size)
            used = first >= 0
            return used, flat[first[used]].tolist(), slots
    if keys.dtype.kind == "f":
        keys = np.asarray(keys, dtype=np.float64).view(np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.ones(len(first), dtype=bool), flat[first].tolist(), inverse


def _format_rows(values: np.ndarray, spec: str, sep: str, codes: np.ndarray | None = None) -> list[str]:
    """Each row of a 2-D array as ``sep``-joined ``format(v, spec)`` entries.

    Each distinct code (by default, value) is formatted once, from one of
    its entries, so equal codes must mean equal values.  That pays where
    values repeat by construction (0/1 masks, a softmax over a few integer
    path scores) and costs more than a per-entry loop where they do not.
    """
    used, shown, slots = _distinct(values.ravel(), None if codes is None else codes.ravel())
    text = np.empty(len(used), dtype=object)
    text[used] = [format(v, spec) for v in shown]
    return [sep.join(row) for row in text[slots].reshape(values.shape).tolist()]


def _format_matrix(m: np.ndarray, spec: str) -> str:
    rows, cols = m.shape
    return "\n".join([f"{rows} {cols}", *_format_rows(m, spec, " ")]) + "\n"


def _parse_prob_vector(raw: str, expected: int) -> np.ndarray:
    try:
        # An empty list is the one a tree with no node takes.
        values = [float(v) for v in raw.split(",")] if raw else []
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
        sys.stdout.write(_format_matrix(build_general_path_matrix(tree), ".12g"))
        return EXIT_OK
    if not isinstance(tree, BinaryDecisionTree):
        raise CliError(EXIT_USAGE, f"kind {kind!r} needs a binary tree file")
    if kind == "right":
        sys.stdout.write(_format_matrix(build_right_matrix(tree).entries, "d"))
    elif kind == "left":
        sys.stdout.write(_format_matrix(build_left_matrix(tree).entries, "d"))
    elif kind == "signed":
        sys.stdout.write(_format_matrix(build_signed_matrix(tree), "d"))
    else:  # fuzzy
        if args.p is None:
            raise CliError(EXIT_USAGE, "kind 'fuzzy' needs --p with one entry per node")
        p = _parse_prob_vector(args.p, tree.num_internal)
        sys.stdout.write(_format_matrix(build_fuzzy_matrix(tree, p), ".12g"))
    return EXIT_OK


def _write_scores(out, leaves: np.ndarray, values: np.ndarray) -> None:
    """``leaf value`` lines for a single tree, summed scores for an ensemble."""
    if leaves.shape[1] == 1:
        rows = zip(leaves[:, 0].tolist(), values[:, 0].tolist())
        out.writelines(f"{leaf} {value:.12g}\n" for leaf, value in rows)
    else:
        out.writelines(f"{total:.12g}\n" for total in sum_in_model_order(values).tolist())


def cmd_score(args) -> int:
    model = _load_model(args.model)
    X = _load_instances(args.instances, model.feature_dim)
    if args.soft and len(model.trees) > 1:
        raise CliError(EXIT_USAGE, "--soft works on a single tree, not an ensemble")
    out = sys.stdout
    try:
        if args.soft:
            # A probability is fixed by its row, leaf depth d and P s, and
            # |P s| <= d <= D, so one integer per entry packs all three.
            D = int(model.leaf_depths.max())
            leaf_codes = model.leaf_depths * (2 * D + 1) + D
            for ps, probs in _soft_chunks(model, X):
                codes = ps + leaf_codes + np.arange(len(ps))[:, None] * ((D + 1) * (2 * D + 1))
                out.writelines(line + "\n" for line in _format_rows(probs, ".12g", ",", codes))
        else:
            for leaves, values in batch_score(model, X, args.algo):
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


def _first_disagreement(model: StackedTrees, X: np.ndarray) -> Disagreement | None:
    """The first (instance, tree, algorithm in ``ALGORITHMS`` order) where an
    algorithm misses the oracle.  ``batch_leaves`` runs all of them on each
    chunk, ``naive`` first (it leads ``ALGORITHMS``), one chunk in memory:
    the chunk's test matrix and each distinct rule are computed once."""
    names = list(ALGORITHMS)
    start = 0
    for got in batch_leaves(model, X, names):
        bad = np.argwhere(got[:, :, 1:] != got[:, :, :1])
        if len(bad):
            i, k, a = bad[0].tolist()
            return Disagreement(start + i, names[a + 1], int(got[i, k, a + 1]), int(got[i, k, 0]), k)
        start += len(got)
    return None


def _verified_models(args) -> tuple[StackedTrees, np.ndarray] | None:
    """Load the model and instances and check every algorithm against the
    oracle.  Prints the first disagreement and returns None if there is one."""
    model = _load_model(args.model)
    X = _load_instances(args.instances, model.feature_dim)
    try:
        bad = _first_disagreement(model, X)
    except DimensionMismatchError as exc:
        raise CliError(EXIT_DATA_MISMATCH, str(exc)) from exc
    except _ExitLeafError as exc:  # an algorithm found no leaf the oracle could agree with
        raise CliError(EXIT_DISAGREEMENT, str(exc)) from exc
    if bad is not None:
        print(
            f"disagreement: instance={bad.instance} algorithm={bad.algorithm} "
            f"leaf={bad.leaf} (oracle leaf={bad.expected}, tree={bad.tree})"
        )
        return None
    return model, X


def cmd_compare(args) -> int:
    verified = _verified_models(args)
    if verified is None:
        return EXIT_DISAGREEMENT
    model, X = verified
    print(f"all algorithms agree on {len(X)} instances x {len(model.trees)} trees")
    return EXIT_OK


def cmd_bench(args) -> int:
    verified = _verified_models(args)
    if verified is None:
        return EXIT_DISAGREEMENT
    model, X = verified
    rows = []
    for name in ALGORITHMS:
        timings = []
        for _ in range(args.repeat):
            start = time.perf_counter_ns()
            for _chunk in batch_score(model, X, name):
                pass
            timings.append(time.perf_counter_ns() - start)
        total_ns = int(median(timings))
        per_second = len(X) / (total_ns / 1e9) if total_ns else float("inf")
        rows.append(BenchRow(name, per_second, total_ns))
    # Every row agrees: bench times only models that ``compare`` passes.
    if args.csv:
        print("algorithm,instances_per_second,total_ns,leaf_agreement")
        for row in rows:
            print(f"{row.name},{row.instances_per_second:.6g},{row.total_ns},true")
    else:
        print(f"{'algorithm':<12}{'instances/s':>14}{'total_ns':>14}  agreement")
        for row in rows:
            print(f"{row.name:<12}{row.instances_per_second:>14.6g}{row.total_ns:>14}  ok")
    return EXIT_OK


# ``gen`` draws and writes its instances this many values at a time.
GEN_CHUNK_VALUES = 1 << 16


def _write_uniform_rows(fh, rng: np.random.Generator, rows: int, dim: int) -> None:
    """The CSV text of ``rng.uniform(size=(rows, dim))``, drawn a chunk of
    values at a time: the generator gives the same doubles in the same order
    however the draws are split, and no chunk holds more than
    ``GEN_CHUNK_VALUES``."""
    total = rows * dim
    for start in range(0, total, GEN_CHUNK_VALUES):
        stop = min(start + GEN_CHUNK_VALUES, total)
        cells = [f"{v:.17g}" for v in rng.uniform(size=stop - start).tolist()]
        # A row's last value is followed by a newline, every other by a comma.
        ends = np.where(np.arange(start + 1, stop + 1) % dim == 0, "\n", ",").tolist()
        fh.write("".join(cell + end for cell, end in zip(cells, ends)))


def cmd_gen(args) -> int:
    if args.instances * args.dim > MAX_FEATURE_DIM:
        raise CliError(
            EXIT_USAGE,
            f"--instances {args.instances} x --dim {args.dim}: more than {MAX_FEATURE_DIM} values",
        )
    rng = np.random.default_rng(args.seed)
    tree_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=args.count)]
    try:
        # The samplers take any depth; the serializer raises TreeFormatError
        # on a tree too deep to write.
        if args.general:
            trees = [
                generate_random_general_tree(args.depth, args.fanout, s, feature_dim=args.dim)
                for s in tree_seeds
            ]
        else:
            trees = [generate_random_tree(args.depth, args.dim, s) for s in tree_seeds]
        text = serialize_tree(trees[0]) if len(trees) == 1 else serialize_ensemble(trees)
    except TreeFormatError:
        raise CliError(
            EXIT_USAGE,
            f"--depth {args.depth}: a sampled tree is nested too deeply to generate or write",
        ) from None
    try:
        Path(args.out_model).write_text(text, encoding="utf-8")
        with open(args.out_data, "w", encoding="utf-8") as fh:
            _write_uniform_rows(fh, rng, args.instances, args.dim)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write output: {exc}") from exc
    return EXIT_OK


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _feature_dim(raw: str) -> int:
    value = _positive_int(raw)
    if value > MAX_FEATURE_DIM:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_FEATURE_DIM}")
    return value


def _fanout(raw: str) -> int:
    value = int(raw)
    if value < 2:
        raise argparse.ArgumentTypeError("must be at least 2")
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
    p.add_argument("--dim", type=_feature_dim, default=4)
    p.add_argument("--count", type=_positive_int, default=1, help="trees in the model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--general", action="store_true", help="k-ary routing trees")
    p.add_argument("--fanout", type=_fanout, default=3, help="max children (general), at least 2")
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
