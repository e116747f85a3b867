"""Seeded workloads and their oracle-derived expectations.

Trees are built through the public ``Predicate``/``Internal``/``Leaf``/
``BinaryDecisionTree`` API and serialised with ``serialize_tree`` or
``serialize_ensemble``; the package's own ``gen`` is not used because its
split probability of 1/2 gives trees of about six leaves.  Every expected
output comes from ``naive_traverse`` (the recursive oracle) or, for fuzzy
routing, from ``leaf_probabilities_log``; none comes from the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from treeflat import (
    BinaryDecisionTree,
    Internal,
    Leaf,
    Predicate,
    build_fuzzy_matrix,
    leaf_probabilities_log,
    naive_traverse,
    serialize_ensemble,
    serialize_tree,
)

NORMALIZATION_TOL = 1e-9
FUZZY_RTOL = 1e-9


@dataclass(frozen=True)
class Shape:
    """Size of one workload.  ``split_prob`` is the chance that a node below
    the root splits before ``depth``; 1.0 gives full trees."""

    name: str
    why: str
    trees: int
    depth: int
    split_prob: float
    dim: int
    score_instances: int
    verify_instances: int
    fuzzy_count: int
    soft: bool = False


SHAPES = {
    "ensemble": Shape(
        "ensemble",
        "200 near-full trees of depth <= 6 (about 33 leaves): per (instance, tree) "
        "call overhead dominates, the QuickScorer/GBDT regime",
        trees=200, depth=6, split_prob=0.85, dim=50,
        score_instances=200, verify_instances=12, fuzzy_count=200,
    ),
    "deep": Shape(
        "deep",
        "one full depth-11 tree (2048 leaves): dense O(N*L) selection and the "
        "dense matrix copies dominate time and memory",
        trees=1, depth=11, split_prob=1.0, dim=64,
        score_instances=1000, verify_instances=12, fuzzy_count=8,
    ),
    "soft": Shape(
        "soft",
        "one full depth-9 tree (512 leaves) with a branch-probability vector per "
        "instance: fuzzy matrices built per instance and 512 probabilities per "
        "output line",
        trees=1, depth=9, split_prob=1.0, dim=32,
        score_instances=300, verify_instances=300, fuzzy_count=300, soft=True,
    ),
}


@dataclass
class Workload:
    shape: Shape
    seed: int
    trees: list[BinaryDecisionTree]
    model_text: str
    X: np.ndarray
    X_verify: np.ndarray
    fuzzy: list[tuple[int, np.ndarray]]
    oracle_leaves: np.ndarray  # (instances, trees), 1-based
    expected_totals: list[float]
    expected_lines: list[str] = field(repr=False)  # empty for soft scoring

    @cached_property
    def expected_fuzzy(self) -> list[np.ndarray]:
        """Each fuzzy distribution in log form, computed on first use: the
        gate reads the score path's peak memory before any fuzzy work, and
        on ``deep`` the fuzzy matrices need more memory than scoring does."""
        return [leaf_probabilities_log(build_fuzzy_matrix(self.trees[k], p)).probs for k, p in self.fuzzy]


def make_tree(rng: np.random.Generator, depth: int, split_prob: float, dim: int) -> BinaryDecisionTree:
    """Random tree with one-hot predicates; the root always splits.

    Each threshold cuts the node's own region of the unit cube at 30-70% of
    its extent along the chosen feature, as a trained tree splits the data
    that reaches a node.  So every leaf receives instances, and the exit
    leaves of uniform instances spread over the whole tree; independent
    uniform thresholds instead leave many deep leaves unreachable and make
    the exit-leaf position, and with it the cost of the scanning traversals,
    depend on the seed.
    """

    def node(level: int, lo: np.ndarray, hi: np.ndarray) -> Internal | Leaf:
        if level >= depth or (level > 0 and rng.random() >= split_prob):
            return Leaf(float(rng.uniform(-1.0, 1.0)))
        f = int(rng.integers(dim))
        threshold = float(lo[f] + (hi[f] - lo[f]) * rng.uniform(0.3, 0.7))
        above, below = lo.copy(), hi.copy()
        above[f] = below[f] = threshold
        # A true test (x[f] > threshold) routes left.
        return Internal(
            Predicate.one_hot(f, threshold, dim),
            node(level + 1, above, hi),
            node(level + 1, lo, below),
        )

    return BinaryDecisionTree(node(0, np.zeros(dim), np.ones(dim)), dim)


def build(shape: Shape, seed: int) -> Workload:
    rng = np.random.default_rng([seed, shape.trees, shape.depth, shape.dim])
    trees = [make_tree(rng, shape.depth, shape.split_prob, shape.dim) for _ in range(shape.trees)]
    text = serialize_tree(trees[0]) if len(trees) == 1 else serialize_ensemble(trees)
    X = rng.uniform(size=(shape.score_instances, shape.dim))
    X_verify = rng.uniform(size=(shape.verify_instances, shape.dim))
    fuzzy = []
    for i in range(shape.fuzzy_count):
        k = i % len(trees)
        fuzzy.append((k, rng.uniform(0.05, 0.95, size=trees[k].num_internal)))

    leaves = np.asarray([[naive_traverse(t, x) for t in trees] for x in X], dtype=np.int64)
    totals = [
        # Python's sum in model order, as ``treeflat score`` adds an ensemble.
        sum(float(t.leaf_values[leaf - 1]) for t, leaf in zip(trees, row))
        for row in leaves
    ]
    if shape.soft:
        lines = []
    elif len(trees) == 1:
        lines = [f"{row[0]} {total:.12g}" for row, total in zip(leaves, totals)]
    else:
        lines = [f"{total:.12g}" for total in totals]
    return Workload(shape, seed, trees, text, X, X_verify, fuzzy, leaves, totals, lines)


def score_failures(w: Workload, text: str) -> int:
    """Instances whose ``treeflat score`` line differs from the oracle's.

    Hard scoring must reproduce the expected line byte for byte.  Soft scoring
    must give a normalised distribution over every leaf whose argmax is the
    oracle's exit leaf.
    """
    lines = text.splitlines()
    n = len(w.X)
    if len(lines) != n:
        return n
    if not w.shape.soft:
        return sum(got != want for got, want in zip(lines, w.expected_lines))
    failed = 0
    for line, leaf in zip(lines, w.oracle_leaves[:, 0]):
        probs = np.asarray(line.split(","), dtype=np.float64)
        if (
            probs.shape != (w.trees[0].num_leaves,)
            or abs(probs.sum() - 1.0) > NORMALIZATION_TOL
            or int(np.argmax(probs)) + 1 != leaf
        ):
            failed += 1
    return failed


def compare_line(w: Workload) -> str:
    return f"all algorithms agree on {len(w.X_verify)} instances x {len(w.trees)} trees"


def fuzzy_failures(w: Workload, dists) -> int:
    """Distributions that are not normalised or differ from the log form."""
    failed = 0
    for dist, want in zip(dists, w.expected_fuzzy, strict=True):
        if not dist.is_normalized or not np.allclose(dist.probs, want, rtol=FUZZY_RTOL, atol=0.0):
            failed += 1
    return failed


def tree_stats(trees: list[BinaryDecisionTree]) -> dict:
    depths = np.concatenate([t.leaf_depths for t in trees])
    leaves = [t.num_leaves for t in trees]
    return {
        "trees": len(trees),
        "leaves": int(sum(leaves)),
        "leaves_per_tree_mean": float(np.mean(leaves)),
        "leaves_per_tree_max": int(max(leaves)),
        "internal_nodes": int(sum(t.num_internal for t in trees)),
        "max_depth": int(depths.max()),
        "mean_leaf_depth": float(depths.mean()),
        "feature_dim": trees[0].feature_dim,
    }
