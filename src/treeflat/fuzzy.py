"""Probabilistic leaf routing for fuzzy binary trees and general trees.

A fuzzy tree routes left with probability p and right with 1 - p at each
node; the probability of landing on a leaf is the product of that leaf's
matrix row, or, in path form, of the factors of its ancestors alone.
General trees route over k weighted edges per node and reduce to binary
trees by chaining splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import build_general_path_matrix
from .trees import (
    BinaryDecisionTree,
    GeneralInternal,
    GeneralTree,
    Leaf,
    _feature_vector,
    _object_number,
    _preorder_tree,
    naive_traverse,
)

__all__ = [
    "LeafDistribution",
    "convert_general_to_binary",
    "general_leaf_distribution",
    "hard_routing_consistency",
    "leaf_distribution",
    "leaf_probabilities",
    "leaf_probabilities_log",
]

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LeafDistribution:
    """Nonnegative mass per leaf; sums to 1 whenever every node's branch
    weights do."""

    probs: np.ndarray

    @property
    def is_normalized(self) -> bool:
        return abs(float(self.probs.sum()) - 1.0) <= NORMALIZATION_TOL

    @property
    def argmax_leaf(self) -> int:
        """1-based index of the most likely leaf."""
        return int(np.argmax(self.probs)) + 1


# For doubles with the sign bit clear, bit order is value order, so an entry
# lies in [+0.0, 1.0] exactly when its bits, as uint64, are at most these.
# NaN of either sign, negatives, -0.0, values above 1 and ±inf all exceed it.
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _as_routing_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("routing matrix must be two-dimensional")
    # One integer scan accepts almost every matrix; only one that fails it
    # takes the two float scans, which also admit -0.0.
    if (
        m.size
        and m.view(np.uint64).max() > _ONE_BITS
        and not (m.min() >= 0.0 and m.max() <= 1.0)  # NaN fails both tests
    ):
        raise ValueError("routing matrix entries must lie in [0, 1]")
    return m


def leaf_probabilities(m) -> LeafDistribution:
    """Row products of a fuzzy or general path matrix.

    numpy multiplies each row left to right whatever the layout: along a
    contiguous row as one serial chain, and down a column-major matrix as
    one elementwise multiply of all rows per column.  The bits are the
    same; the column-major form, which the builders return, is several
    times faster on large trees.
    """
    return LeafDistribution(np.prod(_as_routing_matrix(m), axis=1))


def leaf_probabilities_log(m) -> LeafDistribution:
    """exp of row-wise log sums; agrees with the direct product whenever every
    entry is strictly positive, and rejects matrices where it is not."""
    m = _as_routing_matrix(m)
    bad = np.argwhere(m <= 0.0)
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"nonpositive entry at leaf {i + 1}, node column {j}; "
            "the logarithmic form needs strictly positive entries"
        )
    # The logs in row-major order, whatever m's layout: numpy sums a
    # contiguous row pairwise but a strided one left to right, and the two
    # round differently.
    return LeafDistribution(np.exp(np.log(m, order="C").sum(axis=1)))


def leaf_distribution(tree: BinaryDecisionTree, p) -> LeafDistribution:
    """Leaf routing distribution of a fuzzy binary tree in path form.

    Each leaf's probability is the product of its ancestors' factors, p_j
    where it lies in node j's left subtree and 1 - p_j in the right, taken
    root first.  That is its fuzzy-matrix row with the 1.0 entries left out,
    and multiplying by 1.0 is exact, so the result equals
    ``leaf_probabilities(build_fuzzy_matrix(tree, p))`` bit for bit, in
    O(sum of leaf depths) rather than O(leaves x nodes).  p is checked as
    ``build_fuzzy_matrix`` checks it.
    """
    factors = tree._branch_factors(p)
    if not tree.num_internal:
        return LeafDistribution(np.ones(tree.num_leaves))
    branch, starts = tree._path_rows
    return LeafDistribution(np.multiply.reduceat(factors[branch], starts))


def convert_general_to_binary(
    tree: GeneralTree,
) -> tuple[BinaryDecisionTree, np.ndarray]:
    """Expand every k-ary node into a left-leaning chain of k - 1 binary
    splits carrying the conditional branch probabilities.

    The m-th chain split keeps child m on the left with probability
    w_m / (1 - w_1 - ... - w_{m-1}) and sends the remaining children right.
    When the remaining mass is 0 that ratio is 0/0; the chain then gets
    probability 1/2, which is immaterial because no mass reaches it.  Returns
    the binary shape (placeholder predicates) and its per-node probability
    vector in breadth-first order; the leaf distribution is preserved.
    """
    if not isinstance(tree.root, GeneralInternal):
        raise ValueError("general tree must have an internal root")
    # The binary nodes in pre-order, from an explicit stack as the samplers
    # list theirs, each with its parent.  An entry (node, i, remaining) is
    # the split of the chain of ``node`` that keeps child i on the left,
    # where the children from i on carry the mass ``remaining``.
    numbers, parents, probs = [], [], []  # probs: per split, in pre-order
    stack: list = [(tree.root, -1)]
    while stack:
        item, parent = stack.pop()
        index = len(parents)
        parents.append(parent)
        if isinstance(item, Leaf):
            if (value := _object_number(item.value)) is None:
                raise ValueError(f"leaf value {item.value!r} is not a number; run validate()")
            numbers.append(value)
            continue
        node, i, remaining = item if isinstance(item, tuple) else (item, 0, 1.0)
        children, weight = node.children, float(node.weights[i])
        p = weight / remaining if remaining > 0.0 else 0.5
        probs.append(min(max(p, 0.0), 1.0))
        numbers.append(0.0)
        last = i == len(children) - 2
        stack.append((children[i + 1] if last else (node, i + 1, remaining - weight), index))
        stack.append((children[i], index))
    binary, breadth_first = _preorder_tree(numbers, parents, [0] * len(probs), max(tree.feature_dim, 1))
    return binary, np.asarray(probs)[breadth_first]


def hard_routing_consistency(tree: BinaryDecisionTree, x) -> bool:
    """Degenerate fuzzy routing must reproduce the hard traversal.

    Builds branch probabilities from the test outcomes (1 where the node is
    true, 0 where false) of the tree's ``split_tests``, the test the oracle
    routes by, takes the leaf distribution in path form, which equals the
    dense pair's bit for bit, and checks it is exactly the indicator of the
    oracle's exit leaf.
    """
    x = _feature_vector(x, tree.feature_dim)
    p = np.where(tree.split_tests.false_nodes(x), 0.0, 1.0)
    dist = leaf_distribution(tree, p)
    expected = np.zeros(tree.num_leaves)
    expected[naive_traverse(tree, x) - 1] = 1.0
    return bool(np.array_equal(dist.probs, expected))


def general_leaf_distribution(tree: GeneralTree) -> LeafDistribution:
    """Leaf routing distribution of a general tree via its path matrix."""
    return leaf_probabilities(build_general_path_matrix(tree))
