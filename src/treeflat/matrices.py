"""Representation matrices for decision trees.

Every matrix has one row per leaf (left to right) and one column per internal
node (breadth-first):

* right matrix: column j is 0 exactly at the leaves of node j's left subtree,
  so ANDing the columns of false nodes removes leaves a false node rules out;
* left matrix: column j is 0 exactly at the leaves of node j's right subtree;
* signed path matrix P = right - left: row i is +1 at ancestors that must test
  false for leaf i to be reached, -1 at ancestors that must test true, else 0;
* depth vector: per-leaf edge count from the root, the row-wise L1 norm of P;
* fuzzy matrix: left * diag(p) + right * diag(1 - p) for branch probabilities
  p, whose row products give the leaf routing distribution;
* general path matrix: rows carry the edge weights of the unique root-to-leaf
  path of a k-ary tree, 1 elsewhere.

Only a leaf's ancestors differ from the background value (1, or 0 in P).  The
four binary-tree builders each allocate the background and make one flat-index
write of the tree's (leaf, ancestor) table, ``_path_cells``, which the tree
builds on first use and keeps; ``fuzzy.leaf_distribution`` reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import (
    BinaryDecisionTree,
    GeneralTree,
    Internal,
    Leaf,
    Predicate,
)

__all__ = [
    "BitMatrix",
    "UnrealizableMatrixError",
    "build_depth_vector",
    "build_fuzzy_matrix",
    "build_general_path_matrix",
    "build_left_matrix",
    "build_mask_vector",
    "build_right_matrix",
    "build_signed_matrix",
    "complement",
    "decompose_general_matrix",
    "matrix_rank",
    "prune_leaf",
    "recover_tree",
]


class UnrealizableMatrixError(ValueError):
    """Raised when a bit matrix is not the left/right matrix of any tree."""


@dataclass(frozen=True, eq=False)
class BitMatrix:
    """Dense 0/1 matrix with leaf rows and internal-node columns."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2:
            raise ValueError("bit matrix must be two-dimensional")
        # Checked before the cast, which wraps 256 to 0 and cuts 0.5 to 0.
        if not (e.max(initial=0) <= 1 if e.dtype == np.uint8 else ((e == 0) | (e == 1)).all()):
            raise ValueError("bit matrix entries must be 0 or 1")
        e = np.ascontiguousarray(e, dtype=np.uint8)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def packed_columns(self) -> list[int]:
        """Each column as an integer bitmask; bit i is the row of leaf i + 1.

        Packing the leaf axis into machine words makes the column AND of the
        bitwise traversals a single big-int operation.
        """
        masks = []
        for j in range(self.entries.shape[1]):
            packed = np.packbits(self.entries[:, j], bitorder="little")
            masks.append(int.from_bytes(packed.tobytes(), "little"))
        return masks


def build_right_matrix(tree: BinaryDecisionTree) -> BitMatrix:
    """Matrix of per-node masks for false outcomes.

    Column j zeroes the left subtree of node j (those leaves are unreachable
    once node j tests false); the rightmost leaf's row is all ones.
    """
    cell, branch = tree._path_cells
    m = np.ones((tree.num_leaves, tree.num_internal), dtype=np.uint8)
    m.reshape(-1)[cell[branch < tree.num_internal]] = 0
    return BitMatrix(m)


def build_left_matrix(tree: BinaryDecisionTree) -> BitMatrix:
    """Matrix of per-node masks for true outcomes.

    Column j zeroes the right subtree of node j; the leftmost leaf's row is
    all ones.
    """
    cell, branch = tree._path_cells
    m = np.ones((tree.num_leaves, tree.num_internal), dtype=np.uint8)
    m.reshape(-1)[cell[branch >= tree.num_internal]] = 0
    return BitMatrix(m)


def complement(m: BitMatrix) -> BitMatrix:
    """Entrywise 1 - m; complements sum to the all-ones matrix."""
    return BitMatrix(1 - m.entries)


def build_signed_matrix(tree: BinaryDecisionTree) -> np.ndarray:
    """Signed path matrix P = right - left, int64 entries in {-1, 0, +1}.

    Row i is leaf i's representation vector: +1 where the leaf sits in the
    ancestor's right subtree (the ancestor must test false), -1 where it sits
    in the left subtree, 0 at non-ancestors.
    """
    cell, branch = tree._path_cells
    m = np.zeros((tree.num_leaves, tree.num_internal), dtype=np.int64)
    m.reshape(-1)[cell] = np.where(branch < tree.num_internal, -1, 1)
    return m


def build_depth_vector(tree: BinaryDecisionTree) -> np.ndarray:
    """Per-leaf depth in edges; equals the L1 norm of each signed-matrix row."""
    return tree.leaf_depths.copy()


def build_fuzzy_matrix(tree: BinaryDecisionTree, p) -> np.ndarray:
    """left * diag(p) + right * diag(1 - p) for branch probabilities p.

    Entry (i, j) is p_j when leaf i is in node j's left subtree, 1 - p_j in
    the right subtree, and 1 elsewhere.  Degenerate probabilities 0 and 1 are
    allowed so hard trees embed exactly.
    """
    factors = tree._branch_factors(p)
    # Outside node j's subtree the mixture is p_j + (1 - p_j), which rounds
    # to 1 for every p_j in [0, 1], so writing only the (leaf, ancestor)
    # cells gives it bit for bit.
    cell, branch = tree._path_cells
    m = np.ones((tree.num_leaves, tree.num_internal), dtype=np.float64)
    m.reshape(-1)[cell] = factors[branch]
    return m


def build_general_path_matrix(tree: GeneralTree) -> np.ndarray:
    """Entry (l, n) is the weight of node n's edge on the root-to-l path,
    or 1 when node n is not on that path."""
    m = np.ones((tree.num_leaves, tree.num_internal), dtype=np.float64)
    for j, node in enumerate(tree.internal_nodes):
        for k, (lo, hi) in enumerate(tree.child_spans[j]):
            m[lo:hi, j] = node.weights[k]
    return m


def build_mask_vector(tree: GeneralTree, node: int, child: int) -> np.ndarray:
    """Leaf mask for one edge of a general-tree node.

    ``child`` is the 1-based position among the node's children.  The mask is
    0 at every leaf reachable from the node through a different edge and 1
    elsewhere; for binary trees the first edge gives the left-matrix column
    and the second edge the right-matrix column.
    """
    if not 0 <= node < tree.num_internal:
        raise IndexError(f"node index {node} out of range")
    spans = tree.child_spans[node]
    if not 1 <= child <= len(spans):
        raise IndexError(f"child index {child} out of range for node {node}")
    v = np.ones(tree.num_leaves, dtype=np.uint8)
    for k, (lo, hi) in enumerate(spans):
        if k != child - 1:
            v[lo:hi] = 0
    return v


def decompose_general_matrix(tree: GeneralTree) -> list[tuple[BitMatrix, np.ndarray]]:
    """Split a general path matrix into per-edge (mask, weights) terms.

    Returns K pairs for K = max child count; summing ``mask * weights`` over
    the pairs reconstructs the path matrix.  Nodes with fewer than k children
    get weight 0 in term k (their mask column repeats the last real edge, and
    the zero weight keeps it out of the sum).
    """
    k_max = tree.max_children
    terms = []
    for k in range(1, k_max + 1):
        mask = np.empty((tree.num_leaves, tree.num_internal), dtype=np.uint8)
        weights = np.zeros(tree.num_internal, dtype=np.float64)
        for j, node in enumerate(tree.internal_nodes):
            arity = len(node.children)
            mask[:, j] = build_mask_vector(tree, j, min(k, arity))
            if k <= arity:
                weights[j] = node.weights[k - 1]
        terms.append((BitMatrix(mask), weights))
    return terms


def matrix_rank(m) -> int:
    """Exact rank over the rationals by fraction-free elimination.

    Works on integer matrices only; no floating point is involved, so the
    rank claims on bit and signed matrices are checked exactly.
    """
    if isinstance(m, BitMatrix):
        m = m.entries
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValueError("rank is defined for two-dimensional matrices")
    if not np.issubdtype(arr.dtype, np.integer):
        if not (np.isfinite(arr) & np.equal(arr, np.rint(arr))).all():
            raise ValueError("matrix_rank requires integer entries")
    # Python ints straight from the entries: no int64 cast to overflow.
    rows = [[int(v) for v in row] for row in arr.tolist()]
    n_rows = len(rows)
    n_cols = arr.shape[1]
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, n_rows):
            factor = rows[i][col]
            if factor == 0 and pivot == prev_pivot:
                continue
            row_i = rows[i]
            row_r = rows[rank]
            for j in range(col + 1, n_cols):
                row_i[j] = (row_i[j] * pivot - factor * row_r[j]) // prev_pivot
            row_i[col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def prune_leaf(m: BitMatrix, leaf: int) -> BitMatrix:
    """Copy of ``m`` with the 1-based leaf's row zeroed.

    Zeroing a row removes that leaf from every node mask, so it can never
    survive the AND of false-node columns once at least one node is false.
    The input matrix is untouched.
    """
    if not 1 <= leaf <= m.entries.shape[0]:
        raise IndexError(f"leaf index {leaf} out of range")
    out = m.entries.copy()
    out[leaf - 1, :] = 0
    return BitMatrix(out)


def recover_tree(m: BitMatrix, kind: str) -> BinaryDecisionTree:
    """Rebuild the tree shape whose ``kind`` matrix equals ``m`` exactly.

    Column zero-sets of a right matrix are the left-subtree leaf intervals,
    so they form a laminar family of prefixes under recursion: the subtree
    root is the column whose zero interval is the longest prefix of the
    current leaf range (for left matrices, the longest suffix).  Predicates
    and leaf values of the result are placeholders; only the shape matters.

    Raises ``UnrealizableMatrixError`` when no tree produces ``m``.
    """
    if kind not in ("left", "right"):
        raise ValueError("kind must be 'left' or 'right'")
    entries = m.entries
    n_leaves, n_nodes = entries.shape
    if n_nodes == 0 or n_leaves != n_nodes + 1:
        raise UnrealizableMatrixError(
            f"a {n_leaves} x {n_nodes} matrix cannot come from a full binary tree"
        )
    intervals = []
    for j in range(n_nodes):
        zeros = np.flatnonzero(entries[:, j] == 0)
        if zeros.size == 0 or zeros[-1] - zeros[0] + 1 != zeros.size:
            raise UnrealizableMatrixError(
                f"column {j} zero set is not a non-empty contiguous interval"
            )
        intervals.append((int(zeros[0]), int(zeros[-1]) + 1))

    def build(cols: list[int], lo: int, hi: int):
        if hi - lo == 1:
            if cols:
                raise UnrealizableMatrixError(
                    f"columns {cols} left over under a single leaf"
                )
            return Leaf(0.0)
        if kind == "right":
            anchored = [j for j in cols if intervals[j][0] == lo and intervals[j][1] < hi]
            if not anchored:
                raise UnrealizableMatrixError(
                    f"no column splits the leaf range [{lo}, {hi})"
                )
            root = max(anchored, key=lambda j: intervals[j][1])
            mid = intervals[root][1]
        else:
            anchored = [j for j in cols if intervals[j][1] == hi and intervals[j][0] > lo]
            if not anchored:
                raise UnrealizableMatrixError(
                    f"no column splits the leaf range [{lo}, {hi})"
                )
            root = min(anchored, key=lambda j: intervals[j][0])
            mid = intervals[root][0]
        left_cols, right_cols = [], []
        for j in cols:
            if j == root:
                continue
            a, b = intervals[j]
            if lo <= a and b <= mid:
                left_cols.append(j)
            elif mid <= a and b <= hi:
                right_cols.append(j)
            else:
                raise UnrealizableMatrixError(
                    f"column {j} straddles the split at leaf row {mid}"
                )
        return Internal(
            Predicate.one_hot(0, 0.0, 1),
            build(left_cols, lo, mid),
            build(right_cols, mid, hi),
        )

    tree = BinaryDecisionTree(build(list(range(n_nodes)), 0, n_leaves), 1)
    rebuilt = build_right_matrix(tree) if kind == "right" else build_left_matrix(tree)
    if not np.array_equal(rebuilt.entries, entries):
        raise UnrealizableMatrixError(
            "columns are not in breadth-first order for any tree shape"
        )
    return tree
