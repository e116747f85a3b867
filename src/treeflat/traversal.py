"""Arithmetic tree traversals.

Seven algorithms select the exit leaf without walking the tree, all provably
agreeing with the recursive oracle:

* ``quickscorer_traverse``: AND the right-matrix columns of false nodes, take
  the leftmost surviving bit;
* ``dual_traverse``: AND left columns for true nodes and right columns for
  false nodes, stopping as soon as one bit survives;
* ``matrix_traverse``: v = right @ t + 1, leftmost maximum;
* ``dual_matrix_traverse``: v = right @ t + left @ (1 - t), unique maximum;
* ``sign_traverse``: v = inv(D) P s, unique maximum exactly 1 at the exit;
* ``ecoc_traverse``: scan leaves for the codeword whose normalized agreement
  with s is 1;
* ``delta_traverse``: v = P s - d, sum leaf values where v is exactly 0.

Test vectors mark false nodes with 1 (or +1 in signed form); ties at the
threshold count as false.

These per-vector functions take one test vector, one entry per internal
node, and one ``TreeMatrices`` bundle; they are the paper's dense and
bitwise forms and the reference the tests check the batch path against;
``ensemble_score`` runs none of them.  ``TreeMatrices.build`` keeps only
the tree: the packed right and left column masks that ``qs`` and ``dual``
read, each mask from its node's leaf span, the depth vector, and the dense
(leaves x nodes) copies that the matrix, sign, ecoc and delta forms read,
are built on first read.  ``soft_attention`` runs the batch path's span-sum
kernel on the tree's own boundary table (``TreeMatrices.boundaries``).

One table gives each algorithm one row: its per-vector selector, whether
that reads the signed test vector, its batch hit rule, whether each tree
needs exactly one hit, and for ``qs`` and ``dual`` its word rule.
``ALGORITHMS`` and the batch path both read it.

Every test vector and test matrix comes from the trees' ``SplitTests``,
the one split test the oracle also routes by: a one-hot split reads its
feature, ``x[f] > threshold``, and a dense node its ``dense_products``
value, which does not depend on how many rows are tested at once.

``batch_leaves`` is the batch path, the one ``treeflat compare`` checks:
it runs any list of algorithms over a model's trees, stacked into one
``StackedTrees``, a chunk of instances at a time.  Each chunk's test
matrix is computed at most once, with one gather over every node of every
tree, kept as booleans, and not at all if no rule reads it.  On it each
distinct rule function below runs once, and each distinct selection (rule
and whether a hit must be unique) once, for all the named algorithms.
``batch_score`` is the one-name case, the one ``treeflat score`` runs and
``bench`` times, and ``ensemble_score`` runs its chunk step on x as one
row.
Three kernels pick each tree's exit leaf, over the same chunks:

* the word kernels run ``qs`` and ``dual`` when every tree has 2 to 64
  leaves (``StackedTrees.fits_words``).  Each node's right and left column
  is one uint64; ``qs`` ANDs the right words of each tree's false nodes,
  ``dual`` the right word of each false node and the left word of each true
  one, with one ``np.bitwise_and.reduceat`` over the node axis, and the exit
  leaf is the lowest set bit.
* the descent runs ``qs`` on any other model, for a block of rows large
  enough (``_walks``): rows x (leaves + 1) at least CHUNK_ENTRIES / 16
  times the deepest leaf's depth.  Each (row, tree) pair descends its tree
  down one stacked child table (``StackedTrees.children``), one split test
  per level of the exit path, run once per block of whole chunks and read
  by each.
* the span form runs the rest: ``_right_hits`` for ``matrix`` (and ``qs`` on
  smaller blocks, such as ``ensemble_score``'s one row) and
  ``_signed_hits`` for ``dualmatrix``, ``sign``, ``ecoc`` and ``delta``
  (and ``dual``).  Every column of right, left and P is constant on the
  leaf ranges ``[lo, mid)`` and ``[mid, hi)`` of its node.  A false node
  excludes its left leaves ``[lo, mid)``, so ``_right_hits`` is interval
  coverage: leaf p is a hit when the largest ``mid`` of the false nodes
  with ``lo <= p`` is at most p, one int32 running maximum over the nodes
  in order of ``lo``.  The dual rule is the signed rule: with s = 2t - 1,
  ``right @ t + left @ (1 - t)`` is N - (d - P s) / 2 at every leaf, so it
  reaches N exactly where P s = d.  The signed rule and soft attention take
  P s from one kernel, ``_span_sums``: each node adds a term at its
  boundaries ``lo``, ``mid`` and ``hi``, and one int32 prefix sum of the
  transposed test matrix, read as int8, down the model's boundaries, read
  at each leaf, gives every leaf's sum: O(N + L) exact integer work per
  instance instead of O(N * L).  Both rules read one table,
  ``StackedTrees.boundaries``, which sorts the model's boundaries once; its
  ``lo`` entries, in that order, are the right rule's nodes in order of
  ``lo``.  Soft attention yields P s with each chunk's
  probabilities, so ``score --soft`` keys its text by (row, P s, depth).

A tree of more than 64 leaves sends ``dual`` to the span form and ``qs``
to the descent or the span form, for the whole model: on one full tree and
1000 instances, a multiword prototype beat the span form only up to 128
leaves and took 2x to 7x its time from 256 to 2048 leaves (the README has
the table, and one of the descent against the span form).

Each tree's exit leaf is its first leaf meeting the algorithm's selection
rule.  The span form selects it from the (instances x leaves) hit matrix:
for a model of one tree, as ``matrix_traverse`` does, by one ``argmax``,
the leftmost maximum, checked by one gather (or one count per row if the
hit must be unique); for several trees by a count and a minimum per tree
segment (``np.add.reduceat`` and ``np.minimum.reduceat``).  An ensemble's
leaf values are added column by column in model order, from 0.0
(``sum_in_model_order``), on every Python version.  ``naive``, the
oracle, runs on the same chunks with no rule and no selection: its batch
form runs ``naive_traverse``'s walk once per (instance, tree) pair, on the
trees the ``StackedTrees`` was built from, so its leaves never depend on
the stacked arrays the other rules read.

``ensemble_score`` scores x as a chunk of one row under every name, so
``qs`` never walks there.  It stacks a model's trees on the first call that
a bundle leads with them, and that bundle keeps the ``StackedTrees`` for
later such calls, so it lives as long as the bundle; a call with other
trees stacks those in its place.  The module holds no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .fuzzy import LeafDistribution
from .matrices import (
    BitMatrix,
    build_depth_vector,
    build_left_matrix,
    build_right_matrix,
    build_signed_matrix,
)
from .trees import (
    BinaryDecisionTree,
    DimensionMismatchError,
    SplitTests,
    _descend,
    _feature_vector,
    _unit_features,
    naive_traverse,
)

__all__ = [
    "ALGORITHMS",
    "StackedTrees",
    "TraversalResult",
    "TreeMatrices",
    "batch_leaves",
    "batch_score",
    "batch_soft_attention",
    "compute_test_matrix",
    "compute_test_vector",
    "delta_traverse",
    "dual_matrix_traverse",
    "dual_traverse",
    "ecoc_traverse",
    "ensemble_score",
    "linear_hash_test_vector",
    "matrix_traverse",
    "mips_leaf_search",
    "quickscorer_traverse",
    "scaled_argmax_invariance_check",
    "sign_traverse",
    "signed_test_vector",
    "soft_attention",
    "sum_in_model_order",
]

# Instances per batch chunk are sized so that an (instances x stacked leaves)
# array holds about this many entries, 256 KiB of int64; the span sums' int32
# prefix sum, with up to three entries per node, stays under 400 KiB.
# ``batch_leaves`` tests each chunk once and runs every algorithm it names,
# word or span kernel, on that one test matrix.
CHUNK_ENTRIES = 1 << 15

# ``qs``'s descent keeps a few int64 entries per (row, tree) pair; it runs
# once per block of whole chunks of at most this many pairs.
WALK_PAIRS = 1 << 18

# The word kernels hold a tree's leaves in one uint64.  _LOW_BITS[n] has the
# lowest n bits set; it is built from Python ints, so _LOW_BITS[64] is exact
# and no uint64 is ever shifted by 64.
WORD_BITS = 64
_LOW_BITS = np.array([(1 << n) - 1 for n in range(WORD_BITS + 1)], dtype=np.uint64)


@dataclass
class TraversalResult:
    """Outcome of one traversal: 1-based exit leaf, its value, and whatever
    score vector the algorithm produced (None for the purely bitwise ones).
    ``nodes_processed`` is set by the early-exit traversal only."""

    leaf_index: int
    leaf_value: float
    score_vector: np.ndarray | None = None
    nodes_processed: int | None = None


@dataclass
class TreeMatrices:
    """Working set for one tree, for the per-vector traversal algorithms.

    ``build`` keeps only the tree.  ``leaf_values``, ``num_leaves`` and
    ``num_internal`` read it; every other field is derived from it the first
    time it is read, and kept.  ``full_mask`` and the packed right and left
    column masks, which the bitwise selectors read, come straight from each
    node's leaf span; the depth vector and the dense copies (``right``,
    ``left``, ``right_int``, ``left_int`` and ``signed``) from the
    ``matrices`` builders.

    ``boundaries`` is the tree's boundary table, which ``soft_attention``
    reads.  ``_stack`` is ``ensemble_score``'s entry for the calls this
    bundle leads: the ``StackedTrees`` of the last such call, or None before
    the first.  It holds trees, never bundles, so no cycle keeps it past
    this bundle."""

    tree: BinaryDecisionTree
    _stack: StackedTrees | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, tree: BinaryDecisionTree) -> "TreeMatrices":
        return cls(tree)

    @property
    def leaf_values(self) -> np.ndarray:
        return self.tree.leaf_values

    @property
    def num_leaves(self) -> int:
        return self.tree.num_leaves

    @property
    def num_internal(self) -> int:
        return self.tree.num_internal

    @cached_property
    def depths(self) -> np.ndarray:
        return build_depth_vector(self.tree)

    # Bit i is leaf row i.  A right column clears the node's left leaves
    # [lo, mid), a left column its right leaves [mid, hi).

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.tree.num_leaves) - 1

    @cached_property
    def right_col_masks(self) -> list[int]:
        full = self.full_mask
        return [full ^ ((1 << mid) - (1 << lo)) for lo, mid, _ in self.tree.leaf_spans]

    @cached_property
    def left_col_masks(self) -> list[int]:
        full = self.full_mask
        return [full ^ ((1 << hi) - (1 << mid)) for _, mid, hi in self.tree.leaf_spans]

    @cached_property
    def right(self) -> BitMatrix:
        return build_right_matrix(self.tree)

    @cached_property
    def left(self) -> BitMatrix:
        return build_left_matrix(self.tree)

    @cached_property
    def right_int(self) -> np.ndarray:
        return self.right.entries.astype(np.int64)

    @cached_property
    def left_int(self) -> np.ndarray:
        return self.left.entries.astype(np.int64)

    @cached_property
    def signed(self) -> np.ndarray:
        return build_signed_matrix(self.tree)

    @cached_property
    def boundaries(self) -> _Boundaries:
        """The tree's node boundaries, which ``soft_attention`` sums over."""
        return _Boundaries.build(self.tree.span_array, self.num_leaves)

    @cached_property
    def normalized_leaf_vectors(self) -> np.ndarray:
        """Rows of inv(D) P: each leaf's signed path vector divided by its depth."""
        return self.signed / self.depths[:, None]

    def _result(self, row: int, score: np.ndarray | None = None, processed: int | None = None) -> TraversalResult:
        return TraversalResult(row + 1, float(self.leaf_values[row]), score, processed)


def _false_nodes(tree: BinaryDecisionTree, x) -> np.ndarray:
    """``compute_test_vector`` as booleans, which every selector reads."""
    return tree.split_tests.false_nodes(_feature_vector(x, tree.feature_dim))


def _integral(t) -> np.ndarray:
    """t as integers; ``ValueError`` names the first entry that is not one."""
    t = np.asarray(t)
    if t.dtype.kind in "biu":
        return t
    f = t.astype(np.float64)
    bad = np.flatnonzero(~((np.abs(f) < 2.0**63) & (f == np.trunc(f))))
    if bad.size:
        raise ValueError(f"test vector entry {bad[0]} is {float(f.flat[bad[0]])!r}, not an integer")
    return f.astype(np.int64)


def _node_vector(mats: TreeMatrices, t) -> np.ndarray:
    """A test vector t or s as int64, one entry per internal node."""
    t = _integral(t)
    if t.shape != (mats.num_internal,):
        raise DimensionMismatchError(
            f"test vector has shape {t.shape}, expected ({mats.num_internal},)"
        )
    return t.astype(np.int64, copy=False)


def compute_test_vector(tree: BinaryDecisionTree, x) -> np.ndarray:
    """Per-node test outcomes for input x: 1 marks a false node, 0 a true one."""
    return _false_nodes(tree, x).astype(np.int64)


def _instance_matrix(tree, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.feature_dim:
        raise DimensionMismatchError(
            f"instance matrix has shape {X.shape}, expected (*, {tree.feature_dim})"
        )
    return X


def compute_test_matrix(tree: BinaryDecisionTree | StackedTrees, X) -> np.ndarray:
    """Batch form of ``compute_test_vector``: one row of outcomes per instance.

    A ``StackedTrees`` gives the outcomes of every node of every tree.
    """
    return tree.split_tests.false_nodes(_instance_matrix(tree, X)).astype(np.int64)


def signed_test_vector(t) -> np.ndarray:
    """Affine remap s = 2t - 1 of integer t: +1 keeps marking false nodes, -1 true ones."""
    return 2 * _integral(t).astype(np.int64, copy=False) - 1


def linear_hash_test_vector(W, gamma, x) -> np.ndarray:
    """Signed test vector via the stacked hyperplane tests sign(W x - gamma).

    The raw hash sign marks true tests with +1, which is the opposite polarity
    of the signed test vector, so the result is negated: a tie (W x = gamma)
    therefore comes out +1, i.e. false, matching the strict-> convention.
    Each row is tested as a tree node is (``SplitTests``): a one-hot row
    gathers its feature, so NaN and ±inf give ``compute_test_vector``'s
    outcome and no warning.
    """
    W = np.asarray(W, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != x.shape[0] or gamma.shape != (W.shape[0],):
        raise DimensionMismatchError(
            f"incompatible shapes: W {W.shape}, gamma {gamma.shape}, x {x.shape}"
        )
    gather = _unit_features(W)
    dense = gather < 0
    gather[dense] = W.shape[1] + np.arange(np.count_nonzero(dense))
    return signed_test_vector(SplitTests(gather, gamma, W[dense]).false_nodes(x))


def quickscorer_traverse(mats: TreeMatrices, t) -> TraversalResult:
    """AND the packed right columns of all false nodes; the exit leaf is the
    lowest surviving bit.  Never empty: the last row is all ones."""
    t = _node_vector(mats, t)
    masks = mats.right_col_masks
    v = mats.full_mask
    # nonzero, not flatnonzero, which costs several times as much on numpy 2
    # for a vector this short; Python ints index the list faster.
    for j in t.nonzero()[0].tolist():
        v &= masks[j]
    # lowest set bit, as a 1-based leaf index
    return mats._result((v & -v).bit_length() - 1)


def dual_traverse(mats: TreeMatrices, t) -> TraversalResult:
    """Per-node AND with the left column for true nodes and the right column
    for false nodes, in breadth-first order, exiting once one bit survives."""
    t = _node_vector(mats, t)
    right, left = mats.right_col_masks, mats.left_col_masks
    v = mats.full_mask
    processed = 0
    for j in range(mats.num_internal):
        v &= right[j] if t[j] else left[j]
        processed += 1
        if v & (v - 1) == 0:
            break
    return mats._result(v.bit_length() - 1, processed=processed)


def matrix_traverse(mats: TreeMatrices, t) -> TraversalResult:
    """v = right @ t + 1; the exit leaf is the leftmost maximum of v.

    Weighting the rows by 1, 1/2, ..., 1/|L| does not reliably turn the
    leftmost maximum into a unique global one (a lower row with a smaller
    count can still win after scaling), so the leftmost maximum is taken
    directly; ``np.argmax`` already returns the first occurrence.
    """
    t = _node_vector(mats, t)
    v = mats.right_int @ t + 1
    return mats._result(int(np.argmax(v)), score=v)


def dual_matrix_traverse(mats: TreeMatrices, t) -> TraversalResult:
    """v = right @ t + left @ (1 - t); every node votes for the leaves it does
    not exclude, so the maximum equals the node count and is unique."""
    t = _node_vector(mats, t)
    v = mats.right_int @ t + mats.left_int @ (1 - t)
    return mats._result(int(np.argmax(v)), score=v)


def sign_traverse(mats: TreeMatrices, s) -> TraversalResult:
    """v = inv(D) P s; the unique entry equal to 1 marks the exit leaf.

    The comparison runs on integers (P s against the depth vector), so no
    floating-point tolerance is involved; the returned score vector is the
    float form of v.  A tree that is a lone leaf has an empty codeword,
    which every test vector matches, so its one entry is 1.
    """
    s = _node_vector(mats, s)
    ps = mats.signed @ s
    hits = np.flatnonzero(ps == mats.depths)
    if hits.size != 1:
        raise ValueError(
            f"signed traversal found {hits.size} consensus leaves; corrupt matrices?"
        )
    score = ps / mats.depths if mats.num_internal else np.ones(1)
    return mats._result(int(hits[0]), score=score)


def ecoc_traverse(mats: TreeMatrices, s) -> TraversalResult:
    """Scan leaves in order and return the first whose codeword agreement
    <P_i, s> / <P_i, P_i> equals 1; the score vector holds the agreements
    actually computed, in scan order.  A lone leaf's empty codeword agrees
    fully: 1."""
    s = _node_vector(mats, s)
    signed, depths = mats.signed, mats.depths
    similarities: list[float] = []
    for i in range(mats.num_leaves):
        dot = int(signed[i] @ s)
        depth = int(depths[i])
        similarities.append(dot / depth if depth else 1.0)
        if dot == depth:
            return mats._result(i, score=np.asarray(similarities))
    raise ValueError("no leaf codeword matched the signed test vector; corrupt matrices?")


def _delta_rows(mats: TreeMatrices, s) -> np.ndarray:
    """Rows where v = P s - d is 0; all integers, so the test is exact."""
    return np.flatnonzero(mats.signed @ _node_vector(mats, s) - mats.depths == 0)


def delta_traverse(mats: TreeMatrices, s) -> float:
    """Sum of leaf values weighted by the zero indicator of v = P s - d;
    exactly one entry is zero for a well-formed input."""
    return float(mats.leaf_values[_delta_rows(mats, s)].sum())


def _delta_leaf(mats: TreeMatrices, s) -> TraversalResult:
    """``delta_traverse`` as a leaf choice: the one zero of P s - d."""
    rows = _delta_rows(mats, s)
    if rows.size != 1:
        raise ValueError(f"delta traversal found {rows.size} zero entries; corrupt matrices?")
    return mats._result(int(rows[0]))


def _span_sums(table: _Boundaries, x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-leaf sums of node terms that start at a leaf-span boundary, one
    column per row of x: a (leaves x rows) array.

    Boundary entry e of node j adds ``scale[e] * x[r, j]`` to row r of every
    leaf from the entry's boundary onwards, and each node's terms must sum
    to zero (``table``).  The kernel gathers the rows of x transposed at the
    entries' nodes, scales them, takes one prefix sum down the entry axis,
    in boundary order, and reads it at each leaf's count of entries at or
    before it.  The sum runs in int32 for the int8 test matrices, whose
    terms are at most 2 in magnitude (exact, as the table's size guard keeps
    twice the entry count below 2**31), and in int64 for any wider x.
    """
    # np.take copies x's transpose to C order, so each entry gathers one
    # contiguous row and the prefix sum adds whole rows.
    terms = np.take(x.T, table.nodes, axis=0)
    terms *= scale
    # Widened first, the sum runs in place with no cast: faster than
    # summing the int8 terms into a wider output.
    sums = np.empty((len(terms) + 1, len(x)), np.int32 if x.dtype == np.int8 else np.int64)
    sums[0] = 0
    sums[1:] = terms
    np.cumsum(sums, axis=0, out=sums)
    return np.take(sums, table.last, axis=0)


def _signed_scores(table: _Boundaries, s: np.ndarray) -> np.ndarray:
    """P s for each row of s, as (leaves x rows): -s on a node's left leaves
    [lo, mid), +s on its right leaves [mid, hi)."""
    return _span_sums(table, s, table.signed)


def _softmax_rows(depths: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Softmax of inv(D) P s for each row of P s, a C-contiguous (rows x
    leaves) array, so each row's sum adds its entries in one order, given
    one tree's leaf depths.  A lone leaf's P s is 0 and is divided by 1, not
    by its depth 0; its softmax is 1 either way."""
    scores = ps / (depths if len(depths) > 1 else 1)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def soft_attention(mats: TreeMatrices, s) -> LeafDistribution:
    """Softmax of inv(D) P s: a smooth distribution over leaves whose argmax
    is the hard exit leaf.  P s is computed in span form as a batch of one,
    in int64, on the bundle's boundary table."""
    s = _node_vector(mats, s)
    ps = _signed_scores(mats.boundaries, s[None, :]).T
    return LeafDistribution(_softmax_rows(mats.tree.leaf_depths, ps)[0])


def scaled_argmax_invariance_check(mats: TreeMatrices, t, scale) -> bool:
    """Check that the exit leaf is invariant under the two encoding changes.

    Positive per-column rescaling of the right matrix must keep the leftmost
    argmax on the exit leaf, and replacing matrix zeros with -1 must keep the
    whole argmax set unchanged.
    """
    t = _node_vector(mats, t)
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (mats.num_internal,):
        raise ValueError(
            f"scale vector has shape {scale.shape}, expected ({mats.num_internal},)"
        )
    if not ((scale > 0) & np.isfinite(scale)).all():
        raise ValueError("scale entries must be positive and finite")
    baseline = matrix_traverse(mats, t).leaf_index
    # Ties between candidate leaves are exact: each sums the same scale terms.
    # fsum is correctly rounded, so equal term multisets give equal floats,
    # which a BLAS matrix product does not guarantee across rows.
    false_nodes = np.flatnonzero(t)
    weighted = np.asarray(
        [
            math.fsum(scale[j] for j in false_nodes if mats.right_int[i, j])
            for i in range(mats.num_leaves)
        ]
    )
    if int(np.argmax(weighted)) + 1 != baseline:
        return False
    plain = mats.right_int @ t
    tilde = (2 * mats.right_int - 1) @ t
    plain_set = np.flatnonzero(plain == plain.max())
    tilde_set = np.flatnonzero(tilde == tilde.max())
    return np.array_equal(plain_set, tilde_set)


def mips_leaf_search(leaf_vectors: np.ndarray, query) -> int:
    """Exact maximum inner product search over leaf vectors.

    ``leaf_vectors`` are the normalized rows of inv(D) P (see
    ``TreeMatrices.normalized_leaf_vectors``); with a signed test vector as
    the query the argmax row is the exit leaf, returned 1-based.  The query
    needs one entry per column of the 2-D ``leaf_vectors``.
    """
    query, shape = np.asarray(query, dtype=np.float64), np.shape(leaf_vectors)
    if len(shape) != 2:
        raise DimensionMismatchError(f"leaf vectors have shape {shape}, expected (leaves, nodes)")
    if query.shape != shape[1:]:
        raise DimensionMismatchError(f"query has shape {query.shape}, expected ({shape[1]},)")
    return int(np.argmax(leaf_vectors @ query)) + 1


# ---------------------------------------------------------------------------
# The batch path: every tree of a model at once, over chunks of instances.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StackedTrees:
    """A model's trees on one node axis and one leaf axis.

    ``trees`` are the trees it was built from, which the oracle descends.
    ``split_tests`` stacks every tree's split tests, so
    ``compute_test_matrix`` tests every node of every tree in one gather.
    ``spans`` holds each node's ``(lo, mid, hi)`` offset onto the shared leaf
    axis, on which tree k's leaves start at ``leaf_starts[k]``; its nodes
    start at ``node_starts[k]`` on the node axis.

    If ``fits_words``, ``right_words`` and ``left_words`` hold each node's
    right and left column as one uint64, bit i standing for leaf i of the
    node's tree; they are built on first read.
    """

    trees: tuple[BinaryDecisionTree, ...]
    feature_dim: int
    split_tests: SplitTests
    spans: np.ndarray
    leaf_depths: np.ndarray
    leaf_values: np.ndarray
    leaf_starts: np.ndarray
    node_starts: np.ndarray

    @classmethod
    def build(cls, trees: Sequence[BinaryDecisionTree]) -> "StackedTrees":
        if not trees:
            raise ValueError("a model needs at least one tree")
        dims = {t.feature_dim for t in trees}
        if len(dims) > 1:
            raise DimensionMismatchError(f"trees disagree on feature_dim {sorted(dims)}")
        # The parser built every tree's split tests, so this is one pass over
        # the trees, then one concatenation per field and one offset add per
        # axis for the whole model: ``ensemble_score`` pays this build inside
        # one scalar call.  On a 200-tree model it took 0.7 ms.
        tests, spans, depths, values = zip(
            *((t.split_tests, t.span_array, t.leaf_depths, t.leaf_values) for t in trees)
        )
        dim = dims.pop()
        leaves = np.fromiter(map(len, depths), np.int64, len(trees))
        nodes = np.fromiter(map(len, spans), np.int64, len(trees))
        dense = np.fromiter((len(s.dense_rows) for s in tests), np.int64, len(trees))
        starts = np.cumsum(leaves) - leaves
        spans = np.concatenate(spans)
        spans += np.repeat(starts, nodes)[:, None]
        # Each tree numbers its dense nodes in node order from dim, so the
        # model's are the trees' shifted by the dense nodes before them.
        gather = np.concatenate([s.gather for s in tests])
        gather += np.repeat(np.cumsum(dense) - dense, nodes) * (gather >= dim)
        return cls(
            trees=tuple(trees),
            feature_dim=dim,
            split_tests=SplitTests(
                gather,
                np.concatenate([s.thresholds for s in tests]),
                np.concatenate([s.dense_rows for s in tests]),
            ),
            spans=spans,
            leaf_depths=np.concatenate(depths),
            leaf_values=np.concatenate(values),
            leaf_starts=starts,
            node_starts=np.cumsum(nodes) - nodes,
        )

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_values)

    @cached_property
    def fits_words(self) -> bool:
        """Whether every tree has 2 to 64 leaves: each leaf mask fits one
        word, and each tree has a node whose word ``reduceat`` starts from."""
        sizes = np.diff(self.leaf_starts, append=self.num_leaves)
        return bool(sizes.min() >= 2 and sizes.max() <= WORD_BITS)

    @cached_property
    def depth(self) -> int:
        """The deepest leaf's depth: the most steps of ``qs``'s descent."""
        return int(self.leaf_depths.max())

    @cached_property
    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's ``(left, right)`` and each tree's root on the stacked
        axes, coded as a tree's ``_children``: c >= 0 is node c and c < 0
        leaf ~c, so a lone leaf's root is its ~leaf.  ``qs``'s descent
        (``_child_descent``) reads it."""
        nodes = np.diff(self.node_starts, append=len(self.spans))
        node, leaf = (np.repeat(starts, nodes)[:, None] for starts in (self.node_starts, self.leaf_starts))
        children = np.concatenate([t._children for t in self.trees])
        children += np.where(children >= 0, node, -leaf)
        return children, np.where(nodes > 0, self.node_starts, ~self.leaf_starts)

    @cached_property
    def boundaries(self) -> _Boundaries:
        """The node boundaries that the span form's rules read."""
        return _Boundaries.build(self.spans, self.num_leaves)

    def _word_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per node, its tree's full word and its ``(lo, mid, hi)`` relative
        to its tree's first leaf.  Needs ``fits_words``."""
        nodes = np.diff(self.node_starts, append=len(self.spans))
        sizes = np.diff(self.leaf_starts, append=self.num_leaves)
        lo, mid, hi = (self.spans - np.repeat(self.leaf_starts, nodes)[:, None]).T
        return np.repeat(_LOW_BITS[sizes], nodes), lo, mid, hi

    @cached_property
    def right_words(self) -> np.ndarray:
        """The right column of each node: its tree's leaves but [lo, mid)."""
        full, lo, mid, _ = self._word_spans()
        return full ^ _LOW_BITS[mid] ^ _LOW_BITS[lo]

    @cached_property
    def left_words(self) -> np.ndarray:
        """The left column of each node: its tree's leaves but [mid, hi)."""
        full, _, mid, hi = self._word_spans()
        return full ^ _LOW_BITS[hi] ^ _LOW_BITS[mid]


# Each node's P s coefficients at its boundaries lo, mid and hi.
_SIGNED_SCALE = np.array([-1, 2, -1], dtype=np.int8)


@dataclass(frozen=True)
class _Boundaries:
    """Every node boundary ``lo``, ``mid`` and ``hi`` below ``num_leaves``,
    one entry each, in order of boundary (a stable sort of the node-major
    list, on uint16 keys for fewer than 2**16 leaves).  Per entry: its node
    (``nodes``) and, as an (entries, 1) int8 column, the signed rule's scale
    (-1, 2, -1 at lo, mid, hi); per leaf, the number of entries at or before
    it (``last``).  A ``hi`` equal to ``num_leaves`` starts no sum and is
    left out.

    ``_right_hits`` reads the ``lo`` entries: their nodes, a stable order
    of ``lo`` (``cover_nodes``), each one's ``mid`` as int32
    (``cover_ends``), per leaf the number of them at or before it
    (``cover_last``), and the int32 leaf range (``leaves``).

    The int32 prefix sum of terms at most 2 in magnitude is exact while
    twice the entry count, at most three per node, stays below 2**31, and
    the int32 ends below 2**31 leaves; a larger model is refused before
    anything is allocated."""

    nodes: np.ndarray
    signed: np.ndarray
    last: np.ndarray
    cover_nodes: np.ndarray
    cover_ends: np.ndarray
    cover_last: np.ndarray
    leaves: np.ndarray

    @classmethod
    def build(cls, spans: np.ndarray, num_leaves: int) -> "_Boundaries":
        if 2 * 3 * len(spans) >= 2**31:
            raise ValueError(f"span tables need at most {(2**31 - 1) // 6} nodes, not {len(spans)}")
        if num_leaves >= 2**31:
            raise ValueError(f"span tables need fewer than 2**31 leaves, not {num_leaves}")
        flat = spans.ravel()
        key = flat.astype(np.uint16) if num_leaves < 2**16 else flat
        # Every hi equal to num_leaves sorts last, where it is cut off.
        order = np.argsort(key, kind="stable")[: np.count_nonzero(key < num_leaves)]
        nodes = order // 3
        boundary = order - 3 * nodes
        signed = np.take(_SIGNED_SCALE, boundary)[:, None]
        counts = np.bincount(flat, minlength=num_leaves + 1)[:num_leaves]
        # np.compress, not a boolean index: it took half the time here.
        cover = np.compress(boundary == 0, nodes)
        opened = np.bincount(spans[:, 0], minlength=num_leaves)[:num_leaves]
        return cls(
            nodes, signed, np.cumsum(counts), cover,
            spans[cover, 1].astype(np.int32), np.cumsum(opened), np.arange(num_leaves, dtype=np.int32),
        )


def _right_hits(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """Leaves that no false node excludes, where right @ t is largest.

    A false node excludes its left leaves ``[lo, mid)``, so leaf p is a hit
    when the largest ``mid`` of the false nodes with ``lo <= p`` is at most
    p: one running maximum over the ends, in order of ``lo``.  Column 0
    stays zero for the leaves before the first ``lo``, those of a first
    tree that is a lone leaf.
    """
    table = model.boundaries
    reach = np.empty((len(t), len(table.cover_ends) + 1), np.int32)
    reach[:, 0] = 0
    # np.take, not fancy indexing: on a few rows it takes a third the time.
    np.multiply(np.take(t, table.cover_nodes, axis=1), table.cover_ends, out=reach[:, 1:])
    np.maximum.accumulate(reach, axis=1, out=reach)
    return np.take(reach, table.cover_last, axis=1) <= table.leaves


def _walks(model: StackedTrees, rows: int) -> bool:
    """Whether ``qs`` descends a block of this many rows (``_child_descent``)
    rather than cover every leaf of every row (``_right_hits``): when the
    block's (rows x leaves) cover would fill at least one chunk per 16
    levels of the deepest leaf.  A model that ``fits_words`` never walks."""
    return not model.fits_words and 16 * rows * (model.num_leaves + 1) >= CHUNK_ENTRIES * model.depth


def _child_descent(model: StackedTrees, X: np.ndarray) -> np.ndarray:
    """``qs``'s exit positions on the stacked leaf axis for the rows of X,
    one row per instance: each tree's descent, for every (row, tree) pair
    at once, down ``StackedTrees.children``.

    Each step tests every pair's node as ``SplitTests.false_nodes`` does
    and moves it to the left child if the test is true, else to the right;
    pairs that reach a leaf leave the walk.  Every pair settles within the
    deepest leaf's depth of steps unless the model is corrupt: one still
    walking then, or settled outside its tree, gets -1.
    """
    children, roots = model.children
    tests = model.split_tests
    values = tests.widen(X)
    width, trees = values.shape[1], len(roots)
    values = values.ravel()
    state = np.tile(roots, len(X))
    live = np.flatnonzero(state >= 0)
    at, base = state[live], live // trees * width
    for _ in range(model.depth):
        if not live.size:
            break
        true = np.take(values, base + np.take(tests.gather, at)) > np.take(tests.thresholds, at)
        at = np.take(children, 2 * at + 1 - true)
        if at.min() < 0:
            done = at < 0
            state[live[done]] = at[done]
            keep = ~done
            live, at, base = live[keep], at[keep], base[keep]
    exits = (~state).reshape(len(X), trees)
    stops = np.append(model.leaf_starts[1:], model.num_leaves)
    exits[(exits < model.leaf_starts) | (exits >= stops)] = -1
    return exits


def _signed(t: np.ndarray) -> np.ndarray:
    """s = 2t - 1 from the boolean test matrix, in int8."""
    return 2 * t.view(np.int8) - 1


def _signed_hits(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """Leaves whose codeword agrees with s on every ancestor, P s = d: the
    leaves every node votes for under the dual rule too."""
    hits = _signed_scores(model.boundaries, _signed(t)) == model.leaf_depths[:, None]
    return np.ascontiguousarray(hits.T)


# The word rules select per entry of the boolean test matrix by masks: its
# bytes are 0 or 1, and taken to uint64, t - 1 is all ones where a node is
# true and -t where it is false.  This is faster than ``np.where``.


def _qs_words(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """The right column of each false node; true nodes exclude no leaf."""
    return model.right_words | np.subtract(t.view(np.uint8), 1, dtype=np.uint64)


def _dual_words(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """The right column of each false node, the left column of each true one."""
    right, left = model.right_words, model.left_words
    return left ^ ((right ^ left) & np.negative(t.view(np.uint8), dtype=np.uint64))


class _ExitLeafError(ValueError):
    """An algorithm found no exit leaf in some tree, or several where it
    needs one: the stacked model it read is corrupt."""


def _exit_error(algorithm: str, count: int, tree: int) -> _ExitLeafError:
    return _ExitLeafError(
        f"{algorithm} traversal found {count} exit leaves in tree {tree}; corrupt model?"
    )


def _first_hits(hits: np.ndarray, model: StackedTrees, unique: bool, algorithm: str) -> np.ndarray:
    """Position of each tree's first hit on the stacked leaf axis, one row
    per instance; raises unless each tree has a hit (exactly one if unique).

    One tree needs no per-tree segments: its first hit is the leftmost
    maximum, ``argmax``, and one gather at it (one count per row if unique)
    checks the rule.  A chunk that fails that check, and every model of
    several trees, counts each tree's hits with ``add.reduceat`` and raises
    for the first bad row and tree.
    """
    if len(model.leaf_starts) == 1:
        first = hits.argmax(axis=1)
        if (hits.sum(axis=1) == 1).all() if unique else hits[np.arange(len(hits)), first].all():
            return first[:, None]
    starts = model.leaf_starts
    counts = np.add.reduceat(hits, starts, axis=1, dtype=np.int64)
    bad = counts != 1 if unique else counts == 0
    if bad.any():
        row, tree = np.argwhere(bad)[0]
        raise _exit_error(algorithm, counts[row, tree], tree)
    width = hits.shape[1]
    return np.minimum.reduceat(np.where(hits, np.arange(width), width), starts, axis=1)


def _first_bits(words: np.ndarray, model: StackedTrees, unique: bool, algorithm: str) -> np.ndarray:
    """``_first_hits`` for per-node words: AND each tree's words, and its
    exit leaf is the lowest set bit of the result."""
    exits = np.bitwise_and.reduceat(words, model.node_starts, axis=1)
    lowest = exits & (~exits + np.uint64(1))
    bad = (exits == 0) | (lowest != exits) if unique else exits == 0
    if bad.any():
        row, tree = np.argwhere(bad)[0]
        raise _exit_error(algorithm, bin(int(exits[row, tree])).count("1"), tree)
    # A power of two converts to float64 exactly, and frexp reads its exponent.
    return np.frexp(lowest.astype(np.float64))[1] - 1 + model.leaf_starts


# ---------------------------------------------------------------------------
# The algorithm table, read by the ensemble scorer, ``batch_score`` and the
# command-line tools.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Algorithm:
    """One row of the algorithm table.  The selector reads t, or s = 2t - 1
    if ``signed``; the oracle has no ``hits`` rule and reads x itself.
    A batch exits each tree at its first hit, which must be its only one if
    ``unique``.  A ``words`` rule, if any, replaces ``hits`` on a model that
    ``fits_words``, and if ``walk``, ``_child_descent`` does on a block of
    rows that ``_walks``: it takes the rows themselves and gives exit
    positions."""

    select: Callable[[TreeMatrices, np.ndarray], TraversalResult]
    signed: bool = False
    hits: Callable[[StackedTrees, np.ndarray], np.ndarray] | None = None
    unique: bool = False
    words: Callable[[StackedTrees, np.ndarray], np.ndarray] | None = None
    walk: bool = False

    def per_vector(self) -> Callable[[TreeMatrices, np.ndarray], TraversalResult]:
        """The selector over one raw feature vector, as a plain function:
        the ``ALGORITHMS`` entry, the per-vector form the tests check the
        batch path against."""
        select = self.select
        if self.hits is None:
            return select
        if self.signed:
            return lambda mats, x: select(mats, signed_test_vector(_false_nodes(mats.tree, x)))
        return lambda mats, x: select(mats, _false_nodes(mats.tree, x))


def _naive(mats: TreeMatrices, x) -> TraversalResult:
    return mats._result(naive_traverse(mats.tree, x) - 1)


_TABLE = {
    "naive": _Algorithm(_naive),
    "qs": _Algorithm(quickscorer_traverse, hits=_right_hits, words=_qs_words, walk=True),
    "dual": _Algorithm(dual_traverse, hits=_signed_hits, unique=True, words=_dual_words),
    "matrix": _Algorithm(matrix_traverse, hits=_right_hits),
    "dualmatrix": _Algorithm(dual_matrix_traverse, hits=_signed_hits, unique=True),
    "sign": _Algorithm(sign_traverse, signed=True, hits=_signed_hits, unique=True),
    "ecoc": _Algorithm(ecoc_traverse, signed=True, hits=_signed_hits),
    "delta": _Algorithm(_delta_leaf, signed=True, hits=_signed_hits, unique=True),
}

ALGORITHMS: dict[str, Callable[[TreeMatrices, np.ndarray], TraversalResult]] = {
    name: row.per_vector() for name, row in _TABLE.items()
}


def ensemble_score(models: Sequence[TreeMatrices], x, algorithm: str) -> float:
    """Sum of per-tree exit leaf values under the named algorithm.

    Every algorithm, ``naive`` too, scores x as one chunk of one row on the
    batch path (``_chunk_exits``, the step ``batch_score`` takes per chunk;
    one row never walks), on the model's trees stacked into one
    ``StackedTrees``, reading only each ``models[i].tree``.  The first bundle ``models[0]``
    keeps that stack, built on the first call it leads with these trees, for
    later calls with the same trees.  The leaf values are added with
    ``sum_in_model_order``, so the result is the float ``treeflat score``
    prints; an empty ensemble scores 0.0.
    """
    _check_names([algorithm])
    if not models:
        return 0.0
    lead, trees = models[0], tuple([mats.tree for mats in models])
    model = lead._stack
    if model is None or model.trees != trees:
        try:
            model = lead._stack = StackedTrees.build(trees)
        except DimensionMismatchError:
            # x fails the per-vector shape check of some tree; raise its error.
            for mats in models:
                _feature_vector(x, mats.tree.feature_dim)
            raise
    x = _feature_vector(x, model.feature_dim)
    [first] = _chunk_exits(model, x[None, :], [algorithm], None)
    return float(sum_in_model_order(model.leaf_values[first])[0])


def _check_names(names: Sequence[str]) -> None:
    """Raise unless every name is in ``ALGORITHMS``."""
    for name in names:
        if name not in _TABLE:
            raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(_TABLE)}")


def _oracle_exits(model: StackedTrees, rows: np.ndarray) -> np.ndarray:
    """``naive_traverse``'s walk once per (row, tree) pair, as positions on
    the stacked leaf axis.  Each row becomes Python floats once; a tree
    with dense nodes widens it by its own products."""
    trees = [(tree, len(tree.split_tests.dense_rows) > 0) for tree in model.trees]
    leaves = []
    for x in rows:
        values = x.tolist()
        leaves.append(
            [_descend(tree, tree.split_tests.widen(x).tolist() if dense else values) for tree, dense in trees]
        )
    return np.array(leaves, dtype=np.int64) - 1 + model.leaf_starts


def _walked_exits(exits: np.ndarray, algorithm: str) -> np.ndarray:
    """A walk's exit positions; raises for the first pair that settled on
    no leaf of its tree."""
    bad = exits < 0
    if bad.any():
        _, tree = np.argwhere(bad)[0]
        raise _exit_error(algorithm, 0, tree)
    return exits


def _chunk_exits(
    model: StackedTrees,
    rows: np.ndarray,
    names: Sequence[str],
    walked: np.ndarray | None,
) -> list[np.ndarray]:
    """Each named algorithm's exit positions on the stacked leaf axis for one
    chunk's rows, in the order of ``names``; ``walked`` holds the chunk's
    exits from ``_child_descent`` if it ran on the chunk's block of rows.

    The chunk's boolean test matrix t is computed once, the first time a
    rule reads it.  Algorithms that name the same rule function share its
    result, and those that also agree on ``unique`` share the selection, so
    each runs once per chunk.  The names are worked through in order, so
    the first one whose selection fails raises its error, as if each ran on
    its own.  The oracle has no rule: it descends the trees from the rows
    themselves and reads neither t nor any selection.
    """
    t = None
    rules: dict[Callable, np.ndarray] = {}
    selections: dict[tuple[Callable, bool], np.ndarray] = {}
    exits = []
    for name in names:
        row = _TABLE[name]
        if row.hits is None:
            exits.append(_oracle_exits(model, rows))
            continue
        if row.walk and walked is not None:
            exits.append(_walked_exits(walked, name))
            continue
        if row.words is not None and model.fits_words:
            rule, select = row.words, _first_bits
        else:
            rule, select = row.hits, _first_hits
        key = (rule, row.unique)
        if key not in selections:
            if rule not in rules:
                if t is None:
                    t = model.split_tests.false_nodes(rows)
                rules[rule] = rule(model, t)
            selections[key] = select(rules[rule], model, row.unique, name)
        exits.append(selections[key])
    return exits


def _chunk_rows(model: StackedTrees) -> int:
    """Rows per chunk: an (instances x stacked leaves) array holds about
    CHUNK_ENTRIES entries."""
    return max(1, CHUNK_ENTRIES // (model.num_leaves + 1))


def _exits(model: StackedTrees, X, names: Sequence[str]) -> Iterator[list[np.ndarray]]:
    """``_chunk_exits`` for each chunk of rows of X.  If a name walks, the
    descent runs once per block of whole chunks, of at most ``WALK_PAIRS``
    (row, tree) pairs, if the block is large enough (``_walks``); each
    chunk reads its rows of the block's exits."""
    _check_names(names)
    X = _instance_matrix(model, X)
    step = _chunk_rows(model)
    block = step * max(1, WALK_PAIRS // (step * len(model.leaf_starts)))
    walk = any(_TABLE[name].walk for name in names)
    for start in range(0, len(X), block):
        rows = X[start : start + block]
        walked = _child_descent(model, rows) if walk and _walks(model, len(rows)) else None
        for at in range(0, len(rows), step):
            part = slice(at, at + step)
            yield _chunk_exits(model, rows[part], names, None if walked is None else walked[part])


def batch_leaves(model: StackedTrees, X, names: Sequence[str]) -> Iterator[np.ndarray]:
    """Exit leaves of every tree under each named algorithm for the rows of
    X, one chunk at a time.

    Yields a (rows, trees, algorithms) array per chunk of rows:
    ``leaves[i, k, a]`` is tree k's 1-based exit leaf for row i under
    ``names[a]``.  Each chunk's test matrix is computed at most once for all
    of them.  ``names`` holds one or more names from ``ALGORITHMS``.
    """
    starts = model.leaf_starts[:, None]
    for exits in _exits(model, X, names):
        yield np.stack(exits, axis=2) - starts + 1


def batch_score(
    model: StackedTrees, X, algorithm: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exit leaves of every tree for the rows of X, one chunk at a time:
    ``batch_leaves`` for one algorithm, with the leaf values.

    Yields ``(leaves, values)`` per chunk of rows: ``leaves[i, k]`` is tree
    k's 1-based exit leaf for row i and ``values[i, k]`` its leaf value.
    """
    for [first] in _exits(model, X, [algorithm]):
        yield first - model.leaf_starts + 1, model.leaf_values[first]


def _soft_chunks(model: StackedTrees, X) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each chunk's integer P s with its probabilities, each fixed by its
    row's maximum and sum and its own P s and leaf depth."""
    if len(model.leaf_starts) != 1:
        raise ValueError("soft attention works on a single tree, not an ensemble")
    X = _instance_matrix(model, X)
    step = _chunk_rows(model)
    for start in range(0, len(X), step):
        t = model.split_tests.false_nodes(X[start : start + step])
        ps = np.ascontiguousarray(_signed_scores(model.boundaries, _signed(t)).T)
        yield ps, _softmax_rows(model.leaf_depths, ps)


def batch_soft_attention(model: StackedTrees, X) -> Iterator[np.ndarray]:
    """``soft_attention`` for the rows of X, one chunk at a time: yields an
    (instances x leaves) array of probabilities per chunk.  Single trees only."""
    yield from (probs for _, probs in _soft_chunks(model, X))


def sum_in_model_order(values: np.ndarray) -> np.ndarray:
    """Row totals of per-tree leaf values, added column by column from 0.0.

    This is the order in which ``sum`` adds floats on Python 3.11 and
    earlier; Python 3.12 compensates its float sums, which can change the
    last bit.  ``np.add.accumulate`` adds along a row in order, from the
    first value rather than from 0.0, which differs only in giving -0.0 for
    a row of -0.0; adding 0.0 turns that into 0.0.  ``ensemble_score`` folds
    its one row here too.
    """
    if values.shape[1] == 0:
        return np.zeros(len(values))
    return np.add.accumulate(values, axis=1)[:, -1] + 0.0
