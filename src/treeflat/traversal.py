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

These per-vector functions take one test vector and one ``TreeMatrices``
bundle; they are the paper's dense and bitwise forms and the reference the
tests check the batch path against.  ``TreeMatrices.build`` keeps only the
tree: the depth vector and the packed right and left column masks that
``qs``, ``dual`` and ``soft_attention`` read, each mask from its node's leaf
span, and the dense (leaves x nodes) copies that the matrix, sign, ecoc and
delta forms read, are built on first read.

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
matrix is computed once, with one gather over every node of every tree,
kept as booleans.  On it each distinct rule function below runs once, and
each distinct selection (rule and whether a hit must be unique) once, for
all the named algorithms.  ``batch_score`` is the one-name case, the one
``treeflat score`` runs and ``bench`` times, and ``ensemble_score`` runs it
as a batch of one row once it has stacked a model.  Two kernels pick each
tree's exit leaf, over the same chunks:

* the word kernels run ``qs`` and ``dual`` when every tree has 2 to 64
  leaves (``StackedTrees.fits_words``).  Each node's right and left column
  is one uint64; ``qs`` ANDs the right words of each tree's false nodes,
  ``dual`` the right word of each false node and the left word of each true
  one, with one ``np.bitwise_and.reduceat`` over the node axis, and the exit
  leaf is the lowest set bit.
* the span form runs the rest: ``_right_hits`` for ``matrix`` (and ``qs``),
  ``_dual_hits`` for ``dualmatrix`` (and ``dual``) and ``_signed_hits`` for
  ``sign``, ``ecoc`` and ``delta``.  Every column of right, left and P is
  constant on the leaf ranges ``[lo, mid)`` and ``[mid, hi)`` of its node,
  so ``right @ t``, ``left @ (1 - t)`` and ``P s`` are prefix sums of a
  difference array with two or three entries per node: O(N + L) exact
  int64 work per instance instead of O(N * L).

A tree of more than 64 leaves sends ``qs`` and ``dual`` to the span form,
for the whole model: on one full tree and 1000 instances, a multiword
prototype beat the span form only up to 128 leaves and took 2x to 7x its
time from 256 to 2048 leaves (the README has the table).

Each tree's exit leaf is its first leaf meeting the algorithm's selection
rule, and an ensemble's leaf values are added column by column in model
order, from 0.0, as Python's ``sum`` adds them.  ``naive`` has no batch
form: the recursive descent runs once per (instance, tree) pair, because it
is the oracle.

``ensemble_score`` runs each tree's per-vector selector on the first call
with a model.  The second call in a row that the same first bundle leads
with the same trees stacks them, and that bundle keeps the ``StackedTrees``
for later such calls, so it lives as long as the bundle; a call with other
trees re-keys the bundle and starts over.  The module holds no state.
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
# array holds about this many entries, 256 KiB of int64; the scatter's index
# and weight arrays, with up to three entries per node, stay under 1 MiB.
# ``batch_leaves`` tests each chunk once and runs every algorithm it names,
# word or span kernel, on that one test matrix.
CHUNK_ENTRIES = 1 << 15

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
    time it is read, and kept.  The depth vector, ``full_mask`` and the
    packed right and left column masks, which the bitwise selectors and
    ``soft_attention`` read, come straight from each node's leaf span; the
    dense copies (``right``, ``left``, ``right_int``, ``left_int`` and
    ``signed``) from the ``matrices`` builders.

    ``_stack`` is ``ensemble_score``'s entry for the calls this bundle leads:
    the trees of the last such call and, once built, their ``StackedTrees``.
    It holds trees, never bundles, so no cycle keeps it past this bundle."""

    tree: BinaryDecisionTree
    _stack: tuple[tuple[BinaryDecisionTree, ...], StackedTrees | None] = field(
        default_factory=lambda: ((), None), init=False, repr=False, compare=False
    )

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
    def normalized_leaf_vectors(self) -> np.ndarray:
        """Rows of inv(D) P: each leaf's signed path vector divided by its depth."""
        return self.signed / self.depths[:, None]

    def _result(self, row: int, score: np.ndarray | None = None, processed: int | None = None) -> TraversalResult:
        return TraversalResult(row + 1, float(self.leaf_values[row]), score, processed)


def _feature_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"feature vector has shape {x.shape}, expected ({dim},)")
    return x


def _false_nodes(tree: BinaryDecisionTree, x) -> np.ndarray:
    """``compute_test_vector`` as booleans, which every selector reads."""
    # Checked inline, not through _feature_vector: ensemble_score runs this
    # once per tree of a model it has not stacked, where one more call per
    # tree cost about 3% of a call on a 200-tree model.
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.feature_dim,):
        _feature_vector(x, tree.feature_dim)  # raises the shape error
    return tree.split_tests.false_nodes(x)


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
    """Affine remap s = 2t - 1: +1 keeps marking false nodes, -1 true nodes."""
    t = np.asarray(t, dtype=np.int64)
    return 2 * t - 1


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
    features = _unit_features(W)
    return signed_test_vector(SplitTests.build(features, gamma, W[features < 0]).false_nodes(x))


def quickscorer_traverse(mats: TreeMatrices, t) -> TraversalResult:
    """AND the packed right columns of all false nodes; the exit leaf is the
    lowest surviving bit.  Never empty: the last row is all ones."""
    t = np.asarray(t)
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
    t = np.asarray(t)
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
    t = np.asarray(t, dtype=np.int64)
    v = mats.right_int @ t + 1
    return mats._result(int(np.argmax(v)), score=v)


def dual_matrix_traverse(mats: TreeMatrices, t) -> TraversalResult:
    """v = right @ t + left @ (1 - t); every node votes for the leaves it does
    not exclude, so the maximum equals the node count and is unique."""
    t = np.asarray(t, dtype=np.int64)
    v = mats.right_int @ t + mats.left_int @ (1 - t)
    return mats._result(int(np.argmax(v)), score=v)


def sign_traverse(mats: TreeMatrices, s) -> TraversalResult:
    """v = inv(D) P s; the unique entry equal to 1 marks the exit leaf.

    The comparison runs on integers (P s against the depth vector), so no
    floating-point tolerance is involved; the returned score vector is the
    float form of v.
    """
    s = np.asarray(s, dtype=np.int64)
    ps = mats.signed @ s
    hits = np.flatnonzero(ps == mats.depths)
    if hits.size != 1:
        raise ValueError(
            f"signed traversal found {hits.size} consensus leaves; corrupt matrices?"
        )
    return mats._result(int(hits[0]), score=ps / mats.depths)


def ecoc_traverse(mats: TreeMatrices, s) -> TraversalResult:
    """Scan leaves in order and return the first whose codeword agreement
    <P_i, s> / <P_i, P_i> equals 1; the score vector holds the agreements
    actually computed, in scan order."""
    s = np.asarray(s, dtype=np.int64)
    signed, depths = mats.signed, mats.depths
    similarities: list[float] = []
    for i in range(mats.num_leaves):
        dot = int(signed[i] @ s)
        depth = int(depths[i])
        similarities.append(dot / depth)
        if dot == depth:
            return mats._result(i, score=np.asarray(similarities))
    raise ValueError("no leaf codeword matched the signed test vector; corrupt matrices?")


def _delta_rows(mats: TreeMatrices, s) -> np.ndarray:
    """Rows where v = P s - d is 0; all integers, so the test is exact."""
    return np.flatnonzero(mats.signed @ np.asarray(s, dtype=np.int64) - mats.depths == 0)


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


def _span_sums(spans: np.ndarray, num_leaves: int, terms) -> np.ndarray:
    """Per-leaf sums of node terms that start at a leaf-span boundary.

    ``terms`` are ``(k, weights)`` pairs: node j adds ``weights[r, j]`` to
    row r of every leaf from its boundary ``spans[j, k]`` (0 = lo, 1 = mid,
    2 = hi) onwards, and each node's terms must sum to zero.  The terms are
    scattered into a difference array with ``np.bincount`` and summed into
    place by one prefix sum over all rows, which is back at zero at the end
    of every row.  Every value is a small integer, so the float64 scatter is
    exact and the sum runs in int64.
    """
    rows = len(terms[0][1])
    width = num_leaves + 1
    boundaries = spans.T[[k for k, _ in terms]]
    index = np.arange(0, rows * width, width)[:, None, None] + boundaries
    weights = np.stack([w for _, w in terms], axis=1)
    diff = np.bincount(index.ravel(), weights.ravel(), minlength=rows * width)
    return np.cumsum(diff.astype(np.int64)).reshape(rows, width)[:, :-1]


def _signed_scores(spans: np.ndarray, num_leaves: int, s: np.ndarray) -> np.ndarray:
    """P s for each row of s: -s on a node's left leaves [lo, mid), +s on
    its right leaves [mid, hi)."""
    return _span_sums(spans, num_leaves, [(0, -s), (1, 2 * s), (2, -s)])


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def soft_attention(mats: TreeMatrices, s) -> LeafDistribution:
    """Softmax of inv(D) P s: a smooth distribution over leaves whose argmax
    is the hard exit leaf.  P s is computed in span form as a batch of one."""
    s = np.asarray(s, dtype=np.int64)
    scores = _signed_scores(mats.tree.span_array, mats.num_leaves, s[None, :])
    return LeafDistribution(_softmax_rows(scores / mats.depths)[0])


def scaled_argmax_invariance_check(mats: TreeMatrices, t, scale) -> bool:
    """Check that the exit leaf is invariant under the two encoding changes.

    Positive per-column rescaling of the right matrix must keep the leftmost
    argmax on the exit leaf, and replacing matrix zeros with -1 must keep the
    whole argmax set unchanged.
    """
    t = np.asarray(t, dtype=np.int64)
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
    the query the argmax row is the exit leaf, returned 1-based.
    """
    query = np.asarray(query, dtype=np.float64)
    return int(np.argmax(leaf_vectors @ query)) + 1


# ---------------------------------------------------------------------------
# The batch path: every tree of a model at once, over chunks of instances.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StackedTrees:
    """A model's trees on one node axis and one leaf axis.

    ``split_tests`` stacks every tree's split tests, so
    ``compute_test_matrix`` tests every node of every tree in one gather.
    ``spans`` holds each node's ``(lo, mid, hi)`` offset onto the shared leaf
    axis, on which tree k's leaves start at ``leaf_starts[k]``; its nodes
    start at ``node_starts[k]`` on the node axis.

    If ``fits_words``, ``right_words`` and ``left_words`` hold each node's
    right and left column as one uint64, bit i standing for leaf i of the
    node's tree; they are built on first read.
    """

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
        # One pass over the trees, then one concatenation per field and one
        # offset add for the whole model: ``ensemble_score`` pays this build
        # inside one scalar call.  On a 200-tree model it took 0.38 ms, where
        # one offset add and one attribute read per tree and field took 0.99.
        features, thresholds, dense_rows, spans, depths, values = zip(
            *(
                (t.split_features, t.thresholds, t.split_tests.dense_rows,
                 t.span_array, t.leaf_depths, t.leaf_values)
                for t in trees
            )
        )
        leaves = np.fromiter(map(len, depths), np.int64, len(trees))
        nodes = np.fromiter(map(len, spans), np.int64, len(trees))
        starts = np.cumsum(leaves) - leaves
        spans = np.concatenate(spans)
        spans += np.repeat(starts, nodes)[:, None]
        # Each tree lists its dense rows in node order, so the model's dense
        # nodes, in node order, are their concatenation.
        return cls(
            feature_dim=dims.pop(),
            split_tests=SplitTests.build(
                np.concatenate(features), np.concatenate(thresholds), np.concatenate(dense_rows)
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


def _test_matrices(model: StackedTrees, X) -> Iterator[np.ndarray]:
    """``compute_test_matrix`` over chunks of rows of X, sized by
    CHUNK_ENTRIES, as booleans: True marks a false node."""
    X = _instance_matrix(model, X)
    tests = model.split_tests
    step = max(1, CHUNK_ENTRIES // (model.num_leaves + 1))
    for start in range(0, len(X), step):
        yield tests.false_nodes(X[start : start + step])


def _right_hits(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """Leaves that no false node excludes: +t at lo, -t at mid counts the
    false nodes with the leaf in their left subtree, i.e. sum(t) - right @ t;
    zero where right @ t is largest."""
    misses = _span_sums(model.spans, model.num_leaves, [(0, t), (1, -t)])
    return misses == 0


def _dual_hits(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """Leaves that no node excludes: N - (right @ t + left @ (1 - t)) is zero
    only where every node votes for the leaf."""
    terms = [(0, t), (1, 1 - 2 * t), (2, t - 1)]
    return _span_sums(model.spans, model.num_leaves, terms) == 0


def _signed_hits(model: StackedTrees, t: np.ndarray) -> np.ndarray:
    """Leaves whose codeword agrees with s on every ancestor: P s = d."""
    ps = _signed_scores(model.spans, model.num_leaves, signed_test_vector(t))
    return ps == model.leaf_depths


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


def _exit_error(algorithm: str, count: int, tree: int) -> ValueError:
    return ValueError(
        f"{algorithm} traversal found {count} exit leaves in tree {tree}; corrupt model?"
    )


def _first_hits(hits: np.ndarray, model: StackedTrees, unique: bool, algorithm: str) -> np.ndarray:
    """Position of each tree's first hit on the stacked leaf axis, one row
    per instance; raises unless each tree has a hit (exactly one if unique)."""
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
    if ``signed``; the oracle has no batch ``hits`` rule and reads x itself.
    A batch exits each tree at its first hit, which must be its only one if
    ``unique``.  A ``words`` rule, if any, replaces ``hits`` on a model that
    ``fits_words``."""

    select: Callable[[TreeMatrices, np.ndarray], TraversalResult]
    signed: bool = False
    hits: Callable[[StackedTrees, np.ndarray], np.ndarray] | None = None
    unique: bool = False
    words: Callable[[StackedTrees, np.ndarray], np.ndarray] | None = None

    def per_vector(self) -> Callable[[TreeMatrices, np.ndarray], TraversalResult]:
        """The selector over one raw feature vector, as a plain function:
        the ``ALGORITHMS`` entry, which ``ensemble_score`` sums over the
        bundles of a call it does not score on a stacked model, and the
        per-vector form the tests check the batch path against."""
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
    "qs": _Algorithm(quickscorer_traverse, hits=_right_hits, words=_qs_words),
    "dual": _Algorithm(dual_traverse, hits=_dual_hits, unique=True, words=_dual_words),
    "matrix": _Algorithm(matrix_traverse, hits=_right_hits),
    "dualmatrix": _Algorithm(dual_matrix_traverse, hits=_dual_hits, unique=True),
    "sign": _Algorithm(sign_traverse, signed=True, hits=_signed_hits, unique=True),
    "ecoc": _Algorithm(ecoc_traverse, signed=True, hits=_signed_hits),
    "delta": _Algorithm(_delta_leaf, signed=True, hits=_signed_hits, unique=True),
}

ALGORITHMS: dict[str, Callable[[TreeMatrices, np.ndarray], TraversalResult]] = {
    name: row.per_vector() for name, row in _TABLE.items()
}


def _stack_for(models: Sequence[TreeMatrices], x) -> StackedTrees | None:
    """The ``StackedTrees`` of the models' trees, built on the second call in
    a row that the same first bundle leads with the same trees, and kept on
    that bundle; None, and these trees remembered there, on any other call."""
    lead = models[0]
    trees = tuple([mats.tree for mats in models])
    keyed, model = lead._stack
    if keyed != trees:
        lead._stack = (trees, None)
        return None
    if model is None:
        try:
            model = StackedTrees.build(trees)
        except DimensionMismatchError:
            # x fails the per-vector shape check of some tree; raise its error.
            for tree in trees:
                _feature_vector(x, tree.feature_dim)
            raise
        lead._stack = (trees, model)
    return model


def ensemble_score(models: Sequence[TreeMatrices], x, algorithm: str) -> float:
    """Sum of per-tree exit leaf values under the named algorithm.

    A call led by the same bundle ``models[0]`` with the same trees as the
    last call it led stacks the trees into one ``StackedTrees``, kept on that
    bundle, and from then on every arithmetic algorithm scores x as a batch
    of one row through ``batch_score``, reading only each ``models[i].tree``.
    Any other call, and ``naive`` always, sums the ``ALGORITHMS`` selector of
    each tree, and an arithmetic call remembers its trees on its first
    bundle.  Both add the leaf values in model order, as Python floats, so
    they return the same float; an empty ensemble scores 0.
    """
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    model = _stack_for(models, x) if models and _TABLE[algorithm].hits else None
    if model is None:
        return float(sum(fn(mats, x).leaf_value for mats in models))
    x = _feature_vector(x, model.feature_dim)
    _, values = next(batch_score(model, x[None, :], algorithm))
    return float(sum(values[0].tolist()))


def _check_batch_names(names: Sequence[str]) -> None:
    """Raise unless every name has a batch form."""
    for name in names:
        row = _TABLE.get(name)
        if row is None or row.hits is None:
            batched = sorted(n for n, r in _TABLE.items() if r.hits)
            raise ValueError(f"no batch form for {name!r}; choose from {batched}")


def _chunk_exits(model: StackedTrees, t: np.ndarray, names: Sequence[str]) -> list[np.ndarray]:
    """Each named algorithm's exit positions on the stacked leaf axis for one
    chunk's boolean test matrix t, in the order of ``names``.

    Algorithms that name the same rule function share its result, and those
    that also agree on ``unique`` share the selection, so each runs once per
    chunk.  The names are worked through in order, so the first one whose
    selection fails raises its error, as if each ran on its own.
    """
    rules: dict[Callable, np.ndarray] = {}
    selections: dict[tuple[Callable, bool], np.ndarray] = {}
    exits = []
    for name in names:
        row = _TABLE[name]
        if row.words is not None and model.fits_words:
            rule, select, tests = row.words, _first_bits, t
        else:
            rule, select, tests = row.hits, _first_hits, t.view(np.int8)
        key = (rule, row.unique)
        if key not in selections:
            if rule not in rules:
                rules[rule] = rule(model, tests)
            selections[key] = select(rules[rule], model, row.unique, name)
        exits.append(selections[key])
    return exits


def batch_leaves(model: StackedTrees, X, names: Sequence[str]) -> Iterator[np.ndarray]:
    """Exit leaves of every tree under each named algorithm for the rows of
    X, one chunk at a time.

    Yields a (rows, trees, algorithms) array per chunk of rows:
    ``leaves[i, k, a]`` is tree k's 1-based exit leaf for row i under
    ``names[a]``.  Each chunk's test matrix is computed once for all of
    them.  ``names`` holds one or more algorithms with a batch form.
    """
    _check_batch_names(names)
    starts = model.leaf_starts[:, None]
    for t in _test_matrices(model, X):
        yield np.stack(_chunk_exits(model, t, names), axis=2) - starts + 1


def batch_score(
    model: StackedTrees, X, algorithm: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exit leaves of every tree for the rows of X, one chunk at a time:
    ``batch_leaves`` for one algorithm, with the leaf values.

    Yields ``(leaves, values)`` per chunk of rows: ``leaves[i, k]`` is tree
    k's 1-based exit leaf for row i and ``values[i, k]`` its leaf value.
    """
    _check_batch_names([algorithm])
    for t in _test_matrices(model, X):
        [first] = _chunk_exits(model, t, [algorithm])
        yield first - model.leaf_starts + 1, model.leaf_values[first]


def batch_soft_attention(model: StackedTrees, X) -> Iterator[np.ndarray]:
    """``soft_attention`` for the rows of X, one chunk at a time: yields an
    (instances x leaves) array of probabilities per chunk.  Single trees only."""
    if len(model.leaf_starts) != 1:
        raise ValueError("soft attention works on a single tree, not an ensemble")
    for t in _test_matrices(model, X):
        ps = _signed_scores(model.spans, model.num_leaves, signed_test_vector(t))
        yield _softmax_rows(ps / model.leaf_depths)


def sum_in_model_order(values: np.ndarray) -> np.ndarray:
    """Row totals of per-tree leaf values, added column by column from 0.0.

    This is the order in which ``sum`` adds floats on Python 3.11 and
    earlier; Python 3.12 compensates its float sums, which can change the
    last bit.  ``cumsum`` adds along a row in order, from the first value
    rather than from 0.0, which differs only in giving -0.0 for a row of
    -0.0; adding 0.0 turns that into 0.0.
    """
    if values.shape[1] == 0:
        return np.zeros(len(values))
    return np.cumsum(values, axis=1)[:, -1] + 0.0
