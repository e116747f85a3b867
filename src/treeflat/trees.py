"""Decision tree data model: construction, validation, serialization, random
generation, and the recursive traversal oracle.

Binary and general trees share one core: one walk validates the node
objects of either kind, and one iterative walk reads the nodes of either
kind's documents into pre-order columns: per node a number and its parent's
index.  Each kind adds only its own node checks and fields.  A binary
node's children are ``(left, right)``, so a binary tree is numbered exactly
as the same tree read as a general tree.

Every binary tree is node arrays, derived from those columns (with a
feature index or a weight row per internal node): the parser, the
samplers, ``recover_tree`` and ``convert_general_to_binary`` fill them, and
``BinaryDecisionTree(root, feature_dim)`` walks ``Internal``/``Leaf``/
``Predicate`` objects into them.  The breadth-first numbering, the leaf
order, the leaf depths, the leaf spans and the split tests of every binary
tree are derived from the columns by array operations, once for the whole
model: one ``_unit_features`` per feature dimension finds the weight rows
that are one-hot splits.  A tree built from objects keeps them; any other
builds them from its arrays on the first read of ``root``,
``internal_nodes`` or ``leaves``.  Scoring, ``naive_traverse`` and the
serializer read only the arrays, and ``validate`` walks the objects of a
tree built from them and reads the arrays of any other.  General trees are
built as objects from their columns, and one object walk numbers them.

Conventions shared by the whole package:

* Internal nodes are numbered in breadth-first order starting at 0 (root),
  in both kinds of tree.
* Leaves are numbered 1..|L| from left to right.  Every public API reports
  1-based leaf indices; the matrix row for leaf ``i`` is row ``i - 1``.
* A node test is ``weights . x > threshold`` (strict).  A true test routes to
  the left child, a false test to the right child; ties count as false.
  ``SplitTests`` is the one implementation of it: a one-hot split reads
  ``x[f] > threshold`` straight from its feature, a dense node takes the
  product of ``dense_products``, and a NaN value fails the test.
* Trees are treated as immutable once constructed.  All derived numbering is
  recomputed from the structure, never trusted from input files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

__all__ = [
    "BinaryDecisionTree",
    "DimensionMismatchError",
    "GeneralInternal",
    "GeneralTree",
    "Internal",
    "Leaf",
    "Predicate",
    "TreeFormatError",
    "ValidationReport",
    "generate_random_general_tree",
    "generate_random_tree",
    "naive_traverse",
    "parse_model",
    "parse_tree",
    "random_instances",
    "serialize_ensemble",
    "serialize_tree",
    "validate",
]

WEIGHT_SUM_TOL = 1e-12


class TreeFormatError(ValueError):
    """Raised when a serialized tree document cannot be parsed, or a tree
    cannot be serialized."""


class DimensionMismatchError(ValueError):
    """Raised when a feature vector's length does not match the model."""


@dataclass(frozen=True, eq=False)
class Predicate:
    """Linear threshold test ``weights . x > threshold``.

    A plain single-feature split is a one-hot ``weights`` vector.
    """

    weights: np.ndarray
    threshold: float

    @classmethod
    def one_hot(cls, feature: int, threshold: float, dim: int) -> "Predicate":
        w = np.zeros(dim)
        w[feature] = 1.0
        return cls(w, float(threshold))


def _unit_features(rows: np.ndarray) -> np.ndarray:
    """Per weight row, the feature of a one-hot split (its only nonzero
    weight, which is 1.0), or -1 for dense weights."""
    unit = rows == 1.0
    one_hot = (np.count_nonzero(rows, axis=1) == 1) & unit.any(axis=1)
    return np.where(one_hot, unit @ np.arange(rows.shape[1]), -1)


# Entries of the elementwise product ``dense_products`` holds at once.
_DENSE_ENTRIES = 1 << 20


def dense_products(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``rows @ x`` for x, or for each row of X: shape ``(..., len(rows))``.

    Each product is the elementwise product summed over the contiguous
    feature axis, so it is the same float however many rows X has or how
    they are blocked; a matrix product is not (BLAS rounds differently by
    shape).  A ``0 * inf`` or ``inf - inf`` gives NaN without a warning.
    """
    flat = X.reshape(-1, X.shape[-1])
    out = np.empty((len(flat), len(rows)))
    step = max(1, _DENSE_ENTRIES // max(1, rows.size))
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(flat), step):
            out[start : start + step] = (flat[start : start + step, None, :] * rows).sum(axis=-1)
    return out.reshape(*X.shape[:-1], len(rows))


@dataclass(frozen=True, eq=False)
class SplitTests:
    """The split test of every internal node of a tree or a stacked model.

    Node j tests ``v > thresholds[j]``, where v is column ``gather[j]`` of
    the instance widened by one column per dense node: a one-hot split
    reads its feature, and the k-th dense node column ``feature_dim + k``,
    its ``dense_products`` value with weight row ``dense_rows[k]``.  The
    test is true where v is greater, so NaN fails it and ±inf route by sign.
    """

    gather: np.ndarray
    thresholds: np.ndarray
    dense_rows: np.ndarray

    def widen(self, X: np.ndarray) -> np.ndarray:
        """x, or each row of X, followed by its dense products."""
        if not len(self.dense_rows):
            return X
        return np.concatenate([X, dense_products(self.dense_rows, X)], axis=-1)

    def false_nodes(self, X: np.ndarray) -> np.ndarray:
        """Per node of x, or of each row of X, True where its test is false:
        ``~(v > threshold)``, not ``v <= threshold``, so a NaN value fails."""
        t = np.greater(self.widen(X).take(self.gather, axis=-1), self.thresholds)
        return np.logical_not(t, out=t)


@dataclass(frozen=True, eq=False)
class Leaf:
    value: float


@dataclass(frozen=True, eq=False)
class Internal:
    predicate: Predicate
    left: "Node | None"
    right: "Node | None"

    @property
    def children(self) -> tuple["Node | None", "Node | None"]:
        """``(left, right)``: a binary node read as a general one."""
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class GeneralInternal:
    """Internal node of a general tree: ordered children with routing weights."""

    children: tuple["GNode", ...]
    weights: np.ndarray


Node = Union[Internal, Leaf]
GNode = Union[GeneralInternal, Leaf]


class _Tree:
    """What both tree kinds share.

    * ``internal_nodes`` lists internal nodes in breadth-first order.
    * ``leaves`` lists leaves from left to right, and ``leaf_depths`` gives
      their depths in edges.
    * Every subtree covers a contiguous, half-open range of leaf rows.

    Each kind sets ``_internal``, its internal node class (a node of any
    other class is neither internal nor leaf, and ``validate`` reports it),
    and defines ``_check_internal``, which reports the problems of one
    internal node and pushes its well-formed children onto the validation
    stack.  ``validate`` walks the node objects of a tree whose ``_objects``
    is set: every general tree, and a binary tree built from objects.
    """

    _internal: type
    _objects = True

    @property
    def num_internal(self) -> int:
        return len(self.internal_nodes)

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_depths)

    @cached_property
    def _leaf_pos(self) -> dict[int, int]:
        return {id(leaf): pos for pos, leaf in enumerate(self.leaves)}

    def leaf_position(self, leaf: Leaf) -> int:
        """1-based left-to-right index of a leaf object of this tree."""
        return self._leaf_pos[id(leaf)] + 1


class _NodeView:
    """A node-object attribute (``root``, ``internal_nodes``, ``leaves``) of
    a binary tree.  The object constructor sets the attribute on the
    instance, which hides this descriptor; any other tree builds all of
    them from its arrays on the first read of any, and keeps them.  A
    malformed tree has no arrays, so the read raises."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, tree, owner=None):
        if tree is None:
            return self
        tree.__dict__.update(tree._node_view())
        return tree.__dict__[self.name]


class _NoArrays:
    """A node array of a binary tree.  Every tree whose nodes give arrays
    sets it on the instance, which hides this descriptor; reading it on a
    tree built from objects that give none raises."""

    def __get__(self, tree, owner=None):
        if tree is None:
            return self
        raise ValueError("tree is malformed: its node objects give no node arrays; run validate()")


class BinaryDecisionTree(_Tree):
    """Full binary decision tree over a fixed feature space, held as node
    arrays: ``span_array``, ``thresholds``, ``leaf_values``, ``leaf_depths``,
    ``split_tests`` and ``_children``.  ``span_array[j]`` is ``(lo, mid,
    hi)`` for internal node ``j``: its subtree covers leaf rows ``lo..hi-1``
    with the left subtree ending at ``mid`` (0-based, half-open).
    ``_children[j]`` is node j's ``(left, right)``: a child ``c >= 0`` is
    internal node c, a child ``c < 0`` is leaf row ``~c``.  ``split_tests``
    is the one form of the splits, built with the other arrays: a
    ``gather`` column below ``feature_dim`` is a one-hot split's feature,
    and column ``feature_dim + k`` a dense node with weight row
    ``dense_rows[k]``.  A weight row whose only nonzero weight is 1.0 is a
    one-hot split, whether parsed or built from a ``Predicate``.

    The constructor walks ``Internal``/``Leaf`` objects into the columns
    the parser fills, takes the same arrays from them, and keeps the
    caller's objects as ``root``, ``internal_nodes`` and ``leaves``.  A
    tree made from columns builds them from its arrays on first read.
    Scoring, the oracle and the serializer read only the arrays.  Objects
    that give no arrays (a shared node, a missing or foreign child, a node
    without a ``Predicate``, a weight row of another length, or a
    non-number) make a malformed tree: ``validate`` reports its faults, and
    reading any of its arrays raises ValueError.
    """

    _internal = Internal
    _objects = False  # a tree made from columns: validate reads its arrays
    root = _NodeView()
    internal_nodes = _NodeView()
    leaves = _NodeView()
    span_array = thresholds = leaf_values = leaf_depths = split_tests = _children = _NoArrays()

    def __init__(self, root: Node, feature_dim: int):
        self.root, self.feature_dim, self._objects = root, int(feature_dim), True
        columns = _BinaryColumns()
        nodes = columns.read_objects(root, self.feature_dim)
        if nodes is not None:
            [tree] = columns.trees()
            self.__dict__.update(vars(tree))
            internal, self.leaves = nodes
            self.internal_nodes = [internal[k] for k in columns.breadth_first.tolist()]

    @classmethod
    def _from_arrays(cls, **arrays) -> "BinaryDecisionTree":
        """A tree of ``feature_dim``, ``split_tests``, ``_children``,
        ``span_array``, ``thresholds``, ``leaf_values`` and ``leaf_depths``."""
        tree = cls.__new__(cls)
        tree.__dict__.update(arrays)
        return tree

    def _node_view(self) -> dict:
        """``root``, ``internal_nodes`` and ``leaves`` of a tree made from
        columns, built from its arrays bottom-up (breadth-first order lists
        every child after its parent)."""
        tests, dim = self.split_tests, self.feature_dim
        leaves = [Leaf(value) for value in self.leaf_values.tolist()]
        nodes: list = [None] * self.num_internal
        rows = zip(tests.gather.tolist(), self.thresholds.tolist(), self._children.tolist())
        for j, (column, threshold, (left, right)) in reversed(list(enumerate(rows))):
            predicate = (
                Predicate.one_hot(column, threshold, dim)
                if column < dim
                else Predicate(tests.dense_rows[column - dim], threshold)
            )
            nodes[j] = Internal(
                predicate,
                nodes[left] if left >= 0 else leaves[~left],
                nodes[right] if right >= 0 else leaves[~right],
            )
        return {"root": nodes[0] if nodes else leaves[0], "internal_nodes": nodes, "leaves": leaves}

    @property
    def num_internal(self) -> int:
        return len(self.span_array)

    @cached_property
    def leaf_spans(self) -> list[tuple[int, int, int]]:
        """``span_array`` as a list of ``(lo, mid, hi)`` tuples."""
        return list(map(tuple, self.span_array.tolist()))

    def _branch_factors(self, p) -> np.ndarray:
        """``concatenate([p, 1 - p])`` for branch probabilities p, checked:
        the factor of every (leaf, ancestor) pair, indexed by the pair's
        ``branch`` in ``_path_table``.

        Adding 0.0 turns a p_j of -0.0 into the 0.0 that the mixture's
        p_j + 0 * (1 - p_j) gives.
        """
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.num_internal,):
            raise ValueError(
                f"probability vector has shape {p.shape}, expected ({self.num_internal},)"
            )
        if p.size and not (0.0 <= p.min() and p.max() <= 1.0):
            raise ValueError("branch probabilities must lie in [0, 1]")
        p = p + 0.0
        return np.concatenate([p, 1.0 - p])

    def _path_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (leaf, ancestor) pair of the tree as ``(leaf, node,
        branch)``, node by node: each node's leaves ``lo..hi-1``.
        ``branch`` is ``node`` for a leaf in the node's left subtree and
        ``N + node`` for one in its right subtree, so it indexes
        ``_branch_factors``.  Every pair comes once.
        """
        n = self.num_internal
        lo, mid, hi = self.span_array.T
        lengths = hi - lo
        # The array methods, not np.repeat and np.cumsum: on a 33-leaf tree
        # those functions' dispatch costs more than the work.
        node = np.arange(n).repeat(lengths)
        leaf = np.arange(len(node)) + (lo + lengths - lengths.cumsum())[node]
        return leaf, node, node + n * (leaf >= mid[node])

    @cached_property
    def _path_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """``_path_table`` as ``(cell, branch)`` for the row-major (leaves x
        nodes) matrices: ``cell`` is ``leaf * N + node``, the pair's flat
        index.  Every cell comes once, so a builder writes them in any
        order.

        The right, left and signed builders and ``leaf_distribution`` build
        it on first use; loading and scoring never read it.
        """
        leaf, node, branch = self._path_table()
        return leaf * self.num_internal + node, branch

    @cached_property
    def _path_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """``_path_table`` as ``(cell, branch)`` for a (nodes x leaves)
        buffer, the column-major storage of a (leaves x nodes) matrix:
        ``cell`` is ``node * L + leaf``.  Node by node, each node's leaves
        are consecutive, so the index only grows.  Only
        ``build_fuzzy_matrix`` reads it; the tree builds it once, so no
        call pays for the index.
        """
        leaf, node, branch = self._path_table()
        return node * self.num_leaves + leaf, branch

    @cached_property
    def _path_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``_path_cells``'s branches in row-major order, by leaf and then by
        node, and the start of each leaf's row in it.  Breadth-first
        numbering puts a node after its parent, so each row runs root
        first, and a leaf's row is as long as its depth.  Only
        ``leaf_distribution`` reads it.
        """
        cell, branch = self._path_cells
        depths = self.leaf_depths
        return branch[np.argsort(cell)], depths.cumsum() - depths

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Stacked predicate weights, one row per internal node: one scatter
        of the one-hot features, plus the dense weight rows."""
        gather, dim = self.split_tests.gather, self.feature_dim
        w = np.zeros((self.num_internal, dim))
        one_hot = np.flatnonzero(gather < dim)
        w[one_hot, gather[one_hot]] = 1.0
        w[gather >= dim] = self.split_tests.dense_rows
        return w

    @cached_property
    def _routing(self) -> tuple[list, list, list]:
        """The gather index, thresholds and children as lists, for the
        oracle's walk."""
        return self.split_tests.gather.tolist(), self.thresholds.tolist(), self._children.tolist()

    def _check_internal(self, node: Internal, path: str, problems: list, stack: list) -> None:
        pred = node.predicate
        if not isinstance(pred, Predicate):
            problems.append(f"internal node {path} has no predicate")
        else:
            w = np.asarray(pred.weights)
            if w.shape != (self.feature_dim,):
                problems.append(
                    f"internal node {path} has weights of length {w.size}, "
                    f"expected {self.feature_dim}"
                )
            elif np.count_nonzero(w) == 0:
                problems.append(f"internal node {path} has all-zero weights")
            elif w.dtype.kind not in "biuf":  # the constructor casts them to float64
                problems.append(f"internal node {path} has non-numeric weights")
            if not _is_finite_number(pred.threshold):
                problems.append(f"internal node {path} has a non-finite threshold")
        for side, child in (("left", node.left), ("right", node.right)):
            if child is None:
                problems.append(f"internal node {path} is missing its {side} child")
            elif not isinstance(child, (Internal, Leaf)):
                problems.append(f"internal node {path} has a malformed {side} child")
            else:
                stack.append((child, f"{path}.{side}"))


class GeneralTree(_Tree):
    """Rooted tree whose internal nodes have two or more weighted children.

    General trees carry no predicates; they route probabilistically by the
    per-edge weights.  ``child_spans[j][k]`` is the half-open leaf row range
    of internal node ``j``'s k-th child subtree.  One walk over the node
    objects numbers them as the parser numbers a binary tree's nodes.
    """

    _internal = GeneralInternal

    def __init__(self, root: GNode, feature_dim: int = 0):
        self.root, self.feature_dim = root, int(feature_dim)
        self.leaves: list[Leaf] = []
        depths: list[int] = []
        levels: list[list[GeneralInternal]] = []
        # id(node) -> leaf-row range (lo, hi) of its subtree; a leaf's is
        # (pos, pos + 1).  The walk goes depth first, first child first, so
        # leaves come out left to right, and listing each depth's internal
        # nodes in the order it meets them gives the breadth-first order.  A
        # node comes off the stack a second time, with its children, once its
        # subtree is walked; it gets a range then if every child has one.
        ranges: dict[int, tuple[int, int]] = {}
        stack: list[tuple[object, int, tuple | None]] = [(root, 0, None)]
        while stack:
            node, depth, children = stack.pop()
            if children is not None:
                spans = [ranges.get(id(child)) for child in children]
                if None not in spans:
                    ranges[id(node)] = (spans[0][0], spans[-1][1])
            elif isinstance(node, Leaf):
                ranges[id(node)] = (len(depths), len(depths) + 1)
                self.leaves.append(node)
                depths.append(depth)
            elif isinstance(node, GeneralInternal):
                if depth == len(levels):
                    levels.append([])
                levels[depth].append(node)
                if node.children:  # a childless node gets no range
                    stack.append((node, depth, node.children))
                stack += [(c, depth + 1, None) for c in reversed(node.children) if c is not None]
        self.internal_nodes = [node for level in levels for node in level]
        self.leaf_depths = np.asarray(depths, dtype=np.int64)
        self.child_spans: list[list[tuple[int, int]]] = [
            [ranges.get(id(c), (0, 0)) for c in node.children] for node in self.internal_nodes
        ]

    @cached_property
    def leaf_values(self) -> np.ndarray:
        return np.asarray([leaf.value for leaf in self.leaves], dtype=np.float64)

    @property
    def max_children(self) -> int:
        return max((len(n.children) for n in self.internal_nodes), default=0)

    def _check_internal(
        self, node: GeneralInternal, path: str, problems: list, stack: list
    ) -> None:
        if len(node.children) < 2:
            problems.append(f"internal node {path} has fewer than two children")
        w = np.asarray(node.weights, dtype=np.float64)
        if w.shape != (len(node.children),):
            problems.append(
                f"internal node {path} has {w.size} weights for "
                f"{len(node.children)} children"
            )
        elif (w < 0).any() or not np.isfinite(w).all():
            problems.append(f"internal node {path} has negative or non-finite weights")
        elif abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            problems.append(f"internal node {path} weights sum to {float(w.sum())!r}, not 1")
        for k, child in enumerate(node.children, start=1):
            if not isinstance(child, (GeneralInternal, Leaf)):
                problems.append(f"internal node {path} has a malformed child {k}")
            else:
                stack.append((child, f"{path}.{k}"))


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]

    def __bool__(self) -> bool:
        return self.ok


def _is_finite_number(x) -> bool:
    """A real number whose float value, as the tree stores it
    (``_object_number``), is finite; an int or a ``np.longdouble`` too large
    for a float is not."""
    value = _object_number(x)
    return value is not None and math.isfinite(value)


def _array_problems(tree: BinaryDecisionTree) -> list[str]:
    """``_validate`` for a tree made from columns, which let through only
    non-finite numbers and all-zero dense weights.  When the arrays hold one
    of them, a walk over the arrays reports each with the object walk's
    message and path, in its order (right child first)."""
    tests, thresholds, values = tree.split_tests, tree.thresholds, tree.leaf_values
    zero = set()
    if len(tests.dense_rows):  # only a dense row can be all zero
        dense = np.flatnonzero(tests.gather >= tree.feature_dim)
        zero = set(dense[~tests.dense_rows.any(axis=1)].tolist())
    if not zero and np.isfinite(thresholds).all() and np.isfinite(values).all():
        return []
    problems: list[str] = []
    thresholds, values = thresholds.tolist(), values.tolist()
    children = tree._children.tolist()
    stack = [(0 if children else -1, "root")]
    while stack:
        j, path = stack.pop()
        if j < 0:
            if not math.isfinite(values[~j]):
                problems.append(f"leaf {path} has a non-finite value")
            continue
        if j in zero:
            problems.append(f"internal node {path} has all-zero weights")
        if not math.isfinite(thresholds[j]):
            problems.append(f"internal node {path} has a non-finite threshold")
        left, right = children[j]
        stack += [(left, f"{path}.left"), (right, f"{path}.right")]
    return problems


def _validate(tree: _Tree) -> list[str]:
    if not tree._objects:
        return _array_problems(tree)
    if tree.root is None:
        return ["tree has no root"]
    problems: list[str] = []
    binary = isinstance(tree, BinaryDecisionTree)
    # A lone leaf is a binary tree, which every traversal routes to leaf 1,
    # but not a general one: ``convert_general_to_binary`` needs a node.
    if not binary and isinstance(tree.root, Leaf):
        problems.append("tree must have at least one internal node")
    internal, check_internal = tree._internal, tree._check_internal
    seen: set[int] = set()
    internal_count = 0
    leaves_right_to_left: list[Leaf] = []
    # The per-kind check pushes the well-formed children in order, so the
    # walk meets the leaves from right to left.
    stack: list[tuple[object, str]] = [(tree.root, "root")]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            problems.append(f"node {path} appears more than once (shared subtree)")
            continue
        seen.add(id(node))
        if isinstance(node, Leaf):
            leaves_right_to_left.append(node)
            if not _is_finite_number(node.value):
                problems.append(f"leaf {path} has a non-finite value")
        elif isinstance(node, internal):
            internal_count += 1
            check_internal(node, path, problems, stack)
        else:
            problems.append(f"node {path} is neither internal nor leaf")
    leaf_count = len(leaves_right_to_left)
    if binary and internal_count and leaf_count != internal_count + 1:
        problems.append(
            f"leaf count {leaf_count} does not equal internal count {internal_count} + 1"
        )
    # Derived numbering must be reproducible from the current structure.
    if not problems and not _numbering_matches(tree, leaves_right_to_left):
        problems.append("stored node numbering does not match the structure")
    return problems


def _numbering_matches(tree: _Tree, leaves_right_to_left: list[Leaf]) -> bool:
    """Whether the stored numbering is the one the tree derives from the
    (already valid) structure, checked without deriving it again.

    A sequence is the breadth-first order of the internal nodes exactly when
    it starts at the root and the internal children of its nodes, taken in
    order, are the rest of it.
    """
    nodes, internal = tree.internal_nodes, tree._internal
    # The root comes first; a tree with no node lists none.
    if (nodes[0] is not tree.root) if nodes else isinstance(tree.root, internal):
        return False
    checked = 1  # nodes[:checked] are the root and the children met so far
    for k, node in enumerate(nodes):
        if k == checked:  # the stored list runs past the breadth-first order
            return False
        for child in node.children:
            if isinstance(child, internal):
                if checked == len(nodes) or nodes[checked] is not child:
                    return False
                checked += 1
    stored = [id(leaf) for leaf in tree.leaves]
    return stored == [id(leaf) for leaf in reversed(leaves_right_to_left)]


def validate(tree: BinaryDecisionTree | GeneralTree) -> ValidationReport:
    """Check every structural invariant and report violations as data.

    Violations never raise; the report lists one message per problem with the
    path of the offending node.
    """
    problems = _validate(tree) if isinstance(tree, _Tree) else ["object is not a tree"]
    return ValidationReport(not problems, problems)


def _feature_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"feature vector has shape {x.shape}, expected ({dim},)")
    return x


def naive_traverse(tree: BinaryDecisionTree, x) -> int:
    """Walk from the root and return the 1-based exit leaf index.

    This descent is the ground-truth oracle every arithmetic traversal is
    checked against; it never touches the matrix machinery.  It walks the
    tree's child arrays, testing the value ``SplitTests`` reads for each
    node (x as Python floats, widened by the dense products) against the
    threshold, so no node object is read.
    """
    x = _feature_vector(x, tree.feature_dim)
    return _descend(tree, tree.split_tests.widen(x).tolist())


def _descend(tree: BinaryDecisionTree, values: list) -> int:
    """``naive_traverse``'s walk over x's values as Python floats, widened
    by the tree's dense products if it has any."""
    gather, thresholds, children = tree._routing
    j = 0 if children else -1
    while j >= 0:
        j = children[j][0] if values[gather[j]] > thresholds[j] else children[j][1]
    return ~j + 1


# ---------------------------------------------------------------------------
# Serialization.  A document is
#   {"type": "binary"|"general", "feature_dim": int, "root": <node>}
# with binary internal nodes {"feature"|"weights", "threshold", "left", "right"},
# general internal nodes {"children": [...], "weights": [...]}, and leaves
# {"leaf": value}.  Ensembles wrap tree documents:
#   {"type": "ensemble", "trees": [<tree document>, ...]}.
# ---------------------------------------------------------------------------

_BINARY_NODE_KEYS = {"feature", "weights", "threshold", "left", "right"}
_GENERAL_NODE_KEYS = {"children", "weights"}


class _NodeError(Exception):
    """A malformed node, found before its path is known: ``message`` maps
    the path to the error text, so a path is formatted only for an error."""

    def __init__(self, message: Callable[[str], str]):
        super().__init__()
        self.message = message


def _number(value, what: str) -> float:
    """``value`` as a float; ``what`` names the number, with ``{}`` for the
    node path."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise _NodeError(lambda path: f"{what.format(path)} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _NodeError(
            lambda path: f"{what.format(path)} is an integer too large for a float"
        ) from None


def _object_number(value) -> float | None:
    """A node object's number as a float, with an int too large for a float
    as ±inf, as the parser reads 1e400; None for a non-number."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class _NodeColumns:
    """Pre-order node columns of tree documents, written by the one
    iterative walk both tree kinds share.

    Per node, ``numbers`` holds a leaf's value or what the kind's reader
    returns for an internal node, and ``parents`` the parent's index (-1 at
    a root); a node's children are the later nodes that name it, in order.
    The reader checks an internal node, keeps the kind's own fields, and
    returns the node's number and its child documents, last child first.
    Several documents may be walked into one set of columns, one after
    another.
    """

    def __init__(self, internal_keys: set[str], slot_names: tuple[str, ...] | None):
        self.numbers: list = []
        self.parents: list[int] = []
        self._internal_keys = internal_keys
        self._slot_names = slot_names  # None: children are numbered from 1

    def walk(self, root, read_internal: Callable[[dict, int], tuple]) -> None:
        numbers, parents, keys = self.numbers, self.parents, self._internal_keys
        stack = [(root, -1)]
        pop, push = stack.pop, stack.append
        try:
            while stack:
                obj, parent = pop()
                node = len(parents)
                parents.append(parent)
                if not isinstance(obj, dict):
                    raise _NodeError(lambda path: f"node {path} must be an object")
                if "leaf" in obj:
                    if len(obj) > 1:
                        extra = sorted(set(obj) - {"leaf"})
                        raise _NodeError(lambda path: f"leaf {path} has unexpected keys {extra}")
                    value = obj["leaf"]
                    numbers.append(value if type(value) is float else _number(value, "leaf {} value"))
                    continue
                if not obj.keys() <= keys:
                    extra = sorted(set(obj) - keys)
                    raise _NodeError(lambda path: f"node {path} has unexpected keys {extra}")
                number, children = read_internal(obj, node)
                numbers.append(number)
                for child in children:
                    push((child, node))
        except _NodeError as exc:
            raise TreeFormatError(exc.message(self._path(len(parents) - 1))) from None

    def _path(self, node: int) -> str:
        parents, names, parts = self.parents, self._slot_names, []
        while parents[node] >= 0:
            parent = parents[node]
            slot = parents[parent:node].count(parent)  # earlier siblings
            parts.append(names[slot] if names else str(slot + 1))
            node = parent
        return ".".join(["root", *reversed(parts)])


class _BinaryColumns(_NodeColumns):
    """The columns of a model's binary trees.  Besides the shared columns,
    ``features`` holds each internal node's feature in pre-order (-1 for a
    weight row) and ``rows`` the weight rows of those nodes, in the same
    order.  ``trees`` derives the arrays of every tree at once."""

    def __init__(self):
        super().__init__(_BINARY_NODE_KEYS, ("left", "right"))
        self.features: list[int] = []
        self.rows: list = []
        self.starts: list[int] = []  # index of each tree's root
        self.dims: list[int] = []

    def read(self, root, dim: int) -> None:
        features, rows = self.features, self.rows
        self.starts.append(len(self.numbers))
        self.dims.append(dim)

        def read_internal(obj: dict, node: int) -> tuple[float, tuple]:
            if "threshold" not in obj:
                raise _NodeError(lambda path: f"internal node {path} is missing 'threshold'")
            left, right = obj.get("left"), obj.get("right")
            if left is None or right is None:
                side = "left" if left is None else "right"
                raise _NodeError(
                    lambda path: f"internal node {path} must have both children ('{side}' missing)"
                )
            threshold = obj["threshold"]
            if type(threshold) is not float:
                threshold = _number(threshold, "node {} threshold")
            if "weights" in obj:
                raw = obj["weights"]
                if not isinstance(raw, list) or len(raw) != dim:
                    raise _NodeError(lambda path: f"node {path} weights must be a list of {dim} numbers")
                rows.append([_number(v, "node {} weight") for v in raw])
                features.append(-1)
            elif "feature" in obj:
                feature = obj["feature"]
                if type(feature) is not int:  # JSON gives int, or bool, which is no feature
                    raise _NodeError(lambda path: f"node {path} feature must be an integer")
                if not 0 <= feature < dim:
                    raise _NodeError(
                        lambda path: f"node {path} feature {feature} is out of range for dimension {dim}"
                    )
                features.append(feature)
            else:
                raise _NodeError(lambda path: f"internal node {path} needs 'feature' or 'weights'")
            return threshold, (right, left)

        self.walk(root, read_internal)

    def read_objects(self, root, dim: int) -> tuple[list[Internal], list[Leaf]] | None:
        """Walk a tree of ``Internal``/``Leaf`` objects into the columns, as
        ``read`` walks a document, and return its internal nodes and leaves
        in pre-order; None, with the columns left unusable, when the objects
        give no arrays (``BinaryDecisionTree`` lists why)."""
        numbers, parents = self.numbers, self.parents
        self.starts.append(len(numbers))
        self.dims.append(dim)
        internal, leaves, rows, seen = [], [], [], set()
        stack = [(root, -1)]
        pop, push, see = stack.pop, stack.append, seen.add
        while stack:
            node, parent = pop()
            if id(node) in seen:  # a shared node
                return None
            see(id(node))
            if isinstance(node, Leaf):
                value = node.value
                leaves.append(node)
            elif isinstance(node, Internal) and isinstance(node.predicate, Predicate):
                value = node.predicate.threshold
                rows.append(node.predicate.weights)
                internal.append(node)
                push((node.right, len(parents)))
                push((node.left, len(parents)))
            else:
                return None
            if type(value) is not float and (value := _object_number(value)) is None:
                return None
            numbers.append(value)
            parents.append(parent)
        try:
            rows = np.array(rows, dtype=np.float64) if rows else np.zeros((0, dim))
        except (TypeError, ValueError, OverflowError):
            return None
        if rows.shape != (len(internal), dim):
            return None
        self.features += [-1] * len(rows)
        self.rows += list(rows)
        return internal, leaves

    def trees(self) -> list[BinaryDecisionTree]:
        """Every tree's arrays, derived by array operations over the whole
        model.  In pre-order, a node's left child is the next node, and its
        leaves are the leaf rows from the leaves before it to its last leaf,
        found by following right children.  ``breadth_first`` keeps the
        model's internal nodes in breadth-first order, as their places in
        pre-order among the internal nodes.

        One ``_unit_features`` per feature dimension classifies every weight
        row: a row whose only nonzero weight is 1.0 is that feature's
        one-hot split, and the rest are dense.  Each tree's ``SplitTests``
        numbers its dense nodes in node order from ``feature_dim``."""
        if not self.dims:
            return []
        count = len(self.numbers)
        number = np.array(self.numbers, dtype=np.float64)
        parent = np.array(self.parents, dtype=np.int64)
        node = np.arange(count)
        is_right = (parent >= 0) & (parent != node - 1)
        right = np.full(count, -1)
        right[parent[is_right]] = node[is_right]
        leaf = right < 0
        # Depth is the number of ancestors, summed by pointer doubling.
        depth, above = (parent >= 0).astype(np.int64), parent
        while (up := above >= 0).any():
            depth[up] += depth[above[up]]
            above = np.where(up, above[np.maximum(above, 0)], -1)
        internal = np.flatnonzero(~leaf)
        starts = np.array([*self.starts, count])
        tree_of = np.repeat(np.arange(len(self.dims)), np.diff(starts))
        # Breadth-first: by tree, then depth, then pre-order (lexsort is stable).
        rank = self.breadth_first = np.lexsort((depth[internal], tree_of[internal]))
        order = internal[rank]
        # Where each tree starts on the model's internal-node and leaf axes.
        internal_starts = np.searchsorted(internal, starts)
        leaf_starts = starts - internal_starts
        before = np.cumsum(leaf) - leaf  # leaf rows before each node
        last = np.where(leaf, node, right)  # last leaf, by pointer doubling
        while not np.array_equal(further := last[last], last):
            last = further
        # A child as its tree numbers it: internal node c >= 0, or leaf row ~c.
        position = np.zeros(count, dtype=np.int64)
        position[order] = np.arange(len(order))
        child = np.where(leaf, ~(before - leaf_starts[tree_of]), position - internal_starts[tree_of])
        offset = leaf_starts[tree_of[order]]
        spans = np.stack(
            [before[order] - offset, before[right[order]] - offset, before[last[order]] + 1 - offset],
            axis=1,
        )
        children = np.stack([child[order + 1], child[right[order]]], axis=1)
        thresholds, leaf_values, leaf_depths = number[order], number[leaf], depth[leaf]
        # The weight rows in node order, one dimension at a time.  A dense
        # node's column is its tree's dimension plus its place among the
        # tree's dense nodes; ``dense`` holds each dimension's dense rows and
        # where each tree's start in them.
        features, dims = np.array(self.features, dtype=np.int64), np.array(self.dims)
        row_of = np.cumsum(features < 0) - 1  # by place in pre-order
        gather, tree_at = features[rank], tree_of[order]
        weighted = np.flatnonzero(gather < 0)
        row_dim = dims[tree_at[weighted]]
        dense = {dim: (np.zeros((0, dim)), [0] * len(starts)) for dim in set(self.dims)}
        for dim in set(row_dim.tolist()):
            at = weighted[row_dim == dim]
            rows = np.array([self.rows[r] for r in row_of[rank[at]].tolist()], dtype=np.float64)
            gather[at] = _unit_features(rows)
            is_dense = gather[at] < 0
            at, rows = at[is_dense], rows[is_dense]
            row_starts = np.searchsorted(at, internal_starts)
            gather[at] = dim + np.arange(len(at)) - row_starts[tree_at[at]]
            dense[dim] = rows, row_starts.tolist()
        trees = []
        internal_starts, leaf_starts = internal_starts.tolist(), leaf_starts.tolist()
        for t, dim in enumerate(self.dims):
            a, b = internal_starts[t], internal_starts[t + 1]
            c, d = leaf_starts[t], leaf_starts[t + 1]
            rows, row_starts = dense[dim]
            tests = SplitTests(gather[a:b], thresholds[a:b], rows[row_starts[t] : row_starts[t + 1]])
            trees.append(
                BinaryDecisionTree._from_arrays(
                    feature_dim=dim,
                    split_tests=tests,
                    _children=children[a:b],
                    span_array=spans[a:b],
                    thresholds=tests.thresholds,
                    leaf_values=leaf_values[c:d],
                    leaf_depths=leaf_depths[c:d],
                )
            )
        return trees


def _preorder_tree(numbers: list, parents: list, features: list, dim: int) -> tuple:
    """A binary tree of one-hot splits listed in pre-order: per node its
    number (threshold or leaf value) and parent (-1 at the root), and per
    internal node its feature.  Also its internal nodes' pre-order places
    in breadth-first order."""
    columns = _BinaryColumns()
    columns.numbers, columns.parents, columns.features = numbers, parents, features
    columns.starts, columns.dims = [0], [dim]
    [tree] = columns.trees()
    return tree, columns.breadth_first


def _general_root(numbers: list, parents: list[int], weights: dict[int, np.ndarray]) -> GNode:
    """The root of a general tree listed as ``_preorder_tree`` takes a binary
    one, with each internal node's weights keyed by its index.  Reversed
    pre-order meets every node after its children, last child first."""
    kids: dict[int, list] = {}
    for node in reversed(range(len(numbers))):
        if node in weights:
            obj = GeneralInternal(tuple(reversed(kids.pop(node))), weights[node])
        else:
            obj = Leaf(numbers[node])
        kids.setdefault(parents[node], []).append(obj)
    return kids[-1][0]


def _read_general(root, dim: int) -> GeneralTree:
    """A general tree document, walked into columns and built as objects at
    once: general trees are on no scoring path."""
    columns = _NodeColumns(_GENERAL_NODE_KEYS, None)
    weights: dict[int, np.ndarray] = {}

    def read_internal(obj: dict, node: int) -> tuple[None, list]:
        children, raw = obj.get("children"), obj.get("weights")
        if not isinstance(children, list) or len(children) < 2:
            raise _NodeError(lambda path: f"internal node {path} needs at least two children")
        if not isinstance(raw, list) or len(raw) != len(children):
            raise _NodeError(
                lambda path: f"internal node {path} needs one weight per child "
                f"({len(children)} children)"
            )
        weights[node] = np.asarray([_number(v, "node {} weight") for v in raw])
        return None, children[::-1]

    columns.walk(root, read_internal)
    return GeneralTree(_general_root(columns.numbers, columns.parents, weights), dim)


# The longest row of float64 features numpy can allocate: a tree document
# whose feature_dim is larger is refused, as no instance could be read for it.
MAX_FEATURE_DIM = np.iinfo(np.intp).max // 8


def _tree_header(doc) -> tuple[str, int]:
    """A tree document's kind and feature dimension, checked."""
    if not isinstance(doc, dict):
        raise TreeFormatError("tree document must be a JSON object")
    kind = doc.get("type")
    if kind not in ("binary", "general"):
        raise TreeFormatError(f"unknown tree type {kind!r}")
    dim = doc.get("feature_dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise TreeFormatError("feature_dim must be a non-negative integer")
    if dim > MAX_FEATURE_DIM:
        raise TreeFormatError(f"feature_dim must be at most {MAX_FEATURE_DIM}, not {dim}")
    if "root" not in doc:
        raise TreeFormatError("tree document is missing 'root'")
    if kind == "binary" and dim < 1:
        raise TreeFormatError("binary trees need feature_dim >= 1")
    return kind, dim


def _parse_documents(docs: list) -> list[BinaryDecisionTree | GeneralTree]:
    """Trees in document order.  The nodes of every binary tree go into one
    set of columns, and their arrays are derived together at the end."""
    binary = _BinaryColumns()
    general: dict[int, GeneralTree] = {}
    for k, doc in enumerate(docs):
        kind, dim = _tree_header(doc)
        if kind == "binary":
            binary.read(doc["root"], dim)
        else:
            general[k] = _read_general(doc["root"], dim)
    parsed = iter(binary.trees())
    return [general[k] if k in general else next(parsed) for k in range(len(docs))]


def _parse_text(text: str, single: bool) -> list[BinaryDecisionTree | GeneralTree]:
    try:
        doc = json.loads(text)
        if not (isinstance(doc, dict) and doc.get("type") == "ensemble"):
            return _parse_documents([doc])
        if single:
            raise TreeFormatError("expected a single tree document, got an ensemble")
        trees = doc.get("trees")
        if not isinstance(trees, list):
            raise TreeFormatError("ensemble document needs a 'trees' list")
        return _parse_documents(trees)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # The decoder recurses once per level.
        raise TreeFormatError("document is nested too deeply to parse") from None


def parse_tree(text: str) -> BinaryDecisionTree | GeneralTree:
    """Parse a single-tree JSON document.

    Numbering is rebuilt from the structure.  Raises ``TreeFormatError`` on
    malformed documents, including internal nodes with a missing child,
    integers too large for a float and documents nested too deeply to
    parse.
    """
    return _parse_text(text, single=True)[0]


def parse_model(text: str) -> list[BinaryDecisionTree | GeneralTree]:
    """Parse a tree or ensemble document into a list of trees."""
    return _parse_text(text, single=False)


def _general_doc(node: GNode) -> dict:
    """A general node's document, with each leaf's value as the tree stores it."""
    if isinstance(node, Leaf):
        return {"leaf": _object_number(node.value)}
    return {
        "children": [_general_doc(c) for c in node.children],
        "weights": [float(v) for v in node.weights],
    }


def _binary_doc(tree: BinaryDecisionTree) -> dict:
    """A binary tree's root document, read from its arrays: each array
    becomes a list once, and a recursive walk writes the nodes."""
    tests, dim = tree.split_tests, tree.feature_dim
    gather, rows, thresholds = tests.gather.tolist(), tests.dense_rows.tolist(), tree.thresholds.tolist()
    children, values = tree._children.tolist(), tree.leaf_values.tolist()

    def node_doc(j: int) -> dict:
        if j < 0:
            return {"leaf": values[~j]}
        column, (left, right) = gather[j], children[j]
        doc: dict = {"feature": column} if column < dim else {"weights": rows[column - dim]}
        doc.update(threshold=thresholds[j], left=node_doc(left), right=node_doc(right))
        return doc

    return node_doc(0 if children else -1)


def _tree_doc(tree: BinaryDecisionTree | GeneralTree) -> dict:
    binary = isinstance(tree, BinaryDecisionTree)
    return {
        "type": "binary" if binary else "general",
        "feature_dim": tree.feature_dim,
        "root": _binary_doc(tree) if binary else _general_doc(tree.root),
    }


def _dump(doc: Callable[[], dict]) -> str:
    try:
        return json.dumps(doc(), indent=2) + "\n"
    except RecursionError:
        # The document builder and the encoder recurse once per level.
        raise TreeFormatError("tree is nested too deeply to serialize") from None


def serialize_tree(tree: BinaryDecisionTree | GeneralTree) -> str:
    """Canonical JSON form; ``serialize(parse(text))`` is a fixed point.
    Raises ``TreeFormatError`` on a tree nested too deeply to write."""
    return _dump(lambda: _tree_doc(tree))


def serialize_ensemble(trees) -> str:
    """``serialize_tree`` for a list of trees, as one ensemble document."""
    return _dump(lambda: {"type": "ensemble", "trees": [_tree_doc(t) for t in trees]})


# ---------------------------------------------------------------------------
# Random generation.  Shapes come from frontier expansion: below the root a
# frontier node becomes internal with probability 1/2 until the depth bound,
# so skewed and balanced shapes both occur.  Deterministic in the seed.
#
# The samplers visit nodes in pre-order from an explicit stack, so a node
# draws its numbers before its first subtree does, as a recursive sampler
# would, and no depth raises RecursionError.  They list each node's number
# and parent as the parser does: a binary tree's arrays come from
# ``_preorder_tree``, which ``recover_tree`` and ``convert_general_to_binary``
# share, and a general tree's objects from ``_general_root``, which the
# parser shares.
# ---------------------------------------------------------------------------


def _sample_preorder(depth_bound: int, rng: np.random.Generator, internal: Callable) -> tuple[list, list]:
    """Per node in pre-order, its number and its parent's index (-1 at the
    root).  A leaf's number is its value; ``internal(node)`` draws an
    internal node's fields and returns its child count and its number.
    Below the root a node is a leaf with probability 1/2."""
    numbers, parents = [], []
    stack = [(0, -1)]  # (depth, parent) of the nodes still to visit, next on top
    while stack:
        depth, parent = stack.pop()
        node = len(parents)
        parents.append(parent)
        if depth >= depth_bound or (node and rng.random() >= 0.5):
            numbers.append(float(rng.uniform()))
            continue
        count, number = internal(node)
        numbers.append(number)
        stack += [(depth + 1, node)] * count
    return numbers, parents


def generate_random_tree(depth_bound: int, feature_dim: int, seed: int) -> BinaryDecisionTree:
    """Sample a valid full binary tree with one-hot predicates.

    Thresholds and leaf values are uniform on [0, 1]; the root is always
    internal, and the tree never exceeds ``depth_bound`` edges of depth.
    """
    if depth_bound < 1:
        raise ValueError("depth_bound must be at least 1")
    if feature_dim < 1:
        raise ValueError("feature_dim must be at least 1")
    rng = np.random.default_rng(seed)
    features: list[int] = []

    def internal(node: int) -> tuple[int, float]:
        features.append(int(rng.integers(feature_dim)))
        return 2, float(rng.uniform())

    numbers, parents = _sample_preorder(depth_bound, rng, internal)
    return _preorder_tree(numbers, parents, features, feature_dim)[0]


def generate_random_general_tree(
    depth_bound: int, max_children: int, seed: int, *, feature_dim: int = 0
) -> GeneralTree:
    """Sample a general tree with 2..max_children children per node and
    per-node routing weights drawn uniformly from the probability simplex.

    ``feature_dim`` is keyword-only: ``generate_random_tree`` takes the
    dimension before the seed, and a call written in that order here would
    pass the dimension as the seed."""
    if depth_bound < 1:
        raise ValueError("depth_bound must be at least 1")
    if max_children < 2:
        raise ValueError("max_children must be at least 2")
    rng = np.random.default_rng(seed)
    weights: dict[int, np.ndarray] = {}

    def internal(node: int) -> tuple[int, None]:
        k = int(rng.integers(2, max_children + 1))
        weights[node] = rng.dirichlet(np.ones(k))
        return k, None

    numbers, parents = _sample_preorder(depth_bound, rng, internal)
    return GeneralTree(_general_root(numbers, parents, weights), feature_dim)


def random_instances(count: int, feature_dim: int, seed: int) -> np.ndarray:
    """Uniform feature vectors on [0, 1]^dim, one row per instance."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(count, feature_dim))
