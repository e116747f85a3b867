"""Decision tree data model: construction, validation, serialization, random
generation, and the recursive traversal oracle.

Binary and general trees share one core: one walk numbers the nodes of
either kind, one walk validates them, and one codec reads and writes their
nodes.  Each kind adds only its own node checks and fields.  A binary node's
children are ``(left, right)``, so a binary tree is numbered exactly as the
same tree read as a general tree.

Conventions shared by the whole package:

* Internal nodes are numbered in breadth-first order starting at 0 (root),
  in both kinds of tree.
* Leaves are numbered 1..|L| from left to right.  Every public API reports
  1-based leaf indices; the matrix row for leaf ``i`` is row ``i - 1``.
* A node test is ``weights . x > threshold`` (strict).  A true test routes to
  the left child, a false test to the right child; ties count as false.
* Trees are treated as immutable once constructed.  All derived numbering is
  recomputed from the structure, never trusted from input files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

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
    """Raised when a serialized tree document cannot be parsed."""


class DimensionMismatchError(ValueError):
    """Raised when a feature vector's length does not match the model."""


@dataclass(frozen=True, eq=False)
class Predicate:
    """Linear threshold test ``weights . x > threshold``.

    A plain single-feature split is a one-hot ``weights`` vector.
    """

    weights: np.ndarray
    threshold: float

    def passes(self, x: np.ndarray) -> bool:
        return float(self.weights @ x) > self.threshold

    @classmethod
    def one_hot(cls, feature: int, threshold: float, dim: int) -> "Predicate":
        w = np.zeros(dim)
        w[feature] = 1.0
        return cls(w, float(threshold))

    @property
    def one_hot_feature(self) -> int | None:
        """Index of the single unit weight, or None for a general hyperplane."""
        nz = np.flatnonzero(self.weights)
        if len(nz) == 1 and self.weights[nz[0]] == 1.0:
            return int(nz[0])
        return None


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
    """The numbering both tree kinds share, derived in one walk that takes
    each internal node's ``children`` in order.

    * ``internal_nodes`` lists internal nodes in breadth-first order.
    * ``leaves`` lists leaves from left to right, and ``leaf_depths`` gives
      their depths in edges.
    * Every subtree covers a contiguous, half-open range of leaf rows.

    Each kind sets ``_internal``, its internal node class (a node of any
    other class is neither internal nor leaf, and ``validate`` reports it),
    and defines ``_keep_spans``, which keeps the per-node spans the kind
    needs from the subtree ranges, and ``_check_internal``, which reports
    the problems of one internal node and pushes its well-formed children
    onto the validation stack.
    """

    _internal: type

    def __init__(self, root, feature_dim: int):
        self.root = root
        self.feature_dim = int(feature_dim)
        self.leaves: list[Leaf] = []
        self._leaf_pos: dict[int, int] = {}
        self._depths: list[int] = []
        # id(node) -> leaf-row range (lo, hi) of its subtree; a leaf's is
        # (pos, pos + 1).  Only the spans are kept.
        ranges: dict[int, tuple[int, int]] = {}
        self.internal_nodes: list = self._index(ranges)
        self._keep_spans(ranges)

    def _index(self, ranges: dict[int, tuple[int, int]]) -> list:
        # Depth first, first child first, so leaves come out left to right.
        # Listing each depth's internal nodes in the order the walk meets
        # them gives the breadth-first order.  A node comes off the stack a
        # second time, with its children, once its subtree is walked; it
        # gets a range then if every child has one.
        internal = self._internal
        leaves, leaf_pos, depths = self.leaves, self._leaf_pos, self._depths
        get = ranges.get
        levels: list[list] = []
        stack: list[tuple[object, int, tuple | None]] = [(self.root, 0, None)]
        pop, push = stack.pop, stack.append
        while stack:
            node, depth, children = pop()
            if children is not None:
                # Looking up the middle children only when there are any
                # keeps this step as cheap as the two lookups a binary
                # node needs.
                first, last = get(id(children[0])), get(id(children[-1]))
                if first and last and (
                    len(children) < 3 or None not in map(get, map(id, children[1:-1]))
                ):
                    ranges[id(node)] = (first[0], last[1])
            elif isinstance(node, Leaf):
                pos = len(leaves)
                leaves.append(node)
                leaf_pos[id(node)] = pos
                depths.append(depth)
                ranges[id(node)] = (pos, pos + 1)
            elif isinstance(node, internal):
                if depth == len(levels):
                    levels.append([])
                levels[depth].append(node)
                children = node.children
                if children:  # a childless node gets no range
                    push((node, depth, children))
                depth += 1
                for child in reversed(children):
                    if child is not None:
                        push((child, depth, None))
        return [node for level in levels for node in level]

    @property
    def num_internal(self) -> int:
        return len(self.internal_nodes)

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    @property
    def leaf_depths(self) -> np.ndarray:
        return np.asarray(self._depths, dtype=np.int64)

    @cached_property
    def leaf_values(self) -> np.ndarray:
        return np.asarray([leaf.value for leaf in self.leaves], dtype=np.float64)

    def leaf_position(self, leaf: Leaf) -> int:
        """1-based left-to-right index of a leaf object of this tree."""
        return self._leaf_pos[id(leaf)] + 1


class BinaryDecisionTree(_Tree):
    """Full binary decision tree over a fixed feature space.

    Besides the shared numbering, ``leaf_spans[j]`` is ``(lo, mid, hi)`` for
    internal node ``j``: its subtree covers leaf rows ``lo..hi-1`` with the
    left subtree ending at ``mid`` (0-based, half-open).
    """

    _internal = Internal

    def _keep_spans(self, ranges: dict[int, tuple[int, int]]) -> None:
        self.leaf_spans: list[tuple[int, int, int]] = []
        for node in self.internal_nodes:
            lr = ranges.get(id(node.left))
            rr = ranges.get(id(node.right))
            self.leaf_spans.append((lr[0], lr[1], rr[1]) if lr and rr else (0, 0, 0))

    @cached_property
    def span_array(self) -> np.ndarray:
        """``leaf_spans`` as an int64 array with one ``(lo, mid, hi)`` row per
        internal node."""
        return np.asarray(self.leaf_spans, dtype=np.int64).reshape(-1, 3)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Stacked predicate weights, one row per internal node."""
        if not self.internal_nodes:
            return np.zeros((0, self.feature_dim))
        return np.stack([n.predicate.weights for n in self.internal_nodes])

    @cached_property
    def thresholds(self) -> np.ndarray:
        return np.asarray(
            [n.predicate.threshold for n in self.internal_nodes], dtype=np.float64
        )

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
    of internal node ``j``'s k-th child subtree.
    """

    _internal = GeneralInternal

    def __init__(self, root: GNode, feature_dim: int = 0):
        super().__init__(root, feature_dim)

    def _keep_spans(self, ranges: dict[int, tuple[int, int]]) -> None:
        self.child_spans: list[list[tuple[int, int]]] = [
            [ranges.get(id(c), (0, 0)) for c in node.children] for node in self.internal_nodes
        ]

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
    """A real number whose float value is finite; an int too large for a
    float is not."""
    if isinstance(x, (int, float)):
        try:
            return math.isfinite(x)
        except OverflowError:
            return False
    return isinstance(x, (np.integer, np.floating)) and bool(np.isfinite(x))


def _validate(tree: _Tree) -> list[str]:
    if tree.root is None:
        return ["tree has no root"]
    problems: list[str] = []
    if isinstance(tree.root, Leaf):
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
    binary = isinstance(tree, BinaryDecisionTree)
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
    nodes = tree.internal_nodes
    if not nodes or nodes[0] is not tree.root:
        return False
    internal = tree._internal
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


def naive_traverse(tree: BinaryDecisionTree, x) -> int:
    """Walk from the root and return the 1-based exit leaf index.

    This recursive descent is the ground-truth oracle every arithmetic
    traversal is checked against; it never touches the matrix machinery.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.feature_dim,):
        raise DimensionMismatchError(
            f"feature vector has shape {x.shape}, expected ({tree.feature_dim},)"
        )
    node = tree.root
    while isinstance(node, Internal):
        node = node.left if node.predicate.passes(x) else node.right
    if not isinstance(node, Leaf):
        raise ValueError("traversal fell off the tree; run validate() on the model")
    return tree.leaf_position(node)


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


def _require_number(value, what: str, path: str) -> float:
    """``what`` names the number with ``{}`` for the node path; the message
    is only formatted when the value is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TreeFormatError(f"{what.format(path)} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TreeFormatError(f"{what.format(path)} is an integer too large for a float") from None


def _parse_leaf(obj, path: str, internal_keys: set[str]) -> Leaf | None:
    """The part of node parsing both kinds share: ``obj`` must be an object,
    and is returned as a ``Leaf`` if it is one.  Otherwise it may only have
    the kind's ``internal_keys``, and the kind's parser goes on with it."""
    if not isinstance(obj, dict):
        raise TreeFormatError(f"node {path} must be an object")
    if "leaf" in obj:
        extra = set(obj) - {"leaf"}
        if extra:
            raise TreeFormatError(f"leaf {path} has unexpected keys {sorted(extra)}")
        return Leaf(_require_number(obj["leaf"], "leaf {} value", path))
    extra = set(obj) - internal_keys
    if extra:
        raise TreeFormatError(f"node {path} has unexpected keys {sorted(extra)}")
    return None


def _parse_binary_node(obj, dim: int, path: str) -> Node:
    leaf = _parse_leaf(obj, path, _BINARY_NODE_KEYS)
    if leaf is not None:
        return leaf
    if "threshold" not in obj:
        raise TreeFormatError(f"internal node {path} is missing 'threshold'")
    for side in ("left", "right"):
        if side not in obj or obj[side] is None:
            raise TreeFormatError(f"internal node {path} must have both children ('{side}' missing)")
    threshold = _require_number(obj["threshold"], "node {} threshold", path)
    if "weights" in obj:
        raw = obj["weights"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise TreeFormatError(f"node {path} weights must be a list of {dim} numbers")
        weights = np.asarray([_require_number(v, "node {} weight", path) for v in raw])
        predicate = Predicate(weights, threshold)
    elif "feature" in obj:
        feature = obj["feature"]
        if isinstance(feature, bool) or not isinstance(feature, int):
            raise TreeFormatError(f"node {path} feature must be an integer")
        if not 0 <= feature < dim:
            raise TreeFormatError(
                f"node {path} feature {feature} is out of range for dimension {dim}"
            )
        predicate = Predicate.one_hot(feature, threshold, dim)
    else:
        raise TreeFormatError(f"internal node {path} needs 'feature' or 'weights'")
    left = _parse_binary_node(obj["left"], dim, f"{path}.left")
    right = _parse_binary_node(obj["right"], dim, f"{path}.right")
    return Internal(predicate, left, right)


def _parse_general_node(obj, path: str) -> GNode:
    leaf = _parse_leaf(obj, path, _GENERAL_NODE_KEYS)
    if leaf is not None:
        return leaf
    children = obj.get("children")
    weights = obj.get("weights")
    if not isinstance(children, list) or len(children) < 2:
        raise TreeFormatError(f"internal node {path} needs at least two children")
    if not isinstance(weights, list) or len(weights) != len(children):
        raise TreeFormatError(
            f"internal node {path} needs one weight per child ({len(children)} children)"
        )
    w = np.asarray([_require_number(v, "node {} weight", path) for v in weights])
    parsed = tuple(
        _parse_general_node(c, f"{path}.{k}") for k, c in enumerate(children, start=1)
    )
    return GeneralInternal(parsed, w)


def _parse_document(doc) -> BinaryDecisionTree | GeneralTree:
    if not isinstance(doc, dict):
        raise TreeFormatError("tree document must be a JSON object")
    kind = doc.get("type")
    if kind not in ("binary", "general"):
        raise TreeFormatError(f"unknown tree type {kind!r}")
    dim = doc.get("feature_dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise TreeFormatError("feature_dim must be a non-negative integer")
    if "root" not in doc:
        raise TreeFormatError("tree document is missing 'root'")
    if kind == "binary":
        if dim < 1:
            raise TreeFormatError("binary trees need feature_dim >= 1")
        return BinaryDecisionTree(_parse_binary_node(doc["root"], dim, "root"), dim)
    return GeneralTree(_parse_general_node(doc["root"], "root"), dim)


def _parse_text(text: str, single: bool) -> list[BinaryDecisionTree | GeneralTree]:
    try:
        doc = json.loads(text)
        if not (isinstance(doc, dict) and doc.get("type") == "ensemble"):
            return [_parse_document(doc)]
        if single:
            raise TreeFormatError("expected a single tree document, got an ensemble")
        trees = doc.get("trees")
        if not isinstance(trees, list):
            raise TreeFormatError("ensemble document needs a 'trees' list")
        return [_parse_document(t) for t in trees]
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # The decoder and the node parsers recurse once per level.
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


def _node_doc(node: Node | GNode, binary: bool) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.value}
    if not binary:
        return {
            "children": [_node_doc(c, False) for c in node.children],
            "weights": [float(v) for v in node.weights],
        }
    doc: dict = {}
    feature = node.predicate.one_hot_feature
    if feature is None:
        doc["weights"] = [float(v) for v in node.predicate.weights]
    else:
        doc["feature"] = feature
    doc["threshold"] = node.predicate.threshold
    doc["left"] = _node_doc(node.left, True)
    doc["right"] = _node_doc(node.right, True)
    return doc


def _tree_doc(tree: BinaryDecisionTree | GeneralTree) -> dict:
    binary = isinstance(tree, BinaryDecisionTree)
    return {
        "type": "binary" if binary else "general",
        "feature_dim": tree.feature_dim,
        "root": _node_doc(tree.root, binary),
    }


def serialize_tree(tree: BinaryDecisionTree | GeneralTree) -> str:
    """Canonical JSON form; ``serialize(parse(text))`` is a fixed point."""
    return json.dumps(_tree_doc(tree), indent=2) + "\n"


def serialize_ensemble(trees) -> str:
    return json.dumps(
        {"type": "ensemble", "trees": [_tree_doc(t) for t in trees]}, indent=2
    ) + "\n"


# ---------------------------------------------------------------------------
# Random generation.  Shapes come from frontier expansion: below the root a
# frontier node becomes internal with probability 1/2 until the depth bound,
# so skewed and balanced shapes both occur.  Deterministic in the seed.
# ---------------------------------------------------------------------------


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

    def make(depth: int, force_internal: bool) -> Node:
        if depth >= depth_bound or (not force_internal and rng.random() >= 0.5):
            return Leaf(float(rng.uniform()))
        predicate = Predicate.one_hot(
            int(rng.integers(feature_dim)), float(rng.uniform()), feature_dim
        )
        left = make(depth + 1, False)
        right = make(depth + 1, False)
        return Internal(predicate, left, right)

    return BinaryDecisionTree(make(0, True), feature_dim)


def generate_random_general_tree(
    depth_bound: int, max_children: int, seed: int, feature_dim: int = 0
) -> GeneralTree:
    """Sample a general tree with 2..max_children children per node and
    per-node routing weights drawn uniformly from the probability simplex."""
    if depth_bound < 1:
        raise ValueError("depth_bound must be at least 1")
    if max_children < 2:
        raise ValueError("max_children must be at least 2")
    rng = np.random.default_rng(seed)

    def make(depth: int, force_internal: bool) -> GNode:
        if depth >= depth_bound or (not force_internal and rng.random() >= 0.5):
            return Leaf(float(rng.uniform()))
        k = int(rng.integers(2, max_children + 1))
        weights = rng.dirichlet(np.ones(k))
        children = tuple(make(depth + 1, False) for _ in range(k))
        return GeneralInternal(children, weights)

    return GeneralTree(make(0, True), feature_dim)


def random_instances(count: int, feature_dim: int, seed: int) -> np.ndarray:
    """Uniform feature vectors on [0, 1]^dim, one row per instance."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(count, feature_dim))
