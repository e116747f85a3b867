import numpy as np
import pytest
from hypothesis import strategies as st

from treeflat import (
    BinaryDecisionTree,
    GeneralInternal,
    GeneralTree,
    Internal,
    Leaf,
    Predicate,
    generate_random_tree,
    parse_tree,
    serialize_tree,
)


def one_hot_node(feature, left, right, dim=5, threshold=0.5):
    return Internal(Predicate.one_hot(feature, threshold, dim), left, right)


@pytest.fixture
def six_leaf_tree():
    """The reference 5-node, 6-leaf tree used by the golden tests.

    Node j tests x[j] > 0.5, so a 0/1 instance vector x gives the test
    vector t = 1 - x directly.  Leaf values are 0.1 .. 0.6 left to right.
    """
    root = one_hot_node(
        0,
        one_hot_node(1, Leaf(0.1), Leaf(0.2)),
        one_hot_node(
            2,
            one_hot_node(3, Leaf(0.3), Leaf(0.4)),
            one_hot_node(4, Leaf(0.5), Leaf(0.6)),
        ),
    )
    return BinaryDecisionTree(root, 5)


@pytest.fixture
def depth1_tree():
    return BinaryDecisionTree(one_hot_node(0, Leaf(0.25), Leaf(0.75), dim=1), 1)


def general_node(children, weights):
    return GeneralInternal(tuple(children), np.asarray(weights, dtype=np.float64))


def binary_to_general(node, probs):
    """View a binary tree as a general tree whose node weights are
    ``[p, 1 - p]``, consuming the left-branch probabilities ``probs`` in
    preorder (node, then left subtree, then right subtree)."""
    if isinstance(node, Leaf):
        return Leaf(node.value)
    p = probs.pop(0)
    return general_node(
        [binary_to_general(node.left, probs), binary_to_general(node.right, probs)],
        [p, 1 - p],
    )


@pytest.fixture
def eight_leaf_general_tree():
    """Ternary-rooted general tree with 5 internal nodes and leaves 1..8.

    Structure: the root fans out to a binary subtree, a bare leaf, and a
    ternary subtree; leaf values are 0.1 .. 0.8 left to right.

    Breadth-first node order: root=0, its first child=1, its third child=2,
    then their internal children 3 and 4.
    """
    n1 = general_node(
        [Leaf(0.1), general_node([Leaf(0.2), Leaf(0.3)], [0.6, 0.4])],
        [0.7, 0.3],
    )
    n3 = general_node(
        [
            Leaf(0.5),
            general_node([Leaf(0.6), Leaf(0.7)], [0.45, 0.55]),
            Leaf(0.8),
        ],
        [0.2, 0.5, 0.3],
    )
    root = general_node([n1, Leaf(0.4), n3], [0.5, 0.2, 0.3])
    return GeneralTree(root, feature_dim=4)


def instance_for_tests(tree, outcomes):
    """Feature vector realizing the given per-node truth values for trees
    whose node j tests x[j] > 0.5 (our fixtures and random trees reindexed).

    ``outcomes[j]`` truthy means node j tests true.
    """
    x = np.zeros(tree.feature_dim)
    for j, val in enumerate(outcomes):
        x[j] = 1.0 if val else 0.0
    return x


def enumerate_paths(tree):
    """All (leaf_index, [(node_bf_index, went_left), ...]) pairs by walking
    every root-to-leaf path explicitly.  Independent of the matrix builders."""
    bf_index = {id(n): j for j, n in enumerate(tree.internal_nodes)}
    paths = []

    def walk(node, trail):
        if isinstance(node, Leaf):
            paths.append((tree.leaf_position(node), list(trail)))
            return
        j = bf_index[id(node)]
        walk(node.left, trail + [(j, True)])
        walk(node.right, trail + [(j, False)])

    walk(tree.root, [])
    return paths


def subtree_leaves(tree, node_index, side):
    """Leaf indices (1-based) under one side of an internal node, found by an
    explicit walk rather than via leaf spans."""
    node = tree.internal_nodes[node_index]
    start = node.left if side == "left" else node.right
    found = []

    def walk(n):
        if isinstance(n, Leaf):
            found.append(tree.leaf_position(n))
        else:
            walk(n.left)
            walk(n.right)

    walk(start)
    return found


def all_shapes(n_internal):
    """Every full binary tree shape with the given number of internal nodes,
    as BinaryDecisionTree objects with placeholder predicates."""
    def shapes(n):
        if n == 0:
            return [Leaf(0.0)]
        out = []
        for k in range(n):
            for left in shapes(k):
                for right in shapes(n - 1 - k):
                    out.append(
                        Internal(Predicate.one_hot(0, 0.5, 1), _copy(left), _copy(right))
                    )
        return out

    def _copy(node):
        if isinstance(node, Leaf):
            return Leaf(node.value)
        return Internal(node.predicate, _copy(node.left), _copy(node.right))

    return [BinaryDecisionTree(root, 1) for root in shapes(n_internal)]


def chain_document(depth):
    """A binary tree document whose right spine is ``depth`` nodes long,
    built as a string because ``serialize_tree`` recurses once per level."""
    node = '{"feature": 0, "threshold": 0.5, "left": {"leaf": 0.0}, "right": '
    root = node * depth + '{"leaf": 1.0}' + "}" * depth
    return '{"type": "binary", "feature_dim": 1, "root": ' + root + "}"


def tree_with_leaves(num_leaves, dim, seed):
    """A random binary tree with exactly ``num_leaves`` leaves: each subtree's
    leaves are split at a uniform point, and every node tests one random
    feature against a uniform threshold."""
    rng = np.random.default_rng(seed)

    def make(n):
        if n == 1:
            return Leaf(float(rng.uniform()))
        predicate = Predicate.one_hot(int(rng.integers(dim)), float(rng.uniform()), dim)
        left = int(rng.integers(1, n))
        return Internal(predicate, make(left), make(n - left))

    return BinaryDecisionTree(make(num_leaves), dim)


def chain_tree(depth):
    """A valid binary tree whose right spine is ``depth`` nodes long, built
    in a loop."""
    node = Leaf(1.0)
    for _ in range(depth):
        node = Internal(Predicate.one_hot(0, 0.5, 1), Leaf(0.0), node)
    return BinaryDecisionTree(node, 1)


def shared_leaf_tree():
    """An invalid two-node tree that uses one leaf object twice: as the
    inner node's left child and the root's right child."""
    shared = Leaf(0.0)
    split = Predicate.one_hot(0, 0.5, 1)
    return BinaryDecisionTree(Internal(split, Internal(split, shared, Leaf(1.0)), shared), 1)


def span_loop_matrices(tree, p):
    """The right, left, signed and fuzzy matrices filled column by column
    from each node's leaf span: the reference for the builders' one scatter
    of the (leaf, ancestor) table."""
    shape = (tree.num_leaves, tree.num_internal)
    right, left = np.ones(shape, dtype=np.uint8), np.ones(shape, dtype=np.uint8)
    signed, fuzzy = np.zeros(shape, dtype=np.int64), np.ones(shape)
    p = np.asarray(p, dtype=np.float64) + 0.0
    for j, (lo, mid, hi) in enumerate(tree.leaf_spans):
        right[lo:mid, j] = 0
        left[mid:hi, j] = 0
        signed[lo:mid, j] = -1
        signed[mid:hi, j] = 1
        fuzzy[lo:mid, j] = p[j]
        fuzzy[mid:hi, j] = 1.0 - p[j]
    return right, left, signed, fuzzy


def same_bits(got, expected):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and a NaN
    payload counts."""
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()
    )


# Branch probabilities at the edges of [0, 1] and of the float range, where
# a product could round differently if its factors were taken in another
# order, and uniform ones.
EDGE_PROBABILITIES = [0.0, 1.0, -0.0, 1e-300, 5e-324]


@st.composite
def fuzzy_cases(draw):
    """A binary tree, object-built or parsed, with one branch probability
    per node: ragged ``gen`` trees, right-spine chains, a depth-1 tree and
    trees of a given leaf count."""
    kind = draw(st.sampled_from(["gen", "chain", "depth1", "leaves"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "gen":
        tree = generate_random_tree(draw(st.integers(1, 8)), 3, seed)
    elif kind == "chain":
        tree = chain_tree(draw(st.integers(1, 40)))
    elif kind == "depth1":
        tree = BinaryDecisionTree(one_hot_node(0, Leaf(0.25), Leaf(0.75), dim=1), 1)
    else:
        tree = tree_with_leaves(draw(st.integers(2, 80)), 3, seed)
    if draw(st.booleans()):
        tree = parse_tree(serialize_tree(tree))
    p = draw(
        st.lists(
            st.one_of(st.sampled_from(EDGE_PROBABILITIES), st.floats(0.0, 1.0)),
            min_size=tree.num_internal,
            max_size=tree.num_internal,
        )
    )
    return tree, np.asarray(p, dtype=np.float64)
