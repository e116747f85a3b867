import numpy as np
import pytest

from treeflat import (
    BinaryDecisionTree,
    GeneralInternal,
    GeneralTree,
    Internal,
    Leaf,
    Predicate,
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
