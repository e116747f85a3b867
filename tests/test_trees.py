import hashlib
import inspect
import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binary_to_general,
    chain_document,
    chain_tree,
    enumerate_paths,
    general_node,
    instance_for_tests,
    one_hot_node,
)
from treeflat import (
    BinaryDecisionTree,
    DimensionMismatchError,
    StackedTrees,
    TreeMatrices,
    GeneralInternal,
    GeneralTree,
    Internal,
    Leaf,
    Predicate,
    TreeFormatError,
    batch_score,
    build_right_matrix,
    convert_general_to_binary,
    generate_random_general_tree,
    generate_random_tree,
    hard_routing_consistency,
    naive_traverse,
    parse_model,
    parse_tree,
    random_instances,
    recover_tree,
    serialize_ensemble,
    serialize_tree,
    validate,
)
from treeflat.cli import main
from treeflat.trees import MAX_FEATURE_DIM

random_trees = st.builds(
    generate_random_tree,
    depth_bound=st.integers(1, 6),
    feature_dim=st.just(4),
    seed=st.integers(0, 2**31 - 1),
)

# A number no test tree holds: written into a document in place of a value
# JSON's encoder cannot write (an integer too large for a float).
SENTINEL = 123.456

# Trees with one problem value v or more, at the root and at nested paths.
# Each split tests x[j] against its threshold (v itself for some).
def split(j, threshold, left, right):
    return Internal(Predicate(np.eye(5)[j], threshold), left, right)


PROBLEM_TREES = [
    lambda v: split(0, 0.5, Leaf(v), Leaf(1.0)),
    lambda v: Internal(Predicate(np.ones(5), v), Leaf(0.0), Leaf(1.0)),
    lambda v: split(
        0,
        v,
        split(1, 0.5, Leaf(0.1), Leaf(v)),
        split(2, 0.5, split(3, v, Leaf(0.3), Leaf(0.4)), split(4, 0.5, Leaf(v), Leaf(0.6))),
    ),
    lambda v: Internal(
        Predicate(np.zeros(5), v),
        split(1, 0.5, Leaf(v), Leaf(0.2)),
        Internal(Predicate(np.zeros(5), 0.5), Leaf(0.3), Leaf(v)),
    ),
    lambda v: Internal(Predicate(np.zeros(5), 0.5), Leaf(0.0), Leaf(1.0)),
    lambda v: Leaf(v),
]

STALE_NUMBERING = ["reassigned root", "reordered nodes", "reordered leaves", "swapped siblings"]


def doc_node(feature=None, weights=None, threshold=0.5, left=0.0, right=1.0):
    """A binary node document; a number child is a leaf."""
    node = {"feature": feature} if weights is None else {"weights": weights}
    children = [{"leaf": c} if isinstance(c, float) else c for c in (left, right)]
    return {**node, "threshold": threshold, "left": children[0], "right": children[1]}


def objects_of(doc: dict, dim: int):
    """The ``Internal``/``Leaf`` objects of a binary node document."""
    if "leaf" in doc:
        return Leaf(doc["leaf"])
    if "feature" in doc:
        predicate = Predicate.one_hot(doc["feature"], doc["threshold"], dim)
    else:
        predicate = Predicate(np.array(doc["weights"]), doc["threshold"])
    return Internal(predicate, objects_of(doc["left"], dim), objects_of(doc["right"], dim))


# An ensemble that mixes "feature" nodes, unit "weights" rows (one with a
# signed zero), dense rows and trees of two feature dimensions, with dense
# nodes before and after one-hot ones in breadth-first order.
MIXED_TREES = [
    (3, doc_node(
        weights=[0.5, -1.0, 2.0],
        left=doc_node(feature=2, left=doc_node(weights=[0.0, 1.0, 0.0], threshold=0.25)),
        right=doc_node(weights=[-0.0, 0.0, 1.0], right=doc_node(weights=[1.0, 1.0, 0.0], threshold=-0.5)),
    )),
    (2, {"leaf": 0.75}),
    (2, doc_node(
        weights=[1.0, 0.0],
        left=doc_node(weights=[0.25, 0.75], threshold=0.1),
        right=doc_node(feature=1, right=doc_node(weights=[0.0, 2.0], threshold=0.3)),
    )),
    (3, doc_node(weights=[1.0, 0.0, -2.0], threshold=0.0)),
]


class TestValidate:
    def test_six_leaf_tree_is_valid(self, six_leaf_tree):
        report = validate(six_leaf_tree)
        assert report.ok and not report.problems
        assert six_leaf_tree.num_internal == 5
        assert six_leaf_tree.num_leaves == 6

    def test_single_leaf_tree_is_valid_only_when_binary(self):
        # Built from objects and parsed alike: every traversal routes a
        # lone leaf to leaf 1.
        lone = BinaryDecisionTree(Leaf(1.0), 1)
        parsed = parse_tree(serialize_tree(lone))
        for tree in (lone, parsed):
            report = validate(tree)
            assert report.ok and not report.problems
            assert (tree.num_internal, tree.num_leaves) == (0, 1)
        # A general tree needs a node: convert_general_to_binary chains its
        # children into splits.
        report = validate(GeneralTree(Leaf(1.0), 1))
        assert report.problems == ["tree must have at least one internal node"]
        general = parse_tree('{"type": "general", "feature_dim": 1, "root": {"leaf": 1.0}}')
        assert validate(general).problems == report.problems

    def test_missing_child_is_reported_with_its_path(self):
        broken = one_hot_node(0, Internal(Predicate.one_hot(0, 0.5, 5), Leaf(0.0), None), Leaf(1.0))
        report = validate(BinaryDecisionTree(broken, 5))
        assert not report.ok
        assert any("root.left" in p and "right" in p for p in report.problems)

    def test_shared_subtree_is_reported(self):
        shared = Leaf(0.5)
        report = validate(BinaryDecisionTree(one_hot_node(0, shared, shared), 5))
        assert not report.ok
        assert any("more than once" in p for p in report.problems)

    def test_wrong_weight_length_is_reported(self):
        node = Internal(Predicate(np.ones(3), 0.5), Leaf(0.0), Leaf(1.0))
        report = validate(BinaryDecisionTree(node, 5))
        assert any("weights of length 3" in p for p in report.problems)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), 10**400],
        ids=["nan", "inf", "-inf", "int 10**400"],
    )
    def test_non_finite_numbers_are_reported(self, bad):
        leaf = BinaryDecisionTree(one_hot_node(0, Leaf(bad), Leaf(1.0)), 5)
        assert validate(leaf).problems == ["leaf root.left has a non-finite value"]
        node = Internal(Predicate(np.ones(5), bad), Leaf(0.0), Leaf(1.0))
        report = validate(BinaryDecisionTree(node, 5))
        assert report.problems == ["internal node root has a non-finite threshold"]
        # A parsed tree is checked over its arrays, with the same messages in
        # the same order.  The document holds the number as JSON's NaN,
        # Infinity or -Infinity, or for 10**400 as 1e400, which reads as inf
        # (the parser refuses the integer itself).
        literal = json.dumps(bad) if isinstance(bad, float) else "1e400"
        for build in PROBLEM_TREES:
            tree = BinaryDecisionTree(build(bad), 5)
            text = serialize_tree(BinaryDecisionTree(build(SENTINEL), 5))
            parsed = parse_tree(text.replace(repr(SENTINEL), literal))
            assert validate(parsed).problems == validate(tree).problems
            assert validate(parsed).problems

    @pytest.mark.parametrize("bad", ["1e400", "-1e400"])
    def test_longdouble_too_large_for_a_float_is_reported(self, bad):
        # Finite as a long double where that type is wider than float64, but
        # the tree stores it as a float, ±inf, and validate judges that value.
        value = np.longdouble(bad)
        leaf = BinaryDecisionTree(one_hot_node(0, Leaf(value), Leaf(1.0)), 5)
        assert leaf.leaf_values[0] == float(bad)
        assert validate(leaf).problems == ["leaf root.left has a non-finite value"]
        node = BinaryDecisionTree(Internal(Predicate(np.ones(5), value), Leaf(0.0), Leaf(1.0)), 5)
        assert node.thresholds[0] == float(bad)
        assert validate(node).problems == ["internal node root has a non-finite threshold"]

    def test_all_zero_weight_row_is_reported_with_its_path(self):
        # A zero row stays dense when the parser classifies the rows, and the
        # parsed tree's array walk reports it as the object walk does.
        root = doc_node(
            feature=0,
            left=doc_node(weights=[0.0, 1.0]),
            right=doc_node(weights=[0.5, 0.5], right=doc_node(weights=[0.0, -0.0], threshold=0.2)),
        )
        parsed = parse_model(json.dumps({"type": "ensemble", "trees": [
            {"type": "binary", "feature_dim": 3, "root": doc_node(weights=[1.0, 1.0, 1.0])},
            {"type": "binary", "feature_dim": 2, "root": root},
        ]}))
        problems = ["internal node root.right.right has all-zero weights"]
        assert validate(parsed[0]).ok
        assert validate(parsed[1]).problems == problems
        assert validate(BinaryDecisionTree(objects_of(root, 2), 2)).problems == problems

    def test_general_tree_weight_sum_checked(self):
        bad = general_node([Leaf(0.0), Leaf(1.0)], [0.5, 0.6])
        report = validate(GeneralTree(bad, 1))
        assert not report.ok
        assert any("sum to" in p for p in report.problems)

    def test_general_fixture_is_valid(self, eight_leaf_general_tree):
        assert validate(eight_leaf_general_tree).ok

    @pytest.mark.parametrize(
        "kind, change",
        [(kind, change) for kind in ("binary", "general") for change in STALE_NUMBERING],
        ids=STALE_NUMBERING + [f"general {change}" for change in STALE_NUMBERING],
    )
    def test_stale_numbering_is_reported(
        self, six_leaf_tree, eight_leaf_general_tree, kind, change
    ):
        tree = six_leaf_tree if kind == "binary" else eight_leaf_general_tree
        nodes = tree.internal_nodes
        if change == "reassigned root":
            leaves = [Leaf(0.0), Leaf(1.0)]
            tree.root = (
                one_hot_node(0, *leaves) if kind == "binary" else general_node(leaves, [0.5, 0.5])
            )
        elif change == "reordered nodes":
            nodes.reverse()
        elif change == "reordered leaves":
            tree.leaves.reverse()
        else:
            nodes[1], nodes[2] = nodes[2], nodes[1]
        report = validate(tree)
        assert report.problems == ["stored node numbering does not match the structure"]


class TestSharedNumbering:
    @settings(max_examples=50, deadline=None)
    @given(tree=random_trees)
    def test_binary_tree_read_as_general_tree_is_numbered_alike(self, tree):
        def preorder(node):
            if isinstance(node, Leaf):
                return []
            return [node] + preorder(node.left) + preorder(node.right)

        # Each general node's first weight is its binary node's threshold,
        # which tells the nodes apart.
        thresholds = [node.predicate.threshold for node in preorder(tree.root)]
        general = GeneralTree(binary_to_general(tree.root, thresholds), tree.feature_dim)
        assert [leaf.value for leaf in general.leaves] == [leaf.value for leaf in tree.leaves]
        np.testing.assert_array_equal(general.leaf_depths, tree.leaf_depths)
        assert [node.weights[0] for node in general.internal_nodes] == tree.thresholds.tolist()
        assert general.child_spans == [[(lo, mid), (mid, hi)] for lo, mid, hi in tree.leaf_spans]

    @pytest.mark.parametrize("missing", [1, 2, 3])
    def test_subtree_with_a_missing_child_has_no_span(self, missing):
        children = [Leaf(0.2), Leaf(0.3), Leaf(0.4)]
        children[missing - 1] = None
        inner = general_node(children, [0.2, 0.3, 0.5])
        tree = GeneralTree(general_node([Leaf(0.1), inner, Leaf(0.5)], [0.2, 0.3, 0.5]))
        assert tree.child_spans[0] == [(0, 1), (0, 0), (3, 4)]
        assert validate(tree).problems == [f"internal node root.2 has a malformed child {missing}"]


def with_dense_splits_and_ties(tree, seed):
    """``tree`` with about a third of its splits given dense weights, and
    instances that tie splits exactly: ``x[f] == threshold`` for a one-hot
    split (on rows 0-7), ``w . x == threshold``, the oracle's own product,
    for a dense one (on rows 8-15, which no one-hot tie changes)."""
    rng = np.random.default_rng(seed)
    dim = tree.feature_dim
    X = rng.uniform(size=(16, dim))

    def rebuild(node):
        if isinstance(node, Leaf):
            return Leaf(node.value)
        predicate = node.predicate
        if rng.random() < 0.35:
            weights = rng.uniform(-1.0, 1.0, dim)
            predicate = Predicate(weights, float(weights @ X[8 + rng.integers(8)]))
        else:
            X[rng.integers(8), int(np.argmax(predicate.weights))] = predicate.threshold
        return Internal(predicate, rebuild(node.left), rebuild(node.right))

    return BinaryDecisionTree(rebuild(tree.root), dim), X


def caller_objects(root):
    """The internal node objects under ``root`` level by level, and its leaf
    objects from left to right, as the caller built them."""
    internal, level = [], [root]
    while level:
        internal += [node for node in level if isinstance(node, Internal)]
        level = [c for node in level if isinstance(node, Internal) for c in (node.left, node.right)]
    leaves, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            leaves.append(node)
        else:
            stack += [node.right, node.left]
    return internal, leaves


def node_shape(tree):
    """Each internal node's threshold, weights and children (breadth-first
    index or leaf position), in breadth-first order."""
    index = {id(node): j for j, node in enumerate(tree.internal_nodes)}

    def child(node):
        return ("node", index[id(node)]) if id(node) in index else ("leaf", tree.leaf_position(node))

    return [
        (n.predicate.threshold, n.predicate.weights.tolist(), child(n.left), child(n.right))
        for n in tree.internal_nodes
    ]


class TestColumnarParse:
    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(1, 8),
        dim=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
        dense=st.booleans(),
    )
    def test_parsed_tree_equals_object_tree(self, depth, dim, seed, dense):
        tree = generate_random_tree(depth, dim, seed)
        X = random_instances(8, dim, seed)
        if dense:
            tree, X = with_dense_splits_and_ties(tree, seed)
        X = np.vstack([X, np.full(dim, np.nan), np.full(dim, np.inf), np.full(dim, -np.inf), -np.ones(dim)])
        # Alone, and after another tree in an ensemble, whose nodes and leaves
        # come first on the model's axes.
        lead, _ = with_dense_splits_and_ties(generate_random_tree(3, dim, seed + 1), seed + 1)
        pairs = [(parse_tree(serialize_tree(tree)), tree)]
        pairs += zip(parse_model(serialize_ensemble([lead, tree])), [lead, tree])
        for parsed, built in pairs:
            for name in ("span_array", "leaf_depths", "leaf_values", "thresholds", "weight_matrix"):
                got, want = getattr(parsed, name), getattr(built, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                np.testing.assert_array_equal(got, want)
            assert parsed.leaf_spans == built.leaf_spans
            # Non-finite rows included, and without a warning: the parsed tree's
            # array walk and the object tree's predicates run one split test.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert [naive_traverse(parsed, x) for x in X] == [naive_traverse(built, x) for x in X]
            assert validate(parsed).ok
            assert "root" not in vars(parsed)  # the arrays served everything so far
            assert serialize_tree(parsed) == serialize_tree(built)
            assert node_shape(parsed) == node_shape(built)
            # The object-built tree keeps the caller's own objects.
            internal, leaves = caller_objects(built.root)
            assert len(built.internal_nodes) == len(internal) and len(built.leaves) == len(leaves)
            assert all(a is b for a, b in zip(built.internal_nodes, internal))
            assert all(a is b for a, b in zip(built.leaves, leaves))

    def test_mixed_weight_rows_parse_as_their_object_twins(self):
        # The parser classifies every weight row once, per dimension: a unit
        # row is a one-hot split, as it is for a tree built from objects.
        docs = [{"type": "binary", "feature_dim": dim, "root": root} for dim, root in MIXED_TREES]
        parsed = parse_model(json.dumps({"type": "ensemble", "trees": docs}))
        built = [BinaryDecisionTree(objects_of(root, dim), dim) for dim, root in MIXED_TREES]
        for p, b in zip(parsed, built):
            for got, want in (
                (p.split_tests.gather, b.split_tests.gather),
                (p.split_tests.thresholds, b.split_tests.thresholds),
                (p.split_tests.dense_rows, b.split_tests.dense_rows),
                (p.weight_matrix, b.weight_matrix),
            ):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        # Columns at or above feature_dim are dense rows, numbered in node order.
        assert parsed[0].split_tests.gather.tolist() == [3, 2, 2, 1, 4]
        assert parsed[0].split_tests.dense_rows.tolist() == [[0.5, -1.0, 2.0], [1.0, 1.0, 0.0]]
        assert parsed[1].split_tests.gather.shape == (0,)
        assert parsed[1].split_tests.dense_rows.shape == (0, 2)
        assert parsed[2].split_tests.gather.tolist() == [0, 2, 1, 3]
        assert parsed[3].split_tests.gather.tolist() == [3]
        assert serialize_ensemble(parsed) == serialize_ensemble(built)

    def test_set_up_and_oracle_read_only_arrays(self, monkeypatch, tmp_path):
        def refuse(tree):
            raise AssertionError("node objects built from arrays")

        monkeypatch.setattr(BinaryDecisionTree, "_node_view", refuse)
        trees = [generate_random_tree(6, 4, seed) for seed in range(5)]
        parsed = parse_model(serialize_ensemble(trees))
        assert all(validate(tree).ok for tree in parsed)
        models = [TreeMatrices.build(tree) for tree in parsed]
        stacked = StackedTrees.build(parsed)
        X = random_instances(10, 4, 0)
        expected = [[naive_traverse(tree, x) for tree in trees] for x in X]
        assert [[naive_traverse(tree, x) for tree in parsed] for x in X] == expected
        leaves = np.concatenate([leaves for leaves, _ in batch_score(stacked, X, "qs")])
        assert leaves.tolist() == expected
        assert [m.num_leaves for m in models] == [t.num_leaves for t in trees]
        # Nor do the samplers, ``gen``, the serializer, ``recover_tree`` or
        # ``convert_general_to_binary``: every tree they make is arrays.
        assert serialize_ensemble(parsed) == serialize_ensemble(trees)
        assert serialize_tree(parsed[1]) == serialize_tree(trees[1])
        binary, probs = convert_general_to_binary(generate_random_general_tree(4, 3, 0, feature_dim=2))
        recovered = recover_tree(build_right_matrix(binary), "right")
        assert recovered.num_leaves == binary.num_leaves == len(probs) + 1
        for count in ("1", "3"):
            out = [str(tmp_path / name) for name in ("m.json", "d.csv")]
            assert main(["gen", "--count", count, "--out-model", out[0], "--out-data", out[1]]) == 0

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"type": "binary", "feature_dim": 1, "root": {
                    "feature": 0, "threshold": 0.5, "left": {"leaf": 0.0}, "right": {
                        "feature": 0, "threshold": 0.7, "left": {"leaf": "x"}, "right": {"leaf": 1.0}}}},
                "leaf root.right.left value must be a number, got 'x'",
            ),
            (
                {"type": "binary", "feature_dim": 2, "root": {
                    "feature": 0, "threshold": 0.5, "left": {
                        "feature": 1, "threshold": 0.2, "left": {"leaf": 0.0}, "right": {"leaf": 1.0},
                        "colour": "red"},
                    "right": {"leaf": 1.0}}},
                "node root.left has unexpected keys ['colour']",
            ),
            (
                {"type": "general", "feature_dim": 0, "root": {
                    "children": [{"leaf": 0.0}, {"children": [[], {"leaf": 1.0}], "weights": [0.5, 0.5]}],
                    "weights": [0.5, 0.5]}},
                "node root.2.1 must be an object",
            ),
        ],
        ids=["binary", "binary keys", "general"],
    )
    def test_errors_name_the_nested_node(self, doc, message):
        with pytest.raises(TreeFormatError) as info:
            parse_tree(json.dumps(doc))
        assert str(info.value) == message


class TestNaiveTraverse:
    def test_false_true_true_exits_third_leaf(self, six_leaf_tree):
        # root false, then true twice down the right subtree
        x = instance_for_tests(six_leaf_tree, [0, 0, 1, 1, 0])
        assert naive_traverse(six_leaf_tree, x) == 3

    def test_all_true_exits_leftmost_leaf(self, six_leaf_tree):
        x = instance_for_tests(six_leaf_tree, [1, 1, 1, 1, 1])
        assert naive_traverse(six_leaf_tree, x) == 1

    def test_all_false_exits_rightmost_leaf(self, six_leaf_tree):
        x = instance_for_tests(six_leaf_tree, [0, 0, 0, 0, 0])
        assert naive_traverse(six_leaf_tree, x) == 6

    def test_tie_routes_right(self, depth1_tree):
        # threshold is 0.5 and the test is strict
        assert naive_traverse(depth1_tree, np.array([0.5])) == 2

    def test_dimension_mismatch_raises(self, six_leaf_tree):
        # A short x and a long one, refused before any split is tested.
        for length in (4, 6):
            message = re.escape(f"feature vector has shape ({length},), expected (5,)")
            with pytest.raises(DimensionMismatchError, match=message):
                naive_traverse(six_leaf_tree, np.zeros(length))
            with pytest.raises(DimensionMismatchError, match=message):
                hard_routing_consistency(six_leaf_tree, np.zeros(length))

    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        xseed=st.integers(0, 2**31 - 1),
    )
    def test_agrees_with_explicit_path_enumeration(self, depth, seed, xseed):
        tree = generate_random_tree(depth, 4, seed)
        x = random_instances(1, 4, xseed)[0]
        t = (tree.weight_matrix @ x <= tree.thresholds)
        matching = [
            leaf
            for leaf, trail in enumerate_paths(tree)
            if all((not t[j]) == went_left for j, went_left in trail)
        ]
        assert matching == [naive_traverse(tree, x)]


class TestSerialization:
    def test_parse_six_leaf_document(self, six_leaf_tree):
        tree = parse_tree(serialize_tree(six_leaf_tree))
        assert tree.num_internal == 5
        assert tree.num_leaves == 6
        assert validate(tree).ok

    def test_parse_general_document(self, eight_leaf_general_tree):
        tree = parse_tree(serialize_tree(eight_leaf_general_tree))
        assert isinstance(tree, GeneralTree)
        assert tree.num_internal == 5
        assert tree.num_leaves == 8

    @pytest.mark.parametrize("value", [np.float32(0.1), np.int64(3), 2], ids=["float32", "int64", "int"])
    def test_numbers_are_written_as_the_stored_floats(self, value):
        # A numpy scalar or an int leaf value (and binary threshold) is
        # written as the float the tree stores, so the text is a fixed point.
        trees = [
            BinaryDecisionTree(Internal(Predicate(np.array([0.0, 1.0]), value), Leaf(value), Leaf(0.5)), 2),
            GeneralTree(GeneralInternal((Leaf(value), Leaf(0.5)), np.array([0.25, 0.75])), 2),
        ]
        for tree in trees:
            assert validate(tree).ok
            assert serialize_tree(parse_tree(serialize_tree(tree))) == serialize_tree(tree)

    @settings(max_examples=50, deadline=None)
    @given(tree=random_trees)
    def test_round_trip_is_canonical(self, tree):
        text = serialize_tree(tree)
        assert serialize_tree(parse_tree(text)) == text

    def test_round_trip_preserves_structure(self, six_leaf_tree):
        tree = parse_tree(serialize_tree(six_leaf_tree))
        assert [l.value for l in tree.leaves] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert tree.leaf_spans == six_leaf_tree.leaf_spans

    def test_general_weights_survive_round_trip(self, eight_leaf_general_tree):
        tree = parse_tree(serialize_tree(eight_leaf_general_tree))
        np.testing.assert_array_equal(
            tree.internal_nodes[0].weights,
            eight_leaf_general_tree.internal_nodes[0].weights,
        )

    def test_dense_weights_round_trip(self):
        pred = Predicate(np.array([0.5, -1.5, 2.0]), 1.25)
        tree = BinaryDecisionTree(Internal(pred, Leaf(0.0), Leaf(1.0)), 3)
        doc = json.loads(serialize_tree(tree))
        assert doc["root"]["weights"] == [0.5, -1.5, 2.0]
        parsed = parse_tree(serialize_tree(tree))
        np.testing.assert_array_equal(parsed.internal_nodes[0].predicate.weights, pred.weights)

    def test_missing_child_rejected(self):
        text = json.dumps(
            {
                "type": "binary",
                "feature_dim": 1,
                "root": {"feature": 0, "threshold": 0.5, "left": {"leaf": 1.0}},
            }
        )
        with pytest.raises(TreeFormatError, match="both children"):
            parse_tree(text)

    def test_unknown_type_rejected(self):
        with pytest.raises(TreeFormatError, match="unknown tree type"):
            parse_tree('{"type": "ternary", "feature_dim": 1, "root": {"leaf": 0}}')

    def test_feature_out_of_range_rejected(self):
        text = json.dumps(
            {
                "type": "binary",
                "feature_dim": 2,
                "root": {
                    "feature": 5,
                    "threshold": 0.5,
                    "left": {"leaf": 0.0},
                    "right": {"leaf": 1.0},
                },
            }
        )
        with pytest.raises(TreeFormatError, match="out of range"):
            parse_tree(text)

    def test_garbage_rejected(self):
        with pytest.raises(TreeFormatError):
            parse_tree("not json at all")

    @pytest.mark.parametrize("kind", ["binary", "general"])
    @pytest.mark.parametrize("dim", [MAX_FEATURE_DIM + 1, 2**62, 10**20])
    def test_feature_dim_past_the_longest_float_row_rejected(self, kind, dim):
        # The bound is numpy's: one more feature and no row of floats, not
        # even an empty matrix of such rows, can be made.
        with pytest.raises(ValueError, match="array is too big"):
            np.zeros((0, MAX_FEATURE_DIM + 1))
        doc = {"type": kind, "feature_dim": dim, "root": {"leaf": 1.0}}
        message = f"feature_dim must be at most {MAX_FEATURE_DIM}, not {dim}"
        for text in (json.dumps(doc), json.dumps({"type": "ensemble", "trees": [doc]})):
            with pytest.raises(TreeFormatError, match=message):
                parse_model(text)

    @pytest.mark.parametrize("kind", ["binary", "general"])
    def test_lone_leaf_at_the_feature_dim_bound_parses(self, kind):
        doc = {"type": kind, "feature_dim": MAX_FEATURE_DIM, "root": {"leaf": 1.0}}
        assert MAX_FEATURE_DIM == np.iinfo(np.intp).max // 8
        assert parse_tree(json.dumps(doc)).feature_dim == MAX_FEATURE_DIM

    def test_wrong_weight_count_rejected(self):
        text = json.dumps(
            {
                "type": "binary",
                "feature_dim": 3,
                "root": {
                    "weights": [1.0, 2.0],
                    "threshold": 0.5,
                    "left": {"leaf": 0.0},
                    "right": {"leaf": 1.0},
                },
            }
        )
        with pytest.raises(TreeFormatError, match="list of 3"):
            parse_tree(text)

    def test_unexpected_keys_rejected(self):
        text = json.dumps(
            {
                "type": "binary",
                "feature_dim": 1,
                "root": {
                    "feature": 0,
                    "treshold": 0.5,
                    "left": {"leaf": 0.0},
                    "right": {"leaf": 1.0},
                },
            }
        )
        with pytest.raises(TreeFormatError, match="unexpected keys"):
            parse_tree(text)

    def test_ensemble_round_trip(self, six_leaf_tree, depth1_tree):
        text = serialize_ensemble([six_leaf_tree, depth1_tree])
        trees = parse_model(text)
        assert [t.num_leaves for t in trees] == [6, 2]

    def test_chain_nested_too_deeply_is_a_format_error(self):
        assert parse_tree(chain_document(100)).num_internal == 100
        text = chain_document(3000)
        ensemble = '{"type": "ensemble", "trees": [' + text + "]}"
        for parse, doc in ((parse_tree, text), (parse_model, text), (parse_model, ensemble)):
            with pytest.raises(TreeFormatError, match="nested too deeply"):
                parse(doc)

    def test_chain_too_deep_to_serialize_is_a_format_error(self):
        assert parse_tree(serialize_tree(chain_tree(100))).num_internal == 100
        tree = chain_tree(3000)
        assert validate(tree).ok
        for serialize, arg in ((serialize_tree, tree), (serialize_ensemble, [tree])):
            with pytest.raises(TreeFormatError, match="nested too deeply to serialize"):
                serialize(arg)

    @pytest.mark.parametrize("where", ["leaf", "threshold", "weight"])
    def test_integer_too_large_for_a_float_is_a_format_error(self, where):
        numbers = {"leaf": "0", "threshold": "0.5", "weight": "1"}
        numbers[where] = "1" + "0" * 400
        text = (
            '{"type": "binary", "feature_dim": 2, "root": {"weights": [%(weight)s, 0], '
            '"threshold": %(threshold)s, "left": {"leaf": %(leaf)s}, "right": {"leaf": 1}}}'
        ) % numbers
        assert parse_tree(text.replace(numbers[where], "1"))
        with pytest.raises(TreeFormatError, match="too large for a float"):
            parse_tree(text)
        with pytest.raises(TreeFormatError, match="too large for a float"):
            parse_model('{"type": "ensemble", "trees": [' + text + "]}")

    def test_parse_tree_refuses_ensembles(self, depth1_tree):
        with pytest.raises(TreeFormatError, match="ensemble"):
            parse_tree(serialize_ensemble([depth1_tree]))


class TestRandomGeneration:
    def test_minimal_tree(self):
        tree = generate_random_tree(1, 1, 3)
        assert tree.num_internal == 1
        assert tree.num_leaves == 2

    def test_deterministic_in_seed(self):
        a = generate_random_tree(6, 5, 42)
        b = generate_random_tree(6, 5, 42)
        assert serialize_tree(a) == serialize_tree(b)

    def test_depth_12_stays_within_bounds(self):
        tree = generate_random_tree(12, 20, 11)
        assert tree.num_leaves <= 4096
        assert validate(tree).ok
        assert int(tree.leaf_depths.max()) <= 12

    @settings(max_examples=50, deadline=None)
    @given(tree=random_trees)
    def test_leaf_count_invariant(self, tree):
        assert tree.num_leaves == tree.num_internal + 1
        assert validate(tree).ok

    def test_deep_sample_needs_no_recursion(self):
        # Seed 4325 samples a tree 238 levels deep; with the recursion limit
        # 100 frames above this one, a sampler that recursed per level would
        # raise RecursionError.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            tree = generate_random_tree(1500, 1, 4325)
            report = validate(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert int(tree.leaf_depths.max()) == 238
        assert report.ok and tree.num_leaves == tree.num_internal + 1

    @pytest.mark.parametrize("seed", [0, 3, 42, 3684])
    def test_samplers_draw_in_recursive_pre_order(self, seed):
        # The samplers' draws, in the order of the recursive form they
        # replace, so that seeded output (``gen``) stays as it was.
        def binary(depth_bound, dim, rng, depth=0, force=True):
            if depth >= depth_bound or (not force and rng.random() >= 0.5):
                return Leaf(float(rng.uniform()))
            predicate = Predicate.one_hot(int(rng.integers(dim)), float(rng.uniform()), dim)
            left = binary(depth_bound, dim, rng, depth + 1, False)
            return Internal(predicate, left, binary(depth_bound, dim, rng, depth + 1, False))

        def general(depth_bound, fanout, rng, depth=0, force=True):
            if depth >= depth_bound or (not force and rng.random() >= 0.5):
                return Leaf(float(rng.uniform()))
            k = int(rng.integers(2, fanout + 1))
            weights = rng.dirichlet(np.ones(k))
            children = tuple(general(depth_bound, fanout, rng, depth + 1, False) for _ in range(k))
            return GeneralInternal(children, weights)

        for depth in (1, 4, 9):
            want = BinaryDecisionTree(binary(depth, 3, np.random.default_rng(seed)), 3)
            assert serialize_tree(generate_random_tree(depth, 3, seed)) == serialize_tree(want)
            want = GeneralTree(general(depth, 4, np.random.default_rng(seed)), 2)
            got = generate_random_general_tree(depth, 4, seed, feature_dim=2)
            assert serialize_tree(got) == serialize_tree(want)

    @pytest.mark.parametrize(
        "depth, seed, binary, general",
        [
            (3, 7, "945ba07e725cab4d", "b22deab997e02eed"),
            (9, 7, "40a821cbc7226668", "c20b73d44358f74b"),
            (3, 42, "fb798a1ccc062429", "7d3a8521099fb7bd"),
            (9, 42, "422ef288396c0c27", "7d3a8521099fb7bd"),
            (3, 2024, "a5a0c0e44bd99d66", "35902a940664f2aa"),
            (9, 2024, "722e394f2f38fb0f", "76b12d56c00cd9d2"),
        ],
    )
    def test_seeded_output_is_pinned(self, depth, seed, binary, general):
        # sha256 prefixes of the serialized samples, recorded once: a draw
        # taken in another order changes them, which comparing two runs of
        # the same code cannot show.
        def digest(tree):
            return hashlib.sha256(serialize_tree(tree).encode()).hexdigest()[:16]

        assert digest(generate_random_tree(depth, 3, seed)) == binary
        assert digest(generate_random_general_tree(depth, 4, seed, feature_dim=2)) == general

    def test_general_feature_dim_is_keyword_only(self):
        # In the binary sampler's order, (depth, dim, seed), a positional
        # dimension here would be taken as the seed.
        with pytest.raises(TypeError):
            generate_random_general_tree(5, 4, 4, 0)
        tree = generate_random_general_tree(5, 4, 0, feature_dim=4)
        assert tree.feature_dim == 4

    def test_general_deterministic_and_valid(self):
        a = generate_random_general_tree(4, 5, 9, feature_dim=3)
        b = generate_random_general_tree(4, 5, 9, feature_dim=3)
        assert serialize_tree(a) == serialize_tree(b)
        assert validate(a).ok

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            generate_random_tree(0, 1, 0)
        with pytest.raises(ValueError):
            generate_random_tree(1, 0, 0)
