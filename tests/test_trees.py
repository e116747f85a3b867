import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binary_to_general,
    chain_document,
    enumerate_paths,
    general_node,
    instance_for_tests,
    one_hot_node,
)
from treeflat import (
    BinaryDecisionTree,
    DimensionMismatchError,
    GeneralTree,
    Internal,
    Leaf,
    Predicate,
    TreeFormatError,
    generate_random_general_tree,
    generate_random_tree,
    naive_traverse,
    parse_model,
    parse_tree,
    random_instances,
    serialize_ensemble,
    serialize_tree,
    validate,
)

random_trees = st.builds(
    generate_random_tree,
    depth_bound=st.integers(1, 6),
    feature_dim=st.just(4),
    seed=st.integers(0, 2**31 - 1),
)

STALE_NUMBERING = ["reassigned root", "reordered nodes", "reordered leaves", "swapped siblings"]


class TestValidate:
    def test_six_leaf_tree_is_valid(self, six_leaf_tree):
        report = validate(six_leaf_tree)
        assert report.ok and not report.problems
        assert six_leaf_tree.num_internal == 5
        assert six_leaf_tree.num_leaves == 6

    def test_single_leaf_tree_is_invalid(self):
        report = validate(BinaryDecisionTree(Leaf(1.0), 1))
        assert not report.ok
        assert any("internal node" in p for p in report.problems)

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
        with pytest.raises(DimensionMismatchError):
            naive_traverse(six_leaf_tree, np.zeros(4))

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
