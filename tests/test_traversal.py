import dataclasses
import gc
import json
import math
import re
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_shapes, chain_tree, enumerate_paths, instance_for_tests, tree_with_leaves
from treeflat import (
    ALGORITHMS,
    BinaryDecisionTree,
    DimensionMismatchError,
    Internal,
    Leaf,
    Predicate,
    StackedTrees,
    TreeMatrices,
    batch_leaves,
    batch_score,
    batch_soft_attention,
    compute_test_matrix,
    compute_test_vector,
    delta_traverse,
    dual_matrix_traverse,
    dual_traverse,
    ecoc_traverse,
    ensemble_score,
    generate_random_tree,
    hard_routing_consistency,
    linear_hash_test_vector,
    matrix_traverse,
    mips_leaf_search,
    naive_traverse,
    parse_model,
    quickscorer_traverse,
    random_instances,
    scaled_argmax_invariance_check,
    serialize_ensemble,
    sign_traverse,
    signed_test_vector,
    soft_attention,
    sum_in_model_order,
)
from treeflat import cli, traversal, trees as trees_module
from treeflat.trees import dense_products
from treeflat.matrices import (
    build_depth_vector,
    build_left_matrix,
    build_right_matrix,
    build_signed_matrix,
)

ARITHMETIC = [name for name in ALGORITHMS if name != "naive"]

tree_and_inputs = st.tuples(
    st.integers(1, 7),  # depth bound
    st.integers(0, 2**31 - 1),  # tree seed
    st.integers(0, 2**31 - 1),  # instance seed
)


def build_random_case(depth, tree_seed, x_seed, dim=4):
    tree = generate_random_tree(depth, dim, tree_seed)
    x = random_instances(1, dim, x_seed)[0]
    return tree, TreeMatrices.build(tree), x


@pytest.fixture
def six_leaf_mats(six_leaf_tree):
    return TreeMatrices.build(six_leaf_tree)


@pytest.fixture
def depth1_mats(depth1_tree):
    return TreeMatrices.build(depth1_tree)


class TestTestVectors:
    def test_golden_false_true_true(self, six_leaf_tree):
        x = instance_for_tests(six_leaf_tree, [0, 0, 1, 1, 0])
        np.testing.assert_array_equal(
            compute_test_vector(six_leaf_tree, x), [1, 1, 0, 0, 1]
        )

    def test_all_true_gives_zero_vector(self, six_leaf_tree):
        x = instance_for_tests(six_leaf_tree, [1, 1, 1, 1, 1])
        assert not compute_test_vector(six_leaf_tree, x).any()

    def test_batch_matches_single(self, six_leaf_tree):
        X = random_instances(8, 5, 3)
        batch = compute_test_matrix(six_leaf_tree, X)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(batch[i], compute_test_vector(six_leaf_tree, x))

    @settings(max_examples=50, deadline=None)
    @given(args=tree_and_inputs)
    def test_path_entries_negate_branch_decisions(self, args):
        tree, _, x = build_random_case(*args)
        t = compute_test_vector(tree, x)
        leaf = naive_traverse(tree, x)
        trail = dict(next(p for l, p in enumerate_paths(tree) if l == leaf)[:])
        for j, went_left in trail.items():
            assert t[j] == (0 if went_left else 1)

    def test_golden_signed_vector(self):
        np.testing.assert_array_equal(
            signed_test_vector([1, 1, 0, 0, 1]), [1, 1, -1, -1, 1]
        )

    def test_zero_vector_maps_to_minus_ones(self):
        np.testing.assert_array_equal(signed_test_vector(np.zeros(4, int)), -np.ones(4))

    @given(t=st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_signed_round_trip(self, t):
        s = signed_test_vector(t)
        np.testing.assert_array_equal((s + 1) // 2, t)


class TestLinearHash:
    @settings(max_examples=40, deadline=None)
    @given(args=tree_and_inputs)
    def test_one_hot_rows_agree_with_tree_tests(self, args):
        tree, _, x = build_random_case(*args)
        s = linear_hash_test_vector(tree.weight_matrix, tree.thresholds, x)
        np.testing.assert_array_equal(
            s, signed_test_vector(compute_test_vector(tree, x))
        )

    def test_non_finite_rows_agree_with_tree_tests(self):
        # A matrix product takes 0 * inf = NaN here, which warns and flips node 3.
        tree = generate_random_tree(3, 3, 1)
        x = np.array([0.9, 0.9, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = linear_hash_test_vector(tree.weight_matrix, tree.thresholds, x)
            expected = signed_test_vector(compute_test_vector(tree, x))
        np.testing.assert_array_equal(expected, [1, 1, -1, -1])
        np.testing.assert_array_equal(s, expected)

    def test_tie_maps_to_false(self):
        W = np.eye(3)
        gamma = np.array([0.5, 0.5, 0.5])
        s = linear_hash_test_vector(W, gamma, np.array([0.5, 0.4, 0.6]))
        np.testing.assert_array_equal(s, [1, 1, -1])

    def test_codomain_is_plus_minus_one(self):
        rng = np.random.default_rng(0)
        s = linear_hash_test_vector(
            rng.normal(size=(6, 4)), rng.normal(size=6), rng.normal(size=4)
        )
        assert set(np.unique(s)) <= {-1, 1}

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            linear_hash_test_vector(np.eye(3), np.zeros(2), np.zeros(3))


class TestTreeMatricesBuild:
    @settings(max_examples=80, deadline=None)
    @given(depth=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
    def test_span_masks_and_lazy_fields_equal_the_dense_builders(self, depth, seed):
        tree = generate_random_tree(depth, 3, seed)
        mats = TreeMatrices.build(tree)
        right, left = build_right_matrix(tree), build_left_matrix(tree)
        assert mats.right_col_masks == right.packed_columns()
        assert mats.left_col_masks == left.packed_columns()
        assert mats.full_mask == (1 << tree.num_leaves) - 1
        assert (mats.num_leaves, mats.num_internal) == right.shape
        for name, expected in (("depths", build_depth_vector(tree)), ("leaf_values", tree.leaf_values)):
            got = getattr(mats, name)
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)
        np.testing.assert_array_equal(mats.right.entries, right.entries)
        np.testing.assert_array_equal(mats.left.entries, left.entries)
        for name, expected in (
            ("right_int", right.entries.astype(np.int64)),
            ("left_int", left.entries.astype(np.int64)),
            ("signed", build_signed_matrix(tree)),
        ):
            got = getattr(mats, name)
            assert got.dtype == np.int64, name
            np.testing.assert_array_equal(got, expected, err_msg=name)

    def test_build_keeps_only_the_tree(self, six_leaf_tree):
        mats = TreeMatrices.build(six_leaf_tree)
        assert vars(mats) == {"tree": six_leaf_tree} and mats._stack is None

    def test_bitwise_and_soft_paths_build_no_dense_matrix(self, monkeypatch):
        def refuse(tree):
            raise AssertionError("a dense matrix was built")

        for name in ("build_right_matrix", "build_left_matrix", "build_signed_matrix"):
            monkeypatch.setattr(traversal, name, refuse)
        trees = [generate_random_tree(7, 4, seed) for seed in range(5)]
        models = [TreeMatrices.build(tree) for tree in trees]
        for x in random_instances(10, 4, 2):
            expected = [naive_traverse(tree, x) for tree in trees]
            for tree, mats, leaf in zip(trees, models, expected):
                t = compute_test_vector(tree, x)
                assert quickscorer_traverse(mats, t).leaf_index == leaf
                assert dual_traverse(mats, t).leaf_index == leaf
                assert soft_attention(mats, signed_test_vector(t)).argmax_leaf == leaf
            total = left_fold(tree.leaf_values[leaf - 1] for tree, leaf in zip(trees, expected))
            assert ensemble_score(models, x, "qs") == total


# Every per-vector selector and soft attention, with whether it reads s = 2t - 1.
TEST_VECTOR_READERS = [
    (quickscorer_traverse, False),
    (dual_traverse, False),
    (matrix_traverse, False),
    (dual_matrix_traverse, False),
    (sign_traverse, True),
    (ecoc_traverse, True),
    (delta_traverse, True),
    (soft_attention, True),
]


@pytest.mark.parametrize("fn, signed", TEST_VECTOR_READERS, ids=[fn.__name__ for fn, _ in TEST_VECTOR_READERS])
@pytest.mark.parametrize(
    "reshape, shape",
    [
        (lambda t: t[:-1], "(3,)"),
        (lambda t: np.append(t, 0), "(5,)"),
        (lambda t: t[None, :], "(1, 4)"),
    ],
    ids=["short", "long", "2-D"],
)
def test_test_vector_of_the_wrong_shape_is_refused(fn, signed, reshape, shape):
    # Without the check, qs took the short t to leaf 3 (the full t exits at
    # leaf 4) and accepted the 2-D one; dual raised a bare IndexError.
    tree = generate_random_tree(4, 3, 5)
    mats = TreeMatrices.build(tree)
    t = compute_test_vector(tree, np.array([0.0405, 0.7320, 0.6144]))
    assert t.tolist() == [1, 0, 1, 1]
    v = signed_test_vector(t) if signed else t
    fn(mats, v)  # the full vector is accepted
    with pytest.raises(DimensionMismatchError, match=re.escape(f"test vector has shape {shape}, expected (4,)")):
        fn(mats, reshape(v))


NON_INTEGRAL_READERS = TEST_VECTOR_READERS + [
    (lambda mats, t: signed_test_vector(t), False),
    (lambda mats, t: scaled_argmax_invariance_check(mats, t, np.ones(len(t))), False),
]


@pytest.mark.parametrize(
    "fn, signed",
    NON_INTEGRAL_READERS,
    ids=[fn.__name__ for fn, _ in TEST_VECTOR_READERS] + ["signed_test_vector", "scaled_argmax_invariance_check"],
)
@pytest.mark.parametrize(
    "bad, text", [(0.9, "0.9"), (-0.5, "-0.5"), (np.nan, "nan"), (np.inf, "inf"), (2.0**63, "9.223372036854776e+18")]
)
def test_non_integral_test_vector_is_refused(fn, signed, bad, text):
    # Unchecked, qs read an entry of 0.9 as a false node while matrix cast it
    # to 0, a true one, and signed_test_vector([0.5, 1.7]) gave [-1, 1].
    tree = generate_random_tree(4, 3, 5)
    mats = TreeMatrices.build(tree)
    t = compute_test_vector(tree, np.array([0.0405, 0.7320, 0.6144]))
    v = (signed_test_vector(t) if signed else t).astype(np.float64)
    fn(mats, v)  # integral floats are read as integers
    v[2] = bad
    with pytest.raises(ValueError, match=re.escape(f"test vector entry 2 is {text}, not an integer")):
        fn(mats, v)


class TestBitwiseTraversals:
    def test_no_false_nodes_exits_leftmost(self, six_leaf_mats):
        assert quickscorer_traverse(six_leaf_mats, np.zeros(5, int)).leaf_index == 1

    def test_all_false_exits_rightmost(self, six_leaf_mats):
        assert quickscorer_traverse(six_leaf_mats, np.ones(5, int)).leaf_index == 6

    def test_dual_depth1_true_exits_left(self, depth1_mats):
        result = dual_traverse(depth1_mats, np.array([0]))
        assert result.leaf_index == 1
        assert result.nodes_processed == 1

    def test_dual_golden_early_exit(self, six_leaf_mats):
        result = dual_traverse(six_leaf_mats, np.array([1, 1, 0, 0, 1]))
        assert result.leaf_index == 3
        assert result.nodes_processed <= 4

    @settings(max_examples=80, deadline=None)
    @given(args=tree_and_inputs)
    def test_oracle_equivalence_and_early_exit(self, args):
        tree, mats, x = build_random_case(*args)
        expected = naive_traverse(tree, x)
        t = compute_test_vector(tree, x)
        assert quickscorer_traverse(mats, t).leaf_index == expected
        result = dual_traverse(mats, t)
        assert result.leaf_index == expected
        last_path_node = max(
            j for l, p in enumerate_paths(tree) if l == expected for j, _ in p
        )
        assert result.nodes_processed <= last_path_node + 1


class TestMatrixTraversals:
    def test_all_false_scores(self, six_leaf_mats):
        result = matrix_traverse(six_leaf_mats, np.ones(5, int))
        np.testing.assert_array_equal(result.score_vector, [4, 5, 4, 5, 5, 6])
        assert result.leaf_index == 6

    def test_no_false_nodes(self, six_leaf_mats):
        result = matrix_traverse(six_leaf_mats, np.zeros(5, int))
        np.testing.assert_array_equal(result.score_vector, np.ones(6))
        assert result.leaf_index == 1

    def test_dual_matrix_depth1(self, depth1_mats):
        result = dual_matrix_traverse(depth1_mats, np.array([1]))
        assert result.leaf_index == 2
        assert result.score_vector.max() == 1

    @settings(max_examples=80, deadline=None)
    @given(args=tree_and_inputs)
    def test_oracle_equivalence(self, args):
        tree, mats, x = build_random_case(*args)
        expected = naive_traverse(tree, x)
        t = compute_test_vector(tree, x)
        assert matrix_traverse(mats, t).leaf_index == expected
        result = dual_matrix_traverse(mats, t)
        assert result.leaf_index == expected
        v = result.score_vector
        assert v.max() == tree.num_internal
        assert (v == v.max()).sum() == 1

    def test_dual_matrix_max_is_node_count_for_every_t(self):
        for tree in all_shapes(4):
            mats = TreeMatrices.build(tree)
            for bits in range(2**4):
                t = np.array([(bits >> j) & 1 for j in range(4)], dtype=np.int64)
                v = dual_matrix_traverse(mats, t).score_vector
                assert v.max() == 4

    def test_argmax_identities_on_larger_sampled_trees(self):
        # product-vs-sum candidate sets and the -1 substitution, at sizes past
        # the exhaustive shape sweep
        rng = np.random.default_rng(31)
        for n in range(7, 11):
            found = 0
            for seed in rng.integers(0, 2**31, size=4000):
                tree = generate_random_tree(10, 3, int(seed))
                if tree.num_internal != n:
                    continue
                found += 1
                mats = TreeMatrices.build(tree)
                tilde = 2 * mats.right_int - 1
                for bits in rng.integers(0, 2**n, size=64):
                    t = np.array([(int(bits) >> j) & 1 for j in range(n)], np.int64)
                    mask = mats.full_mask
                    for j in np.flatnonzero(t):
                        mask &= mats.right_col_masks[j]
                    product_set = {i for i in range(mats.num_leaves) if (mask >> i) & 1}
                    sums = mats.right_int @ t
                    assert product_set == set(np.flatnonzero(sums == sums.max()))
                    tilde_sums = tilde @ t
                    assert set(np.flatnonzero(sums == sums.max())) == set(
                        np.flatnonzero(tilde_sums == tilde_sums.max())
                    )
                if found == 10:
                    break
            assert found == 10

    def test_wide_tree_crosses_word_boundaries(self):
        from treeflat import BinaryDecisionTree, Internal, Leaf, Predicate

        # perfect depth-7 tree: 128 leaves, so packed columns span three words
        def perfect(depth, feature=0):
            if depth == 0:
                return Leaf(float(feature))
            return Internal(
                Predicate.one_hot(feature % 6, 0.5, 6),
                perfect(depth - 1, 2 * feature + 1),
                perfect(depth - 1, 2 * feature + 2),
            )

        tree = BinaryDecisionTree(perfect(7), 6)
        assert tree.num_leaves == 128
        mats = TreeMatrices.build(tree)
        for x in random_instances(20, 6, 55):
            expected = naive_traverse(tree, x)
            t = compute_test_vector(tree, x)
            s = signed_test_vector(t)
            assert quickscorer_traverse(mats, t).leaf_index == expected
            assert dual_traverse(mats, t).leaf_index == expected
            assert matrix_traverse(mats, t).leaf_index == expected
            assert dual_matrix_traverse(mats, t).leaf_index == expected
            assert sign_traverse(mats, s).leaf_index == expected
            assert ecoc_traverse(mats, s).leaf_index == expected
            assert delta_traverse(mats, s) == tree.leaf_values[expected - 1]


class TestSignTraversal:
    def test_golden_rational_scores(self, six_leaf_mats):
        s = np.array([1, 1, -1, -1, 1])
        result = sign_traverse(six_leaf_mats, s)
        assert result.leaf_index == 3
        numerators = six_leaf_mats.signed @ s
        exact = [
            Fraction(int(n), int(d))
            for n, d in zip(numerators, six_leaf_mats.depths)
        ]
        assert exact == [
            Fraction(-1),
            Fraction(0),
            Fraction(1),
            Fraction(1, 3),
            Fraction(-1, 3),
            Fraction(1, 3),
        ]
        np.testing.assert_allclose(
            result.score_vector, [-1, 0, 1, 1 / 3, -1 / 3, 1 / 3]
        )

    def test_depth1(self, depth1_mats):
        result = sign_traverse(depth1_mats, np.array([-1]))
        assert result.leaf_index == 1
        np.testing.assert_array_equal(result.score_vector, [1.0, -1.0])

    @settings(max_examples=80, deadline=None)
    @given(args=tree_and_inputs)
    def test_oracle_equivalence_and_score_gap(self, args):
        tree, mats, x = build_random_case(*args)
        s = signed_test_vector(compute_test_vector(tree, x))
        result = sign_traverse(mats, s)
        assert result.leaf_index == naive_traverse(tree, x)
        v = result.score_vector
        assert v.max() == 1.0
        if len(v) > 1:
            runner_up = np.partition(v, -2)[-2]
            assert runner_up <= 1 - 2 / mats.depths.max() + 1e-12


class TestEcocAndDelta:
    def test_golden_scan(self, six_leaf_mats):
        result = ecoc_traverse(six_leaf_mats, np.array([1, 1, -1, -1, 1]))
        assert result.leaf_index == 3
        np.testing.assert_allclose(result.score_vector, [-1.0, 0.0, 1.0])

    def test_leftmost_match_returns_immediately(self, six_leaf_mats):
        # all tests true routes to leaf 1
        result = ecoc_traverse(six_leaf_mats, -np.ones(5, dtype=np.int64))
        assert result.leaf_index == 1
        assert len(result.score_vector) == 1

    def test_golden_delta(self, six_leaf_mats):
        s = np.array([1, 1, -1, -1, 1])
        v = six_leaf_mats.signed @ s - six_leaf_mats.depths
        np.testing.assert_array_equal(v, [-4, -2, 0, -2, -4, -2])
        assert delta_traverse(six_leaf_mats, s) == pytest.approx(0.3)

    def test_delta_depth1(self, depth1_mats):
        assert delta_traverse(depth1_mats, np.array([-1])) == 0.25
        assert delta_traverse(depth1_mats, np.array([1])) == 0.75

    @settings(max_examples=80, deadline=None)
    @given(args=tree_and_inputs)
    def test_oracle_equivalence(self, args):
        tree, mats, x = build_random_case(*args)
        expected = naive_traverse(tree, x)
        s = signed_test_vector(compute_test_vector(tree, x))
        assert ecoc_traverse(mats, s).leaf_index == expected
        assert delta_traverse(mats, s) == tree.leaf_values[expected - 1]


class TestSoftAttention:
    def test_golden_argmax(self, six_leaf_mats):
        dist = soft_attention(six_leaf_mats, np.array([1, 1, -1, -1, 1]))
        assert dist.argmax_leaf == 3
        assert dist.is_normalized

    def test_depth1_closed_form(self, depth1_mats):
        dist = soft_attention(depth1_mats, np.array([-1]))
        e = np.exp(1.0)
        np.testing.assert_allclose(
            dist.probs, [e / (e + 1 / e), (1 / e) / (e + 1 / e)], rtol=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(args=tree_and_inputs)
    def test_span_form_equals_dense_softmax(self, args):
        tree, mats, x = build_random_case(*args)
        s = signed_test_vector(compute_test_vector(tree, x))
        scores = (mats.signed @ s) / mats.depths
        shifted = np.exp(scores - scores.max())
        np.testing.assert_array_equal(soft_attention(mats, s).probs, shifted / shifted.sum())

    @settings(max_examples=50, deadline=None)
    @given(args=tree_and_inputs)
    def test_sums_to_one_and_matches_hard_leaf(self, args):
        tree, mats, x = build_random_case(*args)
        s = signed_test_vector(compute_test_vector(tree, x))
        dist = soft_attention(mats, s)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        assert (dist.probs > 0).all()
        assert dist.argmax_leaf == sign_traverse(mats, s).leaf_index

    @staticmethod
    def assert_int8_scores(tree, X):
        """P s from the int8 s of the boolean test matrix, summed in int32,
        equals the int64 form summed in int64, in the kernel and in the soft
        chunks; returns it."""
        model = StackedTrees.build([tree])
        t = model.split_tests.false_nodes(X)
        expected = traversal._signed_scores(model.boundaries, signed_test_vector(t)).T
        got = traversal._signed_scores(model.boundaries, traversal._signed(t)).T
        chunks = [ps for ps, _ in traversal._soft_chunks(model, X)]
        assert expected.dtype == np.int64
        for ps in (got, np.vstack(chunks)):
            assert ps.dtype == np.int32
            np.testing.assert_array_equal(ps, expected)
        return expected

    @settings(max_examples=50, deadline=None)
    @given(args=tree_and_inputs)
    def test_int8_scores_equal_the_int64_form(self, args):
        depth, tree_seed, x_seed = args
        self.assert_int8_scores(generate_random_tree(depth, 4, tree_seed), random_instances(40, 4, x_seed))

    def test_int8_scores_on_a_chain_deeper_than_int8(self):
        # Every node of the chain tests x[0] > 0.5, which 0.25 fails at every
        # node, and a false node routes right: that row runs down the whole
        # right spine, so its last leaf scores P s = 300.
        scores = self.assert_int8_scores(chain_tree(300), np.array([[0.25], [0.75], [0.5]]))
        assert scores[0, -1] == 300


class TestScaledArgmaxInvariance:
    def test_unit_scale_trivially_true(self, six_leaf_mats):
        t = np.array([1, 1, 0, 0, 1])
        assert scaled_argmax_invariance_check(six_leaf_mats, t, np.ones(5))

    @settings(max_examples=60, deadline=None)
    @given(args=tree_and_inputs, scale_seed=st.integers(0, 2**31 - 1))
    def test_random_positive_scales(self, args, scale_seed):
        tree, mats, x = build_random_case(*args)
        t = compute_test_vector(tree, x)
        scale = np.random.default_rng(scale_seed).uniform(0.1, 10.0, tree.num_internal)
        assert scaled_argmax_invariance_check(mats, t, scale)

    def test_exhaustive_small_trees(self):
        rng = np.random.default_rng(5)
        for tree in all_shapes(4):
            mats = TreeMatrices.build(tree)
            scale = rng.uniform(0.1, 10.0, 4)
            for bits in range(2**4):
                t = np.array([(bits >> j) & 1 for j in range(4)], dtype=np.int64)
                assert scaled_argmax_invariance_check(mats, t, scale)

    def test_nonpositive_scale_rejected(self, six_leaf_mats):
        with pytest.raises(ValueError):
            scaled_argmax_invariance_check(
                six_leaf_mats, np.zeros(5, int), np.array([1, 1, 0, 1, 1.0])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_and_nonpositive_scales_rejected(self, six_leaf_mats, bad):
        scale = np.array([1, 1, bad, 1, 1.0])
        with pytest.raises(ValueError, match="scale entries must be positive and finite"):
            scaled_argmax_invariance_check(six_leaf_mats, np.zeros(5, int), scale)


class TestMips:
    def test_golden_query(self, six_leaf_mats):
        leaf = mips_leaf_search(
            six_leaf_mats.normalized_leaf_vectors, np.array([1, 1, -1, -1, 1])
        )
        assert leaf == 3

    def test_consensus_on_own_row(self, six_leaf_mats):
        # complete a leaf's signed row arbitrarily on its zeros; the row still wins
        row = six_leaf_mats.signed[3].copy()
        row[row == 0] = 1
        assert mips_leaf_search(six_leaf_mats.normalized_leaf_vectors, row) == 4

    @settings(max_examples=60, deadline=None)
    @given(args=tree_and_inputs)
    def test_matches_sign_traversal(self, args):
        tree, mats, x = build_random_case(*args)
        s = signed_test_vector(compute_test_vector(tree, x))
        assert mips_leaf_search(mats.normalized_leaf_vectors, s) == (
            sign_traverse(mats, s).leaf_index
        )

    @pytest.mark.parametrize(
        "reshape, shape",
        [
            (lambda s: s[:-1], "(3,)"),
            (lambda s: np.append(s, 1), "(5,)"),
            (lambda s: np.stack([s, s], axis=1), "(4, 2)"),
            (lambda s: s[0], "()"),
        ],
        ids=["short", "long", "2-D", "scalar"],
    )
    def test_query_of_the_wrong_shape_is_refused(self, reshape, shape):
        # Without the check, the 2-D query gave leaf 7 of a 5-leaf tree, and
        # the short, long and scalar ones raised numpy's matmul ValueError.
        tree = generate_random_tree(4, 3, 5)
        vectors = TreeMatrices.build(tree).normalized_leaf_vectors
        s = signed_test_vector(compute_test_vector(tree, np.array([0.0405, 0.7320, 0.6144])))
        assert mips_leaf_search(vectors, s) == 4
        with pytest.raises(DimensionMismatchError, match=re.escape(f"query has shape {shape}, expected (4,)")):
            mips_leaf_search(vectors, reshape(s))

    def test_leaf_vectors_must_be_2d(self, six_leaf_mats):
        with pytest.raises(DimensionMismatchError, match=re.escape("leaf vectors have shape (30,)")):
            mips_leaf_search(six_leaf_mats.normalized_leaf_vectors.ravel(), np.ones(30))


class TestEnsemble:
    def test_single_tree_matches_direct_result(self, six_leaf_tree, six_leaf_mats):
        x = instance_for_tests(six_leaf_tree, [0, 0, 1, 1, 0])
        assert ensemble_score([six_leaf_mats], x, "sign") == pytest.approx(0.3)

    def test_empty_ensemble_scores_zero(self):
        assert ensemble_score([], np.zeros(3), "qs") == 0.0

    def test_unknown_algorithm_rejected(self, six_leaf_mats):
        message = f"unknown algorithm 'fastest'; choose from {sorted(ALGORITHMS)}"
        for models in ([six_leaf_mats], []):
            with pytest.raises(ValueError, match=re.escape(message)):
                ensemble_score(models, np.zeros(5), "fastest")

    def test_all_algorithms_agree_on_a_100_tree_ensemble(self):
        rng = np.random.default_rng(17)
        models = [
            TreeMatrices.build(generate_random_tree(5, 6, int(s)))
            for s in rng.integers(0, 2**31, size=100)
        ]
        X = random_instances(10, 6, 99)
        for x in X:
            scores = {name: ensemble_score(models, x, name) for name in ALGORITHMS}
            assert len(set(scores.values())) == 1, scores


def per_vector_sum(models, x, name):
    """One selector per tree, the leaf values folded from 0 in model order."""
    return float(left_fold(ALGORITHMS[name](m, x).leaf_value for m in models))


def constant_tree(value, dim):
    """Two leaves of one value, so the tree adds ``value`` for every x."""
    return BinaryDecisionTree(Internal(Predicate.one_hot(0, 0.5, dim), Leaf(value), Leaf(value)), dim)


def signed_zero_tree(dim):
    return constant_tree(-0.0, dim)


def cancelling_tree(dim):
    """Leaf values whose sum depends on the order they are added in."""
    left = Internal(Predicate.one_hot(1, 0.5, dim), Leaf(1e16), Leaf(-1e16))
    return BinaryDecisionTree(Internal(Predicate.one_hot(0, 0.5, dim), left, Leaf(1.0)), dim)


def word_ensemble(dim=4):
    """Trees of 2 to 64 leaves, so ``qs`` and ``dual`` run the word kernels."""
    trees = [tree_with_leaves(n, dim, n) for n in (2, 7, 33, 64)]
    trees += [generate_random_tree(5, dim, seed) for seed in range(8)]
    trees += [cancelling_tree(dim), signed_zero_tree(dim), cancelling_tree(dim)]
    return [t for t in trees if t.num_leaves >= 2]


@pytest.fixture
def stack_builds(monkeypatch):
    """A list that grows by one at each ``StackedTrees.build``."""
    builds = []
    real = StackedTrees.build
    monkeypatch.setattr(StackedTrees, "build", lambda trees: builds.append(1) or real(trees))
    return builds


def fresh_bundles(trees):
    return [TreeMatrices.build(t) for t in trees]


class TestCachedEnsembleScore:
    """``ensemble_score`` scores x as a batch of one over a stacked model,
    built on the first call that one first bundle leads with these trees and
    kept on that bundle; a call with other trees stacks those in its place.
    No call runs a per-vector selector."""

    @staticmethod
    def models_and_rows(kind):
        if kind == "hostile":
            built, X = hostile_case(11, 3, 4, 4)
            trees = parse_model(serialize_ensemble(built))
        elif kind == "signed zero":  # sums to 0.0, as the fold starts from 0
            trees = [signed_zero_tree(4), signed_zero_tree(4)]
            X = random_instances(4, 4, 1)
        elif kind == "one signed zero":  # 0.0 too, with no fold to run
            trees = [signed_zero_tree(4)]
            X = random_instances(4, 4, 1)
        else:
            trees = word_ensemble()
            if kind == "span":
                trees.insert(5, tree_with_leaves(100, 4, 5))
            X = instances_with_ties(trees, 25, 3)
        assert StackedTrees.build(trees).fits_words == (kind != "span")
        return fresh_bundles(trees), X

    @pytest.mark.parametrize("kind", ["words", "span", "hostile", "signed zero", "one signed zero"])
    def test_equals_the_per_vector_sum_bit_for_bit(self, kind):
        # Two models in turn, the second the first reversed: each is stacked
        # on its first, cold call, then scored warm, and keeps its own order
        # of addition.
        models, X = self.models_and_rows(kind)
        for x in X:
            for name in ALGORITHMS:
                for model in (models, models[::-1]):
                    got = ensemble_score(model, x, name)
                    assert got.hex() == per_vector_sum(model, x, name).hex(), (name, x)

    def test_model_is_stacked_on_its_first_call(self, stack_builds):
        models = fresh_bundles(word_ensemble())
        X = random_instances(50, 4, 8)
        for x in X:
            assert ensemble_score(models, x, "qs") == per_vector_sum(models, x, "qs")
            assert len(stack_builds) == 1
        # Other lists of the same TreeMatrices reuse the entry too.
        assert ensemble_score(list(models), X[0], "dual") == per_vector_sum(models, X[0], "dual")
        assert len(stack_builds) == 1
        for changed in (models[::-1], models[:3], models[1:], models + models[:1]):
            before = len(stack_builds)
            for x in X[:3]:
                assert ensemble_score(changed, x, "qs") == per_vector_sum(changed, x, "qs")
            assert len(stack_builds) == before + 1
        # Right after a model is stacked, its reverse is another model: in
        # this order the sum keeps the 1.0, in the reverse it loses it.
        ordered = fresh_bundles([constant_tree(v, 4) for v in (1e16, -1e16, 1.0)])
        for model, total in ((ordered, 1.0), (ordered, 1.0), (ordered[::-1], 0.0)):
            assert ensemble_score(model, X[0], "qs") == total

    def test_alternating_models_stack_once_each(self, stack_builds):
        models = fresh_bundles(word_ensemble())
        other = fresh_bundles(generate_random_tree(4, 4, s) for s in range(20, 26))
        for x in random_instances(6, 4, 9):
            for model in (other, models):
                assert ensemble_score(model, x, "sign") == per_vector_sum(model, x, "sign")
        assert len(stack_builds) == 2
        stacked = [model[0]._stack for model in (models, other)]
        assert None not in stacked and stacked[0] is not stacked[1]

    def test_shared_first_bundle_restacks_at_each_switch(self, stack_builds):
        models = fresh_bundles(word_ensemble())
        shared = models[:1] + fresh_bundles(generate_random_tree(4, 4, s) for s in range(20, 26))
        calls = 0
        for x in random_instances(6, 4, 10):
            for model in (shared, models):
                assert ensemble_score(model, x, "qs") == per_vector_sum(model, x, "qs")
                calls += 1
                assert len(stack_builds) == calls
                assert models[0]._stack.trees == tuple(m.tree for m in model)

    def test_fresh_bundles_stack_on_every_call(self, stack_builds):
        trees = word_ensemble()
        for calls, x in enumerate(random_instances(4, 4, 11), 1):
            models = fresh_bundles(trees)
            assert ensemble_score(models, x, "qs") == per_vector_sum(models, x, "qs")
            assert len(stack_builds) == calls

    def test_swapping_one_tree_rekeys_the_bundle(self, stack_builds):
        models = fresh_bundles(word_ensemble())
        x = random_instances(1, 4, 12)[0]
        for _ in range(2):
            stacked = ensemble_score(models, x, "qs")
        assert len(stack_builds) == 1
        first = models[0]._stack
        swapped = list(models)
        swapped[4] = TreeMatrices.build(constant_tree(1e6, 4))
        expected = per_vector_sum(swapped, x, "qs")
        assert expected != stacked
        for _ in range(2):
            assert ensemble_score(swapped, x, "qs") == expected
        model = models[0]._stack
        assert model.trees == tuple(m.tree for m in swapped)
        assert model is not first and model.num_leaves == sum(m.num_leaves for m in swapped)
        assert len(stack_builds) == 2
        # The stack went with the old key: the first list is stacked again.
        assert ensemble_score(models, x, "qs") == stacked
        assert len(stack_builds) == 3
        assert models[0]._stack.trees == tuple(m.tree for m in models)

    def test_cache_does_not_outlive_its_trees(self):
        # Freed by reference counting when the trees and bundles go: no cycle.
        trees = word_ensemble()
        models = fresh_bundles(trees)
        ensemble_score(models, np.zeros(4), "qs")
        stacked = weakref.ref(models[0]._stack)
        gc.disable()
        try:
            del trees, models
            assert stacked() is None
        finally:
            gc.enable()

    def test_soft_attention_leaves_the_stack_alone(self, stack_builds, monkeypatch):
        # soft_attention reads its bundle's own boundary table, so calls on
        # the lead bundle between ensemble_score calls neither read nor
        # replace the stack: the model is stacked once, and the bundle's
        # table is built once.
        tables = []
        real = traversal._Boundaries.build
        monkeypatch.setattr(traversal._Boundaries, "build", lambda *args: tables.append(1) or real(*args))
        models = fresh_bundles(generate_random_tree(4, 4, seed) for seed in range(3))
        lead = models[0]
        for x in random_instances(8, 4, 13):
            s = signed_test_vector(compute_test_vector(lead.tree, x))
            assert ensemble_score(models, x, "qs") == per_vector_sum(models, x, "qs")
            stacked = lead._stack
            assert soft_attention(lead, s).argmax_leaf == sign_traverse(lead, s).leaf_index
            assert lead._stack is stacked
        assert len(stack_builds) == 1
        assert len(tables) == 1  # the stack fits words: qs reads no table
        alone = TreeMatrices.build(lead.tree)
        soft_attention(alone, s)
        assert len(stack_builds) == 1 and alone._stack is None

    def test_no_per_vector_selector_runs_once_stacked(self, monkeypatch):
        # Stacked on the first, cold call: no call of any name tests a tree
        # on its own or builds a tree's column masks.
        models, X = self.models_and_rows("span")
        expected = {name: [per_vector_sum(models, x, name) for x in X] for name in ARITHMETIC}
        models = fresh_bundles(m.tree for m in models)

        def refuse(tree, x):
            raise AssertionError("a per-vector selector ran")

        monkeypatch.setattr(traversal, "_false_nodes", refuse)
        for name in ARITHMETIC:
            assert [ensemble_score(models, x, name) for x in X] == expected[name], name
        assert all("right_col_masks" not in vars(m) for m in models)

    def test_shape_errors_keep_their_type_and_message(self, six_leaf_tree, stack_builds):
        narrow = generate_random_tree(3, 4, 1)
        # The last entry is the build count after each of two calls: a model
        # is stacked on the first and kept, trees that disagree on
        # feature_dim fail to stack on every call.
        cases = [
            ([six_leaf_tree], np.zeros(4), "(4,), expected (5,)", (1, 1)),
            ([six_leaf_tree], np.zeros((1, 5)), "(1, 5), expected (5,)", (1, 1)),
            # Trees that disagree on feature_dim: the first tree x misfits.
            ([six_leaf_tree, narrow], np.zeros(5), "(5,), expected (4,)", (1, 2)),
            ([six_leaf_tree, narrow], np.zeros(4), "(4,), expected (5,)", (1, 2)),
            ([narrow, six_leaf_tree], np.zeros(4), "(4,), expected (5,)", (1, 2)),
        ]
        for trees, x, message, counts in cases:
            for name in ARITHMETIC:
                models = fresh_bundles(trees)
                for builds in counts:
                    with pytest.raises(DimensionMismatchError, match=re.escape(f"feature vector has shape {message}")):
                        ensemble_score(models, x, name)
                    assert len(stack_builds) == builds
                stack_builds.clear()

    def test_malformed_trees_raise_the_malformed_error(self):
        missing = BinaryDecisionTree(Internal(Predicate.one_hot(0, 0.5, 2), Leaf(0.0), None), 2)
        trees = [generate_random_tree(3, 2, 1), missing]
        for name in ALGORITHMS:
            models = fresh_bundles(trees)
            for _ in range(2):
                with pytest.raises(ValueError, match=r"tree is malformed: .*; run validate\(\)"):
                    ensemble_score(models, np.zeros(2), name)
            assert models[0]._stack is None


class TestRegistry:
    def test_all_names_present(self):
        assert sorted(ALGORITHMS) == [
            "delta",
            "dual",
            "dualmatrix",
            "ecoc",
            "matrix",
            "naive",
            "qs",
            "sign",
        ]

    @settings(max_examples=40, deadline=None)
    @given(args=tree_and_inputs)
    def test_every_entry_agrees_with_oracle(self, args):
        tree, mats, x = build_random_case(*args)
        expected = naive_traverse(tree, x)
        for name, fn in ALGORITHMS.items():
            result = fn(mats, x)
            assert result.leaf_index == expected, name
            assert result.leaf_value == tree.leaf_values[expected - 1]


def instances_with_ties(trees, count, seed):
    """Random instances where every other row puts one node's feature exactly
    on its threshold, a tie that must count as a false test."""
    X = random_instances(count, trees[0].feature_dim, seed)
    nodes = [n.predicate for t in trees for n in t.internal_nodes]
    for i in range(0, count, 2):
        predicate = nodes[i % len(nodes)]
        X[i, int(np.argmax(predicate.weights))] = predicate.threshold
    return X


def left_fold(row):
    """Left to right from 0, as sum() adds floats up to Python 3.11; 3.12
    compensates its float sums."""
    total = 0
    for value in row:
        total += value
    return total


class TestBatchScore:
    # Rows per chunk; None keeps the default chunk rule.
    ROWS_PER_CHUNK = (1, 3, None)

    @settings(max_examples=40, deadline=None)
    @given(args=tree_and_inputs, count=st.integers(1, 5), wide=st.sampled_from([0, 63, 64, 65]))
    def test_matches_oracle_per_pair_and_sums_in_model_order(self, args, count, wide):
        depth, tree_seed, x_seed = args
        seeds = np.random.default_rng(tree_seed).integers(0, 2**31, size=count)
        trees = [generate_random_tree(depth, 4, int(seed)) for seed in seeds]
        if wide:
            # 63 and 64 leaves fill a word to its last bits; 65 leaves sends
            # the whole model to the span form.
            trees.insert(tree_seed % (count + 1), tree_with_leaves(wide, 4, tree_seed))
        count = len(trees)
        model = StackedTrees.build(trees)
        assert model.fits_words == all(t.num_leaves <= 64 for t in trees)
        for step in self.ROWS_PER_CHUNK:
            self.check_against_oracle(trees, model, step, x_seed)

    @staticmethod
    def check_against_oracle(trees, model, step, x_seed):
        count = len(trees)
        with pytest.MonkeyPatch.context() as mp:
            if step is None:
                step = max(1, traversal.CHUNK_ENTRIES // (model.num_leaves + 1))
                sizes = (0, 1, 7)
            else:
                mp.setattr(traversal, "CHUNK_ENTRIES", step * (model.num_leaves + 1))
                sizes = (0, 1, step + 1)
            for n in sizes:
                X = instances_with_ties(trees, n, x_seed)
                oracle = np.asarray(
                    [[naive_traverse(t, x) for t in trees] for x in X], dtype=np.int64
                ).reshape(n, count)
                for name in ARITHMETIC:
                    chunks = list(batch_score(model, X, name))
                    # A walked block is one chunk: qs alone reads no test matrix.
                    walked = traversal._TABLE[name].walk and traversal._walks(model, n)
                    assert len(chunks) == (min(n, 1) if walked else math.ceil(n / step)), name
                    leaves = np.vstack([np.zeros((0, count), np.int64)] + [c[0] for c in chunks])
                    values = np.vstack([np.zeros((0, count))] + [c[1] for c in chunks])
                    np.testing.assert_array_equal(leaves, oracle, err_msg=name)
                    expected = [
                        [float(t.leaf_values[leaf - 1]) for t, leaf in zip(trees, row)]
                        for row in oracle.tolist()
                    ]
                    np.testing.assert_array_equal(values, np.reshape(expected, (n, count)))
                    for row, total in zip(expected, sum_in_model_order(values).tolist()):
                        assert total.hex() == left_fold(row).hex(), name
                if count == 1:
                    mats = TreeMatrices.build(trees[0])
                    probs = list(batch_soft_attention(model, X))
                    got = np.vstack([np.zeros((0, model.num_leaves))] + probs)
                    for x, row in zip(X, got):
                        s = signed_test_vector(compute_test_vector(trees[0], x))
                        np.testing.assert_array_equal(row, soft_attention(mats, s).probs)

    def test_sum_in_model_order_folds_from_zero(self):
        rows = [
            [-0.0, -0.0, -0.0],  # 0.0, as the fold starts from 0.0
            [1e16, 1.0, -1e16],  # 0.0, not the compensated 1.0
            [-0.0, 1.0, -1.0],
            [0.1, 0.2, 0.3],
            [-1e308, -1e308, 1e308],
            [1e16] + [1.0] * 15,  # 1e16: each 1.0 is lost, not summed apart first
        ]
        with np.errstate(over="ignore"):
            totals = [sum_in_model_order(np.array([row]))[0] for row in rows]
        assert [t.hex() for t in totals] == [left_fold(row).hex() for row in rows]
        assert sum_in_model_order(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]

    def test_word_kernels_run_only_when_every_tree_fits_a_word(self, monkeypatch):
        small, wide = tree_with_leaves(64, 4, 1), tree_with_leaves(65, 4, 2)
        stump = BinaryDecisionTree(Leaf(0.5), 4)  # no node to AND
        kernels = []
        for name in ("_first_bits", "_first_hits"):
            real = getattr(traversal, name)
            monkeypatch.setattr(
                traversal, name, lambda *a, real=real, name=name: kernels.append(name) or real(*a)
            )
        X = random_instances(9, 4, 3)
        cases = [
            ([small, small], True),
            ([small, wide], False),
            ([wide, small], False),
            ([small, stump], False),
        ]
        for trees, fits in cases:
            model = StackedTrees.build(trees)
            assert model.fits_words == fits
            oracle = [[naive_traverse(t, x) for t in trees] for x in X]
            for name in ARITHMETIC:
                kernels.clear()
                leaves = np.vstack([leaves for leaves, _ in batch_score(model, X, name)])
                np.testing.assert_array_equal(leaves, oracle, err_msg=name)
                words = fits and name in ("qs", "dual")
                assert set(kernels) == {"_first_bits" if words else "_first_hits"}, name

    def test_word_kernels_raise_on_corrupt_words(self, six_leaf_tree):
        # Every node false: qs and dual AND every right word, exiting at leaf 6.
        X = instance_for_tests(six_leaf_tree, [0, 0, 0, 0, 0])[None, :]

        def corrupt(node, word):
            model = StackedTrees.build([six_leaf_tree])
            words = model.right_words.copy()
            words[node] = word
            vars(model)["right_words"] = words
            return model

        empty, two = corrupt(0, 0), corrupt(4, 0b111111)  # node 4 splits leaves 5 and 6
        for name in ("qs", "dual"):
            with pytest.raises(ValueError, match=f"{name} traversal found 0 exit leaves in tree 0"):
                list(batch_score(empty, X, name))
        with pytest.raises(ValueError, match="dual traversal found 2 exit leaves in tree 0"):
            list(batch_score(two, X, "dual"))
        [(leaves, _)] = batch_score(two, X, "qs")
        assert leaves.tolist() == [[5]]

    def test_signed_forms_raise_without_a_consensus_leaf(self, six_leaf_tree):
        model = StackedTrees.build([six_leaf_tree])
        corrupt = dataclasses.replace(model, leaf_depths=model.leaf_depths + 1)
        X = random_instances(4, 5, 2)
        for name in ("sign", "ecoc", "delta"):
            with pytest.raises(ValueError, match="found 0 exit leaves"):
                list(batch_score(corrupt, X, name))

    def test_dual_forms_raise_on_two_hits(self, six_leaf_tree):
        # Node 1 splits leaves 1 and 2; with its span emptied nothing tells
        # them apart, so an instance bound for leaf 1 hits both: on dual's
        # words, and on the signed rule that dualmatrix runs once their
        # depths also lose node 1's term.
        model = StackedTrees.build([six_leaf_tree])
        corrupt = two_hit_model(model)
        X = instance_for_tests(six_leaf_tree, [1, 1, 0, 0, 0])[None, :]
        for name in ("dual", "dualmatrix"):
            with pytest.raises(ValueError, match="found 2 exit leaves"):
                list(batch_score(corrupt, X, name))
        [(leaves, _)] = batch_score(corrupt, X, "qs")
        assert leaves.tolist() == [[1]]

    def test_naive_batch_is_the_per_pair_descent_and_unknown_names_raise(self, monkeypatch):
        # Chunks of 7 rows, on trees of different sizes.
        trees = [generate_random_tree(d, 4, s) for d, s in ((3, 1), (6, 2), (1, 3))]
        model = StackedTrees.build(trees)
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 7 * (model.num_leaves + 1))
        X = random_instances(40, 4, 5)
        expected = np.array([[naive_traverse(t, x) for t in trees] for x in X])
        values = np.array([[t.leaf_values[leaf - 1] for t, leaf in zip(trees, row)] for row in expected])
        leaves, got = map(np.concatenate, zip(*batch_score(model, X, "naive")))
        np.testing.assert_array_equal(leaves, expected)
        assert got.tobytes() == values.tobytes()
        both = np.concatenate(list(batch_leaves(model, X, ["naive", "qs"])))
        np.testing.assert_array_equal(both, np.stack([expected, expected], axis=2))
        message = re.escape(f"unknown algorithm 'fastest'; choose from {sorted(ALGORITHMS)}")
        with pytest.raises(ValueError, match=message):
            list(batch_score(model, X, "fastest"))
        with pytest.raises(ValueError, match=message):
            list(batch_leaves(model, X, ["naive", "fastest"]))
        with pytest.raises(ValueError, match=message):
            ensemble_score([TreeMatrices.build(t) for t in trees], X[0], "fastest")

    def test_dimension_mismatch_raises_even_without_rows(self, six_leaf_tree):
        model = StackedTrees.build([six_leaf_tree])
        with pytest.raises(DimensionMismatchError):
            list(batch_score(model, np.zeros((0, 4)), "qs"))


def counting_first_hits(hits, model, unique, algorithm):
    """The selection by per-tree counts and minima, for every model."""
    starts = model.leaf_starts
    counts = np.add.reduceat(hits, starts, axis=1, dtype=np.int64)
    bad = counts != 1 if unique else counts == 0
    if bad.any():
        row, tree = np.argwhere(bad)[0]
        raise traversal._exit_error(algorithm, counts[row, tree], tree)
    width = hits.shape[1]
    return np.minimum.reduceat(np.where(hits, np.arange(width), width), starts, axis=1)


def sized_model(sizes, dim=3):
    """A stacked model whose trees have these leaf counts."""
    return StackedTrees.build([tree_with_leaves(n, dim, i) for i, n in enumerate(sizes)])


def selection_outcome(select, hits, model, unique):
    try:
        return select(hits, model, unique, "rule").tolist()
    except ValueError as exc:
        return str(exc)


class TestFirstHits:
    """``_first_hits`` selects one tree by ``argmax`` and several by counts;
    both give the counting selection's positions and errors."""

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        rows=st.integers(1, 6),
        unique=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_the_counting_selection(self, sizes, rows, unique, seed):
        model = sized_model(sizes)
        rng = np.random.default_rng(seed)
        hits = np.zeros((rows, model.num_leaves), dtype=bool)
        # Mostly one hit per tree and row, sometimes none or several.
        for row in range(rows):
            for start, size in zip(model.leaf_starts.tolist(), sizes):
                count = min(size, int(rng.choice([1, 1, 1, 1, 1, 1, 0, 2, 3])))
                hits[row, start + rng.choice(size, count, replace=False)] = True
        got = selection_outcome(traversal._first_hits, hits, model, unique)
        assert got == selection_outcome(counting_first_hits, hits, model, unique)

    @pytest.mark.parametrize("sizes", [[300], [4, 7, 300]])
    def test_only_hit_in_the_last_column(self, sizes):
        model = sized_model(sizes)
        hits = np.zeros((3, model.num_leaves), dtype=bool)
        hits[:, model.leaf_starts] = True
        hits[:, model.leaf_starts[-1]] = False
        hits[:, -1] = True
        for unique in (False, True):
            got = traversal._first_hits(hits, model, unique, "rule")
            assert got[:, -1].tolist() == [model.num_leaves - 1] * 3

    def test_first_bad_row_raises_its_count(self):
        # Rows 0-2 exit at leaves 4, 8 and 300; row 3 has no hit and row 4 two.
        model = sized_model([300])
        hits = np.zeros((5, 300), dtype=bool)
        hits[[0, 1, 2], [3, 7, 299]] = True
        hits[4, [10, 20]] = True
        for unique in (False, True):
            with pytest.raises(ValueError, match=r"^rule traversal found 0 exit leaves in tree 0;"):
                traversal._first_hits(hits, model, unique, "rule")
            assert traversal._first_hits(hits[:3], model, unique, "rule").tolist() == [[3], [7], [299]]

    def test_two_hits_raise_only_if_unique(self):
        model = sized_model([300])
        hits = np.zeros((2, 300), dtype=bool)
        hits[0, 5] = True
        hits[1, [40, 41]] = True
        assert traversal._first_hits(hits, model, False, "rule").tolist() == [[5], [40]]
        with pytest.raises(ValueError, match="^dual traversal found 2 exit leaves in tree 0;"):
            traversal._first_hits(hits, model, True, "dual")

    def test_one_leaf_tree(self):
        model = sized_model([1])
        hits = np.ones((4, 1), dtype=bool)
        for unique in (False, True):
            assert traversal._first_hits(hits, model, unique, "rule").tolist() == [[0]] * 4
            hits[2] = False
            with pytest.raises(ValueError, match="found 0 exit leaves in tree 0"):
                traversal._first_hits(hits, model, unique, "rule")
            hits[2] = True


def full_tree(depth, dim, rng):
    """A full tree of 2**depth leaves with random one-hot splits."""

    def make(level):
        if level == depth:
            return Leaf(float(rng.uniform()))
        predicate = Predicate.one_hot(int(rng.integers(dim)), float(rng.uniform()), dim)
        return Internal(predicate, make(level + 1), make(level + 1))

    return BinaryDecisionTree(make(0), dim)


def chain(length, dim, rng):
    """A chain of ``length`` nodes, each continuing on a random side."""
    node = Leaf(float(rng.uniform()))
    for _ in range(length):
        predicate = Predicate.one_hot(int(rng.integers(dim)), float(rng.uniform()), dim)
        leaf = Leaf(float(rng.uniform()))
        node = Internal(predicate, node, leaf) if rng.random() < 0.5 else Internal(predicate, leaf, node)
    return BinaryDecisionTree(node, dim)


def cover_model(seed, kinds, lone, wide, dim=3):
    """Trees of the given kinds ("full", "unbalanced", "chain"), with a lone
    leaf inserted at position ``lone`` (None for none) and, if ``wide``, a
    tree of 65 to 130 leaves, which sends ``qs`` to the span form."""
    rng = np.random.default_rng(seed)
    makers = {
        "full": lambda: full_tree(int(rng.integers(1, 5)), dim, rng),
        "unbalanced": lambda: tree_with_leaves(int(rng.integers(2, 40)), dim, int(rng.integers(2**31))),
        "chain": lambda: chain(int(rng.integers(1, 30)), dim, rng),
    }
    trees = [makers[kind]() for kind in kinds]
    if wide:
        trees.insert(int(rng.integers(len(trees) + 1)), tree_with_leaves(int(rng.integers(65, 131)), dim, seed))
    if lone is not None:
        trees.insert(min(lone, len(trees)), BinaryDecisionTree(Leaf(float(rng.uniform())), dim))
    return trees


class TestRightCover:
    """``_right_hits`` picks leaves by interval coverage; it must equal the
    dense rule, right @ t = sum(t) tree by tree, on every tree shape."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(["full", "unbalanced", "chain"]), min_size=1, max_size=4),
        lone=st.sampled_from([None, 0, 1, 99]),  # none, first, second, last
        wide=st.booleans(),
    )
    def test_equals_the_dense_rule_and_the_oracle(self, seed, kinds, lone, wide):
        trees = cover_model(seed, kinds, lone, wide)
        model = StackedTrees.build(trees)
        X = parsed_rows(trees, 6, seed)
        assert model.fits_words == all(2 <= t.num_leaves <= 64 for t in trees)
        for rows in (X[:1], X[-1:], X):
            t = model.split_tests.false_nodes(rows)
            hits = traversal._right_hits(model, t)
            assert hits.shape == (len(rows), model.num_leaves)
            for k, tree in enumerate(trees):
                nodes = t[:, model.node_starts[k] : model.node_starts[k] + tree.num_internal].astype(np.int64)
                dense = nodes @ TreeMatrices.build(tree).right_int.T == nodes.sum(axis=1, keepdims=True)
                leaves = slice(model.leaf_starts[k], model.leaf_starts[k] + tree.num_leaves)
                np.testing.assert_array_equal(hits[:, leaves], dense, err_msg=f"tree {k}")
        oracle = [[naive_traverse(tree, x) for tree in trees] for x in X]
        for step in (1, 4, None):  # rows per chunk; None keeps the default rule
            with pytest.MonkeyPatch.context() as mp:
                if step is not None:
                    mp.setattr(traversal, "CHUNK_ENTRIES", step * (model.num_leaves + 1))
                for name in ("qs", "matrix"):
                    leaves = np.vstack([leaves for leaves, _ in batch_score(model, X, name)])
                    np.testing.assert_array_equal(leaves, oracle, err_msg=f"{name}, {step} rows")

    @pytest.mark.parametrize(
        "node, span",
        [
            (0, (0, 6, 6)),  # the root's left interval stretched over all six leaves
            (4, (4, 6, 6)),  # node 4's reaches leaf 6, the only leaf the others leave
        ],
    )
    def test_spans_covering_every_leaf_leave_no_exit(self, six_leaf_tree, node, span):
        # A lone leaf second keeps qs off the word kernels.
        stump = BinaryDecisionTree(Leaf(0.5), 5)
        model = StackedTrees.build([six_leaf_tree, stump])
        assert not model.fits_words
        spans = model.spans.copy()
        spans[node] = span
        corrupt = dataclasses.replace(model, spans=spans)
        X = instance_for_tests(six_leaf_tree, [0, 0, 0, 0, 0])[None, :]  # every node false
        [(leaves, _)] = batch_score(model, X, "qs")
        assert leaves.tolist() == [[6, 1]]
        for name in ("qs", "matrix"):
            with pytest.raises(ValueError, match=f"{name} traversal found 0 exit leaves in tree 0"):
                list(batch_score(corrupt, X, name))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(["full", "unbalanced", "chain"]), min_size=1, max_size=4),
        lone=st.sampled_from([0, 99]),  # first, last
        wide=st.booleans(),
    )
    def test_table_lists_each_lo_in_a_stable_order(self, seed, kinds, lone, wide):
        # The right rule reads the lo entries of the one boundary table: in
        # the table's order they must be a stable argsort of lo.
        model = StackedTrees.build(cover_model(seed, kinds, lone, wide))
        self.assert_cover(model.boundaries, model.spans, model.num_leaves)

    @pytest.mark.parametrize("num_leaves", [2**16 - 1, 2**16])  # uint16 and int64 keys
    def test_table_order_is_stable_on_either_key(self, num_leaves):
        # Spans with many equal lo, near the top of the leaf range.
        rng = np.random.default_rng(num_leaves)
        lo = num_leaves - 1 - rng.integers(0, 50, 3000)
        mid = np.minimum(lo + 1 + rng.integers(0, 3, 3000), num_leaves)
        hi = np.minimum(mid + rng.integers(0, 3, 3000), num_leaves)
        spans = np.stack([lo, mid, hi], axis=1)
        self.assert_cover(traversal._Boundaries.build(spans, num_leaves), spans, num_leaves)

    @staticmethod
    def assert_cover(table, spans, num_leaves):
        lo, mid = spans[:, 0], spans[:, 1]
        order = np.argsort(lo, kind="stable")
        np.testing.assert_array_equal(table.cover_nodes, order)
        assert table.cover_ends.dtype == table.leaves.dtype == np.int32
        np.testing.assert_array_equal(table.cover_ends, mid[order])
        np.testing.assert_array_equal(table.cover_last, np.searchsorted(lo[order], np.arange(num_leaves), "right"))
        np.testing.assert_array_equal(table.leaves, np.arange(num_leaves))

    def test_cover_refuses_2_to_the_31_leaves_before_allocating(self, monkeypatch):
        # With numpy out of reach, any allocation fails with AttributeError:
        # the bound must be checked first, and one leaf fewer passes it.
        monkeypatch.setattr(traversal, "np", None)
        spans = np.zeros((0, 3), np.int64)
        with pytest.raises(ValueError, match=r"fewer than 2\*\*31 leaves"):
            traversal._Boundaries.build(spans, 2**31)
        with pytest.raises(AttributeError):
            traversal._Boundaries.build(spans, 2**31 - 1)


def ordered_chain(length, left, dim=3):
    """A chain of ``length`` nodes on feature 0 that continues on its left
    (true) side, thresholds rising with depth, or on its right (false)
    side, thresholds falling: a row whose feature 0 is u leaves the chain
    at about depth u * length, and NaN and ±inf rows reach either end."""
    node = Leaf(-1.0)
    for d in reversed(range(length)):
        threshold = d / length if left else 1.0 - d / length
        predicate, leaf = Predicate.one_hot(0, threshold, dim), Leaf(float(d))
        node = Internal(predicate, node, leaf) if left else Internal(predicate, leaf, node)
    return BinaryDecisionTree(node, dim)


def chain_rows(trees, count, seed):
    """``parsed_rows`` plus rows whose feature 0 spreads over [0, 1], lands
    on an ordered chain's thresholds, or is NaN or ±inf."""
    rng = np.random.default_rng(seed)
    spread = rng.uniform(size=(count, 3))
    spread[::3, 0] = rng.integers(0, 300, len(spread[::3])) / 300  # threshold ties
    ends = np.array([[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [-np.inf, 0.5, 0.5]])
    return np.vstack([parsed_rows(trees, count, seed), spread, ends])


class TestCoverWalk:
    """``qs`` past 64 leaves descends each exit path down the stacked child
    table (``_child_descent``) on blocks of enough rows; it must pick the
    dense rule's leaf, ``matrix_traverse``'s, tree by tree."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(["full", "unbalanced", "chain"]), max_size=3),
        chains=st.lists(st.tuples(st.integers(200, 300), st.booleans()), max_size=2),
        lone=st.sampled_from([None, 0, 99]),  # none, first, last
        wide=st.booleans(),
    )
    def test_equals_the_dense_rule_and_the_oracle(self, seed, kinds, chains, lone, wide):
        # Hostile trees bring dense nodes, thresholds of ±1e308 and ties,
        # and their rows NaN, ±inf and ±1e308 cells.
        hostile, hostile_rows = hostile_case(seed, 2, 5, 3)
        trees = cover_model(seed, kinds, None, wide) + hostile
        trees += [ordered_chain(length, left) for length, left in chains] or [ordered_chain(250, True)]
        if lone is not None:
            trees.insert(min(lone, len(trees)), BinaryDecisionTree(Leaf(0.5), 3))
        model = StackedTrees.build(trees)
        X = np.vstack([chain_rows(trees, 8, seed), hostile_rows])
        exits = traversal._child_descent(model, X)
        assert exits.shape == (len(X), len(trees))
        leaves = exits - model.leaf_starts + 1
        for k, tree in enumerate(trees):
            mats = TreeMatrices.build(tree)
            dense = [matrix_traverse(mats, compute_test_vector(tree, x)).leaf_index for x in X]
            np.testing.assert_array_equal(leaves[:, k], dense, err_msg=f"tree {k}")
            np.testing.assert_array_equal(leaves[:, k], [naive_traverse(tree, x) for x in X], err_msg=f"tree {k}")

    def test_walks_each_level_of_a_chain_once(self):
        # The left chain's deepest leaf is its first, the right chain's its
        # last; a row bound for either takes 300 steps.  At 0.5 the left
        # chain ties node 150 and leaves it right, and the right chain
        # passes node 151's threshold and leaves it left.
        model = StackedTrees.build([ordered_chain(300, True), ordered_chain(300, False)])
        X = np.array([[np.inf, 0, 0], [-np.inf, 0, 0], [np.nan, 0, 0], [0.5, 0, 0]])
        np.testing.assert_array_equal(
            traversal._child_descent(model, X) - model.leaf_starts + 1, [[1, 1], [301, 301], [301, 301], [151, 152]]
        )

    @staticmethod
    def counted(monkeypatch):
        """Count ``qs``'s walks and every ``_right_hits`` call by rule."""
        calls = {"walk": 0, "right": 0}

        def counter(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(traversal, "_child_descent", counter(traversal._child_descent, "walk"))
        right = counter(traversal._right_hits, "right")
        for name in ("qs", "matrix"):
            monkeypatch.setitem(traversal._TABLE, name, dataclasses.replace(traversal._TABLE[name], hits=right))
        return calls

    def test_one_row_covers_and_compare_walks_once_per_call(self, monkeypatch, tmp_path, capsys):
        tree = full_tree(9, 3, np.random.default_rng(4))
        model = StackedTrees.build([tree])
        X = random_instances(40, 3, 5)
        calls = self.counted(monkeypatch)
        # One row: the (rows x leaves) cover, never the walk.
        mats = TreeMatrices.build(tree)
        assert ensemble_score([mats], X[0], "qs") == tree.leaf_values[naive_traverse(tree, X[0]) - 1]
        [(leaves, _)] = batch_score(model, X[:1], "qs")
        assert leaves.tolist() == [[naive_traverse(tree, X[0])]]
        assert calls == {"walk": 0, "right": 2}
        # 40 rows walk, once, and come out as one chunk, not 14 of 3 rows.
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 3 * (model.num_leaves + 1))
        chunks = list(batch_score(model, X, "qs"))
        assert [len(leaves) for leaves, _ in chunks] == [40]
        assert calls == {"walk": 1, "right": 2}
        path, data = tmp_path / "m.json", tmp_path / "d.csv"
        path.write_text(serialize_ensemble([tree]))
        np.savetxt(data, X, delimiter=",")
        assert invoke_main(["compare", path, data], capsys) == (0, "all algorithms agree on 40 instances x 1 trees\n", "")
        # compare walks once; matrix still covers, once per chunk.
        assert calls == {"walk": 2, "right": 2 + 14}

    def test_a_model_that_fits_words_never_walks(self, monkeypatch):
        trees = shared_path_models()["word"]
        model = StackedTrees.build(trees)
        X = parsed_rows(trees, 200, 1)
        calls = self.counted(monkeypatch)
        assert traversal._walks(model, len(X)) is False
        list(batch_leaves(model, X, ARITHMETIC))
        assert calls["walk"] == 0

    @pytest.mark.parametrize("rows, walks", [(35, False), (36, True)])
    def test_walks_from_one_chunk_per_16_levels(self, rows, walks):
        # 512 leaves of depth 9: 36 * 513 >= 2048 * 9 > 35 * 513.
        model = StackedTrees.build([full_tree(9, 3, np.random.default_rng(1))])
        assert traversal._walks(model, rows) is walks

    def corrupt_models(self):
        """A full 128-leaf tree whose root's false (right) child is the root:
        a false root would send the walk back to the root for ever.  Then
        that tree before another with the root's false child on the second
        tree's second leaf: a false root settles there, in the wrong tree.
        Only the stacked child table is corrupt, not the trees, which the
        oracle descends with no step bound."""
        first, second = (full_tree(7, 3, np.random.default_rng(seed)) for seed in (1, 2))
        models = []
        for trees, child in (([first], 0), ([first, second], ~(first.num_leaves + 1))):
            model = StackedTrees.build(trees)
            children, roots = model.children
            children = children.copy()
            children[0, 1] = child
            corrupt = dataclasses.replace(model)
            vars(corrupt)["children"] = children, roots
            models.append(corrupt)
        root = first.split_tests
        X = random_instances(120, 3, 2)
        X[:, root.gather[0]] = np.where(np.arange(120) < 20, root.thresholds[0] + 1, root.thresholds[0])
        return models, X  # rows 20 on: the root is false

    def test_a_corrupt_model_stops_after_max_depth_steps(self):
        models, X = self.corrupt_models()
        for corrupt in models:
            exits = traversal._child_descent(corrupt, X)
            assert (exits[:20, 0] >= 0).all() and (exits[20:, 0] == -1).all()
            assert traversal._walks(corrupt, len(X))
            with pytest.raises(ValueError, match="qs traversal found 0 exit leaves in tree 0"):
                list(batch_score(corrupt, X, "qs"))
            # Walked blocks before the first bad row still come out.
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(traversal, "CHUNK_ENTRIES", 10 * (corrupt.num_leaves + 1))
                mp.setattr(traversal, "WALK_PAIRS", 10 * len(corrupt.leaf_starts))
                chunks = batch_score(corrupt, X, "qs")
                assert len(next(chunks)[0]) == len(next(chunks)[0]) == 10
                with pytest.raises(ValueError, match="qs traversal found 0 exit leaves in tree 0"):
                    next(chunks)

    def test_compare_exits_one_naming_qs(self, monkeypatch, tmp_path, capsys):
        models, X = self.corrupt_models()
        path, data = tmp_path / "m.json", tmp_path / "d.csv"
        np.savetxt(data, X, delimiter=",")
        for corrupt in models:
            path.write_text(serialize_ensemble(list(corrupt.trees)))
            monkeypatch.setattr(cli, "_load_model", lambda _path: corrupt)
            assert invoke_main(["compare", path, data], capsys) == (
                1, "", "treeflat: qs traversal found 0 exit leaves in tree 0; corrupt model?\n"
            )


def invoke_main(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpanSums:
    """``_span_sums`` over the boundary table must give, tree by tree, the
    dense signed rule, P s = d, which is also the dense dual rule,
    right @ t + left @ (1 - t) = N, and P s itself in the soft chunks, on
    every tree shape."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(["full", "unbalanced", "chain"]), min_size=1, max_size=3),
        lone=st.sampled_from([None, 0, 99]),  # none, first, last
        wide=st.booleans(),
    )
    def test_equals_the_dense_rules_tree_by_tree(self, seed, kinds, lone, wide):
        trees = cover_model(seed, kinds, lone, wide)
        model = StackedTrees.build(trees)
        X = parsed_rows(trees, 6, seed)
        for rows in (X[:1], X):
            t = model.split_tests.false_nodes(rows)
            signed = traversal._signed_hits(model, t)
            assert signed.shape == (len(rows), model.num_leaves)
            assert signed.dtype == bool and signed.flags.c_contiguous
            for k, tree in enumerate(trees):
                mats = TreeMatrices.build(tree)
                nodes = t[:, model.node_starts[k] : model.node_starts[k] + tree.num_internal].astype(np.int64)
                ps = (2 * nodes - 1) @ mats.signed.T
                leaves = slice(model.leaf_starts[k], model.leaf_starts[k] + tree.num_leaves)
                np.testing.assert_array_equal(signed[:, leaves], ps == mats.depths, err_msg=f"tree {k}")
                chunks = traversal._soft_chunks(StackedTrees.build([tree]), rows)
                np.testing.assert_array_equal(np.vstack([got for got, _ in chunks]), ps, err_msg=f"tree {k}")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(["full", "unbalanced", "chain"]), min_size=1, max_size=3),
        lone=st.sampled_from([None, 0, 99]),  # none, first, last
        wide=st.booleans(),
        rows=st.integers(1, 4),
    )
    def test_the_dual_rule_is_the_signed_rule(self, seed, kinds, lone, wide, rows):
        # For every t, not only one an instance gives, each leaf's votes are
        # right @ t + left @ (1 - t) = N - (d - P s) / 2 with s = 2t - 1, so
        # the signed rule's hits, P s = d, are the dual rule's, votes = N.
        trees = cover_model(seed, kinds, lone, wide)
        model = StackedTrees.build(trees)
        t = np.random.default_rng(seed).random((rows, len(model.spans))) < 0.5
        signed = traversal._signed_hits(model, t)
        for k, tree in enumerate(trees):
            mats = TreeMatrices.build(tree)
            nodes = t[:, model.node_starts[k] : model.node_starts[k] + tree.num_internal].astype(np.int64)
            votes = nodes @ mats.right_int.T + (1 - nodes) @ mats.left_int.T
            ps = (2 * nodes - 1) @ mats.signed.T
            np.testing.assert_array_equal(2 * (tree.num_internal - votes), mats.depths - ps, err_msg=f"tree {k}")
            leaves = slice(model.leaf_starts[k], model.leaf_starts[k] + tree.num_leaves)
            np.testing.assert_array_equal(signed[:, leaves], votes == tree.num_internal, err_msg=f"tree {k}")

    def test_one_table_serves_every_span_rule(self, monkeypatch):
        # compare's rules on a model past the word kernels, over several
        # chunks: the right and signed hits both read one table, which
        # sorts the model's boundaries once.
        tables, sorts = [], []
        real_build, real_sort = traversal._Boundaries.build, np.argsort
        monkeypatch.setattr(traversal._Boundaries, "build", lambda *args: tables.append(1) or real_build(*args))
        monkeypatch.setattr(np, "argsort", lambda *args, **kw: sorts.append(1) or real_sort(*args, **kw))
        trees = [tree_with_leaves(100, 3, 7), generate_random_tree(3, 3, 1)]
        model = StackedTrees.build(trees)
        X = parsed_rows(trees, 12, 5)
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 5 * (model.num_leaves + 1))
        leaves = np.vstack(list(batch_leaves(model, X, list(ALGORITHMS))))
        assert (leaves == leaves[:, :, :1]).all()
        assert len(tables) == len(sorts) == 1

    def test_per_vector_soft_attention_sums_a_deep_chain_in_int64(self):
        # Every node false: the last leaf's P s is 300, past int8.
        mats = TreeMatrices.build(chain_tree(300))
        s = np.ones(300, dtype=np.int64)
        dist = soft_attention(mats, s)
        ps = traversal._signed_scores(mats.boundaries, s[None, :])
        assert ps.dtype == np.int64 and ps[-1, 0] == 300
        np.testing.assert_array_equal(ps[:, 0], mats.signed @ s)
        scores = (mats.signed @ s) / mats.depths
        shifted = np.exp(scores - scores.max())
        np.testing.assert_array_equal(dist.probs, shifted / shifted.sum())
        assert dist.argmax_leaf == 301

    def test_table_refuses_an_int32_overflow_before_allocating(self, monkeypatch):
        # The int32 sum is exact while twice the entry count, at most three
        # per node, stays below 2**31.  With numpy out of reach, and a span
        # array that has only a length, anything past the bound fails with
        # AttributeError: the bound must be checked first, and one node
        # fewer passes it.
        class Spans:
            def __init__(self, nodes):
                self.nodes = nodes

            def __len__(self):
                return self.nodes

        monkeypatch.setattr(traversal, "np", None)
        limit = (2**31 - 1) // 6
        with pytest.raises(ValueError, match=rf"at most {limit} nodes, not {limit + 1}"):
            traversal._Boundaries.build(Spans(limit + 1), 2)
        with pytest.raises(AttributeError):
            traversal._Boundaries.build(Spans(limit), 2)


def shared_path_models(dim=3):
    """A word model (three trees of at most 64 leaves), a span model (one
    tree of 100 leaves) and a mixed one (the word trees and one tree of 65
    leaves), each parsed as the CLI parses it."""
    small = [tree_with_leaves(n, dim, n) for n in (2, 40, 64)]
    return {
        "word": parse_model(serialize_ensemble(small)),
        "span": parse_model(serialize_ensemble([tree_with_leaves(100, dim, 7)])),
        "mixed": parse_model(serialize_ensemble(small + [tree_with_leaves(65, dim, 9)])),
    }


def parsed_rows(trees, count, seed):
    """``instances_with_ties`` rows, then NaN and ±inf rows parsed from CSV
    text, as the CLI reads them."""
    text = ["nan,0.5,0.5", "inf,-inf,0.5", "-inf,inf,nan", "inf,inf,inf"]
    extra = np.array([list(map(float, line.split(","))) for line in text])
    return np.vstack([instances_with_ties(trees, count, seed), extra])


class TestBatchLeaves:
    def test_every_chunk_equals_batch_score_per_name(self):
        for kind, trees in shared_path_models().items():
            model = StackedTrees.build(trees)
            assert model.fits_words == (kind == "word")
            X = parsed_rows(trees, 7, 3)
            for step in (3, None):  # rows per chunk; None keeps the default rule
                with pytest.MonkeyPatch.context() as mp:
                    if step is not None:
                        mp.setattr(traversal, "CHUNK_ENTRIES", step * (model.num_leaves + 1))
                    for rows in (X[:0], X[-1:], X):
                        self.check_chunks(model, trees, rows, f"{kind}, {step} rows")

    @staticmethod
    def check_chunks(model, trees, rows, where):
        chunks = list(batch_leaves(model, rows, ARITHMETIC))
        for a, name in enumerate(ARITHMETIC):
            alone = list(batch_score(model, rows, name))
            # Alone, qs reads no test matrix, so a walked block is one chunk.
            if traversal._TABLE[name].walk and traversal._walks(model, len(rows)):
                assert len(alone) == 1, (where, name)
                whole = [np.concatenate(chunks)]
            else:
                assert len(alone) == len(chunks), (where, name)
                whole = chunks
            for got, (leaves, _) in zip(whole, alone):
                assert got.shape == (len(leaves), len(trees), len(ARITHMETIC))
                assert got.dtype == leaves.dtype
                np.testing.assert_array_equal(got[:, :, a], leaves, err_msg=f"{where}, {name}")
        oracle = np.reshape([[naive_traverse(t, x) for t in trees] for x in rows], (len(rows), len(trees)))
        got = np.concatenate([np.zeros((0, len(trees), len(ARITHMETIC)), np.int64)] + chunks)
        np.testing.assert_array_equal(got, np.repeat(oracle[:, :, None], len(ARITHMETIC), axis=2))
        # Any subset, in any order, gives the same columns.
        names = ["ecoc", "qs", "matrix"]
        subset = list(batch_leaves(model, rows, names))
        assert len(subset) == len(chunks)
        for got, whole in zip(subset, chunks):
            np.testing.assert_array_equal(got, whole[:, :, [ARITHMETIC.index(n) for n in names]])

    @pytest.mark.parametrize(
        "kind, rules, selections",
        [
            # qs and dual run their word rules, matrix the right rule, and
            # dualmatrix, sign, ecoc and delta the signed rule: dualmatrix,
            # sign and delta share one selection, and ecoc has its own.
            ("word", 4, 5),
            # qs walks its 11 rows, which needs no rule or selection,
            # matrix runs the right rule, and dual shares the signed rule's
            # unique selection.
            ("span", 2, 3),
            ("mixed", 2, 3),
        ],
    )
    def test_each_chunk_tests_and_evaluates_each_rule_once(self, monkeypatch, kind, rules, selections):
        trees = shared_path_models()[kind]
        model = StackedTrees.build(trees)
        X = parsed_rows(trees, 7, 5)
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 4 * (model.num_leaves + 1))
        calls = {}

        def counted(fn, key):
            def wrapper(*args):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args)

            return wrapper

        wrapped = {}  # one wrapper per rule function, so rows that share one still do
        for name in ARITHMETIC:
            row = traversal._TABLE[name]
            for rule in (row.hits, row.words):
                if rule is not None and rule not in wrapped:
                    wrapped[rule] = counted(rule, rule.__name__)
            words = wrapped[row.words] if row.words else None
            monkeypatch.setitem(
                traversal._TABLE, name, dataclasses.replace(row, hits=wrapped[row.hits], words=words)
            )
        for name in ("_first_hits", "_first_bits"):
            monkeypatch.setattr(traversal, name, counted(getattr(traversal, name), "select"))
        tests = trees_module.SplitTests
        monkeypatch.setattr(tests, "false_nodes", counted(tests.false_nodes, "false_nodes"))
        chunks = list(batch_leaves(model, X, ARITHMETIC))
        assert len(chunks) == 3  # 11 rows, 4 per chunk
        ran = {key: count for key, count in calls.items() if key not in ("false_nodes", "select")}
        assert len(ran) == rules
        assert set(ran.values()) == {3}
        assert calls["false_nodes"] == 3
        assert calls["select"] == 3 * selections

    def test_first_failing_name_raises(self, six_leaf_tree):
        # A depth vector one too large leaves the signed rule no hit; an
        # emptied span leaves dual's words and, with the depths it costs,
        # the signed rule two hits for leaves 1 and 2.  The first name on a
        # failing selection raises, also where several names share it.
        model = StackedTrees.build([six_leaf_tree])
        deeper = dataclasses.replace(model, leaf_depths=model.leaf_depths + 1)
        X = instance_for_tests(six_leaf_tree, [1, 1, 0, 0, 0])[None, :]
        cases = [
            (deeper, ARITHMETIC, "dualmatrix traversal found 0"),
            (deeper, ["ecoc", "sign"], "ecoc traversal found 0"),
            (two_hit_model(model), ARITHMETIC, "dual traversal found 2"),
            (two_hit_model(model), ["matrix", "dualmatrix"], "dualmatrix traversal found 2"),
            (two_hit_model(model), ["ecoc", "delta", "dualmatrix"], "delta traversal found 2"),
        ]
        for corrupt, names, message in cases:
            with pytest.raises(ValueError, match=message):
                list(batch_leaves(corrupt, X, names))


def two_hit_model(model):
    """The six-leaf tree's model with node 1's span emptied, so that nothing
    tells leaves 1 and 2 apart, and their depths lowered by the P s term it
    no longer adds: an instance bound for leaf 1 hits both under every
    unique rule."""
    spans, depths = model.spans.copy(), model.leaf_depths.copy()
    spans[1] = 0
    depths[:2] -= 1
    return dataclasses.replace(model, spans=spans, leaf_depths=depths)


def hostile_case(seed, count, depth, dim):
    """Random trees whose splits are one-hot, dense, or one-hot at a
    threshold of ±1e308, and instances that tie one-hot splits (rows 0-3),
    tie dense splits under ``dense_products`` (rows 4-7), hold NaN, ±inf
    and ±1e308 cells (rows 8-11), or are all NaN, all inf or all -inf."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(12, dim))

    def rebuild(node):
        if isinstance(node, Leaf):
            return Leaf(node.value)
        predicate, kind = node.predicate, rng.integers(4)
        if kind == 0:
            weights = rng.uniform(-1.0, 1.0, dim) * (rng.random(dim) < 0.7)
            weights[rng.integers(dim)] = -0.5
            row = X[4 + rng.integers(4)]
            tie = rng.random() < 0.5
            threshold = float(dense_products(weights[None, :], row)[0]) if tie else float(rng.uniform(-1, 1))
            predicate = Predicate(weights, threshold)
        elif kind == 1:
            predicate = Predicate.one_hot(int(np.argmax(predicate.weights)), float(rng.choice([-1e308, 1e308])), dim)
        elif kind == 2:
            X[rng.integers(4), int(np.argmax(predicate.weights))] = predicate.threshold
        return Internal(predicate, rebuild(node.left), rebuild(node.right))

    seeds = rng.integers(0, 2**31, size=count).tolist()
    built = [BinaryDecisionTree(rebuild(generate_random_tree(depth, dim, s).root), dim) for s in seeds]
    cells = rng.random((4, dim)) < 0.5
    X[8:][cells] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=int(cells.sum()))
    X = np.vstack([X, np.full(dim, np.nan), np.full(dim, np.inf), np.full(dim, -np.inf)])
    return built, X


class TestHostileInputs:
    """One split test everywhere: a NaN value fails it, ±inf route by sign,
    and a dense product is the same float on every path, so every algorithm
    takes the oracle's leaf on any row, and no RuntimeWarning is raised."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        count=st.integers(1, 3),
        depth=st.integers(1, 5),
        dim=st.integers(1, 5),
    )
    def test_every_path_takes_the_oracles_leaf(self, seed, count, depth, dim):
        built, X = hostile_case(seed, count, depth, dim)
        parsed = parse_model(serialize_ensemble(built))  # the arrays the CLI scores
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = [[naive_traverse(t, x) for t in parsed] for x in X]
            assert oracle == [[naive_traverse(t, x) for t in built] for x in X]
            model = StackedTrees.build(parsed)
            for step in (1, 3, None):  # rows per chunk; None keeps the default rule
                with pytest.MonkeyPatch.context() as mp:
                    if step is not None:
                        mp.setattr(traversal, "CHUNK_ENTRIES", step * (model.num_leaves + 1))
                    for name in ARITHMETIC:
                        leaves = np.vstack([leaves for leaves, _ in batch_score(model, X, name)])
                        np.testing.assert_array_equal(leaves, oracle, err_msg=f"{name}, {step} rows")
            stacked = compute_test_matrix(model, X)
            for k, tree in enumerate(parsed):
                mats = TreeMatrices.build(tree)
                nodes = slice(model.node_starts[k], model.node_starts[k] + tree.num_internal)
                for T in (compute_test_matrix(tree, X), compute_test_matrix(built[k], X), stacked[:, nodes]):
                    assert T.dtype == np.int64
                    np.testing.assert_array_equal(T, [compute_test_vector(tree, x) for x in X])
                for i, x in enumerate(X):
                    assert hard_routing_consistency(tree, x) and hard_routing_consistency(built[k], x)
                    for name, fn in ALGORITHMS.items():
                        assert fn(mats, x).leaf_index == oracle[i][k], name

    def test_stacking_a_parsed_model_builds_one_split_test(self, monkeypatch):
        # The parser built every tree's split tests; the stack concatenates
        # them and derives nothing per tree.
        built, X = hostile_case(7, 6, 5, 4)
        parsed = parse_model(serialize_ensemble(built))
        tests = trees_module.SplitTests
        made = []
        init = tests.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(tests, "__init__", counted)
        model = StackedTrees.build(parsed)
        assert made == [model.split_tests]
        assert len(model.split_tests.dense_rows) == sum(len(t.split_tests.dense_rows) for t in parsed) > 0
        np.testing.assert_array_equal(
            model.split_tests.false_nodes(X), np.hstack([t.split_tests.false_nodes(X) for t in parsed])
        )

    @pytest.mark.parametrize("dim", [1, 2, 7, 50, 129, 300])
    def test_dense_products_do_not_depend_on_rows(self, dim, monkeypatch):
        # The oracle takes one row, a batch chunk any number; a matrix
        # product would round a row differently by the chunk's shape.
        rng = np.random.default_rng(dim)
        rows, X = rng.uniform(-1, 1, (9, dim)), rng.uniform(-1, 1, (37, dim))
        whole = dense_products(rows, X)
        assert whole.shape == (37, 9)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(dense_products(rows, x), whole[i])
        for block in (1, 3, 5):  # rows of X per elementwise product
            monkeypatch.setattr(trees_module, "_DENSE_ENTRIES", block * rows.size)
            np.testing.assert_array_equal(dense_products(rows, X), whole)
        X[0, 0], X[1, 0] = np.inf, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            products = dense_products(np.array([[0.0] * dim, [1.0] * dim]), X[:2])
        assert np.isnan(products[:, 0]).all() and np.isnan(products[1, 1])


class TestLoneLeafTree:
    """A tree with no internal node routes every x to its one leaf, under
    every algorithm, per vector (through ``ALGORITHMS``) and stacked (in
    ``ensemble_score``, cold and warm).  Its codeword is empty, so its
    agreement is 1."""

    @staticmethod
    def stump_led_model(seed):
        doc = json.loads(serialize_ensemble([generate_random_tree(6, 4, seed)]))
        doc["trees"].insert(0, {"type": "binary", "feature_dim": 4, "root": {"leaf": 0.25}})
        return parse_model(json.dumps(doc))

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_cold_and_warm_calls_equal_the_oracle(self, name):
        # RuntimeWarnings are errors in this suite, so 0 / 0 would fail here.
        for seed, x in zip(range(3), random_instances(3, 4, 7)):
            trees = self.stump_led_model(seed)
            assert (trees[0].num_internal, trees[0].num_leaves) == (0, 1)
            expected = float(sum(t.leaf_values[naive_traverse(t, x) - 1] for t in trees))
            models = fresh_bundles(trees)
            assert ensemble_score(models, x, name) == expected  # stacks the model
            assert ensemble_score(models, x, name) == expected  # warm
            assert models[0]._stack.trees == tuple(trees)  # naive stacks too
            result = ALGORITHMS[name](models[0], x)
            assert (result.leaf_index, result.leaf_value) == (1, 0.25)

    def test_signed_scores_are_one(self):
        mats = TreeMatrices.build(BinaryDecisionTree(Leaf(0.5), 3))
        s = np.zeros(0, dtype=np.int64)
        for fn in (sign_traverse, ecoc_traverse):
            result = fn(mats, s)
            assert result.leaf_index == 1
            np.testing.assert_array_equal(result.score_vector, [1.0])
        assert soft_attention(mats, s).probs.tolist() == [1.0]
        model = StackedTrees.build([mats.tree])
        chunks = list(batch_soft_attention(model, random_instances(3, 3, 1)))
        assert np.concatenate(chunks).tolist() == [[1.0]] * 3
