from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_shapes,
    binary_to_general,
    chain_tree,
    fuzzy_cases,
    same_bits,
    shared_leaf_tree,
    span_loop_matrices,
    subtree_leaves,
)
from treeflat import (
    BinaryDecisionTree,
    BitMatrix,
    GeneralTree,
    Internal,
    Leaf,
    Predicate,
    StackedTrees,
    UnrealizableMatrixError,
    build_depth_vector,
    build_fuzzy_matrix,
    build_general_path_matrix,
    build_left_matrix,
    build_mask_vector,
    build_right_matrix,
    build_signed_matrix,
    complement,
    decompose_general_matrix,
    generate_random_general_tree,
    generate_random_tree,
    leaf_distribution,
    matrix_rank,
    naive_traverse,
    prune_leaf,
    recover_tree,
    serialize_tree,
    validate,
)

RIGHT_6x5 = np.array(
    [
        [0, 0, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [1, 1, 0, 0, 1],
        [1, 1, 0, 1, 1],
        [1, 1, 1, 1, 0],
        [1, 1, 1, 1, 1],
    ]
)

LEFT_6x5 = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 0, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 0, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 0, 1, 0],
    ]
)

SIGNED_6x5 = np.array(
    [
        [-1, -1, 0, 0, 0],
        [-1, 1, 0, 0, 0],
        [1, 0, -1, -1, 0],
        [1, 0, -1, 1, 0],
        [1, 0, 1, 0, -1],
        [1, 0, 1, 0, 1],
    ]
)

random_trees = st.builds(
    generate_random_tree,
    depth_bound=st.integers(1, 7),
    feature_dim=st.just(4),
    seed=st.integers(0, 2**31 - 1),
)

random_general_trees = st.builds(
    generate_random_general_tree,
    depth_bound=st.integers(1, 5),
    max_children=st.integers(2, 5),
    seed=st.integers(0, 2**31 - 1),
)


class TestBitMatrices:
    def test_golden_right_matrix(self, six_leaf_tree):
        np.testing.assert_array_equal(build_right_matrix(six_leaf_tree).entries, RIGHT_6x5)

    def test_golden_left_matrix(self, six_leaf_tree):
        np.testing.assert_array_equal(build_left_matrix(six_leaf_tree).entries, LEFT_6x5)

    def test_golden_complements(self, six_leaf_tree):
        np.testing.assert_array_equal(
            complement(build_left_matrix(six_leaf_tree)).entries, 1 - LEFT_6x5
        )
        np.testing.assert_array_equal(
            complement(build_right_matrix(six_leaf_tree)).entries, 1 - RIGHT_6x5
        )

    def test_depth1_matrices(self, depth1_tree):
        np.testing.assert_array_equal(build_right_matrix(depth1_tree).entries, [[0], [1]])
        np.testing.assert_array_equal(build_left_matrix(depth1_tree).entries, [[1], [0]])

    def test_complement_is_involution(self, six_leaf_tree):
        m = build_right_matrix(six_leaf_tree)
        np.testing.assert_array_equal(complement(complement(m)).entries, m.entries)

    def test_all_ones_complements_to_zero(self):
        m = BitMatrix(np.ones((3, 2), dtype=np.uint8))
        assert not complement(m).entries.any()

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            BitMatrix(np.array([[0, 2]]))

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.5, 1.7]],  # the uint8 cast cut these to [[0, 1]]
            np.array([[256, 1]], dtype=np.int64),  # wrapped to [[0, 1]]
            np.array([[-255, 0]], dtype=np.int64),  # wrapped to [[1, 0]]
            [[np.nan, 1.0]],  # stored as 0, with a RuntimeWarning
            np.array([[2, 0]], dtype=np.uint8),
        ],
    )
    def test_checks_entries_before_the_cast(self, bad):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BitMatrix(bad)

    @pytest.mark.parametrize(
        "good", [[[0.0, 1.0]], [[False, True]], np.array([[0, 1]], dtype=np.int64)]
    )
    def test_accepts_zero_one_floats_bools_and_ints(self, good):
        entries = BitMatrix(good).entries
        assert entries.dtype == np.uint8
        np.testing.assert_array_equal(entries, [[0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(tree=random_trees)
    def test_zero_sets_match_explicit_subtree_walk(self, tree):
        right = build_right_matrix(tree).entries
        left = build_left_matrix(tree).entries
        for j in range(tree.num_internal):
            expected_left = {leaf - 1 for leaf in subtree_leaves(tree, j, "left")}
            expected_right = {leaf - 1 for leaf in subtree_leaves(tree, j, "right")}
            assert set(np.flatnonzero(right[:, j] == 0)) == expected_left
            assert set(np.flatnonzero(left[:, j] == 0)) == expected_right

    @settings(max_examples=60, deadline=None)
    @given(tree=random_trees)
    def test_complement_identity_and_boundary_rows(self, tree):
        left = build_left_matrix(tree)
        right = build_right_matrix(tree)
        ones = np.ones_like(left.entries)
        np.testing.assert_array_equal(left.entries + complement(left).entries, ones)
        np.testing.assert_array_equal(right.entries + complement(right).entries, ones)
        assert left.entries[0].all(), "leftmost leaf row of the left matrix is all ones"
        assert right.entries[-1].all(), "rightmost leaf row of the right matrix is all ones"

    def test_packed_columns_round_trip(self, six_leaf_tree):
        m = build_right_matrix(six_leaf_tree)
        for j, mask in enumerate(m.packed_columns()):
            bits = [(mask >> i) & 1 for i in range(m.shape[0])]
            np.testing.assert_array_equal(bits, m.entries[:, j])


class TestSignedAndDepth:
    def test_golden_signed_matrix(self, six_leaf_tree):
        np.testing.assert_array_equal(build_signed_matrix(six_leaf_tree), SIGNED_6x5)

    def test_depth1_signed_matrix(self, depth1_tree):
        np.testing.assert_array_equal(build_signed_matrix(depth1_tree), [[-1], [1]])

    def test_golden_depth_vector(self, six_leaf_tree):
        np.testing.assert_array_equal(
            build_depth_vector(six_leaf_tree), [2, 2, 3, 3, 3, 3]
        )

    def test_depth1_depth_vector(self, depth1_tree):
        np.testing.assert_array_equal(build_depth_vector(depth1_tree), [1, 1])

    @settings(max_examples=60, deadline=None)
    @given(tree=random_trees)
    def test_signed_matrix_identities(self, tree):
        left = build_left_matrix(tree)
        right = build_right_matrix(tree)
        signed = build_signed_matrix(tree)
        np.testing.assert_array_equal(
            signed, right.entries.astype(np.int64) - left.entries.astype(np.int64)
        )
        np.testing.assert_array_equal(
            signed,
            complement(left).entries.astype(np.int64)
            - complement(right).entries.astype(np.int64),
        )
        np.testing.assert_array_equal(np.abs(signed).sum(axis=1), build_depth_vector(tree))
        assert len({tuple(row) for row in signed}) == tree.num_leaves

    @settings(max_examples=40, deadline=None)
    @given(tree=random_trees)
    def test_depth_matches_explicit_walk(self, tree):
        from conftest import enumerate_paths

        depths = build_depth_vector(tree)
        for leaf, trail in enumerate_paths(tree):
            assert depths[leaf - 1] == len(trail)


class TestFuzzyMatrix:
    def test_golden_pattern(self, six_leaf_tree):
        p = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        expected = np.array(
            [
                [p[0], p[1], 1, 1, 1],
                [p[0], 1 - p[1], 1, 1, 1],
                [1 - p[0], 1, p[2], p[3], 1],
                [1 - p[0], 1, p[2], 1 - p[3], 1],
                [1 - p[0], 1, 1 - p[2], 1, p[4]],
                [1 - p[0], 1, 1 - p[2], 1, 1 - p[4]],
            ]
        )
        np.testing.assert_allclose(build_fuzzy_matrix(six_leaf_tree, p), expected)

    def test_all_ones_probability_gives_left_matrix(self, six_leaf_tree):
        np.testing.assert_array_equal(
            build_fuzzy_matrix(six_leaf_tree, np.ones(5)),
            build_left_matrix(six_leaf_tree).entries,
        )

    @settings(max_examples=40, deadline=None)
    @given(tree=random_trees, seed=st.integers(0, 2**31 - 1))
    def test_matches_per_entry_rule(self, tree, seed):
        p = np.random.default_rng(seed).uniform(size=tree.num_internal)
        fuzzy = build_fuzzy_matrix(tree, p)
        for j in range(tree.num_internal):
            left_rows = {leaf - 1 for leaf in subtree_leaves(tree, j, "left")}
            right_rows = {leaf - 1 for leaf in subtree_leaves(tree, j, "right")}
            for i in range(tree.num_leaves):
                if i in left_rows:
                    assert fuzzy[i, j] == pytest.approx(p[j], abs=0)
                elif i in right_rows:
                    assert fuzzy[i, j] == pytest.approx(1 - p[j], abs=0)
                else:
                    assert fuzzy[i, j] == 1.0

    def test_degenerate_probabilities_allowed(self, depth1_tree):
        np.testing.assert_array_equal(
            build_fuzzy_matrix(depth1_tree, [0.0]), [[0.0], [1.0]]
        )
        assert not np.signbit(build_fuzzy_matrix(depth1_tree, [-0.0])).any()

    def test_out_of_range_rejected(self, depth1_tree):
        with pytest.raises(ValueError):
            build_fuzzy_matrix(depth1_tree, [1.5])
        with pytest.raises(ValueError):
            build_fuzzy_matrix(depth1_tree, [float("nan")])
        with pytest.raises(ValueError):
            build_fuzzy_matrix(depth1_tree, [0.2, 0.3])


class TestScatterBuilders:
    """Each builder writes the cached (leaf, ancestor) table in one scatter,
    bit for bit what the per-span loop writes."""

    @settings(max_examples=150, deadline=None)
    @given(case=fuzzy_cases())
    def test_bit_identical_to_the_span_loop(self, case):
        tree, p = case
        right, left, signed, fuzzy = span_loop_matrices(tree, p)
        assert same_bits(build_right_matrix(tree).entries, right)
        assert same_bits(build_left_matrix(tree).entries, left)
        assert same_bits(build_signed_matrix(tree), signed)
        built = build_fuzzy_matrix(tree, p)
        assert same_bits(built, fuzzy) and built.flags.f_contiguous

    def test_table_cells_and_rows(self, six_leaf_tree):
        cell, branch = six_leaf_tree._path_cells
        n = six_leaf_tree.num_internal
        assert len(set(cell.tolist())) == len(cell)
        rows = [[] for _ in range(six_leaf_tree.num_leaves)]
        for c, b in sorted(zip(cell.tolist(), branch.tolist())):
            assert c % n == b % n
            rows[c // n].append(b)
        # Leaf 3 lies right of node 0, then left of nodes 2 and 3.
        assert rows == [[0, 1], [0, 6], [5, 2, 3], [5, 2, 8], [5, 7, 4], [5, 7, 9]]
        # The path form's rows: the same branches, row-major and root first.
        row_branches, starts = six_leaf_tree._path_rows
        assert row_branches.tolist() == [b for row in rows for b in row]
        assert starts.tolist() == [0, 2, 4, 7, 10, 13]

    @pytest.mark.parametrize(
        "tree, problems",
        [
            (
                shared_leaf_tree(),
                ["node root.left.left appears more than once (shared subtree)",
                 "leaf count 2 does not equal internal count 2 + 1"],
            ),
            (
                BinaryDecisionTree(Internal(Predicate.one_hot(0, 0.5, 5), Leaf(0.0), None), 5),
                ["internal node root is missing its right child",
                 "leaf count 1 does not equal internal count 1 + 1"],
            ),
            (
                BinaryDecisionTree(Internal(Predicate.one_hot(0, 0.5, 5), Leaf(0.0), "leaf"), 5),
                ["internal node root has a malformed right child",
                 "leaf count 1 does not equal internal count 1 + 1"],
            ),
            (
                BinaryDecisionTree(Internal(Predicate(np.ones(3), 0.5), Leaf(0.0), Leaf(1.0)), 5),
                ["internal node root has weights of length 3, expected 5"],
            ),
            (
                BinaryDecisionTree(
                    Internal(Predicate(np.array(list("abcde")), 0.5), Leaf(0.0), Leaf(1.0)), 5
                ),
                ["internal node root has non-numeric weights"],
            ),
        ],
        ids=["shared leaf", "missing child", "foreign child", "short weights", "text weights"],
    )
    def test_object_fault_trees_have_no_matrices(self, tree, problems):
        # Objects that give no node arrays: every reader of the arrays raises
        # the one malformed error, and validate names the fault.
        assert validate(tree).problems == problems
        readers = [
            build_right_matrix,
            build_left_matrix,
            build_signed_matrix,
            lambda t: build_fuzzy_matrix(t, [0.5]),
            lambda t: leaf_distribution(t, [0.5]),
            lambda t: naive_traverse(t, np.zeros(t.feature_dim)),
            lambda t: StackedTrees.build([t]),
            lambda t: t.split_tests,
            lambda t: t.weight_matrix,
        ]
        for read in readers:
            with pytest.raises(ValueError, match=r"tree is malformed: .*; run validate\(\)"):
                read(tree)


class TestColumnMajorLayout:
    """The fuzzy and general path matrices are F-contiguous (leaves x nodes)
    arrays holding the values of the row-major matrices; for the fuzzy one,
    ``TestScatterBuilders`` checks both against the span loop."""

    def test_column_cells_are_the_row_cells_transposed(self, six_leaf_tree):
        n, leaves = six_leaf_tree.num_internal, six_leaf_tree.num_leaves
        cell, branch = six_leaf_tree._path_cells
        col, col_branch = six_leaf_tree._path_cols
        np.testing.assert_array_equal(col_branch, branch)
        np.testing.assert_array_equal(col, cell % n * leaves + cell // n)
        assert (np.diff(col) > 0).all()  # node by node, leaves in order

    @settings(max_examples=40, deadline=None)
    @given(tree=random_general_trees)
    def test_general_path_matrix_equals_the_per_entry_loop(self, tree):
        m = build_general_path_matrix(tree)
        assert m.flags.f_contiguous and m.shape == (tree.num_leaves, tree.num_internal)
        row_major = np.ones((tree.num_leaves, tree.num_internal))
        for j, node in enumerate(tree.internal_nodes):
            for k, (lo, hi) in enumerate(tree.child_spans[j]):
                row_major[lo:hi, j] = node.weights[k]
        assert same_bits(m, row_major)


class TestGeneralPathMatrix:
    def test_golden_rows(self, eight_leaf_general_tree):
        m = build_general_path_matrix(eight_leaf_general_tree)
        assert m.shape == (8, 5)
        np.testing.assert_allclose(m[0], [0.5, 0.7, 1, 1, 1])
        np.testing.assert_allclose(m[3], [0.2, 1, 1, 1, 1])
        np.testing.assert_allclose(m[4], [0.3, 1, 0.2, 1, 1])
        np.testing.assert_allclose(m[5], [0.3, 1, 0.5, 1, 0.45])

    def test_binary_tree_as_general_equals_fuzzy(self, six_leaf_tree):
        p = np.array([0.3, 0.6, 0.1, 0.8, 0.5])
        general = GeneralTree(binary_to_general(six_leaf_tree.root, list(p)), 5)
        np.testing.assert_allclose(
            build_general_path_matrix(general),
            build_fuzzy_matrix(six_leaf_tree, p),
        )

    @settings(max_examples=40, deadline=None)
    @given(tree=random_general_trees)
    def test_row_products_match_path_walk(self, tree):
        from treeflat import GeneralInternal, Leaf

        m = build_general_path_matrix(tree)
        products = m.prod(axis=1)

        def walk(node, mass, out):
            if isinstance(node, Leaf):
                out.append(mass)
                return
            for w, child in zip(node.weights, node.children):
                walk(child, mass * w, out)

        expected: list[float] = []
        walk(tree.root, 1.0, expected)
        np.testing.assert_allclose(products, expected, rtol=1e-12)


class TestMaskVectors:
    def test_root_first_edge_masks_other_children(self, eight_leaf_general_tree):
        mask = build_mask_vector(eight_leaf_general_tree, 0, 1)
        np.testing.assert_array_equal(mask, [1, 1, 1, 0, 0, 0, 0, 0])

    def test_binary_edges_reproduce_bit_columns(self, six_leaf_tree):
        general = GeneralTree(
            binary_to_general(six_leaf_tree.root, [0.5] * 5), 5
        )
        left = build_left_matrix(six_leaf_tree).entries
        right = build_right_matrix(six_leaf_tree).entries
        for j in range(5):
            np.testing.assert_array_equal(build_mask_vector(general, j, 1), left[:, j])
            np.testing.assert_array_equal(build_mask_vector(general, j, 2), right[:, j])

    def test_all_leaves_under_edge_gives_all_ones(self):
        from conftest import general_node
        from treeflat import Leaf

        # both grandchildren live under the root's first edge
        inner = general_node([Leaf(0.0), Leaf(1.0)], [0.5, 0.5])
        tree = GeneralTree(general_node([inner, Leaf(2.0)], [0.9, 0.1]), 1)
        np.testing.assert_array_equal(build_mask_vector(tree, 1, 1), [1, 0, 1])
        np.testing.assert_array_equal(build_mask_vector(tree, 1, 2), [0, 1, 1])

    def test_out_of_range_indices(self, eight_leaf_general_tree):
        with pytest.raises(IndexError):
            build_mask_vector(eight_leaf_general_tree, 9, 1)
        with pytest.raises(IndexError):
            build_mask_vector(eight_leaf_general_tree, 0, 4)


def _fraction_rank(m):
    """Plain Gaussian elimination over exact rationals; independent oracle."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(m)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / pivot
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRank:
    def test_golden_complement_rank(self, six_leaf_tree):
        assert matrix_rank(complement(build_left_matrix(six_leaf_tree))) == 5

    def test_zero_matrix(self):
        assert matrix_rank(np.zeros((4, 3), dtype=np.int64)) == 0

    def test_identity(self):
        assert matrix_rank(np.eye(4, dtype=np.int64)) == 4

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            matrix_rank(np.array([[0.5]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="requires integer entries"):
            matrix_rank(np.array([[bad, 1], [1, 2]]))

    def test_huge_integral_floats_rank_exactly(self):
        # Cast through int64, 1e300 and 2e300 both became -2**63, which made
        # the second matrix rank 2.
        assert matrix_rank(np.array([[1e300, 1], [1, 2]])) == 2
        assert matrix_rank(np.array([[1e300, 2e300], [1, 2]])) == 1

    def test_python_int_objects_rank_exactly(self):
        # Entries beyond int64 and float64 precision: 2**70 + 1 is not a float.
        assert matrix_rank(np.array([[2**70, 1], [1, 0]], dtype=object)) == 2
        assert matrix_rank(np.array([[2**70 + 1, 2**71 + 2], [1, 2]], dtype=object)) == 1
        assert matrix_rank(np.array([[2**70 + 1, 2**71 + 1], [1, 2]], dtype=object)) == 2
        assert matrix_rank(np.array([[np.int64(3), True], [6, 2]], dtype=object)) == 1

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), 2.0, "1", None])
    def test_rejects_non_integer_objects(self, bad):
        with pytest.raises(ValueError, match="requires integer entries"):
            matrix_rank(np.array([[bad, 1], [1, 2]], dtype=object))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_exact_gaussian_elimination(self, rows, cols, seed):
        m = np.random.default_rng(seed).integers(-3, 4, size=(rows, cols))
        assert matrix_rank(m) == _fraction_rank(m)

    @settings(max_examples=40, deadline=None)
    @given(tree=random_trees)
    def test_rank_invariants(self, tree):
        n = tree.num_internal
        left = build_left_matrix(tree)
        right = build_right_matrix(tree)
        augmented = np.hstack(
            [left.entries.astype(np.int64), np.ones((tree.num_leaves, 1), np.int64)]
        )
        assert matrix_rank(augmented) == n + 1
        assert matrix_rank(complement(left)) == n
        assert matrix_rank(complement(right)) == n
        assert matrix_rank(build_signed_matrix(tree)) == n


class TestPruneLeaf:
    def test_golden_pruned_left_matrix(self, six_leaf_tree):
        pruned = prune_leaf(build_left_matrix(six_leaf_tree), 2)
        expected = LEFT_6x5.copy()
        expected[1, :] = 0
        np.testing.assert_array_equal(pruned.entries, expected)

    def test_original_untouched_and_idempotent(self, six_leaf_tree):
        m = build_left_matrix(six_leaf_tree)
        pruned = prune_leaf(m, 2)
        np.testing.assert_array_equal(m.entries, LEFT_6x5)
        np.testing.assert_array_equal(prune_leaf(pruned, 2).entries, pruned.entries)

    def test_out_of_range(self, six_leaf_tree):
        with pytest.raises(IndexError):
            prune_leaf(build_left_matrix(six_leaf_tree), 7)
        with pytest.raises(IndexError):
            prune_leaf(build_left_matrix(six_leaf_tree), 0)

    def test_pruned_leaf_never_wins_when_any_node_is_false(self):
        # With no false node at all the candidate vector is uniform and the
        # leftmost leaf wins by tie-break, so pruning is only visible once at
        # least one node tests false; check that case exhaustively.
        for tree in all_shapes(3):
            right = build_right_matrix(tree)
            n = tree.num_internal
            for leaf in range(1, tree.num_leaves + 1):
                pruned = prune_leaf(right, leaf).entries.astype(np.int64)
                for bits in range(1, 2**n):
                    t = np.array([(bits >> j) & 1 for j in range(n)], dtype=np.int64)
                    v = pruned @ t + 1
                    assert int(np.argmax(v)) + 1 != leaf


class TestRecoverTree:
    def test_golden_right_recovery(self, six_leaf_tree):
        recovered = recover_tree(build_right_matrix(six_leaf_tree), "right")
        np.testing.assert_array_equal(build_right_matrix(recovered).entries, RIGHT_6x5)
        np.testing.assert_array_equal(build_left_matrix(recovered).entries, LEFT_6x5)

    def test_single_split(self):
        recovered = recover_tree(BitMatrix(np.array([[0], [1]])), "right")
        assert recovered.num_internal == 1
        assert recovered.num_leaves == 2

    @settings(max_examples=60, deadline=None)
    @given(tree=random_trees)
    @example(tree=BinaryDecisionTree(Leaf(0.0), 1))  # a 1 x 0 matrix
    def test_round_trip_both_kinds(self, tree):
        right = build_right_matrix(tree)
        left = build_left_matrix(tree)
        np.testing.assert_array_equal(
            build_right_matrix(recover_tree(right, "right")).entries, right.entries
        )
        np.testing.assert_array_equal(
            build_left_matrix(recover_tree(left, "left")).entries, left.entries
        )

    def test_chain_deeper_than_the_recursion_limit_round_trips(self):
        # Outside @given, which raises the recursion limit while it runs.
        chain = chain_tree(1500)
        right, left = build_right_matrix(chain), build_left_matrix(chain)
        assert same_bits(build_right_matrix(recover_tree(right, "right")).entries, right.entries)
        assert same_bits(build_left_matrix(recover_tree(left, "left")).entries, left.entries)

    def test_non_contiguous_zero_set_rejected(self):
        bad = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        with pytest.raises(UnrealizableMatrixError):
            recover_tree(BitMatrix(bad), "right")

    def test_all_ones_column_rejected(self):
        bad = np.array([[1, 0], [1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(UnrealizableMatrixError):
            recover_tree(BitMatrix(bad), "right")

    def test_wrong_shape_rejected(self):
        for shape in ((3, 3), (0, 0)):
            with pytest.raises(UnrealizableMatrixError, match=f"a {shape[0]} x {shape[1]} matrix"):
                recover_tree(BitMatrix(np.zeros(shape, dtype=np.uint8)), "right")

    def test_permuted_columns_rejected(self, six_leaf_tree):
        permuted = BitMatrix(RIGHT_6x5[:, [1, 0, 2, 3, 4]])
        with pytest.raises(UnrealizableMatrixError):
            recover_tree(permuted, "right")

    def test_unknown_kind_rejected(self, six_leaf_tree):
        with pytest.raises(ValueError):
            recover_tree(build_right_matrix(six_leaf_tree), "up")


class TestDecomposeGeneral:
    def test_three_terms_with_padded_weights(self, eight_leaf_general_tree):
        terms = decompose_general_matrix(eight_leaf_general_tree)
        assert len(terms) == 3
        _, w1 = terms[0]
        _, w2 = terms[1]
        _, w3 = terms[2]
        np.testing.assert_allclose(w1, [0.5, 0.7, 0.2, 0.6, 0.45])
        np.testing.assert_allclose(w2, [0.2, 0.3, 0.5, 0.4, 0.55])
        # only the two ternary nodes carry a third edge
        np.testing.assert_allclose(w3, [0.3, 0.0, 0.3, 0.0, 0.0])

    def test_reconstructs_path_matrix(self, eight_leaf_general_tree):
        terms = decompose_general_matrix(eight_leaf_general_tree)
        total = sum(mask.entries.astype(np.float64) * w for mask, w in terms)
        np.testing.assert_allclose(
            total, build_general_path_matrix(eight_leaf_general_tree), atol=1e-12
        )

    def test_binary_tree_recovers_fuzzy_mixture(self, six_leaf_tree):
        p = [0.25, 0.5, 0.75, 0.1, 0.9]
        general = GeneralTree(binary_to_general(six_leaf_tree.root, list(p)), 5)
        terms = decompose_general_matrix(general)
        assert len(terms) == 2
        total = sum(mask.entries.astype(np.float64) * w for mask, w in terms)
        np.testing.assert_allclose(total, build_fuzzy_matrix(six_leaf_tree, p))

    @settings(max_examples=40, deadline=None)
    @given(tree=random_general_trees)
    def test_reconstruction_error_is_tiny(self, tree):
        terms = decompose_general_matrix(tree)
        total = sum(mask.entries.astype(np.float64) * w for mask, w in terms)
        np.testing.assert_allclose(
            total, build_general_path_matrix(tree), atol=1e-12
        )


def test_builders_do_not_mutate_tree(six_leaf_tree):
    before = serialize_tree(six_leaf_tree)
    build_right_matrix(six_leaf_tree)
    build_left_matrix(six_leaf_tree)
    build_signed_matrix(six_leaf_tree)
    build_fuzzy_matrix(six_leaf_tree, np.full(5, 0.5))
    assert serialize_tree(six_leaf_tree) == before
