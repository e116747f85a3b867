import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuzzy_cases, general_node, instance_for_tests, same_bits, shared_leaf_tree
from treeflat import (
    GeneralTree,
    Leaf,
    build_fuzzy_matrix,
    build_general_path_matrix,
    convert_general_to_binary,
    general_leaf_distribution,
    generate_random_general_tree,
    generate_random_tree,
    hard_routing_consistency,
    leaf_distribution,
    leaf_probabilities,
    leaf_probabilities_log,
    naive_traverse,
    parse_tree,
    random_instances,
    validate,
)

random_general_trees = st.builds(
    generate_random_general_tree,
    depth_bound=st.integers(1, 5),
    max_children=st.integers(2, 5),
    seed=st.integers(0, 2**31 - 1),
)


class TestLeafProbabilities:
    def test_hard_left_routing(self, six_leaf_tree):
        dist = leaf_probabilities(build_fuzzy_matrix(six_leaf_tree, np.ones(5)))
        np.testing.assert_array_equal(dist.probs, [1, 0, 0, 0, 0, 0])
        assert dist.is_normalized

    def test_half_half_routing(self, six_leaf_tree):
        dist = leaf_probabilities(
            build_fuzzy_matrix(six_leaf_tree, [0.5, 0.5, 1.0, 1.0, 1.0])
        )
        np.testing.assert_allclose(dist.probs, [0.25, 0.25, 0.5, 0, 0, 0])
        assert dist.is_normalized

    def test_half_half_routing_matches_monte_carlo(self, six_leaf_tree):
        p = np.array([0.5, 0.5, 1.0, 1.0, 1.0])
        dist = leaf_probabilities(build_fuzzy_matrix(six_leaf_tree, p))
        rng = np.random.default_rng(123)
        n_samples = 20000
        counts = np.zeros(6)
        bf = {id(n): j for j, n in enumerate(six_leaf_tree.internal_nodes)}
        for _ in range(n_samples):
            node = six_leaf_tree.root
            while not isinstance(node, Leaf):
                node = node.left if rng.random() < p[bf[id(node)]] else node.right
            counts[six_leaf_tree.leaf_position(node) - 1] += 1
        np.testing.assert_allclose(counts / n_samples, dist.probs, atol=0.02)

    def test_general_tree_matches_explicit_paths(self, eight_leaf_general_tree):
        dist = general_leaf_distribution(eight_leaf_general_tree)
        np.testing.assert_allclose(
            dist.probs, [0.35, 0.09, 0.06, 0.2, 0.06, 0.0675, 0.0825, 0.09]
        )
        assert dist.is_normalized

    def test_out_of_range_entries_rejected(self):
        with pytest.raises(ValueError):
            leaf_probabilities(np.array([[1.5, 0.5]]))

    @pytest.mark.parametrize("form", [leaf_probabilities, leaf_probabilities_log])
    def test_nan_entries_rejected(self, form):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            form(np.array([[np.nan, 1.0], [0.5, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(tree=random_general_trees)
    def test_general_distributions_normalize(self, tree):
        dist = general_leaf_distribution(tree)
        assert dist.is_normalized
        assert (dist.probs >= 0).all()


class TestPathForm:
    """``leaf_distribution`` multiplies only each leaf's ancestor factors,
    root first, and equals the dense pair bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=fuzzy_cases())
    def test_bit_identical_to_the_dense_pair(self, case):
        tree, p = case
        dense = leaf_probabilities(build_fuzzy_matrix(tree, p)).probs
        assert same_bits(leaf_distribution(tree, p).probs, dense)

    def test_golden_half_half_routing(self, six_leaf_tree):
        dist = leaf_distribution(six_leaf_tree, [0.5, 0.5, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dist.probs, [0.25, 0.25, 0.5, 0, 0, 0])

    @pytest.mark.parametrize(
        "p",
        [np.full(4, 0.5), np.full((5, 1), 0.5), [0.5, 0.5, 1.5, 0.5, 0.5], [0.5, -1e-300, 0.5, 0.5, 0.5],
         [0.5, 0.5, 0.5, np.nan, 0.5]],
        ids=["short", "two-dimensional", "above one", "below zero", "nan"],
    )
    def test_rejects_p_as_the_dense_form_does(self, six_leaf_tree, p):
        with pytest.raises(ValueError) as dense:
            build_fuzzy_matrix(six_leaf_tree, p)
        with pytest.raises(ValueError) as path:
            leaf_distribution(six_leaf_tree, p)
        assert str(path.value) == str(dense.value)

    def test_leaf_root_tree_gives_one(self):
        # It parses, though validate wants an internal node.
        stump = parse_tree('{"type": "binary", "feature_dim": 2, "root": {"leaf": 0.5}}')
        probs = leaf_distribution(stump, []).probs
        assert same_bits(probs, np.ones(1))
        assert same_bits(probs, leaf_probabilities(build_fuzzy_matrix(stump, [])).probs)

    def test_shared_node_tree_rejected(self):
        # A leaf object used twice gives rows whose lengths differ from the
        # leaf depths, so the segments could not line up with the leaves.
        with pytest.raises(ValueError, match="malformed"):
            leaf_distribution(shared_leaf_tree(), [0.5, 0.5])


# Factors whose products round differently if taken in another order: runs
# of 1.0, zeros of both signs, subnormals, and small factors whose products
# underflow into the subnormals, beside uniform ones.
SPECIAL_ENTRIES = np.array([1.0, 1.0, 1.0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1 - 2**-53])


@st.composite
def routing_matrices(draw):
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(0, 60))
    special, small = draw(st.sampled_from([(0.0, 0.0), (0.3, 0.3), (0.9, 0.0), (0.0, 0.9)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.uniform(size=(rows, cols))
    m = rng.uniform(size=(rows, cols))
    m = np.where(kind < small, 10.0 ** rng.uniform(-20, -3, size=m.shape), m)
    return np.where(kind > 1 - special, rng.choice(SPECIAL_ENTRIES, size=m.shape), m)


class TestLayout:
    """Row products do not depend on the matrix layout: numpy multiplies
    each row left to right along a C row and down F columns alike."""

    @settings(max_examples=200, deadline=None)
    @given(m=routing_matrices())
    def test_c_and_f_copies_give_the_same_bits(self, m):
        c, f = np.ascontiguousarray(m), np.asfortranarray(m)
        assert c.flags.c_contiguous and f.flags.f_contiguous
        probs = leaf_probabilities(c).probs
        assert same_bits(leaf_probabilities(f).probs, probs)
        # The left-to-right product, one factor at a time.
        expected = np.ones(len(m))
        for j in range(m.shape[1]):
            expected = expected * m[:, j]
        assert same_bits(probs, expected)
        if (m > 0.0).all():
            assert same_bits(leaf_probabilities_log(f).probs, leaf_probabilities_log(c).probs)

    @settings(max_examples=50, deadline=None)
    @given(tree=random_general_trees)
    def test_general_distribution_equals_the_row_major_product(self, tree):
        row_major = np.ascontiguousarray(build_general_path_matrix(tree))
        assert same_bits(general_leaf_distribution(tree).probs, np.prod(row_major, axis=1))


class TestRangeCheck:
    """Entries must lie in [0, 1]; -0.0 and subnormals are in range.  One
    integer maximum over the bits accepts most matrices, and only one that
    fails it is scanned as floats."""

    LAYOUTS = {
        "C": lambda m: np.ascontiguousarray(m),
        "F": lambda m: np.asfortranarray(m),
        "strided": lambda m: np.repeat(m, 2, axis=1)[:, ::2],
        "reversed": lambda m: m[::-1, ::-1],
    }

    @staticmethod
    def matrix(entry):
        m = np.random.default_rng(4).uniform(size=(5, 4))
        m[3, 2] = entry
        return m

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("entry", [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0])
    def test_edge_entries_are_accepted_with_unchanged_bits(self, layout, entry):
        m = self.LAYOUTS[layout](self.matrix(entry))
        expected = np.ones(len(m))
        for j in range(m.shape[1]):
            expected = expected * m[:, j]
        assert same_bits(leaf_probabilities(m).probs, expected)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize(
        "entry", [np.nan, -np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -5e-324, -1.0, 2.0]
    )
    def test_out_of_range_entries_are_rejected(self, layout, entry):
        m = self.LAYOUTS[layout](self.matrix(entry))
        for form in (leaf_probabilities, leaf_probabilities_log):
            with pytest.raises(ValueError, match=r"^routing matrix entries must lie in \[0, 1\]$"):
                form(m)


class TestLogForm:
    def test_all_ones_matrix_is_flagged(self):
        dist = leaf_probabilities_log(np.ones((3, 2)))
        np.testing.assert_array_equal(dist.probs, [1, 1, 1])
        assert not dist.is_normalized

    def test_zero_entry_names_the_position(self, six_leaf_tree):
        m = build_fuzzy_matrix(six_leaf_tree, [1.0, 0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"leaf 3, node column 0"):
            leaf_probabilities_log(m)

    @settings(max_examples=40, deadline=None)
    @given(
        depth=st.integers(1, 6),
        tree_seed=st.integers(0, 2**31 - 1),
        p_seed=st.integers(0, 2**31 - 1),
    )
    def test_agrees_with_direct_product(self, depth, tree_seed, p_seed):
        tree = generate_random_tree(depth, 4, tree_seed)
        p = np.random.default_rng(p_seed).uniform(0.01, 0.99, tree.num_internal)
        m = build_fuzzy_matrix(tree, p)
        direct = leaf_probabilities(m).probs
        via_log = leaf_probabilities_log(m).probs
        np.testing.assert_allclose(via_log, direct, atol=1e-12, rtol=1e-12)


class TestGeneralToBinary:
    def test_golden_chain_probabilities(self, eight_leaf_general_tree):
        binary, probs = convert_general_to_binary(eight_leaf_general_tree)
        assert validate(binary).ok
        assert binary.num_internal == 7
        assert binary.num_leaves == 8
        np.testing.assert_allclose(
            probs, [0.5, 0.7, 0.2 / 0.5, 0.6, 0.2, 0.5 / 0.8, 0.45]
        )
        assert [l.value for l in binary.leaves] == [
            l.value for l in eight_leaf_general_tree.leaves
        ]

    def test_distribution_preserved(self, eight_leaf_general_tree):
        binary, probs = convert_general_to_binary(eight_leaf_general_tree)
        converted = leaf_probabilities(build_fuzzy_matrix(binary, probs))
        original = general_leaf_distribution(eight_leaf_general_tree)
        np.testing.assert_allclose(converted.probs, original.probs, atol=1e-9)
        # A root with 3000 leaf children becomes a chain of splits far deeper
        # than Python's recursion limit.  The path form, which equals the
        # dense pair bit for bit, needs no 3000 x 2999 matrix.
        weights = np.random.default_rng(0).dirichlet(np.ones(3000))
        wide = GeneralTree(general_node([Leaf(float(k)) for k in range(3000)], weights), 1)
        binary, probs = convert_general_to_binary(wide)
        assert validate(binary).ok and binary.leaf_values.tolist() == wide.leaf_values.tolist()
        converted = leaf_distribution(binary, probs)
        np.testing.assert_allclose(converted.probs, general_leaf_distribution(wide).probs, atol=1e-9)

    def test_binary_general_tree_is_fixed_point(self):
        root = general_node(
            [general_node([Leaf(0.1), Leaf(0.2)], [0.3, 0.7]), Leaf(0.5)],
            [0.6, 0.4],
        )
        tree = GeneralTree(root, 1)
        binary, probs = convert_general_to_binary(tree)
        assert binary.num_internal == 2
        np.testing.assert_allclose(probs, [0.6, 0.3])

    def test_all_mass_on_first_child_handles_zero_division(self):
        root = general_node(
            [Leaf(0.1), Leaf(0.2), Leaf(0.3)], [1.0, 0.0, 0.0]
        )
        tree = GeneralTree(root, 1)
        binary, probs = convert_general_to_binary(tree)
        dist = leaf_probabilities(build_fuzzy_matrix(binary, probs))
        np.testing.assert_allclose(dist.probs, [1.0, 0.0, 0.0])

    def test_leaf_root_rejected(self):
        with pytest.raises(ValueError):
            convert_general_to_binary(GeneralTree(Leaf(1.0), 1))

    @settings(max_examples=50, deadline=None)
    @given(tree=random_general_trees)
    def test_random_sweep_preserves_distribution(self, tree):
        binary, probs = convert_general_to_binary(tree)
        assert validate(binary).ok
        converted = leaf_probabilities(build_fuzzy_matrix(binary, probs))
        original = general_leaf_distribution(tree)
        np.testing.assert_allclose(converted.probs, original.probs, atol=1e-9)


class TestIndicatorRouting:
    def test_choosing_one_edge_zeroes_other_subtrees(self, eight_leaf_general_tree):
        root = eight_leaf_general_tree.root
        pinned = GeneralTree(
            general_node(list(root.children), [0.0, 0.0, 1.0]),
            eight_leaf_general_tree.feature_dim,
        )
        probs = general_leaf_distribution(pinned).probs
        assert not probs[:4].any(), "leaves outside the chosen subtree carry no mass"
        assert probs[4:].sum() == pytest.approx(1.0)

    def test_golden_hard_consistency(self, six_leaf_tree):
        x = instance_for_tests(six_leaf_tree, [0, 0, 1, 1, 0])
        assert naive_traverse(six_leaf_tree, x) == 3
        assert hard_routing_consistency(six_leaf_tree, x)

    def test_all_true_input(self, six_leaf_tree):
        x = instance_for_tests(six_leaf_tree, [1, 1, 1, 1, 1])
        assert hard_routing_consistency(six_leaf_tree, x)

    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(1, 6),
        tree_seed=st.integers(0, 2**31 - 1),
        x_seed=st.integers(0, 2**31 - 1),
    )
    def test_random_sweep(self, depth, tree_seed, x_seed):
        tree = generate_random_tree(depth, 4, tree_seed)
        x = random_instances(1, 4, x_seed)[0]
        assert hard_routing_consistency(tree, x)
