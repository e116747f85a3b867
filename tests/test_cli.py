import contextlib
import copy
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import chain_document, chain_tree, instance_for_tests
from treeflat import (
    ALGORITHMS,
    BinaryDecisionTree,
    Internal,
    Leaf,
    Predicate,
    StackedTrees,
    TreeMatrices,
    batch_score,
    batch_soft_attention,
    build_fuzzy_matrix,
    build_general_path_matrix,
    build_left_matrix,
    build_right_matrix,
    build_signed_matrix,
    ensemble_score,
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
from treeflat import cli, traversal
from treeflat.cli import main
from treeflat.trees import MAX_FEATURE_DIM, dense_products


def reference_rows(values, integer, sep):
    """The per-entry loop ``_format_rows`` replaces."""
    if integer:
        return [sep.join(str(int(v)) for v in row) for row in values]
    return [sep.join(f"{float(v):.12g}" for v in row) for row in values]


def reference_matrix(m, integer):
    return "".join(f"{line}\n" for line in [f"{m.shape[0]} {m.shape[1]}", *reference_rows(m, integer, " ")])


def perfect_tree(depth, dim, seed):
    """A full binary tree with ``2 ** depth`` leaves and one-hot splits."""
    rng = np.random.default_rng(seed)

    def make(level):
        if level == depth:
            return Leaf(float(rng.uniform()))
        predicate = Predicate.one_hot(int(rng.integers(dim)), float(rng.uniform()), dim)
        return Internal(predicate, make(level + 1), make(level + 1))

    return BinaryDecisionTree(make(0), dim)


def invoke(argv, capsys):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def six_leaf_file(tmp_path, six_leaf_tree):
    path = tmp_path / "tree.json"
    path.write_text(serialize_tree(six_leaf_tree))
    return path


@pytest.fixture
def leaf3_instances(tmp_path, six_leaf_tree):
    path = tmp_path / "x.csv"
    x = instance_for_tests(six_leaf_tree, [0, 0, 1, 1, 0])
    path.write_text(",".join(str(v) for v in x) + "\n")
    return path


class TestFlatten:
    def test_right_matrix_dump(self, six_leaf_file, capsys):
        code, out, _ = invoke(["flatten", six_leaf_file, "right"], capsys)
        assert code == 0
        assert out == (
            "6 5\n"
            "0 0 1 1 1\n"
            "0 1 1 1 1\n"
            "1 1 0 0 1\n"
            "1 1 0 1 1\n"
            "1 1 1 1 0\n"
            "1 1 1 1 1\n"
        )

    def test_signed_dump_single_split(self, tmp_path, depth1_tree, capsys):
        path = tmp_path / "small.json"
        path.write_text(serialize_tree(depth1_tree))
        code, out, _ = invoke(["flatten", path, "signed"], capsys)
        assert code == 0
        assert out == "2 1\n-1\n1\n"

    def test_fuzzy_requires_probabilities(self, six_leaf_file, capsys):
        code, _, err = invoke(["flatten", six_leaf_file, "fuzzy"], capsys)
        assert code == 2
        assert "--p" in err

    def test_fuzzy_dump(self, six_leaf_file, capsys):
        code, out, _ = invoke(
            ["flatten", six_leaf_file, "fuzzy", "--p", "0.5,0.5,1,1,1"], capsys
        )
        assert code == 0
        assert out.splitlines()[1] == "0.5 0.5 1 1 1"

    def test_fuzzy_wrong_length_rejected(self, six_leaf_file, capsys):
        code, _, err = invoke(
            ["flatten", six_leaf_file, "fuzzy", "--p", "0.5,0.5"], capsys
        )
        assert code == 2
        assert "5 nodes" in err

    @pytest.mark.parametrize("bad", ["1.5", "-0.5", "nan"])
    def test_fuzzy_out_of_range_rejected(self, six_leaf_file, capsys, bad):
        code, out, err = invoke(
            ["flatten", six_leaf_file, "fuzzy", "--p", f"0.5,0.5,{bad},1,1"], capsys
        )
        assert (code, out) == (2, "")
        assert "[0, 1]" in err

    def test_path_requires_general_tree(self, six_leaf_file, capsys):
        code, _, err = invoke(["flatten", six_leaf_file, "path"], capsys)
        assert code == 2
        assert "general" in err

    def test_path_dump(self, tmp_path, eight_leaf_general_tree, capsys):
        path = tmp_path / "general.json"
        path.write_text(serialize_tree(eight_leaf_general_tree))
        code, out, _ = invoke(["flatten", path, "path"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "8 5"
        assert lines[1] == "0.5 0.7 1 1 1"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, _, err = invoke(["flatten", path, "right"], capsys)
        assert code == 2
        assert "invalid JSON" in err

    def test_chain_nested_too_deeply_exits_2(self, tmp_path, capsys):
        model = tmp_path / "chain.json"
        model.write_text(chain_document(3000))
        data = tmp_path / "x.csv"
        data.write_text("0.3\n")
        for argv in (["flatten", model, "right"], ["score", model, data], ["compare", model, data]):
            code, out, err = invoke(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert err.count("\n") == 1 and "nested too deeply" in err

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        model = tmp_path / "huge.json"
        model.write_text(
            '{"type": "binary", "feature_dim": 1, "root": {"feature": 0, "threshold": 0.5, '
            '"left": {"leaf": 1' + "0" * 400 + '}, "right": {"leaf": 1}}}'
        )
        data = tmp_path / "x.csv"
        data.write_text("0.3\n")
        for argv in (["flatten", model, "right"], ["score", model, data], ["compare", model, data]):
            code, out, err = invoke(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert err.count("\n") == 1 and "too large for a float" in err

    def test_invalid_tree_exits_3(self, tmp_path, capsys):
        # A general tree needs an internal node (a binary one does not).
        path = tmp_path / "leafonly.json"
        path.write_text('{"type": "general", "feature_dim": 1, "root": {"leaf": 1.0}}')
        code, _, err = invoke(["flatten", path, "path"], capsys)
        assert code == 3
        assert "invalid" in err

    def test_every_kind_matches_the_per_entry_reference(self, tmp_path, capsys):
        code, _, _ = invoke(
            ["gen", "--depth", "7", "--dim", "4", "--seed", "31",
             "--out-model", tmp_path / "gen.json", "--out-data", tmp_path / "gen.csv"],
            capsys,
        )
        assert code == 0
        (tmp_path / "full.json").write_text(serialize_tree(perfect_tree(8, 4, 3)))
        for name in ("gen.json", "full.json"):
            path = tmp_path / name
            tree = parse_tree(path.read_text())
            # 0, 1 and -0.0 among the probabilities: the fuzzy matrix then
            # holds 0.0 and 1.0 beside p and 1 - p.
            p = np.random.default_rng(5).uniform(size=tree.num_internal)
            p[:3] = [0.0, 1.0, -0.0]
            expected = {
                "right": reference_matrix(build_right_matrix(tree).entries, True),
                "left": reference_matrix(build_left_matrix(tree).entries, True),
                "signed": reference_matrix(build_signed_matrix(tree), True),
                "fuzzy": reference_matrix(build_fuzzy_matrix(tree, p), False),
            }
            for kind, text in expected.items():
                extra = ["--p", ",".join(f"{v:.17g}" for v in p)] if kind == "fuzzy" else []
                assert invoke(["flatten", path, kind, *extra], capsys) == (0, text, ""), (name, kind)
        general = generate_random_general_tree(4, 4, 6, feature_dim=3)
        path = tmp_path / "general.json"
        path.write_text(serialize_tree(general))
        text = reference_matrix(build_general_path_matrix(parse_tree(path.read_text())), False)
        assert invoke(["flatten", path, "path"], capsys) == (0, text, "")


SPECIAL_FLOATS = [
    -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1
]
SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7)


class TestLoneLeafModel:
    """A binary tree with no internal node is valid: every command runs on
    it, alone or leading an ensemble, and agrees with the oracle."""

    LONE = '{"type": "binary", "feature_dim": 4, "root": {"leaf": 0.25}}'

    def files(self, tmp_path):
        lone, led, data = tmp_path / "lone.json", tmp_path / "led.json", tmp_path / "x.csv"
        lone.write_text(self.LONE)
        other = perfect_tree(5, 4, 9)
        led.write_text(serialize_ensemble([parse_tree(self.LONE), other]))
        X = np.random.default_rng(3).uniform(size=(40, 4))
        X[:2] = [[np.nan, 0.5, 0.5, 0.5], [np.inf, -np.inf, 0.5, np.inf]]
        np.savetxt(data, X, delimiter=",")
        totals = [0.25 + float(other.leaf_values[naive_traverse(other, x) - 1]) for x in X]
        return lone, led, data, [f"{t:.12g}\n" for t in totals]

    def test_every_command_exits_0(self, tmp_path, capsys):
        lone, led, data, totals = self.files(tmp_path)
        for algo in sorted(cli.ALGORITHMS):
            assert invoke(["score", led, data, "--algo", algo], capsys) == (0, "".join(totals), ""), algo
            code, out, err = invoke(["score", lone, data, "--algo", algo], capsys)
            assert (code, out, err) == (0, "1 0.25\n" * 40, ""), algo
        assert invoke(["score", lone, data, "--soft"], capsys) == (0, "1\n" * 40, "")
        for model, count in ((led, 2), (lone, 1)):
            expected = f"all algorithms agree on 40 instances x {count} trees\n"
            assert invoke(["compare", model, data], capsys) == (0, expected, "")
            code, out, err = invoke(["bench", model, data, "--repeat", "1"], capsys)
            assert (code, err) == (0, "") and "ok" in out
        for kind in ("right", "left", "signed"):
            assert invoke(["flatten", lone, kind], capsys) == (0, "1 0\n\n", ""), kind
        # A tree with no node takes an empty probability list.
        assert invoke(["flatten", lone, "fuzzy", "--p", ""], capsys) == (0, "1 0\n\n", "")


class TestFormatRows:
    @settings(max_examples=150, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64, SHAPES, elements=st.sampled_from(SPECIAL_FLOATS) | st.floats(width=64)
        ),
        sep=st.sampled_from([",", " "]),
    )
    @example(values=np.array([SPECIAL_FLOATS * 2]), sep=",")
    @example(values=np.zeros((0, 4)), sep=",")
    @example(values=np.zeros((3, 0)), sep=",")
    def test_floats_match_the_per_entry_reference(self, values, sep):
        assert cli._format_rows(values, ".12g", sep) == reference_rows(values, False, sep)

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.one_of(
            hnp.arrays(np.int64, SHAPES, elements=st.integers(-(2**63), 2**63 - 1) | st.integers(-2, 2)),
            hnp.arrays(np.uint8, SHAPES, elements=st.integers(0, 1)),
        ),
    )
    # A range that holds no more values than the array has entries is keyed
    # through a presence table, at any magnitude.
    @example(values=np.array([[-1, 0, 1, -1], [1, 1, 0, -1]]))
    @example(values=np.array([[-1, 0, 1, 2]]))
    # The boundary: max - min is one less than the size, so the table.
    @example(values=np.array([[2**63 - 1, 2**63 - 3, 2**63 - 2]]))
    @example(values=np.array([[-(2**63), -(2**63) + 2, -(2**63)]]))
    @example(values=np.array([[-7, -4, -5], [-6, -7, -2]]))
    @example(values=np.array([[3, 4], [5, 3]], dtype=np.uint8))
    @example(values=np.array([[9]]))
    # Wider ranges are sorted, the widest too: from max - min equal to the size.
    @example(values=np.array([[-1, 0, 1, 3]]))
    @example(values=np.array([[2**63 - 1, 2**63 - 3]]))
    @example(values=np.array([[-(2**63), -(2**63) + 2]]))
    @example(values=np.array([[-(2**63), 2**63 - 1, 0]]))
    @example(values=np.array([[0, 7, 3], [100, 7, 7]]))
    @example(values=np.array([[0, 255]], dtype=np.uint8))
    @example(values=np.zeros((0, 3), dtype=np.int64))
    @example(values=np.zeros((2, 0), dtype=np.uint8))
    def test_integers_match_the_per_entry_reference(self, values):
        assert cli._format_rows(values, "d", " ") == reference_rows(values, True, " ")

    @pytest.mark.parametrize(
        "values, sorts",
        [
            (np.array([[-3, 0, -1, -2]]), False),  # max - min = size - 1
            (np.array([[-3, 1, -1, -2]]), True),  # max - min = size
            (np.array([[5, 9], [8, 7], [6, 5]], dtype=np.uint8), False),
            (np.array([[5, 9], [8, 7], [6, 11]], dtype=np.uint8), True),
            (np.array([[-(2**63)]]), False),
        ],
    )
    def test_the_range_decides_table_or_sort(self, values, sorts, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        assert cli._format_rows(values, "d", " ") == reference_rows(values, True, " ")
        assert len(calls) == sorts

    @settings(max_examples=150, deadline=None)
    @given(
        codes=hnp.arrays(np.int64, SHAPES, elements=st.integers(-3, 12) | st.integers(-(2**62), 2**62)),
        table=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(width=64), min_size=1, max_size=9),
        sep=st.sampled_from([",", " "]),
    )
    @example(codes=np.array([[0, 1, 0], [1, 2, 2]]), table=[0.0, -0.0, np.nan], sep=",")
    @example(codes=np.array([[2**62, -(2**62)]]), table=[0.1, 0.2], sep=",")
    def test_floats_keyed_by_integer_codes(self, codes, table, sep):
        # Equal codes carry equal values, as score --soft's codes do.
        values = np.asarray(table)[codes % len(table)]
        assert cli._format_rows(values, ".12g", sep, codes) == reference_rows(values, False, sep)


class TestScore:
    def test_sign_scores_leaf3(self, six_leaf_file, leaf3_instances, capsys):
        code, out, _ = invoke(
            ["score", six_leaf_file, leaf3_instances, "--algo", "sign"], capsys
        )
        assert code == 0
        assert out == "3 0.3\n"

    def test_algorithms_produce_identical_output(
        self, six_leaf_file, tmp_path, six_leaf_tree, capsys
    ):
        rng = np.random.default_rng(4)
        data = tmp_path / "batch.csv"
        data.write_text(
            "\n".join(
                ",".join(f"{v:.6f}" for v in row) for row in rng.uniform(size=(25, 5))
            )
            + "\n"
        )
        code, _, _ = invoke(
            [
                "gen", "--depth", "5", "--dim", "5", "--count", "12", "--seed", "6",
                "--instances", "40",
                "--out-model", tmp_path / "ens.json", "--out-data", tmp_path / "ens.csv",
            ],
            capsys,
        )
        assert code == 0
        for model, instances in ((six_leaf_file, data), (tmp_path / "ens.json", tmp_path / "ens.csv")):
            outputs = set()
            for algo in sorted(cli.ALGORITHMS):
                code, out, _ = invoke(["score", model, instances, "--algo", algo], capsys)
                assert code == 0
                outputs.add(out)
            assert len(outputs) == 1
        # A NaN feature fails its node's test, in the oracle as in every
        # arithmetic algorithm, so it routes right: node 0 (x[0] = 0.9) goes
        # left to node 1, whose NaN sends it right, to leaf 2.
        nan_row = tmp_path / "nan.csv"
        nan_row.write_text("0.9,nan,0.1,0.9,0.1\n")
        for model in (six_leaf_file, tmp_path / "ens.json"):
            outputs = set()
            for algo in sorted(cli.ALGORITHMS):
                code, out, err = invoke(["score", model, nan_row, "--algo", algo], capsys)
                assert (code, err) == (0, "")
                outputs.add(out)
            assert len(outputs) == 1
        code, out, _ = invoke(["score", six_leaf_file, nan_row, "--algo", "qs"], capsys)
        assert (code, out) == (0, "2 0.2\n")

    def test_empty_instances_empty_output(self, six_leaf_file, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        code, out, _ = invoke(["score", six_leaf_file, data], capsys)
        assert code == 0
        assert out == ""

    def test_unknown_algorithm_exits_2(self, six_leaf_file, leaf3_instances, capsys):
        code, _, _ = invoke(
            ["score", six_leaf_file, leaf3_instances, "--algo", "fastest"], capsys
        )
        assert code == 2

    def test_csv_cells_parse_as_float_does(self, tmp_path):
        # An underscore, padding and a signed zero: each cell is float()'s value.
        data = tmp_path / "x.csv"
        data.write_text("1_0, inf ,-0.0\n\n0.5,nan,-1e308\n")
        X = cli._load_instances(str(data), 3)
        assert X.dtype == np.float64
        assert [v.hex() for v in X.ravel().tolist()] == [
            v.hex() for v in (10.0, float("inf"), -0.0, 0.5, float("nan"), -1e308)
        ]
        data.write_text("0.1,0.2,0.3\n0.1,,0.3\n")
        with pytest.raises(cli.CliError, match=r"x\.csv:2: not a CSV row of floats") as info:
            cli._load_instances(str(data), 3)
        assert info.value.code == 2

    def test_dimension_mismatch_exits_4(self, six_leaf_file, tmp_path, capsys):
        data = tmp_path / "narrow.csv"
        data.write_text("0.1,0.2\n")
        code, _, err = invoke(["score", six_leaf_file, data], capsys)
        assert code == 4
        assert "columns" in err

    def test_soft_distribution(self, six_leaf_file, leaf3_instances, capsys):
        code, out, _ = invoke(
            ["score", six_leaf_file, leaf3_instances, "--soft"], capsys
        )
        assert code == 0
        probs = [float(v) for v in out.strip().split(",")]
        assert len(probs) == 6
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert int(np.argmax(probs)) + 1 == 3

    def test_soft_text_matches_the_per_entry_reference(self, tmp_path, capsys):
        code, _, _ = invoke(
            ["gen", "--depth", "7", "--dim", "4", "--seed", "31", "--instances", "300",
             "--out-model", tmp_path / "gen.json", "--out-data", tmp_path / "x.csv"],
            capsys,
        )
        assert code == 0
        with open(tmp_path / "x.csv", "a") as fh:
            fh.write("nan,0.5,0.5,0.5\ninf,-inf,inf,-inf\n-0.0,-0.0,-0.0,-0.0\n")
        (tmp_path / "full.json").write_text(serialize_tree(perfect_tree(8, 4, 3)))
        (tmp_path / "lone.json").write_text('{"type": "binary", "feature_dim": 4, "root": {"leaf": 0.5}}')
        # A chain that continues on a random side: its leaves lie at every
        # depth, and some row gives two of them one nonzero P s at different
        # depths, so a text keyed without the depth would print one score twice.
        rng = np.random.default_rng(8)
        node = Leaf(0.5)
        for _ in range(12):
            split, leaf = Predicate.one_hot(int(rng.integers(4)), float(rng.uniform()), 4), Leaf(0.0)
            node = Internal(split, leaf, node) if rng.random() < 0.5 else Internal(split, node, leaf)
        (tmp_path / "skewed.json").write_text(serialize_tree(BinaryDecisionTree(node, 4)))
        X = np.loadtxt(tmp_path / "x.csv", delimiter=",")
        for name in ("gen.json", "full.json", "lone.json", "skewed.json"):
            path = tmp_path / name
            model = StackedTrees.build(parse_model(path.read_text()))
            if name == "skewed.json":
                ps = np.vstack([ps for ps, _ in traversal._soft_chunks(model, X)])
                d = model.leaf_depths
                shared = (ps[:, :, None] == ps[:, None, :]) & (d[:, None] != d) & (ps[:, :, None] != 0)
                assert shared.any()
            # 303 rows of a 256-leaf tree make three chunks.
            text = "".join(
                f"{line}\n"
                for probs in batch_soft_attention(model, X)
                for line in reference_rows(probs.tolist(), False, ",")
            )
            assert invoke(["score", path, tmp_path / "x.csv", "--soft"], capsys) == (0, text, ""), name

    def test_general_tree_not_scorable(self, tmp_path, eight_leaf_general_tree, capsys):
        model = tmp_path / "general.json"
        model.write_text(serialize_tree(eight_leaf_general_tree))
        data = tmp_path / "x.csv"
        data.write_text("0.1,0.2,0.3,0.4\n")
        code, _, err = invoke(["score", model, data], capsys)
        assert code == 3
        assert "binary" in err

    def test_ensemble_scores_are_sums(self, tmp_path, capsys):
        code, _, _ = invoke(
            [
                "gen", "--depth", "3", "--dim", "3", "--count", "4", "--seed", "11",
                "--instances", "6",
                "--out-model", tmp_path / "m.json",
                "--out-data", tmp_path / "d.csv",
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = invoke(
            ["score", tmp_path / "m.json", tmp_path / "d.csv", "--algo", "naive"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        # one summed score per instance, no leaf index for ensembles
        assert all(len(line.split()) == 1 for line in lines)

    def test_soft_rejected_for_ensembles(self, tmp_path, capsys):
        invoke(
            [
                "gen", "--depth", "2", "--dim", "2", "--count", "2", "--seed", "3",
                "--out-model", tmp_path / "m.json", "--out-data", tmp_path / "d.csv",
            ],
            capsys,
        )
        code, _, err = invoke(
            ["score", tmp_path / "m.json", tmp_path / "d.csv", "--soft"], capsys
        )
        assert code == 2
        assert "single tree" in err

    def test_totals_fold_from_zero_on_every_path(self, tmp_path, capsys):
        # Exit leaves of 1e16, 1.0 and -1e16 in model order: the fold from 0.0
        # loses the 1.0, where Python 3.12's compensated sum() keeps it.
        trees = [
            BinaryDecisionTree(Internal(Predicate.one_hot(0, 0.5, 2), Leaf(v), Leaf(v)), 2)
            for v in (1e16, 1.0, -1e16)
        ]
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        model.write_text(serialize_ensemble(trees))
        X = np.array([[0.25, 0.5], [0.5, 0.5], [0.75, 0.5]])
        np.savetxt(data, X, delimiter=",")
        for algo in sorted(cli.ALGORITHMS):
            assert invoke(["score", model, data, "--algo", algo], capsys) == (0, "0\n" * 3, ""), algo
            models = [TreeMatrices.build(t) for t in parse_model(model.read_text())]
            # The first call stacks the model, the second and third are warm.
            for call in range(3):
                totals = [ensemble_score(models, x, algo) for x in X]
                assert [t.hex() for t in totals] == [(0.0).hex()] * 3, (algo, call)
            # Every name, naive too, scores a stacked model.
            assert models[0]._stack.trees == tuple(m.tree for m in models), algo


def test_scoring_never_builds_the_path_table(tmp_path, capsys, monkeypatch):
    """Only the dense matrix builders and ``leaf_distribution`` build a
    tree's (leaf, ancestor) table; loading, set-up, ``score`` and
    ``compare`` never do, so they pay neither its time nor its memory."""
    # 64 leaves run the word kernels, 128 the span form.
    built = [perfect_tree(6, 5, 1), perfect_tree(7, 5, 2)]
    model, single, data = tmp_path / "m.json", tmp_path / "s.json", tmp_path / "x.csv"
    model.write_text(serialize_ensemble(built))
    single.write_text(serialize_tree(built[0]))
    X = np.random.default_rng(4).uniform(size=(20, 5))
    data.write_text("".join(",".join(map(str, row)) + "\n" for row in X))
    loaded = []
    real_parse = cli.parse_model

    def parse_and_keep(text):
        trees = real_parse(text)
        loaded.extend(trees)
        return trees

    monkeypatch.setattr(cli, "parse_model", parse_and_keep)
    for algo in sorted(cli.ALGORITHMS):
        assert invoke(["score", model, data, "--algo", algo], capsys)[0] == 0, algo
    assert invoke(["score", single, data, "--soft"], capsys)[0] == 0
    assert invoke(["compare", model, data], capsys)[0] == 0
    assert len(loaded) == 2 * len(cli.ALGORITHMS) + 3
    for trees in (built, loaded[:2]):
        for tree in trees:
            TreeMatrices.build(tree)
        stacked = StackedTrees.build(trees)
        for algo in sorted(set(cli.ALGORITHMS) - {"naive"}):
            list(batch_score(stacked, X, algo))
    list(batch_soft_attention(StackedTrees.build(built[:1]), X))
    assert not [t for t in built + loaded if "_path_cells" in t.__dict__]
    build_right_matrix(built[0])
    assert "_path_cells" in built[0].__dict__


class TestCompare:
    def test_agreement_exits_zero(self, six_leaf_file, tmp_path, capsys):
        rng = np.random.default_rng(8)
        data = tmp_path / "batch.csv"
        data.write_text(
            "\n".join(",".join(map(str, row)) for row in rng.uniform(size=(30, 5)))
            + "\n"
        )
        code, out, _ = invoke(["compare", six_leaf_file, data], capsys)
        assert code == 0
        assert "agree" in out

    def test_agreement_over_many_chunks(self, tmp_path, capsys, monkeypatch):
        # Trees of at most 64 leaves, so qs and dual run the word kernels
        # while the other algorithms run the span form, two rows per chunk.
        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        argv = ["gen", "--depth", "6", "--dim", "5", "--count", "30", "--instances", "40"]
        assert invoke(argv + ["--out-model", model, "--out-data", data], capsys)[0] == 0
        trees = parse_model(model.read_text())
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 2 * (sum(t.num_leaves for t in trees) + 1))
        code, out, _ = invoke(["compare", model, data], capsys)
        assert (code, out) == (0, "all algorithms agree on 40 instances x 30 trees\n")

    def test_non_finite_rows_agree_without_warnings(self, tmp_path, capsys):
        # Every path must route a NaN row right, and an inf row by sign
        # without numpy warning of 0 * inf.
        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        argv = ["gen", "--depth", "4", "--dim", "3", "--count", "1", "--seed", "3"]
        assert invoke(argv + ["--out-model", model, "--out-data", data], capsys)[0] == 0
        clean = data.read_text()
        for rows in ("nan,0.5,0.5\n", "inf,-inf,0.5\n-inf,inf,inf\n"):
            data.write_text(clean + rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = invoke(["compare", model, data], capsys)
            count = 50 + rows.count("\n")
            assert (code, out, err) == (0, f"all algorithms agree on {count} instances x 1 trees\n", "")

    @pytest.mark.parametrize("product", ["dot", "dense_products"])
    def test_dense_weight_ties_agree(self, tmp_path, capsys, product):
        # A full tree of 7 dense nodes over 50 features, each threshold the
        # product of instance 4: its 1-D dot product, which a matrix product
        # over many rows can round differently, or its ``dense_products``
        # value, an exact tie.
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(1200, 50))
        W = rng.uniform(-1.0, 1.0, (7, 50))
        if product == "dot":
            thresholds = [float(w @ X[4]) for w in W]
        else:
            thresholds = dense_products(W, X[4]).tolist()

        def node(j):
            if j >= 7:
                return Leaf(float(j - 6))
            return Internal(Predicate(W[j], thresholds[j]), node(2 * j + 1), node(2 * j + 2))

        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        model.write_text(serialize_tree(BinaryDecisionTree(node(0), 50)))
        data.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = invoke(["compare", model, data], capsys)
        assert (code, out) == (0, "all algorithms agree on 1200 instances x 1 trees\n")
        if product == "dense_products":  # instance 4 ties every node: false, right, right
            assert invoke(["score", model, data, "--algo", "naive"], capsys)[1].splitlines()[4] == "8 8"

    def test_single_split_single_instance(self, tmp_path, depth1_tree, capsys):
        model = tmp_path / "m.json"
        model.write_text(serialize_tree(depth1_tree))
        data = tmp_path / "d.csv"
        data.write_text("0.9\n")
        code, _, _ = invoke(["compare", model, data], capsys)
        assert code == 0

    def test_corrupted_matrices_are_caught(self, six_leaf_tree):
        # A negated depth vector keeps exactly one hit per tree for the
        # signed rule, P s = -d, on the leaf whose every ancestor test went
        # the other way, so the corruption shows as a wrong leaf, not an error.
        # The six-leaf tree runs dual on words, so dualmatrix, the first name
        # on the signed rule, reports it.
        model = StackedTrees.build([six_leaf_tree])
        corrupt = dataclasses.replace(model, leaf_depths=-model.leaf_depths)
        X = instance_for_tests(six_leaf_tree, [1, 0, 0, 0, 0])[None, :]
        bad = cli._first_disagreement(corrupt, X)
        assert bad is not None
        assert bad.algorithm == "dualmatrix"
        assert bad.leaf != bad.expected == naive_traverse(six_leaf_tree, X[0])

    def test_corrupt_spans_or_leaf_starts_keep_the_oracle_leaf(self):
        # The oracle descends the trees the model was built from, never its
        # stacked arrays.  Two perfect trees of 128 leaves (the span form for
        # every rule) with their node spans swapped: each tree's leaves are
        # chosen by the other's tests, one hit per tree under every rule.  A
        # one-tree model whose leaf axis starts at 1: every leaf is one less.
        trees = [perfect_tree(7, 4, seed) for seed in (1, 2)]
        model = StackedTrees.build(trees)
        nodes = model.node_starts[1]
        corrupt = [
            dataclasses.replace(model, spans=np.concatenate([model.spans[nodes:], model.spans[:nodes]])),
            dataclasses.replace(StackedTrees.build(trees[:1]), leaf_starts=np.array([1])),
        ]
        X = np.random.default_rng(3).uniform(size=(20, 4))
        for bad_model in corrupt:
            bad = cli._first_disagreement(bad_model, X)
            assert bad is not None
            assert bad.leaf != bad.expected == naive_traverse(trees[bad.tree], X[bad.instance])

    def test_oracle_descends_each_pair_once(self, tmp_path, capsys, monkeypatch):
        trees = [perfect_tree(depth, 3, depth) for depth in (2, 3, 5)]
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        model.write_text(serialize_ensemble(trees))
        X = np.random.default_rng(4).uniform(size=(25, 3))
        np.savetxt(data, X, delimiter=",")
        # Chunks of 4 rows, so rows come from several chunks.
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 4 * (sum(t.num_leaves for t in trees) + 1))
        pairs = []
        real = traversal._descend
        monkeypatch.setattr(
            traversal, "_descend", lambda tree, values: pairs.append((id(tree), tuple(values))) or real(tree, values)
        )
        assert invoke(["compare", model, data], capsys) == (
            0, "all algorithms agree on 25 instances x 3 trees\n", ""
        )
        assert len(pairs) == len(set(pairs)) == 25 * 3

    def test_disagreement_exits_one_with_triple(
        self, six_leaf_file, leaf3_instances, capsys, monkeypatch
    ):
        wrong_leaves(monkeypatch, {"ecoc": [(0, 0)]})
        code, out, _ = invoke(["compare", six_leaf_file, leaf3_instances], capsys)
        assert code == 1
        assert "instance=0" in out
        assert "algorithm=ecoc" in out
        assert "leaf=1" in out

    @pytest.mark.parametrize(
        "wrong, line",
        [
            # instance before tree before algorithm
            (
                {"qs": [(2, 0)], "sign": [(1, 1)], "delta": [(1, 0)]},
                "instance=1 algorithm=delta leaf=1 (oracle leaf=2, tree=0)",
            ),
            # a later tree of an earlier instance beats an earlier tree
            (
                {"qs": [(2, 0)], "delta": [(1, 1)]},
                "instance=1 algorithm=delta leaf=1 (oracle leaf=2, tree=1)",
            ),
            # algorithms in ALGORITHMS order within one pair
            (
                {"delta": [(0, 1)], "dual": [(0, 1)], "ecoc": [(0, 1)]},
                "instance=0 algorithm=dual leaf=1 (oracle leaf=2, tree=1)",
            ),
        ],
    )
    def test_disagreement_order_is_instance_tree_algorithm(
        self, tmp_path, depth1_tree, capsys, monkeypatch, wrong, line
    ):
        model = tmp_path / "m.json"
        model.write_text(serialize_ensemble([depth1_tree, depth1_tree]))
        data = tmp_path / "d.csv"
        data.write_text("0.1\n0.2\n0.3\n")  # every row exits at leaf 2
        # One row per chunk, so rows 1 and 2 come from later chunks.
        monkeypatch.setattr(traversal, "CHUNK_ENTRIES", 1)
        wrong_leaves(monkeypatch, wrong)
        code, out, _ = invoke(["compare", model, data], capsys)
        assert (code, out) == (1, f"disagreement: {line}\n")


def wrong_leaves(monkeypatch, wrong):
    """Make ``cli.batch_leaves`` report leaf 1 (or 2 where the truth is 1) at
    the given (instance, tree) pairs of the given algorithms."""
    real = cli.batch_leaves

    def patched(model, X, names):
        start = 0
        for leaves in real(model, X, names):
            leaves = leaves.copy()
            for a, name in enumerate(names):
                for i, k in wrong.get(name, []):
                    if start <= i < start + len(leaves):
                        leaves[i - start, k, a] = 2 if leaves[i - start, k, a] == 1 else 1
            start += len(leaves)
            yield leaves

    monkeypatch.setattr(cli, "batch_leaves", patched)


class TestBench:
    def test_smoke_report_has_all_rows(self, six_leaf_file, leaf3_instances, capsys):
        code, out, _ = invoke(
            ["bench", six_leaf_file, leaf3_instances, "--repeat", "1"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + len(cli.ALGORITHMS)
        for name in cli.ALGORITHMS:
            assert any(line.startswith(name) for line in lines[1:])

    def test_csv_report(self, six_leaf_file, leaf3_instances, capsys):
        code, out, _ = invoke(
            ["bench", six_leaf_file, leaf3_instances, "--repeat", "1", "--csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "algorithm,instances_per_second,total_ns,leaf_agreement"
        assert len(lines) == 1 + len(cli.ALGORITHMS)
        assert all(line.endswith(",true") for line in lines[1:])

    def test_throughput_is_positive_on_an_ensemble(self, tmp_path, capsys):
        invoke(
            [
                "gen", "--depth", "3", "--dim", "4", "--count", "10", "--seed", "21",
                "--instances", "200",
                "--out-model", tmp_path / "m.json", "--out-data", tmp_path / "d.csv",
            ],
            capsys,
        )
        code, out, _ = invoke(
            ["bench", tmp_path / "m.json", tmp_path / "d.csv", "--repeat", "1", "--csv"],
            capsys,
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            name, per_second, total_ns, _ = line.split(",")
            assert float(per_second) > 0
            assert int(total_ns) > 0
        names = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
        assert {"naive", "matrix"} <= names

    def test_disagreement_blocks_timing(
        self, six_leaf_file, leaf3_instances, capsys, monkeypatch
    ):
        wrong_leaves(monkeypatch, {"matrix": [(0, 0)]})
        code, out, _ = invoke(
            ["bench", six_leaf_file, leaf3_instances, "--repeat", "1"], capsys
        )
        assert code == 1
        assert "disagreement" in out
        assert "instances_per_second" not in out

    def test_zero_repeat_rejected(self, six_leaf_file, leaf3_instances, capsys):
        code, _, _ = invoke(
            ["bench", six_leaf_file, leaf3_instances, "--repeat", "0"], capsys
        )
        assert code == 2


def scoring_runs(tmp_path, capsys):
    """Every scoring command (each ``--algo``, ``--soft``, ``compare`` and
    ``bench``) on a generated single tree and a 6-tree ensemble."""
    runs = []
    for count in (1, 6):
        model, data = tmp_path / f"m{count}.json", tmp_path / f"d{count}.csv"
        code, _, _ = invoke(
            [
                "gen", "--depth", "4", "--dim", "3", "--count", count, "--seed", "5",
                "--instances", "20", "--out-model", model, "--out-data", data,
            ],
            capsys,
        )
        assert code == 0
        runs += [["score", model, data, "--algo", algo] for algo in sorted(cli.ALGORITHMS)]
        runs += [["compare", model, data], ["bench", model, data, "--repeat", "1"]]
        if count == 1:
            runs.append(["score", model, data, "--soft"])
    return runs


class TestOneScoringPath:
    def test_no_command_builds_tree_matrices(self, tmp_path, capsys, monkeypatch):
        def refuse(tree):
            raise AssertionError("the CLI must not build TreeMatrices")

        monkeypatch.setattr(TreeMatrices, "build", refuse)
        for argv in scoring_runs(tmp_path, capsys):
            code, out, err = invoke(argv, capsys)
            assert (code, err) == (0, ""), argv
            assert out

    def test_no_command_builds_node_objects(self, tmp_path, capsys, monkeypatch):
        """Parsed models stay node arrays on every scoring path."""
        runs = scoring_runs(tmp_path, capsys)

        def refuse(tree):
            raise AssertionError("a scoring command built node objects")

        monkeypatch.setattr(BinaryDecisionTree, "_node_view", refuse)
        for argv in runs:
            code, out, err = invoke(argv, capsys)
            assert (code, err) == (0, ""), argv
            assert out


class TestGen:
    def test_deterministic_outputs(self, tmp_path, capsys):
        args = [
            "gen", "--depth", "3", "--dim", "4", "--count", "1", "--seed", "7",
            "--instances", "5",
        ]
        for tag in ("a", "b"):
            code, _, _ = invoke(
                args
                + ["--out-model", tmp_path / f"m{tag}.json", "--out-data", tmp_path / f"d{tag}.csv"],
                capsys,
            )
            assert code == 0
        assert (tmp_path / "ma.json").read_bytes() == (tmp_path / "mb.json").read_bytes()
        assert (tmp_path / "da.csv").read_bytes() == (tmp_path / "db.csv").read_bytes()

    def test_general_trees_validate(self, tmp_path, capsys):
        code, _, _ = invoke(
            [
                "gen", "--general", "--depth", "3", "--dim", "2", "--count", "2",
                "--seed", "5", "--fanout", "4",
                "--out-model", tmp_path / "g.json", "--out-data", tmp_path / "g.csv",
            ],
            capsys,
        )
        assert code == 0
        trees = parse_model((tmp_path / "g.json").read_text())
        assert len(trees) == 2
        for tree in trees:
            assert validate(tree).ok

    def test_tree_nested_too_deeply_exits_2(self, tmp_path, capsys):
        # Seed 3684 samples a tree deeper than the serializer can write.
        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        code, _, err = invoke(
            [
                "gen", "--depth", "1500", "--dim", "1", "--count", "1", "--instances", "1",
                "--seed", "3684", "--out-model", model, "--out-data", data,
            ],
            capsys,
        )
        assert code == 2
        assert err.count("\n") == 1 and "nested too deeply" in err
        assert not model.exists() and not data.exists()

    def test_instances_are_drawn_and_written_a_chunk_at_a_time(self, tmp_path, capsys, monkeypatch):
        # With the bound at 12 values and chunks of 5, 4 rows of 3 are drawn
        # in chunks that split rows, and give the text of one whole draw
        # after the tree seeds, row by row; 5 rows are refused before any
        # sampling or file.
        argv = ["gen", "--depth", "2", "--dim", "3", "--seed", "4"]
        rng = np.random.default_rng(4)
        rng.integers(0, 2**63 - 1, size=1)
        whole = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rng.uniform(size=(4, 3)))
        spies, real_rng = [], np.random.default_rng

        class Spy:
            """A generator that records its ``uniform`` draws' sizes."""

            def __init__(self, seed):
                self.rng, self.sizes = real_rng(seed), []
                spies.append(self)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def uniform(self, *args, **kwargs):
                self.sizes.append(kwargs.get("size"))
                return self.rng.uniform(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        monkeypatch.setattr(cli, "MAX_FEATURE_DIM", 12)
        monkeypatch.setattr(cli, "GEN_CHUNK_VALUES", 5)
        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        code, _, _ = invoke([*argv, "--instances", "4", "--out-model", model, "--out-data", data], capsys)
        assert code == 0 and spies[0].sizes == [5, 5, 2]  # gen's own generator
        assert data.read_text() == whole
        model.unlink(), data.unlink()
        code, out, err = invoke([*argv, "--instances", "5", "--out-model", model, "--out-data", data], capsys)
        assert (code, out) == (2, "")
        assert err == "treeflat: --instances 5 x --dim 3: more than 12 values\n"
        assert not model.exists() and not data.exists()

    def test_instances_read_back_as_drawn(self, tmp_path, capsys, monkeypatch):
        # gen writes each draw with 17 significant digits, which the C reader
        # must convert back to the very double: no float() fallback runs.
        argv = ["gen", "--depth", "3", "--dim", "7", "--count", "2", "--seed", "29", "--instances", "600"]
        rng = np.random.default_rng(29)
        rng.integers(0, 2**63 - 1, size=2)
        drawn = rng.uniform(size=(600, 7))
        data = tmp_path / "d.csv"
        code, _, _ = invoke([*argv, "--out-model", tmp_path / "m.json", "--out-data", data], capsys)
        assert code == 0
        monkeypatch.setattr(cli, "_parse_instances", lambda *args: pytest.fail("the float() loop ran"))
        X = cli._load_instances(str(data), 7)
        np.testing.assert_array_equal(X.view(np.int64), drawn.view(np.int64))

    @pytest.mark.parametrize("count", ["1", "2"])
    def test_tree_too_deep_to_write_exits_2(self, tmp_path, capsys, monkeypatch, count):
        # A sampled chain too deep for the serializer, but not for the sampler.
        monkeypatch.setattr(cli, "generate_random_tree", lambda *args: chain_tree(3000))
        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        code, _, err = invoke(
            ["gen", "--count", count, "--out-model", model, "--out-data", data], capsys
        )
        assert code == 2
        assert err.count("\n") == 1 and "nested too deeply" in err
        assert not model.exists() and not data.exists()

    def test_count_makes_ensembles(self, tmp_path, capsys):
        code, _, _ = invoke(
            [
                "gen", "--depth", "2", "--dim", "2", "--count", "100", "--seed", "2",
                "--out-model", tmp_path / "e.json", "--out-data", tmp_path / "e.csv",
            ],
            capsys,
        )
        assert code == 0
        assert len(parse_model((tmp_path / "e.json").read_text())) == 100

    def test_nonpositive_arguments_rejected(self, tmp_path, capsys):
        code, _, _ = invoke(["gen", "--depth", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            # A general node has at least two children, so the sampler
            # needs a fanout of 2 or more.
            (["--general", "--fanout", "1"], "argument --fanout: must be at least 2"),
            (["--general", "--fanout", "0"], "argument --fanout: must be at least 2"),
            # No row of this many float features can be allocated.
            (["--dim", str(MAX_FEATURE_DIM + 1)], f"argument --dim: must be at most {MAX_FEATURE_DIM}"),
            (["--dim", str(2**62)], f"argument --dim: must be at most {MAX_FEATURE_DIM}"),
        ],
    )
    def test_arguments_the_samplers_refuse_are_usage_errors(self, tmp_path, capsys, argv, message):
        model, data = tmp_path / "m.json", tmp_path / "m.csv"
        code, out, err = invoke(["gen", *argv, "--out-model", model, "--out-data", data], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(message) and "Traceback" not in err
        assert not model.exists() and not data.exists()

    def test_fanout_of_2_makes_two_children_a_node(self, tmp_path, capsys):
        model = tmp_path / "g.json"
        argv = ["gen", "--general", "--fanout", "2", "--depth", "4", "--seed", "3"]
        code, _, _ = invoke([*argv, "--out-model", model, "--out-data", tmp_path / "g.csv"], capsys)
        assert code == 0
        [tree] = parse_model(model.read_text())
        nodes, counts = [tree.root], []
        while nodes:
            node = nodes.pop()
            if not isinstance(node, Leaf):
                counts.append(len(node.children))
                nodes.extend(node.children)
        assert counts and set(counts) == {2}


class TestUnreadableInput:
    """A model or instance file that is not UTF-8 text is a usage error:
    exit 2 and one line naming the file, never a traceback or exit 1, which
    stays reserved for a disagreement."""

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("flatten", "model"),
            ("score", "model"),
            ("score", "csv"),
            ("compare", "model"),
            ("compare", "csv"),
            ("bench", "model"),
            ("bench", "csv"),
        ],
    )
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, six_leaf_file, leaf3_instances, command, bad):
        model, csv = six_leaf_file, leaf3_instances
        if bad == "model":
            model = tmp_path / "bad.json"
            model.write_bytes(b'\xff\xfe{"type": "binary"}')
        else:
            csv = tmp_path / "bad.csv"
            csv.write_bytes(leaf3_instances.read_bytes() + b"0.5,\xff\n")
        argv = {
            "flatten": ["flatten", model, "right"],
            "score": ["score", model, csv],
            "compare": ["compare", model, csv],
            "bench": ["bench", model, csv, "--repeat", "1"],
        }[command]
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (2, "")
        path = model if bad == "model" else csv
        assert err.startswith(f"treeflat: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


# Values a mutation puts in place of any JSON value: non-finite numbers,
# one that overflows a float (the marker becomes the bare token 1e400),
# integers too large for a float or an index, bools, strings, null and
# containers.
HOSTILE_VALUES = [
    math.nan, math.inf, -math.inf, "@1e400@", 10**400, 2**63, -1, 0, 1, 3, 0.5,
    True, False, "0.5", "", None, [], {}, [0.5], {"leaf": 0.5},
]
# What a CSV cell may become: words float() reads, lenient ones among them,
# and text it refuses.
HOSTILE_CELLS = [
    "nan", "inf", "-inf", "NaN", "Infinity", "1e400", "1_0", "٣", "0x1p-2", "", " ", "a", "1;2",
    "1.5\x1f", "\x0c1.5",
]


def json_slots(doc):
    """Every (container, key) pair inside a JSON value."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
        for key in keys:
            found.append((node, key))
            stack.append(node[key])
    return found


@st.composite
def mutated_model(draw, dim):
    """A ``gen`` document of binary trees (general ones a quarter of the
    time), then up to three mutations of its values and keys: a hostile
    value, a dropped or extra key, a node nested in an ensemble, or a
    feature swapped for dense weights.  Then, a quarter of the time, text
    damage: a BOM, a duplicate key, a truncation or a byte that is not
    UTF-8."""
    count, depth = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=count, max_size=count))
    if draw(st.integers(0, 3)) == 3:
        trees = [generate_random_general_tree(depth, 3, s, feature_dim=dim) for s in seeds]
    else:
        trees = [generate_random_tree(depth, dim, s) for s in seeds]
    doc = {"doc": json.loads(serialize_tree(trees[0]) if count == 1 else serialize_ensemble(trees))}
    for _ in range(draw(st.integers(0, 3))):
        places = json_slots(doc)
        node, key = places[draw(st.integers(0, len(places) - 1))]
        kind = draw(st.sampled_from(["value", "drop", "extra", "nest", "dense"]))
        if kind == "value":
            # A copy: later mutations must not change the constant.
            node[key] = copy.deepcopy(draw(st.sampled_from(HOSTILE_VALUES)))
        elif kind == "drop" and key != "doc":
            del node[key]
        elif kind == "extra" and isinstance(node[key], dict):
            node[key][draw(st.sampled_from(["extra", "leaf", "feature", "children", "trees"]))] = 0.5
        elif kind == "nest":
            node[key] = {"type": "ensemble", "trees": [node[key]]}
        elif kind == "dense" and isinstance(node[key], dict) and "feature" in node[key]:
            del node[key]["feature"]
            node[key]["weights"] = draw(st.lists(st.sampled_from([0.0, 0.5, -1.0, 1.0, math.nan]), max_size=4))
    raw = json.dumps(doc["doc"]).replace('"@1e400@"', "1e400").encode()
    damage = draw(st.sampled_from(["bom", "duplicate", "truncate", "latin1"])) if draw(st.integers(0, 3)) == 3 else None
    if damage == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif damage == "duplicate":
        key = draw(st.sampled_from(["threshold", "feature", "leaf", "feature_dim", "type", "weights"])).encode()
        raw = raw.replace(b'"%s": ' % key, b'"%s": 0.5, "%s": ' % (key, key), 1)
    elif damage == "truncate":
        raw = raw[: draw(st.integers(0, len(raw)))]
    elif damage == "latin1":
        raw = raw.replace(b'"', b'"\xe9', 1)
    return raw


@st.composite
def mutated_csv(draw, dim):
    """Up to four ``gen``-like rows of ``dim`` floats, then up to three
    mutations: a header, a blank line, a row one cell short or long, a
    hostile cell, semicolons for commas; and, one time in twenty, a byte
    that is not UTF-8."""
    count = draw(st.integers(0, 4))
    lines = [",".join(repr(v) for v in random_instances(1, dim, i)[0].tolist()) for i in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["header", "blank", "width", "cell", "semicolon"]))
        if kind == "header":
            lines.insert(0, ",".join(f"x{i}" for i in range(dim)))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
        elif at < len(lines):
            cells = lines[at].split(",")
            if kind == "width":
                cells = cells[:-1] if draw(st.booleans()) else cells + ["0.5"]
            elif kind == "cell":
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(HOSTILE_CELLS))
            lines[at] = (";" if kind == "semicolon" else ",").join(cells)
    raw = "".join(line + "\n" for line in lines).encode()
    return raw + b"\xff\n" if draw(st.integers(0, 19)) == 19 else raw


class TestExitCodeContract:
    """Whatever the loaders are fed, every command exits 0, 2, 3 or 4: no
    exception escapes ``main``, a failure prints one line to stderr and a
    success none, and ``compare`` never exits 1, which means a real
    disagreement, on a model that ``validate`` accepts."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.integers(1, 3).flatmap(lambda dim: st.tuples(mutated_model(dim), mutated_csv(dim))),
        algo=st.sampled_from(sorted(ALGORITHMS)),
        kind=st.sampled_from(["right", "left", "signed", "path"]),
    )
    # A threshold that overflows a float, and a leaf too large for one.
    @example(
        case=(
            b'{"type": "binary", "feature_dim": 1, "root": {"feature": 0, "threshold": 1e400,'
            b' "left": {"leaf": 0.5}, "right": {"leaf": 1%s}}}' % (b"0" * 400),
            b"0.5\n",
        ),
        algo="sign",
        kind="right",
    )
    # The lenient reads: a duplicate key keeps its last value, and CSV
    # cells read as Python's float() reads them.
    @example(
        case=(
            b'{"type": "binary", "feature_dim": 2, "root": {"feature": 5, "feature": 1, "threshold": 0.5,'
            b' "left": {"leaf": 0.5}, "right": {"leaf": 1}}}',
            "1_0,٣\nnan,-inf\n".encode(),
        ),
        algo="dualmatrix",
        kind="signed",
    )
    # Rows of two widths are a data mismatch, not an array numpy refuses.
    @example(
        case=(
            b'{"type": "binary", "feature_dim": 2, "root": {"feature": 1, "threshold": 0.5,'
            b' "left": {"leaf": 0.5}, "right": {"leaf": 1}}}',
            b"0.5,0.5\n0.5\n",
        ),
        algo="qs",
        kind="left",
    )
    def test_every_command_keeps_the_exit_codes(self, case, algo, kind):
        model_bytes, csv_bytes = case
        with tempfile.TemporaryDirectory() as tmp:
            model, data = Path(tmp, "m.json"), Path(tmp, "d.csv")
            model.write_bytes(model_bytes)
            data.write_bytes(csv_bytes)
            for argv in (
                ["compare", model, data],
                ["score", model, data, "--algo", algo],
                ["score", model, data, "--soft"],
                ["flatten", model, kind],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([str(a) for a in argv])
                assert code in (0, 2, 3, 4), (argv, code, out.getvalue())
                expected = "" if code == 0 else "treeflat: "
                assert err.getvalue().startswith(expected), (argv, err.getvalue())
                assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())


def reference_instances(path, text, feature_dim):
    """What ``_load_instances`` must give for a text: one ``float()`` per
    cell of each line that is not blank, as an array, or the (code,
    message) of the ``CliError`` it must raise."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError:
            return 2, f"{path}:{lineno}: not a CSV row of floats"
    widths = sorted({len(row) for row in rows})
    if widths and widths != [feature_dim]:
        return 4, f"{path}: rows have {widths} columns, model expects {feature_dim}"
    return np.array(rows, dtype=np.float64).reshape(len(rows), feature_dim)


# Text the C reader and float() might read apart: U+001F, which the C
# reader strips as whitespace and float() refuses; the line ends of
# splitlines (U+000B, U+000C, U+001C to U+001E, U+0085, U+2028, CR LF);
# whitespace float() strips (U+00A0, space, tab); and the lenient reads
# (an underscore, an Arabic-Indic digit).
CELL_NOISE = ["\x1f", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\xa0", " ", "\t", "\r\n", "_", "٣"]


@st.composite
def instance_text(draw, dim):
    """Up to five lines: rows of ``dim`` cells, ragged rows, and blank or
    whitespace-only lines; a cell is a float's repr or a hostile cell, and
    may carry noise before, after or inside it.  Lines end in LF or CR LF,
    the last one or not."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", "\x1f", " \x85 ", "\u2028"])))
            continue
        width = dim if kind == "row" else draw(st.integers(1, dim + 2))
        cells = []
        for _ in range(width):
            if draw(st.integers(0, 4)) == 4:
                cell = draw(st.sampled_from(HOSTILE_CELLS))
            else:
                cell = repr(draw(st.floats(width=64)))
            for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
                at = draw(st.integers(0, len(cell)))
                cell = cell[:at] + draw(st.sampled_from(CELL_NOISE)) + cell[at:]
            cells.append(cell)
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if lines and draw(st.booleans()) else "")


class TestInstanceLoader:
    """``_load_instances`` reads a CSV as one ``float()`` per cell would,
    whichever reader takes it: the same float64 bits, or the same error."""

    @staticmethod
    def check(text, dim):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "d.csv")
            path.write_bytes(text.encode("utf-8"))
            expected = reference_instances(str(path), text, dim)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = cli._load_instances(str(path), dim)
                except cli.CliError as exc:
                    assert (exc.code, str(exc)) == expected
                    return
        assert isinstance(expected, np.ndarray), (got, expected)
        assert got.dtype == np.float64 and got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(max_examples=400, deadline=None)
    @given(case=st.integers(1, 3).flatmap(lambda dim: st.tuples(instance_text(dim), st.just(dim))))
    @example(case=("0.5\x1f,0.25\n", 2))  # the C reader alone would read 0.5
    @example(case=("\x1f0.5\n0.25\n", 1))
    @example(case=("1_0,٣\r\n-0.0,nan\r\n", 2))
    @example(case=("0.5,0.5\n0.5\n", 2))  # ragged
    @example(case=("0.5,0.5,0.5\n", 2))  # the wrong width
    @example(case=("", 2))
    @example(case=("\n \n\t\n", 2))
    def test_matches_float_per_cell(self, case):
        self.check(*case)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "treeflat", "gen",
            "--depth", "2", "--dim", "2", "--seed", "1",
            "--out-model", str(tmp_path / "t.json"),
            "--out-data", str(tmp_path / "t.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [
            sys.executable, "-m", "treeflat", "compare",
            str(tmp_path / "t.json"), str(tmp_path / "t.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_pipe_ends_quietly(tmp_path, six_leaf_file):
    # More output than a pipe buffers, so the reader closes it mid-write.
    data = tmp_path / "x.csv"
    np.savetxt(data, np.random.default_rng(0).uniform(size=(40_000, 5)), fmt="%.3f", delimiter=",")
    proc = subprocess.Popen(
        [sys.executable, "-m", "treeflat", "score", str(six_leaf_file), str(data)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 1
    assert err == b""
