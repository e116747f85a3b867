import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from conftest import chain_document, instance_for_tests
from treeflat import (
    StackedTrees,
    TreeMatrices,
    parse_model,
    serialize_ensemble,
    serialize_tree,
    validate,
)
from treeflat import cli, traversal
from treeflat.cli import main


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
        path = tmp_path / "leafonly.json"
        path.write_text('{"type": "binary", "feature_dim": 1, "root": {"leaf": 1.0}}')
        code, _, err = invoke(["flatten", path, "right"], capsys)
        assert code == 3
        assert "invalid" in err


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
        # A NaN feature fails every `<=` test, so the arithmetic algorithms
        # see only true nodes and exit at the leftmost leaf; the oracle's `>`
        # test sends it right instead, so it is left out until non-finite
        # inputs get one defined meaning.
        nan_row = tmp_path / "nan.csv"
        nan_row.write_text("0.9,nan,0.1,0.9,0.1\n")
        for model in (six_leaf_file, tmp_path / "ens.json"):
            outputs = set()
            for algo in sorted(cli.ALGORITHMS):
                if algo != "naive":
                    code, out, _ = invoke(["score", model, nan_row, "--algo", algo], capsys)
                    assert code == 0
                    outputs.add(out)
            assert len(outputs) == 1
        code, out, _ = invoke(["score", six_leaf_file, nan_row, "--algo", "qs"], capsys)
        assert (code, out) == (0, "1 0.1\n")

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

    def test_single_split_single_instance(self, tmp_path, depth1_tree, capsys):
        model = tmp_path / "m.json"
        model.write_text(serialize_tree(depth1_tree))
        data = tmp_path / "d.csv"
        data.write_text("0.9\n")
        code, _, _ = invoke(["compare", model, data], capsys)
        assert code == 0

    def test_corrupted_matrices_are_caught(self, six_leaf_tree):
        # A negated depth vector keeps exactly one hit per tree for the
        # signed rules, P s = -d, on the leaf whose every ancestor test went
        # the other way, so the corruption shows as a wrong leaf, not an error.
        model = StackedTrees.build([six_leaf_tree])
        corrupt = dataclasses.replace(model, leaf_depths=-model.leaf_depths)
        X = instance_for_tests(six_leaf_tree, [1, 0, 0, 0, 0])[None, :]
        bad = cli._first_disagreement([six_leaf_tree], corrupt, X)
        assert bad is not None
        assert bad.algorithm in ("sign", "ecoc", "delta")
        assert bad.leaf != bad.expected

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
    """Make ``cli.batch_score`` report leaf 1 (or 2 where the truth is 1) at
    the given (instance, tree) pairs of the given algorithms."""
    real = cli.batch_score

    def patched(model, X, algorithm):
        start = 0
        for leaves, values in real(model, X, algorithm):
            leaves = leaves.copy()
            for i, k in wrong.get(algorithm, []):
                if start <= i < start + len(leaves):
                    leaves[i - start, k] = 2 if leaves[i - start, k] == 1 else 1
            start += len(leaves)
            yield leaves, values

    monkeypatch.setattr(cli, "batch_score", patched)


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


class TestOneScoringPath:
    def test_no_command_builds_tree_matrices(self, tmp_path, capsys, monkeypatch):
        def refuse(tree):
            raise AssertionError("the CLI must not build TreeMatrices")

        monkeypatch.setattr(TreeMatrices, "build", refuse)
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
            runs = [["score", model, data, "--algo", algo] for algo in sorted(cli.ALGORITHMS)]
            runs += [["compare", model, data], ["bench", model, data, "--repeat", "1"]]
            if count == 1:
                runs.append(["score", model, data, "--soft"])
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
        # Seed 3684 samples a chain deeper than the recursion limit early on.
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
