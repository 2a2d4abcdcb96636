"""Command-line interface: outputs, determinism, exit codes."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graybox import adf, replicate
from graybox.cli import main
from graybox.marginals import enumerate_marginal


@pytest.fixture()
def paper_file(tmp_path):
    path = tmp_path / "paper.adf"
    assert main(["gen", "--paper-example", "--out", str(path)]) == 0
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PINNED = Path(__file__).parent / "data" / "pinned"


def _pinned_cases():
    spec = importlib.util.spec_from_file_location("pinned_regenerate", PINNED / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases


pinned_cases = _pinned_cases()


@pytest.mark.parametrize("name", sorted(pinned_cases(PINNED, PINNED)))
def test_pinned_output(capsys, tmp_path, name):
    """Fixed-seed runs reproduce the stored stdout and side file byte for byte."""
    argv, side = pinned_cases(PINNED, tmp_path)[name]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (PINNED / f"{name}.out").read_text()
    if side is not None:
        assert side.read_text() == (PINNED / f"{name}.side").read_text()


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


# The pinned DOT views (`analyze --vig`, `--format dot`, ...) and TSV tables are not JSON.
PINNED_JSON = [p for p in sorted(PINNED.glob("*.out"))
               if not p.read_text().startswith(("graph ", "config\t"))]


class TestStrictJson:
    @pytest.mark.parametrize(
        "path", PINNED_JSON + sorted(PINNED.glob("*.side")), ids=lambda p: p.name
    )
    def test_pinned_outputs(self, path):
        text = path.read_text()
        if path.suffix == ".out":
            strict_json(text)
        else:
            for line in text.splitlines():
                strict_json(line)

    def test_fda_and_marginals_stdout(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "fda", paper_file, "--jt", "--smoothing", "0", "--max-gens", "5"
        )
        assert code == 0
        strict_json(out)
        code, out, _ = run_cli(
            capsys, "marginals", paper_file, "--order", "4", "--stat", "boltzmann",
            "--beta", "50", "--format", "json",
        )
        assert code == 0
        strict_json(out)


class TestGen:
    def test_paper_example_round_trip(self, paper_file):
        inst = adf.parse(Path(paper_file).read_text())
        assert inst == adf.paper_example()

    def test_deterministic_output(self, capsys):
        args = ["gen", "--kind", "adjacent-cyclic", "--n", "10", "--k", "3", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_format_parses_back(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "separable", "--n", "6", "--k", "3", "--format", "json"
        )
        assert code == 0
        assert adf.parse(out).m == 2

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "separable", "--n", "10", "--k", "3")
        assert code == 2
        assert "k | n" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--paper-example", "--frobnicate"])
        assert exc.value.code == 2


class TestAnalyze:
    def test_treewidth(self, capsys, paper_file):
        code, out, _ = run_cli(capsys, "analyze", paper_file, "--treewidth")
        assert code == 0
        assert out == "4\n"

    def test_vig_dot(self, capsys, paper_file):
        code, out, _ = run_cli(capsys, "analyze", paper_file, "--vig")
        assert code == 0
        assert out.count("--") == 20

    def test_triangulate_json(self, capsys, paper_file):
        code, out, _ = run_cli(capsys, "analyze", paper_file, "--triangulate")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["fill_edges"]) == 10

    def test_triangulate_explicit_order(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "analyze", paper_file, "--triangulate",
            "--elimination-order", "0,1,2,3,4,5,6,7,8,9",
        )
        doc = json.loads(out)
        assert code == 0
        assert sorted(map(tuple, doc["fill_edges"])) == sorted(
            [(1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9)]
        )

    def test_junction_tree_json(self, capsys, paper_file):
        code, out, _ = run_cli(capsys, "analyze", paper_file, "--junction-tree")
        doc = json.loads(out)
        assert code == 0
        assert doc["treewidth"] == 4
        assert len(doc["cliques"]) == 6

    def test_factor_graph_dot(self, capsys, paper_file):
        code, out, _ = run_cli(capsys, "analyze", paper_file, "--factor-graph")
        assert code == 0
        assert out.count("shape=box") == 10

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.adf"), "--vig")
        assert code == 1

    def test_separable_junction_tree_dot(self, capsys, tmp_path):
        # two cliques joined by a weight-0 edge, whose separator label is empty
        path = tmp_path / "sep.adf"
        assert main(["gen", "--kind", "separable", "--n", "6", "--k", "3", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "analyze", str(path), "--junction-tree", "--format", "dot")
        assert code == 0
        assert out == (
            "graph junction_tree {\n"
            '  c0 [label="{0,1,2}", shape=box];\n'
            '  c1 [label="{3,4,5}", shape=box];\n'
            '  c0 -- c1 [label=""];\n'
            "}\n"
        )


class TestMarginalsAndDeception:
    def test_order3_matches_golden(self, capsys, paper_file):
        from importlib import resources

        code, out, _ = run_cli(capsys, "marginals", paper_file, "--order", "3")
        assert code == 0
        assert out == resources.files("graybox").joinpath("golden/order3.tsv").read_text()

    def test_marginals_json(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "marginals", paper_file, "--scopes", "0,1,2,8,9", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc[0]["values"]["11111"] == 216.0

    def test_deception_order5(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "deception", paper_file, "--order", "5", "--optimum", "1111111111"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["deceptive_factors"] == [9]

    def test_deception_jt_factors_empty(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "deception", paper_file, "--jt-factors", "--optimum", "1111111111"
        )
        assert code == 0
        assert json.loads(out)["deceptive_factors"] == []

    def test_capacity_error_exits_1(self, capsys, paper_file, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "5")
        code, _, err = run_cli(capsys, "marginals", paper_file, "--order", "3")
        assert code == 1
        assert "exceeds" in err

    @pytest.mark.parametrize("command", ["marginals", "deception"])
    def test_order_below_one_exits_2(self, capsys, paper_file, command):
        args = ["--optimum", "1111111111"] if command == "deception" else []
        for order in ("0", "-1"):
            code, out, err = run_cli(capsys, command, paper_file, "--order", order, *args)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "--order" in err

    def test_boltzmann_stat_needs_beta(self, capsys, paper_file):
        code, _, err = run_cli(
            capsys, "marginals", paper_file, "--order", "3", "--stat", "boltzmann"
        )
        assert code == 2
        assert "--beta" in err

    def test_huge_finite_beta_is_the_argmax_limit(self, capsys, paper_file):
        # beta * (f - fmax) overflows to -inf off the optimum 1111111111;
        # a RuntimeWarning would reach stderr, here it raises instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "marginals", paper_file, "--scopes", "0,1", "--stat", "boltzmann",
                "--beta", "1e308", "--format", "json",
            )
            assert (code, err) == (0, "")
            assert json.loads(out)[0]["values"] == {"00": 0.0, "01": 0.0, "10": 0.0, "11": 1.0}
            code, _, err = run_cli(
                capsys, "fda", paper_file, "--jt", "--selection", "boltzmann",
                "--selection-beta", "1e308", "--max-gens", "3",
            )
            assert (code, err) == (0, "")

    def test_boltzmann_stat_tables(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "marginals", paper_file, "--scopes", "0,1", "--stat", "boltzmann",
            "--beta", "1.0", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert sum(doc[0]["values"].values()) == pytest.approx(1.0, abs=1e-12)


class TestBadInput:
    def assert_error(self, capsys, code, argv):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    def test_instance_path_is_directory(self, capsys, tmp_path):
        self.assert_error(capsys, 1, ["analyze", str(tmp_path), "--treewidth"])

    def test_malformed_factor_file(self, capsys, paper_file, tmp_path):
        bad = tmp_path / "factors.json"
        bad.write_text("{bad")
        self.assert_error(capsys, 1, ["fda", paper_file, "--factor-file", str(bad)])

    def test_non_integer_enumeration_limit(self, capsys, paper_file, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "abc")
        self.assert_error(capsys, 2, ["marginals", paper_file, "--order", "3"])

    def test_non_finite_codomain(self, capsys, tmp_path):
        path = tmp_path / "nan.adf"
        path.write_text("adf 2 1\nsub 2 0 1 nan 1 inf 0\n")
        self.assert_error(capsys, 1, ["climb", str(path), "--start", "00"])

    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_non_positive_starts(self, capsys, paper_file, starts):
        self.assert_error(capsys, 2, ["climb", paper_file, "--starts", starts])

    @pytest.mark.parametrize("command", ["marginals", "deception"])
    def test_non_integer_scope_token(self, capsys, paper_file, command):
        args = ["--optimum", "1111111111"] if command == "deception" else []
        err = self.assert_error(capsys, 2, [command, paper_file, "--scopes", "0,a", *args])
        assert "--scopes" in err

    @pytest.mark.parametrize("spec", ["", ";"])
    def test_empty_scopes(self, capsys, paper_file, spec):
        self.assert_error(capsys, 2, ["marginals", paper_file, "--scopes", spec])

    @pytest.mark.parametrize("order", ["0,1,x", ""])
    def test_non_integer_elimination_order(self, capsys, paper_file, order):
        err = self.assert_error(
            capsys, 2, ["analyze", paper_file, "--treewidth", "--elimination-order", order]
        )
        assert "--elimination-order" in err

    # The VIG and factor-graph views ignore the order, but it is still checked.
    @pytest.mark.parametrize("view", ["--vig", "--factor-graph", "--treewidth"])
    def test_elimination_order_not_a_permutation(self, capsys, paper_file, view):
        err = self.assert_error(
            capsys, 1, ["analyze", paper_file, view, "--elimination-order", "5,5,5"]
        )
        assert err == "error: elimination order must be a permutation of the vertices\n"

    def test_instance_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.adf"
        path.write_bytes(b"\xff\xfe")
        self.assert_error(capsys, 1, ["analyze", str(path), "--treewidth"])

    def test_factor_file_not_utf8(self, capsys, paper_file, tmp_path):
        bad = tmp_path / "factors.json"
        bad.write_bytes(b"\xff\xfe")
        self.assert_error(capsys, 1, ["fda", paper_file, "--factor-file", str(bad)])

    def test_factor_file_repeating_a_variable(self, capsys, paper_file, tmp_path):
        bad = tmp_path / "factors.json"
        bad.write_text(json.dumps({"n": 10, "factors": [{"new": [*range(10), 0], "cond": []}]}))
        err = self.assert_error(capsys, 1, ["fda", paper_file, "--factor-file", str(bad)])
        assert "repeats" in err

    def test_factor_file_repeated_key(self, capsys, tmp_path):
        # the second n used to replace the first, and the file loaded
        instance = tmp_path / "one.adf"
        instance.write_text("adf 1 1\nsub 1 0 0 1\n")
        factors = tmp_path / "factors.json"
        factors.write_text('{"n": 2, "n": 1, "factors": [{"new": [0], "cond": []}]}')
        err = self.assert_error(
            capsys, 1, ["fda", str(instance), "--factor-file", str(factors), "--max-gens", "1"]
        )
        assert err == f"error: {factors}: invalid JSON: repeated key 'n'\n"

    def test_factor_file_integer_over_digit_limit(self, capsys, tmp_path):
        instance = tmp_path / "one.adf"
        instance.write_text("adf 1 1\nsub 1 0 0 1\n")
        factors = tmp_path / "big.json"
        factors.write_text('{"n": 1, "factors": [{"new": [%s], "cond": []}]}' % ("1" * 5000))
        err = self.assert_error(
            capsys, 1, ["fda", str(instance), "--factor-file", str(factors), "--max-gens", "1"]
        )
        assert "invalid JSON" in err and "digits" in err

    def test_empty_factor_file_path(self, capsys, paper_file):
        err = self.assert_error(capsys, 2, ["fda", paper_file, "--factor-file", ""])
        assert "--factor-file" in err

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
    def test_bad_boltzmann_beta(self, capsys, paper_file, beta):
        err = self.assert_error(
            capsys, 1,
            ["marginals", paper_file, "--order", "3", "--stat", "boltzmann", "--beta", beta],
        )
        assert "beta" in err

    @pytest.mark.parametrize("flags", [
        ("--selection", "boltzmann", "--selection-beta", "nan"),
        ("--selection", "boltzmann", "--selection-beta", "inf"),
        ("--smoothing", "nan"),
        ("--smoothing", "inf"),
        ("--target", "nan"),
        ("--target", "inf"),
    ], ids=lambda flags: f"{flags[-2]}={flags[-1]}")
    def test_non_finite_fda_numbers(self, capsys, paper_file, flags):
        err = self.assert_error(capsys, 2, ["fda", paper_file, "--jt", *flags])
        assert "finite" in err

    @pytest.mark.parametrize("argv, code", [
        (("marginals", "PAPER", "--order", "3", "--beta", "inf"), 1),
        (("deception", "PAPER", "--order", "3", "--optimum", "1" * 10, "--stat", "mean",
          "--beta", "nan"), 1),
        (("fda", "PAPER", "--jt", "--selection-beta", "nan"), 2),
        (("fda", "PAPER", "--jt", "--selection", "boltzmann", "--tau", "nan"), 2),
    ], ids=["marginals-sum-beta", "deception-mean-beta", "fda-truncation-selection-beta",
            "fda-boltzmann-tau"])
    def test_non_finite_flag_the_method_ignores(self, capsys, paper_file, argv, code):
        argv = [paper_file if a == "PAPER" else a for a in argv]
        err = self.assert_error(capsys, code, argv)
        assert "must be finite" in err

    @pytest.mark.parametrize("argv, code, message", [
        (("marginals", "PAPER", "--order", "3", "--stat", "mean", "--beta", "-5"), 1,
         "nonnegative"),
        (("fda", "PAPER", "--jt", "--selection", "boltzmann", "--tau", "0"), 2, "(0, 1]"),
    ], ids=["marginals-mean-beta", "fda-boltzmann-tau"])
    def test_out_of_range_flag_the_method_ignores(self, capsys, paper_file, argv, code,
                                                  message):
        argv = [paper_file if a == "PAPER" else a for a in argv]
        err = self.assert_error(capsys, code, argv)
        assert message in err

    # Every refusal of an instance file, word for word: exit 1 and one error line.
    @pytest.mark.parametrize("text, message", [
        ("adf 3\n", "line 1: expected 'adf <n> <M>'"),
        ("adf x 1\n", "line 1: n and M must be integers"),
        ("adf 1 1\nwgb white\nsub 1 0 0 1\n",
         "line 2: expected 'wgb <structure> <subfunctions>'"),
        ("adf 1 1\nwgb white purple\nsub 1 0 0 1\n", "line 2: unknown visibility 'purple'"),
        ("adf 1 1\nsub\n", "line 2: expected 'sub <k> ...'"),
        ("adf 1 1\nsub x 0 0 1\n", "line 2: expected 'sub <k> ...'"),
        ("adf 1 1\nsub 1 0 0 one\n", "line 2: malformed number"),
        ("wgb white white\n", "missing 'adf <n> <M>' header"),
        ("{bad", "invalid JSON: Expecting property name enclosed in double quotes:"
                 " line 1 column 2 (char 1)"),
        ("adf 0 0\n", "instance needs at least one variable"),
        ("adf 2 0\n", "instance needs at least one subfunction"),
        # a second header used to replace the first: this file loaded with n=5
        ("adf 3 1\nsub 2 0 1 0 1 2 3\nadf 5 1\n", "line 3: repeated 'adf' header"),
        ("adf 3 1\nwgb white white\nwgb gray white\nsub 1 0 0 1\n",
         "line 3: repeated 'wgb' line"),
        # a second name used to replace the first: this file loaded as 'second'
        ("# name: first\n# name: second\nadf 1 1\nsub 1 0 0 1\n",
         "line 2: repeated '# name:' line"),
        # json.loads keeps the last of repeated keys: this loaded with n=5
        ('{"n": 3, "n": 5, "subfunctions": [{"scope": [0], "codomain": [0, 1]}]}',
         "invalid JSON: repeated key 'n'"),
    ], ids=["adf-fields", "adf-not-integer", "wgb-fields", "wgb-unknown", "sub-bare",
            "sub-k-not-integer", "sub-value-not-number", "no-adf-header", "json-invalid",
            "no-variable", "no-subfunction", "adf-repeated", "wgb-repeated", "name-repeated",
            "json-key-repeated"])
    def test_refused_instance_text(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.adf"
        path.write_text(text)
        err = self.assert_error(capsys, 1, ["analyze", str(path), "--treewidth"])
        assert err == f"error: {message}\n"

    # The parser shifts by k to count the values: a negative k cannot be
    # shifted by, and a huge one builds an integer too long to print.
    @pytest.mark.parametrize("k", ["-1", "100000", "1000000000"])
    def test_sub_arity_out_of_range(self, capsys, tmp_path, k):
        path = tmp_path / "bad.adf"
        path.write_text(f"adf 2 1\nsub {k} 0 1.0\n")
        err = self.assert_error(capsys, 1, ["analyze", str(path), "--vig"])
        assert err.startswith("error: line 2: ")
        assert len(err) < 100

    # A window of more than n variables repeats one; it is refused before
    # n windows of that width are built, with a line that does not print one.
    @pytest.mark.parametrize("command", ["marginals", "deception"])
    @pytest.mark.parametrize("order", ["11", "2000000"])
    def test_order_above_n(self, capsys, paper_file, command, order):
        args = ["--optimum", "1111111111"] if command == "deception" else []
        err = self.assert_error(capsys, 1, [command, paper_file, "--order", order, *args])
        assert err == f"error: order {order} exceeds n=10: a window would repeat a variable\n"

    def test_start_of_wrong_length(self, capsys):
        err = self.assert_error(capsys, 1, ["climb", str(PINNED / "paper.adf"), "--start", "0101"])
        assert err == "error: start has 4 bits, expected 10\n"

    def test_optimum_length_checked_before_enumeration(self, capsys, tmp_path, monkeypatch):
        # n=26 is above the default enumeration cap: sweeping first would
        # end in the capacity error instead
        monkeypatch.delenv("GRAYBOX_MAX_ENUM_VARS", raising=False)
        path = tmp_path / "n26.adf"
        path.write_text(adf.serialize(adf.generate(adf.GeneratorSpec(adf.ADJACENT_CYCLIC, 26, 3))))
        err = self.assert_error(
            capsys, 1, ["deception", str(path), "--order", "3", "--optimum", "11"]
        )
        assert "reference optimum has 2 bits, expected 26" in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--kind", "adjacent-cyclic", "--n", "4", "--k", "3", "--seed", "-1"),
        ("gen", "--kind", "adjacent-cyclic", "--n", "4", "--k", "3", "--codomain-seed", "-1"),
        ("fda", "PAPER", "--jt", "--seed", "-1"),
        ("climb", "PAPER", "--seed", "-1"),
        ("climb", "PAPER", "--start", "0000000000", "--seed", "-1"),
        ("climb", "PAPER", "--max-moves", "-1"),
    ], ids=["gen-seed", "gen-codomain-seed", "fda-seed", "climb-seed", "climb-start-seed",
            "climb-max-moves"])
    def test_negative_seed_or_max_moves(self, capsys, paper_file, argv):
        argv = [paper_file if a == "PAPER" else a for a in argv]
        err = self.assert_error(capsys, 2, argv)
        assert "nonnegative" in err

    def test_overflowing_smoothing(self, capsys, paper_file):
        err = self.assert_error(
            capsys, 2, ["fda", paper_file, "--jt", "--smoothing", "1e308", "--max-gens", "2"]
        )
        assert "overflows" in err

    def test_factor_file_factor_above_enumeration_limit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "5")
        instance = tmp_path / "six.adf"
        instance.write_text(adf.serialize(adf.generate(adf.GeneratorSpec(adf.SEPARABLE, 6, 1))))
        factors = tmp_path / "factors.json"
        factors.write_text(json.dumps({"n": 6, "factors": [{"new": list(range(6)), "cond": []}]}))
        err = self.assert_error(
            capsys, 1, ["fda", str(instance), "--factor-file", str(factors), "--max-gens", "1"]
        )
        assert err == "error: table of factor 0 refused: |cond|+|new|=6 exceeds limit 5\n"

    def test_jt_factor_above_enumeration_limit(self, capsys, tmp_path, monkeypatch):
        # its root clique spans 105 variables, a 2^105-entry table
        monkeypatch.delenv("GRAYBOX_MAX_ENUM_VARS", raising=False)
        path = tmp_path / "r120.adf"
        gen = ["gen", "--kind", "random-scopes", "--n", "120", "--k", "6", "--m", "400"]
        assert main([*gen, "--seed", "1", "--out", str(path)]) == 0
        err = self.assert_error(capsys, 1, ["fda", str(path), "--jt", "--max-gens", "1"])
        assert err == "error: table of factor 0 refused: |cond|+|new|=105 exceeds limit 25\n"

    def test_factor_file_factors_above_enumeration_limit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "5")
        instance = tmp_path / "twelve.adf"
        instance.write_text(adf.serialize(adf.generate(adf.GeneratorSpec(adf.SEPARABLE, 12, 1))))
        factors = tmp_path / "factors.json"
        doc = {"n": 12, "factors": [{"new": list(range(6)), "cond": []},
                                    {"new": list(range(6, 12)), "cond": []}]}
        factors.write_text(json.dumps(doc))
        err = self.assert_error(
            capsys, 1, ["fda", str(instance), "--factor-file", str(factors), "--max-gens", "1"]
        )
        assert err == "error: table of factor 0 refused: |cond|+|new|=6 exceeds limit 5\n"

    def test_factor_file_with_huge_n(self, capsys, tmp_path):
        # the absent variables were once listed in full: a 7.9 MB error line
        instance = tmp_path / "two.adf"
        instance.write_text("adf 2 1\nsub 2 0 1 0 1 2 3\n")
        factors = tmp_path / "factors.json"
        factors.write_text('{"n":1000000,"factors":[{"new":[0],"cond":[]}]}')
        err = self.assert_error(capsys, 1, ["fda", str(instance), "--factor-file", str(factors)])
        assert len(err) < 200
        assert "variable 1 never introduced" in err

    @pytest.mark.parametrize("limit, argv", [
        ("70", ["gen", "--kind", "separable", "--n", "64", "--k", "64"]),
        ("200", ["fda", "r120.adf", "--jt", "--max-gens", "1"]),
    ], ids=["gen-k64", "fda-jt-n120"])
    def test_enumeration_limit_above_62(self, capsys, tmp_path, monkeypatch, limit, argv):
        # A 2^limit index would overflow int64: these ended in a ValueError
        # and an OverflowError traceback.
        monkeypatch.chdir(tmp_path)
        gen = ["gen", "--kind", "random-scopes", "--n", "120", "--k", "6", "--m", "400"]
        assert main([*gen, "--seed", "1", "--out", "r120.adf"]) == 0
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", limit)
        err = self.assert_error(capsys, 2, argv)
        assert err == f"error: GRAYBOX_MAX_ENUM_VARS must be at most 62, got {limit}\n"

    def test_generator_arity_above_enumeration_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "5")
        err = self.assert_error(capsys, 1, ["gen", "--kind", "separable", "--n", "6", "--k", "6"])
        assert err == "error: codomains of 2^k values refused: k=6 exceeds limit 5\n"

    # NumPy names the allocation; Python's own allocations raise an empty
    # MemoryError, which must not leave a dangling colon.
    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 18.6 GiB for an array",
         "error: out of memory: Unable to allocate 18.6 GiB for an array\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "empty"])
    def test_out_of_memory(self, capsys, paper_file, monkeypatch, message, line):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("graybox.fda.run_fda", exhausted)
        err = self.assert_error(capsys, 1, ["fda", paper_file, "--jt", "--max-gens", "1"])
        assert err == line

    # Without the integer check these documents were read by truncating the
    # number (n=2, n=1, scope (0, 1)); the wgb ones ended in an IndexError.
    @pytest.mark.parametrize("doc, message", [
        ({"n": 2, "wgb": [], "subfunctions": [{"scope": [0, 1], "codomain": [0, 1, 2, 3]}]},
         "wgb"),
        ({"n": 2, "wgb": ["white"], "subfunctions": [{"scope": [0], "codomain": [0, 1]}]},
         "wgb"),
        ({"n": 2.7, "subfunctions": [{"scope": [0, 1], "codomain": [0, 1, 2, 3]}]}, "2.7"),
        ({"n": True, "subfunctions": [{"scope": [0], "codomain": [0, 1]}]}, "True"),
        ({"n": 2, "subfunctions": [{"scope": [0.9, 1], "codomain": [0, 1, 2, 3]}]}, "0.9"),
        ({"n": 1, "subfunctions": [{"scope": [0], "codomain": [True, 2.5]}]}, "True"),
        ({"n": 1, "subfunctions": [{"scope": [0], "codomain": [1, "2.5"]}]}, "'2.5'"),
        ({"n": 1, "subfunctions": [{"scope": [0], "codomain": [1, 10 ** 400]}]}, "too large"),
        ({"n": 1, "subfunctions": [{"scope": [0], "codomain": [1, 2.5]}], "name": 7}, "name"),
        ({"n": 2, "wgb": ["white", 5], "subfunctions": [{"scope": [0], "codomain": [0, 1]}]},
         "wgb"),
        ({"n": 2, "wgb": ["white", "grey"], "subfunctions": [{"scope": [0], "codomain": [0, 1]}]},
         "wgb"),
    ], ids=["wgb-empty", "wgb-one-item", "n-float", "n-bool", "scope-float", "codomain-bool",
            "codomain-string", "codomain-huge-int", "name-not-string", "wgb-unknown-int",
            "wgb-unknown-name"])
    def test_malformed_json_instance(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        err = self.assert_error(capsys, 1, ["analyze", str(path), "--vig"])
        assert message in err

    @pytest.mark.parametrize("doc, message", [
        ({"n": 1.9, "factors": [{"new": [0.7], "cond": []}]}, "expected an integer"),
        ({"n": 1.9, "factors": [{"new": [0], "cond": []}]}, "1.9"),
        ({"n": 1, "factors": [{"new": [0.7], "cond": []}]}, "0.7"),
        ({"n": 2, "factors": [{"new": [0], "cond": []}, {"new": [1], "cond": [False]}]},
         "False"),
    ], ids=["n-and-new-float", "n-float", "new-float", "cond-bool"])
    def test_non_integer_factor_file(self, capsys, tmp_path, doc, message):
        # an instance the truncated factorization fits
        instance = tmp_path / "instance.adf"
        instance.write_text(f"adf {int(doc['n'])} 1\nsub 1 0 0 1\n")
        factors = tmp_path / "factors.json"
        factors.write_text(json.dumps(doc))
        err = self.assert_error(
            capsys, 1, ["fda", str(instance), "--factor-file", str(factors), "--max-gens", "1"]
        )
        assert message in err


class TestFda:
    def test_jt_run_reaches_target(self, capsys, paper_file, tmp_path):
        history = tmp_path / "history.jsonl"
        code, out, _ = run_cli(
            capsys, "fda", paper_file, "--jt", "--seed", "1", "--target", "10",
            "--history", str(history),
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["success"] is True
        assert doc["best"] == "1" * 10
        lines = [json.loads(l) for l in history.read_text().splitlines()]
        assert lines[0]["generation"] == 0

    def test_zero_generations(self, capsys, paper_file):
        code, out, _ = run_cli(
            capsys, "fda", paper_file, "--univariate", "--max-gens", "0", "--seed", "5"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["generations"] == 0

    def test_zero_generation_history_bytes(self, capsys, paper_file, tmp_path):
        history = tmp_path / "history.jsonl"
        code, _, _ = run_cli(
            capsys, "fda", paper_file, "--univariate", "--max-gens", "0", "--seed", "5",
            "--history", str(history),
        )
        assert code == 0
        assert history.read_bytes() == (
            b'{"best": 9.0, "generation": 0, "mean": 4.956, "model_entropy": null}\n'
        )

    def test_bad_config_exits_2(self, capsys, paper_file):
        code, _, err = run_cli(capsys, "fda", paper_file, "--jt", "--pop-size", "0")
        assert code == 2

    def test_factor_file_round_trip(self, capsys, paper_file, tmp_path):
        code, out, _ = run_cli(capsys, "analyze", paper_file, "--junction-tree")
        from graybox import graphs

        jt_doc = json.loads(out)
        fact = graphs.factorization_from_jt(
            graphs.JunctionTree(
                n=jt_doc["n"],
                cliques=tuple(tuple(c) for c in jt_doc["cliques"]),
                edges=tuple(tuple(e) for e in jt_doc["edges"]),
                separators=tuple(tuple(s) for s in jt_doc["separators"]),
            ),
            root=0,
        )
        ffile = tmp_path / "factors.json"
        ffile.write_text(json.dumps(graphs.factorization_to_json(fact)))
        code, out, _ = run_cli(
            capsys, "fda", paper_file, "--factor-file", str(ffile), "--seed", "2",
            "--target", "10",
        )
        assert code == 0
        assert json.loads(out)["success"] is True


class TestClimb:
    def test_explicit_start(self, capsys, paper_file):
        code, out, _ = run_cli(capsys, "climb", paper_file, "--start", "1111111111")
        doc = json.loads(out)
        assert code == 0
        assert doc["moves"] == 0 and doc["converged"]

    def test_multi_start_local_optima(self, capsys, paper_file):
        from graybox.climb import init_state

        code, out, _ = run_cli(capsys, "climb", paper_file, "--starts", "25", "--seed", "3")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["results"]) == 25
        inst = adf.paper_example()
        for item in doc["results"]:
            state = init_state(inst, adf.bits_from_string(item["solution"]))
            assert not (state.deltas > 0).any()

    def test_trace_written(self, capsys, paper_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            capsys, "climb", paper_file, "--start", "0000000000", "--trace", str(trace)
        )
        doc = json.loads(out)
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert code == 0
        assert len(events) == doc["moves"]
        assert events[-1]["fitness"] == doc["fitness"]

    def test_empty_trace_file_bytes(self, capsys, paper_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            capsys, "climb", paper_file, "--start", "0000000000", "--max-moves", "0",
            "--trace", str(trace),
        )
        assert code == 0
        assert json.loads(out)["moves"] == 0
        assert trace.read_bytes() == b""

    def test_pair_moves_without_edges(self, capsys, tmp_path, monkeypatch):
        # single-variable scopes leave the interaction graph with no edge
        path = tmp_path / "unary.adf"
        path.write_text("adf 3 3\nsub 1 0 0 1\nsub 1 1 2 0\nsub 1 2 0 1\n")
        real_argmax = np.argmax

        def nonempty_argmax(a, *args, **kwargs):
            assert np.size(a) > 0
            return real_argmax(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmax", nonempty_argmax)
        for pivot in ("best", "first"):
            args = ["climb", str(path), "--starts", "4", "--pivot", pivot]
            code, single, err = run_cli(capsys, *args)
            assert (code, err) == (0, "")
            code, paired, err = run_cli(capsys, *args, "--pair-moves")
            assert (code, err) == (0, "")
            assert paired == single
            assert json.loads(paired)["best"]["solution"] == "101"

    def test_deterministic(self, capsys, paper_file):
        args = ["climb", paper_file, "--starts", "10", "--seed", "4", "--pivot", "first"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestReplicate:
    def test_full_replication(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "replicate-paper", "--out-dir", str(tmp_path / "rep"))
        assert code == 0
        assert out.count("PASS") == 9
        assert (tmp_path / "rep" / "order5.tsv").exists()
        assert (tmp_path / "rep" / "factorization.json").exists()

    def test_corrupted_golden_reports_diff(self, capsys, tmp_path, monkeypatch):
        real = replicate.load_golden

        def corrupted(name):
            table = real(name)
            if name == "order3":
                first_scope = next(iter(table))
                table[first_scope]["000"] += 1
            return table

        monkeypatch.setattr(replicate, "load_golden", corrupted)
        code, out, err = run_cli(capsys, "replicate-paper", "--out-dir", str(tmp_path / "rep"))
        assert code == 1
        assert "FAIL" in out
        assert "expected" in err

    def test_corrupted_run_output_is_pinned(self, capsys, tmp_path, monkeypatch):
        """A wrong order3 and clique5 golden value and a wrong order4 deception
        expectation: stdout, stderr and comparison.txt, byte for byte."""
        real = replicate.load_golden
        first_config = {"order3": "000", "clique5": "00000"}

        def corrupted(name):
            table = real(name)
            if name in first_config:
                table[next(iter(table))][first_config[name]] += 1
            return table

        monkeypatch.setattr(replicate, "load_golden", corrupted)
        monkeypatch.setitem(replicate.EXPECTED_DECEPTIVE, "order4", frozenset({3}))
        code, out, err = run_cli(capsys, "replicate-paper", "--out-dir", str(tmp_path / "rep"))
        summary = [
            "FAIL  table order3",
            "PASS  table order4",
            "PASS  table order5",
            "FAIL  table clique5",
            "PASS  deception order3",
            "FAIL  deception order4",
            "PASS  deception order5",
            "PASS  deception clique5",
            "PASS  factorization",
        ]
        mismatches = [
            "order3: factor (9,0,1) config 000: expected 769, got 768",
            "clique5: factor (0,1,2,8,9) config 00000: expected 217, got 216",
            "deception order4: expected [3], got [10]",
        ]
        assert code == 1
        assert out == "".join(f"{line}\n" for line in summary)
        assert err == "mismatches:\n" + "".join(f"  {line}\n" for line in mismatches)
        comparison = (tmp_path / "rep" / "comparison.txt").read_text()
        assert comparison == "".join(f"{line}\n" for line in summary + mismatches)

    def test_mismatch_shows_plain_number(self):
        inst = adf.paper_example()
        tables = [enumerate_marginal(inst, s) for s in adf.order_scopes(inst, 3)]
        first = tables[0]
        tables[0] = dataclasses.replace(first, values=(np.float64(5.5),) + first.values[1:])
        mismatches = replicate._compare("order3", tables)
        assert len(mismatches) == 1
        assert mismatches[0].endswith("config 000: expected 768, got 5.5")

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "graybox.cli", "replicate-paper",
             "--out-dir", str(tmp_path / "rep")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 9
