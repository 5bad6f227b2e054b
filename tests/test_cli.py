"""Command-line front-end: exit codes, report payloads, CSV schemas."""

import json
import shutil
import warnings

import pytest

from ptdiff import whitney
from ptdiff.cli import main
from ptdiff.corpus import DATA_DIR, CorpusWarning

FAST_GRID = ["--grid", "0.5,8", "--dict", "6,0"]


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_classify_matches_annotation(self, tmp_path):
        code = run(["classify", "--item", "heaviside", "--point", "0",
                    "--k", "0", "--out", str(tmp_path)] + FAST_GRID)
        assert code == 0

    def test_inconclusive_with_claim_is_exit_2(self, tmp_path):
        # one grid level leaves too few radii for a verdict; heaviside at 0
        # has a k = 0 claim, which an inconclusive verdict does not contradict
        code = run(["classify", "--item", "heaviside", "--point", "0", "--k", "0",
                    "--grid", "1.0,1", "--dict", "12,1", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "classify_heaviside.json").read_text())
        assert report["verdict"] == "inconclusive"
        assert code == 2

    @pytest.mark.parametrize("grid", ["0.5,1", "0.5,2"])
    def test_inconclusive_jet_with_claim_is_exit_2(self, tmp_path, grid):
        # one or two grid levels show no contraction, so the estimate has
        # not converged; exp at 0 has a k = 3 jet claim, which it misses
        # without contradicting it
        code = run(["jet", "--item", "exp", "--point", "0", "--k", "3",
                    "--grid", grid, "--out", str(tmp_path)])
        report = json.loads((tmp_path / "jet_exp.json").read_text())
        assert report["converged"] is False
        assert code == 2

    def test_jet_matches_annotation(self, tmp_path):
        code = run(["jet", "--item", "exp", "--point", "0", "--k", "3",
                    "--grid", "0.5,10", "--out", str(tmp_path)])
        assert code == 0

    def test_contradicted_annotation(self, tmp_path):
        # exit 1: a result that contradicts its annotation, here annotations
        # edited to be wrong
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        heaviside = json.loads((DATA_DIR / "heaviside.json").read_text())
        claim = next(c for c in heaviside["annotations"][0]["claims"] if c["k"] == 0)
        claim["verdict"] = "confirmed"
        (corpus / "heaviside.json").write_text(json.dumps(heaviside))
        exp = json.loads((DATA_DIR / "exp.json").read_text())
        exp["annotations"][0]["jets"][0]["coeffs"]["2"] = 2.0
        (corpus / "exp.json").write_text(json.dumps(exp))
        common = ["--corpus", str(corpus), "--point", "0", "--out", str(tmp_path)]
        assert run(["classify", "--item", "heaviside", "--k", "0"] + common + FAST_GRID) == 1
        assert run(["jet", "--item", "exp", "--k", "3", "--grid", "0.5,10"] + common) == 1

    def test_unknown_item(self, tmp_path, capsys):
        code = run(["classify", "--item", "no_such", "--k", "0",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "available" in capsys.readouterr().err

    def test_missing_k(self, tmp_path):
        code = run(["classify", "--item", "heaviside", "--out", str(tmp_path)])
        assert code == 3

    def test_bad_point(self, tmp_path):
        code = run(["classify", "--item", "heaviside", "--point", "a,b",
                    "--k", "0", "--out", str(tmp_path)])
        assert code == 3

    def test_poincare_analytic(self, tmp_path):
        code = run(["poincare", "--item", "sin4", "--point", "0", "--k", "1",
                    "--dict", "6,0", "--out", str(tmp_path)])
        assert code == 0

    def test_document_without_atoms_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(DATA_DIR / "exp.json", corpus)
        (corpus / "no_atoms.json").write_text(json.dumps({"id": "bare", "dim": 1}))
        code = run(["jet", "--corpus", str(corpus), "--item", "bare", "--point", "0",
                    "--k", "3", "--out", str(tmp_path)])
        assert code == 3
        assert "no_atoms.json" in capsys.readouterr().err
        # only the requested document is parsed: the bad one fails no sibling
        code = run(["jet", "--corpus", str(corpus), "--item", "exp", "--point", "0",
                    "--k", "3", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("command", ["jet", "classify"])
    @pytest.mark.parametrize("doc", [
        {"dim": 0, "atoms": [{"kind": "delta", "location": []}]},
        {"dim": 3, "atoms": [{"kind": "function", "exprs": ["x1"]}]},
        {"dim": 1, "atoms": [{"kind": "derivative", "xi": [1, 0], "inner": []}]},
        {"dim": 1, "atoms": [{"kind": "derivative", "xi": [-1], "inner": []}]},
        {"dim": 1, "atoms": [{"kind": "delta", "location": [0.0, 1.0]}]},
        {"dim": 1, "atoms": [{"kind": "delta", "location": [0.0], "xi": [1, 1]}]},
        {"dim": 1, "atoms": [{"kind": "delta", "location": [0.0], "xi": [0.5]}]},
        {"dim": 1, "atoms": [{"kind": "delta", "location": [0.0], "coeff": [1.0, 2.0]}]},
    ], ids=["dim-0", "dim-3", "derivative-xi-long", "derivative-xi-negative",
            "delta-location-long", "delta-xi-long", "delta-xi-fraction", "delta-coeff-long"])
    def test_malformed_atom_or_dimension_is_input_error(self, tmp_path, capsys, command, doc):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.json").write_text(json.dumps({"id": "bad", **doc}))
        code = run([command, "--corpus", str(corpus), "--item", "bad", "--point", "0",
                    "--k", "0", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("bad.json" in err or "dimension" in err)

    def test_unreadable_sibling_is_a_warning(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(DATA_DIR / "exp.json", corpus)
        (corpus / "torn.json").write_text('{"id": "torn", "dim"')
        with pytest.warns(CorpusWarning, match="torn.json"):
            code = run(["jet", "--corpus", str(corpus), "--item", "exp", "--point", "0",
                        "--k", "3", "--out", str(tmp_path)])
        assert code == 0
        code = run(["jet", "--corpus", str(corpus), "--item", "torn", "--point", "0",
                    "--k", "3", "--out", str(tmp_path)])
        assert code == 3
        assert "torn.json" in capsys.readouterr().err

    def test_expression_syntax_error_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "broken.json").write_text(json.dumps(
            {"id": "broken", "dim": 1,
             "atoms": [{"kind": "function", "exprs": ["sin(x1"]}]}))
        code = run(["jet", "--corpus", str(corpus), "--item", "broken", "--point", "0",
                    "--k", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "broken.json" in capsys.readouterr().err

    def test_deeply_nested_expression_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "deep.json").write_text(json.dumps(
            {"id": "deep", "dim": 1,
             "atoms": [{"kind": "function", "exprs": ["(" * 3000 + "x1" + ")" * 3000]}]}))
        code = run(["jet", "--corpus", str(corpus), "--item", "deep", "--point", "0",
                    "--k", "0", "--out", str(tmp_path)])
        assert code == 3
        assert "nested too deeply" in capsys.readouterr().err

    def test_poincare_divergent_inconclusive(self, tmp_path, capsys):
        code = run(["poincare", "--item", "heaviside", "--point", "0",
                    "--k", "2", "--dict", "6,0", "--out", str(tmp_path)])
        assert code == 2
        assert "growth" in capsys.readouterr().err


class TestReports:
    def test_classify_report_and_csv(self, tmp_path):
        run(["classify", "--item", "heaviside", "--point", "0", "--k", "0",
             "--out", str(tmp_path)] + FAST_GRID)
        report = json.loads((tmp_path / "classify_heaviside.json").read_text())
        assert report["command"] == "classify"
        assert report["verdict"] == "refuted"
        assert "toolkit_version" in report
        assert report["configuration"]["dict"] == [6, 0]
        csv = (tmp_path / "classify_heaviside_decay.csv").read_text().splitlines()
        assert csv[0].startswith("r,E_envelope,probe_0")
        assert len(csv) == 1 + 8  # header + one row per grid level

    def test_determinism(self, tmp_path):
        args = ["classify", "--item", "abs_sqrt", "--point", "0", "--k", "0",
                "--out", str(tmp_path)] + FAST_GRID
        run(args)
        first = (tmp_path / "classify_abs_sqrt.json").read_text()
        run(args)
        second = (tmp_path / "classify_abs_sqrt.json").read_text()
        assert first == second

    def test_transfer_report_embeds_grid_and_dict(self, tmp_path):
        code = run(["transfer", "--item", "exp", "--point", "0", "--k", "1", "--l", "1",
                    "--out", str(tmp_path)] + FAST_GRID)
        assert code == 0
        report = json.loads((tmp_path / "transfer_exp.json").read_text())
        assert report["status"] == "consistent"
        assert report["configuration"]["grid"] == [0.5, 8]
        assert report["configuration"]["dict"] == [6, 0]


class TestWhitneyCommand:
    def field_doc(self, tmp_path):
        doc = {
            "degree": 1, "alpha": 1.0,
            "points": [[0.0], [0.5], [1.0]],
            "jets": [
                {"coeffs": {"0": 0.0, "1": 1.0}},
                {"coeffs": {"0": 0.5, "1": 1.0}},
                {"coeffs": {"0": 1.0, "1": 1.0}},
            ],
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        return path

    def test_extension_csv(self, tmp_path):
        path = self.field_doc(tmp_path)
        code = run(["whitney", "--field", str(path), "--query", "0;0.25;1",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "whitney_extension.csv").read_text().splitlines()
        assert lines[0] == "x,D0g,D1g"
        assert len(lines) == 4
        # interpolation at the field points themselves
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.0, abs=1e-10)

    def test_missing_field(self, tmp_path):
        assert run(["whitney", "--out", str(tmp_path)]) == 3

    def test_malformed_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"degree\": 1}")
        assert run(["whitney", "--field", str(bad), "--out", str(tmp_path)]) == 3

    def test_extra_jets_are_input_error(self, tmp_path, capsys):
        doc = {"degree": 0, "alpha": 1.0, "points": [[0.0]],
               "jets": [{"coeffs": {"0": 0.0}}, {"coeffs": {"0": 1.0}}]}
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert run(["whitney", "--field", str(path), "--out", str(tmp_path)]) == 3
        assert "2 jets for 1 points" in capsys.readouterr().err

    def test_gate_violation_is_input_error(self, tmp_path, capsys):
        doc = {"degree": 0, "alpha": 1.0, "points": [[0.0], [0.001]],
               "jets": [{"coeffs": {"0": 0.0}}, {"coeffs": {"0": 1.0}}]}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc))
        code = run(["whitney", "--field", str(path), "--kappa-f", "1.0",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "rejected" in capsys.readouterr().err

    def test_nan_coefficient_is_input_error(self, tmp_path, capsys):
        # json reads NaN; the gate's comparisons would skip it and write nan rows
        doc = json.loads(self.field_doc(tmp_path).read_text())
        doc["jets"][1]["coeffs"]["0"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert run(["whitney", "--field", str(path), "--out", str(tmp_path)]) == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "whitney_extension.csv").exists()

    def test_infinite_point_is_input_error(self, tmp_path, capsys):
        doc = json.loads(self.field_doc(tmp_path).read_text())
        doc["points"][2] = [float("inf")]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert run(["whitney", "--field", str(path), "--out", str(tmp_path)]) == 3
        assert "finite" in capsys.readouterr().err

    def test_far_query_takes_nearest_jet(self, tmp_path):
        # the squared distances of 1e155 overflow, and its distances to the
        # points round to one value; the nearest point is 1, with the zero jet
        doc = {"degree": 2, "alpha": 1.0, "points": [[0.0], [0.5], [1.0]],
               "jets": [{"coeffs": {"0": 3.0}}, {"coeffs": {"0": 0.25, "1": 1.0, "2": 2.0}},
                        {"coeffs": {}}]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["whitney", "--field", str(path), "--query", "1e155;-1e155",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "whitney_extension.csv").read_text().splitlines()
        assert [float(line.split(",")[1]) for line in lines[1:]] == [0.0, 3.0]

    @pytest.mark.parametrize("points", [[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],  # 3-D
                                        [[-1e200], [1e200]],  # its region's radius overflows
                                        [[1e16], [1e16 + 2.0]]])  # spacing below the ulp
    def test_unpartitionable_field_is_input_error(self, tmp_path, capsys, monkeypatch, points):
        # each exits 3 with one line; the 3-D field's level-9 grid would hold
        # 1025^3 points, and none is built
        def no_grid(*args):
            raise AssertionError("a candidate grid was built")
        if len(points[0]) == 3:
            monkeypatch.setattr(whitney, "_candidate_grid", no_grid)
        doc = {"degree": 0, "alpha": 1.0, "points": points,
               "jets": [{"coeffs": {",".join("0" * len(p)): 0.0}} for p in points]}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["whitney", "--field", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot partition") and err.count("\n") == 1, err
        assert not (tmp_path / "whitney_extension.csv").exists()

    def test_nonfinite_query_is_input_error(self, tmp_path, capsys):
        path = self.field_doc(tmp_path)
        code = run(["whitney", "--field", str(path), "--query", "nan;inf",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "whitney_extension.csv").exists()


class TestSuiteCommand:
    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run(["suite", "nope"])


def exit_code(argv):
    """main's return code, or the code of the SystemExit a parser error raises."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestArgumentValidation:
    """Malformed arguments are input errors (exit 3), rejected at the parser."""

    @pytest.mark.parametrize("extra", [["--grid", "1.0,abc"], ["--grid", "0,4"],
                                       ["--dict", "3,0"], ["--dict", "8,x"],
                                       ["--k", "abc"], ["--k", "7"],
                                       ["--alpha", "nan"], ["--alpha", "inf"],
                                       ["--alpha", "-inf"]])
    def test_classify_bad_argument(self, tmp_path, capsys, extra):
        argv = ["classify", "--item", "heaviside", "--point", "0", "--k", "0",
                "--out", str(tmp_path)] + extra
        assert exit_code(argv) == 3
        assert "error: argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("extra", [["--hoelder-pairs", "-5"], ["--hoelder-pairs", "1.5"],
                                       ["--kappa-f", "nan"], ["--kappa-f", "inf"],
                                       ["--kappa-f", "0"], ["--kappa-f", "-2"]])
    def test_whitney_bad_argument(self, tmp_path, capsys, extra):
        # a nan or infinite gate constant would accept every field, and a
        # negative pair count would measure 10 pairs
        path = TestWhitneyCommand().field_doc(tmp_path)
        argv = ["whitney", "--field", str(path), "--out", str(tmp_path)] + extra
        assert exit_code(argv) == 3
        assert "error: argument" in capsys.readouterr().err
        assert not (tmp_path / "whitney_extension.csv").exists()

    @pytest.mark.parametrize("command,option", [
        *[(c, "--format") for c in ("classify", "jet", "transfer", "poincare", "whitney")],
        ("jet", "--alpha"), ("jet", "--i"), ("jet", "--dict"),
        ("transfer", "--alpha"), ("transfer", "--i"),
        ("poincare", "--alpha"), ("poincare", "--grid"),
        *[("whitney", o) for o in ("--corpus", "--item", "--point", "--k", "--alpha",
                                   "--i", "--grid", "--dict")]])
    def test_option_the_command_does_not_read(self, tmp_path, capsys, command, option):
        value = {"--format": "json", "--corpus": str(DATA_DIR), "--item": "exp",
                 "--point": "0", "--k": "1", "--alpha": "0.5", "--i": "2",
                 "--grid": "1.0,4", "--dict": "8,0"}[option]
        base = {"classify": ["--item", "heaviside", "--point", "0", "--k", "0"],
                "jet": ["--item", "exp", "--point", "0", "--k", "1"],
                "transfer": ["--item", "exp", "--point", "0", "--k", "1"],
                "poincare": ["--item", "sin4", "--point", "0", "--k", "1"],
                "whitney": ["--field", str(TestWhitneyCommand().field_doc(tmp_path))]}
        out = tmp_path / "out"
        argv = [command] + base[command] + [option, value, "--out", str(out)]
        assert exit_code(argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_jet_order_above_bound_names_it(self, tmp_path, capsys):
        code = exit_code(["jet", "--item", "exp", "--point", "0", "--k", "9",
                          "--out", str(tmp_path)])
        assert code == 3
        assert "<= 6" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["jet", "--item", "exp", "--k", "-1"],
                                      ["transfer", "--item", "exp", "--k", "0"],
                                      ["transfer", "--item", "exp", "--k", "1", "--l", "-1"],
                                      ["transfer", "--item", "exp", "--k", "4", "--l", "3"],
                                      ["poincare", "--item", "sin4", "--k", "1", "--i", "5"]])
    def test_order_below_or_above_range(self, tmp_path, argv):
        assert exit_code(argv + ["--point", "0", "--out", str(tmp_path)]) == 3

    def test_negative_order_is_a_claim_not_an_error(self, tmp_path):
        # delta_0 is annotated refuted at order -1: r^{0} delta_0(phi_r) = phi(0)
        code = exit_code(["classify", "--item", "delta0", "--point", "0", "--k", "-1",
                          "--out", str(tmp_path)] + FAST_GRID)
        assert code == 0


class TestNumericalFailures:
    def test_domain_error_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "root.json").write_text(json.dumps(
            {"id": "root", "dim": 1,
             "atoms": [{"kind": "function", "exprs": ["x1^(1/2)"]}]}))
        code = exit_code(["classify", "--corpus", str(corpus), "--item", "root",
                          "--point", "0", "--k", "0", "--out", str(tmp_path)] + FAST_GRID)
        assert code == 3
        assert "singularity" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["jet", "--item", "exp", "--k", "3", "--grid", "1e-150,3"],
        ["classify", "--item", "heaviside", "--k", "0", "--grid", "1e-307,10", "--dict", "12,1"],
    ], ids=["jet-scale-overflows", "classify-radii-underflow"])
    def test_radius_grid_below_the_float_range(self, tmp_path, capsys, argv):
        # r^-3 at r = 1e-150 overflows, and plateau atoms rescaled by about
        # 1e-307 leave the normal floats: an input error with a message
        code = exit_code(argv + ["--point", "0", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("overflows" in err or "normal float" in err)

    @pytest.mark.parametrize("command", ["jet", "classify"])
    def test_support_rounded_to_a_point(self, tmp_path, capsys, command):
        # floats near 1e16 are 2 apart, so the probes' supports a +- r/2
        # round to a: an input error, not a jet of exact zeros
        code = exit_code([command, "--item", "sq", "--point", "1e16", "--k", "2",
                          "--out", str(tmp_path)])
        assert code == 3
        assert "zero width" in capsys.readouterr().err

    def test_nonconvergence_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        from ptdiff import poincare
        from ptdiff.quadrature import QuadratureNonConvergence

        def exhausted(pairs, config=None, strict=True):
            raise QuadratureNonConvergence(0.125, 0.5, 64)

        monkeypatch.setattr(poincare, "pair_many", exhausted)
        code = exit_code(["poincare", "--item", "sin4", "--point", "0", "--k", "1",
                          "--dict", "6,0", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.125" in err and "0.5" in err and "cells 64" in err
        report = json.loads((tmp_path / "poincare_sin4.json").read_text())
        assert report["command"] == "poincare"
        assert report["arguments"] == {"item": "sin4", "point": "0", "k": 1, "dict": [6, 0]}
        assert report["nonconvergence"] == {"value": 0.125, "bound": 0.5, "cells": 64}

    def test_nonconvergence_without_item_writes_no_report(self, tmp_path, capsys, monkeypatch):
        # whitney's namespace has no --item: the handler names no report for it
        from ptdiff import cli
        from ptdiff.quadrature import QuadratureNonConvergence

        def exhausted(field, kappa_F=None):
            raise QuadratureNonConvergence(0.125, 0.5, 64)

        monkeypatch.setattr(cli, "extend", exhausted)
        path = TestWhitneyCommand().field_doc(tmp_path)
        out = tmp_path / "out"
        assert exit_code(["whitney", "--field", str(path), "--out", str(out)]) == 2
        assert "cells 64" in capsys.readouterr().err
        assert not out.exists()
