"""Command-line front-end: exit codes, report payloads, CSV schemas."""

import json
import shutil

import pytest

from ptdiff.cli import main
from ptdiff.corpus import DATA_DIR

FAST_GRID = ["--grid", "0.5,8", "--dict", "6,0"]


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_classify_matches_annotation(self, tmp_path):
        code = run(["classify", "--item", "heaviside", "--point", "0",
                    "--k", "0", "--out", str(tmp_path)] + FAST_GRID)
        assert code == 0

    def test_jet_matches_annotation(self, tmp_path):
        code = run(["jet", "--item", "exp", "--point", "0", "--k", "3",
                    "--grid", "0.5,10", "--out", str(tmp_path)])
        assert code == 0

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
        code = run(["jet", "--corpus", str(corpus), "--item", "exp", "--point", "0",
                    "--k", "3", "--out", str(tmp_path)])
        assert code == 3
        assert "no_atoms.json" in capsys.readouterr().err

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

    def test_csv_format_skips_json(self, tmp_path):
        run(["classify", "--item", "heaviside", "--point", "0", "--k", "0",
             "--format", "csv", "--out", str(tmp_path)] + FAST_GRID)
        assert not (tmp_path / "classify_heaviside.json").exists()
        assert (tmp_path / "classify_heaviside_decay.csv").exists()


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
                                       ["--k", "abc"], ["--k", "7"]])
    def test_classify_bad_argument(self, tmp_path, capsys, extra):
        argv = ["classify", "--item", "heaviside", "--point", "0", "--k", "0",
                "--out", str(tmp_path)] + extra
        assert exit_code(argv) == 3
        assert "error: argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
