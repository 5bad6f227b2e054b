"""Shipped corpus documents: schema, provenance notes, loading errors."""

import json
import warnings

import numpy as np
import pytest

from ptdiff import has_analytic_kappa, load_corpus
from ptdiff.corpus import DATA_DIR, CorpusError, CorpusWarning, get_item

EXPECTED_IDS = {
    "heaviside", "delta0", "abs_sqrt", "osc", "exp", "exp_neg", "sq", "cubic",
    "sin4", "cos4", "poly_deg0", "poly_deg1", "poly_deg2", "poly_deg3",
    "poly_deg4", "annuli", "gauss2d", "radial_root2d", "step2d", "delta2d",
    "layer2d",
}


class TestLoading:
    def test_all_items_present(self, corpus):
        assert set(corpus) == EXPECTED_IDS

    def test_every_item_builds(self, corpus):
        for iid, item in corpus.items():
            T = item.build()
            assert (T.n, T.d) == (item.n, item.d), iid
            # one smoke evaluation of the pairing machinery per item is done
            # in the distribution tests; here only the structure is checked
            assert len(T.atoms) >= 1

    def test_unknown_id(self):
        with pytest.raises(CorpusError) as exc:
            get_item("no_such_item")
        assert "available" in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path):
        doc = {"id": "dup", "dim": 1, "atoms": [
            {"kind": "function", "exprs": ["x1"]}]}
        (tmp_path / "a.json").write_text(json.dumps(doc))
        (tmp_path / "b.json").write_text(json.dumps(doc))
        with pytest.raises(CorpusError):
            load_corpus(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path)


class TestGetItem:
    """get_item parses only the requested document."""

    def corpus(self, tmp_path):
        (tmp_path / "exp.json").write_text((DATA_DIR / "exp.json").read_text())
        (tmp_path / "torn.json").write_text('{"id": "torn", "atoms": [')  # cut short
        (tmp_path / "list.json").write_text("[1, 2]")  # no id
        (tmp_path / "bare.json").write_text(json.dumps({"id": "bare", "dim": 1}))
        (tmp_path / "dir.json").mkdir()  # a file name that cannot be read
        return tmp_path

    def test_malformed_siblings_are_warnings(self, tmp_path):
        with pytest.warns(CorpusWarning) as record:
            item = get_item("exp", self.corpus(tmp_path))
        assert item == load_corpus()["exp"]
        messages = sorted(str(w.message) for w in record)
        assert len(messages) == 3
        assert messages[0].startswith("skipping corpus document dir.json: ")
        assert messages[1].startswith("skipping corpus document list.json: ")
        assert messages[2].startswith("skipping corpus document torn.json: ")

    @pytest.mark.parametrize("item_id,name", [("torn", "torn.json"), ("bare", "bare.json"),
                                              ("dir", "dir.json")])
    def test_malformed_item_itself_is_an_error(self, tmp_path, item_id, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorpusWarning)
            with pytest.raises(CorpusError, match=name):
                get_item(item_id, self.corpus(tmp_path))

    def test_unknown_id_lists_readable_ids(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorpusWarning)
            with pytest.raises(CorpusError, match="available: bare, exp$"):
                get_item("nope", self.corpus(tmp_path))

    def test_duplicate_id_rejected(self, tmp_path):
        doc = {"id": "dup", "dim": 1, "atoms": [{"kind": "function", "exprs": ["x1"]}]}
        (tmp_path / "a.json").write_text(json.dumps(doc))
        (tmp_path / "b.json").write_text(json.dumps(doc))
        (tmp_path / "exp.json").write_text((DATA_DIR / "exp.json").read_text())
        with pytest.raises(CorpusError, match="duplicate"):
            get_item("dup", tmp_path)
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(tmp_path)
        with pytest.warns(CorpusWarning, match="duplicate corpus id 'dup'"):
            assert get_item("exp", tmp_path).id == "exp"  # a sibling's duplicate


class TestAnnotations:
    def test_every_claim_has_oracle(self, corpus):
        for iid, item in corpus.items():
            for c in item.classification_claims:
                assert isinstance(c.oracle, str) and c.oracle.strip(), (iid, c)
            for j in item.jet_claims:
                assert isinstance(j.oracle, str) and j.oracle.strip(), (iid, j)

    def test_exploratory_items_carry_no_claims(self, corpus):
        for iid, item in corpus.items():
            if item.exploratory:
                assert not item.classification_claims, iid

    def test_exploratory_flags(self, corpus):
        assert corpus["annuli"].exploratory
        assert not corpus["gauss2d"].exploratory
        assert not corpus["heaviside"].exploratory

    def test_ground_truth_items_annotated(self, corpus):
        for iid, item in corpus.items():
            if not item.exploratory:
                assert item.classification_claims or item.jet_claims, iid

    def test_jet_claim_shapes(self, corpus):
        for iid, item in corpus.items():
            for j in item.jet_claims:
                for xi, vals in j.coeffs.items():
                    assert len(xi) == item.n, (iid, xi)
                    assert len(vals) == item.d, (iid, xi)
                    assert sum(xi) <= j.k, (iid, xi)

    def test_verdict_vocabulary(self, corpus):
        for iid, item in corpus.items():
            for c in item.classification_claims:
                assert c.verdict in ("confirmed", "refuted"), (iid, c)

    def test_polynomial_degrees(self, corpus):
        for deg in range(5):
            item = corpus[f"poly_deg{deg}"]
            assert item.polynomial_degree == deg
            assert item.atoms[0]["kind"] == "polynomial"

    def test_analytic_kappa_ids_exist(self, corpus):
        for iid in ("exp", "exp_neg", "sq", "cubic", "sin4", "cos4"):
            assert has_analytic_kappa(iid)
            assert iid in corpus
        assert not has_analytic_kappa("delta0")

    def test_function_type_flag(self, corpus):
        assert corpus["exp"].is_function_type
        assert not corpus["delta0"].is_function_type
