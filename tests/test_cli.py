import json
from pathlib import Path

import pytest

from twistedzeta.cli import main, parse_problem, run
from twistedzeta.errors import SchemaError, ValidationError

KLEIN_SWAP = {
    "kind": "finite",
    "degree": 4,
    "generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "endo_images": [[2, 3, 0, 1], [1, 0, 3, 2]],
}

ABELIAN_MINUS_TWO = {"kind": "abelian", "matrix": [[-2]]}

PRODUCT_DOC = {
    "kind": "product",
    "matrix": [[-2]],
    "psi": [0],
    "finite": {
        "degree": 4,
        "generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
        "endo_images": [[2, 3, 0, 1], [1, 0, 3, 2]],
    },
}

FREE_DOC = {"kind": "free", "rank": 2, "images": ["ab", "a"]}

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParsing:
    def test_rejects_bad_json(self):
        with pytest.raises(SchemaError):
            parse_problem("{not json")

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_problem(json.dumps({"kind": "mystery"}))

    def test_rejects_singular_abelian(self):
        with pytest.raises(ValidationError):
            parse_problem(json.dumps({"kind": "abelian", "matrix": [[1]]}))

    def test_rejects_non_element_image(self):
        doc = dict(KLEIN_SWAP)
        doc["endo_images"] = [[1, 2, 3, 0], [2, 3, 0, 1]]
        with pytest.raises(ValidationError):
            parse_problem(json.dumps(doc))

    def test_default_endo_is_identity(self):
        doc = {"kind": "finite", "degree": 4,
               "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}
        parsed = parse_problem(json.dumps(doc))
        phi = parsed.objects["endo"]
        assert phi.image == tuple(range(4))

    def test_options_round_trip(self):
        doc = dict(ABELIAN_MINUS_TWO)
        doc["options"] = {"order": 6, "torsion_angles": ["1/3"]}
        parsed = parse_problem(json.dumps(doc))
        assert parsed.order == 6
        assert len(parsed.torsion_angles) == 1


class TestReports:
    def test_finite_report(self):
        doc = parse_problem(json.dumps(KLEIN_SWAP))
        report = run(doc)
        counts = report["counts"]["fixed_class_formula"]
        assert counts[0] == 2 and counts[1] == 4
        assert report["agreement"]

    def test_abelian_report_golden(self):
        doc = parse_problem(json.dumps(ABELIAN_MINUS_TWO))
        report = run(doc)
        assert report["counts"]["determinant_formula"][:4] == [3, 3, 9, 15]
        zeta = report["zeta"]
        assert zeta["sign_convention"] == {"p": 1, "r": 1, "sigma": -1}
        factors = {(tuple(f["coeffs"]), f["exp"]) for f in zeta["factors"]}
        assert factors == {((1, 1), 1), ((1, -2), -1)}
        assert zeta["series_check"]["agree"]
        fe = report["functional_equation"]
        assert fe["constant"] == "-1/2"
        assert report["congruences"]["all_zero"]
        assert report["torsion"][0]["agree"]
        assert report["torsion"][0]["value"] == pytest.approx(2.0)
        assert report["agreement"]

    def test_product_report(self):
        doc = parse_problem(json.dumps(PRODUCT_DOC))
        report = run(doc)
        counts = report["counts"]["product_formula"]
        assert counts[0] == 6 and counts[1] == 12
        assert report["agreement"]

    def test_free_report(self):
        doc = parse_problem(json.dumps(FREE_DOC))
        report = run(doc)
        bounds = report["bounds"]
        assert bounds["norm_bound"] == "1/3"
        assert bounds["spectral_bound"] == pytest.approx(0.6180339887, rel=1e-9)


class TestMainExitCodes:
    def test_check_ok(self, tmp_path, capsys):
        path = write_doc(tmp_path, ABELIAN_MINUS_TWO)
        assert main(["check", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"kind": "abelian", "valid": True}

    def test_compute_ok(self, tmp_path, capsys):
        path = write_doc(tmp_path, KLEIN_SWAP)
        assert main(["compute", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["agreement"]

    def test_schema_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["compute", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["compute", "/nonexistent/path.json"]) == 2

    def test_infinite_count_is_3(self, tmp_path, capsys):
        # det(I - M) is nonzero but det(I - M^2) vanishes
        doc = {"kind": "abelian", "matrix": [[-1]]}
        path = write_doc(tmp_path, doc)
        assert main(["compute", str(path)]) == 3

    def test_oracle_disagreement_is_4(self, capsys, monkeypatch):
        # counts R_1 = 1, R_2 = 0 make exp(sum R_n/n z^n) non-integral
        monkeypatch.setattr("twistedzeta.zeta.r_product",
                            lambda P, n: 1 if n == 1 else 0)
        assert main(["compute", str(SAMPLES / "doubling_flip.json")]) == 4
        assert "oracle disagreement" in capsys.readouterr().err

    def test_oracle_disagreement_prints_the_counts(self, capsys, monkeypatch):
        monkeypatch.setattr("twistedzeta.zeta.r_product",
                            lambda P, n: 1 if n == 1 else 0)
        assert main(["compute", str(SAMPLES / "doubling_flip.json")]) == 4
        err = capsys.readouterr().err
        assert "at n = 2, counts R_1..R_2 = [1, 0]:" in err

    def test_wrong_kind_for_verb_is_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, FREE_DOC)
        assert main(["zeta", path]) == 2
        path2 = write_doc(tmp_path, ABELIAN_MINUS_TWO, "p2.json")
        assert main(["bounds", path2]) == 2

    def test_zeta_verb(self, tmp_path, capsys):
        path = write_doc(tmp_path, ABELIAN_MINUS_TWO)
        assert main(["zeta", path, "--order", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["zeta"]["series_check"]["agree"]

    def test_torsion_verb(self, tmp_path, capsys):
        path = write_doc(tmp_path, ABELIAN_MINUS_TWO)
        assert main(["torsion", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["torsion"][0]["value"] == pytest.approx(2.0)

    def test_bounds_verb(self, tmp_path, capsys):
        path = write_doc(tmp_path, FREE_DOC)
        assert main(["bounds", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bounds"]["norm_bound"] == "1/3"

    def test_text_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, ABELIAN_MINUS_TWO)
        assert main(["compute", path, "--text"]) == 0
        out = capsys.readouterr().out
        assert "agreement" in out

    def test_stdin_document(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FREE_DOC)))
        assert main(["bounds", "-"]) == 0
