import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from twistedzeta import (
    FactoredRationalFunction,
    cli,
    fox,
    groups,
    reidemeister,
    zeta,
)
from twistedzeta.cli import main, parse_problem, run
from twistedzeta.errors import SchemaError, ValidationError

from references import poly_mul

KLEIN_SWAP = {
    "kind": "finite",
    "degree": 4,
    "generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "endo_images": [[2, 3, 0, 1], [1, 0, 3, 2]],
}

ABELIAN_MINUS_TWO = {"kind": "abelian", "matrix": [[-2]]}

S6_IDENTITY = {
    "kind": "finite",
    "degree": 6,
    "generators": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]],
}

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

# Rank 3: ||P_n|| passes the ring oracle's term cap at n = 5.
FRONTIER_DOC = {"kind": "free", "rank": 3,
                "images": ["abcAB", "bcaBC", "cabCA"]}
FRONTIER_NORMS = [15, 63, 267, 1131, 4791, 20295, 85971, 364179]

# Rank 6, det M = 75, no root-of-unity eigenvalue: factors up to degree 20.
RANK_SIX_DOC = {"kind": "abelian",
                "matrix": [[1, 2, 0, -1, 0, 1], [0, 1, 1, 0, 2, 0],
                           [1, 0, -1, 1, 0, 0], [0, -2, 0, 1, 1, 1],
                           [2, 0, 1, 0, -1, 0], [0, 1, 0, 1, 0, 2]]}

# Rank 9, entries -2..2 from random.Random(0), det M != 0 and no
# root-of-unity eigenvalue: the dual route reads the levels of M^m for
# m <= C(9, 4) = 126.
RANK_NINE_DOC = {"kind": "abelian",
                 "matrix": [[1, 1, -2, 0, 2, 1, 1, 0, 1],
                            [0, 2, -1, 2, -1, 0, -1, -2, 2],
                            [0, 2, 2, -1, 0, -2, -2, 0, 1],
                            [2, -2, 0, 1, 0, 2, -1, 2, 1],
                            [1, 2, 0, -2, 2, -2, -2, 1, -2],
                            [2, 1, 0, -1, 0, -2, -1, 2, -1],
                            [-1, -1, 2, 1, -2, -2, 0, 2, 1],
                            [-2, 0, 2, 0, -2, 2, 0, 2, -1],
                            [2, 2, 2, 0, 1, -2, 2, 1, 0]]}

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

    def test_infinite_at_one_parses_and_counts_exit_3(self, tmp_path,
                                                        capsys):
        # det(I - M) = 0 is decided by the routes, as for any n: the
        # document is valid, and every verb that counts exits 3 at n = 1.
        doc = {"kind": "abelian", "matrix": [[1]]}
        assert parse_problem(json.dumps(doc)).product.k == 1
        path = write_doc(tmp_path, doc)
        assert main(["check", path]) == 0
        capsys.readouterr()
        for verb in ("compute", "zeta", "torsion"):
            assert main([verb, path]) == 3, verb
            assert capsys.readouterr().err == (
                "error: infinite class count: det(I - M^1) = 0\n"), verb
        # a singular M has no torsion, whatever its counts
        singular = {"kind": "product", "matrix": [[1, 0], [0, 0]],
                    "finite": {"degree": 1, "generators": []}}
        code, out = run_verb(capsys, "torsion",
                             write_doc(tmp_path, singular, "singular.json"))
        assert code == 0
        assert out["torsion"] == [{"angle": "1/2",
                                   "skipped": "lattice part is singular",
                                   "agree": True}]

    def test_rejects_non_element_image(self):
        doc = dict(KLEIN_SWAP)
        doc["endo_images"] = [[1, 2, 3, 0], [2, 3, 0, 1]]
        with pytest.raises(ValidationError):
            parse_problem(json.dumps(doc))

    def test_no_generators_close_on_one_point(self):
        # the declared degree allocates nothing: the group is trivial
        doc = {"kind": "finite", "degree": 10 ** 6, "generators": []}
        assert parse_problem(json.dumps(doc)).product.F.perms == (
            (0,),)

    def test_default_endo_is_identity(self):
        doc = {"kind": "finite", "degree": 4,
               "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}
        parsed = parse_problem(json.dumps(doc))
        phi = parsed.product.phiF
        assert phi.image == tuple(range(4))

    def test_options_round_trip(self):
        doc = dict(ABELIAN_MINUS_TWO)
        doc["options"] = {"order": 6, "torsion_angles": ["1/3"]}
        parsed = parse_problem(json.dumps(doc))
        assert parsed.order == 6
        assert len(parsed.torsion_angles) == 1


# One document per field that must hold JSON integers, each with a JSON
# boolean in it: Python counts True and False as the ints 1 and 0.
BOOLEAN_FIELDS = {
    "matrix_entry": {"kind": "abelian", "matrix": [[2, True], [False, 3]]},
    "order": dict(ABELIAN_MINUS_TWO, options={"order": True}),
    "psi": dict(PRODUCT_DOC, psi=[True]),
    "degree": {"kind": "finite", "degree": True, "generators": [[0]]},
    "rank": {"kind": "free", "rank": True, "images": ["a"]},
    "permutation": {"kind": "finite", "degree": 2,
                    "generators": [[True, False]]},
    "torsion_angle": dict(ABELIAN_MINUS_TWO,
                          options={"torsion_angles": [True]}),
}


class TestBooleansAreNotIntegers:
    @pytest.mark.parametrize("field", BOOLEAN_FIELDS)
    def test_boolean_is_2(self, tmp_path, capsys, field):
        path = write_doc(tmp_path, BOOLEAN_FIELDS[field])
        assert main(["compute", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_the_same_documents_with_integers_are_valid(self, tmp_path,
                                                        capsys):
        # each document above is valid once its booleans are ints
        def as_ints(value):
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, list):
                return [as_ints(v) for v in value]
            if isinstance(value, dict):
                return {k: as_ints(v) for k, v in value.items()}
            return value

        for field, doc in BOOLEAN_FIELDS.items():
            path = write_doc(tmp_path, as_ints(doc), f"{field}.json")
            assert main(["check", path]) == 0, field
        capsys.readouterr()


class TestComputeOnce:
    """One compute of a product document with torsion angles builds the
    closed form once, takes each formula count once and partitions its
    group into classes once."""

    @staticmethod
    def counting(monkeypatch, calls, targets):
        for module, name in targets:
            real = getattr(module, name)

            def wrapper(*args, _real=real, **kwargs):
                calls.append(args[0])
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

    def compute(self, tmp_path, capsys):
        doc = dict(PRODUCT_DOC, options={"order": 7,
                                         "torsion_angles": ["1/3", "1/4"]})
        code = main(["compute", write_doc(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["agreement"] is True
        assert len(out["torsion"]) == 2
        return out

    def test_one_closed_form(self, tmp_path, capsys, monkeypatch):
        calls = []
        self.counting(monkeypatch, calls,
                      [(cli, "zeta_product"), (zeta, "zeta_product")])
        self.compute(tmp_path, capsys)
        assert len(calls) == 1

    def test_each_formula_count_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        self.counting(monkeypatch, calls,
                      [(cli, "r_product_counts"), (zeta, "r_product_counts")])
        out = self.compute(tmp_path, capsys)
        assert len(calls) == 1
        assert len(out["counts"]["product_formula"]) == 7
        assert out["counts"]["product_formula"][:2] == [6, 12]

    def test_one_class_partition_per_group(self, tmp_path, capsys,
                                           monkeypatch):
        calls = []
        self.counting(monkeypatch, calls,
                      [(groups, "ordinary_conjugacy_classes")])
        self.compute(tmp_path, capsys)
        assert len(calls) == 1

    def test_one_enumeration_per_distinct_iterate(self, tmp_path, capsys,
                                                  monkeypatch):
        # phi_F^n is the identity of S6 for every n: the oracle enumerates
        # its twisted classes once and the eventual image once more.  The
        # report is the one the single-n reference oracle gives, which
        # enumerates once per n.
        calls = []
        self.counting(monkeypatch, calls,
                      [(cli, "phi_conjugacy_classes"),
                       (reidemeister, "phi_conjugacy_classes")])
        path = write_doc(tmp_path, S6_IDENTITY)

        def report():
            assert main(["compute", path]) == 0
            out = json.loads(capsys.readouterr().out)
            del out["timing_seconds"]
            return out

        ladder = report()
        assert len(calls) == 2
        monkeypatch.setattr(
            cli, "r_product_oracles",
            lambda P, N: [reidemeister.r_product_oracle(P, n)
                          for n in range(1, N + 1)])
        assert report() == ladder
        assert len(calls) == 2 + 12 + 1
        assert ladder["counts"]["twisted_conjugacy_oracle"] == [11] * 12


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

    def test_rank_nine_abelian_report(self, tmp_path, capsys):
        code, out = run_verb(capsys, "compute",
                             write_doc(tmp_path, RANK_NINE_DOC))
        assert code == 0 and out["agreement"] is True
        counts = out["counts"]["determinant_formula"]
        assert counts == lattice_counts(RANK_NINE_DOC["matrix"], len(counts))

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
        # 1/golden, the positive root of x^2 + x - 1, to 2^-50 or better
        lower, upper = map(Fraction, bounds["spectral_bound"])
        assert lower * lower + lower - 1 <= 0 <= upper * upper + upper - 1
        assert (upper - lower) * 2 ** 50 <= upper

    @pytest.mark.parametrize("body", [KLEIN_SWAP, ABELIAN_MINUS_TWO,
                                      PRODUCT_DOC, FREE_DOC],
                             ids=lambda body: body["kind"])
    def test_sections_run_in_any_order(self, body):
        # Each section reads the parsed document alone, so the sections run
        # backwards on a fresh parse give what ``run`` gives.
        full = run(parse_problem(json.dumps(body)))
        sections = list(cli._SECTIONS[body["kind"]])
        backwards = cli._report(parse_problem(json.dumps(body)),
                                reversed(sections))
        assert list(backwards) == ["kind", *reversed(sections), "agreement"]
        for name in sections:
            assert backwards[name] == full[name], name
        assert backwards["agreement"] is full["agreement"] is True


class TestOneCountEngine:
    """finite is Z^0 x F, abelian is Z^k x 1: all three kinds run one counts
    section, under their own route labels."""

    def test_route_labels_in_report_order(self):
        labels = {doc["kind"]: list(run(parse_problem(json.dumps(doc)))[
            "counts"]) for doc in (KLEIN_SWAP, ABELIAN_MINUS_TWO, PRODUCT_DOC)}
        assert labels == {
            "finite": ["fixed_class_formula", "class_function_trace",
                       "twisted_conjugacy_oracle"],
            "abelian": ["determinant_formula", "smith_coset_oracle",
                        "signed_exterior_trace"],
            "product": ["product_formula", "signed_trace",
                        "enumeration_oracle"],
        }

    def test_product_of_rank_zero_is_its_finite_part(self, tmp_path, capsys):
        finite = {k: v for k, v in KLEIN_SWAP.items() if k != "kind"}
        for product in ({"kind": "product", "matrix": [], "finite": finite},
                        {"kind": "product", "matrix": [], "psi": [],
                         "finite": finite}):
            code, out = run_verb(capsys, "compute",
                                 write_doc(tmp_path, product))
            assert code == 0 and out["agreement"] is True
            _, alone = run_verb(capsys, "compute",
                                write_doc(tmp_path, KLEIN_SWAP, "f.json"))
            formula, trace, oracle = out["counts"].values()
            expected = alone["counts"]["fixed_class_formula"]
            assert formula == trace == expected
            assert alone["counts"]["class_function_trace"] == expected
            assert oracle == expected[:4] + [None] * 8
            assert out["congruences"] == alone["congruences"]
            assert out["zeta"]["series_check"]["agree"] is True

    def test_abelian_of_rank_zero_is_2(self, tmp_path, capsys):
        # its functional equation has no constant: R(1/z) = -z^c R(z)
        path = write_doc(tmp_path, {"kind": "abelian", "matrix": []})
        assert main(["compute", path]) == 2
        assert "abelian: expected a matrix" in capsys.readouterr().err


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

    def test_directory_is_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_file_that_is_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "abelian", "matrix": [[2]], "x": "\xe9"}')
        assert main(["check", str(path)]) == 2
        assert "can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,  # deeper than the recursion limit
        '{"kind": "abelian", "matrix": [[' + "9" * 4301 + "]]}"],
        ids=["deep", "long_integer"])
    def test_unloadable_json_is_2(self, tmp_path, capsys, text):
        with pytest.raises(SchemaError, match="unloadable JSON"):
            parse_problem(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert "error: unloadable JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["--json", "--text"])
    def test_long_exact_results_print(self, tmp_path, capsys, fmt):
        # R_12 = 10^4560 - 1, past Python's 4300-digit guard, which the
        # document parse keeps and main restores
        doc = {"kind": "product", "matrix": [[10 ** 380]],
               "finite": {"degree": 1, "generators": []}}
        digits = sys.get_int_max_str_digits()
        assert main(["compute", write_doc(tmp_path, doc), fmt]) == 0
        assert "9" * 4560 in capsys.readouterr().out
        assert sys.get_int_max_str_digits() == digits
        with pytest.raises(SchemaError, match="unloadable JSON"):
            parse_problem('{"kind": "abelian", "matrix": [['
                          + "9" * (digits + 1) + "]]}")

    def test_long_disagreeing_counts_print(self, capsys, monkeypatch):
        monkeypatch.setattr("twistedzeta.cli.r_product_counts",
                            lambda P, N: [10 ** 5000 + 1] + [0] * (N - 1))
        assert main(["compute", str(SAMPLES / "doubling_flip.json")]) == 4
        err = capsys.readouterr().err
        assert f"R_1..R_2 = [1{'0' * 4999}1, 0]:" in err

    @pytest.mark.parametrize("angle", [0.1, 0.5, 1.0])
    def test_float_torsion_angle_is_2(self, tmp_path, capsys, angle):
        # a float is not the exact angle it was written as: 0.1 would be
        # 3602879701896397/36028797018963968
        doc = dict(ABELIAN_MINUS_TWO, options={"torsion_angles": [angle]})
        with pytest.raises(SchemaError, match="as a rational string"):
            parse_problem(json.dumps(doc))
        assert main(["torsion", write_doc(tmp_path, doc)]) == 2
        assert "as a rational string" in capsys.readouterr().err

    def test_rational_string_angles_stay_exact(self):
        doc = dict(ABELIAN_MINUS_TWO,
                   options={"torsion_angles": ["0.1", "1/10", 2]})
        angles = parse_problem(json.dumps(doc)).torsion_angles
        assert angles == [Fraction(1, 10), Fraction(1, 10), 2]

    @pytest.mark.parametrize("angle", ["1e99999999999", "1E-2", "0.1e1"])
    def test_angle_with_an_exponent_is_2(self, tmp_path, capsys, angle):
        # Fraction would compute 10 ** 99999999999 before any digit guard
        doc = {"kind": "abelian", "matrix": [[2]],
               "options": {"torsion_angles": [angle]}}
        start = time.monotonic()
        assert main(["check", write_doc(tmp_path, doc)]) == 2
        assert time.monotonic() - start < 1
        assert "as a rational string" in capsys.readouterr().err

    @pytest.mark.parametrize("angles", ["12", 0.5])
    def test_torsion_angles_not_a_list_is_2(self, tmp_path, capsys, angles):
        # "12" is not read character by character as the angles 1 and 2
        doc = dict(ABELIAN_MINUS_TWO, options={"torsion_angles": angles})
        assert main(["compute", write_doc(tmp_path, doc)]) == 2
        assert "'torsion_angles' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["ordr", "congruence_range"])
    def test_unknown_option_key_is_2(self, tmp_path, capsys, key):
        # read with .get, a misspelt option would be ignored without a word
        doc = {"kind": "product", "matrix": [[2, 1], [1, 1]],
               "finite": {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
               "options": {"order": 3, key: 10}}
        with pytest.raises(SchemaError, match=f"unknown option '{key}'"):
            parse_problem(json.dumps(doc))
        assert main(["check", write_doc(tmp_path, doc)]) == 2
        assert f"unknown option '{key}'" in capsys.readouterr().err

    def test_order_flag_lowers_congruence_range(self, tmp_path, capsys):
        doc = dict(ABELIAN_MINUS_TWO, options={"order": 10})
        assert main(["compute", write_doc(tmp_path, doc), "--order", "3"]) == 0
        residues = json.loads(capsys.readouterr().out)["congruences"][
            "residues"]
        assert [n for n, _ in residues] == [1, 2, 3]

    def test_congruences_follow_order_flag(self, tmp_path, capsys):
        # the congruences are checked for n = 1..order, and so to --order
        doc = {"kind": "abelian", "matrix": [[2, 1], [1, 1]], "options": {}}
        assert main(["compute", write_doc(tmp_path, doc), "--order", "16"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["counts"]["determinant_formula"]) == 16
        assert len(out["congruences"]["residues"]) == 16

    def test_infinite_count_is_3(self, tmp_path, capsys):
        # det(I - M) is nonzero but det(I - M^2) vanishes
        doc = {"kind": "abelian", "matrix": [[-1]]}
        path = write_doc(tmp_path, doc)
        assert main(["compute", str(path)]) == 3

    def test_eigenvalue_minus_one_is_3_for_every_verb(self, tmp_path,
                                                     capsys):
        path = write_doc(tmp_path, {"kind": "abelian", "matrix": [[-1]]})
        for verb in ("compute", "zeta", "torsion"):
            assert main([verb, path]) == 3, verb
        assert "det(I - M^2) = 0" in capsys.readouterr().err

    def test_infinite_iterate_past_the_order_is_3(self, tmp_path, capsys):
        # At order 1 every count route is finite; the zeta section's closed
        # form still rejects n = 2
        path = write_doc(tmp_path, {"kind": "abelian", "matrix": [[-1]]})
        assert main(["compute", path, "--order", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: infinite class count: "
                                "det(I - M^2) = 0\n")

    def test_oracle_disagreement_is_4(self, capsys, monkeypatch):
        # counts R_1 = 1, R_2 = 0 make exp(sum R_n/n z^n) non-integral
        monkeypatch.setattr("twistedzeta.cli.r_product_counts",
                            lambda P, N: [1] + [0] * (N - 1))
        assert main(["compute", str(SAMPLES / "doubling_flip.json")]) == 4
        assert "oracle disagreement" in capsys.readouterr().err

    def test_oracle_disagreement_prints_the_counts(self, capsys, monkeypatch):
        monkeypatch.setattr("twistedzeta.cli.r_product_counts",
                            lambda P, N: [1] + [0] * (N - 1))
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


# The verbs that apply to each kind, and the sections each verb prints.
APPLICABLE = {
    "finite": {"check", "compute"},
    "abelian": {"check", "compute", "zeta", "torsion"},
    "product": {"check", "compute", "zeta", "torsion"},
    "free": {"check", "compute", "bounds"},
}
VERB_SECTIONS = {"zeta": ["zeta"], "torsion": ["torsion"],
                 "bounds": ["bounds", "twisted_power_norms",
                            "power_norm_oracle"]}
SAMPLE_PATHS = sorted(SAMPLES.glob("*.json"))


def lattice_counts(matrix, N):
    """|det(I - M^n)| for n = 1..N: powers by row-times-column sums, each
    determinant by Gaussian elimination over Fraction."""
    k = len(matrix)
    power, counts = [[int(i == j) for j in range(k)] for i in range(k)], []
    for _ in range(N):
        power = [[sum(a * matrix[t][j] for t, a in enumerate(row))
                  for j in range(k)] for row in power]
        A = [[Fraction(int(i == j) - power[i][j]) for j in range(k)]
             for i in range(k)]
        d = Fraction(1)
        for c in range(k):
            pivot = next((r for r in range(c, k) if A[r][c]), None)
            if pivot is None:
                d = Fraction(0)
                break
            if pivot != c:
                A[c], A[pivot], d = A[pivot], A[c], -d
            d *= A[c][c]
            for r in range(c + 1, k):
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
        counts.append(abs(int(d)))
    return counts


def run_verb(capsys, verb, path, *extra):
    code = main([verb, str(path), *extra])
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)


class TestEveryVerb:
    @pytest.mark.parametrize("verb", ["check", "compute", *VERB_SECTIONS])
    @pytest.mark.parametrize("path", SAMPLE_PATHS, ids=lambda p: p.stem)
    def test_verb_on_sample(self, capsys, path, verb):
        kind = json.loads(path.read_text())["kind"]
        code, out = run_verb(capsys, verb, path)
        if verb not in APPLICABLE[kind]:
            assert code == 2
        elif verb == "check":
            assert code == 0 and out == {"kind": kind, "valid": True}
        else:
            assert code == 0
            assert out["agreement"] is True

    @pytest.mark.parametrize("path", SAMPLE_PATHS, ids=lambda p: p.stem)
    def test_verbs_print_the_compute_sections(self, capsys, tmp_path, path):
        doc = json.loads(path.read_text())
        # the same angles for every verb: the torsion verb has its own default
        doc.setdefault("options", {}).setdefault("torsion_angles",
                                                 ["1/2", "1/3"])
        doc_path = write_doc(tmp_path, doc)
        _, full = run_verb(capsys, "compute", doc_path)
        for verb, sections in VERB_SECTIONS.items():
            if verb not in APPLICABLE[doc["kind"]]:
                continue
            code, out = run_verb(capsys, verb, doc_path)
            assert code == 0
            assert set(out) == {"kind", "agreement", *sections}
            for name in sections:
                assert out[name] == full[name], (verb, name)

    @pytest.mark.parametrize("verb", ["check", "compute", *VERB_SECTIONS])
    @pytest.mark.parametrize("path", SAMPLE_PATHS, ids=lambda p: p.stem)
    def test_json_has_one_line_per_key(self, capsys, monkeypatch, path,
                                       verb):
        # One line per top-level key parses to what the indented encoding
        # of the same report parses to.
        emitted = []
        emit = cli._emit

        def recording(report, as_json):
            emitted.append(report)
            emit(report, as_json)

        monkeypatch.setattr(cli, "_emit", recording)
        code = main([verb, str(path)])
        out = capsys.readouterr().out
        if not emitted:
            assert code == 2 and out == ""
            return
        [report] = emitted
        assert json.loads(out) == json.loads(
            json.dumps(report, indent=2, default=str))
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == ("{", "}")
        assert len(lines) == len(report) + 2
        for key, line in zip(report, lines[1:]):
            assert line.startswith(f"  {json.dumps(key)}: ")


class TestSkippedAndBooleans:
    def test_torsion_agree_is_a_json_boolean(self, capsys):
        code, out = run_verb(capsys, "compute",
                             SAMPLES / "doubling_flip.json")
        assert code == 0
        assert len(out["torsion"]) == 2
        assert all(entry["agree"] is True for entry in out["torsion"])

    def test_non_bijective_finite_part_skips_torsion(self, tmp_path, capsys):
        doc = dict(PRODUCT_DOC)
        doc["finite"] = dict(PRODUCT_DOC["finite"],
                             endo_images=[[0, 1, 2, 3], [0, 1, 2, 3]])
        doc["options"] = {"torsion_angles": ["1/3"]}
        code, out = run_verb(capsys, "compute", write_doc(tmp_path, doc))
        assert code == 0
        assert out["torsion"] == [{"angle": "1/3",
                                   "skipped": "finite part is not bijective",
                                   "agree": True}]
        assert out["agreement"] is True

    def test_singular_lattice_skips_what_needs_det_m(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"kind": "abelian", "matrix": [[0]]})
        code, out = run_verb(capsys, "compute", path)
        assert code == 0
        assert out["functional_equation"] == {"skipped": "det M = 0"}
        assert out["torsion"] == [{"angle": "1/2",
                                   "skipped": "lattice part is singular",
                                   "agree": True}]
        assert out["counts"]["determinant_formula"] == [1] * 12
        assert out["agreement"] is True
        code, out = run_verb(capsys, "torsion", path)
        assert code == 0
        assert out["torsion"][0]["skipped"] == "lattice part is singular"

    @pytest.mark.parametrize("verb, doc", [
        ("compute", {"kind": "abelian", "matrix": [[10**380]]}),
        ("torsion", {"kind": "product", "matrix": [[10**380]],
                     "finite": {"degree": 1, "generators": []}}),
    ])
    def test_torsion_past_the_float_range_is_skipped(self, tmp_path, capsys,
                                                      verb, doc):
        # 1 - 10^380 z at z = -1 is past the float range: neither route has
        # a float value, and the exact identity still decides agree.  Order
        # 2 keeps the counts under the digit guard of json.loads.
        code, out = run_verb(capsys, verb, write_doc(tmp_path, doc),
                             "--order", "2")
        assert code == 0
        [entry] = out["torsion"]
        assert entry == {"angle": "1/2",
                         "skipped": "the value is past the float range: "
                                    "int too large to convert to float",
                         "agree": True}
        assert out["agreement"] is True

    def test_torsion_of_a_singular_map_with_infinite_counts(self, tmp_path,
                                                            capsys):
        # eigenvalues 0 and -1: det(I - M^2) = 0, so the zeta function does
        # not exist, but the torsion verb only needs det M = 0 to skip
        path = write_doc(tmp_path, {"kind": "abelian",
                                    "matrix": [[0, 0], [0, -1]]})
        code, out = run_verb(capsys, "torsion", path)
        assert code == 0
        assert out["torsion"] == [{"angle": "1/2",
                                   "skipped": "lattice part is singular",
                                   "agree": True}]
        assert main(["zeta", path]) == 3
        assert main(["compute", path]) == 3

    def test_no_false_pole_next_to_one(self, tmp_path, capsys):
        # 1 - z is 6.3e-7 at this angle, which a float tolerance took for 0
        doc = {"kind": "abelian", "matrix": [[2]],
               "options": {"torsion_angles": ["1/10000000"]}}
        code, out = run_verb(capsys, "torsion", write_doc(tmp_path, doc))
        assert code == 0
        entry, = out["torsion"]
        assert "pole" not in entry and entry["agree"] is True
        assert entry["value"] == pytest.approx(6.283185307e-07, rel=1e-9)
        assert entry["lefschetz_route"] == pytest.approx(entry["value"],
                                                         rel=1e-12)

    @staticmethod
    def extend_first_factor(monkeypatch):
        """Make the closed form's first factor one coefficient longer."""
        real = cli.zeta_product

        def wrong_factor(P):
            rf = real(P)
            (poly, e), *rest = rf.factors
            wrong = (*poly, 1)
            return FactoredRationalFunction(((wrong, e), *rest),
                                            rf.sign_convention)

        monkeypatch.setattr(cli, "zeta_product", wrong_factor)

    def test_wrong_closed_form_factor_disagrees(self, tmp_path, capsys,
                                                monkeypatch):
        self.extend_first_factor(monkeypatch)
        doc = dict(PRODUCT_DOC, options={"torsion_angles": ["1/3", "1/5"]})
        assert main(["torsion", write_doc(tmp_path, doc)]) == 4
        out = json.loads(capsys.readouterr().out)
        assert [entry["agree"] for entry in out["torsion"]] == [False, False]
        assert out["agreement"] is False

    def test_functional_equation_mismatch_prints_the_report(
            self, tmp_path, capsys, monkeypatch):
        # (1 - z)^2 (1 - 3z + z^2)^-1 becomes (1 - z + z^2)^2 (...)^-1,
        # whose substituted ratio keeps a power of dz: every section is
        # still printed, and the run exits 4.
        self.extend_first_factor(monkeypatch)
        path = write_doc(tmp_path, {"kind": "abelian",
                                    "matrix": [[2, 1], [1, 1]]})
        assert main(["compute", path]) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert captured.err == ""
        assert out["functional_equation"] == {
            "is_constant": False,
            "reason": "the substituted zeta ratio carries (dz)^-2"}
        assert out["zeta"]["series_check"]["agree"] is False
        assert out["agreement"] is False
        assert list(out) == ["kind", "counts", "zeta", "congruences",
                             "functional_equation", "torsion", "agreement",
                             "inputs", "timing_seconds"]

    @pytest.mark.parametrize("doc", [
        RANK_SIX_DOC,
        dict(PRODUCT_DOC, options={"torsion_angles": ["1/3", "1/5", "1/2"]}),
    ], ids=["abelian-rank-6", "product-with-angles"])
    def test_the_identities_form_no_polynomial_product(
            self, tmp_path, capsys, doc):
        # The series, the functional equation and the torsion identity are
        # decided on the factors.  Every value a package function returns
        # is recorded: no product of two or more factor powers of a zeta
        # function (its numerator, its denominator or both) is among them,
        # the only __mul__ reached is the group-ring product, and the
        # reports are those of an unrecorded run.
        path = write_doc(tmp_path, doc)
        package = str(Path(zeta.__file__).parent)

        def reports():
            out = {}
            for verb in ("compute", "zeta", "torsion"):
                code = main([verb, path])
                report = json.loads(capsys.readouterr().out)
                report.pop("timing_seconds", None)
                out[verb] = code, report
            return out

        called, returned = set(), []

        def record(frame, event, arg):
            code = frame.f_code
            if event == "return" and code.co_filename.startswith(package):
                called.add(code.co_qualname)
                returned.append(arg)

        sys.setprofile(record)
        try:
            recorded = reports()
        finally:
            sys.setprofile(None)
        assert recorded == reports()
        assert all(code == 0 for code, _ in recorded.values())

        products = set()
        for rf in returned:
            if not isinstance(rf, FactoredRationalFunction):
                continue
            for signs in ((1,), (-1,), (1, -1)):
                powers = [poly for poly, e in rf.factors
                          for sign in signs for _ in range(sign * e)]
                if len(powers) >= 2:
                    product = (1,)
                    for poly in powers:
                        product = poly_mul(product, poly)
                    products.add(product)
        assert products, "no zeta function with two factor powers was seen"
        assert [v for v in returned if isinstance(v, tuple)
                and all(type(c) is int for c in v) and v in products] == []
        assert {name for name in called if name.endswith("__mul__")
                } <= {"GroupRingElement.__mul__"}

    @pytest.mark.parametrize("order", ["0", "-3"])
    @pytest.mark.parametrize("sample", ["doubling_flip", "klein_swap"])
    def test_order_override_below_one_is_2(self, capsys, sample, order):
        path = SAMPLES / f"{sample}.json"
        assert main(["compute", str(path), "--order", order]) == 2
        assert "'--order' must be >= 1" in capsys.readouterr().err


class TestFreePowerNorms:
    def test_frontier_substitution_finishes(self, tmp_path, capsys):
        code, out = run_verb(capsys, "compute",
                             write_doc(tmp_path, FRONTIER_DOC))
        assert code == 0
        assert out["twisted_power_norms"] == FRONTIER_NORMS
        oracle = out["power_norm_oracle"]
        assert oracle == {"ring_product": FRONTIER_NORMS[:4] + [None] * 4,
                          "term_cap": 4096}
        assert out["agreement"] is True

    def test_ring_oracle_stops_at_the_term_cap(self, tmp_path, capsys,
                                               monkeypatch):
        # one ring-matrix product per n = 2..4, none for n = 5
        products = []
        matmul = fox._chain_matmul

        def counting(left, right):
            products.append(1)
            return matmul(left, right)

        monkeypatch.setattr(fox, "_chain_matmul", counting)
        code, _ = run_verb(capsys, "bounds", write_doc(tmp_path, FRONTIER_DOC))
        assert code == 0
        assert len(products) == 3

    def test_every_entry_is_checked_below_the_cap(self, tmp_path, capsys):
        code, out = run_verb(capsys, "bounds", write_doc(tmp_path, FREE_DOC))
        assert code == 0
        assert out["twisted_power_norms"] == [3, 5, 8, 13, 21, 34, 55, 89]
        assert out["power_norm_oracle"]["ring_product"] == \
            out["twisted_power_norms"]

    def test_wrong_oracle_value_is_4(self, tmp_path, capsys, monkeypatch):
        real = cli.twisted_power_norms
        monkeypatch.setattr(
            "twistedzeta.cli.twisted_power_norms",
            lambda phi, A, N: [*real(phi, A, N)[:-1], 0])
        code = main(["compute", write_doc(tmp_path, FREE_DOC)])
        assert code == 4
        out = json.loads(capsys.readouterr().out)
        assert out["agreement"] is False
        assert out["power_norm_oracle"]["ring_product"][-1] == 0

    def test_one_jacobian_per_document(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = fox.jacobian
        monkeypatch.setattr(fox, "jacobian",
                            lambda phi: calls.append(phi) or real(phi))
        code, _ = run_verb(capsys, "compute", write_doc(tmp_path, FREE_DOC))
        assert code == 0
        assert len(calls) == 1


class TestParserReuse:
    CALLS = [
        ("compute", "doubling_flip", "--order", "5"),
        ("bounds", "golden_substitution", "--text"),
        ("zeta", "lattice_times_klein", "--order", "3", "--json"),
        ("compute", "klein_swap", "--text"),
        ("torsion", "doubling_flip"),
        ("check", "klein_swap", "--order", "2"),
    ]

    def outputs(self, capsys, fresh_parser):
        results = []
        for verb, sample, *extra in self.CALLS:
            if fresh_parser:
                cli._parser.cache_clear()
            code = main([verb, str(SAMPLES / f"{sample}.json"), *extra])
            out = capsys.readouterr().out
            # the report's own timing is the one field that may differ
            lines = [line for line in out.splitlines()
                     if "timing_seconds" not in line]
            results.append((code, lines))
        return results

    def test_consecutive_calls_match_calls_made_one_at_a_time(self, capsys):
        fresh = self.outputs(capsys, fresh_parser=True)
        reused = self.outputs(capsys, fresh_parser=False)
        assert reused == fresh
        assert [code for code, _ in reused] == [0] * len(self.CALLS)
