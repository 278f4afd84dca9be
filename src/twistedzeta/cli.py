"""Command-line surface: declarative JSON problem documents in, reports out.

Verbs:
  check    validate a document and exit
  compute  full report with every applicable formula and its oracle
  zeta     zeta factors plus the exact series identity check
  bounds   Nielsen-radius bounds for a free-group document
  torsion  torsion special values at the requested angles

Exit codes: 0 success, 2 validation error, 3 infinite class count
detected, 4 internal oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InfiniteReidemeister,
    OracleDisagreement,
    PoleAtEvaluation,
    SchemaError,
    TwistedZetaError,
    ValidationError,
)
from .fox import (
    FreeGroupEndo,
    chain_matrices,
    matrix_norm,
    nielsen_radius_bounds,
    twisted_power_norms,
)
from .groups import (
    FiniteGroup,
    GroupEndomorphism,
    endo_from_generator_images,
    eventual_image,
    group_from_permutations,
    identity_endo,
    iterate_endo,
    phi_conjugacy_classes,
)
from .intlinalg import IntMatrix, det, mat_pow
from .reidemeister import (
    ProductEndomorphism,
    class_function_matrix,
    r_abelian,
    r_abelian_smith,
    r_abelian_trace,
    r_finite,
    r_product,
    r_product_oracle,
    r_product_traces,
)
from .zeta import (
    check_all_iterates_finite,
    congruence_check,
    expand_rational,
    functional_equation_check,
    torsion_special_value,
    torsion_via_lefschetz,
    zeta_product,
    zeta_series_oracle,
)

DEFAULT_ORDER = 12
ORACLE_SIZE_CAP = 300  # max (#cosets * |F|) for the enumeration oracle
KINDS = ("finite", "abelian", "product", "free")


@dataclass
class ProblemDocument:
    kind: str
    payload: dict
    order: int = DEFAULT_ORDER
    congruence_range: int = DEFAULT_ORDER
    torsion_angles: list[Fraction] = field(default_factory=list)
    # validated domain objects, filled by parse_problem
    objects: dict = field(default_factory=dict)


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _int_matrix(raw, context) -> IntMatrix:
    _require(isinstance(raw, list) and raw, f"{context}: expected a matrix")
    _require(
        all(isinstance(row, list) and all(isinstance(a, int) for a in row)
            for row in raw),
        f"{context}: matrix entries must be integers")
    _require(all(len(row) == len(raw) for row in raw),
             f"{context}: matrix must be square")
    return IntMatrix(raw)


def _parse_angle(raw, context) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        raise SchemaError(f"{context}: bad rational angle {raw!r}")


def _build_finite(payload) -> tuple[FiniteGroup, GroupEndomorphism]:
    _require(isinstance(payload.get("degree"), int) and payload["degree"] >= 1,
             "finite: 'degree' must be a positive integer")
    gens = payload.get("generators")
    _require(isinstance(gens, list), "finite: 'generators' must be a list")
    try:
        G = group_from_permutations(payload["degree"], [tuple(p) for p in gens])
    except TwistedZetaError as exc:
        raise ValidationError(f"finite: {exc}") from exc
    images = payload.get("endo_images")
    if images is None:
        return G, identity_endo(G)
    _require(isinstance(images, list) and len(images) == len(gens),
             "finite: 'endo_images' must list one permutation per generator")
    index = {}
    for g in G.elements():
        index[G.names[g]] = g
    gen_ids, img_ids = [], []
    for p, q in zip(gens, images):
        gp, gq = str(tuple(p)), str(tuple(q))
        if gp not in index or gq not in index:
            raise ValidationError(
                "finite: an endomorphism image is not an element of the group")
        gen_ids.append(index[gp])
        img_ids.append(index[gq])
    try:
        phi = endo_from_generator_images(G, gen_ids, img_ids)
    except TwistedZetaError as exc:
        raise ValidationError(f"finite: {exc}") from exc
    return G, phi


def _build_product(payload) -> ProductEndomorphism:
    M = _int_matrix(payload.get("matrix"), "product")
    finite = payload.get("finite")
    _require(isinstance(finite, dict), "product: 'finite' section required")
    F, phiF = _build_finite(finite)
    psi = payload.get("psi", [0] * M.rows)
    _require(isinstance(psi, list) and len(psi) == M.rows,
             "product: 'psi' must list one F-element index per basis vector")
    _require(all(isinstance(a, int) and 0 <= a < F.order for a in psi),
             "product: psi entries must be element indices of the finite part")
    try:
        return ProductEndomorphism(M, tuple(psi), phiF, F)
    except TwistedZetaError as exc:
        raise ValidationError(f"product: {exc}") from exc


def parse_problem(text: str) -> ProblemDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "document must be a JSON object")
    kind = raw.get("kind")
    _require(kind in KINDS, f"'kind' must be one of {KINDS}")

    options = raw.get("options", {})
    _require(isinstance(options, dict), "'options' must be an object")
    order = options.get("order", DEFAULT_ORDER)
    crange = options.get("congruence_range", order)
    _require(isinstance(order, int) and order >= 1, "'order' must be >= 1")
    _require(isinstance(crange, int) and crange >= 1,
             "'congruence_range' must be >= 1")
    angles = [_parse_angle(a, "torsion_angles")
              for a in options.get("torsion_angles", [])]

    doc = ProblemDocument(kind, raw, order, crange, angles)

    if kind == "finite":
        G, phi = _build_finite(raw)
        doc.objects = {"group": G, "endo": phi}
    elif kind == "abelian":
        M = _int_matrix(raw.get("matrix"), "abelian")
        if det(IntMatrix.identity(M.rows) - M) == 0:
            raise ValidationError(
                "abelian: det(I - M) = 0, the class count is infinite")
        doc.objects = {"matrix": M,
                       "product": ProductEndomorphism.from_matrix(M)}
    elif kind == "product":
        P = _build_product(raw)
        if det(IntMatrix.identity(P.k) - P.M) == 0:
            raise ValidationError(
                "product: det(I - M) = 0, the class count is infinite")
        doc.objects = {"product": P}
    else:  # free
        rank = raw.get("rank")
        _require(isinstance(rank, int) and 1 <= rank <= 26,
                 "free: 'rank' must be an integer in 1..26")
        images = raw.get("images")
        _require(isinstance(images, list) and len(images) == rank
                 and all(isinstance(s, str) for s in images),
                 "free: 'images' must list one word per generator")
        try:
            endo = FreeGroupEndo.from_strings(rank, images)
        except ValueError as exc:
            raise ValidationError(f"free: {exc}") from exc
        doc.objects = {"endo": endo}
    return doc


def serialize_factors(rf) -> list[dict]:
    return [{"coeffs": list(poly.coefficients), "exp": e}
            for poly, e in rf.factors]


def _finite_report(doc: ProblemDocument) -> dict:
    G, phi = doc.objects["group"], doc.objects["endo"]
    N = doc.order
    counts, trace_counts, oracle_counts = [], [], []
    B = class_function_matrix(G, phi).B
    for n in range(1, N + 1):
        phin = iterate_endo(phi, n)
        counts.append(r_finite(G, phin))
        trace_counts.append(mat_pow(B, n).trace())
        oracle_counts.append(phi_conjugacy_classes(G, phin).num_classes)
    H, phi_H, _ = eventual_image(G, phi)
    reduced_count = phi_conjugacy_classes(H, phi_H).num_classes
    residues = congruence_check(counts[: doc.congruence_range])
    agree = counts == trace_counts == oracle_counts and reduced_count == counts[0]
    return {
        "counts": {
            "fixed_class_formula": counts,
            "class_function_trace": trace_counts,
            "twisted_conjugacy_oracle": oracle_counts,
        },
        "eventual_image": {"order": H.order, "count": reduced_count},
        "congruences": {"residues": residues,
                        "all_zero": all(r == 0 for _, r in residues)},
        "agreement": agree and all(r == 0 for _, r in residues),
    }


def _zeta_section(P: ProductEndomorphism, order: int) -> dict:
    rf = zeta_product(P)
    series = zeta_series_oracle(P, order)
    expanded = expand_rational(rf, order)
    agree = expanded.coefficients == series.coefficients
    return {
        "factors": serialize_factors(rf),
        "display": str(rf),
        "sign_convention": {"p": rf.sign_convention.p,
                            "r": rf.sign_convention.r,
                            "sigma": rf.sign_convention.sigma},
        "series_check": {
            "order": order,
            "formula": "closed rational form vs exp(sum R_n/n z^n)",
            "agree": agree,
        },
    }


def _torsion_section(P: ProductEndomorphism, angles) -> list[dict]:
    out = []
    for t in angles:
        entry = {"angle": str(t)}
        try:
            v1 = torsion_special_value(P, t)
            v2 = torsion_via_lefschetz(P, t)
            entry.update({
                "value": v1,
                "lefschetz_route": v2,
                "agree": abs(v1 - v2) <= 1e-9 * max(abs(v1), abs(v2)),
            })
        except PoleAtEvaluation as exc:
            entry.update({"pole": str(exc), "agree": True})
        out.append(entry)
    return out


def _abelian_report(doc: ProblemDocument) -> dict:
    M = doc.objects["matrix"]
    P = doc.objects["product"]
    N = doc.order
    check_all_iterates_finite(M)
    counts, smith_counts, trace_counts = [], [], []
    for n in range(1, N + 1):
        Mn = mat_pow(M, n)
        counts.append(r_abelian(Mn))
        smith_counts.append(r_abelian_smith(Mn))
        trace_counts.append(r_abelian_trace(Mn))
    residues = congruence_check(counts[: doc.congruence_range])
    zeta_part = _zeta_section(P, N)
    feq = functional_equation_check(M)
    angles = doc.torsion_angles or [Fraction(1, 2)]
    torsion = _torsion_section(P, angles)
    agree = (
        counts == smith_counts == trace_counts
        and zeta_part["series_check"]["agree"]
        and all(r == 0 for _, r in residues)
        and feq.is_constant
        and all(entry["agree"] for entry in torsion)
    )
    return {
        "counts": {
            "determinant_formula": counts,
            "smith_coset_oracle": smith_counts,
            "signed_exterior_trace": trace_counts,
        },
        "zeta": zeta_part,
        "congruences": {"residues": residues,
                        "all_zero": all(r == 0 for _, r in residues)},
        "functional_equation": {
            "constant": str(feq.epsilon),
            "exponent": feq.exponent,
            "is_constant": feq.is_constant,
        },
        "torsion": torsion,
        "agreement": agree,
    }


def _product_report(doc: ProblemDocument) -> dict:
    P = doc.objects["product"]
    N = doc.order
    check_all_iterates_finite(P.M)
    counts = [r_product(P, n) for n in range(1, N + 1)]
    trace_counts = r_product_traces(P, N)
    oracle_counts = []
    for n in range(1, N + 1):
        # n first: the cell count costs a matrix power and a determinant
        if n <= 4 and (r_abelian(mat_pow(P.M, n)) * P.F.order
                       <= ORACLE_SIZE_CAP):
            oracle_counts.append(r_product_oracle(P, n))
        else:
            oracle_counts.append(None)
    residues = congruence_check(counts[: doc.congruence_range])
    zeta_part = _zeta_section(P, N)
    torsion = _torsion_section(P, doc.torsion_angles)
    agree = (
        counts == trace_counts
        and all(o is None or o == c for o, c in zip(oracle_counts, counts))
        and zeta_part["series_check"]["agree"]
        and all(r == 0 for _, r in residues)
        and all(entry["agree"] for entry in torsion)
    )
    return {
        "counts": {
            "product_formula": counts,
            "signed_trace": trace_counts,
            "enumeration_oracle": oracle_counts,
        },
        "zeta": zeta_part,
        "congruences": {"residues": residues,
                        "all_zero": all(r == 0 for _, r in residues)},
        "torsion": torsion,
        "agreement": agree,
    }


def _free_report(doc: ProblemDocument) -> dict:
    endo = doc.objects["endo"]
    bounds = nielsen_radius_bounds(endo)
    mats = chain_matrices(endo)
    growth = twisted_power_norms(endo, mats[1], 8)
    agree = bounds.bound_spectral >= float(bounds.bound_norm) - 1e-12
    return {
        "bounds": {
            "norm_bound": str(bounds.bound_norm),
            "spectral_bound": bounds.bound_spectral,
            "chain_norms": [matrix_norm(A) for A in mats],
        },
        "twisted_power_norms": growth,
        "agreement": agree,
    }


def run(doc: ProblemDocument) -> dict:
    """Full report: every applicable computation alongside its oracle."""
    start = time.monotonic()
    builders = {
        "finite": _finite_report,
        "abelian": _abelian_report,
        "product": _product_report,
        "free": _free_report,
    }
    body = builders[doc.kind](doc)
    body["kind"] = doc.kind
    body["inputs"] = {k: v for k, v in doc.payload.items() if k != "options"}
    body["timing_seconds"] = round(time.monotonic() - start, 6)
    return body


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + "  ").rstrip())
                lines.append(f"{indent}  --")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(_render_text(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistedzeta",
        description="Twisted conjugacy counts, zeta functions, and bounds "
                    "from declarative JSON problem documents.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("check", "compute", "zeta", "bounds", "torsion"):
        sp = sub.add_parser(verb)
        sp.add_argument("document", help="path to a JSON document, or - for stdin")
        sp.add_argument("--order", type=int, default=None,
                        help="series/iteration order (default 12)")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--json", dest="as_json", action="store_true",
                           default=True)
        group.add_argument("--text", dest="as_json", action="store_false")
    args = parser.parse_args(argv)

    try:
        doc = parse_problem(_read_document(args.document))
        if args.order is not None:
            doc.order = args.order
            doc.congruence_range = min(doc.congruence_range, args.order)

        if args.verb == "check":
            _emit({"kind": doc.kind, "valid": True}, args.as_json)
            return 0
        if args.verb == "compute":
            report = run(doc)
        elif args.verb == "zeta":
            if doc.kind not in ("abelian", "product"):
                raise ValidationError("zeta requires an abelian or product document")
            report = {"kind": doc.kind,
                      "zeta": _zeta_section(doc.objects["product"], doc.order)}
            report["agreement"] = report["zeta"]["series_check"]["agree"]
        elif args.verb == "bounds":
            if doc.kind != "free":
                raise ValidationError("bounds requires a free-group document")
            report = _free_report(doc)
            report["kind"] = doc.kind
        else:  # torsion
            if doc.kind not in ("abelian", "product"):
                raise ValidationError(
                    "torsion requires an abelian or product document")
            angles = doc.torsion_angles or [Fraction(1, 2)]
            torsion = _torsion_section(doc.objects["product"], angles)
            report = {"kind": doc.kind, "torsion": torsion,
                      "agreement": all(e["agree"] for e in torsion)}

        _emit(report, args.as_json)
        return 0 if report.get("agreement", True) else 4
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfiniteReidemeister as exc:
        print(f"error: infinite class count: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreement as exc:
        print(f"error: oracle disagreement at n = {exc.n}, counts "
              f"R_1..R_{exc.n} = {list(exc.counts)}: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
