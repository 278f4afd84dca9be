"""Command-line surface: declarative JSON problem documents in, reports out.

A report is a set of sections, each one quantity checked by two or more
routes; one table lists each kind's sections, and ``agreement`` is true when
the routes of every printed section agree.  A quantity that does not exist
for the document (the torsion of a non-invertible map, the functional
equation when det M = 0) is recorded as ``skipped`` and agrees.

The ``finite`` (k = 0), ``abelian`` (F = 1) and ``product`` kinds parse to
one endomorphism of Z^k x F and share one counts section.

Verbs:
  check    validate a document and exit
  compute  every section of the document's kind
  zeta     the zeta section: factors plus the exact series identity check
  bounds   the free-group sections: Nielsen-radius bounds, the twisted power
           norms as lengths of reduced images, and their ring-product oracle
  torsion  the torsion section at the requested angles (default 1/2)

Exit codes: 0 success, 2 a bad or unreadable document, 3 infinite class
count detected, 4 internal oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InfiniteReidemeister,
    NonInvertible,
    NotConstant,
    OracleDisagreement,
    PoleAtEvaluation,
    SchemaError,
    TwistedZetaError,
    ValidationError,
)
from .fox import (
    FreeGroupEndo,
    chain_matrices,
    chain_radius_bounds,
    power_image_lengths,
    twisted_power_norms,
)
from .groups import (
    FiniteGroup,
    GroupEndomorphism,
    endo_from_generator_images,
    eventual_image,
    group_from_permutations,
    identity_endo,
    phi_conjugacy_classes,
)
from .intlinalg import IntMatrix
from .reidemeister import (
    ProductEndomorphism,
    r_product_counts,
    r_product_oracles,
    r_product_traces,
)
from .zeta import (
    check_invertible,
    congruence_check,
    dual_lefschetz_zeta,
    expand_rational,
    functional_equation_check,
    lefschetz_identity,
    series_from_counts,
    torsion_special_value,
    torsion_via_lefschetz,
    zeta_product,
)

DEFAULT_ORDER = 12
# max (#cosets * |F|) for the enumeration oracle.  The oracle's cost does
# not grow with #cosets; the cap stays because the null entries above it
# are part of the stored benchmark answers.
ORACLE_SIZE_CAP = 300
NORM_ORACLE_TERM_CAP = 4096  # max terms of P_n for the ring-product oracle


@dataclass
class ProblemDocument:
    """A validated document.  ``product`` is the map of Z^k x F of every
    kind but ``free``, and ``endo`` the free-group map; an unset
    ``congruence_range`` (None) follows ``order``.  What several sections
    read is a cached property, built on first use from the fields as they
    then stand, so ``order`` must be final before any section runs:
    ``main`` applies ``--order`` first.
    """
    kind: str
    payload: dict
    order: int = DEFAULT_ORDER
    congruence_range: int | None = None
    torsion_angles: list[Fraction] = field(default_factory=list)
    product: ProductEndomorphism | None = None
    endo: FreeGroupEndo | None = None

    @functools.cached_property
    def formula_counts(self) -> list[int]:
        return r_product_counts(self.product, self.order)

    @functools.cached_property
    def closed_form(self):
        return zeta_product(self.product)

    @functools.cached_property
    def chain(self) -> list:
        return chain_matrices(self.endo)

    @functools.cached_property
    def image_lengths(self) -> list[int]:  # the formula norms ||(zJ)^n||
        return power_image_lengths(self.endo, 8)


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which Python
    counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(raw) -> bool:
    return isinstance(raw, list) and all(_is_int(a) for a in raw)


def _int_matrix(raw, context) -> IntMatrix:
    _require(isinstance(raw, list) and raw, f"{context}: expected a matrix")
    _require(all(_int_list(row) for row in raw),
             f"{context}: matrix entries must be integers")
    _require(all(len(row) == len(raw) for row in raw),
             f"{context}: matrix must be square")
    return IntMatrix(raw)


def _parse_angle(raw, context) -> Fraction:
    if isinstance(raw, (bool, float)):
        # a float is not exact: 0.1 is 3602879701896397/36028797018963968
        raise SchemaError(f"{context}: bad rational angle {raw!r}; give it "
                          'as a rational string such as "1/10"')
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        raise SchemaError(f"{context}: bad rational angle {raw!r}")


def _build_finite(payload) -> tuple[FiniteGroup, GroupEndomorphism]:
    _require(_is_int(payload.get("degree")) and payload["degree"] >= 1,
             "finite: 'degree' must be a positive integer")
    gens = payload.get("generators")
    _require(isinstance(gens, list) and all(_int_list(p) for p in gens),
             "finite: 'generators' must be a list of integer lists")
    # No generators give the trivial group whatever the degree: its one
    # element is closed on one point, not as a tuple of length degree.
    degree = payload["degree"] if gens else 1
    try:
        G = group_from_permutations(degree, [tuple(p) for p in gens])
    except TwistedZetaError as exc:
        raise ValidationError(f"finite: {exc}") from exc
    images = payload.get("endo_images")
    if images is None:
        return G, identity_endo(G)
    _require(isinstance(images, list) and len(images) == len(gens)
             and all(_int_list(q) for q in images),
             "finite: 'endo_images' must list one permutation per generator")
    img_ids = [G.index.get(tuple(q)) for q in images]
    if None in img_ids:
        raise ValidationError(
            "finite: an endomorphism image is not an element of the group")
    try:
        phi = endo_from_generator_images(G, img_ids)
    except TwistedZetaError as exc:
        raise ValidationError(f"finite: {exc}") from exc
    return G, phi


def _build_product(payload) -> ProductEndomorphism:
    matrix = payload.get("matrix")
    # k = 0: the document is its finite part
    M = IntMatrix([]) if matrix == [] else _int_matrix(matrix, "product")
    finite = payload.get("finite")
    _require(isinstance(finite, dict), "product: 'finite' section required")
    F, phiF = _build_finite(finite)
    psi = payload.get("psi", [0] * M.rows)
    _require(isinstance(psi, list) and len(psi) == M.rows,
             "product: 'psi' must list one F-element index per basis vector")
    _require(all(_is_int(a) and 0 <= a < F.order for a in psi),
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
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the recursion limit, or an integer literal
        # longer than Python's digit guard allows
        raise SchemaError(f"unloadable JSON: {exc}") from exc
    _require(isinstance(raw, dict), "document must be a JSON object")
    kind = raw.get("kind")
    _require(kind in KINDS, f"'kind' must be one of {KINDS}")

    options = raw.get("options", {})
    _require(isinstance(options, dict), "'options' must be an object")
    order = options.get("order", DEFAULT_ORDER)
    crange = options.get("congruence_range", order)
    _require(_is_int(order) and order >= 1, "'order' must be >= 1")
    _require(_is_int(crange) and crange >= 1,
             "'congruence_range' must be >= 1")
    _require(crange <= order, "'congruence_range' must be <= 'order'")
    angles = options.get("torsion_angles", [])
    _require(isinstance(angles, list), "'torsion_angles' must be a list")
    angles = [_parse_angle(a, "torsion_angles") for a in angles]
    if kind == "abelian" and not angles:
        angles = [Fraction(1, 2)]

    doc = ProblemDocument(kind, raw, order,
                          options.get("congruence_range"), angles)

    if kind == "free":
        rank = raw.get("rank")
        _require(_is_int(rank) and 1 <= rank <= 26,
                 "free: 'rank' must be an integer in 1..26")
        images = raw.get("images")
        _require(isinstance(images, list) and len(images) == rank
                 and all(isinstance(s, str) for s in images),
                 "free: 'images' must list one word per generator")
        try:
            endo = FreeGroupEndo.from_strings(rank, images)
        except ValueError as exc:
            raise ValidationError(f"free: {exc}") from exc
        doc.endo = endo
        return doc

    if kind == "finite":
        doc.product = _build_product({"matrix": [], "finite": raw})
    elif kind == "abelian":
        doc.product = ProductEndomorphism.from_matrix(
            _int_matrix(raw.get("matrix"), "abelian"))
    else:
        doc.product = _build_product(raw)
    return doc


def serialize_factors(rf) -> list[dict]:
    return [{"coeffs": list(poly.coefficients), "exp": e}
            for poly, e in rf.factors]


# -- report sections -----------------------------------------------------------
#
# A section takes the document alone and returns its value and whether its
# routes agree; what several sections read is a cached property of the
# document, so the sections run in any order.

def _agrees(route: list, formula: list[int]) -> bool:
    """Every entry equals the formula's entry; a None entry is a skipped
    oracle and is not compared."""
    return all(c is None or c == f for c, f in zip(route, formula))


# Each Z^k x F kind's count route labels, in report order.
_COUNT_LABELS = {
    "finite": {"formula": "fixed_class_formula",
               "trace": "class_function_trace",
               "oracle": "twisted_conjugacy_oracle"},
    "abelian": {"formula": "determinant_formula",
                "oracle": "smith_coset_oracle",
                "trace": "signed_exterior_trace"},
    "product": {"formula": "product_formula", "trace": "signed_trace",
                "oracle": "enumeration_oracle"},
}


def _counts(doc):
    """R(phi^n), n = 1..order, by the oracle, the formula and the signed
    trace, run in that order for every kind and labelled per kind; each
    entry is compared with the formula's.  Each route raises at the first
    n with det(I - M^n) = 0, from its own numbers."""
    P, N = doc.product, doc.order
    if doc.kind == "product":  # n <= 4, and None past ORACLE_SIZE_CAP
        head = min(N, 4)
        oracle = (r_product_oracles(P, head, ORACLE_SIZE_CAP)
                  + [None] * (N - head))
    else:
        oracle = r_product_oracles(P, N)
    routes = {"oracle": oracle, "formula": doc.formula_counts,
              "trace": r_product_traces(P, N)}
    return ({label: routes[route]
             for route, label in _COUNT_LABELS[doc.kind].items()},
            all(_agrees(counts, doc.formula_counts)
                for counts in routes.values()))


def _eventual_image(doc):
    P = doc.product
    H, phi_H, _ = eventual_image(P.F, P.phiF)
    count = phi_conjugacy_classes(H, phi_H).num_classes
    return ({"order": H.order, "count": count},
            count == doc.formula_counts[0])


def _congruences(doc):
    # an unset range, or one above a lowered --order, is the order
    residues = congruence_check(doc.formula_counts[: doc.congruence_range])
    all_zero = all(r == 0 for _, r in residues)
    return {"residues": residues, "all_zero": all_zero}, all_zero


def _zeta(doc):
    rf = doc.closed_form
    series = series_from_counts(doc.formula_counts)
    agree = expand_rational(rf, doc.order).coefficients == series.coefficients
    return {
        "factors": serialize_factors(rf),
        "display": str(rf),
        "sign_convention": {"p": rf.sign_convention.p,
                            "r": rf.sign_convention.r,
                            "sigma": rf.sign_convention.sigma},
        "series_check": {
            "order": doc.order,
            "formula": "closed rational form vs exp(sum R_n/n z^n)",
            "agree": agree,
        },
    }, agree


def _functional_equation(doc):
    try:
        feq = functional_equation_check(doc.product.M, doc.closed_form)
    except NonInvertible as exc:
        return {"skipped": str(exc)}, True
    except NotConstant as exc:
        return {"is_constant": False, "reason": str(exc)}, False
    return {
        "constant": str(feq.epsilon),
        "exponent": feq.exponent,
        "is_constant": True,
    }, True


def _torsion(doc):
    # A non-invertible map has no torsion, so its closed form is not built:
    # it need not exist.  One identity in Z[z] decides every angle; at a
    # pole neither route has a value, and past the float range neither
    # route's float is one.
    if not doc.torsion_angles:
        return [], True
    P = doc.product
    try:
        check_invertible(P)
    except NonInvertible as exc:
        return [{"angle": str(t), "skipped": str(exc), "agree": True}
                for t in doc.torsion_angles], True
    rf, dual = doc.closed_form, dual_lefschetz_zeta(P)
    agree = lefschetz_identity(rf, dual)
    entries = []
    for t in doc.torsion_angles:
        entry = {"angle": str(t)}
        try:
            entry.update({"value": torsion_special_value(P, t, rf),
                          "lefschetz_route": torsion_via_lefschetz(P, t, dual)})
        except PoleAtEvaluation as exc:
            entry["pole"] = str(exc)
        except OverflowError as exc:
            entry["skipped"] = f"the value is past the float range: {exc}"
        entry["agree"] = agree
        entries.append(entry)
    return entries, agree


def _bounds(doc):
    # The spectral bound is at least the norm bound when every Perron root
    # is at most the largest chain norm N: root <= N exactly when hi <= N 2^e.
    bounds = chain_radius_bounds(doc.chain)
    largest = max(bounds.chain_norms)
    return {
        "norm_bound": str(bounds.bound_norm),
        "spectral_bound": bounds.bound_spectral,
        "chain_norms": list(bounds.chain_norms),
    }, all(hi <= largest << e for _, hi, e in bounds.spectral_brackets)


def _twisted_power_norms(doc):
    # The formula route; the power_norm_oracle section checks it.
    return doc.image_lengths, True


def _power_norm_oracle(doc):
    """||(zJ)^n|| from the ring products P_n = J(phi^n), null from the first
    n whose formula norm exceeds the cap: that norm is the term count of P_n.
    """
    formula = doc.image_lengths
    fits = next((i for i, norm in enumerate(formula)
                 if norm > NORM_ORACLE_TERM_CAP), len(formula))
    ring = twisted_power_norms(doc.endo, doc.chain[1], fits) if fits else []
    ring += [None] * (len(formula) - fits)
    return ({"ring_product": ring, "term_cap": NORM_ORACLE_TERM_CAP},
            _agrees(ring, formula))


# Each kind's sections, in report order; ``compute`` prints them all.
_SECTIONS = {
    "finite": {"counts": _counts, "eventual_image": _eventual_image,
               "congruences": _congruences},
    "abelian": {"counts": _counts, "zeta": _zeta,
                "congruences": _congruences,
                "functional_equation": _functional_equation,
                "torsion": _torsion},
    "product": {"counts": _counts, "zeta": _zeta,
                "congruences": _congruences, "torsion": _torsion},
    "free": {"bounds": _bounds, "twisted_power_norms": _twisted_power_norms,
             "power_norm_oracle": _power_norm_oracle},
}
KINDS = tuple(_SECTIONS)
# The sections the other verbs print.
_VERB_SECTIONS = {"zeta": ("zeta",), "bounds": tuple(_SECTIONS["free"]),
                  "torsion": ("torsion",)}


def _report(doc: ProblemDocument, wanted) -> dict:
    """The named sections of the document, and whether every one agrees."""
    sections = _SECTIONS[doc.kind]
    report = {"kind": doc.kind}
    agree = []
    for name in wanted:
        report[name], ok = sections[name](doc)
        agree.append(ok)
    report["agreement"] = all(agree)
    return report


def run(doc: ProblemDocument) -> dict:
    """Full report: every section of the document's kind, by all its routes."""
    start = time.monotonic()
    report = _report(doc, _SECTIONS[doc.kind])
    report["inputs"] = {k: v for k, v in doc.payload.items() if k != "options"}
    report["timing_seconds"] = round(time.monotonic() - start, 6)
    return report


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


# The report encoder, built once: ``json.dumps`` with ``default`` builds a
# new encoder on every call.
_ENCODER = json.JSONEncoder(default=str)


def _emit(report: dict, as_json: bool) -> None:
    """Print the report.  As JSON, each top-level key starts a line of its
    own and its value follows on that line: the compact encoding goes
    through the C encoder, which ``indent`` would bypass."""
    if as_json:
        lines = (f"  {_ENCODER.encode(key)}: {_ENCODER.encode(value)}"
                 for key, value in report.items())
        print("{\n" + ",\n".join(lines) + "\n}")
    else:
        print(_render_text(report))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="twistedzeta",
        description="Twisted conjugacy counts, zeta functions, and bounds "
                    "from declarative JSON problem documents.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("check", "compute", *_VERB_SECTIONS):
        sp = sub.add_parser(verb)
        sp.add_argument("document", help="path to a JSON document, or - for stdin")
        sp.add_argument("--order", type=int, default=None,
                        help="series/iteration order (default 12)")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--json", dest="as_json", action="store_true",
                           default=True)
        group.add_argument("--text", dest="as_json", action="store_false")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    digits = sys.get_int_max_str_digits()
    try:
        doc = parse_problem(_read_document(args.document))
        # Python's digit guard stays on for the document's integer literals;
        # exact results are printed at any length.
        sys.set_int_max_str_digits(0)
        if args.order is not None:
            _require(args.order >= 1, "'--order' must be >= 1")
            doc.order = args.order
        if args.verb == "torsion" and not doc.torsion_angles:
            doc.torsion_angles = [Fraction(1, 2)]

        if args.verb == "check":
            report = {"kind": doc.kind, "valid": True}
        elif args.verb == "compute":
            report = run(doc)
        else:
            wanted = _VERB_SECTIONS[args.verb]
            kinds = [kind for kind, sections in _SECTIONS.items()
                     if set(wanted) <= set(sections)]
            if doc.kind not in kinds:
                raise ValidationError(f"{args.verb} requires a document of "
                                      f"kind {' or '.join(kinds)}")
            report = _report(doc, wanted)
        _emit(report, args.as_json)
        return 0 if report.get("agreement", True) else 4
    except (SchemaError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfiniteReidemeister as exc:
        print(f"error: infinite class count: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreement as exc:
        print(f"error: oracle disagreement at n = {exc.n}, counts "
              f"R_1..R_{exc.n} = {list(exc.counts)}: {exc}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
