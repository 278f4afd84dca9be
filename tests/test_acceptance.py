"""End-to-end acceptance checks.

Each test covers one acceptance criterion and records a single PASS/FAIL
line with its runtime; conftest.py prints the lines in the terminal
summary, after pytest releases output capture.
"""

import functools
import math
import random
import time
from fractions import Fraction

from twistedzeta import (
    FreeGroupEndo,
    GroupRingElement,
    IntMatrix,
    ProductEndomorphism,
    class_function_matrix,
    congruence_check,
    det,
    expand_rational,
    eventual_image,
    fox_derivative,
    free_reduce,
    functional_equation_check,
    iterate_endo,
    nielsen_radius_bounds,
    r_abelian,
    phi_conjugacy_classes,
    r_abelian_smith,
    r_abelian_trace,
    r_finite,
    r_product,
    r_product_oracle,
    r_product_trace,
    zeta_product,
    zeta_series_oracle,
)
from twistedzeta.errors import (
    EigenvalueOnBoundary,
    InfiniteReidemeister,
    PoleAtEvaluation,
)

from catalog import (
    catalog_with_endos,
    product_catalog,
    random_product_endomorphisms,
)


RESULT_LINES: list[str] = []


def criterion(number, label, budget_seconds):
    """Time the body, enforce the budget, and record one PASS/FAIL line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
                elapsed = time.monotonic() - start
                assert elapsed < budget_seconds, (
                    f"criterion {number} took {elapsed:.1f}s, "
                    f"budget {budget_seconds}s")
            except BaseException:
                elapsed = time.monotonic() - start
                RESULT_LINES.append(
                    f"criterion {number}: {label}: FAIL ({elapsed:.2f}s)")
                raise
            RESULT_LINES.append(
                f"criterion {number}: {label}: PASS ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion(1, "finite three-way agreement over the catalog", 60)
def test_finite_three_way():
    total = 0
    for name, G, endos in catalog_with_endos():
        for phi in endos:
            a = r_finite(G, phi)
            b = class_function_matrix(G, phi).trace()
            c = phi_conjugacy_classes(G, phi).num_classes
            assert a == b == c, (name, phi.image)
            total += 1
    assert total > 100  # the search really did enumerate endomorphisms


@criterion(2, "abelian three-way agreement on 200 random matrices", 10)
def test_abelian_three_way():
    rng = random.Random(2024)
    done = 0
    while done < 200:
        k = rng.randint(1, 4)
        M = IntMatrix([[rng.randint(-5, 5) for _ in range(k)]
                       for _ in range(k)])
        try:
            a = r_abelian(M)
            c = r_abelian_trace(M)
        except (InfiniteReidemeister, EigenvalueOnBoundary):
            continue
        b = r_abelian_smith(M)
        assert a == b == c, M
        done += 1


@criterion(3, "product formula vs trace vs enumeration on 50 random cases", 120)
def test_product_three_way():
    rng = random.Random(3033)
    cases = random_product_endomorphisms(50, rng)
    assert len(cases) == 50
    for P in cases:
        for n in range(1, 5):
            a = r_product(P, n)
            b = r_product_oracle(P, n)
            c = r_product_trace(P, n)
            assert a == b == c, (P.M, P.psi, n)


@criterion(4, "zeta closed form equals series definition to order 12", 30)
def test_zeta_rationality():
    for P in product_catalog():
        rf = zeta_product(P)
        assert (expand_rational(rf, 12).coefficients
                == zeta_series_oracle(P, 12).coefficients), str(rf)
    # the doubled-and-flipped circle map: (1 + z) / (1 - 2z)
    rf = zeta_product(ProductEndomorphism.from_matrix(IntMatrix([[-2]])))
    factors = {tuple(p.coefficients): e for p, e in rf.factors}
    assert factors == {(1, 1): 1, (1, -2): -1}


@criterion(5, "Mobius-weighted count sums vanish mod n up to 12", 30)
def test_congruences():
    for name, G, endos in catalog_with_endos():
        for phi in endos:
            counts = [r_finite(G, iterate_endo(phi, n)) for n in range(1, 13)]
            assert all(res == 0 for _, res in congruence_check(counts)), name
    for P in product_catalog():
        counts = [r_product(P, n) for n in range(1, 13)]
        assert all(res == 0 for _, res in congruence_check(counts))


@criterion(6, "functional equation constant on 50 random matrices", 60)
def test_functional_equation():
    fe = functional_equation_check(IntMatrix([[-2]]))
    assert fe.epsilon == Fraction(-1, 2)
    rng = random.Random(606)
    done = 0
    while done < 50:
        k = rng.randint(1, 3)
        M = IntMatrix([[rng.randint(-4, 4) for _ in range(k)]
                       for _ in range(k)])
        if det(M) == 0:
            continue
        try:
            fe = functional_equation_check(M)
        except (InfiniteReidemeister, EigenvalueOnBoundary):
            continue
        assert fe.exponent == (-1) ** k, M
        done += 1


@criterion(7, "torsion value agrees between both routes to 1e-9", 60)
def test_torsion_special_values():
    from twistedzeta import torsion_special_value, torsion_via_lefschetz

    P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
    half = Fraction(1, 2)  # unit-circle point -1
    assert abs(torsion_special_value(P, half) - 2.0) < 1e-9
    assert abs(torsion_via_lefschetz(P, half) - 2.0) < 1e-9

    rng = random.Random(707)
    for P in product_catalog():
        if det(P.M) == 0 or not P.phiF.is_bijective():
            continue
        checked = 0
        while checked < 20:
            t = Fraction(rng.randint(1, 999), 1000)
            try:
                a = torsion_special_value(P, t)
                b = torsion_via_lefschetz(P, t)
            except PoleAtEvaluation:
                continue
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (P.M, t)
            checked += 1


def as_word(letters):
    """The package's word for signed generator indices: +j is the letter of
    the j-th generator, -j that of its inverse."""
    return bytes(96 + s if s > 0 else 64 - s for s in letters)


@criterion(8, "Fox derivative identities and radius bounds", 60)
def test_fox_suite():
    rng = random.Random(808)
    for _ in range(1000):
        rank = rng.randint(1, 4)
        letters = []
        for _ in range(rng.randint(0, 30)):
            j = rng.randint(1, rank)
            letters.append(j if rng.random() < 0.5 else -j)
        w = free_reduce(as_word(letters))
        total = GroupRingElement.zero()
        for j in range(1, rank + 1):
            aj = GroupRingElement({as_word([j]): 1})
            total = total + fox_derivative(w, j) * (aj - GroupRingElement.one())
        assert total == GroupRingElement({w: 1}) - GroupRingElement.one()

    phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
    bounds = nielsen_radius_bounds(phi)
    assert bounds.bound_norm == Fraction(1, 3)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(bounds.bound_spectral - 1 / golden) < 1e-9
    assert bounds.bound_spectral >= float(bounds.bound_norm)

    for _ in range(50):
        rank = rng.randint(1, 3)
        images = []
        for _ in range(rank):
            letters = [rng.choice([1, -1]) * rng.randint(1, rank)
                       for _ in range(rng.randint(0, 6))]
            images.append(free_reduce(as_word(letters)))
        b = nielsen_radius_bounds(FreeGroupEndo(rank, tuple(images)))
        assert b.bound_spectral >= float(b.bound_norm) - 1e-12


@criterion(9, "class count survives restriction to the eventual image", 60)
def test_eventual_image_reduction():
    for name, G, endos in catalog_with_endos():
        for phi in endos:
            H, phi_H, _ = eventual_image(G, phi)
            assert (phi_conjugacy_classes(G, phi).num_classes
                    == phi_conjugacy_classes(H, phi_H).num_classes), name
