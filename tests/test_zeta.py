import cmath
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistedzeta import (
    FactoredRationalFunction,
    GroupEndomorphism,
    IntMatrix,
    IntPolynomial,
    ProductEndomorphism,
    char_poly,
    class_function_matrix,
    congruence_check,
    count_eigen_signs,
    expand_rational,
    exterior_power,
    kron,
    mobius,
    ordinary_conjugacy_classes,
    r_product,
    torsion_special_value,
    torsion_via_lefschetz,
    zeta_product,
    zeta_series_oracle,
)
from twistedzeta.errors import (
    EigenvalueOnBoundary,
    InfiniteReidemeister,
    NonInvertible,
    NotConstant,
    OracleDisagreement,
    PoleAtEvaluation,
)
from twistedzeta import intlinalg, reidemeister, zeta
from twistedzeta.zeta import (
    check_all_iterates_finite,
    dual_lefschetz_zeta,
    functional_equation_check,
    lefschetz_identity,
)

from catalog import (
    any_products,
    catalog_with_endos,
    companion,
    klein_swap,
    largest_factor,
    product_catalog,
    random_product_endomorphisms,
    record_row_products,
    sym3,
    wide_products,
)
from references import (
    constant_ratio,
    cross_multiplied_identity,
    det_identity_minus_z,
    expand_multiplied_out,
    lefschetz_zeta,
    log_derivative_counts,
)


def poly_dict(rf):
    return {tuple(p.coefficients): e for p, e in rf.factors}


class TestClosedForm:
    def test_doubling_minus(self):
        # x -> -2x on Z: (1 + z) / (1 - 2z)
        P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
        rf = zeta_product(P)
        assert poly_dict(rf) == {(1, 1): 1, (1, -2): -1}
        assert rf.sign_convention.p == 1
        assert rf.sign_convention.r == 1
        assert rf.sign_convention.sigma == -1

    def test_series_matches_counts(self):
        P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
        series = expand_rational(zeta_product(P), 3)
        assert list(series.coefficients) == [1, 3, 6, 12]

    def test_log_derivative_recovers_counts(self):
        for P in product_catalog():
            rf = zeta_product(P)
            counts = log_derivative_counts(rf, 8)
            assert counts == [r_product(P, n) for n in range(1, 9)], str(rf)

    def test_closed_form_equals_series_oracle(self):
        for P in product_catalog():
            rf = zeta_product(P)
            got = expand_rational(rf, 10)
            want = zeta_series_oracle(P, 10)
            assert got.coefficients == want.coefficients, str(rf)

    def test_rejects_matrix_with_singular_iterate(self):
        # eigenvalue is a sixth root of unity: det(I - M^6) = 0
        M = IntMatrix([[1, -1], [1, 0]])
        P = ProductEndomorphism.from_matrix(M)
        with pytest.raises(InfiniteReidemeister):
            zeta_product(P)

    def test_evaluate_and_poles(self):
        P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
        rf = zeta_product(P)
        assert rf.evaluate(0.25) == pytest.approx(2.5)
        with pytest.raises(PoleAtEvaluation):
            rf.evaluate(0.5)


def reference_closed_form(P):
    """The closed form by one characteristic polynomial per block
    sigma * kron(wedge^i M, B), merged by exponent in the order i = 0..k."""
    p, r = count_eigen_signs(char_poly(P.M))
    B = class_function_matrix(P.F, P.phiF)
    merged = {}
    for i in range(P.k + 1):
        X = kron(exterior_power(P.M, i), B)
        poly = det_identity_minus_z(
            IntMatrix([[(-1) ** p * a for a in row] for row in X.entries]))
        if poly.degree >= 1:
            merged[poly] = merged.get(poly, 0) + (-1) ** (i + 1 + r)
    return tuple((poly, e) for poly, e in merged.items() if e != 0), (p, r)


def power_sum_closed_form(P):
    rf = zeta_product(P)
    return rf.factors, (rf.sign_convention.p, rf.sign_convention.r)


# Every finite part of the catalog: each group with each of its
# endomorphisms, and the number of its conjugacy classes.
FINITE_PARTS = [(G, phi, ordinary_conjugacy_classes(G).num_classes)
                for _, G, endos in catalog_with_endos() for phi in endos]
MAX_BLOCK = 24  # keeps the reference route's O(D^4) char_poly cheap


@st.composite
def products_with_finite_iterates(draw):
    """Z^k x F with k <= 4, no root-of-unity eigenvalue, and every block of
    dimension C(k, i) * #classes at most MAX_BLOCK."""
    G, phi, classes = draw(st.sampled_from(FINITE_PARTS))
    k = draw(st.integers(0, 4).filter(
        lambda k: comb(k, k // 2) * classes <= MAX_BLOCK))
    M = IntMatrix(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=k, max_size=k),
        min_size=k, max_size=k)), rows=k, cols=k)
    try:
        count_eigen_signs(char_poly(M))
        check_all_iterates_finite(M)
    except (EigenvalueOnBoundary, InfiniteReidemeister):
        assume(False)
    return ProductEndomorphism(M, (G.identity,) * k, phi, G)


class TestPowerSumRoute:
    """zeta_product builds each factor from power sums; the reference takes
    the characteristic polynomial of each block.  Factors, their order and
    the sign convention must be identical."""

    @given(products_with_finite_iterates())
    @settings(max_examples=80, deadline=None)
    def test_equals_block_characteristic_polynomials(self, P):
        assert power_sum_closed_form(P) == reference_closed_form(P)

    def test_every_catalog_finite_part(self):
        # M = (-2) has sigma = -1, so every factor carries the sign
        for G, phi, _ in FINITE_PARTS:
            P = ProductEndomorphism(IntMatrix([[-2]]), (G.identity,), phi, G)
            assert power_sum_closed_form(P) == reference_closed_form(P)

    def test_rank_zero_is_the_class_map_alone(self):
        # Klein swap: the class map fixes 2 of 4 classes and swaps 2, so
        # det(I - Bz) = (1 - z)^3 (1 + z) and the zeta function is its inverse
        K, swap = klein_swap()
        P = ProductEndomorphism(IntMatrix([]), (), swap, K)
        assert poly_dict(zeta_product(P)) == {(1, -2, 0, 2, -1): -1}
        assert power_sum_closed_form(P) == reference_closed_form(P)

    def test_degree_drops_below_the_block_dimension(self):
        # The class map fixes the identity class, so B is never nilpotent,
        # but the trivial endomorphism of S3 has a nilpotent part: B has the
        # eigenvalues 1, 0, 0, so with M = (-2) the 3-dimensional blocks
        # -B and 2B give 1 + z and 1 - 2z.  A nilpotent M drops every block
        # but the first to degree 0.
        S3, _ = sym3()
        trivial = GroupEndomorphism((S3.identity,) * S3.order)
        P = ProductEndomorphism(IntMatrix([[-2]]), (S3.identity,), trivial, S3)
        assert poly_dict(zeta_product(P)) == {(1, 1): 1, (1, -2): -1}
        assert power_sum_closed_form(P) == reference_closed_form(P)
        nilpotent = ProductEndomorphism(
            IntMatrix([[0, 1], [0, 0]]), (S3.identity,) * 2, trivial, S3)
        assert poly_dict(zeta_product(nilpotent)) == {(1, -1): -1}
        assert power_sum_closed_form(nilpotent) == \
            reference_closed_form(nilpotent)

    def test_rank_seven_lattice(self):
        # the rank-7 lattice benchmark document: blocks up to dimension 35
        M = IntMatrix([[-1, 0, -1, 1, 1, -1, 1], [-1, 1, 0, 1, -1, 0, 0],
                       [1, 0, -1, 0, 0, 1, 0], [-1, 0, 1, 0, 1, 1, -1],
                       [-1, -1, -1, 1, 0, -1, -1], [1, 1, 0, 0, 1, 0, -1],
                       [-1, -1, -1, 1, 0, 1, 1]])
        P = ProductEndomorphism.from_matrix(M)
        factors, signs = power_sum_closed_form(P)
        assert [(poly.degree, e) for poly, e in factors] == [
            (1, -1), (7, 1), (21, -1), (35, 1), (35, -1), (21, 1), (7, -1),
            (1, 1)]
        assert (factors, signs) == reference_closed_form(P)


class TestIntegerSeries:
    # (1 - 2z)^-2 = sum (n + 1) 2^n z^n, with z d/dz log = sum 2 * 2^n z^n
    INVERSE_SQUARE = FactoredRationalFunction(((IntPolynomial([1, -2]), -2),))

    def test_expansion_of_inverse_square(self):
        series = expand_rational(self.INVERSE_SQUARE, 10)
        assert list(series.coefficients) == [(n + 1) * 2 ** n
                                             for n in range(11)]
        assert all(type(c) is int for c in series.coefficients)

    def test_matches_the_multiplied_out_expansion(self):
        # Factors of degree 1..20 with exponents +-1..+-3, to order 0..25;
        # a multiplying factor may have any constant term.
        rng = random.Random(31)
        for _ in range(400):
            factors = []
            for _ in range(rng.randint(0, 4)):
                e = rng.choice((-3, -2, -1, 1, 2, 3))
                degree = rng.randint(1, 20)
                poly = IntPolynomial(
                    [1 if e < 0 else rng.choice((1, 1, -1, 2))]
                    + [rng.randint(-3, 3) for _ in range(degree - 1)]
                    + [rng.choice((-2, -1, 1, 2))])
                factors.append((poly, e))
            rf = FactoredRationalFunction(tuple(factors))
            order = rng.randint(0, 25)
            assert expand_rational(rf, order) == expand_multiplied_out(
                rf, order), (str(rf), order)

    def test_dividing_factor_needs_constant_term_one(self):
        rf = FactoredRationalFunction(((IntPolynomial([1, 1]), 1),
                                       (IntPolynomial([2, 1]), -1)))
        with pytest.raises(ValueError):
            expand_rational(rf, 4)
        times_two = FactoredRationalFunction(((IntPolynomial([2, 1]), 2),))
        assert expand_rational(times_two, 3).coefficients == (4, 4, 1, 0)

    def test_log_derivative_of_inverse_square(self):
        counts = log_derivative_counts(self.INVERSE_SQUARE, 10)
        assert counts == [2 * 2 ** n for n in range(1, 11)]

    def test_series_oracle_of_inverse_square_counts(self, monkeypatch):
        monkeypatch.setattr("twistedzeta.zeta.r_product_counts",
                            lambda P, N: [2 * 2 ** n for n in range(1, N + 1)])
        P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
        series = zeta_series_oracle(P, 10)
        assert series == expand_rational(self.INVERSE_SQUARE, 10)
        assert all(type(c) is int for c in series.coefficients)

    def test_non_integral_oracle_coefficient_raises(self, monkeypatch):
        # R_1 = 1, R_2 = 0 breaks the congruence at n = 2: 2 a_2 = 1
        monkeypatch.setattr("twistedzeta.zeta.r_product_counts",
                            lambda P, N: [1] + [0] * (N - 1))
        P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
        with pytest.raises(OracleDisagreement) as info:
            zeta_series_oracle(P, 2)
        assert info.value.n == 2


class TestLefschetzZeta:
    def test_circle_degree_minus_two(self):
        # H_0 acts by 1, H_1 by -2: (1 + 2z) / (1 - z)
        rf = lefschetz_zeta([IntMatrix([[1]]), IntMatrix([[-2]])])
        assert poly_dict(rf) == {(1, -1): -1, (1, 2): 1}

    def test_identity_coefficients_cancel(self):
        rf = lefschetz_zeta([IntMatrix([[1]]), IntMatrix([[1]])])
        assert rf.factors == ()


class TestMobiusAndCongruences:
    def test_mobius_values(self):
        assert [mobius(n) for n in range(1, 11)] == [
            1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_counts_satisfy_congruences(self):
        for P in product_catalog():
            counts = [r_product(P, n) for n in range(1, 13)]
            assert all(res == 0 for _, res in congruence_check(counts)), counts

    def test_finite_part_alone(self):
        K, swap = klein_swap()
        P = ProductEndomorphism(IntMatrix([]), (), swap, K)
        counts = [r_product(P, n) for n in range(1, 13)]
        assert counts[0] == 2 and counts[1] == 4
        assert all(res == 0 for _, res in congruence_check(counts))

    def test_non_realizable_sequence_fails(self):
        # constant 2 fails at n = 2: mu(1)*2 + mu(2)*2 = 0 mod 2 holds,
        # so use something genuinely broken instead
        assert congruence_check([1, 2])[1] == (2, 1)


def closed_form(M):
    """The closed form of M as a lattice map, which the functional equation
    reads."""
    return zeta_product(ProductEndomorphism.from_matrix(M))


class TestFunctionalEquation:
    def test_doubling_minus(self):
        M = IntMatrix([[-2]])
        fe = functional_equation_check(M, closed_form(M))
        assert fe.epsilon == Fraction(-1, 2)
        assert fe.exponent == -1

    def test_random_matrices_are_constant(self):
        rng = random.Random(20)
        done = 0
        while done < 50:
            k = rng.randint(1, 3)
            M = IntMatrix([[rng.randint(-4, 4) for _ in range(k)]
                           for _ in range(k)])
            try:
                fe = functional_equation_check(M, closed_form(M))
            except (NonInvertible, InfiniteReidemeister,
                    EigenvalueOnBoundary):
                continue
            assert fe.exponent == (-1) ** k
            done += 1

    def test_numeric_spot_check(self):
        # evaluate both sides of R(1/(dz)) = eps * R(z)^(+-1) at a sample point
        from twistedzeta import zeta_product
        M = IntMatrix([[-2]])
        P = ProductEndomorphism.from_matrix(M)
        rf = zeta_product(P)
        fe = functional_equation_check(M, rf)
        d = -2
        for z in (0.1, 0.3 + 0.2j, -0.7):
            lhs = rf.evaluate(1 / (d * z))
            rhs = float(fe.epsilon) * rf.evaluate(z) ** fe.exponent
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_singular_matrix_rejected(self):
        M = IntMatrix([[0]])
        with pytest.raises(NonInvertible, match="det M = 0"):
            functional_equation_check(M, closed_form(M))

    def test_matches_the_multiplied_out_ratio(self):
        # Random matrices with k <= 5, and det M = +-1 companions whose
        # factors 0 and k are both 1 - z or 1 + z and are merged.
        rng = random.Random(41)
        cases = [IntMatrix([[2, 1], [1, 1]]), companion([1, -3, 0]),
                 companion([1, -3, 0, 0]), companion([-1, 3, 0, 0])]
        while len(cases) < 300:
            k = rng.randint(1, 5)
            cases.append(IntMatrix([[rng.randint(-2, 2) for _ in range(k)]
                                    for _ in range(k)]))
        done = merged = 0
        for M in cases:
            try:
                rf = zeta_product(ProductEndomorphism.from_matrix(M))
                fe = functional_equation_check(M, rf)
            except (NonInvertible, InfiniteReidemeister,
                    EigenvalueOnBoundary):
                continue
            assert (fe.epsilon, fe.exponent) == constant_ratio(M, rf), M
            done += 1
            merged += len(rf.factors) < M.rows + 1
        assert done >= 150 and merged >= 3

    def test_a_wrong_factor_is_not_constant(self):
        # R = (1 - z)^2 (1 - 3z + z^2)^-1 for this M, det M = 1, with one
        # factor changed: its leading coefficient does not divide it
        # reversed, the powers of dz do not cancel, or the reversed factors
        # are not the factors.
        M = IntMatrix([[2, 1], [1, 1]])
        wrong = {"does not divide": [([1, -1, 2], 2), ([1, -3, 1], -1)],
                 "carries": [([1, -1, 1], 2), ([1, -3, 1], -1)],
                 "not those": [([1, -1], 2), ([1, 2, -1], -1)]}
        for reason, factors in wrong.items():
            altered = FactoredRationalFunction(
                tuple((IntPolynomial(c), e) for c, e in factors),
                zeta.SignConvention(0, 1))
            with pytest.raises(NotConstant, match=reason):
                functional_equation_check(M, altered)
            with pytest.raises(NotConstant):
                constant_ratio(M, altered)


class TestTorsion:
    def test_doubling_minus_at_half(self):
        P = ProductEndomorphism.from_matrix(IntMatrix([[-2]]))
        t = Fraction(1, 2)
        assert torsion_special_value(P, t, zeta_product(P)) == (
            pytest.approx(2.0))
        assert torsion_via_lefschetz(P, t, dual_lefschetz_zeta(P)) == (
            pytest.approx(2.0))

    def test_two_routes_agree_on_catalog(self):
        rng = random.Random(31)
        for P in product_catalog():
            if det(P):
                rf, dual = zeta_product(P), dual_lefschetz_zeta(P)
                for _ in range(5):
                    t = Fraction(rng.randint(1, 11), 12)
                    try:
                        a = torsion_special_value(P, t, rf)
                        b = torsion_via_lefschetz(P, t, dual)
                    except PoleAtEvaluation:
                        continue
                    assert a == pytest.approx(b, rel=1e-9)

    def test_noninvertible_lattice_part_allowed(self):
        # det M = 0 is rejected by both routes, although the forms exist
        P = ProductEndomorphism.from_matrix(IntMatrix([[0, 1], [0, 2]]))
        with pytest.raises(NonInvertible):
            torsion_special_value(P, Fraction(1, 3), zeta_product(P))
        with pytest.raises(NonInvertible):
            torsion_via_lefschetz(P, Fraction(1, 3), dual_lefschetz_zeta(P))



class TestExactTorsion:
    """Poles decided by cyclotomic divisors, and the two torsion routes
    compared as one identity of rational functions in Z[z]."""

    @staticmethod
    def invertible_catalog():
        return [P for P in product_catalog() if det(P)]

    def test_no_false_pole_next_to_one(self):
        # |1 - z| is 6.3e-7 at this angle: small, but not zero
        P = ProductEndomorphism.from_matrix(IntMatrix([[2]]))
        t = Fraction(1, 10 ** 7)
        lam = cmath.exp(2j * cmath.pi * float(t))
        expected = abs(1 - lam) / abs(1 - 2 * lam)
        assert torsion_special_value(P, t, zeta_product(P)) == (
            pytest.approx(expected, rel=1e-9))
        assert torsion_via_lefschetz(P, t, dual_lefschetz_zeta(P)) == (
            pytest.approx(expected, rel=1e-9))

    def test_poles_are_the_vanishing_factors(self):
        # The catalog's factors have degree at most 8; one that is not zero
        # at a root of unity of order <= 16 is above 1e-3 there.
        for P in self.invertible_catalog():
            rf, dual = zeta_product(P), dual_lefschetz_zeta(P)
            for q in range(1, 9):
                for a in range(q):
                    t = Fraction(a, q)
                    z = rf.sign_convention.sigma * cmath.exp(
                        2j * cmath.pi * float(t))
                    vanishing = any(abs(complex(poly(z))) < 1e-9
                                    for poly, _ in rf.factors)
                    for route in (lambda: torsion_special_value(P, t, rf),
                                  lambda: torsion_via_lefschetz(P, t, dual)):
                        if vanishing:
                            with pytest.raises(PoleAtEvaluation):
                                route()
                        else:
                            route()

    def test_large_denominator_builds_no_cyclotomic_polynomial(
            self, monkeypatch):
        # Phi_m divides a factor only if phi(m) <= its degree, and m > 2 deg^2
        # rules that out: building Phi_999983 would take minutes.
        def refuse(n):
            raise AssertionError(f"Phi_{n} was built")

        monkeypatch.setattr(zeta, "cyclotomic", refuse)
        t = Fraction(1, 999983)
        start = time.perf_counter()
        for P in self.invertible_catalog():
            rf, dual = zeta_product(P), dual_lefschetz_zeta(P)
            assert torsion_special_value(P, t, rf) == pytest.approx(
                torsion_via_lefschetz(P, t, dual), rel=1e-9)
        assert time.perf_counter() - start < 1.0

    def test_identity_holds_on_catalog(self):
        for P in [*self.invertible_catalog(), *wide_products()]:
            rf, dual = zeta_product(P), dual_lefschetz_zeta(P)
            assert lefschetz_identity(rf, dual)
            assert cross_multiplied_identity(rf, dual)

    @given(any_products())
    @settings(max_examples=100, deadline=None)
    def test_identity_matches_the_cross_multiplied_one(self, case):
        P, _ = case
        assume(det(P))
        try:
            rf = zeta_product(P)
        except (InfiniteReidemeister, EigenvalueOnBoundary):
            assume(False)
        dual = dual_lefschetz_zeta(P)
        assert lefschetz_identity(rf, dual)
        assert cross_multiplied_identity(rf, dual)

    def test_one_wrong_factor_is_not_made_up_for(self):
        # (1 - z^2) = (1 - z)(1 + z): equal products, different factors
        split = FactoredRationalFunction(((IntPolynomial([1, -1]), 1),
                                          (IntPolynomial([1, 1]), 1)))
        whole = FactoredRationalFunction(((IntPolynomial([1, 0, -1]), 1),),
                                         zeta.SignConvention(0, 0))
        assert cross_multiplied_identity(whole, split)
        assert not lefschetz_identity(whole, split)

    def test_identity_fails_for_a_wrong_factor(self):
        for P in self.invertible_catalog():
            rf = zeta_product(P)
            (poly, e), *rest = rf.factors
            wrong = IntPolynomial([*poly.coefficients, 1])
            altered = FactoredRationalFunction(((wrong, e), *rest),
                                               rf.sign_convention)
            dual = dual_lefschetz_zeta(P)
            assert not lefschetz_identity(altered, dual)
            assert not cross_multiplied_identity(altered, dual)


def block_dual(P):
    """L(z) from one characteristic polynomial per block kron(wedge^i M, B),
    the definition that ``dual_lefschetz_zeta`` reads off power traces."""
    B = class_function_matrix(P.F, P.phiF)
    return lefschetz_zeta(
        [kron(exterior_power(P.M, i), B) for i in range(P.k + 1)])


class TestDualFromPowerTraces:
    """The dual Lefschetz zeta function from tr wedge^i(M^m) tr B^m against
    the characteristic polynomials of the blocks, factor for factor."""

    def test_matches_blocks_on_catalog(self):
        for P in [*product_catalog(), *wide_products()]:
            assert dual_lefschetz_zeta(P).factors == block_dual(P).factors

    @given(any_products())
    @settings(max_examples=100, deadline=None)
    def test_matches_blocks(self, case):
        P, _ = case
        assume(det(P))
        assert dual_lefschetz_zeta(P).factors == block_dual(P).factors

    def test_rank_six(self):
        M = IntMatrix([[1, 2, 0, -1, 0, 1], [0, 1, 1, 0, 2, 0],
                       [1, 0, -1, 1, 0, 0], [0, -2, 0, 1, 1, 1],
                       [2, 0, 1, 0, -1, 0], [0, 1, 0, 1, 0, 2]])
        P = ProductEndomorphism.from_matrix(M)
        assert det(P)
        assert dual_lefschetz_zeta(P).factors == block_dual(P).factors

    def test_one_polynomial_per_power_and_no_minor(self, monkeypatch):
        # One characteristic polynomial of M^m gives every level of m, and
        # m runs to the largest level dimension D = max_i C(k, i) c: D
        # polynomials and no determinant.
        products = [*product_catalog(), *wide_products()]
        calls, dets = [], []
        berkowitz = intlinalg._berkowitz
        monkeypatch.setattr(intlinalg, "_berkowitz",
                            lambda rows: calls.append(1) or berkowitz(rows))
        for module in (intlinalg, reidemeister):
            monkeypatch.setattr(module, "det_rows",
                                lambda rows: dets.append(1))
        for P in products:
            c = P.F.conjugacy_classes.num_classes
            calls.clear()
            dual_lefschetz_zeta(P)
            assert len(calls) == max(comb(P.k, i) * c
                                     for i in range(P.k + 1)), P
            assert dets == [], P

    def test_forms_no_block(self, monkeypatch):
        # Only M and B are multiplied, and no characteristic polynomial is
        # taken: a block kron(wedge^i M, B) has dimension C(k, i) * #classes.
        def refuse(*args):
            raise AssertionError("a level or a block was formed")

        for module in (intlinalg, zeta):
            for name in ("kron", "exterior_power", "char_poly"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        sizes = record_row_products(monkeypatch)
        for P in [*product_catalog(), *wide_products()]:
            sizes.clear()
            dual_lefschetz_zeta(P)
            assert max(sizes, default=0) <= largest_factor(P)


def det(P):
    from twistedzeta import det as _det
    try:
        return _det(P.M) != 0 and P.phiF.is_bijective()
    except Exception:
        return False


class TestRandomProducts:
    def test_series_oracle_cross_check(self):
        rng = random.Random(77)
        for P in random_product_endomorphisms(8, rng):
            rf = zeta_product(P)
            got = expand_rational(rf, 6)
            want = zeta_series_oracle(P, 6)
            assert got.coefficients == want.coefficients
