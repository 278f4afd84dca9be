"""Zeta functions in closed rational form, with exact series verification.

The zeta function of a twisted class-count sequence is exp(sum_n R_n/n z^n).
For endomorphisms of Z^k x F it collapses to a finite product of integer
polynomials det(I - (wedge^i M (x) B) sigma z) raised to +-1 exponents; this
module builds that product, expands it to an exact truncated power series
to compare against the defining series, checks the Dold-style divisibility
of the count sequence, verifies the functional equation under
z -> 1/(det(M) z), and proves the two routes to the torsion special value
equal by an identity in Z[z].  Both identities are decided factor by
factor; no product of factors is multiplied out.

The product is built from power sums, never from the blocks themselves.
The block wedge^i M (x) B has the eigenvalues lambda_S mu, so its n-th power
sum is e_i(lambda_1^n, ..., lambda_k^n) tr(B^n).  One k x k characteristic
polynomial gives tr(M^m) by its linear recurrence, Newton's identities give
e_i(lambda^n) from tr(M^(jn)), j = 1..k, and tr(B^n) counts the classes
fixed by the n-th power of the class map.  Newton's identities, with exact
integer division, then turn p_1..p_D into det(I - Xz): O(D^2) integer
operations for a block of dimension D = C(k, i) * #classes.  The dual
Lefschetz zeta function, the other side of the torsion identity, is built
from power sums as well, but from its own: the levels of M^m read off one
division-free characteristic polynomial of M^m, the powers of the class
function matrix B, and its own Newton step.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .errors import (
    InfiniteReidemeister,
    NonInvertible,
    NotConstant,
    OracleDisagreement,
    PoleAtEvaluation,
    ZeroDeterminant,
)
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    count_eigen_signs,
    cyclotomic,
    det,
    first_cyclotomic_factor,
    power_traces,
    totient,
    wedge_traces,
)
from .reidemeister import (
    ProductEndomorphism,
    class_function_matrix,
    r_product_counts,
)


@dataclass(frozen=True)
class SignConvention:
    p: int
    r: int

    @property
    def sigma(self) -> int:
        return (-1) ** self.p


@dataclass(frozen=True)
class FactoredRationalFunction:
    """Product of integer polynomials in z raised to nonzero integer powers.

    Every factor has constant term 1 (each is det(I - X z) for an integer
    matrix X); constant factors are folded away.
    """

    factors: tuple[tuple[IntPolynomial, int], ...]
    sign_convention: SignConvention | None = None

    def evaluate(self, z: complex) -> complex:
        """The value at z in floats; PoleAtEvaluation if a factor is 0."""
        value = complex(1.0)
        for poly, e in self.factors:
            f = complex(poly(z))
            if f == 0:
                raise PoleAtEvaluation(
                    f"factor {poly} vanishes at z = {z}"
                )
            value *= f ** e
        return value

    def __str__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"({poly})^{e}" for poly, e in self.factors)


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact integer power series truncated at z^order (constant included)."""

    order: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("series length does not match its order")


# -- exact integer series ------------------------------------------------------
#
# Every factor det(I - X z) has constant term 1, so the expansion of the
# product, its logarithmic derivative and the defining exponential series all
# have integer coefficients and are computed by integer recurrences.

def expand_rational(rf: FactoredRationalFunction, order: int) -> TruncatedSeries:
    """Exact expansion of the factored product to z^order: 1 multiplied by
    each factor e times, or divided by it -e times, exact for a constant
    term 1 (ValueError otherwise).  No coefficient past z^order is formed."""
    a = [1] + [0] * order
    for poly, e in rf.factors:
        c = poly.coefficients
        if e < 0 and c[0] != 1:
            raise ValueError("a dividing factor must have constant term 1")
        for _ in range(abs(e)):
            if e > 0:  # a_n <- sum_j c_j a_(n-j)
                a = [sum(map(mul, c, a[n::-1])) for n in range(order + 1)]
            else:  # a_n <- a_n - sum_(j>0) c_j a_(n-j), from the bottom up
                for n in range(1, order + 1):
                    a[n] -= sum(map(mul, c[1:], a[n - 1::-1]))
    return TruncatedSeries(order, tuple(a))


def _exponents(factors) -> dict[IntPolynomial, int]:
    """{poly: summed exponent} over (poly, e) pairs, zero sums dropped.  No
    route merges with it, so a fault here cannot reach both compared sides."""
    merged: dict[IntPolynomial, int] = {}
    for poly, e in factors:
        merged[poly] = merged.get(poly, 0) + e
    return {poly: e for poly, e in merged.items() if e}


# -- closed form ---------------------------------------------------------------

def _reject_roots_of_unity(cp: IntPolynomial) -> None:
    n = first_cyclotomic_factor(cp)
    if n is not None:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)


def check_all_iterates_finite(M: IntMatrix) -> None:
    """Reject matrices with a root-of-unity eigenvalue: a test reference
    with no CLI caller, pinned by the benchmark's per-layer table.

    Such an eigenvalue makes det(I - M^n) = 0 for some n, an infinite class
    count, and the zeta function does not exist.  A degree-k integer matrix
    can only have roots of unity of order n with phi(n) <= k, so testing
    char_poly(M) against those cyclotomic polynomials is finite and exact;
    the error carries the first such n.
    """
    _reject_roots_of_unity(char_poly(M))


def _from_power_sums(sums: list[int]) -> list[int]:
    """Coefficients of det(I - X z) from the power sums tr(X^n), n = 1..D.

    Newton's identities n c_n = -sum_{j=1..n} p_j c_{n-j}, c_0 = 1.  For an
    integer matrix every division is exact; a remainder is an arithmetic
    fault, as in ``char_poly``.
    """
    c = [1]
    for n in range(1, len(sums) + 1):
        q, rem = divmod(-sum(sums[j - 1] * c[n - j] for j in range(1, n + 1)),
                        n)
        if rem:
            raise ArithmeticError(f"power sums not divisible by {n}")
        c.append(q)
    return c


def _power_sums(coefficients: tuple[int, ...], N: int) -> list[int]:
    """tr(A^m), m = 0..N, from the coefficients of det(I - A z).

    Newton's identities the other way: p_m = -m c_m - sum_{j<m} c_j p_{m-j},
    with c_j = 0 beyond the degree k: a linear recurrence once m > k.
    """
    c = list(coefficients)
    k = len(c) - 1
    p = [k]
    for m in range(1, N + 1):
        s = -m * c[m] if m <= k else 0
        for j in range(1, min(m - 1, k) + 1):
            s -= c[j] * p[m - j]
        p.append(s)
    return p


def _fixed_class_counts(P: ProductEndomorphism, N: int) -> list[int]:
    """tr(B^n), n = 1..N: the classes fixed by the n-th power of the class map."""
    part = P.F.conjugacy_classes
    step = [part.class_of[P.phiF(rep)] for rep in part.representatives]
    power, counts = list(range(len(step))), []
    for _ in range(N):
        power = [step[c] for c in power]
        counts.append(sum(c == j for j, c in enumerate(power)))
    return counts


def zeta_product(P: ProductEndomorphism) -> FactoredRationalFunction:
    """Closed rational form of the zeta function for Z^k x F.

    Factors are det(I - (wedge^i M (x) B) sigma z) with combined exponent
    (-1)^(i+1) (-1)^r, where sigma = (-1)^p and (p, r) are the eigenvalue
    sign counts of M.

    Each factor comes from its power sums
    p_n = sigma^n e_i(lambda_1^n, ..., lambda_k^n) tr(B^n), n = 1..D, with
    D = C(k, i) * #classes its dimension: one k x k characteristic polynomial
    gives tr(M^m) for m <= k D by recurrence, Newton's identities give
    e_i(M^n) from tr(M^(jn)), j = 1..k, and again turn p_1..p_D into the
    factor with exact integer division (a remainder raises ArithmeticError).
    That is O(D^2) integer operations per factor; no block is formed.
    """
    # Before the sign counts: an eigenvalue -1 is an infinite count
    # (det(I - M^2) = 0) before it is a boundary case for count_eigen_signs.
    cp = char_poly(P.M)
    _reject_roots_of_unity(cp)
    p, r = count_eigen_signs(cp)
    sigma = (-1) ** p
    outer = (-1) ** r
    k = P.k
    classes = P.F.conjugacy_classes.num_classes
    N = comb(k, k // 2) * classes  # the largest block dimension
    fixed = _fixed_class_counts(P, N)
    traces = _power_sums(cp.coefficients[::-1], k * N)
    # e_i(lambda^n) = (-1)^i [z^i] det(I - M^n z), i = 0..k
    elementary = [
        [(-1) ** i * c for i, c in enumerate(
            _from_power_sums([traces[j * n] for j in range(1, k + 1)]))]
        for n in range(1, N + 1)]
    merged: dict[IntPolynomial, int] = {}
    for i in range(k + 1):
        D = comb(k, i) * classes
        sums = [sigma ** n * elementary[n - 1][i] * fixed[n - 1]
                for n in range(1, D + 1)]
        poly = IntPolynomial(_from_power_sums(sums))
        if poly.degree < 1:
            continue
        e = (-1) ** (i + 1) * outer
        merged[poly] = merged.get(poly, 0) + e
    factors = tuple(
        (poly, e) for poly, e in merged.items() if e != 0
    )
    return FactoredRationalFunction(factors, SignConvention(p, r))


def series_from_counts(counts: list[int]) -> TruncatedSeries:
    """The series exp(sum_n R_n/n z^n) from R_1..R_N, truncated at z^N.

    The coefficients follow from n a_n = sum_{j=1..n} R_j a_{n-j}.  That sum
    is divisible by n whenever the counts satisfy the Dold congruences;
    otherwise no integer rational function can match and
    OracleDisagreement is raised.
    """
    R = [0, *counts]
    a = [1]
    for n in range(1, len(counts) + 1):
        q, rem = divmod(sum(R[j] * a[n - j] for j in range(1, n + 1)), n)
        if rem:
            raise OracleDisagreement(
                f"exp(sum R_n/n z^n) has a non-integral coefficient at z^{n}",
                n=n, counts=R[1:n + 1])
        a.append(q)
    return TruncatedSeries(len(counts), tuple(a))


def zeta_series_oracle(P: ProductEndomorphism, order: int) -> TruncatedSeries:
    """The defining series exp(sum_n R_n/n z^n) of the product-formula
    counts, truncated exactly at z^order (see ``series_from_counts``).  A
    test reference; the benchmark's per-layer table pins it."""
    return series_from_counts(r_product_counts(P, order))


def _alternating_product(polys: list[IntPolynomial]
                         ) -> FactoredRationalFunction:
    """prod_k polys[k]^((-1)^(k+1)), equal factors merged by exponent in
    the order of first appearance; constants and zero exponents dropped."""
    merged: dict[IntPolynomial, int] = {}
    for k, poly in enumerate(polys):
        if poly.degree < 1:
            continue
        e = (-1) ** (k + 1)
        merged[poly] = merged.get(poly, 0) + e
    factors = tuple((poly, e) for poly, e in merged.items() if e != 0)
    return FactoredRationalFunction(factors)


# -- congruences ---------------------------------------------------------------

def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def congruence_check(counts: list[int]) -> list[tuple[int, int]]:
    """Residues of sum_{d|n} mu(d) count(n/d) mod n, for n up to len(counts)."""
    out = []
    for n in range(1, len(counts) + 1):
        s = sum(
            mobius(d) * counts[n // d - 1] for d in range(1, n + 1) if n % d == 0
        )
        out.append((n, s % n))
    return out


# -- functional equation -------------------------------------------------------

@dataclass(frozen=True)
class FunctionalEquation:
    epsilon: Fraction
    exponent: int


def functional_equation_check(
        M: IntMatrix,
        closed_form: FactoredRationalFunction | None = None,
) -> FunctionalEquation:
    """Verify R(1/(d z)) = eps * R(z)^((-1)^k) on the factors, d = det M.

    A factor P = sum_t a_t z^t of degree m has P(1/(dz)) = (dz)^-m Q(z),
    Q(z) = sum_t a_(m-t) d^t z^t.  The eigenvalues of wedge^(k-i) M are
    d/lambda_S, so for factor i, Q is a_m times factor k - i, whose exponent
    is (-1)^k times that of factor i.  So {Q/a_m: e} = {P: (-1)^k e} with
    sum m e = 0 gives R(1/(dz)) = prod a_m^e * R(z)^((-1)^k): eps is
    prod a_m^e.  A remainder of Q/a_m or a mismatch raises NotConstant.
    ``closed_form`` is ``zeta_product`` of M when built already."""
    d = det(M)
    if d == 0:
        raise ZeroDeterminant("det M = 0")
    k = M.rows
    rf = closed_form
    if rf is None:
        rf = zeta_product(ProductEndomorphism.from_matrix(M))
    epsilon, shift, reflected = Fraction(1), 0, []
    for poly, e in rf.factors:
        lead = poly.coefficients[-1]
        Q = [a * d ** t for t, a in enumerate(reversed(poly.coefficients))]
        if any(q % lead for q in Q):
            raise NotConstant(f"{lead} does not divide (dz)^m P(1/(dz)) "
                              f"for the factor P = {poly}")
        reflected.append((IntPolynomial([q // lead for q in Q]), e))
        epsilon *= Fraction(lead) ** e
        shift += poly.degree * e
    if shift:
        raise NotConstant(f"the substituted zeta ratio carries (dz)^{-shift}")
    if _exponents(reflected) != _exponents(
            (poly, (-1) ** k * e) for poly, e in rf.factors):
        raise NotConstant("the substituted factors are not those of "
                          f"R(z)^{(-1) ** k}")
    return FunctionalEquation(epsilon, (-1) ** k)


# -- torsion special value -----------------------------------------------------

def check_invertible(P: ProductEndomorphism) -> None:
    """Raise NonInvertible unless both parts of the map are bijective: the
    mapping torus and its torsion need an automorphism."""
    if det(P.M) == 0:
        raise NonInvertible("lattice part is singular")
    if not P.phiF.is_bijective():
        raise NonInvertible("finite part is not bijective")


def _value_at_angle(rf: FactoredRationalFunction, s: Fraction) -> complex:
    """rf at z = e^(2 pi i s) in floats, after an exact pole test: z is a
    primitive m-th root of unity, m the denominator of s, so a factor
    vanishes at z exactly when Phi_m divides it.  That needs phi(m) <= deg,
    so Phi_m is built only then, and an m above 2 deg^2 builds nothing."""
    m = s.denominator
    degree = max((poly.degree for poly, _ in rf.factors), default=0)
    if m <= 2 * degree * degree and totient(m) <= degree:
        for poly, _ in rf.factors:
            if poly.pseudo_divmod(cyclotomic(m))[1].is_zero():
                raise PoleAtEvaluation(
                    f"factor {poly} vanishes at z = exp(2 pi i {s % 1})")
    return rf.evaluate(cmath.exp(2j * cmath.pi * (s % 1)))


def torsion_special_value(
        P: ProductEndomorphism, t: Fraction,
        closed_form: FactoredRationalFunction | None = None,
) -> float:
    """Mapping-torus torsion |R(sigma lambda)|^((-1)^(r+1)), lambda = e^(2 pi i t).

    sigma lambda = e^(2 pi i (t + p/2)).  ``closed_form`` is
    ``zeta_product(P)`` when the caller has built it already.
    """
    check_invertible(P)
    rf = closed_form
    if rf is None:
        rf = zeta_product(P)
    sc = rf.sign_convention
    value = _value_at_angle(rf, t + Fraction(sc.p, 2))
    return abs(value) ** ((-1) ** (sc.r + 1))


def _factor_from_traces(traces: list[int]) -> IntPolynomial:
    """det(I - X z) from tr X^m, m = 1..D, for a D x D integer matrix X.

    Newton's identities m c_m = -sum_{j=1..m} tr X^j c_{m-j}, c_0 = 1, with
    exact division; a remainder raises ArithmeticError.  This is the step
    of ``_from_power_sums`` written again on purpose: the closed form is
    built by that one, the identity that compares the two torsion routes
    would not see a fault in a step they shared, and a source guard keeps
    this route away from it.
    """
    c = [1]
    for m in range(1, len(traces) + 1):
        q, rem = divmod(-sum(t * x for t, x in zip(traces, reversed(c))), m)
        if rem:
            raise ArithmeticError(f"traces not divisible by {m}")
        c.append(q)
    return IntPolynomial(c)


def dual_lefschetz_zeta(P: ProductEndomorphism) -> FactoredRationalFunction:
    """Lefschetz zeta function L(z) of the dual map, which acts on the i-th
    level by the block X_i = wedge^i M (x) B, B the class function matrix.

    X_i has dimension D_i = C(k, i) c for c classes, and det(I - X_i z) is
    determined by tr X_i^m, m = 1..D_i.  A trace of a Kronecker product
    splits and wedge^i(M^m) = (wedge^i M)^m (Cauchy-Binet), so
    tr X_i^m = tr wedge^i(M^m) tr B^m: every level of M^m from one
    division-free characteristic polynomial of M^m (``wedge_traces``, for
    m up to the largest D_i) times the power traces of B.
    ``_factor_from_traces`` turns them into the factor; no block is formed
    and no characteristic polynomial of a block is taken.  The factors
    det(I - X_i z)^((-1)^(i+1)) are merged by exponent
    (``_alternating_product``).
    """
    B = class_function_matrix(P.F, P.phiF)
    dims = [comb(P.k, i) * B.rows for i in range(P.k + 1)]
    D = max(dims)
    wedges = wedge_traces(P.M, D)
    fixed = power_traces(B, D)
    return _alternating_product([
        _factor_from_traces([levels[i] * f for levels, f in
                             zip(wedges[:dim], fixed)])
        for i, dim in enumerate(dims)])


def torsion_via_lefschetz(
        P: ProductEndomorphism, t: Fraction,
        dual: FactoredRationalFunction | None = None,
) -> float:
    """Independent route: |L(lambda)|^-1 with L the Lefschetz zeta function
    of the dual map; ``dual`` is ``dual_lefschetz_zeta(P)`` when the caller
    has built it already."""
    check_invertible(P)
    L = dual
    if L is None:
        L = dual_lefschetz_zeta(P)
    return 1.0 / abs(_value_at_angle(L, t))


def lefschetz_identity(closed_form: FactoredRationalFunction,
                       dual: FactoredRationalFunction) -> bool:
    """Whether R(sigma z)^((-1)^r) = L(z) in Z[z], for R the closed form and
    L the dual Lefschetz zeta function: then the two torsion routes agree
    at every angle.  z -> sigma z and the exponent times (-1)^r turn factor
    i of R into factor i of L, so the maps {poly: summed exponent} of both
    sides are compared: equal maps give equal products, and one wrong
    factor disagrees even where others make up for it in the product."""
    sc = closed_form.sign_convention
    substituted = [
        (IntPolynomial([c * sc.sigma ** j
                        for j, c in enumerate(poly.coefficients)]),
         (-1) ** sc.r * e)
        for poly, e in closed_form.factors]
    return _exponents(substituted) == _exponents(dual.factors)
