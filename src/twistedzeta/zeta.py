"""Zeta functions in closed rational form, with exact series verification.

The zeta function of a twisted class-count sequence is exp(sum_n R_n/n z^n).
For endomorphisms of Z^k x F it collapses to a finite product of integer
polynomials det(I - (wedge^i M (x) B) sigma z) raised to +-1 exponents; this
module builds that product, expands it back to an exact integer power
series to compare against the defining series, checks the Dold-style
divisibility of the count sequence, verifies the functional equation under
z -> 1/(det(M) z), and evaluates the torsion special value on the unit
circle by two routes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
    det,
    exterior_power,
    kron,
    mat_pow,
)
from .reidemeister import (
    ProductEndomorphism,
    class_function_matrix,
    r_product,
)

POLE_TOLERANCE = 1e-6


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

    def evaluate(self, z: complex, pole_tol: float = POLE_TOLERANCE) -> complex:
        value = complex(1.0)
        for poly, e in self.factors:
            f = complex(poly(z))
            if abs(f) < pole_tol:
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

def _multiply_out(factors) -> tuple[IntPolynomial, IntPolynomial]:
    """Numerator and denominator of prod poly^e over (poly, e) pairs."""
    num = den = IntPolynomial([1])
    for poly, e in factors:
        for _ in range(abs(e)):
            if e > 0:
                num = num * poly
            else:
                den = den * poly
    return num, den


def expand_rational(rf: FactoredRationalFunction, order: int) -> TruncatedSeries:
    """Exact truncated expansion of the factored product: num * den^-1."""
    num, den = _multiply_out(rf.factors)
    b, d = num.coefficients, den.coefficients
    if d[0] != 1:
        raise ValueError("denominator must have constant term 1")
    a = []
    for n in range(order + 1):
        s = b[n] if n < len(b) else 0
        for i in range(1, min(n, len(d) - 1) + 1):
            s -= d[i] * a[n - i]
        a.append(s)
    return TruncatedSeries(order, tuple(a))


def log_derivative_counts(rf: FactoredRationalFunction, order: int) -> list[int]:
    """Coefficients of z d/dz log of the product: the count sequence itself.

    Newton's identity c_n = n a_n - sum_{j<n} c_j a_{n-j}, with a the
    expansion of the product (a_0 = 1).
    """
    a = expand_rational(rf, order).coefficients
    c = [0]
    for n in range(1, order + 1):
        c.append(n * a[n] - sum(c[j] * a[n - j] for j in range(1, n)))
    return c[1:]


# -- closed form ---------------------------------------------------------------

def det_identity_minus_z(X: IntMatrix) -> IntPolynomial:
    """det(I - X z) as a polynomial in z (reversed characteristic polynomial)."""
    cp = char_poly(X)
    return IntPolynomial(list(reversed(cp.coefficients)))


def _euler_phi(n: int) -> int:
    count = 0
    for m in range(1, n + 1):
        if gcd(m, n) == 1:
            count += 1
    return count


def check_all_iterates_finite(M: IntMatrix) -> None:
    """Reject matrices with a root-of-unity eigenvalue.

    Such an eigenvalue makes det(I - M^n) = 0 for some n, i.e. an infinite
    class count, and the zeta function does not exist.  A degree-k integer
    matrix can only have roots of unity of order n with phi(n) <= k, so the
    check is finite and exact.
    """
    k = M.rows
    if k == 0:
        return
    # phi(n) >= sqrt(n/2), so phi(n) <= k forces n <= 2k^2.
    for n in range(1, 2 * k * k + 1):
        if _euler_phi(n) <= k:
            if det(IntMatrix.identity(k) - mat_pow(M, n)) == 0:
                raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)


def zeta_product(P: ProductEndomorphism) -> FactoredRationalFunction:
    """Closed rational form of the zeta function for Z^k x F.

    Factors are det(I - (wedge^i M (x) B) sigma z) with combined exponent
    (-1)^(i+1) (-1)^r, where sigma = (-1)^p and (p, r) are the eigenvalue
    sign counts of M.
    """
    p, r = count_eigen_signs(P.M)
    check_all_iterates_finite(P.M)
    sigma = (-1) ** p
    outer = (-1) ** r
    B = class_function_matrix(P.F, P.phiF).B
    merged: dict[IntPolynomial, int] = {}
    for i in range(P.k + 1):
        X = kron(exterior_power(P.M, i), B).scale(sigma)
        poly = det_identity_minus_z(X)
        if poly.degree < 1:
            continue
        e = (-1) ** (i + 1) * outer
        merged[poly] = merged.get(poly, 0) + e
    factors = tuple(
        (poly, e) for poly, e in merged.items() if e != 0
    )
    return FactoredRationalFunction(factors, SignConvention(p, r))


def zeta_series_oracle(P: ProductEndomorphism, order: int) -> TruncatedSeries:
    """The defining series exp(sum_n R_n/n z^n), truncated exactly.

    Counts come from the product formula; the coefficients follow from
    n a_n = sum_{j=1..n} R_j a_{n-j}.  That sum is divisible by n whenever
    the counts satisfy the Dold congruences; otherwise no integer rational
    function can match and OracleDisagreement is raised.
    """
    R = [0] + [r_product(P, n) for n in range(1, order + 1)]
    a = [1]
    for n in range(1, order + 1):
        q, rem = divmod(sum(R[j] * a[n - j] for j in range(1, n + 1)), n)
        if rem:
            raise OracleDisagreement(
                f"exp(sum R_n/n z^n) has a non-integral coefficient at z^{n}",
                n=n, counts=R[1:n + 1])
        a.append(q)
    return TruncatedSeries(order, tuple(a))


def lefschetz_zeta(matrices: list[IntMatrix]) -> FactoredRationalFunction:
    """Alternating product det(I - A_k z)^((-1)^(k+1)) over homology degrees."""
    merged: dict[IntPolynomial, int] = {}
    for k, A in enumerate(matrices):
        poly = det_identity_minus_z(A)
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
    is_constant: bool
    epsilon: Fraction
    exponent: int


def functional_equation_check(M: IntMatrix) -> FunctionalEquation:
    """Verify R(1/(d z)) = eps * R(z)^((-1)^k) symbolically, d = det M.

    Substitutes z -> 1/(dz) into the factored closed form, clears powers of
    z, and checks that the ratio against R(z)^((-1)^k) is a constant
    rational function.  Returns the constant.
    """
    d = det(M)
    if d == 0:
        raise ZeroDeterminant("det M = 0")
    k = M.rows
    rf = zeta_product(ProductEndomorphism.from_matrix(M))

    shift = 0  # the ratio carries (d z)^shift
    ratio = []
    for poly, e in rf.factors:
        m = poly.degree
        # P(1/(dz)) = d^-m z^-m Q(z) with Q(z) = sum_t a_{m-t} d^t z^t
        Q = IntPolynomial([poly.coefficients[m - t] * d ** t
                           for t in range(m + 1)])
        shift -= m * e
        # times Q(z)^e, divided by P(z)^((-1)^k e)
        ratio += [(Q, e), (poly, -((-1) ** k) * e)]
    ratio.append((IntPolynomial([0, 1]), shift))
    num, den = _multiply_out(ratio)
    if num.is_zero():
        raise NotConstant("ratio is identically zero")
    a, b = num.coefficients, den.coefficients
    if len(a) != len(b) or any(x * b[-1] != y * a[-1] for x, y in zip(a, b)):
        raise NotConstant(
            "the substituted zeta ratio is not constant in z"
        )
    epsilon = Fraction(d) ** shift * Fraction(a[-1], b[-1])
    return FunctionalEquation(True, epsilon, (-1) ** k)


# -- torsion special value -----------------------------------------------------

def _angle_to_unit(t: Fraction) -> complex:
    return cmath.exp(2j * cmath.pi * float(t))


def _check_invertible(P: ProductEndomorphism) -> None:
    if det(P.M) == 0:
        raise NonInvertible("lattice part is singular")
    if not P.phiF.is_bijective():
        raise NonInvertible("finite part is not bijective")


def torsion_special_value(P: ProductEndomorphism, t: Fraction) -> float:
    """Mapping-torus torsion |R(sigma lambda)|^((-1)^(r+1)), lambda = e^(2 pi i t)."""
    _check_invertible(P)
    rf = zeta_product(P)
    sc = rf.sign_convention
    lam = _angle_to_unit(t)
    value = rf.evaluate(sc.sigma * lam)
    return abs(value) ** ((-1) ** (sc.r + 1))


def torsion_via_lefschetz(P: ProductEndomorphism, t: Fraction) -> float:
    """Independent route: |L(lambda)|^-1 with the dual homology data.

    The dual map acts on the i-th level by wedge^i M (x) B; the torsion is
    the inverse modulus of the alternating determinant product there.
    """
    _check_invertible(P)
    import numpy as np

    B = class_function_matrix(P.F, P.phiF).B
    lam = _angle_to_unit(t)
    value = 1.0
    for i in range(P.k + 1):
        X = kron(exterior_power(P.M, i), B)
        A = np.array(X.entries, dtype=complex)
        f = np.linalg.det(np.eye(A.shape[0]) - lam * A)
        if abs(f) < POLE_TOLERANCE:
            raise PoleAtEvaluation(
                f"dual determinant vanishes at degree {i}, t = {t}"
            )
        value *= abs(f) ** ((-1) ** (i + 1))
    return 1.0 / value
