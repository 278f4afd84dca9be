"""Reference definitions that the tests compare the package against.

No route of the package runs these; they are kept here, next to the tests
that read them, with the bodies they had in the package.
"""

from __future__ import annotations

from fractions import Fraction

from twistedzeta import (
    FactoredRationalFunction,
    FiniteGroup,
    IntMatrix,
    char_poly,
    det,
    expand_rational,
)
from twistedzeta.errors import NotConstant
from twistedzeta.zeta import _alternating_product


def check_axioms(G: FiniteGroup) -> None:
    """Full O(order^3) verification of the group axioms.

    Raises ValueError on the first violation.
    """
    n = G.order
    e = G.identity
    if G.inv[e] != e or any(len(row) != n for row in G.mult):
        raise ValueError("malformed tables")
    for g in range(n):
        if G.mult[e][g] != g or G.mult[g][e] != g:
            raise ValueError(f"{e} is not a two-sided identity at {g}")
        if G.mult[g][G.inv[g]] != e or G.mult[G.inv[g]][g] != e:
            raise ValueError(f"inv[{g}] is not a two-sided inverse")
    for a in range(n):
        for b in range(n):
            ab = G.mult[a][b]
            for c in range(n):
                if G.mult[ab][c] != G.mult[a][G.mult[b][c]]:
                    raise ValueError(f"associativity fails at ({a},{b},{c})")


def log_derivative_counts(rf: FactoredRationalFunction, order: int) -> list[int]:
    """Coefficients of z d/dz log of the product: the count sequence itself.

    Newton's identity c_n = n a_n - sum_{j<n} c_j a_{n-j}, with a the
    expansion of the product (a_0 = 1).
    """
    a = expand_rational(rf, order)
    c = [0]
    for n in range(1, order + 1):
        c.append(n * a[n] - sum(c[j] * a[n - j] for j in range(1, n)))
    return c[1:]


def trim(coefficients) -> tuple[int, ...]:
    """The coefficient tuple without its zero last entries: a polynomial as
    the package stores it, constant first, the zero polynomial ()."""
    c = list(coefficients)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two coefficient tuples, by the schoolbook loop."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def det_identity_minus_z(X: IntMatrix) -> tuple[int, ...]:
    """det(I - X z) as a polynomial in z (reversed characteristic polynomial)."""
    return trim(reversed(char_poly(X)))


def lefschetz_zeta(matrices: list[IntMatrix]) -> FactoredRationalFunction:
    """Alternating product det(I - A_k z)^((-1)^(k+1)) over homology degrees."""
    return _alternating_product([det_identity_minus_z(A) for A in matrices])


# -- the zeta identities by multiplying the product out ------------------------

def multiply_out(factors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Numerator and denominator of prod poly^e over (poly, e) pairs."""
    num = den = (1,)
    for poly, e in factors:
        for _ in range(abs(e)):
            if e > 0:
                num = poly_mul(num, poly)
            else:
                den = poly_mul(den, poly)
    return num, den


def expand_multiplied_out(rf: FactoredRationalFunction,
                          order: int) -> tuple[int, ...]:
    """Exact truncated expansion of the factored product: num * den^-1."""
    b, d = multiply_out(rf.factors)
    if d[0] != 1:
        raise ValueError("denominator must have constant term 1")
    a = []
    for n in range(order + 1):
        s = b[n] if n < len(b) else 0
        for i in range(1, min(n, len(d) - 1) + 1):
            s -= d[i] * a[n - i]
        a.append(s)
    return tuple(a)


def cross_multiplied_identity(closed_form: FactoredRationalFunction,
                              dual: FactoredRationalFunction) -> bool:
    """Whether R(sigma z)^((-1)^r) = L(z) in Z[z], cross-multiplied."""
    sc = closed_form.sign_convention
    substituted = [
        (tuple(c * sc.sigma ** j for j, c in enumerate(poly)),
         (-1) ** sc.r * e)
        for poly, e in closed_form.factors]
    num, den = multiply_out(substituted
                            + [(poly, -e) for poly, e in dual.factors])
    return num == den


def constant_ratio(M: IntMatrix, rf: FactoredRationalFunction
                   ) -> tuple[Fraction, int]:
    """(eps, (-1)^k) with R(1/(d z)) = eps * R(z)^((-1)^k), d = det M != 0.

    Substitutes z -> 1/(dz) into the factored closed form, clears powers of
    z, multiplies the ratio against R(z)^((-1)^k) out, and raises
    NotConstant unless it is a constant rational function.
    """
    d, k = det(M), M.rows
    shift = 0  # the ratio carries (d z)^shift
    ratio = []
    for poly, e in rf.factors:
        m = len(poly) - 1
        # P(1/(dz)) = d^-m z^-m Q(z) with Q(z) = sum_t a_{m-t} d^t z^t
        Q = trim(poly[m - t] * d ** t for t in range(m + 1))
        shift -= m * e
        # times Q(z)^e, divided by P(z)^((-1)^k e)
        ratio += [(Q, e), (poly, -((-1) ** k) * e)]
    ratio.append(((0, 1), shift))
    a, b = multiply_out(ratio)
    if not a:
        raise NotConstant("ratio is identically zero")
    if len(a) != len(b) or any(x * b[-1] != y * a[-1] for x, y in zip(a, b)):
        raise NotConstant("the substituted zeta ratio is not constant in z")
    return Fraction(d) ** shift * Fraction(a[-1], b[-1]), (-1) ** k
