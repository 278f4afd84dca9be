"""Reference definitions that the tests compare the package against.

No route of the package runs these; they are kept here, next to the tests
that read them, with the bodies they had in the package.
"""

from __future__ import annotations

from twistedzeta import (
    FactoredRationalFunction,
    FiniteGroup,
    IntMatrix,
    IntPolynomial,
    char_poly,
    expand_rational,
)
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
    a = expand_rational(rf, order).coefficients
    c = [0]
    for n in range(1, order + 1):
        c.append(n * a[n] - sum(c[j] * a[n - j] for j in range(1, n)))
    return c[1:]


def det_identity_minus_z(X: IntMatrix) -> IntPolynomial:
    """det(I - X z) as a polynomial in z (reversed characteristic polynomial)."""
    cp = char_poly(X)
    return IntPolynomial(list(reversed(cp.coefficients)))


def lefschetz_zeta(matrices: list[IntMatrix]) -> FactoredRationalFunction:
    """Alternating product det(I - A_k z)^((-1)^(k+1)) over homology degrees."""
    return _alternating_product([det_identity_minus_z(A) for A in matrices])
