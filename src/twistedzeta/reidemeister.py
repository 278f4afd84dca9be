"""Reidemeister numbers of endomorphisms of Z^k x F, by three independent
routes that must agree: the product formula |det(I - M^n)| R(phi_F^n), the
signed exterior/class trace, and the Smith coset count times the exhaustive
twisted-class count of F.  A finite group is the case k = 0 and a lattice
the case F = 1; ``r_finite`` and ``class_function_matrix`` are the F-factors
of the formula and trace routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InfiniteReidemeister, NotAHomomorphism
from .groups import (
    ConjugacyPartition,
    FiniteGroup,
    GroupEndomorphism,
    identity_endo,
    iterate_endo,
    phi_conjugacy_classes,
    trivial_group,
)
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    count_eigen_signs,
    det,
    exterior_power,
    first_cyclotomic_factor,
    mat_pow,
    smith_normal_form,
)


def r_finite(G: FiniteGroup, phi: GroupEndomorphism) -> int:
    """Number of ordinary conjugacy classes fixed by the induced class map."""
    part = G.conjugacy_classes
    return sum(
        1
        for rep in part.representatives
        if part.class_of[phi(rep)] == part.class_of[rep]
    )


def class_function_matrix(G: FiniteGroup, phi: GroupEndomorphism) -> IntMatrix:
    """Matrix of f -> f o phi on the characteristic-function basis.

    B[c][c'] = 1 when phi sends the members of class c' into class c.
    Each column carries exactly one 1, and the trace counts the classes
    fixed by the induced class map.
    """
    part = G.conjugacy_classes
    c = part.num_classes
    B = [[0] * c for _ in range(c)]
    for src, rep in enumerate(part.representatives):
        B[part.class_of[phi(rep)]][src] = 1
    return IntMatrix(B, rows=c, cols=c)


def r_abelian(M: IntMatrix) -> int:
    """|det(I - M)|, the twisted class count on Z^k: a test reference, and
    the coset count of the CLI's product oracle gate."""
    d = det(IntMatrix.identity(M.rows) - M)
    if d == 0:
        raise InfiniteReidemeister("det(I - M) = 0", n=1)
    return abs(d)


def r_abelian_smith(M: IntMatrix) -> int:
    """Coset-count oracle: order of Z^k / (I - M)Z^k via the Smith diagonal;
    a test reference for one n, pinned by the benchmark's per-layer table."""
    count = math.prod(
        smith_normal_form(IntMatrix.identity(M.rows) - M).diagonal)
    if count == 0:
        raise InfiniteReidemeister("(I - M) is singular", n=1)
    return count


def r_abelian_trace(M: IntMatrix) -> int:
    """Signed alternating exterior trace (-1)^(r+p) sum_i (-1)^i Tr wedge^i M.

    The sign counts (p, r) come from char_poly(M).  A test reference for
    one n; the benchmark's per-layer table pins it."""
    p, r = count_eigen_signs(char_poly(M))
    k = M.rows
    total = sum(
        (-1) ** i * exterior_power(M, i).trace() for i in range(k + 1)
    )
    value = (-1) ** (r + p) * total
    if value == 0:
        raise InfiniteReidemeister("det(I - M) = 0", n=1)
    return value


@dataclass(frozen=True)
class ProductEndomorphism:
    """Endomorphism of Z^k x F as (v, f) -> (M v, psi(v) * phi_F(f)).

    ``psi`` lists the F-images of the k standard basis vectors; k = 0 is a
    finite group and a trivial F (``from_matrix``) a lattice.  The
    constructor checks the homomorphism property on generators: the psi
    images must commute pairwise (psi is a homomorphism) and must commute
    with the image of phi_F (the mixed products must agree).
    """

    M: IntMatrix
    psi: tuple[int, ...]
    phiF: GroupEndomorphism
    F: FiniteGroup

    def __post_init__(self):
        if not self.M.is_square:
            raise ValueError("M must be square")
        if len(self.psi) != self.M.rows:
            raise ValueError("psi must give one F-element per basis vector")
        self.phiF.validate(self.F)
        F = self.F
        for a, b in itertools.combinations(self.psi, 2):
            if F.mult[a][b] != F.mult[b][a]:
                raise NotAHomomorphism("psi images do not commute pairwise")
        image_of_phiF = set(self.phiF.image)
        for a in self.psi:
            for f in image_of_phiF:
                if F.mult[a][f] != F.mult[f][a]:
                    raise NotAHomomorphism(
                        "a psi image does not commute with the image of phi_F"
                    )

    @property
    def k(self) -> int:
        return self.M.rows

    @classmethod
    def from_matrix(cls, M: IntMatrix) -> "ProductEndomorphism":
        """Pure lattice case: trivial finite part."""
        F = trivial_group()
        return cls(M, tuple([F.identity] * M.rows), GroupEndomorphism((0,)), F)


def _lattice_count(A: IntMatrix, n: int) -> int:
    """|det A| for A = I - M^n, which must not vanish."""
    d = det(A)
    if d == 0:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    return abs(d)


def r_product(P: ProductEndomorphism, n: int = 1) -> int:
    """Product formula: |det(I - M^n)| times the finite count for phi_F^n;
    a test reference for one n, pinned by the benchmark's per-layer table."""
    lattice_count = _lattice_count(
        IntMatrix.identity(P.k) - mat_pow(P.M, n), n)
    return lattice_count * r_finite(P.F, iterate_endo(P.phiF, n))


def r_product_counts(P: ProductEndomorphism, N: int) -> list[int]:
    """``[r_product(P, n) for n in 1..N]`` in one pass of iterates.

    M^n is M^(n-1) M and phi_F^n is phi_F after phi_F^(n-1): one matrix
    product and one composition per n.  The first n with det(I - M^n) = 0
    raises, as ``r_product`` does for that n.
    """
    identity = IntMatrix.identity(P.k)
    Mn, phin = identity, identity_endo(P.F)
    counts = []
    for n in range(1, N + 1):
        Mn = Mn @ P.M
        phin = P.phiF.compose(phin)
        counts.append(_lattice_count(identity - Mn, n) * r_finite(P.F, phin))
    return counts


def _trace_blocks(P: ProductEndomorphism, cp: IntPolynomial):
    """Sign counts (p, r) of M from cp = char_poly(M), the levels wedge^i M
    for i = 0..k, and B = class_function_matrix(F, phi_F).

    The blocks of the trace formula are kron(wedge^i M, B), and a trace of
    a Kronecker product splits, Tr (X (x) Y)^n = Tr X^n Tr Y^n, so the
    factors are powered apart and no block is formed.
    """
    p, r = count_eigen_signs(cp)
    levels = [exterior_power(P.M, i) for i in range(P.k + 1)]
    return p, r, levels, class_function_matrix(P.F, P.phiF)


def _signed_trace(p: int, r: int, n: int, level_powers: list[IntMatrix],
                  Bn: IntMatrix) -> int:
    total = sum((-1) ** i * X.trace() for i, X in enumerate(level_powers))
    return (-1) ** ((r + p * n) % 2) * total * Bn.trace()


def r_product_trace(P: ProductEndomorphism, n: int = 1) -> int:
    """Signed trace (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M (x) B)^n,
    taken as (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M)^n times Tr B^n; a test
    reference for one n, pinned by the benchmark's per-layer table."""
    _lattice_count(IntMatrix.identity(P.k) - mat_pow(P.M, n), n)
    p, r, levels, B = _trace_blocks(P, char_poly(P.M))
    return _signed_trace(p, r, n, [mat_pow(X, n) for X in levels],
                         mat_pow(B, n))


def r_product_traces(P: ProductEndomorphism, N: int) -> list[int]:
    """``[r_product_trace(P, n) for n in 1..N]``, with the factors built once.

    Every iterate is checked finite first: the first n with
    det(I - M^n) = 0 is the first cyclotomic factor of char_poly(M).  The
    n-th powers of the levels wedge^i M and of B are the (n-1)-th times
    the factors, so an iterate costs sum_i C(k,i)^3 + c^3 for c classes
    rather than the (C(k,i) c)^3 of each block power.
    """
    cp = char_poly(P.M)
    n = first_cyclotomic_factor(cp)
    if n is not None and n <= N:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    p, r, levels, B = _trace_blocks(P, cp)
    powers = [IntMatrix.identity(X.rows) for X in levels]
    Bn = IntMatrix.identity(B.rows)
    counts = []
    for n in range(1, N + 1):
        powers = [Xn @ X for Xn, X in zip(powers, levels)]
        Bn = Bn @ B
        counts.append(_signed_trace(p, r, n, powers, Bn))
    return counts


def r_product_oracle(P: ProductEndomorphism, n: int = 1) -> int:
    """Independent count of the twisted classes of the n-th iterate.

    Conjugating (v, f) by (u, g) moves v to v + (I - M^n)u.  When
    det(I - M^n) != 0 only u = 0 keeps v, so every coset of (I - M^n)Z^k
    carries the phi_F^n-twisted classes of F, and psi never enters the
    count.  The coset count is the product of the Smith diagonal of
    I - M^n, from this route's own power of M; the F-count is the orbit
    enumeration of f -> g f phi_F^n(g)^-1.  Neither reads a determinant
    or a class map.
    """
    cosets = math.prod(smith_normal_form(
        IntMatrix.identity(P.k) - mat_pow(P.M, n)).diagonal)
    if cosets == 0:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    twisted = phi_conjugacy_classes(P.F, iterate_endo(P.phiF, n))
    return cosets * twisted.num_classes
