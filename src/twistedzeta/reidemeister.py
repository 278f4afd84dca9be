"""Reidemeister numbers of endomorphisms of Z^k x F, by three independent
routes that must agree: the product formula |det(I - M^n)| R(phi_F^n), the
signed exterior/class trace, and the Smith coset count times the exhaustive
twisted-class count of F.  The trace route reads Tr (wedge^i M)^n as the
sum of the principal i-minors of M^n and Tr B^n from the powers of the
class matrix B, so it forms no exterior power and no Kronecker block.  A
finite group is the case k = 0 and a lattice the case F = 1; ``r_finite``
and ``class_function_matrix`` are the F-factors of the formula and trace
routes.
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
    char_poly,
    count_eigen_signs,
    det,
    exterior_power,
    first_cyclotomic_factor,
    mat_pow,
    power_traces,
    smith_normal_form,
    wedge_traces,
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


def _signed_trace(p: int, r: int, n: int, level_traces: list[int],
                  fixed: int) -> int:
    """(-1)^(r+p*n) sum_i (-1)^i level_traces[i] times fixed, for the
    traces Tr (wedge^i M)^n and fixed = Tr B^n."""
    total = sum((-1) ** i * t for i, t in enumerate(level_traces))
    return (-1) ** ((r + p * n) % 2) * total * fixed


def r_product_trace(P: ProductEndomorphism, n: int = 1) -> int:
    """Signed trace (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M (x) B)^n,
    taken as (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M)^n times Tr B^n from
    the powers of the levels wedge^i M themselves: a test reference for one
    n, pinned by the benchmark's per-layer table."""
    _lattice_count(IntMatrix.identity(P.k) - mat_pow(P.M, n), n)
    p, r = count_eigen_signs(char_poly(P.M))
    levels = [mat_pow(exterior_power(P.M, i), n).trace()
              for i in range(P.k + 1)]
    B = class_function_matrix(P.F, P.phiF)
    return _signed_trace(p, r, n, levels, mat_pow(B, n).trace())


def r_product_traces(P: ProductEndomorphism, N: int) -> list[int]:
    """``[r_product_trace(P, n) for n in 1..N]`` from power traces.

    Every iterate is checked finite first: the first n with
    det(I - M^n) = 0 is the first cyclotomic factor of char_poly(M), which
    also gives the sign counts (p, r).  A trace of a Kronecker product
    splits, Tr (X (x) Y)^n = Tr X^n Tr Y^n, and Tr (wedge^i M)^n is the sum
    of the principal i-minors of M^n (``wedge_traces``), so an iterate
    costs one k x k and one c x c product, for c classes, plus the 2^k
    principal minors of M^n: no level wedge^i M, block or I - M^n is formed.
    """
    cp = char_poly(P.M)
    n = first_cyclotomic_factor(cp)
    if n is not None and n <= N:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    p, r = count_eigen_signs(cp)
    fixed = power_traces(class_function_matrix(P.F, P.phiF), N)
    return [_signed_trace(p, r, n, levels, f)
            for n, (levels, f) in enumerate(zip(wedge_traces(P.M, N), fixed),
                                            start=1)]


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
