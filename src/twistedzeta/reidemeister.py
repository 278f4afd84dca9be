"""Reidemeister numbers of endomorphisms of Z^k x F, by three independent
routes that must agree: the product formula |det(I - M^n)| R(phi_F^n), the
signed exterior/class trace, and the Smith coset count times the exhaustive
twisted-class count of F.  The trace route reads Tr (wedge^i M)^n off one
division-free characteristic polynomial of M^n and Tr B^n from the powers
of the class matrix B, so it forms no exterior power and no Kronecker
block, and takes no determinant.  Each route decides from its own numbers
where an iterate is infinite.  A finite group is the case k = 0 and a
lattice the case F = 1; ``r_finite`` and ``class_function_matrix`` are the
F-factors of the formula and trace routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InfiniteReidemeister, NotAHomomorphism
from .groups import (
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
    det_rows,
    exterior_power,
    mat_pow,
    power_traces,
    row_powers,
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
    return IntMatrix(B)


def r_abelian(M: IntMatrix) -> int:
    """|det(I - M)|, the twisted class count on Z^k: a test reference with
    no CLI caller, pinned by the benchmark's per-layer table."""
    d = det(IntMatrix.identity(M.rows) - M)
    if d == 0:
        raise InfiniteReidemeister("det(I - M) = 0", n=1)
    return abs(d)


def r_abelian_smith(M: IntMatrix) -> int:
    """Coset-count oracle: order of Z^k / (I - M)Z^k via the Smith diagonal;
    a test reference for one n, pinned by the benchmark's per-layer table."""
    count = math.prod(smith_normal_form(IntMatrix.identity(M.rows) - M))
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
    with the image of phi_F (the mixed products must agree), which is
    generated by the images phi_F(s) of the generators s of F.
    """

    M: IntMatrix
    psi: tuple[int, ...]
    phiF: GroupEndomorphism
    F: FiniteGroup

    def __post_init__(self):
        if len(self.psi) != self.M.rows:
            raise ValueError("psi must give one F-element per basis vector")
        self.phiF.validate(self.F)
        F = self.F
        for a, b in itertools.combinations(self.psi, 2):
            if F.mult[a][b] != F.mult[b][a]:
                raise NotAHomomorphism("psi images do not commute pairwise")
        generator_images = [self.phiF(s) for s in F.generators]
        for a in self.psi:
            for f in generator_images:
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


def _lattice_count(d: int, n: int) -> int:
    """|d| for d = det(I - M^n), which must not vanish."""
    if d == 0:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    return abs(d)


def r_product(P: ProductEndomorphism, n: int = 1) -> int:
    """Product formula: |det(I - M^n)| times the finite count for phi_F^n;
    a test reference for one n, pinned by the benchmark's per-layer table."""
    lattice_count = _lattice_count(
        det(IntMatrix.identity(P.k) - mat_pow(P.M, n)), n)
    return lattice_count * r_finite(P.F, iterate_endo(P.phiF, n))


def r_product_counts(P: ProductEndomorphism, N: int) -> list[int]:
    """``[r_product(P, n) for n in 1..N]`` in one pass of iterates.

    M^n is M^(n-1) M, as row lists, and phi_F^n is phi_F after
    phi_F^(n-1): one matrix product and one composition per n.  Each
    determinant eliminates a fresh row list of I - M^n, so no IntMatrix is
    formed per n.  The first n with det(I - M^n) = 0 raises, as
    ``r_product`` does for that n.
    """
    phin = identity_endo(P.F)
    counts = []
    for n, power in enumerate(row_powers(P.M, N), start=1):
        phin = P.phiF.compose(phin)
        rows = [[-a for a in row] for row in power]  # I - M^n
        for i, row in enumerate(rows):
            row[i] += 1
        counts.append(_lattice_count(det_rows(rows), n)
                      * r_finite(P.F, phin))
    return counts


def _signed_trace(p: int, r: int, n: int, level_traces: list[int],
                  fixed: int) -> int:
    """(-1)^(r+p*n) sum_i (-1)^i level_traces[i] times fixed, for the
    traces Tr (wedge^i M)^n and fixed = Tr B^n; the level sum is
    det(I - M^n), and where it is 0 the iterate is infinite."""
    total = sum((-1) ** i * t for i, t in enumerate(level_traces))
    if total == 0:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    return (-1) ** ((r + p * n) % 2) * total * fixed


def r_product_trace(P: ProductEndomorphism, n: int = 1) -> int:
    """Signed trace (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M (x) B)^n,
    taken as (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M)^n times Tr B^n from
    the powers of the levels wedge^i M themselves: a test reference for one
    n, pinned by the benchmark's per-layer table."""
    _lattice_count(det(IntMatrix.identity(P.k) - mat_pow(P.M, n)), n)
    p, r = count_eigen_signs(char_poly(P.M))
    levels = [mat_pow(exterior_power(P.M, i), n).trace()
              for i in range(P.k + 1)]
    B = class_function_matrix(P.F, P.phiF)
    return _signed_trace(p, r, n, levels, mat_pow(B, n).trace())


def r_product_traces(P: ProductEndomorphism, N: int) -> list[int]:
    """``[r_product_trace(P, n) for n in 1..N]`` from power traces.

    A trace of a Kronecker product splits, Tr (X (x) Y)^n = Tr X^n Tr Y^n,
    and ``wedge_traces`` reads every Tr (wedge^i M)^n = e_i(M^n) off one
    characteristic polynomial of M^n, so an iterate costs one k x k and one
    c x c product, for c classes, and that polynomial: no level, block or
    I - M^n is formed; the first n whose level sum det(I - M^n) is 0
    raises.  The sign needs only the parities of (p, r): from the levels of
    n = 1, det(I + M) = sum_i e_i(M) < 0 exactly when p is odd and
    det(I - M) < 0 exactly when r - p is.  p signs even n only, and an
    eigenvalue -1, which leaves it undecided, makes det(I - M^2) = 0.
    """
    if N < 1:
        return []
    wedges = wedge_traces(P.M, N)
    p = int(sum(wedges[0]) < 0)
    r = p + (sum((-1) ** i * e for i, e in enumerate(wedges[0])) < 0)
    fixed = power_traces(class_function_matrix(P.F, P.phiF), N)
    return [_signed_trace(p, r, n, levels, f)
            for n, (levels, f) in enumerate(zip(wedges, fixed), start=1)]


def r_product_oracle(P: ProductEndomorphism, n: int = 1) -> int:
    """Independent count of the twisted classes of the n-th iterate.

    Conjugating (v, f) by (u, g) moves v to v + (I - M^n)u.  When
    det(I - M^n) != 0 only u = 0 keeps v, so every coset of (I - M^n)Z^k
    carries the phi_F^n-twisted classes of F, and psi never enters the
    count.  The coset count is the product of the Smith diagonal of
    I - M^n, from this route's own power of M; the F-count is the orbit
    enumeration of f -> g f phi_F^n(g)^-1.  Neither reads a determinant
    or a class map.  A test reference for one n: ``r_product_oracles``
    walks n = 1..N.
    """
    return _oracle_count(P, n, mat_pow(P.M, n), iterate_endo(P.phiF, n), {})


def r_product_oracles(P: ProductEndomorphism, N: int,
                      cap: int | None = None) -> list[int | None]:
    """``[r_product_oracle(P, n) for n in 1..N]`` on one ladder of the
    oracle's own iterates, M^n = M^(n-1) M and phi_F^n = phi_F phi_F^(n-1),
    apart from the formula's row powers.  Given a cap, the entry is None
    where the oracle's own coset count times |F| exceeds it.  phi_F^n is
    eventually periodic, so the twisted classes of each distinct phi_F^n
    are enumerated once."""
    power, phin, classes, counts = P.M, P.phiF, {}, []
    for n in range(1, N + 1):
        if n > 1:
            power, phin = power @ P.M, P.phiF.compose(phin)
        counts.append(_oracle_count(P, n, power, phin, classes, cap))
    return counts


def _oracle_count(P: ProductEndomorphism, n: int, power: IntMatrix,
                  phin: GroupEndomorphism, classes: dict,
                  cap: int | None = None) -> int | None:
    """The oracle's count for the n-th iterate from M^n and phi_F^n, or
    None where the coset count times |F| exceeds the cap; classes maps
    each phi_F^n table enumerated so far to its class count."""
    cosets = math.prod(smith_normal_form(IntMatrix.identity(P.k) - power))
    if cosets == 0:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    if cap is not None and cosets * P.F.order > cap:
        return None
    if phin.image not in classes:
        classes[phin.image] = phi_conjugacy_classes(P.F, phin).num_classes
    return cosets * classes[phin.image]
