"""Reidemeister numbers by closed formula and by brute-force oracle.

Three settings, each with two or three independent routes that must agree:

* finite groups: count of ordinary conjugacy classes fixed by the induced
  class map, equal to the trace of precomposition on class functions, equal
  to the exhaustive twisted-conjugacy class count;
* free abelian Z^k: |det(I - M)|, equal to the Smith coset count of
  (I - M)Z^k, equal to the signed alternating exterior trace;
* products Z^k x F: the product formula, the signed exterior/class trace,
  and a coset-by-coset enumeration that decides twisted conjugacy through
  the explicit two-condition criterion.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .errors import InfiniteReidemeister, NotAHomomorphism, NotSquare
from .groups import (
    ConjugacyPartition,
    FiniteGroup,
    GroupEndomorphism,
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
    kron,
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
    """|det(I - M)|, the twisted class count on Z^k."""
    d = det(IntMatrix.identity(M.rows) - M)
    if d == 0:
        raise InfiniteReidemeister("det(I - M) = 0", n=1)
    return abs(d)


def r_abelian_smith(M: IntMatrix) -> int:
    """Coset-count oracle: order of Z^k / (I - M)Z^k via the Smith diagonal."""
    snf = smith_normal_form(IntMatrix.identity(M.rows) - M)
    if any(d == 0 for d in snf.diagonal):
        raise InfiniteReidemeister("(I - M) is singular", n=1)
    count = 1
    for d in snf.diagonal:
        count *= d
    return count


def r_abelian_trace(M: IntMatrix) -> int:
    """Signed alternating exterior trace (-1)^(r+p) sum_i (-1)^i Tr wedge^i M."""
    p, r = count_eigen_signs(M)
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

    ``psi`` lists the F-images of the k standard basis vectors.  The
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

    def psi_value(self, v: tuple[int, ...]) -> int:
        """psi(v) = product of psi_i^(v_i) in F."""
        acc = self.F.identity
        for base, e in zip(self.psi, v):
            acc = self.F.mult[acc][self.F.power(base, e)]
        return acc

    def apply(self, v: tuple[int, ...], f: int) -> tuple[tuple[int, ...], int]:
        return self.M.apply(v), self.F.mult[self.psi_value(v)][self.phiF(f)]

    def apply_iterated(self, v, f, n: int):
        for _ in range(n):
            v, f = self.apply(v, f)
        return v, f

    def lattice_finite_part(self, v: tuple[int, ...], n: int) -> int:
        """F-component of the n-th iterate applied to (v, identity)."""
        _, f = self.apply_iterated(v, self.F.identity, n)
        return f


def _check_finite_iterate(P: ProductEndomorphism,
                          n: int) -> tuple[IntMatrix, int]:
    """M^n and |det(I - M^n)|, which must not vanish."""
    Mn = mat_pow(P.M, n)
    d = det(IntMatrix.identity(P.k) - Mn)
    if d == 0:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    return Mn, abs(d)


def r_product(P: ProductEndomorphism, n: int = 1) -> int:
    """Product formula: |det(I - M^n)| times the finite count for phi_F^n."""
    _, lattice_count = _check_finite_iterate(P, n)
    return lattice_count * r_finite(P.F, iterate_endo(P.phiF, n))


def _trace_blocks(P: ProductEndomorphism):
    """Sign counts (p, r) of M and the blocks wedge^i M (x) B, i = 0..k."""
    p, r = count_eigen_signs(P.M)
    B = class_function_matrix(P.F, P.phiF)
    return p, r, [kron(exterior_power(P.M, i), B) for i in range(P.k + 1)]


def _signed_trace(p: int, r: int, n: int, powers: list[IntMatrix]) -> int:
    total = sum((-1) ** i * X.trace() for i, X in enumerate(powers))
    return (-1) ** ((r + p * n) % 2) * total


def r_product_trace(P: ProductEndomorphism, n: int = 1) -> int:
    """Signed trace (-1)^(r+p*n) sum_i (-1)^i Tr (wedge^i M (x) B)^n."""
    _check_finite_iterate(P, n)
    p, r, blocks = _trace_blocks(P)
    return _signed_trace(p, r, n, [mat_pow(X, n) for X in blocks])


def r_product_traces(P: ProductEndomorphism, N: int) -> list[int]:
    """``[r_product_trace(P, n) for n in 1..N]``, with the blocks built once.

    Every iterate is checked finite first: the first n with
    det(I - M^n) = 0 is the first cyclotomic factor of char_poly(M).  The
    n-th block powers are the (n-1)-th times the blocks.
    """
    n = first_cyclotomic_factor(char_poly(P.M))
    if n is not None and n <= N:
        raise InfiniteReidemeister(f"det(I - M^{n}) = 0", n=n)
    p, r, blocks = _trace_blocks(P)
    powers = [IntMatrix.identity(X.rows) for X in blocks]
    counts = []
    for n in range(1, N + 1):
        powers = [Xn @ X for Xn, X in zip(powers, blocks)]
        counts.append(_signed_trace(p, r, n, powers))
    return counts


class _SmithQuotient:
    """Z^k / A Z^k through one Smith form L A R = D of a square A.

    v lies in A Z^k iff L v is divisible by D entrywise, so the residue of
    L v modulo the diagonal names the coset of v.
    """

    def __init__(self, A: IntMatrix):
        snf = smith_normal_form(A)
        self.diagonal = snf.diagonal
        self.left = snf.left
        self.left_inverse = snf.left_inverse
        self.right = snf.right

    def representatives(self) -> list[tuple[int, ...]]:
        if 0 in self.diagonal:
            raise InfiniteReidemeister("lattice quotient is infinite")
        return [self.left_inverse.apply(x)
                for x in itertools.product(*(range(d) for d in self.diagonal))]

    def residue(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Key equal for two vectors exactly when they differ by A Z^k."""
        return tuple(xi % d if d else xi
                     for xi, d in zip(self.left.apply(v), self.diagonal))

    def solve(self, target: tuple[int, ...]):
        """Integer w with A w = target, or None if target is not in A Z^k."""
        w = []
        for xi, d in zip(self.left.apply(target), self.diagonal):
            if d == 0:
                if xi != 0:
                    return None
                w.append(0)
            else:
                q, rem = divmod(xi, d)
                if rem:
                    return None
                w.append(q)
        return self.right.apply(tuple(w))


def coset_representatives(A: IntMatrix) -> list[tuple[int, ...]]:
    """Representatives of Z^k / A Z^k for nonsingular A, via the Smith form."""
    if not A.is_square:
        raise NotSquare("coset representatives of a non-square matrix")
    return _SmithQuotient(A).representatives()


def solve_lattice(A: IntMatrix, target: tuple[int, ...]):
    """Integer solution w of A w = target, or None if target is not in A Z^k."""
    return _SmithQuotient(A).solve(target)


def r_product_oracle(P: ProductEndomorphism, n: int = 1) -> int:
    """Independent enumeration of the twisted classes of the n-th iterate.

    Representatives (v, f) run over lattice-coset representatives times F.
    Two of them are equivalent iff v2 - v1 lies in (I - M^n)Z^k and some
    h in F satisfies h f1 = f2 * c * phi_F^n(h), where c is the F-part of
    the iterate applied to the exact integer solution w of
    (I - M^n) w = v2 - v1.

    Rather than testing pairs, each class is generated as an orbit: the
    representatives are bucketed by Smith residue, and a new class marks
    every (v2, h f1 phi_F^n(h)^-1 c^-1) with v2 in the bucket of v1 and h
    in F.  The cost is O(#cosets * |F|) group operations.

    What this checks today: the representatives are one per coset, so each
    bucket holds one of them, w is always 0 and c the identity.  The count
    is |det(I - M^n)| times the number of phi_F^n-twisted classes of F;
    psi and the exact solve never change it.
    """
    Mn, _ = _check_finite_iterate(P, n)
    quotient = _SmithQuotient(IntMatrix.identity(P.k) - Mn)
    phin = iterate_endo(P.phiF, n)
    F = P.F
    twist_inv = [F.inv[phin(h)] for h in F.elements()]
    reps = quotient.representatives()
    keys = [quotient.residue(v) for v in reps]
    buckets = defaultdict(list)
    for j, key in enumerate(keys):
        buckets[key].append(j)

    marked = [False] * (len(reps) * F.order)
    classes = 0
    for j1, v1 in enumerate(reps):
        for f1 in F.elements():
            if marked[j1 * F.order + f1]:
                continue
            classes += 1
            for j2 in buckets[keys[j1]]:
                w = quotient.solve(tuple(b - a for a, b in zip(v1, reps[j2])))
                c_inv = F.inv[P.lattice_finite_part(w, n)]
                for h in F.elements():
                    f2 = F.mult[F.mult[F.mult[h][f1]][twist_inv[h]]][c_inv]
                    marked[j2 * F.order + f2] = True
    return classes
