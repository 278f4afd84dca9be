"""Exact integer linear algebra.

Determinants by fraction-free (Bareiss) elimination, characteristic
polynomials by Faddeev-LeVerrier over the integers, Smith normal form with
unimodular transforms, exterior powers as compound matrices, and facts
about eigenvalues read off the characteristic polynomial by integer
pseudo-division: real-root counts and a bracket of the largest real root by
Sturm sequences, and root-of-unity eigenvalues by cyclotomic divisors.
Everything is arbitrary precision; no floating point enters any of these
computations.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import BadIndex, EigenvalueOnBoundary, NotSquare


class IntMatrix:
    """Immutable integer matrix.  The 0x0 matrix is allowed (rank-0 lattice)."""

    __slots__ = ("rows", "cols", "entries", "_nonzero")

    def __init__(self, entries, rows=None, cols=None):
        entries = [list(map(int, row)) for row in entries]
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("ragged entries")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(row) for row in entries)
        self._nonzero = None

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...], rows: int,
                 cols: int) -> "IntMatrix":
        """A matrix from rows that are already tuples of ints of the right
        shape, for the results the class builds itself: no validation."""
        A = object.__new__(cls)
        A.rows, A.cols, A.entries, A._nonzero = rows, cols, entries, None
        return A

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(
            tuple(tuple(1 if i == j else 0 for j in range(n))
                  for i in range(n)), n, n)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(a + b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.entries, other.entries)),
            self.rows, self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.entries, other.entries)),
            self.rows, self.cols)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        c = int(c)
        return IntMatrix._trusted(
            tuple(tuple(c * a for a in row) for row in self.entries),
            self.rows, self.cols)

    def _nonzero_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of each row, listed on first
        use and kept: the matrix is immutable."""
        if self._nonzero is None:
            self._nonzero = tuple(
                tuple((j, b) for j, b in enumerate(row) if b)
                for row in self.entries)
        return self._nonzero

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Visits the nonzero entries of both factors only, through the
        right factor's ``_nonzero_rows``."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols, nonzero = other.cols, other._nonzero_rows()
        out = []
        for row in self.entries:
            acc = [0] * cols
            for a, pairs in zip(row, nonzero):
                if a:
                    for j, b in pairs:
                        acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out), self.rows, cols)

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(entries, self.cols, self.rows)

    def trace(self) -> int:
        if not self.is_square:
            raise NotSquare("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        return IntMatrix._trusted(
            tuple(tuple(self.entries[i][j] for j in col_idx)
                  for i in row_idx),
            len(row_idx), len(col_idx))


class IntPolynomial:
    """Integer polynomial with ascending coefficients; zero poly is empty."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(self.coefficients)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [0] * max(0, len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    def __call__(self, x, q=1):
        """p(x); with q, q^deg p * p(x/q), which for q > 0 has the sign of
        p(x/q) and is an integer for an integer x."""
        acc, power = 0, 1
        for c in reversed(self.coefficients):
            acc = acc * x + c * power
            power *= q
        return acc

    def pseudo_divmod(self, divisor: "IntPolynomial"):
        """(q, r) with |lc(b)|^e a = q b + r and deg r < deg b, where a is
        self, b the divisor and e = max(deg a - deg b + 1, 0).

        The factor |lc(b)|^e is positive, so r has the sign pattern of the
        true remainder (what Sturm sequences need); for a monic b it is 1
        and this is exact division.
        """
        b = divisor.coefficients
        if not b:
            raise ZeroDivisionError("pseudo-division by the zero polynomial")
        scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        r = list(self.coefficients)
        q = [0] * max(len(r) - len(b) + 1, 0)
        for i in reversed(range(len(q))):
            c = sign * r[i + len(b) - 1]
            if scale != 1:
                r = [scale * x for x in r]
                q = [scale * x for x in q]
            q[i] += c
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
        return IntPolynomial(q), IntPolynomial(r)

    def __repr__(self):
        return f"IntPolynomial({list(self.coefficients)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                term = "z" if e == 1 else f"z^{e}"
                if c == 1:
                    parts.append(term)
                elif c == -1:
                    parts.append(f"-{term}")
                else:
                    parts.append(f"{c}*{term}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out


def det(A: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if not A.is_square:
        raise NotSquare("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [list(row) for row in A.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def char_poly(A: IntMatrix) -> IntPolynomial:
    """det(xI - A) via Faddeev-LeVerrier over the integers.

    For an integer matrix every intermediate matrix is integral and each
    coefficient -tr/k divides exactly; a remainder is an arithmetic fault.
    Each M_k is a polynomial in A, so A M_k = M_k A, and the product is
    taken as M_k A, over the nonzero entries of A's rows only.
    """
    if not A.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = A.rows
    nonzero = A._nonzero_rows()
    coeffs = [1]  # of x^n, then x^{n-1}, ...
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        product = []
        for row in M:
            acc = [0] * n
            for m, pairs in zip(row, nonzero):
                if m:
                    for j, a in pairs:
                        acc[j] += m * a
            product.append(acc)
        M = product
        c, rem = divmod(-sum(M[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"trace not divisible by {k} in char_poly")
        coeffs.append(c)
    return IntPolynomial(reversed(coeffs))


@dataclass(frozen=True)
class SmithForm:
    """left @ A @ right is diagonal with d1 | d2 | ... (zeros last)."""

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


def smith_normal_form(A: IntMatrix) -> SmithForm:
    m, n = A.rows, A.cols
    S = [list(row) for row in A.entries]
    L = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(n):
            S[i][t] -= q * S[j][t]
        for t in range(m):
            L[i][t] -= q * L[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(m):
            S[t][i] -= q * S[t][j]
        for t in range(n):
            R[t][i] -= q * R[t][j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for t in range(m):
            S[t][i], S[t][j] = S[t][j], S[t][i]
        for t in range(n):
            R[t][i], R[t][j] = R[t][j], R[t][i]

    def negate_row(i):
        for t in range(n):
            S[i][t] = -S[i][t]
        for t in range(m):
            L[i][t] = -L[i][t]

    t = 0
    while t < min(m, n):
        # find a pivot in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0:
                    if pivot is None or abs(S[i][j]) < abs(S[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the rest of the block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row to row t, restart

        if S[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = tuple(S[i][i] for i in range(min(m, n)))
    return SmithForm(diagonal, IntMatrix(L, rows=m, cols=m),
                     IntMatrix(R, rows=n, cols=n))


def unimodular_inverse(U: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1.

    Its Smith form is L U R = I, so the inverse is R L.  No route of the
    package calls it; the tests invert Smith transforms with it, and
    ``perfbench/run.py`` reports it among its per-layer functions.
    """
    snf = smith_normal_form(U)
    if any(d != 1 for d in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return snf.right @ snf.left


def exterior_power(A: IntMatrix, i: int) -> IntMatrix:
    """i-th compound matrix: minors indexed by sorted subsets in lex order."""
    if not A.is_square:
        raise NotSquare("exterior power of a non-square matrix")
    k = A.rows
    if i < 0 or i > k:
        raise BadIndex(f"exterior power index {i} out of range 0..{k}")
    if i == 0:
        return IntMatrix.identity(1)
    subsets = list(itertools.combinations(range(k), i))
    out = tuple(tuple(det(A.submatrix(rows, cols)) for cols in subsets)
                for rows in subsets)
    return IntMatrix._trusted(out, len(subsets), len(subsets))


def kron(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    out = tuple(tuple(a * b for a in arow for b in brow)
                for arow in A.entries for brow in B.entries)
    return IntMatrix._trusted(out, A.rows * B.rows, A.cols * B.cols)


def mat_pow(A: IntMatrix, n: int) -> IntMatrix:
    if not A.is_square:
        raise NotSquare("power of a non-square matrix")
    if n < 0:
        raise ValueError("negative power")
    result = IntMatrix.identity(A.rows)
    base = A
    while n:
        if n & 1:
            result = result @ base
        base = base @ base if n > 1 else base
        n >>= 1
    return result


# -- eigenvalues from the characteristic polynomial --------------------------

def _sturm_sequence(p: IntPolynomial) -> list[IntPolynomial]:
    """p, p', then each negated pseudo-remainder as its primitive part, up
    to the last nonzero one, which is gcd(p, p') times a constant.

    Every step multiplies the true Sturm remainder by a positive integer, so
    the sign variations are those of the rational Sturm sequence.
    """
    seq = [p, IntPolynomial([e * c for e, c in enumerate(p.coefficients)][1:])]
    while True:
        _, r = seq[-2].pseudo_divmod(seq[-1])
        if r.is_zero():
            return seq
        content = math.gcd(*r.coefficients)
        seq.append(IntPolynomial([-c // content for c in r.coefficients]))


def _sign_variations(seq: list[IntPolynomial], a: int, q: int) -> int:
    """Sign variations of the sequence at the rational point a/q, q > 0."""
    signs = [v > 0 for v in (s(a, q) for s in seq) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def count_eigen_signs(A: IntMatrix) -> tuple[int, int]:
    """Exact eigenvalue sign counts for the determinant-sign constants.

    Returns (p, r): p = number of real eigenvalues < -1 and r = number of
    real eigenvalues with |mu| > 1, both with algebraic multiplicity.
    Raises EigenvalueOnBoundary if +1 or -1 is an eigenvalue.

    The Sturm sequence of g counts the distinct real roots of g between two
    points that are not roots.  Summed over g_0 = char_poly(A) and
    g_(i+1) = gcd(g_i, g_i'), the last element of the sequence of g_i, a
    root of multiplicity m is counted once in each of g_0..g_(m-1).  Every
    g_i divides g_0, so none vanishes at +-1, and none at +-B with
    B = 2 + max |c_j|, beyond the Cauchy bound of the monic g_0.
    """
    cp = char_poly(A)
    if cp(1) == 0 or cp(-1) == 0:
        raise EigenvalueOnBoundary("matrix has an eigenvalue equal to +1 or -1")
    bound = 2 + max(map(abs, cp.coefficients))
    below = beyond = 0
    g = cp
    while g.degree > 0:
        seq = _sturm_sequence(g)
        v = [_sign_variations(seq, x, 1) for x in (-bound, -1, 1, bound)]
        below += v[0] - v[1]
        beyond += v[2] - v[3]
        g = seq[-1]
    return below, below + beyond


def largest_real_root(p: IntPolynomial) -> tuple[int, int, int]:
    """Exact dyadic bracket (lo, hi, e), lo/2^e <= x <= hi/2^e, of the
    largest real root x of a monic p; ValueError if p has no real root.

    Sturm counts on the squarefree part s = p / gcd(p, p') (at a multiple
    root every member of the sequence of p vanishes) find the integer m
    with x in (m, m + 1], and lo = hi when x = m + 1.  Otherwise x is not
    rational, as a rational root of a monic p is an integer: (m, m + 1) is
    halved by Sturm counts until x is the only root above lo, then by the
    sign of s, to about 2^-53 of x.  As the bracket stays within [m, m + 1],
    x <= N exactly when hi <= N 2^e, for every integer N.
    """
    if p.degree < 1 or p.coefficients[-1] != 1:
        raise ValueError("largest_real_root needs a monic, non-constant p")
    s = p
    seq = _sturm_sequence(p)
    if seq[-1].degree > 0:  # gcd(p, p'): p has a multiple root
        s, _ = p.pseudo_divmod(seq[-1])
        seq = _sturm_sequence(s)
    bound = 2 + max(map(abs, p.coefficients))  # beyond every root
    top = _sign_variations(seq, bound, 1)

    def above(a, e):  # the number of roots in (a/2^e, bound)
        return _sign_variations(seq, a, 1 << e) - top

    if not above(-bound, 0):
        raise ValueError("polynomial has no real root")
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid, 0) else (lo, mid)
    if s(hi) == 0:
        return hi, hi, 0
    e = 0
    while above(lo, e) > 1:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        lo, hi = (lo + 1, hi) if above(lo + 1, e) else (lo, lo + 1)
    sign_above = s(hi, 1 << e) > 0
    while max(-lo, hi) < 1 << 53:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        if (s(lo + 1, 1 << e) > 0) == sign_above:
            hi = lo + 1
        else:
            lo += 1
    return lo, hi, e


def cyclotomic_polynomials(
        max_degree: int) -> Iterator[tuple[int, IntPolynomial]]:
    """(n, Phi_n) for every n with phi(n) <= max_degree, n increasing.

    phi(n) >= sqrt(n/2), so such n are at most 2 max_degree^2.  Phi_n is
    x^n - 1 divided exactly by the Phi_d of the proper divisors d of n, and
    its degree, n minus theirs, is known before it is built: a divisor with
    phi(d) > max_degree was never built, which leaves that difference above
    max_degree, as phi(n) >= phi(d) requires.
    """
    built: dict[int, IntPolynomial] = {}
    for n in range(1, 2 * max_degree * max_degree + 1):
        divisors = [phi for d, phi in built.items() if n % d == 0]
        if n - sum(phi.degree for phi in divisors) > max_degree:
            continue
        phi_n = IntPolynomial([-1] + [0] * (n - 1) + [1])
        for phi in divisors:
            phi_n, _ = phi_n.pseudo_divmod(phi)
        built[n] = phi_n
        yield n, phi_n


def first_cyclotomic_factor(cp: IntPolynomial) -> int | None:
    """The smallest n with Phi_n | cp, or None.

    For cp = char_poly(M) this is the first iterate with det(I - M^n) = 0:
    that determinant vanishes iff some eigenvalue is a root of unity of an
    order d | n, and then its minimal polynomial Phi_d divides cp.  Only
    Phi_d with phi(d) <= deg cp can.
    """
    return next((n for n, phi in cyclotomic_polynomials(cp.degree)
                 if cp.pseudo_divmod(phi)[1].is_zero()), None)
