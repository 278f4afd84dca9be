"""Exact integer linear algebra.

Determinants by fraction-free (Bareiss) elimination, characteristic
polynomials by Faddeev-LeVerrier over the integers, Smith normal form with
unimodular transforms, exterior powers as compound matrices, and exact
real-root counting by Sturm sequences (the one place that needs rational
arithmetic).  Everything is arbitrary precision; no floating point enters
any of these computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadIndex, EigenvalueOnBoundary, NotSquare


class IntMatrix:
    """Immutable integer matrix.  The 0x0 matrix is allowed (rank-0 lattice)."""

    __slots__ = ("rows", "cols", "entries")

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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   rows=n, cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows=rows, cols=cols)

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
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)],
            rows=self.rows, cols=self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)],
            rows=self.rows, cols=self.cols)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in row] for row in self.entries],
                         rows=self.rows, cols=self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if a:
                    orow = other.entries[k]
                    for j in range(other.cols):
                        out[i][j] += a * orow[j]
        return IntMatrix(out, rows=self.rows, cols=other.cols)

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix([list(col) for col in zip(*self.entries)],
                         rows=self.cols, cols=self.rows)

    def trace(self) -> int:
        if not self.is_square:
            raise NotSquare("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
            rows=len(row_idx), cols=len(col_idx))


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

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

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
    """
    if not A.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = A.rows
    rows = A.entries
    coeffs = [1]  # of x^n, then x^{n-1}, ...
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        cols = list(zip(*M))
        M = [[sum(a * b for a, b in zip(row, col)) for col in cols]
             for row in rows]
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
    """Exact integer inverse of a matrix with determinant +-1."""
    d = det(U)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    n = U.rows
    if n == 0:
        return U
    adj = [[0] * n for _ in range(n)]
    idx = list(range(n))
    for i in range(n):
        for j in range(n):
            minor = U.submatrix([r for r in idx if r != i],
                                [c for c in idx if c != j])
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return IntMatrix([[a * d for a in row] for row in adj], rows=n, cols=n)


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
    out = [[det(A.submatrix(rows, cols)) for cols in subsets]
           for rows in subsets]
    return IntMatrix(out, rows=len(subsets), cols=len(subsets))


def kron(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    out = [[A.entries[i][j] * B.entries[p][q]
            for j in range(A.cols) for q in range(B.cols)]
           for i in range(A.rows) for p in range(B.rows)]
    return IntMatrix(out, rows=A.rows * B.rows, cols=A.cols * B.cols)


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


# -- exact real-root counting -------------------------------------------------

def _poly_deg(p: list[Fraction]) -> int:
    return len(p) - 1


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return [c * e for e, c in enumerate(p)][1:]


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and any(a):
        a = _poly_trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = a[-1] / lead
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_monic(p: list[Fraction]) -> list[Fraction]:
    p = _poly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a)


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_decomposition(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm: returns [(factor, multiplicity)] with factors squarefree."""
    p = _poly_monic(p)
    if _poly_deg(p) < 1:
        return []
    dp = _poly_derivative(p)
    g = _poly_gcd(p, dp)
    if _poly_deg(g) == 0:
        return [(p, 1)]
    w, _ = _poly_divmod(p, g)
    y, _ = _poly_divmod(dp, g)
    out = []
    i = 1
    while _poly_deg(w) > 0:
        z = [a - b for a, b in itertools.zip_longest(
            y, _poly_derivative(w), fillvalue=Fraction(0))]
        z = _poly_trim(z)
        f = _poly_gcd(w, z) if z else _poly_monic(w)
        if _poly_deg(f) > 0:
            out.append((f, i))
        w, _ = _poly_divmod(w, f)
        y, _ = _poly_divmod(z, f) if z else ([], [])
        i += 1
    return out


def sturm_sequence(p: list[Fraction]) -> list[list[Fraction]]:
    seq = [_poly_trim(p), _poly_trim(_poly_derivative(p))]
    while seq[-1] and _poly_deg(seq[-1]) > 0:
        _, r = _poly_divmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return [s for s in seq if s]


def _sign_variations(seq, x: Fraction) -> int:
    signs = []
    for s in seq:
        v = _poly_eval(s, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of squarefree p in (a, b]."""
    seq = sturm_sequence(p)
    return _sign_variations(seq, a) - _sign_variations(seq, b)


def _root_bound(p: list[Fraction]) -> Fraction:
    """Cauchy bound: every real root has |x| < bound."""
    p = _poly_trim(p)
    lead = abs(p[-1])
    return 1 + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))


def count_eigen_signs(A: IntMatrix) -> tuple[int, int]:
    """Exact eigenvalue sign counts for the determinant-sign constants.

    Returns (p, r): p = number of real eigenvalues < -1 and r = number of
    real eigenvalues with |mu| > 1, both with algebraic multiplicity.
    Raises EigenvalueOnBoundary if +1 or -1 is an eigenvalue.
    """
    cp = char_poly(A)
    if cp(1) == 0 or cp(-1) == 0:
        raise EigenvalueOnBoundary("matrix has an eigenvalue equal to +1 or -1")
    poly = [Fraction(c) for c in cp.coefficients]
    bound = _root_bound(poly) + 1
    p_count = 0
    beyond_one = 0
    for factor, mult in squarefree_decomposition(poly):
        p_count += mult * count_real_roots(factor, -bound, Fraction(-1))
        beyond_one += mult * count_real_roots(factor, Fraction(1), bound)
    return p_count, p_count + beyond_one
