"""Exact integer linear algebra.

Determinants by fraction-free (Bareiss) elimination, characteristic
polynomials by Faddeev-LeVerrier over the integers, Smith normal form with
unimodular transforms, exterior powers as compound matrices, power traces
tr A^n, and the traces tr wedge^i(M^n) as sums of principal minors of M^n,
with no compound matrix formed.  Facts about eigenvalues are read off the
characteristic polynomial by integer pseudo-division: real-root counts and
a bracket of the largest real root by Sturm sequences, and root-of-unity
eigenvalues by cyclotomic divisors.  Sturm counts are taken at finite
points only where the polynomial may have roots on either side; beyond
every root they equal the counts at +-oo, which the leading coefficients
give.  The largest root's last bits come from integer Newton steps that
only propose a cell, kept when signs confirm it.  Everything is arbitrary
precision; no floating point enters any of these computations.
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
        out = _row_products(self.entries, other._nonzero_rows(), other.cols)
        return IntMatrix._trusted(tuple(map(tuple, out)), self.rows,
                                  other.cols)

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
        return _value(self.coefficients, x, q)

    def pseudo_divmod(self, divisor: "IntPolynomial"):
        """(q, r) with |lc(b)|^e a = q b + r and deg r < deg b, where a is
        self, b the divisor and e = max(deg a - deg b + 1, 0).

        The factor |lc(b)|^e is positive, so r has the sign pattern of the
        true remainder (what Sturm sequences need); for a monic b it is 1
        and this is exact division.
        """
        q, r = _pseudo_divmod(self.coefficients, divisor.coefficients)
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


def _row_products(rows, nonzero, cols: int) -> list[list[int]]:
    """The rows of R A as lists, for R given by its rows and A by the
    nonzero (column, entry) pairs of each of its rows: the one product loop
    of the module, visiting the nonzero entries of both factors only."""
    out = []
    for row in rows:
        acc = [0] * cols
        for a, pairs in zip(row, nonzero):
            if a:
                for j, b in pairs:
                    acc[j] += a * b
        out.append(acc)
    return out


def det(A: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if not A.is_square:
        raise NotSquare("determinant of a non-square matrix")
    return _det([list(row) for row in A.entries])


def _det(M: list[list[int]]) -> int:
    """``det`` of a square matrix given as a list of row lists, which the
    elimination overwrites."""
    n = len(M)
    if n == 0:
        return 1
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
        M = _row_products(M, nonzero, n)
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


def _powers(A: IntMatrix, N: int) -> Iterator[list[list[int]]]:
    """A^n as row lists for n = 1..N: A^n is A^(n-1) A, one product per n
    and no IntMatrix per step.  A must be square."""
    nonzero = A._nonzero_rows()
    power = [list(row) for row in A.entries]
    for n in range(N):
        if n:
            power = _row_products(power, nonzero, A.cols)
        yield power


def power_traces(A: IntMatrix, N: int) -> list[int]:
    """``[tr A^n for n = 1..N]``."""
    if not A.is_square:
        raise NotSquare("power traces of a non-square matrix")
    return [sum(power[i][i] for i in range(A.rows))
            for power in _powers(A, N)]


def wedge_traces(M: IntMatrix, N: int) -> list[list[int]]:
    """``[[tr wedge^i(M^n) for i = 0..k] for n = 1..N]`` for a k x k M.

    The trace of the compound matrix wedge^i X is the sum of the principal
    i-minors of X, and by Cauchy-Binet wedge^i(M^n) = (wedge^i M)^n, so
    these are also the power traces of every level wedge^i M.  Only the
    powers of M are formed; no level is.
    """
    if not M.is_square:
        raise NotSquare("wedge traces of a non-square matrix")
    levels = [list(itertools.combinations(range(M.rows), i))
              for i in range(M.rows + 1)]
    return [[sum(_det([[power[a][b] for b in S] for a in S]) for S in level)
             for level in levels]
            for power in _powers(M, N)]


# -- eigenvalues from the characteristic polynomial --------------------------
#
# The kernel works on coefficient tuples as IntPolynomial stores them:
# ascending, with no zero leading coefficient, the zero polynomial empty.

def _value(c: tuple[int, ...], x: int, q: int = 1) -> int:
    """q^deg c * c(x/q) by Horner's rule: the sign of c(x/q) for q > 0."""
    acc, power = 0, 1
    for a in reversed(c):
        acc = acc * x + a * power
        power *= q
    return acc


def _derivative(c: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(e * a for e, a in enumerate(c))[1:]


def _pseudo_divmod(a: tuple[int, ...], b: tuple[int, ...]
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``IntPolynomial.pseudo_divmod`` on coefficient tuples."""
    if not b:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    scale, sign, d = abs(b[-1]), (1 if b[-1] > 0 else -1), len(b) - 1
    r = list(a)
    q = [0] * max(len(r) - d, 0)
    for i in reversed(range(len(q))):
        c = sign * r.pop()  # the coefficient of x^(i + d) it cancels
        if scale != 1:
            r = [scale * x for x in r]
            q = [scale * x for x in q]
        q[i] += c
        for j in range(d):
            r[i + j] -= c * b[j]
    while q and not q[-1]:
        q.pop()
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def _sturm_sequence(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """p, p', then each negated pseudo-remainder as its primitive part, up
    to the last nonzero one, which is gcd(p, p') times a constant.  A
    constant member is the last: it leaves no remainder.

    Every step multiplies the true Sturm remainder by a positive integer, so
    the sign variations are those of the rational Sturm sequence.
    """
    seq = [p, _derivative(p)]
    while len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        content = math.gcd(*r)
        seq.append(tuple(-c // content for c in r))
    return seq


def _variations(values: list[int]) -> int:
    """Sign changes along the nonzero values."""
    count, last = 0, 0
    for v in values:
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _sign_variations(seq: list[tuple[int, ...]], a: int, q: int = 1) -> int:
    """Sign variations of the sequence at the rational point a/q, q > 0."""
    return _variations([_value(s, a, q) for s in seq])


def _variations_at_infinity(seq: list[tuple[int, ...]], negative: bool
                            ) -> int:
    """Sign variations of the sequence at -oo (negative) or +oo: each
    member has the sign of its leading term there, times (-1)^deg at -oo."""
    return _variations([-s[-1] if negative and len(s) % 2 == 0 else s[-1]
                        for s in seq])


def count_eigen_signs(cp: IntPolynomial) -> tuple[int, int]:
    """Exact eigenvalue sign counts for the determinant-sign constants of a
    matrix A, read from its characteristic polynomial cp = char_poly(A).

    Returns (p, r): p = number of real eigenvalues < -1 and r = number of
    real eigenvalues with |mu| > 1, both with algebraic multiplicity.
    Raises EigenvalueOnBoundary if +1 or -1 is an eigenvalue.

    The Sturm sequence of g counts the distinct real roots of g between two
    points that are not roots.  Summed over g_0 = cp and
    g_(i+1) = gcd(g_i, g_i'), the last element of the sequence of g_i, a
    root of multiplicity m is counted once in each of g_0..g_(m-1).  Every
    g_i divides g_0, so none vanishes at +-1.  The count of a Sturm
    sequence changes only at a root of g, so beyond every root it is its
    count at +-oo, read from the leading coefficients: each g_i costs two
    evaluations, at -1 and 1.
    """
    c = cp.coefficients
    if _value(c, 1) == 0 or _value(c, -1) == 0:
        raise EigenvalueOnBoundary("matrix has an eigenvalue equal to +1 or -1")
    below = beyond = 0
    while len(c) > 1:
        seq = _sturm_sequence(c)
        below += (_variations_at_infinity(seq, True)
                  - _sign_variations(seq, -1))
        beyond += (_sign_variations(seq, 1)
                   - _variations_at_infinity(seq, False))
        c = seq[-1]
    return below, below + beyond


def largest_real_root(p: IntPolynomial) -> tuple[int, int, int]:
    """Exact dyadic bracket (lo, hi, e), lo/2^e <= x <= hi/2^e, of the
    largest real root x of a monic p; ValueError if p has no real root.

    Sturm counts on the squarefree part s = p / gcd(p, p') (at a multiple
    root every member of the sequence of p vanishes) decide every step but
    the last.  The count beyond every root is the count at +oo, read from
    the leading coefficients, and p has no real root when it equals the
    count at -oo.  Counts at 0, +-1, +-2, +-4, ... gallop out to the integer
    m with x in (m, m + 1], then halve to it; lo = hi when x = m + 1.
    Otherwise x is not rational, as a rational root of a monic p is an
    integer: (m, m + 1) is halved by Sturm counts until x is the only root
    above lo.  Then s changes sign at x alone within the bracket, and
    Newton steps from its midpoint propose a narrower cell at a finer
    exponent, kept only when it lies in the bracket and the signs of s at
    its two ends confirm it; any other step halves the bracket by the sign
    at the midpoint.  This stops at the first exponent with
    max(-lo, hi) >= 2^53, about 2^-53 of x, and no step passes that
    exponent, so the cell is the one halving alone would reach.  As the
    bracket stays within [m, m + 1], x <= N exactly when hi <= N 2^e, for
    every integer N.
    """
    if p.degree < 1 or p.coefficients[-1] != 1:
        raise ValueError("largest_real_root needs a monic, non-constant p")
    s = p.coefficients
    seq = _sturm_sequence(s)
    if len(seq[-1]) > 1:  # gcd(p, p'): p has a multiple root
        s = _pseudo_divmod(s, seq[-1])[0]
        seq = _sturm_sequence(s)
    top = _variations_at_infinity(seq, False)

    def above(a, e=0):  # the number of roots in (a/2^e, +oo)
        return _sign_variations(seq, a, 1 << e) - top

    if _variations_at_infinity(seq, True) == top:
        raise ValueError("polynomial has no real root")
    if above(0):
        lo, hi = 0, 1
        while above(hi):
            lo, hi = hi, 2 * hi
    else:
        lo, hi = -1, 0
        while not above(lo):
            lo, hi = 2 * lo, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    if _value(s, hi) == 0:
        return hi, hi, 0
    e = 0
    while above(lo, e) > 1:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        lo, hi = (lo + 1, hi) if above(lo + 1, e) else (lo, lo + 1)
    # Within the bracket x is the one root of s, simple and irrational: s
    # has the sign of its leading coefficient right of x, the other sign
    # left of it, and no zero at a dyadic point strictly inside.
    positive = s[-1] > 0
    ds = seq[1]  # s', the second member of its Sturm sequence
    while max(-lo, hi) < 1 << 53:
        mid, f = 2 * lo + 1, e + 1  # the midpoint m = mid / 2^f
        v = _value(s, mid, 1 << f)
        # From m, Newton's error is about the square of the cell width, so
        # a cell at exponent 2e is usually confirmed.  A jump of k halvings
        # skips only exponents where max(-lo, hi) < 2^53 whatever the cell.
        k = min(e, 54 - max(hi, -lo).bit_length())
        if k > 1:
            d = _value(ds, mid, 1 << f)
            if d:
                # floor(y 2^(e + k)) for the Newton point y = m - s(m)/s'(m)
                a = ((mid * d - v) << (k - 1)) // d
                low, high, g = lo << k, hi << k, e + k
                if (low <= a < high
                        and (a == low
                             or (_value(s, a, 1 << g) > 0) != positive)
                        and (a + 1 == high
                             or (_value(s, a + 1, 1 << g) > 0) == positive)):
                    lo, hi, e = a, a + 1, g
                    continue
        if (v > 0) == positive:
            lo, hi, e = 2 * lo, mid, f
        else:
            lo, hi, e = mid, 2 * hi, f
    return lo, hi, e


# Phi_n for every n some call has needed, Euler's phi(n) for every n
# scanned so far (index n), and for each degree d that
# ``first_cyclotomic_factor`` met, the (n, Phi_n coefficients) with
# phi(n) <= d.  All hold exact constants, so one table per process serves
# every caller, and none grows past the 2 max_degree^2 of the largest
# degree asked for.
_CYCLOTOMIC: dict[int, IntPolynomial] = {}
_TOTIENTS = [0]
_CYCLOTOMIC_UP_TO: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}


def _totient(n: int) -> int:
    """Euler's phi(n), by trial division."""
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    return result - result // rest if rest > 1 else result


def cyclotomic_polynomials(
        max_degree: int) -> Iterator[tuple[int, IntPolynomial]]:
    """(n, Phi_n) for every n with phi(n) <= max_degree, n increasing.

    phi(n) >= sqrt(n/2), so such n are at most 2 max_degree^2.  Phi_n is
    x^n - 1 divided exactly by the Phi_d of the proper divisors d of n,
    each of which has phi(d) <= phi(n) and so was yielded first.  A Phi_n
    is built once per process and kept in a module table; whatever degrees
    earlier calls asked for, a call yields the same pairs.
    """
    for n in range(1, 2 * max_degree * max_degree + 1):
        while len(_TOTIENTS) <= n:
            _TOTIENTS.append(_totient(len(_TOTIENTS)))
        if _TOTIENTS[n] > max_degree:
            continue
        phi_n = _CYCLOTOMIC.get(n)
        if phi_n is None:
            phi_n = IntPolynomial([-1] + [0] * (n - 1) + [1])
            for d, phi in _CYCLOTOMIC.items():
                if n % d == 0:
                    phi_n, _ = phi_n.pseudo_divmod(phi)
            _CYCLOTOMIC[n] = phi_n
        yield n, phi_n


def first_cyclotomic_factor(cp: IntPolynomial) -> int | None:
    """The smallest n with Phi_n | cp, or None.

    For cp = char_poly(M) this is the first iterate with det(I - M^n) = 0:
    that determinant vanishes iff some eigenvalue is a root of unity of an
    order d | n, and then its minimal polynomial Phi_d divides cp.  Only
    Phi_d with phi(d) <= deg cp can.
    """
    table = _CYCLOTOMIC_UP_TO.get(cp.degree)
    if table is None:
        table = _CYCLOTOMIC_UP_TO[cp.degree] = tuple(
            (n, phi.coefficients)
            for n, phi in cyclotomic_polynomials(cp.degree))
    c = cp.coefficients
    return next((n for n, phi in table if not _pseudo_divmod(c, phi)[1]),
                None)
