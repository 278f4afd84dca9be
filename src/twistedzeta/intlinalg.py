"""Exact integer linear algebra.

Determinants by fraction-free (Bareiss) elimination, characteristic
polynomials by Faddeev-LeVerrier over the integers, exterior powers as
compound matrices, power traces tr A^n, and the traces tr wedge^i(M^n) as
the coefficients of one characteristic polynomial of M^n by Berkowitz's
division-free recursion, with no minor or compound matrix formed.  The
Smith diagonal comes from Euclid's algorithm on row pairs, transposing
while the pivot's row is not clear (each refill makes the pivot a proper
divisor of itself, so this ends), and one gcd-lcm pass over the pivots:
diag(a, b) and diag(gcd, lcm) are equivalent, and after its pairs each
entry divides every later one.  It forms no transform and takes no
determinant or modulus.  Facts about eigenvalues are read off the
characteristic polynomial by integer pseudo-division: real-root counts and
a bracket of the largest real root by Sturm sequences, and root-of-unity
eigenvalues by cyclotomic divisors.  Sturm counts are taken at finite
points only where the polynomial may have roots on either side; beyond
every root they equal the counts at +-oo, which the leading coefficients
give.  The largest root's last bits come from halving by the sign at the
midpoint.  A polynomial is the tuple of its coefficients, the constant
first.  Everything is arbitrary precision; no floating point enters any of
these computations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator

from .errors import BadIndex, EigenvalueOnBoundary, NotSquare


class IntMatrix:
    """Immutable integer matrix.  The 0x0 matrix is allowed (rank-0 lattice)."""

    __slots__ = ("rows", "cols", "entries", "_sparse")

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
        self._sparse = None

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...], rows: int,
                 cols: int) -> "IntMatrix":
        """A matrix from rows that are already tuples of ints of the right
        shape, for the results the class builds itself: no validation."""
        A = object.__new__(cls)
        A.rows, A.cols, A.entries, A._sparse = rows, cols, entries, None
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

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.entries, other.entries)),
            self.rows, self.cols)

    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of each row, listed on first
        use and kept: the matrix is immutable."""
        if self._sparse is None:
            self._sparse = tuple(
                tuple((j, b) for j, b in enumerate(row) if b)
                for row in self.entries)
        return self._sparse

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Visits the nonzero entries of both factors only, through the
        right factor's ``_sparse_rows``."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = _row_products(self.entries, other._sparse_rows(), other.cols)
        return IntMatrix._trusted(tuple(map(tuple, out)), self.rows,
                                  other.cols)

    def trace(self) -> int:
        if not self.is_square:
            raise NotSquare("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        return IntMatrix._trusted(
            tuple(tuple(self.entries[i][j] for j in col_idx)
                  for i in row_idx),
            len(row_idx), len(col_idx))


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
    return det_rows([list(row) for row in A.entries])


def det_rows(M: list[list[int]]) -> int:
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


def char_poly(A: IntMatrix) -> tuple[int, ...]:
    """The coefficients of det(xI - A), x^0 first, via Faddeev-LeVerrier
    over the integers.

    For an integer matrix every intermediate matrix is integral and each
    coefficient -tr/k divides exactly; a remainder is an arithmetic fault.
    Each M_k is a polynomial in A, so A M_k = M_k A, and the product is
    taken as M_k A, over the nonzero entries of A's rows only.
    """
    if not A.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = A.rows
    nonzero = A._sparse_rows()
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
    return tuple(reversed(coeffs))


def _gcd_rows(top: list[int], row: list[int]) -> tuple[list[int], list[int]]:
    """Euclid's algorithm on the leading entries of two rows: subtract
    (row[0] // top[0]) top from row, swap them while row[0] is not zero.
    Each remainder is smaller than the last, so the loop ends, with top[0]
    a gcd of the two leading entries.  When top[0] divides row[0], top
    comes back unchanged."""
    while True:
        q = row[0] // top[0]
        row = [b - q * a for a, b in zip(top, row)]
        if not row[0]:
            return top, row
        top, row = row, top


def smith_normal_form(A: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal d1 | d2 | ... of A: min(rows, cols) entries, none
    negative, zeros last, with no transform, determinant or modulus formed.

    A nonzero entry is brought to (0, 0) if none is there, and column 0
    cleared by Euclid's algorithm on row pairs; while row 0 is not clear,
    the matrix is transposed (that keeps the diagonal) and column 0 cleared
    again.  This ends, as the top row, and so a cleared column, changes
    only when the pivot becomes a proper divisor of itself.  Then |pivot|
    is recorded and its row and column dropped.  The pivots need not divide
    each other, so one pass sets (d_i, d_j) to (gcd, lcm) over the pairs
    i < j, which keeps the determinantal divisors.  After its pairs d_i
    divides every later entry, and gcds and lcms of its multiples keep
    that; lcm(a, 0) = 0 moves the zeros last."""
    S = [list(row) for row in A.entries]
    d = []
    while S and S[0]:
        if not S[0][0]:
            pivot = next(((i, j) for i, row in enumerate(S)
                          for j, a in enumerate(row) if a), None)
            if pivot is None:
                break
            i, j = pivot
            S[0], S[i] = S[i], S[0]
            for row in S:
                row[0], row[j] = row[j], row[0]
        while True:
            for i in range(1, len(S)):
                if S[i][0]:
                    S[0], S[i] = _gcd_rows(S[0], S[i])
            if not any(S[0][1:]):
                break
            S = [list(col) for col in zip(*S)]
        d.append(abs(S[0][0]))
        S = [row[1:] for row in S[1:]]
    d += [0] * (min(A.rows, A.cols) - len(d))
    for i, j in itertools.combinations(range(len(d)), 2):
        d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return tuple(d)


def unimodular_inverse(U: IntMatrix) -> IntMatrix:
    """Exact integer inverse det(U) adj(U) of a matrix with determinant
    +-1; ValueError for any other determinant.  No route of the package
    calls it; ``perfbench/run.py`` reports it among its per-layer
    functions."""
    d = det(U)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    rest = [[t for t in range(U.rows) if t != i] for i in range(U.rows)]
    # entry (i, j) of adj(U) is the (j, i) cofactor
    return IntMatrix._trusted(tuple(
        tuple((-1) ** (i + j) * d * det(U.submatrix(rest[j], rest[i]))
              for j in range(U.rows)) for i in range(U.rows)),
        U.rows, U.rows)


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
    if n == 0:
        return IntMatrix.identity(A.rows)
    result, base = None, A
    while True:  # bit_length(n) + popcount(n) - 2 products
        if n & 1:
            result = base if result is None else result @ base
        n >>= 1
        if not n:
            return result
        base = base @ base


def row_powers(A: IntMatrix, N: int) -> Iterator[list[list[int]]]:
    """A^n as row lists for n = 1..N: A^n is A^(n-1) A, one product per n
    and no IntMatrix per step.  A must be square.  Each yielded list is
    new, and the next power reads it, so callers must not change it."""
    nonzero = A._sparse_rows()
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
            for power in row_powers(A, N)]


def _berkowitz(rows: list[list[int]]) -> list[int]:
    """The coefficients of det(xI - A), x^k first, for a k x k row list A,
    by Berkowitz's division-free recursion: with B the leading r x r block,
    R and C the rest of row and column r and a = A[r][r], the polynomial of
    the leading (r+1)-block is B's convolved with 1, -a, -R C, -R B C, ...,
    -R B^(r-1) C, cut after x^0.  The row list is not changed."""
    poly = [1]
    for r, row in enumerate(rows):
        column, step = [rows[i][r] for i in range(r)], [1, -row[r]]
        for t in range(r):  # -R B^t C; B^t C from B^(t-1) C
            if t:
                column = [sum(map(operator.mul, rows[i], column))
                          for i in range(r)]
            step.append(-sum(map(operator.mul, row, column)))
        poly = [sum(map(operator.mul, step[i::-1], poly))
                for i in range(r + 2)]
    return poly


def wedge_traces(M: IntMatrix, N: int) -> list[list[int]]:
    """``[[tr wedge^i(M^n) for i = 0..k] for n = 1..N]`` for a k x k M.

    tr wedge^i X is e_i of the eigenvalues of X, (-1)^i times coefficient i
    of det(xI - X), and by Cauchy-Binet wedge^i(M^n) = (wedge^i M)^n, so
    these are also the power traces of every level wedge^i M.  One
    ``_berkowitz`` polynomial of M^n gives every level of n; no minor and
    no level is formed.
    """
    if not M.is_square:
        raise NotSquare("wedge traces of a non-square matrix")
    return [[(-1) ** i * c for i, c in enumerate(_berkowitz(power))]
            for power in row_powers(M, N)]


# -- eigenvalues from the characteristic polynomial --------------------------
#
# A polynomial is the tuple of its coefficients, x^0 first, with no zero
# last entry; the zero polynomial is ().

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
    """(q, r) with |lc(b)|^e a = q b + r and deg r < deg b, for
    e = max(deg a - deg b + 1, 0).

    The factor |lc(b)|^e is positive, so r has the sign pattern of the
    true remainder (what Sturm sequences need); for a monic b it is 1 and
    this is exact division.
    """
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


def count_eigen_signs(cp: tuple[int, ...]) -> tuple[int, int]:
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
    c = cp
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


def largest_real_root(p: tuple[int, ...]) -> tuple[int, int, int]:
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
    above lo.  Then s changes sign at x alone within the bracket, which is
    halved by the sign of s at its midpoint up to the first exponent with
    max(-lo, hi) >= 2^53, about 2^-53 of x.  As the bracket stays within
    [m, m + 1], x <= N exactly when hi <= N 2^e, for every integer N.
    """
    if len(p) < 2 or p[-1] != 1:
        raise ValueError("largest_real_root needs a monic, non-constant p")
    s = p
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
    while max(-lo, hi) < 1 << 53:
        mid, e = 2 * lo + 1, e + 1
        past = (_value(s, mid, 1 << e) > 0) == positive  # x < mid / 2^e
        lo, hi = (2 * lo, mid) if past else (mid, 2 * hi)
    return lo, hi, e


def totient(n: int) -> int:
    """Euler's phi(n), by trial division."""
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    return result - result // rest if rest > 1 else result


@functools.cache
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n: x^n - 1 divided exactly by Phi_d for each proper divisor d."""
    phi_n = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            phi_n = _pseudo_divmod(phi_n, cyclotomic(d))[0]
    return phi_n


@functools.cache
def _cyclotomic_up_to(degree: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(n, Phi_n coefficients) for every n with phi(n) <= degree, n
    increasing; phi(n) >= sqrt(n/2), so such n are at most 2 degree^2."""
    return tuple((n, cyclotomic(n))
                 for n in range(1, 2 * degree * degree + 1)
                 if totient(n) <= degree)


def first_cyclotomic_factor(cp: tuple[int, ...]) -> int | None:
    """The smallest n with Phi_n | cp, or None.

    For cp = char_poly(M) this is the first iterate with det(I - M^n) = 0:
    that determinant vanishes iff some eigenvalue is a root of unity of an
    order d | n, and then its minimal polynomial Phi_d divides cp.  Only
    Phi_d with phi(d) <= deg cp can.
    """
    return next((n for n, phi in _cyclotomic_up_to(len(cp) - 1)
                 if not _pseudo_divmod(cp, phi)[1]), None)
