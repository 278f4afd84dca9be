"""Reference versions of the root facts of ``intlinalg``, kept as they were
before the Sturm counts were read at +-oo and the integer cell was found by
galloping: every count is taken at the explicit bound B = 2 + max |c_i|,
the integer cell is bisected within [-B, B], and the last stage halves the
cell one bit per step, comparing the sign at its midpoint with that at its
upper end.  Tests compare the package with them on exact outputs and raised
errors.
"""

import math

from twistedzeta.errors import EigenvalueOnBoundary
from twistedzeta.intlinalg import _pseudo_divmod, _value

Poly = tuple[int, ...]


def _sturm_sequence(p: Poly) -> list[Poly]:
    """p, p', then each negated pseudo-remainder as its primitive part, up
    to the last nonzero one, which is gcd(p, p') times a constant.

    Every step multiplies the true Sturm remainder by a positive integer, so
    the sign variations are those of the rational Sturm sequence.
    """
    seq = [p, tuple(e * c for e, c in enumerate(p))[1:]]
    while True:
        _, r = _pseudo_divmod(seq[-2], seq[-1])
        if not r:
            return seq
        content = math.gcd(*r)
        seq.append(tuple(-c // content for c in r))


def _sign_variations(seq: list[Poly], a: int, q: int) -> int:
    """Sign variations of the sequence at the rational point a/q, q > 0."""
    signs = [v > 0 for v in (_value(s, a, q) for s in seq) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def count_eigen_signs(cp: Poly) -> tuple[int, int]:
    """Exact eigenvalue sign counts for the determinant-sign constants of a
    matrix A, read from its characteristic polynomial cp = char_poly(A).

    Returns (p, r): p = number of real eigenvalues < -1 and r = number of
    real eigenvalues with |mu| > 1, both with algebraic multiplicity.
    Raises EigenvalueOnBoundary if +1 or -1 is an eigenvalue.

    The Sturm sequence of g counts the distinct real roots of g between two
    points that are not roots.  Summed over g_0 = cp and
    g_(i+1) = gcd(g_i, g_i'), the last element of the sequence of g_i, a
    root of multiplicity m is counted once in each of g_0..g_(m-1).  Every
    g_i divides g_0, so none vanishes at +-1, and none at +-B with
    B = 2 + max |c_j|, beyond the Cauchy bound of the monic g_0.
    """
    if _value(cp, 1) == 0 or _value(cp, -1) == 0:
        raise EigenvalueOnBoundary("matrix has an eigenvalue equal to +1 or -1")
    bound = 2 + max(map(abs, cp))
    below = beyond = 0
    g = cp
    while len(g) > 1:
        seq = _sturm_sequence(g)
        v = [_sign_variations(seq, x, 1) for x in (-bound, -1, 1, bound)]
        below += v[0] - v[1]
        beyond += v[2] - v[3]
        g = seq[-1]
    return below, below + beyond


def largest_real_root(p: Poly) -> tuple[int, int, int]:
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
    if len(p) < 2 or p[-1] != 1:
        raise ValueError("largest_real_root needs a monic, non-constant p")
    s = p
    seq = _sturm_sequence(p)
    if len(seq[-1]) > 1:  # gcd(p, p'): p has a multiple root
        s, _ = _pseudo_divmod(p, seq[-1])
        seq = _sturm_sequence(s)
    bound = 2 + max(map(abs, p))  # beyond every root
    top = _sign_variations(seq, bound, 1)

    def above(a, e):  # the number of roots in (a/2^e, bound)
        return _sign_variations(seq, a, 1 << e) - top

    if not above(-bound, 0):
        raise ValueError("polynomial has no real root")
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid, 0) else (lo, mid)
    if _value(s, hi) == 0:
        return hi, hi, 0
    e = 0
    while above(lo, e) > 1:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        lo, hi = (lo + 1, hi) if above(lo + 1, e) else (lo, lo + 1)
    sign_above = _value(s, hi, 1 << e) > 0
    while max(-lo, hi) < 1 << 53:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        if (_value(s, lo + 1, 1 << e) > 0) == sign_above:
            hi = lo + 1
        else:
            lo += 1
    return lo, hi, e
