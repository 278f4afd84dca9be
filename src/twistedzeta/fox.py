"""Fox calculus on free groups and Nielsen-zeta radius-of-convergence bounds.

A word is a ``bytes`` object in the letters of the documents: ``a``..``z``
are the generators a_1..a_26 and ``A``..``Z`` their inverses, so
``b"abA"`` is a b a^-1, and a letter and its inverse differ in the bit 32.
Words are always freely reduced.  Group-ring elements are sparse integer
combinations of words; the norm of an element is the sum of the absolute
coefficients and matrix norms are total entry norms.

Products hold the right factor and the result as prefix chains, one list
of chains per matrix row: a chain is a base word X with a map {key: c},
key = l r + j for a row of r columns, and stands for sum c X[:l] in
column j.  A word u times a chain cancels at one junction, found once per
(u, X) pair by one XOR, and every term of the chain, whatever its column,
then moves by one integer shift (``_add_product``), so a term costs an
integer, not a new word.  Canonical form files every term once, at the
last base it is a prefix of (``_canonical``).  A chain also carries what
the products learn about it: bounds lo <= l <= hi on its prefix lengths,
hi attained.  Every branch of a product compares prefix lengths with a
whole length (the junction K, a filing threshold g + 1), so the bounds
decide it exactly, and they move by the same shift or reflection as the
keys.  A product step scans a chain for its ends only where a cancelled
coefficient or a loose lower bound may have left hi unattained.  Element
products, matrix products and the twisted power oracle run that one
kernel through ``_chain_matmul``; element products are rows of r = 1
column.

The chain data of a bouquet of r circles is the pair of ring matrices
(1) and D = (d b_i / d a_j); the two radius bounds are the reciprocals of
the max matrix norm and of the max spectral radius of the entrywise norms.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import NotSquare
from .intlinalg import IntMatrix, char_poly, largest_real_root

Word = bytes

_GENERATORS = b"abcdefghijklmnopqrstuvwxyz"
_INVERSES = _GENERATORS.upper()
# A word is freely reduced iff no letter stands next to its inverse.
_CANCELLING_PAIR = re.compile(b"|".join(
    bytes(pair) for g, G in zip(_GENERATORS, _INVERSES)
    for pair in ((g, G), (G, g))))


def _outside_rank(w: Word, rank: int) -> bool:
    """Whether w has a byte other than the letters of a_1..a_rank and of
    their inverses."""
    return bool(w.translate(None, _GENERATORS[:rank] + _INVERSES[:rank]))


def free_reduce(letters) -> Word:
    """Canonical freely reduced form of a sequence of letter bytes."""
    letters = bytes(letters)
    if _outside_rank(letters, len(_GENERATORS)):
        raise ValueError("a word has only the letters a-z and A-Z")
    # A 0 below the bottom of the stack, which no letter cancels; top is
    # the last letter on the stack.
    stack, top = [0], 0
    for s in letters:
        if top ^ s == 32:
            stack.pop()
            top = stack[-1]
        else:
            stack.append(s)
            top = s
    return bytes(stack[1:])


def word_inverse(w: Word) -> Word:
    return w[::-1].swapcase()


def _join(u: Word, v: Word) -> Word:
    """Reduced form of u v for freely reduced u and v: the one-pair form of
    ``_add_product``, whose docstring gives the cancellation rule."""
    if not u or not v or u[-1] ^ v[0] != 32:
        return u + v
    x = int.from_bytes(u.swapcase(), "big") ^ int.from_bytes(v, "little")
    c = ((x & -x).bit_length() - 1) >> 3 if x else len(u)
    return u[:len(u) - c] + v[c:]


def parse_word(text: str, rank: int | None = None) -> Word:
    for ch in text:
        if not ("a" <= ch <= "z" or "A" <= ch <= "Z"):
            raise ValueError(f"invalid word character: {ch!r}")
    letters = text.encode("ascii")
    if rank is not None and _outside_rank(letters, rank):
        raise ValueError(f"word {text!r} uses a generator beyond rank {rank}")
    return free_reduce(letters)


def word_to_str(w: Word) -> str:
    return w.decode("ascii") if w else "1"


class GroupRingElement:
    """Sparse element of the integral group ring of a free group.

    ``terms`` maps freely reduced words in ``a-zA-Z`` to nonzero ints.  The
    constructor checks both and drops zero coefficients; the products, sums
    and images of this module, whose words are reduced by construction,
    build their results by ``_trusted``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        for w, c in terms.items():
            if not isinstance(w, bytes):
                raise TypeError(f"a group-ring word is bytes, not {w!r}")
            if (_outside_rank(w, len(_GENERATORS))
                    or _CANCELLING_PAIR.search(w)):
                raise ValueError(
                    f"{w!r} is not a freely reduced word in a-z and A-Z")
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(
                    f"a group-ring coefficient is an int, not {c!r}")
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def _trusted(cls, terms: dict[Word, int]) -> "GroupRingElement":
        """The element of a word -> int dict built by this module, taken as
        it is once its zero coefficients are deleted."""
        for w in [w for w, c in terms.items() if not c]:
            del terms[w]
        x = object.__new__(cls)
        x.terms = terms
        return x

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({b"": 1})

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "GroupRingElement":
        return cls({w: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement._trusted(out)

    def __neg__(self):
        return GroupRingElement._trusted(
            {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        [chains] = _chain_matmul([[self.terms.items()]],
                                 (1, [_chains([other.terms])]))
        [terms] = _words(chains, 1)
        return GroupRingElement._trusted(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items()):
            word = word_to_str(w)
            if c == 1:
                parts.append(word)
            elif c == -1:
                parts.append(f"-{word}")
            else:
                parts.append(f"{c}*{word}")
        return " + ".join(parts).replace("+ -", "- ")


def _chains(row: list[dict[Word, int]]) -> list[tuple]:
    """The canonical chains of a matrix row, given as the word -> coefficient
    dicts of its r entries: word w of entry j is the key |w| r + j."""
    r, acc, overlaps = len(row), {}, set()
    for j, terms in enumerate(row):
        for w, c in terms.items():
            _merge(acc, w, {len(w) * r + j: c}, len(w), len(w), overlaps)
    return _canonical(acc, r, overlaps)


def _words(chains: list[tuple], r: int) -> list[dict[Word, int]]:
    """The word -> coefficient dicts of the r entries of a row of canonical
    chains."""
    row = [{} for _ in range(r)]
    for X, keys, _, _ in chains:
        for key, c in keys.items():
            l, j = divmod(key, r)
            row[j][X[:l]] = c
    return row


def _canonical(acc: dict[Word, list], r: int, overlaps: set) -> list[tuple]:
    """The canonical chains of an accumulator: acc maps a base X to its
    entry [{l r + j: coefficient}, lo, hi], lo <= l <= hi for every key and
    hi attained, and overlaps names the bases whose entries an overlapping
    ``_merge`` may have left with a zero coefficient.  Each term is filed
    under the last base, in sorted order, that its word X[:l] is a prefix
    of, and no coefficient is 0: a word has one term per column, so the
    norm is the sum of the absolute coefficients.  A canonical chain is the
    tuple (X, keys, lo, hi).

    The bases that start with a word are adjacent once sorted, so a term
    would move base by base: from X to the next base Y while l is at most
    the common prefix length g of X and Y (the empty word too, at g = 0),
    that is while l < g + 1.  Bases are reduced words, so no letter is
    byte 0 and the lowest set bit of X ^ Y, read little-endian, lies in
    byte g, also when X is a prefix of Y.  The term stops at the first base
    from X on whose threshold g + 1, 0 for the last base, is at most its l.
    Walking the bases backwards, a stack keeps the bases that can be that
    first stop: the current base, then each next base of lower threshold,
    so the thresholds increase up the stack and a stop is one bisection.
    Every threshold is a whole prefix length, so the bounds decide exactly:
    all terms of an entry stop at the stop of hi when lo reaches its
    threshold, and the entry is handed over whole with its bounds.
    Otherwise its keys are sorted once and the terms that stop are peeled
    off the top by bisection, so a split costs the terms it moves, and
    each piece reads its bounds from its end keys.
    """
    for X in overlaps:
        entry = _nonzero(acc[X][0], r)
        if entry:
            acc[X] = entry
        else:
            del acc[X]
    bases = sorted(acc)
    filed: dict[Word, list] = {}
    overlaps = set()
    thresholds, stops = [], []
    t, next_base = 0, None
    for X in reversed(bases):
        V = int.from_bytes(X, "little")
        if next_base is not None:
            x = V ^ next_base
            t = (((x & -x).bit_length() - 1) >> 3) + 1
        next_base = V
        while thresholds and thresholds[-1] >= t:
            thresholds.pop()
            stops.pop()
        thresholds.append(t)
        stops.append(X)
        terms, lo, hi = acc[X]
        p = len(stops) - 1 if hi >= t else bisect_right(thresholds, hi) - 1
        if lo >= thresholds[p]:
            _merge(filed, stops[p], terms, lo, hi, overlaps)
            continue
        keys = sorted(terms)
        top = len(keys)
        while top:
            hi = keys[top - 1] // r
            p = bisect_right(thresholds, hi, 0, p + 1) - 1
            bottom = bisect_left(keys, thresholds[p] * r, 0, top)
            _merge(filed, stops[p],
                   {key: terms[key] for key in keys[bottom:top]},
                   keys[bottom] // r, hi, overlaps)
            top = bottom
    out = []
    for X in bases:
        entry = filed.get(X)
        if entry and X in overlaps:
            entry = _nonzero(entry[0], r)
        if entry:
            out.append((X, *entry))
    return out


def _nonzero(keys: dict[int, int], r: int) -> list | None:
    """The entry [keys, lo, hi] of the nonzero terms of a chain, with exact
    bounds, or None when every coefficient is 0."""
    keys = {key: c for key, c in keys.items() if c}
    if keys:
        return [keys, min(keys) // r, max(keys) // r]
    return None


def _merge(acc: dict[Word, list], base: Word, terms: dict[int, int],
           lo: int, hi: int, overlaps: set):
    """Add the terms, a key -> coefficient dict that acc may keep, with
    bounds lo <= l <= hi and hi attained, to the entry of base in acc: the
    smaller dict goes into the larger and the bounds widen to both.  A
    merge that meets a key twice may leave a zero, and so a bound that is
    not attained: its base goes into overlaps."""
    entry = acc.get(base)
    if entry is None:
        acc[base] = [terms, lo, hi]
        return
    chain = entry[0]
    if len(terms) > len(chain):
        entry[0], chain, terms = terms, terms, chain
    if chain.keys().isdisjoint(terms):
        chain.update(terms)
    else:
        overlaps.add(base)
        for key, c in terms.items():
            chain[key] = chain.get(key, 0) + c
    if lo < entry[1]:
        entry[1] = lo
    if hi > entry[2]:
        entry[2] = hi


def _chain_matmul(left, right) -> list[list[tuple]]:
    """The canonical chains of each row of L R, for L given by its rows of
    entries, each an iterable of (word, coefficient) pairs in which a word
    may repeat, and R as the pair (r, its rows of canonical chains), r its
    number of columns.  Each operand is prepared once for
    ``_add_product``: a left word u as (u, coefficient, the inverse of its
    last letter or -1, u^-1 as a little-endian integer, |u|), a right chain
    as its canonical tuple, the first letter of X or 0, and X as a
    little-endian integer.  -1 and 0 match no letter.  The integers live
    for one product: carried in the chains, they would hold a second copy
    of every base's letters for as long as the chains live, the last
    product's included."""
    r, rows = right
    rows = [[(X, keys, lo, hi, X[0] if X else 0, int.from_bytes(X, "little"))
             for X, keys, lo, hi in y] for y in rows]
    out = []
    for row in left:
        acc: dict[Word, list] = {}
        overlaps: set[Word] = set()
        for x, y in zip(row, rows):
            x = [(u, c, u[-1] ^ 32 if u else -1,
                  int.from_bytes(u.swapcase(), "big"), len(u))
                 for u, c in x]
            _add_product(acc, x, y, r, overlaps)
        out.append(_canonical(acc, r, overlaps))
    return out


def _add_product(acc: dict, left: list[tuple], right: list[tuple], r: int,
                 overlaps: set):
    """Add the chains of x * y into the accumulator acc of ``_canonical``,
    for the words of x and the chains of a row y of r columns prepared by
    ``_chain_matmul``.

    The reduced form of u X is u X unless the first letter of X is the
    inverse of the last letter of u.  Otherwise the integers T of u^-1 and
    V of X, both read from the junction outwards, agree in exactly the K
    bytes that cancel: no letter is byte 0, so the shorter word, once
    cancelled, differs from the longer there.  The lowest set bit of T ^ V
    lies in byte K, and T = V means u X = 1.  Then u X[:l] is the prefix of
    length l + |u| - 2K of u[:|u|-K] X[K:] for l >= K, and the prefix of
    length |u| - l of u for l < K.  On keys l r + j, l >= K holds exactly
    when key >= K r; the first case adds (|u| - 2K) r to the key and the
    second maps it to |u| r - key + 2 j.  A term costs one shift of its
    key, and a word is built once per (u, X) pair, for every column.

    The chain's bounds lo <= l <= hi move by the same shift or reflection,
    and since K is a whole prefix length they tell which case each term is
    in: all terms move on when lo >= K, all reflect when hi < K, and
    otherwise the keys are split at K r.  A reflected part's upper bound
    |u| - lo is attained when lo is, which r lookups tell; a loose lo costs
    a scan of that part.
    """
    for u, c1, last, T, n in left:
        nr = n * r
        for X, keys, lo, hi, first, V in right:
            if first != last:
                _merge(acc, u + X, {key + nr: c1 * c
                                    for key, c in keys.items()},
                       lo + n, hi + n, overlaps)
                continue
            x = T ^ V
            k = ((x & -x).bit_length() - 1) >> 3 if x else n
            m = n - k - k
            if lo >= k:
                shift = m * r
                _merge(acc, u[:n - k] + X[k:],
                       {key + shift: c1 * c for key, c in keys.items()},
                       lo + m, hi + m, overlaps)
                continue
            if hi < k:
                terms = {nr - key + 2 * (key % r): c1 * c
                         for key, c in keys.items()}
                bottom = n - hi
            else:
                kr, shift = k * r, m * r
                terms = {key + shift: c1 * c
                         for key, c in keys.items() if key >= kr}
                _merge(acc, u[:n - k] + X[k:], terms, n - k, hi + m,
                       overlaps)
                terms = {nr - key + 2 * (key % r): c1 * c
                         for key, c in keys.items() if key < kr}
                if not terms:
                    continue
                bottom = n - k + 1
            top = n - lo
            if keys.keys().isdisjoint(range(lo * r, lo * r + r)):
                top = max(terms) // r
            _merge(acc, u, terms, bottom, top, overlaps)


def ring_norm(x: GroupRingElement) -> int:
    """Sum of absolute coefficients."""
    return sum(map(abs, x.terms.values()))


@dataclass(frozen=True)
class FreeGroupEndo:
    """Endomorphism of a free group, given by generator images."""

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        for w in self.images:
            if not isinstance(w, bytes):
                raise TypeError("images must be bytes words")
            if _outside_rank(w, self.rank):
                raise ValueError("image uses a generator outside the rank")
            if _CANCELLING_PAIR.search(w):
                raise ValueError("images must be freely reduced")

    @classmethod
    def from_strings(cls, rank: int, images: list[str]) -> "FreeGroupEndo":
        return cls(rank, tuple(parse_word(s, rank) for s in images))

    @classmethod
    def identity(cls, rank: int) -> "FreeGroupEndo":
        return cls(rank, tuple(_GENERATORS[j:j + 1] for j in range(rank)))

    def apply_word(self, w: Word) -> Word:
        """Reduced image of w.

        The letter images are joined in pairs, then pairs of pairs, so with
        L the total length of the letter images a word costs O(L log |w|)
        letter copies, where joining them one by one costs O(L |w|).
        """
        images = self.images  # a..z are the bytes 97..122, A..Z 65..90
        parts = [images[s - 97] if s > 96 else word_inverse(images[s - 65])
                 for s in w]
        while len(parts) > 1:
            odd = parts[-1:] if len(parts) % 2 else []
            parts = list(map(_join, parts[::2], parts[1::2])) + odd
        return parts[0] if parts else b""


class GroupRingMatrix:
    """Rectangular matrix over the integral group ring of a free group."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged entries")
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, n: int) -> "GroupRingMatrix":
        one, zero = GroupRingElement.one(), GroupRingElement.zero()
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix)
                and self.entries == other.entries)

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        r = other.cols
        rows = [_chains([y.terms for y in row]) for row in other.entries]
        left = [[x.terms.items() for x in row] for row in self.entries]
        return GroupRingMatrix(
            [[GroupRingElement._trusted(terms) for terms in _words(chains, r)]
             for chains in _chain_matmul(left, (r, rows))])


def fox_derivative(w: Word, j: int) -> GroupRingElement:
    """Fox partial derivative d(w)/d(a_j) in the integral group ring."""
    if not 1 <= j <= len(_GENERATORS):
        raise ValueError(f"generator index must be in 1..{len(_GENERATORS)}")
    generator, inverse = _GENERATORS[j - 1], _INVERSES[j - 1]
    out: dict[Word, int] = {}
    prefix = b""
    for k, s in enumerate(w):
        if s == generator:
            out[prefix] = out.get(prefix, 0) + 1
        prefix_next = _join(prefix, w[k:k + 1])
        if s == inverse:
            out[prefix_next] = out.get(prefix_next, 0) - 1
        prefix = prefix_next
    return GroupRingElement._trusted(out)


def jacobian(phi: FreeGroupEndo) -> GroupRingMatrix:
    """Fox Jacobian: entry (i, j) is d(image_i)/d(a_j)."""
    r = phi.rank
    return GroupRingMatrix(
        [[fox_derivative(phi.images[i], j + 1) for j in range(r)]
         for i in range(r)]
    )


def matrix_norm(A: GroupRingMatrix) -> int:
    return sum(ring_norm(x) for row in A.entries for x in row)


def matrix_of_norms(A: GroupRingMatrix) -> IntMatrix:
    return IntMatrix._trusted(
        tuple(tuple(ring_norm(x) for x in row) for row in A.entries),
        A.rows, A.cols)


class SpectralRadius(NamedTuple):
    """``bracket`` = (lo, hi, e) is exact: lo/2^e <= root <= hi/2^e.
    ``value`` is the float nearest its midpoint, and ``low`` and ``high``
    are its ends rounded outward, so low <= root <= high as well."""

    value: float
    low: float
    high: float
    bracket: tuple[int, int, int]


def spectral_radius(A: IntMatrix) -> SpectralRadius:
    """Perron root of a non-negative integer matrix with a certified bracket.

    By Perron-Frobenius the spectral radius of a non-negative matrix is one
    of its eigenvalues, and no real eigenvalue exceeds it, so it is the
    largest real root of char_poly(A); ``largest_real_root`` brackets it.
    A 1 x 1 matrix (a) has the root a, and its bracket (a, a, 0) is the
    one ``largest_real_root(x - a)`` returns, so it is read off the entry.
    """
    if not A.is_square:
        raise NotSquare("spectral radius of a non-square matrix")
    if any(a < 0 for row in A.entries for a in row):
        raise ValueError("matrix must be non-negative")
    if A.rows == 0:
        return SpectralRadius(0.0, 0.0, 0.0, (0, 0, 0))
    if A.rows == 1:  # the root of x - a is a, exactly
        lo, hi, e = A[0, 0], A[0, 0], 0
    else:
        lo, hi, e = largest_real_root(char_poly(A))
    scale = 1 << e
    low, high = lo / scale, hi / scale  # each rounded to nearest
    if low * scale > lo:  # exact: a float times 2^e, compared with an int
        low = math.nextafter(low, -math.inf)
    if high * scale < hi:
        high = math.nextafter(high, math.inf)
    return SpectralRadius((lo + hi) / (2 * scale), low, high, (lo, hi, e))


def chain_matrices(phi: FreeGroupEndo) -> list[GroupRingMatrix]:
    """Lifted chain data of the rank-r bouquet: [(1), Fox Jacobian]."""
    return [GroupRingMatrix.identity(1), jacobian(phi)]


class RadiusBounds(NamedTuple):
    bound_norm: Fraction
    bound_spectral: float
    spectral_brackets: tuple[tuple[int, int, int], ...]
    chain_norms: tuple[int, ...]


def chain_radius_bounds(mats: list[GroupRingMatrix]) -> RadiusBounds:
    """Two lower bounds for the Nielsen-zeta radius of convergence.

    1 / max_d ||F_d|| and 1 / max_d s(F_d^norm) over the chain matrices,
    with the exact bracket of each s(F_d^norm) and each norm ||F_d||, the
    entry sum of F_d^norm.  Prefixing every basis word with the
    mapping-torus generator is a bijection on basis elements, so the extra
    letter never changes a norm.
    """
    norm_matrices = [matrix_of_norms(A) for A in mats]
    norms = tuple(sum(map(sum, N.entries)) for N in norm_matrices)
    radii = [spectral_radius(N) for N in norm_matrices]
    return RadiusBounds(Fraction(1, max(norms)),
                        1.0 / max(r.value for r in radii),
                        tuple(r.bracket for r in radii), norms)


def nielsen_radius_bounds(phi: FreeGroupEndo) -> RadiusBounds:
    """``chain_radius_bounds`` of the chain matrices of phi.  A test
    reference; the benchmark's per-layer table pins it."""
    return chain_radius_bounds(chain_matrices(phi))


def twisted_power_norms(phi: FreeGroupEndo, A: GroupRingMatrix,
                        N: int) -> list[int]:
    """[||(zA)^n|| for n = 1..N] in one pass.

    g z = z phi(g) gives (zA)^n = z^n P_n with P_n = phi^(n-1)(A) ... phi(A) A,
    so P_n = phi^(n-1)(A) P_(n-1): each step multiplies the product on the
    left by one twisted factor.  That factor is A pushed through phi^(n-1),
    whose generator images are kept from step to step: one sweep
    (``_prefix_images``) gives the images of the prefixes of A's words and
    of the phi(a_j), so it gives the factor and the next images
    phi^n(a_j) = phi^(n-1)(phi(a_j)) at once, and no long word is ever
    pushed through phi letter by letter.  P_n stays in canonical row chains
    from step to step, and its norm is read from their coefficients.  A
    word of A with a letter beyond the rank of phi raises ValueError before
    any product is taken.
    """
    if A.rows != A.cols:
        raise NotSquare("twisted power of a non-square matrix")
    if N < 1:
        raise ValueError("n must be >= 1")
    entries = [[x.terms for x in row] for row in A.entries]
    words = {w for row in entries for terms in row for w in terms}
    for w in words:
        if _outside_rank(w, phi.rank):
            raise ValueError(f"word {word_to_str(w)!r} of the matrix uses a "
                             f"generator beyond rank {phi.rank}")
    words = sorted(words | set(phi.images), key=len, reverse=True)
    product = [_chains(row) for row in entries]
    norms = [matrix_norm(A)]
    images = phi.images
    for n in range(2, N + 1):
        image = _prefix_images(words, images)
        twisted = [[[(image[w], c) for w, c in terms.items()]
                    for terms in row] for row in entries]
        product = _chain_matmul(twisted, (A.cols, product))
        norms.append(sum(sum(map(abs, chain[1].values()))
                         for row in product for chain in row))
        images = [image[w] for w in phi.images]
    return norms


def _prefix_images(words, images) -> dict[Word, Word]:
    """The reduced image of every prefix of the words under the
    endomorphism with the generator images ``images``.

    The image of w[:k+1] is the image of w[:k] joined with the image of
    the letter w[k], so each new prefix costs one ``_join`` and prefixes
    that the words share are joined once; a word that is a prefix of an
    earlier word costs one lookup.  The prefixes are walked in a loop, so
    a word may be longer than the recursion limit.
    """
    letter_images = {}
    for g, w in zip(_GENERATORS, images):
        letter_images[g], letter_images[g ^ 32] = w, word_inverse(w)
    memo = {b"": b""}
    for w in words:
        if w in memo:
            continue
        image = b""
        for k in range(1, len(w) + 1):
            prefix = w[:k]
            known = memo.get(prefix)
            if known is None:
                known = memo[prefix] = _join(image, letter_images[w[k - 1]])
            image = known
    return memo


def twisted_power_norm(phi: FreeGroupEndo, A: GroupRingMatrix, n: int) -> int:
    """||(zA)^n||: the last of ``twisted_power_norms(phi, A, n)``.  A test
    reference for one n; the benchmark's per-layer table pins it."""
    return twisted_power_norms(phi, A, n)[-1]


def power_image_lengths(phi: FreeGroupEndo, N: int) -> list[int]:
    """[sum_i |phi^n(a_i)| for n = 1..N], the lengths of reduced words.

    These are the twisted power norms ||(zJ)^n|| of the Fox Jacobian J.
    Fox's chain rule (Fox, Free differential calculus I, Ann. Math. 1953),
    J(psi phi) = psi(J(phi)) J(psi) for phi applied first, gives J(phi^n) =
    phi^(n-1)(J) J(phi^(n-1)), the product P_n of ``twisted_power_norms``.
    For a freely reduced word w, d(w)/d(a_j) has one term per occurrence
    of a_j^+-1: +w[:k] for a_j at position k, -w[:k+1] for a_j^-1 there.
    Prefixes of different lengths are different words, so two terms could
    only share a word at an a_j^-1 a_j pair, which a reduced word does not
    contain.  Nothing cancels, ||d(w)/d(a_j)|| counts the letters a_j^+-1
    of w, and the norm of row i of J(phi^n) is |phi^n(a_i)|.

    The route composes in the same order as the image update of the
    oracle, phi^n(a_i) = phi^(n-1)(phi(a_i)): the reduced images of
    phi^(n-1) and their inverses are kept from step to step, so a new image
    is the product of at most |phi(a_i)| long reduced pieces, reduced at
    the piece junctions only (``_reduced_product``).  A step costs
    O(|phi(a_i)|) junctions, each a few slice comparisons, and one copy of
    the letters it keeps.  The route shares no word code with the ring
    products of ``twisted_power_norms``, only the generator images.
    """
    if N < 1:
        raise ValueError("n must be >= 1")
    images = phi.images
    lengths = [sum(map(len, images))]
    for _ in range(N - 1):
        pieces = {}
        for g, w in zip(_GENERATORS, images):
            w_inverse = word_inverse(w)
            pieces[g], pieces[g ^ 32] = (w, w_inverse), (w_inverse, w)
        images = [_reduced_product(map(pieces.__getitem__, w))
                  for w in phi.images]
        lengths.append(sum(map(len, images)))
    return lengths


def _reduced_product(pieces) -> Word:
    """Reduced product of reduced words, given in order as pairs (v, v^-1).

    The reduced prefix of the product is kept as a stack of pieces, each
    the remainder of one word.  A new piece cancels against the top only:
    by ``_cancelled_length`` the top loses its last k letters and the piece
    its first k.  A cascade that eats the whole top pops it and goes on
    against the piece below.
    """
    stack = []
    for v, v_inverse in pieces:
        while stack and v:
            u = stack[-1]
            k = _cancelled_length(u, v_inverse)
            if not k:
                break
            v, v_inverse = v[k:], v_inverse[:-k]
            if k < len(u):
                stack[-1] = u[:-k]
                break
            stack.pop()
        if v:
            stack.append(v)
    return b"".join(stack)


def _cancelled_length(u: Word, v_inverse: Word) -> int:
    """The number k of letters cancelled in u v for reduced u and v, given
    v^-1: the largest k with u[-k:] == inverse(v[:k]) == v_inverse[-k:].

    The predicate is monotone (if k letters cancel, so do any fewer), so k
    is found by galloping over 1, 2, 4, ... and then bisecting, on slice
    comparisons: O(log k) comparisons of at most 2k letters.
    """
    m = min(len(u), len(v_inverse))
    if not m or u[-1] != v_inverse[-1]:
        return 0
    # lo letters cancel; hi letters do not, or hi > m.
    lo, hi = 1, 2
    while hi <= m and u[-hi:] == v_inverse[-hi:]:
        lo, hi = hi, hi << 1
    hi = min(hi, m + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u[-mid:] == v_inverse[-mid:]:
            lo = mid
        else:
            hi = mid
    return lo
