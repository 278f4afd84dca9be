"""Fox calculus on free groups and Nielsen-zeta radius-of-convergence bounds.

A word is a ``bytes`` object in the letters of the documents: ``a``..``z``
are the generators a_1..a_26 and ``A``..``Z`` their inverses, so
``b"abA"`` is a b a^-1, and a letter and its inverse differ in the bit 32.
Words are always freely reduced.  Group-ring elements are sparse integer
combinations of words; the norm of an element is the sum of the absolute
coefficients and matrix norms are total entry norms.

Element and matrix products run one kernel, ``_add_product``, over
operands prepared once per product: each word with its junction letter and
its (left) inverse or (right) self read as an integer from the junction
outwards, so a pair of words that cancels costs one XOR.

The chain data of a bouquet of r circles is the pair of ring matrices
(1) and D = (d b_i / d a_j); the two radius bounds are the reciprocals of
the max matrix norm and of the max spectral radius of the entrywise norms.
"""

from __future__ import annotations

import math
import re
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
        out: dict[Word, int] = {}
        _add_product(out, _left_factor(self), _right_factor(other))
        return GroupRingElement._trusted(out)

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


def _left_factor(x: GroupRingElement) -> list[tuple]:
    """The terms of x prepared as a left factor of ``_add_product``: each
    word u as (u, coefficient, the inverse of its last letter, u^-1 as a
    little-endian integer, |u|).  The empty word has no last letter; -1
    matches no first letter."""
    return [(u, c, u[-1] ^ 32 if u else -1,
             int.from_bytes(u.swapcase(), "big"), len(u))
            for u, c in x.terms.items()]


def _right_factor(y: GroupRingElement) -> list[tuple]:
    """The terms of y prepared as a right factor of ``_add_product``: each
    word v as (v, coefficient, its first letter or 0, v as a little-endian
    integer)."""
    return [(v, c, v[0] if v else 0, int.from_bytes(v, "little"))
            for v, c in y.terms.items()]


def _add_product(acc: dict, left: list[tuple], right: list[tuple]):
    """Add the terms of x * y into the word -> coefficient dict acc, for x
    and y prepared by ``_left_factor`` and ``_right_factor``.

    The reduced form of u v is u v unless the first letter of v is the
    inverse of the last letter of u.  Otherwise the integers T of u^-1 and
    V of v, both read from the junction outwards, agree in exactly the c
    bytes that cancel: no letter is byte 0, so the shorter word, once
    cancelled, differs from the longer there.  The lowest set bit of
    T ^ V lies in byte c, and T = V means u v = 1.  A pair costs one XOR and
    one copy of the two remaining slices; the integers are built once per
    word, not once per pair.
    """
    get = acc.get
    for u, c1, last, T, n in left:
        for v, c2, first, V in right:
            if first == last:
                x = T ^ V
                k = ((x & -x).bit_length() - 1) >> 3 if x else n
                w = u[:n - k] + v[k:]
            else:
                w = u + v
            acc[w] = get(w, 0) + c1 * c2


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

    def apply(self, x: GroupRingElement) -> GroupRingElement:
        out: dict[Word, int] = {}
        for w, c in x.terms.items():
            iw = self.apply_word(w)
            out[iw] = out.get(iw, 0) + c
        return GroupRingElement._trusted(out)


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
        columns = [[_right_factor(y) for y in column]
                   for column in zip(*other.entries)]
        out = []
        for row in self.entries:
            left = [_left_factor(x) for x in row]
            out_row = []
            for column in columns:
                acc: dict[Word, int] = {}
                for x, y in zip(left, column):
                    _add_product(acc, x, y)
                out_row.append(GroupRingElement._trusted(acc))
            out.append(out_row)
        return GroupRingMatrix(out)

    def map_entries(self, fn) -> "GroupRingMatrix":
        return GroupRingMatrix(
            [[fn(x) for x in row] for row in self.entries]
        )

    def trace(self) -> GroupRingElement:
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square ring matrix")
        acc = GroupRingElement.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc


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
    return IntMatrix(
        [[ring_norm(x) for x in row] for row in A.entries],
        rows=A.rows, cols=A.cols)


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
    """
    if not A.is_square:
        raise NotSquare("spectral radius of a non-square matrix")
    if any(a < 0 for row in A.entries for a in row):
        raise ValueError("matrix must be non-negative")
    if A.rows == 0:
        return SpectralRadius(0.0, 0.0, 0.0, (0, 0, 0))
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


def chain_radius_bounds(mats: list[GroupRingMatrix]) -> RadiusBounds:
    """Two lower bounds for the Nielsen-zeta radius of convergence.

    1 / max_d ||F_d|| and 1 / max_d s(F_d^norm) over the chain matrices,
    with the exact bracket of each s(F_d^norm).  Prefixing every basis word
    with the mapping-torus generator is a bijection on basis elements, so
    the extra letter never changes a norm.
    """
    max_norm = max(matrix_norm(A) for A in mats)
    radii = [spectral_radius(matrix_of_norms(A)) for A in mats]
    return RadiusBounds(Fraction(1, max_norm),
                        1.0 / max(r.value for r in radii),
                        tuple(r.bracket for r in radii))


def nielsen_radius_bounds(phi: FreeGroupEndo) -> RadiusBounds:
    """``chain_radius_bounds`` of the chain matrices of phi."""
    return chain_radius_bounds(chain_matrices(phi))


def twisted_power_norms(phi: FreeGroupEndo, A: GroupRingMatrix,
                        N: int) -> list[int]:
    """[||(zA)^n|| for n = 1..N] in one pass.

    g z = z phi(g) gives (zA)^n = z^n P_n with P_n = phi^(n-1)(A) ... phi(A) A,
    so P_n = phi^(n-1)(A) P_(n-1): each step multiplies the product on the
    left by one twisted factor.  That factor is A pushed through phi^(n-1),
    whose generator images are kept from step to step (phi^n(a_j) is
    phi^(n-1) applied to the short word phi(a_j)), so no long word is ever
    pushed through phi letter by letter.
    """
    if A.rows != A.cols:
        raise NotSquare("twisted power of a non-square matrix")
    if N < 1:
        raise ValueError("n must be >= 1")
    product = A
    norms = [matrix_norm(A)]
    power = phi
    for n in range(2, N + 1):
        product = A.map_entries(power.apply) @ product
        norms.append(matrix_norm(product))
        if n < N:
            power = FreeGroupEndo(
                phi.rank, tuple(power.apply_word(w) for w in phi.images))
    return norms


def twisted_power_norm(phi: FreeGroupEndo, A: GroupRingMatrix, n: int) -> int:
    """||(zA)^n||: the last of ``twisted_power_norms(phi, A, n)``."""
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

    Each step rebuilds phi(w) from the letter images of every reduced
    image w and reduces it on a stack, so this route shares nothing with
    the ring products of ``twisted_power_norms`` but the generator images.
    """
    if N < 1:
        raise ValueError("n must be >= 1")
    letter_images = {}
    for g, w in zip(_GENERATORS, phi.images):
        letter_images[g], letter_images[g ^ 32] = w, word_inverse(w)
    images = phi.images
    lengths = [sum(map(len, images))]
    for _ in range(N - 1):
        images = [free_reduce(b"".join(map(letter_images.__getitem__, w)))
                  for w in images]
        lengths.append(sum(map(len, images)))
    return lengths
