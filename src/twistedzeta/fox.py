"""Fox calculus on free groups and Nielsen-zeta radius-of-convergence bounds.

A word is a ``bytes`` object in the letters of the documents: ``a``..``z``
are the generators a_1..a_26 and ``A``..``Z`` their inverses, so
``b"abA"`` is a b a^-1, and a letter and its inverse differ in the bit 32.
Words are always freely reduced.  Group-ring elements are sparse integer
combinations of words; the norm of an element is the sum of the absolute
coefficients and matrix norms are total entry norms.

Products hold the right factor and the result as prefix chains, one list
of chains per matrix row: a chain is a base word X with a list of keys
l r + j, for a row of r columns, ordered by the prefix length l, and the
list of their nonzero coefficients c; it stands for sum c X[:l] in
column j.  The bounds on l are read from the end keys, so they are always
exact, and no list changes once it is in a chain, so chains share them.
A word u times a chain cancels at one junction, found once per (u, X)
pair by one XOR, and every term of the chain, whatever its column, then
moves by one integer shift or reflection (``_add_product``), so a term
costs an integer, not a new word.  Every branch of a product compares
prefix lengths with a whole length (the junction K, a filing threshold
g + 1), so one bisection of the keys splits a chain between branches.
Canonical form files every term once, at the last base it is a prefix of
(``_canonical``), and joins the pieces that reach a base once.  Element
products, matrix products and the twisted power oracle run that one
kernel through ``_chain_matmul``; element products are rows of r = 1
column.

The chain data of a bouquet of r circles is the pair of ring matrices
(1) and D = (d b_i / d a_j); the two radius bounds are the reciprocals of
the max matrix norm and of the max spectral radius of the entrywise norms.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
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
    r, acc = len(row), {}
    for j, terms in enumerate(row):
        for w, c in terms.items():
            keys, coefs = acc.setdefault(w, ([], []))
            keys.append(len(w) * r + j)
            coefs.append(c)
    return _canonical({X: [piece] for X, piece in acc.items()}, r)


def _words(chains: list[tuple], r: int) -> list[dict[Word, int]]:
    """The word -> coefficient dicts of the r entries of a row of canonical
    chains."""
    row = [{} for _ in range(r)]
    for X, keys, coefs in chains:
        for key, c in zip(keys, coefs):
            l, j = divmod(key, r)
            row[j][X[:l]] = c
    return row


def _canonical(acc: dict[Word, list], r: int) -> list[tuple]:
    """The canonical chains of an accumulator, which maps a base X to a list
    of pieces (keys, coefs): keys l r + j ordered by l, and their nonzero
    coefficients.  Each term is filed under the last base, in sorted order,
    that its word X[:l] is a prefix of, and no coefficient is 0: a word has
    one term per column, so the norm is the sum of the absolute
    coefficients.  A canonical chain is one piece with its base, the tuple
    (X, keys, coefs).

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
    Every threshold is a whole prefix length, and a piece's bounds on l are
    its end keys, so a piece goes whole to the stop of its last key when
    its first key reaches that stop's threshold.  Otherwise the terms that
    stop are cut off the top by bisection, so a split costs the terms it
    moves.  Each base then joins its pieces once (``_joined``).
    """
    bases = sorted(acc)
    filed: dict[Word, list] = defaultdict(list)
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
        for piece in acc[X]:
            keys, coefs = piece
            p = bisect_right(thresholds, keys[-1] // r) - 1
            if keys[0] >= thresholds[p] * r:
                filed[stops[p]].append(piece)
                continue
            top = len(keys)
            while top:
                p = bisect_right(thresholds, keys[top - 1] // r, 0, p + 1) - 1
                bottom = bisect_left(keys, thresholds[p] * r, 0, top)
                filed[stops[p]].append((keys[bottom:top], coefs[bottom:top]))
                top = bottom
    out = []
    for X in bases:
        pieces = filed.get(X)
        if pieces:
            keys, coefs = pieces[0] if len(pieces) == 1 else _joined(pieces, r)
            if keys:
                out.append((X, keys, coefs))
    return out


def _joined(pieces: list[tuple], r: int) -> tuple[list, list]:
    """The keys and coefficients of the sum of the pieces of one base,
    ordered by l, with no zero coefficient.  Sorted, the pieces come in the
    order of their first keys, so of their first l, and are joined by
    concatenation; only the terms whose l a piece shares with those joined
    before it are summed, in a dict."""
    pieces.sort()
    keys, coefs = [], []
    for piece_keys, piece_coefs in pieces:
        first = piece_keys[0] // r * r  # the least key of the first l
        if not keys or keys[-1] < first:
            keys += piece_keys
            coefs += piece_coefs
            continue
        i = bisect_left(keys, first)
        summed = dict(zip(keys[i:], coefs[i:]))
        for key, c in zip(piece_keys, piece_coefs):
            summed[key] = summed.get(key, 0) + c
        del keys[i:], coefs[i:]
        for key in sorted(summed):
            if summed[key]:
                keys.append(key)
                coefs.append(summed[key])
    return keys, coefs


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
    rows = [[(X, keys, coefs, X[0] if X else 0, int.from_bytes(X, "little"))
             for X, keys, coefs in y] for y in rows]
    out = []
    for row in left:
        acc: dict[Word, list] = defaultdict(list)
        for x, y in zip(row, rows):
            x = [(u, c, u[-1] ^ 32 if u else -1,
                  int.from_bytes(u.swapcase(), "big"), len(u))
                 for u, c in x]
            _add_product(acc, x, y, r)
        out.append(_canonical(acc, r))
    return out


def _add_product(acc: dict, left: list[tuple], right: list[tuple], r: int):
    """Add the pieces of x * y to the accumulator acc of ``_canonical``,
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
    when key >= K r, so one bisection splits the chain; the first part
    adds (|u| - 2K) r to each key, and the second maps a key to
    |u| r - key + 2 j, taken over the reversed part so that l still
    increases.  A term costs one shift of its key, a word is built once
    per (u, X) pair, for every column, and a coefficient list is shared
    when the coefficient of u is 1.
    """
    for u, c1, last, T, n in left:
        nr = n * r
        for X, keys, coefs, first, V in right:
            if c1 != 1:
                coefs = (list(map(neg, coefs)) if c1 == -1
                         else [c1 * c for c in coefs])
            if first != last:
                acc[u + X].append(([key + nr for key in keys], coefs))
                continue
            x = T ^ V
            k = ((x & -x).bit_length() - 1) >> 3 if x else n
            i = bisect_left(keys, k * r)
            if i < len(keys):
                shift = (n - k - k) * r
                acc[u[:n - k] + X[k:]].append(
                    ([key + shift for key in keys[i:]], coefs[i:])
                    if i else ([key + shift for key in keys], coefs))
            if i:
                acc[u].append(([nr - key + 2 * (key % r)
                                for key in keys[i - 1::-1]],
                               coefs[i - 1::-1]))


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


class GroupRingMatrix:
    """Square matrix over the integral group ring of a free group: every
    row has as many entries as there are rows, or the constructor raises
    NotSquare, so no function that takes one checks its shape again."""

    __slots__ = ("rows", "entries")

    def __init__(self, entries):
        self.entries = tuple(map(tuple, entries))
        self.rows = len(self.entries)
        for row in self.entries:
            if len(row) != self.rows:
                raise NotSquare(f"a matrix of {self.rows} rows has a row of "
                                f"{len(row)} entries")

    @classmethod
    def identity(cls, n: int) -> "GroupRingMatrix":
        one, zero = GroupRingElement.one(), GroupRingElement.zero()
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix)
                and self.entries == other.entries)

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.rows != other.rows:
            raise ValueError("size mismatch")
        r = other.rows
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
        tuple(tuple(ring_norm(x) for x in row) for row in A.entries))


def spectral_radius(A: IntMatrix) -> tuple[int, int, int]:
    """Perron root of a non-negative integer matrix as an exact dyadic
    bracket (lo, hi, e): lo/2^e <= root <= hi/2^e.

    By Perron-Frobenius the spectral radius of a non-negative matrix is one
    of its eigenvalues, and no real eigenvalue exceeds it, so it is the
    largest real root of char_poly(A); ``largest_real_root`` brackets it.
    A 1 x 1 matrix (a) has the root a, and its bracket (a, a, 0) is the
    one ``largest_real_root(x - a)`` returns, so it is read off the entry.
    """
    if any(a < 0 for row in A.entries for a in row):
        raise ValueError("matrix must be non-negative")
    if A.rows == 0:
        return 0, 0, 0
    if A.rows == 1:  # the root of x - a is a, exactly
        return A[0, 0], A[0, 0], 0
    return largest_real_root(char_poly(A))


def chain_matrices(phi: FreeGroupEndo) -> list[GroupRingMatrix]:
    """Lifted chain data of the rank-r bouquet: [(1), Fox Jacobian]."""
    return [GroupRingMatrix.identity(1), jacobian(phi)]


class RadiusBounds(NamedTuple):
    bound_norm: Fraction
    bound_spectral: tuple[Fraction, Fraction]
    chain_norms: tuple[int, ...]


def chain_radius_bounds(mats: list[GroupRingMatrix]) -> RadiusBounds:
    """Two lower bounds for the Nielsen-zeta radius of convergence.

    1 / max_d ||F_d|| and 1 / max_d s(F_d^norm) over the chain matrices,
    with each norm ||F_d||, the entry sum of F_d^norm.  The second is
    given by the pair (1 / max hi/2^e, 1 / max lo/2^e) of Fractions that
    brackets it, read off the Perron brackets (lo, hi, e) of the F_d^norm.
    Prefixing every basis word with the mapping-torus generator is a
    bijection on basis elements, so the extra letter never changes a norm.
    """
    norm_matrices = [matrix_of_norms(A) for A in mats]
    norms = tuple(sum(map(sum, N.entries)) for N in norm_matrices)
    brackets = [spectral_radius(N) for N in norm_matrices]
    lower = 1 / max(Fraction(hi, 1 << e) for _, hi, e in brackets)
    upper = 1 / max(Fraction(lo, 1 << e) for lo, _, e in brackets)
    return RadiusBounds(Fraction(1, max(norms)), (lower, upper), norms)


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
        product = _chain_matmul(twisted, (A.rows, product))
        norms.append(sum(sum(map(abs, coefs))
                         for row in product for _, _, coefs in row))
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
