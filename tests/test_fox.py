import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistedzeta import (
    FreeGroupEndo,
    GroupRingElement,
    GroupRingMatrix,
    IntMatrix,
    NotSquare,
    char_poly,
    fox_derivative,
    free_reduce,
    jacobian,
    matrix_norm,
    matrix_of_norms,
    nielsen_radius_bounds,
    parse_word,
    power_image_lengths,
    ring_norm,
    spectral_radius,
    twisted_power_norm,
    twisted_power_norms,
    word_to_str,
)
from twistedzeta import fox
from twistedzeta.fox import (
    _cancelled_length,
    _canonical,
    _chain_matmul,
    _chains,
    _join,
    _joined,
    _reduced_product,
    _words,
    chain_matrices,
    word_inverse,
)
from twistedzeta.intlinalg import largest_real_root


GENERATORS = b"abcdefghijklmnopqrstuvwxyz"


def letters(rank):
    """The letters of the first rank generators and of their inverses."""
    return GENERATORS[:rank] + GENERATORS[:rank].upper()


def random_word(rng, rank, max_len):
    return free_reduce(bytes(rng.choice(letters(rank))
                             for _ in range(rng.randint(0, max_len))))


def reduced_words(rank, max_size):
    return st.lists(st.sampled_from(letters(rank)),
                    max_size=max_size).map(free_reduce)


words = st.integers(1, 4).flatmap(lambda rank: reduced_words(rank, 25))


class TestWords:
    def test_parse_round_trip(self):
        w = parse_word("abA")
        assert w == b"abA"
        assert word_to_str(w) == "abA"

    def test_parse_reduces(self):
        assert parse_word("aA") == b""
        assert parse_word("abBA") == b""

    def test_free_reduce_nested(self):
        assert free_reduce(b"abBAc") == b"c"

    @pytest.mark.parametrize("text", ["a1", "ab c", "aé", "a-b"])
    def test_parse_rejects_other_characters(self, text):
        with pytest.raises(ValueError, match="invalid word character"):
            parse_word(text)

    def test_parse_checks_the_rank(self):
        assert parse_word("abAB", 2) == b"abAB"
        with pytest.raises(ValueError, match="beyond rank 2"):
            parse_word("abc", 2)
        with pytest.raises(ValueError, match="beyond rank 2"):
            parse_word("C", 2)

    def test_free_reduce_rejects_non_letters(self):
        for letters in (b"a1", b"a\x00", [97, 65 + 128], b"a[", b"`"):
            with pytest.raises(ValueError):
                free_reduce(letters)

    @pytest.mark.parametrize("images, error", [
        ((b"ab",), ValueError),
        ((b"ab", b"c"), ValueError),
        ((b"ab", b"C"), ValueError),
        ((b"ab", b"a1"), ValueError),
        ((b"abBa", b"a"), ValueError),
        ((b"a", b"bAab"), ValueError),
        ((b"aA", b"b"), ValueError),
        (("ab", b"a"), TypeError),
        (((1, 2), b"a"), TypeError),
    ])
    def test_endo_validates_its_images(self, images, error):
        with pytest.raises(error):
            FreeGroupEndo(2, images)

    def test_endo_accepts_reduced_images_of_its_rank(self):
        phi = FreeGroupEndo(2, (b"abAB", b""))
        assert phi.images == (b"abAB", b"")
        assert FreeGroupEndo.from_strings(3, ["a", "b", "c"]).images == (
            b"a", b"b", b"c")

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_inverse_cancels(self, w):
        assert free_reduce(w + word_inverse(w)) == b""


class TestGroupRing:
    def test_ring_axioms_spot(self):
        a = GroupRingElement({b"a": 1})
        b = GroupRingElement({b"b": 1})
        one = GroupRingElement.one()
        assert a * one == a
        assert (a + b) * a == a * a + b * a
        assert a - a == GroupRingElement.zero()

    def test_multiplication_reduces_words(self):
        a = GroupRingElement({b"a": 1})
        ainv = GroupRingElement({b"A": 1})
        assert a * ainv == GroupRingElement.one()

    def test_ring_norm_is_coefficient_sum(self):
        x = GroupRingElement({b"a": 2, b"ba": -3})
        assert ring_norm(x) == 5

    @given(words, words)
    @settings(max_examples=60, deadline=None)
    def test_norm_submultiplicative(self, u, v):
        x = GroupRingElement({u: 1}) + GroupRingElement.one()
        y = GroupRingElement({v: 1}) - GroupRingElement({u: 1})
        assert ring_norm(x * y) <= ring_norm(x) * ring_norm(y)

    @pytest.mark.parametrize("terms, error", [
        ({b"a": 0.4}, TypeError), ({b"a": 1.5}, TypeError),
        ({b"a": True}, TypeError), ({"a": 1}, TypeError),
        ({b"aA": 1}, ValueError), ({b"bBa": 1}, ValueError),
        ({b"a1": 1}, ValueError), ({b"a\x00": 1}, ValueError),
    ])
    def test_constructor_validates_its_terms(self, terms, error):
        with pytest.raises(error):
            GroupRingElement(terms)

    def test_constructor_drops_zero_coefficients(self):
        assert GroupRingElement({b"a": 0, b"bA": -2}).terms == {b"bA": -2}
        assert GroupRingElement({b"": 0}) == GroupRingElement.zero()


def reference_product(x, y):
    """Terms of x * y by reducing the concatenation of every pair of words."""
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w = free_reduce(w1 + w2)
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


@st.composite
def cancelling_elements(draw, count):
    """count group-ring elements over one pool of reduced words of up to 600
    letters in ranks 1 to 4: words u, u^-1, the inverses of a prefix and of
    a suffix of u, the prefix and suffix themselves, and the empty word.
    Most pairs of the pool cancel at the junction: u u^-1 completely and at
    equal lengths, u (suffix)^-1 by the whole right word, (prefix)^-1 u by
    the whole left word."""
    rank = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [b""]
    for _ in range(2):
        u = free_reduce(bytes(rng.choice(letters(rank))
                              for _ in range(rng.randint(0, 600))))
        k = rng.randint(0, len(u))
        pool += [u, word_inverse(u), u[:k], u[k:],
                 word_inverse(u[:k]), word_inverse(u[k:])]
    element = st.dictionaries(st.sampled_from(pool), st.integers(-2, 2),
                              max_size=5).map(GroupRingElement)
    return [draw(element) for _ in range(count)]


class TestProductKernel:
    """Element and matrix products, entry by entry, against the reduced
    concatenation of every pair of words."""

    @given(cancelling_elements(2))
    @settings(max_examples=200, deadline=None)
    def test_element_product(self, elements):
        x, y = elements
        assert (x * y).terms == reference_product(x, y)

    @given(cancelling_elements(12))
    @settings(max_examples=60, deadline=None)
    def test_matrix_product(self, elements):
        # a 2x3 times a 3x2 matrix, made square by a last zero row and a
        # last zero column: each entry sums three products
        zero = GroupRingElement.zero()
        A = GroupRingMatrix([elements[0:3], elements[3:6], [zero] * 3])
        B = GroupRingMatrix([[*elements[k:k + 2], zero] for k in (6, 8, 10)])
        for i, row in enumerate((A @ B).entries):
            for j, entry in enumerate(row):
                want = {}
                for k in range(3):
                    for w, c in reference_product(A.entries[i][k],
                                                  B.entries[k][j]).items():
                        want[w] = want.get(w, 0) + c
                assert entry.terms == {w: c for w, c in want.items() if c}

    def test_junction_cases(self):
        u = random_word(random.Random(3), 3, 600)
        k = len(u) // 3
        cases = [
            (u, word_inverse(u), b""),  # equal lengths, T == V
            (u, word_inverse(u[k:]), u[:k]),  # right word cancelled
            (word_inverse(u[:k]), u, u[k:]),  # left word cancelled
            (u[:k], u[k:], u), (b"", u, u), (u, b"", u), (b"", b"", b""),
        ]
        for left, right, product in cases:
            x = GroupRingElement({left: 3})
            y = GroupRingElement({right: -2})
            want = GroupRingElement({product: -6})
            assert x * y == want
            assert (GroupRingMatrix([[x]]) @ GroupRingMatrix([[y]])
                    == GroupRingMatrix([[want]]))

    def test_coefficients_summing_to_zero_are_not_stored(self):
        # (1 + u)(u^-1 - 1) = u^-1 - u: the two terms at 1 cancel
        u = random_word(random.Random(4), 2, 600)
        one, w = GroupRingElement.one(), GroupRingElement({u: 1})
        w_inv = GroupRingElement({word_inverse(u): 1})
        product = (one + w) * (w_inv - one)
        assert product.terms == {word_inverse(u): 1, u: -1}
        # a row times a column, made square by zero entries
        zero = GroupRingElement.zero()
        X = GroupRingMatrix([[one, w], [zero, zero]])
        Y = GroupRingMatrix([[w_inv, zero], [-one, zero]])
        assert (X @ Y).entries[0][0].terms == {word_inverse(u): 1, u: -1}
        # one w + w (-1) = 0 across the sum over k
        Y = GroupRingMatrix([[w, zero], [-one, zero]])
        assert (X @ Y).entries[0][0].terms == {}


def padded(rows, n, zero):
    """The n x n GroupRingMatrix with the rows of elements in its top left
    corner and zero elsewhere."""
    return GroupRingMatrix(
        [[*row, *[zero] * (n - len(row))] for row in rows]
        + [[zero] * n for _ in range(n - len(rows))])


def assert_canonical(chains, r=1):
    """Sorted distinct bases, no zero coefficient, and every (word, column)
    filed once, under the last base that the word is a prefix of, for a
    row of chains (X, keys, coefs) with keys l r + j in lists ordered by
    l, so that both bounds on a chain's prefix lengths are read exactly
    from its end keys."""
    bases = [X for X, _, _ in chains]
    assert bases == sorted(set(bases))
    filed = [(X[:key // r], key % r)
             for X, keys, _ in chains for key in keys]
    assert len(filed) == len(set(filed))
    for i, (X, keys, coefs) in enumerate(chains):
        assert isinstance(keys, list) and isinstance(coefs, list)
        assert keys and len(keys) == len(coefs) and all(coefs)
        lengths = [key // r for key in keys]
        assert lengths == sorted(lengths)
        assert keys[0] // r == min(lengths)
        assert keys[-1] // r == max(lengths)
        for key in keys:
            assert 0 <= key < (len(X) + 1) * r
            assert not any(Y.startswith(X[:key // r]) for Y in bases[i + 1:])


def as_dicts(chains):
    """The chains (X, keys, coefs) as pairs (X, {key: coefficient})."""
    return [(X, dict(zip(keys, coefs))) for X, keys, coefs in chains]


def accumulator(acc, r):
    """The accumulator of ``_canonical`` for a base -> {l r + j:
    coefficient} dict with no zero coefficient: each base with one piece,
    its keys ordered by l and their coefficients."""
    out = {}
    for X, terms in acc.items():
        keys = sorted(terms, key=lambda key: key // r)
        out[X] = [(keys, [terms[key] for key in keys])]
    return out


def brute_force_filing(acc, r):
    """The canonical chains of acc, a base -> {l r + j: coefficient} dict,
    by filing each term directly under the last base its word is a prefix
    of."""
    bases = sorted(acc)
    filed = {}
    for X, keys in acc.items():
        for key, c in keys.items():
            w = X[:key // r]
            last = [Y for Y in bases if Y.startswith(w)][-1]
            chain = filed.setdefault(last, {})
            chain[key] = chain.get(key, 0) + c
    return [(Y, {key: c for key, c in filed[Y].items() if c})
            for Y in bases if any(filed.get(Y, {}).values())]


def extending_letters(w, count):
    """count letters e with w e freely reduced."""
    return [bytes([e]) for e in b"abcdABCD" if not w or e ^ 32 != w[-1]][
        :count]


class TestPrefixChains:
    """Chains (X, keys, coefs) stand for sum c X[:l], over the keys l and
    coefficients c; products and their operands hold them in canonical
    form."""

    @given(cancelling_elements(1))
    @settings(max_examples=200, deadline=None)
    def test_words_to_chains_and_back(self, elements):
        [x] = elements
        chains = _chains([x.terms])
        assert_canonical(chains)
        assert _words(chains, 1) == [x.terms]

    @given(cancelling_elements(2))
    @settings(max_examples=200, deadline=None)
    def test_product_chains_are_canonical(self, elements):
        x, y = elements
        [chains] = _chain_matmul([[x.terms.items()]],
                                 (1, [_chains([y.terms])]))
        assert_canonical(chains)
        assert _words(chains, 1) == [reference_product(x, y)]

    @given(cancelling_elements(1), st.sampled_from([-2, -1, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_empty_word_is_filed_once(self, elements, c):
        # bases that start with different letters share a prefix of length
        # 0, and the empty word still moves on to the last base
        [x] = elements
        assume(len({w[:1] for w in x.terms if w}) > 1)
        chains = _chains([{**x.terms, b"": c}])
        assert [X for X, lengths, _ in chains if 0 in lengths] == \
            [chains[-1][0]]
        # l = 0 is the least length, so it heads the key list
        assert chains[-1][1][0] == 0 and chains[-1][2][0] == c

    @given(cancelling_elements(1))
    @settings(max_examples=200, deadline=None)
    def test_opposite_terms_under_two_bases_cancel(self, elements):
        # +w under w e1 and -w under w e2 are one word: nothing is left,
        # and a third copy under w e3 leaves the element itself
        [x] = elements

        def filed(copies):
            acc = {}
            for w, c in x.terms.items():
                for e, sign in zip(extending_letters(w, copies), (1, -1, 1)):
                    acc[w + e] = {len(w): sign * c}
            return _canonical(accumulator(acc, 1), 1)

        assert filed(2) == []
        chains = filed(3)
        assert_canonical(chains)
        assert _words(chains, 1) == [x.terms]

    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
           .flatmap(lambda shape: st.tuples(
               st.just(shape),
               cancelling_elements(shape[0] * shape[1]
                                   + shape[1] * shape[2]))))
    @settings(max_examples=60, deadline=None)
    def test_row_chains_of_matrix_products(self, case):
        # rows of r = 1..4 columns share one chain list: every row of chains
        # is checked, and every entry of A @ B with A and B made square by
        # zero rows and columns
        (p, m, r), elements = case
        A = [elements[i * m:(i + 1) * m] for i in range(p)]
        B = [elements[p * m + k * r:p * m + (k + 1) * r] for k in range(m)]
        rows = _chain_matmul([[x.terms.items() for x in row] for row in A],
                             (r, [_chains([y.terms for y in row])
                                  for row in B]))
        n, zero = max(p, m, r), GroupRingElement.zero()
        product = padded(A, n, zero) @ padded(B, n, zero)
        for i, chains in enumerate(rows):
            assert_canonical(chains, r)
            columns = _words(chains, r)
            for j in range(r):
                want = {}
                for k in range(m):
                    for w, c in reference_product(A[i][k], B[k][j]).items():
                        want[w] = want.get(w, 0) + c
                want = {w: c for w, c in want.items() if c}
                assert columns[j] == want
                assert product.entries[i][j].terms == want

    def test_long_chain_stops_at_several_bases(self):
        # every prefix of w, in three columns, starts under w; the bases
        # w[:g] c take the prefixes of length at most g, so the chain is
        # peeled at four bases, and some terms filed there cancel
        r, rng, w = 3, random.Random(6), b"a"
        while len(w) < 1200:  # a reduced word in a, b: no c, which sorts last
            w += bytes([rng.choice([e for e in b"abAB" if e ^ 32 != w[-1]])])
        acc = {w: {l * r + j: l % 5 - 2 or 1
                   for l in range(len(w) + 1) for j in range(r)}}
        for g in (100, 500, 900):
            acc[w[:g] + b"c"] = {g * r + 1: 2 - g % 5, 40 * r: 7,
                                 (g + 1) * r + 2: -1}
        chains = _canonical(accumulator(acc, r), r)
        assert len(chains) == 4
        assert_canonical(chains, r)
        assert as_dicts(chains) == brute_force_filing(acc, r)

    @given(st.integers(1, 3), st.lists(
        st.dictionaries(st.integers(0, 30), st.sampled_from([-2, -1, 1, 2]),
                        min_size=1, max_size=8), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_pieces_of_one_base_join_to_their_sum(self, r, pieces):
        # pieces whose lengths overlap are summed there, zeros dropped, and
        # the rest is concatenated; keys of one length come in any order
        lists = []
        for piece in pieces:
            keys = sorted(piece, key=lambda key: key // r)
            lists.append((keys, [piece[key] for key in keys]))
        want = {}
        for piece in pieces:
            for key, c in piece.items():
                want[key] = want.get(key, 0) + c
        keys, coefs = _joined(lists, r)
        lengths = [key // r for key in keys]
        assert lengths == sorted(lengths) and len(set(keys)) == len(keys)
        assert dict(zip(keys, coefs)) == {k: c for k, c in want.items() if c}

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_only_the_junction_terms_stay_above(self, r):
        # u = w s times X = s^-1 cancels the whole base, K = |X| = hi: only
        # the terms X, at l = K, move on, to w; the shorter prefixes of X
        # reflect into prefixes of u
        rng = random.Random(20 + r)
        v = random_word(rng, 3, 80)
        while len(v) < 30:
            v = random_word(rng, 3, 80)
        k = rng.randint(10, len(v) - 1)
        u, X = v, word_inverse(v[k:])
        row = [{X[:rng.randint(0, len(X) - 1)]: j + 1,
                X[:rng.randint(0, len(X) - 1)]: -2} for j in range(r)]
        for j in range(0, r, 2):
            row[j][X] = 3 - j
        [chain] = _chains(row)
        assert chain[0] == X and chain[1][-1] // r == len(X)
        x = GroupRingElement({u: -2})
        [chains] = _chain_matmul([[x.terms.items()]], (r, [[chain]]))
        assert_canonical(chains, r)
        columns = _words(chains, r)
        for j in range(r):
            assert columns[j] == reference_product(x, GroupRingElement(row[j]))

    def test_zero_left_by_an_overlapping_merge(self):
        # a bc and ab c are both abc, at key 3 of the base abc: the two
        # terms cancel and leave ab alone, so the upper bound falls to 2
        x = GroupRingElement({b"a": 1, b"ab": 1})
        y = GroupRingElement({b"bc": 1, b"c": -1, b"b": 2})
        [chains] = _chain_matmul([[x.terms.items()]],
                                 (1, [_chains([y.terms])]))
        assert_canonical(chains)
        assert (b"abc", [2], [2]) in chains
        assert _words(chains, 1) == [reference_product(x, y)]
        assert (x * y).terms == reference_product(x, y)

    @pytest.mark.parametrize("u, y, loose", [
        # dA abc cancels one letter: ab and abc move on to dbc at lengths
        # 2 and 3, above |u| - K = 1, where no term lands, and 1 reflects
        # to dA.  CBD = (dbc)^-1 then cancels the whole base dbc: abc goes
        # to 1 and db reflects to C, at length 1, not at |u| - 1 = 2
        (b"dA", {b"": 1, b"ab": -2, b"abc": 3}, b"dbc"),
        # eCBA abcd cancels three letters: a reflects to eCB at length 3,
        # above |u| - K + 1 = 2.  abcE = (eCBA)^-1 then reflects the whole
        # chain, its top l = 3 < K = 4: eCB goes to a, at length 1, not at
        # |u| - 2 = 2
        (b"eCBA", {b"a": 1, b"abcd": 5}, b"eCBA"),
    ])
    def test_loose_lower_bound_after_a_partial_cancellation(self, u, y,
                                                             loose):
        x = GroupRingElement({u: 2})
        y = GroupRingElement(y)
        z = GroupRingElement({word_inverse(loose): -1})
        [chains] = _chain_matmul([[x.terms.items()]],
                                 (1, [_chains([y.terms])]))
        assert_canonical(chains)
        assert _words(chains, 1) == [reference_product(x, y)]
        [chain] = [chain for chain in chains if chain[0] == loose]
        # the lower bound read from the first key is the shortest term,
        # not the bound that |u| and K give: db under dbc, eCB under eCBA
        assert chain[1][0] == {b"dbc": 2, b"eCBA": 3}[loose]
        # the chain alone is a canonical row: no other base takes its terms
        [chains] = _chain_matmul([[z.terms.items()]], (1, [[chain]]))
        assert_canonical(chains)
        [terms] = _words([chain], 1)
        assert _words(chains, 1) == \
            [reference_product(z, GroupRingElement(terms))]


class TestFoxDerivative:
    def test_generator_rules(self):
        assert fox_derivative(b"a", 1) == GroupRingElement.one()
        assert fox_derivative(b"a", 2) == GroupRingElement.zero()
        assert fox_derivative(b"A", 1) == -GroupRingElement({b"A": 1})

    def test_conjugate_example(self):
        # d(aba^-1)/da = 1 - aba^-1
        w = parse_word("abA")
        got = fox_derivative(w, 1)
        want = (GroupRingElement.one()
                - GroupRingElement({b"abA": 1}))
        assert got == want

    @given(words, words)
    @settings(max_examples=100, deadline=None)
    def test_product_rule(self, u, v):
        # d(uv) = du + u dv (computed on the reduced product)
        uv = free_reduce(u + v)
        for j in (1, 2, 3, 4):
            lhs = fox_derivative(uv, j)
            rhs = (fox_derivative(u, j)
                   + GroupRingElement({u: 1}) * fox_derivative(v, j))
            assert lhs == rhs

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_fundamental_identity(self, w):
        # sum_j (dw/da_j)(a_j - 1) = w - 1
        total = GroupRingElement.zero()
        for j in (1, 2, 3, 4):
            aj = GroupRingElement({GENERATORS[j - 1:j]: 1})
            total = total + fox_derivative(w, j) * (aj - GroupRingElement.one())
        want = GroupRingElement({w: 1}) - GroupRingElement.one()
        assert total == want


class TestJacobian:
    def test_known_substitution(self):
        # a -> ab, b -> a has Jacobian [[1, a], [1, 0]]
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        D = jacobian(phi)
        assert D.entries[0][0] == GroupRingElement.one()
        assert D.entries[0][1] == GroupRingElement({b"a": 1})
        assert D.entries[1][0] == GroupRingElement.one()
        assert D.entries[1][1] == GroupRingElement.zero()

    def test_norm_matrix(self):
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        N = matrix_of_norms(jacobian(phi))
        assert N == IntMatrix([[1, 1], [1, 0]])


def _bracket_ends(bracket):
    """The exact ends lo/2^e and hi/2^e of a spectral-radius bracket."""
    lo, hi, e = bracket
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


class TestSpectralRadius:
    def test_fibonacci_matrix(self):
        lo, hi, e = spectral_radius(IntMatrix([[1, 1], [1, 0]]))
        assert (hi - lo) << 50 <= hi
        # the exact ends bracket the positive root of x^2 - x - 1
        low, high = _bracket_ends((lo, hi, e))
        assert 1 <= low and low * low - low - 1 <= 0 <= high * high - high - 1

    def test_permutation_matrix(self):
        assert spectral_radius(IntMatrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_reducible_matrix(self):
        # two blocks: radius is the max over strongly connected pieces
        A = IntMatrix([[2, 1, 0], [0, 3, 0], [0, 0, 5]])
        assert spectral_radius(A) == (5, 5, 0)

    def test_zero_matrix(self):
        assert spectral_radius(IntMatrix([[0]])) == (0, 0, 0)

    def test_agrees_with_numpy(self):
        import numpy as np
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randint(1, 5)
            A = IntMatrix([[rng.randint(0, 4) for _ in range(k)]
                           for _ in range(k)])
            low, high = _bracket_ends(spectral_radius(A))
            want = max(abs(mu) for mu in
                       np.linalg.eigvals(np.array(A.entries, dtype=float)))
            slack = Fraction(1, 10 ** 8)
            assert low - slack <= Fraction(float(want)) <= high + slack


def non_negative_matrices(max_k):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 4), min_size=k, max_size=k),
            min_size=k, max_size=k).map(IntMatrix))


class TestExactPerronRoot:
    @settings(max_examples=200, deadline=None)
    @given(non_negative_matrices(6))
    def test_bracket_holds_numpy_radius(self, A):
        import numpy as np
        lo, hi, e = bracket = spectral_radius(A)
        assert (hi - lo) << 50 <= hi
        want = max(abs(mu) for mu in
                   np.linalg.eigvals(np.array(A.entries, dtype=float)))
        # numpy's eigenvalues carry their own rounding error
        low, high = _bracket_ends(bracket)
        slack = Fraction(1, 10 ** 9) * max(high, 1)
        assert low - slack <= Fraction(float(want)) <= high + slack

    def test_integer_roots_are_exact(self):
        for n in range(6):
            assert spectral_radius(IntMatrix([[n]])) == (n, n, 0)
        for k in range(1, 5):
            assert spectral_radius(IntMatrix([[0] * k] * k)) == (0, 0, 0)
        for perm in itertools.permutations(range(4)):
            P = IntMatrix([[int(perm[i] == j) for j in range(4)]
                           for i in range(4)])
            assert spectral_radius(P) == (1, 1, 0)
        # block triangular, the root in a later block or shared by two
        for A, root in (([[2, 1, 0], [0, 3, 0], [0, 0, 5]], 5),
                        ([[1, 4, 1], [0, 2, 2], [0, 2, 2]], 4),
                        ([[3, 1, 0, 0], [0, 3, 1, 0], [0, 0, 3, 1],
                          [0, 0, 0, 3]], 3),
                        ([[1, 1, 2, 0], [1, 1, 0, 3], [0, 0, 1, 1],
                          [0, 0, 1, 1]], 2)):
            assert spectral_radius(IntMatrix(A)) == (root, root, 0)

    def test_one_by_one_from_its_entry(self):
        # The bracket of (a) is read off the entry; it must be the one the
        # root search gives: the search's bracket for x - a, and that of
        # the 2 x 2 matrix diag(a, 0), whose largest root is a too and which
        # goes through char_poly and largest_real_root.
        for a in [*range(65), (1 << 61) + 1]:
            bracket = spectral_radius(IntMatrix([[a]]))
            assert bracket == largest_real_root((-a, 1))
            assert bracket == spectral_radius(IntMatrix([[a, 0], [0, 0]]))
            low, high = _bracket_ends(bracket)
            assert low <= a <= high

    def test_double_root_at_zero(self):
        # char_poly(T) = x^2 (x - 2): a bisection on the polynomial itself,
        # whose Sturm sequence vanishes at 0, once returned 0 here
        phi = FreeGroupEndo.from_strings(3, ["bA", "ca", "CA"])
        T = matrix_of_norms(jacobian(phi))
        assert char_poly(T) == (0, 0, -2, 1)
        assert spectral_radius(T) == (2, 2, 0)
        assert nielsen_radius_bounds(phi).bound_spectral == (
            Fraction(1, 2), Fraction(1, 2))


class TestRadiusBounds:
    def test_reference_substitution(self):
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        bounds = nielsen_radius_bounds(phi)
        assert bounds.bound_norm == Fraction(1, 3)
        # 1/golden is the positive root of x^2 + x - 1
        lower, upper = bounds.bound_spectral
        assert lower * lower + lower - 1 <= 0 <= upper * upper + upper - 1
        assert (upper - lower) * 2 ** 50 <= upper
        assert lower >= bounds.bound_norm

    def test_identity_substitution(self):
        phi = FreeGroupEndo(2, (b"a", b"b"))
        bounds = nielsen_radius_bounds(phi)
        # Jacobian is the 2x2 identity over the group ring: total norm 2,
        # spectral radius 1
        assert bounds.bound_norm == Fraction(1, 2)
        assert bounds.bound_spectral == (1, 1)

    def test_spectral_never_below_norm_bound(self):
        rng = random.Random(13)
        for _ in range(25):
            rank = rng.randint(1, 3)
            images = []
            for _ in range(rank):
                images.append(random_word(rng, rank, 6))
            phi = FreeGroupEndo(rank, tuple(images))
            bounds = nielsen_radius_bounds(phi)
            lower, upper = bounds.bound_spectral
            assert bounds.bound_norm <= lower <= upper
            # each chain norm is the entry sum of its matrix of norms
            assert bounds.chain_norms == tuple(
                matrix_norm(A) for A in chain_matrices(phi))
            assert bounds.bound_norm == Fraction(1, max(bounds.chain_norms))


class TestTwistedPowers:
    def test_reference_value(self):
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        D = jacobian(phi)
        assert twisted_power_norm(phi, D, 1) == matrix_norm(D)
        assert twisted_power_norm(phi, D, 2) == 5

    def test_growth_rate_matches_spectral_bound(self):
        # ||(zD)^n||^(1/n) approaches the reciprocal of the spectral bound
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        D = jacobian(phi)
        lower, upper = nielsen_radius_bounds(phi).bound_spectral
        # within 15% of the Perron root, which lies in [1/upper, 1/lower]:
        # compared in 12th powers, exactly
        norm = twisted_power_norm(phi, D, 12)
        assert (Fraction(85, 100) / upper) ** 12 <= norm
        assert norm <= (Fraction(115, 100) / lower) ** 12

    def test_chain_matrices_shapes(self):
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        chains = chain_matrices(phi)
        assert len(chains) == 2
        assert chains[0].entries[0][0] == GroupRingElement.one()
        assert len(chains[1].entries) == 2


@st.composite
def substitutions(draw):
    rank = draw(st.integers(1, 3))
    images = tuple(draw(reduced_words(rank, 4)) for _ in range(rank))
    return FreeGroupEndo(rank, images)


@st.composite
def ring_matrices(draw, rank):
    """Square matrices of signed sums of up to three short words."""
    element = st.dictionaries(
        reduced_words(rank, 3),
        st.integers(-2, 2).filter(bool), max_size=3).map(GroupRingElement)
    return GroupRingMatrix(
        [[draw(element) for _ in range(rank)] for _ in range(rank)])


@st.composite
def long_words(draw, max_len=600):
    """Reduced words of up to max_len letters, in ranks 1 to 4."""
    rank = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return free_reduce(bytes(rng.choice(letters(rank))
                             for _ in range(draw(st.integers(0, max_len)))))


def reference_twisted_power_norms(phi, A, N):
    """Norms of P_n = phi(P_(n-1)) A, fully reducing every concatenation.

    The reference keeps its own words, tuples of signed generator indices
    (+j for the j-th generator, -j for its inverse), so it shares no word
    code with the route it checks: the package's words are read once, at
    the boundary, and only norms come back.
    """
    def signed(w):
        return tuple(s - 96 if s > 96 else 64 - s for s in w)

    def reduce(letters):
        stack = []
        for s in letters:
            if stack and stack[-1] == -s:
                stack.pop()
            else:
                stack.append(s)
        return tuple(stack)

    images = [signed(w) for w in phi.images]
    inverse_images = [tuple(-s for s in reversed(w)) for w in images]

    def image(w):
        return reduce([t for s in w for t in (
            images[s - 1] if s > 0 else inverse_images[-s - 1])])

    def matmul(X, Y):
        out = [[{} for _ in Y[0]] for _ in X]
        for i, row in enumerate(X):
            for k, x in enumerate(row):
                for j, y in enumerate(Y[k]):
                    for w1, c1 in x.items():
                        for w2, c2 in y.items():
                            w = reduce(w1 + w2)
                            out[i][j][w] = out[i][j].get(w, 0) + c1 * c2
        return out

    def norm(X):
        return sum(abs(c) for row in X for x in row for c in x.values())

    A = [[{signed(w): c for w, c in x.terms.items()} for x in row]
         for row in A.entries]
    P = A
    norms = [norm(P)]
    for _ in range(N - 1):
        twisted = [[{} for _ in row] for row in P]
        for i, row in enumerate(P):
            for j, x in enumerate(row):
                for w, c in x.items():
                    iw = image(w)
                    twisted[i][j][iw] = twisted[i][j].get(iw, 0) + c
        P = matmul(twisted, A)
        norms.append(norm(P))
    return norms


class TestJunctionCancellation:
    @given(words, words, st.integers(0, 25))
    @settings(max_examples=200, deadline=None)
    def test_join_is_free_reduction(self, u, x, k):
        # v starts by undoing the last k letters of u, then goes on with x
        v = free_reduce(word_inverse(u[len(u) - min(k, len(u)):]) + x)
        assert _join(u, v) == free_reduce(u + v)

    @given(long_words(), long_words(), st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_join_of_long_words(self, u, x, k):
        # Up to 600 letters, so the cancelled length crosses many 8-byte
        # boundaries; k = |u| with x empty cancels u completely.
        v = free_reduce(word_inverse(u[len(u) - min(k, len(u)):]) + x)
        assert _join(u, v) == free_reduce(u + v)
        assert _join(u, word_inverse(u)) == b""

    def test_join_at_every_cancelled_length(self):
        u = random_word(random.Random(5), 3, 700)
        for c in range(len(u) + 1):
            v = word_inverse(u[len(u) - c:]) + b"d"
            assert _join(u, v) == u[:len(u) - c] + b"d"
            assert _join(u, v[:-1]) == u[:len(u) - c]

    @pytest.mark.parametrize("u, v, uv", [
        (b"", b"", b""), (b"a", b"", b"a"), (b"", b"A", b"A"),
        (b"a", b"A", b""), (b"A", b"a", b""), (b"a", b"a", b"aa"),
        (b"a", b"B", b"aB"), (b"ab", b"Ba", b"aa"), (b"b", b"BA", b"A"),
    ])
    def test_join_of_short_words(self, u, v, uv):
        assert _join(u, v) == uv


class TestTwistedPowerNorms:
    @given(substitutions(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_jacobian_matches_right_recursion(self, phi, N):
        D = jacobian(phi)
        assert twisted_power_norms(phi, D, N) == \
            reference_twisted_power_norms(phi, D, N)

    @given(substitutions().flatmap(
        lambda phi: st.tuples(st.just(phi), ring_matrices(phi.rank))),
        st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_signed_matrix_matches_right_recursion(self, case, N):
        phi, A = case
        assert twisted_power_norms(phi, A, N) == \
            reference_twisted_power_norms(phi, A, N)

    @given(substitutions(), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_single_norm_is_last_of_list(self, phi, n):
        D = jacobian(phi)
        assert twisted_power_norm(phi, D, n) == \
            twisted_power_norms(phi, D, n)[-1]

    def test_frontier_past_the_term_cap(self):
        # n = 6 has 20295 terms, beyond the command line's cap of 4096
        phi = FreeGroupEndo.from_strings(3, ["abcAB", "bcaBC", "cabCA"])
        norms = twisted_power_norms(phi, jacobian(phi), 6)
        assert norms == power_image_lengths(phi, 6)
        assert norms[-1] == 20295

    def test_whole_junction_cancelled_at_every_step(self):
        # every product has a pair u X with u = X^-1, which cancels the
        # whole base, K = |X| = hi, and moves on only the terms at l = K
        phi = FreeGroupEndo.from_strings(2, ["BB", "baa"])
        norms = twisted_power_norms(phi, jacobian(phi), 8)
        assert norms == power_image_lengths(phi, 8)
        assert norms[-1] == 1687

    @pytest.mark.parametrize("N", [1, 2])
    def test_matrix_words_beyond_the_rank(self, N, monkeypatch):
        # the letter c has no image under a rank-2 phi: no product is taken
        monkeypatch.setattr(fox, "_chain_matmul", None)
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        A = GroupRingMatrix([[GroupRingElement({b"c": 1})]])
        with pytest.raises(ValueError, match="beyond rank 2"):
            twisted_power_norms(phi, A, N)

    def test_word_longer_than_the_recursion_limit(self):
        # the prefix sweep walks the 1500 prefixes of w in a loop
        rng, w = random.Random(7), b"a"
        while len(w) < 1500:
            w += bytes([rng.choice([e for e in b"abAB" if e ^ 32 != w[-1]])])
        phi = FreeGroupEndo.from_strings(2, ["b", "a"])
        one = GroupRingElement.one()
        A = GroupRingMatrix([
            [GroupRingElement({w: 1}), one],
            [one, GroupRingElement({word_inverse(w): -1})]])
        assert twisted_power_norms(phi, A, 3) == \
            reference_twisted_power_norms(phi, A, 3)

    def test_errors_from_both(self):
        phi = FreeGroupEndo.from_strings(2, ["ab", "a"])
        D = jacobian(phi)
        for fn in (twisted_power_norm, twisted_power_norms):
            with pytest.raises(NotSquare):
                fn(phi, GroupRingMatrix([[GroupRingElement.one()] * 2]), 2)
            with pytest.raises(ValueError):
                fn(phi, D, 0)


def reference_power_image_lengths(phi, N):
    """[sum_i |phi^n(a_i)| for n = 1..N], rebuilding phi(w) from the letter
    images of every reduced image w and reducing it letter by letter."""
    letter_images = {}
    for g, w in zip(GENERATORS, phi.images):
        letter_images[g], letter_images[g ^ 32] = w, word_inverse(w)
    images = phi.images
    lengths = [sum(map(len, images))]
    for _ in range(N - 1):
        images = [free_reduce(b"".join(map(letter_images.__getitem__, w)))
                  for w in images]
        lengths.append(sum(map(len, images)))
    return lengths


@st.composite
def short_substitutions(draw):
    """Substitutions of ranks 1 to 4 with images of up to three letters,
    the empty image included."""
    rank = draw(st.integers(1, 4))
    return FreeGroupEndo(
        rank, tuple(draw(reduced_words(rank, 3)) for _ in range(rank)))


class TestImageJunctions:
    """The piece reduction of ``power_image_lengths`` against letter-by-letter
    free reduction."""

    @staticmethod
    def cancelled(u, v):
        return (len(u) + len(v) - len(free_reduce(u + v))) // 2

    @given(words, words, st.integers(0, 25))
    @settings(max_examples=200, deadline=None)
    def test_cancelled_length_is_free_reduction(self, u, x, k):
        # v starts by undoing the last k letters of u, then goes on with x
        v = free_reduce(word_inverse(u[len(u) - min(k, len(u)):]) + x)
        assert _cancelled_length(u, word_inverse(v)) == self.cancelled(u, v)

    @given(long_words(), long_words(), st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_cancelled_length_of_long_words(self, u, x, k):
        v = free_reduce(word_inverse(u[len(u) - min(k, len(u)):]) + x)
        assert _cancelled_length(u, word_inverse(v)) == self.cancelled(u, v)

    def test_every_cancelled_length(self):
        # Equal lengths, u cancelled whole (v = u^-1 d), v cancelled whole
        # (v a suffix of u^-1) and u v = 1, for every gallop and bisection
        # end point in a word of 429 letters.
        u = random_word(random.Random(5), 3, 700)
        for c in range(len(u) + 1):
            tail = word_inverse(u[len(u) - c:])
            for v in (tail, tail + b"d", tail + b"dd"):
                assert _cancelled_length(u, word_inverse(v)) == \
                    self.cancelled(u, v) == c
        assert _cancelled_length(u, u) == len(u)  # v = u^-1: u v = 1

    @pytest.mark.parametrize("u, v, k", [
        (b"", b"", 0), (b"a", b"", 0), (b"", b"A", 0), (b"a", b"A", 1),
        (b"ab", b"BA", 2), (b"ab", b"Ba", 1), (b"ab", b"BAc", 2),
        (b"cab", b"BA", 2), (b"ab", b"ab", 0), (b"aB", b"bA", 2),
    ])
    def test_short_junctions(self, u, v, k):
        assert _cancelled_length(u, word_inverse(v)) == k

    @given(st.integers(1, 4).flatmap(
        lambda rank: st.lists(reduced_words(rank, 6), max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_reduced_product_is_free_reduction(self, pieces):
        assert _reduced_product((v, word_inverse(v)) for v in pieces) == \
            free_reduce(b"".join(pieces))

    @pytest.mark.parametrize("pieces, product", [
        ([b"ab", b"c", b"CBA"], b""),  # a cascade pops two pieces
        ([b"ab", b"c", b"CBd"], b"ad"),
        ([b"ab", b"", b"B"], b"a"),
        ([b"a", b"b", b"B", b"A", b"c"], b"c"),
    ])
    def test_cascades(self, pieces, product):
        assert _reduced_product((v, word_inverse(v)) for v in pieces) == \
            product


class TestPowerImageLengths:
    """The formula route of the twisted power norms of the Jacobian J.

    The chain rule makes P_n of ``twisted_power_norms`` the Jacobian of
    phi^n.  The Fox derivative of a freely reduced word w by a_j has one
    term +-(prefix of w) per letter a_j^+-1 of w; two of them could share a
    word only at an a_j^-1 a_j pair, which w does not contain.  So nothing
    cancels, and ||(zJ)^n|| = sum_i |phi^n(a_i)|.  The fixed cases have
    iterates that cancel, so a route that counts the letters of the
    unreduced images fails them.
    """

    @given(substitutions(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_lengths_are_the_ring_product_norms(self, phi, N):
        assert power_image_lengths(phi, N) == \
            twisted_power_norms(phi, jacobian(phi), N)

    @given(short_substitutions(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_lengths_match_the_per_letter_reference(self, phi, N):
        assert power_image_lengths(phi, N) == \
            reference_power_image_lengths(phi, N)

    @pytest.mark.parametrize("images, norms", [
        (["ab", "B"], [3, 2, 3, 2, 3, 2]),
        (["ba", "A"], [3, 5, 8, 11, 13, 16]),
        (["ab", "a"], [3, 5, 8, 13, 21, 34]),
        (["aB", "bA"], [4, 8, 16, 32, 64, 128]),
        (["ab", "BA"], [4, 0, 0, 0, 0, 0]),  # phi^2(a) = ab BA = 1
        (["", "ab"], [2, 2, 2, 2, 2, 2]),
    ])
    def test_fixed_cases(self, images, norms):
        phi = FreeGroupEndo.from_strings(2, images)
        assert power_image_lengths(phi, len(norms)) == norms
        assert reference_power_image_lengths(phi, len(norms)) == norms
        assert twisted_power_norms(phi, jacobian(phi), len(norms)) == norms

    def test_cascade_over_two_pieces(self):
        # phi^2(a) = phi(b) phi(b) phi(a) = B . B . bba: the piece bba pops
        # both pieces B and leaves a.
        phi = FreeGroupEndo.from_strings(2, ["bba", "B"])
        assert power_image_lengths(phi, 2) == [4, 2]
        assert power_image_lengths(phi, 8) == \
            reference_power_image_lengths(phi, 8)

    def test_rank_three_frontier_substitution(self):
        phi = FreeGroupEndo.from_strings(3, ["abcAB", "bcaBC", "cabCA"])
        assert power_image_lengths(phi, 8) == \
            [15, 63, 267, 1131, 4791, 20295, 85971, 364179]

    def test_n_below_one(self):
        with pytest.raises(ValueError):
            power_image_lengths(FreeGroupEndo(2, (b"a", b"b")), 0)
