import collections
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistedzeta import (
    IntMatrix,
    ProductEndomorphism,
    char_poly,
    class_function_matrix,
    count_eigen_signs,
    endo_from_generator_images,
    eventual_image,
    exterior_power,
    identity_endo,
    iterate_endo,
    kron,
    mat_pow,
    phi_conjugacy_classes,
    r_abelian,
    r_abelian_smith,
    r_abelian_trace,
    r_finite,
    r_product,
    r_product_counts,
    r_product_oracle,
    r_product_oracles,
    r_product_trace,
    r_product_traces,
)
from twistedzeta.errors import (
    EigenvalueOnBoundary,
    InfiniteReidemeister,
    NotAHomomorphism,
)
from twistedzeta.intlinalg import det

from catalog import (
    any_products,
    catalog_with_endos,
    cyclic6_doubling,
    cyclic_group,
    klein_swap,
    largest_factor,
    product_catalog,
    record_row_products,
    small_finite,
    sym3,
    wide_products,
)


class TestFiniteCounts:
    def test_identity_counts_ordinary_classes(self):
        G, _ = sym3()
        assert r_finite(G, identity_endo(G)) == 3

    def test_klein_swap(self):
        K, swap = klein_swap()
        assert r_finite(K, swap) == 2

    def test_cyclic6_doubling(self):
        C6, phi = cyclic6_doubling()
        assert r_finite(C6, phi) == 1

    def test_agrees_with_orbit_oracle_on_catalog(self):
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                assert (r_finite(G, phi)
                        == phi_conjugacy_classes(G, phi).num_classes), name

    def test_trace_of_class_map_agrees(self):
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                B = class_function_matrix(G, phi)
                assert B.trace() == r_finite(G, phi), name

    def test_class_map_columns_are_stochastic(self):
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                B = class_function_matrix(G, phi)
                for j in range(B.cols):
                    assert sum(B[i, j] for i in range(B.rows)) == 1, name

    def test_eventual_image_reduction(self):
        # count on G matches count on the stabilised image subgroup
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                H, phi_H, _ = eventual_image(G, phi)
                assert r_finite(G, phi) == r_finite(H, phi_H), name


class TestAbelianCounts:
    def test_doubling_minus_example(self):
        assert r_abelian(IntMatrix([[-2]])) == 3

    def test_singular_case_is_infinite(self):
        with pytest.raises(InfiniteReidemeister):
            r_abelian(IntMatrix([[1]]))

    def test_rank_zero(self):
        assert r_abelian(IntMatrix([])) == 1

    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-5, 5), min_size=k, max_size=k),
            min_size=k, max_size=k).map(IntMatrix)))
    @settings(max_examples=120, deadline=None)
    def test_three_routes_agree(self, M):
        try:
            base = r_abelian(M)
        except InfiniteReidemeister:
            return
        assert r_abelian_smith(M) == base
        try:
            assert r_abelian_trace(M) == base
        except EigenvalueOnBoundary:
            pass

    def test_trace_route_on_known_matrix(self):
        M = IntMatrix([[2, 1], [1, 1]])
        assert r_abelian_trace(M) == r_abelian(M) == 1


class TestProduct:
    def test_constructor_rejects_noncommuting_psi(self):
        G, gens = sym3()
        with pytest.raises(NotAHomomorphism):
            ProductEndomorphism(IntMatrix([[-2], ]), (gens[1],),
                                identity_endo(G), G)

    def test_klein_swap_times_doubling(self):
        K, swap = klein_swap()
        P = ProductEndomorphism(IntMatrix([[-2]]), (K.identity,), swap, K)
        assert r_product(P) == 6
        assert r_product_trace(P) == 6
        assert r_product_oracle(P) == 6
        assert r_product(P, 2) == r_product_oracle(P, 2) == 12

    def test_infinite_iterate_carries_its_n(self):
        # det(I - M) = 2 but det(I - M^2) = 0
        P = ProductEndomorphism.from_matrix(IntMatrix([[-1]]))
        assert r_product(P) == 2
        with pytest.raises(InfiniteReidemeister) as info:
            r_product(P, 2)
        assert info.value.n == 2

    def test_oracle_raises_on_an_infinite_iterate(self):
        P = ProductEndomorphism.from_matrix(IntMatrix([[-1]]))
        with pytest.raises(InfiniteReidemeister) as info:
            r_product_oracle(P, 2)
        assert info.value.n == 2
        assert str(info.value) == "det(I - M^2) = 0"

    def test_one_determinant_per_iterate(self, monkeypatch):
        import twistedzeta.reidemeister as reidemeister
        calls = []

        def counting_det(A):
            calls.append(A)
            return det(A)

        monkeypatch.setattr(reidemeister, "det", counting_det)
        K, swap = klein_swap()
        P = ProductEndomorphism(IntMatrix([[-2]]), (K.identity,), swap, K)
        assert r_product(P, 3) == 9 * 2
        assert len(calls) == 1

    def test_pure_lattice_reduces_to_abelian(self):
        M = IntMatrix([[2, 1], [1, 1]])
        P = ProductEndomorphism.from_matrix(M)
        for n in (1, 2, 3):
            assert r_product(P, n) == r_abelian(mat_pow(M, n))

    def test_catalog_three_way(self):
        for P in product_catalog():
            for n in (1, 2):
                base = r_product(P, n)
                assert r_product_trace(P, n) == base, n
                cells = r_abelian(mat_pow(P.M, n)) * P.F.order
                if cells <= 400:
                    assert r_product_oracle(P, n) == base, n

    def test_nontrivial_psi_shifts_nothing(self):
        # replacing a representative (v, f) by (v + (I - M)u, f') with the
        # matching f' from the twisting must not change the class count;
        # here we just check psi actually participates in the F-part.
        C6, phi = cyclic6_doubling()
        P = ProductEndomorphism(IntMatrix([[3]]), (1,), phi, C6)
        assert _apply(P, (1,), 0)[1] != _apply(P, (0,), 0)[1]
        assert r_product(P) == r_product_oracle(P) == r_product_trace(P)

    def test_oracle_sees_psi_twist(self):
        # with psi nontrivial, two pairs in the same lattice coset can land
        # in different twisted classes or merge, and the oracle must agree
        # with the product formula either way
        C4, _ = cyclic_group(4)
        phi = endo_from_generator_images(C4, [3])  # inversion
        for psi in (0, 1, 2, 3):
            P = ProductEndomorphism(IntMatrix([[-1]]), (psi,), phi, C4)
            assert r_product_oracle(P) == r_product(P)

    def test_commutation_is_checked_on_generator_images(self):
        # A psi image must commute with phi_F(s) for each generator s of F;
        # the phi_F(s) generate the image, so the constructor accepts
        # exactly the psi that commute with every element of the image.
        accepted = rejected = 0
        for G, endos in small_finite():
            for phi in endos:
                image = set(phi.image)
                for a in G.elements():
                    central = all(G.mult[a][f] == G.mult[f][a] for f in image)
                    try:
                        ProductEndomorphism(IntMatrix([[2]]), (a,), phi, G)
                    except NotAHomomorphism:
                        assert not central, (phi, a)
                        rejected += 1
                    else:
                        assert central, (phi, a)
                        accepted += 1
        assert accepted and rejected


def _psi_value(P, v):
    """psi(v) = product of psi_i^(v_i) in F."""
    acc = P.F.identity
    for base, e in zip(P.psi, v):
        acc = P.F.mult[acc][P.F.power(base, e)]
    return acc


def _times(A, v):
    """The matrix A times the column vector v."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A.entries)


def _apply(P, v, f):
    """The map (v, f) -> (M v, psi(v) * phi_F(f))."""
    return _times(P.M, v), P.F.mult[_psi_value(P, v)][P.phiF(f)]


def _lattice_finite_part(P, v, n):
    """F-component of the n-th iterate applied to (v, identity)."""
    f = P.F.identity
    for _ in range(n):
        v, f = _apply(P, v, f)
    return f


def _adjugate(A):
    """adj A, entry (i, j) the (j, i) cofactor: A adj A = det(A) I."""
    k = A.rows
    rest = [[t for t in range(k) if t != i] for i in range(k)]
    return IntMatrix([[(-1) ** (i + j) * det(A.submatrix(rest[j], rest[i]))
                       for j in range(k)] for i in range(k)], rows=k, cols=k)


def _pairwise_oracle(P, n):
    """Reference enumeration: union-find over every pair of the N =
    #cosets * |F| representatives, each pair tested with the two-condition
    criterion; O(N^2) pair tests.

    For A = I - M^n, D = det A and C = adj A, A C = D I, so v lies in
    A Z^k iff C v = 0 mod D, and then v = A w for w = C v / D.  The
    residues of C v mod D key the cosets, and a breadth-first walk over
    +-e_i from 0 takes one representative of each of the |D| keys.
    """
    A = IntMatrix.identity(P.k) - mat_pow(P.M, n)
    phin = iterate_endo(P.phiF, n)
    F = P.F
    D, C = det(A), _adjugate(A)
    assert (A @ C).entries == tuple(tuple(D * (i == j) for j in range(P.k))
                                    for i in range(P.k)) and D != 0

    def key(v):
        return tuple(x % D for x in _times(C, v))

    origin = (0,) * P.k
    cosets = {key(origin): origin}
    queue = collections.deque([origin])
    while len(cosets) < abs(D):
        v = queue.popleft()
        for i, step in itertools.product(range(P.k), (1, -1)):
            u = v[:i] + (v[i] + step,) + v[i + 1:]
            if key(u) not in cosets:
                cosets[key(u)] = u
                queue.append(u)
    elements = [(v, f) for v in cosets.values() for f in F.elements()]

    def solve(delta):
        x = _times(C, delta)
        if any(xi % D for xi in x):
            return None
        return tuple(xi // D for xi in x)

    def equivalent(g1, g2):
        (v1, f1), (v2, f2) = g1, g2
        w = solve(tuple(a - b for a, b in zip(v2, v1)))
        if w is None:
            return False
        f2c = F.mult[f2][_lattice_finite_part(P, w, n)]
        return any(F.mult[h][f1] == F.mult[f2c][phin(h)]
                   for h in F.elements())

    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if find(i) != find(j) and equivalent(elements[i], elements[j]):
                parent[find(j)] = find(i)
    return len({find(i) for i in range(len(elements))})


@st.composite
def small_products(draw):
    """(P, n): k <= 2, |F| <= 8, any phi_F, any commuting psi, n <= 3."""
    k = draw(st.integers(0, 2))
    M = IntMatrix(draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=k, max_size=k),
        min_size=k, max_size=k)), rows=k, cols=k)
    n = draw(st.integers(1, 3))
    try:
        cosets = r_abelian(mat_pow(M, n))
    except InfiniteReidemeister:
        cosets = None
    assume(cosets is not None and cosets <= 16)
    G, endos = draw(st.sampled_from(small_finite()))
    phiF = draw(st.sampled_from(endos))
    image = set(phiF.image)
    commuting = [a for a in G.elements()
                 if all(G.mult[a][f] == G.mult[f][a] for f in image)]
    psi = tuple(draw(st.sampled_from(commuting)) for _ in range(k))
    try:
        P = ProductEndomorphism(M, psi, phiF, G)
    except NotAHomomorphism:
        P = None
    assume(P is not None)
    return P, n


class TestOrbitOracle:
    @given(small_products())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_enumeration(self, case):
        P, n = case
        assert r_product_oracle(P, n) == _pairwise_oracle(P, n)

    def test_non_bijective_phi_and_nontrivial_psi(self):
        # doubling on C6 has image {0, 2, 4}; psi sends each basis vector
        # to the generator
        C6, doubling = cyclic6_doubling()
        assert len(set(doubling.image)) == 3
        for M in (IntMatrix([[-2]]), IntMatrix([[0, 2], [1, 0]])):
            P = ProductEndomorphism(M, (1,) * M.rows, doubling, C6)
            for n in (1, 2, 3):
                assert (r_product_oracle(P, n) == _pairwise_oracle(P, n)
                        == r_product(P, n)), (M, n)


def _one_by_one(P, N):
    """r_product for n = 1..N, and (n, message) of the first that raises."""
    counts = []
    for n in range(1, N + 1):
        try:
            counts.append(r_product(P, n))
        except InfiniteReidemeister as exc:
            return counts, (exc.n, str(exc))
    return counts, None


class TestCountSequence:
    def test_matches_single_iterates_on_catalog(self):
        for P in product_catalog():
            assert r_product_counts(P, 12) == [
                r_product(P, n) for n in range(1, 13)]

    @given(any_products())
    @settings(max_examples=150, deadline=None)
    def test_matches_single_iterates(self, case):
        P, N = case
        counts, error = _one_by_one(P, N)
        if error is None:
            assert r_product_counts(P, N) == counts
        else:
            with pytest.raises(InfiniteReidemeister) as info:
                r_product_counts(P, N)
            assert (info.value.n, str(info.value)) == error

    def test_first_infinite_iterate_raises_like_r_product(self):
        # M = [[0, -1], [1, 0]] has order 4: det(I - M^4) = 0
        P = ProductEndomorphism.from_matrix(IntMatrix([[0, -1], [1, 0]]))
        assert r_product_counts(P, 3) == [2, 4, 2]
        counts, error = _one_by_one(P, 6)
        assert error == (4, "det(I - M^4) = 0")
        with pytest.raises(InfiniteReidemeister) as info:
            r_product_counts(P, 6)
        assert (info.value.n, str(info.value)) == error


def _oracle_one_by_one(P, N):
    """r_product_oracle for n = 1..N, and (n, message) of the first that
    raises."""
    counts = []
    for n in range(1, N + 1):
        try:
            counts.append(r_product_oracle(P, n))
        except InfiniteReidemeister as exc:
            return counts, (exc.n, str(exc))
    return counts, None


class TestOracleSequence:
    def test_matches_single_iterates_on_catalog(self):
        for P in product_catalog():
            assert r_product_oracles(P, 8) == [
                r_product_oracle(P, n) for n in range(1, 9)]

    @given(any_products())
    @settings(max_examples=100, deadline=None)
    def test_matches_single_iterates(self, case):
        P, N = case
        counts, error = _oracle_one_by_one(P, N)
        if error is None:
            assert r_product_oracles(P, N) == counts
        else:
            with pytest.raises(InfiniteReidemeister) as info:
                r_product_oracles(P, N)
            assert (info.value.n, str(info.value)) == error

    def test_gate_reads_the_ladder(self):
        # the gate sees M^n for n = 1..N in turn, and a closed gate leaves
        # None where the count would be
        C6, doubling = cyclic6_doubling()
        M = IntMatrix([[0, 2], [1, 0]])
        P = ProductEndomorphism(M, (1, 1), doubling, C6)
        seen = []

        def gate(power):
            seen.append(power)
            return len(seen) % 2 == 1

        counts = r_product_oracles(P, 5, gate)
        assert seen == [mat_pow(M, n) for n in range(1, 6)]
        assert counts == [r_product_oracle(P, n) if n % 2 else None
                          for n in range(1, 6)]

    def test_each_distinct_iterate_is_enumerated_once(self, monkeypatch):
        # doubling on C6 has period 2, phi^3 = 8x = phi, so twelve
        # iterates are two distinct maps
        from twistedzeta import reidemeister
        calls = []
        real = reidemeister.phi_conjugacy_classes
        monkeypatch.setattr(reidemeister, "phi_conjugacy_classes",
                            lambda G, phi: calls.append(phi.image)
                            or real(G, phi))
        C6, doubling = cyclic6_doubling()
        P = ProductEndomorphism(IntMatrix([[-2]]), (1,), doubling, C6)
        counts = r_product_oracles(P, 12)
        assert len(calls) == len(set(calls)) == len(
            {iterate_endo(doubling, n).image for n in range(1, 13)})
        monkeypatch.undo()
        assert counts == [r_product_oracle(P, n) for n in range(1, 13)]


class TestTraceSequence:
    def test_matches_single_iterates_on_catalog(self):
        # N = 0 asks for no iterate, so there are no levels of M^1 to read.
        for P in product_catalog():
            for N in (0, 12):
                assert r_product_traces(P, N) == [
                    r_product_trace(P, n) for n in range(1, N + 1)]

    def test_first_infinite_iterate_raises(self):
        # M = -1: det(I - M) = 2 but det(I - M^2) = 0
        P = ProductEndomorphism.from_matrix(IntMatrix([[-1]]))
        with pytest.raises(InfiniteReidemeister) as info:
            r_product_traces(P, 2)
        assert info.value.n == 2


def block_traces(P, N):
    """The signed trace from the blocks kron(wedge^i M, B), each raised to
    its powers: (-1)^(r+p*n) sum_i (-1)^i Tr kron(wedge^i M, B)^n."""
    p, r = count_eigen_signs(char_poly(P.M))
    B = class_function_matrix(P.F, P.phiF)
    blocks = [kron(exterior_power(P.M, i), B) for i in range(P.k + 1)]
    powers = [IntMatrix.identity(X.rows) for X in blocks]
    counts = []
    for n in range(1, N + 1):
        powers = [Xn @ X for Xn, X in zip(powers, blocks)]
        total = sum((-1) ** i * X.trace() for i, X in enumerate(powers))
        counts.append((-1) ** ((r + p * n) % 2) * total)
    return counts


class TestTracesWithoutBlocks:
    """The trace route from power traces of M^n and B against the block
    loop."""

    def test_matches_block_powers_on_catalog(self):
        for P in [*product_catalog(), *wide_products()]:
            assert r_product_traces(P, 12) == block_traces(P, 12)

    @given(any_products())
    @settings(max_examples=150, deadline=None)
    def test_matches_block_powers(self, case):
        P, _ = case
        I = IntMatrix.identity(P.k)
        infinite = next((n for n in range(1, 13)
                         if det(I - mat_pow(P.M, n)) == 0), None)
        if infinite is None:
            assert r_product_traces(P, 12) == block_traces(P, 12)
        else:
            with pytest.raises(InfiniteReidemeister) as info:
                r_product_traces(P, 12)
            assert info.value.n == infinite

    def test_powers_no_matrix_larger_than_a_factor(self, monkeypatch):
        # Only M (k x k) and B (one row per class) are multiplied: no level
        # wedge^i M, of dimension up to C(k, k//2), and no block.
        sizes = record_row_products(monkeypatch)
        for P in [*product_catalog(), *wide_products()]:
            sizes.clear()
            r_product_traces(P, 12)
            assert max(sizes, default=0) <= largest_factor(P)
