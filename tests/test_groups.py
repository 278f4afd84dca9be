import itertools
import random

import pytest

from twistedzeta import (
    GroupEndomorphism,
    endo_from_generator_images,
    eventual_image,
    group_from_permutations,
    identity_endo,
    iterate_endo,
    ordinary_conjugacy_classes,
    phi_conjugacy_classes,
    trivial_group,
)
from twistedzeta import groups
from twistedzeta.errors import (
    ClosureTooLarge,
    NotAHomomorphism,
    NotAPermutation,
)

from catalog import (
    all_endomorphisms,
    catalog_with_endos,
    cyclic6_doubling,
    finite_catalog,
    klein_four,
    klein_swap,
    sym3,
    sym4,
)
from references import check_axioms


def _power_by_steps(G, g, n):
    if n < 0:
        g, n = G.inv[g], -n
    acc = G.identity
    for _ in range(n):
        acc = G.mult[acc][g]
    return acc


class TestPower:
    def test_matches_step_by_step_loop(self):
        exponents = (0, 1, 2, 3, -1, -2, -7, 64, 97, -255, 1000, -1001)
        for name, G, _ in finite_catalog():
            for g in G.elements():
                for n in exponents:
                    assert G.power(g, n) == _power_by_steps(G, g, n), (name, n)

    def test_huge_exponents_reduce_modulo_the_order(self):
        # g^|G| = e, so the loop on n mod |G| is the reference
        for name, G, _ in finite_catalog():
            for g in G.elements():
                for n in (10 ** 18 + 7, -(2 ** 61 - 1)):
                    assert (G.power(g, n)
                            == _power_by_steps(G, g, n % G.order)), (name, n)


class TestGroupFromPermutations:
    def test_sym3_has_order_6(self):
        G = group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
        assert G.order == 6

    def test_trivial_closure(self):
        G = group_from_permutations(1, [])
        assert G.order == 1

    def test_klein_four_closure(self):
        G, _ = klein_four()
        assert G.order == 4
        assert all(G.inv[g] == g for g in G.elements())

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            group_from_permutations(3, [(0, 0, 1)])

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
        with pytest.raises(ClosureTooLarge):
            group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])

    def test_axioms_hold_for_whole_catalog(self):
        for name, G, _ in finite_catalog():
            check_axioms(G)


def _closure_by_composition(degree, gens):
    """Test-local reference: every product of two elements composed, the
    elements sorted by their image tuples."""
    compose = lambda p, q: tuple(p[x] for x in q)  # noqa: E731
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        frontier = [pq for pq in {compose(p, q) for p in frontier
                                  for q in gens} if pq not in seen]
        seen.update(frontier)
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    identity = index[tuple(range(degree))]
    assert identity == 0
    inv = tuple(next(q for q in range(len(perms))
                     if mult[p][q] == identity) for p in range(len(perms)))
    return mult, inv, tuple(perms)


def _regular_representation(G, gens):
    """Left multiplication by each generator, as a permutation of G."""
    return [tuple(G.mult[g][x] for x in G.elements()) for g in gens]


class TestClosureByLookups:
    def assert_matches_reference(self, degree, gens, axioms=True):
        G = group_from_permutations(degree, gens)
        assert (G.mult, G.inv, G.perms) == \
            _closure_by_composition(degree, gens)
        assert G.identity == 0
        assert all(G.index[p] == g for g, p in enumerate(G.perms))
        if axioms:
            check_axioms(G)
        return G

    def test_every_catalog_group(self):
        for name, G, gens in finite_catalog():
            H = self.assert_matches_reference(
                G.order, _regular_representation(G, gens))
            assert H.order == G.order, name

    def test_random_generators_in_s5_and_s6(self):
        rng = random.Random(5)
        cases = [(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])]  # all of S6
        cases += [(degree, [tuple(rng.sample(range(degree), degree))
                            for _ in range(rng.randint(1, 3))])
                  for degree, count in ((5, 12), (6, 4))
                  for _ in range(count)]
        orders = set()
        for degree, gens in cases:
            # check_axioms takes order^3 steps: 3.7e8 on S6
            G = self.assert_matches_reference(degree, gens,
                                              axioms=degree == 5)
            orders.add(G.order)
        assert {720, 120} <= orders and len(orders) > 4


class TestEndoFromGeneratorImages:
    def test_identity_on_sym3(self):
        G, gens = sym3()
        phi = endo_from_generator_images(G, gens)
        assert phi.image == identity_endo(G).image

    def test_klein_swap_has_order_two(self):
        K, swap = klein_swap()
        assert iterate_endo(swap, 2).image == identity_endo(K).image
        assert swap.image != identity_endo(K).image

    def test_cyclic6_doubling(self):
        C6, phi = cyclic6_doubling()
        assert phi.image == (0, 2, 4, 0, 2, 4)
        assert len(set(phi.image)) == 3

    def test_rejects_non_homomorphism(self):
        G, gens = sym3()
        # send the 3-cycle to a transposition: orders are incompatible
        with pytest.raises(NotAHomomorphism):
            endo_from_generator_images(G, [gens[1], gens[1]])


def _first_assignment_table(G, generators, images):
    """phi(g*s) = phi(g)*t at the first visit of g*s, breadth-first from the
    identity, with no check of later edges."""
    table, frontier = {G.identity: G.identity}, [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, t in zip(generators, images):
                if G.mult[g][s] not in table:
                    table[G.mult[g][s]] = G.mult[table[g]][t]
                    nxt.append(G.mult[g][s])
        frontier = nxt
    return GroupEndomorphism(tuple(table[g] for g in G.elements()))


def _is_hom_by_full_table(G, phi):
    """Test-local reference: phi(g*h) = phi(g)*phi(h) over all |G|^2
    pairs, with no use of generators."""
    return all(phi(G.mult[g][h]) == G.mult[phi(g)][phi(h)]
               for g in G.elements() for h in G.elements())


def _validates(G, phi):
    try:
        phi.validate(G)
    except NotAHomomorphism:
        return False
    return True


def _with_corruptions(G, phi):
    """phi and every table that differs from it in one entry."""
    return [phi] + [GroupEndomorphism(phi.image[:g] + (v,) + phi.image[g + 1:])
                    for g in G.elements() for v in G.elements()
                    if v != phi.image[g]]


def _catalog_with_recorded_generators():
    """(name, group, generators) for every catalog group with at most two
    generators, and again as the closure of its regular representation."""
    out = []
    for name, G, gens in finite_catalog():
        if len(gens) > 2:
            continue
        out.append((name, G, gens))
        H = group_from_permutations(G.order, _regular_representation(G, gens))
        out.append((f"{name} (closed)", H, list(H.generators)))
    return out


class TestValidateOnCayleyEdges:
    def test_generators_are_recorded_outside_equality(self):
        # Equality and hashing read the permutations only: the same group
        # closed from another generating set is equal, with its own
        # generators recorded.
        G, gens = sym3()
        H = group_from_permutations(3, [(1, 0, 2), (1, 2, 0), (0, 2, 1)])
        assert [G.perms[s] for s in gens] == [(1, 2, 0), (1, 0, 2)]
        assert [H.perms[s] for s in H.generators] == [
            (1, 0, 2), (1, 2, 0), (0, 2, 1)]
        assert H == G and hash(H) == hash(G)
        assert trivial_group().generators == ()
        assert trivial_group().perms == ((0,),)

    def test_matches_full_table_on_every_assignment(self):
        # validate accepts and rejects exactly what the |G|^2 reference
        # does, on the first-word table of every generator-image assignment
        # (a homomorphism or not) and on every single-entry corruption of
        # the homomorphisms among them.
        rejected = corrupted = 0
        for name, G, gens in _catalog_with_recorded_generators():
            for images in itertools.product(G.elements(), repeat=len(gens)):
                table = _first_assignment_table(G, gens, images)
                tables = [table]
                if _is_hom_by_full_table(G, table):
                    tables = _with_corruptions(G, table)
                    corrupted += len(tables) - 1
                for phi in tables:
                    accepted = _validates(G, phi)
                    assert accepted == _is_hom_by_full_table(G, phi), (
                        name, images, phi)
                    rejected += not accepted
        assert rejected and corrupted

    def test_matches_full_table_on_eventual_images(self):
        # The eventual image of a map that is not onto is closed from the
        # images of the generators: validate decides on its edges exactly
        # as the full-table reference, on the restriction and its square
        # and on every single-entry corruption of them.
        images = checked = rejected = 0
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                H, phi_H, _ = eventual_image(G, phi)
                if H is G or H.order == 1:
                    continue
                images += 1
                for psi in (phi_H, iterate_endo(phi_H, 2)):
                    for table in _with_corruptions(H, psi):
                        accepted = _validates(H, table)
                        assert accepted == _is_hom_by_full_table(H, table), (
                            name, phi, table)
                        checked += 1
                        rejected += not accepted
        assert images > 2 and rejected and checked > rejected

    def test_swap_off_the_generators_is_caught(self):
        # Exchanging the images of two elements that are neither generators
        # nor the identity keeps phi a bijection that fixes every generator;
        # the edge pass still rejects it, as the induction reaches every
        # product g*h from the edges.
        G, gens = sym4()
        a, b = [g for g in G.elements()
                if g not in gens and g != G.identity][:2]
        image = list(identity_endo(G).image)
        image[a], image[b] = image[b], image[a]
        phi = GroupEndomorphism(tuple(image))
        assert not _is_hom_by_full_table(G, phi)
        with pytest.raises(NotAHomomorphism):
            phi.validate(G)


class TestEndoNeedsNoValidate:
    def test_succeeds_exactly_on_homomorphisms(self):
        # The consistency checks of the breadth-first pass prove the table
        # a homomorphism, so endo_from_generator_images runs no validate;
        # the |G|^2 reference, and not validate's own edge pass, decides
        # here.
        for name, G, gens in _catalog_with_recorded_generators():
            for images in itertools.product(G.elements(), repeat=len(gens)):
                table = _first_assignment_table(G, gens, images)
                is_hom = (_is_hom_by_full_table(G, table)
                          and all(table(s) == t
                                  for s, t in zip(gens, images)))
                try:
                    phi = endo_from_generator_images(G, list(images))
                except NotAHomomorphism:
                    phi = None
                assert (phi is not None) == is_hom, (name, images)
                if phi is not None:
                    assert phi == table, (name, images)


class TestConjugacy:
    def test_sym3_class_sizes(self):
        G, _ = sym3()
        part = ordinary_conjugacy_classes(G)
        sizes = sorted(part.class_of.count(c) for c in range(part.num_classes))
        assert sizes == [1, 2, 3]

    def test_trivial_group(self):
        assert ordinary_conjugacy_classes(trivial_group()).num_classes == 1

    def test_abelian_classes_are_singletons(self):
        K, _ = klein_four()
        assert ordinary_conjugacy_classes(K).num_classes == 4

    def test_phi_identity_matches_ordinary(self):
        for name, G, _ in finite_catalog():
            phi = identity_endo(G)
            assert (phi_conjugacy_classes(G, phi).num_classes
                    == ordinary_conjugacy_classes(G).num_classes), name

    def test_doubling_on_cyclic6_single_class(self):
        C6, phi = cyclic6_doubling()
        assert phi_conjugacy_classes(C6, phi).num_classes == 1

    def test_klein_swap_two_classes(self):
        K, swap = klein_swap()
        assert phi_conjugacy_classes(K, swap).num_classes == 2

    def test_inner_invariance(self):
        # R(phi o psi) = R(psi o phi) = R(phi) for inner psi
        G, gens = sym3()
        for phi in all_endomorphisms(G):
            base = phi_conjugacy_classes(G, phi).num_classes
            for gamma in G.elements():
                inner = endo_from_generator_images(
                    G, [G.mult[G.mult[gamma][s]][G.inv[gamma]] for s in gens])
                left = phi.compose(inner)
                right = inner.compose(phi)
                assert phi_conjugacy_classes(G, left).num_classes == base
                assert phi_conjugacy_classes(G, right).num_classes == base


class TestCachedPartition:
    def test_partitioned_once_and_equal_to_a_fresh_partition(self,
                                                             monkeypatch):
        from twistedzeta import groups
        calls = []
        real = groups.ordinary_conjugacy_classes
        monkeypatch.setattr(groups, "ordinary_conjugacy_classes",
                            lambda G: calls.append(G) or real(G))
        S3, _ = sym3()
        first = S3.conjugacy_classes
        assert S3.conjugacy_classes is first
        assert len(calls) == 1
        assert first == real(S3)

    def test_equality_and_hash_ignore_the_cache(self):
        a, _ = sym3()
        b, _ = sym3()
        before = hash(a)
        a.conjugacy_classes
        assert a == b and hash(a) == hash(b) == before


class TestIterate:
    def test_first_iterate_is_identity_operation(self):
        K, swap = klein_swap()
        assert iterate_endo(swap, 1).image == swap.image

    def test_doubling_squared(self):
        C6, phi = cyclic6_doubling()
        assert iterate_endo(phi, 2).image == tuple((4 * i) % 6 for i in range(6))

    def test_rejects_zero(self):
        K, swap = klein_swap()
        with pytest.raises(ValueError):
            iterate_endo(swap, 0)

    def test_matches_repeated_composition_on_the_catalog(self):
        # square and multiply against phi composed n times, on every
        # endomorphism of every catalog group, non-bijective ones included
        non_bijective = 0
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                non_bijective += not phi.is_bijective()
                power = phi
                for n in range(1, 13):
                    assert iterate_endo(phi, n) == power, (name, phi, n)
                    power = phi.compose(power)
        assert non_bijective

    def test_square_and_multiply_composition_count(self, monkeypatch):
        # phi^n takes bit_length(n) + popcount(n) - 2 compositions: 35 over
        # n = 1..12, where composing phi onto phi^(n-1) takes 66
        calls = []
        compose = GroupEndomorphism.compose
        monkeypatch.setattr(GroupEndomorphism, "compose",
                            lambda a, b: calls.append(1) or compose(a, b))
        _, phi = cyclic6_doubling()
        for n in range(1, 13):
            iterate_endo(phi, n)
        assert len(calls) == 35


class TestEventualImage:
    def test_automorphism_gives_whole_group(self):
        # Every automorphism of the catalog, the Klein swap among them: G
        # and phi come back as they are, with the identity embedding, and
        # no table is re-indexed.
        automorphisms = 0
        for name, G, endos in catalog_with_endos():
            for phi in filter(GroupEndomorphism.is_bijective, endos):
                H, phi_H, embedding = eventual_image(G, phi)
                assert H is G and phi_H is phi, (name, phi)
                assert embedding == tuple(G.elements())
                automorphisms += 1
        assert automorphisms > len(finite_catalog())

    def test_doubling_on_cyclic6(self):
        C6, phi = cyclic6_doubling()
        H, phi_H, embedding = eventual_image(C6, phi)
        assert H.order == 3
        assert phi_H.is_bijective()
        assert set(embedding) == {0, 2, 4}

    def test_constant_endomorphism(self):
        G, _ = sym3()
        const = type(identity_endo(G))((G.identity,) * G.order)
        H, _, _ = eventual_image(G, const)
        assert H.order == 1

    def test_class_count_is_preserved(self):
        # reduction to the eventual image does not change the count
        C6, phi = cyclic6_doubling()
        H, phi_H, _ = eventual_image(C6, phi)
        assert (phi_conjugacy_classes(C6, phi).num_classes
                == phi_conjugacy_classes(H, phi_H).num_classes)

    def test_closed_image_matches_the_brute_force_image_set(self):
        # For every catalog map that is not onto, the image closed from the
        # generators' images is the set phi^m(G) found by applying phi to
        # sets until they stop shrinking; its elements keep G's order, its
        # table is G's restricted, and phi_H is phi restricted.
        shrinking = 0
        for name, G, endos in catalog_with_endos():
            for phi in endos:
                if phi.is_bijective():
                    continue
                shrinking += 1
                image = set(G.elements())
                while {phi(g) for g in image} != image:
                    image = {phi(g) for g in image}
                H, phi_H, embedding = eventual_image(G, phi)
                assert embedding == tuple(sorted(image)), (name, phi)
                assert H.perms == tuple(G.perms[g] for g in embedding)
                for a in H.elements():
                    assert embedding[H.inv[a]] == G.inv[embedding[a]]
                    assert embedding[phi_H(a)] == phi(embedding[a])
                    for b in H.elements():
                        assert (embedding[H.mult[a][b]]
                                == G.mult[embedding[a]][embedding[b]])
                assert phi_H.is_bijective(), (name, phi)
                phi_H.validate(H)
        assert shrinking > len(finite_catalog())
