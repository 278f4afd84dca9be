"""Finite groups as explicit multiplication tables.

Everything here is index-based: a group of order n has elements 0..n-1 and is
stored as its full n x n multiplication table.  A group closed from
permutations also records the indices of the generators it was closed from.
Conjugacy searches stay exhaustive and exact, as every orbit visits the whole
group: these brute-force enumerations are the oracles against which the
closed formulas in the other modules are judged.  The homomorphism check
takes the Cayley edges (g, s) of the recorded generators s, |G| s products
for s generators, which prove a table a homomorphism (see
``GroupEndomorphism.validate``); a group with no recorded generators takes
every element as one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import (
    ClosureTooLarge,
    DoesNotGenerate,
    NotAHomomorphism,
    NotAPermutation,
)

DEFAULT_ORDER_CAP = 20000


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mult[g][h]`` is the product g*h, ``inv[g]`` the inverse of g and
    ``identity`` the index of the neutral element.  ``names`` is optional
    display labelling only.  ``generators``, when given, are the indices of
    a generating set (``group_from_permutations`` records the one it closed),
    and ``GroupEndomorphism.validate`` then checks O(order * s) products for
    s generators; without them every element is a generator, O(order^2)
    products.  The ordinary conjugacy classes are
    partitioned on first use and kept with the instance; equality and
    hashing see the first four fields only.
    """

    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int = 0
    names: tuple[str, ...] | None = None
    generators: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.mult)

    @functools.cached_property
    def conjugacy_classes(self) -> "ConjugacyPartition":
        """The ordinary conjugacy classes, partitioned once per group."""
        return ordinary_conjugacy_classes(self)

    def elements(self) -> range:
        return range(self.order)

    def power(self, g: int, n: int) -> int:
        if n < 0:
            g, n = self.inv[g], -n
        acc = self.identity
        while n:  # square and multiply: O(log n) table lookups
            if n & 1:
                acc = self.mult[acc][g]
            g = self.mult[g][g]
            n >>= 1
        return acc

    def subgroup(self, elems: list[int]) -> tuple["FiniteGroup", tuple[int, ...]]:
        """Re-index a closed subset as a standalone group.

        Returns the subgroup and the embedding (new index -> old index).
        Raises ValueError if ``elems`` is not closed under the group law.
        """
        embedding = tuple(sorted(set(elems)))
        back = {g: i for i, g in enumerate(embedding)}
        if self.identity not in back:
            raise ValueError("subset does not contain the identity")
        mult = []
        for a in embedding:
            row = []
            for b in embedding:
                ab = self.mult[a][b]
                if ab not in back:
                    raise ValueError("subset is not closed under multiplication")
                row.append(back[ab])
            mult.append(tuple(row))
        inv = tuple(back[self.inv[g]] for g in embedding)
        names = None
        if self.names is not None:
            names = tuple(self.names[g] for g in embedding)
        sub = FiniteGroup(tuple(mult), inv, back[self.identity], names)
        return sub, embedding


@dataclass(frozen=True)
class GroupEndomorphism:
    """An endomorphism stored as its full element table."""

    image: tuple[int, ...]

    def __call__(self, g: int) -> int:
        return self.image[g]

    def compose(self, other: "GroupEndomorphism") -> "GroupEndomorphism":
        """self after other: g -> self(other(g))."""
        return GroupEndomorphism(tuple(map(self.image.__getitem__,
                                           other.image)))

    def is_bijective(self) -> bool:
        return len(set(self.image)) == len(self.image)

    def validate(self, G: FiniteGroup) -> None:
        """Raise NotAHomomorphism unless the table is an endomorphism of G.

        The check is phi(g*s) = phi(g)*phi(s) on the order * s Cayley
        edges (g, s) of the recorded generators s, and phi(e) = e, which is
        complete by the induction of ``endo_from_generator_images``: every
        element is a word in the generators, so phi(g*h) = phi(g)*phi(h)
        for all h.  A group with no recorded generators takes every element
        as one, so its edges are all order^2 pairs.
        """
        if len(self.image) != G.order:
            raise NotAHomomorphism("image table has wrong length")
        if self.image[G.identity] != G.identity:
            raise NotAHomomorphism("identity is not preserved")
        image = self.image
        generators = G.generators
        if generators is None:
            generators = G.elements()
        for s in generators:
            t = image[s]
            for g, row in enumerate(G.mult):
                if image[row[s]] != G.mult[image[g]][t]:
                    raise NotAHomomorphism(
                        f"phi(g*h) != phi(g)*phi(h) at g={g}, h={s}")


@dataclass(frozen=True)
class ConjugacyPartition:
    """A partition of a group into (possibly twisted) conjugacy classes."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.representatives)


def identity_endo(G: FiniteGroup) -> GroupEndomorphism:
    return GroupEndomorphism(tuple(G.elements()))


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), (0,), 0, ("e",))


def _compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(x) = p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def group_from_permutations(
    degree: int,
    generators: list[tuple[int, ...]],
    cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition.

    Elements are canonically ordered by their image tuples, which puts the
    identity at index 0.  The closure composes each element with each
    generator once, which gives the table R of right multiplication by the
    generators and a breadth-first tree in which every element but the
    identity is h*s for an earlier h.  The multiplication table then takes
    integer lookups only: the column of h*s is R[., s] applied to the
    column of h, as p*(h*s) = (p*h)*s.  The group records the indices of
    the generators.
    """
    if degree < 1:
        raise NotAPermutation("degree must be positive")
    gens = []
    for p in generators:
        p = tuple(p)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise NotAPermutation(f"not a permutation of 0..{degree - 1}: {p}")
        gens.append(p)

    ident = tuple(range(degree))
    right = {ident: None}  # element -> its products with the generators
    tree = []  # (h*s, h, s) in breadth-first order
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            products = right[p] = [_compose_perm(p, q) for q in gens]
            for s, pq in enumerate(products):
                if pq not in right:
                    right[pq] = None
                    tree.append((pq, p, s))
                    nxt.append(pq)
                    if len(right) > cap:
                        raise ClosureTooLarge(
                            f"closure exceeds cap of {cap} elements"
                        )
        frontier = nxt

    perms = sorted(right)
    index = {p: i for i, p in enumerate(perms)}
    by_generator = list(zip(*(map(index.__getitem__, right[p])
                              for p in perms)))
    columns = [None] * len(perms)
    columns[index[ident]] = range(len(perms))
    for child, parent, s in tree:
        columns[index[child]] = list(
            map(by_generator[s].__getitem__, columns[index[parent]]))
    mult = tuple(zip(*columns))
    e = index[ident]
    inv = tuple(row.index(e) for row in mult)
    names = tuple(str(p) for p in perms)
    return FiniteGroup(mult, inv, e, names,
                       tuple(map(index.__getitem__, gens)))


def endo_from_generator_images(
    G: FiniteGroup, generators: list[int], images: list[int]
) -> GroupEndomorphism:
    """Extend generator images to the whole group by word expansion.

    One breadth-first pass from the identity sets phi(g*s) = phi(g)*t at
    the first visit of each Cayley edge (g, s), s a generator with image t,
    and checks it at every later one.  It raises NotAHomomorphism if two
    words for an element of the subgroup it reaches receive different
    images, and only otherwise DoesNotGenerate if that subgroup is not G.

    No ``validate`` is needed: by induction on k,
    phi(g*s_1...s_k) = phi(g)*t_1...t_k = phi(g)*phi(s_1...s_k) (g = e),
    and in a finite group every h is such a word, as s^-1 is a power of s.
    """
    if len(generators) != len(images):
        raise NotAHomomorphism("generators and images differ in length")
    table: dict[int, int] = {G.identity: G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, t in zip(generators, images):
                gs = G.mult[g][s]
                img = G.mult[table[g]][t]
                if gs in table:
                    if table[gs] != img:
                        raise NotAHomomorphism(
                            f"two words for element {gs} receive different images"
                        )
                else:
                    table[gs] = img
                    nxt.append(gs)
        frontier = nxt
    if len(table) != G.order:
        raise DoesNotGenerate("the given elements do not generate the group")
    return GroupEndomorphism(tuple(table[g] for g in G.elements()))


def _partition_from_orbits(G: FiniteGroup, orbit) -> ConjugacyPartition:
    class_of = [-1] * G.order
    reps = []
    for a in G.elements():
        if class_of[a] >= 0:
            continue
        cid = len(reps)
        reps.append(a)
        for b in orbit(a):
            class_of[b] = cid
    return ConjugacyPartition(tuple(class_of), tuple(reps))


def ordinary_conjugacy_classes(G: FiniteGroup) -> ConjugacyPartition:
    mult, inv = G.mult, G.inv

    def orbit(a):  # g * a * g^-1 over all g
        return {mult[mult[g][a]][inv[g]] for g in G.elements()}

    return _partition_from_orbits(G, orbit)


def phi_conjugacy_classes(
    G: FiniteGroup, phi: GroupEndomorphism
) -> ConjugacyPartition:
    """Exhaustive twisted conjugacy: a ~ g * a * phi(g)^-1.

    The class count is the Reidemeister number of phi; this is the
    brute-force oracle for every finite-group formula in the package.
    """

    def orbit(a):
        return {G.mult[G.mult[g][a]][G.inv[phi(g)]] for g in G.elements()}

    return _partition_from_orbits(G, orbit)


def iterate_endo(phi: GroupEndomorphism, n: int) -> GroupEndomorphism:
    """phi^n, n >= 1, by square and multiply: the powers of phi commute,
    and phi^n takes bit_length(n) + popcount(n) - 2 compositions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc, square = None, phi
    while True:
        if n & 1:
            acc = square if acc is None else square.compose(acc)
        n >>= 1
        if not n:
            return acc
        square = square.compose(square)


def eventual_image(
    G: FiniteGroup, phi: GroupEndomorphism
) -> tuple[FiniteGroup, GroupEndomorphism, tuple[int, ...]]:
    """Stabilized image subgroup H = phi^n(G) and the restriction phi|_H.

    The restriction is an automorphism of H.  Returns (H, phi_H, embedding)
    where embedding maps H indices to G indices.  When phi is onto, H is G
    itself, phi_H is phi and the embedding is the identity: no table is
    copied.
    """
    current = set(G.elements())
    while True:
        nxt = {phi(g) for g in current}
        if nxt == current:
            break
        current = nxt
    if len(current) == G.order:
        return G, phi, tuple(G.elements())
    H, embedding = G.subgroup(sorted(current))
    back = {g: i for i, g in enumerate(embedding)}
    phi_H = GroupEndomorphism(tuple(back[phi(g)] for g in embedding))
    return H, phi_H, embedding

