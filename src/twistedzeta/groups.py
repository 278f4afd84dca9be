"""Finite groups as permutation groups with their multiplication tables.

Every group is closed from generating permutations by
``group_from_permutations``.  Element i is ``perms[i]``, the i-th of its
permutations in increasing order, so the identity is element 0, and the
full n x n multiplication table is kept with the indices of the generators.
Conjugacy searches stay exhaustive and exact, as every orbit visits the
whole group: these brute-force enumerations are the oracles against which
the closed formulas in the other modules are judged.  The homomorphism
check takes the Cayley edges (g, s) of the generators s, |G| s products
for s generators, which prove a table a homomorphism (see
``GroupEndomorphism.validate``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ClosureTooLarge, NotAHomomorphism, NotAPermutation

DEFAULT_ORDER_CAP = 20000


@dataclass(frozen=True)
class FiniteGroup:
    """A permutation group with its multiplication table.

    ``perms`` are the elements' permutations in increasing order, so
    ``identity``, the identity permutation, is always 0; ``index`` maps a
    permutation back to its element.  ``mult[g][h]`` is the product g*h,
    ``inv[g]`` the inverse of g and ``generators`` the elements the group
    was closed from.  The tables are a function of ``perms``, so equality
    and hashing read ``perms`` only.  The ordinary conjugacy classes are
    partitioned on first use and kept with the instance.
    """

    mult: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    inv: tuple[int, ...] = field(compare=False, repr=False)
    perms: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...] = field(compare=False)

    identity = 0

    @property
    def order(self) -> int:
        return len(self.mult)

    @functools.cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Element of each permutation, built once per group."""
        return {p: i for i, p in enumerate(self.perms)}

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
        edges (g, s) of the generators s, and phi(e) = e, which is complete
        by the induction of ``endo_from_generator_images``: every element
        is a word in the generators, so phi(g*h) = phi(g)*phi(h) for all h.
        """
        if len(self.image) != G.order:
            raise NotAHomomorphism("image table has wrong length")
        if self.image[G.identity] != G.identity:
            raise NotAHomomorphism("identity is not preserved")
        image, mult = self.image, G.mult
        for s in G.generators:
            t = image[s]
            for g, row in enumerate(mult):
                if image[row[s]] != mult[image[g]][t]:
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
    return group_from_permutations(1, [])


def _compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(x) = p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def group_from_permutations(degree: int, generators: list[tuple[int, ...]]
                            ) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition.

    Elements are ordered by their image tuples, which puts the identity at
    index 0.  The closure composes each element with each generator once,
    which gives the table R of right multiplication by the generators and
    a breadth-first tree in which every element but the identity is h*s
    for an earlier h.  The multiplication table then takes integer lookups
    only: the column of h*s is R[., s] applied to the column of h, as
    p*(h*s) = (p*h)*s.
    """
    if degree < 1:
        raise NotAPermutation("degree must be positive")
    gens = []
    for p in generators:
        p = tuple(p)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise NotAPermutation(f"not a permutation of 0..{degree - 1}: {p}")
        gens.append(p)

    cap = DEFAULT_ORDER_CAP
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
    columns[0] = range(len(perms))
    for child, parent, s in tree:
        columns[index[child]] = list(
            map(by_generator[s].__getitem__, columns[index[parent]]))
    mult = tuple(zip(*columns))
    inv = tuple(row.index(0) for row in mult)
    return FiniteGroup(mult, inv, tuple(perms),
                       tuple(map(index.__getitem__, gens)))


def endo_from_generator_images(
    G: FiniteGroup, images: list[int]
) -> GroupEndomorphism:
    """Extend the images of ``G.generators`` to the whole group.

    One breadth-first pass from the identity sets phi(g*s) = phi(g)*t at
    the first visit of each Cayley edge (g, s), s a generator with image t,
    and checks it at every later one; it raises NotAHomomorphism if two
    words for an element receive different images.

    No ``validate`` is needed: by induction on k,
    phi(g*s_1...s_k) = phi(g)*t_1...t_k = phi(g)*phi(s_1...s_k) (g = e),
    and in a finite group every h is such a word, as s^-1 is a power of s.
    """
    generators = G.generators
    if len(generators) != len(images):
        raise NotAHomomorphism("generators and images differ in length")
    mult = G.mult
    table: dict[int, int] = {G.identity: G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, t in zip(generators, images):
                gs = mult[g][s]
                img = mult[table[g]][t]
                if gs in table:
                    if table[gs] != img:
                        raise NotAHomomorphism(
                            f"two words for element {gs} receive different images"
                        )
                else:
                    table[gs] = img
                    nxt.append(gs)
        frontier = nxt
    return GroupEndomorphism(tuple(map(table.__getitem__, G.elements())))


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
    mult, inv, image = G.mult, G.inv, phi.image

    def orbit(a):
        return {mult[mult[g][a]][inv[image[g]]] for g in G.elements()}

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
    """The stable image H = phi^m(G) and the restriction phi|_H.

    The restriction is an automorphism of H.  Returns (H, phi_H, embedding)
    where embedding maps H indices to G indices.  m is the number of steps
    until the image stops shrinking, and H is closed from the permutations
    of phi^m(s) for the generators s of G, so H's elements keep G's order.
    When phi is onto, H is G itself, phi_H is phi and the embedding is the
    identity.
    """
    image, m = G.elements(), 0
    while True:
        nxt = set(map(phi.image.__getitem__, image))
        if len(nxt) == len(image):
            break
        image, m = nxt, m + 1
    if m == 0:
        return G, phi, tuple(G.elements())
    generators = G.generators
    for _ in range(m):
        generators = [phi(s) for s in generators]
    H = group_from_permutations(len(G.perms[0]),
                                [G.perms[s] for s in generators])
    embedding = tuple(map(G.index.__getitem__, H.perms))
    back = {g: i for i, g in enumerate(embedding)}
    phi_H = GroupEndomorphism(tuple(back[phi(g)] for g in embedding))
    return H, phi_H, embedding
