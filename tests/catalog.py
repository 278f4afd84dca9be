"""Shared test catalog: the standard small groups with generating sets,
and a pool of product endomorphisms used across the formula/oracle tests."""

from __future__ import annotations

import functools
import itertools
import random

from hypothesis import assume
from hypothesis import strategies as st

from twistedzeta import (
    FiniteGroup,
    GroupEndomorphism,
    IntMatrix,
    ProductEndomorphism,
    char_poly,
    count_eigen_signs,
    det,
    endo_from_generator_images,
    group_from_permutations,
    intlinalg,
    mat_pow,
    trivial_group,
)
from twistedzeta.errors import EigenvalueOnBoundary, NotAHomomorphism


def all_endomorphisms(G: FiniteGroup) -> list[GroupEndomorphism]:
    """Every endomorphism found by searching over generator images."""
    found = []
    seen_tables = set()
    for images in itertools.product(G.elements(), repeat=len(G.generators)):
        try:
            phi = endo_from_generator_images(G, list(images))
        except NotAHomomorphism:
            continue
        if phi.image not in seen_tables:
            seen_tables.add(phi.image)
            found.append(phi)
    return found


def perm_group(degree, gens):
    """A permutation group and the element indices of its generators."""
    G = group_from_permutations(degree, gens)
    return G, list(G.generators)


def cyclic_group(n: int):
    """C_n closed from the n-cycle r: i -> i + 1; element k is r^k, whose
    image tuple is the only one that starts with k."""
    return perm_group(n, [tuple((i + 1) % n for i in range(n))])


def klein_four():
    return perm_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def sym3():
    return perm_group(3, [(1, 2, 0), (1, 0, 2)])


def sym4():
    return perm_group(4, [(1, 2, 3, 0), (1, 0, 2, 3)])


def dihedral4():
    return perm_group(4, [(1, 2, 3, 0), (0, 3, 2, 1)])


_UNIT_MUL = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion8():
    """Q8 closed from the rows of its table, which form its left-regular
    representation; the table is in the units (sign, unit) at index
    2*unit + (0 if + else 1), and i and j generate."""

    def mul(a, b):
        ua, sa = divmod(a, 2)
        ub, sb = divmod(b, 2)
        sign, unit = _UNIT_MUL[(ua, ub)]
        negative = (sa + sb + (1 if sign < 0 else 0)) % 2
        return 2 * unit + negative

    rows = [tuple(mul(a, b) for b in range(8)) for a in range(8)]
    return perm_group(8, [rows[2], rows[4]])


def finite_catalog():
    """(name, group, generators) for the standard small-group zoo."""
    entries = []
    for n in range(1, 13):
        entries.append((f"cyclic{n}", *cyclic_group(n)))
    entries.append(("klein4", *klein_four()))
    entries.append(("sym3", *sym3()))
    entries.append(("sym4", *sym4()))
    entries.append(("dihedral4", *dihedral4()))
    entries.append(("quaternion8", *quaternion8()))
    return entries


def catalog_with_endos():
    """Every catalog group with every endomorphism found by image search."""
    return [(name, G, all_endomorphisms(G))
            for name, G, _ in finite_catalog()]


def klein_swap():
    K, (e1, e2) = klein_four()
    return K, endo_from_generator_images(K, [e2, e1])


def cyclic6_doubling():
    C6, _ = cyclic_group(6)
    return C6, endo_from_generator_images(C6, [2])


def elementary_product(rng, k, steps=10):
    """A random k x k integer matrix of determinant +-1, k >= 1: a product
    of elementary matrices, each adding a multiple of one row to another,
    swapping two rows or negating one."""
    U = IntMatrix.identity(k)
    for _ in range(steps):
        E = [[int(a == b) for b in range(k)] for a in range(k)]
        i, j = rng.randrange(k), rng.randrange(k)
        step = rng.randrange(3)
        if step == 0 and i != j:
            E[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
        elif step == 1:
            E[i], E[j] = E[j], E[i]
        elif step == 2:
            E[i][i] = -1
        U = IntMatrix(E) @ U
    return U


def _matrix_ok_for_iterates(M, max_n=12, det_cap=None):
    try:
        count_eigen_signs(char_poly(M))
    except EigenvalueOnBoundary:
        return False
    for n in range(1, max_n + 1):
        d = det(IntMatrix.identity(M.rows) - mat_pow(M, n))
        if d == 0:
            return False
        if det_cap is not None and abs(d) > det_cap:
            return False
    return True


def product_catalog():
    """Hand-picked product endomorphisms with all iterates finite."""
    K, swap = klein_swap()
    C6, doubling = cyclic6_doubling()
    S3, s3gens = sym3()
    s3_inner = endo_from_generator_images(
        S3, [S3.mult[S3.mult[s3gens[0]][g]][S3.inv[s3gens[0]]]
             for g in s3gens])
    matrices = [
        IntMatrix([]),                 # k = 0
        IntMatrix([[-2]]),
        IntMatrix([[2]]),
        IntMatrix([[3]]),
        IntMatrix([[2, 1], [1, 1]]),
        IntMatrix([[0, 2], [1, 0]]),
    ]
    finites = [
        (trivial_group(), None, 0),
        (K, swap, 1),                   # psi value: a Klein generator
        (C6, doubling, 1),
        (S3, s3_inner, 0),
    ]
    cases = []
    for M in matrices:
        if not _matrix_ok_for_iterates(M):
            continue
        for F, phiF, psi_elem in finites:
            if phiF is None:
                P = ProductEndomorphism.from_matrix(M)
            else:
                psi = tuple([psi_elem] * M.rows)
                try:
                    P = ProductEndomorphism(M, psi, phiF, F)
                except NotAHomomorphism:
                    P = ProductEndomorphism(
                        M, tuple([F.identity] * M.rows), phiF, F)
            cases.append(P)
    return cases


def random_product_endomorphisms(count, rng: random.Random,
                                 max_k=2, max_order=8, max_n=4,
                                 coset_cap=30):
    """Random product endomorphisms small enough for the enumeration oracle."""
    finite_pool = []
    for _, G, _ in finite_catalog():
        if G.order <= max_order:
            finite_pool.append((G, all_endomorphisms(G)))
    cases = []
    while len(cases) < count:
        k = rng.randint(0, max_k)
        M = IntMatrix([[rng.randint(-2, 2) for _ in range(k)]
                       for _ in range(k)])
        if not _matrix_ok_for_iterates(M, max_n=max_n, det_cap=coset_cap):
            continue
        G, endos = finite_pool[rng.randrange(len(finite_pool))]
        phiF = endos[rng.randrange(len(endos))]
        image = set(phiF.image)
        commuting = [
            a for a in G.elements()
            if all(G.mult[a][f] == G.mult[f][a] for f in image)
        ]
        psi = tuple(rng.choice(commuting) for _ in range(k))
        try:
            cases.append(ProductEndomorphism(M, psi, phiF, G))
        except NotAHomomorphism:
            continue
    return cases


@functools.cache
def small_finite():
    """(G, every endomorphism of G) for the catalog groups of order <= 8."""
    return [(G, all_endomorphisms(G))
            for _, G, _ in finite_catalog() if G.order <= 8]


@st.composite
def any_products(draw):
    """(P, N): k <= 3, |F| <= 8, any phi_F and commuting psi, N <= 8; some
    iterate may be infinite."""
    k = draw(st.integers(0, 3))
    M = IntMatrix(draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=k, max_size=k),
        min_size=k, max_size=k)), rows=k, cols=k)
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
    return P, draw(st.integers(1, 8))


def companion(c):
    """The companion matrix of x^k + c[k-1] x^(k-1) + ... + c[0]."""
    k = len(c)
    return IntMatrix([[int(i == j + 1) for j in range(k - 1)] + [-c[i]]
                      for i in range(k)])


def wide_products():
    """Maps whose levels wedge^i M are wider than M: the companion matrix
    of x^k - 3x + 1 (det +-1, no root-of-unity eigenvalue) for k = 3..6 as
    a lattice, and for k = 3, 4 times S3 with an inner automorphism."""
    S3, gens = sym3()
    inner = endo_from_generator_images(
        S3, [S3.mult[S3.mult[gens[0]][g]][S3.inv[gens[0]]] for g in gens])
    cases = []
    for k in range(3, 7):
        M = companion([1, -3] + [0] * (k - 2))
        cases.append(ProductEndomorphism.from_matrix(M))
        if k <= 4:
            cases.append(ProductEndomorphism(
                M, (S3.identity,) * k, inner, S3))
    return cases


def record_row_products(monkeypatch) -> list[int]:
    """The largest dimension of each product through the row-product loop
    of ``intlinalg``: ``IntMatrix.__matmul__``, ``char_poly`` and the
    power-trace kernels all run it."""
    sizes = []
    row_products = intlinalg._row_products

    def recording(rows, nonzero, cols):
        sizes.append(max(len(rows), len(nonzero), cols))
        return row_products(rows, nonzero, cols)

    monkeypatch.setattr(intlinalg, "_row_products", recording)
    return sizes


def largest_factor(P) -> int:
    """max(k, #classes): the largest matrix a route that forms no level
    wedge^i M and no block may multiply."""
    return max(P.k, P.F.conjugacy_classes.num_classes)
