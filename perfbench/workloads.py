"""Seeded problem documents for the four benchmark workloads.

Every workload is a fixed list of strata (rank, group, endomorphism kind,
word length ...) with a fixed number of documents in each.  The seed draws
the inputs inside a stratum, so the work in one pass hardly moves with the
seed; where fresh draws varied too much in cost, the seed only relabels or
decorates inputs drawn once from a fixed seed.  Inputs are screened by their
properties alone (eigenvalues, determinants, commuting images, word length,
Perron root), never by how long they take.

This module builds the documents with its own small permutation and integer
helpers; it imports nothing from the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("lattice", "product", "finite", "free")
# Workloads whose documents are the same at every seed up to an isomorphism
# (a reordered basis of Z^k, relabelled generators) that keeps every answer
# the benchmark compares.
RELABELLED = ("product", "free")


@dataclass
class Document:
    ident: str
    body: dict
    # A document far beyond the per-document deadline.  It is kept so that
    # the frontier is measured: today it times out, and a faster program
    # turns it into a completed document.
    frontier: bool = False
    # Set on product documents whose finite part is not bijective while
    # torsion angles are requested: `compute` raises NonInvertible on them.
    known_crash: bool = False
    # The first document generated, from a light stratum; computed once,
    # untimed, during set-up.
    warm_up: bool = False


# -- integer helpers ----------------------------------------------------------

def int_det(rows) -> int:
    """Exact determinant by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def identity_minus(m):
    return [[(1 if i == j else 0) - a for j, a in enumerate(row)]
            for i, row in enumerate(m)]


def _euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def lattice_screen(m) -> bool:
    """True when M is invertible over Q and has no root-of-unity eigenvalue.

    A root of unity of degree at most k has order n with phi(n) <= k, and it
    is an eigenvalue exactly when det(I - M^n) = 0.  det M != 0 is required
    because the torsion and functional-equation routes divide by it.
    """
    k = len(m)
    if int_det(m) == 0:
        return False
    power = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for n in range(1, 2 * k * k + 1):
        power = mat_mul(power, m)
        if _euler_phi(n) <= k and int_det(identity_minus(power)) == 0:
            return False
    return True


def random_lattice_matrix(rng: random.Random, k: int, bound: int):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
        if lattice_screen(m):
            return m


# -- permutation groups -------------------------------------------------------

def compose(p, q):
    """(p o q)(x) = p[q[x]], the package's convention for group tables."""
    return tuple(p[x] for x in q)


def perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def closure(gens):
    """All elements of <gens>, sorted: sorted position is the element index."""
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = compose(p, q)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen)


def symmetric(n):
    return [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]


def dihedral(m):
    return [tuple((x + 1) % m for x in range(m)),
            tuple((-x) % m for x in range(m))]


def elementary_abelian(r):
    """C2^r acting on 2r points, one transposition per generator."""
    gens = []
    for i in range(r):
        perm = list(range(2 * r))
        perm[2 * i], perm[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(perm))
    return gens


def is_odd(p) -> bool:
    seen, transpositions = set(), 0
    for start in range(len(p)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 1


def power(p, e):
    out = tuple(range(len(p)))
    for _ in range(e):
        out = compose(out, p)
    return out


def endo_images(rng, family, gens, elements, kind):
    """Generator images of an endomorphism of the named kind.

    identity: the generators themselves.
    inner:    conjugation by a random element.
    shift:    an automorphism that moves generators (cyclic shift for
              elementary abelian groups, r -> r^a, s -> s r^b for dihedral).
    sign:     a map onto a subgroup of order 2, not bijective.
    """
    ident = tuple(range(len(gens[0])))
    if kind == "identity":
        return list(gens)
    if kind == "inner":
        g = rng.choice(elements[1:])
        gi = perm_inverse(g)
        return [compose(compose(g, s), gi) for s in gens]
    if kind == "shift":
        if family == "dihedral":
            m = len(gens[0])
            a = rng.choice([u for u in range(2, m) if gcd(u, m) == 1])
            b = rng.randrange(m)
            return [power(gens[0], a), compose(gens[1], power(gens[0], b))]
        return list(gens[1:]) + [gens[0]]
    if kind == "sign":
        if family == "symmetric":
            n = len(gens[0])
            i, j = rng.sample(range(n), 2)
            tau = list(range(n))
            tau[i], tau[j] = j, i
            tau = tuple(tau)
            return [tau if is_odd(s) else ident for s in gens]
        if family == "dihedral":
            m = len(gens[0])
            reflection = compose(gens[1], power(gens[0], rng.randrange(m)))
            return [ident, reflection]
        target = rng.choice(gens)
        return [target for _ in gens]
    raise ValueError(f"unknown endomorphism kind {kind}")


def finite_section(gens, images):
    return {"degree": len(gens[0]),
            "generators": [list(g) for g in gens],
            "endo_images": [list(q) for q in images]}


# -- torsion angles -----------------------------------------------------------

def random_angles(rng: random.Random, count: int):
    out = []
    while len(out) < count:
        q = rng.randint(2, 9)
        a = Fraction(rng.randint(1, q - 1), q)
        if str(a) not in out:
            out.append(str(a))
    return out


# -- workloads ----------------------------------------------------------------

def lattice(rng: random.Random):
    """abelian documents: exact linear algebra under zeta_product.

    Strata are (rank k, documents, entry bound).  Entries are widened at
    small k because with entries in -1..1 no rank-1 matrix passes the screen
    and few rank-2 ones do.  Half of each stratum asks for torsion angles.
    Ranks 4 and 5 hold the 90th percentile, and fresh matrices there moved
    it by 25% between seeds, so their matrices are drawn once from a fixed
    seed and the seed draws only their torsion angles.  (Conjugating them by
    a signed permutation did not help: the Smith-form route's work depends
    on the layout of I - M^n.)
    Rank 7 takes about a minute per document: it is the frontier document.
    Rank 6 (3 to 6 s per document) is left out: it is too slow for a regular
    document, and as a frontier document it finished within the deadline on
    some seeds and not on others.
    """
    strata = [(2, 40, 3), (3, 30, 2), (4, 20, 2), (5, 5, 1)]
    docs = []
    for k, count, bound in strata:
        fixed = random.Random(f"lattice:k{k}")
        for i in range(count):
            m = random_lattice_matrix(rng if k < 4 else fixed, k, bound)
            body = {"kind": "abelian", "matrix": m}
            if i % 2 == 0:
                body["options"] = {"torsion_angles": random_angles(rng, 2)}
            docs.append(Document(f"lattice-k{k}-{i:02d}", body))
    body = {"kind": "abelian", "matrix": random_lattice_matrix(rng, 7, 1)}
    docs.append(Document("lattice-k7-frontier", body, frontier=True))
    return docs


KLEIN = [(1, 0, 3, 2), (2, 3, 0, 1)]


def _finite_parts(rng):
    """The four finite factors of the product workload, as (name, gens, images).

    klein_swap, s3_inner and s4_identity are automorphisms; s4_sign maps S4
    onto a subgroup of order 2 and is not bijective.
    """
    s3, s4 = symmetric(3), symmetric(4)
    return [
        ("klein_swap", KLEIN, [KLEIN[1], KLEIN[0]]),
        ("s3_inner", s3, endo_images(rng, "symmetric", s3, closure(s3),
                                     "inner")),
        ("s4_identity", s4, list(s4)),
        ("s4_sign", s4, endo_images(rng, "symmetric", s4, None, "sign")),
    ]


def random_psi(rng, gens, images, k):
    """psi images drawn from the centraliser of phi_F's image, and pairwise
    commuting (the centraliser of a nonabelian image need not be abelian)."""
    elements = closure(gens)
    image = closure(images)
    allowed = [i for i, a in enumerate(elements)
               if all(compose(a, f) == compose(f, a) for f in image)]
    while True:
        psi = [rng.choice(allowed) for _ in range(k)]
        if all(compose(elements[a], elements[b]) ==
               compose(elements[b], elements[a]) for a in psi for b in psi):
            return psi


# Rank-1 lattice parts of the product workload.  |det(I - M^n)| * |F| decides
# how far the O(N^2) enumeration oracle runs (it stops above 300 cells).
# On the small ladder the oracle runs for several n; on the large one it
# does not run at all.
SMALL_LADDER = (3, -3, 4, -4, 2, -2)
LARGE_LADDER = (80, -80, 90, -90, 100, -100, 120, -120, 150, -150, 200, -200,
                300, -300, 500)


def permute_basis(m, psi, perm):
    """M and psi in the basis of Z^k reordered by perm (e_j -> e_perm[j]).

    This is an isomorphism of Z^k x F that commutes with the endomorphism,
    so the counts, the zeta function and the work stay the same."""
    k = len(m)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[perm[i]][perm[j]] = m[i][j]
    moved = [0] * k
    for j in range(k):
        moved[perm[j]] = psi[j]
    return out, moved


def product(rng: random.Random):
    """product documents Z^k x F with four finite parts.

    Strata per finite part are (rank k, documents); rank 1 runs through the
    two ladders.  Ranks 2 and 3 hold the 90th percentile (matrix entries in
    -3..3 and -2..2).  Rank 3 puts characteristic polynomials of
    kron-inflated matrices (dimension 3 times the class count) on top of the
    oracle.  Rank 4 (3 to 6 s per document) is left out.  A third of each
    stratum asks for torsion angles; on the s4_sign part those documents hit
    the uncaught NonInvertible and count as failed.

    The cost of a document moves a lot with its matrix, psi and torsion
    angle: fresh draws of any of them moved the 90th percentile by 10-30%
    between seeds.  So all of them are drawn once from fixed seeds, and the
    seed only reorders the basis of Z^k (see ``permute_basis``) and the
    documents.
    """
    counts = {"klein_swap": ((1, 6), (-1, 15), (2, 4), (3, 5)),
              "s3_inner": ((1, 6), (-1, 15), (2, 4), (3, 3)),
              "s4_identity": ((1, 4), (-1, 15), (2, 3), (3, 2)),
              "s4_sign": ((1, 4), (-1, 15), (2, 3), (3, 2))}
    docs = []
    for name, gens, images in _finite_parts(random.Random("product:F")):
        for k, count in counts[name]:
            stratum = f"{name}-k1-large" if k < 0 else f"{name}-k{k}"
            fixed = random.Random(f"product:{stratum}")
            for i in range(count):
                if k == 1:
                    m = [[SMALL_LADDER[i]]]
                elif k < 0:
                    m = [[LARGE_LADDER[i]]]
                else:
                    m = random_lattice_matrix(fixed, k, 5 - k)
                psi = random_psi(fixed, gens, images, len(m))
                torsion = i % 3 == 0
                angles = random_angles(fixed, 1) if torsion else None
                m, psi = permute_basis(m, psi, rng.sample(range(len(m)),
                                                          len(m)))
                body = {"kind": "product", "matrix": m, "psi": psi,
                        "finite": finite_section(gens, images)}
                if torsion:
                    body["options"] = {"torsion_angles": angles}
                docs.append(Document(
                    f"product-{stratum}-{i:02d}", body,
                    known_crash=torsion and name == "s4_sign"))
    return docs


def finite(rng: random.Random):
    """finite documents: group closure, class partitions, class matrices.

    Strata are (family, parameter, endomorphism kinds, documents).  The
    dihedral orders are a fixed ladder so that the seed only picks the
    endomorphism.  C2^8 and C3^5 (about 1.2 s per document) are left out so
    that no regular document comes near the deadline; C2^9 (5 to 6 s) is the
    frontier document.  S7 (37 s and over 200 MB) is left out because its
    memory at the deadline cut did not repeat (42 to 52 MB at a 3 s cut).
    """
    strata = [
        ("symmetric", 4, ("identity", "inner", "sign"), 16),
        ("symmetric", 5, ("identity", "inner", "sign"), 16),
        ("symmetric", 6, ("identity", "inner", "sign"), 2),
        ("dihedral", None, ("identity", "inner", "shift", "sign"), 40),
        ("c2", 5, ("identity", "shift", "sign"), 12),
        ("c2", 6, ("identity", "shift", "sign"), 9),
        ("c2", 7, ("identity", "shift", "sign"), 6),
    ]
    dihedral_orders = [6 + 3 * i for i in range(10)] * 3 + \
        [40, 48, 56, 64, 72, 80, 90, 100, 110, 120]
    docs = []
    for family, param, kinds, count in strata:
        for i in range(count):
            if family == "symmetric":
                gens, label = symmetric(param), f"S{param}"
            elif family == "dihedral":
                m = dihedral_orders[i]
                gens, label = dihedral(m), f"D{m}"
            else:
                gens, label = elementary_abelian(param), f"C2^{param}"
            kind = kinds[i % len(kinds)]
            elements = closure(gens) if kind == "inner" else None
            images = endo_images(rng, family, gens, elements, kind)
            body = {"kind": "finite", **finite_section(gens, images)}
            docs.append(Document(f"finite-{label}-{kind}-{i:02d}", body))
    gens = elementary_abelian(9)
    body = {"kind": "finite", **finite_section(gens, gens)}
    docs.append(Document("finite-C2^9-identity-frontier", body,
                         frontier=True))
    return docs


# -- free groups --------------------------------------------------------------

def letter_counts(words, rank):
    return [[sum(1 for ch in w if ch.lower() == chr(ord("a") + j))
             for j in range(rank)] for w in words]


def growth_rate(m, steps: int = 64) -> float:
    """Spectral radius of an integer matrix, estimated exactly enough for
    banding as the steps-th root of the largest row sum of |M^steps|."""
    n = len(m)
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        acc = mat_mul(acc, m)
    top = max(sum(abs(a) for a in row) for row in acc)
    return top ** (1.0 / steps) if top else 0.0


def signed_letter_counts(words, rank):
    """The abelianisation of the substitution: exponent sums per generator."""
    return [[w.count(chr(ord("a") + j)) - w.count(chr(ord("A") + j))
             for j in range(rank)] for w in words]


def random_reduced_word(rng, rank, length):
    letters = [chr(ord("a") + j) for j in range(rank)]
    letters += [c.upper() for c in letters]
    word = ""
    while len(word) < length:
        c = rng.choice(letters)
        if word and word[-1] == c.swapcase():
            continue
        word += c
    return word


def random_substitution(rng, rank, lengths, perron, abelian):
    """Images of the given lengths that use every generator, with the Perron
    root of the letter-count matrix in the band ``perron`` and the spectral
    radius of the abelianisation in the band ``abelian``."""
    while True:
        words = [random_reduced_word(rng, rank, n) for n in lengths]
        counts = letter_counts(words, rank)
        if any(all(row[j] == 0 for row in counts) for j in range(rank)):
            continue
        if (perron[0] <= growth_rate(counts) < perron[1] and abelian[0]
                <= growth_rate(signed_letter_counts(words, rank)) < abelian[1]):
            return words


def relabel(images, perm):
    """The substitution s phi s^-1 for the automorphism s that sends
    generator j to generator perm[j].

    Norms are invariant under this relabelling, and so is the work, within
    a few per cent.  Inverting generators as well would keep the norms but
    not the work: ["BB", "AA"] takes 1.5 times as long as ["bb", "aa"]."""
    def move(ch):
        target = chr(ord("a") + perm[ord(ch.lower()) - ord("a")])
        return target.upper() if ch.isupper() else target

    out = [""] * len(images)
    for j, word in enumerate(images):
        out[perm[j]] = "".join(move(ch) for ch in word)
    return out


# Rank-2 substitutions of Perron root 2.41 to 2.56 for the heaviest stratum,
# with the number of documents of each.  Draws at this Perron root range
# from 0.03 to 0.9 s.  On a 2-core x86 box the first two take about 0.3 s,
# the third 0.19 s and the last 0.55 s; the counts put the 90th percentile
# of the workload in the middle of the 0.3 s documents, so that it does not
# sit on a jump in the sorted latencies.
HEAVY_SUBSTITUTIONS = ((["ab", "AAb"], 6), (["ba", "bAA"], 6),
                       (["AB", "aaB"], 2), (["BB", "baa"], 4))
FRONTIER_SUBSTITUTION = ["abcAB", "bcaBC", "cabCA"]


def free(rng: random.Random):
    """free documents: Fox Jacobians, radius bounds, twisted power norms.

    Strata are (rank, image lengths, Perron-root band, abelianised band,
    documents).  The eighth twisted power norm, and with it the cost, grows
    with the Perron root and shrinks with cancellation, which the spectral
    radius of the abelianisation tracks.  Even inside such bands the cost of
    a fresh draw varies threefold, which moved the median document by 20%
    between seeds, so each stratum draws its substitutions once from a fixed
    seed and the seed relabels them (see ``relabel``).  The strata are sized
    so that the median document falls inside the rank-2 (2, 2) stratum and
    the 90th percentile inside the heaviest one (see HEAVY_SUBSTITUTIONS).
    Perron root 2.6 and above (1 s to over 10 s per document) is left to the
    frontier document.
    """
    any_band = (0.0, 9.0)
    strata = [
        (2, (1, 2), (1.5, 1.7), any_band, 13),
        (2, (2, 2), (1.9, 2.1), (1.9, 2.1), 26),
        (3, (1, 1, 2), (1.0, 1.5), any_band, 13),
        (3, (1, 2, 2), (1.5, 1.9), any_band, 12),
        (3, (2, 2, 2), (1.9, 2.1), (1.9, 2.1), 20),
    ]
    bases = []
    for rank, lengths, perron, abelian, count in strata:
        stratum = f"r{rank}-{''.join(map(str, lengths))}-p{perron[0]}" \
            f"-a{abelian[0]}"
        fixed = random.Random(f"free:{stratum}")
        bases += [(f"{stratum}-{i:02d}", random_substitution(
            fixed, rank, lengths, perron, abelian)) for i in range(count)]
    heavy = [base for base, count in HEAVY_SUBSTITUTIONS
             for _ in range(count)]
    bases += [(f"r2-heavy-{i:02d}", base) for i, base in enumerate(heavy)]
    docs = []
    for name, base in bases:
        rank = len(base)
        body = {"kind": "free", "rank": rank,
                "images": relabel(base, rng.sample(range(rank), rank))}
        docs.append(Document(f"free-{name}", body))
    body = {"kind": "free", "rank": 3, "images": list(FRONTIER_SUBSTITUTION)}
    docs.append(Document("free-abcAB-frontier", body, frontier=True))
    return docs


GENERATORS = {"lattice": lattice, "product": product, "finite": finite,
              "free": free}


def make(workload: str, seed: int) -> list[Document]:
    """The documents of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    docs = GENERATORS[workload](rng)
    docs[0].warm_up = True
    rng.shuffle(docs)
    return docs
