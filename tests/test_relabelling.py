"""Relations between documents: two documents that describe the same
endomorphism in other terms must get the same report.

*Relabelling.*  A finite part written in other permutations is the same
group and the same map.  Each seed-0 ``product`` document and each seed-0
``finite`` document up to S5, C2^5 and the dihedral groups (the sign maps
among them are not bijective) is rewritten three ways at once:

- every permutation (generator and generator image) is conjugated by a
  seeded random relabelling sigma of the points, p -> sigma p sigma^-1;
- a redundant generator is appended: the product of the first two, with
  the product of their images as its image;
- psi, which names elements by their index among the sorted
  permutations, is moved to the index of the conjugated permutation.

*Change of basis.*  M and U M U^-1, for a seeded unimodular U, are the same
map of Z^k in two bases, and psi never enters a count, so it is set to the
identity element throughout.  Each seed-0 ``lattice`` and ``product``
document is rewritten so.  The Smith oracle then meets I - (U M U^-1)^n,
whose entries are mixed by U, rather than the documents' own layout.

``compute`` must then give the same exit code, stderr and report, apart
from ``timing_seconds`` and the echoed ``inputs``.

*Powers.*  The twisted power norms of a free substitution phi are the norms
of the Jacobians J(phi^n), so those of phi^2 are every second one of
phi's.  Each seed-0 ``free`` document outside the frontier is squared, its
images reduced by this module's own reducer, and both reports must agree.
On Z^k x F, phi^2 is (v, f) -> (M^2 v, psi(M v) phi_F(psi(v)) phi_F^2(f)),
so R_n(phi^2) = R_2n(phi): each seed-0 ``product`` document is squared
and its counts must be every second count of the document's.

Nothing under ``perfbench/`` is written.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from twistedzeta import (
    cli,
    endo_from_generator_images,
    group_from_permutations,
)
from twistedzeta.intlinalg import IntMatrix, unimodular_inverse

from catalog import elementary_product

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode

# The larger seed-0 finite groups, left out to keep the module near 1 s.
LARGE_FINITE = ("finite-S6-", "finite-C2^6-", "finite-C2^7-")


def _compose(p, q):
    """(p o q)(x) = p[q[x]], the package's product of permutations."""
    return tuple(p[x] for x in q)


def _conjugate(p, sigma):
    """sigma p sigma^-1: the permutation p with every point x renamed
    sigma[x]."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[sigma[x]] = sigma[y]
    return tuple(out)


def relabelled(body: dict, rng: random.Random) -> dict:
    """The document with its finite part relabelled as described above."""
    body = json.loads(json.dumps(body))
    finite = body if body["kind"] == "finite" else body["finite"]
    degree, gens = finite["degree"], [tuple(p) for p in finite["generators"]]
    images = [tuple(q) for q in finite.get("endo_images", gens)]
    sigma = rng.sample(range(degree), degree)
    if len(gens) >= 2:
        gens.append(_compose(gens[0], gens[1]))
        images.append(_compose(images[0], images[1]))
    finite["generators"] = [list(_conjugate(p, sigma)) for p in gens]
    finite["endo_images"] = [list(_conjugate(q, sigma)) for q in images]
    if body.get("psi"):
        old = group_from_permutations(degree, gens)
        new = group_from_permutations(degree, finite["generators"])
        body["psi"] = [new.index[_conjugate(old.perms[a], sigma)]
                       for a in body["psi"]]
    return body


def _compute(body: dict, path: Path, *options: str):
    path.write_text(json.dumps(body))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compute", str(path), *options])
    report = json.loads(out.getvalue()) if code in (0, 4) else None
    if report is not None:
        del report["timing_seconds"], report["inputs"]
    return code, report, err.getvalue()


def _documents(workload):
    return [d for d in workloads.make(workload, 0) if not d.frontier
            and not d.ident.startswith(LARGE_FINITE)]


@pytest.mark.parametrize("workload", ["product", "finite"])
def test_relabelled_finite_part_gives_the_same_report(workload, tmp_path):
    rng = random.Random(f"relabel:{workload}")
    docs = _documents(workload)
    moved_psi = non_bijective = 0
    for doc in docs:
        body = relabelled(doc.body, rng)
        before = _compute(doc.body, tmp_path / "before.json")
        after = _compute(body, tmp_path / "after.json")
        assert before[0] == 0, (doc.ident, before[2])
        assert after == before, doc.ident
        moved_psi += body.get("psi", []) != doc.body.get("psi", [])
        non_bijective += "-sign-" in doc.ident or "s4_sign" in doc.ident
    assert non_bijective
    assert workload == "finite" or moved_psi


def rebased(body: dict, rng: random.Random) -> dict:
    """The document with M replaced by U M U^-1 and psi by the identity."""
    body = json.loads(json.dumps(body))
    M = IntMatrix(body["matrix"])
    U = elementary_product(rng, M.rows)
    body["matrix"] = [list(row) for row in
                      (U @ M @ unimodular_inverse(U)).entries]
    if "psi" in body:
        body["psi"] = [0] * M.rows
    return body


@pytest.mark.parametrize("workload", ["lattice", "product"])
def test_change_of_basis_gives_the_same_report(workload, tmp_path):
    rng = random.Random(f"rebase:{workload}")
    moved = 0
    for doc in _documents(workload):
        body = rebased(doc.body, rng)
        before = _compute(doc.body, tmp_path / "before.json")
        after = _compute(body, tmp_path / "after.json")
        assert before[0] == 0, (doc.ident, before[2])
        assert after == before, doc.ident
        moved += body["matrix"] != doc.body["matrix"]
    assert moved


def _reduced(word: str) -> str:
    """The freely reduced form of a word in the document letters."""
    stack = []
    for letter in word:
        if stack and stack[-1] == letter.swapcase():
            stack.pop()
        else:
            stack.append(letter)
    return "".join(stack)


def squared(body: dict) -> dict:
    """The document of phi^2: each letter of phi(a_i) replaced by its image
    under phi, an inverse letter by the inverse image, then reduced."""
    images = body["images"]
    image = {}
    for i, w in enumerate(images):
        image[chr(ord("a") + i)] = w
        image[chr(ord("A") + i)] = w[::-1].swapcase()
    return dict(body, images=[_reduced("".join(map(image.get, w)))
                              for w in images])


def test_square_has_every_second_power_norm(tmp_path):
    ring_entries = 0
    for doc in _documents("free"):
        code, phi, err = _compute(doc.body, tmp_path / "phi.json")
        assert code == 0, (doc.ident, err)
        code, square, err = _compute(squared(doc.body),
                                     tmp_path / "square.json")
        assert code == 0, (doc.ident, err)
        assert phi["agreement"] and square["agreement"], doc.ident
        assert (square["twisted_power_norms"][:4]
                == phi["twisted_power_norms"][1::2]), doc.ident
        ring = square["power_norm_oracle"]["ring_product"]
        for norm, entry in zip(phi["twisted_power_norms"][1::2], ring):
            assert entry in (None, norm), doc.ident
        ring_entries += sum(entry is not None for entry in ring)
    assert ring_entries


def product_squared(body: dict) -> dict:
    """The document of phi^2 for a product document: the matrix M^2, the
    images phi_F^2(s) of the generators s, and psi_2(e_j) =
    psi(M e_j) phi_F(psi(e_j)), where psi(M e_j) = prod_i psi(e_i)^M_ij."""
    M = IntMatrix(body["matrix"])
    finite = body["finite"]
    gens = [tuple(p) for p in finite["generators"]]
    F = group_from_permutations(finite["degree"], gens)
    phi = endo_from_generator_images(
        F, [F.index[tuple(q)] for q in finite.get("endo_images", gens)])
    psi = body.get("psi", [F.identity] * M.rows)
    psi2 = []
    for j in range(M.rows):
        image = phi(psi[j])
        for i in range(M.rows):
            image = F.mult[F.power(psi[i], M.entries[i][j])][image]
        psi2.append(image)
    return dict(body, matrix=[list(row) for row in (M @ M).entries],
                psi=psi2,
                finite=dict(finite, endo_images=[
                    list(F.perms[phi(phi(F.index[s]))]) for s in gens]))


def test_square_has_every_second_count(tmp_path):
    moved_psi = 0
    for doc in _documents("product"):
        body = product_squared(doc.body)
        code, phi, err = _compute(doc.body, tmp_path / "phi.json",
                                  "--order", "24")
        assert code == 0, (doc.ident, err)
        code, square, err = _compute(body, tmp_path / "square.json",
                                     "--order", "12")
        assert code == 0, (doc.ident, err)
        for label in ("product_formula", "signed_trace"):
            assert (square["counts"][label]
                    == phi["counts"][label][1::2]), doc.ident
        moved_psi += body["psi"] != doc.body["psi"]
    assert moved_psi
