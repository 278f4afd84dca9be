"""Faults injected into one kernel at a time, and what the reports show.

Each entry of ``FAULTS`` patches one package function, named with its
module, in every package module that binds it, with a small wrapper of the
real function, and runs ``compute --json`` on the corpus documents that
reach it.  A changed report is *detected* when it exits non-zero and
*silent* when it exits 0: a route that agrees with a faulty one proves
nothing.  An exception that escapes ``cli.main`` is a run that exits 1, as
the process would.  The test asks that the fault changes some report and
leaves none silent.  This is mutation analysis (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978) with
hand-written faults, so no package is needed.  The unfaulted reports are
the corpus pass that ``test_corpus`` reads as well.
"""

import sys

import pytest

import corpus
from references import trim
from twistedzeta import ConjugacyPartition, FiniteGroup


def _det_times_1000(det):
    """The determinant of every non-empty matrix, times 1000."""
    def faulty(A):
        d = det(A)
        return d * 1000 if A.rows else d
    return faulty


def _row_powers_ahead(row_powers):
    """A^(n+1) yielded in place of A^n, for every n."""
    def faulty(A, N):
        powers = row_powers(A, N + 1)
        next(powers)
        return powers
    return faulty


def _root_hi_plus_one(largest_real_root):
    """Every largest-root bracket with its upper end one step too high."""
    def faulty(p):
        lo, hi, e = largest_real_root(p)
        return lo, hi + 1, e
    return faulty


def _mobius_minus_one_at_6(mobius):
    """mu(6) = -1; it is 1."""
    def faulty(n):
        return -1 if n == 6 else mobius(n)
    return faulty


def _one_letter_short(cancelled_length):
    """One letter fewer cancelled at every junction that cancels any."""
    def faulty(u, v_inverse):
        return max(cancelled_length(u, v_inverse) - 1, 0)
    return faulty


def _last_two_classes_merged(partition):
    """The last two classes of every partition read as one."""
    def faulty(*args):
        part = partition(*args)
        last = part.num_classes - 1
        if last < 1:
            return part
        return ConjugacyPartition(
            tuple(last - 1 if c == last else c for c in part.class_of),
            part.representatives[:-1])
    return faulty


def _third_trace_plus_one(power_traces):
    """tr A^3 one too high, wherever it is asked for."""
    def faulty(A, N):
        traces = power_traces(A, N)
        if N >= 3:
            traces[2] += 1
        return traces
    return faulty


def _last_smith_entry_doubled(smith_normal_form):
    """The last entry of every Smith diagonal doubled."""
    def faulty(A):
        d = smith_normal_form(A)
        return d[:-1] + (2 * d[-1],) if d else d
    return faulty


def _last_coefficient_plus_one(berkowitz):
    """The constant coefficient of every Berkowitz polynomial one too high."""
    def faulty(rows):
        poly = berkowitz(rows)
        poly[-1] += 1
        return poly
    return faulty


def _last_factor_coefficient_plus_one(factor_from_traces):
    """The top coefficient of every dual factor one too high."""
    def faulty(traces):
        c = factor_from_traces(traces)
        return trim((*c[:-1], c[-1] + 1))
    return faulty


def _constant_term_plus_one(char_poly):
    """The constant term of every characteristic polynomial of dimension 3
    or more one too high."""
    def faulty(A):
        c = char_poly(A)
        return (c[0] + 1, *c[1:]) if A.rows >= 3 else c
    return faulty


def _two_products_swapped(group_from_permutations):
    """g1 g1 and g1 g2 exchanged in every table of three or more
    elements."""
    def faulty(degree, generators):
        G = group_from_permutations(degree, generators)
        if G.order < 3:
            return G
        mult = [list(row) for row in G.mult]
        mult[1][1], mult[1][2] = mult[1][2], mult[1][1]
        return FiniteGroup(tuple(map(tuple, mult)), G.inv, G.perms,
                           G.generators)
    return faulty


def _sign_counts_swapped(count_eigen_signs):
    """(r, p) in place of the sign counts (p, r)."""
    def faulty(cp):
        p, r = count_eigen_signs(cp)
        return r, p
    return faulty


def _last_length_plus_one(power_image_lengths):
    """The last image length of every list one too high."""
    def faulty(phi, N):
        lengths = power_image_lengths(phi, N)
        lengths[-1] += 1
        return lengths
    return faulty


def _value_times_one_and_a_half(value_at_angle):
    """Every evaluation at a torsion angle 1.5 times too large."""
    def faulty(rf, s):
        return value_at_angle(rf, s) * 1.5
    return faulty


# module.name: (wrapper of the real function, prefixes of the corpus
# documents that reach it).  Entries are never removed.
FAULTS = {
    "intlinalg.det": (_det_times_1000, ("sample-", "lattice-", "product-")),
    "intlinalg.row_powers": (_row_powers_ahead,
                             ("sample-", "lattice-", "product-", "finite-")),
    "intlinalg.largest_real_root": (_root_hi_plus_one, ("sample-", "free-")),
    "zeta.mobius": (_mobius_minus_one_at_6,
                    ("sample-", "lattice-k2", "product-")),
    "fox._cancelled_length": (_one_letter_short, ("sample-", "free-")),
    "groups.phi_conjugacy_classes": (_last_two_classes_merged,
                                     ("sample-", "product-", "finite-S4",
                                      "finite-D")),
    "intlinalg.power_traces": (_third_trace_plus_one,
                               ("sample-", "lattice-k2", "product-")),
    "intlinalg.smith_normal_form": (_last_smith_entry_doubled,
                                    ("sample-", "lattice-k2", "product-")),
    "intlinalg._berkowitz": (_last_coefficient_plus_one,
                             ("sample-", "lattice-k2", "finite-S4")),
    "zeta._factor_from_traces": (_last_factor_coefficient_plus_one,
                                 ("sample-", "lattice-k2")),
    "fox.power_image_lengths": (_last_length_plus_one,
                                ("sample-", "free-r2")),
    "zeta._value_at_angle": (_value_times_one_and_a_half,
                             ("sample-", "lattice-k2")),
    "groups._partition_from_orbits": (_last_two_classes_merged,
                                      ("sample-", "product-s3", "finite-S4")),
    "groups.ordinary_conjugacy_classes": (_last_two_classes_merged,
                                          ("sample-", "product-s3_inner-k1",
                                           "finite-S4")),
    "intlinalg.char_poly": (_constant_term_plus_one,
                            ("sample-", "lattice-k3", "free-r3-122")),
    "groups.group_from_permutations": (_two_products_swapped,
                                       ("sample-", "finite-S4",
                                        "finite-C2^5")),
    "intlinalg.count_eigen_signs": (_sign_counts_swapped,
                                    ("sample-", "lattice-k2")),
}
# One line per fault run: its changed, detected and silent report counts,
# which conftest.py prints in the terminal summary.
RESULT_LINES = []
# The faults known to change reports silently, each with the ROADMAP item
# that closes it.  The list may only shrink: once the item lands, the
# strict mark fails the test until the entry goes.
SILENT = {
    "intlinalg.largest_real_root": "item 6: a second route for the free "
                                   "spectral bounds",
    "intlinalg.smith_normal_form": "item 7e: the oracle's size cap skips "
                                   "the cosets the doubled entry adds",
    "zeta._value_at_angle": "item 21: both torsion routes share one float "
                            "evaluator",
    "groups._partition_from_orbits": "item 18: every count route reads the "
                                     "one class-partition builder",
    "groups.ordinary_conjugacy_classes": "item 7e: the oracle's size cap "
                                         "skips the large product documents",
    "intlinalg.char_poly": "item 6: a second route for the free spectral "
                           "bounds",
    "groups.group_from_permutations": "item 18: every count route reads the "
                                      "one multiplication table",
    "intlinalg.count_eigen_signs": "item 6: a second route for the "
                                   "eigenvalue sign counts",
}


def _patch(monkeypatch, key, wrap):
    """Replace the function ``key`` (module.name) by ``wrap(real)`` in
    every package module that binds the real function."""
    owner, name = key.split(".")
    modules = [module for loaded, module in sys.modules.items()
               if loaded == "twistedzeta"
               or loaded.startswith("twistedzeta.")]
    real = getattr(sys.modules[f"twistedzeta.{owner}"], name)
    faulty = wrap(real)
    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, faulty)


def _run(path):
    """``corpus.run(path)``; an exception that escapes ``cli.main`` exits 1,
    as the process would."""
    try:
        return corpus.run(path)
    except Exception as exc:
        return 1, repr(exc), ""


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True,
                                               reason=SILENT[name]))
    if name in SILENT else name for name in FAULTS])
def test_every_changed_report_is_detected(name, corpus_reports, monkeypatch,
                                          tmp_path):
    wrap, prefixes = FAULTS[name]
    paths = {doc: path for doc, path in corpus.write(tmp_path).items()
             if doc.startswith(prefixes)}
    _patch(monkeypatch, name, wrap)
    runs = {doc: _run(path) for doc, path in paths.items()}
    changed = [doc for doc, run in runs.items() if run != corpus_reports[doc]]
    silent = sorted(doc for doc in changed if runs[doc][0] == 0)
    RESULT_LINES.append(f"{name}: {len(changed)} changed, "
                        f"{len(changed) - len(silent)} detected, "
                        f"{len(silent)} silent")
    assert changed, f"the {name} fault changes no report"
    assert not silent, f"{len(silent)} of {len(changed)} changed silently"
