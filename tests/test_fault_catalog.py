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
from twistedzeta import ConjugacyPartition


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


def _last_two_classes_merged(phi_conjugacy_classes):
    """The last two twisted classes of every partition read as one."""
    def faulty(G, phi):
        part = phi_conjugacy_classes(G, phi)
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
