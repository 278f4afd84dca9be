"""Faults injected into one kernel at a time, and what the reports show.

Each entry of ``FAULTS`` patches one package name, in every package module
that binds it, with a small wrapper of the real function, and runs
``compute --json`` on the corpus documents that reach it.  A changed
report is *detected* when it exits non-zero and *silent* when it exits 0:
a route that agrees with a faulty one proves nothing.  The test asks that
the fault changes some report and leaves none silent.  This is mutation
analysis (DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978) with hand-written faults, so no package is
needed.  The unfaulted reports are the corpus pass that ``test_corpus``
reads as well.
"""

import sys

import pytest

import corpus


def _det_times_1000(det):
    """The determinant of every non-empty matrix, times 1000."""
    def faulty(A):
        d = det(A)
        return d * 1000 if A.rows else d
    return faulty


# name: (wrapper of the real function, prefixes of the corpus documents
# that reach it)
FAULTS = {
    "det": (_det_times_1000, ("sample-", "lattice-", "product-")),
}


def _patch(monkeypatch, name, wrap):
    """Replace ``name`` by ``wrap(real)`` in every package module that
    binds the real function."""
    modules = [module for key, module in sys.modules.items()
               if key == "twistedzeta" or key.startswith("twistedzeta.")]
    real = getattr(sys.modules["twistedzeta.intlinalg"], name)
    faulty = wrap(real)
    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, faulty)


@pytest.mark.parametrize("name", FAULTS)
def test_every_changed_report_is_detected(name, corpus_reports, monkeypatch,
                                          tmp_path):
    wrap, prefixes = FAULTS[name]
    paths = {doc: path for doc, path in corpus.write(tmp_path).items()
             if doc.startswith(prefixes)}
    _patch(monkeypatch, name, wrap)
    runs = {doc: corpus.run(path) for doc, path in paths.items()}
    changed = [doc for doc, run in runs.items() if run != corpus_reports[doc]]
    assert changed, f"the {name} fault changes no report"
    silent = sorted(doc for doc in changed if runs[doc][0] == 0)
    assert not silent, f"{len(silent)} of {len(changed)} changed silently"
