"""The benchmark's stored answers and pinned names, checked in the tier-1
suite.

Every seed-0 document of the four workloads of ``perfbench/workloads.py``
runs once through ``cli.main(["compute", ...])``, in the corpus pass that
``test_corpus`` reads as well, and the benchmark's own ``Checker``
compares each report with ``perfbench/expected/*-seed0.json``.
A change that alters a stored answer then fails here, not only in the
benchmark.  Frontier documents are left out: they are there to be timed.
The package functions that the harness names in its per-layer tables must
exist, or ``--trace 1`` fails.  Nothing under ``perfbench/`` is written.
"""

import json
import signal
import sys
from pathlib import Path

import pytest

from twistedzeta import cli

import corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# Import without leaving a bytecode cache under perfbench/.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
sys.dont_write_bytecode = _write_bytecode

# Far above any regular document (each takes a few milliseconds); the
# benchmark's own limit is 3 s.
DEADLINE_S = 60.0


@pytest.fixture
def deadline_handler():
    previous = signal.getsignal(signal.SIGALRM)
    checks.arm_deadline_handler()
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", ["product", "free", "lattice", "finite"])
def test_seed0_reports_match_the_stored_answers(workload, corpus_reports):
    expected = json.loads(
        (PERFBENCH / "expected" / f"{workload}-seed0.json").read_text())
    docs = corpus.seed0(workload)
    assert docs and {d.ident for d in docs} <= set(expected["documents"])
    problems = []
    checker = checks.Checker(expected["documents"], problems.append)
    for doc in docs:
        code, err, report = corpus_reports[doc.ident]
        assert (code, err) == (0, ""), doc.ident
        report = json.loads(report)
        assert report["agreement"] is True, doc.ident
        outcome = checker.check(doc, checks.Outcome(checks.OK, 0.0, report))
        assert outcome.ok, (doc.ident, outcome.status, outcome.detail)
    assert problems == []
    assert (checker.attempted, checker.failed, checker.wrong) == (
        len(docs), 0, 0)


def test_every_pinned_name_is_a_traced_package_function():
    # --trace 1 wraps the public functions of the layer modules and reads
    # the per-layer table by these names; a deleted or renamed one raises
    # KeyError there, and a span value is silently no longer recorded.
    pinned = {*run.FUNCTIONS_REPORTED, *run.TOTALS_REPORTED,
              *tracing.SPAN_VALUE}
    tracer = tracing.Tracer()
    try:
        traced = set(tracer.install())
    finally:
        tracer.remove()
    assert pinned - traced == set()


def test_span_values_are_read_on_every_kind(tmp_path, deadline_handler):
    # The wrapper reads SPAN_VALUE from a function's arguments or result
    # (the rows of char_poly's matrix, the order of a group built), so a
    # reader that no longer fits what the function takes or returns would
    # fail --trace 1 inside the wrapper.  One product, one abelian, one
    # finite document with a map that is not onto, and one free document.
    docs = {d.ident: d for w in ("product", "lattice", "finite", "free")
            for d in corpus.seed0(w)}
    picks = [next(d for ident, d in docs.items() if ident.startswith(prefix))
             for prefix in ("product-s3_inner-k2-", "lattice-",
                            "finite-S4-sign-", "free-")]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for doc in picks:
            path = tmp_path / f"{doc.ident}.json"
            path.write_text(json.dumps(doc.body))
            tracer.doc_id = doc.ident
            outcome = checks.compute(cli.main, str(path), DEADLINE_S)
            assert outcome.ok, (doc.ident, outcome.status, outcome.detail)
    finally:
        tracer.remove()
    assert not [span for span in tracer.spans if span[5]]
    valued = [span for span in tracer.spans if span[0] in tracing.SPAN_VALUE]
    assert all(span[6] is not None for span in valued)
    assert {"intlinalg.char_poly", "groups.group_from_permutations",
            "groups.trivial_group", "groups.eventual_image"} <= {
        span[0] for span in valued}
