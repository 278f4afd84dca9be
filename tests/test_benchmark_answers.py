"""The benchmark's stored answers, checked in the tier-1 suite.

Every seed-0 ``product`` and ``free`` document of ``perfbench/workloads.py``
runs once through ``cli.main(["compute", ...])``, and the benchmark's own
``Checker`` compares each report with ``perfbench/expected/*-seed0.json``.
A change that alters a stored answer then fails here, not only in the
benchmark.  Frontier documents are left out: they are there to be timed.
Nothing under ``perfbench/`` is written.
"""

import json
import signal
import sys
from pathlib import Path

import pytest

from twistedzeta import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# Import without leaving a bytecode cache under perfbench/.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import checks  # noqa: E402
import workloads  # noqa: E402
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


@pytest.mark.parametrize("workload", ["product", "free"])
def test_seed0_reports_match_the_stored_answers(workload, tmp_path,
                                                deadline_handler):
    expected = json.loads(
        (PERFBENCH / "expected" / f"{workload}-seed0.json").read_text())
    docs = [d for d in workloads.make(workload, 0) if not d.frontier]
    assert docs and {d.ident for d in docs} <= set(expected["documents"])
    problems = []
    checker = checks.Checker(expected["documents"], problems.append)
    for doc in docs:
        path = tmp_path / f"{doc.ident}.json"
        path.write_text(json.dumps(doc.body))
        outcome = checker.check(
            doc, checks.compute(cli.main, str(path), DEADLINE_S))
        assert outcome.ok, (doc.ident, outcome.status, outcome.detail)
    assert problems == []
    assert (checker.attempted, checker.failed, checker.wrong) == (
        len(docs), 0, 0)
