"""Running one document through the command line, and checking its report.

An operation is one ``compute`` of one document.  It succeeds only when
``main`` returns exit code 0 and the report's top-level ``agreement`` is the
JSON value ``true``.  Its answers (the count sequences, the zeta factors and
the twisted power norms) must then also

* be the same on every repeat of the document in the run,
* equal the answers stored for the seed, when answers are stored for it,
* and, for lattice documents, equal |det(I - M^n)| recomputed here.

A report that fails any of these is a wrong answer, and the run is not
correct.  An exception, a nonzero exit code or a deadline overrun is a failed
operation but not a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time
from dataclasses import dataclass

from workloads import identity_minus, int_det, mat_mul

OK = "ok"
TIMED_OUT = "timed out"
KNOWN_CRASH = "raised NonInvertible"
# Statuses of a report that came back but is wrong: the routes disagree, or
# the output is not the JSON report.
WRONG = ("exit 4", "agreement not true", "unreadable report")


class DeadlineExceeded(BaseException):
    """Raised in the document's frames by the interval timer.

    A BaseException, so that no ``except Exception`` in the package can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def arm_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@dataclass
class Outcome:
    status: str
    seconds: float
    report: dict | None = None
    detail: str = ""
    # The enumeration-oracle count entries of a product report (None where
    # the oracle was skipped); kept after the report is dropped.
    oracle: list | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def compute(main, path: str, deadline: float) -> Outcome:
    """``main(["compute", path])`` with stdout and stderr captured, cut off
    after ``deadline`` seconds of wall time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["compute", path])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Outcome(TIMED_OUT, time.perf_counter() - start)
    except Exception as exc:  # an uncaught error is a failed operation
        return Outcome(f"raised {type(exc).__name__}",
                       time.perf_counter() - start, detail=str(exc))
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(f"exit {code}", seconds,
                       detail=err.getvalue().strip()[:200])
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError as exc:
        return Outcome("unreadable report", seconds, detail=str(exc))
    oracle = report.get("counts", {}).get("enumeration_oracle")
    status = OK if report.get("agreement") is True else "agreement not true"
    return Outcome(status, seconds, report, oracle=oracle)


def parse_flag(value) -> bool | None:
    """Torsion ``agree`` entries reach the JSON as the strings "True" and
    "False" (numpy booleans through ``default=str``) or as booleans."""
    if value is True or value == "True":
        return True
    if value is False or value == "False":
        return False
    return None


def answers(report: dict) -> dict:
    """The parts of a report that are compared across runs."""
    out = {}
    if "counts" in report:
        out["counts"] = report["counts"]
    if "zeta" in report:
        out["zeta_factors"] = report["zeta"]["factors"]
    if "twisted_power_norms" in report:
        out["twisted_power_norms"] = report["twisted_power_norms"]
    return out


def lattice_counts(matrix, order: int) -> list[int]:
    """|det(I - M^n)| for n = 1..order, by this module's own arithmetic."""
    out, power = [], [[1 if i == j else 0 for j in range(len(matrix))]
                      for i in range(len(matrix))]
    for _ in range(order):
        power = mat_mul(power, matrix)
        out.append(abs(int_det(identity_minus(power))))
    return out


class Checker:
    """Checks each outcome as it arrives, then drops its report.

    Holding every report until the end would leave thousands of live
    objects for the garbage collector to walk during later documents, so
    only the first answers of each document are kept, for the repeat check.

    ``attempted`` and ``failed`` count documents, not repeats: a document
    fails if any of its repeats fails.  How often a document repeats depends
    on the machine's speed, so counting repeats would make the counts differ
    between runs of the same seed.
    """

    def __init__(self, expected: dict | None, log):
        self.expected = expected
        self.log = log
        self.first_answers: dict[str, dict] = {}
        self.seen: set[str] = set()
        self.failed_docs: set[str] = set()
        self.wrong = 0

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failed_docs)

    def check(self, doc, outcome: Outcome) -> Outcome:
        self.seen.add(doc.ident)
        found = []
        if outcome.ok:
            found = self._problems(doc, outcome.report)
        elif outcome.status in WRONG:
            found = [f"{outcome.status} {outcome.detail}".strip()]
        elif not (doc.frontier and outcome.status == TIMED_OUT or
                  doc.known_crash and outcome.status == KNOWN_CRASH):
            self.log(f"{doc.ident} failed: {outcome.status} {outcome.detail}")
        if found:
            self.wrong += 1
            self.log(f"wrong answer on {doc.ident}: {'; '.join(found)}")
        if found or not outcome.ok:
            self.failed_docs.add(doc.ident)
        outcome.report = None
        return outcome

    def _problems(self, doc, report: dict) -> list[str]:
        found = []
        for entry in report.get("torsion", []):
            if parse_flag(entry.get("agree")) is not True:
                found.append(f"torsion at {entry.get('angle')}: agree is "
                             f"{entry.get('agree')!r}")
        got = answers(report)
        first = self.first_answers.get(doc.ident)
        if first is not None:
            if got != first:
                found.append("answers differ between repeats")
            return found
        self.first_answers[doc.ident] = got
        stored = self.expected and self.expected[doc.ident]["answers"]
        for key, value in (stored or {}).items():
            if got.get(key) != value:
                found.append(f"{key} differs from the stored answer")
        if doc.body["kind"] == "abelian":
            counts = report["counts"]["determinant_formula"]
            if counts != lattice_counts(doc.body["matrix"], len(counts)):
                found.append("determinant_formula differs from |det(I - M^n)|")
        return found
