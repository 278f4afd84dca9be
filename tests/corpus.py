"""The corpus of problem documents, and one runner for every verb.

The documents are the files in ``samples/``, every seed-0 document of the
benchmark workloads except the frontier ones (read from
``perfbench/workloads.py``, which nothing here writes to), and five lattice
maps whose first infinite iterate is n = 1, 2, 3, 4 and 6.  ``run`` gives the
exit code, the standard error and the printed report of one verb on one
document, with the ``timing_seconds`` line taken out, so that two versions
of the package can be compared report for report:

    for name, path in corpus.write(directory).items():
        for verb in corpus.VERBS:
            for fmt in corpus.FORMATS:
                corpus.run(path, verb, fmt)

``compute_all`` runs ``compute --json`` on every document once, for the
tests that read the same reports.

Run as a script, it writes every (document, verb, format) result of the
package in this checkout to a directory, one file each, so that
``diff -r`` of the directories of two checkouts is the corpus comparison:

    python tests/corpus.py OUT
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from twistedzeta import cli  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
# Import without leaving a bytecode cache under perfbench/.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import checks  # noqa: E402
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode

VERBS = ("check", "compute", "zeta", "bounds", "torsion")
FORMATS = ("--json", "--text")

# An eigenvalue that is a primitive n-th root of unity makes det(I - M^n)
# vanish first at that n: [[1]], [[-1]] and the companion matrices of Phi_3,
# Phi_4 and Phi_6.
INFINITE_AT = {1: [[1]], 2: [[-1]], 3: [[0, -1], [1, -1]],
               4: [[0, -1], [1, 0]], 6: [[0, -1], [1, 1]]}


@functools.cache
def seed0(workload: str) -> tuple:
    """The non-frontier seed-0 documents of a benchmark workload, as
    ``workloads.make`` gives them, made once per process."""
    return tuple(doc for doc in workloads.make(workload, 0)
                 if not doc.frontier)


def documents() -> dict[str, dict]:
    """Every corpus document by name, in a fixed order."""
    docs = {f"sample-{path.stem}": json.loads(path.read_text())
            for path in sorted((ROOT / "samples").glob("*.json"))}
    for workload in workloads.WORKLOADS:
        docs.update((doc.ident, doc.body) for doc in seed0(workload))
    docs.update((f"infinite-at-{n}", {"kind": "abelian", "matrix": matrix})
                for n, matrix in INFINITE_AT.items())
    return docs


def write(directory: Path) -> dict[str, Path]:
    """Each corpus document written to ``directory``, by name."""
    paths = {}
    for name, body in documents().items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(body))
    return paths


# The last top-level key of a compute report, in either format.
_TIMING = re.compile(r',\n  "timing_seconds": [^\n]*|\ntiming_seconds: [^\n]*')


def run(path: Path, verb: str = "compute",
        fmt: str = "--json") -> tuple[int, str, str]:
    """(exit code, standard error, report without ``timing_seconds``) of
    ``twistedzeta verb path fmt``, run in this process.  A JSON report
    stays valid JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, str(path), fmt])
    return code, err.getvalue(), _TIMING.sub("", out.getvalue())


def compute_all(directory: Path, deadline: float
                ) -> dict[str, tuple[int, str, str]]:
    """``run(path)`` for every corpus document written to ``directory``, by
    name, each cut off after ``deadline`` seconds of wall time by the
    benchmark's own timer (``checks.DeadlineExceeded`` propagates)."""
    previous = signal.getsignal(signal.SIGALRM)
    checks.arm_deadline_handler()
    reports = {}
    try:
        for name, path in write(directory).items():
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                reports[name] = run(path)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return reports


def write_results(out: Path) -> int:
    """Every verb in every format on every corpus document, each run as
    ``out/<document>/<verb><format>``: its exit code, standard error and
    report.  Returns the number of runs."""
    runs = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, path in write(Path(directory)).items():
            (out / name).mkdir(parents=True, exist_ok=True)
            for verb in VERBS:
                for fmt in FORMATS:
                    code, err, report = run(path, verb, fmt)
                    (out / name / f"{verb}{fmt}").write_text(
                        f"exit {code}\n--- stderr\n{err}--- report\n{report}")
                    runs += 1
    return runs


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/corpus.py OUT")
    print(f"{write_results(Path(sys.argv[1]))} runs written to {sys.argv[1]}")
