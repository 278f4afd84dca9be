import sys

import pytest

# Far above any corpus document (each takes a few milliseconds); the
# benchmark's own limit is 3 s.
DEADLINE_S = 60.0


@pytest.fixture(scope="session")
def corpus_reports(tmp_path_factory):
    """(exit code, standard error, report) of ``compute --json`` on every
    corpus document, computed once per test run: the corpus test and the
    stored-answer test read the same reports."""
    import corpus
    return corpus.compute_all(tmp_path_factory.mktemp("corpus"), DEADLINE_S)


# The test modules that record one line per check, and their section titles.
SUMMARIES = {"test_acceptance": "acceptance criteria",
             "test_fault_catalog": "fault catalogue"}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, title in SUMMARIES.items():
        lines = getattr(sys.modules.get(name), "RESULT_LINES", None)
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
