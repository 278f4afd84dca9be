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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULT_LINES:
            terminalreporter.write_line(line)
