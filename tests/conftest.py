"""Shared test plumbing: collects acceptance criterion lines for the summary
and fails any test that leaves a worker process behind."""

import multiprocessing

import pytest

_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    """Print and record one pass/fail line per acceptance criterion."""

    def _report(criterion, passed, detail):
        line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}"
        print("\n" + line)
        _CRITERION_LINES.append(line)
        if not passed:
            pytest.fail(line)

    return _report


@pytest.fixture(autouse=True)
def no_worker_left_running():
    yield
    assert multiprocessing.active_children() == []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
