"""Shared pytest hooks: one-line summary per acceptance criterion, a guard
against a test that leaves OpenBLAS's thread count changed, and the task
runner's malloc primer run once before any test.

Tests marked with @pytest.mark.criterion("A1", "some title") contribute to a
terminal summary block with one [A1] PASS/FAIL/SKIP line per label.  Several
tests may share a label; the line reports FAIL if any failed, else SKIP if
all were skipped, else PASS.
"""

from __future__ import annotations

import pytest

from vibanom import blas, parallel


@pytest.fixture(autouse=True, scope="session")
def malloc_primed():
    """Run the task runner's once-per-process malloc primer before any
    test. numpy reports its untouched 16 MB block to tracemalloc, so a
    memory pin whose scoring walk or training happened to be the process's
    first would count it."""
    parallel._raise_mmap_threshold()


@pytest.fixture(autouse=True)
def openblas_threads_unchanged():
    """The OpenBLAS thread count after each test is the one before it (the
    task runner and training pin it to 1 while they run). No check without
    OpenBLAS."""
    before = blas.thread_count()
    yield
    if before is not None:
        assert blas.thread_count() == before, "OpenBLAS thread count left changed"


_STATUSES: dict = {}
_TITLES: dict = {}
_ORDER: list = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    label, title = marker.args
    if label not in _TITLES:
        _TITLES[label] = title
        _ORDER.append(label)
    statuses = _STATUSES.setdefault(label, [])
    if report.when == "call":
        statuses.append("SKIP" if report.skipped else
                        ("PASS" if report.passed else "FAIL"))
    elif report.when == "setup":
        if report.failed:
            statuses.append("FAIL")
        elif report.skipped:
            statuses.append("SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _STATUSES:
        return
    terminalreporter.section("acceptance criteria")
    for label in _ORDER:
        statuses = _STATUSES[label]
        if "FAIL" in statuses:
            verdict = "FAIL"
        elif all(s == "SKIP" for s in statuses):
            verdict = "SKIP"
        else:
            verdict = "PASS"
        terminalreporter.write_line(
            "[%s] %s - %s" % (label, verdict, _TITLES[label]))
