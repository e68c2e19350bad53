"""Shared test plumbing.

Tests marked ``@pytest.mark.criterion(n, "title")`` roll up into a
per-criterion PASS/FAIL line printed after the run, so the acceptance
status is readable at a glance.
"""

import functools

import pytest
from hypothesis import settings

from flowbridge.tracing import Trace

# A larger, derandomized run of the properties that check a fast path
# against its reference; CI selects it with `--hypothesis-profile ci`.
# Tier-1 runs under Hypothesis's default profile.
settings.register_profile("ci", max_examples=2000, derandomize=True)


@pytest.fixture(autouse=True)
def close_traces(monkeypatch):
    """Close every trace a test opened when it ends, passed or failed. A
    failed test's world never drains, and the ResourceWarning of its
    open file would otherwise fail whichever test runs next."""
    opened = []
    open_trace = Trace.open

    @functools.wraps(open_trace)
    def open_and_keep(self, path):
        open_trace(self, path)
        opened.append(self)

    monkeypatch.setattr(Trace, "open", open_and_keep)
    yield
    for trace in opened:
        trace.close()


_CRITERIA: dict[int, str] = {}
_RESULTS: dict[int, list] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): marks a test as covering one acceptance criterion",
    )


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            item.user_properties.append(("criterion", marker.args))


def pytest_runtest_logreport(report):
    for name, value in report.user_properties:
        if name != "criterion":
            continue
        num, title = value
        _CRITERIA[num] = title
        outcomes = _RESULTS.setdefault(num, [])
        if report.when == "call":
            outcomes.append(report.outcome == "passed")
        elif report.outcome != "passed":  # setup/teardown error
            outcomes.append(False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        outcomes = _RESULTS.get(num, [])
        status = "PASS" if outcomes and all(outcomes) else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:>2}: {status}  {_CRITERIA[num]}")
