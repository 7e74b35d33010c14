import threading

import pytest


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    outcome = report.outcome.upper()
    print(f"\n[ACCEPTANCE] {name}: {outcome}")


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started
