import signal
from contextlib import contextmanager

import pytest


@contextmanager
def deadline(seconds: float):
    """Fail the test when the block runs past `seconds` of wall time.

    A real-time interval timer raises pytest's failure from its SIGALRM
    handler, so a hang fails in seconds rather than at faulthandler_timeout.
    The handler runs in the main thread, between bytecodes.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one pass/fail line per acceptance criterion
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((name, f"{name}: {verdict}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
