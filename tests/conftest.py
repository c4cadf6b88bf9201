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
