"""Prints one PASS/FAIL line per acceptance criterion after the run, and
makes the property tests draw the same examples on every run."""

import re

from hypothesis import settings

# Examples are derived from each test's own source, so two runs of the
# suite (say, before and after a change) try the same inputs.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")
_results = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match is None:
        return
    number, slug = int(match.group(1)), match.group(2)
    if report.when == "call":
        _results[number] = (slug, report.outcome)
    elif report.when == "setup" and report.outcome != "passed":
        _results[number] = (slug, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        slug, outcome = _results[number]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:02d} [{status}] {slug.replace('_', ' ')}"
        )
