"""Shared fixtures: one validation context, check outcomes, criterion summary.

``validation_ctx`` is the session's ``fracstorm.validate.CheckContext`` (seed
0, ``TEST_THREADS`` threads).  The registry checks share its memoised eigen
systems and white sweep, as one ``fracstorm validate`` run does; the unit
tests reach the same eigen systems, keyed by (alpha, n, R, nu), through
``eigen_cache``.  ``e_30_digits(beta, y)`` is E_beta(-y) in 30 digits, the
reference of the Mittag-Leffler and mode-decay accuracy tests.
``check_outcome(name)`` runs a registry check once per session, so the
per-check tests, the per-criterion tests and the unit tests that assert a
check's verdict share one run of it.  The terminal-summary hook
prints one PASS/FAIL line per acceptance criterion from the verdicts that the
criterion tests of ``test_acceptance.py`` record on their reports.
"""

import os
import time

import pytest
from mpmath import mp

from fracstorm.validate import CHECKS, CheckContext

#: thread count used by tests that exercise the parallel paths; results are
#: bitwise independent of this value by design.
TEST_THREADS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def validation_ctx():
    return CheckContext(seed=0, threads=TEST_THREADS)


@pytest.fixture(scope="session")
def check_outcome(validation_ctx):
    """``name -> (passed, measured, tolerance, elapsed seconds)``, run once."""
    checks = {check.name: check for check in CHECKS}
    outcomes = {}

    def outcome(name):
        if name not in outcomes:
            start = time.perf_counter()
            verdict = checks[name].fn(validation_ctx)
            outcomes[name] = (*verdict, time.perf_counter() - start)
        return outcomes[name]
    return outcome


@pytest.fixture(scope="session")
def eigen_cache(validation_ctx):
    return validation_ctx.eigen


@pytest.fixture(scope="session")
def bump(validation_ctx):
    return validation_ctx.bump


@pytest.fixture(scope="session")
def e_30_digits():
    def value(beta, y):
        """E_beta(-y) in 30 digits, by Talbot inversion of its Laplace
        transform s^(beta - 1) / (s^beta + y) at t = 1: no route the package
        uses."""
        with mp.workdps(30):
            b, y = mp.mpf(beta), mp.mpf(y)
            return mp.invertlaplace(lambda s: s ** (b - 1) / (s ** b + y), 1, method="talbot")
    return value


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # criterion number -> (label, passed, per-check details)
    criteria = {}
    stats = terminalreporter.stats
    for report in (*stats.get("passed", ()), *stats.get("failed", ())):
        props = dict(report.user_properties)
        if "criterion" in props:
            number, label = props["criterion"]
            # no detail when a check raised
            criteria[number] = (label, report.passed, props.get("detail", ""))
    if criteria:
        terminalreporter.section("acceptance criteria")
        for number, (label, ok, detail) in sorted(criteria.items()):
            terminalreporter.write_line(
                f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {label} ({detail})")
