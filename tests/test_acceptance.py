"""The validation registry as the acceptance suite, and the registry's invariants.

Every record of ``fracstorm.validate.CHECKS`` is one test case with id
``group/name``, run in the session's shared context: it asserts that the check
passed, with the measured value and the tolerance in the failure message, and
that it met its wall-time budget where it has one.  Each acceptance criterion
is one more test, ``test_criterion_NN_*``, over the outcomes of the checks
that carry it (each check runs once per session): all passed, within the
criterion's budget.  It records its verdict for the terminal summary, which
prints one line per criterion.  The other tests hold the registry to its
invariants and compare the golden table's closed-form rows with 30-digit
mpmath values, an oracle that shares nothing with the CSV.
"""

import math

import mpmath
import pytest

from fracstorm.validate import CHECKS, golden_table

#: acceptance criterion -> (label, wall-time budget in seconds)
CRITERIA = {
    1: ("special-function values", 1.0),
    2: ("derivative inverts integral", 5.0),
    3: ("free-kernel L2 decay law", 30.0),
    4: ("spectral vs subordination kernel", 60.0),
    5: ("domain kernel bounded by free kernel", 60.0),
    6: ("renewal growth solver", 10.0),
    7: ("white-noise excitation index", 600.0),
    8: ("colored-noise excitation index", 1200.0),
    9: ("Monte Carlo vs exact second moment", 300.0),
    10: ("series lower-bound growth", 1.0),
}

#: closed forms of the golden rows with provenance ``closed-form``
CLOSED_FORMS = {
    "mittag_leffler:beta=0.5;x=-1": lambda: mpmath.e * mpmath.erfc(1),
    "subordinator_density:beta=0.5;u=1":
        lambda: mpmath.exp(-0.25) / (2 * mpmath.sqrt(mpmath.pi)),
    "inverse_subordinator_density:beta=0.5;t=1;x=1":
        lambda: mpmath.exp(-0.25) / mpmath.sqrt(mpmath.pi),
    "l2_constant:alpha=2;beta=1;d=1;nu=1": lambda: (8 * mpmath.pi) ** -0.5,
    "lower_series:rho=1;theta=1":
        lambda: mpmath.fsum(mpmath.mpf(k) ** -k for k in range(1, 40)),
    "riesz_diagonal:gamma=0.5;h=0.1":
        lambda: mpmath.mpf("0.1") ** -0.5 * 2 / ((1 - mpmath.mpf(0.5)) * (2 - mpmath.mpf(0.5))),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: f"{c.group}/{c.name}")
def test_check(check, check_outcome):
    passed, measured, tolerance, elapsed = check_outcome(check.name)
    assert passed, f"{measured} (tolerance {tolerance})"
    if check.budget is not None:
        assert elapsed <= check.budget, f"took {elapsed:.2f} s, budget {check.budget} s"


def _criterion(number, check_outcome, request):
    label, budget = CRITERIA[number]
    # The verdict rides on the report for conftest's criterion summary.
    verdict = request.node.user_properties
    verdict.append(("criterion", (number, label)))
    names = [check.name for check in CHECKS if check.criterion == number]
    outcomes = {name: check_outcome(name) for name in names}
    verdict.append(("detail", "; ".join(
        f"{name}: {measured}, {elapsed:.2f}s"
        for name, (_, measured, _, elapsed) in outcomes.items())))
    failed = [name for name, outcome in outcomes.items() if not outcome[0]]
    assert names and not failed, f"failed: {failed}"
    elapsed = math.fsum(outcome[3] for outcome in outcomes.values())
    assert elapsed <= budget, f"took {elapsed:.2f} s, budget {budget} s"


def test_criterion_01_special_function_values(check_outcome, request):
    _criterion(1, check_outcome, request)


def test_criterion_02_derivative_inverts_integral(check_outcome, request):
    _criterion(2, check_outcome, request)


def test_criterion_03_free_kernel_l2_decay(check_outcome, request):
    _criterion(3, check_outcome, request)


def test_criterion_04_kernel_route_agreement(check_outcome, request):
    _criterion(4, check_outcome, request)


def test_criterion_05_kernel_bounds(check_outcome, request):
    _criterion(5, check_outcome, request)


def test_criterion_06_renewal_solver(check_outcome, request):
    _criterion(6, check_outcome, request)


def test_criterion_07_white_noise_index(check_outcome, request):
    _criterion(7, check_outcome, request)


def test_criterion_08_colored_noise_index(check_outcome, request):
    _criterion(8, check_outcome, request)


def test_criterion_09_montecarlo_matches_exact_moments(check_outcome, request):
    _criterion(9, check_outcome, request)


def test_criterion_10_series_lower_bound(check_outcome, request):
    _criterion(10, check_outcome, request)


def test_check_names_are_unique():
    names = [check.name for check in CHECKS]
    assert len(names) == len(set(names))


def test_criterion_budgets_sum_to_the_criterion_budget():
    assert {check.criterion for check in CHECKS} - {None} == set(CRITERIA)
    for number, (_, budget) in CRITERIA.items():
        budgets = [check.budget for check in CHECKS if check.criterion == number]
        assert budgets and None not in budgets, number
        assert math.fsum(budgets) == pytest.approx(budget, rel=1e-12), number


def test_every_golden_row_is_read_by_exactly_one_check():
    table = golden_table()
    used = [check.golden for check in CHECKS if check.golden is not None]
    assert sorted(used) == sorted(table)
    for check in CHECKS:
        if check.golden is not None:
            assert check.provenance == table[check.golden][2], check.name


def test_closed_form_goldens_match_30_digit_values():
    rows = {key: row for key, row in golden_table().items() if row[2] == "closed-form"}
    assert set(rows) == set(CLOSED_FORMS)
    with mpmath.workdps(30):
        for key, (expected, _, _) in rows.items():
            exact = CLOSED_FORMS[key]()
            assert abs(mpmath.mpf(expected) - exact) <= math.ulp(expected), key
