import math
from unittest import mock

import pytest

from advicecheck import (
    HorizonExceededError,
    InfeasibleScheduleError,
    InvalidInputError,
    PhaseKind,
    ScheduleRules,
    build_schedule,
    geometric_rules,
    harmonic_rules,
    literal_layout,
    locate,
    plan_test,
    power_beta,
    single_test_schedule,
    toy_schedule,
    validate_schedule,
)
from advicecheck import PsiEstimate, chi2, manual_plan, verifier


@pytest.fixture(scope="module")
def fixture_schedule(game, correlated_strategy):
    # harmonic rules are feasible on the strongly correlated announcement
    return build_schedule(
        game, correlated_strategy, harmonic_rules(), horizon_tests=6,
        mc_samples=50_000, seed=11,
    )


def test_timeline_layout_matches_figure():
    # lengths 1,2 for tests and 2,2 for free periods reproduce the reference
    # layout: second test occupies rounds 4-5, first free period rounds 2-3
    lay = literal_layout([1, 2], [2, 2])
    r2 = lay.tests()[1]
    assert (r2.begin, r2.length) == (4, 2)
    f1 = lay.free_periods()[0]
    assert (f1.begin, f1.length) == (2, 2)


def test_locate_worked_points():
    lay = literal_layout([1, 2], [2, 2])
    ph, off = locate(lay, 5)
    assert ph.kind is PhaseKind.SAMPLING_TEST and ph.index == 2 and off == 1
    ph, off = locate(lay, 1)
    assert ph.kind is PhaseKind.SAMPLING_TEST and ph.index == 1 and off == 0
    ph, off = locate(lay, 2)
    assert ph.kind is PhaseKind.FREE_PERIOD and ph.index == 1 and off == 0


def test_literal_layout_refuses_mismatched_lengths(game, ce_strategy):
    # zip would silently drop the second test
    with pytest.raises(InvalidInputError):
        literal_layout([1, 2], [2])
    with pytest.raises(InvalidInputError):
        literal_layout([1], [2, 2])
    with pytest.raises(InvalidInputError):
        toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                     test_lengths=[10, 20], free_lengths=[30])


@pytest.mark.parametrize("tests, frees, name", [
    ([2.7], [3.5], "test 1 length"), ([True], [4], "test 1 length"),
    ([4, "4"], [4, 4], "test 2 length"),
    ([3], [0.9], "test 1 free length"), ([3, 3], [4, False], "test 2 free length"),
    ([3], [4.0], "test 1 free length"),
])
def test_layouts_refuse_lengths_that_are_not_integers(game, ce_strategy, tests, frees, name):
    # int() used to truncate them: [2.7], [3.5] laid out phases of 2 and 3
    # rounds, a free length of 0.9 or False dropped the free period, True was 1
    with pytest.raises(InvalidInputError, match=name):
        literal_layout(tests, frees)
    with pytest.raises(InvalidInputError, match=name):
        toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                     test_lengths=tests, free_lengths=frees)


def test_locate_bounds():
    lay = literal_layout([1, 2], [2, 2])
    with pytest.raises(InvalidInputError):
        locate(lay, 0)
    with pytest.raises(HorizonExceededError):
        locate(lay, 8)


def test_tiling_no_gaps_no_overlaps(fixture_schedule):
    seen = 0
    for t in range(1, fixture_schedule.horizon + 1):
        ph, off = locate(fixture_schedule, t)
        assert ph.begin <= t <= ph.end
        assert off == t - ph.begin
        seen += 1
    assert seen == fixture_schedule.horizon
    total = sum(ph.length for ph in fixture_schedule.phases)
    assert total == fixture_schedule.horizon


def test_single_test_horizon(game, ce_strategy):
    sched = build_schedule(
        game, ce_strategy, geometric_rules(1e-4, 0.1), horizon_tests=1,
        mc_samples=20_000, seed=3,
    )
    kinds = [ph.kind for ph in sched.phases]
    assert kinds == [PhaseKind.SAMPLING_TEST, PhaseKind.FREE_PERIOD]
    assert sched.phases[0].begin == 1


def test_schedule_lengths_frozen(fixture_schedule):
    # prefix recorded from the frozen generator run (mc=50000, seed=11)
    assert [p.length for p in fixture_schedule.tests()] == [1, 10, 31, 62, 105, 158]
    assert [p.length for p in fixture_schedule.free_periods()] == [
        1, 100, 961, 3844, 11025, 24964,
    ]


def test_test_lengths_nondecreasing(fixture_schedule):
    lengths = [p.length for p in fixture_schedule.tests()]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))


def test_generated_plans_meet_their_budgets(fixture_schedule):
    for plan in fixture_schedule.plans:
        achieved = power_beta(plan.alpha, plan.delta_hat, plan.df_total, plan.sample_size)
        assert achieved <= plan.beta + 1e-12


def test_validation_passes_on_default_rules(fixture_schedule):
    report = validate_schedule(fixture_schedule, prefix_tests=6)
    assert report.all_passed, {k: v.detail for k, v in report.checks.items()}


def test_validation_constant_delta_fails(game, correlated_strategy):
    rules = ScheduleRules(
        delta_rule=lambda j: 0.5,
        p_rule=lambda j: 2.0 ** -j,
        free_length_rule=lambda l: l * l,
        p_series_bound=1.0,
    )
    sched = build_schedule(game, correlated_strategy, rules, 3, mc_samples=20_000, seed=2)
    report = validate_schedule(sched, prefix_tests=3)
    assert not report.checks["delta_decreasing"].passed
    assert not report.all_passed


def test_validation_linear_free_rule_fails(game, correlated_strategy):
    rules = ScheduleRules(
        delta_rule=lambda j: 1.0 / j,
        p_rule=lambda j: 2.0 ** -j,
        free_length_rule=lambda l: l,
        p_series_bound=1.0,
    )
    sched = build_schedule(game, correlated_strategy, rules, 4, mc_samples=20_000, seed=2)
    report = validate_schedule(sched, prefix_tests=4)
    assert not report.checks["length_ratio_vanishes"].passed


def test_infeasible_schedule_names_the_test(game, ce_strategy):
    # on the product announcement the harmonic rules fail immediately:
    # at delta = 1 most single-agent deviations are undetectable
    with pytest.raises(InfeasibleScheduleError) as err:
        build_schedule(game, ce_strategy, harmonic_rules(), 3, mc_samples=20_000, seed=1)
    assert err.value.test_index == 1
    assert err.value.psi > err.value.p


def test_schedule_determinism(game, correlated_strategy):
    a = build_schedule(game, correlated_strategy, harmonic_rules(), 3, mc_samples=20_000, seed=5)
    b = build_schedule(game, correlated_strategy, harmonic_rules(), 3, mc_samples=20_000, seed=5)
    assert a.phases == b.phases
    assert a.plans == b.plans


def test_toy_schedule_is_nonconforming(game, ce_strategy):
    sched = toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[10, 20], free_lengths=[30, 0])
    assert not sched.conforming
    assert len(sched.free_periods()) == 1  # zero free length omits the phase
    with pytest.raises(InvalidInputError):
        validate_schedule(sched, prefix_tests=2)


def test_single_test_schedule(game, ce_strategy):
    plan = manual_plan(game, ce_strategy, alpha=0.1, delta_hat=0.01, sample_size=500)
    sched = single_test_schedule(plan)
    assert sched.horizon == 500
    assert sched.plan_for(1) is plan


def test_geometric_rules_satisfy_asymptotic_conditions(game, ce_strategy):
    # same four checks on the geometric family, on the product announcement
    sched = build_schedule(
        game, ce_strategy, geometric_rules(1e-4, 0.1), horizon_tests=4,
        mc_samples=20_000, seed=6,
    )
    report = validate_schedule(sched, prefix_tests=4)
    assert report.all_passed, {k: v.detail for k, v in report.checks.items()}


def _harmonic_with(**rule):
    return ScheduleRules(**{"delta_rule": lambda j: 1.0 / j, "p_rule": lambda j: 2.0 ** -j,
                            "free_length_rule": lambda l: l * l, "p_series_bound": 1.0, **rule})


def test_build_schedule_draws_psi_once_and_plans_test_1_as_plan_test(game, ce_strategy):
    rules = geometric_rules(1e-4, 0.1)
    with mock.patch.object(verifier, "estimate_psi", wraps=verifier.estimate_psi) as spy:
        sched = build_schedule(game, ce_strategy, rules, 3, mc_samples=5000, seed=4)
    assert spy.call_count == 1
    assert sched.plans[0] == plan_test(game, ce_strategy, rules.p_rule(1), rules.delta_rule(1),
                                       mc_samples=5000, seed=5)


def test_schedule_psi_non_increasing_under_decreasing_delta(game, ce_strategy):
    # one set of draws: each sample below delta(j + 1) is below delta(j) too
    rules = geometric_rules(1e-2, 0.3, delta_decay=4.0, p_decay=1.5)
    sched = build_schedule(game, ce_strategy, rules, 6, mc_samples=5000, seed=8)
    psis = [plan.psi for plan in sched.plans]
    assert all(b <= a for a, b in zip(psis, psis[1:]))
    assert psis[-1] < psis[0]


@pytest.mark.parametrize("horizon", [2.5, True, 0, "3"])
def test_build_schedule_refuses_a_horizon_that_is_not_a_positive_int(game, ce_strategy, horizon):
    with mock.patch.object(verifier, "estimate_psi", side_effect=AssertionError("psi estimated")):
        with pytest.raises(InvalidInputError, match="horizon_tests"):
            build_schedule(game, ce_strategy, harmonic_rules(), horizon, mc_samples=1000)


@pytest.mark.parametrize("kwargs, name", [
    ({"seed": -1}, "seed"), ({"seed": 0.5}, "seed"), ({"mc_samples": 2000.0}, "mc_samples"),
])
def test_build_schedule_refuses_bad_samples_and_seed(game, ce_strategy, kwargs, name):
    # seed -1 used to be accepted: the draws used seed + j
    with mock.patch.object(verifier, "estimate_psi", side_effect=AssertionError("psi estimated")):
        with pytest.raises(InvalidInputError, match=name):
            build_schedule(game, ce_strategy, harmonic_rules(), 2, **{"mc_samples": 1000, **kwargs})


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_build_schedule_refuses_a_bad_delta_before_drawing(game, ce_strategy, bad):
    rules = _harmonic_with(delta_rule=lambda j: bad if j == 3 else 1.0 / j)
    with mock.patch.object(verifier, "estimate_psi", side_effect=AssertionError("psi estimated")):
        with pytest.raises(InvalidInputError, match="test 3: delta_hat"):
            build_schedule(game, ce_strategy, rules, 4, mc_samples=1000)


@pytest.mark.parametrize("p_rule, message", [
    (lambda j: 2.0 ** (-1 - 537 * (j - 1)), r"test 3: p must be in \(0, 1\), got 0.0"),  # underflows
    (lambda j: 0.5 / 1e200 ** (j - 1), "test 3: p\\(j\\) or delta\\(j\\) overflows a float"),
], ids=["underflow", "overflow"])
def test_build_schedule_reads_no_rule_past_the_first_bad_test(game, ce_strategy, p_rule,
                                                              message):
    calls = []
    rules = _harmonic_with(p_rule=lambda j: calls.append(j) or p_rule(j))
    with mock.patch.object(verifier, "estimate_psi", side_effect=AssertionError("psi estimated")):
        with pytest.raises(InvalidInputError, match=message):
            build_schedule(game, ce_strategy, rules, 10**4, mc_samples=1000)
    assert calls == [1, 2, 3]


def test_build_schedule_names_the_test_no_sample_size_meets(game, ce_strategy):
    # delta(12) = 1e-4 / 16^11 needs more than 2^62 rounds at p(12) = 0.1 / 2^11
    with pytest.raises(InvalidInputError, match="^test 12: no sample size up to 2"):
        build_schedule(game, ce_strategy, geometric_rules(1e-4, 0.1), 12, mc_samples=1000)


# 16.0 too: a whole float is no integer here, as in literal_layout and Phase
@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.7, 0, -4, 16.0])
def test_build_schedule_refuses_a_bad_free_length(game, correlated_strategy, bad):
    results = iter([4, bad])
    rules = _harmonic_with(free_length_rule=lambda l: next(results))
    with pytest.raises(InvalidInputError, match="at test 2"):
        build_schedule(game, correlated_strategy, rules, 2, mc_samples=2000, seed=1)


@pytest.mark.parametrize("kwargs, name", [
    ({"delta0": -1.0}, "delta0"), ({"delta0": 0.0}, "delta0"), ({"delta0": math.inf}, "delta0"),
    ({"delta0": math.nan}, "delta0"), ({"p0": 0.0}, "p0"), ({"p0": 1.0}, "p0"),
    ({"p0": math.nan}, "p0"), ({"delta_decay": math.nan}, "decay"), ({"p_decay": math.nan}, "decay"),
    ({"delta_decay": math.inf}, "decay"), ({"p_decay": 1.0}, "decay"),
])
def test_geometric_rules_refuse_bad_parameters(kwargs, name):
    with pytest.raises(InvalidInputError, match=name):
        geometric_rules(**{"delta0": 1e-4, "p0": 0.1, **kwargs})


@pytest.fixture
def quantile_solves(monkeypatch):
    """The df of each critical-value solve made from here on, with the memo emptied."""
    chi2.chi2_isf.cache_clear()
    solves = []
    solve = chi2._smallest
    monkeypatch.setattr(chi2, "_smallest", lambda meets, df: solves.append(df) or solve(meets, df))
    return solves


def test_a_plan_solves_its_critical_value_once(game, ce_strategy, quantile_solves):
    est = PsiEstimate(psi=0.0, std_error=0.0, per_subset={(0,): 0.0}, mc_samples=1000)
    plan = plan_test(game, ce_strategy, 0.1, 0.01, psi=est)
    assert quantile_solves == [plan.df_total]
    assert plan.psi == 0.0 and plan.psi_se == 0.0  # a psi of 0 is kept, not taken for unset
    assert plan.critical_value == chi2.chi2_quantile(0.9, plan.df_total)


def test_a_toy_schedule_solves_each_alpha_once(game, ce_strategy, quantile_solves):
    toy_schedule(game, ce_strategy, 0.1, 0.01, [300, 300], [900, 900])
    assert len(quantile_solves) == 1


def test_a_harmonic_schedule_solves_each_test_once(game, correlated_strategy, quantile_solves):
    # harmonic alphas are distinct, so one solve per (alpha, df) is one per test
    sched = build_schedule(game, correlated_strategy, harmonic_rules(), 4, mc_samples=1000, seed=1)
    assert len({plan.alpha for plan in sched.plans}) == len(sched.plans)
    assert quantile_solves == [plan.df_total for plan in sched.plans]
    assert chi2.chi2_isf.cache_info().misses == len(sched.plans)
