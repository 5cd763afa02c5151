"""One refusal table over the public entry points.

Every entry point that takes a count, index, seed, probability, threshold or
a vector of numbers (a strategy, payoffs, counts) refuses a bad one with
InvalidInputError whose message names the argument. The checks live in
``advicecheck.errors`` (``check_int``, ``check_real``, ``check_reals``); this
table keeps every caller on them. Integers and probabilities are fed True,
2.5, -1 and NaN, and integers also a numpy -1. Thresholds are fed True, -1,
NaN and inf, since 2.5 is a valid threshold. Vectors are fed bools, text and
ragged rows (``OTHERS``), which their shared reader refuses with "must hold
numbers"; a scalar that is no number reads "must be a number".
"""

import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from advicecheck import (
    CorrelatedStrategy,
    Game,
    InvalidInputError,
    MixedStrategy,
    NoDataError,
    Phase,
    PhaseKind,
    Schedule,
    average_utility,
    batch_summary_dict,
    build_ledger,
    build_schedule,
    check_correlated_equilibrium,
    chi2_cdf,
    chi2_isf,
    chi2_quantile,
    chi2_sf,
    compose_deviation,
    conditional_given_signal,
    empirical_frequency,
    estimate_psi,
    geometric_rules,
    harmonic_rules,
    literal_layout,
    locate,
    make_learner,
    manual_plan,
    noncentral_chi2_cdf,
    pearson_statistic,
    phase_average,
    plan_test,
    power_beta,
    run_batch,
    run_game,
    run_game_counts,
    run_pure_learning,
    run_sampling_decision,
    sample_size,
    sensitivity_delta,
    toy_schedule,
    transcript_to_csv,
    tv_distance,
    validate_schedule,
)
from advicecheck.games import agent_incentive_violations, joint_distribution
from advicecheck.sim import run_summary_dict

from oracles import exact_window_expectation

BAD_INTEGERS = [True, 2.5, -1, math.nan, np.int64(-1)]
BAD_PROBABILITIES = [True, 2.5, -1, math.nan]
BAD_THRESHOLDS = [True, -1, math.nan, math.inf]
UNIFORM = {"name": "uniform"}


def _run_of(game):
    """A counts run of ``game`` under its uniform announcement."""
    sigma = CorrelatedStrategy(np.full(game.num_joint_actions, 1 / game.num_joint_actions))
    return run_game_counts(game, sigma, toy_schedule(game, sigma, 0.1, 0.01, [20], [20]))


def _isf_after_caching(alpha, df):
    # the critical-value memo must never answer for a bad pair equal to a cached one
    chi2_isf(0.1, 1)
    chi2_isf(0.1, 3)
    return chi2_isf(alpha, df)


# (entry point, argument named in the message, call with the bad value v)
INTEGERS = [
    ("chi2_cdf", "df", lambda e, v: chi2_cdf(1.0, v)),
    ("chi2_quantile", "df", lambda e, v: chi2_quantile(0.5, v)),
    ("chi2_isf", "df", lambda e, v: _isf_after_caching(0.1, v)),
    ("chi2_sf", "df", lambda e, v: chi2_sf(1.0, v)),
    ("noncentral_chi2_cdf", "df", lambda e, v: noncentral_chi2_cdf(1.0, v, 1.0)),
    ("power_beta", "sample_size", lambda e, v: power_beta(0.1, 0.01, 3, v)),
    ("manual_plan", "sample_size", lambda e, v: manual_plan(e["game"], e["sigma"], 0.1, 0.01, v)),
    ("estimate_psi", "mc_samples",
     lambda e, v: estimate_psi(e["game"], e["sigma"], 0.01, mc_samples=v)),
    ("estimate_psi", "seed",
     lambda e, v: estimate_psi(e["game"], e["sigma"], 0.01, mc_samples=1000, seed=v)),
    ("plan_test", "mc_samples",
     lambda e, v: plan_test(e["game"], e["sigma"], 0.3, 0.01, mc_samples=v)),
    ("plan_test", "seed",
     lambda e, v: plan_test(e["game"], e["sigma"], 0.3, 0.01, mc_samples=1000, seed=v)),
    ("build_schedule", "horizon_tests",
     lambda e, v: build_schedule(e["game"], e["sigma"], harmonic_rules(), v, mc_samples=1000)),
    ("build_schedule", "mc_samples",
     lambda e, v: build_schedule(e["game"], e["sigma"], harmonic_rules(), 2, mc_samples=v)),
    ("build_schedule", "seed",
     lambda e, v: build_schedule(e["game"], e["sigma"], harmonic_rules(), 2, mc_samples=1000,
                                 seed=v)),
    ("literal_layout", "test 1 length", lambda e, v: literal_layout([v], [4])),
    ("literal_layout", "test 2 free length", lambda e, v: literal_layout([4, 4], [4, v])),
    ("toy_schedule", "test 1 length",
     lambda e, v: toy_schedule(e["game"], e["sigma"], 0.1, 0.01, [v], [4])),
    ("toy_schedule", "test 1 free length",
     lambda e, v: toy_schedule(e["game"], e["sigma"], 0.1, 0.01, [4], [v])),
    ("Phase", "phase length", lambda e, v: Phase(PhaseKind.FREE_PERIOD, 1, 1, v)),
    ("Phase", "phase begin", lambda e, v: Phase(PhaseKind.FREE_PERIOD, 1, v, 1)),
    ("Phase", "phase index", lambda e, v: Phase(PhaseKind.FREE_PERIOD, v, 1, 1)),
    ("locate", "time index t", lambda e, v: locate(e["schedule"], v)),
    ("validate_schedule", "prefix_tests", lambda e, v: validate_schedule(e["schedule"], v)),
    ("Game", "action_counts[0]", lambda e, v: Game([v, 2], np.ones((4, 2)))),
    ("Game.joint_index", "action index", lambda e, v: e["game"].joint_index((v, 0))),
    ("Game.joint_action", "joint index", lambda e, v: e["game"].joint_action(v)),
    ("conditional_given_signal", "agent",
     lambda e, v: conditional_given_signal(e["sigma"], e["game"], v, 0)),
    ("conditional_given_signal", "signal",
     lambda e, v: conditional_given_signal(e["sigma"], e["game"], 0, v)),
    ("agent_incentive_violations", "agent",
     lambda e, v: agent_incentive_violations(e["game"], e["sigma"], v)),
    ("compose_deviation", "deviating agent",
     lambda e, v: compose_deviation(e["sigma"], e["game"], {v: [0.5, 0.5]})),
    ("make_learner", "trigger watch_action",
     lambda e, v: make_learner({"name": "trigger", "watch_action": v}, e["game"], 0)),
    ("run_game", "seed", lambda e, v: run_game(e["game"], e["sigma"], e["schedule"], seed=v)),
    ("run_game", "rounds", lambda e, v: run_game(e["game"], e["sigma"], e["schedule"], rounds=v)),
    ("run_game_counts", "seed",
     lambda e, v: run_game_counts(e["game"], e["sigma"], e["schedule"], seed=v)),
    ("run_pure_learning", "seed",
     lambda e, v: run_pure_learning(e["game"], [UNIFORM] * 2, rounds=10, seed=v)),
    ("run_pure_learning", "rounds",
     lambda e, v: run_pure_learning(e["game"], [UNIFORM] * 2, rounds=v)),
    # the exact-enumeration oracle in tests/oracles.py checks its horizon the same way
    ("exact_window_expectation", "rounds",
     lambda e, v: exact_window_expectation(e["game"], [UNIFORM] * 2, v)),
    ("average_utility", "up_to_t", lambda e, v: average_utility(e["ledger"], 0, v)),
    ("average_utility", "agent", lambda e, v: average_utility(e["ledger"], v, 10)),
    ("phase_average", "agent", lambda e, v: phase_average(e["ledger"], v, "F")),
    ("average_utility of run_pure_learning", "agent",
     lambda e, v: average_utility(build_ledger(e["pure"]), v, 10)),
    ("empirical_frequency", "from_t", lambda e, v: empirical_frequency(e["transcript"], v, 10)),
    ("empirical_frequency", "to_t", lambda e, v: empirical_frequency(e["transcript"], 1, v)),
    ("pearson_statistic", "l_t", lambda e, v: pearson_statistic([2, 0, 0, 2], e["sigma"], v)),
]
PROBABILITIES = [
    ("chi2_isf", "alpha", lambda e, v: _isf_after_caching(v, 3)),
    ("power_beta", "alpha", lambda e, v: power_beta(v, 0.01, 3, 10)),
    ("sample_size", "alpha", lambda e, v: sample_size(v, 0.1, 0.01, 3)),
    ("sample_size", "beta_target", lambda e, v: sample_size(0.1, v, 0.01, 3)),
    ("manual_plan", "alpha", lambda e, v: manual_plan(e["game"], e["sigma"], v, 0.01, 10)),
    ("plan_test", "p", lambda e, v: plan_test(e["game"], e["sigma"], v, 0.01, mc_samples=1000)),
    ("geometric_rules", "p0", lambda e, v: geometric_rules(1e-4, v)),
]
THRESHOLDS = [
    ("power_beta", "delta_hat", lambda e, v: power_beta(0.1, v, 3, 10)),
    ("sample_size", "delta_hat", lambda e, v: sample_size(0.1, 0.1, v, 3)),
    ("manual_plan", "delta_hat", lambda e, v: manual_plan(e["game"], e["sigma"], 0.1, v, 10)),
    ("plan_test", "delta_hat",
     lambda e, v: plan_test(e["game"], e["sigma"], 0.3, v, mc_samples=1000)),
    ("estimate_psi", "delta_hat",
     lambda e, v: estimate_psi(e["game"], e["sigma"], v, mc_samples=1000)),
    ("estimate_psi", "delta_hat[1]",
     lambda e, v: estimate_psi(e["game"], e["sigma"], [0.1, v], mc_samples=1000)),
    ("geometric_rules", "delta0", lambda e, v: geometric_rules(v, 0.1)),
]
# arguments refused for their type or value, not a number: (entry point, name, call)
OTHERS = [
    ("run_pure_learning", "learner_specs", lambda e: run_pure_learning(e["game"], 3, rounds=10)),
    ("run_pure_learning", "learner_specs",
     lambda e: run_pure_learning(e["game"], {0: UNIFORM, 1: UNIFORM}, rounds=10)),
    ("run_pure_learning", "learner_specs",
     lambda e: run_pure_learning(e["game"], [UNIFORM], rounds=10)),
    ("phase_average", "kind", lambda e: phase_average(e["ledger"], 0, "X")),
    ("phase_average", "kind", lambda e: phase_average(e["ledger"], 0, PhaseKind.FREE_PERIOD)),
    ("pearson_statistic", "observed_counts",
     lambda e: pearson_statistic([math.nan, 1, 1, 1], e["sigma"], 3)),
    ("pearson_statistic", "observed_counts",
     lambda e: pearson_statistic([math.inf, 1, 1, 1], e["sigma"], 3)),
    ("pearson_statistic", "observed_counts",
     lambda e: pearson_statistic([0.5, 0.5, 1, 1], e["sigma"], 3)),
    ("pearson_statistic", "observed_counts",
     lambda e: pearson_statistic([Fraction(1, 2), Fraction(1, 2), 1, 1], e["sigma"], 3)),
    ("pearson_statistic", "observed_counts",
     lambda e: pearson_statistic(["1", "1", "1", "1"], e["sigma"], 4)),
    ("pearson_statistic", "observed_counts", lambda e: pearson_statistic([1, 1, 1], e["sigma"], 3)),
    ("pearson_statistic", "observed_counts",
     lambda e: pearson_statistic([-1, 2, 1, 1], e["sigma"], 3)),
    ("Game", "action_counts", lambda e: Game([], np.ones((1, 0)))),
    ("Game", "action_names", lambda e: Game([2, 2], np.ones((4, 2)), [["a", "b"], ["c"]])),
    ("Game.joint_index", "joint action", lambda e: e["game"].joint_index((0,))),
    ("joint_distribution", "strategy length",
     lambda e: joint_distribution(CorrelatedStrategy([0.5, 0.5]), e["game"])),
    ("Schedule", "does not tile",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 2, 3),), (None,), None)),
    ("validate_schedule", "0 tests, need 2",
     lambda e: validate_schedule(Schedule((), (), harmonic_rules()), 2)),
    ("average_utility", "beyond recorded", lambda e: average_utility(e["ledger"], 0, 10**6)),
    ("batch_summary_dict", "at least one run", lambda e: batch_summary_dict([])),
    ("sensitivity_delta", "different lengths", lambda e: sensitivity_delta([0.5, 0.5], [1.0])),
    ("sensitivity_delta", "sigma_tilde must hold finite entries",
     lambda e: sensitivity_delta([0.5, 0.5], [math.inf, 0])),
    ("tv_distance", "p must hold finite entries",
     lambda e: tv_distance([math.nan, 1, 0, 0], [0, 0, 0, 1])),
    ("estimate_psi", "supported maximum of 12",
     lambda e: estimate_psi(Game([1] * 13, np.ones((1, 13))), CorrelatedStrategy([1.0]), 0.01,
                            mc_samples=1000)),
    ("make_learner", "unknown key 'watch_agnet'",
     lambda e: make_learner({"name": "trigger", "watch_agnet": 1}, e["game"], 0)),
    ("make_learner", "unknown key 'watch_agent'",
     lambda e: make_learner({"name": "uniform", "watch_agent": 1}, e["game"], 0)),
    ("run_game", "unknown key 'fallbak'",
     lambda e: run_game(e["game"], e["sigma"], e["schedule"], [{"fallbak": [1, 0]}, {}])),
    ("manual_plan", "fewer than two cells",
     lambda e: manual_plan(e["game"], CorrelatedStrategy([1.0, 0.0, 0.0, 0.0]), 0.1, 0.01, 10)),
    ("run_batch", "seeds must be a sequence of integers, got '12'",
     lambda e: run_batch(e["game"], e["sigma"], e["schedule"], None, "12")),
    ("run_batch", "seeds must be a sequence of integers, got b'12'",
     lambda e: run_batch(e["game"], e["sigma"], e["schedule"], None, b"12")),
    # a bool is not a count, nor a number for the chi-square entry points
    ("pearson_statistic", "observed_counts must hold numbers",
     lambda e: pearson_statistic(np.array([True, True, False, False]), e["sigma"], 2)),
    ("run_sampling_decision", "observed_counts must hold numbers",
     lambda e: run_sampling_decision(manual_plan(e["game"], e["sigma"], 0.1, 0.01, 2), e["sigma"],
                                     np.array([True, True, False, False]))),
    ("chi2_cdf", "x must be a number", lambda e: chi2_cdf("a", 1)),
    ("chi2_cdf", "x must be a number", lambda e: chi2_cdf(True, 1)),
    ("chi2_sf", "x must be a number", lambda e: chi2_sf(True, 1)),
    ("chi2_sf", "x must be a number", lambda e: chi2_sf(None, 1)),
    ("noncentral_chi2_cdf", "x must be a number", lambda e: noncentral_chi2_cdf(True, 1, 1.0)),
    ("noncentral_chi2_cdf", "ncp must be a number", lambda e: noncentral_chi2_cdf(1.0, 1, "a")),
    ("noncentral_chi2_cdf", "ncp must be a number", lambda e: noncentral_chi2_cdf(1.0, 1, True)),
    ("chi2_quantile", "p must be a number", lambda e: chi2_quantile("a", 1)),
    ("chi2_quantile", "p must be a number", lambda e: chi2_quantile(False, 1)),
    # a bool, a string or a ragged row is not a number in a vector either
    ("MixedStrategy", "strategy must hold numbers", lambda e: MixedStrategy(["0.5", "0.5"])),
    ("CorrelatedStrategy", "correlated strategy must hold numbers",
     lambda e: CorrelatedStrategy([True, False, False, False])),
    ("Game", "utilities must hold numbers", lambda e: Game([2], [["1"], [True]])),
    ("Game", "utilities must hold numbers", lambda e: Game([2], [[1.0], [True]])),
    ("Game", "utilities must hold numbers", lambda e: Game([2, 2], [[1, 2], [3]])),
    ("compose_deviation", "strategy of agent 1 must hold numbers",
     lambda e: compose_deviation(e["sigma"], e["game"], {1: ["0.5", "0.5"]})),
    ("run_game", "strategy of agent 1 must hold numbers",
     lambda e: run_game(e["game"], e["sigma"], e["schedule"], [{"fallback": [True, False]}, {}])),
    ("pearson_statistic", "observed_counts must hold numbers",
     lambda e: pearson_statistic([True, 1, 0, 1], e["sigma"], 3)),
    ("run_sampling_decision", "observed_counts must hold numbers",
     lambda e: run_sampling_decision(manual_plan(e["game"], e["sigma"], 0.1, 0.01, 3), e["sigma"],
                                     [True, 1, 0, 1])),
    ("tv_distance", "q must hold numbers", lambda e: tv_distance([0.5, 0.5], [True, False])),
    ("tv_distance", "p must hold numbers", lambda e: tv_distance("ab", [1.0, 0.0])),
    ("sensitivity_delta", "sigma_tilde must hold numbers",
     lambda e: sensitivity_delta([0.5, 0.5], [True, False])),
    ("sensitivity_delta", "sigma_m must hold numbers", lambda e: sensitivity_delta("ab", "cd")),
    ("sensitivity_delta", "sigma_m must be one-dimensional",
     lambda e: sensitivity_delta([[0.5], [0.5]], [[0.5], [0.5]])),
    ("check_correlated_equilibrium", "tolerance must be a number",
     lambda e: check_correlated_equilibrium(e["game"], e["sigma"], "a")),
    ("agent_incentive_violations", "tolerance must be a number",
     lambda e: agent_incentive_violations(e["game"], e["sigma"], 0, True)),
    ("geometric_rules", "delta_decay must be a number", lambda e: geometric_rules(0.1, 0.1, "a")),
    ("geometric_rules", "p_decay must be a number",
     lambda e: geometric_rules(0.1, 0.1, 16.0, True)),
    # a timeline the engine would play wrongly
    ("Phase", "phase kind must be a PhaseKind", lambda e: Phase("R", 1, 1, 10)),
    ("Phase", "phase index must be at least 1",
     lambda e: Phase(PhaseKind.SAMPLING_TEST, 0, 1, 10)),
    ("Schedule", "need a plan slot per test",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 10),), (), None)),
    ("Schedule", "phase R1 at t=11 should be 2",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 10),
                         Phase(PhaseKind.SAMPLING_TEST, 1, 11, 10)), (None, None), None)),
    ("Schedule", "phase R3 at t=11 should be 2",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 10),
                         Phase(PhaseKind.SAMPLING_TEST, 3, 11, 10)), (None,) * 3, None)),
    ("Schedule", "phase F2 at t=11 should be 1",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 10),
                         Phase(PhaseKind.FREE_PERIOD, 2, 11, 10)), (None,), None)),
    ("Schedule", "test 1 lasts 21 rounds, but its plan's sample size is 20",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 21),), (e["plan"],), None)),
    # a phase-resolved run has no rounds to read, and runs of two games share no cells
    ("empirical_frequency", "transcript must be a Transcript",
     lambda e: empirical_frequency(e["summary"], 1, 5)),
    ("transcript_to_csv", "transcript must be a Transcript",
     lambda e: transcript_to_csv(e["summary"], os.devnull)),
    ("batch_summary_dict", "runs must share one game: run 1's differs from run 0's",
     lambda e: batch_summary_dict([e["summary"], _run_of(Game([2, 3], np.ones((6, 2))))])),
    ("batch_summary_dict", "runs must share one game: run 1's differs from run 0's",
     lambda e: batch_summary_dict([e["summary"], _run_of(Game([2, 2], e["game"].utilities / 3))])),
    # a pure-learning baseline has no announcement to measure its play against
    ("batch_summary_dict", "run 1 has no announcement",
     lambda e: batch_summary_dict([e["summary"], e["pure"]])),
    ("run_summary_dict", "run with seed 0 has no announcement",
     lambda e: run_summary_dict(e["pure"])),
    # a plan slot beyond the tests would be a plan for a test that never runs
    ("Schedule", "need a plan slot per test: 1 tests, 2 slots",
     lambda e: Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 10),), (None, None), None)),
]
# every public entry point that takes an announcement, called with ``s`` as it
ANNOUNCEMENT_READERS = [
    ("check_correlated_equilibrium", lambda e, s: check_correlated_equilibrium(e["game"], s)),
    ("agent_incentive_violations", lambda e, s: agent_incentive_violations(e["game"], s, 0)),
    ("conditional_given_signal", lambda e, s: conditional_given_signal(s, e["game"], 0, 0)),
    ("compose_deviation", lambda e, s: compose_deviation(s, e["game"], {0: [0.5, 0.5]})),
    ("pearson_statistic", lambda e, s: pearson_statistic([1, 1, 1, 1], s, 4)),
    ("run_sampling_decision", lambda e, s: run_sampling_decision(e["plan"], s, [1, 1, 1, 1])),
    ("estimate_psi", lambda e, s: estimate_psi(e["game"], s, 0.01, mc_samples=1000)),
    ("plan_test", lambda e, s: plan_test(e["game"], s, 0.3, 0.01, mc_samples=1000)),
    ("manual_plan", lambda e, s: manual_plan(e["game"], s, 0.1, 0.01, 10)),
    ("build_schedule",
     lambda e, s: build_schedule(e["game"], s, harmonic_rules(), 2, mc_samples=1000)),
    ("toy_schedule", lambda e, s: toy_schedule(e["game"], s, 0.1, 0.01, [20], [20])),
    ("run_game", lambda e, s: run_game(e["game"], s, e["schedule"])),
    ("run_game_counts", lambda e, s: run_game_counts(e["game"], s, e["schedule"])),
    ("run_batch", lambda e, s: run_batch(e["game"], s, e["schedule"], None, [0])),
]
CASES = [
    pytest.param(call, name, bad, id=f"{entry}-{name}-{bad!r}")
    for table, bads in [(INTEGERS, BAD_INTEGERS), (PROBABILITIES, BAD_PROBABILITIES),
                        (THRESHOLDS, BAD_THRESHOLDS)]
    for entry, name, call in table
    for bad in bads
]


@pytest.fixture(scope="module")
def env(game, ce_strategy):
    schedule = toy_schedule(game, ce_strategy, 0.1, 0.01, [20, 20], [20, 20])
    transcript = run_game(game, ce_strategy, schedule, seed=0)
    return {"game": game, "sigma": ce_strategy, "schedule": schedule,
            "transcript": transcript, "ledger": build_ledger(transcript),
            "summary": run_game_counts(game, ce_strategy, schedule, seed=0),
            "plan": schedule.plan_for(1),
            "pure": run_pure_learning(game, [UNIFORM] * 2, rounds=10)}


@pytest.mark.parametrize("call, name, bad", CASES)
def test_entry_point_refuses_a_bad_argument_naming_it(env, call, name, bad):
    with pytest.raises(InvalidInputError, match=re.escape(name)):
        call(env, bad)


@pytest.mark.parametrize("call, name", [
    pytest.param(call, name, id=f"{entry}-{name}-{i}")
    for i, (entry, name, call) in enumerate(OTHERS)
])
def test_entry_point_refuses_a_malformed_argument_naming_it(env, call, name):
    with pytest.raises(InvalidInputError, match=re.escape(name)):
        call(env)


@pytest.mark.parametrize("call", [pytest.param(call, id=entry)
                                  for entry, call in ANNOUNCEMENT_READERS])
@pytest.mark.parametrize("raw", ["valid", "invalid"])
def test_entry_point_refuses_an_announcement_that_is_a_raw_array(env, call, raw):
    # a raw array used to be read unchecked by some and to leak AttributeError from others
    probs = env["sigma"].probs if raw == "valid" else np.array([0.9, -0.5, 0.3, 0.3])
    with pytest.raises(InvalidInputError, match="must be a CorrelatedStrategy"):
        call(env, probs)


def test_pure_learning_average_of_zero_rounds_has_no_data(env):
    with pytest.raises(NoDataError, match="no rounds of kind 'F'"):
        phase_average(build_ledger(run_pure_learning(env["game"], [UNIFORM] * 2, rounds=0)), 0, "F")


def test_phase_average_of_a_valid_kind_without_rounds_has_no_data(env):
    # a run capped inside its first test has no free period: no data, not a bad kind
    capped = build_ledger(run_game(env["game"], env["sigma"], env["schedule"], rounds=10))
    with pytest.raises(NoDataError, match="no rounds of kind 'F'"):
        phase_average(capped, 0, "F")
    assert phase_average(capped, 0, "R") == average_utility(capped, 0, 10)


def test_chi2_isf_refuses_a_whole_float_df_after_the_int_is_cached():
    with pytest.raises(InvalidInputError, match="df"):
        _isf_after_caching(0.1, 3.0)


@pytest.mark.parametrize("call", [
    pytest.param(call, id=entry) for entry, name, call in INTEGERS
    if name == "agent" and "average" in entry
])
def test_ledger_queries_refuse_an_agent_past_the_last(env, call):
    # agent 2 of two used to leak a bare IndexError, and -1 read agent 2's average
    with pytest.raises(InvalidInputError, match=re.escape("agent out of range [0, 2)")):
        call(env, 2)
