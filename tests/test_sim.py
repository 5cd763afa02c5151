import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicecheck import (
    CorrelatedStrategy,
    Decision,
    Game,
    InvalidInputError,
    Learner,
    MixedStrategy,
    Mode,
    NoDataError,
    Outcome,
    Phase,
    PhaseKind,
    Schedule,
    UniformLearner,
    agent_act,
    average_utility,
    batch_summary_dict,
    build_ledger,
    chi2_quantile,
    empirical_frequency,
    manual_plan,
    pearson_statistic,
    phase_average,
    run_batch,
    run_game,
    run_game_counts,
    run_pure_learning,
    run_sampling_decision,
    single_test_schedule,
    toy_schedule,
    tv_distance,
)
from advicecheck import sim, streams, verifier
from advicecheck.agents import make_learner, sample_block
from advicecheck.sim import run_summary_dict, transcript_to_csv, write_summary_json

from oracles import (
    WORD_EDGES,
    exact_window_expectation,
    per_round_game,
    per_round_pure_learning,
    per_seed_counts,
    phase_columns,
    write_rows_csv,
)

FP = {"name": "fictitious-play"}
UNIFORM = {"name": "uniform"}
TRIGGER = {"name": "trigger", "initial_action": 0, "switch_action": 1,
           "watch_agent": 0, "watch_action": 1}
ORACLE_CONFIGS = [
    [{"learner": FP}, {"learner": FP}],
    [{"learner": FP}, {"learner": UNIFORM, "fallback": [0.3, 0.7]}],
    [{"learner": UNIFORM}, {"learner": TRIGGER}],
]
# a trigger for agent 1 that fires once agent 2 plays its second action
TRIGGER_ON_2 = {"name": "trigger", "initial_action": 1, "switch_action": 0,
                "watch_agent": 1, "watch_action": 1}
# (fixture, agent configs): agent 1 of the 3x2 game follows, everyone else learns
BEYOND_2X2 = [
    ("game_3x2", [{"learner": FP}, {"learner": FP}]),
    ("game_3x2", [{"learner": UNIFORM}, {"learner": FP, "fallback": [0.4, 0.6]}]),
    ("game_3x2", [{"learner": FP}, {"learner": TRIGGER}]),
    ("game_2x2x2", [{"learner": FP}] * 3),
    ("game_2x2x2", [{"learner": FP}, {"learner": UNIFORM, "fallback": [0.2, 0.8]},
                    {"learner": TRIGGER}]),
    ("game_2x2x2", [{"learner": TRIGGER_ON_2}, {"learner": TRIGGER}, {"learner": UNIFORM}]),
]
BEYOND_IDS = ["3x2-fp-fp", "3x2-uniform-fp", "3x2-fp-trigger", "2x2x2-fp", "2x2x2-fp-uniform-trigger",
              "2x2x2-triggers-uniform"]
# counts-mode oracle cases: a sequential learner among the rejected agents makes
# every free period stepped, so the counts runner draws what the per-round loop draws
STEPPED = [("fixture_2x2", ORACLE_CONFIGS[0]), ("fixture_2x2", [{}, {"learner": TRIGGER}])] + BEYOND_2X2
STEPPED_IDS = ["2x2-fp-fp", "2x2-follow-trigger"] + BEYOND_IDS


def _columns(tr):
    """Each phase's (kind, index, begin, joint signals, joint actions), as
    ``phase_columns`` gives them for the oracle's rows."""
    return [(pr.phase.kind.value, pr.phase.index, pr.phase.begin, pr.signals.tolist(),
             pr.joints.tolist()) for pr in tr.phase_results]


def _round_utilities(tr, agent):
    """Agent's exact payoff in each round of a transcript, in round order."""
    return [Fraction(tr.game.utilities[joint, agent])
            for pr in tr.phase_results for joint in pr.joints.tolist()]


@pytest.fixture(scope="module")
def fixture_2x2(game, non_ce_strategy):
    return game, non_ce_strategy


@pytest.fixture(scope="module")
def small_toy(game, ce_strategy):
    return toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                        test_lengths=[300, 300], free_lengths=[600, 600])


def test_run_game_records_every_round(game, ce_strategy, small_toy):
    tr = run_game(game, ce_strategy, small_toy, seed=1)
    assert tr.num_rounds == small_toy.horizon
    t = 1
    for pr in tr.phase_results:
        assert pr.phase.begin == t and len(pr.signals) == len(pr.joints) == pr.rounds_run
        assert np.array_equal(np.bincount(pr.joints, minlength=game.num_joint_actions), pr.counts)
        t += pr.rounds_run
    assert set(tr.decisions) == {(0, 1), (1, 1), (0, 2), (1, 2)}


def test_zero_round_run(game, ce_strategy, small_toy):
    tr = run_game(game, ce_strategy, small_toy, seed=1, rounds=0)
    assert tr.num_rounds == 0
    assert tr.decisions == {}


def test_incomplete_test_makes_no_decision(game, ce_strategy, small_toy):
    tr = run_game(game, ce_strategy, small_toy, seed=1, rounds=200)
    assert tr.num_rounds == 200
    assert tr.decisions == {}


def test_reproducibility_bit_identical(game, ce_strategy, small_toy):
    a = run_game(game, ce_strategy, small_toy, seed=7)
    b = run_game(game, ce_strategy, small_toy, seed=7)
    assert _columns(a) == _columns(b)
    assert a.decisions == b.decisions
    ca = run_game_counts(game, ce_strategy, small_toy, seed=7)
    cb = run_game_counts(game, ce_strategy, small_toy, seed=7)
    for ra, rb in zip(ca.phase_results, cb.phase_results):
        assert np.array_equal(ra.counts, rb.counts)
        assert ra.utility_totals == rb.utility_totals
    assert ca.decisions == cb.decisions


def test_following_agents_track_announcement(game, ce_strategy):
    # multinomial concentration: 2100 following rounds land within TV 0.05
    sched = toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[2100], free_lengths=[0])
    for seed in range(5):
        tr = run_game(game, ce_strategy, sched, seed=seed)
        emp = empirical_frequency(tr, 1, 2100)
        assert tv_distance(emp.distribution(), ce_strategy) < 0.05


def test_non_ce_agent_always_screened_out(game, non_ce_strategy, small_toy):
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[300], free_lengths=[600])
    for seed in range(8):
        tr = run_game(game, non_ce_strategy, sched, seed=seed)
        assert tr.decisions[(1, 1)].outcome is Outcome.REJECT_BY_EQ2


@pytest.mark.parametrize("runner", ["rounds", "counts", "batch"])
def test_screen_runs_once_per_agent(game, ce_strategy, non_ce_strategy, game_2x2x2, monkeypatch,
                                    runner):
    # every agent is screened once, at set-up (once per batch of seeds), and a
    # failed screen is final; the verifier screens nobody, and each completed
    # test has one verdict on its counts, shared by the unscreened agents (none
    # if all are screened)
    play = {
        "rounds": lambda *args: [run_game(*args, seed=3)],
        "counts": lambda *args: [run_game_counts(*args, seed=3)],
        "batch": lambda *args: run_batch(*args, None, [3, 4, 5, 6]),
    }[runner]
    cases = [(game, non_ce_strategy, {1}), (game, ce_strategy, set()), (*game_2x2x2, {0, 1, 2})]
    for g, sigma, screened in cases:
        sched = toy_schedule(g, sigma, alpha=0.1, delta_hat=0.01,
                             test_lengths=[100, 150], free_lengths=[200, 0])
        calls = {"sim": [], "verifier": [], "decision": []}

        def counting(key, original, arg):
            def wrapper(*args, **kwargs):
                calls[key].append(args[arg])
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim, "agent_incentive_violations",
                            counting("sim", sim.agent_incentive_violations, 2))
        monkeypatch.setattr(verifier, "agent_incentive_violations",
                            counting("verifier", verifier.agent_incentive_violations, 2))
        monkeypatch.setattr(sim, "run_sampling_decision",
                            counting("decision", sim.run_sampling_decision, 2))
        runs = play(g, sigma, sched)
        monkeypatch.undo()
        assert calls["sim"] == list(range(g.num_agents))
        assert calls["verifier"] == []
        tests = [[pr for pr in run.phase_results if pr.phase.kind is PhaseKind.SAMPLING_TEST]
                 for run in runs]
        assert [len(t) for t in tests] == [2] * len(runs)
        # a batch plays phase by phase: test j of every seed, then test j + 1
        verdicts = ([] if len(screened) == g.num_agents
                    else [run_tests[j].counts.tolist() for j in range(2) for run_tests in tests])
        assert [counts.tolist() for counts in calls["decision"]] == verdicts
        for run, run_tests in zip(runs, tests):
            # screened agents reject by the screen; the others hold their test's verdict
            assert run.decisions == {
                (agent, pr.phase.index): Decision(Outcome.REJECT_BY_EQ2) if agent in screened
                else run_sampling_decision(sched.plan_for(pr.phase.index), sigma, pr.counts)
                for pr in run_tests for agent in range(g.num_agents)
            }
        if runner == "rounds":
            # the counts runner draws each test as one multinomial, not the oracle's rounds
            assert runs[0].decisions == per_round_game(g, sigma, sched, seed=3)[1]


def _same_run(got, want) -> bool:
    """Equal seeds, phases, counts, exact totals and decisions."""
    return (got.seed == want.seed and got.decisions == want.decisions
            and [(pr.phase, pr.rounds_run, pr.counts.tolist(), pr.utility_totals)
                 for pr in got.phase_results]
            == [(pr.phase, pr.rounds_run, pr.counts.tolist(), pr.utility_totals)
                for pr in want.phase_results])


@pytest.mark.parametrize("rounds", [None, 450], ids=["whole", "capped"])
@pytest.mark.parametrize("configs", [
    [{"learner": FP}, {"learner": FP}],
    [{"learner": UNIFORM}, {"learner": TRIGGER, "fallback": [0.3, 0.7]}],
    [{"learner": TRIGGER}, {"learner": UNIFORM}],
], ids=["fp", "uniform-trigger", "trigger-uniform"])
@pytest.mark.parametrize("announcement", ["ce_strategy", "non_ce_strategy"])
def test_run_batch_equals_one_run_per_seed(game, announcement, configs, rounds, request):
    # one shared set-up leaks nothing between seeds: fresh learners, modes and
    # fall-back draws per seed, the same streams as one run per seed
    sigma = request.getfixturevalue(announcement)
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[300, 200])
    seeds = [3, 0, 11, 3, 7, 8]
    runs = run_batch(game, sigma, sched, configs, seeds, rounds=rounds)
    assert [run.seed for run in runs] == seeds
    for run, seed in zip(runs, seeds):
        assert _same_run(run, run_game_counts(game, sigma, sched, configs, seed=seed, rounds=rounds))
    assert len({run.decisions[(0, 1)].statistic for run in runs}) > 1  # the seeds differ


@pytest.mark.parametrize("rounds", [None, 250, 450], ids=["whole", "cap-in-free", "cap-in-test"])
@pytest.mark.parametrize("configs", [
    [{"learner": FP}, {"learner": FP}],
    [{"learner": FP}, {"learner": UNIFORM}],
    [{"learner": UNIFORM}, {"learner": FP}],
    [{"learner": UNIFORM}, {"learner": UNIFORM}],
    [{"learner": UNIFORM}, {"learner": TRIGGER, "fallback": [0.3, 0.7]}],
    [{"learner": TRIGGER, "fallback": [1.0, 0.0]}, {"learner": UNIFORM}],
], ids=["fp-fp", "fp-uniform", "uniform-fp", "uniform-uniform", "uniform-trigger",
        "trigger-uniform"])
@pytest.mark.parametrize("announcement", ["ce_strategy", "non_ce_strategy"])
def test_run_batch_equals_per_seed_oracle(game, announcement, configs, rounds, request):
    # phase by phase with lazy generators plays each seed as the frozen
    # seed-major loop does with every generator made up front
    sigma = request.getfixturevalue(announcement)
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[300, 200])
    seeds = list(range(12)) + [3]
    got = run_batch(game, sigma, sched, configs, seeds, rounds=rounds)
    want = per_seed_counts(game, sigma, sched, configs, seeds, rounds=rounds)
    assert all(_same_run(g, w) for g, w in zip(got, want, strict=True))


def test_run_batch_equals_per_seed_oracle_with_a_one_action_agent():
    # agent 2 has one action: its drawn fall-back is the point mass and draws nothing
    rng = np.random.default_rng(4)
    g = Game([2, 1, 3], rng.uniform(0, 5, size=(6, 3)))
    sigma = CorrelatedStrategy(rng.dirichlet(np.full(6, 2.0)))
    sched = toy_schedule(g, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[80, 120], free_lengths=[200, 100])
    for configs in ([{"learner": FP}, {}, {"learner": UNIFORM}],
                    [{"learner": UNIFORM}, {"learner": UNIFORM}, {"fallback": [0.2, 0.3, 0.5]}]):
        got = run_batch(g, sigma, sched, configs, range(8))
        want = per_seed_counts(g, sigma, sched, configs, range(8))
        assert all(_same_run(a, b) for a, b in zip(got, want, strict=True))


def test_lazy_fallback_is_drawn_before_free_period_sampling(game, non_ce_strategy):
    # agent 1 is unscreened: rejected at test 1, it samples its uniform learner
    # in free period 1 (stepped, since agent 2's FP is sequential), and first
    # plays its drawn fall-back at test 2; its generator must draw the
    # fall-back before the free period's samples, as it did up front
    configs = [{"learner": UNIFORM}, {"learner": FP}]
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[300, 200])
    seeds = range(10)
    got = run_batch(game, non_ce_strategy, sched, configs, seeds)
    want = per_seed_counts(game, non_ce_strategy, sched, configs, seeds)
    assert all(_same_run(a, b) for a, b in zip(got, want, strict=True))
    assert sum(run.decisions[(0, 1)].rejected for run in got) >= 5
    assert {run.decisions[(1, 1)].outcome for run in got} == {Outcome.REJECT_BY_EQ2}


def _seed_sequence_states(seeds, keys):
    return np.array([[np.random.SeedSequence(s, spawn_key=(k,)).generate_state(4, np.uint64)
                      for k in keys] for s in seeds])



def test_seed_states_equal_seed_sequence_at_word_edges():
    got = streams._seed_states(WORD_EDGES, range(8))
    assert got.dtype == np.uint64 and got.shape == (len(WORD_EDGES), 8, 4)
    np.testing.assert_array_equal(got, _seed_sequence_states(WORD_EDGES, range(8)))
    for seed in WORD_EDGES:  # each row alone, whatever seeds share its batch
        np.testing.assert_array_equal(streams._seed_states([seed], range(8))[0], got[WORD_EDGES.index(seed)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**64), st.integers(0, 2**300)), min_size=1, max_size=6),
       st.integers(1, 8))
def test_seed_states_equal_seed_sequence(seeds, keys):
    np.testing.assert_array_equal(streams._seed_states(seeds, range(keys)),
                                  _seed_sequence_states(seeds, range(keys)))


def test_run_batch_of_multi_word_seeds_equals_one_run_per_seed(game, non_ce_strategy):
    # the batch's pass groups its seeds by word count; each lone run's pass has one group
    configs = [{"learner": UNIFORM}, {"learner": FP}]
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[300, 200])
    seeds = [2**128 - 1, 2**128, 2**128 + 1]
    runs = run_batch(game, non_ce_strategy, sched, configs, seeds)
    assert all(_same_run(run, run_game_counts(game, non_ce_strategy, sched, configs, seed=seed))
               for run, seed in zip(runs, seeds, strict=True))
    assert len({run.decisions[(0, 1)].statistic for run in runs}) == 3


@pytest.mark.parametrize("announcement, fallback, per_seed", [
    pytest.param("ce_strategy", None, 1, id="ce_strategy-1"),
    pytest.param("non_ce_strategy", None, 2, id="non_ce_strategy-2"),
    pytest.param("non_ce_strategy", [0.25, 0.75], 1, id="non_ce_strategy-configured-1"),
])
def test_run_batch_builds_only_the_generators_a_seed_draws_from(game, announcement, fallback,
                                                                 per_seed, request):
    # i.i.d. phases draw from the mediator's generator alone; an agent's is
    # built only to draw its fall-back for a test it plays it in (the screened
    # agent of the non-CE announcement), or when it deviates in a stepped phase;
    # a configured fall-back is played as is, so its agent's generator is never built
    sigma = request.getfixturevalue(announcement)
    configs = [{"learner": UNIFORM}, {"learner": UNIFORM, "fallback": fallback}]
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[500], free_lengths=[10**12])
    seeds = range(20)
    with (mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as built,
          mock.patch.object(streams, "_seed_states", wraps=streams._seed_states) as states):
        runs = run_batch(game, sigma, sched, configs, seeds)
    # every generator is built from the batch's one seeding pass
    assert (built.call_count, states.call_count) == (per_seed * len(seeds), 1)
    assert all(_same_run(a, b) for a, b in zip(
        runs, per_seed_counts(game, sigma, sched, configs, seeds), strict=True))
    if announcement == "ce_strategy":
        assert any(run.decisions[(0, 1)].rejected for run in runs)  # and learned i.i.d.


def test_run_batch_builds_each_learner_once(game, non_ce_strategy):
    # the learners the set-up builds to check the specs are the batch's: one
    # per agent, shared by every seed, which still plays as the oracle's fresh ones
    configs = [{"learner": FP}, {"learner": UNIFORM}]
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[300, 200])
    seeds = range(50)
    with mock.patch.object(sim, "make_learner", wraps=sim.make_learner) as built:
        runs = run_batch(game, non_ce_strategy, sched, configs, seeds)
    assert built.call_count == game.num_agents
    assert all(_same_run(a, b) for a, b in zip(
        runs, per_seed_counts(game, non_ce_strategy, sched, configs, seeds), strict=True))


def _nine_action_game():
    """Agent 1 has 9 actions and gains from its highest, so the uniform
    announcement screens it; agent 2's payoffs are all 0, so it tests."""
    game = Game([9, 2], np.array([[a, 0.0] for a in range(9) for _ in range(2)]))
    return game, CorrelatedStrategy([1 / 18] * 18)


def test_run_batch_draws_fallbacks_of_more_than_8_actions_as_one_run_per_seed():
    # a row of 9 or more exponentials is summed pairwise with unrolled
    # accumulators: the batch's one normalization must round each row as the
    # per-seed draw does; agent 2's verdicts split the seeds, and the rejected
    # cohort steps agent 2's fictitious play in the free periods
    game, sigma = _nine_action_game()
    configs = [{"learner": UNIFORM}, {"learner": FP}]
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[30, 30], free_lengths=[300, 300])
    seeds = range(20)
    runs = run_batch(game, sigma, sched, configs, seeds)
    rejected = [run.decisions[(1, 1)].rejected for run in runs]
    assert any(rejected) and not all(rejected)
    assert all(run.decisions[(0, 1)].outcome is Outcome.REJECT_BY_EQ2 for run in runs)
    assert all(_same_run(a, b) for a, b in zip(
        runs, per_seed_counts(game, sigma, sched, configs, seeds), strict=True))


def test_run_batch_drawn_in_bulk_steps_no_run(game, non_ce_strategy):
    # a cohort drawn in bulk is its modes and run indices: no run is stepped,
    # so no per-seed agent plays are resolved, whatever the verdicts
    configs = [{"learner": UNIFORM}, {"learner": UNIFORM}]
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[10**12, 10**12])
    seeds = range(50)
    with mock.patch.object(sim, "_step", wraps=sim._step) as stepped:
        runs = run_batch(game, non_ce_strategy, sched, configs, seeds)
    assert stepped.call_count == 0
    assert all(_same_run(a, b) for a, b in zip(
        runs, per_seed_counts(game, non_ce_strategy, sched, configs, seeds), strict=True))


def test_run_batch_of_no_seeds_is_empty_after_its_checks(game, ce_strategy):
    sched = toy_schedule(game, ce_strategy, 0.1, 0.01, [20], [20])
    assert run_batch(game, ce_strategy, sched, None, []) == []
    assert run_batch(game, ce_strategy, sched, None, range(0)) == []
    with pytest.raises(InvalidInputError):
        run_batch(game, ce_strategy, sched, [{"fallback": [0.5, 0.6]}, {}], [])


def test_run_batch_splits_a_free_period_into_a_stepped_and_a_bulk_cohort(game, ce_strategy):
    # at alpha 0.25 some seeds reject test 1 and the others follow, so free
    # period 1 has a cohort whose fictitious play steps on the shared learners
    # and a following cohort drawn as one multinomial per run
    configs = [{"learner": FP}, {"learner": FP}]
    sched = toy_schedule(game, ce_strategy, alpha=0.25, delta_hat=0.01,
                         test_lengths=[300, 300], free_lengths=[900, 900])
    seeds = list(range(1, 21))
    with mock.patch.object(sim, "_step", wraps=sim._step) as stepped:
        runs = run_batch(game, ce_strategy, sched, configs, seeds)
    rejected = [run.decisions[(0, 1)].rejected for run in runs]
    assert any(rejected) and not all(rejected)
    # each run that rejects test j steps free period j, 900 rounds (a test has 300)
    rejected_2 = [run.decisions[(0, 2)].rejected for run in runs]
    assert [call.args[3] for call in stepped.call_args_list] == [900] * sum(rejected + rejected_2)
    for run, seed in zip(runs, seeds):
        assert _same_run(run, run_game_counts(game, ce_strategy, sched, configs, seed=seed))
    assert all(_same_run(a, b) for a, b in zip(
        runs, per_seed_counts(game, ce_strategy, sched, configs, seeds), strict=True))
    # the other order meets the shared learners in other states: no run sees it
    backwards = run_batch(game, ce_strategy, sched, configs, seeds[::-1])
    assert all(_same_run(a, b) for a, b in zip(backwards, runs[::-1], strict=True))


@pytest.mark.parametrize("configs, seeds", [
    ([{"learner": {"name": "no-such"}}, {}], [0, 1]),
    ([{}, {"learner": {"name": "trigger", "watch_agent": 5}}], [0, 1]),
    ([{"fallback": [0.5, 0.6]}, {}], [0, 1]),
    ([{}, {"fallback": [1.0]}], [0, 1]),
    ([{}, {"fallback": ["a", "b"]}], [0, 1]),
    ([{}], [0, 1]),
    (None, [0, 1, -1]),
    (None, [0, 1.5]),
    (None, [0, True]),
    (None, 3),
], ids=["learner", "trigger", "fallback-sum", "fallback-length", "fallback-text", "one-config",
        "seed--1", "seed-1.5", "seed-True", "seeds-int"])
def test_run_batch_refuses_before_any_seed_is_played(game, ce_strategy, configs, seeds):
    schedule = toy_schedule(game, ce_strategy, 0.1, 0.01, [20], [20])
    with (mock.patch.object(np.random, "SeedSequence", side_effect=AssertionError("drawn")),
          mock.patch.object(streams, "_seed_states", side_effect=AssertionError("seeded"))):
        with pytest.raises(InvalidInputError):
            run_batch(game, ce_strategy, schedule, configs, seeds)


@pytest.mark.parametrize("announcement", ["ce_strategy", "non_ce_strategy"])
def test_batch_summary_mean_is_exact_over_runs_of_mixed_lengths(game, announcement, request):
    # runs are summed as integer numerators per run length: the mean must be the
    # rational reference, whatever the lengths and the order of the runs
    sigma = request.getfixturevalue(announcement)
    # each agent's payoffs rescaled and shifted (incentives unchanged), so the
    # totals carry different power-of-two denominators per agent
    scaled = Game(game.action_counts, game.utilities * [1 / 7, 0.3] + [0.1, 0.0])
    sched = toy_schedule(scaled, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100, 150], free_lengths=[300, 200])
    configs = [{"learner": {"name": "fictitious-play"}}, {"fallback": [0.75, 0.25]}]
    runs = [run for rounds, seeds in [(450, [0, 1, 2]), (None, [3, 4]), (1, [5]), (333, [6, 7])]
            for run in run_batch(scaled, sigma, sched, configs, seeds, rounds=rounds)]
    assert len({sum(pr.rounds_run for pr in run.phase_results) for run in runs}) == 4
    summary = batch_summary_dict(runs)
    for agent, mean in enumerate(summary["mean_average_utility"]):
        reference = sum(sum((pr.utility_totals[agent] for pr in run.phase_results), Fraction(0))
                        / sum(pr.rounds_run for pr in run.phase_results)
                        for run in runs) / len(runs)
        assert reference.denominator > 1
        assert mean == float(reference)
    text = json.dumps(summary, sort_keys=True)
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = [runs[i] for i in rng.permutation(len(runs))]
        assert json.dumps(batch_summary_dict(shuffled), sort_keys=True) == text


def test_empirical_frequency_windows(game, ce_strategy, small_toy):
    tr = run_game(game, ce_strategy, small_toy, seed=5)
    one = empirical_frequency(tr, 10, 10)
    assert one.total == 1
    assert one.counts.sum() == 1
    whole = empirical_frequency(tr, 1, tr.num_rounds)
    assert whole.total == tr.num_rounds
    # additivity over adjacent windows
    a = empirical_frequency(tr, 1, 500)
    b = empirical_frequency(tr, 501, 900)
    c = empirical_frequency(tr, 1, 900)
    assert np.array_equal(a.counts + b.counts, c.counts)
    # a window that cuts two phases (rounds 1-300 and 901-1200) and covers one whole
    joints = np.concatenate([pr.joints for pr in tr.phase_results])
    cut = empirical_frequency(tr, 250, 1000)
    assert cut.total == 751
    assert np.array_equal(cut.counts, np.bincount(joints[249:1000], minlength=4))
    with pytest.raises(InvalidInputError):
        empirical_frequency(tr, 0, 10)
    with pytest.raises(InvalidInputError):
        empirical_frequency(tr, 50, 10)


def test_ledger_partitions_total_exactly(game, ce_strategy, small_toy):
    tr = run_game(game, ce_strategy, small_toy, seed=2)
    ledger = build_ledger(tr)
    totals = tr.utility_totals
    for agent in range(2):
        per_round_sum = sum(_round_utilities(tr, agent), Fraction(0))
        assert totals[agent] == per_round_sum  # exact rational equality
        assert sum((seg.totals[agent] for seg in ledger.segments), Fraction(0)) == per_round_sum
    assert sum(seg.length for seg in ledger.segments) == tr.num_rounds
    assert len(ledger.segments) == 4
    assert ledger.run is tr


def test_average_utility_constant_game(ce_strategy):
    from advicecheck import Game

    flat = Game([2, 2], [[3, 3]] * 4)
    sched = toy_schedule(flat, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[50], free_lengths=[50])
    tr = run_game(flat, ce_strategy, sched, seed=0)
    ledger = build_ledger(tr)
    assert average_utility(ledger, 0, 100) == pytest.approx(3.0, abs=0)
    assert average_utility(ledger, 1, 37) == pytest.approx(3.0, abs=0)


def test_average_utility_validation_and_no_data(game, ce_strategy):
    sched = toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[50], free_lengths=[0])
    tr = run_game(game, ce_strategy, sched, seed=0)
    ledger = build_ledger(tr)
    with pytest.raises(InvalidInputError):
        average_utility(ledger, 0, 0)
    with pytest.raises(NoDataError):
        phase_average(ledger, 0, "F")  # no free periods in this run


def test_counts_ledger_boundary_only(game, ce_strategy, small_toy):
    rs = run_game_counts(game, ce_strategy, small_toy, seed=2)
    ledger = build_ledger(rs)
    assert average_utility(ledger, 0, 300) >= 0.0
    assert average_utility(ledger, 0, 900) >= 0.0
    with pytest.raises(InvalidInputError):
        average_utility(ledger, 0, 450)  # mid-phase needs per-round data


@pytest.mark.parametrize("announcement", ["ce_strategy", "non_ce_strategy"])
@pytest.mark.parametrize("configs", ORACLE_CONFIGS, ids=["fp-fp", "fp-uniform", "uniform-trigger"])
def test_transcript_csv_matches_per_record_writer(game, announcement, configs, request, tmp_path):
    sigma = request.getfixturevalue(announcement)
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[150, 200], free_lengths=[400, 300])
    # the whole horizon, and caps ending mid free period 1 and mid test 2
    for rounds in (None, 300, 700):
        for seed in range(2):
            tr = run_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            rows, _ = per_round_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            transcript_to_csv(tr, tmp_path / "got.csv")
            write_rows_csv(rows, game.num_agents, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("case, configs", BEYOND_2X2, ids=BEYOND_IDS)
def test_transcript_csv_matches_per_record_writer_beyond_2x2(case, configs, request, tmp_path):
    game, sigma = request.getfixturevalue(case)
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[150, 200], free_lengths=[400, 300])
    for rounds in (None, 700):
        for seed in range(2):
            tr = run_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            rows, _ = per_round_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            transcript_to_csv(tr, tmp_path / "got.csv")
            write_rows_csv(rows, game.num_agents, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# payoffs whose repr is not a plain decimal: a signed zero, a subnormal,
# exponents, long digit strings (a Game refuses negative payoffs)
AWKWARD = [-0.0, 0.0, 5e-324, 1e-300, 2.5e-08, 0.1 + 0.2, 1 / 3, 3.5, 123456789.125, 1e16, 1e300]


@st.composite
def awkward_games(draw):
    shape = draw(st.sampled_from([(2, 2), (3, 2), (2, 2, 2)]))
    n_joint = int(np.prod(shape))
    payoffs = draw(st.lists(st.sampled_from(AWKWARD), min_size=n_joint * len(shape),
                            max_size=n_joint * len(shape)))
    return Game(list(shape), np.array(payoffs).reshape(n_joint, len(shape)))


@settings(max_examples=30, deadline=None)
@given(game=awkward_games(), seed=st.integers(0, 2**16))
def test_transcript_csv_matches_per_record_writer_on_awkward_payoffs(game, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    sigma = CorrelatedStrategy(rng.dirichlet(np.ones(game.num_joint_actions)))
    sched = Schedule((Phase(PhaseKind.SAMPLING_TEST, 1, 1, 30),
                      Phase(PhaseKind.FREE_PERIOD, 1, 31, 50)), (None,), rules=None)
    configs = [{"learner": UNIFORM}] * game.num_agents
    tr = run_game(game, sigma, sched, configs, seed=seed)
    rows, _ = per_round_game(game, sigma, sched, configs, seed=seed)
    out = tmp_path_factory.mktemp("csv")
    transcript_to_csv(tr, out / "got.csv")
    write_rows_csv(rows, game.num_agents, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def _exact_totals(game, counts):
    """Each agent's utility total over ``counts``, as a run's record forms it
    from ``sim._utility_numerators`` and the ``payoff_table`` denominators."""
    return tuple(map(Fraction, sim._utility_numerators(game, counts),
                     [den for _, den in game.payoff_table]))


@settings(max_examples=100, deadline=None)
@given(game=awkward_games(), data=st.data())
def test_exact_utility_totals_match_fraction_sums(game, data):
    counts = np.array(data.draw(st.lists(st.sampled_from([0, 1, 7, 2**40 + 1, 10**18]),
                                         min_size=game.num_joint_actions,
                                         max_size=game.num_joint_actions)), dtype=np.int64)
    want = tuple(
        sum((int(c) * Fraction(float(u)) for c, u in zip(counts, game.utilities[:, agent])),
            Fraction(0))
        for agent in range(game.num_agents)
    )
    assert _exact_totals(game, counts) == want


def test_exact_utility_totals_mix_binary_exponents_at_counts_near_2_62():
    # denominators 2^55 (0.1), 1 (3.0) and 2^40 in every agent's column, and
    # counts whose products with the numerators pass 2^115
    g = Game([2, 2], [[0.1, 3.0], [3.0, 2.0**-40], [2.0**-40, 0.1], [0.0, 0.1 + 2.0**-40]])
    counts = np.array([2**62 - 1, 2**62 + 2**61 + 5, 0, 2**62 - 3], dtype=np.int64)
    want = tuple(
        sum((int(c) * Fraction(float(u)) for c, u in zip(counts, g.utilities[:, agent])),
            Fraction(0))
        for agent in range(g.num_agents)
    )
    assert _exact_totals(g, counts) == want
    assert g.payoff_table is g.payoff_table  # built once per game
    nums, den = g.payoff_table[0]
    assert [Fraction(n, den) for n in nums] == [Fraction(u) for u in g.utilities[:, 0].tolist()]


def _export_peak_mib(tr, path) -> float:
    tracemalloc.start()
    try:
        transcript_to_csv(tr, path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_transcript_csv_memory_is_bounded(game, ce_strategy, tmp_path):
    # 3^6 game: the row tables hold 729 entries each, where a table of
    # (signal, action) pairs would hold 531441 strings
    rng = np.random.default_rng(6)
    big = Game([3] * 6, rng.uniform(0, 5, size=(729, 6)))
    sigma = CorrelatedStrategy(rng.dirichlet(np.ones(729)))
    lone_free = Schedule((Phase(PhaseKind.FREE_PERIOD, 1, 1, 300),), (), rules=None)
    tr = run_game(big, sigma, lone_free, [{"learner": UNIFORM}] * 6, seed=0)
    assert _export_peak_mib(tr, tmp_path / "big.csv") < 2
    # a 200k-round phase is written in slices, so the peak does not grow with it
    long_free = Schedule((Phase(PhaseKind.FREE_PERIOD, 1, 1, 200_000),), (), rules=None)
    tr = run_game(game, ce_strategy, long_free, seed=0)
    assert _export_peak_mib(tr, tmp_path / "long.csv") < 4


def test_empirical_frequency_of_a_short_window_copies_no_column(game, ce_strategy):
    # a 10-round window at the end of 200k rounds reads the last phase's slice
    sched = toy_schedule(game, ce_strategy, 0.1, 0.01, [1000, 1000], [99_000, 99_000])
    tr = run_game(game, ce_strategy, sched, seed=3)
    column = sum(pr.joints.nbytes for pr in tr.phase_results)
    tracemalloc.start()
    try:
        window = empirical_frequency(tr, tr.num_rounds - 9, tr.num_rounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window.total == 10
    assert np.array_equal(window.counts, np.bincount(tr.phase_results[-1].joints[-10:],
                                                     minlength=4))
    assert peak < column / 100


def test_pure_learning_needs_one_spec_per_agent(game):
    for specs in ([UNIFORM], [UNIFORM] * 3):
        with pytest.raises(InvalidInputError):
            run_pure_learning(game, specs, rounds=10, seed=0)


def test_tv_distance_examples(ce_strategy):
    assert tv_distance(ce_strategy, ce_strategy) == 0.0
    assert tv_distance([1, 0, 0, 0], [0, 0, 0, 1]) == 1.0
    # half the absolute-difference sum: (1/4 + 1/4 + 1/4 + 1/4) / 2
    assert tv_distance([0.5, 0.5, 0, 0], [0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        tv_distance([0.5, 0.5], [1.0])


def _signal_stream(signals):
    """``_step``'s signal source over a fixed array: each call returns a view of
    the next rounds."""
    read = 0

    def next_signals(n):
        nonlocal read
        read += n
        return signals[read - n : read]

    return next_signals


@pytest.mark.parametrize("play", ["learner", "fallback", "signal"])
def test_signal_privacy(game, play):
    # joint signals 1 and 3 (1-based) differ only in agent 1's component, so
    # swapping them leaves agent 2's own signals as they were: whether agent 2
    # learns, plays its fall-back or follows, its actions may not change (it
    # never sees the other component). Agent 1 follows, so the swap changes
    # the actions fictitious play answers: the stream opens with rounds the
    # swap leaves alone (joints 4, then 2), after which no swapped round moves
    # agent 2's best response
    drawn = np.random.default_rng(99).choice(4, size=420, p=[0.3, 0.2, 0.3, 0.2])
    base = np.concatenate([np.full(20, 3), np.full(60, 1), drawn])
    swapped = np.choose(base, [2, 1, 0, 3])

    def columns(signals):
        agent_2 = {"learner": make_learner(FP, game, 1), "fallback": np.array([0.4, 0.6]),
                   "signal": None}[play]
        out = np.empty((2, len(signals)), dtype=np.int64)
        sim._step(game, [None, agent_2], [None, np.random.default_rng(4)], len(signals),
                  _signal_stream(signals), *out)
        return out

    signals_a, joints_a = columns(base)
    _, joints_b = columns(swapped)
    assert joints_a.tolist() != joints_b.tolist()  # agent 1 plays the swapped component
    agent_2_a = np.unravel_index(joints_a, game.action_counts)[1].tolist()
    assert agent_2_a == np.unravel_index(joints_b, game.action_counts)[1].tolist()
    assert set(agent_2_a) == {0, 1}
    # signals_out owns its values: the stream's array may change afterwards
    drawn_signals = base.tolist()
    base[:] = 0
    assert signals_a.tolist() == drawn_signals


def test_goodness_of_fit_calibration(game, ce_strategy):
    # when everyone follows, the announcement fits the transcript: the
    # statistic clears the 0.001 level in at least 99% of seeds
    plan = manual_plan(game, ce_strategy, alpha=0.001, delta_hat=0.01, sample_size=2100)
    sched = single_test_schedule(plan)
    crit = chi2_quantile(0.999, 3)
    passes = 0
    for seed in range(200):
        rs = run_game_counts(game, ce_strategy, sched, seed=seed)
        t = pearson_statistic(rs.phase_results[0].counts, ce_strategy, 2100)
        passes += t < crit
    assert passes >= 198


def test_counts_engine_matches_full_engine_distributionally(game, ce_strategy):
    # same dynamics, different rng consumption: compare aggregate behavior
    sched = toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[400], free_lengths=[400])
    full = run_game(game, ce_strategy, sched, seed=21)
    counts = np.bincount(np.concatenate([pr.joints for pr in full.phase_results]), minlength=4)
    agg = run_game_counts(game, ce_strategy, sched, seed=21)
    agg_counts = sum(pr.counts for pr in agg.phase_results)
    assert tv_distance(counts / counts.sum(), agg_counts / agg_counts.sum()) < 0.1


def test_phases_longer_than_int64_are_refused_before_drawing(game, ce_strategy):
    longest = toy_schedule(game, ce_strategy, 0.1, 0.01, [100], [2**63 - 1])
    run = run_game_counts(game, ce_strategy, longest, seed=1)
    assert int(run.phase_results[-1].counts.sum()) == 2**63 - 1
    too_long = toy_schedule(game, ce_strategy, 0.1, 0.01, [100], [2**63])
    for runner in (run_game_counts, run_game):
        with pytest.raises(InvalidInputError):
            runner(game, ce_strategy, too_long, seed=1)
    # capped below the long phase, the run is fine
    assert run_game_counts(game, ce_strategy, too_long, seed=1, rounds=500).decisions


def test_whole_run_counts_past_int64_are_refused(game):
    # four free periods of 6e18 rounds each fit int64, but their sum, 2.4e19
    # rounds, wrapped two cells of the whole run's counts negative
    sigma = CorrelatedStrategy([0.02, 0.48, 0.48, 0.02])
    sched = toy_schedule(game, sigma, 1e-9, 0.01, [100] * 4, [6 * 10**18] * 4)
    run = run_game_counts(game, sigma, sched, seed=1)
    assert run.num_rounds == 400 + 24 * 10**18
    with pytest.raises(InvalidInputError, match="24000000000000000400 rounds.*phase_results"):
        run.counts
    per_phase = [sum(int(pr.counts[j]) for pr in run.phase_results) for j in range(4)]
    assert sum(per_phase) == run.num_rounds
    assert run.utility_totals == tuple(sum((pr.utility_totals[a] for pr in run.phase_results),
                                           Fraction(0)) for a in range(2))
    assert run.utility_totals == tuple(
        sum((c * Fraction(u) for c, u in zip(per_phase, game.utilities[:, a].tolist())),
            Fraction(0)) for a in range(2))
    # one round short of 2**63 no cell can wrap: the counts are read
    short = toy_schedule(game, sigma, 1e-9, 0.01, [100], [2**63 - 101])
    assert run_game_counts(game, sigma, short, seed=1).counts.sum() == 2**63 - 1


@pytest.mark.parametrize("configs, rounds", [
    (3, None), (["x", "y"], None), ([{}, 3], None), ([{}], None), (None, "x"), (None, 2.0),
    (None, True), (None, -1),
    # falsy configs used to mean the defaults, which only None does
    ([], None), ({}, None), (0, None), (False, None), ("", None),
])
def test_run_game_refuses_malformed_agents_and_rounds(game, ce_strategy, configs, rounds):
    schedule = toy_schedule(game, ce_strategy, 0.1, 0.01, [20], [20])
    with pytest.raises(InvalidInputError):
        run_game(game, ce_strategy, schedule, configs, seed=1, rounds=rounds)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("runner", ["run_game", "run_game_counts", "run_pure_learning"])
def test_runners_refuse_a_bad_seed_before_drawing(game, ce_strategy, runner, seed):
    # -1 and 1.5 used to leak SeedSequence's ValueError or TypeError, and True
    # was taken as seed 1 and recorded as the run's seed
    schedule = toy_schedule(game, ce_strategy, 0.1, 0.01, [20], [20])
    calls = {
        "run_game": lambda: run_game(game, ce_strategy, schedule, seed=seed),
        "run_game_counts": lambda: run_game_counts(game, ce_strategy, schedule, seed=seed),
        "run_pure_learning": lambda: run_pure_learning(game, [UNIFORM, UNIFORM], 20, seed=seed),
    }
    # every runner seeds through the one seeding pass
    with (mock.patch.object(np.random, "SeedSequence", side_effect=AssertionError("drawn")),
          mock.patch.object(streams, "_seed_states", side_effect=AssertionError("seeded"))):
        with pytest.raises(InvalidInputError, match="seed"):
            calls[runner]()


def test_pure_learning_locks_pure_equilibrium(game):
    fp = {"name": "fictitious-play"}
    run = run_pure_learning(game, [fp, fp], rounds=2000, seed=0)
    # joint fictitious play on this game locks the strict pure equilibrium
    # (second action, first action) worth (5, 2)
    ledger = build_ledger(run)
    assert average_utility(ledger, 0, 2000) == pytest.approx(5.0, abs=0.05)
    assert average_utility(ledger, 1, 2000) == pytest.approx(2.0, abs=0.05)
    assert run.counts[2] >= 1990


def test_exact_window_expectation_uniform(game):
    specs = [{"name": "uniform"}, {"name": "uniform"}]
    rounds = exact_window_expectation(game, specs, 3)
    for dist in rounds:
        assert all(p == Fraction(1, 4) for p in dist)


def test_exact_window_expectation_deterministic_learners(game):
    fp = {"name": "fictitious-play"}
    rounds = exact_window_expectation(game, [fp, fp], 3)
    # joint fictitious play is deterministic: each round is a point mass
    for dist in rounds:
        assert sorted(dist) == [0, 0, 0, 1]
    # first round: both best-respond to the uniform prior -> cell (1, 1)
    assert rounds[0][3] == 1


def test_exact_window_expectation_total_mass(game):
    specs = [{"name": "uniform"}, {"name": "fictitious-play"}]
    rounds = exact_window_expectation(game, specs, 4)
    for dist in rounds:
        assert sum(dist) == 1  # exact Fractions


@pytest.mark.parametrize("announcement", ["ce_strategy", "non_ce_strategy"])
@pytest.mark.parametrize("configs", ORACLE_CONFIGS, ids=["fp-fp", "fp-uniform", "uniform-trigger"])
def test_run_game_matches_per_round_oracle(game, announcement, configs, request):
    sigma = request.getfixturevalue(announcement)
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[150, 200], free_lengths=[400, 300])
    # caps: none, zero, mid test 1, mid free period 1, mid test 2
    for rounds in (None, 0, 100, 300, 700):
        for seed in range(3):
            tr = run_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            rows, decisions = per_round_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            assert _columns(tr) == phase_columns(game, rows)
            assert tr.decisions == decisions


def test_transcript_phase_results_match_rows(game, non_ce_strategy):
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[120, 120], free_lengths=[300, 200])
    tr = run_game(game, non_ce_strategy, sched, ORACLE_CONFIGS[2], seed=3, rounds=600)
    assert sum(pr.rounds_run for pr in tr.phase_results) == tr.num_rounds == 600
    per_round = [_round_utilities(tr, agent) for agent in range(game.num_agents)]
    pos = 0
    for pr in tr.phase_results:
        counts = np.zeros(game.num_joint_actions, dtype=np.int64)
        for joint in pr.joints.tolist():
            counts[joint] += 1
        assert np.array_equal(pr.counts, counts)
        for agent in range(game.num_agents):
            exact = sum(per_round[agent][pos : pos + pr.rounds_run], Fraction(0))
            assert pr.utility_totals[agent] == exact
        pos += pr.rounds_run
    ledger = build_ledger(tr)
    # a transcript's ledger answers any t, mid-phase too, exactly as its rows do
    ends = np.cumsum([pr.rounds_run for pr in tr.phase_results]).tolist()
    checked = {1, 200, tr.num_rounds} | {t + d for t in ends for d in (-1, 0, 1)}
    for t in sorted(x for x in checked if 1 <= x <= tr.num_rounds):
        for agent in range(game.num_agents):
            exact = sum(per_round[agent][:t], Fraction(0))
            assert average_utility(ledger, agent, t) == float(exact / t)


@pytest.mark.parametrize("configs", [ORACLE_CONFIGS[0], [{}, {"learner": TRIGGER}]],
                         ids=["fp-fp", "follow-trigger"])
def test_counts_and_transcript_agree_when_every_phase_is_stepped(game, non_ce_strategy, configs):
    # agent 2 fails its incentive check, so it learns from round 1; a learner
    # that is not stationary makes the counts runner step every round too
    lone_free = Schedule((Phase(PhaseKind.FREE_PERIOD, 1, 1, 500),), (), rules=None)
    for seed in range(3):
        tr = run_game(game, non_ce_strategy, lone_free, configs, seed=seed)
        rs = run_game_counts(game, non_ce_strategy, lone_free, configs, seed=seed)
        assert len(tr.phase_results) == len(rs.phase_results) == 1
        for a, b in zip(tr.phase_results, rs.phase_results):
            assert (a.phase, a.rounds_run, a.utility_totals) == (b.phase, b.rounds_run,
                                                                 b.utility_totals)
            assert np.array_equal(a.counts, b.counts)
        assert tr.decisions == rs.decisions
        assert run_summary_dict(tr) == run_summary_dict(rs)


def test_summary_of_a_baseline_is_refused_before_its_file_is_opened(game, tmp_path):
    # a pure-learning baseline has no announcement to measure its free period against
    path = tmp_path / "summary.json"
    with pytest.raises(InvalidInputError, match="has no announcement"):
        write_summary_json(run_pure_learning(game, [UNIFORM] * 2, rounds=10), path)
    assert not path.exists()


@pytest.mark.parametrize("case, configs", BEYOND_2X2, ids=BEYOND_IDS)
def test_run_game_matches_per_round_oracle_beyond_2x2(case, configs, request):
    game, sigma = request.getfixturevalue(case)
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[150, 200], free_lengths=[400, 300])
    for rounds in (None, 0, 100, 300, 700):
        for seed in range(3):
            tr = run_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            rows, decisions = per_round_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            assert _columns(tr) == phase_columns(game, rows)
            assert tr.decisions == decisions


def _tally(game, rows, phase):
    counts = np.zeros(game.num_joint_actions, dtype=np.int64)
    mine = [rec for rec in rows if (rec.phase_kind, rec.phase_index) == (phase.kind.value, phase.index)]
    for rec in mine:
        counts[rec.joint_index] += 1
    totals = tuple(sum((Fraction(rec.utilities[a]) for rec in mine), Fraction(0))
                   for a in range(game.num_agents))
    return len(mine), counts, totals


@pytest.mark.parametrize("case, configs", STEPPED, ids=STEPPED_IDS)
def test_run_game_counts_matches_per_round_oracle_when_stepped(case, configs, request):
    # free periods only: every phase is stepped in counts mode too
    game, sigma = request.getfixturevalue(case)
    frees = Schedule((Phase(PhaseKind.FREE_PERIOD, 1, 1, 300), Phase(PhaseKind.FREE_PERIOD, 2, 301, 400),
                      Phase(PhaseKind.FREE_PERIOD, 3, 701, 500)), (), rules=None)
    for rounds in (None, 0, 100, 300, 700):
        for seed in range(3):
            rs = run_game_counts(game, sigma, frees, configs, seed=seed, rounds=rounds)
            rows, decisions = per_round_game(game, sigma, frees, configs, seed=seed, rounds=rounds)
            assert sum(pr.rounds_run for pr in rs.phase_results) == len(rows)
            for pr in rs.phase_results:
                run, counts, totals = _tally(game, rows, pr.phase)
                assert pr.rounds_run == run
                assert np.array_equal(pr.counts, counts)
                assert pr.utility_totals == totals
            assert rs.decisions == decisions


@pytest.mark.parametrize("learners", [
    [FP, FP, FP],
    [{"name": "trigger", "initial_action": 0, "switch_action": 1, "watch_agent": 2,
      "watch_action": 0}, TRIGGER, FP],
], ids=["fp", "triggers-fp"])
def test_run_game_counts_decisions_match_per_round_oracle(game_2x2x2, learners):
    # every agent rejects the announcement and plays point masses, so the
    # counts runner's multinomial tests draw the per-round loop's counts
    game, sigma = game_2x2x2
    configs = [{"learner": spec, "fallback": [0.0, 1.0]} for spec in learners]
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[150, 200], free_lengths=[400, 300])
    for rounds in (None, 100, 700):
        for seed in range(3):
            rs = run_game_counts(game, sigma, sched, configs, seed=seed, rounds=rounds)
            rows, decisions = per_round_game(game, sigma, sched, configs, seed=seed, rounds=rounds)
            for pr in rs.phase_results:
                run, counts, totals = _tally(game, rows, pr.phase)
                assert (pr.rounds_run, pr.utility_totals) == (run, totals)
                assert np.array_equal(pr.counts, counts)
            assert rs.decisions == decisions
            if rounds is None:
                assert len(decisions) == 2 * game.num_agents


@pytest.mark.parametrize("case, learners", [
    ("fixture_2x2", [FP, FP]),
    ("fixture_2x2", [FP, UNIFORM]),
    ("fixture_2x2", [{"name": "trigger", "watch_agent": 1, "watch_action": 1, "switch_action": 1},
                     {"name": "trigger", "watch_agent": 0, "watch_action": 1, "switch_action": 1}]),
    ("fixture_2x2", [UNIFORM, TRIGGER]),
    ("game_3x2", [FP, FP]),
    ("game_2x2x2", [FP, FP, FP]),
    ("game_2x2x2", [FP, UNIFORM, TRIGGER]),
], ids=["fp-fp", "fp-uniform", "triggers-never-fire", "uniform-trigger", "3x2-fp-fp", "3fp",
        "fp-uniform-trigger"])
def test_run_pure_learning_matches_per_round_oracle(case, learners, request):
    game, _ = request.getfixturevalue(case)
    for rounds in (0, 1, 57, 3000):
        # multi-word seeds take more mixing stages; a numpy integer is read as its int
        for seed in (0, 1, np.int64(2), *WORD_EDGES[-2:]):
            run = run_pure_learning(game, learners, rounds=rounds, seed=seed)
            counts, totals = per_round_pure_learning(game, learners, rounds, seed=seed)
            assert np.array_equal(run.counts, counts)
            assert run.utility_totals == totals


@pytest.mark.parametrize("rounds", [None, 150, 0], ids=["whole", "mid-phase", "zero"])
def test_every_runner_reads_whole_run_totals_off_its_phases(game, non_ce_strategy, rounds):
    # every runner returns a RunSummary whose whole-run reads add up its
    # phases; the pure-learning baseline's also equal the per-round oracle
    sched = toy_schedule(game, non_ce_strategy, 0.1, 0.01, [100, 100], [200, 300])
    configs = [{"learner": FP}, {"learner": UNIFORM, "fallback": [0.3, 0.7]}]
    horizon = sched.horizon if rounds is None else rounds
    runs = {
        "run_game": run_game(game, non_ce_strategy, sched, configs, seed=3, rounds=rounds),
        "run_game_counts": run_game_counts(game, non_ce_strategy, sched, configs, seed=3,
                                           rounds=rounds),
        "run_batch": run_batch(game, non_ce_strategy, sched, configs, [4, 3], rounds=rounds)[1],
        "run_pure_learning": run_pure_learning(game, [FP, UNIFORM], horizon, seed=3),
    }
    for name, run in runs.items():
        phases = run.phase_results
        assert isinstance(run, sim.RunSummary), name
        assert run.num_rounds == sum(pr.rounds_run for pr in phases) == horizon, name
        assert run.counts.dtype == np.int64
        assert run.counts.tolist() == [sum(int(pr.counts[k]) for pr in phases) for k in range(4)]
        assert run.utility_totals == tuple(sum((pr.utility_totals[a] for pr in phases), Fraction(0))
                                           for a in range(2)), name
    # a batch's run is its seed played alone
    assert np.array_equal(runs["run_batch"].counts, runs["run_game_counts"].counts)
    assert runs["run_batch"].utility_totals == runs["run_game_counts"].utility_totals
    tr = runs["run_game"]
    assert tr.utility_totals == tuple(sum(_round_utilities(tr, a), Fraction(0)) for a in range(2))
    pure = runs["run_pure_learning"]
    assert pure.sigma_m is None and not pure.decisions
    assert [pr.phase for pr in pure.phase_results] == (
        [Phase(PhaseKind.FREE_PERIOD, 1, 1, horizon)] if horizon else [])
    counts, totals = per_round_pure_learning(game, [FP, UNIFORM], horizon, seed=3)
    assert np.array_equal(pure.counts, counts)
    assert pure.utility_totals == totals


def test_one_agent_fictitious_play_matches_per_round_oracle():
    # no opponents: the best response to the empty profile, from the first round
    game = Game([3], np.array([[1.0], [3.0], [2.0]]))
    for rounds in (0, 1, 50):
        for seed in range(2):
            run = run_pure_learning(game, [FP], rounds=rounds, seed=seed)
            counts, totals = per_round_pure_learning(game, [FP], rounds, seed=seed)
            assert np.array_equal(run.counts, counts)
            assert run.utility_totals == totals
    assert run.counts.tolist() == [0, 50, 0]


class _Mixing(Learner):
    """A mixed strategy that may change after any round (``stable_rounds()`` is 1)."""

    def reset(self):
        pass

    def observe(self, joint_action):
        pass

    def next_strategy(self):
        return np.array([0.4, 0.6])


# the one play policy, Mode.plays, over Mode x PhaseKind
POLICY = {
    (Mode.FOLLOWING_MEDIATOR, PhaseKind.SAMPLING_TEST): "signal",
    (Mode.FOLLOWING_MEDIATOR, PhaseKind.FREE_PERIOD): "signal",
    (Mode.REJECTED_BY_EQ2, PhaseKind.SAMPLING_TEST): "fallback",
    (Mode.REJECTED_BY_EQ2, PhaseKind.FREE_PERIOD): "learner",
    (Mode.REJECTED_BY_TEST, PhaseKind.SAMPLING_TEST): "fallback",
    (Mode.REJECTED_BY_TEST, PhaseKind.FREE_PERIOD): "learner",
}


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "sequential"])
@pytest.mark.parametrize("kind", list(PhaseKind))
@pytest.mark.parametrize("mode", list(Mode))
def test_play_policy_table(mode, kind, stable):
    # the one policy's play, resolved as the engine resolves it, is what
    # agent_act samples from and the counts engine's i.i.d. mix; a verdict
    # moves every agent but a screened one
    fallback = MixedStrategy([0.75, 0.25]).probs
    learner = UniformLearner(2) if stable else _Mixing()
    play = mode.plays(kind)
    assert play == POLICY[mode, kind]
    resolved = {"signal": None, "fallback": fallback, "learner": learner}[play]
    free_mix = sim._free_mix(learner)  # what a free period drawn in bulk composes for it
    signals = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    played = agent_act(resolved, signals, np.random.default_rng(5), 8)
    learning = mode.rejected and kind is PhaseKind.FREE_PERIOD
    assert (play == "learner") == learning  # only a learner play observes the rounds
    assert (learning and free_mix is None) == (learning and not stable)
    if not mode.rejected:
        assert resolved is None and played is signals  # not a deviator
    else:
        mix = fallback if kind is PhaseKind.SAMPLING_TEST else learner.next_strategy()
        strategy = resolved.next_strategy() if isinstance(resolved, Learner) else resolved
        assert np.array_equal(strategy, mix)
        if learning and free_mix is not None:
            assert np.array_equal(free_mix, mix)
        assert played.tolist() == sample_block(mix, np.random.default_rng(5), 8).tolist()
    for outcome in Outcome:
        verdict = Decision(outcome, 1.0, 0.5)
        after, decision = mode.conclude(verdict)
        if mode is Mode.REJECTED_BY_EQ2:
            assert decision == mode.conclude(None)[1] == Decision(Outcome.REJECT_BY_EQ2)
            assert decision is mode.conclude(None)[1]  # one shared frozen instance
            assert after is Mode.REJECTED_BY_EQ2
        else:
            assert decision is verdict
            assert after is (Mode.REJECTED_BY_TEST if verdict.rejected
                             else Mode.FOLLOWING_MEDIATOR)


def test_one_play_policy_moves_the_stepped_and_the_counts_path(game, non_ce_strategy,
                                                               monkeypatch):
    # ROADMAP item 2's first candidate rule patched into the one policy: a
    # rejected agent plays its signal in sampling tests. Agent 2 is screened
    # on the non-CE fixture, so by default it plays its fall-back in every
    # test; patched, every test of either path is played as announced, also
    # after agent 1's verdict rejects
    policy = Mode.plays
    monkeypatch.setattr(Mode, "plays", lambda mode, kind: (
        "signal" if kind is PhaseKind.SAMPLING_TEST else policy(mode, kind)))
    configs = [{"learner": UNIFORM}, {"learner": UNIFORM}]
    sched = toy_schedule(game, non_ce_strategy, alpha=0.5, delta_hat=0.01,
                         test_lengths=[200, 200], free_lengths=[100, 100])
    stepped = [run_game(game, non_ce_strategy, sched, configs, seed=s) for s in range(6)]
    assert any(tr.decisions[(0, 1)].rejected for tr in stepped)
    for tr in stepped:
        tests = [pr for pr in tr.phase_results if pr.phase.kind is PhaseKind.SAMPLING_TEST]
        assert len(tests) == 2 and all(np.array_equal(pr.joints, pr.signals) for pr in tests)
    # counts: a million rounds a test, each as announced to within 0.005 in
    # total variation (a fall-back is that close with probability 0.01)
    long = toy_schedule(game, non_ce_strategy, alpha=0.5, delta_hat=0.01,
                        test_lengths=[10**6, 10**6], free_lengths=[100, 100])
    runs = [*run_batch(game, non_ce_strategy, long, configs, range(20)),
            run_game_counts(game, non_ce_strategy, long, configs, seed=20)]
    assert any(run.decisions[(0, 1)].rejected for run in runs)
    for run in runs:
        tests = [pr for pr in run.phase_results if pr.phase.kind is PhaseKind.SAMPLING_TEST]
        assert len(tests) == 2
        assert all(tv_distance(pr.counts / pr.rounds_run, non_ce_strategy) < 0.005
                   for pr in tests)


def test_one_agent_fictitious_play_is_one_block_per_signal_chunk(monkeypatch):
    # with no opponents the strategy never changes, so no round ends a block
    game = Game([3], np.array([[1.0], [3.0], [2.0]]))
    rounds = 2 * sim._BLOCK_ROUNDS + 300
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return agent_act(*args)

    monkeypatch.setattr(sim, "agent_act", counted)
    run = run_pure_learning(game, [FP], rounds=rounds, seed=0)
    assert len(calls) <= -(-rounds // sim._BLOCK_ROUNDS)
    assert run.counts.tolist() == [0, rounds, 0]


def test_stepped_phase_spanning_signal_chunks_matches_per_round_oracle(game, non_ce_strategy):
    # a free period over three signal chunks (agent 1 follows, agent 2 learns):
    # chunked draws give the oracle's one-call signals
    long_free = Schedule((Phase(PhaseKind.FREE_PERIOD, 1, 1, 2 * sim._BLOCK_ROUNDS + 300),),
                         (), rules=None)
    configs = [{"learner": FP}, {"learner": FP}]
    tr = run_game(game, non_ce_strategy, long_free, configs, seed=2)
    rows, _ = per_round_game(game, non_ce_strategy, long_free, configs, seed=2)
    assert _columns(tr) == phase_columns(game, rows)


def _stepped_peak_mib(game, sigma, free_rounds) -> float:
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[100], free_lengths=[free_rounds])
    tracemalloc.start()
    try:
        run = run_game_counts(game, sigma, sched, [{"learner": FP}] * 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert run.phase_results[-1].rounds_run == free_rounds
    return peak


def test_stepped_phase_memory_is_flat_in_its_length(game, non_ce_strategy):
    # the free period's learners are sequential, so it is stepped in counts
    # mode; its signals are drawn per chunk, so ten times the rounds adds
    # no memory (drawn whole, 2e6 rounds peak near 30 MiB)
    short = _stepped_peak_mib(game, non_ce_strategy, 200_000)
    long = _stepped_peak_mib(game, non_ce_strategy, 2_000_000)
    assert long < short + 1


def test_long_free_periods_are_not_stepped_per_round(game, non_ce_strategy, monkeypatch):
    # criterion 9's paired runs: per-round play would call agent_act 2 x 500k times
    calls = []

    def counted(*args):
        calls.append(None)
        return agent_act(*args)

    monkeypatch.setattr(sim, "agent_act", counted)
    configs = [{"learner": FP}, {"learner": FP, "fallback": [0.75, 0.25]}]
    sched = toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[2500], free_lengths=[247500])
    rs = run_game_counts(game, non_ce_strategy, sched, configs, seed=0)
    pure = run_pure_learning(game, [FP, FP], rounds=sched.horizon, seed=0)
    assert sum(pr.rounds_run for pr in rs.phase_results) == pure.num_rounds == 250_000
    assert len(calls) < 1000
