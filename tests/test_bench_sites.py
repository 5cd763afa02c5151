"""The benchmark's traced run wraps module attributes; they must still exist.

``bench/tracing.py`` patches each layer's functions where their callers look
them up. If a refactor renames or stops importing one, ``--trace 1`` breaks
or silently stops counting; these tests catch both.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from advicecheck import (
    CorrelatedStrategy,
    Game,
    load_strategy,
    plan_test,
    run_batch,
    run_game,
    run_pure_learning,
    toy_schedule,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists(tracing):
    sites = [site for _, group in tracing.SPANS + tracing.TALLIES for site in group]
    sites += [(tracing.sim, name) for name in tracing.RUNNERS]
    missing = [f"{m.__name__}.{attr}" for m, attr in sites if not callable(getattr(m, attr, None))]
    assert missing == []


def test_tracer_counts_every_stepped_agent_action(tracing, game, fixtures_dir):
    # two triggers that never fire report a one-round stable strategy, so every
    # round is stepped singly through sim.agent_act
    never = [{"name": "trigger", "watch_agent": 1, "watch_action": 1, "switch_action": 1},
             {"name": "trigger", "watch_agent": 0, "watch_action": 1, "switch_action": 1}]
    with tracing.Tracer() as tracer:
        tracing.sim.run_pure_learning(game, never, rounds=40, seed=1)
    assert tracer.tallies["agents"][0] == game.num_agents * 40
    assert tracer.values["sim.rounds_stepped"] == 40
    # fictitious play skips ahead once it locks in; the rounds it steps singly
    # are still counted once per agent
    sigma = load_strategy(fixtures_dir / "non_ce_strategy.json")
    sched = toy_schedule(game, sigma, alpha=0.1, delta_hat=0.01,
                         test_lengths=[50], free_lengths=[70])
    fp = {"name": "fictitious-play"}
    with tracing.Tracer() as tracer:
        tr = tracing.sim.run_game(game, sigma, sched, [{"learner": fp}] * 2, seed=1)
        tracing.sim.run_pure_learning(game, [fp, fp], rounds=40, seed=1)
    stepped = tracer.values["sim.rounds_stepped"]
    assert tracer.tallies["agents"][0] == game.num_agents * stepped
    assert 0 < stepped < tr.num_rounds + 40
    # leaving the tracer restores the originals
    assert tracing.sim.run_game is run_game
    assert tracing.sim.run_pure_learning is run_pure_learning


def test_tracer_counts_every_psi_draw_of_a_plan(tracing, game, ce_strategy):
    rng = np.random.default_rng(4)
    cube = Game([2, 2, 2], rng.uniform(0, 5, size=(8, 3)))
    sigma = CorrelatedStrategy(rng.dirichlet(np.full(8, 20.0)))
    mc = 1000
    with tracing.Tracer() as tracer:
        tracing.verifier.plan_test(game, ce_strategy, 0.3, 0.01, mc_samples=mc, seed=2)
        tracing.verifier.plan_test(cube, sigma, 0.3, 0.01, mc_samples=mc, seed=2)
    assert tracer.values["verifier.psi_draws"] == mc * (2**2 - 1) + mc * (2**3 - 1)
    assert [span[0] for span in tracer.spans].count("verifier.estimate_psi") == 2
    assert tracing.verifier.plan_test is plan_test


def test_tracer_counts_one_verdict_per_seed_of_a_batch(tracing, game, ce_strategy):
    # the engine's verdict goes through sim.run_sampling_decision, where the
    # traced run counts it: once per completed test and seed, not per agent
    seeds = 7
    sched = toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[50], free_lengths=[70])
    with tracing.Tracer() as tracer:
        runs = tracing.sim.run_batch(game, ce_strategy, sched, None, range(seeds))
    assert tracer.tallies["verifier.decision"][0] == seeds
    assert all(sorted(run.decisions) == [(0, 1), (1, 1)] for run in runs)
    assert tracing.sim.run_batch is run_batch
