"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.
Every criterion runs at a fixed seed and its stated tolerance.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import advicecheck as ac
from advicecheck.cli import main as cli_main
from advicecheck.games import agent_incentive_violations
from oracles import brute_force_ce, exact_window_expectation, random_game_and_strategy

GAME = "fixtures/small_game.json"
CE = "fixtures/ce_strategy.json"
NON_CE = "fixtures/non_ce_strategy.json"

ACCEPT_COUNTS = [96, 601, 224, 1179]
REJECT_COUNTS = [1050, 350, 525, 175]

MC_SAMPLES = 200_000
PLAN_SEED = 20260811


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} [{label}]: FAIL")
        raise
    print(f"criterion {n:2d} [{label}]: PASS")


@pytest.fixture(scope="module")
def ce_plan(game, ce_strategy):
    return ac.plan_test(game, ce_strategy, p=0.1, delta_hat=0.01,
                        mc_samples=MC_SAMPLES, seed=PLAN_SEED)


@pytest.fixture(scope="module")
def non_ce_plan(game, non_ce_strategy):
    return ac.plan_test(game, non_ce_strategy, p=0.1, delta_hat=0.01,
                        mc_samples=MC_SAMPLES, seed=PLAN_SEED)


def test_criterion_01_worked_example_accept_end_to_end(game, ce_strategy, capsys):
    with criterion(1, "accept example end-to-end"):
        t0 = time.monotonic()
        assert cli_main(["check-ce", "--game", GAME, "--strategy", CE]) == 0

        # planned inside the timed window: the runtime bound covers the
        # Monte-Carlo measure estimation
        plan = ac.plan_test(game, ce_strategy, p=0.1, delta_hat=0.01,
                            mc_samples=MC_SAMPLES, seed=PLAN_SEED)
        assert plan.alpha == 0.1
        assert plan.critical_value == pytest.approx(6.25, abs=0.01)
        assert plan.psi == pytest.approx(0.0943, abs=0.01)
        assert plan.beta == pytest.approx((0.1 - plan.psi) / (1 - plan.psi), abs=1e-12)
        assert plan.beta == pytest.approx(0.0063, abs=0.001)
        assert 1900 <= plan.sample_size <= 2300

        # the worked counts (2100 rounds) decide "do not reject"
        plan2100 = ac.manual_plan(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                                  sample_size=2100)
        assert not agent_incentive_violations(game, ce_strategy, 0)
        decision = ac.run_sampling_decision(plan2100, ce_strategy, ACCEPT_COUNTS)
        assert 4.63 <= decision.statistic <= 4.75
        assert decision.outcome is ac.Outcome.FOLLOW_MEDIATOR
        assert cli_main(["test", "--game", GAME, "--strategy", CE,
                         "--counts", "fixtures/accept_counts.json"]) == 0
        assert "do not reject" in capsys.readouterr().out

        assert time.monotonic() - t0 < 30.0


def test_criterion_02_worked_example_reject_end_to_end(game, non_ce_strategy, capsys):
    with criterion(2, "reject example end-to-end"):
        assert cli_main(["check-ce", "--game", GAME, "--strategy", NON_CE]) == 1
        out = capsys.readouterr().out
        assert "agent 2" in out

        plan2100 = ac.manual_plan(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                                  sample_size=2100)
        # agent 2's own incentive check fails, so it rejects without testing
        assert agent_incentive_violations(game, non_ce_strategy, 1)
        assert cli_main(["test", "--game", GAME, "--strategy", NON_CE, "--agent", "2",
                         "--counts", "fixtures/reject_counts.json"]) == 1
        out = capsys.readouterr().out
        d2 = json.loads(out[: out.rindex("}") + 1])
        assert d2["outcome"] == ac.Outcome.REJECT_BY_EQ2.value
        assert d2["statistic"] is None

        assert not agent_incentive_violations(game, non_ce_strategy, 0)
        d1 = ac.run_sampling_decision(plan2100, non_ce_strategy, REJECT_COUNTS)
        assert d1.outcome is ac.Outcome.REJECT_BY_STATISTIC
        assert d1.statistic == pytest.approx(5145.0, abs=1.0)
        assert d1.statistic > plan2100.critical_value
        assert d1.p_value < 1e-12


def test_criterion_03_sensitivity_exact_rational():
    with criterion(3, "sensitivity is exactly 2.45"):
        announced = [Fraction(2, 18), Fraction(10, 18), Fraction(1, 18), Fraction(5, 18)]
        # actual play: agent 1 follows its signal marginal, agent 2 plays (3/4, 1/4)
        m1 = (announced[0] + announced[1], announced[2] + announced[3])
        gamma2 = (Fraction(3, 4), Fraction(1, 4))
        actual = [m1[0] * gamma2[0], m1[0] * gamma2[1], m1[1] * gamma2[0], m1[1] * gamma2[1]]
        assert actual == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 4), Fraction(1, 12)]
        # the worked counts are exactly 2100 times this distribution
        assert [2100 * p for p in actual] == [1050, 350, 525, 175]
        delta = ac.sensitivity_delta(announced, actual)
        assert delta == Fraction(49, 20)
        assert float(delta) == 2.45


def test_criterion_04_type1_calibration(game, ce_strategy, ce_plan):
    with criterion(4, "Type-1 calibration"):
        t0 = time.monotonic()
        sched = ac.single_test_schedule(ce_plan)
        rejects = 0
        for seed in range(400):
            rs = ac.run_game_counts(game, ce_strategy, sched, seed=seed)
            outcome = rs.decisions[(0, 1)].outcome
            assert outcome in (ac.Outcome.FOLLOW_MEDIATOR, ac.Outcome.REJECT_BY_STATISTIC)
            rejects += outcome is ac.Outcome.REJECT_BY_STATISTIC
        freq = rejects / 400
        assert 0.05 <= freq <= 0.15, freq
        assert time.monotonic() - t0 < 120.0


def test_criterion_05_type2_power(game, non_ce_strategy, non_ce_plan):
    with criterion(5, "Type-2 power"):
        t0 = time.monotonic()
        sched = ac.single_test_schedule(non_ce_plan)
        configs = [{}, {"fallback": [0.75, 0.25]}]  # the worked deviation profile
        rejects = 0
        for seed in range(400):
            rs = ac.run_game_counts(game, non_ce_strategy, sched, configs, seed=seed)
            assert rs.decisions[(1, 1)].outcome is ac.Outcome.REJECT_BY_EQ2
            rejects += rs.decisions[(0, 1)].outcome is ac.Outcome.REJECT_BY_STATISTIC
        assert rejects / 400 >= 0.99
        assert time.monotonic() - t0 < 120.0


CENTRAL_GRID = [(0.5, 1), (2.0, 1), (1.0, 2), (1.3863, 2), (3.0, 3), (6.251, 3),
                (10.0, 5), (4.0, 8), (20.0, 10), (8.0, 6)]
NONCENTRAL_GRID = [(6.251, 4, 21.0), (2.0, 1, 1.0), (5.0, 3, 4.0), (10.0, 5, 10.0),
                   (3.0, 2, 8.0), (15.0, 8, 5.0), (1.0, 1, 0.5), (12.0, 6, 6.0),
                   (25.0, 10, 20.0), (7.0, 4, 2.0)]


def test_criterion_06_numerics_oracle(ce_plan):
    with criterion(6, "distribution numerics vs Monte Carlo"):
        rng = np.random.default_rng(8812)
        n = 1_000_000
        for x, df in CENTRAL_GRID:
            p_hat = float((rng.chisquare(df, size=n) <= x).mean())
            se = max(math.sqrt(p_hat * (1 - p_hat) / n), 1e-7)
            assert abs(ac.chi2_cdf(x, df) - p_hat) <= 3 * se
        for x, df, ncp in NONCENTRAL_GRID:
            p_hat = float((rng.noncentral_chisquare(df, ncp, size=n) <= x).mean())
            se = max(math.sqrt(p_hat * (1 - p_hat) / n), 1e-7)
            assert abs(ac.noncentral_chi2_cdf(x, df, ncp) - p_hat) <= 3 * se

        assert ac.chi2_quantile(0.9, 3) == pytest.approx(6.251, abs=0.005)
        probe = ac.noncentral_chi2_cdf(6.251, 4, 21.0)
        assert 0.004 <= probe <= 0.009
        # same order as the planned Type-2 budget from criterion 1
        assert 0.5 <= probe / ce_plan.beta <= 2.0


def test_criterion_07_schedule_surrogates(game, correlated_strategy):
    with criterion(7, "schedule growth surrogates"):
        sched = ac.build_schedule(game, correlated_strategy, ac.harmonic_rules(),
                                  horizon_tests=5, mc_samples=50_000, seed=11)
        report = ac.validate_schedule(sched, prefix_tests=5)
        assert report.all_passed, {k: v.detail for k, v in report.checks.items()}

        lay = ac.literal_layout([1, 2], [2, 2])
        r2 = lay.tests()[1]
        assert (r2.begin, r2.length) == (4, 2)
        f1 = lay.free_periods()[0]
        assert (f1.begin, f1.length) == (2, 2)


def test_criterion_08_convergence_to_announcement(game, ce_strategy):
    with criterion(8, "convergence under repeated testing"):
        rules = ac.geometric_rules(1.15e-5, 0.004)
        sched = ac.build_schedule(game, ce_strategy, rules, horizon_tests=3,
                                  mc_samples=MC_SAMPLES, seed=2026)
        good = 0
        for seed in range(50):
            rs = ac.run_game_counts(game, ce_strategy, sched, seed=seed)
            final_free = rs.phase_results[-1]
            assert final_free.phase.kind is ac.PhaseKind.FREE_PERIOD
            tv = ac.tv_distance(final_free.counts / final_free.rounds_run, ce_strategy)
            good += tv < 0.02
        assert good >= 48, good  # 95% of 50 seeds


def test_criterion_09_no_worse_off_and_repetition_structure(game, non_ce_strategy):
    with criterion(9, "no worse off vs pure learning"):
        # paired runs: verification agents against pure fictitious play
        fp = {"name": "fictitious-play"}
        configs = [{"learner": fp}, {"learner": fp, "fallback": [0.75, 0.25]}]
        sched = ac.toy_schedule(game, non_ce_strategy, alpha=0.1, delta_hat=0.01,
                                test_lengths=[2500], free_lengths=[247500])
        horizon = sched.horizon
        good = 0
        for seed in range(50):
            rs = ac.run_game_counts(game, non_ce_strategy, sched, configs, seed=seed)
            ledger = ac.build_ledger(rs)
            pure = ac.build_ledger(
                ac.run_pure_learning(game, [fp, fp], rounds=horizon, seed=seed))
            ok = all(
                ac.average_utility(ledger, a, horizon) - ac.average_utility(pure, a, horizon) >= -0.05
                for a in range(2)
            )
            good += ok
        assert good >= 48, good  # 95% of 50 seeds

        # repetition structure on exact-enumeration micro-horizons: with
        # flexible learners, every free period's expected play repeats the
        # fresh prefix exactly (checked through the reset machinery)
        layout = ac.literal_layout([1, 1], [4, 5])
        assert layout.horizon == 11  # within the exact-enumeration budget
        for specs in (
            [fp, fp],
            [{"name": "uniform"},
             {"name": "trigger", "initial_action": 0, "switch_action": 1,
              "watch_agent": 0, "watch_action": 1}],
        ):
            window = 4
            fresh = exact_window_expectation(game, specs, window)
            per_period = []
            for free in layout.free_periods():
                junk = [game.joint_action((free.begin + k) % game.num_joint_actions)
                        for k in range(free.begin - 1)]

                def prepare():
                    learners = [ac.make_learner(dict(s), game, i) for i, s in enumerate(specs)]
                    for joint in junk:
                        for ln in learners:
                            ln.observe(joint)
                    for ln in learners:
                        ln.reset()  # free-period start
                    return learners

                via_reset = exact_window_expectation(game, specs, window, prepare=prepare)
                assert via_reset == fresh  # exact Fraction equality, round by round
                per_period.append(via_reset)
            # cumulative identity: the free-period-only expected frequency is
            # the shared prefix repeated once per free period, exactly
            n_free = len(per_period)
            cumulative = [
                sum(period[r][a] for period in per_period for r in range(window))
                for a in range(game.num_joint_actions)
            ]
            whole = [
                n_free * sum(fresh[r][a] for r in range(window))
                for a in range(game.num_joint_actions)
            ]
            assert cumulative == whole


def test_criterion_10_determinism_and_oracle_equivalence(game, ce_strategy, correlated_strategy):
    with criterion(10, "determinism and oracle equivalence"):
        # bit-reproducibility of the pipelines behind the criteria above
        p1 = ac.plan_test(game, ce_strategy, 0.1, 0.01, mc_samples=50_000, seed=PLAN_SEED)
        p2 = ac.plan_test(game, ce_strategy, 0.1, 0.01, mc_samples=50_000, seed=PLAN_SEED)
        assert p1 == p2

        s1 = ac.build_schedule(game, correlated_strategy, ac.harmonic_rules(), 4,
                               mc_samples=20_000, seed=11)
        s2 = ac.build_schedule(game, correlated_strategy, ac.harmonic_rules(), 4,
                               mc_samples=20_000, seed=11)
        assert s1.phases == s2.phases and s1.plans == s2.plans

        toy = ac.toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                              test_lengths=[200], free_lengths=[300])
        t1 = ac.run_game(game, ce_strategy, toy, seed=33)
        t2 = ac.run_game(game, ce_strategy, toy, seed=33)
        assert all(
            np.array_equal(a.signals, b.signals) and np.array_equal(a.joints, b.joints)
            for a, b in zip(t1.phase_results, t2.phase_results, strict=True)
        )
        assert t1.decisions == t2.decisions
        c1 = ac.run_game_counts(game, ce_strategy, toy, seed=33)
        c2 = ac.run_game_counts(game, ce_strategy, toy, seed=33)
        assert all(
            np.array_equal(a.counts, b.counts)
            for a, b in zip(c1.phase_results, c2.phase_results)
        )

        # equilibrium checker vs the brute-force enumeration oracle
        rng = np.random.default_rng(1717)
        for _ in range(200):
            g, sigma = random_game_and_strategy(rng)
            assert (
                ac.check_correlated_equilibrium(g, sigma).is_equilibrium
                == brute_force_ce(g.action_counts, g.utilities, sigma.probs)
            )
