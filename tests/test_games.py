import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicecheck import (
    CorrelatedStrategy,
    Game,
    InvalidInputError,
    MixedStrategy,
    UndefinedConditionalError,
    check_correlated_equilibrium,
    compose_deviation,
    conditional_given_signal,
    expected_utility,
    load_game,
    load_strategy,
)
from advicecheck.games import _composed, _others_marginal, agent_incentive_violations


def test_game_validation_rejects_negative_utilities():
    with pytest.raises(InvalidInputError):
        Game([2, 2], [[0, 1], [2, -5], [5, 2], [1, 0]])


def test_game_validation_rejects_wrong_tensor_shape():
    with pytest.raises(InvalidInputError):
        Game([2, 2], [[0, 1], [2, 5], [5, 2]])


def test_strategy_validation():
    # the sum is printed as a plain float, not numpy's repr np.float64(0.9)
    for probs, total in [([0.5, 0.4], "0.9"), ([0.5, 0.6, 0.0, 0.0], "1.1")]:
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"correlated strategy sums to {total}, not 1")):
            CorrelatedStrategy(probs)
    with pytest.raises(InvalidInputError):
        MixedStrategy([1.5, -0.5])


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=40, deadline=None)
@given(
    probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    where=st.integers(0, 5),
    bad=NON_FINITE,
)
def test_non_finite_probabilities_refused(probs, where, bad):
    # a NaN compares false against every bound, so it used to pass the sum check
    probs[where % len(probs)] = bad
    for kind in (CorrelatedStrategy, MixedStrategy):
        with pytest.raises(InvalidInputError):
            kind(probs)


@settings(max_examples=40, deadline=None)
@given(
    utilities=st.lists(st.floats(0.0, 10.0), min_size=8, max_size=8),
    where=st.integers(0, 7),
    bad=NON_FINITE,
)
def test_non_finite_utilities_refused(utilities, where, bad):
    utilities[where] = bad
    with pytest.raises(InvalidInputError):
        Game([2, 2], np.reshape(utilities, (4, 2)))


def test_joint_index_round_trip(game):
    for idx in range(game.num_joint_actions):
        assert game.joint_index(game.joint_action(idx)) == idx
    assert game.joint_index((1, 0)) == 2  # row-major


def test_expected_utility_uniform_profile(game):
    # direct evaluation over the 4 joint actions with both agents at (1/2, 1/2)
    out = expected_utility(game, [MixedStrategy([0.5, 0.5]), MixedStrategy([0.5, 0.5])])
    assert out == pytest.approx([2.0, 2.0], abs=1e-12)


def test_expected_utility_pure_profile(game):
    # point mass on (second action, first action) picks the (5, 2) cell
    out = expected_utility(game, [[0.0, 1.0], [1.0, 0.0]])
    assert out == pytest.approx([5.0, 2.0], abs=1e-12)


def test_expected_utility_deterministic(game):
    profile = [[0.3, 0.7], [0.6, 0.4]]
    a = expected_utility(game, profile)
    b = expected_utility(game, profile)
    assert np.array_equal(a, b)


def test_expected_utility_dimension_mismatch(game):
    with pytest.raises(InvalidInputError):
        expected_utility(game, [[1.0]])
    with pytest.raises(InvalidInputError):
        expected_utility(game, [[1.0, 0.0], [0.2, 0.3, 0.5]])


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    a=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    b=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    c=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
)
def test_expected_utility_linear_in_each_strategy(game, lam, a, b, c):
    s_a = np.array(a) / sum(a)
    s_b = np.array(b) / sum(b)
    other = np.array(c) / sum(c)
    mix = lam * s_a + (1 - lam) * s_b
    u_mix = expected_utility(game, [mix, other])
    u_parts = lam * expected_utility(game, [s_a, other]) + (1 - lam) * expected_utility(
        game, [s_b, other]
    )
    assert u_mix == pytest.approx(u_parts, abs=1e-9)


def test_conditional_given_signal_worked_values(game, ce_strategy):
    cond = conditional_given_signal(ce_strategy, game, 0, 0)
    assert cond == pytest.approx([1 / 6, 5 / 6], abs=1e-12)
    assert cond.sum() == pytest.approx(1.0, abs=1e-9)


def test_conditional_of_product_is_marginal(game):
    s1 = np.array([0.3, 0.7])
    s2 = np.array([0.25, 0.75])
    product = CorrelatedStrategy(np.outer(s1, s2).ravel())
    for sig in range(2):
        assert conditional_given_signal(product, game, 0, sig) == pytest.approx(s2, abs=1e-12)


def test_conditional_zero_signal_errors(game):
    sigma = CorrelatedStrategy([0.0, 0.0, 0.4, 0.6])
    with pytest.raises(UndefinedConditionalError):
        conditional_given_signal(sigma, game, 0, 0)


def test_check_ce_accepts_equilibrium(game, ce_strategy):
    verdict = check_correlated_equilibrium(game, ce_strategy)
    assert verdict.is_equilibrium
    assert verdict.violations == ()


def test_check_ce_rejects_with_gap(game, non_ce_strategy):
    verdict = check_correlated_equilibrium(game, non_ce_strategy)
    assert not verdict.is_equilibrium
    [v] = verdict.violations
    assert v.agent == 1
    assert v.signal == 0
    assert v.deviation == 1
    assert v.gap == pytest.approx(2.0, abs=1e-9)  # 10/3 - 4/3


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
def test_check_ce_refuses_bad_tolerance(game, non_ce_strategy, tolerance):
    # NaN and inf let a non-equilibrium pass; a negative one lists zero-gain
    # "violations", though equality counts as satisfied
    with pytest.raises(InvalidInputError, match="tolerance"):
        check_correlated_equilibrium(game, non_ce_strategy, tolerance=tolerance)


@pytest.mark.parametrize("agent", [-1, 2])
def test_incentive_violations_refuse_agent_outside_the_game(game, ce_strategy, agent):
    with pytest.raises(InvalidInputError, match="out of range"):
        agent_incentive_violations(game, ce_strategy, agent)


def test_check_ce_point_mass_pure_equilibrium(game):
    # point mass on the (5, 2) cell: no profitable deviation for either agent
    point = CorrelatedStrategy([0.0, 0.0, 1.0, 0.0])
    assert check_correlated_equilibrium(game, point).is_equilibrium


def test_compose_deviation_point_mass_worked_values(game, ce_strategy):
    # every agent deviating to a point mass puts all the mass on that cell
    for idx in range(4):
        points = {i: np.eye(2)[a] for i, a in enumerate(game.joint_action(idx))}
        assert compose_deviation(ce_strategy, game, points).probs == pytest.approx(
            np.eye(4)[idx], abs=1e-15)


def test_compose_deviation_invalid_inputs(game, ce_strategy):
    with pytest.raises(InvalidInputError):
        compose_deviation(ce_strategy, game, {5: [1.0, 0.0]})
    with pytest.raises(InvalidInputError):
        compose_deviation(ce_strategy, game, {1: [1.0, 0.0, 0.0]})


BAD_MIXES = [
    ([math.nan, 1.0], "has non-finite entries"),
    ([1.5, -0.5], "has negative entries"),
    ([0.5, 0.6], "sums to"),
    ([0.2, 0.3, 0.5], "has the wrong action count"),
    (MixedStrategy([0.2, 0.3, 0.5]), "has the wrong action count"),
    ([[0.5, 0.5]], "must be one-dimensional"),
    (["a", "b"], "is not a vector of numbers"),
]


@pytest.mark.parametrize("entry", ["expected_utility", "compose_deviation"])
@pytest.mark.parametrize("mix, message", BAD_MIXES,
                         ids=["nan", "negative", "sum", "length", "mixed-length", "2d", "text"])
def test_public_composers_refuse_a_bad_mix(game, ce_strategy, entry, mix, message):
    # the shared composition trusts its mixes; both public callers check them first
    with pytest.raises(InvalidInputError, match=re.escape(f"strategy of agent 1 {message}")):
        if entry == "expected_utility":
            expected_utility(game, [[0.5, 0.5], mix])
        else:
            compose_deviation(ce_strategy, game, {0: [0.5, 0.5], 1: mix})


def test_compose_deviation_point_mass_gives_signal_marginals(game, ce_strategy):
    # agent 2 always plays action 0: cells 0 and 2 carry agent 1's marginal
    one = compose_deviation(ce_strategy, game, {1: [1.0, 0.0]}).probs
    assert one == pytest.approx([1 / 3, 0.0, 2 / 3, 0.0], abs=1e-12)
    # and the other way round, cells 0 and 1 carry agent 2's
    two = compose_deviation(ce_strategy, game, {0: [1.0, 0.0]}).probs
    assert two[[0, 1]] == pytest.approx([1 / 6, 5 / 6], abs=1e-12)


def test_compose_deviation_product(game, ce_strategy):
    composed = compose_deviation(ce_strategy, game, {1: [0.75, 0.25]})
    expected = np.outer([1 / 3, 2 / 3], [0.75, 0.25]).ravel()
    assert composed.probs == pytest.approx(expected, abs=1e-12)


def test_compose_deviation_no_deviators_is_identity(game, ce_strategy):
    assert compose_deviation(ce_strategy, game, {}).probs == pytest.approx(
        ce_strategy.probs, abs=0
    )


# --- brute-force oracle ------------------------------------------------------

from oracles import brute_force_violations, per_cell_compose, random_game_and_strategy


def test_compose_deviation_matches_per_cell_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g, sigma = random_game_and_strategy(rng)
        size = int(rng.integers(0, g.num_agents + 1))
        devs = rng.permutation(g.num_agents)[:size]  # every subset, in any order
        deviations = {int(d): rng.dirichlet(np.ones(g.action_counts[d])) for d in devs}
        got = compose_deviation(sigma, g, deviations).probs
        assert np.array_equal(got, per_cell_compose(sigma, g, deviations))


def _tied_game_and_strategy(rng):
    """1-4 agents with 1-4 actions, small integer payoffs (many exact ties) and
    a strategy with zero cells, some of them whole zero-marginal signals."""
    counts = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
    num_joint = int(np.prod(counts))
    raw = rng.integers(0, 3, size=num_joint).astype(float)
    raw[rng.integers(0, num_joint)] = 1.0  # at least one positive cell
    return Game(counts, rng.integers(0, 4, size=(num_joint, len(counts)))), CorrelatedStrategy(raw / raw.sum())


def test_check_ce_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    games = [random_game_and_strategy(rng) for _ in range(200)]
    games += [_tied_game_and_strategy(rng) for _ in range(300)]
    for g, sigma in games:
        verdict = check_correlated_equilibrium(g, sigma)
        oracle = brute_force_violations(g.action_counts, g.utilities, sigma.probs)
        assert verdict.is_equilibrium == (not oracle)
        got = [(v.agent, v.signal, v.deviation) for v in verdict.violations]
        assert got == [o[:3] for o in oracle]
        for v, o in zip(verdict.violations, oracle):
            assert abs(v.gap - o[3]) <= 1e-12


def _pure_nash_points(g):
    """Pure equilibria by exhaustive deviation check."""
    out = []
    for a in g.all_joint_actions():
        idx = g.joint_index(a)
        ok = True
        for agent in range(g.num_agents):
            for alt in range(g.action_counts[agent]):
                swapped = list(a)
                swapped[agent] = alt
                if g.utilities[g.joint_index(tuple(swapped))][agent] > g.utilities[idx][agent] + 1e-12:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(idx)
    return out


def test_pure_nash_point_masses_pass_and_mixtures_stay_equilibria():
    # convexity: mixing two equilibria stays an equilibrium
    rng = np.random.default_rng(7)
    checked_mixture = 0
    for _ in range(120):
        g, _ = random_game_and_strategy(rng)
        nash = _pure_nash_points(g)
        for idx in nash:
            point = np.zeros(g.num_joint_actions)
            point[idx] = 1.0
            assert check_correlated_equilibrium(g, CorrelatedStrategy(point)).is_equilibrium
        if len(nash) >= 2:
            lam = rng.uniform()
            mix = np.zeros(g.num_joint_actions)
            mix[nash[0]] = lam
            mix[nash[1]] = 1 - lam
            assert check_correlated_equilibrium(g, CorrelatedStrategy(mix)).is_equilibrium
            checked_mixture += 1
    assert checked_mixture >= 5


def test_game_file_round_trip(tmp_path, game):
    assert game.action_names is not None
    (tmp_path / "g.json").write_text(json.dumps({
        "num_agents": game.num_agents,
        "action_counts": list(game.action_counts),
        "action_names": [list(n) for n in game.action_names],
        "utilities": game.utilities.tolist(),
    }))
    loaded = load_game(tmp_path / "g.json")
    assert loaded.action_counts == game.action_counts
    assert np.array_equal(loaded.utilities, game.utilities)
    assert loaded.action_names == game.action_names

    sigma = CorrelatedStrategy([0.1, 0.2, 0.3, 0.4])
    (tmp_path / "s.json").write_text(json.dumps(sigma.probs.tolist()))
    assert np.array_equal(load_strategy(tmp_path / "s.json").probs, sigma.probs)


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"action_counts": [2, 2]}))
    with pytest.raises(InvalidInputError):
        load_game(bad)
    bad.write_text(json.dumps({"num_agents": 3, "action_counts": [2, 2],
                               "utilities": [[1, 1]] * 4}))
    with pytest.raises(InvalidInputError, match="num_agents does not match action_counts"):
        load_game(bad)
    notarray = tmp_path / "s.json"
    notarray.write_text(json.dumps({"probs": [1.0]}))
    with pytest.raises(InvalidInputError):
        load_strategy(notarray)


@pytest.mark.parametrize("agents", [(0,), (1, 2), (2, 0), (0, 1, 2)])
def test_composed_stacked_mixes_give_each_row_bit_for_bit(agents):
    # a batch composes its runs as rows of one array: each row must be the
    # single composition of that run's mixes, to the last bit
    rng = np.random.default_rng(3)
    game = Game([2, 3, 2], rng.uniform(0, 5, size=(12, 3)))
    tensor = rng.dirichlet(np.ones(12)).reshape(game.action_counts)
    runs = [{i: rng.dirichlet(np.ones(game.action_counts[i])) for i in agents} for _ in range(5)]
    base = _others_marginal(tensor, agents)
    stacked = _composed(base, game, {i: [mixes[i] for mixes in runs] for i in agents})
    assert stacked.shape == (5, 12)
    for row, mixes in zip(stacked, runs):
        assert row.tolist() == _composed(base, game, mixes).tolist()
