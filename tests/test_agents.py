import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicecheck import (
    FictitiousPlayLearner,
    Game,
    InvalidInputError,
    Learner,
    Mode,
    MixedStrategy,
    Phase,
    PhaseKind,
    TriggerLearner,
    UniformLearner,
    agent_act,
    make_learner,
)
from advicecheck import verifier
from advicecheck.agents import _simplex_draws, sample_block, sample_strategy
from oracles import fictitious_play_choice, simplex_rows

TEST_PHASE = Phase(PhaseKind.SAMPLING_TEST, 1, 1, 10)
FREE_PHASE = Phase(PhaseKind.FREE_PERIOD, 1, 11, 10)


def test_fallback_draw_of_one_action_is_certain_and_draws_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert _simplex_draws(1, [rng])[0].tolist() == [1.0]
    assert rng.bit_generator.state == before


def test_fallback_draw_deterministic_in_seed():
    a = _simplex_draws(4, [np.random.default_rng(123)])[0]
    b = _simplex_draws(4, [np.random.default_rng(123)])[0]
    assert np.array_equal(a, b)
    c = _simplex_draws(4, [np.random.default_rng(124)])[0]
    assert not np.array_equal(a, c)


def test_fallback_draw_uniform_on_simplex():
    # symmetry: each coordinate's mean is 1/3
    rng = np.random.default_rng(0)
    draws = np.array([_simplex_draws(3, [rng])[0] for _ in range(30_000)])
    assert np.allclose(draws.mean(axis=0), 1 / 3, atol=0.01)
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)


def test_engine_drawn_fallback_equals_the_checked_strategy_and_is_read_only():
    # the engine's fall-back draw is a bare vector, unchecked, bit for bit the
    # strategy first drawn from this stream, and psi's sampler's row over its sum
    for k in range(2, 11):
        for seed in range(25):
            rng, ref_rng, psi_rng = (np.random.default_rng(seed) for _ in range(3))
            drawn = _simplex_draws(k, [rng])[0]
            ref = MixedStrategy(simplex_rows(ref_rng, 1, k)[0])
            psi_row = verifier._draws(psi_rng, 1, k)[0]
            assert type(drawn) is np.ndarray
            assert drawn.dtype == ref.probs.dtype
            assert drawn.tobytes() == ref.probs.tobytes()
            assert drawn.tobytes() == (psi_row / psi_row.sum()).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.bit_generator.state == psi_rng.bit_generator.state
            assert not drawn.flags.writeable
            with pytest.raises(ValueError):
                drawn[0] = 0.5


@pytest.mark.parametrize("runs", [1, 3, 50])
@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 129])
def test_batch_of_fallback_draws_is_one_draw_per_generator(k, runs):
    # one normalization over the rows rounds each row as a lone vector over its
    # own sum: 9 or more actions are summed with unrolled accumulators, 129 in
    # two blocks; one action draws nothing
    rngs = [np.random.default_rng(seed) for seed in range(runs)]
    refs = [np.random.default_rng(seed) for seed in range(runs)]
    rows = _simplex_draws(k, rngs)
    assert rows.shape == (runs, k) and not rows.flags.writeable
    for row, rng, ref in zip(rows, rngs, refs, strict=True):
        draw = np.ones(1) if k == 1 else verifier._draws(ref, 1, k)[0]
        assert row.tobytes() == (draw / draw.sum()).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def _play(mode, phase, fallback=(0.75, 0.25), learner=None):
    """The agent's play in ``phase`` as the engine resolves ``mode.plays``:
    None for its signal, its fall-back vector, or its learner."""
    return {"signal": None, "fallback": MixedStrategy(fallback).probs,
            "learner": learner or UniformLearner(2)}[mode.plays(phase.kind)]


def test_agent_act_obedience(game):
    rng = np.random.default_rng(0)
    play = _play(Mode.FOLLOWING_MEDIATOR, TEST_PHASE)
    assert agent_act(play, np.array([1, 0, 1]), rng, 3).tolist() == [1, 0, 1]
    play = _play(Mode.FOLLOWING_MEDIATOR, FREE_PHASE)
    assert agent_act(play, np.array([0]), rng, 1).tolist() == [0]


def test_agent_act_requires_signal_when_following(game):
    play = _play(Mode.FOLLOWING_MEDIATOR, TEST_PHASE)
    for k in (1, 5):
        with pytest.raises(InvalidInputError):
            agent_act(play, None, np.random.default_rng(0), k)


def test_agent_act_fallback_frequencies(game):
    # a rejected agent in a sampling test samples its fixed fall-back
    play = _play(Mode.REJECTED_BY_EQ2, TEST_PHASE, fallback=(0.75, 0.25))
    rng = np.random.default_rng(42)
    actions = agent_act(play, np.zeros(10_000, dtype=np.int64), rng, 10_000)
    freq = np.bincount(actions, minlength=2) / len(actions)
    assert freq == pytest.approx([0.75, 0.25], abs=0.02)


def test_agent_act_uses_learner_in_free_periods(game):
    learner = TriggerLearner(2, initial_action=0, switch_action=1, watch_agent=0, watch_action=1)
    play = _play(Mode.REJECTED_BY_TEST, FREE_PHASE, learner=learner)
    assert play is learner
    rng = np.random.default_rng(0)
    signals = np.zeros(3, dtype=np.int64)
    assert agent_act(play, signals, rng, 3).tolist() == [0, 0, 0]
    learner.observe((1, 0))
    assert agent_act(play, signals, rng, 3).tolist() == [1, 1, 1]


def test_fallback_immutable_across_run(game):
    fallback = MixedStrategy((0.75, 0.25)).probs
    learner = UniformLearner(2)
    before = fallback.tobytes()
    rng = np.random.default_rng(1)
    for phase in (TEST_PHASE, FREE_PHASE, TEST_PHASE):
        play = {"fallback": fallback, "learner": learner}[Mode.REJECTED_BY_TEST.plays(phase.kind)]
        for k in (1, 49):
            agent_act(play, np.zeros(k, dtype=np.int64), rng, k)
        learner.reset()
    assert fallback.tobytes() == before
    assert not fallback.flags.writeable
    with pytest.raises(ValueError):
        fallback[0] = 0.5  # storage is locked


def _learner_factories(game):
    return [
        lambda: UniformLearner(2),
        lambda: FictitiousPlayLearner(game, 0),
        lambda: FictitiousPlayLearner(game, 1),
        lambda: TriggerLearner(2, 0, 1, watch_agent=0, watch_action=1),
    ]


@settings(max_examples=40, deadline=None)
@given(history=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=30))
def test_flexibility_reset_equals_fresh(game, history):
    # feeding any history then resetting reproduces a fresh instance's strategy
    for factory in _learner_factories(game):
        seasoned = factory()
        for joint in history:
            seasoned.observe(joint)
        seasoned.reset()
        fresh = factory()
        assert list(seasoned.next_strategy()) == list(fresh.next_strategy())


def test_fictitious_play_best_responds_to_empirical(game):
    fp = FictitiousPlayLearner(game, 1)  # agent 2 of the bundled game
    for _ in range(9):
        fp.observe((0, 0))  # agent 1 keeps playing its first action
    fp.observe((1, 0))
    # empirical for agent 1 is (0.9, 0.1): second column pays 5*0.9 > 1*0.9+2*0.1
    assert list(fp.next_strategy()) == [0.0, 1.0]


def test_fictitious_play_uniform_prior_tie_break(game):
    fp = FictitiousPlayLearner(game, 0)
    # against uniform, expected payoffs are (1, 3): best response is action 2
    assert list(fp.next_strategy()) == [0.0, 1.0]


def test_fictitious_play_three_agent_contraction():
    from advicecheck import Game

    # 3-agent game where agent 0's best response depends on both opponents
    utilities = np.zeros((8, 3))
    # u0 = 1 iff all three actions match
    for idx in range(8):
        a = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
        utilities[idx, 0] = 1.0 if a[0] == a[1] == a[2] else 0.0
    g = Game([2, 2, 2], utilities)
    fp = FictitiousPlayLearner(g, 0)
    for _ in range(5):
        fp.observe((0, 1, 1))  # both opponents play action 1
    assert list(fp.next_strategy()) == [0.0, 1.0]


PAYOFFS = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fictitious_play_matches_exact_oracle(data):
    # one to three opponents, before and after observations, one by one or as a block
    counts = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    agent = data.draw(st.integers(0, len(counts) - 1))
    joints = math.prod(counts)
    utilities = np.array(data.draw(st.lists(PAYOFFS, min_size=joints * len(counts),
                                            max_size=joints * len(counts)))).reshape(joints, -1)
    game = Game(counts, utilities)
    history = data.draw(st.lists(st.tuples(*(st.integers(0, c - 1) for c in counts)),
                                 max_size=12))
    fp, block = FictitiousPlayLearner(game, agent), FictitiousPlayLearner(game, agent)
    seen = [[0] * c for c in counts]
    assert fp.next_strategy().index(1.0) == fictitious_play_choice(counts, utilities, agent, seen)
    for joint in history:
        fp.observe(joint)
        for j, a in enumerate(joint):
            seen[j][a] += 1
        assert (fp.next_strategy().index(1.0)
                == fictitious_play_choice(counts, utilities, agent, seen))
    block.observe_block([np.array([j[i] for j in history], dtype=np.int64)
                         for i in range(len(counts))])
    assert block.next_strategy() == fp.next_strategy()


def test_fictitious_play_decides_on_exact_payoffs():
    # 0.2*2 + 0.7 + 0.3*2 sums to 1.7000000000000002 in floats and 0.2*2 + 0.1 +
    # 0.6*2 to 1.7, but in exact values the second action leads by 2^-55
    utilities = np.zeros((6, 2))
    utilities[:, 0] = [0.2, 0.7, 0.3, 0.2, 0.1, 0.6]
    game = Game([2, 3], utilities)
    fp = FictitiousPlayLearner(game, 0)
    fp.observe_block([np.zeros(5, dtype=np.int64), np.array([0, 0, 1, 2, 2])])
    assert fictitious_play_choice([2, 3], utilities, 0, [[5, 0], [2, 1, 2]]) == 1
    assert fp.next_strategy() == [0.0, 1.0]
    assert fp.stable_rounds() == 1  # a lead of one numerator unit holds no further round


def test_make_learner_specs(game):
    assert isinstance(make_learner(None, game, 0), UniformLearner)
    assert isinstance(make_learner({"name": "uniform"}, game, 0), UniformLearner)
    assert isinstance(make_learner({"name": "fictitious-play"}, game, 0), FictitiousPlayLearner)
    trig = make_learner(
        {"name": "trigger", "initial_action": 1, "switch_action": 0,
         "watch_agent": 0, "watch_action": 0},
        game, 1,
    )
    assert isinstance(trig, TriggerLearner)
    with pytest.raises(InvalidInputError):
        make_learner({"name": "no-such"}, game, 0)


@pytest.mark.parametrize("params", [
    {"watch_agent": 5}, {"watch_agent": -1}, {"watch_action": 2}, {"watch_action": -1},
    {"initial_action": 2}, {"switch_action": -1}, {"watch_agent": "1"}, {"watch_action": 1.0},
    {"initial_action": None}, {"switch_action": True},
], ids=lambda p: f"{next(iter(p))}={next(iter(p.values()))!r}")
def test_make_learner_refuses_trigger_params_outside_the_game(game, params):
    with pytest.raises(InvalidInputError):
        make_learner({"name": "trigger", **params}, game, 1)


@pytest.mark.parametrize("spec", ["trigger", 3, ["trigger"], {"watch_agent": 0}])
def test_make_learner_refuses_malformed_specs(game, spec):
    with pytest.raises(InvalidInputError):
        make_learner(spec, game, 0)


def test_agent_act_deterministic_given_state(game):
    play_a = _play(Mode.REJECTED_BY_TEST, TEST_PHASE)
    play_b = _play(Mode.REJECTED_BY_TEST, TEST_PHASE)
    ra, rb = np.random.default_rng(9), np.random.default_rng(9)
    for k in [1, 7, 1, 1, 64, 127]:
        signals = np.zeros(k, dtype=np.int64)
        assert np.array_equal(agent_act(play_a, signals, ra, k),
                              agent_act(play_b, signals, rb, k))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(lambda w: sum(w) > 0),
        st.integers(1, 5).flatmap(lambda n: st.integers(0, n - 1).map(
            lambda hot: [1.0 if i == hot else 0.0 for i in range(n)])),
    ),
    as_array=st.booleans(),
    k=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_block_matches_repeated_sample_strategy(weights, as_array, k, seed):
    total = sum(weights)
    probs = [w / total for w in weights]
    if as_array:
        probs = np.array(probs)
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = sample_block(probs, block_rng, k)
    assert block.tolist() == [sample_strategy(probs, loop_rng) for _ in range(k)]
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state
    if max(probs) >= 1.0:  # point masses consume no randomness
        assert block_rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def _utility_table(data, own, opp, agent):
    payoff = st.integers(0, 5).map(float) if data.draw(st.booleans()) else st.floats(0.0, 10.0)
    table = np.array(data.draw(st.lists(payoff, min_size=own * opp, max_size=own * opp)))
    counts = [own, opp] if agent == 0 else [opp, own]
    utilities = np.zeros((own * opp, 2))
    # lay the agent's own payoffs out row-major over (agent 0's action, agent 1's action)
    utilities[:, agent] = np.moveaxis(table.reshape(own, opp), 0, agent).ravel()
    return Game(counts, utilities)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fictitious_play_holds_for_stable_rounds(data):
    agent = data.draw(st.integers(0, 1))
    own, opp = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    game = _utility_table(data, own, opp, agent)
    seen = data.draw(st.lists(st.integers(0, 20), min_size=opp, max_size=opp))

    def joint(c):
        return (0, c) if agent == 0 else (c, 0)

    fp = FictitiousPlayLearner(game, agent)
    for c, n in enumerate(seen):
        for _ in range(n):
            fp.observe(joint(c))
    k = fp.stable_rounds()
    assert k >= 1 and k <= sum(seen) + 1
    best = fp.next_strategy()
    b = best.index(1.0)
    u = np.moveaxis(game.utilities[:, agent].reshape(game.action_counts), agent, 0)
    # each rival's worst case repeated, then any sequence
    worst = [int(np.argmax(u[a] - u[b])) for a in range(own) if a != b]
    sequences = [[c] * (k - 1) for c in worst]
    sequences.append(data.draw(st.lists(st.integers(0, opp - 1), min_size=k - 1, max_size=k - 1)))
    for seq in sequences:
        learner = copy.deepcopy(fp)
        for c in seq:
            learner.observe(joint(c))
            assert learner.next_strategy() == best
        # a block observed at once leaves the learner as the rounds one by one do
        block = copy.deepcopy(fp)
        column = np.array(seq, dtype=np.int64)
        block.observe_block([np.zeros_like(column), column] if agent == 0 else
                            [column, np.zeros_like(column)])
        assert block.next_strategy() == learner.next_strategy()
        assert block.stable_rounds() == learner.stable_rounds()


class _ObserveOnly(Learner):
    """Implements only ``observe``, so ``observe_block`` is the contract's default loop."""

    def __init__(self):
        self.seen = []

    def observe(self, joint_action):
        self.seen.append(tuple(int(a) for a in joint_action))


def test_default_observe_block_observes_round_by_round():
    learner = _ObserveOnly()
    learner.observe_block([np.array([0, 1, 1]), np.array([1, 0, 1])])
    assert learner.seen == [(0, 1), (1, 0), (1, 1)]


def test_stable_rounds_per_learner(game):
    assert Learner().stable_rounds() == 1
    assert UniformLearner(2).stable_rounds() == math.inf
    trig = TriggerLearner(2, 0, 1, watch_agent=0, watch_action=1)
    assert trig.stable_rounds() == 1
    trig.observe_block([np.array([0, 0, 1]), np.array([0, 0, 0])])
    assert trig.triggered and trig.stable_rounds() == math.inf
    fp = FictitiousPlayLearner(game, 1)
    assert fp.stable_rounds() == 1  # nothing observed yet
    for joint in [(0, 0)] * 4 + [(1, 0)] * 2:
        fp.observe(joint)
    # agent 2's actions are worth 4 + 4 = 8 and 20 + 0 = 20; each round of agent
    # 1's second action cuts the lead of 12 by 2, so it lasts floor((12 - eps) / 2)
    # rounds, below the cap of 6 + 1 observations
    assert fp.stable_rounds() == 5
    for _ in range(10):
        fp.observe((0, 0))
    assert fp.stable_rounds() == 17  # lead 52: the cap binds
    three = Game([2, 2, 2], np.ones((8, 3)))
    fp3 = FictitiousPlayLearner(three, 0)
    fp3.observe((0, 0, 0))
    assert fp3.stable_rounds() == 1
