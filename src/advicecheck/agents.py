"""Agent behavior: the play policy, fall-back strategies, and learners.

What an agent plays in a phase is one rule, ``Mode.plays``, read by every
engine path; how a test's verdict moves its mode is another, ``Mode.conclude``.
Learners expose strategies rather than sampled actions; the simulation rng
does the sampling. Every provided learner is flexible: after reset() its next
strategy equals a freshly constructed instance's, so nothing from before a
free period can leak into it. Fictitious play decides on exact values: the
game's payoffs as integer numerators, weighted by the opponents' integer
counts, so no float rounding can tip a near tie.
"""

from __future__ import annotations

import math
import operator
from enum import Enum

import numpy as np

from .errors import InvalidInputError, check_int, check_keys
from .games import Game, _agent_view
from .schedule import PhaseKind
from .verifier import Decision, Outcome, _draws


class Mode(Enum):
    FOLLOWING_MEDIATOR = "FollowingMediator"
    REJECTED_BY_EQ2 = "RejectedByEq2"
    REJECTED_BY_TEST = "RejectedByTest"

    @property
    def rejected(self) -> bool:
        return self is not Mode.FOLLOWING_MEDIATOR

    @classmethod
    def from_screen(cls, violations) -> Mode:
        """The starting mode: screened out for good if the agent's own incentive
        constraints fail (``violations`` is not empty), else following."""
        return cls.REJECTED_BY_EQ2 if violations else cls.FOLLOWING_MEDIATOR

    def plays(self, kind: PhaseKind) -> str:
        """The play policy, written once for every engine path: what an agent in
        this mode plays in a phase of ``kind``. "signal" while following; once
        rejected, "fallback" in a sampling test and "learner" in a free period,
        whose rounds the learner also observes."""
        if self is Mode.FOLLOWING_MEDIATOR:
            return "signal"
        return "fallback" if kind is PhaseKind.SAMPLING_TEST else "learner"

    def conclude(self, verdict: Decision | None) -> tuple[Mode, Decision]:
        """The mode after a completed test's public ``verdict``, and the agent's
        decision: the only mode transition. A screened agent rejects without
        testing (``verdict`` may then be None); any other takes the verdict."""
        if self is Mode.REJECTED_BY_EQ2:
            return self, _SCREENED
        return (Mode.REJECTED_BY_TEST if verdict.rejected else Mode.FOLLOWING_MEDIATOR), verdict


class Learner:
    """Behavior contract: reset(), observe(joint action), next_strategy().

    Skip-ahead contract: ``stable_rounds()`` returns a lower bound k >= 1 on
    how many rounds ``next_strategy()`` holds whatever gets observed, i.e. its
    value is unchanged after any k - 1 observations (``math.inf``: it never
    changes). The engine then plays those rounds as one block and reports them
    through ``observe_block(actions)``, where ``actions[i]`` is an integer
    array of agent i's actions in round order; the result must equal observing
    the rounds one by one. The defaults (1, and a loop over ``observe``) are
    always valid.
    """

    def reset(self) -> None:
        raise NotImplementedError

    def observe(self, joint_action: tuple[int, ...]) -> None:
        raise NotImplementedError

    def next_strategy(self) -> np.ndarray:
        """Distribution over own actions for the coming round."""
        raise NotImplementedError

    def stable_rounds(self) -> float:
        """Rounds the current strategy is guaranteed to hold, at least 1."""
        return 1

    def observe_block(self, actions) -> None:
        """Observe consecutive rounds at once; ``actions[i]`` is agent i's column."""
        for joint_action in zip(*actions):
            self.observe(joint_action)


class UniformLearner(Learner):
    """Plays uniformly at random; the baseline learner."""

    def __init__(self, action_count: int):
        self._dist = np.full(action_count, 1.0 / action_count)

    def reset(self) -> None:
        pass

    def observe(self, joint_action) -> None:
        pass

    def observe_block(self, actions) -> None:
        pass

    def next_strategy(self) -> np.ndarray:
        return self._dist

    def stable_rounds(self) -> float:
        return math.inf


class FictitiousPlayLearner(Learner):
    """Best response to each opponent's empirical action marginal since reset.

    Opponents are treated as independent; with no observations yet, each
    opponent is presumed uniform. The choice is made on exact values: each own
    action's payoff numerators (``Game.payoff_table``, Python ints) weighted by
    the product of the opponents' raw counts, all 1 before any observation,
    which is the empirical (or uniform) expectation times one positive factor.
    Ties break toward the lowest action index.
    """

    def __init__(self, game: Game, agent: int):
        self.game = game
        self.agent = agent
        self._opponents = [i for i in range(game.num_agents) if i != agent]
        self._counts = [[0] * c for c in game.action_counts]
        # own payoff numerators as nested lists of ints:
        # _u[own_action][opponent joint index], row-major over opponents
        own = game.action_counts[agent]
        numerators = np.array(game.payoff_table[agent][0], dtype=object)
        self._u = _agent_view(numerators, game, agent).tolist()
        self._prior = [1] * len(self._u[0])
        # point-mass strategies, one per own action (returned read-only)
        self._points = [[1.0 if i == a else 0.0 for i in range(own)] for a in range(own)]
        # skip-ahead bounds: _drops[b][a] = max_c(u[a][c] - u[b][c]), the most
        # one observation can cut b's lead over a
        self._drops = [[max(x - y for x, y in zip(ra, rb)) for ra in self._u] for rb in self._u]

    def reset(self) -> None:
        self._counts = [[0] * c for c in self.game.action_counts]

    def observe(self, joint_action) -> None:
        counts = self._counts
        for i in self._opponents:
            counts[i][joint_action[i]] += 1

    def observe_block(self, actions) -> None:
        for i in self._opponents:
            seen = np.bincount(actions[i], minlength=len(self._counts[i])).tolist()
            self._counts[i] = [x + y for x, y in zip(self._counts[i], seen)]

    def _values(self) -> list[int]:
        """Each own action's payoff numerators weighted by the opponents' joint
        counts: the product of their counts, one opponent's list as it is."""
        opponents = self._opponents
        weights = self._counts[opponents[0]] if opponents else ()
        if sum(weights):
            for i in opponents[1:]:
                weights = [a * b for a in weights for b in self._counts[i]]
        else:  # no opponents, or nothing observed yet: uniform
            weights = self._prior
        return [sum(map(operator.mul, row, weights)) for row in self._u]

    def next_strategy(self) -> list[float]:
        values = self._values()
        return self._points[values.index(max(values))]

    def stable_rounds(self) -> float:
        """Rounds the best response b keeps against one opponent, whatever it plays.

        At counts n, b leads rival a by gap_a = sum_c (u[b][c] - u[a][c]) n_c,
        and one observation cuts that lead by at most
        drop_a = max_c (u[a][c] - u[b][c]), both integers in numerator units.
        So b stays strictly best, ties included, for (gap_a - 1) // drop_a
        rounds; a block is capped at total + 1 rounds, so it at most doubles
        the counts. No opponents: the strategy never changes, so inf. Several
        opponents, or none observed yet: 1.
        """
        if len(self._opponents) != 1:
            return 1 if self._opponents else math.inf
        total = sum(self._counts[self._opponents[0]])
        if not total:
            return 1
        values = self._values()
        best = max(values)
        b = values.index(best)  # next_strategy's choice: the first maximum
        bound = total + 1
        for a, (value, drop) in enumerate(zip(values, self._drops[b])):
            if a != b and drop > 0:
                bound = min(bound, (best - value - 1) // drop)
        return max(1, bound)


class TriggerLearner(Learner):
    """Plays one action until a designated opponent action is seen, then switches.

    The trigger only watches observations since the last reset.
    """

    def __init__(self, action_count: int, initial_action: int, switch_action: int,
                 watch_agent: int, watch_action: int):
        self.action_count = action_count
        self.initial_action = check_int(initial_action, "trigger initial_action", hi=action_count)
        self.switch_action = check_int(switch_action, "trigger switch_action", hi=action_count)
        self.watch_agent = watch_agent
        self.watch_action = watch_action
        self.triggered = False

    def reset(self) -> None:
        self.triggered = False

    def observe(self, joint_action) -> None:
        if joint_action[self.watch_agent] == self.watch_action:
            self.triggered = True

    def observe_block(self, actions) -> None:
        if (actions[self.watch_agent] == self.watch_action).any():
            self.triggered = True

    def next_strategy(self) -> np.ndarray:
        out = np.zeros(self.action_count)
        out[self.switch_action if self.triggered else self.initial_action] = 1.0
        return out

    def stable_rounds(self) -> float:
        return math.inf if self.triggered else 1


_TRIGGER_KEYS = ("name", "initial_action", "switch_action", "watch_agent", "watch_action")


def make_learner(spec: dict | None, game: Game, agent: int) -> Learner:
    """Build a learner from a config spec: {"name": ..., **params}, checked against the game."""
    if spec is not None and not isinstance(spec, dict):
        raise InvalidInputError(f"learner spec must be an object, got {spec!r}")
    spec = spec or {"name": "uniform"}
    name = spec.get("name")
    if name not in ("uniform", "fictitious-play", "trigger"):
        raise InvalidInputError(f"unknown learner {name!r}")
    check_keys(spec, _TRIGGER_KEYS if name == "trigger" else ("name",), f"learner {name!r}")
    if name == "uniform":
        return UniformLearner(game.action_counts[agent])
    if name == "fictitious-play":
        return FictitiousPlayLearner(game, agent)
    counts = game.action_counts
    watch = check_int(spec.get("watch_agent", (agent + 1) % len(counts)),
                      "trigger watch_agent", hi=len(counts))
    return TriggerLearner(counts[agent], spec.get("initial_action", 0),
                          spec.get("switch_action", 0), watch,
                          check_int(spec.get("watch_action", 0), "trigger watch_action",
                                    hi=counts[watch]))


def _simplex_draws(action_count: int, rngs) -> np.ndarray:
    """One uniform draw from the simplex per generator, each by psi's own
    sampler (``_draws``' exponentials over their sum), as the rows of one
    read-only array; a single action consumes no randomness. The rows are
    normalized in one step, which rounds each as its own vector would be. A draw
    is a distribution by construction, so it is not checked."""
    if action_count == 1:
        out = np.ones((len(rngs), 1))
    else:
        out = np.concatenate([_draws(rng, 1, action_count) for rng in rngs])
        out /= out.sum(axis=1, keepdims=True)
    out.setflags(write=False)
    return out


_SCREENED = Decision(Outcome.REJECT_BY_EQ2)  # every screened agent's decision, one frozen instance


def sample_strategy(probs, rng: np.random.Generator) -> int:
    """Sample an action index from a distribution.

    Point masses return their support without consuming randomness; mixed
    strategies invert the CDF on one uniform draw.
    """
    hi = max(range(len(probs)), key=probs.__getitem__)
    if probs[hi] >= 1.0:
        return hi
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return len(probs) - 1


def sample_block(probs, rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` calls of ``sample_strategy`` at once, bit for bit.

    Point masses consume nothing. Otherwise ``rng.random(k)`` yields the
    doubles of ``k`` ``random()`` calls and ``np.cumsum`` adds in the loop's
    order, so each action and the generator's final state match.
    """
    hi = max(range(len(probs)), key=probs.__getitem__)
    if probs[hi] >= 1.0:
        return np.full(k, hi)
    cdf = np.cumsum(probs)
    return np.minimum(np.searchsorted(cdf, rng.random(k), side="right"), len(probs) - 1)


def agent_act(play, signals: np.ndarray | None, rng: np.random.Generator,
              k: int) -> np.ndarray:
    """An agent's actions over ``k`` consecutive rounds in which its play holds.

    ``play`` is the agent's play as ``Mode.plays`` resolves it: None, a
    following agent, plays ``signals``, its own signal column over the rounds;
    a fall-back vector, or a ``Learner``'s current strategy, is drawn by
    ``sample_block``: exactly the randomness of ``k`` per-round
    ``sample_strategy`` draws. A round is a block of one.
    """
    if play is None:
        if signals is None:
            raise InvalidInputError("a following agent needs a signal")
        return signals
    if isinstance(play, Learner):
        play = play.next_strategy()
    return sample_block(play, rng, k)
