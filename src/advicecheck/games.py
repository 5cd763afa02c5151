"""Normal-form stage games, correlated strategies, and equilibrium checks.

Joint actions are indexed row-major over (a_1, ..., a_n): agent 1's action is
the slowest-varying coordinate. Every vector over the joint action set uses
this order. Utilities must be nonnegative.
Joint vectors are seen per agent through one view (``_agent_view``: rows are
that agent's actions, columns the others' joint actions), and deviators are
composed with one factor (``_others_marginal``: the announcement's marginal on
the non-deviators) by one routine (``_composed``). Every mix is checked once,
by one routine (``_checked_mixes``), at the public entry points and at the
engine's set-up; ``_composed`` itself trusts its inputs, so the engine
composes the vectors it checked or drew without re-checking.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UndefinedConditionalError, check_int

PROB_TOL = 1e-9
GAP_TOL = 1e-9


def _as_prob_vector(probs, name: str) -> np.ndarray:
    try:
        v = np.array(probs, dtype=float)  # copy: strategies own their storage
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not a vector of numbers: {probs!r}") from exc
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} has non-finite entries")
    if np.any(v < 0):
        raise InvalidInputError(f"{name} has negative entries")
    if abs(float(v.sum()) - 1.0) > PROB_TOL:
        raise InvalidInputError(f"{name} sums to {float(v.sum())!r}, not 1")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over a single agent's actions."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _as_prob_vector(probs, "strategy"))

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class CorrelatedStrategy:
    """Probability distribution over joint actions, row-major over agents."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _as_prob_vector(probs, "correlated strategy"))

    def __len__(self) -> int:
        return len(self.probs)

    def zero_cells(self) -> tuple[int, ...]:
        """Joint-action indices carrying exactly zero probability."""
        zero = self._zero_mask
        return () if zero is None else tuple(int(i) for i in np.flatnonzero(zero))

    @functools.cached_property
    def _zero_mask(self) -> np.ndarray | None:
        """Where the announcement is exactly zero, or None when it has full support."""
        zero = self.probs == 0.0
        return zero if zero.any() else None


@dataclass(frozen=True)
class Game:
    """n-agent stage game: per-agent action counts and a utility tensor.

    ``utilities[joint_index][agent]`` is that agent's payoff at the joint
    action, with ``joint_index`` row-major over (a_1, ..., a_n).
    """

    action_counts: tuple[int, ...]
    utilities: np.ndarray
    action_names: tuple[tuple[str, ...], ...] | None = None

    def __init__(self, action_counts, utilities, action_names=None):
        counts = tuple(check_int(c, f"action_counts[{i}]", 1) for i, c in enumerate(action_counts))
        if not counts:
            raise InvalidInputError("action_counts must name at least one agent")
        u = np.array(utilities, dtype=float)  # copy: the game owns its storage
        expected = (math.prod(counts), len(counts))
        if u.shape != expected:
            raise InvalidInputError(f"utilities shape {u.shape} != {expected}")
        if not np.all(np.isfinite(u)):
            raise InvalidInputError("utilities must be finite")
        if np.any(u < 0):
            raise InvalidInputError("utilities must be nonnegative")
        if action_names is not None:
            action_names = tuple(tuple(names) for names in action_names)
            if tuple(len(n) for n in action_names) != counts:
                raise InvalidInputError("action_names do not match action_counts")
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "utilities", u)
        object.__setattr__(self, "action_names", action_names)
        u.setflags(write=False)

    @property
    def num_agents(self) -> int:
        return len(self.action_counts)

    @property
    def num_joint_actions(self) -> int:
        return self.utilities.shape[0]

    def joint_index(self, actions) -> int:
        """Row-major index of a joint action given per-agent action indices."""
        actions = tuple(actions)
        if len(actions) != self.num_agents:
            raise InvalidInputError("joint action has wrong number of components")
        idx = 0
        for a, c in zip(actions, self.action_counts):
            idx = idx * c + check_int(a, "action index", hi=c)
        return idx

    def joint_action(self, index: int) -> tuple[int, ...]:
        """Per-agent action indices of a row-major joint index."""
        index = check_int(index, "joint index", hi=self.num_joint_actions)
        out = []
        for c in reversed(self.action_counts):
            out.append(index % c)
            index //= c
        return tuple(reversed(out))

    def all_joint_actions(self):
        return itertools.product(*(range(c) for c in self.action_counts))

    @functools.cached_property
    def payoff_table(self) -> tuple[tuple[list[int], int], ...]:
        """Each agent's payoffs as (integer numerators, one power-of-two denominator).

        A finite float is n / 2^k, so every payoff is scaled to the agent's
        largest denominator; built once per game, on first use.
        """
        table = []
        for column in self.utilities.T.tolist():
            ratios = [u.as_integer_ratio() for u in column]
            den = max(d for _, d in ratios)
            table.append(([n * (den // d) for n, d in ratios], den))
        return tuple(table)


@dataclass(frozen=True)
class CeViolation:
    """One profitable deviation: following the signal loses ``gap`` utility."""

    agent: int
    signal: int
    deviation: int
    gap: float


@dataclass(frozen=True)
class CeVerdict:
    is_equilibrium: bool
    violations: tuple[CeViolation, ...] = field(default=())


def expected_utility(game: Game, profile) -> np.ndarray:
    """Expected utility per agent when each agent mixes independently.

    ``profile`` is one MixedStrategy (or raw probability vector) per agent.
    Exact linear form: sum over joint actions of u_i(a) * prod_j sigma_j(a_j).
    """
    if len(profile) != game.num_agents:
        raise InvalidInputError("profile must have one strategy per agent")
    return _composed(1.0, game, _checked_mixes(game, dict(enumerate(profile)))) @ game.utilities


def _announced_probs(sigma: CorrelatedStrategy) -> np.ndarray:
    """An announcement's probabilities; anything but a CorrelatedStrategy is refused."""
    if not isinstance(sigma, CorrelatedStrategy):
        raise InvalidInputError(f"announcement must be a CorrelatedStrategy, got {type(sigma)}")
    return sigma.probs


def joint_distribution(sigma: CorrelatedStrategy, game: Game) -> np.ndarray:
    """The one read and check of an announcement: a CorrelatedStrategy of the game's length."""
    probs = _announced_probs(sigma)
    if len(probs) != game.num_joint_actions:
        raise InvalidInputError(f"strategy length: strategy has {len(probs)} entries, "
                                f"game has {game.num_joint_actions} joint actions")
    return probs


def _agent_view(vector: np.ndarray, game: Game, agent: int) -> np.ndarray:
    """A joint vector as agent's actions x the others' joint actions, row-major."""
    order = (agent, *(i for i in range(game.num_agents) if i != agent))  # np.moveaxis, cheaper
    return vector.reshape(game.action_counts).transpose(order).reshape(game.action_counts[agent], -1)


def _others_marginal(tensor: np.ndarray, deviators: tuple[int, ...]):
    """sigma's marginal on the non-deviators, keeping the deviators' axes at
    length 1, or 1.0 when every agent deviates."""
    return 1.0 if len(deviators) == tensor.ndim else tensor.sum(axis=deviators, keepdims=True)


def conditional_given_signal(
    sigma: CorrelatedStrategy, game: Game, agent: int, signal: int
) -> np.ndarray:
    """Distribution of the other agents' joint signal given agent's signal.

    Returned over the row-major enumeration of the remaining agents' actions.
    Raises UndefinedConditionalError when the signal has zero marginal.
    """
    probs = joint_distribution(sigma, game)
    check_int(agent, "agent", hi=game.num_agents)
    check_int(signal, f"signal of agent {agent}", hi=game.action_counts[agent])
    row = _agent_view(probs, game, agent)[signal]
    total = float(row.sum())
    if total <= 0.0:
        raise UndefinedConditionalError(
            f"signal {signal} of agent {agent} has zero marginal probability"
        )
    return row / total


def agent_incentive_violations(
    game: Game, sigma: CorrelatedStrategy, agent: int, tolerance: float = GAP_TOL
) -> list[CeViolation]:
    """Profitable deviations for one agent across its positive-marginal signals.

    ``values[s, a]`` is the payoff of playing a against the unnormalized
    conditional weights at signal s; gap > 0 means deviating beats following.
    Refuses an agent outside the game and a tolerance that is not finite and
    nonnegative.
    """
    check_int(agent, "agent", hi=game.num_agents)
    if not math.isfinite(tolerance) or tolerance < 0:
        raise InvalidInputError(f"tolerance must be finite and nonnegative, got {tolerance}")
    weights = _agent_view(joint_distribution(sigma, game), game, agent)
    values = weights @ _agent_view(game.utilities[:, agent], game, agent).T
    marginal = weights.sum(axis=1)
    out = []
    for signal in np.flatnonzero(marginal > 0.0):
        gaps = (values[signal] - values[signal, signal]) / marginal[signal]
        out.extend(CeViolation(agent, int(signal), int(alt), float(gaps[alt]))
                   for alt in np.flatnonzero(gaps > tolerance) if alt != signal)
    return out


def check_correlated_equilibrium(
    game: Game, sigma: CorrelatedStrategy, tolerance: float = GAP_TOL
) -> CeVerdict:
    """Verify the incentive constraints of a correlated strategy.

    For every agent and positive-marginal signal, following the signal must be
    at least as good (within tolerance) as any fixed deviation, under the
    conditional distribution of the others' signals. Equality counts as
    satisfied.
    """
    violations = []
    for agent in range(game.num_agents):
        violations.extend(agent_incentive_violations(game, sigma, agent, tolerance))
    return CeVerdict(is_equilibrium=not violations, violations=tuple(violations))


def _checked_mixes(game: Game, mixes: dict, first: int = 0) -> dict:
    """``mixes`` (agent -> MixedStrategy or probability vector) as agent ->
    read-only vector, each raw vector checked as a distribution over that
    agent's actions: the one check of a mix, for every entry point that takes
    one. A refusal numbers agents from ``first``: 0 for the library's indices,
    1 for a file that numbers its agents from 1."""
    checked = {}
    for i, s in mixes.items():
        name = f"strategy of agent {i + first}"
        v = s.probs if isinstance(s, MixedStrategy) else _as_prob_vector(s, name)
        if len(v) != game.action_counts[i]:
            raise InvalidInputError(f"{name} has the wrong action count")
        checked[i] = v
    return checked


def _composed(base, game: Game, mixes: dict) -> np.ndarray:
    """``base`` times each agent's independent mix along that agent's axis, in
    the dict's order, flat row-major. ``mixes`` maps agent -> probability
    vector (a list from fictitious play), trusted to be a distribution of the
    agent's length: public callers pass it through ``_checked_mixes`` first.
    Stacked mixes, an (S, k) array per agent, give S rows, row s composed of
    the agents' s-th vectors by the same products."""
    for i, s in mixes.items():
        v = np.asarray(s, dtype=float)
        base = base * v.reshape(v.shape[:-1] + tuple(-1 if j == i else 1
                                                     for j in range(game.num_agents)))
    return base.reshape(base.shape[:base.ndim - game.num_agents] + (-1,))


def compose_deviation(sigma: CorrelatedStrategy, game: Game, deviations: dict) -> CorrelatedStrategy:
    """Joint distribution when some agents ignore signals and mix independently.

    ``deviations`` maps agent index -> MixedStrategy (or probability vector).
    Deviators' play is independent of everything else; the remaining agents'
    joint behavior is sigma's marginal on their action sets.
    """
    devs = {check_int(i, "deviating agent", hi=game.num_agents): s for i, s in deviations.items()}
    tensor = joint_distribution(sigma, game).reshape(game.action_counts)
    return CorrelatedStrategy(_composed(_others_marginal(tensor, tuple(devs)), game,
                                        _checked_mixes(game, devs)))


# --- file formats -----------------------------------------------------------
#
# Game file (JSON): {"num_agents": n, "action_counts": [..],
#                    "action_names": [[..], ..] (optional),
#                    "utilities": [[u_1, .., u_n], ..]}  row-major over A.
# Strategy file (JSON): flat row-major probability array  [p_1, .., p_|A|].


def load_game(path) -> Game:
    with open(path) as fh:
        data = json.load(fh)
    try:
        counts = data["action_counts"]
        utilities = data["utilities"]
    except (TypeError, KeyError) as exc:
        raise InvalidInputError(f"game file {path} is missing field {exc}") from exc
    names = data.get("action_names")
    if not isinstance(counts, list):
        raise InvalidInputError(f"game file {path}: action_counts must be a JSON array")
    if not (names is None or isinstance(names, list) and all(isinstance(n, list) for n in names)):
        raise InvalidInputError(f"game file {path}: action_names must be a JSON array of arrays")
    if "num_agents" in data and check_int(data["num_agents"], "num_agents") != len(counts):
        raise InvalidInputError("num_agents does not match action_counts")
    return Game(counts, utilities, names)


def load_strategy(path) -> CorrelatedStrategy:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise InvalidInputError(f"strategy file {path} must be a flat JSON array")
    return CorrelatedStrategy(data)

