"""Repeated-game engine: signals, actions, histories, ledgers, decisions.

Each round the mediator draws a joint signal from the announced strategy and
delivers each agent its own component privately. What an agent plays, and
how a verdict moves its mode, is ``AgentState``'s policy (``strategy``,
``learns``, ``conclude``): following agents play the signal; rejected agents
play their fixed fall-back during sampling tests and their (reset) learner
during free periods. An agent whose own incentive constraints fail is
screened out once, at set-up, and rejects every test without testing. At the
end of every sampling test the verdict on that test's public counts is
computed once, if some agent is unscreened, and every agent concludes from it.

One phase loop plays the schedule for both runners, and one stepper plays
every round that is not drawn in bulk:

* ``run_game`` steps every round and returns a ``Transcript``, whose phase
  results also keep each round's joint signal and joint action index: rows,
  windows, the CSV and mid-phase ledger averages are read from these columns
  (the CSV through per-joint-index row tables, see ``transcript_to_csv``);
* ``run_game_counts`` returns a ``RunSummary`` and draws one exact
  multinomial per phase whenever every active behavior is i.i.d. within the
  phase, which makes astronomically long phases cheap;
* ``run_batch`` plays ``run_game_counts`` for many seeds on one set-up: the
  arguments are checked, every agent is screened and the announcement is
  shaped into its joint tensor once per batch, and each i.i.d. phase
  composes its deviators on that checked tensor; a seed pays only for its
  own generators, fall-back draws, fresh learners and phases
  (``run_game_counts`` is the one-seed batch);
* ``run_pure_learning`` steps its horizon as one free period in which every
  agent learns.

The stepper has one path: it plays rounds in skip-ahead blocks of as many
rounds as every learning agent's ``Learner.stable_rounds()`` guarantees its
strategy holds. Within a block each agent's actions come from one
``agent_act`` call, drawn as one array from exactly the randomness the
per-round loop would consume, so every output is bit-identical to playing
round by round; a round after which some strategy may change is a block of
one. The mediator's signals are drawn per chunk of ``_BLOCK_ROUNDS`` rounds,
so a stepped phase's memory does not grow with its length.

Inputs are checked once, at the public entry points (``_setup`` for the
runners); values the engine built valid are trusted inside. Past the entry
check a fall-back is a read-only probability vector: a configured one is
checked by ``games._checked_mixes``, the one mix check, and a seed's drawn
one is the draw itself. Deviators are composed without re-checking their
mixes (``games._composed``), and a phase's utility totals are one integer
dot product, so a seed of a batch pays for its generators, its draws and,
where some agent is unscreened, one verdict per completed test.

Utility ledgers sum exact rationals (joint-action counts times the
binary-exact float payoffs, summed as integer numerators over one power of
two from the game's ``payoff_table``), so phase segments partition totals
exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .agents import AgentState, Mode, _simplex_draw, agent_act, make_learner
from .agents import sample_strategy  # noqa: F401 (bench/tracing.py wraps sim.sample_strategy)
from .errors import InvalidInputError, NoDataError, check_int, check_keys
from .games import (
    CorrelatedStrategy,
    Game,
    _checked_mixes,
    _composed,
    _others_marginal,
    agent_incentive_violations,
    joint_distribution,
)
from .games import compose_deviation  # noqa: F401 (bench/tracing.py wraps sim.compose_deviation)
from .schedule import Phase, PhaseKind, Schedule
from .verifier import Decision, run_sampling_decision


@dataclass(frozen=True)
class PhaseResult:
    """One phase of a run; a transcript's also keeps each round's joint signal
    and joint action index (int64 columns ``signals``, ``joints``)."""

    phase: Phase
    rounds_run: int
    counts: np.ndarray
    utility_totals: tuple[Fraction, ...]
    signals: np.ndarray | None = None
    joints: np.ndarray | None = None


@dataclass
class RunSummary:
    """Phase-aggregated record of one run: per-phase counts, totals, decisions."""

    seed: int
    game: Game
    sigma_m: CorrelatedStrategy
    phase_results: list[PhaseResult] = field(default_factory=list)
    decisions: dict[tuple[int, int], Decision] = field(default_factory=dict)


class Transcript(RunSummary):
    """A run summary whose phase results keep every round's index columns."""

    @property
    def num_rounds(self) -> int:
        return sum(pr.rounds_run for pr in self.phase_results)


@dataclass(frozen=True)
class EmpiricalFrequency:
    """Counts of each joint action over a window."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise InvalidInputError("counts do not sum to total")

    def distribution(self) -> np.ndarray:
        if self.total == 0:
            raise NoDataError("empty window has no distribution")
        return self.counts / self.total


@dataclass(frozen=True)
class LedgerSegment:
    kind: str
    index: int
    begin: int
    length: int
    totals: tuple[Fraction, ...]


@dataclass
class UtilityLedger:
    """Per-agent cumulative utility, segmented by phase; a transcript's resolves rounds."""

    segments: list[LedgerSegment]
    num_agents: int
    transcript: Transcript | None = field(default=None, repr=False)

    def totals(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.num_agents
        for seg in self.segments:
            for i in range(self.num_agents):
                out[i] += seg.totals[i]
        return tuple(out)

    @property
    def num_rounds(self) -> int:
        return sum(seg.length for seg in self.segments)


def build_ledger(run: RunSummary) -> UtilityLedger:
    """Ledger of a run's phases; a Transcript's ledger also resolves single rounds."""
    segments = [
        LedgerSegment(pr.phase.kind.value, pr.phase.index, pr.phase.begin, pr.rounds_run,
                      pr.utility_totals)
        for pr in run.phase_results
    ]
    transcript = run if isinstance(run, Transcript) else None
    return UtilityLedger(segments=segments, num_agents=run.game.num_agents, transcript=transcript)


def average_utility(ledger: UtilityLedger, agent: int, up_to_t: int) -> float:
    """Cumulative utility / t over rounds 1..up_to_t.

    Round-resolved ledgers support any t; phase-resolved ledgers support
    phase boundaries only.
    """
    check_int(agent, "agent", hi=ledger.num_agents)
    check_int(up_to_t, "up_to_t", 1)
    if up_to_t > ledger.num_rounds:
        raise InvalidInputError(f"up_to_t={up_to_t} beyond recorded {ledger.num_rounds} rounds")
    total = Fraction(0)
    rest = up_to_t
    for i, seg in enumerate(ledger.segments):
        if rest < seg.length:
            break
        total += seg.totals[agent]
        rest -= seg.length
        if rest == 0:
            return float(total / up_to_t)
    # up_to_t ends ``rest`` rounds into segment i
    if ledger.transcript is None:
        raise InvalidInputError(f"phase-resolved ledger: up_to_t={up_to_t} is not a phase boundary")
    game = ledger.transcript.game
    counts = np.bincount(ledger.transcript.phase_results[i].joints[:rest],
                         minlength=game.num_joint_actions)
    return float((total + _exact_utility_totals(game, counts)[agent]) / up_to_t)


_PHASE_KINDS = tuple(k.value for k in PhaseKind)


def phase_average(ledger: UtilityLedger, agent: int, kind: str) -> float:
    """Average utility restricted to phases of one kind ("R" or "F")."""
    check_int(agent, "agent", hi=ledger.num_agents)
    if kind not in _PHASE_KINDS:
        raise InvalidInputError(f"kind must be one of {_PHASE_KINDS}, got {kind!r}")
    total = Fraction(0)
    rounds = 0
    for seg in ledger.segments:
        if seg.kind == kind:
            total += seg.totals[agent]
            rounds += seg.length
    if rounds == 0:
        raise NoDataError(f"no rounds of kind {kind!r} in the ledger")
    return float(total / rounds)


def empirical_frequency(transcript: Transcript, from_t: int, to_t: int) -> EmpiricalFrequency:
    """Counts of each joint action over the inclusive round window."""
    from_t = check_int(from_t, "from_t", 1, transcript.num_rounds + 1)
    to_t = check_int(to_t, "to_t", from_t, transcript.num_rounds + 1)
    joints = np.concatenate([pr.joints for pr in transcript.phase_results])
    counts = np.bincount(joints[from_t - 1 : to_t], minlength=transcript.game.num_joint_actions)
    return EmpiricalFrequency(counts=counts, total=to_t - from_t + 1)


def tv_distance(p, q) -> float:
    """Total variation distance between two distributions over joint actions."""
    pv = p.probs if isinstance(p, CorrelatedStrategy) else np.asarray(p, dtype=float)
    qv = q.probs if isinstance(q, CorrelatedStrategy) else np.asarray(q, dtype=float)
    if pv.shape != qv.shape:
        raise InvalidInputError("distributions have different lengths")
    return 0.5 * float(np.abs(pv - qv).sum())


# --- engine -----------------------------------------------------------------


@dataclass(frozen=True)
class _Setup:
    """A run's set-up that no seed changes, checked once and shared by a batch."""

    schedule: Schedule
    horizon: int
    probs: np.ndarray  # the announcement over joint actions
    tensor: np.ndarray  # the same, shaped by the action counts
    fallbacks: tuple  # each agent's configured fall-back, a checked vector, or None: drawn per seed
    learner_specs: tuple
    modes: tuple  # each agent's starting mode: the incentive screen's verdict


def _setup(game, sigma_m, schedule, agent_configs, rounds) -> _Setup:
    """Check a run's arguments and screen every agent once, before any seed is played."""
    probs = joint_distribution(sigma_m, game)
    if rounds is not None:
        check_int(rounds, "rounds")
    horizon = schedule.horizon if rounds is None else min(rounds, schedule.horizon)
    if any(min(ph.end, horizon) - ph.begin >= 2**63 - 1 for ph in schedule.phases):
        raise InvalidInputError("numpy draws a phase in int64: phases must be < 2**63 rounds")
    configs = [{} for _ in range(game.num_agents)] if agent_configs is None else agent_configs
    if (not isinstance(configs, (list, tuple)) or len(configs) != game.num_agents
            or not all(isinstance(cfg, dict) for cfg in configs)):
        raise InvalidInputError(f"need one agent config object per agent, got {configs!r}")
    for i, cfg in enumerate(configs):
        check_keys(cfg, ("fallback", "learner"), f"config of agent {i + 1}")
        make_learner(cfg.get("learner"), game, i)  # refuses a bad spec before any seed
    fallbacks = _checked_mixes(game, {i: cfg["fallback"] for i, cfg in enumerate(configs)
                                      if cfg.get("fallback") is not None}, first=1)
    modes = tuple(Mode.from_screen(agent_incentive_violations(game, sigma_m, i))
                  for i in range(game.num_agents))
    return _Setup(schedule, horizon, probs, probs.reshape(game.action_counts),
                  tuple(map(fallbacks.get, range(game.num_agents))),
                  tuple(cfg.get("learner") for cfg in configs), modes)


def _seed_agents(game, setup: _Setup, seed):
    """One seed's generators and fresh agents: the mediator's stream, then one per agent."""
    children = np.random.SeedSequence(seed).spawn(1 + game.num_agents)
    mediator_rng = np.random.default_rng(children[0])
    agent_rngs = [np.random.default_rng(child) for child in children[1:]]
    states = []
    for i, (fallback, spec, mode, rng) in enumerate(
            zip(setup.fallbacks, setup.learner_specs, setup.modes, agent_rngs)):
        if fallback is None:
            fallback = _simplex_draw(game.action_counts[i], rng)
        states.append(AgentState(id=i, fallback=fallback, learner=make_learner(spec, game, i),
                                 mode=mode))
    return mediator_rng, agent_rngs, states


def _iid_deviators(states, phase) -> dict | None:
    """Each deviating agent's ``strategy(phase)``, or None if one is sequential.

    A following agent plays its signal component (not a deviator). A learning
    agent is i.i.d. only when its learner's strategy holds for ever
    (``stable_rounds()`` is infinite).
    """
    deviators = {}
    for st in states:
        if st.learns(phase) and st.learner.stable_rounds() != math.inf:
            return None
        strategy = st.strategy(phase)
        if strategy is not None:
            deviators[st.id] = strategy
    return deviators


def _exact_utility_totals(game: Game, counts: np.ndarray) -> tuple[Fraction, ...]:
    """Each agent's sum of count times payoff, exactly.

    The sum is one dot product in Python ints over the game's
    ``payoff_table`` (integer numerators over one power of two per agent),
    since counts reach 1e18.
    """
    weights = counts.tolist()
    return tuple(Fraction(sum(map(operator.mul, weights, nums)), den)
                 for nums, den in game.payoff_table)


# the most rounds in one block, which bounds its arrays; splitting a block
# changes no output
_BLOCK_ROUNDS = 1 << 14


def _step(game, phase, states, rngs, length, signals=None, signals_out=None,
          joints_out=None) -> np.ndarray:
    """Play ``length`` rounds of a phase; returns their joint-action counts.

    ``signals(lo, hi)`` gives the joint signals of the run's rounds lo + 1..hi
    (None when no agent follows); they are taken in chunks of ``_BLOCK_ROUNDS``
    rounds, so memory does not grow with the phase. Within a chunk, rounds go
    in blocks of the least ``stable_rounds()`` over the learning agents'
    learners, one ``agent_act`` call per agent and block; a one-round block is
    just a small block. ``signals_out`` and ``joints_out``, when given,
    receive each round's joint signal and joint action index.
    """
    shape = game.action_counts
    observers = [st.learner for st in states if st.learns(phase)]
    bounds = [learner.stable_rounds for learner in observers]
    counts = np.zeros(game.num_joint_actions, dtype=np.int64)
    columns = [None] * game.num_agents
    for lo in range(0, length, _BLOCK_ROUNDS):
        size = min(_BLOCK_ROUNDS, length - lo)
        if signals is not None:
            chunk = signals(phase.begin - 1 + lo, phase.begin - 1 + lo + size)
            if signals_out is not None:
                signals_out[lo : lo + size] = chunk
            columns = np.unravel_index(chunk, shape)
        played = np.empty((game.num_agents, size), dtype=np.int64)
        pos = 0
        while pos < size:
            k = size - pos
            for stable_rounds in bounds:
                stable = stable_rounds()
                if stable < k:
                    k = int(stable)
                    if k == 1:
                        break
            actions = [agent_act(st, phase, None if col is None else col[pos : pos + k],
                                 rngs[st.id], k) for st, col in zip(states, columns)]
            played[:, pos : pos + k] = actions
            for learner in observers:
                learner.observe_block(actions)
            pos += k
        joints = np.ravel_multi_index(played, shape)
        counts += np.bincount(joints, minlength=game.num_joint_actions)
        if joints_out is not None:
            joints_out[lo : lo + size] = joints
    return counts


def _play(run: RunSummary, setup: _Setup, signal_override=None):
    """Play the schedule into ``run``: the phase loop behind both runners.

    A Transcript steps every phase and keeps its columns (the signals copied,
    never a view of ``signal_override``). Otherwise a phase in which every
    active behavior is i.i.d. (followers track the signal; rejected agents
    play fixed strategies) is one exact multinomial draw from the
    announcement's marginal on the followers times the deviators' mixes
    (composed on the set-up's checked tensor), and a phase with a sequential
    learner is stepped (``_step``). Its signals are drawn (or sliced from
    ``signal_override``) a chunk at a time: the same draws as one call.
    At a completed planned test every agent concludes from one
    ``run_sampling_decision`` verdict, computed only when some agent is
    unscreened (a screened agent records ``REJECT_BY_EQ2`` without it).
    """
    game, sigma_m, schedule = run.game, run.sigma_m, setup.schedule
    probs, horizon = setup.probs, setup.horizon
    mediator_rng, agent_rngs, states = _seed_agents(game, setup, run.seed)
    record = isinstance(run, Transcript)
    if signal_override is not None:
        def draw_signals(lo, hi):
            return np.asarray(signal_override[lo:hi], dtype=np.int64)
    else:
        def draw_signals(lo, hi):
            return mediator_rng.choice(game.num_joint_actions, size=hi - lo, p=probs)
    for phase in schedule.phases:
        if phase.begin > horizon:
            break
        length = min(phase.end, horizon) - phase.begin + 1
        if phase.kind is PhaseKind.FREE_PERIOD:
            for st in states:
                st.begin_free_period()
        deviators = None if record else _iid_deviators(states, phase)
        signals = joints = None
        if deviators is not None:
            dist = (_composed(_others_marginal(setup.tensor, tuple(deviators)), game, deviators)
                    if deviators else probs)
            counts = mediator_rng.multinomial(length, dist).astype(np.int64)
        else:
            if record:
                signals = np.empty(length, dtype=np.int64)
                joints = np.empty(length, dtype=np.int64)
            counts = _step(game, phase, states, agent_rngs, length, draw_signals, signals, joints)
        run.phase_results.append(PhaseResult(
            phase, length, counts, _exact_utility_totals(game, counts),
            signals=signals, joints=joints,
        ))
        if phase.kind is PhaseKind.SAMPLING_TEST and length == phase.length:
            plan = schedule.plan_for(phase.index)
            if plan is not None:
                verdict = (run_sampling_decision(plan, sigma_m, counts)
                           if any(st.mode is not Mode.REJECTED_BY_EQ2 for st in states) else None)
                for st in states:
                    run.decisions[(st.id, phase.index)] = st.conclude(verdict)
    return run


def run_game(
    game: Game,
    sigma_m: CorrelatedStrategy,
    schedule: Schedule,
    agent_configs: list[dict] | None = None,
    seed: int = 0,
    rounds: int | None = None,
    signal_override=None,
) -> Transcript:
    """Run the repeated game, recording every round.

    ``rounds`` caps the run (None runs the whole schedule horizon; 0 yields
    an empty transcript). Decisions occur only for tests that complete within
    the cap. ``signal_override`` (a sequence of joint indices) replaces the
    mediator's draws; it exists for tests.
    """
    run = Transcript(seed=check_int(seed, "seed"), game=game, sigma_m=sigma_m)
    setup = _setup(game, sigma_m, schedule, agent_configs, rounds)
    if signal_override is not None and len(signal_override) < setup.horizon:
        raise InvalidInputError(f"signal_override covers fewer than {setup.horizon} rounds")
    return _play(run, setup, signal_override)


def run_batch(
    game: Game,
    sigma_m: CorrelatedStrategy,
    schedule: Schedule,
    agent_configs: list[dict] | None,
    seeds,
    rounds: int | None = None,
) -> list[RunSummary]:
    """``run_game_counts`` for each seed, in order, sharing one set-up.

    The arguments are checked and every agent is screened once per batch,
    before any seed is played; each seed then spawns its own generators,
    draws its own fall-backs and plays with fresh learners, so each run
    equals ``run_game_counts(..., seed=s)``.
    """
    try:
        seeds = [check_int(s, "seed") for s in seeds]
    except TypeError as exc:
        raise InvalidInputError(f"seeds must be a sequence of integers, got {seeds!r}") from exc
    setup = _setup(game, sigma_m, schedule, agent_configs, rounds)
    return [_play(RunSummary(seed=s, game=game, sigma_m=sigma_m), setup) for s in seeds]


def run_game_counts(
    game: Game,
    sigma_m: CorrelatedStrategy,
    schedule: Schedule,
    agent_configs: list[dict] | None = None,
    seed: int = 0,
    rounds: int | None = None,
) -> RunSummary:
    """Run the repeated game keeping only per-phase counts and decisions.

    Phases where every active behavior is i.i.d. cost one multinomial draw
    whatever their length; phases with sequential learners step per round.
    It is the one-seed ``run_batch``.
    """
    return run_batch(game, sigma_m, schedule, agent_configs, [seed], rounds)[0]


@dataclass
class PureLearningRun:
    """Joint-learning baseline: counts and exact utility totals."""

    counts: np.ndarray
    utility_totals: tuple[Fraction, ...]
    rounds: int

    def average_utility(self, agent: int) -> float:
        check_int(agent, "agent", hi=len(self.utility_totals))
        if self.rounds == 0:
            raise NoDataError("zero-round run has no averages")
        return float(self.utility_totals[agent] / self.rounds)


def run_pure_learning(game: Game, learner_specs, rounds: int, seed: int = 0) -> PureLearningRun:
    """Joint play when every agent runs its learner for the whole horizon.

    No mediator, no tests, no resets: the baseline an agent would have earned
    by learning alone, played as one free period in which every agent learns.
    """
    check_int(rounds, "rounds")
    check_int(seed, "seed")
    if not isinstance(learner_specs, (list, tuple)) or len(learner_specs) != game.num_agents:
        raise InvalidInputError(f"learner_specs must be a list of one learner spec per agent, "
                                f"got {learner_specs!r}")
    states = [
        # every agent is rejected, and a free period never plays the fall-back
        AgentState(id=i, fallback=None, learner=make_learner(spec, game, i),
                   mode=Mode.REJECTED_BY_TEST)
        for i, spec in enumerate(learner_specs)
    ]
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(game.num_agents)]
    # a Phase is at least one round long; ``rounds`` alone sets how many are played
    phase = Phase(PhaseKind.FREE_PERIOD, 1, 1, max(rounds, 1))
    counts = _step(game, phase, states, rngs, rounds)
    return PureLearningRun(
        counts=counts, utility_totals=_exact_utility_totals(game, counts), rounds=rounds
    )


# --- exports ----------------------------------------------------------------


def _csv_lines(rows) -> list[str]:
    """Each row as ``csv.writer`` formats it, line terminator included."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    lines = []
    for row in rows:
        writer.writerow(row)
        lines.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return lines


def transcript_to_csv(transcript: Transcript, path) -> None:
    """One row per round: t, phase, j, signals, actions, utilities.

    Past t, phase and j a row depends only on its joint signal and joint
    action index, so both parts are formatted once per joint index and each
    phase is written in slices of at most ``_BLOCK_ROUNDS`` rows: memory is
    O(|A| + _BLOCK_ROUNDS) whatever the run's length.
    """
    game = transcript.game
    n = game.num_agents
    decode = list(game.all_joint_actions())
    signal_part = [line[:-2] + "," for line in _csv_lines(decode)]  # "\r\n" -> ","
    action_part = _csv_lines([*actions, *map(repr, utilities)]
                             for actions, utilities in zip(decode, game.utilities.tolist()))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["t", "phase", "j"]
            + [f"signal_{i+1}" for i in range(n)]
            + [f"action_{i+1}" for i in range(n)]
            + [f"utility_{i+1}" for i in range(n)]
        )
        for pr in transcript.phase_results:
            head = f"{pr.phase.kind.value},{pr.phase.index},"
            for lo in range(0, pr.rounds_run, _BLOCK_ROUNDS):
                hi = min(lo + _BLOCK_ROUNDS, pr.rounds_run)
                fh.write("".join([
                    f"{t},{head}{signal_part[s]}{action_part[a]}"
                    for t, s, a in zip(range(pr.phase.begin + lo, pr.phase.begin + hi),
                                       pr.signals[lo:hi].tolist(), pr.joints[lo:hi].tolist())
                ]))


def run_summary_dict(run: RunSummary) -> dict:
    """JSON-ready summary: decisions, per-phase averages, free-period TV."""
    phase_rows = []
    for pr in run.phase_results:
        row = {
            "phase": pr.phase.kind.value,
            "j": pr.phase.index,
            "begin": pr.phase.begin,
            "length": pr.rounds_run,
            "avg_utility": [float(tot / pr.rounds_run) for tot in pr.utility_totals],
        }
        if pr.phase.kind is PhaseKind.FREE_PERIOD:
            row["tv_to_announced"] = tv_distance(pr.counts / pr.rounds_run, run.sigma_m)
        phase_rows.append(row)
    decisions = {
        f"agent{agent+1}.test{j}": {
            "outcome": d.outcome.value,
            "statistic": d.statistic,
            "p_value": d.p_value,
        }
        for (agent, j), d in sorted(run.decisions.items())
    }
    return {"seed": run.seed, "phases": phase_rows, "decisions": decisions}


def write_summary_json(run, path) -> None:
    with open(path, "w") as fh:
        json.dump(run_summary_dict(run), fh, indent=2, sort_keys=True)
        fh.write("\n")


def batch_summary_dict(runs: list[RunSummary]) -> dict:
    """Aggregate many seeded runs with commutative reductions only.

    Reports per-test decision tallies, mean whole-run average utilities, and
    the mean/max distance of each run's final free period (when present) to
    the announcement. The result is independent of run order.

    A run's utility totals are the engine's: multiples of one over the
    agent's ``payoff_table`` denominator. So each run adds integer numerators
    over that denominator to the sums for its length, and the mean is one
    exact Fraction per agent at the end.
    """
    if not runs:
        raise InvalidInputError("need at least one run")
    game = runs[0].game
    dens = [den for _, den in game.payoff_table]
    tallies: dict[str, dict[str, int]] = {}
    by_length: dict[int, list[int]] = {}  # run length -> each agent's summed numerators
    tvs = []
    for run in runs:
        for (agent, j), d in run.decisions.items():
            key = f"agent{agent+1}.test{j}"
            tallies.setdefault(key, {})
            tallies[key][d.outcome.value] = tallies[key].get(d.outcome.value, 0) + 1
        total_rounds = sum(pr.rounds_run for pr in run.phase_results)
        if not total_rounds:
            raise NoDataError(f"run with seed {run.seed} has no rounds to average")
        sums = by_length.setdefault(total_rounds, [0] * game.num_agents)
        for pr in run.phase_results:
            for a, (total, den) in enumerate(zip(pr.utility_totals, dens)):
                sums[a] += total.numerator * (den // total.denominator)
        frees = [pr for pr in run.phase_results if pr.phase.kind is PhaseKind.FREE_PERIOD]
        if frees:
            final = frees[-1]
            tvs.append(tv_distance(final.counts / final.rounds_run, run.sigma_m))
    # mean over runs of total / length: over the lengths' lcm, one Fraction per agent
    lcm = math.lcm(*by_length)
    means = [float(Fraction(sum(nums[a] * (lcm // length) for length, nums in by_length.items()),
                            den * lcm * len(runs)))
             for a, den in enumerate(dens)]
    out = {
        "num_seeds": len(runs),
        "seeds": sorted(run.seed for run in runs),
        "decision_tallies": {k: dict(sorted(v.items())) for k, v in sorted(tallies.items())},
        "mean_average_utility": means,
    }
    if tvs:
        out["final_free_period_tv"] = {
            "mean": math.fsum(tvs) / len(tvs),  # exact rounding: order-free
            "max": max(tvs),
        }
    return out
