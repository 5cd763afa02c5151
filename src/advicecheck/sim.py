"""Repeated-game engine: signals, actions, histories, ledgers, decisions.

Each round the mediator draws a joint signal from the announced strategy and
delivers each agent its own component privately. What an agent plays is
one policy, ``Mode.plays``, read by every path below: following agents play
the signal; rejected agents play their fixed fall-back during sampling tests
and their (reset) learner, which observes the rounds, during free periods.
An agent whose own incentive constraints fail is screened out once, at
set-up, and rejects every test without testing. At the end of every sampling
test the verdict on that test's public counts is computed once, if some
agent is unscreened, and every agent concludes from it (``Mode.conclude``).

One phase loop plays the schedule for every runner, advancing all the runs
of a batch through a phase before the next, and one stepper plays every
round that is not drawn in bulk:

* ``run_game`` steps every round and returns a ``Transcript``, whose phase
  results also keep each round's joint signal and joint action index: rows,
  windows, the CSV and mid-phase ledger averages are read from these columns
  (the CSV through per-joint-index row tables of comma-joined cells, see
  ``transcript_to_csv``);
* ``run_game_counts`` returns a ``RunSummary`` and draws one exact
  multinomial per phase whenever every active behavior is i.i.d. within the
  phase, which makes astronomically long phases cheap;
* ``run_batch`` plays ``run_game_counts`` for many seeds on one set-up: the
  arguments are checked, every agent is screened, its one learner built and
  the announcement shaped into its joint tensor once per batch. In each
  phase the runs go in cohorts, by their agents' modes: a cohort is those
  modes and its run indices, and each agent's fall-backs are one table with
  a row per run. A cohort's i.i.d. mixes are composed once on that tensor,
  and each run's multinomial is drawn by its own mediator generator; agents'
  plays are resolved per run only for a run that steps. Every generator's
  state comes from one pass over the batch (``streams``, which keys every
  generator). Each seed's mediator generator is built up front, since every
  run draws from it in its first phase; an agent's is built only when the
  run first draws from it. ``run_game_counts`` is the one-seed batch;
* ``run_pure_learning``, the baseline with no mediator, steps its horizon
  as one free period in which every agent plays its learner, and returns a
  ``RunSummary`` whose ``sigma_m`` is None.

Every runner returns a ``RunSummary``. Its whole-run ``num_rounds``,
``counts`` and exact ``utility_totals`` are formed on read from its phase
results, and a ``UtilityLedger`` is a view of the run it was built from.

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
check a fall-back is a probability vector: a configured one is checked by
``games._checked_mixes``, the one mix check, and a seed's drawn one is the
draw itself, normalized with the other rows drawn with it in one step
(``agents._simplex_draws``) and written once into its row of the agent's
table, before that row is first read. Deviators are composed
without re-checking their mixes (``games._composed``), so a seed of a batch
pays for its generators, its draws, its rows of the cohort's arrays and,
where some agent is unscreened, one verdict per completed test; what is the
same across seeds (learners, i.i.d. facts, free-period mixes, the mode
transition of a batch whose agents are all screened) is done once per batch
or per cohort. On a 2-vCPU Xeon a seed of ``bench`` ``longrun``'s batch
(both agents screened, each phase one multinomial) costs ~17 µs, ~10 µs of
them its three generators, two fall-back draws and two multinomials.

Utility ledgers sum exact rationals: joint-action counts times the
binary-exact float payoffs, kept as integer numerators over one power of two
per agent from the game's ``payoff_table``, so phase segments partition
totals exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import streams
from .agents import Learner, Mode, _simplex_draws, agent_act, make_learner
from .agents import sample_strategy  # noqa: F401 (bench/tracing.py wraps sim.sample_strategy)
from .errors import InvalidInputError, NoDataError, check_int, check_keys, check_reals
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


class PhaseResult(NamedTuple):
    """One phase of a run: counts, and each agent's exact utility total as an
    integer numerator over its ``payoff_table`` denominator. A transcript's
    also keeps each round's joint signal and joint action index (int64
    columns ``signals``, ``joints``)."""

    phase: Phase
    rounds_run: int
    counts: np.ndarray
    utility_numerators: tuple[int, ...]
    utility_denominators: tuple[int, ...]
    signals: np.ndarray | None = None
    joints: np.ndarray | None = None

    @property
    def utility_totals(self) -> tuple[Fraction, ...]:
        """Each agent's utility total as an exact Fraction, formed on read."""
        return tuple(map(Fraction, self.utility_numerators, self.utility_denominators))


@dataclass
class RunSummary:
    """Phase-aggregated record of one run: per-phase counts, totals, decisions.

    ``sigma_m`` is None for the pure-learning baseline, which has no mediator.
    The whole-run properties are formed on read from the phase results.
    """

    seed: int
    game: Game
    sigma_m: CorrelatedStrategy | None
    phase_results: list[PhaseResult] = field(default_factory=list)
    decisions: dict[tuple[int, int], Decision] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        return sum(pr.rounds_run for pr in self.phase_results)

    @property
    def counts(self) -> np.ndarray:
        """The whole run's joint-action counts, in int64: refused from 2**63 rounds,
        where a cell could wrap (below that none can)."""
        if (rounds := self.num_rounds) >= 2**63:
            raise InvalidInputError(f"the run's {rounds} rounds overflow int64 counts: "
                                    f"read each phase's counts from phase_results")
        return sum((pr.counts for pr in self.phase_results),
                   np.zeros(self.game.num_joint_actions, dtype=np.int64))

    @property
    def utility_totals(self) -> tuple[Fraction, ...]:
        """Each agent's whole-run utility total as an exact Fraction."""
        return tuple(Fraction(sum(pr.utility_numerators[a] for pr in self.phase_results), den)
                     for a, (_, den) in enumerate(self.game.payoff_table))


class Transcript(RunSummary):
    """A run summary whose phase results keep every round's index columns."""


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
    """Per-agent utility, segmented by phase: a view of the run it was built
    from, which resolves single rounds when it is a transcript."""

    segments: list[LedgerSegment]
    run: RunSummary = field(repr=False)


def build_ledger(run: RunSummary) -> UtilityLedger:
    """Ledger of a run's phases; a Transcript's ledger also resolves single rounds."""
    segments = [
        LedgerSegment(pr.phase.kind.value, pr.phase.index, pr.phase.begin, pr.rounds_run,
                      pr.utility_totals)
        for pr in run.phase_results
    ]
    return UtilityLedger(segments=segments, run=run)


def average_utility(ledger: UtilityLedger, agent: int, up_to_t: int) -> float:
    """Cumulative utility / t over rounds 1..up_to_t.

    Round-resolved ledgers support any t; phase-resolved ledgers support
    phase boundaries only.
    """
    run = ledger.run
    check_int(agent, "agent", hi=run.game.num_agents)
    check_int(up_to_t, "up_to_t", 1)
    if up_to_t > run.num_rounds:
        raise InvalidInputError(f"up_to_t={up_to_t} beyond recorded {run.num_rounds} rounds")
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
    if not isinstance(run, Transcript):
        raise InvalidInputError(f"phase-resolved ledger: up_to_t={up_to_t} is not a phase boundary")
    counts = np.bincount(run.phase_results[i].joints[:rest], minlength=run.game.num_joint_actions)
    part = Fraction(_utility_numerators(run.game, counts)[agent], run.game.payoff_table[agent][1])
    return float((total + part) / up_to_t)


_PHASE_KINDS = tuple(k.value for k in PhaseKind)


def phase_average(ledger: UtilityLedger, agent: int, kind: str) -> float:
    """Average utility restricted to phases of one kind ("R" or "F")."""
    check_int(agent, "agent", hi=ledger.run.game.num_agents)
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


def _check_transcript(transcript) -> None:
    """Refuse anything but a Transcript: only a transcript keeps its rounds."""
    if not isinstance(transcript, Transcript):
        raise InvalidInputError(f"transcript must be a Transcript (run_game's record of every "
                                f"round), got {type(transcript).__name__}")


def empirical_frequency(transcript: Transcript, from_t: int, to_t: int) -> EmpiricalFrequency:
    """Counts of each joint action over the inclusive round window, summed over
    the slices of the phases it overlaps: no column is copied."""
    _check_transcript(transcript)
    from_t = check_int(from_t, "from_t", 1, transcript.num_rounds + 1)
    to_t = check_int(to_t, "to_t", from_t, transcript.num_rounds + 1)
    counts = np.zeros(transcript.game.num_joint_actions, dtype=np.int64)
    begin = 1  # the phase's first round: a phase outside the window adds an empty slice
    for pr in transcript.phase_results:
        counts += np.bincount(pr.joints[max(from_t - begin, 0):max(to_t + 1 - begin, 0)],
                              minlength=len(counts))
        begin += pr.rounds_run
    return EmpiricalFrequency(counts=counts, total=to_t - from_t + 1)


def tv_distance(p, q) -> float:
    """Total variation distance between two distributions over joint actions."""
    pv = p.probs if isinstance(p, CorrelatedStrategy) else np.asarray(check_reals(p, "p"), float)
    qv = q.probs if isinstance(q, CorrelatedStrategy) else np.asarray(check_reals(q, "q"), float)
    if pv.shape != qv.shape:
        raise InvalidInputError("distributions have different lengths")
    return 0.5 * float(np.abs(pv - qv).sum())


# --- engine -----------------------------------------------------------------


@dataclass(frozen=True)
class _Setup:
    """A run's set-up that no seed changes, checked once and shared by a batch."""

    game: Game
    sigma_m: CorrelatedStrategy
    schedule: Schedule
    horizon: int
    probs: np.ndarray  # the announcement over joint actions
    tensor: np.ndarray  # the same, shaped by the action counts
    fallbacks: tuple  # each agent's configured fall-back, a checked vector, or None: drawn per seed
    learners: tuple  # each agent's one learner, shared by every run (see ``_play``)
    free_mixes: tuple  # each fresh learner's strategy if it holds for ever, else None: it steps
    modes: tuple  # each agent's starting mode: the incentive screen's verdict


def _setup(game, sigma_m, schedule, agent_configs, rounds) -> _Setup:
    """Check a run's arguments, build each agent's learner and screen it, once, before any seed."""
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
    learners = []
    for i, cfg in enumerate(configs):
        check_keys(cfg, ("fallback", "learner"), f"config of agent {i + 1}")
        learners.append(make_learner(cfg.get("learner"), game, i))  # a bad spec: before any seed
    fallbacks = _checked_mixes(game, {i: cfg["fallback"] for i, cfg in enumerate(configs)
                                      if cfg.get("fallback") is not None}, first=1)
    modes = tuple(Mode.from_screen(agent_incentive_violations(game, sigma_m, i))
                  for i in range(game.num_agents))
    return _Setup(game, sigma_m, schedule, horizon, probs, probs.reshape(game.action_counts),
                  tuple(map(fallbacks.get, range(game.num_agents))), tuple(learners),
                  tuple(map(_free_mix, learners)), modes)


def _free_mix(learner) -> np.ndarray | None:
    """A fresh learner's strategy if it holds for ever, else None: its free periods step."""
    return learner.next_strategy() if learner.stable_rounds() == math.inf else None


def _utility_numerators(game: Game, counts) -> list:
    """Each agent's sum of count times payoff as an integer numerator over its
    ``payoff_table`` denominator (a list per row of 2-D ``counts``): one
    product in Python ints, since counts reach 1e18."""
    table = np.array([nums for nums, _ in game.payoff_table], dtype=object)
    return (np.asarray(counts).astype(object) @ table.T).tolist()


# the most rounds in one block, which bounds its arrays; splitting a block
# changes no output
_BLOCK_ROUNDS = 1 << 14


def _step(game, plays, rngs, length, signals=None, signals_out=None,
          joints_out=None) -> np.ndarray:
    """Play ``length`` rounds of a phase; returns their joint-action counts.

    ``plays`` holds each agent's resolved play (``agent_act``): None for its
    signal, a fall-back vector, or a ``Learner``, which also observes the
    rounds; ``rngs`` each agent's generator (None for a following agent).
    ``signals(n)`` gives the phase's next ``n`` joint signals (None with no
    mediator, where no agent follows); they are taken in chunks of
    ``_BLOCK_ROUNDS`` rounds, so memory does not grow with the phase. Within a
    chunk, rounds go in blocks of the least ``stable_rounds()`` over the
    learning agents' learners, one ``agent_act`` call per agent and block; a
    one-round block is just a small block. ``signals_out`` and ``joints_out``, when given,
    receive each round's joint signal and joint action index.
    """
    shape = game.action_counts
    observers = [play for play in plays if isinstance(play, Learner)]
    bounds = [learner.stable_rounds for learner in observers]
    counts = np.zeros(game.num_joint_actions, dtype=np.int64)
    columns = [None] * game.num_agents
    for lo in range(0, length, _BLOCK_ROUNDS):
        size = min(_BLOCK_ROUNDS, length - lo)
        if signals is not None:
            chunk = signals(size)
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
            actions = [agent_act(play, None if col is None else col[pos : pos + k], rng, k)
                       for play, rng, col in zip(plays, rngs, columns)]
            played[:, pos : pos + k] = actions
            for learner in observers:
                learner.observe_block(actions)
            pos += k
        joints = np.ravel_multi_index(played, shape)
        counts += np.bincount(joints, minlength=game.num_joint_actions)
        if joints_out is not None:
            joints_out[lo : lo + size] = joints
    return counts


def _play(runs: list[RunSummary], setup: _Setup) -> list[RunSummary]:
    """Play the schedule into every run of a batch, phase by phase: the phase
    loop behind every runner.

    Each phase advances every run before the next starts, in cohorts: the
    runs whose agents are in the same modes, regrouped only after a verdict.
    A run's modes are its whole state between verdicts (screened agents stay
    rejected, every other agent takes the run's one verdict), so a cohort is
    its modes and its run indices. Generator 0 of run r is its mediator's and
    generator 1 + i agent i's, keyed (seed, g) by ``streams``: their states
    come from one ``streams._seed_states`` pass over the batch. The
    mediators' are built up front, since every run draws from its own in
    its first phase. An agent's are built on first use by one lookup
    (``agent``), which also returns its fall-back: when the agent steps, or
    plays a drawn fall-back in a cohort's multinomial (a configured one is
    played as is, and builds nothing). A new generator's first draw is the
    agent's fall-back where none is configured, written in place into the
    run's row of the agent's (runs, actions) table (``_simplex_draws``),
    once and before the row is first read; so each stream is consumed as if
    every generator and fall-back had been made up front.

    Each cohort reads its agents' plays in the phase from the one policy
    (``Mode.plays``). A Transcript (``run_game``'s one run) steps every phase
    and keeps its columns, as does each run of a cohort where some agent
    plays a sequential learner (``_step``, on the run's own generators, its
    signals drawn by its mediator generator and each play resolved to the
    run's fall-back or the shared learner). Every other run
    is one exact multinomial drawn by its mediator generator from the
    deviators' mixes composed, once per cohort, with the followers' marginal:
    a fall-back play is one row per run, a learner play the fresh learner's
    strategy. At a completed planned test each run's agents conclude from
    one ``run_sampling_decision`` verdict on its counts, computed only if
    some agent is unscreened (``Mode.conclude``). Runs never share a
    generator, so each equals its seed played alone.

    The runs share one learner per agent (``_Setup.learners``), exactly:
    every learner is flexible (after ``reset()`` it equals a fresh one), it
    is read only in a free period, which starts with a reset, and a run
    finishes its phase before the next run's starts. So the learners are
    reset before each run steps a free period.
    """
    if not runs:
        return runs
    game, sigma_m, schedule, horizon = setup.game, setup.sigma_m, setup.schedule, setup.horizon
    record = isinstance(runs[0], Transcript)
    dens = tuple(den for _, den in game.payoff_table)
    seeded = streams._seed_states([run.seed for run in runs], range(1 + game.num_agents))
    mediators = streams._generators(seeded[:, 0])  # every run draws from its own in phase 1
    # agent i's generator in run r, agent_rngs[i][r], built on first use; row r of
    # tables[i], agent i's drawn fall-back in run r, is that generator's first draw
    agent_rngs = [[None] * len(runs) for _ in range(game.num_agents)]
    tables = [np.empty((len(runs), k)) for k in game.action_counts]

    def agent(i, rows):
        """Agent i's fall-back in ``rows`` (a run's index, or a list of them for a
        row each): its configured one as is, else their rows of its table. The
        runs' generators of agent i are built where missing; a new one's first
        draw writes the run's drawn row, once, before the row is first read."""
        new = [r for r in ([rows] if isinstance(rows, int) else rows) if agent_rngs[i][r] is None]
        if new:
            for r, gen in zip(new, streams._generators(seeded[new, 1 + i])):
                agent_rngs[i][r] = gen
            if setup.fallbacks[i] is None:
                tables[i][new] = _simplex_draws(game.action_counts[i],
                                                [agent_rngs[i][r] for r in new])
        return tables[i][rows] if setup.fallbacks[i] is None else setup.fallbacks[i]

    def step(r, plays, phase, length):
        """Step run r through ``phase`` on its own generators, each agent's play resolved."""
        # every deviator draws its actions from its generator, built here
        fallbacks = [None if play == "signal" else agent(i, r) for i, play in enumerate(plays)]
        resolved = [setup.learners[i] if play == "learner" else fallback
                    for i, (play, fallback) in enumerate(zip(plays, fallbacks))]
        rngs = [None if play == "signal" else agent_rngs[i][r] for i, play in enumerate(plays)]
        def signals(n):
            return mediators[r].choice(len(setup.probs), size=n, p=setup.probs)

        columns = np.empty((2, length), dtype=np.int64) if record else (None, None)
        counts = _step(game, resolved, rngs, length, signals, *columns)
        runs[r].phase_results.append(PhaseResult(
            phase, length, counts, tuple(_utility_numerators(game, counts)), dens, *columns))

    some_unscreened = any(mode is not Mode.REJECTED_BY_EQ2 for mode in setup.modes)
    cohorts = {setup.modes: list(range(len(runs)))}  # modes -> run indices
    for phase in schedule.phases:
        if phase.begin > horizon:
            break
        length = min(phase.end, horizon) - phase.begin + 1
        free = phase.kind is PhaseKind.FREE_PERIOD
        for modes, members in cohorts.items():
            plays = [mode.plays(phase.kind) for mode in modes]
            deviators = tuple(i for i, play in enumerate(plays) if play != "signal")
            if record or any(play == "learner" and setup.free_mixes[i] is None
                             for i, play in enumerate(plays)):
                for r in members:
                    if free:
                        for learner in setup.learners:
                            learner.reset()
                    step(r, plays, phase, length)
                continue
            # only a drawn fall-back draws from its agent's generator here
            mixes = {i: setup.free_mixes[i] if plays[i] == "learner" else setup.fallbacks[i]
                     if setup.fallbacks[i] is not None else agent(i, members) for i in deviators}
            dists = (_composed(_others_marginal(setup.tensor, deviators), game, mixes)
                     if deviators else setup.probs)  # in a test, a row per run of its fall-backs
            if dists.ndim == 1:  # a free period's or the followers': the cohort's one distribution
                dists = [dists] * len(members)
            counts = np.array([mediators[r].multinomial(length, dist)
                               for r, dist in zip(members, dists)], dtype=np.int64)
            for r, row, nums in zip(members, counts, _utility_numerators(game, counts)):
                runs[r].phase_results.append(PhaseResult(phase, length, row, tuple(nums), dens))
        if phase.kind is PhaseKind.SAMPLING_TEST and length == phase.length:
            plan = schedule.plan_for(phase.index)
            if plan is not None:
                keys = [(i, phase.index) for i in range(game.num_agents)]
                if not some_unscreened:  # no verdict: the one cohort's conclusion is every run's
                    _, decisions = zip(*[mode.conclude(None) for mode in setup.modes])
                    for run in runs:
                        run.decisions.update(zip(keys, decisions))
                    continue
                modes_of = {r: modes for modes, members in cohorts.items() for r in members}
                cohorts = {}
                for r, run in enumerate(runs):
                    verdict = run_sampling_decision(plan, sigma_m, run.phase_results[-1].counts)
                    modes, decisions = zip(*[mode.conclude(verdict) for mode in modes_of[r]])
                    run.decisions.update(zip(keys, decisions))
                    cohorts.setdefault(modes, []).append(r)
    return runs


def run_game(
    game: Game,
    sigma_m: CorrelatedStrategy,
    schedule: Schedule,
    agent_configs: list[dict] | None = None,
    seed: int = 0,
    rounds: int | None = None,
) -> Transcript:
    """Run the repeated game, recording every round.

    ``rounds`` caps the run (None runs the whole schedule horizon; 0 yields
    an empty transcript). Decisions occur only for tests that complete within
    the cap.
    """
    run = Transcript(seed=check_int(seed, "seed"), game=game, sigma_m=sigma_m)
    return _play([run], _setup(game, sigma_m, schedule, agent_configs, rounds))[0]


def run_batch(
    game: Game,
    sigma_m: CorrelatedStrategy,
    schedule: Schedule,
    agent_configs: list[dict] | None,
    seeds,
    rounds: int | None = None,
) -> list[RunSummary]:
    """``run_game_counts`` for each seed, in order, sharing one set-up.

    The arguments are checked, every agent is screened and its learner built
    once per batch, before any seed is played. The seeds are then played
    phase by phase, each on its own generators, built on first use, which
    draw its own fall-backs first: each run equals ``run_game_counts(...,
    seed=s)``, and every seed's test j is decided before any seed's test j + 1.
    """
    try:
        if isinstance(seeds, (str, bytes, bytearray)):  # its items are characters, not seeds
            raise TypeError(seeds)
        seeds = [check_int(s, "seed") for s in seeds]
    except TypeError as exc:
        raise InvalidInputError(f"seeds must be a sequence of integers, got {seeds!r}") from exc
    setup = _setup(game, sigma_m, schedule, agent_configs, rounds)
    return _play([RunSummary(seed=s, game=game, sigma_m=sigma_m) for s in seeds], setup)


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


def run_pure_learning(game: Game, learner_specs, rounds: int, seed: int = 0) -> RunSummary:
    """Joint play when every agent runs its learner for the whole horizon.

    No mediator, no tests, no resets: the baseline an agent would have earned
    by learning alone. It returns a ``RunSummary`` with ``sigma_m`` None and
    one free period, rounds 1..``rounds`` (none at 0), in which every agent
    has the "learner" play of ``Mode.plays``: it plays its learner, which
    observes every round. Agent i draws from generator i of the seed; the
    phase loop, which keys agent i's generator 1 + i and draws an i.i.d.
    cohort's phase as one multinomial, would move these streams, so the
    period is stepped here.
    """
    check_int(rounds, "rounds")
    seed = check_int(seed, "seed")
    if not isinstance(learner_specs, (list, tuple)) or len(learner_specs) != game.num_agents:
        raise InvalidInputError(f"learner_specs must be a list of one learner spec per agent, "
                                f"got {learner_specs!r}")
    learners = [make_learner(spec, game, i) for i, spec in enumerate(learner_specs)]
    run = RunSummary(seed=seed, game=game, sigma_m=None)
    if rounds:
        phase = Phase(PhaseKind.FREE_PERIOD, 1, 1, rounds)
        counts = _step(game, learners, streams.generators(seed, range(game.num_agents)), rounds)
        run.phase_results.append(PhaseResult(phase, rounds, counts,
                                             tuple(_utility_numerators(game, counts)),
                                             tuple(den for _, den in game.payoff_table)))
    return run


# --- exports ----------------------------------------------------------------


def transcript_to_csv(transcript: Transcript, path) -> None:
    """One row per round: t, phase, j, signals, actions, utilities.

    Past t, phase and j a row depends only on its joint signal and joint
    action index, so both parts are formatted once per joint index and each
    phase is written in slices of at most ``_BLOCK_ROUNDS`` rows: memory is
    O(|A| + _BLOCK_ROUNDS) whatever the run's length. A row is its cells
    joined by commas and ended by "\\r\\n", the bytes ``csv.writer`` writes for
    them: no cell needs quoting, since each is an integer, the phase letter
    or the ``repr`` of a finite payoff. The tests hold the file to that
    writer's, byte for byte (``tests/oracles.py::write_rows_csv``).
    """
    _check_transcript(transcript)
    game = transcript.game
    n = game.num_agents
    decode = list(game.all_joint_actions())
    signal_part = [",".join(map(str, signals)) + "," for signals in decode]
    action_part = [",".join([*map(str, actions), *map(repr, utilities)]) + "\r\n"
                   for actions, utilities in zip(decode, game.utilities.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(
            ["t", "phase", "j"]
            + [f"signal_{i+1}" for i in range(n)]
            + [f"action_{i+1}" for i in range(n)]
            + [f"utility_{i+1}" for i in range(n)]
        ) + "\r\n")
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
    if run.sigma_m is None:
        raise InvalidInputError(f"run with seed {run.seed} has no announcement "
                                f"(a pure-learning baseline)")
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
    decisions = {_decision_key(agent, j): d.as_dict()
                 for (agent, j), d in sorted(run.decisions.items())}
    return {"seed": run.seed, "phases": phase_rows, "decisions": decisions}


def write_summary_json(run, path) -> None:
    _write(path, _json(run_summary_dict(run)))  # formed first: a refused run writes nothing


def _decision_key(agent: int, j: int) -> str:
    """A decision's key in both summaries: 1-based agent, then the test's index."""
    return f"agent{agent + 1}.test{j}"


def _json(value) -> str:
    """The one JSON text of every document written or printed: sorted keys, indent 2."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _write(path, text: str) -> None:
    """Write ``text`` to ``path`` as given (a CSV keeps its CRLFs): every file but the
    streamed transcript."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def batch_summary_dict(runs: list[RunSummary]) -> dict:
    """Aggregate many seeded runs with commutative reductions only.

    Reports per-test decision tallies, mean whole-run average utilities, and
    the mean/max distance of each run's final free period (when present) to
    the announcement. The result is independent of run order.

    Decisions are tallied by (agent, test) and outcome value, so no
    ``Outcome`` is hashed, and a run's final free period is found from its
    end. A run's utility totals are the engine's: integer numerators over
    the agent's ``payoff_table`` denominator. So each run's phases join the
    rows of its length, summed per agent at the end, and the mean is one
    exact Fraction per agent. The final free periods' distances are taken
    together, one row per run, each row the sum ``tv_distance`` forms. The
    runs must be of one game (equal action counts and payoffs), since their
    counts and numerators are read on its cells and denominators.
    """
    if not runs:
        raise InvalidInputError("need at least one run")
    game = runs[0].game
    for i, run in enumerate(runs):
        if run.sigma_m is None:
            raise InvalidInputError(f"run {i} has no announcement (a pure-learning baseline)")
        if run.game is not game and (run.game.action_counts, run.game.payoff_table) != (
                game.action_counts, game.payoff_table):
            raise InvalidInputError(f"runs must share one game: run {i}'s differs from run 0's")
    dens = [den for _, den in game.payoff_table]
    # ((agent, j), outcome value) -> runs
    tallies = Counter((key, d.outcome._value_) for run in runs for key, d in run.decisions.items())
    by_length: dict[int, list] = {}  # run length -> its runs' phases' numerators
    finals = []  # each run's final free period, and its announcement
    for run in runs:
        phases = run.phase_results
        total_rounds = run.num_rounds
        if not total_rounds:
            raise NoDataError(f"run with seed {run.seed} has no rounds to average")
        by_length.setdefault(total_rounds, []).extend([pr.utility_numerators for pr in phases])
        for pr in reversed(phases):
            if pr.phase.kind is PhaseKind.FREE_PERIOD:
                finals.append((pr, run.sigma_m.probs))
                break
    # mean over runs of total / length: over the lengths' lcm, one Fraction per agent
    lcm = math.lcm(*by_length)
    means = [float(Fraction(sum(lcm // length * sum([row[a] for row in rows])
                                for length, rows in by_length.items()), den * lcm * len(runs)))
             for a, den in enumerate(dens)]
    by_test: dict[str, dict] = {}
    for ((agent, j), outcome), n in tallies.items():
        by_test.setdefault(_decision_key(agent, j), {})[outcome] = n
    out = {
        "num_seeds": len(runs),
        "seeds": sorted(run.seed for run in runs),
        "decision_tallies": {test: dict(sorted(tally.items()))
                             for test, tally in sorted(by_test.items())},
        "mean_average_utility": means,
    }
    if finals:
        freqs = (np.array([pr.counts for pr, _ in finals])
                 / np.array([pr.rounds_run for pr, _ in finals])[:, None])
        tvs = (0.5 * np.abs(freqs - np.array([probs for _, probs in finals])).sum(axis=1)).tolist()
        out["final_free_period_tv"] = {
            "mean": math.fsum(tvs) / len(tvs),  # exact rounding: order-free
            "max": max(tvs),
        }
    return out
