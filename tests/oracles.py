"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's own code paths: the equilibrium check
is a direct triple loop over (agent, signal, deviation) computed from raw
arrays, deviations are composed cell by cell, fall-backs are drawn as they
first were (one ``exponential((n, k))`` call, each row over its sum), psi is
estimated from dense composed distributions of those draws (and the
zero-cell mass bounding psi's screen is summed one joint action at a time),
psi's screened counts are also taken one deviating subset at a time, the
way they first were (each subset's survivors contracted by GEMM),
fictitious play's choice is summed in Fractions over every joint action, and
the repeated game, like the pure-learning baseline, is replayed by a plain
per-round loop that draws each action with the scalar ``sample_strategy``
(not the engine's block sampler); at every test it screens each agent's
incentive constraints anew before taking the public verdict. The transcript CSV is written one record at a time, and the
expected play of a free period's first rounds is enumerated exactly, history
by history. The least sample size meeting a Type-2 target is found by
doubling n and bisecting the last doubling. A batch of seeded runs is
played one seed after another, with fresh learners and every generator and
fall-back made up front.
"""

import csv
import itertools
import math
from fractions import Fraction
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from advicecheck import (
    CorrelatedStrategy,
    Decision,
    Game,
    MixedStrategy,
    Mode,
    Outcome,
    Phase,
    PhaseKind,
    make_learner,
    run_sampling_decision,
)
from advicecheck import sim, verifier
from advicecheck.agents import sample_strategy
from advicecheck.chi2 import power_beta
from advicecheck.errors import InvalidInputError, check_int, check_unit
from advicecheck.games import (
    _composed,
    _others_marginal,
    agent_incentive_violations,
    joint_distribution,
)

# seeds at SeedSequence's word edges: a seed of 2**128 or more has five or more
# entropy words, so more mixing stages
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64, 2**96, 2**128 - 1, 2**128, 2**200]


class Row(NamedTuple):
    """One round of ``per_round_game``: what the transcript CSV writes for it."""

    t: int
    phase_kind: str
    phase_index: int
    signals: tuple[int, ...]
    joint_index: int
    actions: tuple[int, ...]
    utilities: tuple[float, ...]


def brute_force_violations(action_counts, utilities, probs, tol=1e-9):
    """Direct enumeration of every incentive constraint: the failing ones as
    (agent, signal, deviation, gap), in agent, signal, deviation order."""
    n = len(action_counts)
    joints = list(itertools.product(*[range(c) for c in action_counts]))
    index = {a: i for i, a in enumerate(joints)}
    out = []
    for agent in range(n):
        for signal in range(action_counts[agent]):
            cells = [a for a in joints if a[agent] == signal]
            marginal = sum(probs[index[a]] for a in cells)
            if marginal <= 0:
                continue
            follow = sum(probs[index[a]] * utilities[index[a]][agent] for a in cells)
            for alt in range(action_counts[agent]):
                if alt == signal:
                    continue
                dev = 0.0
                for a in cells:
                    swapped = list(a)
                    swapped[agent] = alt
                    dev += probs[index[a]] * utilities[index[tuple(swapped)]][agent]
                if (dev - follow) / marginal > tol:
                    out.append((agent, signal, alt, (dev - follow) / marginal))
    return out


def brute_force_ce(action_counts, utilities, probs, tol=1e-9):
    """Whether no incentive constraint fails, by direct enumeration."""
    return not brute_force_violations(action_counts, utilities, probs, tol)


def random_game_and_strategy(rng):
    """A random game with 2-3 agents and 2-3 actions each, plus a strategy."""
    n = int(rng.integers(2, 4))
    counts = [int(rng.integers(2, 4)) for _ in range(n)]
    num_joint = int(np.prod(counts))
    utilities = rng.uniform(0, 5, size=(num_joint, n))
    raw = rng.uniform(0, 1, size=num_joint)
    if rng.random() < 0.3:
        raw[rng.integers(0, num_joint)] = 0.0  # exercise zero-marginal handling
    probs = raw / raw.sum()
    return Game(counts, utilities), CorrelatedStrategy(probs)


def per_cell_compose(sigma, game, deviations):
    """Row-major probabilities of ``compose_deviation``, one joint action at a time.

    Each cell starts from the non-deviators' marginal (1.0 when every agent
    deviates) and multiplies in the deviators' probabilities in the dict's order.
    """
    devs = {int(i): np.asarray(getattr(v, "probs", v), dtype=float) for i, v in deviations.items()}
    tensor = joint_distribution(sigma, game).reshape(game.action_counts)
    marg = tensor.sum(axis=tuple(devs)) if devs else tensor
    keep = [i for i in range(game.num_agents) if i not in devs]
    out = np.zeros(game.action_counts)
    for idx in np.ndindex(*game.action_counts):
        p = float(marg[tuple(idx[i] for i in keep)]) if keep else 1.0
        for i, v in devs.items():
            p *= float(v[idx[i]])
        out[idx] = p
    return out.ravel()


def simplex_rows(rng, n, k):
    """n points drawn uniformly from the k-simplex by one ``exponential((n, k))``
    call, each row over its sum: the stream psi and the fall-backs were first
    drawn from."""
    g = rng.exponential(size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def dense_sensitivities(game, sigma_m, mc_samples, seed=0):
    """Each deviating subset's per-sample sensitivities, from dense composed distributions.

    Same draws as ``estimate_psi``: agent d's (mc_samples, |A_d|) normalized
    exponentials drawn whole from its own generator, SeedSequence(seed,
    spawn_key=(d,)), and shared by every subset holding d. Every sample's
    composed distribution over all |A| joint actions is formed column by
    column and its sensitivity summed over the announced support.
    """
    probs = joint_distribution(sigma_m, game)
    tensor = probs.reshape(game.action_counts)
    mask = probs > 0
    gammas = {d: simplex_rows(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(d,))),
                              mc_samples, k)
              for d, k in enumerate(game.action_counts)}
    out = {}
    for r in range(1, game.num_agents + 1):
        for devs in itertools.combinations(range(game.num_agents), r):
            keep = [i for i in range(game.num_agents) if i not in devs]
            marg = tensor.sum(axis=devs)
            composed = np.empty((mc_samples, game.num_joint_actions))
            for flat, idx in enumerate(np.ndindex(*game.action_counts)):
                col = np.full(mc_samples, float(marg[tuple(idx[i] for i in keep)]) if keep else 1.0)
                for d in devs:
                    col = col * gammas[d][:, idx[d]]
                composed[:, flat] = col
            diff = composed[:, mask] - probs[mask]
            out[devs] = (diff * diff / probs[mask]).sum(axis=1)
    return out


def dense_psi(game, sigma_m, delta_hat, mc_samples, seed=0):
    """Per-subset undetectable fractions: the share of ``dense_sensitivities``
    below delta_hat."""
    return {devs: float((delta < delta_hat).mean())
            for devs, delta in dense_sensitivities(game, sigma_m, mc_samples, seed).items()}


def per_subset_psi_counts(game, sigma_m, thresholds, mc_samples, seed=0):
    """Each deviating subset's samples below every threshold, one subset at a time.

    psi's first screened loop: the draws and chi-square screen of
    ``estimate_psi`` (``verifier._draws``, ``_screens`` and ``_floor``), then
    per subset the intersection of its agents' screens, its survivors'
    fall-backs normalized, its W and L summed over the others' axes, and the
    survivors contracted against them by GEMM. Returns {devs: counts}, the
    counts in the thresholds' given order and the subsets by size, then
    lexicographic.
    """
    thresholds = np.asarray(thresholds, dtype=float).reshape(-1)
    probs = joint_distribution(sigma_m, game)
    tensor = probs.reshape(game.action_counts)
    positive = tensor > 0
    offset = float(probs[positive.ravel()].sum())
    order = np.argsort(thresholds, kind="stable")
    t_max = thresholds.max()
    cut = t_max + verifier._FLOOR_MARGIN * (1.0 + t_max)
    draws = [verifier._draws(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(d,))),
                             mc_samples, k) for d, k in enumerate(game.action_counts)]
    masks = [verifier._floor(e, *screen) <= cut
             for e, screen in zip(draws, verifier._screens(tensor))]
    below = {}
    for r in range(1, game.num_agents + 1):
        for devs in itertools.combinations(range(game.num_agents), r):
            counts = np.zeros(len(thresholds), dtype=np.int64)
            alive = np.flatnonzero(np.logical_and.reduce([masks[d] for d in devs]))
            if len(alive):
                gammas = [draws[d].take(alive, axis=0) for d in devs]
                for g in gammas:
                    g /= g.sum(axis=1, keepdims=True)
                keep = tuple(i for i in range(game.num_agents) if i not in devs)
                lin = np.where(positive, _others_marginal(tensor, devs), 0.0)
                quad = lin * lin / np.where(positive, tensor, 1.0)
                counts[order] = _gemm_count_below(gammas, quad.sum(axis=keep).ravel(),
                                                  lin.sum(axis=keep).ravel(), offset,
                                                  thresholds[order])
            below[devs] = counts.tolist()
    return below


def _gemm_count_below(gammas, w, lin, offset, thresholds, cells=1 << 15):
    """Per ascending threshold, the samples whose sensitivity is below it: the
    last deviator's axis by one GEMM each against W and L, every other by a
    per-sample multiply-sum, rows a block of at most ``cells`` GEMM outputs at
    a time."""
    n, last = gammas[-1].shape
    w, lin = w.reshape(-1, last), lin.reshape(-1, last)
    rows = max(1, cells // len(w))
    ranks = np.zeros(len(thresholds) + 1, dtype=np.int64)
    for start in range(0, n, rows):
        g = gammas[-1][start:start + rows]
        quad, line = (g * g) @ w.T, g @ lin.T
        for gamma in reversed(gammas[:-1]):
            g = gamma[start:start + rows]
            quad = np.einsum("npc,nc->np", quad.reshape(len(g), -1, g.shape[1]), g * g)
            line = np.einsum("npc,nc->np", line.reshape(len(g), -1, g.shape[1]), g)
        delta = quad[:, 0] - 2.0 * line[:, 0] + offset
        ranks += np.bincount(np.searchsorted(thresholds, delta, side="right"),
                             minlength=len(ranks))
    return np.cumsum(ranks)[:-1]


def positive_mass_floor(game, sigma_m, devs, d):
    """1 - zmax_d for deviator d of subset ``devs``, one joint action at a time.

    zmax_d(c) is the largest, over the other deviators' actions, of the mass
    the non-deviators' marginal m puts on announced-zero cells at a_d = c
    (m is 1.0 when every agent deviates).
    """
    probs = joint_distribution(sigma_m, game)
    marg = probs.reshape(game.action_counts).sum(axis=devs)
    keep = [i for i in range(game.num_agents) if i not in devs]
    zero_mass = {}
    for flat, idx in enumerate(np.ndindex(*game.action_counts)):
        own = tuple(idx[i] for i in devs)
        zero_mass.setdefault(own, 0.0)
        if probs[flat] == 0:
            zero_mass[own] += float(marg[tuple(idx[i] for i in keep)]) if keep else 1.0
    pos = devs.index(d)
    zmax = [max(z for own, z in zero_mass.items() if own[pos] == c)
            for c in range(game.action_counts[d])]
    return 1.0 - np.array(zmax)


@dataclass
class AgentState:
    """One agent's state and policy as the engine once kept it, per agent: a
    reference for ``Mode.plays`` and ``Mode.conclude`` written independently
    of them (the fall-back is a probability vector, or None while following)."""

    id: int
    fallback: np.ndarray | None
    learner: object
    mode: Mode = Mode.FOLLOWING_MEDIATOR

    def strategy(self, phase):
        """None while following (it plays its signal), the fall-back vector in
        sampling tests, and the learner's current strategy in free periods."""
        if self.mode is Mode.FOLLOWING_MEDIATOR:
            return None
        if phase.kind is PhaseKind.SAMPLING_TEST:
            return self.fallback
        return self.learner.next_strategy()

    def learns(self, phase) -> bool:
        """Whether the learner observes the phase's rounds: rejected, in a free period."""
        return phase.kind is PhaseKind.FREE_PERIOD and self.mode is not Mode.FOLLOWING_MEDIATOR

    def play(self, phase):
        """The play ``sim._step`` takes: the learner itself where it learns, else
        ``strategy(phase)``."""
        return self.learner if self.learns(phase) else self.strategy(phase)

    def conclude(self, verdict):
        """The decision on a completed test's public ``verdict``, which sets the
        mode: a screened agent rejects without testing; any other takes the
        verdict, and is rejected by the test exactly when it rejects."""
        if self.mode is Mode.REJECTED_BY_EQ2:
            return _SCREENED
        self.mode = Mode.REJECTED_BY_TEST if verdict.rejected else Mode.FOLLOWING_MEDIATOR
        return verdict


_SCREENED = Decision(Outcome.REJECT_BY_EQ2)


def act(state, phase, signal, rng):
    """One round of an agent's play: its signal component when following,
    else one ``sample_strategy`` draw from its fall-back (sampling tests) or
    its learner's strategy (free periods)."""
    if state.mode is Mode.FOLLOWING_MEDIATOR:
        return signal
    if phase.kind is PhaseKind.SAMPLING_TEST:
        return sample_strategy(state.fallback, rng)
    return sample_strategy(state.learner.next_strategy(), rng)


def fictitious_play_choice(action_counts, utilities, agent, counts):
    """Fictitious play's action in exact arithmetic, joint action by joint action.

    Each own action is worth the sum, over the joint actions that contain it,
    of ``Fraction(u_agent)`` times the product of the opponents' observation
    counts ``counts[j][a_j]`` (an opponent never observed counts 1 on every
    action: the uniform prior). The lowest-index maximum is returned.
    """
    values = [Fraction(0)] * action_counts[agent]
    joints = itertools.product(*[range(c) for c in action_counts])
    for joint, row in zip(joints, utilities):
        weight = 1
        for j, a in enumerate(joint):
            if j != agent:
                weight *= counts[j][a] if any(counts[j]) else 1
        values[joint[agent]] += Fraction(float(row[agent])) * weight
    return values.index(max(values))


def per_round_game(game, sigma_m, schedule, agent_configs=None, seed=0, rounds=None):
    """Round-by-round reference for ``run_game``: (rows, decisions).

    Same seeding and random streams as the engine: one SeedSequence child for
    the mediator and one per agent, whose generator first draws the agent's
    fall-back (normalized exponentials) when none is configured. Every round
    draws nothing in bulk: the mediator's signals for a phase come from one
    ``choice`` call, then each agent acts and rejected agents learn from every
    free-period round.
    """
    configs = agent_configs or [{} for _ in range(game.num_agents)]
    children = np.random.SeedSequence(seed).spawn(1 + game.num_agents)
    mediator_rng = np.random.default_rng(children[0])
    rngs, states = [], []
    for i, cfg in enumerate(configs):
        rng = np.random.default_rng(children[1 + i])
        rngs.append(rng)
        if cfg.get("fallback") is not None:
            fallback = MixedStrategy(cfg["fallback"]).probs
        elif game.action_counts[i] == 1:
            fallback = np.ones(1)
        else:
            g = rng.exponential(size=game.action_counts[i])
            fallback = g / g.sum()
        screened = agent_incentive_violations(game, sigma_m, i)
        states.append(AgentState(
            id=i, fallback=fallback, learner=make_learner(cfg.get("learner"), game, i),
            mode=Mode.REJECTED_BY_EQ2 if screened else Mode.FOLLOWING_MEDIATOR,
        ))
    modes = {Outcome.FOLLOW_MEDIATOR: Mode.FOLLOWING_MEDIATOR, Outcome.REJECT_BY_EQ2: Mode.REJECTED_BY_EQ2}
    horizon = schedule.horizon if rounds is None else min(rounds, schedule.horizon)
    rows, decisions = [], {}
    for phase in schedule.phases:
        if phase.begin > horizon:
            break
        length = min(phase.end, horizon) - phase.begin + 1
        free = phase.kind is PhaseKind.FREE_PERIOD
        if free:
            for st in states:
                st.learner.reset()
        signals = mediator_rng.choice(game.num_joint_actions, size=length, p=sigma_m.probs)
        counts = np.zeros(game.num_joint_actions, dtype=np.int64)
        for off in range(length):
            components = game.joint_action(int(signals[off]))
            actions = tuple(act(st, phase, components[st.id], rngs[st.id]) for st in states)
            joint = game.joint_index(actions)
            counts[joint] += 1
            if free:
                for st in states:
                    if st.mode.rejected:
                        st.learner.observe(actions)
            rows.append(Row(
                t=phase.begin + off, phase_kind=phase.kind.value, phase_index=phase.index,
                signals=components, joint_index=joint, actions=actions,
                utilities=tuple(float(u) for u in game.utilities[joint]),
            ))
        plan = schedule.plan_for(phase.index) if phase.kind is PhaseKind.SAMPLING_TEST else None
        if plan is not None and length == phase.length:
            for st in states:
                # each agent screens its own constraints, then takes the verdict
                if agent_incentive_violations(game, sigma_m, st.id):
                    decision = Decision(Outcome.REJECT_BY_EQ2)
                else:
                    decision = run_sampling_decision(plan, sigma_m, counts)
                decisions[(st.id, phase.index)] = decision
                st.mode = modes.get(decision.outcome, Mode.REJECTED_BY_TEST)
    return rows, decisions


def exact_window_expectation(
    game: Game, learner_specs, rounds: int, prepare=None
) -> list[list[Fraction]]:
    """Exact per-round expected joint-action distribution under joint learning.

    Enumerates every joint-action history of the given length, weighting by
    the product of the learners' strategies (all agents run their learners
    from a fresh start, as at a free period's beginning). ``prepare``, when
    given, replaces the default construction of fresh learners - e.g. to
    exercise reset machinery by feeding a pre-period history and resetting.
    Exponential in ``rounds``; intended for micro-horizons.
    """
    check_int(rounds, "rounds")
    n_joint = game.num_joint_actions
    totals: list[list[Fraction]] = [[Fraction(0)] * n_joint for _ in range(rounds)]
    joint_actions = list(game.all_joint_actions())
    if prepare is None:
        def prepare():
            return [make_learner(spec, game, i) for i, spec in enumerate(learner_specs)]

    def strategies_after(history):
        learners = prepare()
        for joint in history:
            for ln in learners:
                ln.observe(joint)
        return [ln.next_strategy() for ln in learners]

    def recurse(history, prob, depth):
        if depth == rounds:
            return
        strats = strategies_after(history)
        for flat, idx in enumerate(joint_actions):
            p = prob
            for i, s in enumerate(strats):
                p *= Fraction(float(s[idx[i]]))
                if p == 0:
                    break
            if p == 0:
                continue
            totals[depth][flat] += p
            recurse(history + [idx], p, depth + 1)

    recurse([], Fraction(1), 0)
    return totals


def phase_columns(game, rows):
    """Per phase of ``per_round_game``'s rows, in order: (kind, index, begin,
    joint signal indices, joint action indices), as a transcript's phase
    results store them."""
    return [
        (kind, index, mine[0].t, [game.joint_index(r.signals) for r in mine],
         [r.joint_index for r in mine])
        for (kind, index), group in itertools.groupby(rows, lambda r: (r.phase_kind, r.phase_index))
        for mine in [list(group)]
    ]


def per_round_pure_learning(game, learner_specs, rounds, seed=0):
    """Round-by-round reference for ``run_pure_learning``: (counts, utility totals).

    Every agent is rejected, with a fresh learner and its own generator from
    SeedSequence(seed).spawn(n). Each round every agent samples its learner's
    strategy through ``act`` and every learner observes the joint action.
    """
    states = [
        AgentState(id=i, fallback=None, learner=make_learner(spec, game, i),
                   mode=Mode.REJECTED_BY_TEST)
        for i, spec in enumerate(learner_specs)
    ]
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(game.num_agents)]
    phase = Phase(PhaseKind.FREE_PERIOD, 1, 1, max(rounds, 1))
    counts = np.zeros(game.num_joint_actions, dtype=np.int64)
    for _ in range(rounds):
        actions = tuple(act(st, phase, None, rngs[st.id]) for st in states)
        counts[game.joint_index(actions)] += 1
        for st in states:
            st.learner.observe(actions)
    totals = tuple(
        sum((int(n) * Fraction(float(u)) for n, u in zip(counts, game.utilities[:, agent])),
            Fraction(0))
        for agent in range(game.num_agents)
    )
    return counts, totals


def write_rows_csv(rows, num_agents, path):
    """Reference for ``transcript_to_csv``: one CSV row per ``Row``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "phase", "j"]
            + [f"signal_{i+1}" for i in range(num_agents)]
            + [f"action_{i+1}" for i in range(num_agents)]
            + [f"utility_{i+1}" for i in range(num_agents)]
        )
        for rec in rows:
            writer.writerow(
                [rec.t, rec.phase_kind, rec.phase_index]
                + list(rec.signals)
                + list(rec.actions)
                + [repr(u) for u in rec.utilities]
            )


def bisect_sample_size(alpha, beta_target, delta_hat, df_total):
    """Reference for ``chi2.sample_size``: double n from 2 until beta meets the
    target, then bisect the last doubling."""
    check_unit(beta_target, "beta_target")

    def beta_at(n: int) -> float:
        return power_beta(alpha, delta_hat, df_total, n)

    if beta_at(1) <= beta_target:
        return 1
    hi = 2
    while beta_at(hi) > beta_target:
        hi *= 2
        if hi > 2 ** 62:
            raise InvalidInputError(
                f"no sample size up to 2^62 meets beta={beta_target} at alpha={alpha}, "
                f"delta_hat={delta_hat}"
            )
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if beta_at(mid) <= beta_target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class SeedPhase(NamedTuple):
    """One phase of a ``per_seed_counts`` run, its utility totals Fraction sums."""

    phase: Phase
    rounds_run: int
    counts: np.ndarray
    utility_totals: tuple[Fraction, ...]


def iid_deviators(states, phase):
    """Each deviating agent's ``strategy(phase)``, or None if one is sequential:
    a learning agent is i.i.d. only when its learner's strategy holds for ever."""
    deviators = {}
    for st in states:
        if st.learns(phase) and st.learner.stable_rounds() != math.inf:
            return None
        strategy = st.strategy(phase)
        if strategy is not None:
            deviators[st.id] = strategy
    return deviators


def per_seed_counts(game, sigma_m, schedule, agent_configs, seeds, rounds=None):
    """Reference for ``run_batch``: one seed after another, every generator and
    drawn fall-back made up front.

    Each seed builds fresh learners from the configs' specs, spawns the
    mediator's and every agent's generator from ``SeedSequence(seed).spawn``,
    draws each missing fall-back at once (a lone vector over its own sum, not
    the engine's batch normalization), then plays its whole schedule before
    the next seed starts: an i.i.d. phase (``iid_deviators``, decided per seed)
    is one multinomial from the deviators composed one run at a time, any
    other phase is stepped, and utility totals are Fraction sums over the
    counts.
    """
    setup = sim._setup(game, sigma_m, schedule, agent_configs, rounds)
    specs = [cfg.get("learner") for cfg in agent_configs or [{}] * game.num_agents]
    columns = game.utilities.T.tolist()
    runs = []
    for seed in seeds:
        run = sim.RunSummary(seed=seed, game=game, sigma_m=sigma_m)
        children = np.random.SeedSequence(seed).spawn(1 + game.num_agents)
        mediator_rng = np.random.default_rng(children[0])
        agent_rngs = [np.random.default_rng(child) for child in children[1:]]
        states = []
        for i, (fallback, spec, mode, rng) in enumerate(
                zip(setup.fallbacks, specs, setup.modes, agent_rngs)):
            if fallback is None:  # a lone vector over its own sum, as in per_round_game
                k = game.action_counts[i]
                g = np.ones(1) if k == 1 else rng.exponential(size=k)
                fallback = g / g.sum()
            states.append(AgentState(id=i, fallback=fallback, learner=make_learner(spec, game, i),
                                     mode=mode))

        def draw_signals(lo, hi):
            return mediator_rng.choice(game.num_joint_actions, size=hi - lo, p=setup.probs)

        for phase in schedule.phases:
            if phase.begin > setup.horizon:
                break
            length = min(phase.end, setup.horizon) - phase.begin + 1
            if phase.kind is PhaseKind.FREE_PERIOD:
                for st in states:
                    st.learner.reset()
            deviators = iid_deviators(states, phase)
            if deviators is not None:
                dist = (_composed(_others_marginal(setup.tensor, tuple(deviators)), game, deviators)
                        if deviators else setup.probs)
                counts = mediator_rng.multinomial(length, dist).astype(np.int64)
            else:
                counts = sim._step(game, phase, [st.play(phase) for st in states], agent_rngs,
                                   length, draw_signals)
            totals = tuple(sum((c * Fraction(u) for c, u in zip(counts.tolist(), column)),
                               Fraction(0)) for column in columns)
            run.phase_results.append(SeedPhase(phase, length, counts, totals))
            if phase.kind is PhaseKind.SAMPLING_TEST and length == phase.length:
                plan = schedule.plan_for(phase.index)
                if plan is not None:
                    verdict = (run_sampling_decision(plan, sigma_m, counts)
                               if any(st.mode is not Mode.REJECTED_BY_EQ2 for st in states)
                               else None)
                    for st in states:
                        run.decisions[(st.id, phase.index)] = st.conclude(verdict)
        runs.append(run)
    return runs
