"""The sampling test: statistic, sensitivity, worst-case measures, planning.

An agent that follows the announced strategy's signals collects the public
joint-action counts over a block of l_T rounds and compares them against the
announced distribution with a Pearson goodness-of-fit statistic. Planning
works backward from a single target error probability p:

  * alpha = p and the critical value is the (1 - alpha) chi-square quantile
    at df_total = |A| - 1 - |zeta| degrees of freedom (zeta = announced zero
    cells, which are excluded everywhere);
  * psi is the worst case, over nonempty deviating subsets, of the chance
    that uniformly drawn fall-back strategies produce a deviation too small
    to detect (sensitivity below delta_hat) - a Lebesgue-measure ratio
    estimated by Monte Carlo. Sensitivity is quadratic in the composed
    distribution, so each subset D reduces to two arrays W and L on the
    deviators' joint grid, and a sample costs O(prod_{d in D} |A_d|) rather
    than O(|A|). Each agent's fall-backs are drawn once, seeded by (seed,
    agent), and shared by every subset holding that agent. Only the samples
    within reach of the largest threshold pay for the contraction: a
    chi-square floor from one deviator's marginal, which no coarsening can
    raise, drops the rest first. It holds in every subset, so each agent is
    floored once. The survivors of every subset are then contracted in one
    grouped pass: one contraction per grid shape of the deviators, a bounded
    block of rows at a time, so memory beyond the drawn fall-backs and their
    survivors does not grow with mc_samples. One set of draws serves any
    number of thresholds (a schedule's delta_j): each sample's sensitivity is
    counted against all of them at once;
  * the Type-2 budget solves p = (1 - psi) * beta + psi, i.e.
    beta = (p - psi) / (1 - psi). The factor (1 - P)^l_T, the chance that a
    deviation putting per-round mass P on announced-zero cells escapes the
    zero-cell check, is <= 1 and is dropped, which only makes the plan more
    conservative;
  * l_T is the smallest sample size meeting that budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import chi2, streams
from .errors import InfeasiblePlanError, InvalidInputError, ZeroCellObserved
from .errors import check_int, check_positive, check_reals, check_unit
from .games import (
    CorrelatedStrategy,
    Game,
    _announced_probs,
    joint_distribution,
)
from .games import agent_incentive_violations  # noqa: F401 (bench/tracing.py wraps it here)

DEFAULT_MC_SAMPLES = 200_000
MIN_MC_SAMPLES = 1000
MAX_PSI_AGENTS = 12  # 2^n subsets
_CHUNK_ELEMENTS = 1 << 16  # cells of a chunk's sigma stack or survivor matrix, or a block's forms
_FLOOR_MARGIN = 1e-9  # relative slack of the screen's cut, far above the contraction's rounding


class Outcome(Enum):
    FOLLOW_MEDIATOR = "FollowMediator"
    REJECT_BY_EQ2 = "RejectByEq2"
    REJECT_BY_ZERO_CELL = "RejectByZeroCell"
    REJECT_BY_STATISTIC = "RejectByStatistic"


@dataclass(frozen=True)
class Decision:
    """Outcome of one agent's sampling test: the statistic on its ``df``
    degrees of freedom, when one was computed."""

    outcome: Outcome
    statistic: float | None = None
    df: int | None = None

    @property
    def rejected(self) -> bool:
        return self.outcome is not Outcome.FOLLOW_MEDIATOR

    @functools.cached_property
    def p_value(self) -> float | None:
        """The statistic's chi-square survival probability on ``df`` degrees of
        freedom, formed on first read (every agent may read one verdict); None
        without both."""
        if self.statistic is None or self.df is None:
            return None
        return chi2.chi2_sf(self.statistic, self.df)

    def as_dict(self) -> dict:
        """The fields every report of a decision carries: outcome, statistic, p-value."""
        return {"outcome": self.outcome.value, "statistic": self.statistic,
                "p_value": self.p_value}


@dataclass(frozen=True)
class PsiEstimate:
    """Monte-Carlo estimate of the worst-case undetectable-deviation measure."""

    psi: float
    std_error: float
    per_subset: dict[tuple[int, ...], float]
    mc_samples: int


@dataclass(frozen=True)
class PsiCurve:
    """psi at several thresholds, counted from one set of draws.

    ``estimates[k]`` is, bit for bit, what ``estimate_psi`` gives for the
    k-th threshold alone at the same seed.
    """

    estimates: tuple[PsiEstimate, ...]
    mc_samples: int

    @property
    def per_subset(self) -> dict[tuple[int, ...], tuple[float, ...]]:
        """Each deviating subset's undetectable fraction at every threshold."""
        return {devs: tuple(est.per_subset[devs] for est in self.estimates)
                for devs in self.estimates[0].per_subset}


@dataclass(frozen=True)
class TestPlan:
    """Derived parameters of one sampling test."""

    p_target: float
    alpha: float
    critical_value: float
    delta_hat: float
    psi: float | None
    psi_se: float | None
    beta: float
    sample_size: int
    zero_cells: tuple[int, ...]
    df_total: int

    def as_dict(self) -> dict:
        return {**asdict(self), "zero_cells": list(self.zero_cells)}


def pearson_statistic(observed_counts, sigma_m: CorrelatedStrategy, l_t: int) -> float:
    """Pearson goodness-of-fit statistic against the announced distribution.

    Sums (X(a) - l_t*sigma(a))^2 / (l_t*sigma(a)) over every cell with
    positive announced probability. Counts observed on an announced-zero cell
    raise ZeroCellObserved: such an observation refutes the announced
    strategy outright and no statistic is defined. Counts are read by
    ``check_reals`` and must be whole; an integer array, such as the engine's
    int64 counts, skips both checks.
    """
    probs = _announced_probs(sigma_m)
    counts = check_reals(observed_counts, "observed_counts")
    if counts.shape != probs.shape:
        raise InvalidInputError("observed_counts and strategy have different lengths")
    if counts.dtype.kind == "f" and (counts != np.floor(counts)).any():
        raise InvalidInputError(f"observed_counts must be whole numbers, got {counts}")
    if counts.min() < 0:
        raise InvalidInputError("observed_counts must be nonnegative")
    total = int(counts.sum())
    if total != check_int(l_t, "l_t"):
        raise InvalidInputError(f"observed_counts sum to {total}, expected l_t={l_t}")
    zero = sigma_m._zero_mask
    if zero is not None:  # only an announcement with zero cells pays for this pass
        if counts[zero].any():
            raise ZeroCellObserved(np.flatnonzero(zero & (counts > 0)))
        counts, probs = counts[~zero], probs[~zero]
    expected = l_t * probs
    resid = counts - expected
    return float((resid * resid / expected).sum())


def sensitivity_delta(sigma_m, sigma_tilde) -> float | Fraction:
    """Chi-square style divergence of the actually-played distribution.

    delta = sum over announced-positive cells of
    (tilde(a) - sigma(a))^2 / sigma(a). Announced-zero cells are excluded.
    Accepts CorrelatedStrategy or plain sequences; exact rational inputs
    (fractions.Fraction) are computed exactly: their entries are checked by
    ``check_reals``, but summed as given.
    """
    m, t = (s.probs if isinstance(s, CorrelatedStrategy) else s for s in (sigma_m, sigma_tilde))
    for name, v in (("sigma_m", m), ("sigma_tilde", t)):
        if check_reals(v, name).ndim != 1:
            raise InvalidInputError(f"{name} must be one-dimensional")
    if len(m) != len(t):
        raise InvalidInputError("distributions have different lengths")
    total = 0
    for pm, pt in zip(m, t):
        if pm == 0:
            continue
        diff = pt - pm
        total += diff * diff / pm
    return total


def _draws(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """n rows of k raw exponentials: the same values, and the same generator end
    state, as ``exponential((n, k))``. Every fall-back draw passes here."""
    return rng.standard_exponential((n, k))


def _floor(e: np.ndarray, marg: np.ndarray, inv: np.ndarray,
           lmin: np.ndarray | None) -> np.ndarray:
    """Agent d's chi-square floor for each row of its raw exponentials e.

    Coarsening the outcome to deviator d's action cannot raise a chi-square
    divergence. In any subset holding d, the composed distribution puts
    between gamma_d(c) lmin(c) and gamma_d(c) on the positive cells at
    a_d = c, so the sensitivity is at least

      floor_d = sum_{c: sigma_d(c) > 0} dist(sigma_d(c), I_d(c))^2 / sigma_d(c),
      I_d(c) = [gamma_d(c) lmin(c), gamma_d(c)],

    with gamma_d = e / s, s the row sums. ``marg`` and ``inv`` are sigma_d and
    1/sigma_d (0 where sigma_d is 0); ``lmin`` (``_screens``) is None at full
    support, where the floor is chi2(gamma_d || sigma_d) =
    sum_c gamma_d(c)^2 / sigma_d(c) - 1. The row sums come from a GEMV,
    rounded otherwise than the normalization's; the cut's margin covers that.
    """
    s = e @ np.ones(e.shape[1])
    if lmin is None:
        scaled = (e * e) @ inv - s * s
    else:
        ms = s[:, None] * marg
        dist = np.maximum(np.maximum(e * lmin - ms, ms - e), 0.0)
        scaled = (dist * dist) @ inv
    return scaled / (s * s)


def _screens(tensor: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Per agent d, sigma_d, 1/sigma_d (0 where sigma_d is 0) and lmin, for ``_floor``.

    On a slice a_d = c of sigma with no zero cell, every subset holding d puts
    exactly gamma_d(c) on positive cells, so lmin(c) is 1; on a slice holding
    one it is 0. lmin is None at full support.
    """
    full = bool(tensor.all())
    screens = []
    for d in range(tensor.ndim):
        others = tuple(j for j in range(tensor.ndim) if j != d)
        marg = tensor.sum(axis=others)
        positive = marg > 0
        screens.append((marg, np.where(positive, 1.0 / np.where(positive, marg, 1.0), 0.0),
                        None if full else tensor.all(axis=others) * 1.0))
    return screens


def _subset_forms(tensor: np.ndarray, devs: np.ndarray) -> np.ndarray:
    """W and L of the quadratic-form identity for each row of ``devs``.

    The rows of ``devs`` are deviating subsets of one grid shape. Row j of
    the result holds subset j's W and L, each flat over its deviators' grid.
    W(a_D) sums m(a_K)^2 / sigma(a) and L(a_D) sums m(a_K) over the others'
    actions a_K with sigma(a) > 0, where m is sigma's marginal on the others
    (1 when every agent deviates). Each subset's sigma is laid out as
    (a_D, a_K) in one stack, reduced for all of them at once.
    """
    n = tensor.ndim
    grid = math.prod(tensor.shape[d] for d in devs[0])
    sigma = np.array([tensor.transpose(*d, *(i for i in range(n) if i not in d)).reshape(grid, -1)
                      for d in devs.tolist()])
    positive = sigma > 0
    lin = np.where(positive, sigma.sum(axis=1, keepdims=True) if devs.shape[1] < n else 1.0, 0.0)
    quad = lin * lin / np.where(positive, sigma, 1.0)
    forms = np.empty((len(devs), 2, grid))
    quad.sum(axis=2, out=forms[:, 0])
    lin.sum(axis=2, out=forms[:, 1])
    return forms


def _count_below(gammas: list[np.ndarray], forms: np.ndarray, owner: np.ndarray,
                 offset: float, thresholds: np.ndarray) -> np.ndarray:
    """Per subset and ascending threshold, the rows whose sensitivity is below it.

    Row t is a sample of subset ``owner[t]``, whose W and L are
    ``forms[owner[t]]`` (``_subset_forms``); ``gammas[i][t]`` holds its i-th
    deviator's (gamma^2, gamma). The sensitivity <W, (x)_d gamma_d^2> -
    2 <L, (x)_d gamma_d> + offset is contracted one deviator at a time, never
    forming the outer product. Each step is an einsum sum of products over
    one deviator's actions, with no BLAS call, so every row is rounded the
    same way whatever else is contracted with it: alone, in a block of other
    rows, or among other subsets' rows. (A GEMM's rounding of one row can
    change with the matrix shape.) Memory is the rows' forms and the
    contraction's steps; callers pass a block of rows at a time. Returns a
    (len(forms), len(thresholds)) array of counts.
    """
    x = forms.take(owner, axis=0)
    for h in gammas:
        x = np.einsum("nscp,nsc->nsp", x.reshape(len(h), 2, h.shape[2], -1), h)
    delta = x[:, 0, 0] - 2.0 * x[:, 1, 0] + offset
    ranks = len(thresholds) + 1
    # a row of rank k (thresholds at or below it) is below thresholds[k:]
    below = np.bincount(owner * ranks + np.searchsorted(thresholds, delta, side="right"),
                        minlength=len(forms) * ranks)
    return np.cumsum(below.reshape(len(forms), ranks), axis=1)[:, :-1]


def check_draws(mc_samples: int, seed: int) -> int:
    """Refuse a sample count or seed ``estimate_psi`` cannot use; return the seed as an int."""
    check_int(mc_samples, "mc_samples", MIN_MC_SAMPLES)
    return check_int(seed, "seed")


def check_target(p: float, delta_hat: float) -> tuple[float, float]:
    """(p, delta_hat) as given; refuse a test's target error p outside (0, 1) or a bad
    threshold delta_hat."""
    return check_unit(p, "p"), check_positive(delta_hat, "delta_hat")


def _deviating_subsets(game: Game) -> list[tuple[int, ...]]:
    """Nonempty subsets of agents by size, then lexicographic, so subset rank d is
    the single deviator d, whose draws psi seeds by (seed, d)."""
    if game.num_agents > MAX_PSI_AGENTS:
        raise InvalidInputError(
            f"psi estimation enumerates 2^n subsets; {game.num_agents} agents exceed "
            f"the supported maximum of {MAX_PSI_AGENTS}"
        )
    return [devs for r in range(1, game.num_agents + 1)
            for devs in itertools.combinations(range(game.num_agents), r)]


def estimate_psi(
    game: Game,
    sigma_m: CorrelatedStrategy,
    delta_hat: float | Sequence[float],
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> PsiEstimate | PsiCurve:
    """Worst case over deviating subsets of the undetectable-deviation measure.

    For each nonempty subset D of agents, draws their fall-back strategies
    gamma_d uniformly from the product of simplices, composes them with the
    announced strategy's marginal m on the rest K, and estimates the fraction
    whose sensitivity falls below delta_hat. Returns the maximum over subsets
    with the binomial standard error of the maximizing subset. Each agent's
    fall-backs are drawn once, keyed (seed, agent) by ``streams``, and shared
    by every subset holding that agent (common random numbers), so results
    do not depend on evaluation order; the single deviator d is subset rank d.

    ``delta_hat`` may also be a sequence of thresholds. No draw depends on
    the threshold, so every threshold is counted in the same pass over the
    same draws, and the result is a PsiCurve with one PsiEstimate per
    threshold, in the given order.

    The composed distributions are never formed. Over the announced support S,

      delta = <W, (x)_d gamma_d^2> - 2 <L, (x)_d gamma_d> + sum_S sigma

    with W(a_D) = sum_{a_K: sigma(a)>0} m(a_K)^2 / sigma(a) and
    L(a_D) = sum_{a_K: sigma(a)>0} m(a_K), contracted one deviator at a
    time, so a sample costs O(prod_d |A_d|) instead of O(|A|). First, each
    agent's chi-square floor (``_floor``), computed once, drops every sample
    it certifies above the largest threshold in any subset holding the agent.
    The rest take one grouped pass. Each sample's surviving agents are packed
    into an integer code; a subset's rows are the samples whose code holds
    all of its agents, and a subset with none is skipped without reading any
    array of mc_samples entries. Each agent's fall-backs at the samples that
    survive any floor are normalized once. The subsets with survivors are
    grouped by their deviators' grid shape: a group's W and L come from one
    stacked reduction (``_subset_forms``) and its rows, each tagged with its
    subset, from one contraction (``_count_below``). Beyond the draws (mc_samples x |A_d| per
    agent), memory is the survivors' normalized rows, one chunk of a group's
    subsets (their stacked sigma and survivor matrix hold at most
    _CHUNK_ELEMENTS cells, or one subset's rows if more) and one block of
    rows whose forms hold at most _CHUNK_ELEMENTS cells. No step of the
    contraction is a GEMM, whose rounding of a row can change with the
    matrix shape, so a row's sensitivity does not depend on the rows
    contracted with it, and the counts are the unscreened ones exactly, by
    construction.
    """
    curve = np.ndim(delta_hat) > 0
    given = np.asarray(delta_hat, dtype=object).reshape(-1)  # as given: a bool stays one
    if curve and not len(given):
        raise InvalidInputError("delta_hat must hold at least one threshold")
    for k, d in enumerate(given):
        check_positive(d, f"delta_hat[{k}]" if curve else "delta_hat")
    thresholds = given.astype(float)
    seed = check_draws(mc_samples, seed)
    probs = joint_distribution(sigma_m, game)
    tensor = probs.reshape(game.action_counts)
    offset = float(probs[probs > 0].sum())
    order = np.argsort(thresholds, kind="stable")
    t_max = thresholds.max()
    cut = t_max + _FLOOR_MARGIN * (1.0 + t_max)
    subsets = _deviating_subsets(game)
    agents, counts = range(game.num_agents), game.action_counts
    # agent d's fall-backs, shared read-only by every subset holding d; singleton (d,) has rank d
    draws = [_draws(rng, mc_samples, k) for rng, k in zip(streams.generators(seed, agents), counts)]
    for e in draws:
        e.setflags(write=False)
    # bit d of a sample's code: it survives agent d's floor, which holds in every subset
    code = np.zeros(mc_samples, dtype=np.uint16)  # room for MAX_PSI_AGENTS bits
    for d, (e, screen) in enumerate(zip(draws, _screens(tensor))):
        code |= (_floor(e, *screen) <= cut) << np.uint16(d)
    alive = np.flatnonzero(code)
    codes = code[alive]
    # held[b]: the samples whose code holds every bit of b, summed over b's supersets
    held = np.bincount(codes, minlength=1 << len(agents))
    for d in agents:
        pairs = held.reshape(-1, 2, 1 << d)
        pairs[:, 0] += pairs[:, 1]
    # the subsets with survivors, grouped by their deviators' grid shape
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for b in (np.flatnonzero(held[1:]) + 1).tolist():
        devs = tuple(d for d in agents if b >> d & 1)
        groups.setdefault(tuple(counts[d] for d in devs), []).append((b, devs))
    # each agent's fall-backs at those samples, normalized as every sample would be, as
    # rows (gamma^2, gamma) of one table per action count; agent d's row of sample
    # alive[j] is start[d] + j
    tables, start = {}, np.zeros(len(agents), dtype=np.int64)
    for k in set(counts):
        same = [d for d in agents if counts[d] == k]
        g = np.stack([draws[d].take(alive, axis=0) for d in same])
        g /= g.sum(axis=2, keepdims=True)
        tables[k] = np.stack((g * g, g), axis=2).reshape(-1, 2, k)
        start[same] = np.arange(len(same)) * len(alive)
    ascending, unsort = thresholds[order], np.argsort(order)
    below = dict.fromkeys(subsets, [0] * len(thresholds))
    for shape, members in groups.items():
        # a chunk's stack of sigma and survivor matrix, and a block's forms, hold at most
        # _CHUNK_ELEMENTS cells
        size = max(1, _CHUNK_ELEMENTS // max(tensor.size, len(alive)))
        block = max(1, _CHUNK_ELEMENTS // (2 * math.prod(shape)))
        for first in range(0, len(members), size):
            bits, chunk = zip(*members[first:first + size])
            devs = np.array(chunk)
            forms, rows_at = _subset_forms(tensor, devs), start[devs]
            want = np.array(bits, dtype=codes.dtype)[:, None]
            # a subset's rows: the samples whose code holds all its bits, ascending
            owner, rows = np.nonzero((codes & want) == want)
            found = 0
            for lo in range(0, len(owner), block):
                own = owner[lo:lo + block]
                at = rows_at.take(own, axis=0) + rows[lo:lo + block, None]
                gammas = [tables[k].take(at[:, i], axis=0) for i, k in enumerate(shape)]
                found += _count_below(gammas, forms, own, offset, ascending)
            below.update(zip(chunk, found[:, unsort].tolist()))
    estimates = []
    for k in range(len(thresholds)):
        per_subset = {devs: n[k] / mc_samples for devs, n in below.items()}
        psi = max(per_subset.values())
        se = math.sqrt(psi * (1.0 - psi) / mc_samples)
        estimates.append(PsiEstimate(psi=psi, std_error=se, per_subset=per_subset,
                                     mc_samples=mc_samples))
    if curve:
        return PsiCurve(estimates=tuple(estimates), mc_samples=mc_samples)
    return estimates[0]


def _tested_cells(game: Game, sigma_m: CorrelatedStrategy) -> tuple[tuple[int, ...], int]:
    """The announced zero cells zeta and df_total = |A| - 1 - |zeta|.

    Refuses an announcement that leaves fewer than two cells to test.
    """
    probs = joint_distribution(sigma_m, game)
    zeta = sigma_m.zero_cells()
    df_total = len(probs) - 1 - len(zeta)
    if df_total < 1:
        raise InvalidInputError("announced strategy leaves fewer than two cells; no test possible")
    return zeta, df_total


def _assemble_plan(alpha: float, delta_hat: float, beta: float, l_t: int, zeta: tuple[int, ...],
                   df_total: int, est: PsiEstimate | None = None) -> TestPlan:
    """The one TestPlan assembly: p_target is alpha and the critical value is chi2_isf's."""
    return TestPlan(p_target=alpha, alpha=alpha, critical_value=chi2.chi2_isf(alpha, df_total),
                    delta_hat=delta_hat, psi=None if est is None else est.psi,
                    psi_se=None if est is None else est.std_error, beta=beta, sample_size=l_t,
                    zero_cells=zeta, df_total=df_total)


def plan_test(
    game: Game,
    sigma_m: CorrelatedStrategy,
    p: float,
    delta_hat: float,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    psi: PsiEstimate | None = None,
) -> TestPlan:
    """Derive one sampling test's parameters from a target error probability.

    Both error types are budgeted at p: alpha = p, and the Type-2 budget is
    beta = (p - psi)/(1 - psi). Infeasible when psi (estimated) reaches p.
    An estimate already drawn at delta_hat (one point of a schedule's
    PsiCurve) is passed as ``psi``; then nothing is drawn and ``mc_samples``
    and ``seed`` are unused.
    """
    check_target(p, delta_hat)
    zeta, df_total = _tested_cells(game, sigma_m)
    est = psi if psi is not None else estimate_psi(game, sigma_m, delta_hat,
                                                   mc_samples=mc_samples, seed=seed)
    if p <= est.psi:
        raise InfeasiblePlanError(p, est.psi)
    beta = (p - est.psi) / (1.0 - est.psi)
    l_t = chi2.sample_size(p, beta, delta_hat, df_total)
    return _assemble_plan(p, delta_hat, beta, l_t, zeta, df_total, est)


def manual_plan(
    game: Game,
    sigma_m: CorrelatedStrategy,
    alpha: float,
    delta_hat: float,
    sample_size: int,
) -> TestPlan:
    """A plan with explicitly chosen alpha and length, skipping psi solving.

    Used by toy schedules for fast runs; beta reports the achieved Type-2
    probability at the given length and psi is left unset.
    """
    zeta, df_total = _tested_cells(game, sigma_m)
    beta = chi2.power_beta(alpha, delta_hat, df_total, sample_size)
    return _assemble_plan(alpha, delta_hat, beta, sample_size, zeta, df_total)


def run_sampling_decision(plan: TestPlan, sigma_m: CorrelatedStrategy, observed_counts) -> Decision:
    """The verdict of a sampling test on its public counts, the same for every agent.

    A count on an announced-zero cell rejects outright; otherwise the
    statistic decides against the critical value; its survival probability
    (``Decision.p_value``) is formed only when read. It does not run the
    incentive screen: an agent whose own constraints fail
    (``agent_incentive_violations``) rejects without testing, and a caller
    holding an agent screens it first.
    """
    try:
        stat = pearson_statistic(observed_counts, sigma_m, plan.sample_size)
    except ZeroCellObserved:
        return Decision(outcome=Outcome.REJECT_BY_ZERO_CELL)
    outcome = (Outcome.REJECT_BY_STATISTIC if stat >= plan.critical_value
               else Outcome.FOLLOW_MEDIATOR)
    return Decision(outcome=outcome, statistic=stat, df=plan.df_total)
