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
    than O(|A|); samples are contracted a fixed-size block at a time, so
    memory beyond the drawn fall-backs does not grow with mc_samples;
  * the Type-2 budget solves p = (1 - psi) * beta + psi, i.e.
    beta = (p - psi) / (1 - psi) (the (1-P)^l_T zero-cell factor is <= 1 and
    is dropped, which only makes the plan more conservative);
  * l_T is the smallest sample size meeting that budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import chi2
from .errors import InfeasiblePlanError, InvalidInputError, ZeroCellObserved
from .games import (
    CorrelatedStrategy,
    Game,
    _others_marginal,
    compose_deviation,
    joint_distribution,
)
from .games import agent_incentive_violations  # noqa: F401 (bench/tracing.py wraps it here)

DEFAULT_MC_SAMPLES = 200_000
MIN_MC_SAMPLES = 1000
MAX_PSI_AGENTS = 12  # 2^n subsets
_CHUNK_ELEMENTS = 1 << 15  # cells of the per-sample outer product held at once


class Outcome(Enum):
    FOLLOW_MEDIATOR = "FollowMediator"
    REJECT_BY_EQ2 = "RejectByEq2"
    REJECT_BY_ZERO_CELL = "RejectByZeroCell"
    REJECT_BY_STATISTIC = "RejectByStatistic"


@dataclass(frozen=True)
class Decision:
    """Outcome of one agent's sampling test."""

    outcome: Outcome
    statistic: float | None = None
    p_value: float | None = None

    @property
    def rejected(self) -> bool:
        return self.outcome is not Outcome.FOLLOW_MEDIATOR


@dataclass(frozen=True)
class PsiEstimate:
    """Monte-Carlo estimate of the worst-case undetectable-deviation measure."""

    psi: float
    std_error: float
    per_subset: dict[tuple[int, ...], float]
    mc_samples: int


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
    strategy outright and no statistic is defined.
    """
    counts = np.asarray(observed_counts)
    probs = sigma_m.probs
    if counts.shape != probs.shape:
        raise InvalidInputError("observed_counts and strategy have different lengths")
    if np.any(counts < 0):
        raise InvalidInputError("observed_counts must be nonnegative")
    total = int(counts.sum())
    if total != int(l_t):
        raise InvalidInputError(f"observed_counts sum to {total}, expected l_t={l_t}")
    zero = probs == 0.0
    if np.any(counts[zero] > 0):
        raise ZeroCellObserved(np.flatnonzero(zero & (counts > 0)))
    expected = l_t * probs[~zero]
    resid = counts[~zero] - expected
    return float((resid * resid / expected).sum())


def _prob_seq(sigma):
    if isinstance(sigma, CorrelatedStrategy):
        return list(sigma.probs)
    return list(sigma)


def sensitivity_delta(sigma_m, sigma_tilde) -> float | Fraction:
    """Chi-square style divergence of the actually-played distribution.

    delta = sum over announced-positive cells of
    (tilde(a) - sigma(a))^2 / sigma(a). Announced-zero cells are excluded.
    Accepts CorrelatedStrategy or plain sequences; exact rational inputs
    (fractions.Fraction) are computed exactly.
    """
    m = _prob_seq(sigma_m)
    t = _prob_seq(sigma_tilde)
    if len(m) != len(t):
        raise InvalidInputError("distributions have different lengths")
    total = 0
    for pm, pt in zip(m, t):
        if pm == 0:
            continue
        diff = pt - pm
        total += diff * diff / pm
    return total


def _uniform_simplex(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    g = rng.exponential(size=(n, dim))
    return g / g.sum(axis=1, keepdims=True)


def _subset_forms(tensor: np.ndarray, devs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """W and L of the quadratic-form identity, flat over the deviators' grid.

    W(a_D) sums m(a_K)^2 / sigma(a) and L(a_D) sums m(a_K) over the others'
    actions a_K with sigma(a) > 0, where m is sigma's marginal on the others
    (1 when every agent deviates).
    """
    keep = tuple(i for i in range(tensor.ndim) if i not in devs)
    positive = tensor > 0
    lin = np.where(positive, _others_marginal(tensor, devs), 0.0)
    quad = lin * lin / np.where(positive, tensor, 1.0)
    return quad.sum(axis=keep).ravel(), lin.sum(axis=keep).ravel()


def _count_below(gammas: list[np.ndarray], w: np.ndarray, lin: np.ndarray,
                 offset: float, delta_hat: float) -> int:
    """Samples whose sensitivity <P*P, W> - 2 <P, L> + offset is below delta_hat.

    P is the per-sample outer product of the deviators' gammas; it is formed
    a block of rows at a time so that memory stays bounded in the sample count.
    """
    n = gammas[0].shape[0]
    rows = max(1, _CHUNK_ELEMENTS // w.size)
    below = 0
    for start in range(0, n, rows):
        block = [g[start:start + rows] for g in gammas]
        outer = block[0]
        for g in block[1:]:
            outer = (outer[:, :, None] * g[:, None, :]).reshape(len(outer), -1)
        delta = (outer * outer) @ w - 2.0 * (outer @ lin) + offset
        below += int(np.count_nonzero(delta < delta_hat))
    return below


def estimate_psi(
    game: Game,
    sigma_m: CorrelatedStrategy,
    delta_hat: float,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> PsiEstimate:
    """Worst case over deviating subsets of the undetectable-deviation measure.

    For each nonempty subset D of agents, draws their fall-back strategies
    gamma_d uniformly from the product of simplices, composes them with the
    announced strategy's marginal m on the rest K, and estimates the fraction
    whose sensitivity falls below delta_hat. Returns the maximum over subsets
    with the binomial standard error of the maximizing subset. Per-subset draws
    use sub-seeds derived from (seed, subset rank), so results do not depend on
    evaluation order.

    The composed distributions are never formed. Over the announced support S,

      delta = <W, (x)_d gamma_d^2> - 2 <L, (x)_d gamma_d> + sum_S sigma

    with W(a_D) = sum_{a_K: sigma(a)>0} m(a_K)^2 / sigma(a) and
    L(a_D) = sum_{a_K: sigma(a)>0} m(a_K), built once per subset. Each sample
    then costs O(prod_d |A_d|) instead of O(|A|), and beyond the gammas
    (mc_samples x |A_d| per deviator) memory is one fixed-size block of rows,
    whatever mc_samples is.
    """
    if not math.isfinite(delta_hat) or delta_hat <= 0:
        raise InvalidInputError(f"delta_hat must be positive and finite, got {delta_hat}")
    if mc_samples < MIN_MC_SAMPLES:
        raise InvalidInputError(f"mc_samples must be at least {MIN_MC_SAMPLES}")
    if game.num_agents > MAX_PSI_AGENTS:
        raise InvalidInputError(
            f"psi estimation enumerates 2^n subsets; {game.num_agents} agents exceed "
            f"the supported maximum of {MAX_PSI_AGENTS}"
        )
    probs = joint_distribution(sigma_m, game)
    tensor = probs.reshape(game.action_counts)
    offset = float(probs[probs > 0].sum())
    per_subset: dict[tuple[int, ...], float] = {}
    best = (0.0, 0.0)
    rank = 0
    for r in range(1, game.num_agents + 1):
        for devs in itertools.combinations(range(game.num_agents), r):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rank,)))
            gammas = [_uniform_simplex(rng, mc_samples, game.action_counts[d]) for d in devs]
            w, lin = _subset_forms(tensor, devs)
            frac = _count_below(gammas, w, lin, offset, delta_hat) / mc_samples
            per_subset[devs] = frac
            if frac >= best[0]:
                best = (frac, math.sqrt(frac * (1.0 - frac) / mc_samples))
            rank += 1
    return PsiEstimate(psi=best[0], std_error=best[1], per_subset=per_subset, mc_samples=mc_samples)


def prob_zero_cell_bound(game: Game, sigma_m: CorrelatedStrategy) -> float:
    """Lower bound on the per-round chance of landing in an announced-zero cell.

    P = sum over zero cells of the minimum, over nonempty deviating subsets,
    of the announcement composed with uniformly mixing deviators. Zero when
    the announced strategy has full support.
    """
    zeta = list(sigma_m.zero_cells())
    if not zeta:
        return 0.0
    best = np.full(len(zeta), math.inf)
    for r in range(1, game.num_agents + 1):
        for devs in itertools.combinations(range(game.num_agents), r):
            uniform = {d: np.full(game.action_counts[d], 1.0 / game.action_counts[d]) for d in devs}
            best = np.minimum(best, compose_deviation(sigma_m, game, uniform).probs[zeta])
    return float(best.sum())


def _tested_cells(game: Game, sigma_m: CorrelatedStrategy) -> tuple[tuple[int, ...], int]:
    """The announced zero cells zeta and df_total = |A| - 1 - |zeta|.

    Refuses an announcement that leaves fewer than two cells to test.
    """
    zeta = sigma_m.zero_cells()
    df_total = len(joint_distribution(sigma_m, game)) - 1 - len(zeta)
    if df_total < 1:
        raise InvalidInputError("announced strategy leaves fewer than two cells; no test possible")
    return zeta, df_total


def plan_test(
    game: Game,
    sigma_m: CorrelatedStrategy,
    p: float,
    delta_hat: float,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> TestPlan:
    """Derive one sampling test's parameters from a target error probability.

    Both error types are budgeted at p: alpha = p, and the Type-2 budget is
    beta = (p - psi)/(1 - psi). Infeasible when psi (estimated) reaches p.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"p must be in (0, 1), got {p}")
    if not math.isfinite(delta_hat) or delta_hat <= 0.0:
        raise InvalidInputError(f"delta_hat must be positive and finite, got {delta_hat}")
    zeta, df_total = _tested_cells(game, sigma_m)
    est = estimate_psi(game, sigma_m, delta_hat, mc_samples=mc_samples, seed=seed)
    if p <= est.psi:
        raise InfeasiblePlanError(p, est.psi)
    beta = (p - est.psi) / (1.0 - est.psi)
    alpha = p
    l_t = chi2.sample_size(alpha, beta, delta_hat, df_total)
    return TestPlan(
        p_target=p,
        alpha=alpha,
        critical_value=chi2.chi2_quantile(1.0 - alpha, df_total),
        delta_hat=delta_hat,
        psi=est.psi,
        psi_se=est.std_error,
        beta=beta,
        sample_size=l_t,
        zero_cells=zeta,
        df_total=df_total,
    )


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
    return TestPlan(
        p_target=alpha,
        alpha=alpha,
        critical_value=chi2.chi2_quantile(1.0 - alpha, df_total),
        delta_hat=delta_hat,
        psi=None,
        psi_se=None,
        beta=beta,
        sample_size=sample_size,
        zero_cells=zeta,
        df_total=df_total,
    )


def run_sampling_decision(plan: TestPlan, sigma_m: CorrelatedStrategy, observed_counts) -> Decision:
    """The verdict of a sampling test on its public counts, the same for every agent.

    A count on an announced-zero cell rejects outright; otherwise the
    statistic decides against the critical value, with its survival
    probability attached as a p-value. It does not run the incentive screen:
    an agent whose own constraints fail (``agent_incentive_violations``)
    rejects without testing, and a caller holding an agent screens it first.
    """
    try:
        stat = pearson_statistic(observed_counts, sigma_m, plan.sample_size)
    except ZeroCellObserved:
        return Decision(outcome=Outcome.REJECT_BY_ZERO_CELL)
    p_value = 1.0 - chi2.chi2_cdf(stat, plan.df_total)
    if stat >= plan.critical_value:
        return Decision(outcome=Outcome.REJECT_BY_STATISTIC, statistic=stat, p_value=p_value)
    return Decision(outcome=Outcome.FOLLOW_MEDIATOR, statistic=stat, p_value=p_value)
