"""Chi-square numerics: CDFs, critical values, test power, and sample sizes.

The central CDF is the regularized lower incomplete gamma P(df/2, x/2),
computed by its power series for x/2 < df/2 + 1 and by a modified Lentz
continued fraction otherwise (target 1e-10 absolute accuracy). The noncentral
CDF is the Poisson mixture

    F(x; df, ncp) = sum_k  e^{-ncp/2} (ncp/2)^k / k!  *  P(df/2 + k, x/2),

truncated once the remaining Poisson tail mass drops below 1e-10 (the CDF
factors are <= 1, so the truncation error is bounded by that tail mass; the
bound is asserted internally).

Power analysis convention: a goodness-of-fit statistic over m retained cells
has df_total = m - 1 degrees of freedom under the null, and under a fixed
alternative is noncentral chi-square with df_total degrees of freedom and
noncentrality l_T * delta_hat (one degree of freedom carries the
noncentrality; the remaining df_total - 1 are central).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError

_GAMMA_EPS = 1e-14
_GAMMA_ITMAX = 500
_POISSON_TAIL = 1e-10


def _gamma_p_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    log_pref = a * math.log(x) - x - math.lgamma(a)
    return total * math.exp(log_pref)


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Q(a, x) via modified Lentz continued fraction (upper tail).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    log_pref = a * math.log(x) - x - math.lgamma(a)
    return h * math.exp(log_pref)


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
    else:
        p = 1.0 - _gamma_q_contfrac(a, x)
    return min(max(p, 0.0), 1.0)


def chi2_cdf(x: float, df: int) -> float:
    """P(chi2_df <= x). Monotone in x, in [0, 1]."""
    if df < 1 or df != int(df):
        raise InvalidInputError(f"df must be a positive integer, got {df}")
    if x < 0:
        raise InvalidInputError(f"x must be nonnegative, got {x}")
    return _gamma_p(df / 2.0, x / 2.0)


def chi2_quantile(p: float, df: int) -> float:
    """Smallest x with chi2_cdf(x, df) >= p, for p in [0, 1).

    Bracketing then bisection to 1e-8 relative tolerance.
    """
    if df < 1 or df != int(df):
        raise InvalidInputError(f"df must be a positive integer, got {df}")
    if not 0.0 <= p < 1.0:
        raise InvalidInputError(f"p must be in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    hi = float(df) + 1.0
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-8 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) >= p:
            hi = mid
        else:
            lo = mid
    return hi


def noncentral_chi2_cdf(x: float, df: int, ncp: float) -> float:
    """P(X <= x) for X noncentral chi-square with df dof and noncentrality ncp."""
    if df < 1 or df != int(df):
        raise InvalidInputError(f"df must be a positive integer, got {df}")
    if x < 0:
        raise InvalidInputError(f"x must be nonnegative, got {x}")
    if ncp < 0:
        raise InvalidInputError(f"ncp must be nonnegative, got {ncp}")
    if ncp == 0.0:
        return chi2_cdf(x, df)
    if x == 0.0:
        return 0.0
    lam = ncp / 2.0
    log_lam = math.log(lam)
    total = 0.0
    weight_sum = 0.0
    k = 0
    while True:
        log_w = k * log_lam - lam - math.lgamma(k + 1)
        w = math.exp(log_w)
        if w > 0.0:
            total += w * _gamma_p(df / 2.0 + k, x / 2.0)
        weight_sum += w
        # past the Poisson mode the remaining mass is geometrically bounded:
        # w_{k+1}/w_k = lam/(k+1) < 1, so tail <= w * r/(1-r)
        if k >= lam:
            ratio = lam / (k + 1)
            tail_bound = w * ratio / (1.0 - ratio)
            if tail_bound < _POISSON_TAIL:
                discarded = 1.0 - weight_sum
                assert discarded < _POISSON_TAIL + 1e-12, discarded
                break
        k += 1
        if k > 10_000_000:  # pragma: no cover - safety valve
            raise RuntimeError("noncentral series failed to converge")
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True)
class PowerQuery:
    """Inputs of one Type-2 probability evaluation.

    df_total is the statistic's degrees of freedom under the null (retained
    cells minus one); the noncentrality is sample_size * delta_hat.
    """

    alpha: float
    delta_hat: float
    df_total: int
    sample_size: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError(f"alpha must be in (0, 1), got {self.alpha}")
        if not math.isfinite(self.delta_hat) or self.delta_hat <= 0.0:
            raise InvalidInputError(f"delta_hat must be positive and finite, got {self.delta_hat}")
        if self.df_total < 1:
            raise InvalidInputError(f"df_total must be >= 1, got {self.df_total}")
        if self.sample_size < 1:
            raise InvalidInputError(f"sample_size must be >= 1, got {self.sample_size}")


def power_beta(q: PowerQuery) -> float:
    """Type-2 probability: mass the alternative leaves below the critical value.

    beta = F_nc(c(alpha); df_total, sample_size * delta_hat) with
    c(alpha) = chi2_quantile(1 - alpha, df_total).
    """
    c = chi2_quantile(1.0 - q.alpha, q.df_total)
    return noncentral_chi2_cdf(c, q.df_total, q.sample_size * q.delta_hat)


def sample_size(alpha: float, beta_target: float, delta_hat: float, df_total: int) -> int:
    """Smallest sample size whose Type-2 probability is <= beta_target.

    beta is monotone nonincreasing in the sample size (the noncentrality
    grows linearly with it), so exponential bracketing plus binary search is
    exact. Degenerate targets that are met at a single sample report 1.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < beta_target < 1.0:
        raise InvalidInputError(f"beta_target must be in (0, 1), got {beta_target}")
    if not math.isfinite(delta_hat) or delta_hat <= 0.0:
        raise InvalidInputError(f"delta_hat must be positive and finite, got {delta_hat}")
    c = chi2_quantile(1.0 - alpha, df_total)

    def beta_at(n: int) -> float:
        return noncentral_chi2_cdf(c, df_total, n * delta_hat)

    if beta_at(1) <= beta_target:
        return 1
    hi = 2
    while beta_at(hi) > beta_target:
        hi *= 2
        if hi > 2 ** 62:  # pragma: no cover - safety valve
            raise RuntimeError("sample size search exceeded 2^62")
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if beta_at(mid) <= beta_target:
            hi = mid
        else:
            lo = mid + 1
    return lo
