"""Chi-square numerics: CDFs, critical values, test power, and sample sizes.

The central CDF is the regularized lower incomplete gamma P(df/2, x/2). It is
summed by its power series for x/2 < df/2 + 1 and otherwise taken as 1 - Q,
with Q from a modified Lentz continued fraction. Both need O(sqrt(a))
iterations near x ~ a, so their iteration cap grows as sqrt(a). The common
factor x^a e^-x / Gamma(a+1) is the Poisson probability of a at mean x;
above a = 10 it is evaluated through Stirling's series and log1p, because
lgamma(a) alone loses digits once it reaches ~1e6.

The noncentral CDF is the Poisson mixture

    F(x; df, ncp) = sum_k  w_k * P(df/2 + k, x/2),   w_k = e^-lam lam^k / k!,

with lam = ncp/2 (Ding 1992, AS 275; Benton & Krishnamoorthy 2003). The
weight and P are evaluated once, at the Poisson mode m = floor(lam). The
sum then walks outward in both directions with the weight ratio
w_{k+1}/w_k = lam/(k+1) and the recurrence
P(a+1, y) = P(a, y) - y^a e^-y / Gamma(a+1). Each side stops when a rigorous
bound on its discarded terms is below 1e-12. Above the mode the bound is the
geometric bound on the Poisson tail times the current P, since P falls as k
grows. Below the mode it is the Poisson tail times 1, and the walk also
stops once P and its recurrence term are both 0 (x far below ncp): every
lower term is then exactly 0 as the walk computes it, so stopping changes no
bit. The walk takes O(sqrt(ncp)) steps plus one incomplete-gamma evaluation.

Accuracy against scipy.stats over df up to 2e5, ncp up to 1e8 and quantiles
1e-6..1-1e-6: the worst absolute error measured was 2e-13 for the central CDF
and 7e-12 for the noncentral one, and tests/test_chi2.py gates them at 1e-10
and 1e-9. Errors are typed: invalid arguments, a NaN x, df or ncp, or an
infinite df or ncp raise InvalidInputError, while x = +inf gives 1. An
iteration that exceeds its cap raises NonConvergenceError rather than
returning an unconverged value.

Power analysis convention: a goodness-of-fit statistic over m retained cells
has df_total = m - 1 degrees of freedom under the null, and under a fixed
alternative is noncentral chi-square with df_total degrees of freedom and
noncentrality l_T * delta_hat (one degree of freedom carries the
noncentrality; the remaining df_total - 1 are central).
"""

from __future__ import annotations

import functools
import math

from .errors import InvalidInputError, NonConvergenceError, check_int, check_positive, check_unit

_GAMMA_EPS = 1e-14
_GAMMA_ITMAX = 500
_MIXTURE_TAIL = 1e-12
_STIRLING_MIN = 10.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ISF_CACHE = 1024  # distinct (alpha, df) pairs whose critical value is kept


def _iteration_cap(a: float) -> int:
    # series and continued fraction both need ~8 sqrt(a) terms at worst
    return _GAMMA_ITMAX + int(16.0 * math.sqrt(a))


def _stirling_error(a: float) -> float:
    # lgamma(a + 1) - ((a + 1/2) ln a - a + ln sqrt(2 pi)), for a >= 10
    s = 1.0 / (a * a)
    return (1.0 / 12 - s * (1.0 / 360 - s * (1.0 / 1260 - s * (1.0 / 1680 - s / 1188)))) / a


def _log_poisson(k: float, lam: float) -> float:
    """log(lam^k e^-lam / Gamma(k + 1)) for real k >= 0 and lam > 0."""
    if k < _STIRLING_MIN:
        return k * math.log(lam) - lam - math.lgamma(k + 1.0)
    d = lam - k
    if abs(d) < 0.5 * k:
        u = d / k
        bd0 = k * (u - math.log1p(u))
    else:
        bd0 = d - k * (math.log(lam) - math.log(k))
    return -bd0 - _stirling_error(k) - _LOG_SQRT_2PI - 0.5 * math.log(k)


def _log_gamma_kernel(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), the factor common to P and Q."""
    if a < _STIRLING_MIN:
        return a * math.log(x) - x - math.lgamma(a)
    return _log_poisson(a, x) + math.log(a)


def _gamma_p_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_iteration_cap(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total * math.exp(_log_gamma_kernel(a, x))
    raise NonConvergenceError(f"incomplete gamma series did not converge at a={a}, x={x}")


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Q(a, x) via modified Lentz continued fraction (upper tail).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _iteration_cap(a) + 1):
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
            return h * math.exp(_log_gamma_kernel(a, x))
    raise NonConvergenceError(f"incomplete gamma continued fraction did not converge at a={a}, x={x}")


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, 0 <= x < inf."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
    else:
        p = 1.0 - _gamma_q_contfrac(a, x)
    return min(max(p, 0.0), 1.0)


def _check_x(x: float) -> None:
    if math.isnan(x) or x < 0:
        raise InvalidInputError(f"x must be nonnegative and not NaN, got {x}")


def chi2_cdf(x: float, df: int) -> float:
    """P(chi2_df <= x). Monotone in x, in [0, 1]; 1 at x = +inf."""
    check_int(df, "df", 1)
    _check_x(x)
    if math.isinf(x):
        return 1.0
    return _gamma_p(df / 2.0, x / 2.0)


def chi2_quantile(p: float, df: int) -> float:
    """Smallest x with chi2_cdf(x, df) >= p, for p in [0, 1).

    Bracketing then bisection to 1e-8 relative tolerance.
    """
    check_int(df, "df", 1)
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
    check_int(df, "df", 1)
    _check_x(x)
    if not math.isfinite(ncp) or ncp < 0:
        raise InvalidInputError(f"ncp must be nonnegative and finite, got {ncp}")
    lam, y, half_df = ncp / 2.0, x / 2.0, df / 2.0
    if lam == 0.0:
        return chi2_cdf(x, df)
    if y == 0.0:
        return 0.0
    if math.isinf(y):
        return 1.0
    mode = math.floor(lam)
    # w: Poisson weight of k; p: P(half_df + k, y); d: y^a e^-y / Gamma(a + 1), a = half_df + k
    w_mode = math.exp(_log_poisson(mode, lam))
    p_mode = _gamma_p(half_df + mode, y)
    d_mode = math.exp(_log_poisson(half_df + mode, y))
    total = w_mode * p_mode
    steps = 50 + int(20.0 * math.sqrt(lam))  # the tail bounds stop each walk in < 9 sqrt(lam)

    w, p, d = w_mode, p_mode, d_mode
    for k in range(mode + 1, mode + steps):
        p = max(p - d, 0.0)
        d *= y / (half_df + k)
        w *= lam / k
        total += w * p
        r = lam / (k + 1)
        if w * p * r / (1.0 - r) < _MIXTURE_TAIL:
            break
    else:
        raise NonConvergenceError(f"noncentral walk above the mode did not converge at ncp={ncp}")

    w, p, d = w_mode, p_mode, d_mode
    lowest = max(mode - steps, 0)
    for k in range(mode, lowest, -1):
        d = d * (half_df + k) / y
        p = min(p + d, 1.0)
        w *= k / lam
        total += w * p
        s = (k - 1) / lam
        # once p and d are both 0, every lower term is exactly 0 as computed here
        if p == d == 0.0 or w * s / (1.0 - s) < _MIXTURE_TAIL:
            break
    else:
        if lowest > 0:
            raise NonConvergenceError(f"noncentral walk below the mode did not converge at ncp={ncp}")
    return min(max(total, 0.0), 1.0)


def chi2_sf(x: float, df: int) -> float:
    """P(chi2_df > x): the p-value of a statistic x."""
    return 1.0 - chi2_cdf(x, df)


@functools.lru_cache(maxsize=_ISF_CACHE, typed=True)
def chi2_isf(alpha: float, df: int) -> float:
    """The level-alpha critical value ``chi2_quantile(1 - alpha, df)``, solved once per
    (alpha, df); the memo is typed, so a cached (0.1, 3) never answers for (0.1, 3.0)."""
    check_unit(alpha, "alpha")
    return chi2_quantile(1.0 - alpha, df)


def power_beta(alpha: float, delta_hat: float, df_total: int, sample_size: int) -> float:
    """Type-2 probability: mass the alternative leaves below the critical value.

    beta = F_nc(c(alpha); df_total, sample_size * delta_hat) with
    c(alpha) = chi2_isf(alpha, df_total); df_total is the
    statistic's degrees of freedom under the null (retained cells minus one).
    """
    check_unit(alpha, "alpha")
    check_positive(delta_hat, "delta_hat")
    check_int(sample_size, "sample_size", 1)
    return noncentral_chi2_cdf(chi2_isf(alpha, df_total), df_total, sample_size * delta_hat)


def sample_size(alpha: float, beta_target: float, delta_hat: float, df_total: int) -> int:
    """The least sample size whose ``power_beta`` is <= beta_target.

    beta is monotone nonincreasing in the sample size (the noncentrality
    grows linearly with it), so exponential bracketing plus binary search is
    exact. Degenerate targets that are met at a single sample report 1; a
    target that no sample size up to 2^62 meets is refused.
    """
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
