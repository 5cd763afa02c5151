"""Chi-square numerics: CDFs, critical values, test power, and sample sizes.

The central CDF is the regularized lower incomplete gamma P(df/2, x/2). It is
summed by its power series for x/2 < df/2 + 1 and otherwise taken as 1 - Q,
with Q from a modified Lentz continued fraction. Both need O(sqrt(a))
iterations near x ~ a, so their iteration cap grows as sqrt(a). The common
factor x^a e^-x / Gamma(a+1) is the Poisson probability of a at mean x;
above a = 10 it is evaluated through Stirling's series and log1p, because
lgamma(a) alone loses digits once it reaches ~1e6.

The test's tail is Q(df/2, x/2) itself (the continued fraction, or 1 - P
where Q > 0.08): p-values (``chi2_sf``) were within 1e-11 relative of scipy
down to 1e-300, and critical values (``chi2_isf``) bisect on it to 1e-8
relative at any alpha in (0, 1).

The noncentral CDF is the Poisson mixture

    F(x; df, ncp) = sum_k  w_k * P(df/2 + k, x/2),   w_k = e^-lam lam^k / k!,

with lam = ncp/2 (Ding 1992, AS 275; Benton & Krishnamoorthy 2003). The
weight and P are evaluated once, at the Poisson mode m = floor(lam). The
sum then walks outward in both directions with the weight ratio
w_{k+1}/w_k = lam/(k+1) and the recurrence
P(a+1, y) = P(a, y) - y^a e^-y / Gamma(a+1). Each side stops when a rigorous
bound on its discarded terms is below 1e-12. Above the mode the bound is the
geometric bound on the Poisson tail times the current P, since P falls as k
grows, and the walk also stops once P is 0. Below the mode it is the Poisson
tail times 1, and the walk also stops once P and its recurrence term are
both 0 (x far below ncp). Either way every further term is then exactly 0
as the walk computes it, so stopping changes no bit. The walk takes
O(sqrt(ncp)) steps plus one incomplete-gamma evaluation. From ncp ~ 4e16
the geometric ratio rounds to 1; where a term is still nonzero there, the
tail cannot be bounded and NonConvergenceError is raised.

Accuracy against scipy.stats over df up to 2e5, ncp up to 1e8 and quantiles
1e-6..1-1e-6: the worst absolute error measured was 2e-13 for the central CDF
and 7e-12 for the noncentral one, and tests/test_chi2.py gates them at 1e-10
and 1e-9. Errors are typed: every argument is checked by the rules in
``advicecheck.errors``, so a df that is not an integer of at least 1, and an
x, ncp or level that is not a number in its interval (x in [0, inf], ncp in
[0, inf), a quantile's p in [0, 1), alpha in (0, 1)) raise
InvalidInputError; NaN lies in no interval, and a bool or a string is not a
number. x = +inf gives 1. An iteration that exceeds its cap raises
NonConvergenceError rather than returning an unconverged value.

Power analysis convention: a goodness-of-fit statistic over m retained cells
has df_total = m - 1 degrees of freedom under the null, and under a fixed
alternative is noncentral chi-square with df_total degrees of freedom and
noncentrality l_T * delta_hat (one degree of freedom carries the
noncentrality; the remaining df_total - 1 are central).

The sample-size solver checks n = 1, then starts from the closed-form
noncentrality of the normal approximation. A start that meets the target
brackets the answer with n = 1; one that misses it widens geometrically
upward until the target is met. Illinois regula falsi on log beta narrows
the bracket: 5-7 noncentral CDF calls for sample sizes of 2e3-3e6 at df
127-242, where doubling from n = 1 and bisecting took 24-44.
"""

from __future__ import annotations

import functools
import math

from .errors import InvalidInputError, NonConvergenceError, check_int, check_positive, check_real
from .errors import check_unit

_GAMMA_EPS = 1e-14
_GAMMA_ITMAX = 500
_MIXTURE_TAIL = 1e-12
_STIRLING_MIN = 10.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ISF_CACHE = 1024  # distinct (alpha, df) pairs whose critical value is kept
_MAX_SAMPLE_SIZE = 2 ** 62
_FIRST_WIDENING = 1.0625  # the start's error is a few percent; each further widening squares


def _iteration_cap(a: float) -> int:
    # series and continued fraction both need ~8 sqrt(a) terms at worst
    return _GAMMA_ITMAX + int(16.0 * math.sqrt(a))


def _stirling_error(a: float) -> float:
    # lgamma(a + 1) - ((a + 1/2) ln a - a + ln sqrt(2 pi)), for a >= 10; in floats,
    # since the square of an integer mode past ~1e154 does not fit one
    a = float(a)
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
    # from 2^53 on x + 1.0 rounds, and x + 1.0 - a can round to 0 (a division
    # by zero) or miss by units; there x - a is exact when a >= x / 2 (Sterbenz)
    b = x + 1.0 - a if x < 2.0**53 else (x - a) + 1.0
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


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gammas (P(a, x), Q(a, x)), a > 0, 0 <= x < inf: the series
    below a + 1 or the continued fraction above gives one tail, clamped to [0, 1], and the
    other is 1 minus it, bit for bit the clamped complement of the unclamped tail."""
    if x <= 0.0:
        return 0.0, 1.0
    if x < a + 1.0:
        p = min(max(_gamma_p_series(a, x), 0.0), 1.0)
        return p, 1.0 - p
    q = min(max(_gamma_q_contfrac(a, x), 0.0), 1.0)
    return 1.0 - q, q


def chi2_cdf(x: float, df: int) -> float:
    """P(chi2_df <= x). Monotone in x, in [0, 1]; 1 at x = +inf."""
    check_int(df, "df", 1)
    check_real(x, "x", "[0, inf]")
    if math.isinf(x):
        return 1.0
    return _gamma_tails(df / 2.0, x / 2.0)[0]


def _smallest(meets, df: int) -> float:
    """The smallest x >= 0, to 1e-8 relative tolerance, where the monotone
    predicate ``meets`` holds: doubling from df + 1 brackets it, bisection narrows."""
    hi = float(df) + 1.0
    while not meets(hi):
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-8 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def chi2_quantile(p: float, df: int) -> float:
    """Smallest x with chi2_cdf(x, df) >= p, for p in [0, 1), to 1e-8 relative tolerance."""
    check_int(df, "df", 1)
    if check_real(p, "p", "[0, 1)") == 0.0:
        return 0.0
    return _smallest(lambda x: chi2_cdf(x, df) >= p, df)


def noncentral_chi2_cdf(x: float, df: int, ncp: float) -> float:
    """P(X <= x) for X noncentral chi-square with df dof and noncentrality ncp."""
    check_int(df, "df", 1)
    check_real(x, "x", "[0, inf]")
    check_real(ncp, "ncp", "[0, inf)")
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
    p_mode = _gamma_tails(half_df + mode, y)[0]
    d_mode = math.exp(_log_poisson(half_df + mode, y))
    total = w_mode * p_mode
    steps = 50 + int(20.0 * math.sqrt(lam))  # the tail bounds stop each walk in < 9 sqrt(lam)

    w, p, d = w_mode, p_mode, d_mode
    for k in range(mode + 1, mode + steps):
        p = max(p - d, 0.0)
        if p == 0.0:  # p only falls from here, so every later term is exactly 0
            break
        d *= y / (half_df + k)
        w *= lam / k
        total += w * p
        r = lam / (k + 1)
        if r == 1.0:
            raise NonConvergenceError(
                f"noncentral walk above the mode cannot bound its tail at ncp={ncp}")
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
        # once p and d are both 0, every lower term is exactly 0 as computed here
        if p == d == 0.0:
            break
        s = (k - 1) / lam
        if s == 1.0:
            raise NonConvergenceError(
                f"noncentral walk below the mode cannot bound its tail at ncp={ncp}")
        if w * s / (1.0 - s) < _MIXTURE_TAIL:
            break
    else:
        if lowest > 0:
            raise NonConvergenceError(f"noncentral walk below the mode did not converge at ncp={ncp}")
    return min(max(total, 0.0), 1.0)


def chi2_sf(x: float, df: int) -> float:
    """P(chi2_df > x), the p-value of a statistic x: Q(df/2, x/2); 0 at x = +inf."""
    check_int(df, "df", 1)
    check_real(x, "x", "[0, inf]")
    if math.isinf(x):
        return 0.0
    return _gamma_tails(df / 2.0, x / 2.0)[1]


@functools.lru_cache(maxsize=_ISF_CACHE, typed=True)
def chi2_isf(alpha: float, df: int) -> float:
    """The level-alpha critical value, the least x with chi2_sf(x, df) <= alpha, solved once
    per (alpha, df); the memo is typed, so a cached (0.1, 3) never answers for (0.1, 3.0)."""
    check_unit(alpha, "alpha")
    check_int(df, "df", 1)
    return _smallest(lambda x: chi2_sf(x, df) <= alpha, df)


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


def _normal_isf(p: float) -> float:
    """z with P(N(0, 1) > z) = p, to 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return z if p < 0.5 else -z


def sample_size(alpha: float, beta_target: float, delta_hat: float, df_total: int) -> int:
    """The least sample size whose ``power_beta`` is <= beta_target.

    beta is monotone nonincreasing in the sample size (the noncentrality
    grows linearly with it), so any bracket of the target narrowed to two
    adjacent sizes gives it exactly. After n = 1 misses the target, the
    search starts where the normal approximation of the noncentral
    chi-square meets it. If the start meets the target, [1, start] is the
    bracket; otherwise the search widens upward geometrically until the
    target is met. Illinois regula falsi on log beta (Dowell & Jarratt
    1971) narrows the bracket, bisecting where that stalls.
    Degenerate targets that are met at a single sample report 1; a target
    that no sample size up to 2^62 meets is refused.
    """
    check_unit(beta_target, "beta_target")
    log_target = math.log(beta_target)

    def beta_at(n: int) -> float:
        return power_beta(alpha, delta_hat, df_total, n)

    def excess(beta: float) -> float:
        # log(beta / beta_target), the coordinate interpolated in; -inf once beta underflows
        return math.log(beta) - log_target if beta > 0.0 else -math.inf

    beta = beta_at(1)
    if beta <= beta_target:
        return 1
    # lo misses the target and hi meets it; f_lo and f_hi are their excesses
    lo, f_lo = 1, excess(beta)
    # the start: a normal of mean df + lam and variance 2 (df + 2 lam) has
    # mass beta_target below c when c = df + lam - z sqrt(2 df + 4 lam), with
    # z the upper beta_target quantile; that is a quadratic in
    # s = sqrt(2 df + 4 lam), and its lam is a few percent off at df >= 3
    c, z = chi2_isf(alpha, df_total), _normal_isf(beta_target)
    s = max(2.0 * z + math.sqrt(max(4.0 * (z * z + c) - 2.0 * df_total, 0.0)), 0.0)
    lam = max(s * s - 2.0 * df_total, 0.0) / 4.0
    n = max(math.ceil(min(lam / delta_hat, _MAX_SAMPLE_SIZE)), 2)
    widen = _FIRST_WIDENING
    beta = beta_at(n)
    while beta > beta_target:  # widen upward until the target is met
        lo, f_lo = n, excess(beta)
        if lo == _MAX_SAMPLE_SIZE:
            raise InvalidInputError(
                f"no sample size up to 2^62 meets beta={beta_target} at alpha={alpha}, "
                f"delta_hat={delta_hat}"
            )
        n = math.ceil(min(lo * widen, _MAX_SAMPLE_SIZE))
        widen *= widen
        beta = beta_at(n)
    # a start that meets the target brackets it with n = 1, which misses it
    hi, f_hi = n, excess(beta)
    # retained: the end the last step kept (-1 lo, 1 hi); stalls: steps since the bracket halved
    retained = stalls = 0
    while hi - lo > 1:
        width = hi - lo
        if stalls < 3 and f_lo > f_hi > -math.inf:
            n = min(max(hi - round(f_hi * width / (f_hi - f_lo)), lo + 1), hi - 1)
        else:
            n = (lo + hi) // 2
        beta = beta_at(n)
        if beta > beta_target:
            lo, f_lo = n, excess(beta)
            if retained == 1:  # hi kept twice: halve its weight (Illinois)
                f_hi /= 2.0
            retained = 1
        else:
            hi, f_hi = n, excess(beta)
            if retained == -1:
                f_lo /= 2.0
            retained = -1
        stalls = 0 if 2 * (hi - lo) <= width + 1 else stalls + 1
    return hi
