import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bisect_sample_size

from advicecheck import (
    InvalidInputError,
    NonConvergenceError,
    chi2_cdf,
    chi2_quantile,
    noncentral_chi2_cdf,
    power_beta,
    sample_size,
)
from advicecheck import chi2

CENTRAL_GRID = [(0.5, 1), (2.0, 1), (1.0, 2), (1.3863, 2), (3.0, 3), (6.251, 3),
                (10.0, 5), (4.0, 8), (20.0, 10), (8.0, 6)]
NONCENTRAL_GRID = [(6.251, 4, 21.0), (2.0, 1, 1.0), (5.0, 3, 4.0), (10.0, 5, 10.0),
                   (3.0, 2, 8.0), (15.0, 8, 5.0), (1.0, 1, 0.5), (12.0, 6, 6.0),
                   (25.0, 10, 20.0), (7.0, 4, 2.0)]


def test_chi2_cdf_zero_and_validation():
    for df in (1, 2, 5, 20):
        assert chi2_cdf(0.0, df) == 0.0
    with pytest.raises(InvalidInputError):
        chi2_cdf(-1.0, 3)
    with pytest.raises(InvalidInputError):
        chi2_cdf(1.0, 0)


def test_chi2_cdf_two_dof_closed_form():
    # df=2 closed form 1 - exp(-x/2); x = 2 ln 2 puts half the mass below
    x = 2 * math.log(2)
    assert chi2_cdf(x, 2) == pytest.approx(0.5, abs=1e-6)


def test_chi2_cdf_worked_critical_point():
    assert chi2_cdf(6.251, 3) == pytest.approx(0.900, abs=0.002)


def test_chi2_cdf_matches_scipy_on_grid():
    for x, df in CENTRAL_GRID:
        assert chi2_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), abs=1e-10)


def test_noncentral_matches_scipy_on_grid():
    for x, df, ncp in NONCENTRAL_GRID:
        assert noncentral_chi2_cdf(x, df, ncp) == pytest.approx(
            scipy.stats.ncx2.cdf(x, df, ncp), abs=1e-9
        )


def test_noncentral_zero_ncp_is_central():
    for x, df in CENTRAL_GRID:
        assert noncentral_chi2_cdf(x, df, 0.0) == chi2_cdf(x, df)


def test_noncentral_worked_value():
    assert noncentral_chi2_cdf(6.251, 4, 21.0) == pytest.approx(0.006, abs=0.002)


def test_noncentral_dominated_by_central():
    for x, df in CENTRAL_GRID:
        for lam in (0.5, 2.0, 10.0):
            assert noncentral_chi2_cdf(x, df, lam) <= chi2_cdf(x, df) + 1e-12


def test_noncentral_monotone_in_ncp():
    lams = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
    for x, df in [(3.0, 2), (6.251, 3), (10.0, 5)]:
        vals = [noncentral_chi2_cdf(x, df, lam) for lam in lams]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_cdfs_monotone_in_x_and_bounded():
    xs = np.linspace(0, 40, 60)
    for df in (1, 3, 8):
        for lam in (0.0, 4.0):
            vals = [noncentral_chi2_cdf(float(x), df, lam) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_extreme_ncp_underflows_to_zero():
    # mass is pushed far above the critical value
    assert noncentral_chi2_cdf(6.2514, 3, 2100.0) < 1e-12


@pytest.mark.parametrize("ncp", [1e8, 1e10, 1e12, 1e16, 1e17, 1e20, 1e200])
def test_walk_below_the_mode_stops_where_every_term_is_zero(ncp):
    # x far below ncp: P and its recurrence term are both 0 at the mode, so the
    # walk below it stops at once instead of taking ~7 sqrt(ncp / 2) steps
    # (1e16 used to take minutes); the result is exactly the full walk's 0.
    # The walk above the mode stops too: from ~4.6e16 its tail bound divided by
    # 1 - lam / (k + 1) == 0, and from ~1e155 Stirling's series squared an
    # integer mode too large for a float
    assert noncentral_chi2_cdf(6.25, 3, ncp) == 0.0
    assert power_beta(0.1, 0.01, 3, 2**62) == 0.0


def test_walk_that_cannot_bound_its_tail_raises():
    # x just above ncp = 1e17: P at the mode is ~1, and lam / (k + 1) rounds to 1
    with pytest.raises(NonConvergenceError, match="above the mode"):
        noncentral_chi2_cdf(1e17 + 2e10, 3, 1e17)


@pytest.mark.parametrize("x, df", [(1e17 + 4, 10**17), (2.0**54, 2**54), (2.0**54 + 8, 2**54)])
def test_continued_fraction_start_past_2_to_the_53(x, df):
    # x + 1 - a rounded to 0 at the first two points (a division by zero) and
    # to 4 instead of 5 at the third (off by 4e-9); it is formed from x - a there
    assert chi2_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), abs=1e-12)


def test_noncentral_walk_at_the_continued_fraction_zero_raises():
    with pytest.raises(NonConvergenceError, match="above the mode"):
        noncentral_chi2_cdf(1e17, 3, 1e17)


def test_quantile_worked_value_and_edges():
    assert chi2_quantile(0.9, 3) == pytest.approx(6.251, abs=0.005)
    assert chi2_quantile(0.0, 7) == 0.0
    with pytest.raises(InvalidInputError):
        chi2_quantile(1.0, 3)
    with pytest.raises(InvalidInputError):
        chi2_quantile(-0.1, 3)


def test_quantile_round_trip():
    for x in (0.5, 2.0, 10.0):
        for df in (1, 3, 8):
            assert chi2_quantile(chi2_cdf(x, df), df) == pytest.approx(x, abs=1e-6)


def test_monte_carlo_oracle_agreement():
    # 10^6 draws per grid point; require agreement within 3 standard errors
    rng = np.random.default_rng(20260811)
    n = 1_000_000
    for x, df in CENTRAL_GRID:
        draws = rng.chisquare(df, size=n)
        p_hat = float((draws <= x).mean())
        se = max(math.sqrt(p_hat * (1 - p_hat) / n), 1e-7)
        assert abs(chi2_cdf(x, df) - p_hat) <= 3 * se
    for x, df, ncp in NONCENTRAL_GRID:
        draws = rng.noncentral_chisquare(df, ncp, size=n)
        p_hat = float((draws <= x).mean())
        se = max(math.sqrt(p_hat * (1 - p_hat) / n), 1e-7)
        assert abs(noncentral_chi2_cdf(x, df, ncp) - p_hat) <= 3 * se


def test_power_beta_worked_band():
    assert 0.004 <= power_beta(0.1, 0.01, 3, 2100) <= 0.009


def test_power_beta_huge_effect_vanishes():
    assert power_beta(0.1, 1.0, 3, 2100) < 1e-12


def test_power_beta_at_an_infinite_noncentrality_is_zero():
    # 2100 * 1e308 overflows to inf, which noncentral_chi2_cdf refuses as an ncp
    assert power_beta(0.1, 1e308, 3, 2100) == 0.0
    assert power_beta(0.1, 1e308, 3, 1) == 0.0  # as at the largest finite one


def test_power_beta_monotone_in_sample_size():
    betas = [power_beta(0.1, 0.01, 3, n) for n in (100, 300, 900, 2100, 5000)]
    assert all(b <= a + 1e-12 for a, b in zip(betas, betas[1:]))


def test_sample_size_worked_band():
    assert 1900 <= sample_size(0.1, 0.0063, 0.01, 3) <= 2300


def test_sample_size_ncp_scaling():
    # equal noncentrality gives equal power, so 4x the effect needs 1/4 the sample
    base = sample_size(0.1, 0.01, 0.004, 3)
    quarter = sample_size(0.1, 0.01, 0.016, 3)
    assert quarter == pytest.approx(base / 4, rel=0.02)


def test_sample_size_nonincreasing_in_delta():
    sizes = [sample_size(0.1, 0.01, d, 3) for d in (0.002, 0.004, 0.01, 0.05, 0.2)]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_sample_size_degenerate_target_reports_one():
    # a lax target met by a single observation
    assert sample_size(0.5, 0.9, 5.0, 1) == 1
    assert sample_size(0.1, 0.01, 1e300, 3) == 1


def test_sample_size_refuses_exactly_when_two_to_the_62_misses_the_target():
    beta_max = power_beta(0.1, 1e-18, 3, 2**62)  # ~0.6 at noncentrality 4.6
    assert 0.0 < beta_max < 1.0
    n = sample_size(0.1, beta_max, 1e-18, 3)
    assert n <= 2**62 and n == bisect_sample_size(0.1, beta_max, 1e-18, 3)
    below = math.nextafter(beta_max, 0.0)
    message = (f"no sample size up to 2^62 meets beta={below} at alpha=0.1, "
               f"delta_hat=1e-18")
    with pytest.raises(InvalidInputError) as exc:
        sample_size(0.1, below, 1e-18, 3)
    assert str(exc.value) == message
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        bisect_sample_size(0.1, below, 1e-18, 3)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1e-6, 0.5),
    beta=st.floats(1e-6, 0.9),
    delta=st.floats(1e-5, 1.0),
    df=st.sampled_from([1, 3, 26, 127, 242, 1000]),
)
# the normal-approximation start meets the target (n = 1 and it bracket the
# answer), and misses it (the search widens upward from it)
@example(alpha=0.5, beta=0.1, delta=0.1, df=3)
@example(alpha=0.3, beta=0.2222222222222222, delta=0.01, df=127)
def test_sample_size_is_the_least_crossing(alpha, beta, delta, df):
    n = sample_size(alpha, beta, delta, df)
    assert power_beta(alpha, delta, df, n) <= beta
    assert n == 1 or power_beta(alpha, delta, df, n - 1) > beta
    assert n == bisect_sample_size(alpha, beta, delta, df)


# the four solves of one rep of the benchmark's `plan` workload (seed 7) and their answers
PLAN_SOLVES = [((0.1, 0.08814589665653497, 0.01, 242), 6477),
               ((0.05, 0.05, 0.000625, 242), 132560),
               ((0.025, 0.025, 3.90625e-05, 242), 2586311),
               ((0.3, 0.2222222222222222, 0.01, 127), 2230)]


@pytest.mark.parametrize("args, expected", PLAN_SOLVES)
def test_sample_size_takes_few_noncentral_cdf_calls(monkeypatch, args, expected):
    # doubling from n = 1 and bisecting took 26, 36, 44 and 24 calls here
    calls = 0
    cdf = chi2.noncentral_chi2_cdf

    def counted(*a):
        nonlocal calls
        calls += 1
        return cdf(*a)

    monkeypatch.setattr(chi2, "noncentral_chi2_cdf", counted)
    assert sample_size(*args) == expected
    assert calls <= 10


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.sampled_from([0.05, 0.1, 0.25]),
    delta=st.sampled_from([0.005, 0.02, 0.1]),
    df=st.sampled_from([1, 3, 6]),
    n=st.integers(5, 4000),
)
def test_solver_consistency(alpha, delta, df, n):
    # solving for the power achieved at n can never need more than n samples
    beta_at_n = power_beta(alpha, delta, df, n)
    if 0.0 < beta_at_n < 1.0:
        assert sample_size(alpha, beta_at_n, delta, df) <= n


def test_power_beta_validation():
    with pytest.raises(InvalidInputError):
        power_beta(alpha=0.0, delta_hat=0.01, df_total=3, sample_size=10)
    with pytest.raises(InvalidInputError):
        power_beta(alpha=0.1, delta_hat=-1.0, df_total=3, sample_size=10)
    with pytest.raises(InvalidInputError):
        power_beta(alpha=0.1, delta_hat=0.01, df_total=0, sample_size=10)


# Accuracy over the whole documented domain: df up to 2e5, ncp up to 1e8 and
# quantiles 1e-6..1-1e-6, at the tolerances of the grid tests above. The
# grids hold the cases that used to fail: df = 2e5 at the median (the series
# stopped after 500 terms, off by 0.057) and df = 3 at ncp 1e5 (off by 1.6e-3)
# and 1e6 (an internal assert fired).
QUANTILES = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6)
WIDE_DFS = (1, 3, 26, 200, 20_000, 200_000)
WIDE_NCPS = (1e-3, 0.5, 50.0, 1e3, 1e5, 1e6, 1e8)


def test_chi2_cdf_matches_scipy_over_wide_domain():
    for df in WIDE_DFS:
        for q in QUANTILES:
            x = scipy.stats.chi2.ppf(q, df)
            assert chi2_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), abs=1e-10)


def test_noncentral_matches_scipy_over_wide_domain():
    for df in WIDE_DFS:
        for ncp in WIDE_NCPS:
            for q in QUANTILES:
                x = scipy.stats.ncx2.ppf(q, df, ncp)
                assert noncentral_chi2_cdf(x, df, ncp) == pytest.approx(
                    scipy.stats.ncx2.cdf(x, df, ncp), abs=1e-9
                ), (df, ncp, q)


@settings(max_examples=40, deadline=None)
@given(
    log_df=st.floats(0.0, math.log(2e5)),
    log_ncp=st.floats(math.log(1e-4), math.log(1e8)),
    log_q=st.floats(math.log(1e-6), math.log(0.5)),
    upper=st.booleans(),
)
def test_cdfs_match_scipy_anywhere(log_df, log_ncp, log_q, upper):
    df = max(1, round(math.exp(log_df)))
    ncp = math.exp(log_ncp)
    q = -math.expm1(log_q) if upper else math.exp(log_q)
    x = scipy.stats.chi2.ppf(q, df)
    assert chi2_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), abs=1e-10)
    x = scipy.stats.ncx2.ppf(q, df, ncp)
    assert noncentral_chi2_cdf(x, df, ncp) == pytest.approx(
        scipy.stats.ncx2.cdf(x, df, ncp), abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.0, 1e6),
    df=st.integers(1, 500),
    ncp=st.floats(1e-3, 1e6),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_inputs_refused(x, df, ncp, bad):
    with pytest.raises(InvalidInputError):
        chi2_cdf(math.nan, df)
    with pytest.raises(InvalidInputError):
        noncentral_chi2_cdf(math.nan, df, ncp)
    with pytest.raises(InvalidInputError):
        noncentral_chi2_cdf(x, df, bad)
    with pytest.raises(InvalidInputError):
        chi2_cdf(x, bad)
    with pytest.raises(InvalidInputError):
        noncentral_chi2_cdf(x, bad, ncp)
    assert chi2_cdf(math.inf, df) == 1.0
    assert noncentral_chi2_cdf(math.inf, df, ncp) == 1.0


def test_incomplete_gamma_raises_instead_of_stopping(monkeypatch):
    # a cap too small to converge must raise, never return a partial sum
    monkeypatch.setattr(chi2, "_iteration_cap", lambda a: 3)
    with pytest.raises(NonConvergenceError):
        chi2_cdf(100.0, 200)
    with pytest.raises(NonConvergenceError):
        chi2_cdf(300.0, 200)


@pytest.mark.parametrize("df", [1, 2, 3, 7, 26, 242])
def test_tails_equal_the_lower_tail_forms_bit_for_bit(df):
    # down to 1e-6 the upper-tail solve keeps the lower-tail critical values
    chi2.chi2_isf.cache_clear()
    for alpha in (0.5, 0.15, 0.1, 0.05, 1e-3, 1e-6):
        expected = chi2_quantile(1.0 - alpha, df).hex()
        assert chi2.chi2_isf(alpha, df).hex() == expected
        assert chi2.chi2_isf(alpha, df).hex() == expected  # from the memo


TAIL_DFS = (1, 2, 3, 7, 26, 242, 20_000, 200_000)
TAIL_ALPHAS = (0.5, 1e-3, 1e-6, 1e-12, 1e-15, 1e-50, 1e-100, 1e-200, 1e-300)


@pytest.mark.parametrize("df", TAIL_DFS)
def test_upper_tails_match_scipy_down_to_1e_300(df):
    # 1 - cdf gave 0.0 below ~1e-17 (chi2_sf(80, 3) is 3.07e-17), and the
    # critical value at 1e-15 and df 26 was 129.489 instead of 129.619
    for alpha in TAIL_ALPHAS:
        x = scipy.stats.chi2.isf(alpha, df)
        assert chi2.chi2_sf(x, df) == pytest.approx(alpha, rel=1e-9), alpha
        assert chi2.chi2_isf(alpha, df) == pytest.approx(x, rel=1e-7), alpha
    for x in (0.0, 0.3, 1.0, float(df), 3.0 * df, 50.0, 80.0):
        assert chi2.chi2_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), rel=1e-9), x
    assert chi2.chi2_sf(math.inf, df) == 0.0
