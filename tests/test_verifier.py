import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    WORD_EDGES,
    dense_psi,
    dense_sensitivities,
    per_subset_psi_counts,
    positive_mass_floor,
    simplex_rows,
)

from advicecheck import (
    CorrelatedStrategy,
    Decision,
    Game,
    InfeasiblePlanError,
    InvalidInputError,
    Outcome,
    PsiCurve,
    ZeroCellObserved,
    estimate_psi,
    manual_plan,
    pearson_statistic,
    plan_test,
    power_beta,
    run_sampling_decision,
    sample_size,
    sensitivity_delta,
)
from advicecheck import verifier
from advicecheck.agents import Mode
from advicecheck.errors import check_reals
from advicecheck.games import agent_incentive_violations

ACCEPT_COUNTS = [96, 601, 224, 1179]
REJECT_COUNTS = [1050, 350, 525, 175]


def test_pearson_statistic_worked_values(ce_strategy, non_ce_strategy):
    t1 = pearson_statistic(ACCEPT_COUNTS, ce_strategy, 2100)
    assert t1 == pytest.approx(4.6997, abs=0.05)
    t2 = pearson_statistic(REJECT_COUNTS, non_ce_strategy, 2100)
    assert t2 == pytest.approx(5145.0, abs=0.5)


def test_pearson_statistic_zero_when_exact(ce_strategy):
    counts = np.round(1800 * ce_strategy.probs).astype(int)  # 1800/18 integral
    assert counts.sum() == 1800
    assert pearson_statistic(counts, ce_strategy, 1800) == 0.0


def test_pearson_statistic_nonnegative_and_zero_iff_match(ce_strategy):
    rng = np.random.default_rng(0)
    for _ in range(20):
        counts = rng.multinomial(1800, ce_strategy.probs)
        t = pearson_statistic(counts, ce_strategy, 1800)
        assert t >= 0.0
        expected = np.round(1800 * ce_strategy.probs).astype(int)
        if not np.array_equal(counts, expected):
            assert t > 0.0


def test_pearson_statistic_validates_total(ce_strategy):
    with pytest.raises(InvalidInputError):
        pearson_statistic([1, 2, 3, 4], ce_strategy, 9)


def test_pearson_statistic_reads_integer_counts_exactly(ce_strategy):
    # the engine's int64 counts pass the shared reader as they are, unscanned, and
    # a list of Python ints stays integer: 2**53 + 1 would round to 2**53 in floats
    counts = np.array([1, 2, 3, 3])
    assert check_reals(counts, "observed_counts") is counts
    uniform = CorrelatedStrategy([0.25] * 4)
    l_t = 2**53 + 1
    assert pearson_statistic([l_t, 0, 0, 0], uniform, l_t) == pytest.approx(3.0 * l_t)


def test_pearson_statistic_zero_cell_signal():
    sigma = CorrelatedStrategy([0.0, 0.5, 0.25, 0.25])
    with pytest.raises(ZeroCellObserved) as err:
        pearson_statistic([1, 50, 25, 24], sigma, 100)
    assert err.value.cells == (0,)
    # all mass off the zero cell computes normally
    assert pearson_statistic([0, 50, 25, 25], sigma, 100) == pytest.approx(0.0, abs=1e-12)


def test_pearson_statistic_permutation_invariance(ce_strategy):
    rng = np.random.default_rng(3)
    counts = rng.multinomial(2100, ce_strategy.probs)
    t = pearson_statistic(counts, ce_strategy, 2100)
    perm = [2, 0, 3, 1]
    t_perm = pearson_statistic(
        counts[perm], CorrelatedStrategy(ce_strategy.probs[perm]), 2100
    )
    assert t_perm == pytest.approx(t, rel=1e-12)


def test_sensitivity_delta_identity(ce_strategy):
    assert sensitivity_delta(ce_strategy, ce_strategy) == 0.0


def test_sensitivity_delta_exact_rational():
    announced = [Fraction(2, 18), Fraction(10, 18), Fraction(1, 18), Fraction(5, 18)]
    actual = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 4), Fraction(1, 12)]
    assert sensitivity_delta(announced, actual) == Fraction(49, 20)  # exactly 2.45


def test_sensitivity_delta_positive_when_different(ce_strategy):
    other = CorrelatedStrategy([0.25, 0.25, 0.25, 0.25])
    assert sensitivity_delta(ce_strategy, other) > 0.0


def test_sensitivity_delta_excludes_zero_cells():
    announced = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    actual = [Fraction(1, 10), Fraction(4, 10), Fraction(1, 4), Fraction(1, 4)]
    # the first cell contributes nothing despite the mismatch
    assert sensitivity_delta(announced, actual) == (Fraction(4, 10) - Fraction(1, 2)) ** 2 / Fraction(1, 2)


# analytic sublevel measures for the product announcement: deviations by one
# agent give a quadratic sensitivity along its simplex, so the measure is a
# square root; derived by hand for each single-agent subset
def _psi_exact_single(delta_hat):
    return {
        (0,): min(2 * math.sqrt(2 * delta_hat) / 3, 1.0),
        (1,): min(math.sqrt(5 * delta_hat) / 3, 1.0),
    }


def test_estimate_psi_matches_analytic(game, ce_strategy):
    est = estimate_psi(game, ce_strategy, 0.01, mc_samples=100_000, seed=5)
    exact = _psi_exact_single(0.01)
    for subset, value in exact.items():
        got = est.per_subset[subset]
        se = math.sqrt(max(value * (1 - value), 1e-9) / 100_000)
        assert abs(got - value) <= 4 * se
    assert est.psi == max(est.per_subset.values())
    assert est.psi == pytest.approx(0.094281, abs=0.005)


def test_estimate_psi_huge_threshold_saturates(game, ce_strategy):
    est = estimate_psi(game, ce_strategy, 100.0, mc_samples=2000, seed=1)
    assert est.psi == 1.0


def test_estimate_psi_monotone_in_delta_hat(game, ce_strategy):
    # shared seed makes the sublevel sets nested draw by draw
    values = [
        estimate_psi(game, ce_strategy, d, mc_samples=20_000, seed=9).psi
        for d in (0.002, 0.005, 0.01, 0.05, 0.2)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_estimate_psi_validation(game, ce_strategy):
    with pytest.raises(InvalidInputError):
        estimate_psi(game, ce_strategy, -0.1, mc_samples=2000)
    with pytest.raises(InvalidInputError):
        estimate_psi(game, ce_strategy, 0.01, mc_samples=10)


BAD_DELTA_HAT = st.one_of(st.sampled_from([math.nan, math.inf]), st.floats(max_value=0.0))


@settings(max_examples=30, deadline=None)
@given(delta_hat=BAD_DELTA_HAT)
def test_estimate_psi_refuses_bad_delta_hat(game, ce_strategy, delta_hat):
    # NaN compares false against delta_hat and used to give psi 0.0
    with pytest.raises(InvalidInputError):
        estimate_psi(game, ce_strategy, delta_hat, mc_samples=1000)


@settings(max_examples=30, deadline=None)
@given(delta_hat=BAD_DELTA_HAT)
def test_plan_test_refuses_bad_delta_hat_before_sampling(game, ce_strategy, delta_hat):
    with mock.patch.object(verifier, "estimate_psi", side_effect=AssertionError("psi estimated")):
        with pytest.raises(InvalidInputError):
            plan_test(game, ce_strategy, p=0.1, delta_hat=delta_hat, mc_samples=1000)


@settings(max_examples=30, deadline=None)
@given(delta_hat=BAD_DELTA_HAT)
def test_power_entry_points_refuse_bad_delta_hat(game, ce_strategy, delta_hat):
    # a NaN or infinite delta_hat used to reach the noncentral series and die
    # with RuntimeError
    with pytest.raises(InvalidInputError):
        manual_plan(game, ce_strategy, 0.1, delta_hat, 100)
    with pytest.raises(InvalidInputError):
        power_beta(0.1, delta_hat, 3, 100)
    with pytest.raises(InvalidInputError):
        sample_size(0.1, 0.1, delta_hat, 3)


@pytest.mark.parametrize("n", [2.5, True, 100.0, "100"])
def test_power_entry_points_refuse_a_sample_size_that_is_not_an_integer(game, ce_strategy, n):
    # 2.5 and True used to be taken as sample sizes
    with pytest.raises(InvalidInputError, match="sample_size"):
        power_beta(0.1, 0.01, 3, n)
    with pytest.raises(InvalidInputError, match="sample_size"):
        manual_plan(game, ce_strategy, 0.1, 0.01, n)


def _near_product(rng, counts, eps):
    """A product of random marginals mixed with eps of arbitrary correlated mass."""
    joint = np.ones(1)
    for c in counts:
        joint = np.multiply.outer(joint, rng.dirichlet(np.full(c, 3.0))).ravel()
    return (1 - eps) * joint + eps * rng.dirichlet(np.ones(joint.size))


def _random_psi_case(rng):
    """1-4 agents with 1-4 actions each, near-product or not, some zero cells."""
    n = int(rng.integers(1, 5))
    counts = [int(rng.integers(1, 5)) for _ in range(n)]
    probs = _near_product(rng, counts, rng.choice([0.0, 0.02, 0.3, 1.0]))
    if probs.size > 1 and rng.random() < 0.4:
        zeros = rng.choice(probs.size, size=int(rng.integers(1, probs.size)), replace=False)
        probs[zeros] = 0.0
    game = Game(counts, rng.uniform(0, 5, size=(probs.size, n)))
    delta_hat = float(10 ** rng.uniform(-3, math.log10(0.3)))
    return game, CorrelatedStrategy(probs / probs.sum()), delta_hat


def test_estimate_psi_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    interior = 0
    for _ in range(200):
        g, sigma, delta_hat = _random_psi_case(rng)
        seed = int(rng.integers(2**31))
        est = estimate_psi(g, sigma, delta_hat, mc_samples=1000, seed=seed)
        assert est.per_subset == dense_psi(g, sigma, delta_hat, 1000, seed=seed)
        interior += sum(0.0 < f < 1.0 for f in est.per_subset.values())
    assert interior >= 100  # the comparison is not all zeros and ones


def test_singleton_subsets_keep_their_stream():
    # subset rank d is the single deviator d, whose draws come from
    # SeedSequence(seed, spawn_key=(d,)), its rank's own stream
    rng = np.random.default_rng(913)
    interior = 0
    for _ in range(60):
        g, sigma, delta_hat = _random_psi_case(rng)
        seed = int(rng.integers(2**31))
        est = estimate_psi(g, sigma, delta_hat, mc_samples=1000, seed=seed)
        probs = sigma.probs.reshape(g.action_counts)
        positive = (probs > 0).ravel()
        for d, k in enumerate(g.action_counts):
            assert verifier._deviating_subsets(g)[d] == (d,)
            own = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(d,)))
            shape = [1] * g.num_agents
            shape[d] = k
            gamma = simplex_rows(own, 1000, k).reshape(1000, *shape)
            composed = (probs.sum(axis=d, keepdims=True) * gamma).reshape(1000, -1)
            diff = composed[:, positive] - probs.ravel()[positive]
            delta = (diff * diff / probs.ravel()[positive]).sum(axis=1)
            assert est.per_subset[(d,)] == float((delta < delta_hat).mean())
            interior += 0.0 < est.per_subset[(d,)] < 1.0
    assert interior >= 30


def test_multi_deviator_fractions_agree_with_an_independent_dense_estimate(game, ce_strategy,
                                                                        game_2x2x2):
    # subsets share their agents' draws, which correlates their estimates; each
    # multi-deviator fraction must still match a dense estimate on other draws
    n = 20_000
    for (g, sigma), delta_hat in [((game, ce_strategy), 0.01), (game_2x2x2, 0.3)]:
        est = estimate_psi(g, sigma, delta_hat, mc_samples=n, seed=5)
        ref = dense_psi(g, sigma, delta_hat, n, seed=6)
        multi = [devs for devs in est.per_subset if len(devs) > 1]
        assert len(multi) == 2 ** g.num_agents - 1 - g.num_agents
        for devs in multi:
            f, r = est.per_subset[devs], ref[devs]
            assert 0.0 < f < 1.0
            assert abs(f - r) <= 4.0 * math.sqrt((f * (1.0 - f) + r * (1.0 - r)) / n)


def test_estimate_psi_memory_bounded_in_samples():
    rng = np.random.default_rng(5)
    counts = (3,) * 5
    probs = _near_product(rng, counts, 0.02)
    g = Game(counts, rng.uniform(0, 5, size=(probs.size, len(counts))))
    sigma = CorrelatedStrategy(probs / probs.sum())
    tracemalloc.start()
    try:
        estimate_psi(g, sigma, 0.01, mc_samples=100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (mc_samples, |A|) matrix alone would be 185 MiB
    assert peak < 64 * 2**20


@pytest.mark.parametrize("counts", [(2, 2), (3, 2), (2, 2, 2), (3, 3, 2)])
def test_estimate_psi_curve_equals_each_threshold_alone(counts):
    # the thresholds are out of order and repeat one: the curve keeps the given order
    deltas = [0.05, 0.002, 0.3, 0.01, 0.002]
    rng = np.random.default_rng(sum(counts) * 10 + len(counts))
    interior = 0
    for eps in (0.0, 0.3, 1.0):
        probs = _near_product(rng, counts, eps)
        g = Game(counts, rng.uniform(0, 5, size=(probs.size, len(counts))))
        sigma = CorrelatedStrategy(probs / probs.sum())
        seed = int(rng.integers(2**31))
        curve = estimate_psi(g, sigma, deltas, mc_samples=1000, seed=seed)
        assert isinstance(curve, PsiCurve) and curve.mc_samples == 1000
        assert len(curve.estimates) == len(deltas)
        for k, (d, est) in enumerate(zip(deltas, curve.estimates)):
            assert est == estimate_psi(g, sigma, d, mc_samples=1000, seed=seed)
            assert est.per_subset == dense_psi(g, sigma, d, 1000, seed=seed)
            assert all(curve.per_subset[devs][k] == f for devs, f in est.per_subset.items())
            interior += sum(0.0 < f < 1.0 for f in est.per_subset.values())
        assert len(curve.per_subset) == 2 ** len(counts) - 1
    assert interior > 0


def test_estimate_psi_curve_refuses_a_bad_threshold_before_drawing(game, ce_strategy):
    with mock.patch.object(verifier, "_draws", side_effect=AssertionError("drawn")):
        with pytest.raises(InvalidInputError, match=r"delta_hat\[2\]"):
            estimate_psi(game, ce_strategy, [0.1, 0.01, math.nan], mc_samples=1000)
        with pytest.raises(InvalidInputError, match="at least one threshold"):
            estimate_psi(game, ce_strategy, [], mc_samples=1000)


def test_draws_are_the_per_deviator_exponentials():
    # one deviator's draws: the values and end state of one exponential((n, k)) call
    for k in [3, 1, 4]:
        one, each = np.random.default_rng(11), np.random.default_rng(11)
        e = verifier._draws(one, 1000, k)
        assert e.shape == (1000, k)
        assert e.tobytes() == each.exponential(size=(1000, k)).tobytes()
        assert one.random() == each.random()


def test_psi_screen_floor_is_a_lower_bound_on_the_dense_sensitivity():
    rng = np.random.default_rng(77)
    zero_cases = screened = 0
    for _ in range(60):
        g, sigma, _ = _random_psi_case(rng)
        seed = int(rng.integers(2**31))
        probs = sigma.probs
        zero_cases += bool((probs == 0).any())
        screens = verifier._screens(probs.reshape(g.action_counts))
        dense = dense_sensitivities(g, sigma, 1000, seed=seed)
        for devs, delta in dense.items():
            for d in devs:
                sub = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(d,)))
                e = verifier._draws(sub, 1000, g.action_counts[d])
                marg, inv, lmin = screens[d]
                # the subset's own least positive-cell mass, which the agent's lmin never exceeds
                tight = positive_mass_floor(g, sigma, devs, d)
                assert (lmin is None) == bool((probs > 0).all())  # None: the full-support form
                if lmin is not None:
                    assert np.all(lmin <= tight)
                for bound in (lmin, tight):
                    floor = verifier._floor(e, marg, inv, bound)
                    assert np.all(floor <= delta + verifier._FLOOR_MARGIN * (1.0 + delta))
                    screened += 1
    assert zero_cases >= 15 and screened >= 300


def test_estimate_psi_matches_dense_oracle_where_the_screen_drops_some_or_none():
    rng = np.random.default_rng(4242)
    contracted = []  # rows that reach the contraction, per subset
    count_below = verifier._count_below

    def spy(gammas, *args):
        contracted.append(len(gammas[0]))
        return count_below(gammas, *args)

    dropped = zero_dropped = 0
    for _ in range(40):
        g, sigma, _ = _random_psi_case(rng)
        seed = int(rng.integers(2**31))
        dense = dense_sensitivities(g, sigma, 1000, seed=seed)
        every = np.concatenate(list(dense.values()))
        # thresholds at the samples' quartiles straddle the screen's cut
        deltas = [float(q) for q in np.quantile(every, [0.25, 0.5, 0.75]) if q > 0]
        if deltas:
            contracted.clear()
            with mock.patch.object(verifier, "_count_below", spy):
                curve = estimate_psi(g, sigma, deltas, mc_samples=1000, seed=seed)
            for d, est in zip(deltas, curve.estimates):
                assert est.per_subset == {devs: float((x < d).mean()) for devs, x in dense.items()}
            dropped += len(every) - sum(contracted)
            if (sigma.probs == 0).any():
                zero_dropped += len(every) - sum(contracted)
        # psi = 1: every sensitivity is at most max(1/min sigma - 1, 1), so none is dropped
        contracted.clear()
        with mock.patch.object(verifier, "_count_below", spy):
            alone = estimate_psi(g, sigma, 2.0 / sigma.probs[sigma.probs > 0].min(),
                                 mc_samples=1000, seed=seed)
        assert alone.per_subset == dict.fromkeys(dense, 1.0)
        assert sum(contracted) == len(every)
    assert dropped > 10_000  # of about 60,000 samples above the largest quartile
    assert zero_dropped > 1000  # announcements with zero cells are screened too (4334 here)


@pytest.mark.parametrize("kwargs, name", [
    ({"mc_samples": 2000.0}, "mc_samples"), ({"mc_samples": True}, "mc_samples"),
    ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"seed": "3"}, "seed"),
])
def test_psi_entry_points_refuse_bad_samples_and_seed(game, ce_strategy, kwargs, name):
    # these used to leak TypeError or SeedSequence's ValueError
    with pytest.raises(InvalidInputError, match=name):
        estimate_psi(game, ce_strategy, 0.01, **{"mc_samples": 1000, **kwargs})
    with pytest.raises(InvalidInputError, match=name):
        plan_test(game, ce_strategy, 0.3, 0.01, **{"mc_samples": 1000, **kwargs})


def test_estimate_psi_contraction_memory_flat_in_samples():
    rng = np.random.default_rng(6)
    counts = (3,) * 7
    probs = _near_product(rng, counts, 0.02)
    g = Game(counts, rng.uniform(0, 5, size=(probs.size, len(counts))))
    sigma = CorrelatedStrategy(probs / probs.sum())
    peaks = []
    for mc in (2000, 8000):
        tracemalloc.start()
        try:
            estimate_psi(g, sigma, 0.01, mc_samples=mc, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # only the drawn gammas grow: 7 deviators x 3 actions x 8 bytes per sample,
    # where the outer product over the 2187-cell grid would add 17 KiB per sample
    assert peaks[1] - peaks[0] < 6000 * 7 * 3 * 8 + 2**20
    assert peaks[1] < 8 * 2**20


@st.composite
def _psi_cases(draw):
    """A game of 1-4 agents with 1-4 actions each (2x3x4 among them), a near-product
    announcement with some zero cells, and unsorted thresholds, one repeated."""
    counts = draw(st.one_of(st.just([2, 3, 4]), st.lists(st.integers(1, 4), min_size=1,
                                                           max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = _near_product(rng, counts, draw(st.sampled_from([0.0, 0.02, 0.3, 1.0])))
    probs[draw(st.lists(st.integers(0, probs.size - 1), max_size=probs.size - 1,
                        unique=True))] = 0.0
    game = Game(counts, rng.uniform(0, 5, size=(probs.size, len(counts))))
    deltas = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3))
    deltas.insert(draw(st.integers(0, len(deltas))), draw(st.sampled_from(deltas)))
    # multi-word seeds take more mixing stages; a numpy integer is read as its int
    seed = draw(st.one_of(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1).map(np.int64),
                          st.sampled_from(WORD_EDGES[-2:])))
    return game, CorrelatedStrategy(probs / probs.sum()), deltas, seed


@settings(max_examples=60, deadline=None)
@given(case=_psi_cases())
def test_estimate_psi_counts_every_subset_as_the_per_subset_loop(case):
    game, sigma, deltas, seed = case
    curve = estimate_psi(game, sigma, deltas, mc_samples=1000, seed=seed)
    counts = per_subset_psi_counts(game, sigma, deltas, 1000, seed=seed)
    assert list(curve.per_subset) == verifier._deviating_subsets(game)
    assert curve.per_subset == {devs: tuple(n / 1000 for n in below)
                                for devs, below in counts.items()}


def _lone_sensitivity(gammas, forms, offset):
    """One row's sensitivity from ``_count_below`` alone, bit for bit: bisected down to
    the float whose successor is the least threshold the row is below."""
    lo, hi, one = -1.0, 1e9, np.zeros(1, dtype=np.int64)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if verifier._count_below(gammas, forms, one, offset, np.array([mid]))[0, 0]:
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("counts, size", [((2,) * 7, 3), ((3,) * 5, 3), ((4,) * 4, 2),
                                          ((2,) * 6, 6)])
def test_count_below_rounds_a_row_alike_alone_in_a_block_and_among_other_subsets(counts, size):
    # a GEMM's rounding of one row can change with the number of rows beside it
    rng = np.random.default_rng(sum(counts) + size)
    tensor = _near_product(rng, counts, 0.3).reshape(counts)
    devs = np.array(list(itertools.combinations(range(len(counts)), size))[:4])
    forms = verifier._subset_forms(tensor, devs)
    rows = 12
    owner = np.repeat(np.arange(len(devs)), rows)
    gammas = []
    for k in counts[:size]:
        g = simplex_rows(rng, len(owner), k)
        gammas.append(np.stack((g * g, g), axis=1))
    lone = np.array([_lone_sensitivity([h[t:t + 1] for h in gammas], forms[owner[t]:owner[t] + 1],
                                       1.0) for t in range(len(owner))])
    # a row whose sum moved would change the count at its value or at the next float
    thresholds = np.sort(np.concatenate((lone, np.nextafter(lone, np.inf))))
    expected = np.array([[np.sum(lone[owner == j] < t) for t in thresholds]
                         for j in range(len(devs))])
    for j in range(len(devs)):
        block = owner == j
        alone = verifier._count_below([h[block] for h in gammas], forms[j:j + 1],
                                      np.zeros(rows, dtype=np.int64), 1.0, thresholds)
        assert np.array_equal(alone[0], expected[j])
    assert np.array_equal(verifier._count_below(gammas, forms, owner, 1.0, thresholds), expected)


@pytest.mark.parametrize("counts", [(3,) * 7, (2,) * 8])
def test_estimate_psi_at_psi_one_stays_under_the_memory_cap(counts):
    rng = np.random.default_rng(len(counts))
    probs = rng.dirichlet(np.full(math.prod(counts), 5.0))
    g = Game(counts, rng.uniform(0, 5, size=(probs.size, len(counts))))
    sigma = CorrelatedStrategy(probs)
    peaks = []
    for mc in (1000, 2000):
        tracemalloc.start()
        try:
            est = estimate_psi(g, sigma, 1e6, mc_samples=mc, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # every sample survives the screen, and every subset contracts all of them
        assert est.psi == 1.0 and set(est.per_subset.values()) == {1.0}
    assert peaks[1] < 8 * 2**20
    # a sample holds each agent's draws (8 bytes an action) and (gamma^2, gamma)
    # rows (16), and its code, index and survivor code (12); chunks and blocks do not grow
    per_sample = 24 * sum(counts) + 12
    assert peaks[1] - peaks[0] < 1000 * per_sample + 2**20


def test_plan_test_worked_example(game, ce_strategy):
    plan = plan_test(game, ce_strategy, p=0.1, delta_hat=0.01, mc_samples=100_000, seed=8)
    assert plan.alpha == 0.1
    assert plan.p_target == 0.1
    assert plan.critical_value == pytest.approx(6.2514, abs=0.01)
    assert plan.psi == pytest.approx(0.0943, abs=0.01)
    assert plan.beta == pytest.approx(0.0063, abs=0.001)
    assert 1900 <= plan.sample_size <= 2300
    assert plan.df_total == 3
    assert plan.zero_cells == ()
    # the budget identity holds by construction
    assert (1 - plan.psi) * plan.beta + plan.psi == pytest.approx(plan.p_target, abs=1e-9)


def test_plan_test_zero_psi_gives_beta_equal_p(game, ce_strategy, monkeypatch):
    stub = verifier.PsiEstimate(psi=0.0, std_error=0.0, per_subset={}, mc_samples=1000)
    monkeypatch.setattr(verifier, "estimate_psi", lambda *a, **k: stub)
    plan = plan_test(game, ce_strategy, p=0.1, delta_hat=0.01)
    assert plan.beta == pytest.approx(0.1, abs=1e-12)


def test_plan_test_infeasible_when_p_below_psi(game, ce_strategy):
    with pytest.raises(InfeasiblePlanError) as err:
        plan_test(game, ce_strategy, p=0.05, delta_hat=0.01, mc_samples=50_000, seed=8)
    assert err.value.psi > 0.05


def test_plans_identical_across_agents(game, ce_strategy):
    # the subset enumeration covers all agents, so every agent derives the
    # same plan from the same inputs
    a = plan_test(game, ce_strategy, p=0.1, delta_hat=0.01, mc_samples=20_000, seed=4)
    b = plan_test(game, ce_strategy, p=0.1, delta_hat=0.01, mc_samples=20_000, seed=4)
    assert a == b


def test_decision_accept_worked_example(game, ce_strategy):
    plan = manual_plan(game, ce_strategy, alpha=0.1, delta_hat=0.01, sample_size=2100)
    d = run_sampling_decision(plan, ce_strategy, ACCEPT_COUNTS)
    assert d.outcome is Outcome.FOLLOW_MEDIATOR
    assert d.statistic == pytest.approx(4.6997, abs=0.05)
    assert d.p_value == pytest.approx(0.1952, abs=0.01)
    assert not d.rejected


def test_decision_p_value_is_formed_on_read(game, ce_strategy):
    # a verdict computes no survival probability; reading p_value forms the
    # chi-square one of its statistic on the plan's degrees of freedom
    plan = manual_plan(game, ce_strategy, alpha=0.1, delta_hat=0.01, sample_size=2100)
    with mock.patch.object(verifier.chi2, "chi2_sf", side_effect=AssertionError("formed")):
        d = run_sampling_decision(plan, ce_strategy, ACCEPT_COUNTS)
    assert d.df == plan.df_total
    assert d.p_value == verifier.chi2.chi2_sf(d.statistic, plan.df_total)


def test_decision_reject_by_statistic(game, non_ce_strategy):
    plan = manual_plan(game, non_ce_strategy, alpha=0.1, delta_hat=0.01, sample_size=2100)
    d = run_sampling_decision(plan, non_ce_strategy, REJECT_COUNTS)
    assert d.outcome is Outcome.REJECT_BY_STATISTIC
    assert d.statistic > plan.critical_value
    assert d.p_value < 1e-12


def test_decision_reject_by_incentive_screen(game, non_ce_strategy):
    # the screen runs before, and apart from, the verdict on the counts: agent
    # 2's own constraints fail, so it rejects without a statistic (CLI `test`
    # checks the whole path), while agent 1's hold and it takes the verdict
    assert agent_incentive_violations(game, non_ce_strategy, 1)
    assert not agent_incentive_violations(game, non_ce_strategy, 0)
    d = Decision(Outcome.REJECT_BY_EQ2)
    assert d.rejected
    assert d.statistic is None
    assert d.p_value is None


def test_decision_reject_by_zero_cell(game):
    sigma = CorrelatedStrategy([0.0, 0.5, 0.25, 0.25])
    plan = manual_plan(game, sigma, alpha=0.1, delta_hat=0.01, sample_size=100)
    d = run_sampling_decision(plan, sigma, [2, 49, 25, 24])
    assert d.outcome is Outcome.REJECT_BY_ZERO_CELL
    assert d.statistic is None
    # zero-cell strategies drop a degree of freedom
    assert plan.df_total == 2


def test_decision_as_dict_of_a_verdict_without_a_statistic(game):
    # a zero-cell reject and a screened agent's decision report no statistic
    sigma = CorrelatedStrategy([0.0, 0.5, 0.25, 0.25])
    plan = manual_plan(game, sigma, alpha=0.1, delta_hat=0.01, sample_size=100)
    zero_cell = run_sampling_decision(plan, sigma, [2, 49, 25, 24])
    _, screened = Mode.REJECTED_BY_EQ2.conclude(None)
    assert zero_cell.as_dict() == {"outcome": "RejectByZeroCell", "statistic": None,
                                   "p_value": None}
    assert screened.as_dict() == {"outcome": "RejectByEq2", "statistic": None, "p_value": None}


def test_decision_outcome_matches_critical_value(game, ce_strategy):
    plan = manual_plan(game, ce_strategy, alpha=0.1, delta_hat=0.01, sample_size=2100)
    rng = np.random.default_rng(12)
    for _ in range(25):
        counts = rng.multinomial(2100, ce_strategy.probs)
        d = run_sampling_decision(plan, ce_strategy, counts)
        assert (d.outcome is Outcome.REJECT_BY_STATISTIC) == (d.statistic >= plan.critical_value)
