"""Repeated-testing timelines: sampling tests, free periods, growth checks.

A schedule alternates sampling tests R_1, F_1, R_2, F_2, ... tiling the
timeline from t = 1 with no gaps. Test j's parameters come from rules
delta(j) (decreasing to zero) and p(j) (summable); its length is the planned
sample size, and the following free period's length is a function of it
(default: the square). The asymptotic requirements - vanishing test-to-free
length ratio, superlinear test growth - are validated on finite prefixes as
monotonicity surrogates, not proofs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from . import verifier
from .errors import (
    HorizonExceededError,
    InfeasiblePlanError,
    InfeasibleScheduleError,
    InvalidInputError,
    check_int,
    check_positive,
    check_real,
    check_unit,
)
from .games import CorrelatedStrategy, Game
from .verifier import DEFAULT_MC_SAMPLES, TestPlan, manual_plan, plan_test

RATIO_THRESHOLD = 0.05  # the cumulative test-to-free ratio validation requires at the prefix end


class PhaseKind(Enum):
    SAMPLING_TEST = "R"
    FREE_PERIOD = "F"


@dataclass(frozen=True)
class Phase:
    """One contiguous block: kind, 1-based index j, first round, length."""

    kind: PhaseKind
    index: int
    begin: int
    length: int

    def __post_init__(self):
        if not isinstance(self.kind, PhaseKind):
            raise InvalidInputError(f"phase kind must be a PhaseKind, got {self.kind!r}")
        check_int(self.index, "phase index", 1)
        check_int(self.length, "phase length", 1)
        check_int(self.begin, "phase begin", 1)

    @property
    def end(self) -> int:
        """Last round of the phase, inclusive."""
        return self.begin + self.length - 1


@dataclass(frozen=True)
class ScheduleRules:
    """Parameter rules for repeated testing.

    ``p_series_bound`` is a bound on the full infinite sum of p(j), supplied
    by the rule family (used by the partial-sum validation check).
    """

    delta_rule: Callable[[int], float]
    p_rule: Callable[[int], float]
    free_length_rule: Callable[[int], int]
    p_series_bound: float


def harmonic_rules() -> ScheduleRules:
    """Harmonic sensitivity with halving error: delta(j) = 1/j, p(j) = 2^-j.

    Free periods are the square of the preceding test (l_F = l_R^2). Note
    that on full-support announced strategies the undetectable-deviation
    measure shrinks only like sqrt(delta(j)) ~ j^(-1/2), so the halving
    p-rule eventually undercuts it and planning becomes infeasible; these
    rules suit strongly correlated announcements, where the measure vanishes
    once delta(j) falls below the distance to the nearest product
    distribution.
    """
    return ScheduleRules(
        delta_rule=lambda j: 1.0 / j,
        p_rule=lambda j: 2.0 ** -j,
        free_length_rule=lambda l_r: l_r * l_r,
        p_series_bound=1.0,
    )


def geometric_rules(
    delta0: float,
    p0: float,
    delta_decay: float = 16.0,
    p_decay: float = 2.0,
) -> ScheduleRules:
    """Geometrically decaying rules: delta and p both shrink by fixed factors.

    Because the undetectable-deviation measure scales like sqrt(delta) on
    full-support announcements, delta must decay at least as fast as p^2 for
    every test to stay feasible; the defaults (16 vs 2) satisfy that with
    margin. l_F = l_R^2 as in the example rules.
    """
    check_positive(delta0, "delta0")
    check_unit(p0, "p0")
    check_real(delta_decay, "delta_decay", "(1, inf)")
    check_real(p_decay, "p_decay", "(1, inf)")
    return ScheduleRules(
        delta_rule=lambda j: delta0 / delta_decay ** (j - 1),
        p_rule=lambda j: p0 / p_decay ** (j - 1),
        free_length_rule=lambda l_r: l_r * l_r,
        p_series_bound=p0 * p_decay / (p_decay - 1.0),
    )


@dataclass(frozen=True)
class Schedule:
    """Alternating phases plus the per-test plans that sized them.

    The phases tile the timeline from t = 1. Tests are numbered 1..J in
    order, and a free period after test j is numbered j (one before any test
    only needs an index of at least 1). ``plans`` holds one slot per test:
    ``plans[j - 1]`` is test j's plan, or None, and a test with a plan is as
    long as its sample size.
    """

    phases: tuple[Phase, ...]
    plans: tuple[TestPlan | None, ...]
    rules: ScheduleRules | None
    _begins: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        t, tests = 1, 0
        for ph in self.phases:
            if ph.begin != t:
                raise InvalidInputError(f"phase {ph} does not tile the timeline at t={t}")
            t = ph.end + 1
            tests += ph.kind is PhaseKind.SAMPLING_TEST
            if tests and ph.index != tests:
                raise InvalidInputError(
                    f"phase {ph.kind.value}{ph.index} at t={ph.begin} should be {tests}: tests "
                    f"run 1..J in order, and the free period after test j is j")
        if len(self.plans) != tests:
            raise InvalidInputError(f"need a plan slot per test: {tests} tests, "
                                    f"{len(self.plans)} slots")
        for ph, plan in zip(self.tests(), self.plans):
            if plan is not None and plan.sample_size != ph.length:
                raise InvalidInputError(f"test {ph.index} lasts {ph.length} rounds, but its "
                                        f"plan's sample size is {plan.sample_size}")
        object.__setattr__(self, "_begins", tuple(ph.begin for ph in self.phases))

    @property
    def horizon(self) -> int:
        """Last generated round."""
        return self.phases[-1].end if self.phases else 0

    @property
    def conforming(self) -> bool:
        """Whether planning rules produced the lengths; toy and literal schedules
        were not, and validation refuses them."""
        return self.rules is not None

    def tests(self) -> list[Phase]:
        return [ph for ph in self.phases if ph.kind is PhaseKind.SAMPLING_TEST]

    def free_periods(self) -> list[Phase]:
        return [ph for ph in self.phases if ph.kind is PhaseKind.FREE_PERIOD]

    def plan_for(self, j: int) -> TestPlan | None:
        return self.plans[j - 1]


def locate(schedule: Schedule, t: int) -> tuple[Phase, int]:
    """The unique phase containing round t, and t's 0-based offset within it."""
    check_int(t, "time index t", 1)
    if t > schedule.horizon:
        raise HorizonExceededError(f"t={t} beyond generated horizon {schedule.horizon}")
    i = bisect.bisect_right(schedule._begins, t) - 1
    ph = schedule.phases[i]
    return ph, t - ph.begin


def build_schedule(
    game: Game,
    sigma_m: CorrelatedStrategy,
    rules: ScheduleRules,
    horizon_tests: int,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> Schedule:
    """Plan and lay out the first ``horizon_tests`` tests and free periods.

    Test j's plan uses p(j) and delta(j); its length is the planned sample
    size and the free period's length follows from the free-length rule.
    psi is estimated once, as a curve over delta(1), ..., delta(J) from one
    set of draws at seed ``seed + 1`` (so test 1 is planned exactly as
    ``plan_test(..., seed=seed + 1)`` plans it); the per-test estimates are
    therefore dependent, each still unbiased. Raises InfeasibleScheduleError
    naming the first test whose target error does not exceed its estimated
    undetectable-deviation measure.
    """
    check_int(horizon_tests, "horizon_tests", 1)
    verifier.check_draws(mc_samples, seed)
    targets = [(rules.p_rule(j), rules.delta_rule(j)) for j in range(1, horizon_tests + 1)]
    for j, (p_j, delta_j) in enumerate(targets, start=1):
        try:
            verifier.check_target(p_j, delta_j)
        except InvalidInputError as exc:
            raise InvalidInputError(f"test {j}: {exc}") from None
    curve = verifier.estimate_psi(game, sigma_m, [delta_j for _, delta_j in targets],
                                  mc_samples=mc_samples, seed=seed + 1)
    plans: list[TestPlan] = []
    free_lengths: list[int] = []
    for j, ((p_j, delta_j), est) in enumerate(zip(targets, curve.estimates), start=1):
        try:
            plan = plan_test(game, sigma_m, p_j, delta_j, psi=est)
        except InfeasiblePlanError as exc:
            raise InfeasibleScheduleError(j, p_j, exc.psi) from exc
        l_f = rules.free_length_rule(plan.sample_size)
        if isinstance(l_f, float) and l_f.is_integer():  # the rule may give a whole float
            l_f = int(l_f)
        plans.append(plan)
        free_lengths.append(check_int(l_f, f"free length rule at test {j}", 1))
    layout = literal_layout([plan.sample_size for plan in plans], free_lengths)
    return Schedule(layout.phases, tuple(plans), rules)


def literal_layout(test_lengths: Sequence[int], free_lengths: Sequence[int]) -> Schedule:
    """Phases from literal length lists, no plans attached; a free length of 0 omits that period."""
    if len(test_lengths) != len(free_lengths):
        raise InvalidInputError("need one free length per test length")
    phases: list[Phase] = []
    t = 1
    for j, (l_r, l_f) in enumerate(zip(test_lengths, free_lengths), start=1):
        l_r, l_f = check_int(l_r, f"test {j} length", 1), check_int(l_f, f"test {j} free length")
        phases.append(Phase(PhaseKind.SAMPLING_TEST, j, t, l_r))
        t += l_r
        if l_f > 0:
            phases.append(Phase(PhaseKind.FREE_PERIOD, j, t, l_f))
            t += l_f
    return Schedule(tuple(phases), tuple([None] * len(test_lengths)), rules=None)


def toy_schedule(
    game: Game,
    sigma_m: CorrelatedStrategy,
    alpha: float,
    delta_hat: float,
    test_lengths: Sequence[int],
    free_lengths: Sequence[int],
) -> Schedule:
    """Literal lengths with explicitly chosen alpha; for fast runs only.

    Not produced by the planning rules, hence non-conforming: the asymptotic
    growth conditions are not expected to hold and validation refuses it.
    Phases come from ``literal_layout`` (a free length of 0 omits that free period).
    """
    layout = literal_layout(test_lengths, free_lengths)
    plans = tuple(manual_plan(game, sigma_m, alpha, delta_hat, ph.length) for ph in layout.tests())
    return Schedule(layout.phases, plans, rules=None)


def single_test_schedule(plan: TestPlan) -> Schedule:
    """A schedule holding exactly one sampling test sized by the given plan."""
    phases = (Phase(PhaseKind.SAMPLING_TEST, 1, 1, plan.sample_size),)
    return Schedule(phases, (plan,), rules=None)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Finite-prefix surrogate checks for the asymptotic schedule conditions.

    These are monotonicity/threshold checks over a generated prefix; passing
    them supports, but cannot prove, the limiting requirements.
    """

    checks: dict[str, CheckResult]
    prefix_tests: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    note = (
        "finite-prefix surrogates of asymptotic conditions; "
        "passing supports but does not prove the limits"
    )


def _strictly_decreasing_suffix(xs: Sequence[float]) -> int:
    """Length of the longest strictly decreasing suffix."""
    n = 1
    for i in range(len(xs) - 1, 0, -1):
        if xs[i] < xs[i - 1]:
            n += 1
        else:
            break
    return n


def validate_schedule(schedule: Schedule, prefix_tests: int) -> ValidationReport:
    """Check the growth/summability conditions over a schedule prefix.

    (a) cumulative test-to-free length ratio strictly decreasing from some
        test onward and below ``RATIO_THRESHOLD`` at the prefix end;
    (b) l_R(j)/j strictly increasing from some test onward (superlinear
        growth surrogate);
    (c) delta(j) strictly decreasing over the prefix;
    (d) the p(j) partial sum stays below the rule's series bound.
    """
    check_int(prefix_tests, "prefix_tests", 2)
    if not schedule.conforming:
        raise InvalidInputError("schedule is non-conforming; validation does not apply")
    tests = schedule.tests()
    frees = schedule.free_periods()
    if len(tests) < prefix_tests:
        raise InvalidInputError(f"schedule has {len(tests)} tests, need {prefix_tests}")
    l_r = [ph.length for ph in tests[:prefix_tests]]
    l_f = [ph.length for ph in frees[:prefix_tests]]

    ratios = []
    cr = cf = 0
    for a, b in zip(l_r, l_f):
        cr += a
        cf += b
        ratios.append(cr / cf)
    dec = _strictly_decreasing_suffix(ratios)
    a_ok = dec >= 2 and ratios[-1] < RATIO_THRESHOLD
    check_a = CheckResult(
        a_ok,
        f"cumulative ratio strictly decreasing over final {dec}/{prefix_tests} tests; "
        f"end value {ratios[-1]:.6g} vs threshold {RATIO_THRESHOLD}",
    )

    per_j = [l / (j + 1) for j, l in enumerate(l_r)]
    inc = _strictly_decreasing_suffix([-x for x in per_j])
    b_ok = inc >= 2
    check_b = CheckResult(
        b_ok, f"l_R(j)/j strictly increasing over final {inc}/{prefix_tests} tests"
    )

    deltas = [schedule.rules.delta_rule(j) for j in range(1, prefix_tests + 1)]
    c_ok = all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    check_c = CheckResult(c_ok, f"delta sequence {deltas}")

    partial = sum(schedule.rules.p_rule(j) for j in range(1, prefix_tests + 1))
    d_ok = partial < schedule.rules.p_series_bound
    check_d = CheckResult(
        d_ok, f"partial sum {partial:.6g} vs series bound {schedule.rules.p_series_bound}"
    )

    return ValidationReport(
        checks={
            "length_ratio_vanishes": check_a,
            "tests_grow_superlinearly": check_b,
            "delta_decreasing": check_c,
            "p_summable": check_d,
        },
        prefix_tests=prefix_tests,
    )
