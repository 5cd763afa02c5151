"""Exception types shared across the library, and the one rule for each kind of
argument (a count or index, a probability in (0, 1), a positive threshold, the
keys of a config object)."""

import math

import numpy as np

_NUMBERS = (int, float, np.integer, np.floating)


class InvalidInputError(ValueError):
    """Inputs violate a documented precondition (shapes, ranges, sums)."""


def check_int(value, name: str, lo=0, hi=math.inf) -> int:
    """``value`` as a Python int in [lo, hi), else InvalidInputError naming ``name``;
    a bool is not an integer, nor is a whole float such as 2.0."""
    if type(value) is not int:  # a plain int skips this: chi2_cdf checks df on every call
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if lo <= value < hi:
        return value
    rule = f"must be at least {lo}" if hi == math.inf else f"out of range [{lo}, {hi})"
    raise InvalidInputError(f"{name} {rule}, got {value}")


def check_unit(value, name: str) -> None:
    """Refuse ``value`` unless it is a number in the open interval (0, 1); a bool is not."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not 0.0 < value < 1.0:
        raise InvalidInputError(f"{name} must be in (0, 1), got {value!r}")


def check_positive(value, name: str) -> None:
    """Refuse ``value`` unless it is a positive finite number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not 0.0 < value < math.inf:
        raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


def check_keys(cfg: dict, known, where: str) -> None:
    """Refuse a config object with a key outside ``known``, naming the key: a
    misspelled key would otherwise be ignored and its default used."""
    for key in cfg:
        if key not in known:
            raise InvalidInputError(f"{where} has unknown key {key!r}")


class UndefinedConditionalError(InvalidInputError):
    """Conditioning on a signal whose marginal probability is zero."""


class NonConvergenceError(ArithmeticError):
    """A numerical series or continued fraction did not converge within its cap.

    Raised instead of returning a value of unknown accuracy.
    """


class ZeroCellObserved(Exception):
    """A joint action with announced probability zero was observed.

    Observing such an action refutes the null hypothesis outright, so the
    statistic is never computed; callers treat this as a rejection branch,
    not as a failure.
    """

    def __init__(self, cells):
        self.cells = tuple(cells)
        super().__init__(f"observed joint actions with zero announced probability: {self.cells}")


class InfeasiblePlanError(ValueError):
    """No Type-2 budget exists because the target error does not exceed psi."""

    def __init__(self, p, psi):
        self.p = p
        self.psi = psi
        super().__init__(f"target error p={p} does not exceed psi={psi}; no valid beta exists")


class InfeasibleScheduleError(ValueError):
    """Some test index in a schedule has an infeasible plan."""

    def __init__(self, test_index, p, psi):
        self.test_index = test_index
        self.p = p
        self.psi = psi
        super().__init__(
            f"test {test_index} infeasible: p({test_index})={p} does not exceed psi={psi}"
        )


class HorizonExceededError(IndexError):
    """A time index lies beyond the generated schedule horizon."""


class NoDataError(ValueError):
    """A requested average has no underlying rounds (e.g. no free periods)."""
