"""Exception types shared across the library, and the one rule for each kind of
argument: a count or index (``check_int``), a real number in an interval
(``check_real``: a probability, a threshold, a chi-square argument), a vector
of real numbers (``check_reals``: a strategy, payoffs, counts) and the keys of
a config object. A number is an int, a float or a numpy integer or float; a
bool is not one, nor is a string, and a whole float such as 2.0 is no integer.
No other module decides what a number is: the CLI applies these rules to its
flags under the flags' names and passes config numbers to the library as they are.
"""

import functools
import math
import sys
from fractions import Fraction

import numpy as np

_NUMBERS = (int, float, np.integer, np.floating)
_ENTRIES = (*_NUMBERS, Fraction)  # a vector may hold exact rationals too


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


@functools.cache  # keyed by the few interval literals the callers write
def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    """"[0, 1)" as (0.0, 1.0, True, False): the ends, and whether each is included."""
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "[", interval[-1] == "]"


def check_real(value, name: str, interval: str):
    """``value`` as given if it is a number in ``interval``, else InvalidInputError
    naming ``name``. The interval is written as in mathematics, "(0, 1)", "[0, inf]",
    and NaN lies in none. A Fraction is not a number here, since the value is kept
    as given, nor is an int too large for a float: 10**400 compares as lying in
    (0, inf), but would overflow where it is used. A plain float skips the type
    tests: chi2_isf's bisection and sample_size's solver check x and ncp on every
    call."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _NUMBERS):
            raise InvalidInputError(f"{name} must be a number, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise InvalidInputError(f"{name} is too large for a float: {value.bit_length()} bits")
    lo, hi, with_lo, with_hi = _bounds(interval)
    if (lo < value or with_lo and lo == value) and (value < hi or with_hi and value == hi):
        return value
    raise InvalidInputError(f"{name} must be in {interval}, got {value!r}")


def check_unit(value, name: str):
    """``check_real`` on the open interval (0, 1): a probability."""
    return check_real(value, name, "(0, 1)")


def check_positive(value, name: str):
    """``check_real`` on (0, inf): a positive finite threshold."""
    return check_real(value, name, "(0, inf)")


def check_reals(values, name: str) -> np.ndarray:
    """``values`` as an int or float array of finite entries, else InvalidInputError
    naming ``name``. Each entry is a number by ``check_real``'s rule or a Fraction,
    which becomes the nearest float: a bool, a string, None or the row of a ragged
    list is not one. An int or float ndarray is returned as it is, with no per-entry
    scan; otherwise a list of ints becomes an integer array, exact."""
    array = values
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            entries = np.asarray(values, dtype=object)
        except ValueError as exc:  # nested arrays of unequal shapes
            raise InvalidInputError(f"{name} must hold numbers: {exc}") from None
        for x in entries.flat:
            if isinstance(x, bool) or not isinstance(x, _ENTRIES):
                raise InvalidInputError(f"{name} must hold numbers, got {x!r}")
        array = np.asarray(values)
        if array.dtype.kind not in "iuf":  # Fractions, or ints past 64 bits
            try:
                array = entries.astype(float)
            except OverflowError:
                raise InvalidInputError(f"{name} must hold finite entries") from None
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        bad = array[~np.isfinite(array)][0]
        raise InvalidInputError(f"{name} must hold finite entries, got {bad}")
    return array


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
