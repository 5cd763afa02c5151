"""Exception types shared across the library."""


class InvalidInputError(ValueError):
    """Inputs violate a documented precondition (shapes, ranges, sums)."""


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
