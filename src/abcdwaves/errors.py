"""Exception types shared across the package."""


class AbcdWavesError(Exception):
    """Base class for all package errors."""


class DomainError(AbcdWavesError):
    """An input lies outside the mathematical domain of an operation."""


class UsageError(AbcdWavesError):
    """An API was called in a way that is never meaningful."""


class ConstraintError(AbcdWavesError):
    """The (a, b, c, d) physical constraint relations are violated.

    ``violations`` lists one human-readable string per violated relation.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ChainBrokenError(AbcdWavesError):
    """A forced-vanishing chain stalled before reaching the expected shape."""


class UnderdeterminedError(AbcdWavesError):
    """Fewer equations than unknowns remain after pinning."""

    def __init__(self, n_equations, n_unknowns):
        self.deficit = n_unknowns - n_equations
        super().__init__(
            f"underdetermined system: {n_equations} equations for "
            f"{n_unknowns} unknowns (deficit {self.deficit})"
        )
