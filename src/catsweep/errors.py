"""Exception types shared across the toolkit.

Every failure mode that callers are expected to catch gets its own class;
anything else is a plain bug and surfaces as a standard Python exception.
"""


class CatsweepError(Exception):
    """Base class for all toolkit errors."""


class NoCatenoid(CatsweepError):
    """The boundary circles are too far apart: only the two-disk competitor exists."""


class NonConvergence(CatsweepError):
    """An iterative solver failed to reach its tolerance within the iteration cap."""


class DomainError(CatsweepError):
    """An argument lies outside the documented domain of the operation."""


class RadiusTooLarge(CatsweepError):
    """A requested ball or tube radius exceeds what the geometry supports."""


class SolverFailure(CatsweepError):
    """An eigen or linear solver exhausted its iterations."""


class BudgetViolated(CatsweepError):
    """A sweepout slice reached the area budget it was required to stay under."""
