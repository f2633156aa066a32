"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class AccuracyError(RuntimeError):
    """A computation that cannot vouch for its accuracy: a series asked
    past its certified bound, or a result that finished without meeting
    its tolerance."""
