"""Exception hierarchy shared across the package.

``DomainError`` marks failures of a *mathematical* precondition or of a
numerical computation (as opposed to malformed input files or bad call
signatures, which raise the usual ``ValueError``/``TypeError``).  The CLI
maps ``DomainError`` to exit code 1 and usage errors to exit code 2.
"""


class DomainError(Exception):
    """A computation-level failure: precondition violated or solver defeated."""


class IdenticalRowsError(DomainError):
    """Two signal distributions coincide, so a strict construction degenerates."""

    def __init__(self, w: int, w2: int):
        self.w = w
        self.w2 = w2
        super().__init__(
            f"signal rows {w} and {w2} are identical; construction requires "
            "strictly distinct distributions"
        )


class StarConditionError(DomainError):
    """The underreaction scale delta is too small for the given lotteries."""

    def __init__(self, w: int, w2: int, ratio: float, delta: float):
        self.w = w
        self.w2 = w2
        self.ratio = ratio
        self.delta = delta
        super().__init__(
            f"delta={delta:g} violates the drift condition at (w={w}, w2={w2}): "
            f"delta * F^w(S^w2) / sum_other F^w = {ratio:.6g} <= 1"
        )


class SolverError(DomainError):
    """The stationary linear solve failed or left a large residual."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


class BudgetExceededError(DomainError):
    """An enumeration would pass its budget: it has at least ``count`` candidates."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(
            f"enumeration would score at least {count} tables, "
            f"over the budget of {budget}"
        )
