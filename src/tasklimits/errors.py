"""Exception types, one per way a caller reacts; ``tasklimits`` exits 2 on any of them.

Catch ``TaskLimitsError`` for every refusal, ``ValidationError`` (a ``ValueError``; the
loader's ``ScenarioError`` is one) for bad input, ``ResourceLimitError`` for a size or
search limit, and ``FormulaSyntaxError`` for formula text that does not parse.
"""


class TaskLimitsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TaskLimitsError, ValueError):
    """An input violated a construction-time invariant; the message names it."""


class ScenarioError(ValidationError):
    """A scenario failed to parse or validate; ``parse_scenario`` starts it with the path."""


class FormulaSyntaxError(TaskLimitsError, ValueError):
    """Modal formula text failed to parse. Carries the 0-based failure position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ResourceLimitError(TaskLimitsError):
    """A well-formed request exceeds a size or search limit."""
