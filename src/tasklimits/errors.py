"""Exception types shared across the toolkit.

Every constructor-level invariant violation raises a subclass of
``ValidationError`` so that callers (and the CLI) can distinguish bad
inputs from genuine runtime failures.
"""

from __future__ import annotations


class TaskLimitsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TaskLimitsError, ValueError):
    """An input violated a construction-time invariant."""


class NestednessError(ValidationError):
    """A solved-set sequence is not a nested chain (capability preservation)."""


class ConfigurationError(ValidationError):
    """A rule or operation was configured inconsistently (missing or unusable parameters)."""


class KraftError(ValidationError):
    """Declared code lengths violate the Kraft inequality."""


class ShapeError(ValidationError):
    """Array dimensions of kernels, losses, or distributions disagree."""


class EmptyTruncationError(TaskLimitsError):
    """Truncation level keeps no hypotheses (head mass is zero)."""


class EmptyTailError(TaskLimitsError):
    """Truncation level leaves no tail hypotheses (tail mass is zero)."""


class FormulaSyntaxError(TaskLimitsError, ValueError):
    """Modal formula text failed to parse. Carries the 0-based failure position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ModelError(ValidationError):
    """A Kripke model violates the frame invariants or lacks a referenced world."""


class ResourceLimitError(TaskLimitsError):
    """A request exceeds the configured enumeration or formula-size limits."""


class ScenarioError(ValidationError):
    """A scenario file failed to parse or validate."""
