"""Exception taxonomy shared across the engine.

The command line maps these onto exit codes: invalid input (parse errors,
unresolved references, invariant violations) exits with 2, resource-cap
errors with 3.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(EngineError):
    """Vectors of different lengths met in one geometric operation."""


class ModelFormatError(EngineError):
    """The document could not be parsed into a model at all."""


class ModelValidationError(EngineError):
    """A structurally parseable model violates invariants.

    ``violations`` lists every failure, each prefixed with a JSON-pointer
    style location where one is available; ``warnings`` holds the soft
    warnings gathered before the error was raised.
    """

    def __init__(self, violations: list[str], warnings: list[str] | None = None):
        super().__init__("; ".join(violations))
        self.violations = violations
        self.warnings = warnings or []


class InadmissibleWordError(EngineError):
    """A periodic word uses a transition that is not an edge of the graph."""


class ResourceCapError(EngineError):
    """An enumeration exceeded its configured cap; never silently truncated."""
