"""Exception types shared across the package.

Format errors carry a 1-based line number when one is known, so command-line
messages can point at the offending line of the input file.
"""

from __future__ import annotations


class _LineError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SampleFormatError(_LineError):
    """A trace file that does not follow the expected line grammar."""


class InconsistentSampleError(ValueError):
    """The same word occurs both as a positive and as a negative trace."""


class ModelFormatError(_LineError):
    """A model file that cannot be loaded back into a valid automaton."""


class PredictionError(ValueError):
    """No prediction is possible under the configured fallback policy."""


class GenerationError(ValueError):
    """The model cannot produce any accepted word within the length bound."""
