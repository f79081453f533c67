"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: parse errors exit 2, config
errors exit 3, evaluation/domain errors exit 4.
"""

from __future__ import annotations


class HtksError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HtksError):
    """A malformed input file; carries file/line context when known."""

    def __init__(self, message: str, path=None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        if self.path is not None and self.line_no is not None:
            return f"{self.path}:{self.line_no}: {msg}"
        if self.path is not None:
            return f"{self.path}: {msg}"
        return msg


class ConfigError(HtksError):
    """Invalid configuration value or missing referenced path."""


class EvaluationError(HtksError):
    """A domain-level error raised while classifying, scoring or evaluating."""


class DegeneratePose(EvaluationError):
    """Head and hip coincide, so no reference scale can be derived."""


class InvalidScale(EvaluationError):
    """A non-positive (or non-finite) reference scale was supplied."""


class EmptyScript(EvaluationError):
    """A session script with no trials."""


class EmptyInput(EvaluationError):
    """An operation that needs at least one element received none."""


class EmptyClassRow(EvaluationError):
    """A confusion-matrix row with zero frames; names the offending class."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"no frames with ground truth {label.value!r}; per-class accuracy undefined")

    def __reduce__(self):
        # Unpickling calls the class on these arguments, by default the message.
        return type(self), (self.label,)
