"""Exception hierarchy shared across the pipeline, and its one type check.

Every error raised by lexprep derives from LexprepError so the CLI can
map any data problem to a single exit code.
"""

import reprlib


def check_type(name: str, value: object, *kinds: type) -> None:
    """Raise TypeError unless `value` is one of `kinds`; a bool counts only as bool."""
    if not isinstance(value, kinds) or isinstance(value, bool) != (bool in kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{name} must be {names}, got {reprlib.repr(value)}")


class LexprepError(Exception):
    """Base class for all lexprep errors."""


class MalformedRecord(LexprepError, ValueError):
    """A line of a JSONL input could not be parsed or validated; the
    message names the file when `path` is given."""

    def __init__(self, line_number: int, reason: str, path: object = None):
        self.line_number = line_number
        self.reason = reason
        message = f"line {line_number}: {reason}"
        super().__init__(message if path is None else f"{path}: {message}")


class DuplicateId(LexprepError):
    """The same document id appeared twice in a strict ingestion run."""

    def __init__(self, doc_id: str, line_number: int):
        self.doc_id = doc_id
        self.line_number = line_number
        super().__init__(f"duplicate document id {reprlib.repr(doc_id)} at line {line_number}")


class InsufficientDocuments(LexprepError):
    """A validation split asked for more documents than were supplied."""


class EmptyText(LexprepError):
    """Language identification was asked to classify empty text."""


class NoProfiles(LexprepError):
    """Fewer than two language profiles were supplied to the identifier."""


class TokenizerFailure(LexprepError):
    """Cutting a chunk failed; carries the document, and the chunk in `detail`."""

    def __init__(self, doc_id: str, detail: str):
        self.doc_id = doc_id
        self.detail = detail
        super().__init__(f"tokenizer failed in document {reprlib.repr(doc_id)}: {detail}")


class VocabularyTooSmall(LexprepError):
    """No non-special token id exists for the random-replacement branch."""


class StepOutOfRange(LexprepError):
    """A schedule was queried outside [0, total_steps]."""


class EmptyPredictions(LexprepError):
    """F1 scoring requires at least one prediction record."""


class UnknownLabel(LexprepError):
    """A prediction used a label id outside the declared universe."""


class InsufficientPoints(LexprepError):
    """Curve AUC needs at least two points."""


class DuplicateModelName(LexprepError):
    """Two learning curves in one report share a model name."""


class ManifestError(LexprepError):
    """A pipeline manifest is malformed or violates stage ordering."""


class StageFailure(LexprepError):
    """A pipeline stage aborted; carries the stage name for attribution."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
