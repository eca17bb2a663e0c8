"""Exception hierarchy shared across the pipeline.

Every error raised by lexprep derives from LexprepError so the CLI can
map any data problem to a single exit code.
"""


class LexprepError(Exception):
    """Base class for all lexprep errors."""


class MalformedRecord(LexprepError):
    """A serialized document line could not be parsed or validated."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class DuplicateId(LexprepError):
    """The same document id appeared twice in a strict ingestion run."""

    def __init__(self, doc_id: str, line_number: int):
        self.doc_id = doc_id
        self.line_number = line_number
        super().__init__(f"duplicate document id {doc_id!r} at line {line_number}")


class InsufficientDocuments(LexprepError):
    """A validation split asked for more documents than were supplied."""


class EmptyText(LexprepError):
    """Language identification was asked to classify empty text."""


class NoProfiles(LexprepError):
    """Fewer than two language profiles were supplied to the identifier."""


class TokenizerFailure(LexprepError):
    """A tokenizer raised while processing a sentence; carries location."""

    def __init__(self, doc_id: str, detail: str):
        self.doc_id = doc_id
        self.detail = detail
        super().__init__(f"tokenizer failed in document {doc_id!r}: {detail}")


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

    def __reduce__(self):
        # Rebuilt from its fields when a worker process sends it back.
        return type(self), (self.stage, self.cause)
