"""Exception hierarchy for corpus, lexicon, solver, and model-file errors."""


class EmoclfError(Exception):
    """Base class for every error this package raises on purpose."""

    def __reduce__(self):
        # Rebuilt from the message and attributes rather than by calling the
        # constructor, whose arguments differ per class, so that an error
        # raised in a worker process reaches the parent intact.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class CorpusError(EmoclfError):
    """A corpus file violates its format contract."""


class CorpusIOError(CorpusError):
    """Corpus file could not be read or written."""


class DuplicateId(CorpusError):
    def __init__(self, doc_id: str, line: int):
        super().__init__(f"duplicate document id {doc_id!r} (line {line})")
        self.doc_id = doc_id
        self.line = line


class MalformedRecord(CorpusError):
    def __init__(self, line: int, detail: str = "record has too few fields"):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class FieldTooLarge(MalformedRecord):
    """A CSV field is longer than the csv module's field size limit."""

    def __init__(self, line: int, limit: int):
        super().__init__(line, f"field longer than the maximum of {limit} characters")
        self.limit = limit


class DocumentTooLarge(EmoclfError):
    """A document is longer than ``features.MAX_DOCUMENT_CHARS``."""

    def __init__(self, position: int, length: int, limit: int):
        super().__init__(
            f"document {position} (counting from 0) has {length} characters, "
            f"more than the maximum of {limit}"
        )
        self.position = position
        self.length = length
        self.limit = limit


class MalformedHeader(CorpusError):
    pass


class BadLabel(CorpusError):
    def __init__(self, line: int, column: int, value: str):
        super().__init__(
            f"line {line}, column {column}: label cell must be 0 or 1, got {value!r}"
        )
        self.line = line
        self.column = column


class LexiconError(EmoclfError):
    """A lexicon resource file is malformed."""


class DegenerateClass(EmoclfError):
    def __init__(self, emotion: str,
                 detail: str = "needs at least one positive and one negative example"):
        super().__init__(f"{emotion}: {detail}")
        self.emotion = emotion


class EmptyCorpus(EmoclfError):
    pass


class EmptyEmotionSet(EmoclfError):
    pass


class ContractViolation(EmoclfError):
    """An argument violates a documented precondition."""


class NumericError(EmoclfError):
    """Non-finite values or a numerical-consistency failure inside the solver."""


class DimensionError(EmoclfError):
    pass


class TooFewPositives(EmoclfError):
    def __init__(self, class_value: int, count: int, k: int):
        super().__init__(
            f"label class {class_value} has {count} members, "
            f"fewer than the {k} folds requested"
        )
        self.class_value = class_value
        self.count = count
        self.k = k


class MissingLabel(EmoclfError):
    def __init__(self, emotion: str):
        super().__init__(f"gold data lacks a label column for {emotion!r}")
        self.emotion = emotion


class IncompatibleModel(EmoclfError):
    """A bundle, or the extractor payload in one, has a version/shape this build cannot use."""


class ParseError(EmoclfError):
    """A bundle, or the extractor payload in one, is unreadable as its declared format."""


class PipelineError(EmoclfError):
    def __init__(self, failures: dict):
        summary = "; ".join(f"{emotion}: {error}" for emotion, error in failures.items())
        super().__init__(f"training failed for {len(failures)} emotion(s): {summary}")
        self.failures = failures
