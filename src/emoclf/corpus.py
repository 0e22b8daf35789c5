"""Corpus CSV formats and seeded stratified train/test splitting.

Three RFC 4180 file shapes, all UTF-8 with comma delimiters:

* input corpus  — ``id,text`` rows; header optional (detected by a literal
  ``id,text`` first record)
* gold corpus   — ``id,text,<emotion>,...`` with a mandatory header and 0/1
  label cells
* predictions   — ``id,label`` where label is ``EMOTION`` or ``NO_EMOTION``

Everything parsed here is immutable afterwards and safe to share across
threads.
"""

from __future__ import annotations

import contextlib
import csv
import os
import random
import re
import uuid
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import (
    BadLabel,
    ContractViolation,
    CorpusIOError,
    DegenerateClass,
    DuplicateId,
    FieldTooLarge,
    MalformedHeader,
    MalformedRecord,
    MissingLabel,
)

EMOTION_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_INPUT_HEADER = ["id", "text"]

# The csv module's message when a field outgrows csv.field_size_limit().  The
# limit is left at its default (131,072 characters): it is process-wide.
_FIELD_LIMIT_MESSAGE = "field larger than field limit"


def validate_emotion_name(name: str) -> str:
    """Lowercase and check an emotion label token."""
    lowered = name.strip().lower()
    if not EMOTION_NAME_RE.match(lowered):
        raise MalformedHeader(f"bad emotion name {name!r}")
    return lowered


@dataclass(frozen=True)
class Document:
    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ContractViolation("document id must be non-empty")


@dataclass(frozen=True)
class LabeledDocument:
    doc: Document
    labels: Mapping[str, int]


@dataclass(frozen=True)
class SplitResult:
    train: tuple[LabeledDocument, ...]
    test: tuple[LabeledDocument, ...]
    train_index: tuple[int, ...]    # corpus positions of ``train``, increasing
    test_index: tuple[int, ...]


def _open_read(path):
    try:
        return open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise CorpusIOError(f"cannot read {path}: {exc}") from exc


def _csv_failure(reader, exc: csv.Error) -> MalformedRecord:
    if _FIELD_LIMIT_MESSAGE in str(exc):
        return FieldTooLarge(reader.line_num, csv.field_size_limit())
    return MalformedRecord(reader.line_num, f"unparseable CSV: {exc}")


@contextlib.contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` when the block succeeds.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` moves onto ``path`` at the end of the block.  If the block
    or the move raises, the temporary file is deleted and any earlier file at
    ``path`` is left as it was.  Newlines are written as given.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    # Mode "x" creates the file with the permissions a plain open would give;
    # tempfile.mkstemp would make it readable by its owner only.
    try:
        handle = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:      # name the file asked for, not the hidden temporary
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


@contextlib.contextmanager
def _open_write(path) -> Iterator[TextIO]:
    try:
        with atomic_write(path) as handle:
            yield handle
    except OSError as exc:
        raise CorpusIOError(f"cannot write {path}: {exc}") from exc


def read_input_corpus(path) -> list[Document]:
    """Parse an ``id,text`` corpus, order preserved.

    A first record that is literally ``id,text`` is treated as a header.
    Records with extra unquoted commas fold the surplus fields back into the
    text.
    """
    docs: list[Document] = []
    seen: dict[str, int] = {}
    with _open_read(path) as handle:
        reader = csv.reader(handle)
        try:
            for row_index, row in enumerate(reader):
                if not row:
                    continue  # stray blank line
                if row_index == 0 and row == _INPUT_HEADER:
                    continue
                line = reader.line_num
                if len(row) < 2:
                    raise MalformedRecord(line)
                doc_id, text = row[0], ",".join(row[1:])
                if doc_id in seen:
                    raise DuplicateId(doc_id, line)
                seen[doc_id] = line
                docs.append(Document(doc_id, text))
        except csv.Error as exc:
            raise _csv_failure(reader, exc) from exc
    return docs


def read_gold_corpus(path) -> tuple[list[LabeledDocument], list[str]]:
    """Parse a labeled corpus; returns the documents and the header's emotions."""
    with _open_read(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedHeader("gold file is empty; expected an id,text,... header") from None
        except csv.Error as exc:
            raise _csv_failure(reader, exc) from exc
        if len(header) < 3 or [cell.strip().lower() for cell in header[:2]] != _INPUT_HEADER:
            raise MalformedHeader(
                "gold header must be id,text,<emotion>[,<emotion>...], "
                f"got {','.join(header)!r}"
            )
        emotions = [validate_emotion_name(cell) for cell in header[2:]]
        if len(set(emotions)) != len(emotions):
            raise MalformedHeader(f"duplicate emotion column in {emotions}")

        docs: list[LabeledDocument] = []
        seen: dict[str, int] = {}
        try:
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != 2 + len(emotions):
                    raise MalformedRecord(
                        line, f"expected {2 + len(emotions)} fields, got {len(row)}"
                    )
                doc_id, text = row[0], row[1]
                if doc_id in seen:
                    raise DuplicateId(doc_id, line)
                seen[doc_id] = line
                labels = {}
                for column, (emotion, cell) in enumerate(zip(emotions, row[2:]), start=3):
                    value = cell.strip()
                    if value not in ("0", "1"):
                        raise BadLabel(line, column, cell)
                    labels[emotion] = int(value)
                docs.append(LabeledDocument(Document(doc_id, text), labels))
        except csv.Error as exc:
            raise _csv_failure(reader, exc) from exc
    return docs, emotions


def write_input_corpus(path, docs: Iterable[Document], header: bool = True) -> None:
    with _open_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if header:
            writer.writerow(_INPUT_HEADER)
        for doc in docs:
            writer.writerow([doc.id, doc.text])


def write_gold_corpus(path, docs: Iterable[LabeledDocument], emotions: Sequence[str]) -> None:
    with _open_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_INPUT_HEADER + list(emotions))
        for labeled in docs:
            try:
                cells = [labeled.labels[emotion] for emotion in emotions]
            except KeyError as exc:
                raise MissingLabel(exc.args[0]) from None
            writer.writerow([labeled.doc.id, labeled.doc.text] + cells)


def write_predictions(path, rows: Iterable[tuple[str, str, int]]) -> None:
    """Write ``id,label`` rows: ``EMOTION`` when the bit is 1, else ``NO_EMOTION``."""
    with _open_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "label"])
        for doc_id, emotion, bit in rows:
            tag = emotion.upper() if bit else f"NO_{emotion.upper()}"
            writer.writerow([doc_id, tag])


def _train_count(class_size: int, train_fraction) -> int:
    # Exact decimal arithmetic so 0.7 * 45 is 31.5 on the nose, then
    # round-half-even at the cut; float multiplication would land a hair
    # under .5 and push borderline strata the wrong way.
    return round(class_size * Fraction(str(train_fraction)))


def stratified_split(
    corpus: Sequence[LabeledDocument],
    target: str,
    train_fraction: float,
    seed: int,
) -> SplitResult:
    """Split positives and negatives of ``target`` independently.

    Each class is shuffled with its own seeded order and cut at
    ``round(train_fraction * class_size)``, so per-class train counts are a
    pure function of the class size; the seed changes membership only.
    """
    fraction = Fraction(str(train_fraction))
    if not 0 < fraction < 1:
        raise ContractViolation(f"train_fraction must be in (0, 1), got {train_fraction}")

    by_class: dict[int, list[int]] = {1: [], 0: []}
    for index, labeled in enumerate(corpus):
        if target not in labeled.labels:
            raise MissingLabel(target)
        by_class[labeled.labels[target]].append(index)
    if not by_class[1] or not by_class[0]:
        raise DegenerateClass(target)

    rng = random.Random(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for value in (1, 0):
        order = list(by_class[value])
        rng.shuffle(order)
        cut = _train_count(len(order), train_fraction)
        train_idx.extend(order[:cut])
        test_idx.extend(order[cut:])

    train_idx.sort()
    test_idx.sort()
    return SplitResult(
        train=tuple(corpus[i] for i in train_idx),
        test=tuple(corpus[i] for i in test_idx),
        train_index=tuple(train_idx),
        test_index=tuple(test_idx),
    )
