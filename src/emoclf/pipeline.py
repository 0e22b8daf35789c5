"""Bundles, evaluation and prediction: what loading and classifying need.

This module holds the bundle types and the bundle file format, the
training settings a caller builds before training (``TrainConfig``,
``TuningGrid``), and evaluation and prediction.  The training protocol
lives in ``training``, which imports the solver (``svm``); loading a bundle
and classifying with it import neither.  The public names ``training``
defines (``train_all``, ``check_heldout_partitions`` and the rest) are
served here too: the module ``__getattr__`` imports ``training`` on their
first use.

A bundle is one text-work unit: all of its emotions' extractors share one
lexicon set and emoticon table (``train_all`` fits them all from one count
matrix, ``bundle_from_dict`` refuses a payload whose emotions differ in
either, and ``features.ExtractorStack`` checks it before any prediction or
save).  So batch prediction counts each document once for all emotions and
handles them together: it goes through the documents in blocks of at most
``PREDICT_BLOCK_ROWS`` (emotion, document) rows, each counted straight into
the bundle's term table, with one stacked transform and one scoring pass
per block.  The stacks are prepared once per bundle
(``ModelBundle.stacks``: an ``ExtractorStack``, which holds the term table,
and a ``ModelStack``), on the bundle's first prediction or save, and every
block of every later call reuses them; loading a bundle builds none, and
none is saved.

``evaluate_heldout`` recomputes each emotion's split from the seed the
bundle records, so it scores exactly the documents training held out.
"""

from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .corpus import (
    LabeledDocument,
    SplitResult,
    atomic_write,
    stratified_split,
    validate_emotion_name,
)
from .errors import (
    ContractViolation,
    DocumentTooLarge,
    EmptyCorpus,
    IncompatibleModel,
    LexiconError,
    MalformedHeader,
    MissingLabel,
    ParseError,
)
from .features import (
    AUX_FEATURES,
    ExtractorStack,
    FittedExtractor,
    Vocabulary,
    stacked_transform,
)
from .lexicons import LexiconSet, default_emoticons, default_lexicons
from .linear import (
    L1_HINGE,
    L2_HINGE,
    LinearModel,
    ModelStack,
    stacked_decision_values,
)

if TYPE_CHECKING:
    from .svm import TrainingMonitor
    from .training import FoldScore

# The public names ``training`` defines, served here on first use.
_TRAINING_NAMES = frozenset({
    "FoldPlan", "FoldScore", "check_heldout_partitions", "derive_seed",
    "make_fold_plan", "select_best_cost", "split_seed_for", "train_all",
})


def __getattr__(name: str):
    if name in _TRAINING_NAMES:
        return getattr(importlib.import_module(".training", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


BUNDLE_FORMAT = "emoclf-bundle"
BUNDLE_VERSION = "1"
EXTRACTOR_KIND = "emoclf-extractor"
EXTRACTOR_VERSION = "1"

DEFAULT_C_GRID = (0.01, 0.05, 0.10, 0.20, 0.25, 0.50, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class TuningGrid:
    c_values: tuple[float, ...] = DEFAULT_C_GRID

    def __post_init__(self):
        values = self.c_values
        if not values:
            raise ContractViolation("the cost grid must be non-empty")
        if not all(math.isfinite(c) for c in values):
            raise ContractViolation("cost values must be finite")
        if any(c <= 0 for c in values):
            raise ContractViolation("cost values must be strictly positive")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ContractViolation("cost values must be strictly increasing")


# Each cross-validation selection metric by name: its position in ``Confusion.metrics()``.
TUNE_METRICS = {"accuracy": 3, "f1": 2}


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs beyond the corpus itself."""

    train_fraction: float = 0.7
    folds: int = 10
    grid: TuningGrid = field(default_factory=TuningGrid)
    seed: int = 42
    min_df: int = 2
    loss: str = L2_HINGE
    eps: float = 0.1
    max_outer_iters: int = 1000
    shared_split: bool = False
    jobs: int = 1
    positive_cost: float = 1.0
    tune_metric: str = "accuracy"   # a key of TUNE_METRICS
    lexicons: LexiconSet | None = None
    emoticons: frozenset[str] | None = None
    monitor: TrainingMonitor | None = None    # in-process only: needs one worker

    def __post_init__(self):
        if not isinstance(self.grid, TuningGrid):
            raise ContractViolation(f"grid must be a TuningGrid, got {type(self.grid).__name__}")
        for name in ("folds", "seed", "jobs", "min_df", "max_outer_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ContractViolation(f"{name} must be an integer, got {value!r}")
        if self.folds < 2:
            raise ContractViolation("need at least 2 folds")
        if not 0 < self.train_fraction < 1:
            raise ContractViolation("train_fraction must be in (0, 1)")
        if self.tune_metric not in TUNE_METRICS:
            raise ContractViolation(f"unknown tuning metric {self.tune_metric!r}")
        if self.loss not in (L1_HINGE, L2_HINGE):
            raise ContractViolation(f"unknown loss {self.loss!r}")
        for name in ("jobs", "min_df", "max_outer_iters"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be at least 1")
        for name in ("positive_cost", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ContractViolation(f"{name} must be positive and finite")

    def resolved_lexicons(self) -> LexiconSet:
        return self.lexicons if self.lexicons is not None else default_lexicons()

    def resolved_emoticons(self) -> frozenset[str]:
        return self.emoticons if self.emoticons is not None else default_emoticons()


@dataclass(frozen=True)
class EmotionModel:
    emotion: str
    extractor: FittedExtractor
    model: LinearModel
    chosen_C: float
    cv_accuracy: float
    split_seed: int
    # Cross-validation evaluations behind chosen_C, fold-major then C; not
    # persisted, so a loaded bundle has ().
    cv_folds: tuple[FoldScore, ...] = ()


@dataclass(frozen=True)
class ModelBundle:
    emotions: tuple[str, ...]
    models: Mapping[str, EmotionModel]
    master_seed: int
    config: Mapping[str, object]    # protocol snapshot for reproducibility

    def __iter__(self):
        return (self.models[emotion] for emotion in self.emotions)

    @cached_property
    def stacks(self) -> tuple[ExtractorStack, ModelStack]:
        """Every emotion's extractor and model, stacked in emotion order for prediction.

        Built on the first prediction or save and kept while the bundle lives;
        loading a bundle does not build them, and saving one does not write them.
        ``ExtractorStack`` raises ``ContractViolation`` unless every
        extractor shares the first's lexicons and emoticon table.
        """
        return ExtractorStack([em.extractor for em in self]), ModelStack([em.model for em in self])


@dataclass(frozen=True)
class EmotionEval:
    emotion: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EmotionEval, ...]

    REPORT_HEADER = "emotion,tp,fp,fn,tn,precision,recall,f1,accuracy"

    def to_csv_text(self) -> str:
        lines = [self.REPORT_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.emotion},{r.tp},{r.fp},{r.fn},{r.tn},"
                f"{r.precision!r},{r.recall!r},{r.f1!r},{r.accuracy!r}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with atomic_write(path) as handle:
            handle.write(self.to_csv_text())

    def table(self) -> str:
        width = max([len("Emotion")] + [len(r.emotion) for r in self.rows])
        lines = [f"{'Emotion':<{width}}  {'Prec':>5}  {'Rec':>5}  {'F1':>5}"]
        for r in self.rows:
            lines.append(
                f"{r.emotion:<{width}}  {r.precision:>5.2f}  {r.recall:>5.2f}  {r.f1:>5.2f}"
            )
        return "\n".join(lines)


def confusion_metrics(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float, float, float]:
    """Precision, recall, F1, accuracy for the positive class.

    Zero-denominator conventions: precision is 0 with no predicted positives,
    recall is 0 with no actual positives, F1 is 0 when P + R is 0.
    """
    if min(tp, fp, fn, tn) < 0 or tp + fp + fn + tn == 0:
        raise ContractViolation("confusion counts must be non-negative and not all zero")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / (tp + fp + fn + tn)
    return precision, recall, f1, accuracy


@dataclass(frozen=True)
class Confusion:
    """Counts of 0/1 decisions against 0/1 gold labels; 1 is the positive class."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @classmethod
    def of(cls, guesses: Sequence[int], golds: Sequence[int]) -> "Confusion":
        guess = np.asarray(guesses, dtype=bool)
        gold = np.asarray(golds, dtype=bool)
        if guess.shape != gold.shape:
            raise ContractViolation("need one gold label per decision")
        tp = int(np.count_nonzero(guess & gold))
        fp = int(np.count_nonzero(guess & ~gold))
        fn = int(np.count_nonzero(~guess & gold))
        return cls(tp, fp, fn, guess.size - tp - fp - fn)

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @property
    def correct(self) -> int:
        return self.tp + self.tn

    def metrics(self) -> tuple[float, float, float, float]:
        """Precision, recall, F1, accuracy (see ``confusion_metrics``)."""
        return confusion_metrics(self.tp, self.fp, self.fn, self.tn)


def _metrics_row(emotion: str, counts: Confusion) -> EmotionEval:
    return EmotionEval(
        emotion, counts.tp, counts.fp, counts.fn, counts.tn, *counts.metrics()
    )


def _labels_for(docs: Sequence[LabeledDocument], emotion: str) -> list[int]:
    labels = []
    for d in docs:
        if emotion not in d.labels:
            raise MissingLabel(emotion)
        labels.append(d.labels[emotion])
    return labels


def _emotion_split(
    gold: Sequence[LabeledDocument], emotions: Sequence[str], emotion: str, shared: bool,
    fraction: float, seed: int,
) -> SplitResult:
    """``emotion``'s split of ``gold``; a ``shared`` one is stratified by ``emotions[0]``."""
    return stratified_split(gold, emotions[0] if shared else emotion, fraction, seed)


# --- prediction and evaluation ----------------------------------------------

# The most stacked (emotion, document) rows prediction transforms and scores at
# once.  Blocks bound the memory a long input takes; a 20-document batch is
# still one block for up to 12 emotions.
PREDICT_BLOCK_ROWS = 256


def _predictions(bundle: ModelBundle, texts: Sequence[str]) -> dict[str, np.ndarray]:
    """Each emotion's 0/1 prediction per text; each text is counted once.

    The bundle's emotions go through the texts together, in blocks of at
    most ``PREDICT_BLOCK_ROWS`` stacked (emotion, text) rows.  Each block is
    counted once, straight into the bundle's term table
    (``ExtractorStack.count_texts``), transformed once for every extractor
    (``stacked_transform``) and scored once (``stacked_decision_values``),
    on the bundle's prepared stacks (``ModelBundle.stacks``).  Equal, for
    every model and text and whatever the block size, to ``predict`` of the
    text's own row: ``em.extractor.vectorize(text)``, or the single-document
    reference in ``tests/reference_features.py``.
    """
    extractors, models = bundle.stacks
    step = max(1, PREDICT_BLOCK_ROWS // len(extractors))
    decided = np.empty((len(extractors), len(texts)), dtype=np.int64)
    for start in range(0, len(texts), step):
        try:
            counts = extractors.count_texts(texts[start:start + step])
        except DocumentTooLarge as exc:     # its position in ``texts``, not in the block
            raise DocumentTooLarge(start + exc.position, exc.length, exc.limit) from None
        values = stacked_decision_values(models, stacked_transform(counts, extractors))
        # predict_rows' rule: strictly positive is 1, ties go negative.
        decided[:, start:start + step] = values.reshape(len(extractors), -1) > 0.0
    return dict(zip(bundle.emotions, decided))


def classify(bundle: ModelBundle, docs) -> list[tuple[str, str, int]]:
    """(id, emotion, bit) rows, grouped by document in corpus order."""
    docs = list(docs)
    bits = _predictions(bundle, [doc.text for doc in docs])
    return [
        (doc.id, emotion, int(bits[emotion][i]))
        for i, doc in enumerate(docs)
        for emotion in bundle.emotions
    ]


def evaluate(bundle: ModelBundle, test_docs: Sequence[LabeledDocument]) -> EvalReport:
    """Per-emotion confusion counts and metrics on labeled documents."""
    if not test_docs:
        raise EmptyCorpus(f"{bundle.emotions[0]}: no documents to score: the gold corpus is empty")
    models = list(bundle)
    golds = {em.emotion: _labels_for(test_docs, em.emotion) for em in models}
    bits = _predictions(bundle, [d.doc.text for d in test_docs])
    rows = [_metrics_row(em.emotion, Confusion.of(bits[em.emotion], golds[em.emotion]))
            for em in models]
    return EvalReport(rows=tuple(rows))


def _no_heldout(emotion: str, fraction: float) -> EmptyCorpus:
    return EmptyCorpus(
        f"{emotion}: no documents to score: train_fraction {fraction} "
        "keeps every document of both classes for training"
    )


def _split_settings(config: Mapping[str, object]) -> tuple[float, bool]:
    """The ``train_fraction`` and ``shared_split`` of a bundle's config; an absent ``shared_split`` is false."""
    fraction = config.get("train_fraction")
    if not (isinstance(fraction, float) and 0 < fraction < 1):
        raise ParseError(f"bundle config 'train_fraction' must be a float in (0, 1), "
                         f"got {fraction!r:.30}")
    shared = config.get("shared_split", False)
    if not isinstance(shared, bool):
        raise ParseError(f"bundle config 'shared_split' must be true or false, got {shared!r:.30}")
    return fraction, shared


def evaluate_heldout(bundle: ModelBundle, gold: Sequence[LabeledDocument]) -> EvalReport:
    """Score every model on its own held-out test partition.

    The per-emotion splits are recomputed from the seeds recorded in the
    bundle, so this sees exactly the documents the training never touched.
    Documents in several test partitions are counted once.  The bundle's
    ``config`` must record ``train_fraction`` as a float in (0, 1) and, if at
    all, ``shared_split`` as a bool; otherwise this raises ``ParseError``.
    """
    fraction, shared = _split_settings(bundle.config)
    splits = {}
    for emotion in bundle.emotions:
        splits[emotion] = _emotion_split(gold, bundle.emotions, emotion, shared, fraction,
                                         bundle.models[emotion].split_seed)
        if not splits[emotion].test_index:
            raise _no_heldout(emotion, fraction)
    tested = sorted(set().union(*(split.test_index for split in splits.values())))
    position = {index: p for p, index in enumerate(tested)}
    bits = _predictions(bundle, [gold[i].doc.text for i in tested])
    rows = []
    for emotion, split in splits.items():
        guesses = bits[emotion][[position[i] for i in split.test_index]]
        rows.append(_metrics_row(emotion, Confusion.of(guesses, _labels_for(split.test, emotion))))
    return EvalReport(rows=tuple(rows))


# --- bundle persistence -------------------------------------------------------
#
# The bundle file format, writer and reader, lives here alone: ``features``
# knows fitted extractors, not how a bundle stores them.  The reader takes a
# number only as the writer writes it: an integer field holds an integer, a
# real field an integer or a float (a bool is neither), and a float holds each.
# It takes a word list only sorted and without repeats, and a politeness
# phrase only with its words joined by single spaces, as the writer writes
# them, so a bundle that loads saves back to the same payload.

@contextmanager
def _malformed(section: str):
    """Raise a read error of the block as ``ParseError("malformed {section} payload: ...")``."""
    try:
        yield
    except (ParseError, IncompatibleModel):
        raise
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError,
            ContractViolation, LexiconError, MalformedHeader) as exc:
        raise ParseError(f"malformed {section} payload: {exc}") from exc


def _number(holder, key, *kinds: type):
    """``holder[key]``, if its type is in ``kinds`` (a bool's is not int) and a float holds it."""
    value = holder[key]
    if type(value) not in kinds:
        raise TypeError(f"{key!r} must be {'/'.join(k.__name__ for k in kinds)}, got {value!r:.30}")
    _check_float_range(key, [value])
    return value


def _items(holder, key, *kinds: type) -> list:
    """``holder[key]``, if it is a list and its items' types are in ``kinds`` (as ``_number``)."""
    values = holder[key]
    if type(values) is not list or not set(map(type, values)) <= set(kinds):
        raise TypeError(f"{key!r} must be a list of {'/'.join(k.__name__ for k in kinds)}, "
                        f"got {values!r:.40}")
    if int in kinds:
        _check_float_range(key, values)
    return values


def _check_float_range(key, numbers: list) -> None:
    """Refuse, naming ``key``, an integer among ``numbers`` that no float holds."""
    try:
        list(map(float, numbers))
    except OverflowError:
        raise ValueError(f"{key!r} must lie within a float's range") from None


def _word_set(holder, key) -> frozenset[str]:
    """``holder[key]``, a list of strings in strictly increasing order, as a set."""
    words = _items(holder, key, str)
    if any(map(str.__ge__, words, words[1:])):
        raise ValueError(f"{key!r} must be sorted without repeats, got {words!r:.40}")
    return frozenset(words)


def _phrase(key: str) -> tuple[str, ...]:
    """The words of a politeness key, which must be them joined by single spaces."""
    words = tuple(key.split())
    if key != " ".join(words):
        raise ValueError(f"politeness phrase {key!r} must be its words joined by single spaces")
    return words


def _extractor_constants() -> dict:
    """The fields every extractor payload holds with the same value, which its model assumes."""
    return {"lowercase_ngrams": True, "idf": "ln((1+n_docs)/(1+df))+1",
            "aux_standardized": True, "aux_features": list(AUX_FEATURES)}


def _extractor_payload(fitted: FittedExtractor) -> dict:
    lex, vocabulary = fitted.lexicons, fitted.vocabulary
    return {
        "kind": EXTRACTOR_KIND,
        "version": EXTRACTOR_VERSION,
        **_extractor_constants(),
        "vocabulary": {"terms": list(vocabulary.terms), "df": list(vocabulary.df),
                       "n_docs": vocabulary.n_docs, "min_df": vocabulary.min_df},
        "categories": list(fitted.categories),
        "category_df": list(fitted.category_df),
        "aux_mean": list(fitted.aux_mean),
        "aux_std": list(fitted.aux_std),
        "emoticons": sorted(fitted.emoticons),
        "lexicons": {
            "emotion_categories": {
                category: sorted(words) for category, words in lex.emotion_categories.items()
            },
            "politeness": {" ".join(phrase): w for phrase, w in lex.politeness_cues.items()},
            "sentiment": dict(lex.sentiment),
            "boosters": dict(lex.boosters),
            "negations": sorted(lex.negations),
            "modality": dict(lex.modality_cues),
        },
    }


def _text_work(payload: dict) -> tuple[LexiconSet, frozenset[str]]:
    """The lexicon set and emoticon table of an extractor payload; each lexicon is a map."""
    with _malformed("extractor"):
        raw = payload["lexicons"]
        words, polite, modal = raw["emotion_categories"], raw["politeness"], raw["modality"]
        lexicons = LexiconSet(
            emotion_categories={c: _word_set(words, c) for c in words.keys()},
            politeness_cues={_phrase(phrase): _number(polite, phrase, int, float)
                             for phrase in polite.keys()},
            sentiment={w: _number(raw["sentiment"], w, int) for w in raw["sentiment"].keys()},
            boosters={w: _number(raw["boosters"], w, int) for w in raw["boosters"].keys()},
            negations=_word_set(raw, "negations"),
            modality_cues={w: _number(modal, w, int, float) for w in modal.keys()},
        )
        return lexicons, _word_set(payload, "emoticons")


def _extractor_from_payload(payload: dict, lexicons: LexiconSet,
                            emoticons: frozenset[str]) -> FittedExtractor:
    """The extractor ``_extractor_payload`` wrote, with the given lexicons and emoticon table."""
    with _malformed("extractor"):
        if payload.get("kind") != EXTRACTOR_KIND:
            raise ParseError("not an extractor payload")
        if payload["version"] != EXTRACTOR_VERSION:
            raise IncompatibleModel(f"extractor version {payload['version']!r} unsupported "
                                    f"(expected {EXTRACTOR_VERSION!r})")
        for key, value in _extractor_constants().items():
            if type(payload[key]) is not type(value) or payload[key] != value:
                raise ValueError(f"{key} must be {value!r}, got {payload[key]!r:.40}")
        raw = payload["vocabulary"]
        # Every df and category_df must lie in [0, n_docs], so a float holds each.
        fitted = FittedExtractor(
            vocabulary=Vocabulary(terms=tuple(_items(raw, "terms", str)),
                                  df=tuple(_items(raw, "df", int)),
                                  n_docs=_number(raw, "n_docs", int),
                                  min_df=_number(raw, "min_df", int)),
            lexicons=lexicons,
            category_df=tuple(_items(payload, "category_df", int)),
            aux_mean=tuple(_items(payload, "aux_mean", int, float)),
            aux_std=tuple(_items(payload, "aux_std", int, float)),
            emoticons=emoticons,
        )
        if payload["categories"] != list(fitted.categories):
            raise ContractViolation("categories must be the lexicons' emotion categories, sorted")
        return fitted


def bundle_to_dict(bundle: ModelBundle) -> dict:
    payload = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "master_seed": bundle.master_seed,
        "config": dict(bundle.config),
        "emotions": list(bundle.emotions),
        "models": {},
    }
    for emotion in bundle.emotions:
        em = bundle.models[emotion]
        payload["models"][emotion] = {
            "chosen_C": em.chosen_C,
            "cv_accuracy": em.cv_accuracy,
            "split_seed": em.split_seed,
            "loss": em.model.loss,
            "solver_seed": em.model.seed,
            "weights": [float(v) for v in em.model.w],
            "extractor": _extractor_payload(em.extractor),
        }
    return payload


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write ``bundle`` to ``path`` as JSON.

    The bundle's stacks are prepared first, so a bundle whose emotions do not
    share text work raises ``ContractViolation`` and writes no file.
    """
    bundle.stacks       # ExtractorStack checks the text-work rule
    with atomic_write(path) as handle:
        json.dump(bundle_to_dict(bundle), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def bundle_from_dict(payload: dict) -> ModelBundle:
    """The bundle ``bundle_to_dict`` wrote.

    Every emotion's extractor takes the first emotion's lexicons and emoticon
    table, read once.  A later emotion whose raw ones differ is refused; it
    is read on its own first, so that a malformed one fails as it would alone.
    """
    with _malformed("bundle"):
        if payload.get("format") != BUNDLE_FORMAT:
            raise ParseError("not a model bundle")
        if payload["version"] != BUNDLE_VERSION:
            raise IncompatibleModel(f"bundle version {payload['version']!r} unsupported "
                                    f"(expected {BUNDLE_VERSION!r})")
        emotions = tuple(_items(payload, "emotions", str))
        if not emotions or len(set(emotions)) != len(emotions):
            raise ValueError(f"emotions must be distinct and non-empty, got {list(emotions)}")
        for emotion in emotions:
            if validate_emotion_name(emotion) != emotion:
                raise ValueError(f"emotion name {emotion!r} is not lowercase and stripped")
        if payload["models"].keys() != set(emotions):
            raise ValueError(f"models {list(payload['models'])} are not those of the emotions")
        if type(payload["config"]) is not dict:
            raise TypeError("config must be a map")
        head = payload["models"][emotions[0]]["extractor"]
        shared, models = _text_work(head), {}
        for emotion in emotions:
            raw = payload["models"][emotion]
            own = raw["extractor"]
            if not (isinstance(own, dict)
                    and all(own.get(key) == head[key] for key in ("lexicons", "emoticons"))):
                _extractor_from_payload(own, *_text_work(own))
                raise ParseError(f"{emotion}: lexicons or emoticon table differ from "
                                 f"{emotions[0]}'s; the emotions of one bundle share both")
            extractor = _extractor_from_payload(own, *shared)
            weights = np.asarray(_items(raw, "weights", int, float), dtype=np.float64)
            if weights.ndim != 1 or weights.shape[0] != extractor.dimension + 1:
                raise IncompatibleModel(
                    f"{emotion}: weight length {weights.shape} does not match "
                    f"feature dimension {extractor.dimension} plus bias"
                )
            if not np.all(np.isfinite(weights)):
                raise IncompatibleModel(f"{emotion}: non-finite weights")
            if raw["loss"] not in (L1_HINGE, L2_HINGE):
                raise ValueError(f"{emotion}: unknown loss {raw['loss']!r}")
            chosen_C = _number(raw, "chosen_C", int, float)
            cv_accuracy = _number(raw, "cv_accuracy", int, float)
            if not (math.isfinite(chosen_C) and math.isfinite(cv_accuracy)):
                raise ValueError(f"{emotion}: chosen_C {chosen_C} and cv_accuracy "
                                 f"{cv_accuracy} must be finite")
            models[emotion] = EmotionModel(
                emotion=emotion,
                extractor=extractor,
                model=LinearModel(w=weights, loss=raw["loss"],
                                  seed=_number(raw, "solver_seed", int)),
                chosen_C=chosen_C,
                cv_accuracy=cv_accuracy,
                split_seed=_number(raw, "split_seed", int),
            )
        return ModelBundle(
            emotions=emotions,
            models=models,
            master_seed=_number(payload, "master_seed", int),
            config=dict(payload["config"]),
        )


def load_bundle(path) -> ModelBundle:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:    # unreadable, not UTF-8, or not JSON
        raise ParseError(f"cannot read bundle {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"bundle {path} does not hold an object")
    return bundle_from_dict(payload)
