"""Training protocol: stratified folds, cost grid search, evaluation, bundles.

Each emotion is an independent binary task (binary relevance).  For one
emotion the recipe is: stratified 70/30 split, k-fold cross-validation over
the cost grid on the train partition (extractor refit inside every fold so
held-out documents never leak into document frequencies), pick the cost with
the best pooled accuracy breaking ties toward the smallest value, refit the
extractor on the whole train partition, and train the final model there.

``train_all`` is the only trainer.  It cuts the emotions into contiguous
runs, one process each when ``jobs`` is above 1, and ``_train_run`` trains
a run along one path.  Each emotion is planned first (split, its rows of
the count matrix, labels, class checks, fold plan).  Then the (fold, cost)
solves of cross-validation run in lockstep: one ``svm.solve_folds`` call
takes the folds of every emotion of the run as they are built, emotion
after emotion, and solves consecutive ones together at every cost, as many
as its memory bound allows, so one group can hold the folds of several
emotions.  Last, each emotion picks its cost and trains its final model; a
failure at any stage is reported under its own emotion.  The final model is
trained alone by ``train_dual_cd``, so a bundle could change only if a
cross-validation decision flipped.

Text work happens once per corpus, not once per (fold, cost, emotion):
``train_all`` counts every gold document once (``features.count_texts``),
and each fold's feature space comes straight from its rows of that count
matrix (``features.ExtractorStack.fitted_on``), with no extractor object;
only the final model's extractor, which the bundle keeps, is built by
``features.fit_counts``.  A bundle
is one text-work unit: all of its emotions' extractors share one lexicon
set and emoticon table (``train_all`` fits them all from one count matrix,
``bundle_from_dict`` refuses a payload whose emotions differ in either, and
``features.ExtractorStack`` checks it before any prediction or save).  So
batch prediction counts each document once for all emotions and handles
them together: it goes through the documents in blocks of at most
``PREDICT_BLOCK_ROWS`` (emotion, document) rows, each counted straight into
the bundle's term table, with one stacked transform and one scoring pass
per block.  The stacks are prepared once per bundle
(``ModelBundle.stacks``: an ``ExtractorStack``, which holds the term table,
and a ``ModelStack``), on the bundle's first prediction or save, and every
block of every later call reuses them; loading a bundle builds none, and
none is saved.

All randomness flows from one master seed; per-emotion streams are derived
from it by hashing the emotion name, so adding or removing one emotion never
changes another's model.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

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
    DegenerateClass,
    DocumentTooLarge,
    EmptyCorpus,
    EmptyEmotionSet,
    IncompatibleModel,
    LexiconError,
    MalformedHeader,
    MissingLabel,
    ParseError,
    PipelineError,
    TooFewPositives,
)
from .features import (
    AUX_FEATURES,
    CorpusCounts,
    ExtractorStack,
    FeatureMatrix,
    FittedExtractor,
    Vocabulary,
    count_texts,
    fit_counts,
    stacked_transform,
)
from .lexicons import LexiconSet, default_emoticons, default_lexicons
from .svm import (
    L1_HINGE,
    L2_HINGE,
    LinearModel,
    ModelStack,
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    predict_rows,
    solve_folds,
    stacked_decision_values,
    train_dual_cd,
)

BUNDLE_FORMAT = "emoclf-bundle"
BUNDLE_VERSION = "1"
EXTRACTOR_KIND = "emoclf-extractor"
EXTRACTOR_VERSION = "1"

DEFAULT_C_GRID = (0.01, 0.05, 0.10, 0.20, 0.25, 0.50, 1.0, 2.0, 4.0, 8.0)


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed from a master seed and a label path."""
    payload = ":".join([str(int(master)), *map(str, parts)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


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


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignment: tuple[int, ...]    # doc index -> fold id
    seed: int


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


@dataclass(frozen=True)
class FoldScore:
    """Held-out confusion counts of one cross-validation solve: ``fold`` at cost ``C``.

    ``sweeps`` and ``final_violation`` describe that solve, as on ``LinearModel``.
    """

    fold: int
    C: float
    confusion: Confusion
    sweeps: int
    final_violation: float


def _metrics_row(emotion: str, counts: Confusion) -> EmotionEval:
    return EmotionEval(
        emotion, counts.tp, counts.fp, counts.fn, counts.tn, *counts.metrics()
    )


# --- folds and cross-validation --------------------------------------------

def make_fold_plan(labels: Sequence[int], k: int, seed: int) -> FoldPlan:
    """Round-robin fold assignment per class after a seeded shuffle."""
    if k < 2:
        raise ContractViolation("need at least 2 folds")
    by_class = {1: [], 0: []}
    for index, value in enumerate(labels):
        by_class[1 if value else 0].append(index)
    for value in (1, 0):
        if len(by_class[value]) < k:
            raise TooFewPositives(value, len(by_class[value]), k)

    assignment = [0] * len(labels)
    rng = random.Random(seed)
    for value in (1, 0):
        order = list(by_class[value])
        rng.shuffle(order)
        for position, index in enumerate(order):
            assignment[index] = position % k
    return FoldPlan(k=k, assignment=tuple(assignment), seed=seed)


def _labels_for(docs: Sequence[LabeledDocument], emotion: str) -> list[int]:
    labels = []
    for d in docs:
        if emotion not in d.labels:
            raise MissingLabel(emotion)
        labels.append(d.labels[emotion])
    return labels


def _problem(features: FeatureMatrix, labels: Sequence[int], config: TrainConfig
             ) -> TrainingProblem:
    return TrainingProblem.from_matrix(features, labels, loss=config.loss,
                                       pos_cost=config.positive_cost)


def _fitted_problem(
    counts: CorpusCounts, labels: Sequence[int], config: TrainConfig,
) -> tuple[FittedExtractor, TrainingProblem]:
    """The final model's extractor, fitted on every row of ``counts``, and those rows' problem.

    The rows come from ``ExtractorStack.fitted_on``, as a fold's do: they
    are ``transform_counts(counts, fitted)``'s, bit for bit, without
    mapping the corpus's terms onto the vocabulary.  So training caches no
    stack on the extractor, and none travels with it from a worker process.
    """
    features = stacked_transform(counts, ExtractorStack.fitted_on(counts, config.min_df))
    return fit_counts(counts, config.min_df), _problem(features, labels, config)


def _fold_problem(
    counts: CorpusCounts, labels: Sequence[int], assignment: np.ndarray, fold: int,
    config: TrainConfig,
) -> tuple[TrainingProblem, FeatureMatrix, list[int]]:
    """The fold's training problem, and its held-out rows and labels.

    The fold's feature space comes straight from its training rows of the
    count matrix (``ExtractorStack.fitted_on``), with no ``FittedExtractor``;
    its rows are those of ``transform_counts(counts, fit_counts(counts.take(
    train rows), min_df))``, bit for bit.  One transform serves the
    training and the held-out rows.
    """
    train_idx = np.flatnonzero(assignment != fold)
    held_idx = np.flatnonzero(assignment == fold)
    space = ExtractorStack.fitted_on(counts.take(train_idx), config.min_df)
    features = stacked_transform(counts, space)
    problem = _problem(features.take(train_idx), [labels[i] for i in train_idx], config)
    return problem, features.take(held_idx), [labels[i] for i in held_idx]


def _cross_validate(
    tasks: Sequence[tuple[CorpusCounts, Sequence[int], FoldPlan]], config: TrainConfig
) -> list[tuple[FoldScore, ...] | Exception]:
    """Held-out confusion counts per (fold, cost value) of every (counts, labels, plan) task.

    Each task's scores come back fold-major.  The extractor and the training
    problem depend only on the fold's training documents, so each is built
    once per fold and only C varies across the grid; this is exactly
    equivalent to refitting per (fold, C).  Every task's folds go through one
    ``solve_folds`` stream, task after task, so the folds of several tasks
    share a lockstep group whenever its state fits.  Each lockstep solve
    gives what ``train_dual_cd`` would for that (fold, C), whatever the group.

    A task whose fold problem cannot be built gets that exception in place
    of its scores, and the stream goes on with the next task.
    """
    c_values = config.grid.c_values
    owner = []          # problem index -> (task, fold)
    held_out = {}       # problem index -> held-out rows and labels, until all its costs are scored
    failed: dict[int, Exception] = {}
    scores = [{} for _ in tasks]

    def problems():
        for task, (counts, labels, plan) in enumerate(tasks):
            assignment = np.asarray(plan.assignment)
            for fold in range(plan.k):
                try:
                    problem, *rows_and_golds = _fold_problem(
                        counts, labels, assignment, fold, config)
                except Exception as exc:    # reported under this task only
                    failed[task] = exc
                    break
                held_out[len(owner)] = rows_and_golds
                owner.append((task, fold))
                yield problem, derive_seed(plan.seed, "solver", fold)

    for index, cost, model in solve_folds(
        problems(), c_values, config.eps, config.max_outer_iters, config.monitor
    ):
        task, fold = owner[index]
        rows, golds = held_out[index]
        scored = scores[task]
        confusion = Confusion.of(predict_rows(model, rows), golds)
        scored[fold, cost] = FoldScore(
            fold, c_values[cost], confusion, model.sweeps, model.final_violation
        )
        if all((fold, c) in scored for c in range(len(c_values))):
            del held_out[index]
    return [failed.get(task) or tuple(scored[key] for key in sorted(scored))
            for task, scored in enumerate(scores)]


def select_best_cost(scores: Mapping[float, float]) -> float:
    """Highest score wins; exact ties go to the smallest cost."""
    return min(scores, key=lambda c: (-scores[c], c))


def _choose_cost(folds: Sequence[FoldScore], config: TrainConfig) -> tuple[float, float]:
    """The cost with the best pooled ``config.tune_metric``, and its pooled accuracy."""
    c_values = config.grid.c_values
    pooled = {c: Confusion() for c in c_values}
    for score in folds:
        pooled[score.C] += score.confusion
    score_at = TUNE_METRICS[config.tune_metric]
    best = select_best_cost({c: pooled[c].metrics()[score_at] for c in c_values})
    return best, pooled[best].metrics()[TUNE_METRICS["accuracy"]]


# --- per-emotion training ----------------------------------------------------

def split_seed_for(emotion: str, config: TrainConfig) -> int:
    if config.shared_split:
        return derive_seed(config.seed, "shared-split")
    return derive_seed(config.seed, "emotion", emotion, "split")


def _emotion_split(
    gold: Sequence[LabeledDocument], emotions: Sequence[str], emotion: str, shared: bool,
    fraction: float, seed: int,
) -> SplitResult:
    """``emotion``'s split of ``gold``; a ``shared`` one is stratified by ``emotions[0]``."""
    return stratified_split(gold, emotions[0] if shared else emotion, fraction, seed)


def _final_model(
    emotion: str, counts: CorpusCounts, labels: list[int], folds: tuple[FoldScore, ...],
    config: TrainConfig,
) -> EmotionModel:
    """Pick the cost from ``folds`` and train on the whole train partition at it."""
    chosen_c, cv_accuracy = _choose_cost(folds, config)
    fitted, problem = _fitted_problem(counts, labels, config)
    seed = derive_seed(derive_seed(config.seed, "emotion", emotion), "final")
    params = SolverParams(C=chosen_c, eps=config.eps, max_outer_iters=config.max_outer_iters,
                          seed=seed)
    model = train_dual_cd(problem, params, monitor=config.monitor)
    return EmotionModel(
        emotion=emotion,
        extractor=fitted,
        model=model,
        chosen_C=chosen_c,
        cv_accuracy=cv_accuracy,
        split_seed=split_seed_for(emotion, config),
        cv_folds=folds,
    )


def _config_snapshot(config: TrainConfig) -> dict:
    return {
        "train_fraction": config.train_fraction,
        "folds": config.folds,
        "grid": list(config.grid.c_values),
        "min_df": config.min_df,
        "loss": config.loss,
        "eps": config.eps,
        "max_outer_iters": config.max_outer_iters,
        "shared_split": config.shared_split,
        "positive_cost": config.positive_cost,
        "tune_metric": config.tune_metric,
    }


def _runs(emotions: Sequence[str], count: int) -> list[list[str]]:
    """``emotions`` cut into ``count`` contiguous runs, in order, sized within one of each other."""
    size, extra = divmod(len(emotions), count)
    cuts = [run * size + min(run, extra) for run in range(count + 1)]
    return [list(emotions[a:b]) for a, b in zip(cuts, cuts[1:])]


def _train_run(args) -> tuple[dict[str, EmotionModel], dict[str, Exception]]:
    """Train one run of emotions: ``(models, failures)``, keyed by emotion.

    ``counts`` hold every ``gold`` document's counts, row for row, and
    ``run`` is a contiguous part of the bundle's ``emotions``.  Each emotion
    of the run is planned first: its split (``_emotion_split``), its train
    partition's rows of ``counts``, its labels, a check that both classes
    are present, and its fold plan.  Then all of the run's cross-validation
    problems go through one ``_cross_validate`` stream, and then each
    emotion picks its cost and trains its final model.  An exception fails
    only the emotion it belongs to, except one from the solver, which ends
    the stream and so fails every emotion in it.
    """
    gold, counts, run, emotions, config = args
    failures: dict[str, Exception] = {}
    tasks = {}
    for emotion in run:
        try:
            split = _emotion_split(gold, emotions, emotion, config.shared_split,
                                   config.train_fraction, split_seed_for(emotion, config))
            train_counts = counts.take(split.train_index)
            labels = _labels_for(split.train, emotion)
            if not any(labels) or all(labels):
                raise DegenerateClass(emotion)
            seed = derive_seed(derive_seed(config.seed, "emotion", emotion), "grid")
            tasks[emotion] = (train_counts, labels, make_fold_plan(labels, config.folds, seed))
        except Exception as exc:    # collected, keyed by emotion
            failures[emotion] = exc
    try:
        results = _cross_validate(list(tasks.values()), config)
    except Exception as exc:
        results = [exc] * len(tasks)
    models: dict[str, EmotionModel] = {}
    for (emotion, (train_counts, labels, _)), folds in zip(tasks.items(), results):
        try:
            if isinstance(folds, Exception):
                raise folds
            models[emotion] = _final_model(emotion, train_counts, labels, folds, config)
        except Exception as exc:
            failures[emotion] = exc
    return models, failures


def train_all(
    gold: Sequence[LabeledDocument],
    emotions: Sequence[str],
    config: TrainConfig,
) -> ModelBundle:
    """One independently trained binary model per emotion.

    Splits happen per emotion, or once when ``shared_split`` is set, in which
    case every emotion reuses the split stratified by the first one.  Only
    each train partition ever reaches the extractor and solver.  Every gold
    document is stripped, tokenized and counted once, before any split.

    The emotions are cut into ``min(jobs, len(emotions))`` contiguous runs
    of near-equal size.  Each run trains in one process (this one when there
    is a single run), and all cross-validation problems of a run share one
    lockstep stream.  Results are reduced in the input emotion order.  The
    runs change only the order in which cross-validation sums its row dot
    products, so ``jobs`` changes a bundle only if a held-out decision or a
    stopping test lies within rounding of its threshold.  A ``monitor`` is
    updated in this process, so it needs one worker.  Failures are collected per emotion into one
    ``PipelineError``.
    """
    emotions = list(emotions)
    if not emotions:
        raise EmptyEmotionSet("no emotions requested")
    if len(set(emotions)) != len(emotions):
        raise ContractViolation(f"duplicate emotion in {emotions}")
    if not gold:
        raise DegenerateClass(emotions[0], "gold corpus is empty")
    for emotion in emotions:
        if emotion not in gold[0].labels:
            raise MissingLabel(emotion)
    workers = min(config.jobs, len(emotions))
    if workers > 1 and config.monitor is not None:
        raise ContractViolation(
            "a training monitor counts in this process only; train with jobs=1 to use one"
        )

    counts = count_texts([d.doc.text for d in gold], config.resolved_lexicons(),
                         config.resolved_emoticons())
    runs = _runs(emotions, workers)
    tasks = [(gold, counts, run, emotions, config) for run in runs]
    models: dict[str, EmotionModel] = {}
    failures: dict[str, Exception] = {}

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_train_run, task) for task in tasks]
            for run, future in zip(runs, futures):
                try:
                    got, failed = future.result()
                except Exception as exc:  # the whole run's process failed
                    got, failed = {}, dict.fromkeys(run, exc)
                models.update(got)
                failures.update(failed)
    else:
        models, failures = _train_run(tasks[0])

    if failures:
        raise PipelineError({e: failures[e] for e in emotions if e in failures})
    return ModelBundle(
        emotions=tuple(emotions),
        models={e: models[e] for e in emotions},
        master_seed=config.seed,
        config=_config_snapshot(config),
    )


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


def check_heldout_partitions(
    gold: Sequence[LabeledDocument], emotions: Sequence[str], config: TrainConfig
) -> None:
    """Raise ``EmptyCorpus`` when an emotion's split would hold out no documents.

    Each emotion's split is made as training would make it, so this needs
    no training; ``evaluate_heldout`` would raise the same error after it.
    A split with an empty class is left to fail in training.
    """
    for emotion in emotions:
        try:
            split = _emotion_split(gold, emotions, emotion, config.shared_split,
                                   config.train_fraction, split_seed_for(emotion, config))
        except DegenerateClass:
            continue
        if not split.test_index:
            raise _no_heldout(emotion, config.train_fraction)


def evaluate_heldout(bundle: ModelBundle, gold: Sequence[LabeledDocument]) -> EvalReport:
    """Score every model on its own held-out test partition.

    The per-emotion splits are recomputed from the seeds recorded in the
    bundle, so this sees exactly the documents the training never touched.
    Documents in several test partitions are counted once.
    """
    fraction = float(bundle.config["train_fraction"])
    shared = bool(bundle.config.get("shared_split"))
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
