"""Training protocol: stratified folds, cost grid search, evaluation, bundles.

Each emotion is an independent binary task (binary relevance).  For one
emotion the recipe is: stratified 70/30 split, k-fold cross-validation over
the cost grid on the train partition (extractor refit inside every fold so
held-out documents never leak into document frequencies), pick the cost with
the best pooled accuracy breaking ties toward the smallest value, refit the
extractor on the whole train partition, and train the final model there.

The (fold, cost) solves of cross-validation run in lockstep: one
``svm.solve_folds`` call takes the folds as they are built and solves
consecutive ones together at every cost, as many as its memory bound
allows.  The final model is trained alone by ``train_dual_cd``, so a bundle
could change only if a cross-validation decision flipped.

Text work happens once per corpus, not once per (fold, cost, emotion):
``train_all`` counts every gold document once (``features.count_texts``),
and each fold fits and transforms its rows of that count matrix.  Batch
prediction likewise counts each document once for all emotions whose
extractors tokenize and count alike.

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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    LabeledDocument,
    _train_count,
    atomic_write,
    stratified_split,
    validate_emotion_name,
)
from .errors import (
    ContractViolation,
    DegenerateClass,
    EmptyCorpus,
    EmptyEmotionSet,
    IncompatibleModel,
    MalformedHeader,
    MissingLabel,
    ParseError,
    PipelineError,
    TooFewPositives,
)
from .features import (
    CorpusCounts,
    FeatureMatrix,
    FittedExtractor,
    count_texts,
    extractor_from_dict,
    extractor_to_dict,
    fit_counts,
    transform_counts,
)
from .lexicons import LexiconSet, default_lexicons
from .svm import (
    L1_HINGE,
    L2_HINGE,
    LinearModel,
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    predict_rows,
    solve_folds,
    train_dual_cd,
)
from .textprep import default_emoticons

BUNDLE_FORMAT = "emoclf-bundle"
BUNDLE_VERSION = "1"

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
    tune_metric: str = "accuracy"   # or "f1"
    lexicons: LexiconSet | None = None
    emoticons: frozenset[str] | None = None
    monitor: TrainingMonitor | None = None    # in-process only: needs one worker

    def __post_init__(self):
        if self.folds < 2:
            raise ContractViolation("need at least 2 folds")
        if not 0 < self.train_fraction < 1:
            raise ContractViolation("train_fraction must be in (0, 1)")
        if self.tune_metric not in ("accuracy", "f1"):
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


def _signs(labels) -> list[int]:
    return [1 if value else -1 for value in labels]


def _fold_problem(
    counts: CorpusCounts,
    labels: Sequence[int],
    assignment: np.ndarray,
    fold: int,
    config: TrainConfig,
) -> tuple[TrainingProblem, FeatureMatrix, list[int]]:
    """The fold's training problem, and its held-out rows and labels."""
    train_idx = np.flatnonzero(assignment != fold)
    held_idx = np.flatnonzero(assignment == fold)
    features = transform_counts(counts, fit_counts(counts.take(train_idx), config.min_df))
    problem = TrainingProblem.from_matrix(
        features.take(train_idx),
        _signs(labels[i] for i in train_idx),
        C=1.0,      # solve_folds solves at every cost of the grid
        loss=config.loss,
        pos_cost=config.positive_cost,
    )
    return problem, features.take(held_idx), [labels[i] for i in held_idx]


def _evaluate_folds(
    counts: CorpusCounts, labels: Sequence[int], plan: FoldPlan, config: TrainConfig
) -> tuple[FoldScore, ...]:
    """Held-out confusion counts per (fold, cost value), fold-major.

    The extractor and the training problem depend only on the fold's
    training documents, so each is built once per fold and only C varies
    across the grid; this is exactly equivalent to refitting per (fold, C).
    Each lockstep solve gives what ``train_dual_cd`` would for that (fold, C).
    """
    assignment = np.asarray(plan.assignment)
    c_values = config.grid.c_values
    held_out = {}       # fold -> held-out rows and labels, until all its costs are scored

    def problems():
        for fold in range(plan.k):
            problem, *held_out[fold] = _fold_problem(counts, labels, assignment, fold, config)
            yield problem, derive_seed(plan.seed, "solver", fold)

    scores = {}
    for fold, cost, model in solve_folds(
        problems(), c_values, config.eps, config.max_outer_iters, config.monitor
    ):
        rows, golds = held_out[fold]
        confusion = Confusion.of(predict_rows(model, rows), golds)
        scores[fold, cost] = FoldScore(
            fold, c_values[cost], confusion, model.sweeps, model.final_violation
        )
        if all((fold, c) in scores for c in range(len(c_values))):
            del held_out[fold]
    return tuple(scores[key] for key in sorted(scores))


def select_best_cost(scores: Mapping[float, float]) -> float:
    """Highest score wins; exact ties go to the smallest cost."""
    return min(scores, key=lambda c: (-scores[c], c))


def grid_search_C(
    counts: CorpusCounts, labels: Sequence[int], seed: int, config: TrainConfig
) -> tuple[float, float, tuple[FoldScore, ...]]:
    """Cross-validate every cost of ``config.grid`` over one ``config.folds``-fold plan.

    ``counts`` and ``labels`` hold the training documents' counts and 0/1
    labels, row for row; ``seed`` draws the folds.  Returns the chosen C,
    its pooled accuracy, and every (fold, C) evaluation.
    """
    if counts.n_docs != len(labels):
        raise ContractViolation(f"counts cover {counts.n_docs} documents, expected {len(labels)}")
    plan = make_fold_plan(labels, config.folds, seed)
    folds = _evaluate_folds(counts, labels, plan, config)
    c_values = config.grid.c_values
    pooled = {c: Confusion() for c in c_values}
    for score in folds:
        pooled[score.C] += score.confusion
    score_at = 2 if config.tune_metric == "f1" else 3
    best = select_best_cost({c: pooled[c].metrics()[score_at] for c in c_values})
    return best, pooled[best].metrics()[3], folds


# --- per-emotion training ----------------------------------------------------

def split_seed_for(emotion: str, config: TrainConfig) -> int:
    if config.shared_split:
        return derive_seed(config.seed, "shared-split")
    return derive_seed(config.seed, "emotion", emotion, "split")


def train_emotion_model(
    gold: Sequence[LabeledDocument],
    emotion: str,
    config: TrainConfig,
    counts: CorpusCounts | None = None,
) -> EmotionModel:
    """Grid-search C on ``gold`` (the train partition), then train the final model.

    ``counts`` are ``gold``'s counts, row for row, when already made.
    """
    labels = _labels_for(gold, emotion)
    if not any(labels) or all(labels):
        raise DegenerateClass(emotion)
    if counts is None:
        counts = count_texts([d.doc.text for d in gold], config.resolved_lexicons(),
                             config.resolved_emoticons())
    emotion_seed = derive_seed(config.seed, "emotion", emotion)

    chosen_c, cv_accuracy, cv_folds = grid_search_C(
        counts, labels, derive_seed(emotion_seed, "grid"), config
    )

    fitted = fit_counts(counts, config.min_df)
    problem = TrainingProblem.from_matrix(
        transform_counts(counts, fitted),
        _signs(labels),
        C=chosen_c,
        loss=config.loss,
        pos_cost=config.positive_cost,
    )
    final_seed = derive_seed(emotion_seed, "final")
    model = train_dual_cd(
        problem,
        SolverParams(eps=config.eps, max_outer_iters=config.max_outer_iters, seed=final_seed),
        monitor=config.monitor,
    )
    return EmotionModel(
        emotion=emotion,
        extractor=fitted,
        model=model,
        chosen_C=chosen_c,
        cv_accuracy=cv_accuracy,
        split_seed=split_seed_for(emotion, config),
        cv_folds=cv_folds,
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


def _train_one(args) -> tuple[str, EmotionModel]:
    gold, counts, emotion, stratify_by, config = args
    split = stratified_split(gold, stratify_by, config.train_fraction,
                             split_seed_for(emotion, config))
    return emotion, train_emotion_model(
        split.train, emotion, config, counts=counts.take(split.train_index)
    )


def train_all(
    gold: Sequence[LabeledDocument],
    emotions: Sequence[str],
    config: TrainConfig,
) -> ModelBundle:
    """One independently trained binary model per emotion.

    Splits happen per emotion, or once when ``shared_split`` is set, in which
    case every emotion reuses the split stratified by the first one.  Only
    each train partition ever reaches the extractor and solver.  With
    ``jobs > 1`` and several emotions, emotions train in up to ``jobs``
    parallel processes and results are reduced in the input emotion order,
    so parallelism never changes the output.  A ``monitor`` is updated in
    this process, so it needs one worker.  Every gold document is stripped,
    tokenized and counted once, before any split.
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
    tasks = {
        emotion: (gold, counts, emotion, emotions[0] if config.shared_split else emotion, config)
        for emotion in emotions
    }
    models: dict[str, EmotionModel] = {}
    failures: dict[str, Exception] = {}

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {emotion: pool.submit(_train_one, task) for emotion, task in tasks.items()}
            for emotion, future in futures.items():
                try:
                    _, models[emotion] = future.result()
                except Exception as exc:  # collected below, keyed by emotion
                    failures[emotion] = exc
    else:
        for emotion, task in tasks.items():
            try:
                _, models[emotion] = _train_one(task)
            except Exception as exc:
                failures[emotion] = exc

    if failures:
        raise PipelineError(failures)
    return ModelBundle(
        emotions=tuple(emotions),
        models={e: models[e] for e in emotions},
        master_seed=config.seed,
        config=_config_snapshot(config),
    )


# --- prediction and evaluation ----------------------------------------------

def _text_work_groups(models: Sequence[EmotionModel]) -> list[list[EmotionModel]]:
    """Models whose extractors tokenize and count text alike, in input order."""
    groups: list[list[EmotionModel]] = []
    for em in models:
        for group in groups:
            if group[0].extractor.shares_text_work(em.extractor):
                group.append(em)
                break
        else:
            groups.append([em])
    return groups


def _predictions(models: Sequence[EmotionModel], texts: Sequence[str]) -> dict[str, np.ndarray]:
    """Each model's 0/1 prediction per text; each text is counted once per group.

    Equal to ``predict(em.model, em.extractor.vectorize(text))`` for every
    model and text.
    """
    bits = {}
    for group in _text_work_groups(models):
        head = group[0].extractor
        counts = count_texts(texts, head.lexicons, head.emoticons)
        for em in group:
            bits[em.emotion] = predict_rows(em.model, transform_counts(counts, em.extractor))
    return bits


def classify(bundle: ModelBundle, docs) -> list[tuple[str, str, int]]:
    """(id, emotion, bit) rows, grouped by document in corpus order."""
    docs = list(docs)
    bits = _predictions(list(bundle), [doc.text for doc in docs])
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
    bits = _predictions(models, [d.doc.text for d in test_docs])
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

    Split sizes follow from the class sizes alone (see ``stratified_split``),
    so this needs no training; ``evaluate_heldout`` would raise the same
    error after it.  A split with an empty class is left to fail in training.
    """
    for emotion in emotions:
        labels = _labels_for(gold, emotions[0] if config.shared_split else emotion)
        sizes = (sum(1 for value in labels if value), sum(1 for value in labels if not value))
        if all(sizes) and all(_train_count(n, config.train_fraction) == n for n in sizes):
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
        stratify_by = bundle.emotions[0] if shared else emotion
        splits[emotion] = stratified_split(
            gold, stratify_by, fraction, bundle.models[emotion].split_seed
        )
        if not splits[emotion].test_index:
            raise _no_heldout(emotion, fraction)
    tested = sorted(set().union(*(split.test_index for split in splits.values())))
    position = {index: p for p, index in enumerate(tested)}
    bits = _predictions(list(bundle), [gold[i].doc.text for i in tested])
    rows = []
    for emotion, split in splits.items():
        guesses = bits[emotion][[position[i] for i in split.test_index]]
        rows.append(_metrics_row(emotion, Confusion.of(guesses, _labels_for(split.test, emotion))))
    return EvalReport(rows=tuple(rows))


# --- bundle persistence -------------------------------------------------------

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
            "extractor": extractor_to_dict(em.extractor),
        }
    return payload


def save_bundle(bundle: ModelBundle, path) -> None:
    with atomic_write(path) as handle:
        json.dump(bundle_to_dict(bundle), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def bundle_from_dict(payload: dict) -> ModelBundle:
    try:
        if payload.get("format") != BUNDLE_FORMAT:
            raise ParseError("not a model bundle")
        if payload["version"] != BUNDLE_VERSION:
            raise IncompatibleModel(
                f"bundle version {payload['version']!r} unsupported "
                f"(expected {BUNDLE_VERSION!r})"
            )
        emotions = tuple(payload["emotions"])
        if not emotions or len(set(emotions)) != len(emotions):
            raise ValueError(f"emotions must be distinct and non-empty, got {list(emotions)}")
        models = {}
        for emotion in emotions:
            if validate_emotion_name(emotion) != emotion:
                raise ValueError(f"emotion name {emotion!r} is not lowercase and stripped")
            raw = payload["models"][emotion]
            extractor = extractor_from_dict(raw["extractor"])
            weights = np.asarray(raw["weights"], dtype=np.float64)
            if weights.ndim != 1 or weights.shape[0] != extractor.dimension + 1:
                raise IncompatibleModel(
                    f"{emotion}: weight length {weights.shape} does not match "
                    f"feature dimension {extractor.dimension} plus bias"
                )
            if not np.all(np.isfinite(weights)):
                raise IncompatibleModel(f"{emotion}: non-finite weights")
            if raw["loss"] not in (L1_HINGE, L2_HINGE):
                raise ValueError(f"{emotion}: unknown loss {raw['loss']!r}")
            models[emotion] = EmotionModel(
                emotion=emotion,
                extractor=extractor,
                model=LinearModel(w=weights, loss=raw["loss"], seed=int(raw["solver_seed"])),
                chosen_C=float(raw["chosen_C"]),
                cv_accuracy=float(raw["cv_accuracy"]),
                split_seed=int(raw["split_seed"]),
            )
        return ModelBundle(
            emotions=emotions,
            models=models,
            master_seed=int(payload["master_seed"]),
            config=dict(payload["config"]),
        )
    except (ParseError, IncompatibleModel):
        raise
    except (KeyError, TypeError, ValueError, AttributeError, MalformedHeader) as exc:
        raise ParseError(f"malformed bundle payload: {exc}") from exc


def load_bundle(path) -> ModelBundle:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read bundle {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"bundle {path} does not hold an object")
    return bundle_from_dict(payload)
