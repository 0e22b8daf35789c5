"""Training protocol: stratified folds, cost grid search, final models.

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
``features.fit_counts``.  ``train_all`` fits every emotion's extractor from
that one count matrix, so all of them share one lexicon set and emoticon
table, as a bundle requires (see ``pipeline``).

All randomness flows from one master seed; per-emotion streams are derived
from it by hashing the emotion name, so adding or removing one emotion never
changes another's model.

This module, and the solver (``svm``) it imports, load only when training
does: ``pipeline`` holds what loading and classifying need, and serves the
public names defined here (``train_all`` and the rest) on first use.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import LabeledDocument
from .errors import (
    ContractViolation,
    DegenerateClass,
    EmptyEmotionSet,
    MissingLabel,
    PipelineError,
    TooFewPositives,
)
from .features import (
    CorpusCounts,
    ExtractorStack,
    FeatureMatrix,
    FittedExtractor,
    count_texts,
    fit_counts,
    stacked_transform,
)
from .pipeline import (
    TUNE_METRICS,
    Confusion,
    EmotionModel,
    ModelBundle,
    TrainConfig,
    _emotion_split,
    _labels_for,
    _no_heldout,
)
from .svm import (
    SolverParams,
    TrainingProblem,
    predict_rows,
    solve_folds,
    train_dual_cd,
)


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed from a master seed and a label path."""
    payload = ":".join([str(int(master)), *map(str, parts)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignment: tuple[int, ...]    # doc index -> fold id
    seed: int


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
