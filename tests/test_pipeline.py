import concurrent.futures
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoclf import pipeline, svm, training
from emoclf.corpus import Document, LabeledDocument, stratified_split
from emoclf.errors import (
    ContractViolation,
    DegenerateClass,
    EmptyCorpus,
    EmptyEmotionSet,
    IncompatibleModel,
    MissingLabel,
    ParseError,
    PipelineError,
    TooFewPositives,
)
from emoclf.features import count_texts, fit_counts, transform_counts
from emoclf.lexicons import LexiconSet
from emoclf.pipeline import (
    DEFAULT_C_GRID,
    Confusion,
    FoldScore,
    TrainConfig,
    TuningGrid,
    bundle_from_dict,
    bundle_to_dict,
    check_heldout_partitions,
    classify,
    confusion_metrics,
    derive_seed,
    evaluate,
    evaluate_heldout,
    load_bundle,
    make_fold_plan,
    save_bundle,
    select_best_cost,
    train_all,
)
from emoclf.svm import (
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    predict_rows,
    state_bytes,
    train_dual_cd,
)
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus

SMALL_GRID = TuningGrid((0.25, 1.0))
FAST = dict(folds=3, grid=SMALL_GRID, min_df=1)


def small_corpus(n=60, seed=5, noise=0.0, emotion="joy"):
    return generate_planted_corpus(
        n, {emotion: DEFAULT_KEYWORDS}, noise=noise, seed=seed
    )


def counts_for(docs, config):
    return count_texts([d.doc.text for d in docs], config.resolved_lexicons())


def cross_validate(docs, seed, config, emotion="joy"):
    """Cross-validate ``docs``' ``emotion`` labels over the fold plan ``seed`` draws.

    Returns the chosen C, its pooled accuracy and every (fold, C) evaluation.
    """
    labels = [d.labels[emotion] for d in docs]
    plan = make_fold_plan(labels, config.folds, seed)
    [folds] = training._cross_validate([(counts_for(docs, config), labels, plan)], config)
    if isinstance(folds, Exception):
        raise folds
    return (*training._choose_cost(folds, config), folds)


THREE_EMOTIONS = {
    "joy": DEFAULT_KEYWORDS,
    "anger": ("grumblex", "snarlit", "vexopod"),
    "fear": ("shivrak", "dreadlo", "quavex"),
}
FOUR_EMOTIONS = {**THREE_EMOTIONS, "calm": ("serenix", "placido", "tranqot")}


def assert_same_fold_scores(got, expected):
    """Equal fold, cost, confusion counts and sweeps; violations equal to rounding.

    A fold's final violation is summed in an order that depends on the
    lockstep group it was solved in, so it can differ in its last bits.
    """
    assert [(s.fold, s.C, s.confusion, s.sweeps) for s in got] == [
        (s.fold, s.C, s.confusion, s.sweeps) for s in expected
    ]
    assert [s.final_violation for s in got] == pytest.approx(
        [s.final_violation for s in expected], rel=1e-9, abs=1e-12)


def with_failing_emotions(docs):
    """``docs`` plus "surprise" (3 positives: too few for 3 folds after a 70%
    split) and "calm" (no positives)."""
    return [LabeledDocument(d.doc, {**d.labels, "surprise": int(i < 3), "calm": 0})
            for i, d in enumerate(docs)]


class TestTuningGrid:
    def test_default_matches_protocol(self):
        assert TuningGrid().c_values == DEFAULT_C_GRID
        assert DEFAULT_C_GRID == (0.01, 0.05, 0.10, 0.20, 0.25, 0.50, 1.0, 2.0, 4.0, 8.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ContractViolation):
            TuningGrid((1.0, 0.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            TuningGrid((0.0, 1.0))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            TuningGrid(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractViolation, match="finite"):
            TuningGrid((bad,))


class TestTrainConfig:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ContractViolation, match="jobs"):
            TrainConfig(jobs=jobs)

    @pytest.mark.parametrize("name", ["positive_cost", "eps"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_rejects_non_finite_or_nonpositive_costs_and_tolerance(self, name, bad):
        with pytest.raises(ContractViolation, match=name):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["min_df", "max_outer_iters"])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_min_df_and_sweep_limit_below_one(self, name, bad):
        with pytest.raises(ContractViolation, match=f"{name} must be at least 1"):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["folds", "jobs", "min_df", "max_outer_iters"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
    def test_rejects_counts_that_are_not_integers(self, name, bad):
        # Accepted, folds=2.5 would fail every emotion's training and
        # min_df=1.5 would be written into the bundle.
        with pytest.raises(ContractViolation, match=f"{name} must be an integer, got {bad!r}"):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_rejects_a_seed_that_is_not_an_integer(self, bad):
        # Accepted, seed=1.5 would train as seed 1 but be written into the
        # bundle as 1.5, so a save, load and save would change its bytes.
        with pytest.raises(ContractViolation, match=f"seed must be an integer, got {bad!r}"):
            TrainConfig(seed=bad)

    @pytest.mark.parametrize("name", ["folds", "seed", "jobs", "min_df", "max_outer_iters"])
    def test_rejects_an_integer_no_float_holds(self, name):
        # Accepted, seed or min_df would be written into a bundle that
        # load_bundle refuses, since a bundle's numbers are read as floats.
        with pytest.raises(ContractViolation, match=f"{name} must lie within a float's range"):
            TrainConfig(**{name: 10**400})

    @pytest.mark.parametrize("grid", [(0.5, 1.0), [1.0], 1.0])
    def test_rejects_a_grid_that_is_not_a_tuning_grid(self, grid):
        # Accepted, it would fail every emotion's training on a missing c_values.
        with pytest.raises(ContractViolation, match=f"TuningGrid, got {type(grid).__name__}"):
            TrainConfig(grid=grid)

    @pytest.mark.parametrize("lexicons", [frozenset({":)"}), {}, "lexicons"])
    def test_rejects_lexicons_that_are_not_a_lexicon_set(self, lexicons):
        # Accepted, a bare emoticon table (the type of the emoticon argument
        # the lexicon set replaced) failed training with an AttributeError
        # from counting.
        with pytest.raises(ContractViolation,
                           match=f"LexiconSet or None, got {type(lexicons).__name__}"):
            TrainConfig(lexicons=lexicons)


class TestFoldPlan:
    def test_balanced_two_class(self):
        labels = [1] * 10 + [0] * 10
        plan = make_fold_plan(labels, k=10, seed=0)
        for fold in range(10):
            members = [i for i, g in enumerate(plan.assignment) if g == fold]
            assert sum(labels[i] for i in members) == 1
            assert len(members) == 2

    def test_45_positives_in_10_folds(self):
        labels = [1] * 45 + [0] * 100
        plan = make_fold_plan(labels, k=10, seed=1)
        counts = [0] * 10
        for i, fold in enumerate(plan.assignment):
            counts[fold] += labels[i]
        assert set(counts) <= {4, 5}
        assert sum(counts) == 45

    def test_too_few_positives(self):
        with pytest.raises(TooFewPositives):
            make_fold_plan([1] * 5 + [0] * 50, k=10, seed=0)

    def test_deterministic(self):
        labels = [1] * 12 + [0] * 20
        assert make_fold_plan(labels, 4, 7) == make_fold_plan(labels, 4, 7)

    @given(
        n_pos=st.integers(min_value=4, max_value=40),
        n_neg=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60)
    def test_per_class_fold_sizes_within_one(self, n_pos, n_neg, seed):
        k = 4
        labels = [1] * n_pos + [0] * n_neg
        plan = make_fold_plan(labels, k, seed)
        for value in (0, 1):
            sizes = [
                sum(1 for i, g in enumerate(plan.assignment) if g == f and labels[i] == value)
                for f in range(k)
            ]
            assert max(sizes) - min(sizes) <= 1


class TestMetrics:
    def test_perfect(self):
        assert confusion_metrics(5, 0, 0, 5) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_case(self):
        precision, recall, f1, _ = confusion_metrics(3, 1, 2, 10)
        assert precision == pytest.approx(0.75)
        assert recall == pytest.approx(0.6)
        assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert f1 == pytest.approx(0.666666666, abs=1e-6)

    def test_no_predicted_positives(self):
        precision, recall, f1, accuracy = confusion_metrics(0, 0, 4, 6)
        assert (precision, f1) == (0.0, 0.0)
        assert recall == 0.0
        assert accuracy == 0.6

    def test_all_zero_rejected(self):
        with pytest.raises(ContractViolation):
            confusion_metrics(0, 0, 0, 0)

    @given(
        tp=st.integers(0, 40), fp=st.integers(0, 40),
        fn=st.integers(0, 40), tn=st.integers(0, 40),
    )
    @settings(max_examples=200)
    def test_matches_direct_formulas(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        precision, recall, f1, accuracy = confusion_metrics(tp, fp, fn, tn)
        assert precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert recall == (tp / (tp + fn) if tp + fn else 0.0)
        expected_f1 = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
        assert f1 == expected_f1
        assert accuracy == (tp + tn) / (tp + fp + fn + tn)


class TestConfusion:
    @given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1))
    @settings(max_examples=100)
    def test_counts_match_a_loop(self, pairs):
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for guess, gold in pairs:
            key = ("t" if guess == gold else "f") + ("p" if guess else "n")
            tally[key] += 1
        counts = Confusion.of([g for g, _ in pairs], [t for _, t in pairs])
        assert counts == Confusion(**tally)
        assert counts.correct == tally["tp"] + tally["tn"]
        assert counts.metrics() == confusion_metrics(**tally)

    def test_sums_pool_folds(self):
        total = Confusion(1, 2, 3, 4) + Confusion(10, 20, 30, 40)
        assert total == Confusion(11, 22, 33, 44)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            Confusion.of([1, 0], [1])


class TestSelection:
    def test_tie_goes_to_smallest(self):
        scores = {0.01: 5.0, 1.0: 5.0, 8.0: 5.0}
        assert select_best_cost(scores) == 0.01

    def test_best_wins(self):
        assert select_best_cost({0.5: 3.0, 2.0: 7.0, 8.0: 6.0}) == 2.0

    @given(st.permutations([0.01, 0.1, 0.5, 1.0, 4.0]))
    @settings(max_examples=40)
    def test_order_independent(self, order):
        scores = {0.01: 2.0, 0.1: 5.0, 0.5: 5.0, 1.0: 4.0, 4.0: 1.0}
        shuffled = {c: scores[c] for c in order}
        assert select_best_cost(shuffled) == 0.1


def scalar_fold_scores(counts, labels, plan, c_values, config):
    """Cross-validation as one ``train_dual_cd`` per (fold, C), fold-major.

    The reference for the lockstep solves in ``training._cross_validate``.
    """
    assignment = np.asarray(plan.assignment)
    scores = []
    for fold in range(plan.k):
        train_idx = np.flatnonzero(assignment != fold)
        held_idx = np.flatnonzero(assignment == fold)
        features = transform_counts(counts, fit_counts(counts.take(train_idx), config.min_df))
        problem = TrainingProblem.from_matrix(
            features.take(train_idx),
            [1 if labels[i] else -1 for i in train_idx],
            loss=config.loss,
            pos_cost=config.positive_cost,
        )
        held = features.take(held_idx)
        y_held = [labels[i] for i in held_idx]
        params = SolverParams(
            C=c_values[0],
            eps=config.eps,
            max_outer_iters=config.max_outer_iters,
            seed=derive_seed(plan.seed, "solver", fold),
        )
        for c in c_values:
            model = train_dual_cd(problem, replace(params, C=float(c)))
            scores.append(FoldScore(fold, c, Confusion.of(predict_rows(model, held), y_held),
                                    model.sweeps, model.final_violation, model.converged))
    return scores


class TestLockstepCrossValidation:
    @pytest.mark.parametrize("loss", ["l1", "l2"])
    # The state budget is given in units of one fold's state.
    @pytest.mark.parametrize("budget_in_folds, widths", [
        (0, [1, 1, 1, 1, 1]),      # below one fold's state: a group still holds one
        (2.5, [2, 2, 1]),
        (100, [5]),
    ])
    def test_fold_scores_equal_the_scalar_loop(self, monkeypatch, loss, budget_in_folds, widths):
        docs = small_corpus(n=150, seed=9, noise=0.1)
        config = TrainConfig(folds=5, grid=TuningGrid((0.05, 0.5, 4.0)), min_df=1, loss=loss,
                             positive_cost=1.5)
        labels = [d.labels["joy"] for d in docs]
        plan = make_fold_plan(labels, config.folds, 17)
        counts = counts_for(docs, config)
        c_values = config.grid.c_values
        first = training._fold_problem(counts, labels, np.asarray(plan.assignment), 0, config)[0]
        budget = budget_in_folds * state_bytes([first], len(c_values))
        monkeypatch.setattr(svm, "LOCKSTEP_STATE_BYTES", budget)
        first_seen = {}     # fold -> problems pulled (plus the final empty pull) at its first model
        solve_folds = training.solve_folds

        def recording(problems, *rest):
            pulled = 0

            def counted():
                nonlocal pulled
                for item in problems:
                    pulled += 1
                    yield item
                pulled += 1

            for fold, cost, model in solve_folds(counted(), *rest):
                first_seen.setdefault(fold, pulled)
                yield fold, cost, model

        monkeypatch.setattr(training, "solve_folds", recording)

        [got] = training._cross_validate([(counts, labels, plan)], config)
        expected = scalar_fold_scores(counts, labels, plan, c_values, config)
        # A group is solved once the fold after it has been pulled, so its
        # folds share one pull count; the last group's includes the empty pull.
        pulls = [first_seen[fold] for fold in range(config.folds)]
        assert [len(list(run)) for _, run in itertools.groupby(pulls)] == widths
        assert pulls[-1] == config.folds + 1
        assert [(s.fold, s.C, s.confusion, s.sweeps) for s in got] == [
            (s.fold, s.C, s.confusion, s.sweeps) for s in expected
        ]
        # The row dots sum in another order, so violations agree to rounding.
        assert [s.final_violation for s in got] == pytest.approx(
            [s.final_violation for s in expected], rel=1e-9, abs=1e-12)


# Trains the C07 corpus, then the same corpus plus four identical documents
# of 4,000 distinct words labeled positive, and prints each training's
# seconds and the process's peak RSS in KiB after it.
LONG_DOCUMENTS = """
import time
from emoclf.corpus import Document, LabeledDocument
from emoclf.pipeline import TrainConfig, train_all
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus
def peak():
    with open("/proc/self/status") as status:
        return next(line.split()[1] for line in status if line.startswith("VmHWM:"))
gold = generate_planted_corpus(1200, {"joy": DEFAULT_KEYWORDS}, noise=0.05, seed=11)
text = " ".join("x" + "".join(chr(97 + i // 26**k % 26) for k in range(4)) for i in range(4000))
long = [LabeledDocument(Document(f"long{k}", text), {"joy": 1}) for k in range(4)]
for docs in (gold, gold + long):
    started = time.perf_counter()
    train_all(docs, ["joy"], TrainConfig())
    print(time.perf_counter() - started, peak())
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_long_documents_train_in_bounded_time_and_memory():
    # While the lockstep padded every row of a group to its longest, these
    # four documents (about 8,000 entries a row, against at most about 50)
    # made training 38 times slower and raised the peak by 193 MiB
    # (Python 3.11, x86-64 Linux).
    src = Path(pipeline.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", LONG_DOCUMENTS],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    (plain, plain_peak), (long, long_peak) = (
        map(float, line.split()) for line in result.stdout.splitlines())
    assert long <= 5 * plain, f"{long:.2f} s against {plain:.2f} s"
    assert (long_peak - plain_peak) / 1024 <= 24


class TestHeldoutCheck:
    @given(
        positives=st.integers(min_value=1, max_value=12),
        negatives=st.integers(min_value=1, max_value=12),
        fraction=st.sampled_from([0.5, 0.7, 0.8, 0.9, 0.95]),
    )
    @settings(max_examples=60, deadline=None)
    def test_raises_exactly_when_the_split_holds_out_nothing(self, positives, negatives, fraction):
        docs = [LabeledDocument(Document(str(i), "text"), {"joy": int(i < positives)})
                for i in range(positives + negatives)]
        config = TrainConfig(train_fraction=fraction)
        if stratified_split(docs, "joy", fraction, 0).test_index:
            check_heldout_partitions(docs, ["joy"], config)
        else:
            with pytest.raises(EmptyCorpus, match=f"joy: no documents to score: train_fraction {fraction}"):
                check_heldout_partitions(docs, ["joy"], config)


class TestCrossValidation:
    def test_hook_sees_every_fold_and_cost(self):
        docs = small_corpus(n=48)
        config = TrainConfig(**FAST)
        _, _, cv_folds = cross_validate(docs, 123, config)
        calls = [(score.fold, score.C) for score in cv_folds]
        assert len(calls) == config.folds * len(SMALL_GRID.c_values)
        assert set(calls) == {
            (fold, c)
            for fold in range(config.folds)
            for c in SMALL_GRID.c_values
        }

    def test_deterministic_accuracy(self):
        docs = small_corpus(n=48)
        config = TrainConfig(**FAST)
        a = cross_validate(docs, 9, config)
        b = cross_validate(docs, 9, config)
        assert a == b

    def test_singleton_grid(self):
        docs = small_corpus(n=48)
        config = TrainConfig(**{**FAST, "grid": TuningGrid((1.0,))})
        best_c = cross_validate(docs, 4, config)[0]
        assert best_c == 1.0

    def test_signal_free_corpus_scores_the_base_rate(self):
        # Identical texts leave nothing to learn, so every fold predicts the
        # majority class and pooled accuracy equals the 90/10 base rate.
        docs = [
            LabeledDocument(Document(str(i), "same words every time"), {"joy": int(i < 10)})
            for i in range(100)
        ]
        config = TrainConfig(folds=5, grid=TuningGrid((1.0,)), min_df=1)
        _, accuracy, _ = cross_validate(docs, derive_seed(1, "base"), config)
        assert accuracy == 0.90

    # Golden (C, cv accuracy) picks per metric on corpora where the metrics disagree.
    @pytest.mark.parametrize("seed, by_accuracy, by_f1", [
        (6, (1.0, 0.7), (4.0, 0.6916666666666667)),
        (7, (0.01, 0.65), (1.0, 0.65)),
    ])
    def test_tuning_metric_picks_are_pinned(self, seed, by_accuracy, by_f1):
        docs = generate_planted_corpus(
            120, {"joy": DEFAULT_KEYWORDS}, noise=0.25, positive_rate=0.3, seed=seed
        )
        grid = TuningGrid((0.01, 0.05, 0.25, 1.0, 4.0))
        for metric, expected in (("accuracy", by_accuracy), ("f1", by_f1)):
            config = TrainConfig(folds=4, grid=grid, min_df=1, tune_metric=metric)
            assert cross_validate(docs, 11, config)[:2] == expected

    def test_noisy_corpus_avoids_the_largest_cost(self):
        docs = small_corpus(n=120, seed=13, noise=0.25)
        config = TrainConfig(folds=5, min_df=1)
        best_c = cross_validate(docs, 99, config)[0]
        assert best_c < max(config.grid.c_values)


def train_joy(docs, config):
    return train_all(docs, ["joy"], config).models["joy"]


class TestTrainEmotionModel:
    """One emotion, trained through ``train_all``."""

    def test_planted_keywords_dominate_weights(self):
        docs = small_corpus(n=80)
        config = TrainConfig(**FAST)
        em = train_joy(docs, config)
        names = em.extractor.feature_names()
        w = em.model.w[:-1]  # drop bias
        top = {names[i] for i in np.argsort(-np.abs(w))[:12]}
        assert set(DEFAULT_KEYWORDS) & top

    def test_degenerate_class_rejected(self):
        docs = [
            LabeledDocument(Document(str(i), "text here"), {"joy": 1}) for i in range(20)
        ]
        with pytest.raises(PipelineError) as err:
            train_all(docs, ["joy"], TrainConfig(**FAST))
        assert isinstance(err.value.failures["joy"], DegenerateClass)

    def test_chosen_cost_in_grid(self):
        docs = small_corpus(n=48)
        em = train_joy(docs, TrainConfig(**FAST))
        assert em.chosen_C in SMALL_GRID.c_values
        assert 0.0 <= em.cv_accuracy <= 1.0

    def test_cv_folds_pool_to_the_cv_accuracy(self):
        docs = small_corpus(n=48)
        config = TrainConfig(**FAST)
        em = train_joy(docs, config)
        train = stratified_split(docs, "joy", config.train_fraction, em.split_seed).train
        assert [(s.fold, s.C) for s in em.cv_folds] == [
            (fold, c) for fold in range(3) for c in SMALL_GRID.c_values
        ]
        pooled = sum((s.confusion for s in em.cv_folds if s.C == em.chosen_C), Confusion())
        assert pooled.metrics()[3] == em.cv_accuracy
        # Every train-partition document is held out once, and scored once per cost.
        assert sum(s.confusion.tp + s.confusion.fp + s.confusion.fn + s.confusion.tn
                   for s in em.cv_folds) == len(train) * len(SMALL_GRID.c_values)

    @pytest.mark.parametrize("max_outer_iters", [1, 2, 1000])
    def test_cv_folds_record_whether_each_solve_converged(self, max_outer_iters):
        config = TrainConfig(**FAST, max_outer_iters=max_outer_iters, eps=1e-3)
        em = train_joy(small_corpus(n=48), config)
        for score in em.cv_folds:
            # A solve that did not converge used every sweep it was allowed.
            assert score.converged is (score.final_violation < config.eps)
            assert score.converged or score.sweeps == max_outer_iters
        if max_outer_iters == 1:
            assert not any(score.converged for score in em.cv_folds)


class TestTrainAll:
    def test_one_model_per_emotion(self):
        docs = generate_planted_corpus(
            80,
            {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")},
            seed=3,
        )
        bundle = train_all(docs, ["joy", "anger"], TrainConfig(**FAST))
        assert bundle.emotions == ("joy", "anger")
        assert set(bundle.models) == {"joy", "anger"}

    def test_empty_emotion_set_rejected(self):
        with pytest.raises(EmptyEmotionSet):
            train_all(small_corpus(), [], TrainConfig(**FAST))

    def test_missing_label_rejected(self):
        with pytest.raises(MissingLabel):
            train_all(small_corpus(), ["fear"], TrainConfig(**FAST))

    def test_failures_collected_per_emotion(self):
        docs = [
            LabeledDocument(Document(str(i), t), {"joy": lab, "fear": 0 if i else 1})
            for i, (t, lab) in enumerate(
                (f"zyblor text {i}" if i % 2 else f"plain text {i}", i % 2)
                for i in range(40)
            )
        ]
        with pytest.raises(PipelineError) as err:
            train_all(docs, ["joy", "fear"], TrainConfig(**FAST))
        assert set(err.value.failures) == {"fear"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plan_time_failures_name_only_their_emotions(self, jobs):
        # With jobs=2 the runs are [joy, surprise] and [anger, calm]: each failing
        # emotion shares a run, and so a stream, with one that trains.
        docs = with_failing_emotions(generate_planted_corpus(60, THREE_EMOTIONS, seed=4))
        config = TrainConfig(**FAST, jobs=jobs)
        with pytest.raises(PipelineError) as err:
            train_all(docs, ["joy", "surprise", "anger", "calm"], config)
        failures = err.value.failures
        assert list(failures) == ["surprise", "calm"]
        assert type(failures["surprise"]) is TooFewPositives
        assert str(failures["surprise"]) == (
            "label class 1 has 2 members, fewer than the 3 folds requested")
        assert type(failures["calm"]) is DegenerateClass
        assert str(failures["calm"]) == "calm: needs at least one positive and one negative example"

    def test_emotions_beside_a_failure_still_train(self):
        docs = with_failing_emotions(generate_planted_corpus(60, THREE_EMOTIONS, seed=4))
        config = TrainConfig(**FAST)
        counts = counts_for(docs, config)
        emotions = ["joy", "surprise", "anger"]
        models, failures = training._train_run((docs, counts, emotions, emotions, config))
        assert list(failures) == ["surprise"] and list(models) == ["joy", "anger"]
        alone = train_all(docs, ["joy", "anger"], config)
        for emotion in ("joy", "anger"):
            assert np.array_equal(models[emotion].model.w, alone.models[emotion].model.w)

    def test_fold_problem_failure_is_reported_under_its_emotion(self, monkeypatch):
        docs = generate_planted_corpus(60, THREE_EMOTIONS, seed=4)
        config = TrainConfig(**FAST)
        fold_problem = training._fold_problem
        built = []

        class Broken(Exception):
            pass

        def breaking(*args):
            built.append(args[3])
            if len(built) == 5:     # anger's second fold: joy's three came first
                raise Broken("fold problem")
            return fold_problem(*args)

        monkeypatch.setattr(training, "_fold_problem", breaking)
        with pytest.raises(PipelineError) as err:
            train_all(docs, ["joy", "anger", "fear"], config)
        assert list(err.value.failures) == ["anger"]
        assert type(err.value.failures["anger"]) is Broken
        # The stream went on past anger to fear's folds.
        assert built == [0, 1, 2, 0, 1, 0, 1, 2]

    def test_binary_relevance_independence(self):
        docs = generate_planted_corpus(
            80,
            {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")},
            seed=3,
        )
        both = train_all(docs, ["joy", "anger"], TrainConfig(**FAST))
        only_joy = train_all(docs, ["joy"], TrainConfig(**FAST))
        assert np.array_equal(
            both.models["joy"].model.w, only_joy.models["joy"].model.w
        )
        assert bundle_to_dict(both)["models"]["joy"] == bundle_to_dict(only_joy)["models"]["joy"]

    def test_shared_split_uses_one_partition(self):
        docs = generate_planted_corpus(
            80,
            {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")},
            seed=3,
        )
        config = TrainConfig(**FAST, shared_split=True)
        bundle = train_all(docs, ["joy", "anger"], config)
        seeds = {bundle.models[e].split_seed for e in bundle.emotions}
        assert len(seeds) == 1
        split_joy = stratified_split(docs, "joy", 0.7, seeds.pop())
        # Every emotion trained on exactly these documents.
        assert len(split_joy.train) == 56

    def test_pool_is_capped_at_the_number_of_emotions(self, monkeypatch):
        pools, runs = [], []

        class InProcessPool:
            """Records the pool size and the runs asked for, and runs each task here."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, task):
                runs.append(task[2])
                future = concurrent.futures.Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        docs = generate_planted_corpus(80, THREE_EMOTIONS, seed=3)
        serial = train_all(docs, ["joy", "anger"], TrainConfig(**FAST))
        assert pools == []
        pooled = train_all(docs, ["joy", "anger"], TrainConfig(**FAST, jobs=4))
        assert pools == [2] and runs == [["joy"], ["anger"]]
        train_all(docs, ["joy"], TrainConfig(**FAST, jobs=4))
        assert pools == [2]
        train_all(docs, ["joy", "anger", "fear"], TrainConfig(**FAST, jobs=2))
        assert pools == [2, 2] and runs[2:] == [["joy", "anger"], ["fear"]]
        assert bundle_to_dict(pooled) == bundle_to_dict(serial)
        for a, b in zip(pooled, serial):
            assert_same_fold_scores(a.cv_folds, b.cv_folds)

    @pytest.mark.parametrize("emotions, count, runs", [
        ("abcdef", 2, ["abc", "def"]),
        ("abcde", 2, ["abc", "de"]),
        ("abcde", 3, ["ab", "cd", "e"]),
        ("ab", 2, ["a", "b"]),
        ("abc", 1, ["abc"]),
    ])
    def test_runs_are_contiguous_and_near_equal(self, emotions, count, runs):
        assert training._runs(list(emotions), count) == [list(run) for run in runs]

    @pytest.mark.parametrize("jobs, shared_split", [(1, False), (2, False), (2, True)])
    def test_each_emotion_matches_training_it_alone(self, jobs, shared_split):
        # The reference: a run of this one emotion, with its own
        # cross-validation stream.
        docs = generate_planted_corpus(90, FOUR_EMOTIONS, noise=0.1, seed=8)
        emotions = list(FOUR_EMOTIONS)
        config = TrainConfig(**FAST, jobs=jobs, shared_split=shared_split)
        bundle = train_all(docs, emotions, config)
        payload = bundle_to_dict(bundle)
        counts = counts_for(docs, config)
        for emotion in emotions:
            em = bundle.models[emotion]
            models, _ = training._train_run((docs, counts, [emotion], emotions, config))
            alone = models[emotion]
            assert_same_fold_scores(em.cv_folds, alone.cv_folds)
            assert (em.chosen_C, em.cv_accuracy) == (alone.chosen_C, alone.cv_accuracy)
            assert np.array_equal(em.model.w, alone.model.w)
            assert payload["models"][emotion] == bundle_to_dict(
                replace(bundle, emotions=(emotion,), models={emotion: alone})
            )["models"][emotion]

    def test_one_stream_mixes_the_folds_of_both_emotions(self, monkeypatch):
        docs = generate_planted_corpus(80, THREE_EMOTIONS, seed=3)
        config = TrainConfig(**FAST)
        calls = []
        first_seen = {}     # problem index -> problems pulled at its first model
        solve_folds = training.solve_folds

        def recording(problems, *rest):
            calls.append(rest)
            pulled = 0

            def counted():
                nonlocal pulled
                for item in problems:
                    pulled += 1
                    yield item

            for index, cost, model in solve_folds(counted(), *rest):
                first_seen.setdefault(index, pulled)
                yield index, cost, model

        monkeypatch.setattr(training, "solve_folds", recording)
        train_all(docs, ["joy", "anger"], config)
        assert len(calls) == 1
        # Problems 0-2 are joy's folds and 3-5 anger's; a group is solved
        # once no problem is left to pull or the next would not fit.
        first_group = [index for index in sorted(first_seen)
                       if first_seen[index] == first_seen[0]]
        assert {index // config.folds for index in first_group} == {0, 1}

    def test_monitor_with_several_workers_rejected(self):
        docs = generate_planted_corpus(
            80,
            {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")},
            seed=3,
        )
        config = TrainConfig(**FAST, jobs=2, monitor=TrainingMonitor())
        with pytest.raises(ContractViolation, match="monitor"):
            train_all(docs, ["joy", "anger"], config)
        assert config.monitor.trainings == 0


def with_texts(docs, texts):
    """``docs`` with the text of document ``i`` replaced by ``texts[i]`` where given."""
    return [LabeledDocument(Document(d.doc.id, texts.get(i, d.doc.text)), d.labels)
            for i, d in enumerate(docs)]


class TestNoLeakage:
    def test_model_depends_only_on_train_partition(self):
        docs = generate_planted_corpus(60, {"joy": DEFAULT_KEYWORDS,
                                            "anger": THREE_EMOTIONS["anger"]}, seed=5)
        for shared_split in (False, True):
            config = TrainConfig(**FAST, shared_split=shared_split)

            def joy_entry(corpus):
                return bundle_to_dict(train_all(corpus, ["joy", "anger"], config))["models"]["joy"]

            before = joy_entry(docs)
            split = stratified_split(docs, "joy", config.train_fraction, before["split_seed"])
            # Lexicon cues and terms seen nowhere else, in every held-out document.
            rewritten = with_texts(docs, {i: f"thank you so much :) happy newword{i}"
                                          for i in split.test_index})
            assert joy_entry(rewritten) == before
            # The control: one added word in the train partition shows.
            first = split.train_index[0]
            grown = with_texts(docs, {first: docs[first].doc.text + " newword"})
            assert joy_entry(grown) != before


class TestEvaluate:
    def test_topline_metrics(self):
        docs = small_corpus(n=80)
        config = TrainConfig(**FAST)
        bundle = train_all(docs, ["joy"], config)
        report = evaluate_heldout(bundle, docs)
        (row,) = report.rows
        assert row.tp + row.fp + row.fn + row.tn == 24  # 30% of 80
        assert row.f1 > 0.8

    def test_missing_label_detected(self):
        docs = small_corpus(n=60)
        bundle = train_all(docs, ["joy"], TrainConfig(**FAST))
        unlabeled = [
            LabeledDocument(d.doc, {"anger": 0}) for d in docs
        ]
        with pytest.raises(MissingLabel):
            evaluate(bundle, unlabeled)

    def test_report_csv_shape(self, tmp_path):
        docs = small_corpus(n=60)
        bundle = train_all(docs, ["joy"], TrainConfig(**FAST))
        report = evaluate_heldout(bundle, docs)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "emotion,tp,fp,fn,tn,precision,recall,f1,accuracy"
        cells = lines[1].split(",")
        assert cells[0] == "joy"
        tp, fp, fn, tn = map(int, cells[1:5])
        assert float(cells[5]) == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)

    def test_report_write_failure_keeps_the_previous_report(self, tmp_path):
        docs = small_corpus(n=60)
        report = evaluate_heldout(train_all(docs, ["joy"], TrainConfig(**FAST)), docs)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        before = path.read_bytes()

        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("serializer failed")

        broken = replace(report, rows=(replace(report.rows[0], f1=Unprintable(0.5)),))
        with pytest.raises(RuntimeError):
            broken.to_csv(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_table_columns(self):
        docs = small_corpus(n=60)
        bundle = train_all(docs, ["joy"], TrainConfig(**FAST))
        table = evaluate_heldout(bundle, docs).table()
        header = table.splitlines()[0].split()
        assert header == ["Emotion", "Prec", "Rec", "F1"]


class TestClassify:
    def test_rows_grouped_by_document(self):
        docs = generate_planted_corpus(
            60,
            {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")},
            seed=3,
        )
        bundle = train_all(docs, ["joy", "anger"], TrainConfig(**FAST))
        inputs = [Document("a", "zyblor quexal stuff"), Document("b", "plain words")]
        rows = classify(bundle, inputs)
        assert [(r[0], r[1]) for r in rows] == [
            ("a", "joy"), ("a", "anger"), ("b", "joy"), ("b", "anger"),
        ]
        assert all(bit in (0, 1) for _, _, bit in rows)


class TestBundlePersistence:
    def _bundle(self):
        return train_all(small_corpus(n=60), ["joy"], TrainConfig(**FAST))

    def test_round_trip_predictions_identical(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.emo"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        probe = [Document(str(i), text) for i, text in enumerate(
            ["zyblor quexal stuff", "plain text", "", "drazzle :)"]
        )]
        assert classify(bundle, probe) == classify(loaded, probe)
        em, em2 = bundle.models["joy"], loaded.models["joy"]
        assert np.array_equal(em.model.w, em2.model.w)

    def test_solver_report_is_not_persisted(self, tmp_path):
        bundle = self._bundle()
        model = bundle.models["joy"].model
        assert model.converged is True and model.sweeps >= 1
        path = tmp_path / "model.emo"
        save_bundle(bundle, path)
        loaded = load_bundle(path).models["joy"].model
        assert (loaded.sweeps, loaded.final_violation, loaded.converged) == (None, None, None)

    def test_cv_folds_are_not_persisted(self, tmp_path):
        bundle = self._bundle()
        assert len(bundle.models["joy"].cv_folds) == 3 * len(SMALL_GRID.c_values)
        path = tmp_path / "model.emo"
        save_bundle(bundle, path)
        assert load_bundle(path).models["joy"].cv_folds == ()

    def test_save_failure_partway_keeps_the_previous_bundle(self, tmp_path, monkeypatch):
        bundle = self._bundle()
        path = tmp_path / "model.emo"
        save_bundle(bundle, path)
        before = path.read_bytes()
        payload = bundle_to_dict(bundle)
        payload["zz_unserializable"] = object()    # sorted last: written after the rest
        monkeypatch.setattr(pipeline, "bundle_to_dict", lambda _: payload)
        with pytest.raises(TypeError):
            save_bundle(bundle, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.emo"]

    def test_resave_is_byte_identical(self, tmp_path):
        bundle = self._bundle()
        first, second = tmp_path / "a.emo", tmp_path / "b.emo"
        save_bundle(bundle, first)
        save_bundle(load_bundle(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_tampered_weight_length_rejected(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.emo"
        save_bundle(bundle, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["models"]["joy"]["weights"].append(0.0)
        with pytest.raises(IncompatibleModel):
            bundle_from_dict(payload)

    def test_unknown_version_rejected(self, tmp_path):
        bundle = self._bundle()
        payload = bundle_to_dict(bundle)
        payload["version"] = "999"
        with pytest.raises(IncompatibleModel):
            bundle_from_dict(payload)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.emo"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_bundle(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_bundle(tmp_path / "absent.emo")


class TestHeldoutConfig:
    """``evaluate_heldout`` takes a loaded bundle's split settings only as written."""

    @pytest.fixture(scope="class")
    def trained(self):
        docs = small_corpus(n=60)
        return docs, bundle_to_dict(train_all(docs, ["joy"], TrainConfig(**FAST)))

    @staticmethod
    def _edited(payload, **config):
        """``payload`` with its config updated by ``config``; a value of ``...`` drops the key."""
        edited = {k: v for k, v in {**payload["config"], **config}.items() if v is not ...}
        return bundle_from_dict(dict(payload, config=edited))

    @pytest.mark.parametrize("key, value", [
        pytest.param("train_fraction", ..., id="train_fraction-absent"),
        ("train_fraction", "0.7"),
        ("train_fraction", None),
        ("train_fraction", True),
        ("train_fraction", 1),
        ("train_fraction", 1.5),
        ("train_fraction", 0.0),
        ("shared_split", "no"),
        ("shared_split", 0),
        ("shared_split", None),
    ])
    def test_a_bad_setting_is_refused_by_name(self, trained, key, value):
        docs, payload = trained
        bundle = self._edited(payload, **{key: value})
        with pytest.raises(ParseError, match=f"'{key}'"):
            evaluate_heldout(bundle, docs)

    def test_an_absent_shared_split_means_false(self, trained):
        docs, payload = trained
        expected = evaluate_heldout(bundle_from_dict(payload), docs)
        assert evaluate_heldout(self._edited(payload, shared_split=...), docs) == expected


class TestBundleLexiconLoading:
    """A bundle's emotions share one lexicons payload, built once into one object."""

    def _payload(self, emotions):
        one = bundle_to_dict(train_all(small_corpus(n=60), ["joy"], TrainConfig(**FAST)))
        # JSON copies, as load_bundle reads them: equal payloads, distinct objects.
        models = {e: json.loads(json.dumps(one["models"]["joy"])) for e in emotions}
        return dict(one, emotions=list(emotions), models=models)

    @staticmethod
    def _alone(payload, emotion):
        """``payload`` cut down to ``emotion``'s model."""
        return dict(payload, emotions=[emotion], models={emotion: payload["models"][emotion]})

    def _builds(self, monkeypatch):
        built = []

        def build(*args, **kwargs):
            built.append(LexiconSet(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(pipeline, "LexiconSet", build)
        return built

    def test_six_equal_payloads_build_one_lexicon_set(self, monkeypatch):
        payload = self._payload(("joy", "anger", "sadness", "fear", "love", "surprise"))
        built = self._builds(monkeypatch)
        bundle = bundle_from_dict(payload)
        assert len(built) == 1
        assert all(em.extractor.lexicons is built[0] for em in bundle)
        assert len({id(em.extractor.lexicons.emoticons) for em in bundle}) == 1
        extractors, models = bundle.stacks
        assert len(extractors) == len(models) == 6 and extractors.lexicons is built[0]
        assert bundle_to_dict(bundle) == payload

    @pytest.mark.parametrize("edit", [
        lambda extractor: extractor["lexicons"]["politeness"].update(zyblor=0.5),
        lambda extractor: extractor.update(emoticons=sorted(extractor["emoticons"] + ["<zyblor>"])),
    ], ids=["lexicons", "emoticons"])
    def test_a_later_emotion_with_other_text_work_is_refused(self, edit):
        payload = self._payload(("joy", "anger", "fear"))
        edit(payload["models"]["anger"]["extractor"])
        bundle_from_dict(self._alone(payload, "anger"))     # well-formed alone
        with pytest.raises(ParseError, match="anger: lexicons or emoticon table differ from joy's"):
            bundle_from_dict(payload)

    def test_a_bad_later_payload_fails_as_when_loaded_alone(self):
        payload = self._payload(("joy", "anger"))
        payload["models"]["anger"]["extractor"]["lexicons"]["sentiment"]["good"] = 9
        with pytest.raises(ParseError) as alone:
            bundle_from_dict(self._alone(payload, "anger"))
        with pytest.raises(ParseError) as after_another:
            bundle_from_dict(payload)
        assert str(after_another.value) == str(alone.value)
