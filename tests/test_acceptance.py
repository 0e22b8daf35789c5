"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a ``[acceptance] ... PASS`` line when its assertions hold,
so ``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
"""

import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from dual_oracle import augmented_dense, solve_dual_reference
from emoclf.corpus import (
    Document,
    LabeledDocument,
    stratified_split,
    write_gold_corpus,
)
from emoclf.features import (
    fit_counts,
    transform_counts,
)
from emoclf.lexicons import LexiconSet
from emoclf.pipeline import (
    DEFAULT_C_GRID,
    TrainConfig,
    confusion_metrics,
    evaluate_heldout,
    train_all,
)
from emoclf.svm import (
    L1_HINGE,
    L2_HINGE,
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    dual_objective,
    train_dual_cd,
)
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus
from reference_features import (
    TokenStream,
    assemble,
    count_streams,
    emotion_category_block,
    fit,
    matrix_from_pairs,
    ngram_block,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(line):
    print(f"[acceptance] {line}: PASS")


def test_c01_solver_matches_independent_oracle():
    """200 random problems: final dual objective within 1e-4 relative of the
    slow projected-gradient reference, in under 30 seconds total."""
    rng = np.random.RandomState(20240817)
    started = time.monotonic()
    worst = 0.0
    for trial in range(200):
        n = int(rng.randint(2, 21))
        d = int(rng.randint(1, 6))
        X = rng.randn(n, d)
        y = np.ones(n, dtype=int)
        y[rng.permutation(n)[: max(1, n // 2)]] = -1
        C = float(DEFAULT_C_GRID[rng.randint(len(DEFAULT_C_GRID))])
        loss = L1_HINGE if trial % 2 else L2_HINGE
        rows = matrix_from_pairs(
            [[(j, X[i, j]) for j in range(d)] for i in range(n)], d
        )
        problem = TrainingProblem.from_matrix(rows, y, loss=loss)
        monitor = TrainingMonitor()
        train_dual_cd(
            problem,
            SolverParams(C=C, eps=1e-8, max_outer_iters=50_000, seed=trial),
            monitor,
        )
        ours = dual_objective(monitor.final_alpha, problem, C)
        _, reference = solve_dual_reference(augmented_dense(rows, d), y, C, loss)
        rel = abs(ours - reference) / max(abs(reference), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"trial {trial}: rel error {rel:.3e} (C={C}, loss={loss})"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"{elapsed:.1f}s exceeds the 30s budget"
    report(f"C01 solver-oracle-equivalence (worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_c02_two_point_analytic_solution():
    """x1=(1,1) y=+1, x2=(-1,1) y=-1, C=1, squared hinge -> w=(0.8, 0)."""
    rows = matrix_from_pairs([[(0, 1.0)], [(0, -1.0)]], 1)
    problem = TrainingProblem.from_matrix(rows, [1, -1], loss=L2_HINGE)
    model = train_dual_cd(problem, SolverParams(C=1.0, eps=1e-10, seed=0))
    assert abs(model.w[0] - 0.8) <= 1e-6
    assert abs(model.w[1] - 0.0) <= 1e-6
    report("C02 analytic-two-point-case")


def test_c03_monotonicity_audit_over_full_training_run():
    """A complete training run on a 500-doc corpus never decreases the dual
    objective at any coordinate step."""
    docs = generate_planted_corpus(500, {"joy": DEFAULT_KEYWORDS}, seed=303)
    monitor = TrainingMonitor()
    config = TrainConfig(monitor=monitor)
    train_all(docs, ["joy"], config)
    assert monitor.trainings >= 101  # 10 folds x 10 costs + the final model
    assert monitor.steps > 0
    assert monitor.objective_decreases == 0
    report(
        f"C03 dual-monotonicity-audit ({monitor.steps} steps, "
        f"{monitor.trainings} trainings, 0 decreases)"
    )


def _toy_lexicons():
    return LexiconSet(
        emotion_categories={"upbeat": frozenset({"good"}), "downbeat": frozenset({"bad"})},
        politeness_cues={("thanks",): 1.0},
        sentiment={"good": 2, "bad": -2},
        boosters={},
        negations=frozenset(),
        modality_cues={"maybe": 0.0},
    )


def _reference_vectors(token_docs, lexicons):
    """Straight-line recomputation of the whole feature space.

    Explicit loops and formulas only: idf = ln((1+N)/(1+df)) + 1, raw tf,
    per-block L2 normalization, population-stddev standardization of the
    scalar tail.  Shares nothing with the package's extractor code.
    """
    n = len(token_docs)

    def doc_terms(tokens):
        lowered = [t.lower() for t in tokens]
        terms = list(lowered)
        terms += [f"{a} {b}" for a, b in zip(lowered, lowered[1:])]
        return terms

    df = Counter()
    for tokens in token_docs:
        df.update(set(doc_terms(tokens)))
    vocab = sorted(df)
    categories = sorted(lexicons.emotion_categories)
    category_df = {
        c: sum(
            1
            for tokens in token_docs
            if any(t.lower() in lexicons.emotion_categories[c] for t in tokens)
        )
        for c in categories
    }

    def aux(tokens):
        lowered = [t.lower() for t in tokens]
        polite = sum(
            lexicons.politeness_cues.get((t,), 0.0) for t in lowered
        )
        politeness = 1.0 / (1.0 + math.exp(-polite))
        pos, neg = 1, -1
        for t in lowered:
            s = lexicons.sentiment.get(t)
            if s is None:
                continue
            if s > 0:
                pos = max(pos, min(s, 5))
            else:
                neg = min(neg, max(s, -5))
        cues = [lexicons.modality_cues[t] for t in lowered if t in lexicons.modality_cues]
        uncertainty = sum(cues) / len(cues) if cues else 1.0
        return [politeness, float(pos), float(neg), uncertainty]

    aux_rows = [aux(tokens) for tokens in token_docs]
    aux_mean = [sum(col) / n for col in zip(*aux_rows)]
    aux_std = [
        math.sqrt(sum((v - m) ** 2 for v in col) / n)
        for col, m in zip(zip(*aux_rows), aux_mean)
    ]

    vectors = []
    for tokens, aux_row in zip(token_docs, aux_rows):
        entries = {}
        tf = Counter(doc_terms(tokens))
        raw = {
            term: tf[term] * (math.log((1 + n) / (1 + df[term])) + 1.0)
            for term in tf
            if term in df
        }
        norm = math.sqrt(sum(v * v for v in raw.values()))
        for term, value in raw.items():
            entries[vocab.index(term)] = value / norm
        cat_raw = {}
        for c in categories:
            count = sum(
                1 for t in tokens if t.lower() in lexicons.emotion_categories[c]
            )
            if count and category_df[c]:
                cat_raw[c] = count * (
                    math.log((1 + n) / (1 + category_df[c])) + 1.0
                )
        cat_norm = math.sqrt(sum(v * v for v in cat_raw.values()))
        for c, value in cat_raw.items():
            entries[len(vocab) + categories.index(c)] = value / cat_norm
        for slot, value in enumerate(aux_row):
            if aux_std[slot] > 0:
                z = (value - aux_mean[slot]) / aux_std[slot]
                if z != 0.0:
                    entries[len(vocab) + len(categories) + slot] = z
        vectors.append(entries)
    return vectors


def test_c04_tfidf_values_match_hand_computation():
    """Every assembled vector entry of a 3-document toy corpus agrees with an
    independent straight-line recomputation to 1e-9."""
    token_docs = [
        ("good", "answer"),
        ("good", "good", "thanks"),
        ("bad", "answer", "maybe"),
    ]
    lexicons = _toy_lexicons()
    streams = [TokenStream(d) for d in token_docs]
    fitted = fit(streams, lexicons, min_df=1)
    expected = _reference_vectors(token_docs, lexicons)

    checked = 0
    for stream, want in zip(streams, expected):
        row = assemble(stream, fitted)
        got = dict(zip(row.indices.tolist(), row.data.tolist()))
        assert set(got) == set(want)
        for index, value in want.items():
            assert abs(got[index] - value) <= 1e-9, f"feature {index}"
            checked += 1
        # The two tf-idf blocks also agree in isolation.
        v = len(fitted.vocabulary)
        ngrams = dict(ngram_block(stream, fitted))
        for index, value in want.items():
            if index < v:
                assert abs(ngrams[index] - value) <= 1e-9
        cats = dict(emotion_category_block(stream, fitted))
        for index, value in want.items():
            if v <= index < v + len(fitted.categories):
                assert abs(cats[index - v] - value) <= 1e-9
    assert checked >= 12
    # The corpus path the library trains and classifies with gives the same
    # entries: fit_counts + transform_counts over the counted toy corpus.
    counts = count_streams(streams, lexicons)
    matrix = transform_counts(counts, fit_counts(counts, min_df=1))
    assert matrix.n_rows == len(expected)
    for i, want in enumerate(expected):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        got = dict(zip(matrix.indices[start:end].tolist(), matrix.data[start:end].tolist()))
        assert set(got) == set(want)
        for index, value in want.items():
            assert abs(got[index] - value) <= 1e-9, f"corpus path, row {i}, feature {index}"
    report(f"C04 tfidf-hand-oracle ({checked} entries)")


def test_c05_default_protocol_is_followed():
    """Defaults run a 70/30 stratified split and a 10-fold CV over exactly the
    ten-point cost grid: 100 logged (fold, C) evaluations per emotion."""
    docs = generate_planted_corpus(300, {"joy": DEFAULT_KEYWORDS}, noise=0.05, seed=55)
    config = TrainConfig()
    bundle = train_all(docs, ["joy"], config)

    assert config.train_fraction == 0.7 and config.folds == 10
    assert config.grid.c_values == (0.01, 0.05, 0.10, 0.20, 0.25, 0.50, 1.0, 2.0, 4.0, 8.0)
    # The CLI feeds train_all with these same defaults.
    from emoclf.cli import build_parser

    args = build_parser().parse_args(["train", "--gold", "g.csv", "--out", "m.emo"])
    assert (args.train_fraction, args.folds, args.seed) == (0.7, 10, 42)
    assert args.grid.c_values == config.grid.c_values

    evaluations = [(score.fold, score.C) for score in bundle.models["joy"].cv_folds]
    assert len(evaluations) == 100
    assert set(evaluations) == {
        (fold, c) for fold in range(10) for c in DEFAULT_C_GRID
    }

    em = bundle.models["joy"]
    split = stratified_split(docs, "joy", config.train_fraction, em.split_seed)
    for value in (0, 1):
        total = sum(1 for d in docs if d.labels["joy"] == value)
        in_train = sum(1 for d in split.train if d.labels["joy"] == value)
        assert in_train == round(total * Fraction("0.7"))
    # The released model was fit on exactly the train partition.
    assert em.extractor.vocabulary.n_docs == len(split.train)
    assert em.chosen_C in DEFAULT_C_GRID
    report("C05 protocol-fidelity (100 fold-evaluations, 70/30 split)")


def test_c06_split_arithmetic_on_rare_label():
    """4800 rows with 45 positives split 3360/1440 overall and 32/13 positives."""
    docs = [
        LabeledDocument(Document(str(i + 1), f"document {i}"), {"surprise": int(i < 45)})
        for i in range(4800)
    ]
    result = stratified_split(docs, "surprise", 0.7, seed=42)
    assert len(result.train) == 3360
    assert len(result.test) == 1440
    assert sum(d.labels["surprise"] for d in result.train) == 32
    assert sum(d.labels["surprise"] for d in result.test) == 13
    report("C06 split-arithmetic (3360/1440, 32/13 positives)")


def test_c07_planted_signal_end_to_end():
    """1200 docs, five planted keywords, 5% label noise: training finishes in
    under 60s and held-out F1 reaches 0.90."""
    assert len(DEFAULT_KEYWORDS) == 5
    docs = generate_planted_corpus(
        1200, {"joy": DEFAULT_KEYWORDS}, noise=0.05, seed=11
    )
    started = time.monotonic()
    bundle = train_all(docs, ["joy"], TrainConfig())
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"training took {elapsed:.1f}s"
    (row,) = evaluate_heldout(bundle, docs).rows
    assert row.f1 >= 0.90, f"held-out F1 {row.f1:.3f}"
    report(f"C07 planted-signal-end-to-end (F1 {row.f1:.3f}, {elapsed:.1f}s)")


def test_c08_training_is_byte_deterministic(tmp_path):
    """Identical flags give byte-identical bundles and reports, and --jobs 4
    matches --jobs 1."""
    gold = tmp_path / "gold.csv"
    docs = generate_planted_corpus(
        160,
        {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")},
        noise=0.05,
        seed=77,
    )
    write_gold_corpus(gold, docs, ["joy", "anger"])

    def run(tag, jobs):
        out = tmp_path / f"{tag}.emo"
        rep = tmp_path / f"{tag}.report.csv"
        result = subprocess.run(
            [
                sys.executable, "-m", "emoclf", "train",
                "--gold", str(gold), "--out", str(out), "--report", str(rep),
                "--folds", "5", "--grid", "0.25,1,4", "--min-df", "1",
                "--seed", "7", "--jobs", str(jobs),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return out.read_bytes(), rep.read_bytes()

    bundle_a, report_a = run("a", jobs=1)
    bundle_b, report_b = run("b", jobs=1)
    bundle_c, report_c = run("c", jobs=4)
    assert bundle_a == bundle_b and report_a == report_b
    assert bundle_a == bundle_c and report_a == report_c
    report("C08 byte-determinism (repeat run and --jobs 4 both identical)")


def test_c09_replication_script_runs(tmp_path):
    """Published-benchmark replication needs the released gold data, which is
    not shipped; the documented script must still run end to end.  Point
    EMOCLF_REPLICATION_GOLD at a real gold CSV to exercise it on that data."""
    script = REPO_ROOT / "scripts" / "replicate_benchmarks.py"
    assert script.exists()

    gold = os.environ.get("EMOCLF_REPLICATION_GOLD")
    reference = tmp_path / "reference.csv"
    reference.write_text(
        "emotion,precision,recall,f1\njoy,0.92,0.92,0.92\n", encoding="utf-8"
    )
    if not gold:
        gold = tmp_path / "replication_gold.csv"
        docs = generate_planted_corpus(
            200, {"joy": DEFAULT_KEYWORDS}, noise=0.05, seed=9
        )
        write_gold_corpus(gold, docs, ["joy"])
    result = subprocess.run(
        [sys.executable, str(script), "--gold", str(gold), "--folds", "5",
         "--reference", str(reference)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Emotion" in result.stdout and "F1" in result.stdout
    assert "informational" in result.stdout
    report("C09 replication-script-runs (informational comparison printed)")


def test_c10_metrics_match_direct_formulas():
    """1000 random confusion matrices: pipeline metrics equal direct formula
    evaluation to 1e-12, zero-denominator conventions included."""
    rng = np.random.RandomState(4242)
    checked = 0
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.randint(0, 60, size=4))
        if tp + fp + fn + tn == 0:
            tn = 1
        precision, recall, f1, accuracy = confusion_metrics(tp, fp, fn, tn)
        want_p = tp / (tp + fp) if tp + fp else 0.0
        want_r = tp / (tp + fn) if tp + fn else 0.0
        want_f1 = 2 * want_p * want_r / (want_p + want_r) if want_p + want_r else 0.0
        want_acc = (tp + tn) / (tp + fp + fn + tn)
        assert abs(precision - want_p) <= 1e-12
        assert abs(recall - want_r) <= 1e-12
        assert abs(f1 - want_f1) <= 1e-12
        assert abs(accuracy - want_acc) <= 1e-12
        checked += 1
    assert checked == 1000
    report("C10 metrics-oracle (1000 matrices)")
