"""Counting straight into an ``ExtractorStack``'s term table, and the cue shortcuts.

Prediction counts each block into its text-work group's term table
(``ExtractorStack.count_texts``) instead of numbering the block's own terms.
Its rows and decision values must be the same bits as ``count_texts`` +
``stacked_transform`` and as the single-document reference of
``tests/reference_features.py``, one document at a time.  The counting core runs the cue scorers only on documents that hold
a cue word and counts category hits with one lookup per token; both must
give exactly what the scorers and a per-category scan give.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emoclf.features as features
from emoclf.corpus import Document
from emoclf.features import (
    ExtractorStack,
    Vocabulary,
    _aux_scores,
    count_texts,
    fit_counts,
    stacked_transform,
    uncertainty_score,
)
from emoclf.lexicons import LexiconSet, default_lexicons
from emoclf.pipeline import TrainConfig, TuningGrid, classify, load_bundle, save_bundle, train_all
from emoclf.svm import L2_HINGE, LinearModel, ModelStack, stacked_decision_values
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus
from emoclf.textprep import strip_noise
from reference_features import reference_row, tokenize

# Words every extractor may train on, words only extractor e trains on, and
# words no extractor trains on.  Cue words of the default lexicons, case
# variants, punctuation and emoticons ride along.
SHARED = ["alpha", "beta", "gamma", "delta"]
OWN = [[f"own{e}x{i}" for i in range(3)] for e in range(3)]
UNKNOWN = ["qqqq", "wwww"]
EXTRAS = ["Alpha", "BETA", "thank", "you", "please", "good", "bad", "not", "very",
          "maybe", "angry", "!", ",", "...", ":)", ":("]
ALL_WORDS = SHARED + [w for own in OWN for w in own] + UNKNOWN + EXTRAS

# Bundle terms that no pair of tokens can form: two spaces, a leading or
# trailing space, a tab, upper case, three words, the empty string.
HOSTILE_TERMS = ["alpha  beta", " alpha", "beta ", "alpha\tbeta", "Alpha", "ALPHA BETA",
                 "alpha beta gamma", ""]

words = st.lists(st.sampled_from(ALL_WORDS), max_size=12).map(" ".join)
blocks = st.lists(
    st.one_of(words, st.sampled_from(["", "   ", "! , ...", ":) :(", "<b>alpha</b> beta"])),
    max_size=8,
)


def _with_terms(fitted, extra):
    """``fitted`` with ``extra`` added to its vocabulary at df 1 (and min_df 1)."""
    vocab = fitted.vocabulary
    df = dict(zip(vocab.terms, vocab.df))
    terms = sorted(set(vocab.terms) | set(extra))
    return dataclasses.replace(fitted, vocabulary=Vocabulary(
        tuple(terms), tuple(df.get(term, 1) for term in terms), vocab.n_docs, 1))


def _extractors(data, n_stack, hostile):
    lexicons = default_lexicons()
    extractors, models = [], []
    for e in range(n_stack):
        own = st.lists(st.sampled_from(SHARED + OWN[e] + EXTRAS), max_size=10).map(" ".join)
        texts = data.draw(st.lists(own, min_size=1, max_size=6))
        min_df = data.draw(st.sampled_from([1, 2]))
        fitted = fit_counts(count_texts(texts, lexicons), min_df)
        if hostile:
            fitted = _with_terms(fitted, HOSTILE_TERMS)
        extractors.append(fitted)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        models.append(LinearModel(w=rng.standard_normal(fitted.dimension + 1), loss=L2_HINGE))
    return extractors, models


def _bytes(matrix):
    return matrix.indptr.tobytes(), matrix.indices.tobytes(), matrix.data.tobytes()


def _check_block(stack, scoring, texts):
    head = stack.extractors[0]
    table = stack.count_texts(texts)
    assert table.terms is stack.terms
    got = stacked_transform(table, stack)
    want = stacked_transform(count_texts(texts, head.lexicons), stack)
    assert _bytes(got) == _bytes(want)
    assert (stacked_decision_values(scoring, got).tobytes()
            == stacked_decision_values(scoring, want).tobytes())
    # One document at a time, through the reference path.
    n, offset = len(texts), 0
    for e, fitted in enumerate(stack.extractors):
        for i, text in enumerate(texts):
            start, end = got.indptr[e * n + i], got.indptr[e * n + i + 1]
            single = reference_row(fitted, text)
            assert (got.indices[start:end] - offset).tobytes() == single.indices.tobytes()
            assert got.data[start:end].tobytes() == single.data.tobytes()
        offset += fitted.dimension
    # A bundle term no tokens can form never fires.
    hostile = [stack.index[term] for term in HOSTILE_TERMS if term in stack.index]
    assert not np.isin(table.indices, hostile).any()
    # One document at a time through ``vectorize``, with the hostile terms
    # in the extractor's own table.
    for fitted in stack.extractors:
        fitted = _with_terms(fitted, HOSTILE_TERMS)
        for text in texts:
            got, want = fitted.vectorize(text), reference_row(fitted, text)
            assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("n_stack", [1, 3])
@pytest.mark.parametrize("hostile", [False, True], ids=["plain", "hostile-terms"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_counting_into_the_table_equals_counting_the_block(n_stack, hostile, data):
    extractors, models = _extractors(data, n_stack, hostile)
    stack, scoring = ExtractorStack(extractors), ModelStack(models)
    for texts in data.draw(st.lists(blocks, min_size=1, max_size=3)) + [[], [""]]:
        _check_block(stack, scoring, texts)


def test_the_table_is_sorted_and_each_extractors_slots_rise_with_the_column():
    lexicons = default_lexicons()
    extractors = [
        _with_terms(fit_counts(count_texts([text, text], lexicons)), HOSTILE_TERMS)
        for text in ("alpha beta own0x1", "beta gamma own1x1", "alpha gamma :) own2x1")
    ]
    stack = ExtractorStack(extractors)
    assert list(stack.terms) == sorted(set().union(*(f.vocabulary.terms for f in extractors)))
    assert stack.index == {term: column for column, term in enumerate(stack.terms)}
    for row, fitted in zip(stack.slots, extractors):
        assert row[-1] == -1
        assert row[row >= 0].tolist() == list(range(len(fitted.vocabulary)))
        known = np.flatnonzero(row[:-1] >= 0)
        assert [stack.terms[c] for c in known] == list(fitted.vocabulary.terms)


@given(first=words, second=words, data=st.data())
@settings(max_examples=100, deadline=None)
def test_no_bigram_spans_two_documents(first, second, data):
    # The extractors are fitted on the two texts run together, so the
    # bigram across their boundary is a term whenever both edges are words.
    lexicons = default_lexicons()
    joined = f"{first} {second}"
    fitted = fit_counts(count_texts([joined, second, first], lexicons), 1)
    other = fit_counts(count_texts([joined], lexicons), 1)
    n_stack = data.draw(st.sampled_from([1, 2]))
    stack = ExtractorStack([fitted, other][:n_stack])
    both = stack.count_texts([first, second])
    for i, single in enumerate(stack.count_texts([text]) for text in (first, second)):
        row = both.take([i])
        for name in ("indptr", "indices", "counts", "category_counts", "aux"):
            assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name
    counted = count_texts([first, second], lexicons)
    for i, text in enumerate((first, second)):
        assert (stacked_transform(counted.take([i]), stack).data.tobytes()
                == stacked_transform(count_texts([text], lexicons), stack).data.tobytes())


# Lexicons where a word sits in two categories, a category word is upper
# case (tokens are lowered, so it never matches), a politeness cue spans
# words, and boosters and negations appear without a sentiment word.
TOY_LEXICONS = LexiconSet(
    emotion_categories={"grr": frozenset({"angry", "grumble", "Mad"}),
                        "sad": frozenset({"grumble", "gloom"})},
    politeness_cues={("thank", "you"): 1.0, ("please",): 0.5, ("you", "jerk"): -2.0},
    sentiment={"good": 2, "bad": -3},
    boosters={"very": 1, "slightly": -1},
    negations=frozenset({"not"}),
    modality_cues={"maybe": -0.5, "surely": 1.0, "tiny": 1e-16, "never": -1.0},
)
CUE_TEXTS = st.lists(st.lists(st.sampled_from(
    ["thank", "you", "jerk", "please", "good", "bad", "very", "slightly", "not", "maybe",
     "surely", "tiny", "never", "angry", "grumble", "Mad", "mad", "gloom", "plain", "words",
     "!", ":)"]), max_size=12).map(" ".join), max_size=10)


@pytest.mark.parametrize("lexicons", [TOY_LEXICONS, default_lexicons()], ids=["toy", "default"])
@given(texts=CUE_TEXTS)
@settings(max_examples=100, deadline=None)
def test_cue_scores_and_category_hits_equal_the_scorers(lexicons, texts):
    counts = count_texts(texts, lexicons)
    categories = [lexicons.emotion_categories[c] for c in sorted(lexicons.emotion_categories)]
    for i, text in enumerate(texts):
        stream = tokenize(strip_noise(text), lexicons.emoticons)
        scores = _aux_scores(stream.lowered, lexicons)
        assert counts.aux[i].tobytes() == np.array(scores).tobytes()
        if lexicons.cue_words.isdisjoint(stream.lowered):
            # What the core writes for such a document without scoring it.
            assert scores == (0.5, 1.0, -1.0, 1.0)
        assert counts.category_counts[i].tolist() == [
            sum(map(words.__contains__, stream.lowered)) for words in categories]


def test_uncertainty_adds_its_weights_left_to_right(monkeypatch):
    lexicons = dataclasses.replace(
        TOY_LEXICONS, modality_cues={"up": 1.0, "tiny": 1e-16, "down": -1.0})
    doc = ("up", "tiny", "down")
    assert uncertainty_score(doc, lexicons) == 0.0
    # Python 3.12's sum() compensates, as math.fsum does, and would give 3.3e-17.
    monkeypatch.setattr(features, "sum", math.fsum, raising=False)
    assert uncertainty_score(doc, lexicons) == 0.0


def test_the_table_is_built_on_the_first_prediction_not_on_load(tmp_path, monkeypatch):
    keywords = {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")}
    gold = generate_planted_corpus(60, keywords, noise=0.1, seed=5)
    bundle = train_all(gold, list(keywords),
                       TrainConfig(folds=3, grid=TuningGrid((1.0,)), min_df=1))
    save_bundle(bundle, tmp_path / "model.emo")
    built = []
    build = ExtractorStack.__init__

    def counting(stack, extractors):
        built.append(stack)
        build(stack, extractors)

    monkeypatch.setattr(ExtractorStack, "__init__", counting)
    loaded = load_bundle(tmp_path / "model.emo")
    assert built == []
    docs = [Document(f"d{i}", labeled.doc.text) for i, labeled in enumerate(gold)]
    rows = classify(loaded, docs)
    assert built == [loaded.stacks[0]]
    assert classify(loaded, docs) == rows
    assert len(built) == 1
