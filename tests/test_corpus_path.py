"""The corpus path against the single-document reference path.

Training counts each gold document once and fits/transforms row subsets of
that count matrix; batch prediction counts each document once for all of
a bundle's emotions, whose extractors tokenize and count alike.  Both must reproduce the
reference of ``tests/reference_features.py`` exactly, not to a tolerance:
``fit`` + ``assemble``, and ``predict`` of each text's reference row.  So
must ``FittedExtractor.vectorize``, the corpus path's one-document case.
"""

import csv
import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emoclf
import emoclf.features as features
import emoclf.pipeline as pipeline
import emoclf.textprep as textprep
from emoclf.cli import main
from emoclf.corpus import (
    Document,
    LabeledDocument,
    stratified_split,
    write_gold_corpus,
    write_input_corpus,
)
from emoclf.errors import (
    ContractViolation,
    DimensionError,
    DocumentTooLarge,
    EmptyCorpus,
    ParseError,
)
from emoclf.features import (
    MAX_DOCUMENT_CHARS,
    ExtractorStack,
    FeatureMatrix,
    count_texts,
    fit_counts,
    stacked_transform,
    transform_counts,
)
from emoclf.lexicons import LexiconSet, default_emoticons, default_lexicons
from emoclf.pipeline import (
    ModelBundle,
    TrainConfig,
    TuningGrid,
    _extractor_payload,
    bundle_to_dict,
    classify,
    evaluate,
    evaluate_heldout,
    load_bundle,
    save_bundle,
    train_all,
)
from emoclf.svm import (
    L2_HINGE,
    LinearModel,
    ModelStack,
    decision_values,
    predict,
    stacked_decision_values,
)
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus
from emoclf.textprep import bears_term, strip_noise, term_tokens
from reference_features import (
    TokenStream,
    assemble,
    count_streams,
    fit,
    reference_row,
    tokenize,
)

# Tokens that hit every default inventory (categories, multi-word politeness
# cues, sentiment with boosters and negations, modality), case variants,
# out-of-vocabulary words, punctuation and emoticons.
TOKENS = [
    "angry", "Angry", "afraid", "amused", "admire", "crying", "amazed",
    "thank", "THANK", "you", "very", "much", "would", "mind", "please", "could",
    "not", "never", "absolutely", "maybe", "good", "bad", "love",
    "zyblor", "quexal", "the", "it", "don't", "3.14",
    "!", ",", "...", ":)", ":(", ":D", ":'(",
]

ANGER_KEYWORDS = ("grumblex", "snarlit", "vexopod")

PROBE_TEXTS = [
    "",
    "   ",
    "qqqq wwww eeee",                                   # out-of-vocabulary only
    "<b>zyblor</b> :) <code>x = 1</code> see http://example.com/a?b=1",
    "```\nquexal grumblex\n``` I am very happy :D thank you",
    "<p>not good at all</p> snarlit!!! vexopod :(",
    "    indented code line\nwould you mind, please? drazzle",
    "ZYBLOR Quexal, vintrum... grumblex",
]


def _row(matrix: FeatureMatrix, i: int) -> tuple[list, list]:
    start, end = matrix.indptr[i], matrix.indptr[i + 1]
    return matrix.indices[start:end].tolist(), matrix.data[start:end].tolist()


def _same_rows(matrix: FeatureMatrix, references) -> None:
    """Row i of ``matrix`` equals the one-row matrix ``references[i]`` exactly."""
    assert matrix.n_rows == len(references)
    for i, reference in enumerate(references):
        assert reference.n_rows == 1
        assert _row(matrix, i) == _row(reference, 0)


@given(
    docs=st.lists(st.lists(st.sampled_from(TOKENS), max_size=30), min_size=1, max_size=14),
    min_df=st.sampled_from([0, 1, 2, 3]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_fold_matrix_rows_equal_reference_assemble(docs, min_df, data):
    streams = [TokenStream(tuple(doc)) for doc in docs]
    lexicons = default_lexicons()
    counts = count_streams(streams, lexicons)
    train = sorted(data.draw(st.sets(st.integers(0, len(docs) - 1), min_size=1)))

    reference = fit([streams[i] for i in train], lexicons, min_df)
    fitted = fit_counts(counts.take(train), min_df)
    assert _extractor_payload(fitted) == _extractor_payload(reference)

    # Every row of the corpus, held out or not, as the folds transform it.
    features = transform_counts(counts, fitted)
    _same_rows(features, [assemble(stream, reference) for stream in streams])

    # Picked rows, as training takes a split and prediction takes a batch.
    picked = data.draw(st.lists(st.integers(0, len(docs) - 1)))
    expected = [assemble(streams[i], reference) for i in picked]
    _same_rows(transform_counts(counts.take(picked), fitted), expected)
    _same_rows(features.take(picked), expected)
    _same_rows(transform_counts(counts.take(train), fitted),
               [assemble(streams[i], reference) for i in train])


def _bits(values: np.ndarray) -> list[int]:
    return values.view(np.int64).tolist()


def _stack_equals_singles(block, extractors, models) -> None:
    """The stacked transform and scoring equal one extractor and one model at a time."""
    stacked = stacked_transform(block, ExtractorStack(extractors))
    n, offset = block.n_docs, 0
    assert stacked.n_rows == len(extractors) * n
    expected_values = []
    for e, (fitted, model) in enumerate(zip(extractors, models)):
        single = transform_counts(block, fitted)
        rows = stacked.take(range(e * n, (e + 1) * n))
        assert rows.indptr.tolist() == single.indptr.tolist()
        assert (rows.indices - offset).tolist() == single.indices.tolist()
        assert _bits(rows.data) == _bits(single.data)
        values = decision_values(model, single)
        # Each row's products added left to right, then its bias.
        bounds, expected = single.indptr.tolist(), []
        for a, b in zip(bounds, bounds[1:]):
            acc = 0.0
            for w, x in zip(model.w[single.indices[a:b]].tolist(), single.data[a:b].tolist()):
                acc += w * x
            expected.append(acc + float(model.w[-1]))
        assert _bits(values) == _bits(np.array(expected))
        expected_values.extend(_bits(values))
        offset += fitted.dimension
    assert stacked.dimension == offset
    assert _bits(stacked_decision_values(ModelStack(models), stacked)) == expected_values


@given(
    docs=st.lists(st.lists(st.sampled_from(TOKENS), max_size=30), min_size=1, max_size=14),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_stacked_transform_and_scoring_equal_the_per_extractor_path(docs, data):
    lexicons = default_lexicons()
    # An empty document and one with no term any extractor can know; neither
    # is ever fitted on.
    streams = [TokenStream(tuple(doc)) for doc in docs + [[], ["qqqq", "wwww", "qqqq"]]]
    counts = count_streams(streams, lexicons)
    extractors, models = [], []
    for e in range(data.draw(st.integers(1, 4))):
        # The first extractor sees one document, so every cue feature has a
        # zero stddev and most categories have zero df.
        train = data.draw(st.sets(st.integers(0, len(docs) - 1), min_size=1,
                                  max_size=1 if e == 0 else None))
        min_df = data.draw(st.sampled_from([0, 1, 2, 3]))
        extractors.append(fit_counts(counts.take(sorted(train)), min_df))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = rng.standard_normal(extractors[-1].dimension + 1)
        models.append(LinearModel(w=weights, loss=L2_HINGE))
    picked = data.draw(st.lists(st.integers(0, len(streams) - 1), max_size=20))
    _stack_equals_singles(counts.take(picked), extractors, models)
    _stack_equals_singles(counts.take([]), extractors, models)


# Words that only extractor e's training documents can hold, so that
# vocabularies can be disjoint, and words no training document holds.
OWN_WORDS = [[f"own{e}x{i}" for i in range(4)] for e in range(6)]
UNSEEN = ["qqqq", "wwww"]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_prepared_stack_serves_every_block(data):
    lexicons = default_lexicons()
    n_stack = data.draw(st.integers(1, 6))
    extractors, models = [], []
    for e in range(n_stack):
        words = OWN_WORDS[e] + (TOKENS if data.draw(st.booleans()) else [])
        docs = data.draw(st.lists(st.lists(st.sampled_from(words), max_size=12),
                                  min_size=1, max_size=6))
        counts = count_streams([TokenStream(tuple(doc)) for doc in docs], lexicons)
        # A min_df above every df leaves the vocabulary empty.
        extractors.append(fit_counts(counts, data.draw(st.sampled_from([1, 2, len(docs) + 1]))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        models.append(LinearModel(w=rng.standard_normal(extractors[-1].dimension + 1),
                                  loss=L2_HINGE))
    words = [w for own in OWN_WORDS[:n_stack] for w in own] + TOKENS + UNSEEN
    blocks = data.draw(st.lists(
        st.lists(st.lists(st.sampled_from(words), max_size=15), max_size=8), max_size=3))
    blocks += [
        [own[:2] for own in OWN_WORDS[:n_stack]],   # each row known to one extractor at most
        [UNSEEN, UNSEEN[:1], []],                   # out of every vocabulary
        [],                                         # no documents
    ]
    stack, scoring = ExtractorStack(extractors), ModelStack(models)
    for docs in blocks:
        block = count_streams([TokenStream(tuple(doc)) for doc in docs], lexicons)
        stacked = stacked_transform(block, stack)
        n, offset, expected_values = block.n_docs, 0, []
        assert stacked.n_rows == n_stack * n
        for e, (fitted, model) in enumerate(zip(extractors, models)):
            single = transform_counts(block, fitted)
            rows = stacked.take(range(e * n, (e + 1) * n))
            assert rows.indptr.tolist() == single.indptr.tolist()
            assert (rows.indices - offset).tolist() == single.indices.tolist()
            assert _bits(rows.data) == _bits(single.data)
            expected_values.extend(_bits(decision_values(model, single)))
            offset += fitted.dimension
        assert stacked.dimension == offset
        assert _bits(stacked_decision_values(scoring, stacked)) == expected_values


# Words of the default lexicons (category words, politeness, sentiment with
# a booster and a negation, modality) beside plain words, so that rows have
# category hits and cue scores away from their training means.
CUE_WORDS = ["angry", "afraid", "amused", "adore", "amazed", "depressed", "please", "thanks",
             "thank", "you", "love", "awesome", "very", "not", "certainly", "sure", "always"]
PLAIN_WORDS = ["code", "run", "data", "list", "fix", "the", "a", "test", "merge", "step"]


def _cue_texts(rng, n, longest=12):
    words = CUE_WORDS + PLAIN_WORDS
    return [" ".join(rng.choice(words, size=int(rng.integers(0, longest + 1))))
            for _ in range(n)]


def _cue_bundle(seed):
    """Three emotions fitted on different texts, with random weights, sharing the lexicons."""
    rng = np.random.default_rng(seed)
    lexicons = default_lexicons()
    models = {}
    for emotion in ("joy", "anger", "fear"):
        fitted = fit_counts(count_texts(_cue_texts(rng, 40), lexicons), 1)
        assert min(fitted.aux_std) > 0.0 and min(fitted.category_df) > 0
        weights = rng.standard_normal(fitted.dimension + 1) * 10.0 ** rng.integers(-3, 3)
        models[emotion] = pipeline.EmotionModel(
            emotion, fitted, LinearModel(w=weights, loss=L2_HINGE), 1.0, 0.5, 0)
    return ModelBundle(emotions=tuple(models), models=models, master_seed=seed, config={})


def _csr_decision_values(bundle, texts):
    """``stacked_decision_values`` of the texts' ``stacked_transform`` rows, (emotion, text)."""
    extractors, models = bundle.stacks
    rows = stacked_transform(extractors.count_texts(texts), extractors)
    return stacked_decision_values(models, rows).reshape(len(extractors), len(texts))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_scoring_equals_the_csr_rows_bit_for_bit(monkeypatch, seed):
    bundle = _cue_bundle(seed)
    rng = np.random.default_rng(seed + 100)
    # Empty documents, and one far longer than the rest, alone over the
    # cell cap patched below.
    long_text = " ".join(rng.choice(CUE_WORDS + PLAIN_WORDS, size=500))
    texts = _cue_texts(rng, 45) + ["", "   ", long_text] + _cue_texts(rng, 5, longest=40)
    counts = bundle.stacks[0].count_texts(texts)
    assert counts.category_counts.any() and (counts.aux != (0.5, 1.0, -1.0, 1.0)).all(1).any()
    assert (np.diff(counts.indptr)[47] + 6 + 4) * 3 > 400
    expected = _csr_decision_values(bundle, texts)
    assert _bits(pipeline._decision_values(bundle, texts)) == _bits(expected)
    # One document per block.
    monkeypatch.setattr(pipeline, "PREDICT_BLOCK_ROWS", 1)
    assert _bits(pipeline._decision_values(bundle, texts)) == _bits(expected)
    for text, values in zip(texts, expected.T):
        assert _bits(_csr_decision_values(bundle, [text])[:, 0]) == _bits(values)
    # Grids of a few documents each, and the long one alone over the cap.
    monkeypatch.setattr(pipeline, "PREDICT_BLOCK_ROWS", 256)
    monkeypatch.setattr(features, "_GRID_CELLS", 400)
    assert _bits(pipeline._decision_values(bundle, texts)) == _bits(expected)


def test_a_bundle_whose_weights_miss_its_feature_space_is_refused_before_scoring():
    bundle = _cue_bundle(6)
    em = bundle.models["anger"]
    short = dataclasses.replace(em, model=LinearModel(w=em.model.w[1:], loss=L2_HINGE))
    odd = dataclasses.replace(bundle, models={**bundle.models, "anger": short})
    with pytest.raises(DimensionError, match="not match"):
        classify(odd, [Document("d1", "angry and afraid")])


@pytest.mark.parametrize("cap", [1, 150, 400, 2**16])
def test_grids_stay_within_the_cell_cap(monkeypatch, cap):
    bundle = _cue_bundle(4)
    extractors = bundle.stacks[0]
    rng = np.random.default_rng(5)
    long_text = " ".join(rng.choice(CUE_WORDS + PLAIN_WORDS, size=500))
    texts = _cue_texts(rng, 30, longest=30) + [long_text, ""] + _cue_texts(rng, 30)
    counts = extractors.count_texts(texts)
    assert (np.diff(counts.indptr)[30] + 6 + 4) * 3 > 400     # alone over two of the caps
    expected = stacked_transform(counts, extractors)
    monkeypatch.setattr(features, "_GRID_CELLS", cap)
    seen, sizes = [], []
    for docs, columns, values in features.stacked_grids(counts, extractors):
        assert columns.shape == values.shape and values.shape[1:] == (len(docs), 3)
        assert values.flags.c_contiguous and columns.flags.c_contiguous
        # Only a document that alone needs more than the cap exceeds it.
        assert values.size <= cap or len(docs) == 1
        seen.extend(docs.tolist())
        sizes.append(len(docs))
    assert sorted(seen) == list(range(len(texts)))
    if cap == 1:
        assert sizes == [1] * len(texts)
    elif cap == 2**16:
        assert sizes == [len(texts)]
    else:               # several grids, some of several documents
        assert 1 < max(sizes) < len(texts)
    got = stacked_transform(counts, extractors)
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def test_counting_raw_text_matches_the_reference_preprocessing():
    lexicons = default_lexicons()
    streams = [tokenize(strip_noise(text), lexicons.emoticons) for text in PROBE_TEXTS]
    reference = fit(streams, lexicons, 1)
    counts = count_texts(PROBE_TEXTS, lexicons)
    _same_rows(transform_counts(counts, reference),
               [assemble(stream, reference) for stream in streams])


# Pieces the fused front end (``term_tokens``) must split exactly as
# ``tokenize`` does: emoticons with and without letters, "_", apostrophes and
# digits, punctuation-only chunks, characters whose lower() is longer
# ("İ"), combining marks, and markup for strip_noise.
FRONT_END_PIECES = [
    ":)", ":D", ":P", ":-P", ":'(", "<3", "xD", "(y)", "D:",
    "_", "__init__", "_x", "x_", "don't", "'quoted'", "rock'n'roll'", "3.14", "42", "1st",
    "!!!", "...", "?!", "-", "—", "«»",
    "İ", "İSTANBUL", "ΣΑΣ", "ß", "e\u0301", "\u0301", "\u0301a", "a\u0301", "\u20dd",
    "<b>", "</b>", "<code>x = 1</code>", "```", "http://x.org/a?b=1", "www.b.com", "&amp;",
]
SEPARATORS = ["", "", " ", "\n", "\t", "\u3000", "\xa0"]
# A table whose entries include chunks with alphanumeric edges, which the
# fused path takes as plain words without looking them up.
TOY_EMOTICONS = frozenset({":)", "<3", "xD", "İ", "_", "(y)", "__init__"})

front_end_texts = st.lists(
    st.lists(st.tuples(
        st.one_of(st.sampled_from(FRONT_END_PIECES), st.text(max_size=6)),
        st.sampled_from(SEPARATORS),
    ), max_size=12).map(lambda pairs: "".join(piece + sep for piece, sep in pairs)),
    max_size=6,
)


def _same_counts(fused, reference):
    assert fused.terms == reference.terms
    for name in ("indptr", "indices", "counts", "category_counts", "aux"):
        got, want = getattr(fused, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _reference_counts(texts, lexicons):
    streams = (tokenize(strip_noise(text), lexicons.emoticons) for text in texts)
    return count_streams(streams, lexicons)


@pytest.mark.parametrize("emoticons", [default_emoticons(), TOY_EMOTICONS],
                         ids=["default-emoticons", "toy-emoticons"])
@given(texts=front_end_texts)
@settings(max_examples=300, deadline=None)
def test_fused_counting_equals_tokenize_then_count(emoticons, texts):
    lexicons = dataclasses.replace(default_lexicons(), emoticons=emoticons)
    for text in texts:
        stripped = strip_noise(text)
        reference = tokenize(stripped, emoticons)
        assert term_tokens(stripped, emoticons) == (
            list(reference.lowered), [bears_term(token) for token in reference.tokens]
        )
    _same_counts(count_texts(texts, lexicons), _reference_counts(texts, lexicons))


UNKNOWN_ONLY = "qqqq wwww eeee"


@functools.lru_cache(maxsize=None)
def _vectorize_extractor(emoticons):
    """A reference fit over the probe texts and front-end pieces, with ``emoticons``."""
    texts = [text for text in PROBE_TEXTS if text != UNKNOWN_ONLY] + FRONT_END_PIECES
    texts.append(" ".join(FRONT_END_PIECES))
    streams = [tokenize(strip_noise(text), emoticons) for text in texts]
    return fit(streams, dataclasses.replace(default_lexicons(), emoticons=emoticons), 1)


@pytest.mark.parametrize("emoticons", [default_emoticons(), TOY_EMOTICONS],
                         ids=["default-emoticons", "toy-emoticons"])
@given(texts=front_end_texts)
@settings(max_examples=100, deadline=None)
def test_vectorize_equals_the_reference_row(emoticons, texts):
    fitted = _vectorize_extractor(emoticons)
    assert not set(UNKNOWN_ONLY.split()) & set(fitted.vocabulary.terms)
    for text in ["", UNKNOWN_ONLY, *PROBE_TEXTS, *texts]:
        got, want = fitted.vectorize(text), reference_row(fitted, text)
        assert got.dimension == want.dimension == fitted.dimension
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (text, name)


def test_vectorize_and_transform_counts_build_one_stack(monkeypatch):
    fitted = dataclasses.replace(_vectorize_extractor(default_emoticons()))   # nothing cached
    built = []
    build = ExtractorStack.__init__

    def counting(stack, extractors):
        built.append(tuple(extractors))
        build(stack, extractors)

    monkeypatch.setattr(ExtractorStack, "__init__", counting)
    for text in ["", UNKNOWN_ONLY, *PROBE_TEXTS] * 2:
        got, want = fitted.vectorize(text), reference_row(fitted, text)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (text, name)
    counts = count_texts(PROBE_TEXTS, fitted.lexicons)
    assert transform_counts(counts, fitted).n_rows == len(PROBE_TEXTS)
    assert built == [(fitted,)] and fitted.stack.extractors == (fitted,)


def _perfbench_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_transform_adds_every_l2_norm_left_to_right(monkeypatch):
    # Python 3.12's sum() compensates, as math.fsum does.  Summed by sum(),
    # 12,516 of the 32,667 entries of this transform change under the shadow.
    inputs = _perfbench_inputs()
    texts = [text for _, text, _ in inputs.gold_corpus(inputs.WORKLOADS["train-c07"], 1)]
    counts = count_texts(texts, default_lexicons())
    fitted = fit_counts(counts)
    expected = transform_counts(counts, fitted)
    monkeypatch.setattr(features, "sum", math.fsum, raising=False)
    shadowed = transform_counts(counts, fitted)
    for name in ("indptr", "indices", "data"):
        assert getattr(shadowed, name).tobytes() == getattr(expected, name).tobytes(), name


def test_fused_counting_equals_tokenize_then_count_on_the_benchmark_texts():
    inputs = _perfbench_inputs()
    lexicons = default_lexicons()
    for workload in inputs.WORKLOADS.values():
        for texts in ([text for _, text, _ in inputs.gold_corpus(workload, 1)],
                      [text for _, text in inputs.classify_stream(workload, 1)]):
            _same_counts(count_texts(texts, lexicons), _reference_counts(texts, lexicons))


class TestDocumentSizeLimit:
    def test_limit_is_the_csv_field_limit(self):
        assert MAX_DOCUMENT_CHARS == csv.field_size_limit()

    def test_document_at_the_limit_is_counted(self):
        counts = count_texts(["ok", "ab " * (MAX_DOCUMENT_CHARS // 3)], default_lexicons())
        assert counts.n_docs == 2

    def test_longer_document_names_its_position_and_the_limit(self):
        texts = ["ok", "fine", "<code>x " * (MAX_DOCUMENT_CHARS // 8 + 1)]
        with pytest.raises(DocumentTooLarge) as err:
            count_texts(texts, default_lexicons())
        assert (err.value.position, err.value.limit) == (2, MAX_DOCUMENT_CHARS)
        assert err.value.length == len(texts[2])
        assert "document 2" in str(err.value) and str(MAX_DOCUMENT_CHARS) in str(err.value)

    def test_vectorize_refuses_an_oversized_text(self):
        fitted = _vectorize_extractor(default_emoticons())
        assert fitted.vectorize("ab " * (MAX_DOCUMENT_CHARS // 3)).n_rows == 1
        text = "z" * (MAX_DOCUMENT_CHARS + 1)
        with pytest.raises(DocumentTooLarge) as err:
            fitted.vectorize(text)
        assert (err.value.position, err.value.length) == (0, len(text))

    def test_classify_refuses_an_oversized_document(self, bundles):
        docs = [Document("a", "zyblor"), Document("b", "z" * (MAX_DOCUMENT_CHARS + 1))]
        with pytest.raises(DocumentTooLarge) as err:
            classify(bundles["shared_split"], docs)
        assert err.value.position == 1


    def test_classify_names_an_oversized_document_by_its_place_in_the_input(self, bundles):
        # Six emotions sharing text work predict in blocks of 256 // 6 = 42
        # documents; the oversized one sits in the third block.
        em = bundles["shared_split"].models["joy"]
        emotions = ("joy", "anger", "sadness", "fear", "love", "surprise")
        bundle = ModelBundle(
            emotions=emotions,
            models={e: dataclasses.replace(em, emotion=e) for e in emotions},
            master_seed=0, config={},
        )
        assert pipeline.PREDICT_BLOCK_ROWS // len(emotions) == 42
        docs = [Document(str(i), "zyblor") for i in range(120)]
        docs[100] = Document("100", "z" * (MAX_DOCUMENT_CHARS + 1))
        with pytest.raises(DocumentTooLarge) as err:
            classify(bundle, docs)
        assert err.value.position == 100
        assert "document 100 " in str(err.value)


def test_fit_counts_rejects_zero_documents():
    counts = count_texts(["a b"], default_lexicons())
    with pytest.raises(EmptyCorpus):
        fit_counts(counts.take([]))


class TestFeatureMatrixContract:
    def _matrix(self, indptr, indices, data, dimension=4):
        return FeatureMatrix(
            np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64), dimension,
        )

    def test_valid_rows_with_empty_ones(self):
        matrix = self._matrix([0, 0, 2, 2, 3], [1, 3, 0], [1.0, 2.0, 3.0])
        assert matrix.n_rows == 4
        assert _row(matrix, 1) == ([1, 3], [1.0, 2.0])
        assert _row(matrix, 0) == ([], [])

    @pytest.mark.parametrize("indptr, indices, data", [
        ([0, 2], [2, 1], [1.0, 1.0]),        # not increasing within a row
        ([0, 2], [1, 1], [1.0, 1.0]),        # repeated index
        ([0, 1], [4], [1.0]),                # out of range
        ([0, 1], [0], [0.0]),                # stored zero
        ([0, 2, 1], [0, 1], [1.0, 1.0]),     # decreasing indptr
        ([0, 3], [0, 1], [1.0, 1.0]),        # indptr does not cover the entries
    ])
    def test_contract_violations_rejected(self, indptr, indices, data):
        with pytest.raises(ContractViolation):
            self._matrix(indptr, indices, data)

    def test_rows_may_restart_lower_than_the_previous_row_ended(self):
        matrix = self._matrix([0, 2, 3], [2, 3, 0], [1.0, 1.0, 1.0])
        assert _row(matrix, 1) == ([0], [1.0])


def _reference_rows(bundle, docs):
    return [
        (doc.id, emotion, predict(bundle.models[emotion].model,
                                  reference_row(bundle.models[emotion].extractor, doc.text)))
        for doc in docs
        for emotion in bundle.emotions
    ]


def _reference_confusion(em, docs):
    tally = [0, 0, 0, 0]
    for labeled in docs:
        guess = predict(em.model, reference_row(em.extractor, labeled.doc.text))
        gold = labeled.labels[em.emotion]
        tally[{(1, 1): 0, (1, 0): 1, (0, 1): 2, (0, 0): 3}[(guess, gold)]] += 1
    return tuple(tally)


@pytest.fixture(scope="module")
def gold():
    docs = generate_planted_corpus(
        90, {"joy": DEFAULT_KEYWORDS, "anger": ANGER_KEYWORDS}, noise=0.1, seed=12
    )
    extra = [
        LabeledDocument(Document(f"probe{i}", text), {"joy": i % 2, "anger": (i // 2) % 2})
        for i, text in enumerate(PROBE_TEXTS)
    ]
    return docs + extra


FAST = dict(folds=3, grid=TuningGrid((0.25, 1.0)), min_df=1)


@pytest.fixture(scope="module")
def bundles(gold):
    return {kind: train_all(gold, ["joy", "anger"], TrainConfig(shared_split=shared, **FAST))
            for kind, shared in (("shared_split", True), ("own_splits", False))}


@pytest.fixture(scope="module")
def mixed_bundle(gold, bundles):
    """Joy with the default lexicons beside anger with others: no shared text work."""
    toy_lexicons = LexiconSet(
        emotion_categories={"grr": frozenset({"grumblex", "angry"})},
        politeness_cues={("please",): 1.0},
        sentiment={"good": 2, "bad": -3},
        boosters={"very": 1},
        negations=frozenset({"not"}),
        modality_cues={"maybe": -0.5},
        emoticons=frozenset({":)", "<3"}),
    )
    anger = train_all(gold, ["anger"], TrainConfig(lexicons=toy_lexicons, **FAST))
    joy = bundles["own_splits"]
    return ModelBundle(
        emotions=("joy", "anger"),
        models={"joy": joy.models["joy"], "anger": anger.models["anger"]},
        master_seed=joy.master_seed,
        config=joy.config,
    )


def _counting_text_passes(monkeypatch):
    # Every pass over a text's words starts from strip_noise.
    calls = []

    def counted(text):
        calls.append(text)
        return strip_noise(text)

    monkeypatch.setattr(features, "strip_noise", counted)
    return calls


@pytest.mark.parametrize("kind", ["shared_split", "own_splits"])
def test_batch_classify_equals_per_document_predict(bundles, gold, monkeypatch, kind):
    bundle = bundles[kind]
    docs = [d.doc for d in gold]
    calls = _counting_text_passes(monkeypatch)
    rows = classify(bundle, docs)
    # A bundle's emotions share their text work: each text is counted once for all.
    assert len(calls) == len(docs)
    monkeypatch.undo()
    assert rows == _reference_rows(bundle, docs)
    assert all(type(bit) is int for _, _, bit in rows)


@pytest.mark.parametrize("kind", ["shared_split", "own_splits"])
def test_batch_evaluation_equals_per_document_tallies(bundles, gold, kind):
    bundle = bundles[kind]
    report = evaluate(bundle, gold)
    for row, em in zip(report.rows, bundle):
        assert (row.tp, row.fp, row.fn, row.tn) == _reference_confusion(em, gold)
    heldout = evaluate_heldout(bundle, gold)
    shared = bool(bundle.config.get("shared_split"))
    for row, em in zip(heldout.rows, bundle):
        split = stratified_split(gold, bundle.emotions[0] if shared else em.emotion,
                                 float(bundle.config["train_fraction"]), em.split_seed)
        assert (row.tp, row.fp, row.fn, row.tn) == _reference_confusion(em, split.test)


@pytest.mark.parametrize("kind", ["shared_split", "own_splits"])
@pytest.mark.parametrize("block_rows", [1, 7, 10**6])
def test_predictions_do_not_depend_on_the_block_size(bundles, gold, monkeypatch, kind, block_rows):
    bundle = bundles[kind]
    docs = [d.doc for d in gold]
    rows, heldout = classify(bundle, docs), evaluate_heldout(bundle, gold)
    monkeypatch.setattr(pipeline, "PREDICT_BLOCK_ROWS", block_rows)
    assert classify(bundle, docs) == rows == _reference_rows(bundle, docs)
    assert evaluate_heldout(bundle, gold) == heldout


def test_classify_accepts_an_iterator_and_no_documents(bundles):
    bundle = bundles["shared_split"]
    docs = [Document("a", "zyblor :)"), Document("b", "")]
    assert classify(bundle, iter(docs)) == _reference_rows(bundle, docs)
    assert classify(bundle, []) == []


# The reference path that lives in tests/reference_features.py and nowhere
# in the package.
MOVED_NAMES = ("assemble", "ngram_block", "emotion_category_block", "_l2_normalized",
               "tokenize", "TokenStream", "ngram_occurrences")


def test_the_corpus_path_builds_no_token_stream(bundles, gold, tmp_path):
    # The corpus path makes its tokens with str.split and has no TokenStream
    # or any other part of the reference path to build.
    lexicons = default_lexicons()
    texts, docs = [d.doc.text for d in gold], [d.doc for d in gold]
    bundle = bundles["shared_split"]
    stack = ExtractorStack([em.extractor for em in bundle])
    expected_counts = _reference_counts(texts, lexicons)
    expected_stacked = stack.count_texts(texts)
    expected_rows = _reference_rows(bundle, docs)
    save_bundle(bundle, tmp_path / "expected.emo")

    for module in (emoclf, features, textprep):
        assert [name for name in MOVED_NAMES if hasattr(module, name)] == [], module.__name__
    _same_counts(count_texts(texts, lexicons), expected_counts)
    _same_counts(stack.count_texts(texts), expected_stacked)
    trained = train_all(gold, ["joy", "anger"], TrainConfig(
        shared_split=True, folds=3, grid=TuningGrid((0.25, 1.0)), min_df=1))
    save_bundle(trained, tmp_path / "trained.emo")
    assert (tmp_path / "trained.emo").read_bytes() == (tmp_path / "expected.emo").read_bytes()
    assert classify(trained, docs) == expected_rows


def _stack_builds(monkeypatch):
    """Every ExtractorStack and ModelStack the pipeline builds, in order."""
    built = []
    for name in ("ExtractorStack", "ModelStack"):
        def build(items, stack=getattr(pipeline, name)):
            built.append(stack(items))
            return built[-1]
        monkeypatch.setattr(pipeline, name, build)
    return built


@pytest.mark.parametrize("kind", ["shared_split", "own_splits"])
def test_the_stacks_are_prepared_once_per_bundle(bundles, gold, monkeypatch, kind):
    bundle = dataclasses.replace(bundles[kind])     # a new bundle: nothing prepared yet
    docs = [d.doc for d in gold]
    built = _stack_builds(monkeypatch)
    used = []           # the extractor stack of every laid-out block
    grids = pipeline.stacked_grids
    monkeypatch.setattr(pipeline, "stacked_grids",
                        lambda counts, stack: used.append(stack) or grids(counts, stack))
    calls = _counting_text_passes(monkeypatch)
    first = classify(bundle, docs)
    assert classify(bundle, docs) == first
    assert built == list(bundle.stacks)     # one extractor stack and one model stack
    assert {id(stack) for stack in used} == {id(bundle.stacks[0])}
    # Each text is still counted once in each call.
    assert len(calls) == 2 * len(docs)


def test_equal_but_distinct_text_work_shares_one_stack(gold):
    # Two runs' extractors hold equal lexicons that are different objects, as
    # when each bundle was trained with its own copy of the lexicon files.
    copied = dataclasses.replace(default_lexicons())
    assert copied is not default_lexicons() and copied == default_lexicons()
    joy = train_all(gold, ["joy"], TrainConfig(lexicons=default_lexicons(), **FAST))
    anger = train_all(gold, ["anger"], TrainConfig(lexicons=copied, **FAST))
    bundle = ModelBundle(
        emotions=("joy", "anger"),
        models={"joy": joy.models["joy"], "anger": anger.models["anger"]},
        master_seed=joy.master_seed,
        config=joy.config,
    )
    assert bundle.models["anger"].extractor.lexicons is copied
    extractors, models = bundle.stacks
    assert len(extractors) == len(models) == 2 and extractors.lexicons is default_lexicons()
    docs = [d.doc for d in gold]
    assert classify(bundle, docs) == _reference_rows(bundle, docs)


# Lexicons, one with other negations and one with another emoticon table,
# that count some texts differently from the defaults.
def _other_text_work():
    lexicons = default_lexicons()
    return [dataclasses.replace(lexicons, negations=lexicons.negations | {"zyblor"}),
            dataclasses.replace(lexicons, emoticons=frozenset({":)"}))]


SHORT_TEXTS = ["zyblor good day :)", "not a bad day <3", ""]


def test_a_stack_refuses_extractors_that_do_not_share_text_work():
    own = fit_counts(count_texts(SHORT_TEXTS, default_lexicons()), 1)
    for lexicons in _other_text_work():
        odd = fit_counts(count_texts(SHORT_TEXTS, lexicons), 1)
        for extractors in ([own, odd], [odd, own], [own, own, odd]):
            with pytest.raises(ContractViolation, match="share their lexicons"):
                ExtractorStack(extractors)


def test_counts_made_with_other_text_work_are_refused():
    lexicons = default_lexicons()
    fitted = fit_counts(count_texts(SHORT_TEXTS, lexicons), 1)
    stack = ExtractorStack([fitted])
    for other in _other_text_work():
        counts = count_texts(SHORT_TEXTS, other)
        with pytest.raises(ContractViolation, match="counts were made with other"):
            transform_counts(counts, fitted)
        with pytest.raises(ContractViolation, match="counts were made with other"):
            stacked_transform(counts, stack)
    # Equal copies are the same text work.
    emoticons = frozenset(list(default_emoticons()))
    copied = count_texts(SHORT_TEXTS, dataclasses.replace(lexicons, emoticons=emoticons))
    _same_rows(stacked_transform(copied, stack),
               [fitted.vectorize(text) for text in SHORT_TEXTS])


def test_loading_prepares_nothing_and_predicting_changes_no_saved_byte(
    bundles, gold, monkeypatch, tmp_path
):
    trained = dataclasses.replace(bundles["own_splits"])
    path = tmp_path / "model.emo"
    built = _stack_builds(monkeypatch)
    save_bundle(trained, path)      # prepares the stacks, to check the text-work rule
    assert len(built) == 2
    before = path.read_bytes()
    loaded = load_bundle(path)
    assert len(built) == 2
    docs = [d.doc for d in gold]
    for bundle in (trained, loaded):
        classify(bundle, docs)
        evaluate_heldout(bundle, gold)
        save_bundle(bundle, path)
        assert path.read_bytes() == before
    assert len(built) == 2 * 2      # an extractor stack and a model stack per bundle


def test_a_bundle_without_shared_text_work_is_refused_at_its_first_prediction(
    mixed_bundle, gold
):
    docs = [d.doc for d in gold]
    for predict_all in (lambda: classify(mixed_bundle, docs),
                        lambda: evaluate(mixed_bundle, gold),
                        lambda: evaluate_heldout(mixed_bundle, gold)):
        with pytest.raises(ContractViolation, match="share their lexicons"):
            predict_all()


def test_a_saved_bundle_without_shared_text_work_does_not_load(mixed_bundle, tmp_path, capsys):
    path, posts, out = tmp_path / "mixed.emo", tmp_path / "posts.csv", tmp_path / "out.csv"
    with pytest.raises(ContractViolation, match="share their lexicons"):
        save_bundle(mixed_bundle, path)
    assert list(tmp_path.iterdir()) == []
    # A file written some other way, as by editing a saved bundle's lexicons.
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle_to_dict(mixed_bundle), handle)
    with pytest.raises(ParseError, match="anger: lexicons or emoticon table differ from joy's"):
        load_bundle(path)
    write_input_corpus(posts, [Document("a", "zyblor :)")])
    assert main(["classify", "--model", str(path), "--input", str(posts),
                 "--out", str(out)]) == 3
    assert "differ from joy's" in capsys.readouterr().err
    assert not out.exists()


# Classifies a synthetic stream in 20-document batches, pass after pass, and
# prints the process's peak RSS in KiB after passes 5 and 25.  VmHWM starts
# afresh at exec; ru_maxrss would carry over the forking test process's peak.
CLASSIFY_PASSES = """
from emoclf.pipeline import TrainConfig, TuningGrid, classify, train_all
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus
gold = generate_planted_corpus(300, {"joy": DEFAULT_KEYWORDS}, noise=0.05, seed=3)
bundle = train_all(gold, ["joy"], TrainConfig(folds=3, grid=TuningGrid((1.0,)), min_df=1))
docs = [d.doc for d in generate_planted_corpus(1000, {"joy": DEFAULT_KEYWORDS}, seed=4)]
for n in range(1, 26):
    for i in range(0, len(docs), 20):
        classify(bundle, docs[i:i + 20])
    if n in (5, 25):
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_classify_passes_keep_the_memory_high_water_mark():
    # While classification built a TokenStream per document, whose lowered
    # tuple came from an iterator, the resized tuples piled up on CPython's
    # tuple free lists, and this peak rose by
    # 2.6 MiB from pass 5 to pass 25 (Python 3.11, x86-64 Linux).
    src = Path(features.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", CLASSIFY_PASSES],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    early, late = map(int, result.stdout.split())
    assert (late - early) / 1024 < 1.0


# Trains a six-emotion bundle on 600 synthetic documents and prints the
# process's peak RSS in KiB before and after scoring its held-out documents.
HELDOUT_PEAK = """
from emoclf.pipeline import TrainConfig, TuningGrid, evaluate_heldout, train_all
from emoclf.synth import generate_planted_corpus
def peak():
    with open("/proc/self/status") as status:
        return next(line.split()[1] for line in status if line.startswith("VmHWM:"))
emotions = ("joy", "anger", "sadness", "fear", "love", "surprise")
plants = {emotion: tuple(emotion + c for c in "qxz") for emotion in emotions}
gold = generate_planted_corpus(600, plants, positive_rate=0.3, noise=0.05, seed=5)
bundle = train_all(gold, list(emotions), TrainConfig(folds=3, grid=TuningGrid((1.0,)), loss="l1"))
print(peak())
evaluate_heldout(bundle, gold)
print(peak())
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_heldout_evaluation_stays_under_the_training_memory_peak():
    # Stacking all ~530 held-out documents of six emotions in one block raised
    # this peak by 4.5 MiB (Python 3.11, x86-64 Linux); blocks keep it flat.
    src = Path(features.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", HELDOUT_PEAK],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    trained, evaluated = map(int, result.stdout.split())
    assert (evaluated - trained) / 1024 < 1.0


# sha256 of the bundle acceptance test C08 trains (`--jobs 1`), recorded with
# the per-document reference pipeline on x86-64 with numpy's bundled
# OpenBLAS.  The solver's dot products go through BLAS, so another BLAS
# kernel may round differently and legitimately change these bytes.
C08_BUNDLE_SHA256 = "8949dea4521dcee580ea0cf2e1674d3530a3e2420c63ae6896e428361f93466a"


def test_c08_bundle_bytes_are_pinned(tmp_path, capsys):
    gold_path = tmp_path / "gold.csv"
    docs = generate_planted_corpus(
        160, {"joy": DEFAULT_KEYWORDS, "anger": ANGER_KEYWORDS}, noise=0.05, seed=77
    )
    write_gold_corpus(gold_path, docs, ["joy", "anger"])
    out = tmp_path / "c08.emo"
    assert main([
        "train", "--gold", str(gold_path), "--out", str(out),
        "--report", str(tmp_path / "c08.csv"), "--folds", "5", "--grid", "0.25,1,4",
        "--min-df", "1", "--seed", "7", "--jobs", "1",
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == C08_BUNDLE_SHA256
