import builtins
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emoclf.features as features
from emoclf.errors import ContractViolation, EmptyCorpus, IncompatibleModel, ParseError
from emoclf.features import (
    AUX_FEATURES,
    ExtractorStack,
    _added,
    count_texts,
    fit_counts,
    idf,
    politeness_score,
    row_sums,
    sentiment_scores,
    slot_sums,
    stacked_transform,
    transform_counts,
    uncertainty_score,
)
from emoclf.lexicons import LexiconSet, default_lexicons
from emoclf.pipeline import EmotionModel, ModelBundle, bundle_from_dict, bundle_to_dict
from emoclf.svm import L1_HINGE, LinearModel
from reference_features import (
    TokenStream,
    assemble,
    emotion_category_block,
    fit,
    matrix_from_pairs,
    ngram_block,
)


def make_lexicons(
    categories=None, politeness=None, sentiment=None, boosters=None,
    negations=(), modality=None,
):
    return LexiconSet(
        emotion_categories=categories or {},
        politeness_cues=politeness or {},
        sentiment=sentiment or {},
        boosters=boosters or {},
        negations=frozenset(negations),
        modality_cues=modality or {},
    )


EMPTY_LEXICONS = make_lexicons()


def streams(*docs):
    return [TokenStream(tuple(doc)) for doc in docs]


def row_pairs(matrix, i=0):
    """Row ``i`` of a FeatureMatrix as (index, value) pairs."""
    start, end = matrix.indptr[i], matrix.indptr[i + 1]
    return list(zip(matrix.indices[start:end].tolist(), matrix.data[start:end].tolist()))


class TestFromPairs:
    def test_valid(self):
        m = matrix_from_pairs([[(3, 1.0), (0, 2.0)], [(4, -1.0), (1, 5.0)]], 5)
        assert m.n_rows == 2 and m.dimension == 5
        assert row_pairs(m, 0) == [(0, 2.0), (3, 1.0)]
        assert row_pairs(m, 1) == [(1, 5.0), (4, -1.0)]

    def test_zero_values_dropped(self):
        assert row_pairs(matrix_from_pairs([[(1, 0.0), (2, 3.0)]], 4)) == [(2, 3.0)]

    def test_out_of_range_rejected(self):
        for pairs in ([(5, 1.0)], [(-1, 1.0)]):
            with pytest.raises(ContractViolation, match="out of range"):
                matrix_from_pairs([pairs], 5)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ContractViolation, match="strictly increasing"):
            matrix_from_pairs([[(1, 1.0), (1, 2.0)]], 4)

    def test_empty_rows(self):
        m = matrix_from_pairs([[], [(2, 1.0)], [(0, 0.0)]], 3)
        assert m.indptr.tolist() == [0, 0, 1, 1]
        assert row_pairs(m, 0) == row_pairs(m, 2) == []
        assert matrix_from_pairs([], 3).n_rows == 0


class TestIdf:
    def test_df_equals_n(self):
        assert idf(5, 5) == pytest.approx(1.0, abs=1e-12)

    def test_hand_values(self):
        assert idf(1, 3) == pytest.approx(1.6931471805599454, abs=1e-12)
        assert idf(2, 4) == pytest.approx(1.5108256237659907, abs=1e-12)

    def test_df_zero_rejected(self):
        with pytest.raises(ContractViolation):
            idf(0, 3)

    def test_df_above_n_rejected(self):
        with pytest.raises(ContractViolation):
            idf(4, 3)

    @given(n=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=60)
    def test_decreasing_in_df_and_at_least_one(self, n):
        values = [idf(df, n) for df in range(1, n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 97, 840, 1200, 4001])
    def test_per_distinct_df_idf_equals_idf_bit_for_bit(self, n):
        # Every df of 1..n, in shuffled order with repeats, and the 0 of a
        # category no document hit.
        df = np.random.default_rng(n).permutation(np.repeat(np.arange(n + 1), 2))
        got = features._idfs(df, n)
        assert got.dtype == np.float64
        assert [x.hex() for x in got.tolist()] == [
            (idf(d, n) if d else 0.0).hex() for d in df.tolist()]


class TestFit:
    def test_vocabulary_and_df(self):
        fitted = fit(streams(["a", "b"], ["a"]), EMPTY_LEXICONS, min_df=1)
        vocab = fitted.vocabulary
        assert set(vocab.terms) == {"a", "b", "a b"}
        assert vocab.df[vocab.index["a"]] == 2
        assert vocab.df[vocab.index["b"]] == 1
        assert vocab.n_docs == 2

    def test_min_df_threshold(self):
        fitted = fit(streams(["a", "b"], ["a"]), EMPTY_LEXICONS, min_df=2)
        assert set(fitted.vocabulary.terms) == {"a"}

    def test_category_df_counts_docs_once(self):
        lex = make_lexicons(categories={"joy": frozenset({"glad"})})
        fitted = fit(streams(["glad"], ["sad"]), lex, min_df=1)
        assert fitted.category_df[fitted.categories.index("joy")] == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit([], EMPTY_LEXICONS)

    def test_transform_does_not_mutate(self):
        fitted = fit(streams(["a", "b"], ["a"]), EMPTY_LEXICONS, min_df=1)
        before = (fitted.vocabulary.terms, fitted.vocabulary.df, fitted.category_df)
        assemble(TokenStream(("new", "words", "a")), fitted)
        assert (fitted.vocabulary.terms, fitted.vocabulary.df, fitted.category_df) == before


class TestNgramBlock:
    def test_out_of_vocabulary_doc_is_all_zero(self):
        fitted = fit(streams(["a"], ["a"]), EMPTY_LEXICONS, min_df=1)
        assert len(ngram_block(TokenStream(("z", "q")), fitted)) == 0

    def test_single_term_normalizes_to_one(self):
        fitted = fit(streams(["a"], ["b"]), EMPTY_LEXICONS, min_df=1)
        block = ngram_block(TokenStream(("a", "a")), fitted)
        (pair,) = block
        assert pair[1] == pytest.approx(1.0, abs=1e-12)

    def test_two_term_hand_computed_values(self):
        # df(a)=2, df(b)=1, n=2: idf 1 and 1.4054651..., then L2-normalized.
        # Training docs chosen so the probe's "a b" bigram stays out of vocab.
        fitted = fit(streams(["a"], ["b", "a"]), EMPTY_LEXICONS, min_df=1)
        block = ngram_block(TokenStream(("a", "b")), fitted)
        values = dict(block)
        vocab = fitted.vocabulary
        assert "a b" not in vocab.index
        assert values[vocab.index["a"]] == pytest.approx(0.5797386715376657, abs=1e-9)
        assert values[vocab.index["b"]] == pytest.approx(0.8148024746671689, abs=1e-9)

    def test_block_norm_is_one(self):
        fitted = fit(streams(["a", "b", "c"], ["a", "c"]), EMPTY_LEXICONS, min_df=1)
        block = ngram_block(TokenStream(("a", "b", "c", "c")), fitted)
        assert math.sqrt(sum(v * v for _, v in block)) == pytest.approx(
            1.0, abs=1e-9
        )


class TestCategoryBlock:
    def test_single_category_hand_computed(self):
        lex = make_lexicons(categories={"joy": frozenset({"glad"})})
        fitted = fit(streams(["glad"], ["sad"]), lex, min_df=1)
        block = emotion_category_block(TokenStream(("glad", "glad")), fitted)
        (pair,) = block
        assert pair[1] == pytest.approx(1.0, abs=1e-12)

    def test_no_lexicon_word_empty_block(self):
        lex = make_lexicons(categories={"joy": frozenset({"glad"})})
        fitted = fit(streams(["glad"], ["sad"]), lex, min_df=1)
        assert len(emotion_category_block(TokenStream(("dull",)), fitted)) == 0

    def test_two_equal_categories_split_evenly(self):
        lex = make_lexicons(
            categories={"joy": frozenset({"glad"}), "love": frozenset({"dear"})}
        )
        fitted = fit(streams(["glad", "dear"], ["x"]), lex, min_df=1)
        block = emotion_category_block(TokenStream(("glad", "dear")), fitted)
        values = [v for _, v in block]
        assert values == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-12)

    def test_matching_is_case_insensitive_on_doc_side(self):
        lex = make_lexicons(categories={"joy": frozenset({"glad"})})
        fitted = fit(streams(["glad"], ["x"]), lex, min_df=1)
        assert len(emotion_category_block(TokenStream(("GLAD",)), fitted)) == 1


# Token-by-token scans the politeness and sentiment scorers must equal; the
# scorers skip straight to tokens found in their lexicons.
def _politeness_scan(tokens, lexicons):
    total, i = 0.0, 0
    while i < len(tokens):
        matched = 0
        for length in range(min(lexicons.politeness_lengths.get(tokens[i], 0),
                                len(tokens) - i), 0, -1):
            weight = lexicons.politeness_cues.get(tuple(tokens[i : i + length]))
            if weight is not None:
                total += weight
                matched = length
                break
        i += matched or 1
    return 1.0 / (1.0 + math.exp(-total))


def _sentiment_scan(tokens, lexicons):
    pos, neg = 1, -1
    for i, token in enumerate(tokens):
        strength = lexicons.sentiment.get(token)
        if strength is None:
            continue
        magnitude, sign = abs(strength), 1 if strength > 0 else -1
        shift = lexicons.boosters.get(tokens[i - 1]) if i > 0 else None
        if shift is not None:
            magnitude = max(1, magnitude + shift)
        if any(tokens[j] in lexicons.negations for j in range(max(0, i - 2), i)):
            sign = -sign
        adjusted = sign * min(magnitude, 5)
        pos, neg = (max(pos, adjusted), neg) if adjusted > 0 else (pos, min(neg, adjusted))
    return pos, neg


DEFAULT_LEXICONS = default_lexicons()
CUE_WORDS = sorted(
    {word for phrase in DEFAULT_LEXICONS.politeness_cues for word in phrase}
    | set(DEFAULT_LEXICONS.sentiment) | set(DEFAULT_LEXICONS.boosters)
    | DEFAULT_LEXICONS.negations | {"zyblor", "the", "!"}
)


# Whole cue phrases side by side make overlapping matches, as in "thank you must".
CUE_PIECES = sorted(DEFAULT_LEXICONS.politeness_cues) + [(word,) for word in CUE_WORDS]


@given(st.lists(st.sampled_from(CUE_PIECES), max_size=8))
@settings(max_examples=300)
def test_scorers_equal_the_token_by_token_scan(pieces):
    tokens = [word for piece in pieces for word in piece]
    assert politeness_score(tokens, DEFAULT_LEXICONS) == _politeness_scan(tokens, DEFAULT_LEXICONS)
    assert sentiment_scores(tokens, DEFAULT_LEXICONS) == _sentiment_scan(tokens, DEFAULT_LEXICONS)


class TestPoliteness:
    def test_empty_doc_neutral(self):
        assert politeness_score((), EMPTY_LEXICONS) == 0.5

    def test_single_unit_cue(self):
        lex = make_lexicons(politeness={("please",): 1.0})
        score = politeness_score(("please",), lex)
        assert score == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_cues_cancel(self):
        lex = make_lexicons(politeness={("please",): 1.0, ("rtfm",): -1.0})
        assert politeness_score(("please", "rtfm"), lex) == 0.5

    def test_longest_match_wins_and_does_not_overlap(self):
        lex = make_lexicons(politeness={("thank",): 0.5, ("thank", "you"): 2.0})
        score = politeness_score(("thank", "you"), lex)
        assert score == pytest.approx(1 / (1 + math.exp(-2.0)), abs=1e-12)

    def test_longest_match_wins_whatever_the_cue_order(self):
        lex = make_lexicons(politeness={("thank", "you"): 2.0, ("thank",): 0.5})
        score = politeness_score(("thank", "you"), lex)
        assert score == pytest.approx(1 / (1 + math.exp(-2.0)), abs=1e-12)

    def test_case_insensitive(self):
        # The scorers take lowered tokens; count_texts does the lowering.
        lex = make_lexicons(politeness={("thank", "you"): 1.0})
        upper, lower = count_texts(["THANK You", "thank you"], lex).aux
        assert upper.tolist() == lower.tolist() and upper[0] > 0.5

    @given(st.lists(st.sampled_from(["please", "rtfm", "word", "thank"]), max_size=12))
    @settings(max_examples=60)
    def test_range(self, tokens):
        lex = make_lexicons(politeness={("please",): 1.0, ("rtfm",): -1.0, ("thank",): 0.5})
        assert 0.0 < politeness_score(tuple(tokens), lex) < 1.0

    @pytest.mark.parametrize("count", [709, 710, 745, 800])
    def test_large_negative_total_is_finite_and_not_above_exp(self, count):
        # exp(-total) overflows once total < about -709.78; the logistic is
        # then exp(total), which underflows to 0 below about -745.
        lex = make_lexicons(politeness={("rtfm",): -1.0})
        score = politeness_score(("rtfm",) * count, lex)
        assert score == (1.0 / (1.0 + math.exp(count)) if count < 710 else math.exp(-count))
        assert 0.0 <= score < 1e-300


class TestSentiment:
    def test_empty_doc_neutral_defaults(self):
        assert sentiment_scores((), EMPTY_LEXICONS) == (1, -1)

    def test_positive_word(self):
        lex = make_lexicons(sentiment={"love": 3})
        assert sentiment_scores(("love",), lex) == (3, -1)

    def test_negation_flips(self):
        lex = make_lexicons(sentiment={"good": 2}, negations={"not"})
        assert sentiment_scores(("not", "good"), lex) == (1, -2)

    def test_negation_window_is_two(self):
        lex = make_lexicons(sentiment={"good": 2}, negations={"not"})
        assert sentiment_scores(("not", "so", "good"), lex) == (1, -2)
        assert sentiment_scores(("not", "a", "b", "good"), lex) == (2, -1)

    def test_booster_raises_magnitude(self):
        lex = make_lexicons(sentiment={"good": 2}, boosters={"very": 1})
        assert sentiment_scores(("very", "good"), lex) == (3, -1)

    def test_downtoner_floors_at_one(self):
        lex = make_lexicons(sentiment={"fine": 1}, boosters={"slightly": -1})
        assert sentiment_scores(("slightly", "fine"), lex) == (1, -1)

    def test_clamped_to_five(self):
        lex = make_lexicons(sentiment={"awesome": 5}, boosters={"very": 1})
        assert sentiment_scores(("very", "awesome"), lex) == (5, -1)

    def test_case_insensitive(self):
        lex = make_lexicons(sentiment={"good": 2}, boosters={"very": 1}, negations={"not"})
        upper, lower = count_texts(["NOT Very GOOD", "not very good"], lex).aux
        assert upper.tolist() == lower.tolist() and upper[2] == -3.0

    def test_strongest_of_each_sign(self):
        lex = make_lexicons(sentiment={"good": 2, "great": 3, "bad": -2})
        assert sentiment_scores(("good", "bad", "great"), lex) == (3, -2)

    @given(
        st.lists(
            st.sampled_from(["good", "bad", "very", "not", "word", "awesome", "awful"]),
            max_size=15,
        )
    )
    @settings(max_examples=100)
    def test_output_ranges(self, tokens):
        lex = make_lexicons(
            sentiment={"good": 2, "bad": -2, "awesome": 5, "awful": -5},
            boosters={"very": 1},
            negations={"not"},
        )
        pos, neg = sentiment_scores(tuple(tokens), lex)
        assert 1 <= pos <= 5
        assert -5 <= neg <= -1


class TestUncertainty:
    def test_no_cue_is_certain(self):
        assert uncertainty_score(("plain", "words"), EMPTY_LEXICONS) == 1.0

    def test_single_cue(self):
        lex = make_lexicons(modality={"maybe": 0.0})
        assert uncertainty_score(("maybe",), lex) == 0.0

    def test_mean_of_cues(self):
        lex = make_lexicons(modality={"maybe": 0.0, "certainly": 1.0})
        assert uncertainty_score(("maybe", "certainly"), lex) == 0.5

    def test_case_insensitive(self):
        lex = make_lexicons(modality={"maybe": 0.0, "certainly": 1.0})
        upper, lower = count_texts(["MAYBE Certainly", "maybe certainly"], lex).aux
        assert upper.tolist() == lower.tolist() and upper[3] == 0.5


def _left_to_right(values):
    acc = 0.0
    for x in values:
        acc += x
    return acc


# Cancellation where a compensated sum (math.fsum; sum() from Python 3.12)
# keeps the small terms that adding left to right loses.
LONG_SUM = [(-1.0) ** i * 10.0 ** (i % 23 - 11) for i in range(2000)]


@pytest.mark.parametrize("values", [[], [0.1], [1.0, 1e-16, -1.0], LONG_SUM],
                         ids=["empty", "one", "cancel", "long"])
def test_float_sums_add_left_to_right(values):
    assert _added(values).hex() == _left_to_right(values).hex()
    if len(values) > 1:
        assert _added(values) != math.fsum(values)


@given(st.lists(st.floats(allow_nan=False), max_size=60))
def test_float_sums_equal_the_left_to_right_oracle(values):
    assert _added(iter(values)).hex() == _left_to_right(values).hex()


def _row_sum_case(name):
    """(indptr, values) of one ``row_sums`` case."""
    rng = np.random.default_rng(list(name.encode()))
    if name == "negative zero":
        # The loop adds -0.0 to 0.0 and keeps 0.0, also for the widest row.
        rows = [[-0.0], [-0.0, -0.0], [1.0, -1.0], [-0.0, 2.5, -0.0], [5e-324, -0.0],
                [-0.0] * 4]
        lengths = [len(row) for row in rows]
        values = np.array([x for row in rows for x in row])
    else:
        lengths = {
            "empty matrix": [],
            "empty rows": [0, 3, 0, 0, 2, 0],
            "one entry": [1] * 9,
            # Shortest first, these fill several grids of _GRID_CELLS cells.
            "several grids": rng.integers(0, 400, 1000),
            # The last row is all -0.0, in a grid of its own.
            "longer than a grid": [3, features._GRID_CELLS + 500, 0, 7, features._GRID_CELLS],
        }[name]
        n = int(np.sum(lengths))
        # Magnitudes 24 decades apart, so the order of adding shows.
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        values[rng.random(n) < 0.05] = -0.0
        if name == "longer than a grid":
            values[-lengths[-1]:] = -0.0
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]), values


@pytest.mark.parametrize("name", ["empty matrix", "empty rows", "one entry", "negative zero",
                                  "several grids", "longer than a grid"])
def test_row_sums_add_each_row_left_to_right(monkeypatch, name):
    # Python 3.12's sum() compensates, as math.fsum does; nothing may use it.
    monkeypatch.setattr(builtins, "sum", math.fsum)
    indptr, values = _row_sum_case(name)
    expected = [_left_to_right(values[a:b].tolist())
                for a, b in zip(indptr.tolist(), indptr[1:].tolist())]
    got = row_sums(indptr, values)
    assert got.dtype == np.float64
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]


def _slot_sum_grids(name):
    """Grids of one ``slot_sums`` case, with values 24 decades apart and some ±0.0."""
    rng = np.random.default_rng(list(name.encode()))

    def values(*shape):
        n = math.prod(shape)
        out = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        out[rng.random(n) < 0.1] = -0.0
        out[rng.random(n) < 0.05] = 0.0
        return out.reshape(shape)

    def width():
        return int(rng.integers(0, 300))

    if name == "contiguous":
        return [values(width(), int(rng.integers(1, 25)), int(rng.integers(1, 7)))
                for _ in range(60)] + [values(width(), int(rng.integers(2, 25)))
                                       for _ in range(20)]
    if name == "transposed view":
        # numpy may run a view's slot axis innermost, which it sums pairwise.
        return [values(int(rng.integers(2, 25)), 9 + width()).T for _ in range(40)] + [
            values(int(rng.integers(1, 7)), int(rng.integers(1, 25)), 9 + width()
                   ).transpose(2, 1, 0) for _ in range(40)]
    if name == "one cell per slot":
        # One document and one extractor, as vectorize lays out a row: the
        # slot axis is then the contiguous one, which numpy sums pairwise.
        return ([values(9 + width(), 1, 1) for _ in range(40)]
                + [values(9 + width(), 1) for _ in range(20)] + [values(9 + width())])
    if name == "negative zero":
        # The loop adds -0.0 to 0.0 and keeps 0.0.
        return [np.full((w, 2, 3), -0.0) for w in (1, 2, 40)] + [np.full((1, 1, 1), -0.0)]
    return [np.zeros((0, 4, 3)), np.zeros((0, 1, 1))]     # "no slots"


@pytest.mark.parametrize("name", ["contiguous", "transposed view", "one cell per slot",
                                  "negative zero", "no slots"])
def test_slot_sums_add_each_cell_left_to_right(monkeypatch, name):
    # Python 3.12's sum() compensates, as math.fsum does; nothing may use it.
    monkeypatch.setattr(builtins, "sum", math.fsum)
    for grid in _slot_sum_grids(name):
        got = slot_sums(grid)
        assert got.shape == grid.shape[1:] and got.dtype == np.float64
        cells = grid.reshape(len(grid), math.prod(grid.shape[1:])).T.tolist()
        expected = [_left_to_right(cell) for cell in cells] if len(grid) else [0.0] * len(cells)
        assert [x.hex() for x in got.reshape(-1).tolist()] == [x.hex() for x in expected]


# Category words: "glad" is planted, "dread" sometimes, "furious" never, so
# a fold can have categories with hits and with zero df.  No politeness cue
# exists, so the politeness score's stddev is always zero.
FOLD_LEXICONS = make_lexicons(
    categories={"joy": frozenset({"glad"}), "fear": frozenset({"dread"}),
                "anger": frozenset({"furious"})},
    sentiment={"good": 2, "bad": -3}, negations=("not",), modality={"maybe": 0.5},
)
FOLD_WORDS = ["a", "b", "c", "d", "glad", "dread", "good", "bad", "not", "maybe"]


@st.composite
def fold_cases(draw):
    texts = draw(st.lists(st.lists(st.sampled_from(FOLD_WORDS), max_size=6).map(" ".join),
                          min_size=1, max_size=12))
    rows = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=len(texts)))
    return texts, rows, draw(st.integers(1, 3))


@given(fold_cases())
@example((["a b", "a", "", "b c"], [0, 1, 2, 3], 2))   # df == min_df, an empty document
@example((["a", "b", "glad c", "good"], [0, 1, 2], 3))  # no n-gram reaches min_df
@example((["glad a", "b", "dread"], [0, 1], 1))         # "dread" only outside the fold
@example((["", ""], [1], 1))                            # nothing but empty documents
@settings(max_examples=300, deadline=None)
def test_fold_stack_equals_fit_then_transform_byte_for_byte(case):
    texts, rows, min_df = case
    counts = count_texts(texts, FOLD_LEXICONS)
    fold = counts.take(rows)
    stack = ExtractorStack.fitted_on(fold, min_df)
    assert stack.terms is counts.terms and len(stack) == 1
    expected = transform_counts(counts, fit_counts(fold, min_df))
    got = stacked_transform(counts, stack)
    assert got.dimension == expected.dimension
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


class TestAssemble:
    def _fitted(self):
        lex = make_lexicons(
            categories={"joy": frozenset({"glad"})},
            politeness={("please",): 1.0},
            sentiment={"good": 2, "bad": -2},
            modality={"maybe": 0.0},
        )
        train = streams(
            ["good", "stuff", "please"],
            ["bad", "stuff", "maybe"],
            ["glad", "good", "stuff"],
        )
        return fit(train, lex, min_df=1)

    def test_layout_offsets(self):
        fitted = self._fitted()
        names = fitted.feature_names()
        v = len(fitted.vocabulary)
        assert names[:v] == list(fitted.vocabulary.terms)
        assert names[v:v + 1] == ["category:joy"]
        assert names[v + 1:] == list(AUX_FEATURES)
        assert names.index("uncertainty") == v + 1 + 3
        assert fitted.dimension == len(names) == v + 1 + len(AUX_FEATURES)

    def test_indices_strictly_increasing_and_bounded(self):
        fitted = self._fitted()
        vec = assemble(TokenStream(("good", "glad", "please", "maybe")), fitted)
        idx = vec.indices
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert vec.n_rows == 1
        assert idx[-1] < vec.dimension

    def test_empty_doc_has_only_standardized_aux(self):
        fitted = self._fitted()
        vec = assemble(TokenStream(()), fitted)
        v, k = len(fitted.vocabulary), len(fitted.categories)
        defaults = (0.5, 1.0, -1.0, 1.0)
        expected = {}
        for slot, default in enumerate(defaults):
            std = fitted.aux_std[slot]
            if std > 0:
                z = (default - fitted.aux_mean[slot]) / std
                if z != 0:
                    expected[v + k + slot] = z
        assert dict(row_pairs(vec)) == pytest.approx(expected)

    def test_deterministic(self):
        fitted = self._fitted()
        doc = TokenStream(("good", "glad", "please"))
        a, b = assemble(doc, fitted), assemble(doc, fitted)
        assert row_pairs(a) == row_pairs(b)

    def test_sparsity_bound(self):
        fitted = self._fitted()
        doc = TokenStream(("good", "stuff", "glad"))
        vec = assemble(doc, fitted)
        unigrams, bigrams = len(doc), max(0, len(doc) - 1)
        assert vec.indices.size <= unigrams + bigrams + len(fitted.categories) + 4

    def test_zero_std_feature_emitted_as_zero(self):
        # Identical training docs give stddev 0 on every auxiliary.
        fitted = fit(streams(["a", "b"], ["a", "b"]), EMPTY_LEXICONS, min_df=1)
        assert all(s == 0.0 for s in fitted.aux_std)
        vec = assemble(TokenStream(("a",)), fitted)
        assert all(i < len(fitted.vocabulary) for i, _ in row_pairs(vec))


class TestExtractorSerialization:
    """The extractor payload a bundle stores, through a JSON round trip as in a bundle file."""

    @staticmethod
    def _payload(fitted):
        """A one-emotion bundle around ``fitted``, as its file holds it."""
        model = EmotionModel("joy", fitted, LinearModel(np.zeros(fitted.dimension + 1), L1_HINGE),
                             chosen_C=1.0, cv_accuracy=0.5, split_seed=0)
        bundle = ModelBundle(("joy",), {"joy": model}, master_seed=0, config={})
        return json.loads(json.dumps(bundle_to_dict(bundle)))

    def test_round_trip_identical_vectors(self):
        fitted = TestAssemble()._fitted()
        loaded = bundle_from_dict(self._payload(fitted)).models["joy"].extractor
        probe = ["good glad please maybe", "bad news", "", "glad glad ok :)"]
        for text in probe:
            assert row_pairs(fitted.vectorize(text)) == row_pairs(loaded.vectorize(text))

    def test_unknown_version_rejected(self):
        payload = self._payload(TestAssemble()._fitted())
        payload["models"]["joy"]["extractor"]["version"] = "99"
        with pytest.raises(IncompatibleModel):
            bundle_from_dict(payload)

    def test_truncated_payload_rejected(self):
        payload = self._payload(TestAssemble()._fitted())
        extractor = payload["models"]["joy"]["extractor"]
        kept = list(extractor)[: len(extractor) // 2]      # the first half, in written order
        payload["models"]["joy"]["extractor"] = {key: extractor[key] for key in kept}
        with pytest.raises(ParseError, match="malformed extractor payload"):
            bundle_from_dict(payload)
