import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoclf.errors import ContractViolation, EmptyCorpus, IncompatibleModel, ParseError
from emoclf.features import (
    AUX_FEATURES,
    FeatureMatrix,
    assemble,
    emotion_category_block,
    extractor_from_dict,
    extractor_to_dict,
    fit,
    idf,
    ngram_block,
    politeness_score,
    sentiment_scores,
    uncertainty_score,
)
from emoclf.lexicons import LexiconSet
from emoclf.textprep import TokenStream


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
        m = FeatureMatrix.from_pairs([[(3, 1.0), (0, 2.0)], [(4, -1.0), (1, 5.0)]], 5)
        assert m.n_rows == 2 and m.dimension == 5
        assert row_pairs(m, 0) == [(0, 2.0), (3, 1.0)]
        assert row_pairs(m, 1) == [(1, 5.0), (4, -1.0)]

    def test_zero_values_dropped(self):
        assert row_pairs(FeatureMatrix.from_pairs([[(1, 0.0), (2, 3.0)]], 4)) == [(2, 3.0)]

    def test_out_of_range_rejected(self):
        for pairs in ([(5, 1.0)], [(-1, 1.0)]):
            with pytest.raises(ContractViolation, match="out of range"):
                FeatureMatrix.from_pairs([pairs], 5)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ContractViolation, match="strictly increasing"):
            FeatureMatrix.from_pairs([[(1, 1.0), (1, 2.0)]], 4)

    def test_empty_rows(self):
        m = FeatureMatrix.from_pairs([[], [(2, 1.0)], [(0, 0.0)]], 3)
        assert m.indptr.tolist() == [0, 0, 1, 1]
        assert row_pairs(m, 0) == row_pairs(m, 2) == []
        assert FeatureMatrix.from_pairs([], 3).n_rows == 0


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


class TestPoliteness:
    def test_empty_doc_neutral(self):
        assert politeness_score(TokenStream(()), EMPTY_LEXICONS) == 0.5

    def test_single_unit_cue(self):
        lex = make_lexicons(politeness={("please",): 1.0})
        score = politeness_score(TokenStream(("please",)), lex)
        assert score == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_cues_cancel(self):
        lex = make_lexicons(politeness={("please",): 1.0, ("rtfm",): -1.0})
        assert politeness_score(TokenStream(("please", "rtfm")), lex) == 0.5

    def test_longest_match_wins_and_does_not_overlap(self):
        lex = make_lexicons(politeness={("thank",): 0.5, ("thank", "you"): 2.0})
        score = politeness_score(TokenStream(("thank", "you")), lex)
        assert score == pytest.approx(1 / (1 + math.exp(-2.0)), abs=1e-12)

    def test_longest_match_wins_whatever_the_cue_order(self):
        lex = make_lexicons(politeness={("thank", "you"): 2.0, ("thank",): 0.5})
        score = politeness_score(TokenStream(("thank", "you")), lex)
        assert score == pytest.approx(1 / (1 + math.exp(-2.0)), abs=1e-12)

    def test_case_insensitive(self):
        lex = make_lexicons(politeness={("please",): 1.0})
        assert politeness_score(TokenStream(("PLEASE",)), lex) > 0.5

    @given(st.lists(st.sampled_from(["please", "rtfm", "word", "thank"]), max_size=12))
    @settings(max_examples=60)
    def test_range(self, tokens):
        lex = make_lexicons(politeness={("please",): 1.0, ("rtfm",): -1.0, ("thank",): 0.5})
        assert 0.0 < politeness_score(TokenStream(tuple(tokens)), lex) < 1.0


class TestSentiment:
    def test_empty_doc_neutral_defaults(self):
        assert sentiment_scores(TokenStream(()), EMPTY_LEXICONS) == (1, -1)

    def test_positive_word(self):
        lex = make_lexicons(sentiment={"love": 3})
        assert sentiment_scores(TokenStream(("love",)), lex) == (3, -1)

    def test_negation_flips(self):
        lex = make_lexicons(sentiment={"good": 2}, negations={"not"})
        assert sentiment_scores(TokenStream(("not", "good")), lex) == (1, -2)

    def test_negation_window_is_two(self):
        lex = make_lexicons(sentiment={"good": 2}, negations={"not"})
        assert sentiment_scores(TokenStream(("not", "so", "good")), lex) == (1, -2)
        assert sentiment_scores(TokenStream(("not", "a", "b", "good")), lex) == (2, -1)

    def test_booster_raises_magnitude(self):
        lex = make_lexicons(sentiment={"good": 2}, boosters={"very": 1})
        assert sentiment_scores(TokenStream(("very", "good")), lex) == (3, -1)

    def test_downtoner_floors_at_one(self):
        lex = make_lexicons(sentiment={"fine": 1}, boosters={"slightly": -1})
        assert sentiment_scores(TokenStream(("slightly", "fine")), lex) == (1, -1)

    def test_clamped_to_five(self):
        lex = make_lexicons(sentiment={"awesome": 5}, boosters={"very": 1})
        assert sentiment_scores(TokenStream(("very", "awesome")), lex) == (5, -1)

    def test_strongest_of_each_sign(self):
        lex = make_lexicons(sentiment={"good": 2, "great": 3, "bad": -2})
        assert sentiment_scores(TokenStream(("good", "bad", "great")), lex) == (3, -2)

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
        pos, neg = sentiment_scores(TokenStream(tuple(tokens)), lex)
        assert 1 <= pos <= 5
        assert -5 <= neg <= -1


class TestUncertainty:
    def test_no_cue_is_certain(self):
        assert uncertainty_score(TokenStream(("plain", "words")), EMPTY_LEXICONS) == 1.0

    def test_single_cue(self):
        lex = make_lexicons(modality={"maybe": 0.0})
        assert uncertainty_score(TokenStream(("maybe",)), lex) == 0.0

    def test_mean_of_cues(self):
        lex = make_lexicons(modality={"maybe": 0.0, "certainly": 1.0})
        assert uncertainty_score(TokenStream(("maybe", "certainly")), lex) == 0.5


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
        blocks = dict((name, (off, width)) for name, off, width in fitted.layout())
        v = len(fitted.vocabulary)
        assert blocks["ngrams"] == (0, v)
        assert blocks["categories"] == (v, 1)
        assert blocks["uncertainty"] == (v + 1 + 3, 1)
        assert fitted.dimension == v + 1 + len(AUX_FEATURES)

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

    def test_round_trip_identical_vectors(self):
        fitted = TestAssemble()._fitted()
        loaded = extractor_from_dict(json.loads(json.dumps(extractor_to_dict(fitted))))
        probe = ["good glad please maybe", "bad news", "", "glad glad ok :)"]
        for text in probe:
            assert row_pairs(fitted.vectorize(text)) == row_pairs(loaded.vectorize(text))

    def test_unknown_version_rejected(self):
        payload = extractor_to_dict(TestAssemble()._fitted())
        payload["version"] = "99"
        with pytest.raises(IncompatibleModel):
            extractor_from_dict(payload)

    def test_truncated_payload_rejected(self):
        payload = extractor_to_dict(TestAssemble()._fitted())
        kept = list(payload)[: len(payload) // 2]      # the first half, in written order
        with pytest.raises(ParseError, match="malformed extractor payload"):
            extractor_from_dict({key: payload[key] for key in kept})
