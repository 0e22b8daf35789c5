import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoclf.errors import ContractViolation
from emoclf.textprep import (
    TokenStream,
    default_emoticons,
    ngram_occurrences,
    ngram_terms,
    strip_noise,
    tokenize,
)


class TestStripNoise:
    def test_code_span_removed_with_contents(self):
        assert strip_noise("see <code>x=1</code> thanks") == "see   thanks"

    def test_url_removed(self):
        assert strip_noise("read https://a.io/p?q=1 now") == "read   now"

    def test_clean_text_untouched(self):
        assert strip_noise("no markup here") == "no markup here"

    def test_www_url(self):
        assert "www" not in strip_noise("go to www.example.com/page today")

    def test_html_tags(self):
        assert strip_noise("<p>hello <b>world</b></p>") == " hello  world  "

    def test_fenced_code_block(self):
        text = "before ```\nint x = 1;\n``` after"
        assert strip_noise(text) == "before   after"

    def test_indented_code_line(self):
        text = "words\n    x = compute(1, 2)\nmore words"
        assert strip_noise(text) == "words\n \nmore words"

    def test_unclosed_code_tag_degrades_to_tag_removal(self):
        assert strip_noise("<code>orphan text") == " orphan text"

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=300))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = strip_noise(text)
        assert strip_noise(once) == once

    @given(
        st.lists(
            st.sampled_from(
                ["plain", "<b>", "</b>", "<code>x</code>", "http://a.io/x",
                 "www.b.com", "```c```", "word,", "    indented code", "\n"]
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_idempotent_on_markup_soup(self, pieces):
        text = " ".join(pieces)
        once = strip_noise(text)
        assert strip_noise(once) == once


class TestTokenize:
    def test_edge_punctuation_separated(self):
        assert tokenize("great, thanks!").tokens == ("great", ",", "thanks", "!")

    def test_emoticon_kept_whole(self):
        assert tokenize("I love it :)").tokens == ("I", "love", "it", ":)")

    def test_letter_bearing_emoticon_kept_whole(self):
        assert tokenize("nice :D really").tokens == ("nice", ":D", "really")

    def test_empty_text(self):
        assert tokenize("").tokens == ()

    def test_contraction_kept_whole(self):
        assert tokenize("don't stop").tokens == ("don't", "stop")

    def test_numbers_kept_whole(self):
        assert tokenize("pi is 3.14, ok?").tokens == ("pi", "is", "3.14", ",", "ok", "?")

    def test_wrapping_punctuation(self):
        assert tokenize("(works)").tokens == ("(", "works", ")")

    def test_trailing_emoticon_peeled_off_word(self):
        assert tokenize("fixed:) now").tokens == ("fixed", ":)", "now")

    def test_case_preserved(self):
        assert tokenize("THIS Is Great").tokens == ("THIS", "Is", "Great")

    def test_custom_emoticon_table(self):
        assert tokenize("odd &| here", emoticons=frozenset({"&|"})).tokens == (
            "odd", "&|", "here",
        )

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_tokens_partition_non_whitespace_chars(self, text):
        stream = tokenize(text)
        produced = sum(len(token) for token in stream.tokens)
        source = sum(1 for ch in text if not ch.isspace())
        assert produced == source

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_no_empty_or_spacey_tokens(self, text):
        for token in tokenize(text):
            assert token
            assert not any(ch.isspace() for ch in token)


class TestTokenStream:
    def test_rejects_empty_token(self):
        with pytest.raises(ContractViolation):
            TokenStream(("ok", ""))

    def test_rejects_whitespace_token(self):
        with pytest.raises(ContractViolation):
            TokenStream(("a b",))

    def test_lowered_view(self):
        assert TokenStream(("Great", "ANSWER")).lowered == ("great", "answer")


class TestNgrams:
    def test_unigrams_and_bigram(self):
        stream = TokenStream(("Great", "answer"))
        assert ngram_terms(stream) == ["great", "answer", "great answer"]

    def test_single_token_has_no_bigram(self):
        assert ngram_terms(TokenStream(("ok",))) == ["ok"]

    def test_bigrams_do_not_cross_punctuation(self):
        stream = TokenStream(("so", ",", "good"))
        assert ngram_terms(stream) == ["so", "good"]

    def test_occurrences_keep_duplicates(self):
        stream = TokenStream(("a", "a"))
        assert ngram_occurrences(stream) == ["a", "a", "a a"]

    def test_terms_deduplicate_in_first_occurrence_order(self):
        stream = TokenStream(("b", "a", "b"))
        assert ngram_terms(stream) == ["b", "a", "b a", "a b"]

    def test_emoticons_excluded_from_terms(self):
        stream = tokenize("nice :) work")
        assert ngram_terms(stream) == ["nice", "work"]

    def test_inflected_forms_stay_distinct(self):
        stream = TokenStream(("loved", "love"))
        terms = ngram_terms(stream)
        assert "loved" in terms and "love" in terms

    @given(st.lists(st.sampled_from(["a", "b", "cc", ",", "!", "d1"]), max_size=30))
    @settings(max_examples=100)
    def test_counts_bounded_by_stream_length(self, tokens):
        stream = TokenStream(tuple(tokens))
        occurrences = ngram_occurrences(stream)
        n_unigrams = sum(" " not in term for term in occurrences)
        unigrams, bigrams = occurrences[:n_unigrams], occurrences[n_unigrams:]
        assert all(" " not in term for term in unigrams)          # unigrams come first
        assert all(term.count(" ") == 1 for term in bigrams)
        assert len(unigrams) <= len(stream)
        assert len(bigrams) <= max(0, len(stream) - 1)


def test_default_emoticon_table_is_sane():
    table = default_emoticons()
    assert ":)" in table and ":D" in table
    assert all(" " not in e for e in table)
