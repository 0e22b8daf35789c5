import functools
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strip_oracle import markup_soup, strip_noise_fixpoint, strip_noise_scan

from emoclf.errors import ContractViolation
from emoclf.lexicons import default_emoticons
from emoclf.textprep import strip_noise
from reference_features import TokenStream, ngram_occurrences, ngram_terms, tokenize


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


# Well-formed markup, one construct at a time, for comparison with the oracle.
_WORDS = st.sampled_from(["thanks", "works", "value", "zyblor", "don't", "3.14", "foo_bar"])
_EMOTICONS = st.sampled_from([":)", ":(", ":D", ";)", ":-(", ":P", "^_^"])
_CODE_TEXT = st.lists(
    st.sampled_from(["x", "=", "f(1);", "y", "\n", "return", "i++"]), min_size=1, max_size=6
).map(" ".join)
_URLS = st.builds(
    lambda scheme, host, path: f"{scheme}://{host}{path}",
    st.sampled_from(["http", "https", "ftp", "git+ssh"]),
    st.sampled_from(["a.io", "example.org", "x.y-z.com"]),
    st.sampled_from(["", "/", "/p?q=1", "/q/42#a7"]),
)
_WWW_LINKS = st.builds(
    lambda host, path: f"www.{host}{path}",
    st.sampled_from(["b.com", "example.com"]), st.sampled_from(["", "/page", "/p?x=1"]),
)
_TAGS = st.one_of(
    st.sampled_from(["<b>", "</b>", "<p>", "</p>", "<br/>", '<div class="post">', "</div>"]),
    st.builds(lambda depth, name: "<" * depth + name + ">" * depth,
              st.integers(1, 4), st.sampled_from(["a", "b x=1"])),
)
_CODE_SPANS = st.builds(
    lambda opener, body, closer: f"{opener}{body}{closer}",
    st.sampled_from(["<code>", "<CODE>", '<code class="py">', "<code\nlang=c>"]),
    _CODE_TEXT, st.sampled_from(["</code>", "</CODE>", "</Code>"]),
)
_CONSTRUCTS = st.one_of(
    _WORDS, _EMOTICONS, _TAGS, _CODE_SPANS, _URLS, _WWW_LINKS,
    _CODE_TEXT.map(lambda body: f"```{body}```"),
    st.builds(lambda url, word: f'<a href="{url}">{word}</a>', _URLS, _WORDS),
    st.builds(lambda indent, body: f"\n{indent}{body}\n",
              st.sampled_from(["    ", "      "]), _CODE_TEXT.map(lambda b: b.replace("\n", " "))),
)
_WELL_FORMED = st.lists(
    st.tuples(_CONSTRUCTS, st.sampled_from([" ", "\n", "  "])), max_size=12
).map(lambda parts: "".join(piece + gap for piece, gap in parts))


@pytest.fixture(scope="module")
def workload_inputs():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    return inputs


@pytest.fixture(scope="module")
def benchmark_texts(workload_inputs):
    """The gold corpus and classify stream texts of a workload's seed."""

    @functools.cache
    def texts(workload, seed):
        spec = workload_inputs.WORKLOADS[workload]
        gold = [text for _, text, _ in workload_inputs.gold_corpus(spec, seed)]
        return gold + [text for _, text in workload_inputs.classify_stream(spec, seed)]

    return texts


class TestStripAgainstOracle:
    """The one-pass scan against the regex fixpoint it replaced (tests/strip_oracle.py)."""

    @given(_WELL_FORMED)
    @settings(max_examples=400, deadline=None)
    def test_same_words_as_the_fixpoint_on_well_formed_markup(self, text):
        once = strip_noise(text)
        assert once.split() == strip_noise_fixpoint(text).split()
        assert strip_noise(once) == once

    @pytest.mark.parametrize("workload", ["train-c07", "multi-6emo", "forum-markup"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byte_equal_to_the_fixpoint_on_benchmark_texts(self, benchmark_texts, workload, seed):
        texts = benchmark_texts(workload, seed)
        assert [strip_noise(t) for t in texts] == [strip_noise_fixpoint(t) for t in texts]

    def test_documented_whitespace_difference(self):
        # The fixpoint judged indentation before the nested tag was gone.
        text = "www.b.com/p <code>x=1</code> <<a>>"
        assert strip_noise_fixpoint(text) == " "
        assert strip_noise(text) == "     "


class TestStripAgainstScan:
    """strip_noise, which takes tag runs and bracket runs in one step each,
    against the scan that took one step per construct (tests/strip_oracle.py)."""

    @pytest.mark.parametrize("text", [
        "<p>a</p><b>b</b> c <i>d</i>",                         # a tag run
        "<p>\n    x</p>\n  <b>y</b>   z",                      # newlines inside a run
        "<b>x</b> <code>y</code> <i>z</i> <CODE>w</CODE>",     # code openers end a run
        "<code>a <code>b <b>c</b> <CODE>d",                    # ... until none has a closer
        "<b>ww</b>w<i>www.x</i> <b>:</b>: ``<i>``</i>`<b>```</b>```",
        "a:b <b>x</b>c:d ww.x http://a.io/<i>y</i> <b>z</b>",  # near misses and URLs
        "a <<<b c",
        "a >>> b <<x> y",
        "<<<a>>> <<b>>>> <<<c>> d >>",
        "<<a <> b>> c <> >",
        "\n    <<a <> b>> c",                                  # "<>" on an indented line
        "<b>a</b>\n    <i>b</i>\n  <p>c</p>   d",
        "<>1\n  <b><<<<``>>><<>>",                             # open tags after a run's first
        ">.<code<a\n  </b><code><>>>>",                        # line state after a run
    ])
    def test_byte_equal_on_runs_and_near_misses(self, text):
        assert strip_noise(text) == strip_noise_scan(text)

    def test_byte_equal_on_seeded_markup_soup(self):
        rng = random.Random(26)
        texts = [markup_soup(rng) for _ in range(30_000)]
        assert [strip_noise(t) for t in texts] == [strip_noise_scan(t) for t in texts]

    @pytest.mark.parametrize("workload", ["train-c07", "multi-6emo", "forum-markup"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byte_equal_on_benchmark_texts(self, benchmark_texts, workload, seed):
        texts = benchmark_texts(workload, seed)
        assert [strip_noise(t) for t in texts] == [strip_noise_scan(t) for t in texts]


class TestStripRules:
    def test_nested_brackets_collapse_to_one_space(self):
        assert strip_noise("a <<<<b>>>> c") == "a   c"

    def test_empty_brackets_end_open_tags(self):
        text = "if (a < b) { xs = new ArrayList<>(); } c > d"
        assert strip_noise(text) == text

    def test_stray_close_bracket_stays(self):
        assert strip_noise("a > b <i>c</i>") == "a > b  c "

    def test_empty_brackets_on_an_indented_line_go_with_the_line(self):
        # The line is blanked out, so the outer tag closes across it.
        text = "<a\n    <>\nb>"
        assert strip_noise(text) == " "
        assert strip_noise_fixpoint(text) == " "

    def test_fence_opened_inside_a_tag_runs_past_its_bracket(self):
        assert strip_noise("<a ```> b``` c") == "<a   c"

    def test_code_span_closes_at_the_first_closer(self):
        assert strip_noise("<code>a</code> b </code>") == "  b  "

    def test_url_scheme_found_by_walking_back(self):
        assert strip_noise("go x.www.a://b now") == "go   now"
        assert strip_noise("1a.b://x") == "1a. "
        assert strip_noise("foo_bar://x") == "foo_bar://x"

    def test_www_needs_a_word_boundary_and_an_address(self):
        assert strip_noise("awww.b www. c") == "awww.b www. c"

    def test_url_address_stops_at_a_fence_that_pairs(self):
        assert strip_noise("http://x```code``` y") == "   y"
        assert strip_noise("http://x``` y") == "  y"

    def test_indentation_judged_after_removals(self):
        assert strip_noise("<p>    x = 1\nkeep") == " \nkeep"
        assert strip_noise("\n   <b>x") == "\n "     # three spaces and a removed tag
        assert strip_noise("\n  <b>x") == "\n   x"

    def test_unpaired_fence_stays(self):
        assert strip_noise("a ```b ``` c ```d") == "a   c ```d"


# Hostile shapes, 1 MiB each.  A quadratic path takes minutes at this size;
# the linear scan takes a few seconds at most.
_HOSTILE = {
    "unclosed code spans": lambda n: "<code>x " * (n // 8),
    "nested brackets": lambda n: "<" * (n // 2) + "a" + ">" * (n // 2),
    "scheme-like run": lambda n: "a." * (n // 2),
    "unclosed tags": lambda n: "<a" * (n // 2),
    "odd fence count": lambda n: "```" * ((n // 3) | 1),
    "www run": lambda n: "www." * (n // 4),
    "separators without a scheme": lambda n: "1://" * (n // 4),
    "indented lines": lambda n: "     x\n" * (n // 7),
    "tag runs": lambda n: "<b>x</b> " * (n // 9),
    "bracket runs": lambda n: ("<" * 50 + "a" + ">" * 50 + " ") * (n // 102),
    "close brackets": lambda n: ">" * n,
}


@pytest.mark.parametrize("family", sorted(_HOSTILE))
def test_hostile_megabyte_is_stripped_in_linear_time(family):
    text = _HOSTILE[family](1 << 20)
    started = time.perf_counter()
    once = strip_noise(text)
    assert time.perf_counter() - started < 10.0
    assert len(once) <= len(text)


@pytest.mark.parametrize("family", sorted(_HOSTILE))
def test_hostile_prefix_is_stripped_like_the_scan(family):
    text = _HOSTILE[family](1 << 20)[: 1 << 16]
    assert strip_noise(text) == strip_noise_scan(text)


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
