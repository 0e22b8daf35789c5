import pytest

from emoclf.errors import LexiconError
from emoclf.lexicons import (
    LEXICON_FILES,
    LexiconSet,
    default_emoticons,
    default_lexicons,
    load_emoticons,
    load_lexicons,
    parse_boosters,
    parse_emoticons,
    parse_emotion_lexicon,
    parse_modality,
    parse_negations,
    parse_politeness,
    parse_sentiment,
)


class TestParsers:
    def test_emotion_lexicon(self):
        table = parse_emotion_lexicon("joy\tglad\nJOY\tHappy\nfear\tscared\n# note\n")
        assert table == {
            "joy": frozenset({"glad", "happy"}),
            "fear": frozenset({"scared"}),
        }

    def test_politeness_phrases(self):
        cues = parse_politeness("thank you\t1.0\nplease\t0.5\n")
        assert cues[("thank", "you")] == 1.0
        assert cues[("please",)] == 0.5

    def test_sentiment(self):
        assert parse_sentiment("good\t2\nbad\t-3\n") == {"good": 2, "bad": -3}

    def test_sentiment_bad_value(self):
        with pytest.raises(LexiconError):
            parse_sentiment("good\tstrong\n")

    def test_boosters(self):
        assert parse_boosters("very\t1\nslightly\t-1\n") == {"very": 1, "slightly": -1}

    def test_negations(self):
        assert parse_negations("not\nNever\n") == frozenset({"not", "never"})

    def test_modality(self):
        assert parse_modality("maybe\t0.0\nmight\t-0.2\n") == {
            "maybe": 0.0,
            "might": -0.2,
        }

    def test_missing_tab_rejected(self):
        with pytest.raises(LexiconError):
            parse_sentiment("good 2\n")

    def test_emoticons_keep_case(self):
        assert parse_emoticons(":D\n:d\n# note\n\n  :)  \n") == frozenset({":D", ":d", ":)"})

    @pytest.mark.parametrize("parse, what", [(parse_negations, "negation"),
                                             (parse_emoticons, "emoticon")])
    def test_word_list_line_with_two_words_rejected(self, parse, what):
        with pytest.raises(LexiconError, match=f"^{what} line 3: expected a single word$"):
            parse("# header\nnot\n:) :(\n")


class TestLexiconSetValidation:
    def test_zero_sentiment_strength_rejected(self):
        with pytest.raises(LexiconError):
            LexiconSet({}, {}, {"meh": 0}, {}, frozenset(), {})

    def test_out_of_range_strength_rejected(self):
        with pytest.raises(LexiconError):
            LexiconSet({}, {}, {"wild": 9}, {}, frozenset(), {})

    def test_bad_booster_rejected(self):
        with pytest.raises(LexiconError):
            LexiconSet({}, {}, {}, {"very": 2}, frozenset(), {})

    def test_modality_range_checked(self):
        with pytest.raises(LexiconError):
            LexiconSet({}, {}, {}, {}, frozenset(), {"sure": 2.0})

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_politeness_weight_rejected(self, weight):
        with pytest.raises(LexiconError, match="'thank you'"):
            LexiconSet({}, {("thank", "you"): float(weight)}, {}, {}, frozenset(), {})
        cues = parse_politeness(f"please\t1.0\nthank you\t{weight}\n")
        with pytest.raises(LexiconError, match="'thank you'"):
            LexiconSet({}, cues, {}, {}, frozenset(), {})


class TestDefaults:
    def test_defaults_load_and_validate(self):
        lex = default_lexicons()
        assert set(lex.emotion_categories) == {
            "love", "joy", "anger", "sadness", "fear", "surprise",
        }
        assert lex.sentiment["love"] == 3
        assert lex.modality_cues["maybe"] == 0.0
        assert lex.modality_cues["certainly"] == 1.0
        assert lex.politeness_cues[("please",)] == 1.0
        assert "not" in lex.negations

    def test_directory_override_round_trips(self, tmp_path):
        import importlib.resources as resources

        data = resources.files("emoclf.data")
        for name in LEXICON_FILES:
            (tmp_path / name).write_text(
                data.joinpath(name).read_text("utf-8"), encoding="utf-8"
            )
        assert load_lexicons(tmp_path) == default_lexicons()

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(LexiconError):
            load_lexicons(tmp_path / "absent")

    def test_emoticon_file_round_trips(self, tmp_path):
        import importlib.resources as resources

        path = tmp_path / "emoticons.txt"
        path.write_text(resources.files("emoclf.data").joinpath("emoticons.txt")
                        .read_text("utf-8"), encoding="utf-8")
        assert load_emoticons(path) == default_emoticons()

    def test_missing_emoticon_file_rejected(self, tmp_path):
        with pytest.raises(LexiconError, match="absent.txt"):
            load_emoticons(tmp_path / "absent.txt")
