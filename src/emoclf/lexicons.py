"""Lexicon resources backing the auxiliary lexical features.

Four scorer inventories plus the sentiment modifiers, all plain UTF-8 text and
user-replaceable:

* emotion categories  — ``category<TAB>word`` (one pair per line)
* politeness cues     — ``phrase<TAB>weight`` (phrases may span words)
* sentiment strengths — ``word<TAB>integer`` in [-5,-1] or [1,5]
* modality cues       — ``word<TAB>weight`` in [-1,1]
* boosters            — ``word<TAB>+1|-1`` (intensify / tone down)
* negations           — one word per line

The shipped defaults are small curated lists meant to be useful out of the
box; swap in bigger inventories with the CLI lexicon flags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping

from .errors import LexiconError

_WORD_RE = re.compile(r"\S+\Z")

EMOTION_LEXICON_FILE = "emotion_categories.txt"
POLITENESS_FILE = "politeness.txt"
SENTIMENT_FILE = "sentiment.txt"
BOOSTERS_FILE = "boosters.txt"
NEGATIONS_FILE = "negations.txt"
MODALITY_FILE = "modality.txt"
EMOTICONS_FILE = "emoticons.txt"

LEXICON_FILES = (
    EMOTION_LEXICON_FILE,
    POLITENESS_FILE,
    SENTIMENT_FILE,
    BOOSTERS_FILE,
    NEGATIONS_FILE,
    MODALITY_FILE,
)


@dataclass(frozen=True)
class LexiconSet:
    """Frozen inventories consumed by the auxiliary feature scorers."""

    emotion_categories: Mapping[str, frozenset[str]]
    politeness_cues: Mapping[tuple[str, ...], float]
    sentiment: Mapping[str, int]
    boosters: Mapping[str, int]
    negations: frozenset[str]
    modality_cues: Mapping[str, float]

    def __post_init__(self):
        for word, strength in self.sentiment.items():
            if not isinstance(strength, int) or strength == 0 or abs(strength) > 5:
                raise LexiconError(
                    f"sentiment strength for {word!r} must be a nonzero integer "
                    f"in [-5, 5], got {strength!r}"
                )
        for word, shift in self.boosters.items():
            if shift not in (-1, 1):
                raise LexiconError(f"booster shift for {word!r} must be +1 or -1")
        for word, weight in self.modality_cues.items():
            if not -1.0 <= weight <= 1.0:
                raise LexiconError(f"modality weight for {word!r} outside [-1, 1]")

    @cached_property
    def politeness_lengths(self) -> Mapping[str, int]:
        """First word of the politeness cues -> word count of its longest cue."""
        lengths: dict[str, int] = {}
        for phrase in self.politeness_cues:
            if phrase:
                lengths[phrase[0]] = max(lengths.get(phrase[0], 0), len(phrase))
        return lengths


def _iter_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _split_tab(line: str, lineno: int, what: str) -> tuple[str, str]:
    left, sep, right = line.partition("\t")
    if not sep or not left.strip() or not right.strip():
        raise LexiconError(f"{what} line {lineno}: expected two tab-separated fields")
    return left.strip(), right.strip()


def parse_emotion_lexicon(text: str) -> dict[str, frozenset[str]]:
    sets: dict[str, set[str]] = {}
    for lineno, line in _iter_lines(text):
        category, word = _split_tab(line, lineno, "emotion lexicon")
        sets.setdefault(category.lower(), set()).add(word.lower())
    return {category: frozenset(words) for category, words in sets.items()}


def parse_politeness(text: str) -> dict[tuple[str, ...], float]:
    cues: dict[tuple[str, ...], float] = {}
    for lineno, line in _iter_lines(text):
        phrase, weight = _split_tab(line, lineno, "politeness lexicon")
        try:
            cues[tuple(phrase.lower().split())] = float(weight)
        except ValueError:
            raise LexiconError(f"politeness line {lineno}: bad weight {weight!r}") from None
    return cues


def parse_sentiment(text: str) -> dict[str, int]:
    strengths: dict[str, int] = {}
    for lineno, line in _iter_lines(text):
        word, value = _split_tab(line, lineno, "sentiment lexicon")
        try:
            strengths[word.lower()] = int(value)
        except ValueError:
            raise LexiconError(f"sentiment line {lineno}: bad strength {value!r}") from None
    return strengths


def parse_boosters(text: str) -> dict[str, int]:
    shifts: dict[str, int] = {}
    for lineno, line in _iter_lines(text):
        word, value = _split_tab(line, lineno, "booster lexicon")
        try:
            shifts[word.lower()] = int(value)
        except ValueError:
            raise LexiconError(f"booster line {lineno}: bad shift {value!r}") from None
    return shifts


def parse_negations(text: str) -> frozenset[str]:
    words = set()
    for lineno, line in _iter_lines(text):
        if not _WORD_RE.match(line):
            raise LexiconError(f"negation line {lineno}: expected a single word")
        words.add(line.lower())
    return frozenset(words)


def parse_modality(text: str) -> dict[str, float]:
    cues: dict[str, float] = {}
    for lineno, line in _iter_lines(text):
        word, weight = _split_tab(line, lineno, "modality lexicon")
        try:
            cues[word.lower()] = float(weight)
        except ValueError:
            raise LexiconError(f"modality line {lineno}: bad weight {weight!r}") from None
    return cues


def _read(directory, name: str) -> str:
    path = Path(directory) / name
    try:
        return path.read_text("utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon file {path}: {exc}") from exc


def _lexicon_set(read: Callable[[str], str]) -> LexiconSet:
    """Parse the six inventories; ``read`` maps a file name to its text."""
    return LexiconSet(
        emotion_categories=parse_emotion_lexicon(read(EMOTION_LEXICON_FILE)),
        politeness_cues=parse_politeness(read(POLITENESS_FILE)),
        sentiment=parse_sentiment(read(SENTIMENT_FILE)),
        boosters=parse_boosters(read(BOOSTERS_FILE)),
        negations=parse_negations(read(NEGATIONS_FILE)),
        modality_cues=parse_modality(read(MODALITY_FILE)),
    )


def load_lexicons(directory) -> LexiconSet:
    """Load all six scorer inventories from one directory (fixed file names)."""
    return _lexicon_set(lambda name: _read(directory, name))


@lru_cache(maxsize=1)
def default_lexicons() -> LexiconSet:
    data = resources.files("emoclf.data")
    return _lexicon_set(lambda name: data.joinpath(name).read_text("utf-8"))
