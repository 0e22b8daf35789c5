"""Noise stripping and tokenization ahead of feature extraction.

Raw corpus text (forum posts, issue comments) carries HTML tags, code
fragments, and URLs that add nothing but vocabulary noise.  ``strip_noise``
removes them; ``tokenize`` splits the remainder into surface tokens that keep
their case (the lexicon scorers want it) while ``ngram_terms`` exposes the
lowercased n-gram view.  No stemming or lemmatization happens anywhere:
inflected forms stay distinct vocabulary entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterator

from .errors import ContractViolation, LexiconError

# Applied in order, and the whole pass repeats until the text stops changing,
# which makes stripping idempotent even for nested or overlapping markup.
# Code spans run before bare-tag removal so their contents vanish with them;
# URLs run before tags so "<http://x>"-style links lose the address too.
_NOISE_PATTERNS = (
    re.compile(r"```.*?```", re.DOTALL),                            # fenced code
    re.compile(r"<code\b[^>]*>.*?</code>", re.IGNORECASE | re.DOTALL),
    re.compile(r"\b[A-Za-z][A-Za-z0-9+.\-]*://[^\s<>]+"),           # scheme://…
    re.compile(r"\bwww\.[^\s<>]+"),                                 # bare www.…
    re.compile(r"<[^<>]+>"),                                        # leftover tags
    re.compile(r"^[ ]{4,}\S.*$", re.MULTILINE),                     # indented code
)


def strip_noise(text: str) -> str:
    """Blank out HTML/XML tags, code fragments, and URLs.

    Each removed region becomes a single space; all other characters are left
    untouched, so surviving words keep their exact spelling and spacing.
    """
    while True:
        cleaned = text
        for pattern in _NOISE_PATTERNS:
            cleaned = pattern.sub(" ", cleaned)
        if cleaned == text:
            return cleaned
        text = cleaned


@dataclass(frozen=True)
class TokenStream:
    """Ordered surface tokens of one document, case preserved."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        # str.split() drops empty tokens and splits at exactly the characters
        # str.isspace() flags, so any bad token changes the round trip.
        if " ".join(self.tokens).split() != list(self.tokens):
            bad = next(t for t in self.tokens if not t or any(ch.isspace() for ch in t))
            raise ContractViolation(f"token {bad!r} is empty or contains whitespace")

    @cached_property
    def lowered(self) -> tuple[str, ...]:
        return tuple(token.lower() for token in self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)


def _is_punct(ch: str) -> bool:
    return not ch.isalnum()


def _split_chunk(chunk: str, emoticons: frozenset[str]) -> tuple[str, ...]:
    # Peel leading/trailing punctuation runs off a whitespace-delimited chunk.
    # Known emoticons survive whole; so do internal apostrophes (don't) and
    # internal punctuation (3.14, foo_bar).
    if chunk in emoticons:
        return (chunk,)
    i, j = 0, len(chunk)
    while i < j and _is_punct(chunk[i]):
        i += 1
    while j > i and _is_punct(chunk[j - 1]):
        j -= 1
    if i == j:  # pure punctuation that is not a known emoticon
        return (chunk,)
    parts = []
    if i > 0:
        parts.append(chunk[:i])
    parts.append(chunk[i:j])
    if j < len(chunk):
        parts.append(chunk[j:])
    return tuple(parts)


def tokenize(text: str, emoticons: frozenset[str] | None = None) -> TokenStream:
    """Split on whitespace, then peel edge punctuation into its own tokens.

    Emoticons from the table are kept whole even when they contain letters
    (``:D``); contractions keep their internal apostrophe; numbers survive
    intact because their punctuation is internal.
    """
    table = default_emoticons() if emoticons is None else emoticons
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk, table))
    return TokenStream(tuple(tokens))


def _bears_term(token: str) -> bool:
    return any(ch.isalnum() for ch in token)


def ngram_occurrences(stream: TokenStream) -> list[str]:
    """Every n-gram occurrence, duplicates kept: all unigrams, then all bigrams.

    Terms are lowercased.  Tokens without any alphanumeric character (bare
    punctuation, emoticons) never become terms, and a bigram never bridges
    such a token: clause-boundary punctuation cuts the pair.
    """
    low = stream.lowered
    termable = [_bears_term(token) for token in stream.tokens]
    occurrences = [low[i] for i in range(len(low)) if termable[i]]
    occurrences.extend(
        f"{low[i]} {low[i + 1]}"
        for i in range(len(low) - 1)
        if termable[i] and termable[i + 1]
    )
    return occurrences


def ngram_terms(stream: TokenStream) -> list[str]:
    """Distinct n-gram terms in first-occurrence order."""
    return list(dict.fromkeys(ngram_occurrences(stream)))


def parse_emoticon_table(text: str) -> frozenset[str]:
    """One emoticon per line; blank lines and #-comments ignored."""
    table = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if any(ch.isspace() for ch in line):
            raise LexiconError(f"emoticon contains whitespace: {line!r}")
        table.add(line)
    return frozenset(table)


def load_emoticons(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as handle:
        return parse_emoticon_table(handle.read())


@lru_cache(maxsize=1)
def default_emoticons() -> frozenset[str]:
    text = resources.files("emoclf.data").joinpath("emoticons.txt").read_text("utf-8")
    return parse_emoticon_table(text)
