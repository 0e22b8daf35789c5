"""Reference feature path: one token stream at a time, for tests to compare against.

The library has one feature path, the corpus path of ``emoclf.features``
(``count_texts``, ``fit_counts``, ``transform_counts``), and
``FittedExtractor.vectorize`` is its one-document case.  This module is the
independent oracle it must reproduce bit for bit, written with plain loops:

* ``tokenize`` splits a stripped text into a checked ``TokenStream`` of
  surface tokens, case kept; ``textprep.term_tokens`` must return its
  lowered tokens and their ``bears_term`` flags.
* ``ngram_occurrences`` and ``ngram_terms`` list a stream's lowercased
  n-grams.
* ``fit`` builds a ``FittedExtractor`` from token streams; ``fit_counts``
  must give the same extractor from the corpus counts.  The streams should
  have been tokenized with ``lexicons.emoticons``.
* ``assemble`` builds one stream's row from ``ngram_block``,
  ``emotion_category_block`` and the standardized cue scores;
  ``transform_counts`` must give the same row.  ``reference_row`` runs the
  whole path on one raw text, as ``FittedExtractor.vectorize`` does.

``matrix_from_pairs`` builds a ``FeatureMatrix`` from ``(index, value)``
pairs per row.  ``count_streams`` counts already tokenized streams with the package's
counting core (``features._count``), so tests can build a ``CorpusCounts``
without going through ``count_texts``.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from emoclf import features
from emoclf.errors import ContractViolation, EmptyCorpus
from emoclf.features import (
    CorpusCounts,
    FeatureMatrix,
    FittedExtractor,
    Vocabulary,
    _added,
    _aux_scores,
    idf,
)
from emoclf.lexicons import LexiconSet, default_emoticons
from emoclf.textprep import _split_chunk, bears_term, strip_noise


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
        # From a list: tuple() of an iterator allocates a guessed size and
        # resizes, and the freed tuples then pile up on CPython's per-size
        # free lists, raising peak memory pass after pass.
        return tuple([token.lower() for token in self.tokens])

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)


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


def ngram_occurrences(stream: TokenStream) -> list[str]:
    """Every n-gram occurrence, duplicates kept: all unigrams, then all bigrams.

    Terms are lowercased.  Tokens without any alphanumeric character (bare
    punctuation, emoticons) never become terms, and a bigram never bridges
    such a token: clause-boundary punctuation cuts the pair.
    """
    low = stream.lowered
    termable = [bears_term(token) for token in stream.tokens]
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


def fit(
    train_docs: Sequence[TokenStream],
    lexicons: LexiconSet,
    min_df: int = 2,
) -> FittedExtractor:
    """Build the feature space from training documents only.

    Document frequencies count each document at most once per term; the
    auxiliary scalers are the per-feature mean/stddev over the same documents.
    ``lexicons.emoticons`` should be the table the streams were tokenized
    with, so the extractor can reproduce the preprocessing later.
    """
    if not train_docs:
        raise EmptyCorpus("cannot fit an extractor on zero documents")

    df_counts: Counter[str] = Counter()
    for stream in train_docs:
        df_counts.update(ngram_terms(stream))
    n_docs = len(train_docs)
    kept = sorted(term for term, count in df_counts.items() if count >= min_df)
    vocabulary = Vocabulary(
        terms=tuple(kept),
        df=tuple(df_counts[term] for term in kept),
        n_docs=n_docs,
        min_df=min_df,
    )

    categories = tuple(sorted(lexicons.emotion_categories))
    category_df = []
    for category in categories:
        words = lexicons.emotion_categories[category]
        category_df.append(
            sum(1 for stream in train_docs if any(tok in words for tok in stream.lowered))
        )

    aux_rows = np.array([_aux_scores(stream.lowered, lexicons) for stream in train_docs])
    aux_mean = aux_rows.mean(axis=0)
    aux_std = aux_rows.std(axis=0)  # population stddev; zeros disable the feature

    return FittedExtractor(
        vocabulary=vocabulary,
        lexicons=lexicons,
        category_df=tuple(category_df),
        aux_mean=tuple(float(m) for m in aux_mean),
        aux_std=tuple(float(s) for s in aux_std),
    )


def _l2_normalized(pairs: list[tuple[int, float]]) -> list[tuple[int, float]]:
    norm = math.sqrt(_added(v * v for _, v in pairs))
    if norm == 0.0:
        return pairs
    return [(i, v / norm) for i, v in pairs]


def ngram_block(doc: TokenStream, fitted: FittedExtractor) -> list[tuple[int, float]]:
    """Sorted (slot, tf-idf) pairs of in-vocabulary uni/bi-grams, L2-normalized."""
    vocab = fitted.vocabulary
    counts = Counter(ngram_occurrences(doc))
    pairs = []
    for term, tf in counts.items():
        slot = vocab.index.get(term)
        if slot is not None:
            pairs.append((slot, tf * idf(vocab.df[slot], vocab.n_docs)))
    pairs.sort()
    return _l2_normalized(pairs)


def emotion_category_block(doc: TokenStream, fitted: FittedExtractor) -> list[tuple[int, float]]:
    """Sorted (slot, tf-idf) pairs per emotion category, counting its member words."""
    n_docs = fitted.vocabulary.n_docs
    token_counts = Counter(doc.lowered)
    pairs = []
    for slot, category in enumerate(fitted.categories):
        words = fitted.lexicons.emotion_categories[category]
        tf = sum(count for token, count in token_counts.items() if token in words)
        if tf and fitted.category_df[slot]:
            pairs.append((slot, tf * idf(fitted.category_df[slot], n_docs)))
    return _l2_normalized(pairs)


def matrix_from_pairs(
    rows: Iterable[Iterable[tuple[int, float]]], dimension: int
) -> FeatureMatrix:
    """One row per sequence of (index, value) pairs, given in any order.

    Each row is sorted by index and its zero values are dropped.
    """
    indptr, indices, data = [0], [], []
    for pairs in rows:
        kept = sorted((i, v) for i, v in pairs if v != 0.0)
        indices.extend(i for i, _ in kept)
        data.extend(v for _, v in kept)
        indptr.append(len(indices))
    return FeatureMatrix(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
        dimension,
    )


def assemble(doc: TokenStream, fitted: FittedExtractor) -> FeatureMatrix:
    """Concatenate all blocks into one row over the full feature space."""
    v, k = len(fitted.vocabulary), len(fitted.categories)
    pairs = ngram_block(doc, fitted)
    pairs.extend((v + i, value) for i, value in emotion_category_block(doc, fitted))
    for slot, raw in enumerate(_aux_scores(doc.lowered, fitted.lexicons)):
        std = fitted.aux_std[slot]
        if std > 0.0:
            z = (raw - fitted.aux_mean[slot]) / std
            if z != 0.0:
                pairs.append((v + k + slot, z))
    return matrix_from_pairs([pairs], fitted.dimension)


def reference_row(fitted: FittedExtractor, text: str) -> FeatureMatrix:
    """``text``'s one-row matrix through the reference path: strip, tokenize, assemble."""
    return assemble(tokenize(strip_noise(text), fitted.lexicons.emoticons), fitted)


def count_streams(streams: Iterable[TokenStream], lexicons: LexiconSet) -> CorpusCounts:
    """Count n-grams, category hits and cue scores of tokenized documents.

    ``lexicons.emoticons`` should be the table the streams were tokenized
    with.  Streams are consumed one at a time, so a generator keeps only one
    alive.
    """
    docs = ((stream.lowered, list(map(bears_term, stream.tokens))) for stream in streams)
    return features._count(docs, lexicons)
