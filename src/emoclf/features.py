"""Sparse feature extraction: tf-idf n-grams plus lexical cue scores.

A fitted extractor turns one token stream into one row laid out as six
contiguous blocks::

    [ n-grams | emotion categories | politeness | pos sent | neg sent | uncertainty ]

The n-gram and category blocks carry tf-idf weights and are each L2-normalized
on their own; the four scalar tails are standardized with training-set
mean/stddev so the SVM sees commensurate scales.  Fitting happens once, on
training documents only; transforming never mutates the extractor.

Two paths compute the same vectors.  ``fit`` + ``assemble`` (or
``FittedExtractor.vectorize``) handle one token stream at a time and are the
reference.  The corpus path does the text work once per corpus
(``count_texts``: strip, tokenize, count n-grams, category hits and cue
scores), then fits (``fit_counts``) and transforms (``transform_counts``)
every row of a ``CorpusCounts`` with array operations; ``CorpusCounts.take``
is how a caller picks the rows to fit or transform.  It reproduces the
reference bit for bit: every value comes from the same scalar formulas, and
each block's L2 norm is summed in the same order by the same ``sum``.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ContractViolation,
    DocumentTooLarge,
    EmptyCorpus,
    IncompatibleModel,
    LexiconError,
    ParseError,
)
from .lexicons import LexiconSet
from .textprep import (
    TokenStream,
    default_emoticons,
    ngram_occurrences,
    ngram_terms,
    strip_noise,
    tokenize,
)

EXTRACTOR_VERSION = "1"

# The longest text ``count_texts`` accepts.  It equals the csv module's
# default field size limit, which bounds a document read from a corpus file,
# so the library and the command line refuse the same documents.
MAX_DOCUMENT_CHARS = 131_072

AUX_FEATURES = ("politeness", "sentiment_pos", "sentiment_neg", "uncertainty")


@dataclass(frozen=True)
class Vocabulary:
    """n-gram terms kept at fit time, with their document frequencies."""

    terms: tuple[str, ...]          # index -> term, sorted lexicographically
    df: tuple[int, ...]             # aligned document frequencies
    n_docs: int
    min_df: int

    def __post_init__(self):
        if len(self.df) != len(self.terms):
            raise ContractViolation(f"{len(self.df)} frequencies for {len(self.terms)} terms")
        low = max(self.min_df, 1)   # idf needs df >= 1
        for i, (term, count) in enumerate(zip(self.terms, self.df)):
            if i and not self.terms[i - 1] < term:
                raise ContractViolation(f"vocabulary terms not strictly increasing at {term!r}")
            if not low <= count <= self.n_docs:
                raise ContractViolation(f"df({term!r}) = {count} outside [{low}, {self.n_docs}]")

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def index(self) -> Mapping[str, int]:
        """term -> slot."""
        return {term: i for i, term in enumerate(self.terms)}


def idf(df: int, n_docs: int) -> float:
    """Smoothed inverse document frequency: ln((1 + N) / (1 + df)) + 1.

    Strictly decreasing in df and never below 1, so ubiquitous terms keep a
    small positive weight instead of vanishing.
    """
    if not 1 <= df <= n_docs:
        raise ContractViolation(f"df must be in [1, n_docs], got df={df}, n_docs={n_docs}")
    return math.log((1 + n_docs) / (1 + df)) + 1.0


@dataclass(frozen=True)
class FittedExtractor:
    """Frozen feature space: vocabulary, lexicons, and scaling statistics."""

    vocabulary: Vocabulary
    lexicons: LexiconSet
    category_df: tuple[int, ...]    # aligned with ``categories``
    aux_mean: tuple[float, ...]     # politeness, pos, neg, uncertainty
    aux_std: tuple[float, ...]
    emoticons: frozenset[str]

    def __post_init__(self):
        n_docs = self.vocabulary.n_docs
        if len(self.category_df) != len(self.categories) or not all(
            0 <= df <= n_docs for df in self.category_df
        ):
            raise ContractViolation(f"category_df needs one value in [0, {n_docs}] per category")
        for name in ("aux_mean", "aux_std"):
            values = getattr(self, name)
            if len(values) != len(AUX_FEATURES) or not all(map(math.isfinite, values)):
                raise ContractViolation(f"{name} needs {len(AUX_FEATURES)} finite values")
        if min(self.aux_std) < 0.0:
            raise ContractViolation("aux_std must not be negative")

    @cached_property
    def categories(self) -> tuple[str, ...]:
        """The lexicons' emotion categories, sorted: the category block's order."""
        return tuple(sorted(self.lexicons.emotion_categories))

    @property
    def dimension(self) -> int:
        return len(self.vocabulary) + len(self.categories) + len(AUX_FEATURES)

    def layout(self) -> tuple[tuple[str, int, int], ...]:
        """(block name, offset, width) triples covering the whole space."""
        v, k = len(self.vocabulary), len(self.categories)
        blocks = [("ngrams", 0, v), ("categories", v, k)]
        for slot, name in enumerate(AUX_FEATURES):
            blocks.append((name, v + k + slot, 1))
        return tuple(blocks)

    def feature_names(self) -> list[str]:
        names = list(self.vocabulary.terms)
        names.extend(f"category:{category}" for category in self.categories)
        names.extend(AUX_FEATURES)
        return names

    def vectorize(self, text: str) -> FeatureMatrix:
        """Raw text straight to a one-row feature matrix (strip, tokenize, assemble)."""
        return assemble(tokenize(strip_noise(text), self.emoticons), self)

    def shares_text_work(self, other: "FittedExtractor") -> bool:
        """True when both tokenize and count any text identically."""
        return self.emoticons == other.emoticons and self.lexicons == other.lexicons

    # Cached on first use, so loading a bundle stays cheap.
    @cached_property
    def ngram_idf(self) -> np.ndarray:
        vocab = self.vocabulary
        return np.array([idf(df, vocab.n_docs) for df in vocab.df], dtype=np.float64)

    @cached_property
    def category_idf(self) -> np.ndarray:
        """idf per category slot; 0 where no training document hit the category."""
        n_docs = self.vocabulary.n_docs
        return np.array(
            [idf(df, n_docs) if df else 0.0 for df in self.category_df], dtype=np.float64
        )

    def slots_for(self, terms: Sequence[str]) -> np.ndarray:
        """Vocabulary slot of each term, -1 for out-of-vocabulary terms."""
        return np.fromiter(
            map(self.vocabulary.index.get, terms, repeat(-1)), dtype=np.int64, count=len(terms)
        )


def fit(
    train_docs: Sequence[TokenStream],
    lexicons: LexiconSet,
    min_df: int = 2,
    emoticons: frozenset[str] | None = None,
) -> FittedExtractor:
    """Build the feature space from training documents only.

    Document frequencies count each document at most once per term; the
    auxiliary scalers are the per-feature mean/stddev over the same documents.
    ``emoticons`` should be the table the streams were tokenized with, so the
    extractor can reproduce the preprocessing later.
    """
    if not train_docs:
        raise EmptyCorpus("cannot fit an extractor on zero documents")
    if emoticons is None:
        emoticons = default_emoticons()

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

    aux_rows = np.array([_aux_scores(stream, lexicons) for stream in train_docs])
    aux_mean = aux_rows.mean(axis=0)
    aux_std = aux_rows.std(axis=0)  # population stddev; zeros disable the feature

    return FittedExtractor(
        vocabulary=vocabulary,
        lexicons=lexicons,
        category_df=tuple(category_df),
        aux_mean=tuple(float(m) for m in aux_mean),
        aux_std=tuple(float(s) for s in aux_std),
        emoticons=emoticons,
    )


def _l2_normalized(pairs: list[tuple[int, float]]) -> list[tuple[int, float]]:
    norm = math.sqrt(sum(v * v for _, v in pairs))
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


def politeness_score(doc: TokenStream, lexicons: LexiconSet) -> float:
    """Logistic of the summed weights of matched politeness cue phrases.

    Matching is case-insensitive, longest phrase first, non-overlapping.
    No cues (or cues canceling out) gives the neutral 0.5.
    """
    tokens = doc.lowered
    cues = lexicons.politeness_cues
    longest = lexicons.politeness_lengths
    total = 0.0
    i = 0
    while i < len(tokens):
        matched = 0
        for length in range(min(longest.get(tokens[i], 0), len(tokens) - i), 0, -1):
            weight = cues.get(tuple(tokens[i : i + length]))
            if weight is not None:
                total += weight
                matched = length
                break
        i += matched or 1
    return 1.0 / (1.0 + math.exp(-total))


def sentiment_scores(doc: TokenStream, lexicons: LexiconSet) -> tuple[int, int]:
    """Strongest positive and negative strengths in the document.

    Per sentiment-bearing token: take the lexicon strength, shift its
    magnitude by a booster immediately before it (floored at 1), and flip the
    sign if a negation sits within the two previous tokens.  Defaults are the
    neutral (1, -1); outputs are clamped to [1, 5] and [-5, -1].
    """
    tokens = doc.lowered
    pos, neg = 1, -1
    for i, token in enumerate(tokens):
        strength = lexicons.sentiment.get(token)
        if strength is None:
            continue
        magnitude = abs(strength)
        sign = 1 if strength > 0 else -1
        if i > 0:
            shift = lexicons.boosters.get(tokens[i - 1])
            if shift is not None:
                magnitude = max(1, magnitude + shift)
        if any(tokens[j] in lexicons.negations for j in range(max(0, i - 2), i)):
            sign = -sign
        adjusted = sign * min(magnitude, 5)
        if adjusted > 0:
            pos = max(pos, adjusted)
        else:
            neg = min(neg, adjusted)
    return pos, neg


def uncertainty_score(doc: TokenStream, lexicons: LexiconSet) -> float:
    """Mean modality weight of matched cue words; 1.0 (certain) when none match."""
    weights = [
        lexicons.modality_cues[token]
        for token in doc.lowered
        if token in lexicons.modality_cues
    ]
    if not weights:
        return 1.0
    return sum(weights) / len(weights)


def _aux_scores(doc: TokenStream, lexicons: LexiconSet) -> tuple[float, float, float, float]:
    pos, neg = sentiment_scores(doc, lexicons)
    return (
        politeness_score(doc, lexicons),
        float(pos),
        float(neg),
        uncertainty_score(doc, lexicons),
    )


def assemble(doc: TokenStream, fitted: FittedExtractor) -> FeatureMatrix:
    """Concatenate all blocks into one row over the full feature space."""
    v, k = len(fitted.vocabulary), len(fitted.categories)
    pairs = ngram_block(doc, fitted)
    pairs.extend((v + i, value) for i, value in emotion_category_block(doc, fitted))
    for slot, raw in enumerate(_aux_scores(doc, fitted.lexicons)):
        std = fitted.aux_std[slot]
        if std > 0.0:
            z = (raw - fitted.aux_mean[slot]) / std
            if z != 0.0:
                pairs.append((v + k + slot, z))
    return FeatureMatrix.from_pairs([pairs], fitted.dimension)


# --- corpus path: text work once, then array operations per fit ------------

def _gather_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indptr of the CSR rows ``rows`` and the source position of each entry."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_ptr[1:])
    source = np.repeat(starts - out_ptr[:-1], lengths) + np.arange(out_ptr[-1])
    return out_ptr, source


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _indptr_of(row_ids: np.ndarray, n_rows: int) -> np.ndarray:
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids, minlength=n_rows), out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Feature rows in CSR form, one row per document.

    Within a row, indices are strictly increasing and below ``dimension``,
    and no stored value is zero.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dimension: int

    def __post_init__(self):
        ptr, idx, val = self.indptr, self.indices, self.data
        if ptr.ndim != 1 or ptr.size < 1 or ptr[0] != 0 or ptr[-1] != idx.size:
            raise ContractViolation("indptr must run from 0 to the number of entries")
        if idx.shape != val.shape or idx.ndim != 1:
            raise ContractViolation("indices and values must be parallel 1-d arrays")
        if np.any(np.diff(ptr) < 0):
            raise ContractViolation("indptr must be non-decreasing")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.dimension:
                raise ContractViolation("feature index out of range")
            rising = np.diff(idx) > 0
            starts = ptr[1:-1]
            rising[starts[(starts > 0) & (starts < idx.size)] - 1] = True   # new row
            if not np.all(rising):
                raise ContractViolation("feature indices must be strictly increasing")
            if np.any(val == 0.0):
                raise ContractViolation("explicit zeros are not stored")

    @classmethod
    def from_pairs(
        cls, rows: Iterable[Iterable[tuple[int, float]]], dimension: int
    ) -> "FeatureMatrix":
        """One row per sequence of (index, value) pairs, given in any order.

        Each row is sorted by index and its zero values are dropped.
        """
        indptr, indices, data = [0], [], []
        for pairs in rows:
            kept = sorted((i, v) for i, v in pairs if v != 0.0)
            indices.extend(i for i, _ in kept)
            data.extend(v for _, v in kept)
            indptr.append(len(indices))
        return cls(
            np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64),
            dimension,
        )

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        indptr, source = _gather_rows(self.indptr, np.asarray(rows, dtype=np.int64))
        return FeatureMatrix(indptr, self.indices[source], self.data[source], self.dimension)


@dataclass(frozen=True, eq=False)
class CorpusCounts:
    """The text work of a corpus, done once: what every fit and transform needs.

    Row i describes document i.  Columns are the corpus's n-gram terms in
    sorted order, so mapping them onto any (sorted) vocabulary keeps each
    row's slots increasing.  Only the lexicons and emoticon table recorded
    here may be used to fit or transform from these counts.
    """

    terms: tuple[str, ...]
    indptr: np.ndarray              # CSR over documents x terms
    indices: np.ndarray             # term columns, increasing within a row
    counts: np.ndarray              # occurrences of each term in the document
    category_counts: np.ndarray     # documents x sorted categories: member-word hits
    aux: np.ndarray                 # documents x AUX_FEATURES, raw cue scores
    lexicons: LexiconSet
    emoticons: frozenset[str]

    @property
    def n_docs(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: Sequence[int]) -> "CorpusCounts":
        """The counts of documents ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        indptr, source = _gather_rows(self.indptr, rows)
        return CorpusCounts(
            terms=self.terms,
            indptr=indptr,
            indices=self.indices[source],
            counts=self.counts[source],
            category_counts=self.category_counts[rows],
            aux=self.aux[rows],
            lexicons=self.lexicons,
            emoticons=self.emoticons,
        )


def count_streams(
    streams: Iterable[TokenStream],
    lexicons: LexiconSet,
    emoticons: frozenset[str] | None = None,
) -> CorpusCounts:
    """Count n-grams, category hits and cue scores of tokenized documents.

    ``emoticons`` should be the table the streams were tokenized with.
    Streams are consumed one at a time, so a generator keeps only one alive.
    """
    if emoticons is None:
        emoticons = default_emoticons()
    categories = sorted(lexicons.emotion_categories)
    slots_of_word: dict[str, list[int]] = {}
    for slot, category in enumerate(categories):
        for word in lexicons.emotion_categories[category]:
            slots_of_word.setdefault(word, []).append(slot)

    term_ids: dict[str, int] = {}
    indptr = array("q", [0])
    ids = array("q")
    tfs = array("q")
    category_rows = []
    aux_rows = []
    for stream in streams:
        for term, tf in Counter(ngram_occurrences(stream)).items():
            ids.append(term_ids.setdefault(term, len(term_ids)))
            tfs.append(tf)
        indptr.append(len(ids))
        hits = [0] * len(categories)
        for token in stream.lowered:
            for slot in slots_of_word.get(token, ()):
                hits[slot] += 1
        category_rows.append(hits)
        aux_rows.append(_aux_scores(stream, lexicons))

    # Renumber terms in sorted order, then sort each row by column.
    terms = sorted(term_ids)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[np.fromiter((term_ids[t] for t in terms), np.int64, len(terms))] = np.arange(len(terms))
    indptr_arr = np.array(indptr, dtype=np.int64)
    columns = rank[np.frombuffer(ids, dtype=np.int64)]
    order = np.lexsort((columns, _row_ids(indptr_arr)))
    n_docs = len(indptr) - 1
    return CorpusCounts(
        terms=tuple(terms),
        indptr=indptr_arr,
        indices=columns[order],
        counts=np.frombuffer(tfs, dtype=np.int64)[order],
        category_counts=np.array(category_rows, dtype=np.int64).reshape(n_docs, len(categories)),
        aux=np.array(aux_rows, dtype=np.float64).reshape(n_docs, len(AUX_FEATURES)),
        lexicons=lexicons,
        emoticons=emoticons,
    )


def count_texts(
    texts: Iterable[str],
    lexicons: LexiconSet,
    emoticons: frozenset[str] | None = None,
) -> CorpusCounts:
    """Strip, tokenize and count raw texts; each text is processed once.

    Raises ``DocumentTooLarge`` for a text longer than ``MAX_DOCUMENT_CHARS``.
    """
    if emoticons is None:
        emoticons = default_emoticons()
    streams = (
        tokenize(strip_noise(_within_limit(position, text)), emoticons)
        for position, text in enumerate(texts)
    )
    return count_streams(streams, lexicons, emoticons)


def _within_limit(position: int, text: str) -> str:
    if len(text) > MAX_DOCUMENT_CHARS:
        raise DocumentTooLarge(position, len(text), MAX_DOCUMENT_CHARS)
    return text


def fit_counts(counts: CorpusCounts, min_df: int = 2) -> FittedExtractor:
    """``fit`` on every document of a counted corpus, without redoing text work.

    The extractor equals ``fit``'s on the same streams in the same order,
    field for field.  Fit on a subset with ``fit_counts(counts.take(rows))``.
    """
    if counts.n_docs == 0:
        raise EmptyCorpus("cannot fit an extractor on zero documents")
    df = np.bincount(counts.indices, minlength=len(counts.terms))
    keep = df >= max(min_df, 1)
    vocabulary = Vocabulary(
        terms=tuple(compress(counts.terms, keep.tolist())),
        df=tuple(df[keep].tolist()),
        n_docs=counts.n_docs,
        min_df=min_df,
    )
    return FittedExtractor(
        vocabulary=vocabulary,
        lexicons=counts.lexicons,
        category_df=tuple(np.count_nonzero(counts.category_counts > 0, axis=0).tolist()),
        aux_mean=tuple(float(m) for m in counts.aux.mean(axis=0)),
        aux_std=tuple(float(s) for s in counts.aux.std(axis=0)),
        emoticons=counts.emoticons,
    )


def _l2_normalize_rows(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Python's sum over each row in column order, exactly as _l2_normalized.
    squares = values * values
    bounds = indptr.tolist()
    norms = np.array(
        [math.sqrt(sum(squares[a:b].tolist())) for a, b in zip(bounds, bounds[1:])],
        dtype=np.float64,
    )
    norms[norms == 0.0] = 1.0
    return values / np.repeat(norms, np.diff(indptr))


def transform_counts(counts: CorpusCounts, fitted: FittedExtractor) -> FeatureMatrix:
    """``assemble`` for every document of a counted corpus.

    ``fitted`` must share the lexicons and emoticon table the counts were
    made with.  Row i equals ``assemble`` of document i: same indices, same
    values.  Transform a subset with ``transform_counts(counts.take(rows), fitted)``.
    """
    n = counts.n_docs
    v, k = len(fitted.vocabulary), len(fitted.categories)

    # n-gram block: tf * idf over in-vocabulary terms, L2 per row.
    columns = fitted.slots_for(counts.terms)[counts.indices]
    known = columns >= 0
    ngram_rows = _row_ids(counts.indptr)[known]
    columns = columns[known]
    ngram_ptr = _indptr_of(ngram_rows, n)
    ngram_values = _l2_normalize_rows(
        ngram_ptr, counts.counts[known] * fitted.ngram_idf[columns]
    )

    # Category block: hits * idf where the category has training df, L2 per row.
    hits = counts.category_counts
    category_df = np.array(fitted.category_df, dtype=np.int64).reshape(k)
    category_rows, category_slots = np.nonzero((hits > 0) & (category_df > 0))
    category_ptr = _indptr_of(category_rows, n)
    category_values = _l2_normalize_rows(
        category_ptr, hits[category_rows, category_slots] * fitted.category_idf[category_slots]
    )

    # Standardized cue scores; a zero stddev disables the feature.
    std = np.array(fitted.aux_std, dtype=np.float64)
    active = std > 0.0
    z = (counts.aux - np.array(fitted.aux_mean)) / np.where(active, std, 1.0)
    aux_rows, aux_slots = np.nonzero(active & (z != 0.0))
    aux_ptr = _indptr_of(aux_rows, n)

    # Each row is its n-gram, category and cue entries in that order: place
    # every block's entries after the earlier blocks' entries of the same row.
    out_ptr = ngram_ptr + category_ptr + aux_ptr
    indices = np.empty(out_ptr[-1], dtype=np.int64)
    data = np.empty(out_ptr[-1], dtype=np.float64)
    for block_rows, shift, block_indices, block_values in (
        (ngram_rows, category_ptr[:-1] + aux_ptr[:-1], columns, ngram_values),
        (category_rows, ngram_ptr[1:] + aux_ptr[:-1], v + category_slots, category_values),
        (aux_rows, ngram_ptr[1:] + category_ptr[1:], v + k + aux_slots, z[aux_rows, aux_slots]),
    ):
        at = np.arange(len(block_rows)) + shift[block_rows]
        indices[at] = block_indices
        data[at] = block_values
    # No value is zero: tf, idf >= 1 and cue entries are kept only when
    # nonzero, so nothing is left for from_pairs' zero filter to drop.
    return FeatureMatrix(out_ptr, indices, data, fitted.dimension)


# --- serialization ---------------------------------------------------------

def extractor_to_dict(fitted: FittedExtractor) -> dict:
    lex = fitted.lexicons
    return {
        "kind": "emoclf-extractor",
        "version": EXTRACTOR_VERSION,
        "lowercase_ngrams": True,
        "idf": "ln((1+n_docs)/(1+df))+1",
        "aux_standardized": True,
        "vocabulary": {
            "terms": list(fitted.vocabulary.terms),
            "df": list(fitted.vocabulary.df),
            "n_docs": fitted.vocabulary.n_docs,
            "min_df": fitted.vocabulary.min_df,
        },
        "categories": list(fitted.categories),
        "category_df": list(fitted.category_df),
        "aux_features": list(AUX_FEATURES),
        "aux_mean": list(fitted.aux_mean),
        "aux_std": list(fitted.aux_std),
        "emoticons": sorted(fitted.emoticons),
        "lexicons": {
            "emotion_categories": {
                category: sorted(words)
                for category, words in lex.emotion_categories.items()
            },
            "politeness": {" ".join(phrase): w for phrase, w in lex.politeness_cues.items()},
            "sentiment": dict(lex.sentiment),
            "boosters": dict(lex.boosters),
            "negations": sorted(lex.negations),
            "modality": dict(lex.modality_cues),
        },
    }


def extractor_from_dict(payload: dict) -> FittedExtractor:
    try:
        if payload.get("kind") != "emoclf-extractor":
            raise ParseError("not an extractor payload")
        version = payload["version"]
        if version != EXTRACTOR_VERSION:
            raise IncompatibleModel(
                f"extractor version {version!r} unsupported (expected {EXTRACTOR_VERSION!r})"
            )
        raw_lex = payload["lexicons"]
        lexicons = LexiconSet(
            emotion_categories={
                category: frozenset(words)
                for category, words in raw_lex["emotion_categories"].items()
            },
            politeness_cues={
                tuple(phrase.split()): float(w) for phrase, w in raw_lex["politeness"].items()
            },
            sentiment={w: int(s) for w, s in raw_lex["sentiment"].items()},
            boosters={w: int(s) for w, s in raw_lex["boosters"].items()},
            negations=frozenset(raw_lex["negations"]),
            modality_cues={w: float(s) for w, s in raw_lex["modality"].items()},
        )
        vocab_raw = payload["vocabulary"]
        vocabulary = Vocabulary(
            terms=tuple(vocab_raw["terms"]),
            df=tuple(int(c) for c in vocab_raw["df"]),
            n_docs=int(vocab_raw["n_docs"]),
            min_df=int(vocab_raw["min_df"]),
        )
        fitted = FittedExtractor(
            vocabulary=vocabulary,
            lexicons=lexicons,
            category_df=tuple(int(c) for c in payload["category_df"]),
            aux_mean=tuple(float(m) for m in payload["aux_mean"]),
            aux_std=tuple(float(s) for s in payload["aux_std"]),
            emoticons=frozenset(payload["emoticons"]),
        )
        if tuple(payload["categories"]) != fitted.categories:
            raise ContractViolation("categories must be the lexicons' emotion categories, sorted")
        return fitted
    except (IncompatibleModel, ParseError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            ContractViolation, LexiconError) as exc:
        raise ParseError(f"malformed extractor payload: {exc}") from exc
