"""Sparse feature extraction: tf-idf n-grams plus lexical cue scores.

A fitted extractor turns each document into one row laid out as six
contiguous blocks::

    [ n-grams | emotion categories | politeness | pos sent | neg sent | uncertainty ]

The n-gram and category blocks carry tf-idf weights and are each L2-normalized
on their own; the four scalar tails are standardized with training-set
mean/stddev so the SVM sees commensurate scales.  Fitting happens once, on
training documents only; transforming never mutates the extractor.

Fitting and transforming work on a ``CorpusCounts``, the text work of a
corpus done once.  ``count_texts`` makes one pass per document:
``strip_noise``, then ``textprep.term_tokens``.  Its counting core lays a
block's token streams end to end in one flat run, gives every n-gram
occurrence a column from one term map (a bigram is its two tokens joined
by a space, which no token holds) and counts all (document, column) cells
with one ``np.unique``; category hits take one lookup per token, and the
cue scorers run only on documents that hold a cue word.  ``fit_counts`` and
``transform_counts`` then work with array operations;
``CorpusCounts.take`` picks the rows to fit or transform.  A fit's
vocabulary is a sorted subset of the counts' sorted term table, so
``ExtractorStack.fitted_on`` lays out one fit's feature space straight
from the count arrays, over that table, with no ``FittedExtractor``:
training transforms every fold, and the final model's rows, that way, and
builds an extractor only for the bundle.  idf depends on df alone, so
``_idfs`` calls ``idf`` once per distinct df, for these spaces and for
``FittedExtractor.ngram_idf`` alike.

``stacked_transform`` transforms the same rows for several extractors into
one matrix whose columns are their feature spaces side by side.  It takes a
prepared ``ExtractorStack``: a term table over the union of the extractors'
vocabularies with each column's slot in every extractor, and the
extractors' idf and scaling constants laid side by side.  The stack owns
the text-work rule: extractors with equal lexicons and emoticon tables
count any text alike, so one count serves them all.  It stacks only such
extractors, and ``stacked_transform`` takes only counts made with the
stack's pair.  A bundle is one such unit: ``pipeline.load_bundle`` loads
its extractors with one lexicon set and emoticon table, and prediction
stacks all of them (``pipeline.ModelBundle.stacks``).  Counting for
fitting numbers the block's own terms as it sees them; prediction counts a
block straight into its stack's table (``ExtractorStack.count_texts``),
where an unknown n-gram is dropped at lookup, and its columns need no
further mapping.

This is the library's one feature path: ``FittedExtractor.vectorize`` is its
one-document case, counted into the extractor's one-extractor stack, built
once (``FittedExtractor.stack``).  The tests keep a single-document
reference, a fit and a row built with plain loops over one token stream at
a time, in ``tests/reference_features.py``; the corpus path reproduces it
bit for bit, because every value comes from the same scalar formulas and
every float sum is added left to right: the uncertainty mean by ``_added``
and each row's squares for its L2 norms by ``row_sums``, which ``linear``
scoring uses too.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, islice, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractViolation, DocumentTooLarge, EmptyCorpus
from .lexicons import LexiconSet, default_emoticons
from .textprep import strip_noise, term_tokens

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


def _idfs(df: np.ndarray, n_docs: int) -> np.ndarray:
    """``idf(d, n_docs)`` of every ``d`` in ``df``, bit for bit, and 0.0 where ``d`` is 0.

    idf depends on df alone, so ``idf`` runs once per distinct value.  Its
    ``math.log`` is libm's; nothing ties numpy's ``log`` to the same bits.
    """
    values, inverse = np.unique(df, return_inverse=True)
    table = np.array([idf(d, n_docs) if d else 0.0 for d in values.tolist()], dtype=np.float64)
    return table[inverse]


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

    def feature_names(self) -> list[str]:
        names = list(self.vocabulary.terms)
        names.extend(f"category:{category}" for category in self.categories)
        names.extend(AUX_FEATURES)
        return names

    def vectorize(self, text: str) -> FeatureMatrix:
        """Raw text to a one-row feature matrix: the corpus path on a one-text corpus.

        The text is counted into ``stack``'s term table, as prediction counts
        a block into its bundle's stack.  Raises ``DocumentTooLarge`` for a
        text longer than ``MAX_DOCUMENT_CHARS``.
        """
        return stacked_transform(self.stack.count_texts([text]), self.stack)

    # Cached on first use, so loading a bundle stays cheap.
    @cached_property
    def stack(self) -> "ExtractorStack":
        """The one-extractor ``ExtractorStack`` that ``vectorize`` and ``transform_counts`` use."""
        return ExtractorStack([self])

    @cached_property
    def ngram_idf(self) -> np.ndarray:
        return _idfs(np.array(self.vocabulary.df, dtype=np.int64), self.vocabulary.n_docs)

    @cached_property
    def category_idf(self) -> np.ndarray:
        """idf per category slot; 0 where no training document hit the category."""
        return _idfs(np.array(self.category_df, dtype=np.int64), self.vocabulary.n_docs)


def _added(values: Iterable[float]) -> float:
    """``values`` added left to right, as 3.11's ``sum`` adds floats (3.12's compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def politeness_score(tokens: Sequence[str], lexicons: LexiconSet) -> float:
    """Logistic of the summed weights of matched politeness cue phrases.

    Takes lowered tokens; matching is longest phrase first, non-overlapping.
    No cues (or cues canceling out) gives the neutral 0.5.  Where
    ``exp(-total)`` overflows, ``exp(total)`` is the logistic to within rounding.
    """
    cues = lexicons.politeness_cues
    longest = lexicons.politeness_lengths
    total = 0.0
    free = 0        # tokens before this one belong to a matched cue
    for i in compress(range(len(tokens)), map(longest.__contains__, tokens)):
        if i < free:
            continue
        for length in range(min(longest[tokens[i]], len(tokens) - i), 0, -1):
            weight = cues.get(tuple(tokens[i : i + length]))
            if weight is not None:
                total += weight
                free = i + length
                break
    try:
        return 1.0 / (1.0 + math.exp(-total))
    except OverflowError:
        return math.exp(total)


def sentiment_scores(tokens: Sequence[str], lexicons: LexiconSet) -> tuple[int, int]:
    """Strongest positive and negative strengths in a document's lowered tokens.

    Per sentiment-bearing token: take the lexicon strength, shift its
    magnitude by a booster immediately before it (floored at 1), and flip the
    sign if a negation sits within the two previous tokens.  Defaults are the
    neutral (1, -1); outputs are clamped to [1, 5] and [-5, -1].
    """
    pos, neg = 1, -1
    for i in compress(range(len(tokens)), map(lexicons.sentiment.__contains__, tokens)):
        strength = lexicons.sentiment[tokens[i]]
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


def uncertainty_score(tokens: Sequence[str], lexicons: LexiconSet) -> float:
    """Mean modality weight of the cue words among lowered ``tokens``; 1.0 when none match."""
    weights = [w for w in map(lexicons.modality_cues.get, tokens) if w is not None]
    return _added(weights) / len(weights) if weights else 1.0


def _aux_scores(tokens: Sequence[str], lexicons: LexiconSet) -> tuple[float, float, float, float]:
    pos, neg = sentiment_scores(tokens, lexicons)
    return (
        politeness_score(tokens, lexicons),
        float(pos),
        float(neg),
        uncertainty_score(tokens, lexicons),
    )


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
        if (ptr[1:] < ptr[:-1]).any():
            raise ContractViolation("indptr must be non-decreasing")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.dimension:
                raise ContractViolation("feature index out of range")
            rising = idx[1:] > idx[:-1]
            starts = ptr[1:-1]
            rising[starts[(starts > 0) & (starts < idx.size)] - 1] = True   # new row
            if not rising.all():
                raise ContractViolation("feature indices must be strictly increasing")
            if not val.all():
                raise ContractViolation("explicit zeros are not stored")

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        indptr, source = _gather_rows(self.indptr, np.asarray(rows, dtype=np.int64))
        return FeatureMatrix(indptr, self.indices[source], self.data[source], self.dimension)


@dataclass(frozen=True, eq=False)
class CorpusCounts:
    """The text work of a corpus, done once: what every fit and transform needs.

    Row i describes document i.  Columns are n-gram terms in sorted order,
    so mapping them onto any (sorted) vocabulary keeps each row's slots
    increasing: the corpus's own terms (``count_texts``), or the term table
    of the stack that counted them (``ExtractorStack.count_texts``), which
    may name terms no document holds.  Only the lexicons and emoticon table
    recorded here may be used to fit or transform from these counts.
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


# ``_aux_scores`` of a document that holds no ``LexiconSet.cue_words``.
_NEUTRAL_CUES = (0.5, 1.0, -1.0, 1.0)

# The most documents the counting core lays end to end at once.  Prediction
# blocks are smaller; a corpus counted for fitting goes through in runs, so
# only one run's tokens are alive at a time.
_RUN_DOCS = 256


def _count_run(
    run: Sequence[tuple[Sequence[str], Sequence[bool]]],
    lexicons: LexiconSet,
    term_columns,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column of every n-gram occurrence of ``run``, its category hits and cue scores.

    The documents' lowered tokens (``term_tokens``) are laid end to end in one flat run.
    ``term_columns`` maps terms to columns: the term-bearing tokens, then
    each pair of adjacent term-bearing tokens of one document, joined by a
    space; a column below 0 drops the occurrence.  Only a document holding
    a category word or a cue word is looked at again.
    """
    tokens: list[str] = []
    termable: list[bool] = []
    lengths = []
    aux: list[float] = []
    hit_rows: list[int] = []
    hit_slots: list[int] = []
    cues, slots_of = lexicons.cue_words, lexicons.category_slots
    for row, (low, flags) in enumerate(run):
        tokens += low
        termable += flags
        lengths.append(len(low))
        aux += _NEUTRAL_CUES if cues.isdisjoint(low) else _aux_scores(low, lexicons)
        if not slots_of.keys().isdisjoint(low):
            found = list(chain.from_iterable(map(slots_of.get, low, repeat(()))))
            hit_rows += repeat(row, len(found))
            hit_slots += found
    doc_of = np.repeat(np.arange(len(run)), lengths)
    bears = np.frombuffer(bytes(termable), dtype=bool)
    paired = bears[:-1] & bears[1:] & (doc_of[:-1] == doc_of[1:])   # no bigram spans two documents
    bigrams = map(" ".join, compress(zip(tokens, islice(tokens, 1, None)), paired.tolist()))
    columns = np.fromiter(term_columns(chain(compress(tokens, termable), bigrams)), np.int64)
    rows = np.concatenate((doc_of[bears], doc_of[:-1][paired]))

    k = len(lexicons.emotion_categories)
    cells = np.array(hit_rows, dtype=np.int64) * k + np.array(hit_slots, dtype=np.int64)
    categories = np.bincount(cells, minlength=len(run) * k).reshape(len(run), k)
    return rows, columns, categories, np.array(aux).reshape(len(run), len(AUX_FEATURES))


def _count(
    docs: Iterable[tuple[Sequence[str], Sequence[bool]]],
    lexicons: LexiconSet,
    emoticons: frozenset[str],
    stack: "ExtractorStack | None" = None,
) -> CorpusCounts:
    """The one counting core: each document is its lowered tokens and their ``bears_term`` flags.

    Without ``stack``, the columns are the documents' own terms, numbered as
    they are seen, and the terms are then sorted.  With ``stack``, the
    columns are the stack's term table (``index``) and an n-gram no
    extractor knows is dropped.
    """
    if stack is None:
        seen: dict = defaultdict(count().__next__)
        rows, columns, categories, aux = _count_runs(
            docs, lexicons, partial(map, seen.__getitem__))
        terms, rank = _sorted_terms(seen)
        del seen                # before the cells are counted: a corpus's table is large
        columns = rank[columns]
    else:
        rows, columns, categories, aux = _count_runs(docs, lexicons, partial(_known, stack.index))
        terms = stack.terms
        known = columns >= 0
        rows, columns = rows[known], columns[known]

    # One np.unique over (document, column) keys counts each cell, sorted
    # by document and column.
    width = max(len(terms), 1)
    cells, tfs = np.unique(rows * width + columns, return_counts=True)
    rows, columns = np.divmod(cells, width)
    return CorpusCounts(
        terms=terms,
        indptr=_indptr_of(rows, len(aux)),
        indices=columns,
        counts=tfs.astype(np.int64),
        category_counts=categories,
        aux=aux,
        lexicons=lexicons,
        emoticons=emoticons,
    )


def _count_runs(docs, lexicons: LexiconSet, term_columns):
    """``_count_run`` over runs of at most ``_RUN_DOCS`` documents, joined."""
    k = len(lexicons.emotion_categories)
    none = np.empty(0, dtype=np.int64)
    runs = [(none, none, np.empty((0, k), dtype=np.int64), np.empty((0, len(AUX_FEATURES))))]
    n_docs = 0
    docs = iter(docs)
    while run := list(islice(docs, _RUN_DOCS)):
        rows, *rest = _count_run(run, lexicons, term_columns)
        runs.append((rows + n_docs, *rest))
        n_docs += len(run)
    return tuple(map(np.concatenate, zip(*runs)))


def _sorted_terms(seen: Mapping[str, int]):
    """A grown table's terms in sorted order, and the rank of each column among them.

    ``seen`` numbers its terms 0, 1, ... in insertion order.
    """
    names = list(seen)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return tuple(map(names.__getitem__, order)), rank


def _known(table: Mapping, keys: Iterable) -> Iterable[int]:
    """The column of each key in ``table``, -1 for a key it lacks."""
    return map(table.get, keys, repeat(-1))


def _term_streams(texts: Iterable[str], emoticons: frozenset[str]):
    """Lowered tokens and term flags (``term_tokens``) of each stripped text, one at a time."""
    return (
        term_tokens(strip_noise(_within_limit(position, text)), emoticons)
        for position, text in enumerate(texts)
    )


def count_texts(
    texts: Iterable[str],
    lexicons: LexiconSet,
    emoticons: frozenset[str] | None = None,
) -> CorpusCounts:
    """Strip, tokenize and count raw texts; each text is processed once.

    Raises ``DocumentTooLarge`` for a text longer than ``MAX_DOCUMENT_CHARS``.
    """
    table = default_emoticons() if emoticons is None else emoticons
    return _count(_term_streams(texts, table), lexicons, table)


def _within_limit(position: int, text: str) -> str:
    if len(text) > MAX_DOCUMENT_CHARS:
        raise DocumentTooLarge(position, len(text), MAX_DOCUMENT_CHARS)
    return text


def fit_counts(counts: CorpusCounts, min_df: int = 2) -> FittedExtractor:
    """Build the feature space from every document of a counted corpus.

    Document frequencies count each document at most once per term, and
    terms below ``min_df`` are dropped; the auxiliary scalers are the
    per-feature mean and population stddev over the same documents (a zero
    stddev disables the feature).  Fit on a subset with
    ``fit_counts(counts.take(rows))``.
    """
    df, keep, category_df, aux_mean, aux_std = _fit_statistics(counts, min_df)
    vocabulary = Vocabulary(
        terms=tuple(compress(counts.terms, keep.tolist())),
        df=tuple(df[keep].tolist()),
        n_docs=counts.n_docs,
        min_df=min_df,
    )
    return FittedExtractor(
        vocabulary=vocabulary,
        lexicons=counts.lexicons,
        category_df=tuple(category_df.tolist()),
        aux_mean=tuple(aux_mean.tolist()),
        aux_std=tuple(aux_std.tolist()),
        emoticons=counts.emoticons,
    )


def _fit_statistics(counts: CorpusCounts, min_df: int):
    """What a fit takes from a counted corpus, as arrays.

    Each column's document frequency and whether it is kept, each
    category's document frequency, and the cue scores' means and
    population stddevs.
    """
    if counts.n_docs == 0:
        raise EmptyCorpus("cannot fit an extractor on zero documents")
    df = np.bincount(counts.indices, minlength=len(counts.terms))
    return (df, df >= max(min_df, 1), np.count_nonzero(counts.category_counts > 0, axis=0),
            counts.aux.mean(axis=0), counts.aux.std(axis=0))


# ``row_sums`` adds rows in zero-padded grids of at most this many cells; a
# row wider than that gets a grid of its own.
_GRID_CELLS = 2**16


def row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each CSR row's values added left to right: ``acc = 0.0; acc += x`` in entry order.

    The rows are added in grids of at most ``_GRID_CELLS`` cells
    (``_grid_sums``): all of them in one grid when that fits, else shortest
    first, each grid taking rows while it stays within the cap, so a long
    row costs its own entries only.
    """
    lengths = indptr[1:] - indptr[:-1]
    if not values.size:     # every row sums to 0.0, and a grid has nothing to read
        return np.zeros(len(lengths))
    width = int(lengths.max()) + 1
    if len(lengths) * width <= _GRID_CELLS:
        return _grid_sums(values, indptr[:-1], lengths, width)
    sums = np.empty(len(lengths))
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    start = 0
    while start < len(order):
        widths = ordered[start:start + _GRID_CELLS] + 1
        fits = widths * np.arange(1, len(widths) + 1) <= _GRID_CELLS
        stop = start + max(1, int(np.count_nonzero(fits)))
        rows = order[start:stop]
        sums[rows] = _grid_sums(values, indptr[rows], ordered[start:stop],
                                int(widths[stop - start - 1]))
        start = stop
    return sums


def _grid_sums(values: np.ndarray, begin: np.ndarray, lengths: np.ndarray,
               width: int) -> np.ndarray:
    """Sums of the rows ``values[begin[i]:begin[i] + lengths[i]]``, through one grid.

    Grid row i holds row i's values and then zeros, up to ``width`` cells,
    which exceeds every row's length.  ``np.add.accumulate`` adds along each
    grid row from its first value, where the loop starts from 0.0.  The two
    running sums can differ only as -0.0 against 0.0, and adding a trailing
    zero turns -0.0 into 0.0, so every row ends on the loop's sum.
    """
    columns = np.arange(width)
    grid = values.take(begin[:, None] + columns, mode="clip")
    grid[columns >= lengths[:, None]] = 0.0
    return np.add.accumulate(grid, axis=1)[:, -1]


def _l2_normalize_rows(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Each row's squares added left to right, in column order.
    norms = np.sqrt(row_sums(indptr, values * values))
    norms[norms == 0.0] = 1.0
    return values / np.repeat(norms, np.diff(indptr))


class ExtractorStack:
    """What ``stacked_transform`` needs of a sequence of extractors, worked out once.

    ``lexicons`` and ``emoticons`` are the first extractor's, and every
    extractor's pair must equal them (``ContractViolation`` otherwise); this
    is the one place that checks text work.  A bundle's extractors, fitted
    from one count matrix or loaded from one bundle, hold the same objects,
    so for them the check is an identity test, and one stack serves every
    emotion of the bundle.

    Its term table has one column per term of the extractors' vocabularies,
    in sorted order: ``terms`` names the columns and ``index``, built on
    first use, maps each term to its column.  Row e of ``slots`` holds each
    column's slot in extractor e's vocabulary, or -1 where that vocabulary
    lacks the term; the last column is all -1 and stands for a term no
    extractor knows.  Every vocabulary is sorted too, so each extractor's
    slots rise with the column.  ``count_texts`` counts texts straight into
    the table, looking unigrams and bigrams alike up in ``index``.

    The other fields are the extractors' constants laid side by side: where
    each feature space and each category block starts, the n-gram idf over
    the whole stacked space, and the category idf and cue scalers of each
    extractor, shaped (extractor, 1, slot) to broadcast over documents.

    ``fitted_on`` builds the stack of one fit straight from a count matrix,
    with no ``FittedExtractor``: training builds every fold's rows, and the
    final model's, on such a stack.
    """

    def __init__(self, extractors: Sequence[FittedExtractor]):
        if not extractors:
            raise ContractViolation("a stacked transform needs at least one extractor")
        self.extractors = tuple(extractors)
        head = self.extractors[0]
        if any((fitted.lexicons, fitted.emoticons) != (head.lexicons, head.emoticons)
               for fitted in self.extractors):
            raise ContractViolation(
                "stacked extractors must share their lexicons and emoticon table")
        vocabularies = [fitted.vocabulary for fitted in self.extractors]
        # Each vocabulary's new terms stay one sorted run, which sorted() merges.
        self.terms = tuple(sorted(dict.fromkeys(chain.from_iterable(
            vocab.terms for vocab in vocabularies))))
        slots = np.full((len(vocabularies), len(self.terms) + 1), -1, dtype=np.int64)
        for row, vocab in zip(slots, vocabularies):
            row[np.fromiter(map(self.index.__getitem__, vocab.terms), np.int64,
                            len(vocab))] = np.arange(len(vocab))
        self._lay_out(head.lexicons, head.emoticons, slots, [
            (fitted.ngram_idf, fitted.category_idf, fitted.aux_mean, fitted.aux_std)
            for fitted in self.extractors])

    @classmethod
    def fitted_on(cls, counts: CorpusCounts, min_df: int = 2) -> "ExtractorStack":
        """``ExtractorStack([fit_counts(counts, min_df)])``, worked out from the count arrays.

        Its term table is ``counts.terms`` itself, so ``stacked_transform``
        takes the columns of counts that share the table (``counts``, and
        the counts it was taken from) as they are, into rows of the same
        bits.  A fit's vocabulary is the kept columns in order, so a kept
        column's slot is its rank among them.  The idf comes from
        ``_idfs`` and the scalers from ``_fit_statistics``, as
        ``fit_counts`` has them; ``extractors`` is empty.
        """
        df, keep, category_df, aux_mean, aux_std = _fit_statistics(counts, min_df)
        stack = cls.__new__(cls)
        stack.extractors = ()
        stack.terms = counts.terms
        slots = np.full((1, len(keep) + 1), -1, dtype=np.int64)
        slots[0, :-1][keep] = np.arange(np.count_nonzero(keep))
        stack._lay_out(counts.lexicons, counts.emoticons, slots, [(
            _idfs(df[keep], counts.n_docs), _idfs(category_df, counts.n_docs), aux_mean,
            aux_std)])
        return stack

    def _lay_out(self, lexicons: LexiconSet, emoticons: frozenset[str], slots: np.ndarray,
                 spaces: Sequence[tuple]) -> None:
        """The fields from ``slots`` and each extractor's space.

        A space is (n-gram idf, category idf, cue means, cue stddevs).
        """
        self.lexicons, self.emoticons, self.slots = lexicons, emoticons, slots
        n_stack = len(spaces)
        ngram_idfs, category_idfs, means, stds = zip(*spaces)
        widths = [len(values) for values in ngram_idfs]
        dimensions = [width + len(category) + len(AUX_FEATURES)
                      for width, category in zip(widths, category_idfs)]
        self.offsets = np.array([0, *accumulate(dimensions)])
        self.category_offsets = self.offsets[:-1] + widths
        self.ngram_idf = np.zeros(self.offsets[-1])
        for start, width, values in zip(self.offsets.tolist(), widths, ngram_idfs):
            self.ngram_idf[start:start + width] = values
        self.category_idf = np.array(category_idfs).reshape(n_stack, 1, -1)
        self.aux_mean = np.array(means).reshape(n_stack, 1, -1)
        std = np.array(stds).reshape(n_stack, 1, -1)
        self.aux_active = std > 0.0
        self.aux_std = np.where(self.aux_active, std, 1.0)

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def dimension(self) -> int:
        return int(self.offsets[-1])

    @cached_property
    def index(self) -> Mapping[str, int]:
        """term -> column."""
        return dict(zip(self.terms, count()))

    def count_texts(self, texts: Sequence[str]) -> CorpusCounts:
        """``count_texts`` into the term table, dropping n-grams no extractor knows.

        The counts' ``terms`` are the stack's own, which ``stacked_transform``
        takes as its columns.
        """
        return _count(_term_streams(texts, self.emoticons), self.lexicons, self.emoticons, self)


def transform_counts(counts: CorpusCounts, fitted: FittedExtractor) -> FeatureMatrix:
    """One feature row per document of a counted corpus.

    ``fitted`` must share the lexicons and emoticon table the counts were
    made with (``ContractViolation`` otherwise).  Row i is document i's
    n-gram block, category block and standardized cue scores, in that order.
    Transform a subset with ``transform_counts(counts.take(rows), fitted)``.
    This is the one-extractor case of ``stacked_transform``, on ``fitted.stack``.
    """
    return stacked_transform(counts, fitted.stack)


def stacked_transform(counts: CorpusCounts, stack: ExtractorStack) -> FeatureMatrix:
    """Every stacked extractor's ``transform_counts`` rows, in one matrix.

    The matrix has ``len(stack) * counts.n_docs`` rows, extractor-major, and
    its columns are the extractors' feature spaces laid side by side: row
    ``e * n + i`` is row i of ``transform_counts(counts, stack.extractors[e])``
    with every index shifted by the dimensions of the extractors before e.
    The values are the same bits, because each comes from the same scalar
    operations and each block's L2 norm is summed in the same order.  The
    category and cue blocks are read from the counts, so they must have been
    made with the stack's lexicons and emoticon table; ``ContractViolation``
    otherwise.  A caller that transforms many blocks for the same extractors
    builds their ``ExtractorStack`` once.
    """
    if (counts.lexicons, counts.emoticons) != (stack.lexicons, stack.emoticons):
        raise ContractViolation(
            "the counts were made with other lexicons or another emoticon table "
            "than the stacked extractors'")
    n, k = counts.category_counts.shape
    n_stack = len(stack)
    offsets = stack.offsets

    # n-gram block: tf * idf over in-vocabulary terms, L2 per row.
    if counts.terms is stack.terms:     # counted into the stack's term table
        columns = counts.indices
    else:
        table = np.fromiter(map(stack.index.get, counts.terms, repeat(-1)), np.int64,
                            len(counts.terms))
        columns = table[counts.indices]
    slots = stack.slots.take(columns, axis=1)
    known = slots >= 0
    ngram_rows = (_row_ids(counts.indptr) + (n * np.arange(n_stack))[:, None])[known]
    ngram_ptr = _indptr_of(ngram_rows, n_stack * n)
    # An out-of-vocabulary term (slot -1) points one column before its
    # extractor's space, the first extractor's at the last column; the mask
    # drops its value.
    columns = slots + offsets[:-1, None]
    ngram_values = _l2_normalize_rows(ngram_ptr, (counts.counts * stack.ngram_idf[columns])[known])
    columns = columns[known]

    # Category and cue blocks: hits * idf, L2 per row, then the standardized
    # cue scores, built dense over (extractor, document, slot).  A category
    # without training df has idf 0 and a zero stddev disables a cue
    # feature, so the nonzero entries are exactly the ones the extractor keeps.
    z = np.where(stack.aux_active, (counts.aux - stack.aux_mean) / stack.aux_std, 0.0)
    category = counts.category_counts * stack.category_idf
    tail = np.concatenate((category, z), axis=2).reshape(n_stack * n, k + len(AUX_FEATURES))
    tail_rows, tail_slots = np.nonzero(tail)
    tail_ptr = _indptr_of(tail_rows, n_stack * n)
    tail_values = tail[tail_rows, tail_slots]
    category = tail_slots < k
    tail_values[category] = _l2_normalize_rows(
        _indptr_of(tail_rows[category], n_stack * n), tail_values[category]
    )

    # Each row is its n-gram entries, then its category and cue entries:
    # place every block's entries after the n-gram entries of the same row.
    out_ptr = ngram_ptr + tail_ptr
    indices = np.empty(out_ptr[-1], dtype=np.int64)
    data = np.empty(out_ptr[-1], dtype=np.float64)
    for block_rows, shift, block_indices, block_values in (
        (ngram_rows, tail_ptr[:-1], columns, ngram_values),
        (tail_rows, ngram_ptr[1:], np.repeat(stack.category_offsets, n)[tail_rows] + tail_slots,
         tail_values),
    ):
        at = np.arange(len(block_rows)) + shift[block_rows]
        indices[at] = block_indices
        data[at] = block_values
    # No value is zero, as FeatureMatrix requires: tf, idf >= 1 and cue
    # entries are kept only when nonzero.
    return FeatureMatrix(out_ptr, indices, data, stack.dimension)

