"""Reference feature fit: one token stream at a time, for tests to compare against.

``fit`` builds a ``FittedExtractor`` from token streams with plain loops over
``ngram_terms``; ``features.fit_counts`` must give the same extractor from
the corpus counts.  ``count_streams`` counts already tokenized streams with
the package's counting core (``features._count``), so tests can build a
``CorpusCounts`` without going through ``count_texts``.  Together with
``features.assemble`` these are the single-document path the corpus path
reproduces bit for bit.
"""

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from emoclf import features
from emoclf.errors import EmptyCorpus
from emoclf.features import CorpusCounts, FittedExtractor, Vocabulary, _aux_scores
from emoclf.lexicons import LexiconSet, default_emoticons
from emoclf.textprep import TokenStream, bears_term, ngram_occurrences


def ngram_terms(stream: TokenStream) -> list[str]:
    """Distinct n-gram terms in first-occurrence order."""
    return list(dict.fromkeys(ngram_occurrences(stream)))


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

    aux_rows = np.array([_aux_scores(stream.lowered, lexicons) for stream in train_docs])
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


def count_streams(
    streams: Iterable[TokenStream],
    lexicons: LexiconSet,
    emoticons: frozenset[str] | None = None,
) -> CorpusCounts:
    """Count n-grams, category hits and cue scores of tokenized documents.

    ``emoticons`` should be the table the streams were tokenized with.
    Streams are consumed one at a time, so a generator keeps only one alive.
    """
    docs = ((stream.lowered, list(map(bears_term, stream.tokens))) for stream in streams)
    return features._count(docs, lexicons, default_emoticons() if emoticons is None else emoticons)
