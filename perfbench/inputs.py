"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with no dependency on emoclf, so the
inputs of a given (workload, seed) pair stay the same whatever the library
does.  Documents carry nonsense keywords planted in filler words, as in
acceptance test C07: the classifier can only find them through its n-gram
features, never through the shipped lexicons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FILLERS = (
    "the a an this that it they we you i he she one two value line code "
    "method class file run test data list item call stack trace loop "
    "set get put map key index array string number object type case "
    "build link page post answer question thread reply edit note step "
    "use used using work works change changed add added remove removed "
    "version update branch merge commit push pull open close start end"
).split()

# C07's five keywords for `joy`.
C07_KEYWORDS = {"joy": ("zyblor", "quexal", "vintrum", "ploxate", "drazzle")}

MULTI_KEYWORDS = {
    "joy": ("frabble", "glintor", "mizzle", "quorrel"),
    "anger": ("grumblex", "snarlit", "vexopod", "thrazz"),
    "sadness": ("dolmire", "wepfen", "glumtor", "saddox"),
    "fear": ("skreeb", "tremlok", "quivvel", "frightor"),
    "love": ("amorix", "cherrup", "dovelin", "hartlow"),
    "surprise": ("boggit", "zingrap", "whoomel", "gaspor"),
}

FORUM_KEYWORDS = {
    "joy": ("zyblor", "quexal", "vintrum", "ploxate"),
    "anger": ("grumblex", "snarlit", "vexopod", "thrazz"),
}

CODE_WORDS = "foo bar baz qux x y i n err ret self tmp buf".split()

STREAM_DOCS = 2000      # classify stream size, every workload
BATCH_DOCS = 20         # documents per classify request: 100 batches per pass
LABEL_NOISE = 0.05      # share of gold labels flipped, as in C07


@dataclass(frozen=True)
class Workload:
    """One training corpus, one classify stream and the protocol around them."""

    name: str
    keywords: dict[str, tuple[str, ...]]
    n_gold: int
    positive_rate: float
    folds: int
    grid: tuple[float, ...] | None      # None: the library's default grid
    loss: str                           # "l1" or "l2" hinge
    max_jobs: int                       # jobs = min(max_jobs, cores)
    f1_floor: float                     # every emotion's held-out F1 must reach it
    markup: bool = False
    hostile_share: float = 0.0
    train_reps: int = 3                 # trainings per untraced run; train_s is their median

    @property
    def emotions(self) -> tuple[str, ...]:
        return tuple(self.keywords)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-c07", C07_KEYWORDS, n_gold=1200, positive_rate=0.5,
                 folds=10, grid=None, loss="l2", max_jobs=1,
                 f1_floor=0.90, train_reps=2),
        Workload("multi-6emo", MULTI_KEYWORDS, n_gold=600, positive_rate=0.3,
                 folds=5, grid=(0.25, 1.0, 4.0), loss="l1",
                 max_jobs=2, f1_floor=0.75),
        Workload("forum-markup", FORUM_KEYWORDS, n_gold=400, positive_rate=0.5,
                 folds=5, grid=(0.25, 1.0, 4.0), loss="l2",
                 max_jobs=1, f1_floor=0.80, markup=True, hostile_share=0.01,
                 train_reps=5),
    )
}


def _rng(workload: Workload, seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload.name}:{seed}:{stream}")


def _code_line(rng: random.Random, decoys: tuple[str, ...]) -> str:
    words = [rng.choice(CODE_WORDS) for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.3:
        # A keyword inside code must vanish with the code, or labels leak.
        words.insert(rng.randrange(len(words) + 1), rng.choice(decoys))
    return f"{words[0]}({', '.join(words[1:])})"


def _forum_post(rng: random.Random, words: list[str], decoys: tuple[str, ...]) -> str:
    """Wrap prose words in HTML, fenced and indented code, code spans and URLs."""
    cut = rng.randint(1, max(1, len(words) - 1))
    head, tail = " ".join(words[:cut]), " ".join(words[cut:])
    parts = [f"<p>{head}</p>"]
    if rng.random() < 0.5:
        parts.append(f"```\n{_code_line(rng, decoys)}\n{_code_line(rng, decoys)}\n```")
    if rng.random() < 0.5:
        parts.append(f"    {_code_line(rng, decoys)}")
    inline = f"<code>{_code_line(rng, decoys)}</code>" if rng.random() < 0.6 else ""
    url = f"https://example.org/q/{rng.randrange(10**6)}#a{rng.randrange(100)}"
    link = rng.choice((url, f"<a href=\"{url}\">link</a>", f"www.example.com/{rng.randrange(999)}"))
    parts.append(f"<div class=\"post\">{tail} {inline} see {link}</div>")
    return "\n".join(parts)


def hostile_post(rng: random.Random) -> str:
    """About 8 KB of unclosed `<code>` plus deeply nested angle brackets."""
    depth = rng.randint(250, 300)
    return (
        "<p>" + " ".join(rng.choice(FILLERS) for _ in range(10)) + "</p> "
        + "<code>x " * 1000
        + "<" * depth + "a" + ">" * depth
    )


def planted_docs(
    workload: Workload, rng: random.Random, n: int, prefix: str
) -> list[tuple[str, str, dict[str, int]]]:
    """``n`` (id, text, labels) triples with per-emotion keyword signal.

    A document is text-positive for an emotion with probability
    ``positive_rate`` and then gets 2-4 of its keywords; each recorded label
    is flipped with probability ``LABEL_NOISE``.
    """
    decoys = tuple(k for words in workload.keywords.values() for k in words)
    docs = []
    for i in range(n):
        words = [rng.choice(FILLERS) for _ in range(rng.randint(8, 20))]
        labels = {}
        for emotion, keywords in workload.keywords.items():
            positive = rng.random() < workload.positive_rate
            if positive:
                for _ in range(rng.randint(2, 4)):
                    words.insert(rng.randrange(len(words) + 1), rng.choice(keywords))
            label = int(positive)
            if rng.random() < LABEL_NOISE:
                label = 1 - label
            labels[emotion] = label
        text = _forum_post(rng, words, decoys) if workload.markup else " ".join(words)
        docs.append((f"{prefix}{i + 1}", text, labels))
    return docs


def gold_corpus(workload: Workload, seed: int) -> list[tuple[str, str, dict[str, int]]]:
    return planted_docs(workload, _rng(workload, seed, "gold"), workload.n_gold, "g")


def classify_stream(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """Fresh unlabeled documents; exactly ``round(hostile_share * n)`` are hostile."""
    rng = _rng(workload, seed, "stream")
    docs = [(doc_id, text) for doc_id, text, _ in
            planted_docs(workload, rng, STREAM_DOCS, "s")]
    n_hostile = round(workload.hostile_share * STREAM_DOCS)
    for position in rng.sample(range(STREAM_DOCS), n_hostile):
        docs[position] = (docs[position][0], hostile_post(rng))
    return docs
