"""Reference noise stripper: the regex fixpoint that ``textprep.strip_noise`` replaced.

Six substitutions run in order, and the whole pass repeats until the text
stops changing.  It is quadratic on hostile markup (an unclosed ``<code>``,
deeply nested ``<<…>>``, long ``a.a.a…`` runs), so tests call it only on
small or ordinary texts.  Deliberately shares no code with the package.
"""

import re

NOISE_PATTERNS = (
    re.compile(r"```.*?```", re.DOTALL),                            # fenced code
    re.compile(r"<code\b[^>]*>.*?</code>", re.IGNORECASE | re.DOTALL),
    re.compile(r"\b[A-Za-z][A-Za-z0-9+.\-]*://[^\s<>]+"),           # scheme://…
    re.compile(r"\bwww\.[^\s<>]+"),                                 # bare www.…
    re.compile(r"<[^<>]+>"),                                        # leftover tags
    re.compile(r"^[ ]{4,}\S.*$", re.MULTILINE),                     # indented code
)


def strip_noise_fixpoint(text: str) -> str:
    """Apply every pattern in order, replacing each match by one space, until stable."""
    while True:
        cleaned = text
        for pattern in NOISE_PATTERNS:
            cleaned = pattern.sub(" ", cleaned)
        if cleaned == text:
            return cleaned
        text = cleaned
