#!/usr/bin/env python3
"""Check the fused tokenizer against the reference on every code point.

Each code point c that is neither a surrogate nor whitespace goes through
``textprep.term_tokens`` and through the reference tokenizer of
``tests/reference_features.py`` (``tokenize`` + ``bears_term``) in the forms
c, ac, ca, aca and cc, with the default emoticon table.  The two must give
the same lowered tokens and term flags: everything ``term_tokens`` returns.

    python scripts/check_tokenizer_unicode.py

Exits 1 and lists the first differences if any form disagrees.  It takes
about half a minute, so it runs as its own CI step, not in the test suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

from emoclf.lexicons import default_emoticons
from emoclf.textprep import bears_term, term_tokens

# The reference tokenizer lives with the tests, not in the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_features import tokenize

FORMS = ("{c}", "a{c}", "{c}a", "a{c}a", "{c}{c}")
BLOCK = 4096        # code points per joined text
SHOWN = 20


def tokens_and_flags(text: str, emoticons: frozenset[str]):
    """(fused, reference): lowered tokens and term flags of ``text``."""
    reference = tokenize(text, emoticons)
    return (
        term_tokens(text, emoticons),
        (list(reference.lowered), list(map(bears_term, reference.tokens))),
    )


def main() -> int:
    emoticons = default_emoticons()
    checked = 0
    differences = []
    for start in range(0, sys.maxunicode + 1, BLOCK):
        chars = [
            chr(point) for point in range(start, min(start + BLOCK, sys.maxunicode + 1))
            if not 0xD800 <= point <= 0xDFFF and not chr(point).isspace()
        ]
        forms = [form.format(c=c) for c in chars for form in FORMS]
        checked += len(forms)
        # Both sides split on whitespace first and no form holds any, so the
        # joined text agrees exactly when every form does.
        fused, reference = tokens_and_flags(" ".join(forms), emoticons)
        if fused != reference:
            for text in forms:
                fused, reference = tokens_and_flags(text, emoticons)
                if fused != reference:
                    differences.append((text, fused, reference))
    for text, fused, reference in differences[:SHOWN]:
        print(f"{text!r}: fused {fused!r}, reference {reference!r}")
    print(f"{checked} forms checked, {len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
