#!/usr/bin/env python3
"""Check the noise stripper against the one-step-per-construct scan on markup soup.

Seeded strings from ``markup_soup`` in ``tests/strip_oracle.py`` (tags, runs
of "<" and ">", "<>", code openers with and without a closer, near-misses of
"```", "www." and "://", indented lines, all abutting) go through
``textprep.strip_noise`` and through ``strip_noise_scan``, the scan it must
match byte for byte.

    python scripts/check_strip_equivalence.py

Exits 1 and lists the first differences if any string disagrees.  The
300,000 strings take about ten seconds, so it runs as its own CI step; the
test suite checks a smaller sample.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from emoclf.textprep import strip_noise

# The reference scan lives with the tests, not in the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from strip_oracle import markup_soup, strip_noise_scan

STRINGS = 300_000
SEED = 0
SHOWN = 20


def main() -> int:
    rng = random.Random(SEED)
    differences = []
    for _ in range(STRINGS):
        text = markup_soup(rng)
        stripped, reference = strip_noise(text), strip_noise_scan(text)
        if stripped != reference:
            differences.append((text, stripped, reference))
    for text, stripped, reference in differences[:SHOWN]:
        print(f"{text!r}: strip_noise {stripped!r}, scan {reference!r}")
    print(f"{STRINGS} strings checked, {len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
