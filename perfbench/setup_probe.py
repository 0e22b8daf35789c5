"""One cold set-up, timed: import emoclf, read the CSVs, load the bundle.

    python3 perfbench/setup_probe.py GOLD_CSV INPUT_CSV BUNDLE
    python3 perfbench/setup_probe.py --reference

Prints one JSON object with the elapsed seconds and what was loaded, so the
caller can check it.  ``--reference`` times only ``import numpy``: start-up
work the library does not own, which the caller uses to read the host's
speed for this kind of work.  The caller puts the library's ``src`` on
PYTHONPATH.
"""

import json
import sys
import time


def set_up(gold_path: str, input_path: str, bundle_path: str) -> dict:
    start = time.perf_counter()
    from emoclf import corpus, pipeline  # the import is part of what is timed

    gold, _ = corpus.read_gold_corpus(gold_path)
    docs = corpus.read_input_corpus(input_path)
    bundle = pipeline.load_bundle(bundle_path)
    return {
        "seconds": time.perf_counter() - start,
        "gold": len(gold),
        "docs": len(docs),
        "emotions": list(bundle.emotions),
    }


def reference() -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401  (the import is what is timed)

    return {"seconds": time.perf_counter() - start}


if __name__ == "__main__":
    args = sys.argv[1:]
    print(json.dumps(reference() if args == ["--reference"] else set_up(*args)))
