"""Every ``python`` block of README.md runs as written.

Each block runs alone, in a fresh namespace, in a directory holding a
``gold.csv`` like the one the quick start makes, so a renamed or removed
library name fails here instead of in a reader's hands.
"""

import re
from pathlib import Path

import pytest

from emoclf.corpus import write_gold_corpus
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(tmp_path, monkeypatch, index):
    keywords = {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")}
    write_gold_corpus(tmp_path / "gold.csv",
                      generate_planted_corpus(120, keywords, noise=0.05, seed=0), list(keywords))
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
