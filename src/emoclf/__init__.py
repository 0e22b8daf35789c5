"""Per-emotion binary text classification toolkit.

Pipeline: strip markup noise, tokenize, extract tf-idf n-grams plus lexical
cue features, train one linear SVM per emotion with cross-validated cost
tuning, and report precision/recall/F1 on held-out data.

Importing the package loads what loading a bundle and classifying need.
The trainer and the solver load on first use of a name that needs them
(``train_all``, ``train_dual_cd`` and the others in ``_LAZY_NAMES``).
"""

import importlib

__version__ = "0.1.0"

from .corpus import (
    Document,
    LabeledDocument,
    SplitResult,
    read_gold_corpus,
    read_input_corpus,
    stratified_split,
    write_gold_corpus,
    write_input_corpus,
    write_predictions,
)
from .features import (
    FeatureMatrix,
    FittedExtractor,
    Vocabulary,
    idf,
)
from .lexicons import LexiconSet, default_lexicons, load_lexicons
from .linear import LinearModel, predict
from .pipeline import (
    DEFAULT_C_GRID,
    EvalReport,
    ModelBundle,
    TrainConfig,
    TuningGrid,
    classify,
    evaluate,
    evaluate_heldout,
    load_bundle,
    save_bundle,
)
from .textprep import strip_noise

# Exported names whose modules load on first use: name -> defining module.
_LAZY_NAMES = {
    "train_all": "training",
    "SolverParams": "svm",
    "TrainingMonitor": "svm",
    "TrainingProblem": "svm",
    "dual_objective": "svm",
    "train_dual_cd": "svm",
}


def __getattr__(name: str):
    if name == "svm":   # an attribute of the package while the package imported it
        return importlib.import_module(".svm", __name__)
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
