"""Per-emotion binary text classification toolkit.

Pipeline: strip markup noise, tokenize, extract tf-idf n-grams plus lexical
cue features, train one linear SVM per emotion with cross-validated cost
tuning, and report precision/recall/F1 on held-out data.
"""

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
    assemble,
    fit,
    idf,
)
from .lexicons import LexiconSet, default_lexicons, load_lexicons
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
    train_all,
    train_emotion_model,
)
from .svm import (
    LinearModel,
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    dual_objective,
    predict,
    train_dual_cd,
)
from .textprep import TokenStream, ngram_terms, strip_noise, tokenize
