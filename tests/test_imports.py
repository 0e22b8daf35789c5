"""What a cold start imports, and where the library's names live.

Loading a bundle and classifying with it import neither the trainer
(``emoclf.training``) nor the solver (``emoclf.svm``), nor the standard
modules only training and splitting use.  The trainer's and the solver's
public names still resolve from ``emoclf`` and ``emoclf.pipeline``, which
load them on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import emoclf
from emoclf import corpus, features, lexicons, linear, pipeline, svm, textprep, training
from emoclf.corpus import write_gold_corpus, write_input_corpus
from emoclf.pipeline import TrainConfig, TuningGrid, save_bundle
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus

SRC = Path(pipeline.__file__).resolve().parents[1]

TRAINING_ONLY = ("emoclf.training", "emoclf.svm", "concurrent.futures", "hashlib",
                 "fractions", "uuid")

SET_UP = """
import sys
from emoclf import corpus, pipeline
from emoclf import cli

gold_path, input_path, bundle_path, out_path = sys.argv[1:]
gold, _ = corpus.read_gold_corpus(gold_path)
docs = corpus.read_input_corpus(input_path)
bundle = pipeline.load_bundle(bundle_path)
pipeline.classify(bundle, docs)
pipeline.evaluate(bundle, gold)
assert cli.main(["classify", "--model", bundle_path, "--input", input_path,
                 "--out", out_path]) == 0
assert cli.main(["evaluate", "--model", bundle_path, "--gold", gold_path]) == 0
print("loaded", *(name for name in TRAINING_ONLY if name in sys.modules))
"""


def test_loading_and_classifying_import_no_trainer(tmp_path):
    keywords = {"joy": DEFAULT_KEYWORDS, "anger": ("grumblex", "snarlit", "vexopod")}
    gold = generate_planted_corpus(60, keywords, noise=0.0, seed=3)
    config = TrainConfig(folds=3, grid=TuningGrid((0.25, 1.0)), min_df=1)
    save_bundle(training.train_all(gold, list(keywords), config), tmp_path / "model.emo")
    write_gold_corpus(tmp_path / "gold.csv", gold, list(keywords))
    write_input_corpus(tmp_path / "posts.csv", [d.doc for d in gold[:20]])

    result = subprocess.run(
        [sys.executable, "-c", f"TRAINING_ONLY = {TRAINING_ONLY!r}\n{SET_UP}",
         *(str(tmp_path / name) for name in ("gold.csv", "posts.csv", "model.emo", "out.csv"))],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "loaded"


# Every name ``emoclf`` exported before the trainer and the scoring code moved
# out of ``pipeline`` and ``svm``, and the module that now defines it.
PACKAGE_NAMES = {
    corpus: ("Document", "LabeledDocument", "SplitResult", "read_gold_corpus",
             "read_input_corpus", "stratified_split", "write_gold_corpus",
             "write_input_corpus", "write_predictions"),
    features: ("FeatureMatrix", "FittedExtractor", "Vocabulary", "idf"),
    lexicons: ("LexiconSet", "default_lexicons", "load_lexicons"),
    pipeline: ("DEFAULT_C_GRID", "EvalReport", "ModelBundle", "TrainConfig", "TuningGrid",
               "classify", "evaluate", "evaluate_heldout", "load_bundle", "save_bundle"),
    training: ("train_all",),
    linear: ("LinearModel", "predict"),
    svm: ("SolverParams", "TrainingMonitor", "TrainingProblem", "dual_objective",
          "train_dual_cd"),
    textprep: ("strip_noise",),
}
MOVED_FROM_PIPELINE = ("FoldPlan", "FoldScore", "check_heldout_partitions", "derive_seed",
                       "make_fold_plan", "select_best_cost", "split_seed_for", "train_all")
MOVED_FROM_SVM = ("L1_HINGE", "L2_HINGE", "LinearModel", "ModelStack", "decision_values",
                  "stacked_decision_values", "predict_rows", "predict")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PACKAGE_NAMES.items() for name in names
], ids=lambda value: getattr(value, "__name__", value))
def test_every_package_name_resolves_to_its_defining_module(module, name):
    defined = module.__dict__[name]
    assert getattr(emoclf, name) is defined
    if callable(defined):
        assert defined.__module__ == module.__name__


@pytest.mark.parametrize("name", MOVED_FROM_PIPELINE)
def test_moved_training_names_resolve_through_pipeline(name):
    assert getattr(pipeline, name) is training.__dict__[name]
    assert training.__dict__[name].__module__ == "emoclf.training"
    namespace = {}
    exec(f"from emoclf.pipeline import {name}", namespace)
    assert namespace[name] is training.__dict__[name]


@pytest.mark.parametrize("name", MOVED_FROM_SVM)
def test_moved_scoring_names_resolve_through_svm(name):
    assert getattr(svm, name) is linear.__dict__[name]


@pytest.mark.parametrize("module, name, home", [
    (pipeline, "train_all", training),
    (pipeline, "TrainConfig", pipeline),
    (pipeline, "TuningGrid", pipeline),
    (svm, "predict", linear),
    (svm, "TrainingMonitor", svm),
], ids=lambda value: getattr(value, "__name__", value))
def test_the_names_the_benchmark_calls_resolve(module, name, home):
    assert getattr(module, name) is home.__dict__[name]


def test_the_solver_module_is_still_a_package_attribute():
    result = subprocess.run(
        [sys.executable, "-c", "import emoclf; print(emoclf.svm.__name__)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["emoclf.svm"]


@pytest.mark.parametrize("module", [emoclf, pipeline], ids=lambda m: m.__name__)
def test_an_unknown_name_is_still_an_attribute_error(module):
    # Tracers and ``hasattr`` rely on it: a name neither defined nor served is absent.
    assert not hasattr(module, "grid_search_C")
    with pytest.raises(AttributeError, match="grid_search_C"):
        module.grid_search_C

