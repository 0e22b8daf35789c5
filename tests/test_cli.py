import dataclasses
import json
import math
import subprocess
import sys

import pytest

from emoclf import cli, features
from emoclf.cli import main
from emoclf.corpus import Document, LabeledDocument, write_gold_corpus, write_input_corpus
from emoclf.errors import ParseError
from emoclf.linear import predict
from emoclf.pipeline import TUNE_METRICS, TrainConfig, load_bundle
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus

ANGER_KEYWORDS = ("grumblex", "snarlit", "vexopod", "irktron", "fumeply")

FAST_FLAGS = ["--folds", "3", "--grid", "0.25,1", "--min-df", "1"]

# An edit's new value that deletes its field.
DELETED = object()

# Edits that break a bundled extractor: path to a field -> new value from old.
EXTRACTOR_DEFECTS = {
    "unknown category": {("categories",): lambda v: ["no_such_category"] + v[1:]},
    "short category_df": {("category_df",): lambda v: v[:-1]},
    "category_df above n_docs": {("category_df",): lambda v: [10**6] + v[1:]},
    "short aux_mean": {("aux_mean",): lambda v: v[:-1]},
    "nan aux_mean": {("aux_mean",): lambda v: [float("nan")] + v[1:]},
    "short aux_std": {("aux_std",): lambda v: v[:-1]},
    "negative aux_std": {("aux_std",): lambda v: [-1.0] + v[1:]},
    "short vocabulary df": {("vocabulary", "df"): lambda v: v[:-1]},
    "zero df under min_df 0": {
        ("vocabulary", "min_df"): lambda v: 0,
        ("vocabulary", "df"): lambda v: [0] + v[1:],
    },
    "reversed terms": {("vocabulary", "terms"): lambda v: v[::-1]},
    # The fields every payload holds with one value, edited and deleted.
    "edited lowercase_ngrams": {("lowercase_ngrams",): lambda v: False},
    "deleted lowercase_ngrams": {("lowercase_ngrams",): lambda v: DELETED},
    "edited idf": {("idf",): lambda v: "ln(n_docs/df)"},
    "deleted idf": {("idf",): lambda v: DELETED},
    "edited aux_standardized": {("aux_standardized",): lambda v: 1},   # == True, but not true
    "deleted aux_standardized": {("aux_standardized",): lambda v: DELETED},
    "edited aux_features": {("aux_features",): lambda v: v[::-1]},
    "deleted aux_features": {("aux_features",): lambda v: DELETED},
}


def _renamed_joy(name):
    """Edits that rename the emotion joy, in the list and in the models alike."""
    return {
        ("emotions",): lambda v: [name if e == "joy" else e for e in v],
        ("models",): lambda v: {(name if e == "joy" else e): m for e, m in v.items()},
    }


# Edits that break a bundle's manifest: path from the bundle root -> new value.
MANIFEST_DEFECTS = {
    "no emotions": {("emotions",): lambda v: []},
    "repeated emotion": {("emotions",): lambda v: [v[0], v[0]]},
    "emotion name not lowercase": _renamed_joy("Joy"),
    "invalid emotion name": _renamed_joy("1joy"),
    "unknown loss": {("models", "joy", "loss"): lambda v: "l3"},
}


# Numbers of every emotion's model entry that must be JSON integers: path to
# the field -> nothing (a scalar), its first item (a list) or the value of its
# first key (a map).
INTEGER_FIELDS = {
    "sentiment": ("extractor", "lexicons", "sentiment"),
    "boosters": ("extractor", "lexicons", "boosters"),
    "df": ("extractor", "vocabulary", "df"),
    "category_df": ("extractor", "category_df"),
    "n_docs": ("extractor", "vocabulary", "n_docs"),
    "min_df": ("extractor", "vocabulary", "min_df"),
    "solver_seed": ("solver_seed",),
    "split_seed": ("split_seed",),
}


def _set_in_every_model(payload, path, value):
    for entry in payload["models"].values():
        *parents, name = path
        for key in parents:
            entry = entry[key]
        field = entry[name]
        if isinstance(field, dict):
            field[next(iter(field))] = value
        elif isinstance(field, list):
            field[0] = value
        else:
            entry[name] = value


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "emoclf", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def gold_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "gold.csv"
    docs = generate_planted_corpus(
        60, {"joy": DEFAULT_KEYWORDS, "anger": ANGER_KEYWORDS}, seed=21
    )
    write_gold_corpus(path, docs, ["joy", "anger"])
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, gold_csv):
    out_dir = tmp_path_factory.mktemp("model")
    bundle_path = out_dir / "model.emo"
    report_path = out_dir / "report.csv"
    result = run_cli(
        "train", "--gold", gold_csv, "--out", bundle_path,
        "--report", report_path, *FAST_FLAGS,
    )
    assert result.returncode == 0, result.stderr
    return bundle_path, report_path, result


class TestTrain:
    def test_writes_bundle_and_report(self, trained):
        bundle_path, report_path, result = trained
        assert bundle_path.exists() and report_path.exists()
        bundle = load_bundle(bundle_path)
        assert bundle.emotions == ("joy", "anger")

    def test_prints_chosen_cost_and_metrics(self, trained):
        _, _, result = trained
        for emotion in ("joy", "anger"):
            line = next(l for l in result.stdout.splitlines() if l.startswith(emotion))
            assert "C=" in line and "F1=" in line and "P=" in line and "R=" in line

    def test_emotion_filter(self, tmp_path, gold_csv):
        out = tmp_path / "joy_only.emo"
        result = run_cli(
            "train", "--gold", gold_csv, "--out", out, "--emotions", "joy", *FAST_FLAGS
        )
        assert result.returncode == 0, result.stderr
        assert load_bundle(out).emotions == ("joy",)

    def test_unknown_emotion_exits_2(self, tmp_path, gold_csv):
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "x.emo",
            "--emotions", "disdain", *FAST_FLAGS,
        )
        assert result.returncode == 2
        assert "disdain" in result.stderr

    def test_missing_gold_exits_2_and_names_path(self, tmp_path):
        missing = tmp_path / "no_such_gold.csv"
        result = run_cli("train", "--gold", missing, "--out", tmp_path / "x.emo")
        assert result.returncode == 2
        assert "no_such_gold.csv" in result.stderr

    def test_converged_run_prints_no_warning(self, trained):
        _, _, result = trained
        assert "warning" not in result.stderr

    def test_unconverged_final_model_warns(self, tmp_path, gold_csv):
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "m.emo",
            "--emotions", "joy", "--max-iters", "1", "--eps", "1e-9", *FAST_FLAGS,
        )
        assert result.returncode == 0, result.stderr
        warnings = [l for l in result.stderr.splitlines() if l.startswith("warning:")]
        assert len(warnings) == 1
        assert "joy" in warnings[0] and "1 sweeps without converging" in warnings[0]

    def test_capped_cross_validation_solves_are_counted_in_one_line_per_emotion(
            self, tmp_path, gold_csv):
        log = tmp_path / "tuning.csv"
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "m.emo", "--log-tuning", log,
            "--max-iters", "1", "--eps", "1e-9", *FAST_FLAGS,
        )
        assert result.returncode == 0, result.stderr
        warnings = [l for l in result.stderr.splitlines() if l.startswith("warning:")]
        assert [line.split(":")[1].strip() for line in warnings] == ["joy", "anger"]
        for line in warnings:
            # 3 folds x 2 costs, every one stopped after its one sweep.
            assert "6 of 6 cross-validation solves stopped at --max-iters 1" in line
            assert "the final solve stopped after 1 sweeps without converging" in line
        # The tuning log records evaluations only, as for converged solves.
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "emotion,fold,C,accuracy"
        assert [line.count(",") for line in lines] == [3] * (1 + 2 * 3 * 2)

    def test_tuning_log(self, tmp_path, gold_csv):
        log = tmp_path / "tuning.csv"
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "m.emo",
            "--emotions", "joy", "--log-tuning", log, *FAST_FLAGS,
        )
        assert result.returncode == 0, result.stderr
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "emotion,fold,C,accuracy"
        assert len(lines) - 1 == 3 * 2  # folds x grid points

    def test_tuning_log_and_bundle_do_not_depend_on_jobs(self, tmp_path, gold_csv):
        outputs = []
        for jobs in (1, 2):
            log, out = tmp_path / f"tuning{jobs}.csv", tmp_path / f"m{jobs}.emo"
            result = run_cli(
                "train", "--gold", gold_csv, "--out", out, "--log-tuning", log,
                "--jobs", jobs, *FAST_FLAGS,
            )
            assert result.returncode == 0, result.stderr
            outputs.append((log.read_bytes(), out.read_bytes()))
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode("utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["joy"] * 6 + ["anger"] * 6

    def test_unwritable_tuning_log_exits_2_before_training(self, tmp_path, gold_csv):
        out = tmp_path / "m.emo"
        result = run_cli(
            "train", "--gold", gold_csv, "--out", out,
            "--log-tuning", tmp_path / "no_such_dir" / "tuning.csv", *FAST_FLAGS,
        )
        assert result.returncode == 2
        assert "no_such_dir" in result.stderr
        assert not out.exists()

    def test_failed_training_keeps_the_previous_tuning_log(self, tmp_path, gold_csv):
        log = tmp_path / "tuning.csv"
        log.write_bytes(b"emotion,fold,C,accuracy\r\nearlier,0,1.0,0.5\n")
        before = log.read_bytes()
        # 30 folds need 30 documents of each class in the 42-document train partition.
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "m.emo",
            "--log-tuning", log, "--folds", "30", "--grid", "1", "--min-df", "1",
        )
        assert result.returncode == 2, result.stderr
        assert log.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["tuning.csv"]   # no temporary file

    @pytest.mark.parametrize("grid, message", [
        ("0,1", "strictly positive"), ("1,nan", "finite"),
    ])
    def test_invalid_grid_exits_2(self, tmp_path, gold_csv, grid, message):
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "m.emo", "--grid", grid,
        )
        assert result.returncode == 2
        assert "--grid" in result.stderr and message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("flag", ["--seed", "--min-df"])
    def test_an_integer_no_float_holds_exits_2_before_training(self, tmp_path, gold_csv, flag,
                                                               capsys):
        # Such a bundle would be written, and then refused by classify.
        out = tmp_path / "m.emo"
        assert main(["train", "--gold", str(gold_csv), "--out", str(out), *FAST_FLAGS,
                     flag, str(10**400)]) == 2
        assert "must lie within a float's range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--min-df", "--max-iters"])
    def test_min_df_and_max_iters_below_one_exit_2(self, tmp_path, gold_csv, flag):
        out = tmp_path / "m.emo"
        result = run_cli("train", "--gold", gold_csv, "--out", out, *FAST_FLAGS, flag, "-3")
        assert result.returncode == 2
        assert "must be at least 1" in result.stderr
        assert "training failed" not in result.stderr   # rejected before training
        assert not out.exists()


class TestClassify:
    def test_predictions_format(self, tmp_path, trained):
        bundle_path, _, _ = trained
        input_path = tmp_path / "input.csv"
        write_input_corpus(
            input_path,
            [Document("1", "zyblor quexal drazzle stuff"), Document("2", "plain text")],
        )
        out = tmp_path / "pred.csv"
        result = run_cli("classify", "--model", bundle_path, "--input", input_path, "--out", out)
        assert result.returncode == 0, result.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 1 + 2 * 2  # two docs x two emotions
        assert lines[1] in ("1,JOY", "1,NO_JOY")
        assert lines[2] in ("1,ANGER", "1,NO_ANGER")

    def test_empty_input_gives_header_only(self, tmp_path, trained):
        bundle_path, _, _ = trained
        input_path = tmp_path / "empty.csv"
        input_path.write_text("", encoding="utf-8")
        out = tmp_path / "pred.csv"
        result = run_cli("classify", "--model", bundle_path, "--input", input_path, "--out", out)
        assert result.returncode == 0
        assert out.read_text(encoding="utf-8") == "id,label\n"

    def test_oversized_text_field_exits_2(self, tmp_path, trained):
        bundle_path, _, _ = trained
        input_path = tmp_path / "input.csv"
        input_path.write_text(f"1,hello\n2,{'z' * 131073}\n", encoding="utf-8")
        result = run_cli(
            "classify", "--model", bundle_path, "--input", input_path,
            "--out", tmp_path / "pred.csv",
        )
        assert result.returncode == 2
        assert "line 2" in result.stderr and "131072" in result.stderr

    def test_document_over_the_library_limit_exits_2(self, tmp_path, trained, monkeypatch, capsys):
        # A CSV field cannot exceed the limit, so lower it to reach the library's check.
        monkeypatch.setattr(features, "MAX_DOCUMENT_CHARS", 20)
        bundle_path, _, _ = trained
        input_path = tmp_path / "input.csv"
        write_input_corpus(input_path, [Document("1", "short"), Document("2", "x" * 21)])
        out = tmp_path / "pred.csv"
        code = main(["classify", "--model", str(bundle_path), "--input", str(input_path),
                     "--out", str(out)])
        assert code == 2
        assert "document 1" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupted_bundle_exits_3(self, tmp_path):
        bad = tmp_path / "bad.emo"
        bad.write_text("{broken", encoding="utf-8")
        input_path = tmp_path / "input.csv"
        input_path.write_text("1,hello\n", encoding="utf-8")
        result = run_cli(
            "classify", "--model", bad, "--input", input_path,
            "--out", tmp_path / "pred.csv",
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("defect", sorted(EXTRACTOR_DEFECTS) + sorted(MANIFEST_DEFECTS))
    def test_malformed_extractor_fails_at_load_with_exit_3(self, tmp_path, trained, defect):
        # Manifest defects share this test: both fail at load as ParseError, exit 3.
        if defect in EXTRACTOR_DEFECTS:
            edits, at = EXTRACTOR_DEFECTS[defect], ("models", "joy", "extractor")
            message = "malformed extractor payload"
        else:
            edits, at, message = MANIFEST_DEFECTS[defect], (), "malformed bundle payload"
        bundle_path, _, _ = trained
        payload = json.loads(bundle_path.read_text(encoding="utf-8"))
        for (*parents, name), broken in edits.items():
            field = payload
            for key in (*at, *parents):
                field = field[key]
            field[name] = broken(field[name])
            if field[name] is DELETED:
                del field[name]
        bad = tmp_path / "bad.emo"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_bundle(bad)

        input_path = tmp_path / "input.csv"
        input_path.write_text("1,hello\n", encoding="utf-8")
        result = run_cli(
            "classify", "--model", bad, "--input", input_path,
            "--out", tmp_path / "pred.csv",
        )
        assert result.returncode == 3, result.stderr
        assert message in result.stderr


class TestEvaluate:
    def test_report_and_table(self, tmp_path, trained, gold_csv):
        bundle_path, _, _ = trained
        out = tmp_path / "eval.csv"
        result = run_cli("evaluate", "--model", bundle_path, "--gold", gold_csv, "--out", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0].split() == ["Emotion", "Prec", "Rec", "F1"]
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "emotion,tp,fp,fn,tn,precision,recall,f1,accuracy"
        assert len(lines) == 3

    def test_document_over_the_library_limit_exits_2(self, tmp_path, trained, monkeypatch, capsys):
        monkeypatch.setattr(features, "MAX_DOCUMENT_CHARS", 20)
        bundle_path, _, _ = trained
        gold = tmp_path / "gold.csv"
        docs = [LabeledDocument(Document("1", "x" * 21), {"joy": 1, "anger": 0})]
        write_gold_corpus(gold, docs, ["joy", "anger"])
        code = main(["evaluate", "--model", str(bundle_path), "--gold", str(gold)])
        assert code == 2
        err = capsys.readouterr().err
        assert "document 0" in err and "maximum of 20" in err

    def test_gold_missing_column_exits_2(self, tmp_path, trained):
        bundle_path, _, _ = trained
        gold = tmp_path / "partial.csv"
        docs = generate_planted_corpus(10, {"joy": DEFAULT_KEYWORDS}, seed=5)
        write_gold_corpus(gold, docs, ["joy"])
        result = run_cli("evaluate", "--model", bundle_path, "--gold", gold)
        assert result.returncode == 2

    def test_header_only_gold_exits_2_naming_the_emotion(self, tmp_path, trained):
        bundle_path, _, _ = trained
        gold = tmp_path / "empty.csv"
        gold.write_text("id,text,joy,anger\n", encoding="utf-8")
        result = run_cli("evaluate", "--model", bundle_path, "--gold", gold)
        assert result.returncode == 2
        assert "joy: no documents to score: the gold corpus is empty" in result.stderr

    def test_empty_heldout_partition_exits_2_naming_the_emotion(self, tmp_path):
        gold = tmp_path / "tiny.csv"
        docs = [
            LabeledDocument(Document(str(i), f"{'zyblor happy' if i < 4 else 'plain'} text {i}"),
                            {"joy": int(i < 4)})
            for i in range(8)
        ]
        write_gold_corpus(gold, docs, ["joy"])
        out = tmp_path / "tiny.emo"
        result = run_cli(
            "train", "--gold", gold, "--out", out, "--folds", "2",
            "--train-fraction", "0.9", "--min-df", "1", "--grid", "1",
        )
        assert result.returncode == 2
        assert "joy: no documents to score: train_fraction 0.9" in result.stderr
        assert not out.exists()    # rejected before training, so no bundle is written

    @pytest.mark.parametrize("shared", [False, True])
    def test_heldout_check_follows_the_shared_split(self, tmp_path, shared):
        # Split by itself, joy (4 + 4 documents) keeps everything for training;
        # split by anger (2 + 6), one document is held out for every emotion.
        gold = tmp_path / "two.csv"
        docs = [
            LabeledDocument(Document(str(i), f"{'zyblor' if i < 4 else 'plain'} "
                                             f"{'grr' if i % 4 == 0 else 'calm'} text {i}"),
                            {"anger": int(i % 4 == 0), "joy": int(i < 4)})
            for i in range(8)
        ]
        write_gold_corpus(gold, docs, ["anger", "joy"])
        out = tmp_path / "two.emo"
        result = run_cli(
            "train", "--gold", gold, "--out", out, "--folds", "2", "--train-fraction", "0.9",
            "--min-df", "1", "--grid", "1", *(["--shared-split"] if shared else []),
        )
        if shared:
            assert result.returncode == 0, result.stderr
            assert out.exists()
        else:
            assert result.returncode == 2
            assert "joy: no documents to score: train_fraction 0.9" in result.stderr
            assert not out.exists()


class TestLexiconOverrides:
    def test_env_var_selects_lexicon_dir(self, tmp_path, gold_csv):
        import importlib.resources as resources
        import os

        from emoclf.lexicons import LEXICON_FILES

        lexdir = tmp_path / "lexicons"
        lexdir.mkdir()
        data = resources.files("emoclf.data")
        for name in LEXICON_FILES:
            (lexdir / name).write_text(
                data.joinpath(name).read_text("utf-8"), encoding="utf-8"
            )
        env = dict(os.environ, EMOCLF_LEXICONS=str(lexdir))
        result = subprocess.run(
            [sys.executable, "-m", "emoclf", "train", "--gold", str(gold_csv),
             "--out", str(tmp_path / "m.emo"), "--emotions", "joy", *FAST_FLAGS],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr

    def test_bad_lexicon_dir_exits_2(self, tmp_path, gold_csv):
        result = run_cli(
            "train", "--gold", gold_csv, "--out", tmp_path / "m.emo",
            "--lexicon-dir", tmp_path / "nowhere", *FAST_FLAGS,
        )
        assert result.returncode == 2


class TestEmoticonTable:
    def test_a_replacement_table_reaches_the_bundle_and_comes_back(self, tmp_path, capsys):
        # ";zyb" holds letters, so it is a term; the shipped table would split
        # it into ";" and "zyb".
        table = frozenset({";zyb", ":)", "<3"})
        emoticons, gold = tmp_path / "emoticons.txt", tmp_path / "gold.csv"
        emoticons.write_text("\n".join(sorted(table)) + "\n", encoding="utf-8")
        docs = generate_planted_corpus(60, {"joy": (";zyb", "gleeful")}, seed=3)
        assert sum(";zyb" in d.doc.text.split() for d in docs) >= 2
        write_gold_corpus(gold, docs, ["joy"])
        out = tmp_path / "m.emo"
        assert main(["train", "--gold", str(gold), "--out", str(out), *FAST_FLAGS,
                     "--emoticons", str(emoticons)]) == 0

        saved = json.loads(out.read_text(encoding="utf-8"))["models"]["joy"]["extractor"]
        assert ";zyb" in saved["vocabulary"]["terms"] and "zyb" not in saved["vocabulary"]["terms"]
        bundle = load_bundle(out)
        em = bundle.models["joy"]
        assert em.extractor.lexicons.emoticons == table

        texts = ["well ;zyb there", ";zyb", "plain words only"]
        posts, predictions = tmp_path / "posts.csv", tmp_path / "out.csv"
        write_input_corpus(posts, [Document(str(i), text) for i, text in enumerate(texts)])
        assert main(["classify", "--model", str(out), "--input", str(posts),
                     "--out", str(predictions)]) == 0
        expected = [f"{i},{'JOY' if predict(em.model, em.extractor.vectorize(text)) else 'NO_JOY'}"
                    for i, text in enumerate(texts)]
        assert {line.split(",")[1] for line in expected} == {"JOY", "NO_JOY"}
        assert predictions.read_text(encoding="utf-8").splitlines()[1:] == expected
        capsys.readouterr()


class TestPolitenessExtremes:
    """Cue weights that would push the politeness logistic past float range."""

    OVERFLOW_POST = "rtfm " * 710   # summed cue weight -710 with the default lexicons

    def test_overflowing_post_trains_and_classifies(self, tmp_path, capsys):
        docs = generate_planted_corpus(60, {"joy": DEFAULT_KEYWORDS}, seed=21)
        docs.append(LabeledDocument(Document("rude", self.OVERFLOW_POST), {"joy": 0}))
        gold = tmp_path / "gold.csv"
        write_gold_corpus(gold, docs, ["joy"])
        bundle_path = tmp_path / "m.emo"
        assert main(["train", "--gold", str(gold), "--out", str(bundle_path),
                     *FAST_FLAGS]) == 0, capsys.readouterr().err
        bundle = load_bundle(bundle_path)
        assert all(math.isfinite(v) for v in bundle.models["joy"].extractor.aux_mean)

        input_path = tmp_path / "input.csv"
        write_input_corpus(input_path, [Document("rude", self.OVERFLOW_POST)])
        out = tmp_path / "pred.csv"
        assert main(["classify", "--model", str(bundle_path), "--input", str(input_path),
                     "--out", str(out)]) == 0, capsys.readouterr().err
        assert out.read_text(encoding="utf-8").splitlines()[1] in ("rude,JOY", "rude,NO_JOY")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_in_lexicon_dir_exits_2(self, tmp_path, gold_csv, weight, capsys):
        import importlib.resources as resources

        from emoclf.lexicons import LEXICON_FILES, POLITENESS_FILE

        data = resources.files("emoclf.data")
        for name in LEXICON_FILES:
            (tmp_path / name).write_text(data.joinpath(name).read_text("utf-8"),
                                         encoding="utf-8")
        with open(tmp_path / POLITENESS_FILE, "a", encoding="utf-8") as handle:
            handle.write(f"pretty please\t{weight}\n")
        code = main(["train", "--gold", str(gold_csv), "--out", str(tmp_path / "m.emo"),
                     "--lexicon-dir", str(tmp_path), *FAST_FLAGS])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "'pretty please'" in err and "not finite" in err
        assert not (tmp_path / "m.emo").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_in_bundle_exits_3(self, tmp_path, trained, weight, capsys):
        bundle_path, _, _ = trained
        payload = json.loads(bundle_path.read_text(encoding="utf-8"))
        payload["models"]["joy"]["extractor"]["lexicons"]["politeness"]["please"] = float(weight)
        bad = tmp_path / "bad.emo"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        input_path = tmp_path / "input.csv"
        write_input_corpus(input_path, [Document("1", "please help")])
        code = main(["classify", "--model", str(bad), "--input", str(input_path),
                     "--out", str(tmp_path / "pred.csv")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "malformed extractor payload" in err and "'please'" in err
        assert not (tmp_path / "pred.csv").exists()


def _classify_edited_bundle(tmp_path, trained, capsys, edit):
    """``emoclf classify`` on the trained bundle after ``edit(payload)``: (exit code, stderr)."""
    bundle_path, _, _ = trained
    payload = json.loads(bundle_path.read_text(encoding="utf-8"))
    edit(payload)
    bad = tmp_path / "bad.emo"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    input_path = tmp_path / "input.csv"
    write_input_corpus(input_path, [Document("1", "please help")])
    code = main(["classify", "--model", str(bad), "--input", str(input_path),
                 "--out", str(tmp_path / "pred.csv")])
    assert not (tmp_path / "pred.csv").exists()
    return code, capsys.readouterr().err


class TestNonFiniteBundleNumbers:
    """A bundle number that is not finite, or not an integer where one belongs, is a
    model error (exit 3), not an internal one."""

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS) + ["master_seed"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, 42.5, True,
                                       pytest.param(10**400, id="10**400")])
    def test_infinite_integer_in_bundle_exits_3(self, tmp_path, trained, field, value, capsys):
        # Each must be a JSON integer that a float can hold: int() would take
        # 42.5 as 42 and True as 1, and an n_docs beyond a float's range
        # overflows idf at classify time.
        def edit(payload):
            if field == "master_seed":
                payload[field] = value
            else:
                _set_in_every_model(payload, INTEGER_FIELDS[field], value)

        code, err = _classify_edited_bundle(tmp_path, trained, capsys, edit)
        assert code == 3, err
        assert "malformed" in err and "internal error" not in err

    @pytest.mark.parametrize("field", ["n_docs", "chosen_C", "weights", "aux_mean"])
    def test_an_integer_beyond_a_float_names_its_field(self, tmp_path, trained, field, capsys):
        path = {"n_docs": INTEGER_FIELDS["n_docs"], "aux_mean": ("extractor", "aux_mean")}
        code, err = _classify_edited_bundle(
            tmp_path, trained, capsys,
            lambda payload: _set_in_every_model(payload, path.get(field, (field,)), 10**400))
        assert code == 3, err
        assert f"'{field}' must lie within a float's range" in err, err

    @pytest.mark.parametrize("field", ["chosen_C", "cv_accuracy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tuning_result_in_bundle_exits_3(self, tmp_path, trained, field, value,
                                                         capsys):
        code, err = _classify_edited_bundle(
            tmp_path, trained, capsys,
            lambda payload: _set_in_every_model(payload, (field,), value))
        assert code == 3, err
        assert "malformed bundle payload" in err and "must be finite" in err


def _spaced_twice(polite):
    """``polite`` with the space of its first multi-word phrase doubled."""
    key = next(key for key in polite if " " in key)
    polite[key.replace(" ", "  ")] = polite.pop(key)
    return polite


# Edits of every emotion's lexicons or emoticon table that the reader would
# otherwise normalize: name -> (path from the extractor, edit, what stderr names).
NORMALIZED_TEXT_WORK = {
    "repeated emoticon": (("emoticons",), lambda v: v[:1] + v, "'emoticons'"),
    "reversed negations": (("lexicons", "negations"), lambda v: v[::-1], "'negations'"),
    "repeated category word": (("lexicons", "emotion_categories", "joy"),
                               lambda v: v[:1] + v, "'joy'"),
    "politeness key with two spaces": (("lexicons", "politeness"), _spaced_twice,
                                       "politeness phrase"),
}


class TestBundleTextWorkAsWritten:
    """The reader refuses lexicons and emoticons the writer would not write, rather than
    normalizing them into a bundle that saves to another payload."""

    @pytest.mark.parametrize("case", sorted(NORMALIZED_TEXT_WORK))
    def test_classify_exits_3_naming_the_field(self, tmp_path, trained, case, capsys):
        (*parents, name), broken, named = NORMALIZED_TEXT_WORK[case]

        def edit(payload):
            for model in payload["models"].values():
                field = model["extractor"]
                for key in parents:
                    field = field[key]
                field[name] = broken(field[name])

        code, err = _classify_edited_bundle(tmp_path, trained, capsys, edit)
        assert code == 3, err
        assert "malformed extractor payload" in err and named in err, err


class _Overtime(BaseException):
    """A fuzz case ran past its time limit (a BaseException, so ``cli.main`` cannot catch it)."""


def _overtime(signum, frame):
    raise _Overtime


class TestBundleMutationFuzz:
    """Seeded one-leaf mutations of a two-emotion bundle's JSON.

    A field is a node's path with list positions, and the keys of a map of
    more than 16 entries (a lexicon), taken as one.  Every field meets every
    mutation once, at a node of the field drawn with a fixed seed: about
    1,300 cases.  The emotions of a bundle repeat one lexicon set and
    emoticon table, so a mutation there is made in every emotion alike;
    made in one, the emotions differ and the bundle is refused before the
    mutated value is read.

    Each mutated payload must either fail to load as ``ParseError`` or
    ``IncompatibleModel``, or load to a bundle whose ``bundle_to_dict``
    equals it.  Every tenth also goes through ``emoclf classify``, which must
    exit 0, or 3 with an ``error:`` line, never 1.  A case that runs past its
    time limit fails the test instead of hanging it.
    """

    SECONDS_PER_CASE = 5.0
    MUTATIONS = ("other type", True, 42.5, 0, -1, 10**400, math.nan, math.inf, -math.inf,
                 "empty list", "empty map", "delete")
    TEXT_WORK = (("extractor", "lexicons"), ("extractor", "emoticons"))

    @classmethod
    def _nodes(cls, node, path=(), field=()):
        """(field, path) of every node below ``node``."""
        if isinstance(node, list):
            items, shared = enumerate(node), True
        elif isinstance(node, dict):
            items, shared = node.items(), len(node) > 16
        else:
            return
        for key, child in items:
            below = (path + (key,), field + ("*" if shared else key,))
            yield below[1], below[0]
            yield from cls._nodes(child, *below)

    @classmethod
    def _in_text_work(cls, path):
        """Whether ``path`` leads into an emotion's lexicons or emoticon table."""
        return path[0] == "models" and path[2:4] in cls.TEXT_WORK

    @classmethod
    def _cases(cls, payload, rng):
        """A (path, mutation) pair for every field and mutation, at a random node of the field."""
        fields = {}
        for field, path in cls._nodes(payload):
            if cls._in_text_work(field):
                field = ("models", "*", *field[2:])     # the same node in every emotion
            fields.setdefault(field, []).append(path)
        return [(rng.choice(paths), mutation)
                for paths in fields.values() for mutation in cls.MUTATIONS]

    @classmethod
    def _mutate(cls, payload, path, mutation):
        """Apply ``mutation`` at ``path``, and in every emotion if the node is text work."""
        paths = [path]
        if cls._in_text_work(path):
            paths = [("models", emotion, *path[2:]) for emotion in payload["models"]]
        for *parents, key in paths:
            node = payload
            for step in parents:
                node = node[step]
            if mutation == "delete":
                del node[key]
            else:
                node[key] = {"other type": 7 if isinstance(node[key], str) else "7",
                             "empty list": [], "empty map": {}}.get(mutation, mutation)

    def test_each_mutation_is_refused_or_round_trips(self, tmp_path, trained, capsys):
        import random
        import signal

        from emoclf.errors import IncompatibleModel
        from emoclf.pipeline import bundle_from_dict, bundle_to_dict

        bundle_path, _, _ = trained
        text = bundle_path.read_text(encoding="utf-8")
        input_path = tmp_path / "input.csv"
        write_input_corpus(input_path, [Document("1", "please help, glad :)"),
                                        Document("2", "grumblex snarlit")])
        cases, failures = self._cases(json.loads(text), random.Random(27)), []
        assert 1_000 <= len(cases) <= 1_500
        previous = signal.signal(signal.SIGALRM, _overtime)
        try:
            for number, (path, mutation) in enumerate(cases):
                what = f"{'/'.join(map(str, path))} <- {mutation!r:.12}"
                payload = json.loads(text)
                self._mutate(payload, path, mutation)
                encoded = json.dumps(payload)
                mutated = json.loads(encoded)   # the payload as load_bundle reads it
                signal.setitimer(signal.ITIMER_REAL, self.SECONDS_PER_CASE)
                try:
                    try:
                        if bundle_to_dict(bundle_from_dict(mutated)) != mutated:
                            failures.append(f"{what}: loads but saves another payload")
                    except (ParseError, IncompatibleModel):
                        pass
                    except Exception as exc:    # noqa: BLE001 - the failure under test
                        failures.append(f"{what}: {exc!r}")
                    if number % 10 == 0:
                        bad = tmp_path / "mutated.emo"
                        bad.write_text(encoded, encoding="utf-8")
                        code = main(["classify", "--model", str(bad), "--input",
                                     str(input_path), "--out", str(tmp_path / "pred.csv")])
                        err = capsys.readouterr().err
                        if not (code == 0 or code == 3 and err.startswith("error:")):
                            failures.append(f"{what}: classify exited {code}: {err.strip()}")
                except _Overtime:
                    failures.append(f"{what}: over {self.SECONDS_PER_CASE} s")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert not failures, f"{len(failures)} of {len(cases)} cases:\n" + "\n".join(failures[:20])


class TestInputByteMutationFuzz:
    """Seeded byte mutations of the files a user hands the command line.

    Each case edits one to four bytes of a small gold CSV (``emoclf
    train``), an input CSV (``emoclf classify``), one lexicon file
    (``--lexicon-dir``) or the emoticon file (``--emoticons``): it sets,
    inserts or deletes a byte, or copies a stretch of the file elsewhere.
    Most inserted bytes are printable or CSV syntax; some are any byte, so
    a case may also not be UTF-8.  Each run must exit 0, or 2 or 3 with an
    ``error:`` line, never 1 (an internal error), within its time limit.
    240 cases, a few seconds.
    """

    CASES_PER_FILE = 60
    SECONDS_PER_CASE = 5.0
    BYTES = b'\x00\n\r\t ",#-.:' + bytes(range(32, 127))
    TRAIN_FLAGS = ["--folds", "2", "--grid", "1", "--min-df", "1"]

    @classmethod
    def _mutated(cls, raw: bytes, rng) -> bytes:
        data = bytearray(raw)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(data) + 1)
            byte = rng.randrange(256) if rng.random() < 0.2 else rng.choice(cls.BYTES)
            edit = rng.randrange(4)
            if edit == 0:
                data[at:at + 1] = bytes([byte])
            elif edit == 1:
                data[at:at] = bytes([byte])
            elif edit == 2:
                del data[at:at + rng.randint(1, 8)]
            else:
                start = rng.randrange(len(data) + 1)
                data[at:at] = data[start:start + rng.randint(1, 16)]
        return bytes(data)

    def test_each_mutated_file_exits_0_2_or_3(self, tmp_path, trained, capsys):
        import importlib.resources as resources
        import random
        import signal

        from emoclf.lexicons import LEXICON_FILES

        gold = tmp_path / "gold.csv"
        docs = generate_planted_corpus(
            24, {"joy": DEFAULT_KEYWORDS, "anger": ANGER_KEYWORDS}, seed=28)
        write_gold_corpus(gold, docs, ["joy", "anger"])
        posts = tmp_path / "posts.csv"
        write_input_corpus(posts, [labeled.doc for labeled in docs[:8]])
        lexicon_dir = tmp_path / "lexicons"
        lexicon_dir.mkdir()
        data = resources.files("emoclf.data")
        for name in (*LEXICON_FILES, "emoticons.txt"):
            (lexicon_dir / name).write_bytes(data.joinpath(name).read_bytes())
        bundle_path, _, _ = trained
        train = ["train", "--gold", gold, "--out", tmp_path / "m.emo", *self.TRAIN_FLAGS]
        classify = ["classify", "--model", bundle_path, "--input", posts,
                    "--out", tmp_path / "pred.csv"]
        lexicons = [*train, "--lexicon-dir", lexicon_dir]
        emoticons = [*train, "--emoticons", lexicon_dir / "emoticons.txt"]
        # Every file meets CASES_PER_FILE mutations; the lexicon files take turns.
        cases = [case for number in range(self.CASES_PER_FILE) for case in (
            (gold, train), (posts, classify),
            (lexicon_dir / LEXICON_FILES[number % len(LEXICON_FILES)], lexicons),
            (lexicon_dir / "emoticons.txt", emoticons))]
        rng, failures = random.Random(28), []
        previous = signal.signal(signal.SIGALRM, _overtime)
        try:
            for number, (path, args) in enumerate(cases):
                raw = path.read_bytes()
                path.write_bytes(self._mutated(raw, rng))
                what = f"case {number} ({path.name})"
                signal.setitimer(signal.ITIMER_REAL, self.SECONDS_PER_CASE)
                try:
                    code = main([str(arg) for arg in args])
                    err = capsys.readouterr().err
                    if not (code == 0 or code in (2, 3) and err.startswith("error:")):
                        failures.append(f"{what}: exited {code}: {err.strip()}")
                except _Overtime:
                    failures.append(f"{what}: over {self.SECONDS_PER_CASE} s")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    path.write_bytes(raw)
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert not failures, f"{len(failures)} of {len(cases)} cases:\n" + "\n".join(failures[:5])


class TestUndecodableInput:
    """A file that is not UTF-8 is an input or model error naming the file."""

    @pytest.mark.parametrize("case, status", [
        ("gold", 2), ("input", 2), ("emoticons", 2), ("lexicon-dir", 2), ("model", 3),
    ])
    def test_exit_status_names_the_file(self, tmp_path, gold_csv, trained, case, status):
        import importlib.resources as resources

        from emoclf.lexicons import LEXICON_FILES

        bundle_path, _, _ = trained
        train = ["train", "--gold", gold_csv, "--out", tmp_path / "m.emo", *FAST_FLAGS]
        classify = ["--input", tmp_path / "input.csv", "--out", tmp_path / "pred.csv"]
        (tmp_path / "input.csv").write_text("1,hello\n", encoding="utf-8")
        latin1 = "caf\xe9".encode("latin-1")
        if case == "gold":
            bad = tmp_path / "gold.csv"
            bad.write_bytes(b"id,text,joy\n1," + latin1 + b",1\n")
            args = ["train", "--gold", bad, "--out", tmp_path / "m.emo", *FAST_FLAGS]
        elif case == "input":
            bad = tmp_path / "input.csv"
            bad.write_bytes(b"1," + latin1 + b"\n")
            args = ["classify", "--model", bundle_path, *classify]
        elif case == "emoticons":
            bad = tmp_path / "emoticons.txt"
            bad.write_bytes(b":)\n" + latin1 + b"\n")
            args = [*train, "--emoticons", bad]
        elif case == "lexicon-dir":
            data = resources.files("emoclf.data")
            for name in LEXICON_FILES:
                (tmp_path / name).write_text(data.joinpath(name).read_text("utf-8"),
                                             encoding="utf-8")
            bad = tmp_path / "negations.txt"
            bad.write_bytes(bad.read_bytes() + latin1 + b"\n")
            args = [*train, "--lexicon-dir", tmp_path]
        else:
            bad = tmp_path / "model.emo"
            bad.write_bytes(b'{"format": "' + latin1 + b'"}\n')
            args = ["classify", "--model", bad, *classify]
        result = run_cli(*args)
        assert result.returncode == status, result.stderr
        assert str(bad) in result.stderr
        assert "internal error" not in result.stderr


class TestReplicationScript:
    def test_unknown_emotion_exits_2(self, gold_csv):
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "replicate_benchmarks.py"
        result = subprocess.run(
            [sys.executable, str(script), "--gold", str(gold_csv), "--emotions", "joy,Sadness"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == "error: gold data lacks a label column for 'sadness'\n"

    @staticmethod
    def replicate(gold_csv, *flags):
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "replicate_benchmarks.py"
        return subprocess.run(
            [sys.executable, str(script), "--gold", str(gold_csv), "--folds", "3", *flags],
            capture_output=True, text=True,
        )

    @pytest.mark.parametrize("content, complaint", [
        (b"emotion,precision\njoy,0.5\n", "has no 'recall' column"),
        (b"", "has no 'emotion' column"),
        (b"emotion,precision,recall,f1\njoy,0.5,0.5,high\n", "line 2: 'f1' must be a finite number, got 'high'"),
        (b"emotion,precision,recall,f1\njoy,0.5,nan,0.5\n", "line 2: 'recall' must be a finite number"),
        (b"emotion,precision,recall,f1\njoy,0.5\n", "line 2: 'recall' must be a finite number"),
        (b"emotion,precision,recall,f1\ncaf\xe9,0.5,0.5,0.5\n", "cannot read reference file"),
    ])
    def test_bad_reference_exits_2_before_training(self, gold_csv, tmp_path, content, complaint):
        reference = tmp_path / "ref.csv"
        reference.write_bytes(content)
        result = self.replicate(gold_csv, "--reference", str(reference))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert str(reference) in result.stderr and complaint in result.stderr
        assert "Traceback" not in result.stderr
        assert "Prec" not in result.stdout      # no report table: nothing was trained

    def test_missing_reference_exits_2(self, gold_csv, tmp_path):
        missing = tmp_path / "absent.csv"
        result = self.replicate(gold_csv, "--reference", str(missing))
        assert result.returncode == 2
        assert f"cannot read reference file {missing}" in result.stderr
        assert "Traceback" not in result.stderr

    def test_reference_with_byte_order_mark_and_spaced_header(self, gold_csv, tmp_path):
        reference = tmp_path / "ref.csv"
        reference.write_bytes(b"\xef\xbb\xbfEmotion, precision ,recall,F1\nJoy,0.9,0.8,0.85\n")
        result = self.replicate(gold_csv, "--emotions", "joy", "--reference", str(reference))
        assert result.returncode == 0, result.stderr
        assert "joy: F1 " in result.stdout and " vs 0.85 " in result.stdout

    def test_empty_heldout_partition_exits_2_before_training(self, gold_csv, tmp_path):
        bundle = tmp_path / "model.emo"
        result = self.replicate(gold_csv, "--train-fraction", "0.99", "--save-model", str(bundle))
        assert result.returncode == 2
        assert "no documents to score: train_fraction 0.99" in result.stderr
        assert not bundle.exists()


class TestHelp:
    @pytest.mark.parametrize("command", ["train", "classify", "evaluate"])
    def test_help_exits_zero(self, command):
        result = run_cli(command, "--help")
        assert result.returncode == 0

    def test_train_help_documents_defaults(self):
        text = run_cli("train", "--help").stdout
        for flag in ("--train-fraction", "--folds", "--grid", "--seed", "--min-df",
                     "--jobs", "--shared-split", "--lexicon-dir", "--emoticons"):
            assert flag in text
        assert "0.7" in text and "10" in text and "0.01" in text and "42" in text

    def test_train_flag_defaults_are_the_config_defaults(self, monkeypatch):
        monkeypatch.delenv(cli.LEXICON_DIR_ENV, raising=False)
        args = cli.build_parser().parse_args(["train", "--gold", "g.csv", "--out", "m.emo"])
        config, defaults = cli._config_from_args(args), TrainConfig()
        for field in dataclasses.fields(TrainConfig):
            assert getattr(config, field.name) == getattr(defaults, field.name), field.name

    def test_tune_metric_choices_are_the_pipeline_metrics(self):
        parser = cli.build_parser()
        train = parser._subparsers._group_actions[0].choices["train"]
        (action,) = [a for a in train._actions if a.dest == "tune_metric"]
        assert tuple(action.choices) == tuple(TUNE_METRICS)
        for metric in TUNE_METRICS:
            args = parser.parse_args(["train", "--gold", "g.csv", "--out", "m.emo",
                                      "--tune-metric", metric])
            assert cli._config_from_args(args).tune_metric == metric

    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert "emoclf" in result.stdout
