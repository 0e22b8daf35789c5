import json
import subprocess
import sys

import pytest

from emoclf import features
from emoclf.cli import main
from emoclf.corpus import Document, LabeledDocument, write_gold_corpus, write_input_corpus
from emoclf.errors import ParseError
from emoclf.pipeline import load_bundle
from emoclf.synth import DEFAULT_KEYWORDS, generate_planted_corpus

ANGER_KEYWORDS = ("grumblex", "snarlit", "vexopod", "irktron", "fumeply")

FAST_FLAGS = ["--folds", "3", "--grid", "0.25,1", "--min-df", "1"]

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

    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert "emoclf" in result.stdout
