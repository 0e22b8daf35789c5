#!/usr/bin/env python3
"""emoclf benchmark: train, reload and classify one seeded workload.

    python3 perfbench/run.py --workload train-c07 --seed 1 --seconds 5 --trace 0

Run it from a checkout of the repository; the library is imported from the
checkout's ``src`` directory, and working files go to ``.perfbench_tmp``
there.  One untraced run (``--trace 0``):

1. generates the workload's gold corpus and classify stream from ``--seed``
   and writes both as CSV through the library's corpus writers;
2. trains ``train_reps`` times: ``train_all`` + ``evaluate_heldout`` +
   ``save_bundle``, reporting the median as ``train_s``;
3. times a cold set-up 11 times, each in a fresh interpreter (import
   emoclf, read both CSVs, ``load_bundle``), reporting the median as
   ``setup_s``;
4. reloads the bundle and classifies the stream as one closed-loop client
   sending 20-document batches, in whole passes over the stream (at least
   three) until the batches have taken ``--seconds`` in total; a batch's
   latency is the median over its passes.

Every time is scaled to a reference host speed, because on a shared host
the same code runs up to 2.5 times slower for minutes at a time: training
and classify times by ``measure.Speedometer``, read before, during and
after each timed interval, and set-up times by the time a fresh interpreter
takes to import numpy, measured around each set-up.  Unscaled train and
classify times are printed on the ``note`` lines.

A traced run (``--trace 1``) trains once untraced and once traced, both
with one job, then classifies exactly one pass traced, and reports the
per-layer metrics: span self times and call counts at the public names the
pipeline calls, plus solver work from the public ``TrainingMonitor``.  The
speed readings taken during a training land in whichever span is open,
adding about the same 2-5% to each.

Correctness checks run outside the timed intervals: every training must
reach the workload's held-out F1 floor and produce the same bundle bytes;
in each batch one sampled document must get the same bits from
``classify`` as from ``predict(model, extractor.vectorize(text))``, and
later passes must repeat the first pass's rows exactly.  An operation (one
training or one batch) that raises or fails a check counts as failed, and
``failed_share`` is printed on a ``metric`` line.  The last line of stdout
is the JSON result; the exit status is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import measure
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
NUMPY_IMPORT_REFERENCE_S = 0.1    # numpy's import time at the reference speed
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import emoclf from this checkout's sources, never from site-packages."""
    if not (SRC / "emoclf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no emoclf sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    # Set-up probes and worker processes import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    import emoclf
    from emoclf import corpus, pipeline, svm

    if Path(emoclf.__file__).resolve().parent != (SRC / "emoclf").resolve():
        sys.exit(f"perfbench: imported emoclf from {emoclf.__file__}, not {SRC}")
    return corpus, pipeline, svm


corpus, pipeline, svm = (None, None, None)


class Ledger:
    """Operations attempted and failed, plus failed checks that are not operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)
        return ok

    def problem(self, what: str) -> None:
        self.problems.append(what)
        print(f"FAILED {what}", flush=True)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclasses.dataclass(frozen=True)
class Files:
    gold: Path
    stream: Path
    bundle: Path
    predictions: Path


def write_inputs(workload: inputs.Workload, seed: int, files: Files) -> None:
    gold = [corpus.LabeledDocument(corpus.Document(doc_id, text), labels)
            for doc_id, text, labels in inputs.gold_corpus(workload, seed)]
    corpus.write_gold_corpus(files.gold, gold, list(workload.emotions))
    corpus.write_input_corpus(
        files.stream,
        [corpus.Document(doc_id, text) for doc_id, text in inputs.classify_stream(workload, seed)],
    )


def train_config(workload: inputs.Workload, jobs: int, monitor=None):
    options = {"folds": workload.folds, "loss": workload.loss, "jobs": jobs}
    if workload.grid is not None:
        options["grid"] = pipeline.TuningGrid(workload.grid)
    if monitor is not None:
        options["monitor"] = monitor
    return pipeline.TrainConfig(**options)


class Trainer:
    """One training operation: train_all + evaluate_heldout + save_bundle."""

    def __init__(self, workload: inputs.Workload, files: Files, ledger: Ledger,
                 speed: measure.Speedometer):
        self.workload = workload
        self.files = files
        self.ledger = ledger
        self.speed = speed
        self.bundle_bytes: bytes | None = None
        self.f1_min: float | None = None

    def train(self, gold, config) -> tuple[float, float] | None:
        """(seconds, seconds at the reference speed), or None when the operation failed."""
        readings = [self.speed.read()]
        try:
            with self.speed.sampling(across_cores=config.jobs > 1) as samples:
                start = time.perf_counter()
                bundle = pipeline.train_all(gold, list(self.workload.emotions), config)
                report = pipeline.evaluate_heldout(bundle, gold)
                pipeline.save_bundle(bundle, self.files.bundle)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted, not fatal
            self.ledger.operation(False, f"training raised {exc!r}")
            return None
        readings += samples
        readings.append(self.speed.read())
        normalized = self.speed.normalize(elapsed, readings)

        f1_min = min(row.f1 for row in report.rows)
        saved = self.files.bundle.read_bytes()
        floor = self.workload.f1_floor
        print(f"note training took {elapsed:.4f} s, {normalized:.4f} s at the reference speed")
        if f1_min < floor:
            self.ledger.operation(False, f"held-out F1 {f1_min:.4f} below the floor {floor}")
        elif self.bundle_bytes not in (None, saved):
            self.ledger.operation(False, "retraining changed the bundle bytes")
        else:
            self.ledger.operation(True, "")
            self.bundle_bytes, self.f1_min = saved, f1_min
        return elapsed, normalized


def run_setup_probe(args: list[str], ledger: Ledger) -> dict | None:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        ledger.problem(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-400:]}")
        return None
    return json.loads(done.stdout.splitlines()[-1])


def time_setups(files: Files, workload: inputs.Workload, ledger: Ledger) -> list[float]:
    """Seconds at the reference speed for cold set-ups, each an import +
    CSV reads + load_bundle in a fresh interpreter.

    Start-up work (loading shared libraries, unmarshalling bytecode) slows
    with the host differently from the speedometer's probe, so each set-up
    sits between two fresh interpreters that only import numpy, and is
    scaled by their mean against ``NUMPY_IMPORT_REFERENCE_S``.
    """
    expected = {"gold": workload.n_gold, "docs": inputs.STREAM_DOCS,
                "emotions": list(workload.emotions)}
    references = [run_setup_probe(["--reference"], ledger)]
    setups = []
    for _ in range(SETUP_PROBES):
        record = run_setup_probe([str(files.gold), str(files.stream), str(files.bundle)], ledger)
        references.append(run_setup_probe(["--reference"], ledger))
        if record is None or None in references[-2:]:
            continue
        loaded = {key: record[key] for key in expected}
        if loaded != expected:
            ledger.problem(f"set-up probe loaded {loaded}, expected {expected}")
            continue
        yardstick = (references[-2]["seconds"] + references[-1]["seconds"]) / 2
        setups.append(record["seconds"] * NUMPY_IMPORT_REFERENCE_S / yardstick)
    return setups


class ClassifyLoop:
    """Closed-loop client: one 20-doc batch at a time, whole passes.

    The speedometer is read around every ``GROUP`` batches, outside the timed
    intervals, and each batch's latency is scaled to the reference speed by
    the readings around its group.
    """

    GROUP = 5

    def __init__(self, bundle, docs, workload: inputs.Workload, seed: int, ledger: Ledger,
                 speed: measure.Speedometer, checking=contextlib.nullcontext):
        self.bundle = bundle
        self.speed = speed
        self.checking = checking    # context for the untimed checks
        size = inputs.BATCH_DOCS
        self.batches = [docs[k:k + size] for k in range(0, len(docs), size)]
        self.ledger = ledger
        self.rng = random.Random(f"{workload.name}:{seed}:reference-sample")
        self.first_rows: list[list | None] = [None] * len(self.batches)
        self.times: list[list[float]] = [[] for _ in self.batches]   # per batch, per pass
        self.busy_s = 0.0       # unscaled seconds spent in classify
        self.passes = 0

    def run_pass(self) -> None:
        for first in range(0, len(self.batches), self.GROUP):
            before = self.speed.read()
            timed = []
            for index in range(first, min(first + self.GROUP, len(self.batches))):
                elapsed = self.run_batch(index)
                if elapsed is not None:
                    timed.append((index, elapsed))
                    self.busy_s += elapsed
            after = self.speed.read()
            for index, elapsed in timed:
                self.times[index].append(self.speed.normalize(elapsed, [before, after]))
        self.passes += 1

    def run_batch(self, index: int) -> float | None:
        """Seconds one batch took, or None when it failed."""
        batch = self.batches[index]
        start = time.perf_counter()
        try:
            rows = pipeline.classify(self.bundle, batch)
        except Exception as exc:  # a failed batch is counted, not fatal
            self.ledger.operation(False, f"classify raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        with self.checking():
            verdict = self.check(index, batch, rows)
        return elapsed if self.ledger.operation(*verdict) else None

    def check(self, index: int, batch, rows) -> tuple[bool, str]:
        emotions = self.bundle.emotions
        rows = [tuple(row) for row in rows]
        shape = [(doc.id, emotion) for doc in batch for emotion in emotions]
        if [row[:2] for row in rows] != shape or any(row[2] not in (0, 1) for row in rows):
            return False, f"batch {index}: rows do not match (doc, emotion) order"
        first = self.first_rows[index]
        if first is not None:
            return rows == first, f"batch {index}: bits changed between passes"
        self.first_rows[index] = rows
        position = self.rng.randrange(len(batch))
        text = batch[position].text
        for slot, emotion in enumerate(emotions):
            em = self.bundle.models[emotion]
            reference = svm.predict(em.model, em.extractor.vectorize(text))
            got = rows[position * len(emotions) + slot][2]
            if got != reference:
                return False, (f"batch {index}: {batch[position].id}/{emotion} got {got}, "
                               f"single-document reference says {reference}")
        return True, ""

    def batch_latencies(self) -> list[float]:
        """One latency per batch: the median over that batch's passes."""
        return [statistics.median(times) for times in self.times if times]

    def docs_per_s(self) -> float:
        docs = sum(len(batch) for batch, times in zip(self.batches, self.times) if times)
        return docs / sum(self.batch_latencies())

    def predictions(self) -> list:
        return [row for rows in self.first_rows if rows for row in rows]


def write_predictions(loop: ClassifyLoop, files: Files, ledger: Ledger) -> None:
    rows = loop.predictions()
    corpus.write_predictions(files.predictions, rows)
    lines = files.predictions.read_text(encoding="utf-8").count("\n")
    if lines != len(rows) + 1:
        ledger.problem(f"predictions file has {lines} lines for {len(rows)} rows")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(workload, seed, seconds, files, ledger, jobs, speed) -> dict:
    gold, _ = corpus.read_gold_corpus(files.gold)
    trainer = Trainer(workload, files, ledger, speed)
    config = train_config(workload, jobs)
    trainings = [t for t in (trainer.train(gold, config) for _ in range(workload.train_reps))
                 if t is not None]
    if trainer.bundle_bytes is None:
        return {}

    setups = time_setups(files, workload, ledger)
    docs = corpus.read_input_corpus(files.stream)
    bundle = pipeline.load_bundle(files.bundle)
    loop = ClassifyLoop(bundle, docs, workload, seed, ledger, speed)
    while loop.passes < MIN_PASSES or loop.busy_s < seconds:
        loop.run_pass()
    write_predictions(loop, files, ledger)

    latencies = loop.batch_latencies()
    p90 = measure.tail_percentile(latencies)
    print(f"note times are scaled to the reference speed, at which the probe takes "
          f"{speed.REFERENCE_MS} ms; classify took {loop.busy_s:.4f} s unscaled")
    print(f"note train_s is the median of {len(trainings)} trainings; "
          f"setup_s the median of {len(setups)} fresh-interpreter set-ups; "
          f"each batch latency is the median of its {loop.passes} passes, "
          f"{len(latencies)} batches of {inputs.BATCH_DOCS} docs")
    if p90 is None:
        ledger.problem(f"{len(latencies)} batches timed: too few for a p90 with "
                       f"{measure.MIN_BEYOND} beyond it")
    if not setups or p90 is None:
        return {}
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "train_s": metric(statistics.median([norm for _, norm in trainings]), "s"),
        "heldout_f1_min": metric(trainer.f1_min, "f1"),
        "classify_docs_per_s": metric(loop.docs_per_s(), "docs/s"),
        "classify_batch_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "classify_batch_p90_ms": metric(1000 * p90, "ms"),
        "peak_rss_mb": metric(measure.peak_rss_mb(), "MiB"),
    }


class SolveCounter:
    """Per-solve sweeps from the public TrainingMonitor, which keeps only totals."""

    def __init__(self, monitor):
        self.monitor = monitor
        self.seen = 0
        self.row_sweeps = 0     # sum over solves of sweeps x rows
        self.unconverged = 0

    def after(self, args, kwargs, result) -> None:
        sweeps = self.monitor.sweeps - self.seen
        self.seen = self.monitor.sweeps
        problem = args[0] if args else kwargs["problem"]
        params = args[1] if len(args) > 1 else kwargs["params"]
        self.row_sweeps += sweeps * problem.n_rows
        if sweeps >= params.max_outer_iters:
            self.unconverged += 1


# (public name the pipeline calls, span name).  The same function reached
# through two modules shares one span name.
TRACED_NAMES = (
    ("emoclf.pipeline.strip_noise", "textprep.strip_noise"),
    ("emoclf.features.strip_noise", "textprep.strip_noise"),
    ("emoclf.pipeline.tokenize", "textprep.tokenize"),
    ("emoclf.features.tokenize", "textprep.tokenize"),
    ("emoclf.pipeline.fit", "features.fit"),
    ("emoclf.pipeline.assemble", "features.assemble"),
    ("emoclf.features.assemble", "features.assemble"),
    ("emoclf.features.FittedExtractor.vectorize", "features.vectorize"),
    ("emoclf.svm.TrainingProblem.from_vectors", "svm.problem_build"),
    ("emoclf.pipeline.predict", "svm.predict"),
    ("emoclf.pipeline.grid_search_C", "pipeline.grid_search"),
    ("emoclf.pipeline.train_all", "pipeline.train_all"),
    ("emoclf.pipeline.evaluate_heldout", "pipeline.evaluate_heldout"),
    ("emoclf.pipeline.classify", "pipeline.classify"),
    ("emoclf.pipeline.save_bundle", "pipeline.bundle_save"),
    ("emoclf.pipeline.load_bundle", "pipeline.bundle_load"),
    ("emoclf.pipeline.stratified_split", "corpus.stratified_split"),
    ("emoclf.corpus.read_gold_corpus", "corpus.read"),
    ("emoclf.corpus.read_input_corpus", "corpus.read"),
    ("emoclf.corpus.write_predictions", "corpus.write_predictions"),
)
SOLVE_NAME = "emoclf.pipeline.train_dual_cd"


def traced_run(workload, seed, files, ledger, speed) -> dict:
    gold, _ = corpus.read_gold_corpus(files.gold)
    trainer = Trainer(workload, files, ledger, speed)
    reference = trainer.train(gold, train_config(workload, jobs=1))

    # Solver work comes from the public monitor while the config accepts one.
    monitor_type = getattr(svm, "TrainingMonitor", None)
    takes_monitor = "monitor" in getattr(pipeline.TrainConfig, "__dataclass_fields__", {})
    monitor = monitor_type() if monitor_type and takes_monitor else None
    solve = SolveCounter(monitor) if monitor is not None else None
    tracer = spans.Tracer()
    for path, name in TRACED_NAMES:
        tracer.wrap(path, name)
    tracer.wrap(SOLVE_NAME, "svm.solve", after=solve.after if solve else None)
    print("wrapped " + " ".join(tracer.wrapped))
    print("absent " + (" ".join(tracer.absent) or "-"))
    try:
        gold, _ = corpus.read_gold_corpus(files.gold)
        docs = corpus.read_input_corpus(files.stream)
        tracer.phase = "train"
        traced = trainer.train(gold, train_config(workload, jobs=1, monitor=monitor))
        if traced is None or reference is None or trainer.bundle_bytes is None:
            return {}
        tracer.phase = "setup"
        bundle = pipeline.load_bundle(files.bundle)
        tracer.phase = "classify"
        loop = ClassifyLoop(bundle, docs, workload, seed, ledger, speed,
                            checking=lambda: tracer.phase_as("check"))
        loop.run_pass()
        write_predictions(loop, files, ledger)
    finally:
        tracer.unwrap_all()

    # Overhead compares times scaled to the reference speed, so host drift
    # between the two trainings does not show as tracing cost.
    layer = layer_metrics(tracer, solve, workload, len(trainer.bundle_bytes),
                          traced[1] / reference[1] - 1.0)
    print_shares(tracer, "train", traced[0])
    print_shares(tracer, "classify", loop.busy_s)
    return layer


def layer_metrics(tracer, solve, workload, bundle_bytes, overhead_share) -> dict:
    phases = {phase: tracer.phase_stats(phase) for phase in ("setup", "train", "classify")}
    docs_in = {"train": workload.n_gold, "classify": inputs.STREAM_DOCS}
    empty = spans.SpanStat()

    def stat(phase, name):
        return phases[phase].get(name, empty)

    out = {}
    for name, phase in (("svm.solve", "train"), ("svm.problem_build", "train"),
                        ("features.fit", "train")):
        out[f"{name}.calls"] = metric(stat(phase, name).calls, "count")
        out[f"{name}.self_s"] = metric(stat(phase, name).self_s, "s")
    steps = solve.monitor.steps if solve else 0
    sweeps = solve.monitor.sweeps if solve else 0
    out["svm.solve.sweeps"] = metric(sweeps, "count")
    out["svm.solve.steps"] = metric(steps, "count")
    out["svm.solve.useful_step_share"] = metric(
        steps / solve.row_sweeps if solve and solve.row_sweeps else 0.0, "ratio")
    out["svm.solve.unconverged"] = metric(solve.unconverged if solve else 0, "count")

    # Layers that both training and classification call, reported per phase.
    for phase in ("train", "classify"):
        for name in ("svm.predict", "features.assemble", "features.vectorize",
                     "textprep.strip_noise", "textprep.tokenize"):
            s = stat(phase, name)
            out[f"{phase}.{name}.calls"] = metric(s.calls, "count")
            out[f"{phase}.{name}.self_s"] = metric(s.self_s, "s")
        for name in ("features.assemble", "textprep.tokenize"):
            out[f"{phase}.{name}.calls_per_doc"] = metric(
                stat(phase, name).calls / docs_in[phase], "calls/doc")
        out[f"{phase}.textprep.strip_noise.max_ms"] = metric(
            1000 * stat(phase, "textprep.strip_noise").max_s, "ms")

    out["pipeline.grid_search.self_s"] = metric(stat("train", "pipeline.grid_search").self_s, "s")
    out["pipeline.evaluate_heldout.self_s"] = metric(
        stat("train", "pipeline.evaluate_heldout").self_s, "s")
    out["pipeline.classify.self_s"] = metric(stat("classify", "pipeline.classify").self_s, "s")
    out["pipeline.bundle_save_s"] = metric(stat("train", "pipeline.bundle_save").total_s, "s")
    out["pipeline.bundle_load_s"] = metric(stat("setup", "pipeline.bundle_load").total_s, "s")
    out["pipeline.bundle_bytes"] = metric(bundle_bytes, "bytes")
    out["corpus.read_s"] = metric(stat("setup", "corpus.read").total_s, "s")
    out["corpus.write_predictions_s"] = metric(
        stat("classify", "corpus.write_predictions").total_s, "s")
    out["corpus.stratified_split.calls"] = metric(
        stat("train", "corpus.stratified_split").calls, "count")
    out["trace.overhead_share"] = metric(overhead_share, "ratio")
    return out


def print_shares(tracer, phase: str, wall_s: float) -> None:
    """Self time per span as a share of the phase's wall time, largest first."""
    stats = sorted(tracer.phase_stats(phase).items(), key=lambda kv: -kv[1].self_s)
    print(f"shares {phase} wall {wall_s:.4f} s")
    for name, s in stats:
        print(f"  {name:28s} {s.calls:8d} calls {s.self_s:10.4f} s "
              f"{100 * s.self_s / wall_s:6.1f}%")


def main(argv=None) -> int:
    global corpus, pipeline, svm
    args = parse_args(argv)
    corpus, pipeline, svm = import_library()
    workload = inputs.WORKLOADS[args.workload]
    jobs = min(workload.max_jobs, measure.cores())
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} jobs {1 if args.trace else jobs}")
    speed = measure.Speedometer()
    host = measure.host_record(ROOT)
    host["calibration_ms"] = speed.read()
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    files = Files(workdir / "gold.csv", workdir / "stream.csv",
                  workdir / "model.emo", workdir / "predictions.csv")
    ledger = Ledger()
    try:
        write_inputs(workload, args.seed, files)
        if args.trace:
            metrics = traced_run(workload, args.seed, files, ledger, speed)
        else:
            metrics = untraced_run(workload, args.seed, args.seconds, files, ledger, jobs, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass    # another run still uses it

    if not metrics:
        ledger.problem("no metrics were measured")
    readings = speed.readings
    print(f"host calibration_ms over {len(readings)} readings: min {min(readings):.3f} "
          f"median {statistics.median(readings):.3f} max {max(readings):.3f}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"metric failed_share {share!r} ratio ({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
