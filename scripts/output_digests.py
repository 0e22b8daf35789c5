#!/usr/bin/env python3
"""Print a SHA-256 of every file that training and classifying write, per workload.

    PYTHONPATH=src python3 scripts/output_digests.py --seeds 1,2,3

For each workload of ``perfbench/inputs.py`` and each seed, the script
writes the seeded gold corpus and classify stream as CSV, trains with
``emoclf train`` (through ``emoclf.cli.main``) on the workload's folds,
grid and loss, once with ``--jobs 1`` and once with ``--jobs 2``, each with
``--log-tuning``, and classifies the stream with the jobs-1 bundle.  It
prints one ``workload seed file sha256`` line per output: the bundle, the
held-out report and the tuning log of each training, and the predictions.

emoclf is imported from ``PYTHONPATH``, so one copy of this script checks
two checkouts: run it once with each checkout's ``src`` and compare the
lines.  Exits 1 when a jobs-2 file differs from its jobs-1 twin, or when a
command fails.  The README allows a jobs difference only when a held-out
decision lies within rounding of zero, so a seed that differs at both
checkouts is a finding about the seed, not about the change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench's seeded workloads, independent of emoclf)
from emoclf import cli, corpus  # noqa: E402

# Each training's outputs, named by the jobs-1 run; the jobs-2 run's carry JOBS2.
JOBS2 = "_jobs2"
TRAINED = ("model{}.emo", "model{}.emo.report.csv", "tuning{}.csv")


def run_cli(argv: list[str]) -> None:
    """``emoclf`` with ``argv``; its output is shown only when it fails."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        status = cli.main(argv)
    if status != cli.EXIT_OK:
        sys.exit(f"emoclf {' '.join(argv)} exited {status}:\n{output.getvalue()}")


def write_inputs(workload: inputs.Workload, seed: int, folder: Path) -> None:
    gold = [corpus.LabeledDocument(corpus.Document(doc_id, text), labels)
            for doc_id, text, labels in inputs.gold_corpus(workload, seed)]
    corpus.write_gold_corpus(folder / "gold.csv", gold, list(workload.emotions))
    corpus.write_input_corpus(
        folder / "stream.csv",
        [corpus.Document(doc_id, text) for doc_id, text in inputs.classify_stream(workload, seed)],
    )


def outputs(workload: inputs.Workload, seed: int, folder: Path) -> list[str]:
    """Train under both jobs values and classify; the output file names, in print order."""
    write_inputs(workload, seed, folder)
    protocol = ["--folds", str(workload.folds), "--loss", workload.loss]
    if workload.grid is not None:
        protocol += ["--grid", ",".join(map(repr, workload.grid))]
    for jobs, tag in ((1, ""), (2, JOBS2)):
        model, _, tuning = (folder / name.format(tag) for name in TRAINED)
        run_cli(["train", "--gold", str(folder / "gold.csv"), "--out", str(model),
                 "--jobs", str(jobs), "--log-tuning", str(tuning), *protocol])
    run_cli(["classify", "--model", str(folder / "model.emo"),
             "--input", str(folder / "stream.csv"), "--out", str(folder / "predictions.csv")])
    names = [name.format(tag) for tag in ("", JOBS2) for name in TRAINED]
    return names + ["predictions.csv"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1",
                        help="comma-separated workload seeds (default: 1)")
    args = parser.parse_args(argv)
    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        parser.error(f"bad seed list {args.seeds!r}")
    if not seeds:
        parser.error("no seeds given")
    print(f"emoclf from {Path(cli.__file__).resolve().parent}", file=sys.stderr)

    status = 0
    for workload in inputs.WORKLOADS.values():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                folder = Path(tmp)
                digests = {name: hashlib.sha256((folder / name).read_bytes()).hexdigest()
                           for name in outputs(workload, seed, folder)}
            for name, digest in digests.items():
                print(f"{workload.name} {seed} {name} {digest}", flush=True)
            for name in TRAINED:
                single, double = name.format(""), name.format(JOBS2)
                if digests[single] != digests[double]:
                    print(f"DIFFERS {workload.name} {seed}: {double} is not {single}",
                          file=sys.stderr)
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
