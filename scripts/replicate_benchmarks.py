#!/usr/bin/env python3
"""Benchmark the full training protocol on a labeled gold CSV.

Runs the standard recipe (70/30 stratified split per emotion, 10-fold
cross-validated cost tuning over the default grid, final model on the train
partition) and prints held-out precision/recall/F1 per emotion.  When a
reference CSV of published numbers is supplied, the script prints the deltas
and flags which emotions land within the informational +/-0.10 band; lexical
cue scorers here are built-in approximations of the original external tools,
so deviations are expected and nothing fails on a miss.

    python scripts/replicate_benchmarks.py --gold so_gold.csv \
        --reference so_reference.csv --out so_report.csv

Reference CSV columns: emotion,precision,recall,f1 (UTF-8, an optional byte
order mark, finite numbers).  The reference file and the held-out partitions
are checked before any training; a bad reference file, like any other input
error, exits 2 with a message naming the file.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from emoclf.corpus import read_gold_corpus, select_emotions
from emoclf.errors import EmoclfError
from emoclf.pipeline import (
    TrainConfig,
    check_heldout_partitions,
    evaluate_heldout,
    save_bundle,
    train_all,
)

INFO_BAND = 0.10
METRICS = ("precision", "recall", "f1")


class BadReference(EmoclfError):
    """The reference CSV cannot be read or breaks its format."""


def read_reference(path):
    """``{emotion: {metric: value}}`` from the reference CSV, checked in full."""
    reference = {}
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.DictReader(handle)
            reader.fieldnames = [name.strip().lower() for name in reader.fieldnames or []]
            for column in ("emotion", *METRICS):
                if column not in reader.fieldnames:
                    raise BadReference(f"reference file {path} has no {column!r} column "
                                       f"(need emotion,{','.join(METRICS)})")
            for row in reader:
                values = {}
                for column in METRICS:
                    cell = row[column]
                    try:
                        values[column] = float(cell)
                    except (TypeError, ValueError):
                        values[column] = math.nan
                    if not math.isfinite(values[column]):
                        raise BadReference(f"reference file {path}, line {reader.line_num}: "
                                           f"{column!r} must be a finite number, got {cell!r}")
                reference[row["emotion"].strip().lower()] = values
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise BadReference(f"cannot read reference file {path}: {exc}") from exc
    return reference


def main() -> int:
    try:
        return run()
    except EmoclfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gold", required=True, help="gold CSV: id,text,<emotion>,...")
    parser.add_argument("--emotions", default=None,
                        help="comma-separated subset (default: all columns)")
    parser.add_argument("--reference", default=None,
                        help="published metrics CSV: emotion,precision,recall,f1")
    parser.add_argument("--out", default=None, help="write the report CSV here")
    parser.add_argument("--save-model", default=None, help="also keep the bundle")
    defaults = TrainConfig()
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--folds", type=int, default=defaults.folds)
    parser.add_argument("--train-fraction", type=float, default=defaults.train_fraction)
    parser.add_argument("--min-df", type=int, default=defaults.min_df)
    parser.add_argument("--jobs", type=int, default=defaults.jobs)
    args = parser.parse_args()

    gold, header_emotions = read_gold_corpus(args.gold)
    emotions = select_emotions(args.emotions, header_emotions)
    print(f"{len(gold)} documents, emotions: {', '.join(emotions)}")

    config = TrainConfig(
        train_fraction=args.train_fraction,
        folds=args.folds,
        seed=args.seed,
        min_df=args.min_df,
        jobs=args.jobs,
    )
    # Input errors surface before the training they would otherwise follow.
    check_heldout_partitions(gold, emotions, config)
    reference = read_reference(args.reference) if args.reference else None
    bundle = train_all(gold, emotions, config)
    report = evaluate_heldout(bundle, gold)

    print()
    print(report.table())
    if args.out:
        report.to_csv(args.out)
        print(f"\nreport written to {args.out}")
    if args.save_model:
        save_bundle(bundle, args.save_model)
        print(f"bundle written to {args.save_model}")

    if reference is not None:
        print("\ncomparison against reference (informational):")
        for row in report.rows:
            ref = reference.get(row.emotion)
            if ref is None:
                print(f"  {row.emotion}: no reference row")
                continue
            delta = row.f1 - ref["f1"]
            verdict = "within" if abs(delta) <= INFO_BAND else "outside"
            print(
                f"  {row.emotion}: F1 {row.f1:.2f} vs {ref['f1']:.2f} "
                f"(delta {delta:+.2f}, {verdict} +/-{INFO_BAND:.2f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
