"""Command-line driver: ``emoclf train | classify | evaluate``.

Exit codes are stable: 0 success, 2 input or contract error, 3 model
compatibility error, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import __version__
from .corpus import (
    atomic_write,
    read_gold_corpus,
    read_input_corpus,
    select_emotions,
    write_predictions,
)
from .errors import (
    ContractViolation,
    EmoclfError,
    IncompatibleModel,
    ParseError,
)
from .lexicons import load_emoticons, load_lexicons
from .linear import L1_HINGE, L2_HINGE
from .pipeline import (
    TUNE_METRICS,
    TrainConfig,
    TuningGrid,
    classify,
    evaluate,
    evaluate_heldout,
    load_bundle,
    save_bundle,
)

LEXICON_DIR_ENV = "EMOCLF_LEXICONS"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MODEL = 3


def _parse_grid(text: str) -> TuningGrid:
    try:
        values = sorted({float(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cost grid {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("cost grid is empty")
    try:
        return TuningGrid(tuple(values))
    except ContractViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_lexicon_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon-dir",
        default=os.environ.get(LEXICON_DIR_ENV),
        help="directory with replacement lexicon files "
        f"(default: ${LEXICON_DIR_ENV} or the built-in lexicons)",
    )
    parser.add_argument(
        "--emoticons",
        default=None,
        help="replacement emoticon table, one emoticon per line "
        "(default: built-in table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoclf",
        description="Train and apply per-emotion binary text classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"emoclf {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train",
        help="train one binary classifier per emotion from a labeled gold CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    train.add_argument("--gold", required=True, help="gold CSV: id,text,<emotion>,...")
    train.add_argument("--out", required=True, help="path for the model bundle")
    train.add_argument(
        "--report",
        default=None,
        help="path for the held-out evaluation CSV (default: <out>.report.csv)",
    )
    train.add_argument(
        "--emotions",
        default=None,
        help="comma-separated subset of the gold columns (default: all of them)",
    )
    defaults = TrainConfig()
    train.add_argument("--train-fraction", type=float, default=defaults.train_fraction,
                       help="share of each class kept for training")
    train.add_argument("--folds", type=int, default=defaults.folds,
                       help="cross-validation folds for cost tuning")
    train.add_argument(
        "--grid",
        type=_parse_grid,
        default=defaults.grid,
        help="comma-separated cost values (sorted before use); default "
        + ",".join(str(c) for c in defaults.grid.c_values),
    )
    train.add_argument("--seed", type=int, default=defaults.seed, help="master random seed")
    train.add_argument("--min-df", type=int, default=defaults.min_df,
                       help="drop n-grams seen in fewer training documents")
    train.add_argument("--loss", choices=(L1_HINGE, L2_HINGE), default=defaults.loss,
                       help="hinge loss variant")
    train.add_argument("--eps", type=float, default=defaults.eps,
                       help="solver tolerance on the projected gradient")
    train.add_argument("--max-iters", type=int, default=defaults.max_outer_iters,
                       help="solver outer-sweep cap")
    train.add_argument("--shared-split", action="store_true",
                       help="one train/test split shared by all emotions "
                       "(stratified by the first) instead of one per emotion")
    train.add_argument("--jobs", type=int, default=defaults.jobs,
                       help="parallel processes; the emotions are cut into this many "
                       "contiguous runs, one process each, never more than the emotions")
    train.add_argument("--positive-cost", type=float, default=defaults.positive_cost,
                       help="cost multiplier for positive examples")
    train.add_argument("--tune-metric", choices=tuple(TUNE_METRICS), default=defaults.tune_metric,
                       help="cross-validation selection metric")
    train.add_argument("--log-tuning", default=None,
                       help="write every (emotion,fold,C,accuracy) evaluation to this CSV")
    _add_lexicon_flags(train)
    train.set_defaults(func=cmd_train)

    classify_p = commands.add_parser(
        "classify",
        help="apply a trained bundle to an id,text corpus",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    classify_p.add_argument("--model", required=True, help="model bundle from `train`")
    classify_p.add_argument("--input", required=True, help="input CSV: id,text")
    classify_p.add_argument("--out", required=True, help="prediction CSV: id,label")
    classify_p.set_defaults(func=cmd_classify)

    evaluate_p = commands.add_parser(
        "evaluate",
        help="score a trained bundle against a labeled gold CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    evaluate_p.add_argument("--model", required=True, help="model bundle from `train`")
    evaluate_p.add_argument("--gold", required=True, help="gold CSV: id,text,<emotion>,...")
    evaluate_p.add_argument("--out", default=None,
                            help="also write the report CSV to this path")
    evaluate_p.set_defaults(func=cmd_evaluate)

    return parser


def _config_from_args(args) -> TrainConfig:
    lexicons = load_lexicons(args.lexicon_dir) if args.lexicon_dir else None
    emoticons = load_emoticons(args.emoticons) if args.emoticons else None
    return TrainConfig(
        train_fraction=args.train_fraction,
        folds=args.folds,
        grid=args.grid,
        seed=args.seed,
        min_df=args.min_df,
        loss=args.loss,
        eps=args.eps,
        max_outer_iters=args.max_iters,
        shared_split=args.shared_split,
        jobs=args.jobs,
        positive_cost=args.positive_cost,
        tune_metric=args.tune_metric,
        lexicons=lexicons,
        emoticons=emoticons,
    )


def cmd_train(args) -> int:
    from .training import check_heldout_partitions, train_all  # classify never loads the trainer

    gold, header_emotions = read_gold_corpus(args.gold)
    emotions = select_emotions(args.emotions, header_emotions)
    config = _config_from_args(args)
    # An empty held-out partition would fail the report; find out before training.
    check_heldout_partitions(gold, emotions, config)

    # The log opens before training so that an unwritable path fails first; it
    # replaces an earlier log only once training has succeeded.
    with (atomic_write(args.log_tuning) if args.log_tuning
          else contextlib.nullcontext()) as log:
        bundle = train_all(gold, emotions, config)
        if log is not None:
            log.write("emotion,fold,C,accuracy\n")
            for em in bundle:
                for score in em.cv_folds:
                    accuracy = score.confusion.metrics()[TUNE_METRICS["accuracy"]]
                    log.write(f"{em.emotion},{score.fold},{score.C!r},{accuracy!r}\n")

    for em in bundle:
        if em.model.converged is False:
            print(
                f"warning: {em.emotion}: the final solve stopped after {em.model.sweeps} "
                f"sweeps without converging (violation {em.model.final_violation:.3g}, "
                f"eps {args.eps:g}); raise --max-iters or --eps",
                file=sys.stderr,
            )

    save_bundle(bundle, args.out)
    report = evaluate_heldout(bundle, gold)
    report_path = args.report or f"{args.out}.report.csv"
    report.to_csv(report_path)

    for row in report.rows:
        em = bundle.models[row.emotion]
        print(
            f"{row.emotion}: C={em.chosen_C:g} cv_accuracy={em.cv_accuracy:.4f} "
            f"P={row.precision:.2f} R={row.recall:.2f} F1={row.f1:.2f}"
        )
    print(f"bundle written to {args.out}")
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_classify(args) -> int:
    bundle = load_bundle(args.model)
    docs = read_input_corpus(args.input)
    write_predictions(args.out, classify(bundle, docs))
    print(f"predictions for {len(docs)} document(s) written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.model)
    gold, _ = read_gold_corpus(args.gold)
    report = evaluate(bundle, gold)
    print(report.table())
    if args.out:
        report.to_csv(args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IncompatibleModel, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (EmoclfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
