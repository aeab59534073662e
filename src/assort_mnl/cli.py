"""Command-line harness: assort-mnl gen|label|train|eval|case|compare.

Subcommands wire the library stages together:

    gen      draw a labeled dataset and write it as JSON Lines
    label    recompute labels of an existing dataset under a new k or mode
    train    fit the linear assortment predictor on a dataset's train split
    eval     evaluate a saved model on a dataset's test split
    case     run generate/train/evaluate end to end (presets available)
    compare  diff the metrics of two case reports

Exit codes: 0 success, 2 argument or configuration error, 3 fixed-point
non-convergence budget exceeded, 4 training error, 5 I/O or file format
error (dataset or model file, including a stored r_a that disagrees with
its label).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    DEFAULT_MASTER_SEED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_TRAIN,
    PRESET_NAMES,
    CaseConfig,
    StageError,
    check_convergence_budget,
    compare_runs,
    preset,
    run_case,
    split_dataset,
    training_matrices,
)
from .core import PER_SEGMENT, SHARED, NonConvergenceError
from .generate import (
    DOLLAR_SCALE,
    UNIT_SCALE,
    DatasetFormatError,
    GenSpec,
    _write_atomic,
    generate_dataset,
    read_dataset,
    relabel_dataset,
    verify_labels,
    write_dataset,
)
from .learner import (
    UnderdeterminedFitError,
    evaluate,
    fit_linear,
    read_model,
    write_model,
)

_MODES = {"shared": SHARED, "per-segment": PER_SEGMENT}


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, help="named configuration")
    p.add_argument("--n", type=int, help="product count")
    p.add_argument("--m", type=int, default=1, help="segment count (default 1)")
    p.add_argument("--k", type=int, default=1, help="assortment size (default 1)")
    p.add_argument("--M", type=float, default=50.0, help="parameter upper bound (default 50)")
    p.add_argument("--count", type=int, default=500, help="number of records (default 500)")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed")
    p.add_argument(
        "--no-network-effects",
        action="store_true",
        help="force all network-effect sensitivities to zero",
    )
    p.add_argument(
        "--f-mode",
        choices=(UNIT_SCALE, DOLLAR_SCALE),
        default=UNIT_SCALE,
        help="funding-gap scale (default unit)",
    )
    p.add_argument(
        "--mode",
        choices=tuple(_MODES),
        default="shared",
        help="assortment mode (default shared)",
    )


def _spec_from_args(args) -> GenSpec:
    if args.preset:
        spec = preset(args.preset).spec
        if args.no_network_effects:
            spec = dataclasses.replace(spec, network_effects=False)
        return spec
    if args.n is None:
        raise ValueError("either --preset or --n is required")
    return GenSpec(
        n=args.n,
        m=args.m,
        M=args.M,
        network_effects=not args.no_network_effects,
        f_mode=args.f_mode,
        k=args.k,
        mode=_MODES[args.mode],
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, doc: dict, summary_lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in summary_lines:
            print(line)


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    dataset = generate_dataset(spec, args.count, args.seed)
    check_convergence_budget(dataset)
    out = _out_dir(args) / "dataset.jsonl"
    write_dataset(dataset, out)
    doc = {
        "dataset": str(out),
        "records": len(dataset.records),
        "excluded": len(dataset.excluded),
    }
    _emit(args, doc, [f"wrote {len(dataset.records)} records to {out} "
                      f"({len(dataset.excluded)} excluded)"])
    return EXIT_OK


def _cmd_label(args) -> int:
    dataset = read_dataset(args.dataset)
    relabeled = relabel_dataset(dataset, k=args.k, mode=_MODES[args.mode] if args.mode else None)
    check_convergence_budget(relabeled)
    out = _out_dir(args) / "dataset.jsonl"
    write_dataset(relabeled, out)
    doc = {
        "dataset": str(out),
        "records": len(relabeled.records),
        "excluded": len(relabeled.excluded),
        "k": relabeled.spec.k,
        "mode": relabeled.spec.mode,
    }
    _emit(args, doc, [f"relabeled {len(relabeled.records)} records "
                      f"(k={relabeled.spec.k}, mode={relabeled.spec.mode}) into {out}"])
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = read_dataset(args.dataset)
    verify_labels(dataset)
    train, _ = split_dataset(dataset, args.train_fraction)
    X, Y, layout = training_matrices(train)
    model = fit_linear(X, Y, layout)
    out = _out_dir(args) / "model.json"
    write_model(model, out)
    doc = {"model": str(out), "train_rows": len(train.records), "features": layout.d}
    _emit(args, doc, [f"fit {layout.label_slots} outputs on {len(train.records)} rows "
                      f"({layout.d} features); wrote {out}"])
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset = read_dataset(args.dataset)
    verify_labels(dataset)
    model = read_model(args.model)
    _, test = split_dataset(dataset, args.train_fraction)
    if not test.records:
        raise ValueError("test split is empty")
    report = evaluate(model, test)
    doc = report.to_dict()
    out_path = None
    if args.out is not None:
        out_path = _out_dir(args) / "report.json"
        _write_atomic(out_path, json.dumps(doc, indent=2) + "\n")
    mean_prl = "n/a" if report.mean_prl_percent is None else f"{report.mean_prl_percent:.2f}%"
    lines = [
        f"test examples:   {report.test_count}",
        f"error rate:      {report.error_rate:.4f}",
        f"mean PRL:        {mean_prl} ({report.prl_excluded} excluded)",
        f"r_a mean/max:    {report.r_a_mean:.4f} / {report.r_a_max:.4f}",
    ]
    if out_path:
        lines.append(f"report written:  {out_path}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_case(args) -> int:
    if args.preset:
        config = preset(
            args.preset,
            count=args.count,
            train_fraction=args.train_fraction,
            master_seed=args.seed,
            out_dir=args.out,
        )
        if args.no_network_effects:
            # The spec changed, so the preset's reference metrics no
            # longer describe this run.
            config = dataclasses.replace(
                config,
                spec=dataclasses.replace(config.spec, network_effects=False),
                reference=None,
            )
    else:
        spec = _spec_from_args(args)
        config = CaseConfig(
            case_id=args.case_id,
            spec=spec,
            count=args.count,
            train_fraction=args.train_fraction,
            master_seed=args.seed,
            out_dir=args.out,
        )
    report = run_case(config)
    doc = report.to_dict()
    ev = report.evaluation
    mean_prl = "n/a" if ev.mean_prl_percent is None else f"{ev.mean_prl_percent:.2f}%"
    _emit(args, doc, [
        f"case {config.case_id}: {report.counts['generated']} records "
        f"({report.counts['excluded']} excluded), "
        f"train/test {report.counts['train']}/{report.counts['test']}",
        f"error rate {ev.error_rate:.4f}, mean PRL {mean_prl}, "
        f"r_a mean {ev.r_a_mean:.4f}",
        f"artifacts in {config.out_dir}",
    ])
    return EXIT_OK


def _cmd_compare(args) -> int:
    with open(args.report_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.report_b, encoding="utf-8") as fh:
        b = json.load(fh)
    summary = compare_runs(a, b)
    lines = [f"{summary['case_a']} vs {summary['case_b']}"]
    for name, row in summary["metrics"].items():
        lines.append(f"  {name}: {row['a']} -> {row['b']} ({row['direction']})")
    _emit(args, summary, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assort-mnl",
        description="Assortment optimization and prediction benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled dataset")
    _add_gen_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("label", help="relabel a dataset under a new k or mode")
    p.add_argument("dataset", help="input dataset (JSON Lines)")
    p.add_argument("--k", type=int, default=None, help="new assortment size")
    p.add_argument("--mode", choices=tuple(_MODES), default=None, help="new assortment mode")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="fit the linear predictor on a dataset")
    p.add_argument("dataset", help="input dataset (JSON Lines)")
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset's test split")
    p.add_argument("dataset", help="input dataset (JSON Lines)")
    p.add_argument("model", help="fitted model (JSON)")
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--out", default=None, help="directory for report.json (optional)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("case", help="run generate/train/evaluate end to end")
    _add_gen_flags(p)
    p.add_argument("--case-id", default="custom", help="case name for artifact files")
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_case)

    p = sub.add_parser("compare", help="diff two case reports")
    p.add_argument("report_a", help="first case report (JSON)")
    p.add_argument("report_b", help="second case report (JSON)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as e:
        print(f"error {e}", file=sys.stderr)
        return e.exit_code
    except NonConvergenceError as e:
        print(f"error [solve] {e}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except UnderdeterminedFitError as e:
        print(f"error [train] {e}", file=sys.stderr)
        return EXIT_TRAIN
    except DatasetFormatError as e:
        print(f"error [read] {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error [config] {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error [io] {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
