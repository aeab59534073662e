"""Command-line harness: assort-mnl gen|label|train|eval|case|compare.

Subcommands wire the library stages together:

    gen      draw a labeled dataset and write it as JSON Lines
    label    recompute labels of an existing dataset under a new k or mode
    train    fit the linear assortment predictor on a dataset's train split
    eval     evaluate a saved model on a dataset's test split
    case     run generate/train/evaluate end to end (presets available)
    compare  diff the metrics of two case reports

Exit codes: 0 success, 2 argument or configuration error (a spec flag
given with ``--preset``, which sets the spec, among them), 3 fixed-point
non-convergence budget exceeded, 4 training error, 5 I/O or file format
error.  The files read are datasets (a record that does not fit its
header, such as an ``idx`` out of sequence, a ``seed`` that is not the
header's SplitMix64 mix, a beta or revenue other than the header's or a
value outside the spec's ranges, or a stored r_a that disagrees with its
label), models, and the case reports that ``compare`` reads (a missing or
mistyped ``config``/``evaluation`` field).  All three are parsed by
``generate._load_json``, so text that is not UTF-8 JSON, JSON nested
deeper than the parser allows and an integer literal too long to convert
are read errors too; each error names the dataset line, or the model or
report file and the line or field at fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .bench import (
    DEFAULT_MASTER_SEED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_TRAIN,
    PRESET_NAMES,
    CaseConfig,
    StageError,
    _report_fields,
    check_convergence_budget,
    compare_runs,
    preset,
    run_case,
    split_dataset,
    training_matrices,
)
from .core import PER_SEGMENT, SHARED
from .generate import (
    DOLLAR_SCALE,
    UNIT_SCALE,
    DatasetFormatError,
    GenSpec,
    _indented_json,
    _load_json,
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


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, help="named configuration")
    p.add_argument("--n", type=int, help="product count")
    p.add_argument("--m", type=int, help=f"segment count (default {GenSpec.m})")
    p.add_argument("--k", type=int, help=f"assortment size (default {GenSpec.k})")
    p.add_argument("--M", type=float, help=f"parameter upper bound (default {GenSpec.M:g})")
    p.add_argument("--count", type=int, default=CaseConfig.count, help=f"number of records (default {CaseConfig.count})")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed, in [0, 2**64)")
    p.add_argument(
        "--no-network-effects",
        action="store_true",
        help="force all network-effect sensitivities to zero",
    )
    p.add_argument(
        "--f-mode",
        choices=(UNIT_SCALE, DOLLAR_SCALE),
        help=f"funding-gap scale (default {GenSpec.f_mode})",
    )
    p.add_argument(
        "--mode",
        choices=(SHARED, PER_SEGMENT),
        help=f"assortment mode (default {GenSpec.mode})",
    )


# The spec flags; one not given takes the GenSpec field's default, as the help strings state.
_SPEC_FLAGS = ("n", "m", "k", "M", "f_mode", "mode")


def _spec_from_args(args) -> GenSpec:
    flags = {name: getattr(args, name) for name in _SPEC_FLAGS if getattr(args, name) is not None}
    if args.preset:
        if flags:
            raise ValueError(f"--{next(iter(flags)).replace('_', '-')} conflicts with --preset, which sets the spec")
        spec = preset(args.preset).spec
        if args.no_network_effects:
            spec = dataclasses.replace(spec, network_effects=False)
        return spec
    if args.n is None:
        raise ValueError("either --preset or --n is required")
    return GenSpec(**flags, network_effects=not args.no_network_effects)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, doc: dict, summary_lines) -> None:
    if args.format == "json":
        print(_indented_json(doc))
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
        "records": len(dataset),
        "excluded": len(dataset.excluded),
    }
    _emit(args, doc, [f"wrote {len(dataset)} records to {out} "
                      f"({len(dataset.excluded)} excluded)"])
    return EXIT_OK


def _cmd_label(args) -> int:
    dataset = read_dataset(args.dataset)
    relabeled = relabel_dataset(dataset, k=args.k, mode=args.mode)
    check_convergence_budget(relabeled)
    out = _out_dir(args) / "dataset.jsonl"
    write_dataset(relabeled, out)
    doc = {
        "dataset": str(out),
        "records": len(relabeled),
        "excluded": len(relabeled.excluded),
        "k": relabeled.spec.k,
        "mode": relabeled.spec.mode,
    }
    _emit(args, doc, [f"relabeled {len(relabeled)} records "
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
    doc = {"model": str(out), "train_rows": len(train), "features": layout.d}
    _emit(args, doc, [f"fit {layout.label_slots} outputs on {len(train)} rows "
                      f"({layout.d} features); wrote {out}"])
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset = read_dataset(args.dataset)
    verify_labels(dataset)
    model = read_model(args.model)
    _, test = split_dataset(dataset, args.train_fraction)
    report = evaluate(model, test)
    doc = report.to_dict()
    out_path = None
    if args.out is not None:
        out_path = _out_dir(args) / "report.json"
        _write_atomic(out_path, [(_indented_json(doc) + "\n").encode()])
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
    config = CaseConfig(
        case_id=args.case_id or args.preset or "custom",
        spec=_spec_from_args(args),
        count=args.count,
        train_fraction=args.train_fraction,
        master_seed=args.seed,
        out_dir=args.out,
        # A preset's reference metrics describe its own spec, not one
        # without network effects.
        reference=preset(args.preset).reference if args.preset and not args.no_network_effects else None,
    )
    doc = run_case(config)
    counts, ev = doc["counts"], doc["evaluation"]
    mean_prl = "n/a" if ev["mean_prl_percent"] is None else f"{ev['mean_prl_percent']:.2f}%"
    _emit(args, doc, [
        f"case {config.case_id}: {counts['generated']} records "
        f"({counts['excluded']} excluded), "
        f"train/test {counts['train']}/{counts['test']}",
        f"error rate {ev['error_rate']:.4f}, mean PRL {mean_prl}, "
        f"r_a mean {ev['r_a_mean']:.4f}",
        f"artifacts in {config.out_dir}",
    ])
    return EXIT_OK


def _read_report(path) -> dict:
    """A case report file, read by ``_load_json`` and checked as ``compare_runs`` checks it; errors name the file."""
    doc = _load_json(Path(path).read_bytes(), str(path), "report")
    _report_fields(doc, str(path))
    return doc


def _cmd_compare(args) -> int:
    summary = compare_runs(_read_report(args.report_a), _read_report(args.report_b))
    lines = [f"{summary['case_a']} vs {summary['case_b']}"]
    for name, row in summary["metrics"].items():
        lines.append(f"  {name}: {row['a']} -> {row['b']} ({row['direction']})")
    _emit(args, summary, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every :func:`main` call.

    Parsing leaves it unchanged; callers must not change it either.
    """
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
    p.add_argument("--mode", choices=(SHARED, PER_SEGMENT), default=None, help="new assortment mode")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="fit the linear predictor on a dataset")
    p.add_argument("dataset", help="input dataset (JSON Lines)")
    p.add_argument("--train-fraction", type=float, default=CaseConfig.train_fraction)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset's test split")
    p.add_argument("dataset", help="input dataset (JSON Lines)")
    p.add_argument("model", help="fitted model (JSON)")
    p.add_argument("--train-fraction", type=float, default=CaseConfig.train_fraction)
    p.add_argument("--out", default=None, help="directory for report.json (optional)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("case", help="run generate/train/evaluate end to end")
    _add_gen_flags(p)
    p.add_argument("--case-id", help="case name for artifact files (default: the preset's, else custom)")
    p.add_argument("--train-fraction", type=float, default=CaseConfig.train_fraction)
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
