"""End-to-end benchmark cases: generate, split, fit, evaluate, persist.

A case ties a generation recipe to a train/test split and produces three
artifacts in its output directory: the labeled dataset (JSON Lines), the
fitted model (JSON), and a case report (JSON).  Reports echo their full
configuration, so rerunning a case with the same master seed reproduces
every artifact byte for byte and every report field except the wall-clock
durations.

Named presets cover the standard benchmark grid: two to five products,
one or two segments, assortment sizes one to four, network effects on or
off.  Each preset carries indicative reference metrics for orientation;
they are annotations, never assertions, because they depend on the random
instances drawn.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path


from .core import PER_SEGMENT, SHARED
from .generate import (
    GenSpec,
    LabeledDataset,
    _stack,
    _write_atomic,
    generate_dataset,
    spec_to_dict,
    write_dataset,
)
from .learner import (
    EvaluationReport,
    FeatureLayout,
    UnderdeterminedFitError,
    _features,
    _indicators,
    evaluate,
    fit_linear,
    write_model,
)

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_NONCONVERGENCE",
    "EXIT_TRAIN",
    "EXIT_IO",
    "NONCONVERGENCE_BUDGET",
    "DEFAULT_MASTER_SEED",
    "PRESET_NAMES",
    "StageError",
    "CaseConfig",
    "CaseReport",
    "preset",
    "split_dataset",
    "training_matrices",
    "check_convergence_budget",
    "run_case",
    "compare_runs",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_TRAIN = 4
EXIT_IO = 5

# Share of requested records allowed to fail fixed-point convergence.
NONCONVERGENCE_BUDGET = 0.05

DEFAULT_MASTER_SEED = 1729


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and CLI exit code."""

    def __init__(self, stage: str, exit_code: int, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.exit_code = exit_code


@dataclass(frozen=True)
class CaseConfig:
    """Full recipe for one benchmark run."""

    case_id: str
    spec: GenSpec
    count: int = 500
    train_fraction: float = 0.75
    master_seed: int = DEFAULT_MASTER_SEED
    out_dir: str = "."
    reference: dict | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        d = FeatureLayout(self.spec.n, self.spec.m).d
        if self.train_count < d + 1:
            raise ValueError(
                f"training split of {self.train_count} rows cannot fit "
                f"{d} features; raise count or train_fraction"
            )

    @property
    def train_count(self) -> int:
        return int(self.count * self.train_fraction)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "spec": spec_to_dict(self.spec),
            "count": self.count,
            "train_fraction": self.train_fraction,
            "master_seed": self.master_seed,
            "out_dir": str(self.out_dir),
        }


@dataclass(frozen=True)
class CaseReport:
    """Everything a finished case produced, ready for JSON serialization."""

    config: CaseConfig
    evaluation: EvaluationReport
    counts: dict
    durations: dict
    artifacts: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "reference": self.config.reference,
            "counts": self.counts,
            "evaluation": self.evaluation.to_dict(),
            "artifacts": self.artifacts,
            "durations_s": self.durations,
        }


# Preset grid: (n, m, k, network_effects, mode).
_PRESETS = {
    "case1p1": (2, 1, 1, True, SHARED),
    "case1p2": (2, 1, 1, False, SHARED),
    "case2p1": (3, 1, 1, True, SHARED),
    "case2p2": (3, 1, 1, False, SHARED),
    "case2p3": (3, 1, 2, True, SHARED),
    "case3p1": (5, 1, 1, True, SHARED),
    "case3p2": (5, 1, 1, False, SHARED),
    "case3p3": (5, 1, 2, True, SHARED),
    "case3p4": (5, 1, 3, True, SHARED),
    "case3p5": (5, 1, 4, True, SHARED),
    "case4": (2, 2, 1, True, PER_SEGMENT),
}

PRESET_NAMES = tuple(_PRESETS)

# Indicative reference magnitudes per preset (see the module docstring):
# regeneration with arbitrary seeds will not reproduce them exactly.
_REFERENCES = {
    "case1p1": {"error_rate": 0.0320, "mean_prl_percent": 2.40, "r_a_max": 0.44, "r_a_min": 7.2905e-35, "r_a_mean": 0.3159},
    "case1p2": {"error_rate": 0.04, "mean_prl_percent": 1.20, "r_a_max": 0.44, "r_a_min": 2.8292e-38, "r_a_mean": 0.1990},
    "case2p1": {"error_rate": 0.12, "mean_prl_percent": 9.69, "r_a_max": 0.44, "r_a_min": 7.9430e-30, "r_a_mean": 0.3720},
    "case2p2": {"error_rate": 0.072, "mean_prl_percent": 5.42, "r_a_max": 0.44, "r_a_min": 1.8762e-36, "r_a_mean": 0.2594},
    "case2p3": {"error_rate": 0.152, "mean_prl_percent": 19.20, "r_a_max": 0.88, "r_a_min": 1.0315e-28, "r_a_mean": 0.5511},
    "case3p1": {"error_rate": 0.2, "mean_prl_percent": 27.69, "r_a_max": 0.44, "r_a_min": 2.6434e-25, "r_a_mean": 0.4176},
    "case3p2": {"error_rate": 0.0960, "mean_prl_percent": 8.78, "r_a_max": 0.88, "r_a_min": 3.5079e-27, "r_a_mean": 0.7399},
    "case3p3": {"error_rate": 0.1760, "mean_prl_percent": 33.51, "r_a_max": 0.88, "r_a_min": 3.5079e-27, "r_a_mean": 0.7399},
    "case3p4": {"error_rate": 0.24, "mean_prl_percent": 52.71, "r_a_max": 1.32, "r_a_min": 1.3555e-19, "r_a_mean": 0.9295},
    "case3p5": {"error_rate": 0.2480, "mean_prl_percent": 75.20, "r_a_max": 1.72, "r_a_min": 1.4160e-24, "r_a_mean": 0.9919},
    "case4": {"error_rate": 0.8, "mean_prl_percent": 42.78, "r_a_max": 0.8537, "r_a_min": 2.4603e-30, "r_a_mean": 0.3580},
}


def preset(
    name: str,
    count: int = 500,
    train_fraction: float = 0.75,
    master_seed: int = DEFAULT_MASTER_SEED,
    out_dir: str = ".",
) -> CaseConfig:
    """Build the CaseConfig for a named preset."""
    if name not in _PRESETS:
        valid = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}")
    n, m, k, network_effects, mode = _PRESETS[name]
    spec = GenSpec(n=n, m=m, M=50.0, network_effects=network_effects, k=k, mode=mode)
    return CaseConfig(
        case_id=name,
        spec=spec,
        count=count,
        train_fraction=train_fraction,
        master_seed=master_seed,
        out_dir=out_dir,
        reference=dict(_REFERENCES[name]),
    )


def split_dataset(dataset: LabeledDataset, train_fraction: float):
    """Split by record order: the first floor(count * fraction) records train.

    Returns (train, test) as LabeledDataset views sharing the original
    spec and seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n_train = int(dataset.count * train_fraction)
    if n_train > len(dataset.records):
        raise ValueError(
            f"training split needs {n_train} records but only "
            f"{len(dataset.records)} survived generation"
        )
    train = replace(dataset, records=dataset.records[:n_train])
    test = replace(dataset, records=dataset.records[n_train:])
    return train, test


def training_matrices(dataset: LabeledDataset):
    """Stack a dataset into the regression design (X) and indicator targets (Y)."""
    y, alpha, F, lam, labels = _stack(
        dataset.records, "instance.y", "instance.alpha", "instance.F", "instance.lam",
        "label.per_segment",
    )
    layout = FeatureLayout(dataset.spec.n, dataset.spec.m)
    return _features(y, alpha, F, lam), _indicators(labels, layout.n), layout


def check_convergence_budget(dataset: LabeledDataset, budget: float = NONCONVERGENCE_BUDGET):
    """Raise a generate-stage error when too many records failed to converge."""
    if dataset.count and len(dataset.excluded) > budget * dataset.count:
        raise StageError(
            "generate",
            EXIT_NONCONVERGENCE,
            f"{len(dataset.excluded)} of {dataset.count} records failed to "
            f"converge (budget {budget:.0%})",
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(config: CaseConfig) -> CaseReport:
    """Run one case end to end and write its three artifacts.

    Stages are generate, train, evaluate, write; failures raise
    :class:`StageError` tagged with the stage, and any files already
    written by the failing run are removed.
    """
    durations = {}

    t0 = time.perf_counter()
    dataset = generate_dataset(config.spec, config.count, config.master_seed)
    check_convergence_budget(dataset)
    durations["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        train, test = split_dataset(dataset, config.train_fraction)
        X, Y, layout = training_matrices(train)
        model = fit_linear(X, Y, layout)
    except (UnderdeterminedFitError, ValueError) as e:
        raise StageError("train", EXIT_TRAIN, str(e)) from e
    durations["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if not test.records:
        raise StageError("evaluate", EXIT_CONFIG, "test split is empty")
    report = evaluate(model, test)
    durations["evaluate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out_dir = Path(config.out_dir)
    dataset_path = out_dir / f"{config.case_id}_dataset.jsonl"
    model_path = out_dir / f"{config.case_id}_model.json"
    report_path = out_dir / f"{config.case_id}_report.json"
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_dataset(dataset, dataset_path)
        written.append(dataset_path)
        write_model(model, model_path)
        written.append(model_path)
        artifacts = {
            "dataset": {"path": dataset_path.name, "sha256": _sha256(dataset_path)},
            "model": {"path": model_path.name, "sha256": _sha256(model_path)},
            "report": {"path": report_path.name},
        }
        durations["write"] = time.perf_counter() - t0
        case_report = CaseReport(
            config=config,
            evaluation=report,
            counts={
                "requested": config.count,
                "generated": len(dataset.records),
                "excluded": len(dataset.excluded),
                "train": len(train.records),
                "test": len(test.records),
            },
            durations=durations,
            artifacts=artifacts,
        )
        _write_atomic(report_path, json.dumps(case_report.to_dict(), indent=2) + "\n")
        written.append(report_path)
    except OSError as e:
        for p in written:
            p.unlink(missing_ok=True)
        raise StageError("write", EXIT_IO, str(e)) from e
    return case_report


_COMPARE_METRICS = ("error_rate", "mean_prl_percent", "r_a_min", "r_a_max", "r_a_mean")


def compare_runs(report_a, report_b) -> dict:
    """Metric deltas (b minus a) between two case reports.

    Accepts CaseReport objects or their dict form.  Both runs must share
    the same product and segment counts.
    """
    a = report_a.to_dict() if isinstance(report_a, CaseReport) else report_a
    b = report_b.to_dict() if isinstance(report_b, CaseReport) else report_b
    try:
        shape_a = (a["config"]["spec"]["n"], a["config"]["spec"]["m"])
        shape_b = (b["config"]["spec"]["n"], b["config"]["spec"]["m"])
        eval_a, eval_b = a["evaluation"], b["evaluation"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed case report: missing {e}") from None
    if shape_a != shape_b:
        raise ValueError(f"cannot compare runs with shapes {shape_a} and {shape_b}")
    metrics = {}
    for name in _COMPARE_METRICS:
        va, vb = eval_a.get(name), eval_b.get(name)
        if va is None or vb is None:
            metrics[name] = {"a": va, "b": vb, "delta": None, "direction": "undefined"}
            continue
        delta = vb - va
        direction = "equal" if delta == 0 else ("higher" if delta > 0 else "lower")
        metrics[name] = {"a": va, "b": vb, "delta": delta, "direction": direction}
    return {
        "case_a": a["config"]["case_id"],
        "case_b": b["config"]["case_id"],
        "shape": {"n": shape_a[0], "m": shape_a[1]},
        "metrics": metrics,
    }
