"""End-to-end benchmark cases: generate, split, fit, evaluate, persist.

A case ties a generation recipe to a train/test split and produces three
artifacts in its output directory: the labeled dataset (JSON Lines), the
fitted model (JSON), and a case report (the bytes of
``json.dumps(doc, indent=2)``, written by ``generate._indented_json``, as
are eval reports).  A report exists only as that JSON document: the dict
:func:`run_case` builds, writes and returns, which :func:`compare_runs`
reads as it reads a report file.  Reports echo their full configuration,
so rerunning a case with the same master seed reproduces every artifact
byte for byte and every report field except the wall-clock durations.

Named presets cover the standard benchmark grid: two to five products,
one or two segments, assortment sizes one to four, network effects on or
off.  Each preset carries indicative reference metrics for orientation;
they are annotations, never assertions, because they depend on the random
instances drawn.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .core import PER_SEGMENT, SHARED
from .generate import (
    DatasetFormatError,
    GenSpec,
    LabeledDataset,
    _fields,
    _indented_json,
    _integer,
    _temporary_name,
    _write_atomic,
    generate_dataset,
    write_dataset,
)
from .learner import (
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

# The files a case writes in its output directory: the case_id, then these.
_ARTIFACTS = ("_dataset.jsonl", "_model.json", "_report.json")
# The longest file name, in bytes, that Linux file systems (ext4, xfs, btrfs, tmpfs) hold.
_NAME_MAX = 255


class StageError(RuntimeError):
    """A pipeline stage failed; the message starts with the stage's name in brackets, and ``exit_code`` is the CLI's."""

    def __init__(self, stage: str, exit_code: int, message: str):
        super().__init__(f"[{stage}] {message}")
        self.exit_code = exit_code


@dataclass(frozen=True)
class CaseConfig:
    """Full recipe for one benchmark run; ``case_id`` names its artifact files in ``out_dir``, so it must be a file name."""

    case_id: str
    spec: GenSpec
    count: int = 500
    train_fraction: float = 0.75
    master_seed: int = DEFAULT_MASTER_SEED
    out_dir: str = "."
    reference: dict | None = None

    def __post_init__(self):
        if self.case_id in ("", ".", "..") or Path(self.case_id).name != self.case_id or "\0" in self.case_id:
            raise ValueError(f"case_id must be a file name (not empty, '.' or '..', no '/' or NUL), got {self.case_id!r}")
        # The longest name is the temporary file each artifact is written to first.
        size = len(os.fsencode(self.case_id))
        longest = max(len(os.fsencode(_temporary_name(self.case_id + artifact))) for artifact in _ARTIFACTS)
        if longest > _NAME_MAX:
            raise ValueError(
                f"case_id must take at most {_NAME_MAX - (longest - size)} bytes, so that the names of its "
                f"files fit in {_NAME_MAX}; got {size}"
            )
        for name in ("count", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
        """The report's ``config`` object: the fields but ``reference`` in order, ``spec`` as a dataset header holds it."""
        doc = {field.name: getattr(self, field.name) for field in fields(self) if field.name != "reference"}
        return {**doc, "spec": asdict(self.spec), "out_dir": str(self.out_dir)}


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


def preset(name: str, **overrides) -> CaseConfig:
    """Build the CaseConfig for a named preset; ``overrides`` set its other fields (``count``, ``master_seed``, ...)."""
    if name not in _PRESETS:
        valid = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}")
    n, m, k, network_effects, mode = _PRESETS[name]
    spec = GenSpec(n=n, m=m, network_effects=network_effects, k=k, mode=mode)
    return CaseConfig(case_id=name, spec=spec, reference=dict(_REFERENCES[name]), **overrides)


def split_dataset(dataset: LabeledDataset, train_fraction: float):
    """Split by record order: the first floor(count * fraction) records train.

    Returns (train, test) as LabeledDataset views sharing the original
    spec and seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n_train = int(dataset.count * train_fraction)
    if n_train > len(dataset):
        raise ValueError(
            f"training split needs {n_train} records but only "
            f"{len(dataset)} survived generation"
        )
    return dataset.take(slice(None, n_train)), dataset.take(slice(n_train, None))


def training_matrices(dataset: LabeledDataset):
    """A dataset's regression design (X) and indicator targets (Y)."""
    if not len(dataset):
        raise ValueError("no records to train on")
    layout = FeatureLayout(dataset.spec.n, dataset.spec.m)
    X = _features(dataset.y, dataset.alpha, dataset.F, dataset.lam)
    return X, _indicators(dataset.blocks, layout.n), layout


def check_convergence_budget(dataset: LabeledDataset):
    """Raise a generate-stage error when more than ``NONCONVERGENCE_BUDGET`` of the records failed to converge."""
    if dataset.count and len(dataset.excluded) > NONCONVERGENCE_BUDGET * dataset.count:
        raise StageError(
            "generate",
            EXIT_NONCONVERGENCE,
            f"{len(dataset.excluded)} of {dataset.count} records failed to "
            f"converge (budget {NONCONVERGENCE_BUDGET:.0%})",
        )


def run_case(config: CaseConfig) -> dict:
    """Run one case end to end, write its three artifacts and return the report document.

    The document is the dict that the report file holds as
    ``json.dumps(doc, indent=2)``.  Stages are generate, train, evaluate,
    write; failures raise :class:`StageError` tagged with the stage (an
    empty test split is ``evaluate``'s ``ValueError``), and any files
    already written by the failing run are removed.
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
    evaluation = evaluate(model, test).to_dict()
    durations["evaluate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out_dir = Path(config.out_dir)
    dataset_path, model_path, report_path = (out_dir / f"{config.case_id}{artifact}" for artifact in _ARTIFACTS)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        dataset_sha256 = write_dataset(dataset, dataset_path)
        written.append(dataset_path)
        model_sha256 = write_model(model, model_path)
        written.append(model_path)
        durations["write"] = time.perf_counter() - t0
        doc = {
            "config": config.to_dict(),
            "reference": config.reference,
            "counts": {
                "requested": config.count,
                "generated": len(dataset),
                "excluded": len(dataset.excluded),
                "train": len(train),
                "test": len(test),
            },
            "evaluation": evaluation,
            "artifacts": {
                "dataset": {"path": dataset_path.name, "sha256": dataset_sha256},
                "model": {"path": model_path.name, "sha256": model_sha256},
                "report": {"path": report_path.name},
            },
            "durations_s": durations,
        }
        _write_atomic(report_path, [(_indented_json(doc) + "\n").encode()])
    except OSError as e:
        for p in written:
            p.unlink(missing_ok=True)
        raise StageError("write", EXIT_IO, str(e)) from e
    return doc


_COMPARE_METRICS = ("error_rate", "mean_prl_percent", "r_a_min", "r_a_max", "r_a_mean")


def compare_runs(report_a: dict, report_b: dict) -> dict:
    """Metric deltas (b minus a) between two case report documents.

    A document is what :func:`run_case` returns, or a report file read as
    JSON.  Both runs must share the same product and segment counts.  A
    document with a missing or mistyped field (see ``_report_fields``)
    raises :class:`DatasetFormatError` naming the field.
    """
    case_a, shape_a, eval_a = _report_fields(report_a, "report a")
    case_b, shape_b, eval_b = _report_fields(report_b, "report b")
    if shape_a != shape_b:
        raise ValueError(f"cannot compare runs with shapes {shape_a} and {shape_b}")
    metrics = {}
    for name in _COMPARE_METRICS:
        va, vb = eval_a[name], eval_b[name]
        if va is None or vb is None:
            metrics[name] = {"a": va, "b": vb, "delta": None, "direction": "undefined"}
            continue
        delta = vb - va
        direction = "equal" if delta == 0 else ("higher" if delta > 0 else "lower")
        metrics[name] = {"a": va, "b": vb, "delta": delta, "direction": direction}
    return {
        "case_a": case_a,
        "case_b": case_b,
        "shape": {"n": shape_a[0], "m": shape_a[1]},
        "metrics": metrics,
    }


def _report_fields(doc: dict, where: str):
    """``case_id``, ``(n, m)`` and the compared metrics of a case report; errors name ``where`` and the field.

    The report is walked by ``generate._fields``.  ``config.case_id`` must
    be a JSON string, ``config.spec``'s ``n`` and ``m`` JSON integers >= 1,
    and each metric null or a finite number that fits in a float.
    """
    config, evaluation = _fields(doc, ("config", "evaluation"), where, "report")
    metrics = dict(zip(_COMPARE_METRICS, _fields(evaluation, _COMPARE_METRICS, where, "evaluation")))
    for name, value in metrics.items():
        # Compared exactly, so NaN, the infinities and an int beyond the float range all fail.
        if value is not None and (type(value) not in (int, float) or not abs(value) <= sys.float_info.max):
            raise DatasetFormatError(
                f"{where}: field 'evaluation.{name}' must be null or a finite number that fits in a float, got {value!r}"
            )
    case_id, spec = _fields(config, ("case_id", "spec"), where, "config")
    if type(case_id) is not str:
        raise DatasetFormatError(f"{where}: field 'config.case_id' must be a JSON string, got {case_id!r}")
    n, m = _fields(spec, ("n", "m"), where, "config.spec")
    try:
        FeatureLayout(n, m)
    except (TypeError, ValueError) as e:
        raise DatasetFormatError(f"{where}: invalid config.spec ({e})") from None
    return case_id, (n, m), metrics
