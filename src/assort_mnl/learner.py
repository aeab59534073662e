"""Supervised assortment prediction with multivariate linear regression.

Instances are flattened to feature vectors, optimal assortments to 0/1
indicator vectors, and a single affine map ``Y = b + B X`` is fit by
ordinary least squares.  Predicted score vectors are decoded back to valid
assortments by picking, per segment, the k products whose indicator is
nearest in l2, which reduces to a top-k selection.  Prediction quality is
measured by the misclassification rate and by the percentage revenue loss
(PRL) of offering the predicted assortment instead of the optimal one.

Encoding, prediction, decoding and revenue run as array operations over a
whole dataset at once (:func:`evaluate`, ``bench.training_matrices``).
An evaluation is built once, as the JSON document a report holds
(:class:`EvaluationReport`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import SHARED, _block_revenue, _fields_equal, _freeze, _top_k
from .generate import DatasetFormatError, LabeledDataset, _fields, _integer, _load_json, _write_atomic

__all__ = [
    "MODEL_FORMAT_VERSION",
    "PRL_MIN_REVENUE",
    "UnderdeterminedFitError",
    "FeatureLayout",
    "PredictorModel",
    "EvaluationReport",
    "fit_linear",
    "prl",
    "evaluate",
    "write_model",
    "read_model",
]

MODEL_FORMAT_VERSION = 1

# Examples with optimal revenue below this are excluded from mean PRL:
# dividing by a vanishing r_a turns rounding noise into huge percentages.
PRL_MIN_REVENUE = 1e-15


class UnderdeterminedFitError(ValueError):
    """Fewer training rows than free parameters per output."""


@dataclass(frozen=True)
class FeatureLayout:
    """Declared flattening order of an instance into a feature vector.

    Per product i: y_i1..y_im, alpha_i1..alpha_im, F_i.  When m > 1 the
    first m-1 segment weights follow (the last is redundant).  Label slots
    are grouped by product, then segment: slot (i, j) sits at i*m + j.
    """

    n: int
    m: int

    def __post_init__(self):
        for name in ("n", "m"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")

    @property
    def d(self) -> int:
        """Feature count: n*(2m+1) plus m-1 weight slots when m > 1."""
        return self.n * (2 * self.m + 1) + max(self.m - 1, 0)

    @property
    def label_slots(self) -> int:
        return self.n * self.m

    def slot_names(self) -> list[str]:
        names = []
        for i in range(self.n):
            names.extend(f"y[{i + 1},{j + 1}]" for j in range(self.m))
            names.extend(f"alpha[{i + 1},{j + 1}]" for j in range(self.m))
            names.append(f"F[{i + 1}]")
        names.extend(f"lambda[{j + 1}]" for j in range(self.m - 1))
        return names


@dataclass(frozen=True, eq=False)
class PredictorModel:
    """Fitted affine predictor: scores = intercept + coefficients @ features; frozen, compared field by field."""

    intercept: np.ndarray
    coefficients: np.ndarray
    layout: FeatureLayout
    rank_deficient: bool = False

    def __post_init__(self):
        intercept = np.array(self.intercept, dtype=float).reshape(-1)
        coefficients = np.array(self.coefficients, dtype=float)
        L, d = self.layout.label_slots, self.layout.d
        if intercept.shape != (L,):
            raise ValueError(f"intercept must have length {L}, got {intercept.shape}")
        if coefficients.shape != (L, d):
            raise ValueError(f"coefficients must have shape {(L, d)}, got {coefficients.shape}")
        if not (np.all(np.isfinite(intercept)) and np.all(np.isfinite(coefficients))):
            raise ValueError("intercept and coefficients must be finite")
        _freeze(self, "intercept", intercept)
        _freeze(self, "coefficients", coefficients)

    __eq__ = _fields_equal


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate prediction quality over a test set.

    ``examples`` holds a JSON object per test record: ``idx``, ``r_a``,
    ``r_c``, ``prl`` (null when excluded from mean PRL), ``misclassified``.
    """

    test_count: int
    error_rate: float
    mean_prl_percent: float | None
    r_a_min: float
    r_a_max: float
    r_a_mean: float
    prl_excluded: int
    examples: list[dict]

    def to_dict(self) -> dict:
        """The report's JSON document: its fields in order, sharing the example objects."""
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}


def _features(y, alpha, F, lam) -> np.ndarray:
    """Feature rows (..., d) of instances with parameters stacked on leading axes."""
    per_product = np.concatenate([y, alpha, F[..., None]], axis=-1)
    flat = per_product.reshape(per_product.shape[:-2] + (-1,))
    return np.concatenate([flat, lam[..., :-1]], axis=-1)


def _indicators(blocks, n: int) -> np.ndarray:
    """Label slots (..., n*m) of blocks (..., m, k): slot i*m + j is 1 iff product i is in block j."""
    out = np.zeros(blocks.shape[:-1] + (n,))
    np.put_along_axis(out, blocks, 1.0, axis=-1)
    return np.swapaxes(out, -1, -2).reshape(blocks.shape[:-2] + (-1,))


def fit_linear(X, Y, layout: FeatureLayout) -> PredictorModel:
    """Least-squares fit of ``Y = b + B X`` over training rows.

    Uses an SVD-backed solver on the intercept-augmented design, which
    returns the minimum-norm solution when the design is rank deficient
    (flagged on the model).  Requires strictly more rows than features.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("X and Y must be 2-d")
    N, d = X.shape
    if Y.shape[0] != N:
        raise ValueError(f"X has {N} rows but Y has {Y.shape[0]}")
    if d != layout.d:
        raise ValueError(f"X has {d} columns, layout expects {layout.d}")
    if Y.shape[1] != layout.label_slots:
        raise ValueError(f"Y has {Y.shape[1]} columns, layout expects {layout.label_slots}")
    if N <= d:
        raise UnderdeterminedFitError(
            f"need more training rows than features, got N={N} <= d={d}"
        )
    A = np.column_stack([np.ones(N), X])
    W, _, rank, _ = np.linalg.lstsq(A, Y, rcond=None)
    return PredictorModel(
        intercept=W[0],
        coefficients=W[1:].T,
        layout=layout,
        rank_deficient=bool(rank < d + 1),
    )


def _predict(model: PredictorModel, X) -> np.ndarray:
    """Scores (..., L) of feature rows (..., d)."""
    # One matrix-vector product per row: ``X @ B.T`` would round differently.
    return np.matmul(model.coefficients, X[..., None])[..., 0] + model.intercept


def _decode_blocks(scores, k: int, n: int, m: int, mode: str) -> np.ndarray:
    """Decoded blocks (..., m, k) of score rows (..., n*m): the nearest valid 0/1 indicators.

    Squared l2 distance to an indicator decomposes per slot, so the
    nearest vector with k ones per segment block keeps the top-k scores of
    each segment.  In shared mode the blocks must coincide, which makes
    the optimum the top-k products by score summed across segments.  Ties
    go to the lower product index.
    """
    grid = scores.reshape(scores.shape[:-1] + (n, m))
    if mode == SHARED:
        return np.repeat(_top_k(grid.sum(axis=-1), k)[..., None, :], m, axis=-2)
    return _top_k(np.swapaxes(grid, -1, -2), k)


def prl(r_a, r_c):
    """Percentage revenue loss ``100 * (r_a - r_c) / r_a``, elementwise; needs r_a > 0."""
    if not np.all(np.asarray(r_a) > 0.0):
        raise ValueError(f"PRL is undefined for optimal revenue r_a={r_a!r}")
    return 100.0 * (r_a - r_c) / r_a


# Overflow is caught by name before the report returns, instead of warned about.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(model: PredictorModel, test: LabeledDataset) -> EvaluationReport:
    """Score a fitted model against a labeled test set.

    An example counts as misclassified when the decoded assortment differs
    from the label in any segment (set comparison).  Realized revenue r_c
    is evaluated at the example's stored support matrix.  Examples with
    r_a below ``PRL_MIN_REVENUE`` are excluded from mean PRL and counted.
    Each example is built as the JSON object a report holds.  An empty
    test set raises ``ValueError``, and so, naming it, does a metric or an
    example value that overflows (a sum of large finite revenues, say): a
    report carries finite numbers only.
    """
    if not len(test):
        raise ValueError("test dataset has no records")
    spec = test.spec
    if (spec.n, spec.m) != (model.layout.n, model.layout.m):
        raise ValueError(
            f"dataset shape {(spec.n, spec.m)} does not match model layout "
            f"{(model.layout.n, model.layout.m)}"
        )
    predicted = _decode_blocks(
        _predict(model, _features(test.y, test.alpha, test.F, test.lam)), spec.k, spec.n, spec.m, spec.mode
    )
    wrong = np.any(predicted != test.blocks, axis=(1, 2))
    r_c = _block_revenue(test.q, test.lam, spec.revenue.per_support, predicted)
    r_a = test.r_a
    kept = ~(r_a < PRL_MIN_REVENUE)
    losses = prl(r_a[kept], r_c[kept])
    prl_column = np.full(len(r_a), None)
    prl_column[kept] = losses.tolist()
    report = EvaluationReport(
        test_count=len(test),
        error_rate=int(wrong.sum()) / len(test),
        mean_prl_percent=float(np.mean(losses)) if losses.size else None,
        r_a_min=float(r_a.min()),
        r_a_max=float(r_a.max()),
        r_a_mean=float(r_a.mean()),
        prl_excluded=int((~kept).sum()),
        examples=[
            {"idx": idx, "r_a": a, "r_c": r, "prl": loss, "misclassified": w}
            for idx, a, r, loss, w in zip(test.idx.tolist(), r_a.tolist(), r_c.tolist(), prl_column, wrong.tolist())
        ],
    )
    for name in ("mean_prl_percent", "r_a_min", "r_a_max", "r_a_mean"):
        value = getattr(report, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"evaluation metric {name} is {value!r}, which a report cannot carry")
    # Each example's r_a and prl enter a metric above; its r_c does not.
    bad = np.flatnonzero(~np.isfinite(r_c))
    if bad.size:
        raise ValueError(f"example {test.idx[bad[0]]}: r_c is {float(r_c[bad[0]])!r}, which a report cannot carry")
    return report


def write_model(model: PredictorModel, path) -> str:
    """Persist a fitted model as a JSON document, atomically; returns the file's SHA-256."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layout": dataclasses.asdict(model.layout),
        "intercept": model.intercept.tolist(),
        "coefficients": model.coefficients.tolist(),
        "rank_deficient": model.rank_deficient,
    }
    return _write_atomic(path, [(json.dumps(doc, separators=(",", ":")) + "\n").encode()])


def read_model(path) -> PredictorModel:
    """Load a model written by :func:`write_model`.

    The file is read by ``generate._load_json`` and walked by ``_fields``,
    as a dataset is; one that does not hold such a model raises
    :class:`DatasetFormatError` naming it.  ``format_version`` and
    ``layout``'s ``n`` and ``m`` must be JSON integers, ``intercept`` a list
    and ``coefficients`` a list of lists of finite JSON numbers (no
    booleans), and ``rank_deficient``, if present, true or false.
    """
    where = str(path)
    doc = _load_json(Path(path).read_bytes(), where, "model")
    (version,) = _fields(doc, ("format_version",), where, "model file")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise DatasetFormatError(
            f"{where}: model format_version must be the integer {MODEL_FORMAT_VERSION}, got {version!r}"
        )
    layout, intercept, coefficients = _fields(doc, ("layout", "intercept", "coefficients"), where, "model file")
    n, m = _fields(layout, ("n", "m"), where, "model layout")
    try:
        layout = FeatureLayout(n, m)
    except (TypeError, ValueError) as e:
        raise DatasetFormatError(f"{where}: invalid model layout ({e})") from None
    rank_deficient = doc.get("rank_deficient", False)
    if type(rank_deficient) is not bool:
        raise DatasetFormatError(f"{where}: model field 'rank_deficient' must be true or false, got {rank_deficient!r}")
    intercept = _numbers(intercept, 1, where, "intercept")
    coefficients = _numbers(coefficients, 2, where, "coefficients")
    try:
        return PredictorModel(intercept, coefficients, layout, rank_deficient)
    except ValueError as e:
        raise DatasetFormatError(f"{where}: invalid model file ({e})") from None


def _numbers(value, depth: int, where: str, name: str) -> np.ndarray:
    """The JSON numbers of model field ``name``, lists nested ``depth`` deep, as floats; anything else raises."""
    try:
        # An object array keeps each value's JSON type, which a numeric one
        # would lose: [true, 0.5] would become [1.0, 0.5].
        array = np.array(value, dtype=object)
        if array.ndim == depth and all(type(v) in (int, float) for v in array.flat):
            return array.astype(float)
    except (ValueError, OverflowError):
        pass
    lists = "a list" + " of lists" * (depth - 1)
    raise DatasetFormatError(f"{where}: model field {name!r} must be {lists} of JSON numbers that fit in a float")
