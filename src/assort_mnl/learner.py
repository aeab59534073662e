"""Supervised assortment prediction with multivariate linear regression.

Instances are flattened to feature vectors, optimal assortments to 0/1
indicator vectors, and a single affine map ``Y = b + B X`` is fit by
ordinary least squares.  Predicted score vectors are decoded back to valid
assortments by picking, per segment, the k products whose indicator is
nearest in l2, which reduces to a top-k selection.  Prediction quality is
measured by the misclassification rate and by the percentage revenue loss
(PRL) of offering the predicted assortment instead of the optimal one.

Encoding, prediction, decoding and revenue run as array operations over a
whole dataset at once (:func:`evaluate`, ``bench.training_matrices``).  The
per-example functions (:func:`encode_features`, :func:`encode_label`,
:func:`predict_scores`, :func:`decode_assortment`) check their input and
then run the same array code on one row, so both give identical bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    SHARED,
    Assortment,
    ProblemInstance,
    _block_revenue,
    _check_blocks,
    _check_selection,
    _top_k,
)
from .generate import DatasetFormatError, LabeledDataset, _stack, _write_atomic

__all__ = [
    "MODEL_FORMAT_VERSION",
    "PRL_MIN_REVENUE",
    "UnderdeterminedFitError",
    "FeatureLayout",
    "PredictorModel",
    "ExampleEval",
    "EvaluationReport",
    "encode_features",
    "encode_label",
    "fit_linear",
    "predict_scores",
    "decode_assortment",
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
    """Fitted affine predictor: scores = intercept + coefficients @ features."""

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
        intercept.setflags(write=False)
        coefficients.setflags(write=False)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "coefficients", coefficients)

    def __eq__(self, other):
        if not isinstance(other, PredictorModel):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.rank_deficient == other.rank_deficient
            and np.array_equal(self.intercept, other.intercept)
            and np.array_equal(self.coefficients, other.coefficients)
        )


@dataclass(frozen=True)
class ExampleEval:
    """Per-example evaluation row; prl is None when the example is excluded."""

    idx: int
    r_a: float
    r_c: float
    prl: float | None
    misclassified: bool

    def to_dict(self) -> dict:
        return {
            "idx": self.idx,
            "r_a": self.r_a,
            "r_c": self.r_c,
            "prl": self.prl,
            "misclassified": self.misclassified,
        }


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate prediction quality over a test set."""

    test_count: int
    error_rate: float
    mean_prl_percent: float | None
    r_a_min: float
    r_a_max: float
    r_a_mean: float
    prl_excluded: int
    examples: tuple[ExampleEval, ...]

    def to_dict(self) -> dict:
        return {
            "test_count": self.test_count,
            "error_rate": self.error_rate,
            "mean_prl_percent": self.mean_prl_percent,
            "r_a_min": self.r_a_min,
            "r_a_max": self.r_a_max,
            "r_a_mean": self.r_a_mean,
            "prl_excluded": self.prl_excluded,
            "examples": [ex.to_dict() for ex in self.examples],
        }


def encode_features(instance: ProblemInstance, layout: FeatureLayout) -> np.ndarray:
    """Flatten an instance into the layout's declared feature order."""
    if (instance.n, instance.m) != (layout.n, layout.m):
        raise ValueError(
            f"instance shape {(instance.n, instance.m)} does not match "
            f"layout {(layout.n, layout.m)}"
        )
    return _features(instance.y, instance.alpha, instance.F, instance.lam)


def _features(y, alpha, F, lam) -> np.ndarray:
    """Feature rows (..., d) of instances with parameters stacked on leading axes."""
    per_product = np.concatenate([y, alpha, F[..., None]], axis=-1)
    flat = per_product.reshape(per_product.shape[:-2] + (-1,))
    return np.concatenate([flat, lam[..., :-1]], axis=-1)


def encode_label(assortment: Assortment, n: int, m: int) -> np.ndarray:
    """Indicator vector of length n*m: slot i*m + j is 1 iff product i is in G_j."""
    return _indicators(_check_blocks(assortment, n, m), n)


def _indicators(blocks, n: int) -> np.ndarray:
    """Label slots (..., n*m) of blocks (..., m, k), product-major as in encode_label."""
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


def predict_scores(model: PredictorModel, x) -> np.ndarray:
    """Raw indicator scores ``b + B x`` for one feature vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (model.layout.d,):
        raise ValueError(f"feature vector must have length {model.layout.d}, got {x.shape}")
    return _predict(model, x)


def _predict(model: PredictorModel, X) -> np.ndarray:
    """Scores (..., L) of feature rows (..., d)."""
    # One matrix-vector product per row: ``X @ B.T`` would round differently.
    return np.matmul(model.coefficients, X[..., None])[..., 0] + model.intercept


def decode_assortment(scores, k: int, n: int, m: int, mode: str = SHARED) -> Assortment:
    """Nearest valid 0/1 indicator to a score vector, as an assortment.

    Squared l2 distance to an indicator decomposes per slot, so the
    nearest vector with k ones per segment block keeps the top-k scores of
    each segment.  In shared mode the blocks must coincide, which makes
    the optimum the top-k products by score summed across segments.  Ties
    go to the lower product index.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape != (n * m,):
        raise ValueError(f"scores must have length {n * m}, got {scores.shape}")
    _check_selection(n, k, mode)
    return Assortment(per_segment=_decode_blocks(scores, k, n, m, mode).tolist(), k=k)


def _decode_blocks(scores, k: int, n: int, m: int, mode: str) -> np.ndarray:
    """Decoded blocks (..., m, k) of score rows (..., n*m)."""
    grid = scores.reshape(scores.shape[:-1] + (n, m))
    if mode == SHARED:
        return np.repeat(_top_k(grid.sum(axis=-1), k)[..., None, :], m, axis=-2)
    return _top_k(np.swapaxes(grid, -1, -2), k)


def prl(r_a, r_c):
    """Percentage revenue loss ``100 * (r_a - r_c) / r_a``, elementwise; needs r_a > 0."""
    if not np.all(np.asarray(r_a) > 0.0):
        raise ValueError(f"PRL is undefined for optimal revenue r_a={r_a!r}")
    return 100.0 * (r_a - r_c) / r_a


def evaluate(model: PredictorModel, test: LabeledDataset) -> EvaluationReport:
    """Score a fitted model against a labeled test set.

    An example counts as misclassified when the decoded assortment differs
    from the label in any segment (set comparison).  Realized revenue r_c
    is evaluated at the example's stored support matrix.  Examples with
    r_a below ``PRL_MIN_REVENUE`` are excluded from mean PRL and counted.
    """
    if not test.records:
        raise ValueError("test dataset has no records")
    spec = test.spec
    if (spec.n, spec.m) != (model.layout.n, model.layout.m):
        raise ValueError(
            f"dataset shape {(spec.n, spec.m)} does not match model layout "
            f"{(model.layout.n, model.layout.m)}"
        )
    y, alpha, F, lam, q, per_support, labels, r_a = _stack(
        test.records, "instance.y", "instance.alpha", "instance.F", "instance.lam", "q",
        "instance.revenue.per_support", "label.per_segment", "r_a",
    )
    predicted = _decode_blocks(
        _predict(model, _features(y, alpha, F, lam)), spec.k, spec.n, spec.m, spec.mode
    )
    wrong = np.any(predicted != labels, axis=(1, 2))
    r_c = _block_revenue(q, lam, per_support, predicted)
    kept = ~(r_a < PRL_MIN_REVENUE)
    losses = prl(r_a[kept], r_c[kept])
    prl_column = np.full(len(r_a), None)
    prl_column[kept] = losses.tolist()
    return EvaluationReport(
        test_count=len(test.records),
        error_rate=int(wrong.sum()) / len(test.records),
        mean_prl_percent=float(np.mean(losses)) if losses.size else None,
        r_a_min=float(r_a.min()),
        r_a_max=float(r_a.max()),
        r_a_mean=float(r_a.mean()),
        prl_excluded=int((~kept).sum()),
        examples=tuple(
            ExampleEval(idx=rec.idx, r_a=rec.r_a, r_c=r, prl=loss, misclassified=w)
            for rec, r, loss, w in zip(test.records, r_c.tolist(), prl_column, wrong.tolist())
        ),
    )


def write_model(model: PredictorModel, path) -> None:
    """Persist a fitted model as a JSON document, atomically."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layout": {"n": model.layout.n, "m": model.layout.m},
        "intercept": model.intercept.tolist(),
        "coefficients": model.coefficients.tolist(),
        "rank_deficient": model.rank_deficient,
    }
    _write_atomic(path, json.dumps(doc, separators=(",", ":")) + "\n")


def read_model(path) -> PredictorModel:
    """Load a model written by :func:`write_model`.

    Raises :class:`DatasetFormatError` when the file does not hold such a
    model: bad JSON, a missing or mistyped field, or a non-finite number.
    """
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise DatasetFormatError(f"invalid model file ({e})") from None
    if not isinstance(doc, dict):
        raise DatasetFormatError("model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported model format_version {version!r}")
    try:
        if not isinstance(doc["layout"], dict):
            raise DatasetFormatError("model layout must be a JSON object")
        layout = FeatureLayout(n=doc["layout"]["n"], m=doc["layout"]["m"])
        return PredictorModel(
            intercept=np.array(doc["intercept"], dtype=float),
            coefficients=np.array(doc["coefficients"], dtype=float),
            layout=layout,
            rank_deficient=bool(doc.get("rank_deficient", False)),
        )
    except KeyError as e:
        raise DatasetFormatError(f"model file is missing field {e.args[0]!r}") from None
    except DatasetFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(f"invalid model file ({e})") from None
