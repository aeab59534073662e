"""Supervised assortment prediction with multivariate linear regression.

Instances are flattened to feature vectors, optimal assortments to 0/1
indicator vectors, and a single affine map ``Y = b + B X`` is fit by
ordinary least squares.  Predicted score vectors are decoded back to valid
assortments by picking, per segment, the k products whose indicator is
nearest in l2, which reduces to a top-k selection.  Prediction quality is
measured by the misclassification rate and by the percentage revenue loss
(PRL) of offering the predicted assortment instead of the optimal one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PER_SEGMENT, SHARED, Assortment, ProblemInstance, _top_k, expected_revenue
from .generate import LabeledDataset

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
    per_product = np.hstack([instance.y, instance.alpha, instance.F[:, None]])
    if layout.m > 1:
        return np.concatenate([per_product.ravel(), instance.lam[:-1]])
    return per_product.ravel()


def encode_label(assortment: Assortment, n: int, m: int) -> np.ndarray:
    """Indicator vector of length n*m: slot i*m + j is 1 iff product i is in G_j."""
    if len(assortment.per_segment) != m:
        raise ValueError(
            f"assortment has {len(assortment.per_segment)} blocks, expected {m}"
        )
    out = np.zeros(n * m)
    for j, block in enumerate(assortment.per_segment):
        for i in block:
            if i >= n:
                raise ValueError(f"product index {i} out of range for n={n}")
            out[i * m + j] = 1.0
    return out


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
    return model.intercept + model.coefficients @ x


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
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    grid = scores.reshape(n, m)
    if mode == SHARED:
        block = _top_k(grid.sum(axis=1), k)
        return Assortment(per_segment=(block,) * m, k=k)
    if mode == PER_SEGMENT:
        blocks = tuple(_top_k(grid[:, j], k) for j in range(m))
        return Assortment(per_segment=blocks, k=k)
    raise ValueError(f"mode must be {SHARED!r} or {PER_SEGMENT!r}, got {mode!r}")


def prl(r_a: float, r_c: float) -> float:
    """Percentage revenue loss: ``100 * (r_a - r_c) / r_a``; needs r_a > 0."""
    if not r_a > 0.0:
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
    rows = []
    prl_values = []
    errors = 0
    excluded = 0
    r_a_all = np.array([rec.r_a for rec in test.records])
    for rec in test.records:
        x = encode_features(rec.instance, model.layout)
        predicted = decode_assortment(
            predict_scores(model, x), spec.k, spec.n, spec.m, spec.mode
        )
        wrong = predicted.per_segment != rec.label.per_segment
        errors += wrong
        r_c = expected_revenue(rec.instance, predicted, rec.q)
        if rec.r_a < PRL_MIN_REVENUE:
            excluded += 1
            loss = None
        else:
            loss = prl(rec.r_a, r_c)
            prl_values.append(loss)
        rows.append(
            ExampleEval(idx=rec.idx, r_a=rec.r_a, r_c=r_c, prl=loss, misclassified=wrong)
        )
    return EvaluationReport(
        test_count=len(test.records),
        error_rate=errors / len(test.records),
        mean_prl_percent=float(np.mean(prl_values)) if prl_values else None,
        r_a_min=float(r_a_all.min()),
        r_a_max=float(r_a_all.max()),
        r_a_mean=float(r_a_all.mean()),
        prl_excluded=excluded,
        examples=tuple(rows),
    )


def write_model(model: PredictorModel, path) -> None:
    """Persist a fitted model as a JSON document."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layout": {"n": model.layout.n, "m": model.layout.m},
        "intercept": model.intercept.tolist(),
        "coefficients": model.coefficients.tolist(),
        "rank_deficient": model.rank_deficient,
    }
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def read_model(path) -> PredictorModel:
    """Load a model written by :func:`write_model`."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"invalid model file: {e.msg}") from None
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    try:
        layout = FeatureLayout(n=doc["layout"]["n"], m=doc["layout"]["m"])
        return PredictorModel(
            intercept=np.array(doc["intercept"], dtype=float),
            coefficients=np.array(doc["coefficients"], dtype=float),
            layout=layout,
            rank_deficient=bool(doc.get("rank_deficient", False)),
        )
    except KeyError as e:
        raise ValueError(f"model file is missing field {e.args[0]!r}") from None
