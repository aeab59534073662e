"""Output checks computed apart from the program, with plain numpy.

Every check recomputes what the program's output must satisfy from the
instance parameters alone and raises :class:`CheckError` naming the first
record that disagrees.  None of them compares against a stored copy of an
earlier output.

Records of one dataset share ``(n, m)``, so they are stacked into a
:class:`Batch` of arrays and checked without a per-record loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

SHARED = "shared"
PER_SEGMENT = "per-segment"

# Largest admissible |sigma(V(q)) - q|: the solver stops once a step is at
# most 1e-10, and the map contracts near its largest fixed point.
FIXED_POINT_TOL = 1e-9
# Revenue sums reordered against the program's own loop differ by a few ulps.
REVENUE_TOL = 1e-12
# With the default revenue terms a fully supported product earns 0.44.
REVENUE_PER_PRODUCT = 0.44
# Normal-equation residual relative to the scale of the least-squares problem.
NORMAL_EQ_TOL = 1e-9


class CheckError(AssertionError):
    """A program output failed an independent check."""


@dataclass(frozen=True)
class Batch:
    """One dataset's records stacked into arrays.

    ``label`` is the 0/1 indicator of each record's assortment: entry
    ``[t, i, j]`` is true when product ``i`` is offered to segment ``j``.
    """

    idx: np.ndarray  # (N,)
    y: np.ndarray  # (N, n, m)
    alpha: np.ndarray  # (N, n, m)
    beta: np.ndarray  # (N, n, m)
    F: np.ndarray  # (N, n)
    lam: np.ndarray  # (N, m)
    per_support: np.ndarray  # (N,)  0.5 (a + b) (omega + xi)
    q: np.ndarray  # (N, n, m)
    label: np.ndarray  # (N, n, m) bool
    k: int
    r_a: np.ndarray  # (N,)

    def __len__(self):
        return len(self.idx)

    def take(self, rows) -> "Batch":
        fields = ("idx", "y", "alpha", "beta", "F", "lam", "per_support", "q", "label", "r_a")
        return replace(self, **{f: getattr(self, f)[rows] for f in fields})


def _indicator(blocks, n: int) -> np.ndarray:
    out = np.zeros((n, len(blocks)), dtype=bool)
    for j, block in enumerate(blocks):
        out[list(block), j] = True
    return out


def _per_support(rev: dict) -> float:
    return 0.5 * (rev["a"] + rev["b"]) * (rev["omega"] + rev["xi"])


def batch_from_jsonl(lines, k: int) -> Batch:
    """Stack the record lines of a dataset file (header already removed)."""
    objs = [json.loads(line) for line in lines]
    n = len(objs[0]["F"])
    return Batch(
        idx=np.array([o["idx"] for o in objs]),
        y=np.array([o["y"] for o in objs], dtype=float),
        alpha=np.array([o["alpha"] for o in objs], dtype=float),
        beta=np.array([o["beta"] for o in objs], dtype=float),
        F=np.array([o["F"] for o in objs], dtype=float),
        lam=np.array([o["lambda"] for o in objs], dtype=float),
        per_support=np.array([_per_support(o["revenue"]) for o in objs]),
        q=np.array([o["q"] for o in objs], dtype=float),
        # Files carry 1-based product indices.
        label=np.array(
            [_indicator([[i - 1 for i in b] for b in o["label"]["per_segment"]], n) for o in objs]
        ),
        k=k,
        r_a=np.array([o["r_a"] for o in objs], dtype=float),
    )


def batch_from_records(records, k: int) -> Batch:
    """Stack in-memory dataset records (``assort_mnl.generate.DatasetRecord``)."""
    n = records[0].instance.n
    return Batch(
        idx=np.array([r.idx for r in records]),
        y=np.array([r.instance.y for r in records]),
        alpha=np.array([r.instance.alpha for r in records]),
        beta=np.array([r.instance.beta for r in records]),
        F=np.array([r.instance.F for r in records]),
        lam=np.array([r.instance.lam for r in records]),
        per_support=np.array([_per_support(vars(r.instance.revenue)) for r in records]),
        q=np.array([r.q for r in records]),
        label=np.array([_indicator(r.label.per_segment, n) for r in records]),
        k=k,
        r_a=np.array([r.r_a for r in records], dtype=float),
    )


def _fail(batch: Batch, bad: np.ndarray, what: str):
    rows = np.flatnonzero(bad)
    if rows.size:
        raise CheckError(f"record {int(batch.idx[rows[0]])}: {what} ({rows.size} records)")


def support_mass(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``s_i = sum_j lam_j q_ij`` per record, shape (N, n)."""
    return np.matmul(q, lam[..., None])[..., 0]


def _sigmoid(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def check_support(batch: Batch, tol: float = FIXED_POINT_TOL) -> None:
    """``q`` lies in [0, 1] and is a fixed point of ``q -> sigma(V(q))``."""
    q = batch.q
    _fail(batch, ~np.all(np.isfinite(q), axis=(1, 2)), "q is not finite")
    _fail(batch, np.any((q < 0.0) | (q > 1.0), axis=(1, 2)), "q leaves [0, 1]")
    s = support_mass(q, batch.lam)
    V = batch.y - batch.beta * batch.F[..., None] + batch.alpha * s[..., None]
    residual = np.max(np.abs(_sigmoid(V) - q), axis=(1, 2))
    _fail(batch, ~(residual <= tol), f"|sigma(V(q)) - q| exceeds {tol:g}")


def top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indicator of the k largest entries along axis 1, ties to the lower index."""
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    out = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(out, order, True, axis=1)
    return out


def _offer_to_all(block: np.ndarray, m: int) -> np.ndarray:
    return np.repeat(block[:, :, None], m, axis=2)


def optimal_label(q: np.ndarray, lam: np.ndarray, k: int, mode: str) -> np.ndarray:
    """Revenue-maximizing indicator: revenue is additive, so a stable top-k.

    Shared mode ranks products by ``q @ lam`` and offers one set to every
    segment.  Per-segment mode ranks each column ``q[:, j]``; a segment of
    weight zero earns nothing whatever it is shown, and gets ``(0..k-1)``.
    """
    if mode == SHARED:
        return _offer_to_all(top_k(support_mass(q, lam), k), q.shape[2])
    out = top_k(q, k)
    out[:, :k, :] |= (lam == 0.0)[:, None, :]
    out[:, k:, :] &= (lam != 0.0)[:, None, :]
    return out


def check_labels(batch: Batch, mode: str) -> None:
    """Each label is the stable top-k of the record's own support matrix."""
    expected = optimal_label(batch.q, batch.lam, batch.k, mode)
    _fail(batch, np.any(expected != batch.label, axis=(1, 2)), "label is not the stable top-k")


def revenue(batch: Batch, offered: np.ndarray) -> np.ndarray:
    """``0.5 (a+b)(omega+xi) sum_j lam_j sum_{i in G_j} q_ij`` per record."""
    per_segment = np.sum(np.where(offered, batch.q, 0.0), axis=1)
    return batch.per_support * np.sum(batch.lam * per_segment, axis=1)


def check_revenue(batch: Batch) -> None:
    """``r_a`` is the revenue of the label and at most ``0.44 k``."""
    w = revenue(batch, batch.label)
    _fail(batch, ~(np.abs(w - batch.r_a) <= REVENUE_TOL), "r_a differs from the label's revenue")
    _fail(batch, ~(batch.r_a <= REVENUE_PER_PRODUCT * batch.k + REVENUE_TOL), "r_a exceeds 0.44 k")


def check_dataset(batch: Batch, mode: str) -> None:
    check_support(batch)
    check_labels(batch, mode)
    check_revenue(batch)


def features(batch: Batch) -> np.ndarray:
    """Design rows: per product y_i., alpha_i., F_i; then lam_1..lam_{m-1}."""
    N, n, m = batch.y.shape
    per_product = np.concatenate([batch.y, batch.alpha, batch.F[..., None]], axis=2)
    return np.hstack([per_product.reshape(N, -1), batch.lam[:, : m - 1]])


def targets(batch: Batch) -> np.ndarray:
    """Label indicators flattened product-major: slot i*m + j."""
    return batch.label.reshape(len(batch), -1).astype(float)


def check_fit(batch: Batch, intercept, coefficients, tol: float = NORMAL_EQ_TOL) -> None:
    """The fit solves the least-squares normal equations ``A^T (Y - A W) = 0``."""
    X, Y = features(batch), targets(batch)
    A = np.column_stack([np.ones(len(X)), X])
    W = np.vstack([np.asarray(intercept, dtype=float)[None, :], np.asarray(coefficients, dtype=float).T])
    gradient = A.T @ (Y - A @ W)
    a_norm = np.linalg.norm(A)
    scale = a_norm * (a_norm * np.linalg.norm(W) + np.linalg.norm(Y))
    worst = float(np.max(np.abs(gradient)))
    if not worst <= tol * scale:
        raise CheckError(f"fit violates the normal equations: |A^T(Y - AW)| = {worst:.3e}")


def decode(batch: Batch, intercept, coefficients, mode: str) -> np.ndarray:
    """Nearest valid indicator to every predicted score vector, in one batch."""
    N, n, m = batch.q.shape
    scores = (np.asarray(intercept) + features(batch) @ np.asarray(coefficients).T).reshape(N, n, m)
    if mode == SHARED:
        return _offer_to_all(top_k(scores.sum(axis=2), batch.k), m)
    return top_k(scores, batch.k)


def check_evaluation(batch: Batch, intercept, coefficients, mode: str, report: dict) -> None:
    """The evaluation report agrees with a batched decode of the test rows.

    ``report`` is the program's evaluation in its dict form.  Checks each
    example's misclassification flag and realized revenue against the decode,
    that every PRL is nonnegative, and the error rate.
    """
    examples = report["examples"]
    if [e["idx"] for e in examples] != batch.idx.tolist():
        raise CheckError("evaluation covers other records than the test split")
    predicted = decode(batch, intercept, coefficients, mode)
    wrong = np.any(predicted != batch.label, axis=(1, 2))
    _fail(batch, wrong != np.array([e["misclassified"] for e in examples], dtype=bool),
          "misclassification flag disagrees with the batched decode")
    r_c = np.array([e["r_c"] for e in examples], dtype=float)
    _fail(batch, ~(np.abs(revenue(batch, predicted) - r_c) <= REVENUE_TOL),
          "r_c differs from the revenue of the decoded assortment")
    prl = np.array([np.inf if e["prl"] is None else e["prl"] for e in examples], dtype=float)
    _fail(batch, ~(prl >= 0.0), "PRL is negative")
    if report["error_rate"] != int(wrong.sum()) / len(batch):
        raise CheckError(
            f"error_rate {report['error_rate']!r} differs from the batched decode's "
            f"{int(wrong.sum())}/{len(batch)}"
        )


def split_rows(batch: Batch, count: int, train_fraction: float):
    """The first floor(count * fraction) surviving records train, the rest test."""
    n_train = int(count * train_fraction)
    return batch.take(slice(0, n_train)), batch.take(slice(n_train, None))
