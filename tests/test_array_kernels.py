"""The dataset-level array kernels against per-record loop references.

Each reference below is the loop the package ran one record at a time
before labeling, revenue, encoding, prediction and decoding became array
code.  The arithmetic is unchanged, so every comparison is exact: a kernel
that reorders a sum or swaps a matrix product fails here even where no
stored artifact moves.
"""

import numpy as np
import pytest

from assort_mnl.core import PER_SEGMENT, SHARED, _best_blocks, _block_revenue
from assort_mnl.learner import (
    FeatureLayout,
    PredictorModel,
    _decode_blocks,
    _features,
    _indicators,
    _predict,
)


def loop_revenue(q, lam, per_support, blocks):
    total = 0.0
    for j, block in enumerate(blocks):
        total += lam[j] * float(q[list(block), j].sum())
    return per_support * total


def loop_top_k(values, k):
    return sorted(int(i) for i in np.argsort(-values, kind="stable")[:k])


def loop_best_blocks(q, lam, k, mode):
    if mode == SHARED:
        return [loop_top_k(q @ lam, k)] * q.shape[1]
    return [loop_top_k(q[:, j], k) if lam[j] > 0.0 else list(range(k)) for j in range(q.shape[1])]


def loop_decode(scores, k, n, m, mode):
    grid = scores.reshape(n, m)
    if mode == SHARED:
        return [loop_top_k(grid.sum(axis=1), k)] * m
    return [loop_top_k(grid[:, j], k) for j in range(m)]


def stack(rng, N, n, m):
    # Supports with exact ties and saturated entries, and some zero weights.
    q = rng.choice([0.0, 1e-3, 0.25, 0.5, 1.0], size=(N, n, m)) * rng.choice([1.0, 1.0, 0.3], size=(N, n, m))
    lam = rng.choice([0.0, 1.0, 2.0, 3.0], size=(N, m))
    lam[lam.sum(axis=1) == 0.0, 0] = 1.0
    return q, lam / lam.sum(axis=1, keepdims=True)


SHAPES = [(1, 1, 1), (5, 2, 2), (12, 3, 9), (14, 9, 12), (20, 3, 9), (4, 9, 1)]


@pytest.mark.parametrize("n,m,k", SHAPES)
@pytest.mark.parametrize("mode", [SHARED, PER_SEGMENT])
def test_labels_and_revenue_match_the_loops(n, m, k, mode):
    rng = np.random.default_rng(n * 100 + m * 10 + k)
    q, lam = stack(rng, 300, n, m)
    per_support = rng.uniform(0.1, 1.0, size=300)
    blocks = _best_blocks(q, lam, k, mode)
    revenue = _block_revenue(q, lam, per_support, blocks)
    for t in range(300):
        expected = loop_best_blocks(q[t], lam[t], k, mode)
        assert blocks[t].tolist() == expected
        assert revenue[t] == loop_revenue(q[t], lam[t], per_support[t], expected)


@pytest.mark.parametrize("n,m,k", SHAPES)
@pytest.mark.parametrize("mode", [SHARED, PER_SEGMENT])
def test_decode_matches_the_loop(n, m, k, mode):
    rng = np.random.default_rng(7 + n * m * k)
    # Rounded scores, so sums tie exactly and the tie rule decides.
    scores = np.round(rng.uniform(-0.5, 1.5, size=(300, n * m)), 1)
    decoded = _decode_blocks(scores, k, n, m, mode)
    for t in range(300):
        assert decoded[t].tolist() == loop_decode(scores[t], k, n, m, mode)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n,m", [(2, 1), (5, 2), (10, 3)])
def test_prediction_matches_the_row_product(n, m, order):
    # Fitted models hold F-ordered coefficients; models read from a file
    # hold C-ordered ones.  Both must score a batch row as b + B @ x.
    rng = np.random.default_rng(n * m)
    layout = FeatureLayout(n, m)
    B = np.asarray(rng.normal(size=(layout.label_slots, layout.d)), order=order)
    model = PredictorModel(intercept=rng.normal(size=layout.label_slots), coefficients=B, layout=layout)
    X = rng.uniform(0.0, 50.0, size=(200, layout.d))
    scores = _predict(model, X)
    for t in range(200):
        assert scores[t].tobytes() == (model.intercept + model.coefficients @ X[t]).tobytes()


def test_features_and_indicators_match_the_loops():
    rng = np.random.default_rng(3)
    N, n, m, k = 50, 4, 3, 2
    y, alpha = rng.normal(size=(N, n, m)), rng.normal(size=(N, n, m))
    F, lam = rng.normal(size=(N, n)), rng.normal(size=(N, m))
    blocks = np.sort(np.argsort(rng.normal(size=(N, m, n)), axis=-1)[..., :k], axis=-1)
    X = _features(y, alpha, F, lam)
    Y = _indicators(blocks, n)
    for t in range(N):
        per_product = np.hstack([y[t], alpha[t], F[t][:, None]])
        assert np.array_equal(X[t], np.concatenate([per_product.ravel(), lam[t][:-1]]))
        expected = np.zeros(n * m)
        for j, block in enumerate(blocks[t]):
            for i in block:
                expected[i * m + j] = 1.0
        assert np.array_equal(Y[t], expected)
