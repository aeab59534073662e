"""The dataset-level array kernels against per-record loop references.

Each reference below is the loop the package ran one record at a time
before the fixed-point solve, labeling, revenue, encoding, prediction and
decoding became array code.  The arithmetic is unchanged, so every
comparison is exact: a kernel that reorders a sum or swaps a matrix
product fails here even where no stored artifact moves.
"""

import numpy as np
import pytest

from assort_mnl import generate
from assort_mnl.core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ONE_START,
    PER_SEGMENT,
    SHARED,
    ZERO_START,
    _best_blocks,
    _block_revenue,
    _solve_stack,
    solve_fixed_point,
    support_map,
)
from assort_mnl.generate import (
    DatasetRecord,
    GenSpec,
    LabeledDataset,
    _stack,
    generate_dataset,
    generate_instance,
    record_seed,
    relabel_dataset,
)
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


def loop_solve(instance, start, max_iter=DEFAULT_MAX_ITER):
    q = np.full((instance.n, instance.m), 1.0 if start == ONE_START else 0.0)
    converged = False
    iterations = 0
    for _ in range(max_iter):
        q_next = support_map(instance, q)
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        iterations += 1
        if delta <= DEFAULT_TOL:
            converged = True
            break
    residual = float(np.max(np.abs(support_map(instance, q) - q)))
    return q, iterations, residual, converged


def instances(n, m, network_effects, count):
    spec = GenSpec(n=n, m=m, network_effects=network_effects)
    return [generate_instance(spec, record_seed(n * 10 + m, t)) for t in range(count)]


def assert_solves_match(batch, expected):
    q, iterations, residual, converged = batch
    for t, (q_t, it_t, res_t, conv_t) in enumerate(expected):
        assert q[t].tobytes() == q_t.tobytes()
        assert (iterations[t], residual[t], converged[t]) == (it_t, res_t, conv_t)


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


@pytest.mark.parametrize("start", [ONE_START, ZERO_START])
@pytest.mark.parametrize("network_effects", [True, False])
@pytest.mark.parametrize("n,m", [(2, 1), (5, 1), (2, 2), (10, 2), (20, 4), (100, 4)])
def test_solve_matches_the_loop(n, m, network_effects, start):
    batch = instances(n, m, network_effects, 60 if n == 100 else 300)
    expected = [loop_solve(instance, start) for instance in batch]
    stacked = _stack(batch, "y", "alpha", "beta", "F", "lam")
    assert_solves_match(_solve_stack(*stacked, start, DEFAULT_TOL, DEFAULT_MAX_ITER), expected)
    # solve_fixed_point is the one-row case of the same kernel.
    for instance, (q, iterations, residual, converged) in zip(batch[:10], expected):
        solution = solve_fixed_point(instance, start)
        assert solution.q.tobytes() == q.tobytes()
        assert (solution.iterations, solution.residual, solution.converged) == (iterations, residual, converged)


@pytest.mark.parametrize("start", [ONE_START, ZERO_START])
def test_solve_stops_each_record_on_its_own(start):
    # Under a small cap some records converge and the rest stop at the cap
    # with their last iterate.
    batch = instances(5, 2, True, 200)
    expected = [loop_solve(instance, start, max_iter=8) for instance in batch]
    converged = [c for *_, c in expected]
    assert any(converged) and not all(converged)
    stacked = _stack(batch, "y", "alpha", "beta", "F", "lam")
    assert_solves_match(_solve_stack(*stacked, start, DEFAULT_TOL, 8), expected)


def test_generate_dataset_matches_the_record_loop(monkeypatch):
    # The kernel's last argument is the iteration cap.
    monkeypatch.setattr(generate, "_solve_stack", lambda *args: _solve_stack(*args[:-1], 8))
    spec, count, master_seed = GenSpec(n=5, m=2, k=2), 120, 77
    dataset = generate_dataset(spec, count, master_seed)
    records, excluded = [], []
    for idx in range(count):
        seed = record_seed(master_seed, idx)
        instance = generate_instance(spec, seed)
        q, _, _, converged = loop_solve(instance, ONE_START, max_iter=8)
        if converged:
            records.append(DatasetRecord(idx=idx, seed=seed, instance=instance, q=q, label=None, r_a=None))
        else:
            excluded.append(idx)
    assert excluded and records
    reference = LabeledDataset(spec, master_seed, count, tuple(records), tuple(excluded))
    assert dataset == relabel_dataset(reference)
