"""The dataset-level array kernels against per-record loop references.

Each reference below is the loop the package ran one record at a time
before instance synthesis, the fixed-point solve, labeling, revenue,
encoding, prediction, decoding and the JSONL write became array code, and
before datasets became columns.  The arithmetic is unchanged, so every
comparison is exact: a kernel that reorders a sum, swaps a matrix product
or splits a random stream differently fails here even where no stored
artifact moves.
"""

import dataclasses
import functools
import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from assort_mnl import _numtext, core, generate
from assort_mnl.core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ONE_START,
    PER_SEGMENT,
    SHARED,
    ZERO_START,
    Assortment,
    ProblemInstance,
    RevenueTerms,
    _best_blocks,
    _block_revenue,
    _fixed_utility,
    _solve_stack,
    _utility,
    solve_fixed_point,
)
from assort_mnl.bench import DEFAULT_MASTER_SEED, preset
from assort_mnl.generate import (
    _COLUMNS,
    _record_seeds,
    DOLLAR_MAX,
    DOLLAR_SCALE,
    UNIT_SCALE,
    GenSpec,
    LabeledDataset,
    generate_dataset,
    generate_instance,
    read_dataset,
    record_seed,
    write_dataset,
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


def loop_instance(spec, seed):
    rng = np.random.default_rng(seed)
    n, m = spec.n, spec.m
    y = rng.uniform(0.0, spec.M, size=(n, m))
    alpha = rng.uniform(0.0, spec.M, size=(n, m))
    if not spec.network_effects:
        alpha = np.zeros((n, m))
    if spec.f_mode == UNIT_SCALE:
        F = rng.uniform(0.0, spec.M, size=n)
    else:
        F = rng.integers(1, DOLLAR_MAX + 1, size=n).astype(float)
    raw = rng.uniform(0.0, spec.M, size=m)
    return ProblemInstance(
        y=y, alpha=alpha, beta=np.ones((n, m)), F=F, lam=raw / raw.sum(), revenue=spec.revenue
    )


def loop_write(dataset, path):
    """The dataset file as written with one dict per record through ``json.dumps``.

    Each record carries what its header fixes: all-ones beta, the spec's
    revenue terms as floats and the seed ``record_seed(master_seed, idx)``.
    """
    header = {
        "format_version": generate.FORMAT_VERSION,
        "spec": dataclasses.asdict(dataset.spec),
        "master_seed": dataset.master_seed,
        "count": dataset.count,
        "seed_mix": "splitmix64",
        "excluded": list(dataset.excluded),
    }
    spec = dataset.spec
    beta = [[1.0] * spec.m for _ in range(spec.n)]
    revenue = {key: float(getattr(spec.revenue, key)) for key in ("a", "b", "omega", "xi")}
    columns = (dataset.idx, dataset.y, dataset.alpha, dataset.F, dataset.lam, dataset.q, dataset.blocks + 1, dataset.r_a)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for idx, y, alpha, F, lam, q, blocks, r_a in zip(*(c.tolist() for c in columns)):
            record = {
                "idx": idx, "seed": record_seed(dataset.master_seed, idx), "y": y, "alpha": alpha, "beta": beta,
                "F": F, "lambda": lam, "revenue": revenue,
                "q": q, "label": {"per_segment": blocks, "k": spec.k}, "r_a": r_a,
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def loop_support_map(instance, q):
    s = q @ instance.lam
    return expit(instance.y - instance.beta * instance.F[:, None] + instance.alpha * s[:, None])


def loop_solve(instance, start, max_iter=DEFAULT_MAX_ITER):
    q = np.full((instance.n, instance.m), 1.0 if start == ONE_START else 0.0)
    converged = False
    iterations = 0
    for _ in range(max_iter):
        q_next = loop_support_map(instance, q)
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        iterations += 1
        if delta <= DEFAULT_TOL:
            converged = True
            break
    residual = float(np.max(np.abs(loop_support_map(instance, q) - q)))
    return q, iterations, residual, converged


def loop_dataset(spec, count, master_seed, max_iter=DEFAULT_MAX_ITER):
    """The dataset as generation made it one record at a time, its columns stacked from the records' rows."""
    rows, excluded = [], []
    for idx in range(count):
        instance = loop_instance(spec, record_seed(master_seed, idx))
        q, _, _, converged = loop_solve(instance, ONE_START, max_iter)
        if not converged:
            excluded.append(idx)
            continue
        blocks = loop_best_blocks(q, instance.lam, spec.k, spec.mode)
        r_a = loop_revenue(q, instance.lam, instance.revenue.per_support, blocks)
        rows.append((idx, instance.y, instance.alpha, instance.F, instance.lam, q, blocks, r_a))
    n, m, k = spec.n, spec.m, spec.k
    layout = [((), np.int64), ((n, m), float), ((n, m), float), ((n,), float), ((m,), float), ((n, m), float),
              ((m, k), np.int64), ((), float)]
    columns = (np.array([row[i] for row in rows], dtype).reshape((len(rows),) + shape)
               for i, (shape, dtype) in enumerate(layout))
    return LabeledDataset(spec, master_seed, count, *columns, excluded=tuple(excluded))


def instances(n, m, network_effects, count):
    spec = GenSpec(n=n, m=m, network_effects=network_effects)
    return [loop_instance(spec, record_seed(n * 10 + m, t)) for t in range(count)]


def stacked(batch):
    """The solve's operands for a batch of instances: fixed utilities ``y - beta F``, ``alpha`` and ``lam``."""
    y, alpha, beta, F, lam = (
        np.array([getattr(instance, f) for instance in batch]) for f in ("y", "alpha", "beta", "F", "lam")
    )
    return [y - beta * F[..., None], alpha, lam]


def assert_solves_match(batch, expected):
    q, iterations, converged = batch
    for t, (q_t, it_t, _, conv_t) in enumerate(expected):
        assert q[t].tobytes() == q_t.tobytes()
        assert (iterations[t], converged[t]) == (it_t, conv_t)


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
# (1, 2), (1, 4), (3, 2) and (7, 3): one product over several segments, odd
# product counts and three segments, where matmul's rounding is fragile.
@pytest.mark.parametrize("n,m", [(2, 1), (5, 1), (2, 2), (10, 2), (20, 4), (100, 4), (1, 2), (1, 4), (3, 2), (7, 3)])
def test_solve_matches_the_loop(n, m, network_effects, start):
    batch = instances(n, m, network_effects, 60 if n == 100 else 300)
    expected = [loop_solve(instance, start) for instance in batch]
    assert_solves_match(_solve_stack(*stacked(batch), start, DEFAULT_MAX_ITER), expected)
    # solve_fixed_point is the one-row case of the same kernel; it alone computes a residual.
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
    assert_solves_match(_solve_stack(*stacked(batch), start, 8), expected)


def tangent_instances(fast):
    """Records that finish at widely spread iterations, and ``fast`` random ones after them.

    Product 0 of each record follows criterion 03's family ``q = sigma(10 q
    - F)`` (y = 0, alpha = 10), with F offset on either side of a value
    where a fixed point appears or vanishes by touching the diagonal: the
    smaller the offset, the slower the iteration.  The smallest offset
    stops at any cap of a few thousand passes.
    """
    # The map's slope, 10 sigma (1 - sigma), is 1 where sigma (1 - sigma) = 0.1.
    sigma = (1.0 - np.sqrt(0.6)) / 2.0
    tangent_F = 10.0 * sigma - np.log(sigma / (1.0 - sigma))
    offsets = [sign * 0.1 * 3.0**-j for j in range(11) for sign in (1.0, -1.0)] + [-1e-12]
    rng = np.random.default_rng(11)
    batch = []
    for F_star in (tangent_F, 10.0 - tangent_F):
        for offset in offsets:
            y, alpha, F = rng.uniform(0.0, 50.0, (3, 2)), rng.uniform(0.0, 50.0, (3, 2)), rng.uniform(0.0, 50.0, 3)
            y[0], alpha[0], F[0] = 0.0, 10.0, F_star + offset
            lam = rng.uniform(0.0, 1.0, 2)
            batch.append(ProblemInstance(y, alpha, None, F, lam / lam.sum()))
    return batch + instances(3, 2, True, fast)


@functools.cache
def tangent_solves(start, max_iter):
    """``tangent_instances(4)`` and each record's ``loop_solve``, computed once per start and cap."""
    batch = tangent_instances(4)
    return batch, [loop_solve(instance, start, max_iter) for instance in batch]


# A record of tangent_instances holds 6 entries: a ride limit of 6 compacts
# the working set whenever a record finishes.  A block entry budget of 1
# makes every block one pass long and one of 2**40 makes every block 16
# passes long, as the default does for these 300-entry stacks.
@pytest.mark.parametrize(
    "ride_limit,block_entries",
    [
        pytest.param(ride_limit, block_entries, id=f"{ride_limit}{name}")
        for name, block_entries in [("", core._BLOCK_ENTRIES), ("-one-pass-blocks", 1), ("-full-blocks", 1 << 40)]
        for ride_limit in [core._RIDE_LIMIT, 6]
    ],
)
@pytest.mark.parametrize("start", [ONE_START, ZERO_START])
def test_solve_matches_the_loop_through_compactions_and_the_cap(monkeypatch, start, ride_limit, block_entries):
    # Records finish one or two at a time over thousands of passes, so the
    # working set is compacted several times before the last ones reach
    # the cap.
    monkeypatch.setattr(core, "_RIDE_LIMIT", ride_limit)
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
    max_iter = 3000
    batch, expected = tangent_solves(start, max_iter)
    iterations = np.array([it for _, it, _, _ in expected])
    converged = np.array([conv for *_, conv in expected])
    assert 1 < (~converged).sum() < len(batch) // 8 and len(set(iterations.tolist())) > len(batch) // 2
    # Under the default ride limit, which these small records never reach,
    # the working set is compacted when at most half of it is live.
    working, compactions = len(batch), 0
    for it in sorted(set(iterations[converged].tolist())):
        live = np.count_nonzero(iterations > it)
        if 2 * live <= working:
            working, compactions = live, compactions + 1
    assert compactions >= 3
    assert_solves_match(_solve_stack(*stacked(batch), start, max_iter), expected)


@pytest.mark.parametrize("block_entries", [core._BLOCK_ENTRIES, 1])
@pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 13, 16, 17, 20])
@pytest.mark.parametrize("start", [ONE_START, ZERO_START])
def test_solve_matches_the_loop_at_caps_that_end_mid_block(monkeypatch, start, max_iter, block_entries):
    # The default budget gives this stack blocks of passes 1-4, 5-16 and
    # 17-32, so caps 4 and 16 end a block and the others cut one short.
    # Under caps of 13 and more some records finish inside a block and the
    # rest stop at the cap.
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
    batch, expected = tangent_solves(start, max_iter)
    assert block_entries == 1 or block_entries // stacked(batch)[0].size >= 16
    converged = [c for *_, c in expected]
    assert max_iter < 13 or (any(converged) and not all(converged))
    assert_solves_match(_solve_stack(*stacked(batch), start, max_iter), expected)


def test_a_stack_that_converges_at_pass_2_stops_after_the_first_block(monkeypatch):
    # Without network effects a record's second pass repeats its first, so
    # the solve of case1p2's records needs its first block of 4 passes and
    # no more; a block of 16 would call expit 16 times.
    calls = []
    monkeypatch.setattr(core, "expit", lambda *args, **kwargs: calls.append(1) or expit(*args, **kwargs))
    y, alpha, F, lam = generate._draw(preset("case1p2").spec, _record_seeds(DEFAULT_MASTER_SEED, np.arange(500)))
    _, iterations, converged = _solve_stack(y - F[..., None], alpha, lam, ONE_START, DEFAULT_MAX_ITER)
    assert converged.all() and iterations.max() == 2
    assert len(calls) <= 4


@pytest.mark.parametrize("weight", [1.0, 1.0 - 2.0**-53])
def test_one_segment_of_weight_one_is_its_own_mass(monkeypatch, weight):
    # The slab is the mass only when every weight is exactly 1; one record
    # of weight 1 - 2**-53 sends the stack through matmul.
    batch = instances(5, 1, True, 40)
    batch[7] = dataclasses.replace(batch[7], lam=[weight])
    calls = []
    monkeypatch.setattr(core, "_unit_mass", lambda q, lam, out: calls.append(1) or q)
    expected = [loop_solve(instance, ONE_START) for instance in batch]
    assert_solves_match(_solve_stack(*stacked(batch), ONE_START, DEFAULT_MAX_ITER), expected)
    assert bool(calls) == (weight == 1.0)


@pytest.mark.parametrize("block_entries", [core._BLOCK_ENTRIES, 1])
def test_solve_stops_at_the_first_small_step_of_a_block(monkeypatch, block_entries):
    # q = sigma(c + 1e4 q) creeps past a fixed point that vanished near
    # q = 1 - 1e-4: its step dips to at most tol at pass 2217 and exceeds
    # tol again a few passes later, so the block test must stop the record
    # at the block's first small step, not at its last pass.
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
    instance = ProblemInstance(y=[[-9989.789760638025]], alpha=[[1e4]], beta=None, F=[0.0], lam=[1.0])
    expected = loop_solve(instance, ONE_START)
    assert expected[1] == 2217 and expected[3]
    q, later = expected[0], []
    for _ in range(15):
        q, previous = loop_support_map(instance, q), q
        later.append(np.abs(q - previous).max())
    assert max(later) > DEFAULT_TOL
    assert_solves_match(_solve_stack(*stacked([instance]), ONE_START, DEFAULT_MAX_ITER), [expected])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
        elements=st.one_of(
            st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53]),
            st.floats(0.0, 1.0),
        ),
    ),
    st.data(),
)
def test_one_segment_mass_is_matmuls(q, data):
    # With one segment the solve's mass is matmul's one-term sum, whose bits
    # must be those of the product q * lam, on zeros, saturated ones and
    # subnormals alike, so that a weight of exactly 1 leaves q itself, as
    # the solve's unit mass takes it.
    q = q[..., None]
    elements = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310]), st.floats(0.0, 1.0))
    lam = data.draw(hnp.arrays(float, (len(q), 1), elements=elements))[..., None]
    assert np.multiply(q, lam).tobytes() == np.matmul(q, lam).tobytes()


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (20, 4), (100, 7)])
def test_demand_is_the_loop_formula(n, m):
    # The solve's expression for one pass, sigma(V(q)).
    rng = np.random.default_rng(n * m)
    for instance in instances(n, m, True, 20):
        q = rng.uniform(0.0, 1.0, size=(n, m))
        c = _fixed_utility(instance.y, instance.beta, instance.F)
        assert expit(_utility(c, instance.alpha, instance.lam, q)).tobytes() == loop_support_map(instance, q).tobytes()


def assert_same_columns(dataset, reference):
    # Equal values in another dtype, such as a float64 seed column, also fail.
    assert dataset == reference
    for f in _COLUMNS:
        assert getattr(dataset, f).dtype == getattr(reference, f).dtype, f


@pytest.mark.parametrize("f_mode", [UNIT_SCALE, DOLLAR_SCALE])
@pytest.mark.parametrize("network_effects", [True, False])
@pytest.mark.parametrize("n,m", [(2, 1), (5, 1), (2, 2), (10, 2), (20, 4)])
def test_columnar_generation_matches_the_record_loop(n, m, network_effects, f_mode):
    spec = GenSpec(n=n, m=m, k=2, network_effects=network_effects, f_mode=f_mode, mode=PER_SEGMENT)
    count, master_seed = 40, n * 100 + m
    assert_same_columns(generate_dataset(spec, count, master_seed), loop_dataset(spec, count, master_seed))
    # generate_instance is the one-record case of the same draw.
    for idx in range(5):
        seed = record_seed(master_seed, idx)
        assert generate_instance(spec, seed) == loop_instance(spec, seed)


def test_generate_dataset_matches_the_record_loop(monkeypatch):
    # The kernel's last argument is the iteration cap.
    monkeypatch.setattr(generate, "_solve_stack", lambda *args: _solve_stack(*args[:-1], 8))
    spec, count, master_seed = GenSpec(n=5, m=2, k=2), 120, 77
    reference = loop_dataset(spec, count, master_seed, max_iter=8)
    assert reference.excluded and len(reference)
    assert_same_columns(generate_dataset(spec, count, master_seed), reference)


@pytest.mark.parametrize("mode", [SHARED, PER_SEGMENT])
def test_records_are_the_record_loop(mode):
    spec = GenSpec(n=4, m=2, k=2, mode=mode)
    reference = loop_dataset(spec, 30, 5)
    materialized = generate_dataset(spec, 30, 5).records
    assert len(materialized) == len(reference)
    for t, rec in enumerate(materialized):
        assert (rec.idx, rec.seed) == (reference.idx[t], record_seed(5, rec.idx))
        assert rec.instance == loop_instance(spec, rec.seed)
        assert rec.q.tobytes() == reference.q[t].tobytes()
        assert rec.label == Assortment(per_segment=reference.blocks[t].tolist(), k=spec.k)
        assert rec.r_a == reference.r_a[t]
        assert (type(rec.idx), type(rec.seed), type(rec.r_a)) == (int, int, float)
        assert not rec.q.flags.writeable


def test_round_trip_keeps_every_column(tmp_path):
    data = generate_dataset(GenSpec(n=3, m=2, k=2, f_mode=DOLLAR_SCALE), 25, 2**64 - 5)
    assert max(data.seed.tolist()) >= 2**63
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    back = read_dataset(path)
    assert_same_columns(back, data)
    assert back.seed.tolist() == [record_seed(2**64 - 5, idx) for idx in back.idx.tolist()]


# Seeds at the edges of the 32- and 64-bit word splits.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_batched_seeding_is_pcg64s():
    seeds = EDGE_SEEDS + np.random.default_rng(2024).integers(0, 2**64, 1000, dtype=np.uint64).tolist()
    assert generate._pcg64_states(seeds) == [np.random.PCG64(s).state for s in seeds]


@pytest.mark.parametrize("f_mode", [UNIT_SCALE, DOLLAR_SCALE])
@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (7, 3)])
def test_draw_is_default_rng_per_seed(n, m, f_mode):
    # An odd count of dollar integers leaves half a 64-bit word buffered in
    # the reused generator; the next record must not see it.
    spec = GenSpec(n=n, m=m, f_mode=f_mode)
    seeds = EDGE_SEEDS + [record_seed(9, t) for t in range(20)]
    stacked_draws = generate._draw(spec, seeds)
    for t, seed in enumerate(seeds):
        expected = loop_instance(spec, seed)
        for name, column in zip(("y", "alpha", "F", "lam"), stacked_draws, strict=True):
            assert column[t].tobytes() == getattr(expected, name).tobytes(), (seed, name)


def test_jump_ahead_raw_outputs_are_pcg64s():
    seeds = EDGE_SEEDS + np.random.default_rng(2025).integers(0, 2**64, 1000, dtype=np.uint64).tolist()
    raw = generate._pcg64_raw(*generate._pcg64_seeding(seeds), 40)
    assert raw.dtype == np.uint64
    assert raw.tolist() == [np.random.PCG64(s).random_raw(40).tolist() for s in seeds]


# Shapes (n, m) by draws per record 2nm + n + m, on both sides of the
# jump-ahead's limit of 192 draws, with the benchmark's shapes (37, 52 and
# 62 draws) among them.
DRAW_SHAPES = {7: (2, 1), 16: (5, 1), 32: (6, 2), 34: (11, 1), 37: (12, 1), 52: (10, 2), 62: (12, 2), 64: (21, 1),
               66: (9, 3), 192: (5, 17), 193: (64, 1)}
# Record counts from one record up, the benchmark's among them: the rule
# reads no count.
DRAW_COUNTS = [1, 15, 16, 40, 500]


def test_draw_shapes_straddle_the_rule():
    assert generate._JUMP_MAX_DRAWS in DRAW_SHAPES and generate._JUMP_MAX_DRAWS + 1 in DRAW_SHAPES
    for draws, (n, m) in DRAW_SHAPES.items():
        assert 2 * n * m + n + m == draws


@pytest.mark.parametrize("count", DRAW_COUNTS)
@pytest.mark.parametrize("draws", sorted(DRAW_SHAPES))
@pytest.mark.parametrize("f_mode,network_effects", [(UNIT_SCALE, True), (UNIT_SCALE, False), (DOLLAR_SCALE, True)])
def test_draw_is_default_rng_on_both_sides_of_the_rule(monkeypatch, draws, count, f_mode, network_effects):
    n, m = DRAW_SHAPES[draws]
    spec = GenSpec(n=n, m=m, network_effects=network_effects, f_mode=f_mode)
    jumped = []
    uniforms = generate._pcg64_uniforms
    monkeypatch.setattr(generate, "_pcg64_uniforms", lambda *args: jumped.append(args[1]) or uniforms(*args))
    seeds = _record_seeds(2**64 - draws, np.arange(count))
    stacked_draws = generate._draw(spec, seeds)
    assert jumped == ([draws] if f_mode == UNIT_SCALE and draws <= generate._JUMP_MAX_DRAWS else [])
    expected = [loop_instance(spec, seed) for seed in seeds.tolist()]
    for name, column in zip(("y", "alpha", "F", "lam"), stacked_draws, strict=True):
        assert column.tobytes() == np.stack([getattr(instance, name) for instance in expected]).tobytes(), name


def test_jump_ahead_blocks_cover_every_record(monkeypatch):
    # Blocks of 3 records: the last block is partial.
    monkeypatch.setattr(generate, "_JUMP_BLOCK", 3 * 16)
    seeds = _record_seeds(5, np.arange(40))
    blocked = generate._pcg64_uniforms(seeds, 16, 50.0)
    assert blocked.tolist() == [np.random.default_rng(s).uniform(0.0, 50.0, 16).tolist() for s in seeds.tolist()]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_instance_seed_must_fit_64_bits(seed):
    with pytest.raises(ValueError, match="seed must lie in"):
        generate_instance(GenSpec(n=2, m=1), seed)


def assert_writes_the_reference(dataset, tmp_path):
    written, reference = tmp_path / "written.jsonl", tmp_path / "reference.jsonl"
    write_dataset(dataset, written)
    loop_write(dataset, reference)
    assert written.read_bytes() == reference.read_bytes()


# Floats generation never draws: negative, -0.0, subnormal, huge, and
# doubles halfway between their two closest shortest decimals (2**-25 and
# (2**52 + 1) / 4), where repr takes the even one.
FOREIGN_FLOATS = np.array([-1.5, -0.0, 5e-323, 1e300, 2.0**-25, -(2**52 + 1) / 4, 1e-05, 1e16])


def with_floats(data, floats):
    """``data`` with its float columns cycling through ``floats`` as far as a dataset's rules let them.

    ``r_a`` takes them all; ``y``, ``alpha`` and, in unit f_mode, ``F`` the
    nonnegative ones, under a spec whose M admits them; ``q`` those in [0, 1].
    ``lam`` must sum to 1 and keeps its values.
    """
    nonnegative, unit = floats[floats >= 0.0], floats[(floats >= 0.0) & (floats <= 1.0)]
    spec = dataclasses.replace(data.spec, M=nonnegative.max())
    fields = {"r_a": floats, "y": nonnegative, "alpha": nonnegative, "q": unit}
    if spec.f_mode == UNIT_SCALE:
        fields["F"] = nonnegative
    return dataclasses.replace(data, spec=spec, **{f: np.resize(v, getattr(data, f).shape) for f, v in fields.items()})


def floats_per_record(spec):
    """The floats of a record line under ``spec``; the writer cuts a dataset into chunks by its floats over ``_CHUNK_FLOATS``."""
    return sum(math.prod(shape) for shape, dtype in generate._layout(spec) if dtype is float)


def chunk_records(monkeypatch, spec):
    """The records of each chunk the writer formats under ``spec`` from now on, as a list it fills."""
    sizes, cells = [], generate.cells
    monkeypatch.setattr(generate, "cells", lambda floats, ints: sizes.append(len(floats) // floats_per_record(spec)) or cells(floats, ints))
    return sizes


@pytest.mark.parametrize("f_mode", [UNIT_SCALE, DOLLAR_SCALE])
@pytest.mark.parametrize("mode", [SHARED, PER_SEGMENT])
@pytest.mark.parametrize("n,m,k", [(2, 1, 1), (5, 1, 4), (2, 2, 1), (20, 3, 9), (100, 4, 3), (4, 3, 4)])
def test_writer_matches_the_reference(tmp_path, monkeypatch, n, m, k, mode, f_mode):
    # Three chunks of the writer, the last one record longer than the two
    # before it: with R the records a budget holds (3 or more at each
    # shape here), 3R + 1 records hold over 2.5 and at most 3 + 1/R
    # budgets of floats.
    spec = GenSpec(n=n, m=m, k=k, mode=mode, f_mode=f_mode)
    per_budget = generate._CHUNK_FLOATS // floats_per_record(spec)
    data = generate_dataset(spec, 3 * per_budget + 1, 2**64 - n)
    sizes = chunk_records(monkeypatch, spec)
    assert_writes_the_reference(data, tmp_path)
    assert sizes == [per_budget, per_budget, per_budget + 1]
    assert_writes_the_reference(with_floats(data, FOREIGN_FLOATS), tmp_path)


def subset(data, gone):
    """``data`` without the records at the positions ``gone``, whose idx become excluded."""
    kept = np.ones(len(data), bool)
    kept[gone] = False
    return dataclasses.replace(data.take(kept), excluded=tuple(int(i) for i in data.idx[~kept]))


@pytest.mark.parametrize("excluded", [False, True])
@pytest.mark.parametrize("f_mode", [UNIT_SCALE, DOLLAR_SCALE])
@pytest.mark.parametrize("n,m", [(2, 1), (5, 1), (2, 2), (10, 2), (100, 4)])
def test_chunking_never_changes_the_bytes(tmp_path, monkeypatch, n, m, f_mode, excluded):
    spec = GenSpec(n=n, m=m, k=1, f_mode=f_mode)
    data = generate_dataset(spec, 20, 2**32 + n)
    if excluded:
        # Gaps in idx at the start, inside the first chunk and at the end;
        # and a dataset of which one record of 20 is left.
        datasets = [subset(data, [0, 3, -1]), subset(data, np.arange(20) != 5)]
    else:
        datasets = [data, generate_dataset(spec, 1, 2**32 + n)]
    for data in datasets:
        loop_write(data, tmp_path / "reference.jsonl")
        expected = hashlib.sha256((tmp_path / "reference.jsonl").read_bytes()).hexdigest()
        floats = len(data) * floats_per_record(spec)
        # Chunks of 1 record and of about 7, the whole dataset in one, and
        # the dataset's floats just below and above 1.5 budgets: one chunk
        # or two.
        budgets = [floats_per_record(spec) * records for records in (1, 7, len(data))] + [floats // 1.49, floats // 1.51]
        for budget in budgets:
            monkeypatch.setattr(generate, "_CHUNK_FLOATS", int(budget))
            assert write_dataset(data, tmp_path / "written.jsonl") == expected, (len(data), budget)


@pytest.mark.parametrize("terms", [
    RevenueTerms(),
    RevenueTerms(5e-324, 1e16, 1e-05, 0.1),
    RevenueTerms(-0.0, 1.7976931348623157e308, 0.0, 1.0),
    RevenueTerms(1e-300, 1e300, 5e-324, 0.9999999999999999),
    RevenueTerms(3, 7, 0, 1),
])
@pytest.mark.parametrize("n,m,k,f_mode", [(2, 1, 1, UNIT_SCALE), (5, 3, 4, DOLLAR_SCALE)])
def test_line_template_holds_no_nul(n, m, k, f_mode, terms):
    # The writer's compaction drops every 0 byte of a line buffer, so the
    # literal text around the numbers must hold none, whatever the header
    # writes into it.
    runs, is_float = generate._line_template(GenSpec(n=n, m=m, k=k, f_mode=f_mode, revenue=terms))
    assert len(runs) == len(is_float) + 1
    assert all(run and "\0" not in run for run in runs)


def test_writer_matches_the_reference_without_records(tmp_path):
    data = generate_dataset(GenSpec(n=3, m=2, k=2), 5, 1)
    assert_writes_the_reference(dataclasses.replace(data.take(slice(0, 0)), count=0), tmp_path)


def test_writer_matches_the_reference_on_extreme_floats(tmp_path):
    data = generate_dataset(GenSpec(n=3, m=2, k=2), 10, 1)
    extremes = np.array([5e-324, 1e-05, 1e16, 1.7976931348623157e308, -0.0, 0.1, 1.0, 123456789.125])
    extreme = with_floats(data, np.random.default_rng(0).permutation(extremes))
    # The revenue terms are the spec's, written once per line.
    for terms in [RevenueTerms(5e-324, 1e16, 1e-05, 0.1), RevenueTerms(-0.0, 1.7976931348623157e308, 0.0, 1.0)]:
        spec = dataclasses.replace(extreme.spec, revenue=terms)
        assert_writes_the_reference(dataclasses.replace(extreme, spec=spec), tmp_path)


def cell_texts(cells):
    """The characters each cell (column) of ``cells`` keeps: those other than 0."""
    lines = np.vstack([cells, np.full((1, cells.shape[1]), ord("\n"), np.uint8)]).T.ravel()
    return lines[lines != 0].tobytes().decode().split("\n")[:-1]


def float_cells(values):
    """The cells of finite float64 ``values`` alone, as ``_numtext.cells`` makes them with no integers."""
    return _numtext.cells(values, np.empty(0, np.uint64))[0]


def float_texts(values):
    return cell_texts(float_cells(np.asarray(values, dtype=np.float64)))


def float_of_bits(bits):
    return float(np.uint64(bits).view(np.float64))


# Any finite double: hypothesis's floats, which favour special values;
# uniform bit patterns, which reach every exponent; the smallest
# subnormals, whose shortest decimals have one or two digits; and doubles
# (2**52 + odd) / 4, halfway between their two closest shortest decimals.
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(float_of_bits).filter(math.isfinite),
    st.integers(1, 100).map(float_of_bits),
    st.integers(0, 2**49).map(lambda j: (2.0**52 + 2 * j + 1) / 4),
)


def edge_floats():
    """Floats at the edges of repr's forms and of the digit kernel, of both signs."""
    powers = np.array([2.0**e for e in range(-1074, 1024)] + [10.0**e for e in range(-323, 309)])
    neighbours = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    positive = np.concatenate([
        [0.0, sys.float_info.min, sys.float_info.max, np.nextafter(sys.float_info.max, 0.0)],
        # Exponent form below 1e-4 and from 1e16 on.
        [1e-05, 1e-04, 1e15, 1e16, 9999999999999998.0, 0.00009999999999999999],
        # The smallest subnormals, where the shortest decimal has one or two digits.
        np.arange(1, 2001, dtype=np.uint64).view(np.float64),
        # Ties between the two closest shortest decimals.
        (2.0**52 + np.arange(1, 40, 2)) / 4,
        # Doubles one of whose interval ends is a short decimal: the carry
        # into the upper end's product decides the first two, the borrow
        # from the lower end's the last two.
        [7.3920524356845e16, 7.39953243903914e16, 4.0802189312e31, 4.2107859369984e31],
        neighbours[np.isfinite(neighbours)],
    ])
    return np.concatenate([positive, -positive]).tolist()


EDGE_INTS = [0, 1, 9, 10, 99, 100, 2**53 + 1, 2**63, 2**64 - 1] + [10**e for e in range(20)] + [10**e - 1 for e in range(1, 20)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(FINITE_FLOATS, min_size=1, max_size=40))
@example(edge_floats())
def test_float_cells_keep_repr(values):
    assert float_texts(values) == [repr(v) for v in values]


def test_float_cells_keep_repr_on_a_sweep():
    # Random bit patterns, which reach every exponent; the uniforms
    # generation draws; and the smallest subnormals, whose shortest
    # decimals have one or two digits.  Both signs.
    rng = np.random.default_rng(2026)
    values = np.concatenate([
        rng.integers(0, 2**64, 2**17, dtype=np.uint64).view(np.float64),
        rng.uniform(0, 50, 2**17),
        np.arange(1, 2001, dtype=np.uint64).view(np.float64),
    ])
    values = values[np.isfinite(values)]
    values[::2] *= -1
    assert float_texts(values) == [repr(v) for v in values.tolist()]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example(EDGE_INTS)
def test_int_cells_keep_str(values):
    assert cell_texts(_numtext.cells(np.empty(0), np.array(values, np.uint64))[1]) == [str(v) for v in values]


# Scalars in every form json writes: quotes, backslashes, newlines, text
# other than ASCII and the separator the report writer rewrites inside
# strings, integers past 64 bits, signed zeros, subnormal, large, infinite
# and NaN floats, booleans and null.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan]),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\u00e9\u4e2d", "},\n  {", "},\n    {", '{"a": [1]}']),
)
_JSON_KEYS = st.text(max_size=4) | st.sampled_from(["idx", '"', "\n", "},\n  {"])
_FLAT_DICTS = st.dictionaries(_JSON_KEYS, _JSON_SCALARS, min_size=1, max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _FLAT_DICTS | st.lists(_FLAT_DICTS, min_size=1, max_size=4),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_JSON_KEYS, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_JSON_VALUES)
@example({"a": [{"b": -0.0, "c": "},\n  {"}, {"d": 2**70}], "e": [[], {}, [{}], [{"f": math.nan}, 1, {}, [{"g": 1e16}]]],
          "h": [math.inf, 5e-324, True, None, "\u00e9"], "i": {"j": {"k": []}}})
def test_indented_json_is_json_dumps(value):
    # The report writer runs json's C encoder on flat containers and fixes
    # their layout; json.dumps(indent=2) indents in pure Python.
    assert generate._indented_json(value) == json.dumps(value, indent=2)


# A layout of one float field a line, to read number tokens through the record parser.
ONE_FLOAT = _numtext.LineLayout(["[", "]\n"], np.array([True]))


def parsed_floats(tokens):
    """The floats ``_numtext.parse_lines`` reads from ``tokens``, each the one number of a line."""
    out = []
    for start in range(0, len(tokens), 1 << 15):
        part = tokens[start : start + (1 << 15)]
        floats, _ = _numtext.parse_lines(_numtext.PAD + "".join(f"[{t}]\n" for t in part).encode(), len(part), ONE_FLOAT)
        out.append(floats[:, 0])
    return np.concatenate(out)


def json_floats(tokens):
    """What json makes of ``tokens`` in a float column: ``float`` of a float, ``float(int(...))`` of an integer."""
    return np.array([float(int(t)) if re.fullmatch(r"-?\d+", t) else float(t) for t in tokens])


def halfway_tokens(rng, count):
    """Decimals exactly halfway between adjacent doubles, with at most 19 significant digits.

    (2M + 1) 2**(s - 1) lies halfway between M 2**s and (M + 1) 2**s; a
    multiple t = 5**q u of it, t odd in [2**53, 2**54), reads as
    (u 2**(j - q)) e q.
    """
    tokens = []
    for s in range(-3, 11):
        for M in rng.integers(2**52, 2**53, count).tolist():
            odd = 2 * M + 1
            tokens.append(f"{odd << (s - 1)}e0" if s >= 1 else f"{odd * 5 ** (1 - s)}e-{1 - s}")
    for q in range(24):
        for u in rng.integers(-(-2**53 // 5**q), 2**54 // 5**q + 1, count).tolist():
            u |= 1
            if 2**53 < 5**q * u < 2**54:
                tokens.append(f"{u << int(rng.integers(0, 10))}e{q}")
    return tokens


def test_parse_lines_reads_json_numbers_exactly():
    # Bit for bit what json reads: Eisel-Lemire where the digits allow, float() for the rest.
    rng = np.random.default_rng(2027)
    bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)],
        # The smallest subnormals and every power of 2 and of 10, with both neighbours.
        np.arange(1, 2001, dtype=np.uint64).view(np.float64),
        np.array(edge_floats()),
        rng.uniform(0, 50, 2**15),
    ])
    tokens = [repr(v) for v in values.tolist()]
    tokens += halfway_tokens(rng, 400)
    # Random 19-digit decimals at random exponents, both signs, in every exponent form.
    digits = rng.integers(10**18, 10**19, 2**15, dtype=np.uint64).tolist()
    exponents = rng.integers(-360, 330, 2**15).tolist()
    forms = ["{}e{}", "{}E{}", "-{}e{}", "{}.{}e{}"]
    for i, (d, e) in enumerate(zip(digits, exponents)):
        form = forms[i % len(forms)]
        tokens.append(form.format(str(d)[:3], str(d)[3:], e) if "." in form else form.format(d, e))
        tokens.append(f"{d}e{'+' if e >= 0 else '-'}{abs(e)}")
    tokens += [f"{d}e-0{k}" for d, k in zip(digits[:1000], range(10))] + ["-0", "0", "-0.0", "0.0", "0e0", "-0E+00"]
    # Integers of up to 18 digits, which json makes ints.
    tokens += [str(v) for v in rng.integers(-(10**18) + 1, 10**18, 2**14).tolist()] + ["1", "-1", "10", "999999999999999999"]
    assert len(tokens) > 200_000
    assert np.array_equal(parsed_floats(tokens).view(np.uint64), json_floats(tokens).view(np.uint64))


# A layout of an integer field and a float field a line.
INT_AND_FLOAT = _numtext.LineLayout(["[", ",", "]\n"], np.array([False, True]))


@pytest.mark.parametrize("token", [
    "01", "-01", "00", "1.", ".5", "-.5", "+1", "1e", "1e+", "1E-", "--1", "1.5.5", "1e5e5", "1.e5", "1e5.5", "-",
    "1-2", "1+", "0x1", "1_0", " 1", "1 ", "NaN", "Infinity", "-Infinity", "true", "null", '"1"', "",
    "1234567890123456789",  # an integer past 18 digits, which numpy would not read as json's int
])
def test_parse_lines_refuses_a_float_field_json_reads_otherwise(token):
    text = f"[7,1.5]\n[7,{token}]\n".encode()
    assert _numtext.parse_lines(_numtext.PAD + text, 2, INT_AND_FLOAT) is None


@pytest.mark.parametrize("token", ["-1", "-0", "1.0", "1e0", "01", "+1", "18446744073709551616", "99999999999999999999", "100000000000000000000"])
def test_parse_lines_refuses_an_integer_field_of_other_than_digits_below_2_64(token):
    text = f"[7,1.5]\n[{token},1.5]\n".encode()
    assert _numtext.parse_lines(_numtext.PAD + text, 2, INT_AND_FLOAT) is None


def test_parse_lines_reads_integer_fields_up_to_2_64():
    tokens = ["0", "7", "18446744073709551615", "18446744073709551614", "10000000000000000000", "9999999999999999999"]
    text = "".join(f"[{t},0.5]\n" for t in tokens).encode()
    floats, ints = _numtext.parse_lines(_numtext.PAD + text, len(tokens), INT_AND_FLOAT)
    assert ints[:, 0].tolist() == [int(t) for t in tokens] and floats[:, 0].tolist() == [0.5] * len(tokens)


def test_integer_revenue_terms_act_as_their_floats(tmp_path):
    # Above 2**53 an int sum differs from the sum of the floats: 1 + (2**53 + 1)
    # is 2**53 + 2 exactly, while 1.0 + float(2**53 + 1) rounds to 2**53.
    spec = GenSpec(n=3, m=2, k=2, revenue=RevenueTerms(a=1, b=2**53 + 1, omega=0, xi=1))
    data = generate_dataset(spec, 40, 3)
    a, b, omega, xi = np.array([1, 2**53 + 1, 0, 1], dtype=np.float64)
    per_support = 0.5 * (a + b) * (omega + xi)
    assert per_support != 0.5 * (1 + 2**53 + 1) * (0 + 1)
    for rec in data.records:
        assert rec.r_a == loop_revenue(rec.q, rec.instance.lam, per_support, rec.label.per_segment)
    assert_writes_the_reference(data, tmp_path)
    assert read_dataset(tmp_path / "written.jsonl") == data
