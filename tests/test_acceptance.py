"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import shutil
import subprocess
import sys
import time
from itertools import combinations, product

import numpy as np
import pytest
from scipy.special import expit

from assort_mnl import (
    FeatureLayout,
    GenSpec,
    ProblemInstance,
    evaluate,
    fit_linear,
    generate_dataset,
    generate_instance,
    optimize_assortment,
    preset,
    solve_fixed_point,
    split_dataset,
    training_matrices,
)
from assort_mnl.core import ONE_START, PER_SEGMENT, SHARED, ZERO_START, _block_revenue, _fixed_utility, _utility
from assort_mnl.learner import _decode_blocks, _predict
from enumeration_oracle import enumerate_optimum


def report(num, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def demand_map(inst, q):
    """One pass of the fixed-point iteration, q -> sigma(V(q)), as the solve computes it."""
    return expit(_utility(_fixed_utility(inst.y, inst.beta, inst.F), inst.alpha, inst.lam, q))


def pipeline_metrics(name, count, seed):
    cfg = preset(name, count=count, master_seed=seed)
    data = generate_dataset(cfg.spec, count, seed)
    train, test = split_dataset(data, cfg.train_fraction)
    X, Y, layout = training_matrices(train)
    model = fit_linear(X, Y, layout)
    rep = evaluate(model, test)
    r_a_mean_all = float(np.mean([r.r_a for r in data.records]))
    return rep, r_a_mean_all


def test_criterion_01_closed_form_alpha_zero():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        n, m = (i % 5) + 1, (i % 2) + 1
        spec = GenSpec(n=n, m=m, M=50.0, network_effects=False)
        inst = generate_instance(spec, seed=1_000 + i)
        expected = expit(inst.y - inst.beta * inst.F[:, None])
        for start in (ZERO_START, ONE_START):
            sol = solve_fixed_point(inst, start)
            worst = max(worst, float(np.max(np.abs(sol.q - expected))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.2e} over 1000 instances in {elapsed:.2f}s",
    )


def test_criterion_02_monotone_iterates_and_bracketing():
    t0 = time.perf_counter()
    tol = 1e-10
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        inst = generate_instance(GenSpec(n=n, m=m, M=50.0), seed=int(rng.integers(2**63)))
        limits = {}
        for start, q0, sign in ((ZERO_START, np.zeros((n, m)), 1.0),
                                (ONE_START, np.ones((n, m)), -1.0)):
            q = q0
            for _ in range(10_000):
                q_next = demand_map(inst, q)
                ok = ok and bool(np.all(sign * (q_next - q) >= -1e-12))
                done = np.max(np.abs(q_next - q)) <= tol
                q = q_next
                if done:
                    break
            limits[start] = q
        ok = ok and bool(np.all(limits[ZERO_START] <= limits[ONE_START] + 2 * tol))
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 10.0, f"200 instances checked in {elapsed:.2f}s")


def test_criterion_03_multiple_fixed_points():
    inst = ProblemInstance(y=[[0.0]], alpha=[[10.0]], beta=[[1.0]], F=[5.0], lam=[1.0])

    def bisect(lo, hi):
        # Independent oracle: bisection on q - sigma(10 q - 5).
        f = lambda q: q - 1.0 / (1.0 + np.exp(-(10.0 * q - 5.0)))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    low_root, high_root = bisect(1e-12, 0.4), bisect(0.6, 1.0 - 1e-12)
    lo = solve_fixed_point(inst, ZERO_START)
    hi = solve_fixed_point(inst, ONE_START)
    mid_exact = demand_map(inst, np.array([[0.5]]))[0, 0] == 0.5
    ok = (
        lo.converged
        and hi.converged
        and abs(lo.q[0, 0] - low_root) <= 1e-3
        and abs(hi.q[0, 0] - high_root) <= 1e-3
        and mid_exact
    )
    report(
        3,
        ok,
        f"zero-start {lo.q[0, 0]:.6f} vs {low_root:.6f}, "
        f"one-start {hi.q[0, 0]:.6f} vs {high_root:.6f}, midpoint exact: {mid_exact}",
    )


def _shape_instances(count_per_shape=500):
    shapes = ((2, 1), (3, 1), (5, 1), (2, 2))
    for n, m in shapes:
        spec = GenSpec(n=n, m=m, M=50.0)
        for i in range(count_per_shape):
            yield generate_instance(spec, seed=(n * 1000 + m) * 100_000 + i)


def test_criterion_04_and_05_oracle_equivalence_and_monotone_revenue():
    t0 = time.perf_counter()
    agree = True
    monotone = True
    bounded = True
    checked = 0
    for inst in _shape_instances():
        last_w = 0.0
        for k in range(1, inst.n + 1):
            best, w, sol = optimize_assortment(inst, k)
            oracle = enumerate_optimum(inst, k, sol.q)
            w_oracle = float(_block_revenue(sol.q, inst.lam, inst.revenue.per_support, np.array(oracle.per_segment)))
            agree = agree and best == oracle and abs(w - w_oracle) <= 1e-12
            monotone = monotone and w >= last_w
            # Segment weights sum to 1 only within 1e-12 (normalization in
            # floats), so the exact per-product ceiling carries that slack:
            # W <= 0.44 k sum(lam) <= 0.44 k (1 + 1e-12).
            bounded = bounded and w <= 0.44 * k * (1 + 1e-12)
            last_w = w
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        agree and elapsed < 30.0,
        f"{checked} (instance, k) pairs agreed in {elapsed:.2f}s",
    )
    report(5, monotone and bounded, f"W*(k) nondecreasing and <= 0.44k on all {checked} pairs")


def test_criterion_06_network_effect_uplift():
    t0 = time.perf_counter()
    seed = 1
    _, mean_on = pipeline_metrics("case1p1", 500, seed)
    _, mean_off = pipeline_metrics("case1p2", 500, seed)
    uplift = (mean_on - mean_off) / mean_on
    elapsed = time.perf_counter() - t0
    report(
        6,
        uplift >= 0.10 and elapsed < 30.0,
        f"mean r_a {mean_on:.4f} (on) vs {mean_off:.4f} (off): "
        f"uplift {uplift:.1%} in {elapsed:.2f}s",
    )


def test_criterion_07_difficulty_trend():
    seeds = (1, 2, 3)
    rep_easy, _ = pipeline_metrics("case1p1", 500, seeds[0])
    rep_hard, _ = pipeline_metrics("case3p1", 500, seeds[0])
    error_trend = rep_easy.error_rate < rep_hard.error_rate

    monotone_seeds = 0
    sweeps = []
    for seed in seeds:
        prls = []
        for name in ("case3p1", "case3p3", "case3p4", "case3p5"):
            rep, _ = pipeline_metrics(name, 500, seed)
            prls.append(rep.mean_prl_percent)
        sweeps.append(prls)
        if all(prls[i] < prls[i + 1] for i in range(3)):
            monotone_seeds += 1
    detail = (
        f"error rate {rep_easy.error_rate:.3f} (n=2) < {rep_hard.error_rate:.3f} (n=5): "
        f"{error_trend}; PRL sweeps k=1..4 "
        + "; ".join("[" + ", ".join(f"{p:.2f}" for p in s) + "]" for s in sweeps)
        + f"; monotone in {monotone_seeds}/3 seeds"
    )
    report(7, error_trend and monotone_seeds >= 2, detail)


def test_criterion_08_regression_correctness():
    rng = np.random.default_rng(8)
    layout = FeatureLayout(2, 1)  # d = 6
    X = rng.uniform(0, 50, size=(375, layout.d))
    b0 = rng.normal(size=layout.label_slots)
    B0 = rng.normal(size=(layout.label_slots, layout.d))
    Y = b0 + X @ B0.T
    model = fit_linear(X, Y, layout)
    predictions = _predict(model, X)
    max_err = float(np.max(np.abs(predictions - Y)))
    A = np.column_stack([np.ones(len(X)), X])
    residual = Y - A @ np.vstack([model.intercept, model.coefficients.T])
    rel_orth = float(
        np.max(np.abs(A.T @ residual)) / (np.linalg.norm(A) * np.linalg.norm(Y))
    )
    report(
        8,
        max_err <= 1e-8 and rel_orth <= 1e-8,
        f"reconstruction error {max_err:.2e}, relative orthogonality {rel_orth:.2e}",
    )


def test_criterion_09_decode_equivalence_on_grid():
    # Scores live on the 0.1 grid, so distances are compared exactly in
    # integer units of 0.01: a plain float sum of squares breaks true ties
    # through non-associativity and would misreport the nearest indicator.
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for n, m in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
        for k in range(1, min(n, 2) + 1):
            candidates = [
                blocks for blocks in product(combinations(range(n), k), repeat=m)
            ]
            # Squared distances stay below 6 * 10**2, exact in int16.
            indicators10 = np.zeros((len(candidates), n * m), dtype=np.int16)
            for c, blocks in enumerate(candidates):
                for j, block in enumerate(blocks):
                    for i in block:
                        indicators10[c, i * m + j] = 10
            # Every vector of the grid 0, 0.1, ..., 1 (10x) in lexicographic
            # order, stored one slot per row.
            slots10 = np.indices((11,) * (n * m), dtype=np.int16).reshape(n * m, -1)
            # Exact l2-nearest valid indicator, accumulated slot by slot;
            # candidate order is lexicographic so argmin ties resolve to the
            # declared rule.
            d2 = sum((slots10[s] - indicators10[:, s, None]) ** 2 for s in range(n * m))
            nearest = np.argmin(d2, axis=0)
            decoded = _decode_blocks(slots10.T / 10.0, k, n, m, PER_SEGMENT)
            expected = np.array(candidates)[nearest]
            mismatches += int(np.any(decoded != expected, axis=(1, 2)).sum())
            total += len(nearest)
    elapsed = time.perf_counter() - t0
    report(
        9,
        mismatches == 0,
        f"{total} grid vectors decoded in one batch per shape, {mismatches} mismatches, "
        f"in {elapsed:.2f}s",
    )


def test_criterion_10_cli_determinism_and_scale(tmp_path):
    exe = shutil.which("assort-mnl")
    base = [exe] if exe else [sys.executable, "-m", "assort_mnl"]
    digests = []
    slowest = 0.0
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        t0 = time.perf_counter()
        proc = subprocess.run(
            base
            + ["case", "--preset", "case4", "--count", "500", "--seed", "11",
               "--out", str(out)],
            capture_output=True,
            text=True,
        )
        slowest = max(slowest, time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr
        digests.append((out / "case4_dataset.jsonl").read_bytes())
    identical = digests[0] == digests[1]
    report(
        10,
        identical and slowest < 60.0,
        f"two runs in <= {slowest:.2f}s each, dataset files identical: {identical}",
    )
