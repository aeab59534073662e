"""Tests of the benchmark itself: each check rejects a wrong answer, and
every workload runs to its end at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import assort_mnl  # noqa: E402
from assort_mnl import bench, cli, generate, learner  # noqa: E402
from assort_mnl.generate import GenSpec  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

TINY = {
    "presets": {"count": 40},
    "wide_menu": {"shared_count": 2, "per_segment_count": 1},
    "learn_io": {"count": 100},
}


def _dataset(mode, n=5, m=1, k=2, count=40, seed=3):
    ds = generate.generate_dataset(GenSpec(n=n, m=m, k=k, mode=mode), count, seed)
    return ds, checks.batch_from_records(ds.records, k)


@pytest.fixture(scope="module")
def shared():
    return _dataset(checks.SHARED)


@pytest.fixture(scope="module")
def per_segment():
    return _dataset(checks.PER_SEGMENT, n=4, m=2)


def _with(batch, **arrays):
    return replace(batch, **{name: fn(getattr(batch, name).copy()) for name, fn in arrays.items()})


def test_program_output_passes(shared, per_segment):
    checks.check_dataset(shared[1], checks.SHARED)
    checks.check_dataset(per_segment[1], checks.PER_SEGMENT)


def _swap_label(label):
    # Move one of segment 0's offered places to a product not offered there.
    first_in = np.flatnonzero(label[0, :, 0])[0]
    first_out = np.flatnonzero(~label[0, :, 0])[0]
    label[0, first_in, 0], label[0, first_out, 0] = False, True
    return label


def test_swapped_label_is_rejected(shared, per_segment):
    with pytest.raises(CheckError, match="stable top-k"):
        checks.check_labels(_with(shared[1], label=_swap_label), checks.SHARED)
    with pytest.raises(CheckError, match="stable top-k"):
        checks.check_labels(_with(per_segment[1], label=_swap_label), checks.PER_SEGMENT)


def test_zero_weight_segment_gets_the_first_k_products():
    q = np.array([[[0.2, 0.9], [0.8, 0.1], [0.5, 0.7]]])
    lam = np.array([[1.0, 0.0]])
    label = checks.optimal_label(q, lam, 2, checks.PER_SEGMENT)
    assert label[0].tolist() == [[False, True], [True, True], [True, False]]


def test_perturbed_q_is_rejected(shared):
    def nudge(q):
        q[0, 0, 0] = q[0, 0, 0] - 1e-6 if q[0, 0, 0] > 0.5 else q[0, 0, 0] + 1e-6
        return q

    with pytest.raises(CheckError, match="sigma"):
        checks.check_support(_with(shared[1], q=nudge))


def test_q_outside_unit_interval_is_rejected(shared):
    def lift(q):
        q[1, 0, 0] = 1.0 + 1e-9
        return q

    with pytest.raises(CheckError, match=r"\[0, 1\]"):
        checks.check_support(_with(shared[1], q=lift))


def test_wrong_revenue_is_rejected(shared):
    def scale(r_a):
        r_a[0] *= 1.001
        return r_a

    with pytest.raises(CheckError, match="label's revenue"):
        checks.check_revenue(_with(shared[1], r_a=scale))

    # A record whose every product is fully supported may not exceed 0.44 k.
    full = _with(shared[1], q=lambda q: np.ones_like(q), per_support=lambda p: p * 2)
    full = replace(full, r_a=checks.revenue(full, full.label))
    with pytest.raises(CheckError, match="0.44 k"):
        checks.check_revenue(full)


def _fit_and_evaluate(ds, batch):
    train, test = bench.split_dataset(ds, 0.75)
    X, Y, layout = bench.training_matrices(train)
    model = learner.fit_linear(X, Y, layout)
    report = learner.evaluate(model, test).to_dict()
    return model, report, checks.split_rows(batch, ds.count, 0.75)


def test_fit_off_the_normal_equations_is_rejected(shared):
    model, _, (train, _) = _fit_and_evaluate(*shared)
    checks.check_fit(train, model.intercept, model.coefficients)
    coefficients = model.coefficients.copy()
    coefficients[0, 0] += 1e-3
    with pytest.raises(CheckError, match="normal equations"):
        checks.check_fit(train, model.intercept, coefficients)


def test_wrong_evaluation_is_rejected(per_segment):
    model, report, (_, test) = _fit_and_evaluate(*per_segment)
    checks.check_evaluation(test, model.intercept, model.coefficients, checks.PER_SEGMENT, report)

    flipped = json.loads(json.dumps(report))
    flipped["examples"][0]["misclassified"] = not flipped["examples"][0]["misclassified"]
    with pytest.raises(CheckError, match="misclassification"):
        checks.check_evaluation(test, model.intercept, model.coefficients, checks.PER_SEGMENT, flipped)

    negative = json.loads(json.dumps(report))
    negative["examples"][0]["prl"] = -1e-9
    with pytest.raises(CheckError, match="PRL"):
        checks.check_evaluation(test, model.intercept, model.coefficients, checks.PER_SEGMENT, negative)

    wrong_rate = dict(report, error_rate=report["error_rate"] + 1.0 / len(test))
    with pytest.raises(CheckError, match="error_rate"):
        checks.check_evaluation(test, model.intercept, model.coefficients, checks.PER_SEGMENT, wrong_rate)


def _names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_tiny_size(name, trace, tmp_path):
    result, _ = harness.run(name, seed=7, seconds=0, trace=trace, workdir=tmp_path, imports_s=0.0, **TINY[name])
    assert result["correct"] and result["failed"] == 0
    per_pass = workloads.WORKLOADS[name](7, tmp_path, **TINY[name]).records_per_pass
    assert result["attempted"] == harness.MIN_PASSES * (2 if trace else 1) * per_pass
    assert list(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # Tracing leaves the program as it found it.
    assert cli.main.__module__ == "assort_mnl.cli" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(assort_mnl.generate_dataset, "__wrapped__")


def test_speed_probe_takes_its_own_time_out_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as timed:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    # One probe on entry, one on exit, and the timer's in between.
    assert len(timed.samples) >= 4
    assert 0 < timed.work_s < timed.wall_s
    assert timed.wall_s - timed.work_s == pytest.approx(sum(timed.samples[1:-1]))
    assert timed.speed == pytest.approx(statistics.fmean(speed.REFERENCE_PROBE_S / s for s in timed.samples))
    assert timed.reference_s == pytest.approx(timed.work_s * timed.speed)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_with_other_output_is_rejected(tmp_path, monkeypatch):
    real = generate.generate_dataset
    calls = []

    def drifting(spec, count, seed):
        calls.append(1)
        return real(spec, count, seed + (len(calls) > 2))

    monkeypatch.setattr(generate, "generate_dataset", drifting)
    with pytest.raises(CheckError, match="other output"):
        harness.run("wide_menu", seed=7, seconds=0, trace=False, workdir=tmp_path, imports_s=0.0,
                    **TINY["wide_menu"])


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
