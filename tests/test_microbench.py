"""Microbenchmarks of the hot kernels, with pytest-benchmark.

They are deselected by default; run them with

    PYTHONPATH=src python -m pytest -m microbench tests/test_microbench.py
"""

import numpy as np
import pytest

from assort_mnl.bench import DEFAULT_MASTER_SEED, preset
from assort_mnl.core import DEFAULT_MAX_ITER, DEFAULT_TOL, ONE_START, SHARED, _solve_stack, solve_fixed_point
from assort_mnl.generate import _stack, generate_instance, record_seed
from assort_mnl.learner import _decode_blocks

pytestmark = pytest.mark.microbench

SPEC = preset("case3p5").spec


def test_solve_one_record(benchmark):
    instance = generate_instance(SPEC, record_seed(DEFAULT_MASTER_SEED, 0))
    assert benchmark(solve_fixed_point, instance).converged


def test_solve_stack_of_500_records(benchmark):
    instances = [generate_instance(SPEC, record_seed(DEFAULT_MASTER_SEED, t)) for t in range(500)]
    stacked = _stack(instances, "y", "alpha", "beta", "F", "lam")
    _, _, _, converged = benchmark(_solve_stack, *stacked, ONE_START, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert converged.all()


def test_decode_blocks_of_10000_rows(benchmark):
    n, m, k = 5, 2, 2
    scores = np.random.default_rng(1).uniform(-0.5, 1.5, size=(10_000, n * m))
    assert benchmark(_decode_blocks, scores, k, n, m, SHARED).shape == (10_000, m, k)
