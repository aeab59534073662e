"""Unit and property tests for the choice core."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import expit

from assort_mnl import (
    Assortment,
    NonConvergenceError,
    ProblemInstance,
    RevenueTerms,
    optimize_assortment,
    solve_fixed_point,
)
from assort_mnl.core import (
    DEFAULT_MAX_ITER,
    ONE_START,
    PER_SEGMENT,
    SHARED,
    ZERO_START,
    _best_blocks,
    _block_revenue,
    _fixed_utility,
    _mass,
    _utility,
)
from assort_mnl.generate import GenSpec, generate_dataset
from assort_mnl.learner import FeatureLayout, PredictorModel
from enumeration_oracle import enumerate_optimum


def make_instance(y, alpha, F, lam, beta=None, revenue=None):
    return ProblemInstance(
        y=y,
        alpha=alpha,
        beta=beta,
        F=F,
        lam=lam,
        revenue=revenue or RevenueTerms(),
    )


def random_instance(rng, n, m, M=50.0, alpha_scale=1.0):
    y = rng.uniform(0, M, (n, m))
    alpha = rng.uniform(0, M, (n, m)) * alpha_scale
    F = rng.uniform(0, M, n)
    lam = rng.uniform(0, M, m)
    return make_instance(y, alpha, F, lam / lam.sum())


def logit(p):
    return np.log(p / (1.0 - p))


def mean_utility(inst, q):
    """The mean utilities V(q) (n, m) of an instance at supports q, as the solve computes them."""
    return _utility(_fixed_utility(inst.y, inst.beta, inst.F), inst.alpha, inst.lam, np.asarray(q, dtype=float))


def demand_map(inst, q):
    """One pass of the fixed-point iteration: q -> sigma(V(q))."""
    return expit(mean_utility(inst, q))


def revenue(inst, blocks, q):
    """Expected revenue of offering the per-segment ``blocks`` at supports ``q``, as labeling computes it."""
    return float(_block_revenue(np.asarray(q, dtype=float), inst.lam, inst.revenue.per_support, np.asarray(blocks)))


def label_assortment(inst, k, q, mode=SHARED):
    """The optimal size-k assortment at supports ``q``, as labeling selects it."""
    blocks = _best_blocks(np.asarray(q, dtype=float)[None], inst.lam[None], k, mode)[0]
    return Assortment(per_segment=blocks.tolist(), k=k)


class TestRevenueTerms:
    def test_default_per_support_is_044(self):
        assert RevenueTerms().per_support == pytest.approx(0.44, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RevenueTerms(a=5.0, b=1.0)
        with pytest.raises(ValueError):
            RevenueTerms(a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            RevenueTerms(omega=1.5)
        with pytest.raises(ValueError):
            RevenueTerms(xi=-0.1)
        with pytest.raises(ValueError):
            RevenueTerms(b=float("inf"))


class TestProblemInstance:
    def test_shapes_and_defaults(self):
        inst = make_instance([[1.0, 2.0]], [[0.0, 0.0]], [3.0], [0.4, 0.6])
        assert inst.n == 1 and inst.m == 2
        assert np.array_equal(inst.beta, np.ones((1, 2)))

    def test_arrays_frozen(self):
        inst = make_instance([[1.0]], [[0.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            inst.y[0, 0] = 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_instance([[1.0]], [[0.0, 0.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            make_instance([[1.0]], [[0.0]], [0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            make_instance([[1.0]], [[0.0]], [0.0], [0.5, 0.5])

    def test_invariants(self):
        with pytest.raises(ValueError):
            make_instance([[1.0]], [[-0.1]], [0.0], [1.0])
        with pytest.raises(ValueError):
            make_instance([[1.0]], [[0.0]], [-1.0], [1.0])
        with pytest.raises(ValueError):
            make_instance([[1.0]], [[0.0]], [0.0], [0.9])
        with pytest.raises(ValueError):
            make_instance([[np.inf]], [[0.0]], [0.0], [1.0])

    def test_equality_is_exact(self):
        a = make_instance([[1.0]], [[2.0]], [3.0], [1.0])
        b = make_instance([[1.0]], [[2.0]], [3.0], [1.0])
        c = make_instance([[1.0 + 1e-16]], [[2.0]], [3.0], [1.0])
        assert a == b
        assert (a == c) == (1.0 + 1e-16 == 1.0)


def equality_cases():
    """A value of each array-holding type, a float array field, another field and another value for it."""
    dataset = generate_dataset(GenSpec(n=3, m=2, k=2), 20, 5)
    record = dataset.records[0]
    layout = FeatureLayout(3, 2)
    model = PredictorModel(np.linspace(0.0, 1.0, layout.label_slots), np.ones((layout.label_slots, layout.d)), layout)
    return [
        pytest.param(record.instance, "y", "revenue", RevenueTerms(a=2.0), id="ProblemInstance"),
        pytest.param(solve_fixed_point(record.instance), "q", "iterations", 1, id="SupportSolution"),
        pytest.param(record, "q", "r_a", record.r_a + 1.0, id="DatasetRecord"),
        pytest.param(dataset, "y", "master_seed", 6, id="LabeledDataset"),
        pytest.param(model, "coefficients", "rank_deficient", True, id="PredictorModel"),
    ]


def copy_with(value, **changes):
    """A copy of the dataclass ``value`` holding copies of its arrays, fields replaced by ``changes`` unchecked."""
    copied = copy.copy(value)
    for field in dataclasses.fields(value):
        new = changes.get(field.name, getattr(value, field.name))
        object.__setattr__(copied, field.name, new.copy() if isinstance(new, np.ndarray) else new)
    return copied


class TestValueEquality:
    @pytest.mark.parametrize("value,array,field,other", equality_cases())
    def test_equal_field_by_field_and_unhashable(self, value, array, field, other):
        assert copy_with(value) == value and value == copy_with(value)
        changed = getattr(value, array).copy()
        changed.flat[-1] += 1.0
        assert copy_with(value, **{array: changed}) != value
        assert copy_with(value, **{field: other}) != value
        nan = getattr(value, array).copy()
        nan.flat[0] = np.nan
        with_nan = copy_with(value, **{array: nan})
        assert with_nan != copy_with(with_nan)
        assert (value == object()) is False
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def support_mass(inst, q):
    """The support mass s_i = sum_j lam_j q_ij behind each product."""
    return _mass(np.asarray(q, dtype=float), inst.lam)


class TestSupportMass:
    def test_single_segment_weight_one(self):
        inst = make_instance([[0.0]], [[0.0]], [0.0], [1.0])
        assert support_mass(inst, [[0.5]]) == pytest.approx(0.5)

    def test_weights_sum_to_one(self):
        inst = make_instance([[0.0, 0.0]], [[0.0, 0.0]], [0.0], [0.4, 0.6])
        assert support_mass(inst, [[1.0, 1.0]])[0] == pytest.approx(1.0)

    def test_hand_weighted_average(self):
        # 0.4 * 0.5 + 0.6 * 0.25 = 0.35
        inst = make_instance([[0.0, 0.0]], [[0.0, 0.0]], [0.0], [0.4, 0.6])
        assert support_mass(inst, [[0.5, 0.25]])[0] == pytest.approx(0.35)


class TestMeanUtility:
    def test_all_zero(self):
        inst = make_instance([[0.0]], [[0.0]], [0.0], [1.0])
        assert mean_utility(inst, [[0.3]])[0, 0] == 0.0

    def test_hand_value(self):
        # 5 - 1*5 + 10*0.5 = 5
        inst = make_instance([[5.0]], [[10.0]], [5.0], [1.0])
        assert mean_utility(inst, [[0.5]])[0, 0] == 5.0

    def test_alpha_zero_independent_of_q(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 3, 2, alpha_scale=0.0)
        v1 = mean_utility(inst, np.zeros((3, 2)))
        v2 = mean_utility(inst, rng.uniform(0, 1, (3, 2)))
        assert np.array_equal(v1, v2)


class TestChoiceProbability:
    """sigma is scipy's expit, which the solve applies to the mean utilities."""

    def test_zero_is_half(self):
        assert expit(np.zeros((1, 1)))[0, 0] == 0.5

    def test_value_at_five(self):
        assert expit(np.array([[5.0]]))[0, 0] == pytest.approx(0.993307, abs=5e-7)

    def test_extreme_negative_stays_positive(self):
        p = expit(np.array([[-50.0]]))
        assert np.isfinite(p).all() and p[0, 0] > 0.0

    def test_no_overflow_at_huge_magnitudes(self):
        with np.errstate(over="raise"):
            p = expit(np.array([[-800.0, 800.0]]))
        assert np.isfinite(p).all()

    def test_rejects_non_finite(self):
        # y + alpha * s = 1e308 + 1e308 overflows, which the solve refuses.
        inst = make_instance([[1e308]], [[1e308]], [0.0], [1.0])
        for start in (ZERO_START, ONE_START):
            with pytest.raises(ValueError, match="^mean utilities must be finite$"):
                solve_fixed_point(inst, start)


class TestSolveFixedPoint:
    def test_alpha_zero_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inst = random_instance(rng, 4, 2, alpha_scale=0.0)
            expected = expit(inst.y - inst.F[:, None])
            for start in (ZERO_START, ONE_START):
                sol = solve_fixed_point(inst, start)
                assert sol.converged
                assert np.max(np.abs(sol.q - expected)) <= 1e-10

    def test_multiple_fixed_points_bracketed(self):
        inst = make_instance([[0.0]], [[10.0]], [5.0], [1.0])

        def bisect(lo, hi):
            # Independent root finder for q - sigma(10 q - 5).
            f = lambda q: q - 1.0 / (1.0 + np.exp(-(10.0 * q - 5.0)))
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        low_root = bisect(1e-12, 0.4)
        high_root = bisect(0.6, 1.0 - 1e-12)
        lo = solve_fixed_point(inst, ZERO_START)
        hi = solve_fixed_point(inst, ONE_START)
        assert lo.converged and hi.converged
        assert lo.q[0, 0] == pytest.approx(low_root, abs=1e-3)
        assert hi.q[0, 0] == pytest.approx(high_root, abs=1e-3)
        # The unstable middle fixed point is exact at one half.
        assert demand_map(inst, np.array([[0.5]]))[0, 0] == 0.5

    def test_monotone_iterates_and_bracketing(self):
        rng = np.random.default_rng(2)
        tol = 1e-10
        for _ in range(25):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
            inst = random_instance(rng, n, m)
            limits = {}
            for start, q0, sign in ((ZERO_START, np.zeros((n, m)), 1.0),
                                    (ONE_START, np.ones((n, m)), -1.0)):
                q = q0
                for _ in range(10_000):
                    q_next = demand_map(inst, q)
                    assert np.all(sign * (q_next - q) >= -1e-12)
                    done = np.max(np.abs(q_next - q)) <= tol
                    q = q_next
                    if done:
                        break
                limits[start] = q
            assert np.all(limits[ZERO_START] <= limits[ONE_START] + 2 * tol)

    def test_converged_residual_below_tol(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inst = random_instance(rng, 3, 2)
            sol = solve_fixed_point(inst, ONE_START)
            assert sol.converged
            assert sol.residual <= 1e-10
            assert np.all((sol.q >= 0) & (sol.q <= 1))

    def test_max_iter_exhaustion_is_not_an_error(self):
        inst = make_instance([[0.0]], [[10.0]], [5.0], [1.0])
        sol = solve_fixed_point(inst, ZERO_START, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert np.all((sol.q >= 0) & (sol.q <= 1))

    def test_argument_validation(self):
        inst = make_instance([[0.0]], [[0.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            solve_fixed_point(inst, ZERO_START, max_iter=0)
        with pytest.raises(ValueError):
            solve_fixed_point(inst, "both")


    def test_finiteness_is_checked_once_at_the_all_ones_utilities(self):
        # V(1) overflows in segment 0 (c = 1e308, alpha = 1e308, s = 1).  The
        # zero-start iterates stop at q = [1, 0], where s = 0.5 and V =
        # 1.5e308: a check of every pass's V would pass this instance from
        # the zero start, the one check of V(1) before the loop does not.
        inst = make_instance([[1e308, -1e308]], [[1e308, 0.0]], [0.0], [0.5, 0.5])
        with np.errstate(over="ignore"):
            assert np.isfinite(mean_utility(inst, [[1.0, 0.0]])).all()
            assert not np.isfinite(mean_utility(inst, np.ones((1, 2)))).all()
        for start in (ZERO_START, ONE_START):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^mean utilities must be finite$"):
                    solve_fixed_point(inst, start)


class TestExpectedRevenue:
    def test_single_product_full_support(self):
        inst = make_instance([[0.0]], [[0.0]], [0.0], [1.0])
        assert revenue(inst, [[0]], [[1.0]]) == pytest.approx(0.44, abs=1e-15)

    def test_zero_support_zero_revenue(self):
        inst = make_instance([[0.0], [0.0]], [[0.0], [0.0]], [0.0, 0.0], [1.0])
        assert revenue(inst, [[0, 1]], [[0.0], [0.0]]) == 0.0

    def test_per_segment_hand_value(self):
        # 0.44 * (0.5*0.8 + 0.5*0.4) = 0.264
        inst = make_instance(np.zeros((2, 2)), np.zeros((2, 2)), [0.0, 0.0], [0.5, 0.5])
        q = np.array([[0.8, 0.1], [0.2, 0.4]])
        assert revenue(inst, [[0], [1]], q) == pytest.approx(0.264, abs=1e-12)


class TestAssortment:
    def test_blocks_normalized_sorted(self):
        a = Assortment(per_segment=((2, 0),), k=2)
        assert a.per_segment == ((0, 2),)

    def test_cardinality_enforced(self):
        with pytest.raises(ValueError):
            Assortment(per_segment=((0, 1),), k=1)
        with pytest.raises(ValueError):
            Assortment(per_segment=((0, 0),), k=2)


class TestOptimizeAssortment:
    def test_larger_support_wins(self):
        # alpha = 0 so q = sigma(y); product 0 strictly better.
        inst = make_instance([[2.0], [-2.0]], [[0.0], [0.0]], [0.0, 0.0], [1.0])
        best, w, sol = optimize_assortment(inst, k=1)
        assert best.per_segment == ((0,),)
        assert sol.converged

    def test_known_support_levels(self):
        # Choose y so that sigma(y) = (0.1, 0.9, 0.5) exactly, alpha = 0.
        q_target = np.array([0.1, 0.9, 0.5])
        inst = make_instance(
            logit(q_target)[:, None], np.zeros((3, 1)), np.zeros(3), [1.0]
        )
        best, w, _ = optimize_assortment(inst, k=2)
        assert best.per_segment == ((1, 2),)
        assert w == pytest.approx(0.44 * 1.4, abs=1e-9)

    def test_matches_brute_force_enumeration(self):
        from itertools import combinations

        rng = np.random.default_rng(4)
        for _ in range(30):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            inst = random_instance(rng, n, m)
            for k in range(1, n + 1):
                best, w, sol = optimize_assortment(inst, k)
                # Independent recomputation straight from the definition.
                contrib = sol.q @ inst.lam
                factor = inst.revenue.per_support
                brute = max(
                    (factor * contrib[list(c)].sum(), c)
                    for c in combinations(range(n), k)
                )
                assert w == pytest.approx(brute[0], abs=1e-12)
                assert best.per_segment[0] in {
                    c
                    for c in combinations(range(n), k)
                    if factor * contrib[list(c)].sum() >= brute[0] - 1e-15
                }

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            inst = random_instance(rng, n, m)
            for k in range(1, n + 1):
                best, w, sol = optimize_assortment(inst, k)
                oracle = enumerate_optimum(inst, k, sol.q)
                assert best == oracle
                assert w == pytest.approx(
                    revenue(inst, oracle.per_segment, sol.q), abs=1e-12
                )

    def test_revenue_monotone_in_k_and_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n, 1)
            last = 0.0
            for k in range(1, n + 1):
                _, w, _ = optimize_assortment(inst, k)
                assert w >= last
                assert w <= 0.44 * k + 1e-12
                last = w

    def test_per_segment_beats_or_ties_shared(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            inst = random_instance(rng, 3, 2)
            _, w_shared, _ = optimize_assortment(inst, 1, SHARED)
            _, w_per, _ = optimize_assortment(inst, 1, PER_SEGMENT)
            assert w_per >= w_shared - 1e-12

    def test_per_segment_blocks_chosen_independently(self):
        # Segment 0 prefers product 0, segment 1 prefers product 1.
        y = np.array([[3.0, -3.0], [-3.0, 3.0]])
        inst = make_instance(y, np.zeros((2, 2)), np.zeros(2), [0.5, 0.5])
        best, _, _ = optimize_assortment(inst, 1, PER_SEGMENT)
        assert best.per_segment == ((0,), (1,))

    def test_k_out_of_range(self):
        inst = make_instance([[0.0]], [[0.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            optimize_assortment(inst, 0)
        with pytest.raises(ValueError):
            optimize_assortment(inst, 2)
        # So is a mode that is neither shared nor per-segment.
        with pytest.raises(ValueError, match="mode must be"):
            optimize_assortment(inst, 1, "both")

    def test_non_convergence_propagates(self):
        # q = sigma(10 q - F) just past the F at which its upper fixed point
        # vanishes by touching the diagonal (10 - F* of test_array_kernels'
        # tangent_instances): from the one start the iterates creep past the
        # vanished point for more than DEFAULT_MAX_ITER passes.
        sigma = (1.0 - np.sqrt(0.6)) / 2.0
        tangent_F = 10.0 * sigma - np.log(sigma / (1.0 - sigma))
        inst = make_instance([[0.0]], [[10.0]], [10.0 - tangent_F + 1e-12], [1.0])
        with pytest.raises(NonConvergenceError) as exc:
            optimize_assortment(inst, 1)
        assert exc.value.solution.iterations == DEFAULT_MAX_ITER


class TestRevenueOrderedOracle:
    """The revenue-ordered top-k that labels datasets against exhaustive enumeration."""

    def test_tie_prefers_lower_index(self):
        inst = make_instance(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(2), [1.0])
        q = np.full((2, 1), 0.5)
        best = label_assortment(inst, 1, q)
        assert best.per_segment == ((0,),)
        assert best == enumerate_optimum(inst, 1, q)

    def test_tied_pair_both_selected(self):
        inst = make_instance(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3), [1.0])
        q = np.array([[0.2], [0.7], [0.7]])
        best = label_assortment(inst, 2, q)
        assert best.per_segment == ((1, 2),)
        assert best == enumerate_optimum(inst, 2, q)

    def test_per_segment_ranks_unscaled_support(self):
        # Scaling by lam_0 = 0.3 rounds these neighbouring floats to one
        # value; the exact comparison still puts product 1 first.
        a = 0.12265573691637038
        q = np.array([[a, 0.5], [np.nextafter(a, 1.0), 0.2]])
        inst = make_instance(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), [0.3, 0.7])
        assert inst.lam[0] * q[0, 0] == inst.lam[0] * q[1, 0]
        best = label_assortment(inst, 1, q, PER_SEGMENT)
        assert best.per_segment == ((1,), (0,))
        assert best == enumerate_optimum(inst, 1, q, PER_SEGMENT)

    def test_oracle_equivalence_under_heavy_ties(self):
        # y in {-60, 0, 60} with alpha = 0 makes q saturate to {~0, 0.5, 1.0}
        # exactly, so many subsets tie; both routes must still pick the
        # same (lexicographically smallest) optimum.  The per-segment runs
        # give one segment zero weight, where every block ties at zero.
        rng = np.random.default_rng(9)
        rng2 = np.random.default_rng(10)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            y = rng.choice([-60.0, 0.0, 60.0], size=(n, 1))
            inst = make_instance(y, np.zeros((n, 1)), np.zeros(n), [1.0])
            # 1e-3 puts q a hair above 0.5: distinct, but close to a tie.
            y2 = rng2.choice([-60.0, 0.0, 60.0, 1e-3], size=(n, 2))
            lam = [1.0, 0.0] if trial % 2 else [0.0, 1.0]
            inst2 = make_instance(y2, np.zeros((n, 2)), np.zeros(n), lam)
            for k in range(1, n + 1):
                best, w, sol = optimize_assortment(inst, k)
                oracle = enumerate_optimum(inst, k, sol.q)
                assert best == oracle
                assert w == revenue(inst, oracle.per_segment, sol.q)
                best, w, sol = optimize_assortment(inst2, k, PER_SEGMENT)
                oracle = enumerate_optimum(inst2, k, sol.q, PER_SEGMENT)
                assert best == oracle
                assert w == revenue(inst2, oracle.per_segment, sol.q)

    def test_probability_range_strict_at_moderate_scale(self):
        # At M = 15 the utilities stay in float range where sigma is
        # strictly inside (0, 1); larger scales saturate to exactly 1.0.
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_instance(rng, 3, 2, M=15.0)
            sol = solve_fixed_point(inst, ONE_START)
            assert np.all(sol.q > 0.0) and np.all(sol.q < 1.0)
