"""Tests for feature/label encoding, the linear fit, decoding, and evaluation."""

from itertools import combinations, product

import numpy as np
import pytest

from assort_mnl import (
    Assortment,
    EvaluationReport,
    FeatureLayout,
    GenSpec,
    PredictorModel,
    ProblemInstance,
    UnderdeterminedFitError,
    evaluate,
    fit_linear,
    generate_dataset,
    prl,
    read_model,
    write_model,
)
from assort_mnl.core import PER_SEGMENT, SHARED
from assort_mnl.learner import _decode_blocks, _features, _indicators, _predict


def instance_features(inst):
    """The feature vector of one instance, as training and evaluation build it."""
    return _features(inst.y, inst.alpha, inst.F, inst.lam)


def decoded_assortment(scores, k, n, m, mode=SHARED):
    """The assortment decoded from one score vector, as evaluation decodes it."""
    return Assortment(per_segment=_decode_blocks(np.asarray(scores, dtype=float), k, n, m, mode).tolist(), k=k)


def l2_nearest_indicator(scores, k, n, m, mode):
    """Brute-force decode: enumerate every valid indicator, pick the closest.

    Candidates are enumerated in lexicographic order of their per-segment
    sets so that distance ties resolve to the lexicographically smallest
    assortment, matching the declared tie rule.  Distances are compared as
    exact rationals; float sums can break true ties by non-associativity.
    """
    from fractions import Fraction

    scores = [Fraction(float(s)) for s in np.asarray(scores, dtype=float)]
    if mode == SHARED:
        candidates = [
            tuple([c] * m) for c in combinations(range(n), k)
        ]
    else:
        candidates = [
            blocks for blocks in product(combinations(range(n), k), repeat=m)
        ]
    best, best_d = None, None
    for blocks in candidates:
        indicator = [0] * (n * m)
        for j, block in enumerate(blocks):
            for i in block:
                indicator[i * m + j] = 1
        d = sum((s - b) ** 2 for s, b in zip(scores, indicator))
        if best_d is None or d < best_d:
            best, best_d = blocks, d
    return Assortment(per_segment=best, k=k)


class TestFeatureLayout:
    def test_feature_count(self):
        assert FeatureLayout(2, 1).d == 6
        assert FeatureLayout(3, 1).d == 9
        assert FeatureLayout(2, 2).d == 11
        assert FeatureLayout(5, 1).d == 15

    def test_label_slots(self):
        assert FeatureLayout(2, 2).label_slots == 4
        assert FeatureLayout(5, 1).label_slots == 5

    def test_slot_names_match_d(self):
        layout = FeatureLayout(3, 2)
        assert len(layout.slot_names()) == layout.d


class TestEncodeFeatures:
    def test_declared_order_single_segment(self):
        inst = ProblemInstance(
            y=[[1.0], [4.0]], alpha=[[2.0], [5.0]], F=[3.0, 6.0], lam=[1.0]
        )
        x = instance_features(inst)
        assert np.array_equal(x, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_no_weight_slots_for_one_segment(self):
        inst = ProblemInstance(y=[[0.0]], alpha=[[0.0]], F=[0.0], lam=[1.0])
        assert instance_features(inst).shape == (3,)

    def test_weight_slot_for_two_segments(self):
        inst = ProblemInstance(
            y=np.zeros((1, 2)), alpha=np.zeros((1, 2)), F=[0.0], lam=[0.3, 0.7]
        )
        x = instance_features(inst)
        assert x.shape == (6,)
        assert x[-1] == 0.3

    def test_single_slot_difference(self):
        a = ProblemInstance(y=[[1.0], [4.0]], alpha=[[2.0], [5.0]], F=[3.0, 6.0], lam=[1.0])
        b = ProblemInstance(y=[[1.0], [4.0]], alpha=[[2.0], [5.0]], F=[3.0, 7.0], lam=[1.0])
        xa, xb = instance_features(a), instance_features(b)
        assert np.flatnonzero(xa != xb).tolist() == [5]


def encode_label(assortment, n):
    """The label slots of an assortment, as training_matrices makes them."""
    return _indicators(np.array(assortment.per_segment), n)


class TestEncodeLabel:
    def test_single_segment(self):
        assert np.array_equal(
            encode_label(Assortment(((0,),), k=1), n=2), [1.0, 0.0]
        )
        assert np.array_equal(
            encode_label(Assortment(((0, 2),), k=2), n=3), [1.0, 0.0, 1.0]
        )

    def test_product_major_ordering(self):
        # Slots are (p1s1, p1s2, p2s1, p2s2): product 0 in both segments.
        label = Assortment(per_segment=((0,), (0,)), k=1)
        assert np.array_equal(encode_label(label, n=2), [1.0, 1.0, 0.0, 0.0])

    def test_k_ones_per_segment_block(self):
        label = Assortment(per_segment=((0, 1), (1, 2)), k=2)
        encoded = encode_label(label, n=3).reshape(3, 2)
        assert np.array_equal(encoded.sum(axis=0), [2.0, 2.0])


class TestFitLinear:
    def test_exact_affine_recovery(self):
        rng = np.random.default_rng(10)
        layout = FeatureLayout(2, 1)
        X = rng.normal(size=(50, layout.d))
        b0 = rng.normal(size=layout.label_slots)
        B0 = rng.normal(size=(layout.label_slots, layout.d))
        Y = b0 + X @ B0.T
        model = fit_linear(X, Y, layout)
        assert np.max(np.abs(model.intercept - b0)) <= 1e-8
        assert np.max(np.abs(model.coefficients - B0)) <= 1e-8
        assert np.max(np.abs(_predict(model, X) - Y)) <= 1e-8

    def test_constant_targets(self):
        rng = np.random.default_rng(11)
        layout = FeatureLayout(2, 1)
        X = rng.normal(size=(40, layout.d))
        Y = np.full((40, layout.label_slots), 0.7)
        model = fit_linear(X, Y, layout)
        assert np.max(np.abs(model.coefficients)) <= 1e-10
        assert np.allclose(model.intercept, 0.7, atol=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(12)
        layout = FeatureLayout(2, 1)
        X = rng.normal(size=(375, layout.d))
        Y = rng.normal(size=(375, layout.label_slots))
        model = fit_linear(X, Y, layout)
        A = np.column_stack([np.ones(len(X)), X])
        residual = Y - A @ np.vstack([model.intercept, model.coefficients.T])
        gram = A.T @ residual
        scale = np.linalg.norm(A) * np.linalg.norm(Y)
        assert np.max(np.abs(gram)) / scale <= 1e-8

    def test_local_least_squares_optimality(self):
        rng = np.random.default_rng(13)
        layout = FeatureLayout(2, 1)
        X = rng.normal(size=(60, layout.d))
        Y = rng.normal(size=(60, layout.label_slots))
        model = fit_linear(X, Y, layout)
        A = np.column_stack([np.ones(len(X)), X])
        W = np.vstack([model.intercept, model.coefficients.T])
        base = np.sum((Y - A @ W) ** 2)
        for _ in range(25):
            direction = rng.normal(size=W.shape)
            direction /= np.linalg.norm(direction)
            perturbed = np.sum((Y - A @ (W + 1e-6 * direction)) ** 2)
            assert perturbed >= base - 1e-15

    def test_underdetermined_rejected(self):
        layout = FeatureLayout(2, 1)
        X = np.zeros((6, layout.d))
        Y = np.zeros((6, layout.label_slots))
        with pytest.raises(UnderdeterminedFitError):
            fit_linear(X, Y, layout)

    def test_rank_deficient_flagged_minimum_norm(self):
        rng = np.random.default_rng(14)
        layout = FeatureLayout(2, 1)
        X = rng.normal(size=(40, layout.d))
        X[:, 1] = X[:, 0]  # duplicate column
        Y = rng.normal(size=(40, layout.label_slots))
        model = fit_linear(X, Y, layout)
        assert model.rank_deficient
        # Minimum-norm solution splits the shared weight equally.
        assert np.allclose(model.coefficients[:, 0], model.coefficients[:, 1], atol=1e-8)


class TestPredictScores:
    def test_zero_coefficients_return_intercept(self):
        layout = FeatureLayout(2, 1)
        model = PredictorModel(
            intercept=np.array([0.3, 0.7]),
            coefficients=np.zeros((2, layout.d)),
            layout=layout,
        )
        x = np.ones(layout.d)
        assert np.array_equal(_predict(model, x), [0.3, 0.7])

    def test_affine_linearity(self):
        rng = np.random.default_rng(15)
        layout = FeatureLayout(2, 1)
        model = PredictorModel(
            intercept=rng.normal(size=2),
            coefficients=rng.normal(size=(2, layout.d)),
            layout=layout,
        )
        x1, x2 = rng.normal(size=layout.d), rng.normal(size=layout.d)
        zero = _predict(model, np.zeros(layout.d))
        lhs = _predict(model, x1 + x2) - zero
        rhs = (_predict(model, x1) - zero) + (_predict(model, x2) - zero)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestDecodeAssortment:
    def test_spec_distances_example(self):
        # distances^2 to the three indicators: 0.29 < 0.89 < 1.29.
        best = decoded_assortment([0.7, 0.4, 0.2], k=1, n=3, m=1)
        assert best.per_segment == ((0,),)

    def test_top_two(self):
        best = decoded_assortment([0.9, 0.8, 0.1], k=2, n=3, m=1)
        assert best.per_segment == ((0, 1),)

    def test_per_segment_assignment(self):
        best = decoded_assortment(
            [0.9, 0.2, 0.3, 0.8], k=1, n=2, m=2, mode=PER_SEGMENT
        )
        assert best.per_segment == ((0,), (1,))

    def test_tie_prefers_lower_index(self):
        best = decoded_assortment([0.5, 0.5, 0.1], k=1, n=3, m=1)
        assert best.per_segment == ((0,),)

    def test_matches_l2_oracle_random(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            k = int(rng.integers(1, n + 1))
            mode = SHARED if rng.random() < 0.5 else PER_SEGMENT
            scores = rng.uniform(-0.5, 1.5, n * m)
            assert decoded_assortment(scores, k, n, m, mode) == l2_nearest_indicator(
                scores, k, n, m, mode
            )

    def test_matches_l2_oracle_on_ties(self):
        for scores in ([0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [0.3, 0.3, 0.3]):
            n = len(scores)
            assert decoded_assortment(scores, 1, n, 1) == l2_nearest_indicator(
                scores, 1, n, 1, SHARED
            )


class TestPRL:
    def test_no_loss(self):
        assert prl(0.5, 0.5) == 0.0

    def test_twenty_percent(self):
        assert prl(0.5, 0.4) == pytest.approx(20.0, abs=1e-12)

    def test_total_loss(self):
        assert prl(0.5, 0.0) == 100.0

    def test_undefined_for_zero_revenue(self):
        with pytest.raises(ValueError):
            prl(0.0, 0.0)
        with pytest.raises(ValueError):
            prl(-1.0, 0.0)


class TestEvaluate:
    def _dataset(self, n=2, m=1, k=1, count=24, seed=5, mode=SHARED):
        return generate_dataset(GenSpec(n=n, m=m, k=k, mode=mode), count, seed)

    def test_perfect_predictions(self):
        data = self._dataset()
        layout = FeatureLayout(2, 1)
        # Keep only records labeled {product 0} and hardwire that answer.
        subset = data.take(data.blocks[:, 0, 0] == 0)
        assert len(subset), "seed must produce at least one such record"
        model = PredictorModel(
            intercept=np.array([1.0, 0.0]),
            coefficients=np.zeros((2, layout.d)),
            layout=layout,
        )
        report = evaluate(model, subset)
        assert report.error_rate == 0.0
        assert report.mean_prl_percent == 0.0
        assert all(not ex["misclassified"] for ex in report.examples)

    def test_single_wrong_prediction(self):
        data = self._dataset()
        subset = data.take(np.flatnonzero(data.blocks[:, 0, 0] == 0)[:1])
        layout = FeatureLayout(2, 1)
        model = PredictorModel(
            intercept=np.array([0.0, 1.0]),  # always predicts product 1
            coefficients=np.zeros((2, layout.d)),
            layout=layout,
        )
        report = evaluate(model, subset)
        assert report.error_rate == 1.0
        q = subset.q[0]
        expected_prl = 100.0 * (q[0, 0] - q[1, 0]) / q[0, 0]
        assert report.examples[0]["prl"] == pytest.approx(expected_prl, abs=1e-9)

    def test_prl_nonnegative_and_error_count_integral(self):
        data = self._dataset(n=3, k=2, count=40, seed=8)
        train_X = _features(data.y, data.alpha, data.F, data.lam)
        train_Y = _indicators(data.blocks, 3)
        model = fit_linear(train_X, train_Y, FeatureLayout(3, 1))
        report = evaluate(model, data)
        for ex in report.examples:
            if ex["prl"] is not None:
                assert -1e-9 <= ex["prl"] <= 100.0 + 1e-12
        count = report.error_rate * report.test_count
        assert abs(count - round(count)) < 1e-9

    def test_empty_test_rejected(self):
        data = self._dataset()
        empty = data.take(slice(0, 0))
        layout = FeatureLayout(2, 1)
        model = PredictorModel(
            intercept=np.zeros(2), coefficients=np.zeros((2, layout.d)), layout=layout
        )
        with pytest.raises(ValueError):
            evaluate(model, empty)

    def test_layout_mismatch_rejected(self):
        data = self._dataset()
        layout = FeatureLayout(3, 1)
        model = PredictorModel(
            intercept=np.zeros(3), coefficients=np.zeros((3, layout.d)), layout=layout
        )
        with pytest.raises(ValueError):
            evaluate(model, data)


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        layout = FeatureLayout(2, 2)
        model = PredictorModel(
            intercept=rng.normal(size=layout.label_slots),
            coefficients=rng.normal(size=(layout.label_slots, layout.d)),
            layout=layout,
            rank_deficient=True,
        )
        path = tmp_path / "model.json"
        write_model(model, path)
        assert read_model(path) == model

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 9}\n')
        with pytest.raises(ValueError, match="format_version"):
            read_model(path)
