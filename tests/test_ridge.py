import csv

import numpy as np
import pytest

from fplcast.ingest import Position
from fplcast.ridge import (
    RidgeModel,
    export_coefficients,
    fit_ridge,
    predict_ridge_batch,
)
from fplcast.serialize import ModelContext, read_ridge, write_ridge

from conftest import linear_design


def ridge_oracle(A, y, lam):
    """Augmented normal equations with an explicit inverse and an
    unpenalized intercept column; deliberately a different route than
    the centered solve under test."""
    n = A.shape[0]
    Z = np.hstack([np.ones((n, 1)), A])
    penalty = lam * np.eye(Z.shape[1])
    penalty[0, 0] = 0.0
    beta = np.linalg.inv(Z.T @ Z + penalty) @ Z.T @ y
    return beta[0], beta[1:]


class TestFitRidge:
    def test_exact_interpolation(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = 2.0 * x[:, 0] + 1.0
        model = fit_ridge(x, y, lam=0.0)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)

    def test_infinite_shrinkage_limit(self):
        A, y, _ = linear_design(seed=0, n=30, f=4)
        model = fit_ridge(A, y, lam=1e12)
        assert np.abs(model.weights).max() < 1e-6
        assert model.intercept == pytest.approx(y.mean(), rel=1e-6)

    def test_matches_oracle_8x3(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        model = fit_ridge(A, y, lam=0.5)
        intercept, weights = ridge_oracle(A, y, 0.5)
        np.testing.assert_allclose(model.weights, weights, atol=1e-8)
        assert model.intercept == pytest.approx(intercept, abs=1e-8)

    def test_oracle_equivalence_many_systems(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(12, 51))
            f = int(rng.integers(1, 11))
            A = rng.normal(size=(n, f))
            y = rng.normal(size=n)
            lam = [0.0, 0.5, 10.0][trial % 3]
            model = fit_ridge(A, y, lam=lam)
            intercept, weights = ridge_oracle(A, y, lam)
            scale = max(1.0, np.abs(weights).max())
            np.testing.assert_allclose(model.weights, weights, atol=1e-8 * scale)
            assert model.intercept == pytest.approx(intercept, abs=1e-8)

    def test_monotone_shrinkage(self):
        A, y, _ = linear_design(seed=1, n=40, f=5)
        norms = [
            np.linalg.norm(fit_ridge(A, y, lam=lam).weights)
            for lam in (0.0, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_permutation_invariance(self):
        A, y, _ = linear_design(seed=2, n=25, f=3)
        model = fit_ridge(A, y, lam=0.5)
        perm = np.random.default_rng(3).permutation(25)
        permuted = fit_ridge(A[perm], y[perm], lam=0.5)
        np.testing.assert_allclose(model.weights, permuted.weights, atol=1e-12)
        assert model.intercept == pytest.approx(permuted.intercept, abs=1e-12)

    def test_singular_unregularized_system_advises_lambda(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
        with pytest.raises(np.linalg.LinAlgError, match="lambda"):
            fit_ridge(A, np.array([1.0, 2.0, 3.0]), lam=0.0)

    def test_duplicated_column_fine_with_lambda(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = fit_ridge(A, np.array([1.0, 2.0, 3.0]), lam=1.0)
        assert np.isfinite(model.weights).all()

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((0, 2)), np.zeros(0), lam=1.0)
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((3, 2)), np.zeros(4), lam=1.0)

    @pytest.mark.parametrize(
        "A, y",
        [
            ([[np.nan, 1], [2, 0], [1, 1]], [1, 2, 3]),
            ([[1, 1], [2, np.inf], [1, 1]], [1, 2, 3]),
            ([[1, 1], [2, 0], [1, 1]], [1, np.nan, 3]),
            ([[1, 1], [2, 0], [1, 1]], [1, 2, -np.inf]),
        ],
        ids=["A-nan", "A-inf", "y-nan", "y-neg-inf"],
    )
    def test_non_finite_inputs_rejected(self, A, y):
        with pytest.raises(ValueError, match="finite"):
            fit_ridge(A, y, lam=1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, pytest.param(10**400, id="int_too_large_for_a_float")])
    def test_non_finite_or_negative_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            fit_ridge([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]], [1.0, 2.0, 3.0], lam)


class TestPredictRidge:
    def test_zero_weights_gives_intercept(self):
        model = RidgeModel(np.zeros(3), 1.25, 1.0, ["a", "b", "c"])
        assert predict_ridge_batch(model, [[9.0, 9.0, 9.0]])[0] == 1.25

    def test_unit_weight(self):
        model = RidgeModel(np.array([1.0, 0.0]), 0.5, 1.0, ["a", "b"])
        assert predict_ridge_batch(model, [[3.0, 99.0]])[0] == pytest.approx(3.5)

    def test_reproduces_training_targets_on_exact_fit(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = 2.0 * x[:, 0] + 1.0
        model = fit_ridge(x, y, lam=0.0)
        np.testing.assert_allclose(predict_ridge_batch(model, x), y, atol=1e-9)

    def test_dimension_mismatch(self):
        model = RidgeModel(np.zeros(2), 0.0, 1.0, ["a", "b"])
        with pytest.raises(ValueError):
            predict_ridge_batch(model, [[1.0]])


class TestExportCoefficients:
    def _model(self, weights, intercept=0.5):
        return RidgeModel(
            np.asarray(weights, dtype=float), intercept, 1.0, ["pts", "d"]
        )

    def test_single_model(self):
        positions, names, coef, intercepts = export_coefficients(
            {Position.GK: self._model([1.0, -2.0])}
        )
        assert positions == ["GK"]
        np.testing.assert_array_equal(coef, [[1.0, -2.0]])

    def test_four_models_fixed_order(self):
        models = {
            Position.FWD: self._model([4.0, 0.0]),
            Position.GK: self._model([1.0, 0.0]),
            Position.MID: self._model([3.0, 0.0]),
            Position.DEF: self._model([2.0, 0.0]),
        }
        positions, _, coef, _ = export_coefficients(models)
        assert positions == ["GK", "DEF", "MID", "FWD"]
        np.testing.assert_array_equal(coef[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_inconsistent_feature_order_rejected(self):
        a = self._model([1.0, 2.0])
        b = RidgeModel(np.array([1.0, 2.0]), 0.0, 1.0, ["d", "pts"])
        with pytest.raises(ValueError):
            export_coefficients({Position.GK: a, Position.DEF: b})

    def test_serialized_table_round_trips(self):
        from fplcast.serialize import write_coefficient_table

        positions, names, coef, intercepts = export_coefficients(
            {Position.GK: self._model([1.5, -0.25]), Position.MID: self._model([0.1, 1 / 3])}
        )
        text = write_coefficient_table(positions, names, coef, intercepts)
        header, *rows = csv.reader(text.splitlines())
        assert header == ["position", *names, "intercept"]
        assert [row[0] for row in rows] == positions
        np.testing.assert_array_equal([[float(v) for v in row[1:-1]] for row in rows], coef)
        np.testing.assert_array_equal([float(row[-1]) for row in rows], intercepts)


class TestRidgeSerialization:
    def test_model_file_round_trip(self):
        A, y, _ = linear_design(seed=5, n=20, f=3)
        model = fit_ridge(A, y, lam=0.5, feature_names=["a", "b", "c"])
        ctx = ModelContext(w=3, tier="pts_minutes", position="MID")  # 2 columns and d
        parsed, parsed_ctx = read_ridge(write_ridge(model, ctx))
        np.testing.assert_array_equal(parsed.weights, model.weights)
        assert parsed.intercept == model.intercept
        assert parsed.lam == model.lam
        assert parsed.feature_names == model.feature_names
        assert (parsed_ctx.w, parsed_ctx.tier, parsed_ctx.position) == (
            3,
            "pts_minutes",
            "MID",
        )
