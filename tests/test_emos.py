import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emoskit.emos import (
    EmosCoefficients,
    FitOptions,
    _coef_from,
    fit_batch,
    fit_mixed,
    fit_single,
    identity,
    model_weights,
    predict,
)
from emoskit.scoring import gaussian_crps

from conftest import linear_gaussian_samples


def row_stats(table, i, model_ids):
    """The (means, stds) of row i for ``model_ids``, as ``predict`` takes them."""
    cols = [table.models.index(m) for m in model_ids]
    return [float(table.mean[i, k]) for k in cols], [float(table.std[i, k]) for k in cols]


def mean_objective(coef, samples, model_ids, min_sigma=1e-3):
    return float(
        np.mean(
            [
                gaussian_crps(predict(coef, *row_stats(samples, i, model_ids), min_sigma), float(samples.observation[i]))
                for i in range(len(samples))
            ]
        )
    )


def single_coef(a, b, c, d):
    return EmosCoefficients(a, (b,), c, (d,))


def mixed_coef(a, b1, b2, c, d1, d2):
    return EmosCoefficients(a, (b1, b2), c, (d1, d2))


class TestPredict:
    def test_identity_coefficients(self):
        pred = predict(single_coef(0, 1, 0, 1), [5.0], [2.0])
        assert pred.mu == 5.0
        assert pred.sigma == 2.0

    def test_spread_ignores_ensemble(self):
        pred = predict(single_coef(2, 0.5, 1, 0), [4.0], [3.0])
        assert pred.mu == 4.0
        assert pred.sigma == 1.0

    def test_three_four_five(self):
        pred = predict(single_coef(0, 1, 3, 4), [0.0], [1.0])
        assert pred.sigma == 5.0

    def test_sigma_floor(self):
        pred = predict(single_coef(0, 1, 0, 0), [5.0], [2.0], min_sigma=1e-3)
        assert pred.sigma == 1e-3

    def test_mixed_nests_single(self):
        coef = mixed_coef(a=1.0, b1=0.8, b2=0.0, c=0.5, d1=1.2, d2=0.0)
        nested = predict(coef, [3.0, -7.0], [1.5, 4.0])
        assert nested == predict(single_coef(1.0, 0.8, 0.5, 1.2), [3.0], [1.5])

    def test_mixed_mean_average(self):
        coef = mixed_coef(a=0.0, b1=0.5, b2=0.5, c=0.0, d1=1.0, d2=1.0)
        pred = predict(coef, [2.0, 4.0], [0.0, 0.0])
        assert pred.mu == 3.0

    def test_mixed_three_four_five_stds(self):
        coef = mixed_coef(a=0.0, b1=1.0, b2=0.0, c=0.0, d1=1.0, d2=1.0)
        pred = predict(coef, [0.0, 0.0], [3.0, 4.0])
        assert pred.sigma == 5.0


    def test_identity(self):
        assert identity(1) == single_coef(0.0, 1.0, 0.0, 1.0)
        assert identity(2) == mixed_coef(0.0, 0.5, 0.5, 0.0, math.sqrt(0.5), math.sqrt(0.5))

    def test_predictor_count_must_match(self):
        with pytest.raises(ValueError):
            predict(single_coef(0, 1, 0, 1), [5.0, 4.0], [2.0, 1.0])


class TestModelWeights:
    def test_symmetric(self):
        w = model_weights(mixed_coef(0, 2, 2, 0, 1, 1))
        assert w.weight_mean == 0.5
        assert w.defined_mean

    def test_three_to_one(self):
        w = model_weights(mixed_coef(0, 3, 1, 0, 1, 1))
        assert w.weight_mean == 0.75

    def test_degenerate_zero_sum(self):
        w = model_weights(mixed_coef(0, 0, 0, 1, 0, 0))
        assert not w.defined_mean
        assert not w.defined_std
        assert w.weight_mean == 0.5
        assert w.weight_std == 0.5

    def test_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b1, b2, d1, d2 = rng.uniform(0.01, 3, 4)
            w = model_weights(mixed_coef(0, b1, b2, 0, d1, d2))
            assert w.weight_mean + b2 / (b1 + b2) == pytest.approx(1.0, abs=1e-12)
            assert w.weight_std + d2 / (d1 + d2) == pytest.approx(1.0, abs=1e-12)


class TestFitSingle:
    def test_recovers_linear_coefficients(self):
        samples = linear_gaussian_samples(n=45, a=2.0, b=1.0, noise_std=0.1, seed=3)
        result = fit_single(samples, "A")
        assert result.converged
        assert result.coefficients.a == pytest.approx(2.0, abs=0.05)
        assert result.coefficients.b[0] == pytest.approx(1.0, abs=0.05)
        assert result.n_samples == 45

    def test_perfect_predictor(self):
        samples = linear_gaussian_samples(n=45, a=0.0, b=1.0, noise_std=0.0, seed=4)
        result = fit_single(samples, "A")
        assert result.coefficients.a == pytest.approx(0.0, abs=1e-3)
        assert result.coefficients.b[0] == pytest.approx(1.0, abs=1e-3)
        # objective collapses toward the min_sigma-limited value
        assert result.objective < 1e-3

    def test_constant_predictor_climatology(self):
        # mean == 0 for every sample; y ~ N(3, 1): the fit must become the
        # climatological Gaussian, cross-checked against the ML fit of y.
        rng = np.random.default_rng(12)
        y = rng.normal(3.0, 1.0, 500)
        samples = linear_gaussian_samples(n=500, a=0.0, b=0.0, noise_std=0.0, seed=5)
        samples = replace(samples, mean=np.column_stack([np.zeros(500), samples.mean[:, 1]]), observation=y)
        result = fit_single(samples, "A")
        sigma_pred = predict(result.coefficients, *row_stats(samples, 0, ["A"])).sigma
        assert result.coefficients.a == pytest.approx(float(y.mean()), abs=0.1)
        assert sigma_pred == pytest.approx(float(y.std()), abs=0.1)

    def test_objective_not_above_identity_or_init(self):
        for seed in range(8):
            samples = linear_gaussian_samples(n=45, a=1.0, b=0.7, noise_std=0.8, seed=seed)
            options = FitOptions()
            result = fit_single(samples, "A", options)
            f_identity = mean_objective(identity(1), samples, ["A"], options.min_sigma)
            f_init = mean_objective(single_coef(0, 1, 1, 1), samples, ["A"], options.min_sigma)
            assert result.objective <= f_identity + options.objective_tolerance
            assert result.objective <= f_init + options.objective_tolerance

    def test_non_negative_b(self):
        # anti-correlated predictor: unconstrained b would be negative
        samples = linear_gaussian_samples(n=45, a=0.0, b=-1.0, noise_std=0.3, seed=6)
        result = fit_single(samples, "A")
        assert result.coefficients.b[0] >= 0.0

    def test_non_convergence_carries_best_so_far(self):
        samples = linear_gaussian_samples(n=45, seed=8)
        result = fit_single(samples, "A", FitOptions(max_iterations=1))
        assert result.converged is False
        assert math.isfinite(result.objective)

    def test_missing_model_rejected(self):
        samples = linear_gaussian_samples(n=10)
        with pytest.raises(ValueError):
            fit_single(samples, "Z")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_single(linear_gaussian_samples(n=10)[:0], "A")

    def test_warm_start_beats_nothing(self):
        samples = linear_gaussian_samples(n=45, seed=9)
        cold = fit_single(samples, "A")
        warm = fit_single(samples, "A", start=cold.coefficients)
        assert warm.objective <= cold.objective + 1e-10


class TestFitMixed:
    def test_uninformative_second_model(self):
        samples = linear_gaussian_samples(n=200, a=0.0, b=1.0, noise_std=0.3, seed=10, second_model="noise")
        result = fit_mixed(samples, ("A", "B"))
        assert result.coefficients.b[1] <= 0.05
        assert result.coefficients.b[0] == pytest.approx(1.0, abs=0.08)

    def test_collinear_predictors_objective(self):
        samples = linear_gaussian_samples(n=45, a=1.0, b=0.8, noise_std=0.4, seed=11, second_model="copy")
        single = fit_single(samples, "A")
        mixed = fit_mixed(samples, ("A", "B"))
        # coefficients are not identified, the objective is
        assert mixed.objective <= single.objective + FitOptions().objective_tolerance

    def test_zero_bounds_reduce_to_other_model(self):
        samples = linear_gaussian_samples(n=45, a=0.5, b=1.2, noise_std=0.3, seed=12, second_model="informative")
        bounded = fit_batch([samples], [("A", "B")], caps=[(0.0, 0.0)])
        single_b = fit_single(samples, "B")
        assert bounded.converged[0]
        assert bounded.theta[0, 1] == 0.0  # b1
        assert bounded.theta[0, 4] == 0.0  # d1^2
        assert bounded.f[0] <= single_b.objective + FitOptions().objective_tolerance
        assert bounded.f[0] >= single_b.objective - 1e-6

    def test_upper_bounds_respected(self):
        samples = linear_gaussian_samples(n=45, a=0.0, b=1.0, noise_std=0.2, seed=13, second_model="informative")
        unbounded = fit_mixed(samples, ("A", "B"))
        b1_max = unbounded.coefficients.b[0] * 0.5
        d1_max = max(unbounded.coefficients.d[0] * 0.5, 1e-6)
        bounded = fit_batch([samples], [("A", "B")], caps=[(b1_max, d1_max)])
        _, b, _, d = _coef_from(bounded.theta, d1_max)
        assert bounded.converged[0]
        assert b[0, 0] <= b1_max + 1e-12
        assert d[0, 0] <= d1_max + 1e-12

    def test_nesting_property(self):
        tol = FitOptions().objective_tolerance
        for seed in range(10):
            samples = linear_gaussian_samples(n=45, a=1.0, b=0.9, noise_std=0.5, seed=seed, second_model="informative")
            f1 = fit_single(samples, "A")
            f2 = fit_single(samples, "B")
            mixed = fit_mixed(samples, ("A", "B"), single_fits=(f1, f2))
            assert mixed.objective <= min(f1.objective, f2.objective) + 2 * tol

    def test_reparametrization_invariance(self):
        # affine map of a predictor's mean series leaves the optimum unchanged
        base = linear_gaussian_samples(n=45, a=0.3, b=1.1, noise_std=0.4, seed=14, second_model="informative")
        alpha, beta = 2.5, -7.0
        mapped = replace(base, mean=base.mean * [alpha, 1.0] + [beta, 0.0])
        f_base = fit_single(base, "A")
        f_mapped = fit_single(mapped, "A")
        assert f_mapped.objective == pytest.approx(f_base.objective, abs=1e-6)
        assert f_mapped.coefficients.b[0] == pytest.approx(f_base.coefficients.b[0] / alpha, rel=5e-2)

    def test_predicted_sigma_floor(self):
        samples = linear_gaussian_samples(n=45, noise_std=0.0, seed=15)
        result = fit_mixed(samples, ("A", "B"))
        for i in range(len(samples)):
            pred = predict(result.coefficients, *row_stats(samples, i, ["A", "B"]))
            assert pred.sigma >= 1e-3


class TestOptionsValidation:
    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            FitOptions(objective_tolerance=0.0)

    def test_min_sigma_positive(self):
        with pytest.raises(ValueError):
            FitOptions(min_sigma=0.0)

    def test_bounds_non_negative(self):
        with pytest.raises(ValueError):
            fit_batch([linear_gaussian_samples(n=10)], [("A", "B")], caps=[(-1.0, 0.5)])

    def test_mixed_coefficients_non_negative(self):
        with pytest.raises(ValueError):
            mixed_coef(a=0.0, b1=-0.1, b2=0.0, c=0.0, d1=0.0, d2=0.0)
        with pytest.raises(ValueError):
            single_coef(0.0, 1.0, 0.0, -0.5)
        with pytest.raises(ValueError):
            EmosCoefficients(0.0, (1.0, 0.5), 0.0, (1.0,))


class TestBatch:
    def test_stalled_rows_finish_with_lbfgsb(self, monkeypatch):
        # With no line-search halvings every Newton row stalls at once and is
        # handed to L-BFGS-B, which must still reach the same optimum.
        import emoskit.emos as emos

        samples = linear_gaussian_samples(n=45, a=1.0, b=0.9, noise_std=0.5, seed=21, second_model="informative")
        newton = fit_mixed(samples, ("A", "B"))
        calls = []
        real = emos.minimize
        monkeypatch.setattr(emos, "minimize", lambda *a, **k: calls.append(1) or real(*a, **k))
        monkeypatch.setattr(emos, "_MAX_HALVINGS", 0)
        fallback = fit_mixed(samples, ("A", "B"))
        assert calls
        assert fallback.converged
        assert fallback.objective == pytest.approx(newton.objective, abs=1e-7)

    def test_mixed_batch_rejected(self):
        samples = linear_gaussian_samples(n=45)
        with pytest.raises(ValueError):
            fit_batch([samples, samples], [("A",), ("A", "B")])

    def test_batch_holds_each_window_once(self):
        # 64 single-model tasks of 45 samples, each solved from two starts and
        # evaluated at two candidate points: 256 rows on 64 windows. The
        # traced peak, the first forward pass over all rows, is 3.44 MB with
        # numpy 2.4; with each window copied once per row, and the rows of
        # every Newton iteration and line search copied again, it was 5.12 MB.
        tables = [linear_gaussian_samples(seed=i, noise_std=0.5) for i in range(64)]
        fit_batch(tables[:2], [("A",)] * 2)
        tracemalloc.start()
        try:
            fit_batch(tables, [("A",)] * 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.2e6


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize serves only the L-BFGS-B fallback, and scoring computes
    # Phi and the t CDF without scipy.special; each CLI process would
    # otherwise pay their imports before doing any work.
    import emoskit

    src = str(Path(emoskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, emoskit.cli; print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
