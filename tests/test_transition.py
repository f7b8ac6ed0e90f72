import pytest

from emoskit.domain import GaussianPredictive
from emoskit.emos import EmosCoefficients
from emoskit.transition import (
    DEFAULT_TRANSITION_WEIGHTS,
    SeamDiagnostics,
    TransitionSpec,
    seam_diagnostics,
    transition1_bounds,
    transition2_blend,
)


class TestSpec:
    def test_default_weights(self):
        assert DEFAULT_TRANSITION_WEIGHTS == (0.75, 0.5, 0.25)
        spec = TransitionSpec()
        assert spec.weights == (0.75, 0.5, 0.25)
        assert spec.horizon == 120
        assert spec.anchor_lead == 117
        assert spec.taper_leads == (118, 119, 120)
        assert spec.blend_leads == (121, 122, 123)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            TransitionSpec(weights=(0.75, 0.8, 0.25))
        with pytest.raises(ValueError):
            TransitionSpec(weights=(1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            TransitionSpec(scheme="bogus")


class TestTransition1Bounds:
    def coef(self, b1=2.0, d1=1.0):
        return EmosCoefficients(a=0.0, b=(b1, 0.5), c=0.3, d=(d1, 0.6))

    def test_decaying_b1_bounds(self):
        bounds = transition1_bounds(self.coef(b1=2.0), TransitionSpec(scheme="t1"))
        assert bounds[118][0] == pytest.approx(1.5)
        assert bounds[119][0] == pytest.approx(1.0)
        assert bounds[120][0] == pytest.approx(0.5)

    def test_zero_anchor_gives_zero_bounds(self):
        bounds = transition1_bounds(self.coef(b1=0.0, d1=0.0), TransitionSpec(scheme="t1"))
        assert all(b == (0.0, 0.0) for b in bounds.values())

    def test_d1_bounds(self):
        bounds = transition1_bounds(self.coef(d1=1.0), TransitionSpec(scheme="t1"))
        assert [bounds[t][1] for t in (118, 119, 120)] == pytest.approx([0.75, 0.5, 0.25])

    def test_missing_anchor_rejected(self):
        with pytest.raises(ValueError):
            transition1_bounds(None, TransitionSpec(scheme="t1"))


def single_series(mu=5.0, sigma=1.0, leads=range(120, 127)):
    return {lead: GaussianPredictive(mu, sigma) for lead in leads}


class TestTransition2Blend:
    def test_decaying_mu_offset(self):
        mixed = GaussianPredictive(6.0, 1.0)  # delta mu = +1 at the horizon
        out = transition2_blend(mixed, single_series(), TransitionSpec(scheme="t2"))
        assert out[121].mu == pytest.approx(5.75)
        assert out[122].mu == pytest.approx(5.5)
        assert out[123].mu == pytest.approx(5.25)
        assert out[124].mu == 5.0
        assert out[126].mu == 5.0

    def test_zero_delta_is_identity(self):
        mixed = GaussianPredictive(5.0, 1.0)
        series = single_series()
        out = transition2_blend(mixed, series, TransitionSpec(scheme="t2"))
        assert out == series

    def test_sigma_floor(self):
        # delta sigma = 0.5 - 1.4 = -0.9 at the horizon while the following
        # leads sit at sigma 0.5, so the blended spread would go negative
        mixed = GaussianPredictive(5.0, 0.5)
        series = single_series(sigma=0.5)
        series[120] = GaussianPredictive(5.0, 1.4)
        out = transition2_blend(mixed, series, TransitionSpec(scheme="t2"), min_sigma=1e-3)
        assert out[121].sigma == 1e-3  # 0.5 + 0.75*(-0.9) < 0
        assert out[122].sigma == pytest.approx(0.05)  # 0.5 + 0.5*(-0.9)
        assert out[123].sigma == pytest.approx(0.275)
        for lead in (121, 122, 123):
            assert out[lead].sigma >= 1e-3

    def test_exact_decay_invariant(self):
        import numpy as np

        rng = np.random.default_rng(0)
        spec = TransitionSpec(scheme="t2")
        for _ in range(25):
            mixed = GaussianPredictive(float(rng.normal(0, 5)), float(rng.uniform(0.5, 3)))
            series = {
                lead: GaussianPredictive(float(rng.normal(0, 5)), float(rng.uniform(0.5, 3)))
                for lead in range(120, 127)
            }
            out = transition2_blend(mixed, series, spec)
            delta = abs(mixed.mu - series[120].mu)
            gaps = [abs(out[120 + k].mu - series[120 + k].mu) for k in (1, 2, 3)]
            assert gaps == pytest.approx([0.75 * delta, 0.5 * delta, 0.25 * delta], rel=1e-12)
            assert gaps[0] > gaps[1] > gaps[2] or delta == 0.0
            for lead in (124, 125, 126):
                assert out[lead] == series[lead]

    def test_missing_leads_rejected(self):
        mixed = GaussianPredictive(5.0, 1.0)
        series = single_series(leads=(120, 121, 122))  # 123 missing
        with pytest.raises(ValueError):
            transition2_blend(mixed, series, TransitionSpec(scheme="t2"))


class TestSeamDiagnostics:
    def test_constant_series_zero_steps(self):
        diag = seam_diagnostics([[4.0, 4.0, 4.0]], [[1.0, 1.0, 1.0]], [[4.0, 4.0, 4.0]], [118, 119, 120])
        assert all(v == 0.0 for v in diag.mu_steps.values())
        assert all(v == 0.0 for v in diag.sigma_steps.values())
        assert 118 not in diag.mu_steps  # first lead has no predecessor

    def test_single_case_step(self):
        diag = seam_diagnostics([[5.0, 7.0]], [[1.0, 1.5]], [[5.0, 6.0]], [120, 121])
        assert diag.mu_steps[121] == pytest.approx(2.0)
        assert diag.sigma_steps[121] == pytest.approx(0.5)

    def test_mean_crps_reported(self):
        from emoskit.scoring import gaussian_crps

        pred = GaussianPredictive(5.0, 1.0)
        diag = seam_diagnostics([[5.0, 5.0]] * 2, [[1.0, 1.0]] * 2, [[5.0, 5.0], [7.0, 7.0]], [120, 121])
        expected = (gaussian_crps(pred, 5.0) + gaussian_crps(pred, 7.0)) / 2
        assert diag.mean_crps[120] == pytest.approx(expected)

    def test_gap_in_series_rejected(self):
        with pytest.raises(ValueError):
            seam_diagnostics([[5.0, 5.0]], [[1.0, 1.0]], [[5.0, 5.0]], [120, 122])
        with pytest.raises(ValueError):  # a case without every lead of the window
            seam_diagnostics([[5.0]], [[1.0]], [[5.0]], [120, 121])

    def test_negative_diagnostics_rejected(self):
        with pytest.raises(ValueError):
            SeamDiagnostics(leads=(1, 2), mu_steps={2: -0.1}, sigma_steps={}, mean_crps={})
