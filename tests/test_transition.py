from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit.domain import GaussianPredictive
from emoskit.emos import EmosCoefficients
from emoskit.transition import (
    DEFAULT_TRANSITION_WEIGHTS,
    SeamDiagnostics,
    TransitionSpec,
    assemble_seam,
    seam_diagnostics,
    transition1_bounds,
)

from conftest import T0, prediction_dict, prediction_table

COMBINED, CONTINUING, OTHER = "mixed:A+B", "single:B", "single:A"


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


def blend(mixed_at_horizon, series, spec, min_sigma=1e-3):
    """The seam of one case whose combined stream is ``mixed_at_horizon`` at
    the horizon and whose continuing stream is ``series``, by lead."""
    predictions = {("S1", T0, lead, CONTINUING): pred for lead, pred in series.items()}
    predictions[("S1", T0, spec.horizon, COMBINED)] = mixed_at_horizon
    seam = assemble_seam(prediction_table(predictions), spec, COMBINED, CONTINUING, "seam", min_sigma=min_sigma)
    return {lead: pred for (_, _, lead, _), pred in prediction_dict(seam).items()}


class TestTransition2Blend:
    def test_decaying_mu_offset(self):
        mixed = GaussianPredictive(6.0, 1.0)  # delta mu = +1 at the horizon
        out = blend(mixed, single_series(), TransitionSpec(scheme="t2"))
        assert out[121].mu == pytest.approx(5.75)
        assert out[122].mu == pytest.approx(5.5)
        assert out[123].mu == pytest.approx(5.25)
        assert out[124].mu == 5.0
        assert out[126].mu == 5.0

    def test_zero_delta_is_identity(self):
        mixed = GaussianPredictive(5.0, 1.0)
        series = single_series()
        out = blend(mixed, series, TransitionSpec(scheme="t2"))
        assert out == series

    def test_sigma_floor(self):
        # delta sigma = 0.5 - 1.4 = -0.9 at the horizon while the following
        # leads sit at sigma 0.5, so the blended spread would go negative
        mixed = GaussianPredictive(5.0, 0.5)
        series = single_series(sigma=0.5)
        series[120] = GaussianPredictive(5.0, 1.4)
        out = blend(mixed, series, TransitionSpec(scheme="t2"), min_sigma=1e-3)
        assert out[121].sigma == 1e-3  # 0.5 + 0.75*(-0.9) < 0
        assert out[122].sigma == pytest.approx(0.05)  # 0.5 + 0.5*(-0.9)
        assert out[123].sigma == pytest.approx(0.275)
        for lead in (121, 122, 123):
            assert out[lead].sigma >= 1e-3

    def test_exact_decay_invariant(self):
        rng = np.random.default_rng(0)
        spec = TransitionSpec(scheme="t2")
        for _ in range(25):
            mixed = GaussianPredictive(float(rng.normal(0, 5)), float(rng.uniform(0.5, 3)))
            series = {
                lead: GaussianPredictive(float(rng.normal(0, 5)), float(rng.uniform(0.5, 3)))
                for lead in range(120, 127)
            }
            out = blend(mixed, series, spec)
            delta = abs(mixed.mu - series[120].mu)
            gaps = [abs(out[120 + k].mu - series[120 + k].mu) for k in (1, 2, 3)]
            assert gaps == pytest.approx([0.75 * delta, 0.5 * delta, 0.25 * delta], rel=1e-12)
            assert gaps[0] > gaps[1] > gaps[2] or delta == 0.0
            for lead in (124, 125, 126):
                assert out[lead] == series[lead]

    def test_missing_leads_rejected(self):
        mixed = GaussianPredictive(5.0, 1.0)
        series = single_series(leads=(120, 121, 122))  # 123 missing
        with pytest.raises(ValueError, match=r"no 'single:B' prediction at leads \[123\] for S1 2017-01-01"):
            blend(mixed, series, TransitionSpec(scheme="t2"))


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


# ---------------------------------------------------------------------------
# Differential oracle: the seam assembly as it was, on per-case nested maps
# (``transition2_blend``, ``assemble_seam`` and the nesting of the transition
# command), kept as it was.
# ---------------------------------------------------------------------------


def oracle_transition2_blend(mixed_at_horizon, single_series, spec, min_sigma=1e-3):
    required = (spec.horizon, *spec.blend_leads)
    missing = [lead for lead in required if lead not in single_series]
    if missing:
        raise ValueError(f"single-model series missing leads {missing}")

    base = single_series[spec.horizon]
    delta_mu = mixed_at_horizon.mu - base.mu
    delta_sigma = mixed_at_horizon.sigma - base.sigma

    weight_at = dict(zip(spec.blend_leads, spec.weights))
    out = {}
    for lead in sorted(single_series):
        pred = single_series[lead]
        w = weight_at.get(lead)
        if w is None:
            out[lead] = pred
        else:
            out[lead] = GaussianPredictive(
                mu=pred.mu + w * delta_mu,
                sigma=max(pred.sigma + w * delta_sigma, min_sigma),
            )
    return out


def oracle_assemble_seam(cases, spec, combined, continuing, min_sigma=1e-3):
    out = {}
    for (sid, init_time), per_strategy in sorted(cases.items()):
        combined_series = per_strategy.get(combined, {})
        single_series = per_strategy.get(continuing, {})
        if not single_series:
            raise ValueError(f"no {continuing!r} predictions for {sid} {init_time}")
        if spec.scheme == "t2":
            at_horizon = combined_series.get(spec.horizon)
            if at_horizon is None:
                raise ValueError(f"no {combined!r} prediction at the horizon for {sid} {init_time}")
            single_series = oracle_transition2_blend(at_horizon, single_series, spec, min_sigma=min_sigma)
        seam = {lead: pred for lead, pred in sorted(combined_series.items()) if lead <= spec.horizon}
        seam.update((lead, pred) for lead, pred in sorted(single_series.items()) if lead > spec.horizon)
        out[(sid, init_time)] = seam
    return out


def oracle_transition(predictions, tspec, combined, continuing, min_sigma):
    cases = {}
    for (sid, init, lead, strategy), pred in predictions.items():
        cases.setdefault((sid, init), {}).setdefault(strategy, {})[lead] = pred
    seam = oracle_assemble_seam(cases, tspec, combined, continuing, min_sigma=min_sigma)

    label = f"seam_{tspec.scheme}"
    return {(sid, init, lead, label): pred for (sid, init), leads in seam.items() for lead, pred in leads.items()}


LEADS = frozenset(range(115, 127))


@st.composite
def seam_inputs(draw):
    """A flat prediction map of 1-3 stations x 1-3 init times, each case with
    drawn subsets of leads 115-126 (most often all of them, or all but a
    few; sometimes none) of the combined, the continuing and one other
    strategy. Values come from a drawn seed: mu in [-30, 30], sigma at 1-3
    times ``min_sigma`` or in [0.1, 4]."""
    min_sigma = draw(st.sampled_from([1e-3, 0.05]))
    stations = draw(st.lists(st.sampled_from(["S1", "S2", "S3"]), min_size=1, max_size=3, unique=True))
    days = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    some = st.sets(st.sampled_from(sorted(LEADS)), max_size=4)

    def leads():
        kind = draw(st.integers(0, 9))
        if kind < 5:
            return LEADS
        if kind < 8:
            return LEADS - draw(some)
        return draw(some) if kind < 9 else ()

    keys = [(sid, T0 + timedelta(days=d), lead, strategy)
            for sid in stations for d in days for strategy in (COMBINED, CONTINUING, OTHER) for lead in sorted(leads())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.uniform(-30.0, 30.0, len(keys))
    sigma = np.where(rng.random(len(keys)) < 0.5, min_sigma * rng.uniform(1.0, 3.0, len(keys)),
                     rng.uniform(0.1, 4.0, len(keys)))
    predictions = {key: GaussianPredictive(m, s) for key, m, s in zip(keys, mu.tolist(), sigma.tolist())}
    return predictions, draw(st.sampled_from(["t2", "none", "t1"])), min_sigma


def hexed(predictions):
    return {key: (pred.mu.hex(), pred.sigma.hex()) for key, pred in predictions.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seam_inputs())
def test_assemble_seam_matches_the_nested_oracle(drawn):
    predictions, scheme, min_sigma = drawn
    spec = TransitionSpec(scheme=scheme)
    try:
        expected = hexed(oracle_transition(predictions, spec, COMBINED, CONTINUING, min_sigma))
    except ValueError as err:
        with pytest.raises(type(err)) as got:
            assemble_seam(prediction_table(predictions), spec, COMBINED, CONTINUING, f"seam_{scheme}", min_sigma)
        message = str(err)
        if message.startswith("single-model series missing leads "):  # reworded to name strategy and case
            missing = message.removeprefix("single-model series missing leads ")
            assert str(got.value).startswith(f"no {CONTINUING!r} prediction at leads {missing} for S")
        else:
            assert str(got.value) == message
        return
    seam = assemble_seam(prediction_table(predictions), spec, COMBINED, CONTINUING, f"seam_{scheme}", min_sigma)
    assert hexed(prediction_dict(seam)) == expected
