from datetime import timedelta

import numpy as np
import pytest

from emoskit.domain import _micros
from emoskit.synth import (
    ModelErrorSpec,
    ScenarioSpec,
    TruthSpec,
    generate_model_ensemble,
    generate_scenario,
    generate_stations,
    generate_truth,
    interpolate_leads,
)

from conftest import T0, forecast_cube


def one_model_spec(**kwargs):
    base = dict(member_count=5, horizon=24, bias_variability=0.0, error_base_std=0.0,
                error_growth_per_hour=0.0, dispersion=1.0, elevation_offset_std=0.0)
    base.update(kwargs)
    return ModelErrorSpec(**base)


class TestTruth:
    def test_constant_when_flat(self):
        spec = ScenarioSpec(
            seed=1, n_stations=2, n_days=2, lead_hours=(0, 6),
            truth=TruthSpec(level=9.0, diurnal_amplitude=0.0, seasonal_amplitude=0.0,
                            ar1_coefficient=0.5, innovation_std=0.0),
            models={"m": one_model_spec()},
        )
        truth = generate_truth(spec)
        for series in truth.values():
            assert all(v == pytest.approx(9.0) for v in series.values)

    def test_white_noise_when_ar_zero(self):
        spec = ScenarioSpec(
            seed=2, n_stations=1, n_days=420, lead_hours=(0,),
            truth=TruthSpec(level=0.0, diurnal_amplitude=0.0, seasonal_amplitude=0.0,
                            ar1_coefficient=0.0, innovation_std=1.0),
            models={"m": one_model_spec()},
        )
        series = generate_truth(spec)["S000"]
        x = np.asarray(series.values)
        x = x - x.mean()
        lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert x.size >= 10_000
        assert abs(lag1) < 0.1

    def test_deterministic_under_seed(self):
        spec = ScenarioSpec(seed=3, n_stations=3, n_days=4, lead_hours=(0, 12), models={"m": one_model_spec()})
        a = generate_truth(spec)
        b = generate_truth(spec)
        assert list(a) == list(b)
        for sid in a:
            assert a[sid].times.tolist() == b[sid].times.tolist() and a[sid].values.tolist() == b[sid].values.tolist()

    def test_station_streams_differ(self):
        spec = ScenarioSpec(seed=4, n_stations=2, n_days=4, lead_hours=(0,), models={"m": one_model_spec()})
        truth = generate_truth(spec)
        assert truth["S000"].values.tolist() != truth["S001"].values.tolist()


class TestModelEnsemble:
    def test_pure_bias_shift(self):
        spec = ScenarioSpec(
            seed=5, n_stations=1, n_days=3, lead_hours=(0, 3, 6),
            truth=TruthSpec(level=5.0, diurnal_amplitude=2.0, seasonal_amplitude=1.0,
                            ar1_coefficient=0.6, innovation_std=0.5),
            models={"m": one_model_spec(bias_amplitude=2.0, bias_peak_hour=12)},
        )
        truth = generate_truth(spec)
        forecasts = generate_model_ensemble(spec, "m", truth)
        for fc in forecasts:
            valid = fc.init_time + timedelta(hours=fc.lead_time)
            expected = truth["S000"].values_at(_micros([valid]))[0] + spec.models["m"].bias(valid.hour)
            assert all(v == pytest.approx(expected, abs=1e-9) for v in fc.members)

    def test_flat_bias_curve_is_constant_shift(self):
        model = one_model_spec(bias_amplitude=2.0)
        # cosine bump: +2 at the peak hour, 0 on the opposite side of the day
        assert model.bias(model.bias_peak_hour) == pytest.approx(2.0)
        assert model.bias((model.bias_peak_hour + 12) % 24) == pytest.approx(0.0)

    def test_dispersion_scales_spread(self):
        spec = ScenarioSpec(
            seed=6, n_stations=2, n_days=60, lead_hours=(6,),
            truth=TruthSpec(level=0.0, diurnal_amplitude=0.0, seasonal_amplitude=0.0,
                            ar1_coefficient=0.0, innovation_std=0.1),
            models={"m": one_model_spec(member_count=51, error_base_std=1.0, dispersion=0.5)},
        )
        truth = generate_truth(spec)
        forecasts = generate_model_ensemble(spec, "m", truth)
        spreads = [np.std(fc.members) for fc in forecasts]
        # mean ensemble std ~ dispersion * shared-error std = 0.5
        assert np.mean(spreads) == pytest.approx(0.5, rel=0.05)

    def test_horizon_respected(self):
        spec = ScenarioSpec(
            seed=7, n_stations=1, n_days=2, lead_hours=tuple(range(0, 150, 6)),
            models={"m": one_model_spec(horizon=120)},
        )
        forecasts = generate_model_ensemble(spec, "m", generate_truth(spec))
        assert forecasts
        assert max(fc.lead_time for fc in forecasts) <= 120

    def test_coarse_native_grid(self):
        spec = ScenarioSpec(
            seed=8, n_stations=1, n_days=1, lead_hours=tuple(range(84, 103)),
            models={"m": one_model_spec(horizon=150, coarse_after=90, coarse_step=3)},
        )
        forecasts = generate_model_ensemble(spec, "m", generate_truth(spec))
        leads = sorted({fc.lead_time for fc in forecasts})
        assert all(lead <= 90 or (lead - 90) % 3 == 0 for lead in leads)
        assert 91 not in leads and 93 in leads

    def test_deterministic_under_seed(self):
        spec = ScenarioSpec(seed=9, n_stations=2, n_days=3, lead_hours=(0, 6), models={"m": one_model_spec()})
        a = generate_scenario(spec)
        b = generate_scenario(spec)
        assert {m: list(c) for m, c in a.forecasts.items()} == {m: list(c) for m, c in b.forecasts.items()}
        assert a.stations == b.stations

    def test_elevation_offset_recoverable(self):
        from emoskit.terrain import lapse_correct

        spec = ScenarioSpec(
            seed=10, n_stations=1, n_days=2, lead_hours=(0, 6),
            truth=TruthSpec(level=5.0, diurnal_amplitude=0.0, seasonal_amplitude=0.0,
                            ar1_coefficient=0.0, innovation_std=0.0),
            models={"m": one_model_spec(elevation_offset_std=300.0)},
        )
        stations = generate_stations(spec)
        truth = generate_truth(spec)
        forecasts = generate_model_ensemble(spec, "m", truth, stations)
        st = stations[0]
        for fc in forecasts:
            corrected = lapse_correct(fc.members, st.grid_elevation["m"], st.elevation)
            assert all(v == pytest.approx(5.0, abs=1e-9) for v in corrected)


class TestInterpolateLeads:
    def cube(self, *ensembles):
        """A cube of (lead, members) ensembles at S1 and T0, or (lead, members,
        init day) ones."""
        return forecast_cube("m", [("S1", T0 + timedelta(days=e[2] if len(e) > 2 else 0), e[0], e[1])
                                                 for e in ensembles])

    def test_linear_fill(self):
        out = interpolate_leads(self.cube((90, (0.0,)), (93, (3.0,))), source_step=3)
        by_lead = {f.lead_time: f.members for f in out}
        assert by_lead[91] == (1.0,)
        assert by_lead[92] == (2.0,)

    def test_native_pass_through_unchanged(self):
        src = self.cube((90, (0.5, 1.5)), (93, (3.5, -1.5)))
        out = interpolate_leads(src, source_step=3)
        by_lead = {f.lead_time: f for f in out}
        assert [by_lead[90], by_lead[93]] == list(src)
        assert [f.lead_time for f in out] == [90, 91, 92, 93]

    def test_constant_members(self):
        out = interpolate_leads(self.cube((0, (7.0, 7.0)), (3, (7.0, 7.0))), source_step=3)
        assert all(f.members == (7.0, 7.0) for f in out)

    def test_exact_for_linear_series(self):
        leads = [0, 3, 6, 9]
        src = self.cube(*((h, (2.0 * h + 1.0, -0.5 * h)) for h in leads))
        out = interpolate_leads(src, source_step=3)
        assert len(out) == 10
        for f in out:
            assert f.members[0] == pytest.approx(2.0 * f.lead_time + 1.0, abs=1e-12)
            assert f.members[1] == pytest.approx(-0.5 * f.lead_time, abs=1e-12)

    def test_gap_too_large_rejected(self):
        with pytest.raises(ValueError, match="lead gap 90..96 exceeds"):
            interpolate_leads(self.cube((90, (0.0,)), (96, (1.0,))), source_step=3)

    def test_member_count_change_rejected(self):
        with pytest.raises(ValueError, match="member count changes between leads 3 and 6"):
            interpolate_leads(self.cube((0, (1.0,)), (3, (1.0,)), (6, (1.0, 2.0))), source_step=3)

    def test_runs_and_member_counts_fill_apart(self):
        # Two init times, one with 1 member and one with 2: each run fills
        # from its own ensembles, each member count in its own matrix.
        src = self.cube((0, (0.0,)), (3, (3.0,)), (0, (0.0, 6.0), 1), (3, (3.0, 0.0), 1), (6, (6.0, 3.0), 1))
        out = interpolate_leads(src, source_step=3)
        got = [((f.init_time - T0).days, f.lead_time, f.members) for f in out]
        assert got == [(0, 0, (0.0,)), (0, 1, (1.0,)), (0, 2, (2.0,)), (0, 3, (3.0,)),
                       (1, 0, (0.0, 6.0)), (1, 1, (1.0, 4.0)), (1, 2, (2.0, 2.0)), (1, 3, (3.0, 0.0)),
                       (1, 4, (4.0, 1.0)), (1, 5, (5.0, 2.0)), (1, 6, (6.0, 3.0))]
        assert [m.shape for m in out.members] == [(4, 1), (7, 2)]
