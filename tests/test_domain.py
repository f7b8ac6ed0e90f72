import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from emoskit.domain import (
    EnsembleForecast,
    EnsembleStats,
    GaussianPredictive,
    ObservationSeries,
    SampleTable,
    StationMetadata,
    align,
    ensemble_stats,
)

T0 = datetime(2017, 6, 1, tzinfo=timezone.utc)


def fc(members, init=T0, lead=12, station="S1", model="A"):
    return EnsembleForecast(station_id=station, model_id=model, init_time=init, lead_time=lead, members=tuple(members))


class TestEnsembleStats:
    def test_constant_members(self):
        stats = ensemble_stats(fc([1.0, 1.0, 1.0]))
        assert stats.mean == 1.0
        assert stats.std == 0.0
        assert stats.member_count == 3

    def test_two_point_symmetric(self):
        stats = ensemble_stats(fc([0.0, 2.0]))
        assert stats.mean == 1.0
        assert stats.std == 1.0

    def test_four_members_population_std(self):
        # independent one-line cross-check of the population (1/m) estimator
        members = [1.0, 2.0, 3.0, 4.0]
        mean = sum(members) / 4
        expected_std = math.sqrt(sum((x - mean) ** 2 for x in members) / 4)
        stats = ensemble_stats(fc(members))
        assert stats.mean == pytest.approx(2.5, abs=0)
        assert stats.std == pytest.approx(expected_std, rel=1e-12)
        assert stats.std == pytest.approx(1.118034, abs=1e-6)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            fc([])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            members = rng.normal(0, 5, size=rng.integers(2, 12)).tolist()
            a = ensemble_stats(fc(members))
            b = ensemble_stats(fc(list(reversed(members))))
            perm = rng.permutation(len(members))
            c = ensemble_stats(fc([members[i] for i in perm]))
            assert a.mean == pytest.approx(b.mean, rel=1e-12) == pytest.approx(c.mean, rel=1e-12)
            assert a.std == pytest.approx(b.std, rel=1e-12) == pytest.approx(c.std, rel=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            members = rng.normal(2, 3, size=8)
            alpha, beta = rng.normal(0, 2), rng.normal(0, 10)
            base = ensemble_stats(fc(members.tolist()))
            mapped = ensemble_stats(fc((alpha * members + beta).tolist()))
            assert mapped.mean == pytest.approx(alpha * base.mean + beta, abs=1e-9)
            assert mapped.std == pytest.approx(abs(alpha) * base.std, abs=1e-9)


def obs_series(hours_and_values, station="S1"):
    return ObservationSeries(
        station_id=station,
        timestamps=tuple(T0 + timedelta(hours=h) for h, _ in hours_and_values),
        values=tuple(v for _, v in hours_and_values),
    )


class TestAlign:
    def make_forecasts(self, n_days=3, models=("A",), lead=12, station="S1"):
        out = []
        for d in range(n_days):
            for m in models:
                out.append(fc([1.0, 2.0], init=T0 + timedelta(days=d), lead=lead, station=station, model=m))
        return out

    def obs_for_days(self, days, lead=12):
        return obs_series([(24 * d + lead, 15.0 + d) for d in days])

    def test_complete_obs_three_samples(self):
        table, dropped = align(self.make_forecasts(3), self.obs_for_days([0, 1, 2]), 12)
        assert len(table) == 3
        assert dropped == 0
        assert table.observation.tolist() == [15.0, 16.0, 17.0]
        assert (table.init_days - T0.date().toordinal()).tolist() == [0, 1, 2]

    def test_missing_middle_observation(self):
        table, dropped = align(self.make_forecasts(3), self.obs_for_days([0, 2]), 12)
        assert len(table) == 2
        assert dropped == 1

    def test_nan_observation_is_missing(self):
        obs = obs_series([(12, 15.0), (36, math.nan), (60, 17.0)])
        table, dropped = align(self.make_forecasts(3), obs, 12)
        assert len(table) == 2
        assert dropped == 1

    def test_two_models_intersection(self):
        forecasts = self.make_forecasts(3, models=("A", "B"))
        # model B loses its middle init
        forecasts = [f for f in forecasts if not (f.model_id == "B" and f.init_time == T0 + timedelta(days=1))]
        table, dropped = align(forecasts, self.obs_for_days([0, 1, 2]), 12)
        assert len(table) == 2
        assert dropped == 1
        assert table.models == ("A", "B") and table.mean.shape == table.std.shape == (2, 2)

    def test_station_mismatch_rejected(self):
        other = obs_series([(12, 15.0)], station="S2")
        with pytest.raises(ValueError):
            align(self.make_forecasts(1), other, 12)

    def test_sorted_and_bounded(self):
        rng = np.random.default_rng(3)
        forecasts = self.make_forecasts(10)
        rng.shuffle(forecasts)
        obs = self.obs_for_days(range(10))
        table, _ = align(forecasts, obs, 12)
        assert len(table) <= min(len(forecasts), len(obs.timestamps))
        days = table.init_days - T0.date().toordinal()
        assert days.tolist() == sorted(days.tolist())
        assert table.observation.tolist() == [15.0 + d for d in days]

    def test_member_counts_differ_between_inits(self):
        # Stats come from one reduction per member count; each row must
        # still carry its own ensemble's statistics, bit for bit.
        rng = np.random.default_rng(5)
        sizes = [3, 5, 3, 1, 5, 4]
        forecasts = [
            fc(rng.normal(10.0, 2.0, size=n).tolist(), init=T0 + timedelta(days=d), model=m)
            for d, n in enumerate(sizes)
            for m in ("A", "B")
        ]
        table, dropped = align(forecasts, self.obs_for_days(range(len(sizes))), 12, model_ids=["B", "A"])
        assert (dropped, table.models) == (0, ("B", "A"))
        for f in forecasts:
            d, k = (f.init_time - T0).days, table.models.index(f.model_id)
            want = ensemble_stats(f)
            assert (table.mean[d, k].hex(), table.std[d, k].hex()) == (want.mean.hex(), want.std.hex())


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 21, 51, 100, 128, 129, 200])
def test_row_wise_stats_bit_identical_to_ensemble_stats(size):
    # align reduces the ensembles of one member count as matrix rows; that
    # must give exactly the floats ensemble_stats gives for each ensemble.
    rng = np.random.default_rng(size)
    ensembles = [(rng.normal(0.0, 10.0, size) * 10.0 ** rng.integers(-3, 4)).tolist() for _ in range(40)]
    forecasts = [fc(members, init=T0 + timedelta(days=d)) for d, members in enumerate(ensembles)]
    table, _ = align(forecasts, obs_series([(24 * d + 12, 0.0) for d in range(40)]), 12)
    for d, forecast in enumerate(forecasts):
        want = ensemble_stats(forecast)
        assert (table.mean[d, 0].hex(), table.std[d, 0].hex()) == (want.mean.hex(), want.std.hex())


class TestSampleTable:
    def test_arrays_and_row_slices_are_read_only(self):
        mean = np.ones((5, 1))
        table = SampleTable(("A",), np.arange(5), mean, np.ones((5, 1)), np.arange(5.0))
        mean[0, 0] = 5.0  # writable inputs are copied
        window = table[1:4]
        assert (table.mean[0, 0], window.observation.tolist()) == (1.0, [1.0, 2.0, 3.0])
        assert np.shares_memory(window.mean, table.mean)
        for array in (table.init_days, table.mean, table.std, table.observation, window.mean):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_validation(self):
        ones = np.ones((2, 1))
        for models, days, obs, match in [
            (("A", "B"), [1, 2], [0.0, 1.0], "shapes"),
            (("A",), [2, 1], [0.0, 1.0], "init-time order"),
            (("A",), [1, 2], [0.0, math.nan], "finite"),
        ]:
            with pytest.raises(ValueError, match=match):
                SampleTable(models, days, ones, ones, obs)


class TestInvariants:
    def test_station_metadata_validation(self):
        with pytest.raises(ValueError):
            StationMetadata("X", latitude=91.0, longitude=0.0, elevation=100.0)
        with pytest.raises(ValueError):
            StationMetadata("X", latitude=0.0, longitude=-181.0, elevation=100.0)
        with pytest.raises(ValueError):
            StationMetadata("X", latitude=0.0, longitude=0.0, elevation=math.inf)
        with pytest.raises(ValueError):
            StationMetadata("X", latitude=0.0, longitude=0.0, elevation=1.0, grid_elevation={"A": math.nan})

    def test_gaussian_predictive_validation(self):
        with pytest.raises(ValueError):
            GaussianPredictive(mu=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            GaussianPredictive(mu=math.nan, sigma=1.0)

    def test_observation_series_monotonic(self):
        with pytest.raises(ValueError):
            ObservationSeries("S1", timestamps=(T0, T0), values=(1.0, 2.0))

    def test_ensemble_stats_type_validation(self):
        with pytest.raises(ValueError):
            EnsembleStats(mean=1.0, std=-0.1, member_count=3)
