import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit.domain import (
    EnsembleForecast,
    ForecastCube,
    GaussianPredictive,
    ObservationSeries,
    SampleTable,
    StationMetadata,
    _micros,
    align,
    ensemble_stats,
    lookup,
)

from conftest import forecast_cube

T0 = datetime(2017, 6, 1, tzinfo=timezone.utc)


def cube(ensembles, model="A"):
    """A cube of (members, init, lead, station) tuples; see ``fc``."""
    return forecast_cube(model, [(station, init, lead, members) for members, init, lead, station in ensembles])


def fc(members, init=T0, lead=12, station="S1"):
    return (tuple(members), init, lead, station)


class TestEnsembleStats:
    def test_constant_members(self):
        assert ensemble_stats([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_point_symmetric(self):
        assert ensemble_stats([0.0, 2.0]) == (1.0, 1.0)

    def test_four_members_population_std(self):
        # independent one-line cross-check of the population (1/m) estimator
        members = [1.0, 2.0, 3.0, 4.0]
        mean = sum(members) / 4
        expected_std = math.sqrt(sum((x - mean) ** 2 for x in members) / 4)
        got_mean, got_std = ensemble_stats(members)
        assert got_mean == pytest.approx(2.5, abs=0)
        assert got_std == pytest.approx(expected_std, rel=1e-12)
        assert got_std == pytest.approx(1.118034, abs=1e-6)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            ensemble_stats([])
        with pytest.raises(ValueError, match="at least one member"):
            cube([fc([])])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            members = rng.normal(0, 5, size=rng.integers(2, 12)).tolist()
            a = ensemble_stats(members)
            b = ensemble_stats(list(reversed(members)))
            perm = rng.permutation(len(members))
            c = ensemble_stats([members[i] for i in perm])
            assert b == pytest.approx(a, rel=1e-12) and c == pytest.approx(a, rel=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            members = rng.normal(2, 3, size=8)
            alpha, beta = rng.normal(0, 2), rng.normal(0, 10)
            base_mean, base_std = ensemble_stats(members)
            mapped_mean, mapped_std = ensemble_stats(alpha * members + beta)
            assert mapped_mean == pytest.approx(alpha * base_mean + beta, abs=1e-9)
            assert mapped_std == pytest.approx(abs(alpha) * base_std, abs=1e-9)


def obs_series(hours_and_values, station="S1"):
    return ObservationSeries(
        station_id=station,
        times=_micros(T0 + timedelta(hours=h) for h, _ in hours_and_values),
        values=[v for _, v in hours_and_values],
    )


class TestAlign:
    def make_forecasts(self, n_days=3, lead=12, station="S1", model="A"):
        return cube([fc([1.0, 2.0], init=T0 + timedelta(days=d), lead=lead, station=station) for d in range(n_days)],
                    model)

    def obs_for_days(self, days, lead=12):
        return obs_series([(24 * d + lead, 15.0 + d) for d in days])

    def test_complete_obs_three_samples(self):
        table, dropped = align([self.make_forecasts(3)], self.obs_for_days([0, 1, 2]), 12)
        assert len(table) == 3
        assert dropped == 0
        assert table.observation.tolist() == [15.0, 16.0, 17.0]
        assert (table.init_days - T0.date().toordinal()).tolist() == [0, 1, 2]

    def test_missing_middle_observation(self):
        table, dropped = align([self.make_forecasts(3)], self.obs_for_days([0, 2]), 12)
        assert len(table) == 2
        assert dropped == 1

    def test_nan_observation_is_missing(self):
        obs = obs_series([(12, 15.0), (36, math.nan), (60, 17.0)])
        table, dropped = align([self.make_forecasts(3)], obs, 12)
        assert len(table) == 2
        assert dropped == 1

    def test_two_models_intersection(self):
        # model B lacks the middle init
        b = cube([fc([1.0, 2.0], init=T0 + timedelta(days=d)) for d in (0, 2)], "B")
        table, dropped = align([self.make_forecasts(3), b], self.obs_for_days([0, 1, 2]), 12)
        assert len(table) == 2
        assert dropped == 1
        assert table.models == ("A", "B") and table.mean.shape == table.std.shape == (2, 2)

    def test_station_mismatch_rejected(self):
        other = obs_series([(12, 15.0)], station="S2")
        with pytest.raises(ValueError):
            align([self.make_forecasts(1)], other, 12)

    def test_sorted_and_bounded(self):
        rng = np.random.default_rng(3)
        ensembles = [fc([1.0, 2.0], init=T0 + timedelta(days=d)) for d in range(10)]
        rng.shuffle(ensembles)
        forecasts = cube(ensembles + [fc([5.0], init=T0 + timedelta(days=d), lead=6) for d in range(10)])
        obs = self.obs_for_days(range(10))
        table, _ = align([forecasts], obs, 12)
        assert len(table) <= min(len(forecasts), len(obs.times))
        days = table.init_days - T0.date().toordinal()
        assert days.tolist() == sorted(days.tolist())
        assert table.observation.tolist() == [15.0 + d for d in days]

    def test_init_times_match_exactly(self):
        # Valid times are matched as integers: fractional seconds and naive
        # (UTC) timestamps pair as the datetimes themselves would.
        for t0 in (T0 + timedelta(microseconds=123457), datetime(2017, 6, 1, 0, 0, 0, 999999)):
            inits = [t0 + timedelta(days=d) for d in range(3)]
            obs = ObservationSeries("S1", _micros(t + timedelta(hours=12, microseconds=m) for t, m in zip(inits, (0, 1, 0))),
                                    [1.0, 2.0, 3.0])
            table, dropped = align([cube([fc([1.0, 2.0], init=t) for t in inits])], obs, 12)
            assert (table.observation.tolist(), dropped) == ([1.0, 3.0], 1)

    def test_member_counts_differ_between_inits(self):
        # Stats come from one reduction per member count; each row must
        # still carry its own ensemble's statistics, bit for bit.
        rng = np.random.default_rng(5)
        sizes = [3, 5, 3, 1, 5, 4]
        forecasts = [
            cube([fc(rng.normal(10.0, 2.0, size=n).tolist(), init=T0 + timedelta(days=d)) for d, n in enumerate(sizes)], m)
            for m in ("B", "A")
        ]
        assert [len(c.members) for c in forecasts] == [4, 4]
        table, dropped = align(forecasts, self.obs_for_days(range(len(sizes))), 12)
        assert (dropped, table.models) == (0, ("B", "A"))
        for k, forecast in enumerate(forecasts):
            for f in forecast:
                d = (f.init_time - T0).days
                want_mean, want_std = ensemble_stats(f.members)
                assert (table.mean[d, k].hex(), table.std[d, k].hex()) == (want_mean.hex(), want_std.hex())


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 21, 51, 100, 128, 129, 200])
def test_row_wise_stats_bit_identical_to_ensemble_stats(size):
    # align reduces the ensembles of one member count as matrix rows; that
    # must give exactly the floats ensemble_stats gives for each ensemble.
    rng = np.random.default_rng(size)
    ensembles = [(rng.normal(0.0, 10.0, size) * 10.0 ** rng.integers(-3, 4)).tolist() for _ in range(40)]
    forecasts = cube([fc(members, init=T0 + timedelta(days=d)) for d, members in enumerate(ensembles)])
    table, _ = align([forecasts], obs_series([(24 * d + 12, 0.0) for d in range(40)]), 12)
    for d, members in enumerate(ensembles):
        want_mean, want_std = ensemble_stats(members)
        assert (table.mean[d, 0].hex(), table.std[d, 0].hex()) == (want_mean.hex(), want_std.hex())


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
            ObservationSeries("S1", times=_micros([T0, T0]), values=[1.0, 2.0])



# Hours near 0 make hits common; the wide range reaches the int64 extremes of the search.
micros_keys = st.integers(-100, 100) | st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=st.dictionaries(micros_keys, st.floats() | st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
                             max_size=20),
       queries=st.lists(micros_keys, max_size=20))
def test_values_at_matches_a_dict(table, queries):
    times = sorted(table)
    series = ObservationSeries("S1", times, [table[t] for t in times])
    queries = np.array(queries + times[::-1], dtype=np.int64)
    want = np.array([table.get(t, math.nan) for t in queries.tolist()])
    assert series.values_at(queries).tobytes() == want.tobytes()  # bit for bit, signed zeros and NaNs too
    assert series.values_at(queries.reshape(1, -1)).tobytes() == want.tobytes()


@st.composite
def lookup_cases(draw):
    """Distinct key rows of 1-3 int64 columns, query rows with codes of -1
    (labels no key has) among them, and ``within``: one value, or one per
    query row; negative ones find nothing."""
    width = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-1, 2)] * (width - 1), st.integers(0, 9))
    keys = draw(st.lists(row.filter(lambda r: -1 not in r[:-1]), max_size=12, unique=True))
    queries = draw(st.lists(row, max_size=12))
    within = draw(st.integers(-1, 6) | st.lists(st.integers(-1, 6), min_size=len(queries), max_size=len(queries)))
    return width, keys, queries, within


def oracle_lookup(keys, queries, within):
    """Row by row: the key row with the query's leading columns whose last
    column is the largest in [q - within, q]."""
    limits = within if isinstance(within, list) else [within] * len(queries)
    found = []
    for (*head, q), w in zip(queries, limits):
        rows = [i for i, (*h, k) in enumerate(keys) if h == head and q - w <= k <= q]
        found.append(max(rows, key=lambda i: keys[i][-1], default=-1))
    return found


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=lookup_cases())
def test_lookup_matches_a_row_by_row_search(case):
    width, keys, queries, within = case

    def columns(rows):
        return [np.array([r[j] for r in rows], dtype=np.int64) for j in range(width)]

    limit = within if isinstance(within, int) else np.array(within, dtype=np.int64)
    got = lookup(columns(keys), columns(queries), limit)
    assert got.dtype == np.int64 and got.tolist() == oracle_lookup(keys, queries, within)


def test_lookup_cases_cover_every_kind():
    # The drawn cases include exact and windowed hits, windows per query row,
    # -1 codes and empty keys and queries; a sample of fixed cases pins each.
    keys = [np.array([0, 0, 1], dtype=np.int64), np.array([3, 5, 5], dtype=np.int64)]
    queries = [np.array([0, 0, 0, 1, -1], dtype=np.int64), np.array([5, 4, 9, 5, 5], dtype=np.int64)]
    assert lookup(keys, queries).tolist() == [1, -1, -1, 2, -1]
    assert lookup(keys, queries, 1).tolist() == [1, 0, -1, 2, -1]
    assert lookup(keys, queries, np.array([0, 0, 4, 0, 9])).tolist() == [1, -1, 1, 2, -1]
    empty = [np.empty(0, dtype=np.int64)] * 2
    assert lookup(empty, queries, 3).tolist() == [-1] * 5 and lookup(keys, empty).tolist() == []


class TestForecastCube:
    def test_iterates_sorted_ensembles_with_their_statistics(self):
        later = T0 + timedelta(days=1)
        forecasts = cube([fc([3.0, 5.0], init=later), fc([1.0], lead=6, station="S2"), fc([0.0, 2.0, 4.0])])
        assert (forecasts.station_ids, forecasts.init_times, len(forecasts)) == (("S1", "S2"), (T0, later), 3)
        assert list(forecasts) == [
            EnsembleForecast("S1", "A", T0, 12, (0.0, 2.0, 4.0)),
            EnsembleForecast("S1", "A", later, 12, (3.0, 5.0)),
            EnsembleForecast("S2", "A", T0, 6, (1.0,)),
        ]
        assert forecasts.keys() == [(f.station_id, f.init_time, f.lead_time) for f in forecasts]
        assert [m.shape for m in forecasts.members] == [(1, 1), (1, 2), (1, 3)]
        assert forecasts.mean.tolist() == [2.0, 4.0, 1.0] and forecasts.std.tolist()[1:] == [1.0, 0.0]
        assert forecasts.init_days.tolist() == [T0.toordinal(), later.toordinal()]
        assert forecasts.rows("S1", 12).tolist() == [0, 1] and forecasts.rows("S1", 6).tolist() == []

    def test_arrays_are_read_only(self):
        matrix = np.ones((2, 3))
        forecasts = ForecastCube("A", ("S1",), (T0,), [0, 0], [0, 0], [1, 2], [0, 0], [matrix])
        matrix[0, 0] = 5.0  # writable inputs are copied
        assert forecasts.members[0][0, 0] == 1.0
        for array in (forecasts.lead, forecasts.members[0], forecasts.mean, forecasts.row, forecasts.init_days):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_validation(self):
        one = [np.ones((1, 2))]
        for args, match in [
            ((("S1",), (T0,), [0], [0], [-3], [0], one), "lead_time must be >= 0, got -3"),
            ((("S1",), (T0,), [0], [0], [1], [0], [np.full((1, 2), np.inf)]), "finite"),
            ((("S1", "S2"), (T0,), [0], [0], [1], [0], one), "labels"),
            ((("S2", "S1"), (T0,), [1, 0], [0, 0], [1, 1], [0, 0], [np.ones((2, 2))]), "labels"),
            ((("S1",), (T0,), [0, 0], [0, 0], [1, 1], [0, 0], [np.ones((2, 2))]), "each key once"),
            ((("S1",), (T0,), [0], [0], [1], [0], [np.ones((2, 2))]), "one row per ensemble"),
            ((("S1",), (T0,), [0], [0], [1], [1], one), "one row per ensemble"),
            ((("S1",), (T0,), [0, 0], [0, 0], [1, 2], [0, 1], [np.ones((1, 2)), np.ones((1, 2))]), "per member count"),
        ]:
            with pytest.raises(ValueError, match=match):
                ForecastCube("A", *args)

    @pytest.mark.parametrize("members", [(1.7e308, -1.7e308), (1.7e308, 1.7e308)], ids=["spread", "mean"])
    def test_overflowing_statistics_name_the_ensemble(self, members):
        # finite members whose std (first) or mean (second) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match=r"station S2, init time 2017-06-01T00:00:00\+00:00, lead 6 h"):
                cube([fc([0.0, 2.0]), fc(members, lead=6, station="S2"), fc(members, lead=7, station="S2")])
