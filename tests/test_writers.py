"""Differential tests of the block writers of forecast and observation files
against the row writers they replaced (``oracle_write_forecasts`` and
``oracle_write_observations`` below, the latter fed each series' datetimes):
every file must be byte-identical, whatever the station ids hold. A forecast
file's values are formatted by a printf template, so its format must give
``fmt_float``'s text for every float."""

import math
from datetime import date, datetime, timedelta, timezone, tzinfo
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit import io as eio
from emoskit.domain import ObservationSeries, _micros
from emoskit.io import _FORECAST_COLUMNS, fmt_float, format_timestamp, write_forecasts, write_observations, write_table

from conftest import forecast_cube

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)
# Values at the edges of the 9-digit format: signed zeros, subnormals, and
# magnitudes where it switches to an exponent.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1.2345678951e16, 123456789.5,
               1e-5, 0.0001, -999999999.5]


def oracle_write_observations(path, observations: dict[str, list[tuple[datetime, float]]]) -> None:
    """The row writer, on each station's (valid time, value) pairs in time order."""
    rows = (
        [sid, format_timestamp(t), fmt_float(v)]
        for sid in sorted(observations)
        for t, v in observations[sid]
        if not math.isnan(v)  # missing observations are simply absent rows
    )
    write_table(path, ["station_id", "valid_time", "temp_c"], rows)


def series_of(observations: dict[str, list[tuple[datetime, float]]]) -> dict[str, ObservationSeries]:
    return {sid: ObservationSeries(sid, _micros(t for t, _ in pairs), [v for _, v in pairs])
            for sid, pairs in observations.items()}


class SummerTime(tzinfo):
    """UTC+1, and UTC+2 on local dates from 1 April to 30 September: a zone
    whose wall clock steps differ from real time at its changes."""

    def utcoffset(self, dt):
        return timedelta(hours=2 if date(dt.year, 4, 1) <= dt.date() < date(dt.year, 10, 1) else 1)

    def dst(self, dt):
        return self.utcoffset(dt) - timedelta(hours=1)


def oracle_write_forecasts(path, forecasts) -> None:
    inits = [format_timestamp(t) for t in forecasts.init_times]
    values = [matrix.tolist() for matrix in forecasts.members]

    def member_rows(s, t, lead, j, r):
        sid, init = forecasts.station_ids[s], inits[t]
        return [[sid, init, lead, idx, fmt_float(v)] for idx, v in enumerate(values[j][r])]

    f = forecasts
    rows = chain.from_iterable(map(member_rows, *(a.tolist() for a in (f.station, f.init, f.lead, f.block, f.row))))
    write_table(path, _FORECAST_COLUMNS, rows)


# Station ids with the characters the csv module quotes or doubles, spaces and
# non-ASCII text.
station_ids = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\t;é日ü ')), max_size=6)
# Bounded so that a cube's ensemble spreads do not overflow; the format tests
# below take every float.
values = st.floats(-1e150, 1e150) | st.sampled_from(EDGE_VALUES)


@st.composite
def cubes(draw):
    stations = draw(st.lists(station_ids, min_size=1, max_size=3, unique=True))
    hours = draw(st.lists(st.integers(0, 24 * 400), min_size=1, max_size=3, unique=True))
    leads = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3, unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(stations), st.sampled_from(hours), st.sampled_from(leads)),
                         min_size=1, max_size=8, unique=True))
    widths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True))
    ensembles = []
    for sid, hour, lead in keys:
        members = draw(st.sampled_from(widths).flatmap(lambda width: st.lists(values, min_size=width, max_size=width)))
        ensembles.append((sid, T0 + timedelta(hours=hour), lead, members))
    return forecast_cube("m", ensembles)


# Valid times in UTC, a fixed offset or a DST zone, or naive (taken as UTC),
# in years 1-9999 (inside that range in UTC too), sub-second ones included.
valid_times = st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30),
                           timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-9, minutes=-30)),
                                                      SummerTime()]))
hourly_times = st.integers(0, 24 * 400).map(lambda h: T0 + timedelta(hours=h))


@st.composite
def observation_sets(draw):
    """Station -> (valid time, value) pairs in time order, each time once."""
    out = {}
    for sid in draw(st.lists(station_ids, max_size=3, unique=True)):
        times = draw(st.lists(hourly_times | valid_times, max_size=12))
        times = sorted({_micros([t])[0]: t for t in times}.items())  # one time per instant, in order
        gappy = values | st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
        out[sid] = [(t, draw(gappy)) for _, t in times]
    return out


@PROPERTY_SETTINGS
@given(cubes())
def test_forecast_file_is_byte_identical(tmp_path_factory, cube):
    tmp = tmp_path_factory.mktemp("forecasts")
    write_forecasts(tmp / "block.csv", cube)
    oracle_write_forecasts(tmp / "row.csv", cube)
    assert (tmp / "block.csv").read_bytes() == (tmp / "row.csv").read_bytes()


@PROPERTY_SETTINGS
@given(observation_sets())
def test_observation_file_is_byte_identical(tmp_path_factory, observations):
    tmp = tmp_path_factory.mktemp("observations")
    write_observations(tmp / "block.csv", series_of(observations))
    oracle_write_observations(tmp / "row.csv", observations)
    assert (tmp / "block.csv").read_bytes() == (tmp / "row.csv").read_bytes()


@pytest.mark.parametrize("times", [
    # wall hours 22-03 across the autumn change: 1 h apart on the wall, the
    # change's step 2 h apart in real time
    [datetime(2017, 9, 30, 22, tzinfo=SummerTime()) + timedelta(hours=h) for h in range(6)],
    [datetime(1, 1, 1, tzinfo=timezone.utc), datetime(9, 2, 3, 4, 5, 6), datetime(99, 12, 31, 23, 59, 59),
     datetime(999, 6, 30, 12, tzinfo=SummerTime())],
    [datetime(1969, 12, 31, 23, 59, 59, 999999), datetime(1970, 1, 1, 0, 0, 0, 1), datetime(1970, 1, 1, 0, 0, 1),
     datetime(2017, 1, 1, 0, 0, 59, 500000, tzinfo=timezone.utc)],
], ids=["dst-change", "years-1-999", "around-1970-sub-second"])
def test_observation_file_edge_times_are_byte_identical(tmp_path, times):
    observations = {"S1": [(t, float(i)) for i, t in enumerate(times)]}
    write_observations(tmp_path / "block.csv", series_of(observations))
    oracle_write_observations(tmp_path / "row.csv", observations)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(st.floats() | st.sampled_from(EDGE_VALUES + [math.nan, -math.nan, math.inf, -math.inf]))
def test_forecast_value_format_is_fmt_float(v):
    assert eio._FLOAT_FORMAT % v == fmt_float(v)


def test_forecast_value_format_on_random_bit_patterns():
    floats = np.frombuffer(np.random.default_rng(0).bytes(8 * 20_000), dtype=np.float64).tolist()
    assert [eio._FLOAT_FORMAT % v for v in floats] == [fmt_float(v) for v in floats]
