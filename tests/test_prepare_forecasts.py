"""Differential tests of ``pipeline.prepare_forecasts`` against the path it
replaced (``oracle_prepare_forecasts`` below, kept as it was): lapse
correction station by station into a new cube, then ``interpolate_leads``
of that cube (``oracle_interpolate_leads``, also kept as it was). The
members, keys, means and spreads must equal the oracle's bit for bit, and
the inputs the oracle rejects must raise its messages. The traced heap of a
preparation stays under a bound that the replaced path exceeds."""

import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit import synth
from emoskit.domain import ForecastCube, StationMetadata
from emoskit.pipeline import grid_elevations, prepare_forecasts
from emoskit.terrain import lapse_correct

from conftest import forecast_cube

T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)


def oracle_interpolate_leads(forecasts: ForecastCube, source_step: int = 3) -> ForecastCube:
    f = forecasts
    same_run = (f.station[1:] == f.station[:-1]) & (f.init[1:] == f.init[:-1])
    gap = np.where(same_run, f.lead[1:] - f.lead[:-1], 0)
    fill = gap > 1
    bad = np.flatnonzero((gap > source_step) | fill & (f.block[1:] != f.block[:-1]))
    if bad.size:
        i = bad[0]
        lo, hi = f.lead[i], f.lead[i + 1]
        if gap[i] <= source_step:
            raise ValueError(f"member count changes between leads {lo} and {hi}")
        raise ValueError(
            f"lead gap {lo}..{hi} exceeds the native step of {source_step} h "
            f"for station {f.station_ids[f.station[i]]} init {f.init_times[f.init[i]]:%Y-%m-%dT%H}"
        )
    if not fill.any():
        return forecasts

    # One new ensemble per interpolated lead, placed after ensemble ``lo``.
    steps = gap[fill] - 1
    lo = np.repeat(np.flatnonzero(fill), steps)
    offset = np.arange(len(lo)) - np.repeat(np.cumsum(steps) - steps, steps) + 1
    w, place = (offset / gap[lo])[:, None], lo + 0.5
    members = []
    for j, matrix in enumerate(f.members):
        at = f.block[lo] == j
        filled = (1.0 - w[at]) * matrix[f.row[lo[at]]] + w[at] * matrix[f.row[lo[at] + 1]]
        order = np.argsort(np.concatenate([np.flatnonzero(f.block == j), place[at]]), kind="stable")
        members.append(np.concatenate([matrix, filled])[order])
    order = np.argsort(np.concatenate([np.arange(len(f)), place]), kind="stable")
    station, init, lead, block = (np.concatenate(pair)[order] for pair in (
        (f.station, f.station[lo]), (f.init, f.init[lo]), (f.lead, f.lead[lo] + offset), (f.block, f.block[lo])))
    return ForecastCube(f.model_id, f.station_ids, f.init_times, station, init, lead, block, members)


def oracle_prepare_forecasts(forecasts: ForecastCube, stations, coarse_step) -> ForecastCube:
    model = forecasts.model_id
    elevations = grid_elevations(model, forecasts.station_ids, stations)
    members = []
    for j, matrix in enumerate(forecasts.members):
        codes = forecasts.station[forecasts.block == j]  # sorted, as the rows are in ensemble order
        members.append(np.concatenate([lapse_correct(matrix[codes == code], *elevation)
                                       for code, elevation in enumerate(elevations)]))
    corrected = ForecastCube(model, forecasts.station_ids, forecasts.init_times, forecasts.station, forecasts.init,
                             forecasts.lead, forecasts.block, members)
    return corrected if coarse_step is None else oracle_interpolate_leads(corrected, source_step=coarse_step)


def outcome(prepare, cube, stations, coarse_step):
    """The prepared cube's arrays as bytes, or the message of its ValueError."""
    try:
        out = prepare(cube, stations, coarse_step)
    except ValueError as err:
        return str(err)
    arrays = [*out.members, out.station, out.init, out.lead, out.block, out.mean, out.std]
    return [(a.shape, a.tobytes()) for a in arrays], out.station_ids, out.init_times


@st.composite
def coarse_cubes(draw):
    """A cube of 1-3 stations and 1-3 init times; each run has its own lead
    grid, steps of 1-3 h (in one cube of four also 4 h, past a 3 h native
    step), and member count, which may change from one lead to the next; and
    the stations with their elevations."""
    n_stations = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    elevation = st.floats(-50.0, 3500.0, allow_nan=False)
    step = st.sampled_from([1, 2, 3, 3, 4] if draw(st.integers(0, 3)) == 0 else [1, 2, 3, 3])
    ensembles = []
    for s in range(n_stations):
        for day in draw(st.sets(st.integers(0, 2), min_size=1)):
            lead, width = draw(st.integers(0, 6)), draw(st.sampled_from([1, 2, 5, 21]))
            for _ in range(draw(st.integers(1, 6))):
                if draw(st.integers(0, 9)) == 0:  # the member count changes at this lead
                    width = draw(st.sampled_from([1, 2, 5, 21]))
                ensembles.append((f"S{s}", T0 + timedelta(days=day), lead, tuple(rng.normal(5.0, 8.0, width))))
                lead += draw(step)
    stations = [StationMetadata(f"S{s}", 46.0, 7.0, draw(elevation), {"m": draw(elevation)}) for s in range(n_stations)]
    return forecast_cube("m", ensembles), stations


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=coarse_cubes(), coarse_step=st.sampled_from([None, 2, 3, 3, 3]), fill_rows=st.sampled_from([1, 2, 1024]))
def test_prepared_cube_equals_oracle(drawn, coarse_step, fill_rows):
    cube, stations = drawn
    want = outcome(oracle_prepare_forecasts, cube, stations, coarse_step)
    with mock.patch.object(synth, "_FILL_ROWS", fill_rows):  # the fill passes, split down to one row each
        assert outcome(prepare_forecasts, cube, stations, coarse_step) == want


def test_oracle_cases_cover_fills_and_both_rejections():
    # One cube of each kind the property draws: a gap to fill, a gap past the
    # native step and a member count that changes across a gap.
    stations = [StationMetadata("S1", 46.0, 7.0, 500.0, {"m": 700.0})]
    fill, past, change = (forecast_cube("m", [("S1", T0, lo, (1.0, 2.0)), ("S1", T0, hi, members)])
                          for lo, hi, members in ((0, 3, (4.0, 8.0)), (4, 8, (0.0, 1.0)), (0, 3, (4.0,))))
    for cube in (fill, past, change):
        assert outcome(prepare_forecasts, cube, stations, 3) == outcome(oracle_prepare_forecasts, cube, stations, 3)
    prepared = prepare_forecasts(fill, stations, 3)
    assert prepared.lead.tolist() == [0, 1, 2, 3]
    assert prepared.members[0][:, 0].tolist() == [2.2, 3.2, 4.2, 5.2]  # 1.2 warmer: the grid point is 200 m up
    assert outcome(prepare_forecasts, past, stations, 3) == ("lead gap 4..8 exceeds the native step of 3 h "
                                                             "for station S1 init 2017-01-01T00")
    assert outcome(prepare_forecasts, change, stations, 3) == "member count changes between leads 0 and 3"


def coarse_cube(n_stations=4, n_inits=20, leads=range(0, 61, 3), members=51):
    """Every station and init time on one 3-hourly lead grid, one matrix of
    normal members: 1,680 ensembles that fill to 4,880 (1.99 MB)."""
    s, t, lead = (a.ravel() for a in np.meshgrid(np.arange(n_stations), np.arange(n_inits), list(leads), indexing="ij"))
    values = np.random.default_rng(0).normal(10.0, 5.0, (len(lead), members))
    return ForecastCube("m", [f"S{i}" for i in range(n_stations)], [T0 + timedelta(days=d) for d in range(n_inits)],
                        s, t, lead, np.zeros_like(lead), [values])


def test_preparation_writes_each_member_matrix_once():
    cube = coarse_cube()
    stations = [StationMetadata(f"S{i}", 46.0, 7.0, 500.0 + 300.0 * i, {"m": 800.0 + 100.0 * i}) for i in range(4)]
    tracemalloc.start()
    try:
        out = prepare_forecasts(cube, stations, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome(prepare_forecasts, cube, stations, 3) == outcome(oracle_prepare_forecasts, cube, stations, 3)
    # The new matrix, and one temporary of its size while its spreads are
    # computed: 4.94 MB (2.48 times the matrix) with numpy 2.4, against
    # 9.51 MB (4.78 times) for the lapse-corrected cube interpolated after.
    assert peak <= 3.0 * out.members[0].nbytes
