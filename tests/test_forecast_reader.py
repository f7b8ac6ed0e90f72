"""Differential tests of the streaming forecast reader against the row-by-row
reader it replaced (``oracle_read_forecasts`` below, kept as it was, except
that it reads a lead as >= 0 and a member value as finite, where the
per-ensemble record it built raised an unlocated ValueError): valid files must
read equal, bit for bit, and corrupt files must fail alike. A read filtered
to some init dates must equal the oracle's ensembles of those dates, and
fail like the oracle on any station, init-time or lead cell."""

import csv
import io as textio
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit import cli
from emoskit import io as eio
from emoskit.domain import EnsembleForecast
from emoskit.io import SchemaError, format_timestamp, parse_config, read_forecasts

from row_oracles import _TableReader

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# More examples where a drawn filter splits them between the line scan and
# the full read it falls back to.
FILTER_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=60)
HEADER = ["station_id", "init_time", "lead_h", "member_idx", "temp_c"]
T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)


def oracle_read_forecasts(path, model_id: str) -> list[EnsembleForecast]:
    groups: dict[tuple[str, datetime, int], list[tuple[int, float]]] = {}
    with _TableReader(path, ["station_id", "init_time", "lead_h", "member_idx", "temp_c"]) as reader:
        for line_no, row in reader.rows():
            key = (row.str("station_id"), row.timestamp("init_time"), row.int("lead_h", 0))
            groups.setdefault(key, []).append((row.int("member_idx"), row.finite("temp_c")))
    out = []
    for (sid, init_time, lead), members in sorted(groups.items()):
        members.sort(key=lambda m: m[0])
        indices = [i for i, _ in members]
        if indices != list(range(len(members))):
            raise SchemaError(path, None, "member_idx", f"members of {sid} {format_timestamp(init_time)} lead {lead} are not contiguous from 0")
        out.append(
            EnsembleForecast(
                station_id=sid,
                model_id=model_id,
                init_time=init_time,
                lead_time=lead,
                members=tuple(v for _, v in members),
            )
        )
    return out


def exact(forecasts):
    """Forecasts (a cube, or the oracle's records) with members as float bit
    patterns and leads with their type, so equality below is bitwise and
    type-exact."""
    return [
        (f.station_id, f.model_id, f.init_time, type(f.lead_time), f.lead_time, tuple(v.hex() for v in f.members))
        for f in forecasts
    ]


def bulk_result(path, model_id="m"):
    """The cube of an unfiltered read: the streaming scan's, or the row
    reader's where the scan hands the file over."""
    return read_forecasts(path, model_id)


def scan_takes(path) -> bool:
    """Whether the streaming scan reads the file itself, without the row
    reader."""
    with _TableReader(path, HEADER) as reader:
        return eio._scan_forecasts(reader, None) is not None


def to_text(rows, blank_lines=(), order=range(5)):
    """CSV text of the header and ``rows`` (lists of cells, quoted as the
    csv module quotes them) with the columns in ``order`` (a missing last
    cell stays missing, an extra one stays last), and blank lines inserted
    before the given row positions."""
    lines = []
    for cells in [HEADER, *rows]:
        buf = textio.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([cells[i] for i in order if i < len(cells)] + cells[5:])
        lines.append(buf.getvalue())
    for position, blank in sorted(blank_lines, reverse=True):
        lines.insert(1 + min(position, len(rows)), blank)
    return "".join(lines)


# Station ids with characters that need quoting (",", '"') or that a reader
# with comments on would cut ("#"), and spaces that the reader strips.
station_ids = st.text(alphabet='AS09,"# ', min_size=1, max_size=5).filter(lambda s: s.strip())
plain_station_ids = st.text(alphabet="AS09# ", min_size=1, max_size=5).filter(lambda s: s.strip())
members = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False, allow_infinity=False)
# No filter, or the init dates (days after T0) a filtered read keeps.
init_days = st.none() | st.sets(st.integers(0, 16), max_size=17)
# The header order, half the time the written one.
column_orders = st.just(list(range(5))) | st.permutations(range(5))


def date_filter(days):
    return None if days is None else {(T0 + timedelta(days=d)).date() for d in days}.__contains__


@st.composite
def forecast_rows(draw):
    """Member rows of up to 3 stations x 2 init times x 2 leads, each
    ensemble with its own member count, numbers written with repr or 9
    significant digits, some padded with spaces, timestamps in either UTC
    spelling; shuffled. Half the files are plain, the files a filtered read
    scans: no quoted station ids and no padded lead cells."""
    plain = draw(st.booleans())
    stations = draw(st.lists(plain_station_ids if plain else station_ids, min_size=1, max_size=3, unique=True))
    inits = draw(st.lists(st.integers(0, 400), min_size=1, max_size=2, unique=True))
    leads = draw(st.lists(st.integers(0, 240), min_size=1, max_size=2, unique=True))
    keys = [(s, i, lead) for s in stations for i in inits for lead in leads]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    rows = []
    for station, init_h, lead in chosen:
        t = T0 + timedelta(hours=init_h)
        for idx in range(draw(st.integers(1, 5))):
            value = draw(members)
            text = draw(st.sampled_from([repr(value), eio.fmt_float(value)]))
            pad = draw(st.sampled_from(["", " ", "  "]))
            init = draw(st.sampled_from([format_timestamp(t), t.isoformat()]))
            lead_cell = str(lead) if plain else f"{pad}{lead}{pad}"
            rows.append([station, init, lead_cell, f"{pad}{idx}", f"{text}{pad}"])
    return draw(st.permutations(rows))


def kept_by(keep, forecasts):
    return forecasts if keep is None else [f for f in forecasts if keep(f.init_time.date())]


@FILTER_SETTINGS
@given(rows=forecast_rows(), blanks=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["\n", "  \n"])), max_size=3),
       order=column_orders, days=init_days)
def test_valid_files_read_equal_to_oracle(tmp_path_factory, rows, blanks, order, days):
    path = tmp_path_factory.mktemp("fc") / "forecasts_m.csv"
    path.write_text(to_text(rows, blanks, order), encoding="utf-8")
    expected = oracle_read_forecasts(path, "m")
    keep = date_filter(days)
    got = read_forecasts(path, "m", keep)
    assert exact(got) == exact(kept_by(keep, expected))
    # The labels of the whole file, whatever the filter kept.
    grids = {}
    for f in expected:
        grids.setdefault((f.station_id, f.init_time), []).append(f.lead_time)
    assert got.file_station_ids == tuple(sorted({f.station_id for f in expected}))
    assert got.file_init_times == tuple(sorted({f.init_time for f in expected}))
    assert got.file_lead_grids == frozenset(map(tuple, grids.values()))
    # The same file read without a filter.
    if "  \n" not in [blank for _, blank in blanks]:
        assert exact(bulk_result(path)) == exact(expected)


CORRUPTIONS = ["empty", "non_numeric", "fractional_int", "bad_timestamp", "extra_field", "missing_field",
               "blank_tail", "member_gap", "nan_member", "negative_lead"]


def corrupt(rows, row, kind, column):
    rows = [list(r) for r in rows]
    cells = rows[row]
    if kind == "empty":
        cells[column] = " " if column == 0 else ""
    elif kind == "non_numeric":
        cells[2 + column % 3] = "x1"
    elif kind == "fractional_int":
        # A lead or member index written as a float: "12.0", "12.5", "0.0".
        cell = 2 + column % 2
        cells[cell] = f"{int(cells[cell])}.{'5' if column > 2 else '0'}"
    elif kind == "bad_timestamp":
        # No month 13, or ISO-8601 that leaves the datetime range in UTC.
        cells[1] = "2017-13-01T00:00:00Z" if column < 3 else "0001-01-01T00:00:00+01:00"
    elif kind == "extra_field":
        cells.append("0")
    elif kind == "missing_field":
        cells.pop()
    elif kind == "blank_tail":
        # Four cells, the last one empty: what follows the lead cell is a
        # blank line to a tokenizer that reads it alone.
        cells[3:] = [""]
    elif kind == "member_gap":
        cells[3] = str(int(cells[3]) + 7)
    elif kind == "nan_member":
        cells[4] = "nan" if column < 3 else "-inf"
    elif kind == "negative_lead":
        cells[2] = "-3"
    return rows


def label_cell_corrupted(kind, column) -> bool:
    """Whether ``corrupt`` spoils a station, init-time or lead cell."""
    return (kind in ("bad_timestamp", "negative_lead") or kind == "empty" and column < 3
            or kind == "non_numeric" and column % 3 == 0 or kind == "fractional_int" and column % 2 == 0)


@FILTER_SETTINGS
@given(rows=forecast_rows(), data=st.data())
def test_corrupt_files_fail_like_oracle(tmp_path_factory, rows, data):
    kind = data.draw(st.sampled_from(CORRUPTIONS))
    row = data.draw(st.integers(0, len(rows) - 1))
    column = data.draw(st.integers(0, 4))
    order = data.draw(column_orders)
    keep = date_filter(data.draw(init_days))
    root = tmp_path_factory.mktemp("bad")
    path = root / "forecasts_m.csv"
    path.write_text(to_text(corrupt(rows, row, kind, column), order=order), encoding="utf-8")
    with pytest.raises(Exception) as expected:
        oracle_read_forecasts(path, "m")
    try:
        got = read_forecasts(path, "m", keep)
    except Exception as error:
        assert type(error) is type(expected.value)
        assert str(error) == str(expected.value)
        if isinstance(expected.value, SchemaError):
            assert (error.line_no, error.column) == (expected.value.line_no, expected.value.column)
    else:
        # Unseen: a member or value fault, or the ensemble it breaks, on a
        # date the filter skips. The kept ensembles are those of the clean file.
        assert keep is not None and not label_cell_corrupted(kind, column)
        assert not keep(eio.parse_timestamp(rows[row][1]).date())
        clean = root / "clean.csv"
        clean.write_text(to_text(rows, order=order), encoding="utf-8")
        assert exact(got) == exact(kept_by(keep, oracle_read_forecasts(clean, "m")))


@pytest.mark.parametrize("chunk_lines", [3, 7])
def test_differential_tests_with_chunk_edges_inside_ensembles(tmp_path_factory, monkeypatch, chunk_lines):
    # Ensembles of up to 5 members: chunks of 3 or 7 lines end inside them.
    monkeypatch.setattr(eio, "_CHUNK_LINES", chunk_lines)
    test_valid_files_read_equal_to_oracle(tmp_path_factory)
    test_corrupt_files_fail_like_oracle(tmp_path_factory)


@pytest.mark.parametrize("chunk_lines", [2, eio._CHUNK_LINES])
def test_ensemble_in_non_adjacent_runs(tmp_path, monkeypatch, chunk_lines):
    # The members of S1 lead 12 sit in two runs with lead 13's between them,
    # out of order; the scan takes the file, and it reads as the oracle does.
    monkeypatch.setattr(eio, "_CHUNK_LINES", chunk_lines)
    path = tmp_path / "forecasts_m.csv"
    path.write_text("station_id,init_time,lead_h,member_idx,temp_c\n"
                    "S1,2017-03-01T00:00:00Z,12,1,2.5\n"
                    "S1,2017-03-01T00:00:00Z,13,0,0.25\n"
                    "S1,2017-03-01T00:00:00Z,13,1,0.75\n"
                    "S1,2017-03-01T00:00:00Z,12,2,3.5\n"
                    "S1,2017-03-01T00:00:00Z,12,0,1.5\n")
    assert scan_takes(path)
    assert exact(read_forecasts(path, "m")) == exact(oracle_read_forecasts(path, "m"))
    assert [f.members for f in read_forecasts(path, "m")] == [(1.5, 2.5, 3.5), (0.25, 0.75)]


def test_row_ending_after_lead_fails_like_oracle(tmp_path):
    # What follows "12," on line 3 is a blank line to numpy, which skips it.
    path = tmp_path / "forecasts_m.csv"
    path.write_text("station_id,init_time,lead_h,member_idx,temp_c\n"
                    "S1,2017-03-01T00:00:00Z,12,0,1.5\n"
                    "S1,2017-03-01T00:00:00Z,12,\n"
                    "S1,2017-03-01T00:00:00Z,12,1,2.5\n")
    with pytest.raises(SchemaError) as expected:
        oracle_read_forecasts(path, "m")
    with pytest.raises(SchemaError) as got:
        read_forecasts(path, "m")
    assert str(got.value) == str(expected.value) == f"{path}:3: expected 5 fields, got 4"


@pytest.mark.parametrize(("lead", "member"), [("12.5", "0"), ("12", "0.0"), ("1e1", "0"), ("9" * 20, "0"),
                                               ("1_2", "0"), ("+12", " 0 ")])
def test_integer_cells_follow_int(tmp_path, lead, member):
    # Lead and member cells are read as int() reads them: a float cell is an
    # error, never truncated, and a big integer is not an overflow.
    path = tmp_path / "forecasts_m.csv"
    path.write_text(f"station_id,init_time,lead_h,member_idx,temp_c\nS1,2017-03-01T00:00:00Z,{lead},{member},1.5\n")
    try:
        expected = exact(oracle_read_forecasts(path, "m"))
    except SchemaError as error:
        with pytest.raises(SchemaError) as got:
            read_forecasts(path, "m")
        assert str(got.value) == str(error)
    else:
        assert exact(read_forecasts(path, "m")) == expected


@pytest.mark.parametrize("cell", ["12.5", "12.0", "1e1"])
def test_numpy_int64_parser_rejects_non_integer_cells(cell):
    # The streaming reader parses member cells with numpy's int64 parser and
    # hands a file it rejects to the row reader. Older numpy releases read
    # "12.5" as 12 with only a DeprecationWarning; under such a numpy this
    # fails instead of the reader taking a wrong member index.
    with pytest.raises(ValueError):
        np.loadtxt([f"S1,{cell}"], dtype=[("station_id", object), ("lead_h", np.int64)], delimiter=",",
                   comments=None, encoding="utf-8")


def test_single_data_row(tmp_path):
    path = tmp_path / "forecasts_m.csv"
    path.write_text("station_id,init_time,lead_h,member_idx,temp_c\nS1,2017-03-01T00:00:00Z,12,0,1.5\n")
    assert exact(bulk_result(path)) == exact(oracle_read_forecasts(path, "m"))
    assert list(read_forecasts(path, "m")) == [EnsembleForecast("S1", "m", datetime(2017, 3, 1, tzinfo=timezone.utc), 12, (1.5,))]


@pytest.mark.parametrize("station", ["S1", '"S1"'], ids=["scan", "row-reader"])
def test_overflowing_ensemble_is_rejected_by_key(tmp_path, station):
    path = tmp_path / "forecasts_m.csv"
    path.write_text("station_id,init_time,lead_h,member_idx,temp_c\n"
                    f"{station},2017-03-01T00:00:00Z,12,0,1.5\n"
                    f"{station},2017-03-01T00:00:00Z,18,0,1.7e308\n{station},2017-03-01T00:00:00Z,18,1,-1.7e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"station S1, init time 2017-03-01T00:00:00\+00:00, lead 18 h"):
            read_forecasts(path, "m")


@pytest.mark.parametrize("station", ["S1", '"S1"'], ids=["scan", "row-reader"])
@pytest.mark.parametrize(("lead", "value", "column"), [("-3", "2.5", "lead_h"), ("18", "nan", "temp_c"),
                                                      ("18", "inf", "temp_c")], ids=["negative-lead", "nan", "inf"])
def test_cell_out_of_domain_is_located(tmp_path, station, lead, value, column):
    path = tmp_path / "forecasts_m.csv"
    path.write_text("station_id,init_time,lead_h,member_idx,temp_c\n"
                    f"{station},2017-03-01T00:00:00Z,12,0,1.5\n"
                    f"{station},2017-03-02T00:00:00Z,{lead},0,{value}\n")
    with pytest.raises(SchemaError) as err:
        read_forecasts(path, "m")
    assert (err.value.path, err.value.line_no, err.value.column) == (str(path), 3, column)
    # A filter that drops 2017-03-02: the scan does not see a bad value there,
    # the row reader reads every cell, and a lead cell is read either way.
    keep = {datetime(2017, 3, 1).date()}.__contains__
    if station == "S1" and column == "temp_c":
        assert [f.lead_time for f in read_forecasts(path, "m", keep)] == [12]
    else:
        with pytest.raises(SchemaError) as err:
            read_forecasts(path, "m", keep)
        assert (err.value.line_no, err.value.column) == (3, column)


def test_columns_in_any_order(tmp_path):
    path = tmp_path / "forecasts_m.csv"
    path.write_text(
        "temp_c,member_idx,lead_h,init_time,station_id\n"
        "2.5,1,12,2017-03-01T00:00:00Z,S1\n"
        "1.5,0,12,2017-03-01T00:00:00Z,S1\n"
    )
    assert exact(bulk_result(path)) == exact(oracle_read_forecasts(path, "m"))


@pytest.mark.parametrize("workload", ["hindcast", "operational"])
def test_simulated_workload_files_read_bitwise_equal(tmp_path, workload):
    # The benchmark workloads' generator settings (ensemble sizes, leads, lead
    # interpolation), shortened to 12 days: the streaming scan must take these
    # files itself and give the oracle's floats bit for bit.
    cfg = parse_config(Path(__file__).resolve().parents[1] / "bench" / "workloads" / f"{workload}.cfg")
    cfg.update({"scenario.n_days": "12", "scenario.n_stations": "1"})
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "data"), "--seed", "1"]) == 0
    for model in ("hires", "global"):
        path = tmp_path / "data" / f"forecasts_{model}.csv"
        expected = exact(oracle_read_forecasts(path, model))
        assert scan_takes(path)
        assert exact(bulk_result(path, model)) == expected
        assert exact(read_forecasts(path, model)) == expected



@pytest.fixture(scope="module")
def megabyte_file(tmp_path_factory):
    """A simulated ``operational`` forecast file of more than 1 MB."""
    root = tmp_path_factory.mktemp("mb")
    cfg = parse_config(Path(__file__).resolve().parents[1] / "bench" / "workloads" / "operational.cfg")
    cfg.update({"scenario.n_days": "24", "scenario.n_stations": "1"})
    cfg_path = root / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(root / "data"), "--seed", "1"]) == 0
    path = root / "data" / "forecasts_global.csv"
    assert path.stat().st_size > 1_000_000
    return path


@pytest.mark.parametrize("days", [None, {23}, set(range(24))], ids=["no_filter", "one_date", "every_date"])
def test_read_peaks_under_twice_the_file_size(megabyte_file, days):
    keep = date_filter(days)
    read_forecasts(megabyte_file, "global", keep)  # first calls may import or cache
    tracemalloc.start()
    try:
        cube = read_forecasts(megabyte_file, "global", keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cube) > 0
    assert peak <= 2 * megabyte_file.stat().st_size
