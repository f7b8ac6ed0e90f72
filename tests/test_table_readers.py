"""The columnar tables and the column reader against the record code they
replaced.

- The column reader against the row readers it replaced (``row_oracles``:
  ``_read_store_rows``, ``_read_prediction_rows``, ``read_observations``,
  ``read_stations``): a valid file must read to an equal table, bit for bit,
  and a corrupt one must fail alike (exception type, message, line and
  column).
- The block writers against the row writers they replaced
  (``oracle_write_store``, ``oracle_write_predictions``, kept as they were):
  the same bytes.
- ``emos.predict_columns`` against ``emos.predict``, bit for bit.
- ``CoefficientStore.latest_before`` against the day-by-day probing it
  replaced (``oracle_latest_before``).
"""

import csv
import io as textio
import math
from itertools import chain
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit import io as eio
from emoskit.domain import GaussianPredictive, PredictionTable
from emoskit.emos import EmosCoefficients, FitResult, predict, predict_columns
from emoskit.io import (
    _PREDICTION_COLUMNS,
    _STORE_COLUMNS,
    SchemaError,
    fmt_float,
    format_timestamp,
    read_observations,
    read_predictions,
    read_stations,
    read_store,
    write_predictions,
    write_store,
    write_table,
)
from emoskit.pipeline import CoefficientKey, CoefficientStore, parse_strategy

from conftest import prediction_table
from row_oracles import _read_prediction_rows, _read_store_rows, read_observations as oracle_read_observations
from row_oracles import read_stations as oracle_read_stations

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)
STRATEGIES = ["single:m1", "single:m2", "mixed:m1+m2"]


# ---------------------------------------------------------------------------
# The row writers the block writers replaced
# ---------------------------------------------------------------------------


def oracle_write_store(path, store: CoefficientStore) -> None:
    def rows():
        for key, record in store.items():
            coef = record.coefficients
            absent = [""] * (2 - len(parse_strategy(key.strategy)[1]))
            b, d = [fmt_float(v) for v in coef.b], [fmt_float(v) for v in coef.d]
            yield [
                key.station_id,
                key.lead_time,
                key.strategy,
                key.issue_date.isoformat(),
                fmt_float(coef.a), *b, *absent, fmt_float(coef.c), *d, *absent,
                record.n_samples,
                fmt_float(record.objective),
                "true" if record.converged else "false",
                "true" if record.fallback else "false",
            ]

    write_table(path, _STORE_COLUMNS, rows())


def oracle_write_predictions(path, predictions: dict) -> None:
    cells = (
        [sid, format_timestamp(init), lead, strategy, fmt_float(pred.mu), fmt_float(pred.sigma)]
        for (sid, init, lead, strategy), pred in sorted(predictions.items())
    )
    write_table(path, _PREDICTION_COLUMNS, cells)


def oracle_latest_before(store, station_id, lead_time, strategy, issue_date, max_age_days):
    for age in range(1, max_age_days + 1):
        record = store.get(CoefficientKey(station_id, lead_time, strategy, issue_date - timedelta(days=age)))
        if record is not None:
            return record
    return None


# ---------------------------------------------------------------------------
# Drawn files
# ---------------------------------------------------------------------------

# Station ids with characters that need quoting, and spaces the readers strip.
station_ids = st.text(alphabet='AS09," ', min_size=1, max_size=5).filter(lambda s: s.strip())
plain_station_ids = st.text(alphabet="AS09 ", min_size=1, max_size=5).filter(lambda s: s.strip())
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
non_negative = st.floats(min_value=0.0, max_value=1e6)


def to_text(header, rows, blank_lines=()):
    """CSV text of ``header`` and ``rows`` (lists of cells, quoted as the csv
    module quotes them), with blank lines inserted before the given row
    positions."""
    lines = []
    for cells in [header, *rows]:
        buf = textio.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cells)
        lines.append(buf.getvalue())
    for position, blank in sorted(blank_lines, reverse=True):
        lines.insert(1 + min(position, len(rows)), blank)
    return "".join(lines)


def number(draw, value) -> str:
    """``value`` in 9 significant digits or as repr, sometimes padded."""
    pad = draw(st.sampled_from(["", "", " "]))
    return pad + draw(st.sampled_from([fmt_float(value), repr(value)])) + pad


@st.composite
def store_rows(draw):
    """Store rows of up to 3 stations x 2 leads x the 3 strategies x 3 issue
    dates, each key once; shuffled. Half the files are plain: no quoted ids."""
    plain = draw(st.booleans())
    stations = draw(st.lists(plain_station_ids if plain else station_ids, min_size=1, max_size=3,
                             unique_by=str.strip))
    leads = draw(st.lists(st.integers(0, 240), min_size=1, max_size=2, unique=True))
    days = draw(st.lists(st.integers(0, 400), min_size=1, max_size=3, unique=True))
    keys = [(s, lead, strategy, day) for s in stations for lead in leads for strategy in STRATEGIES for day in days]
    rows = []
    for sid, lead, strategy, day in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12, unique=True)):
        k = len(parse_strategy(strategy)[1])
        b = [number(draw, draw(non_negative)) for _ in range(k)] + [""] * (2 - k)
        d = [number(draw, draw(non_negative)) for _ in range(k)] + [""] * (2 - k)
        identity = draw(st.booleans())
        objective = "nan" if identity else number(draw, draw(non_negative))
        flags = [draw(st.sampled_from(["true", "false", "1", "0", "True", " false "])) for _ in range(2)]
        rows.append([sid, str(lead), strategy, (T0 + timedelta(days=day)).date().isoformat(),
                     number(draw, draw(values)), b[0], b[1], number(draw, draw(values)), d[0], d[1],
                     str(draw(st.integers(0, 60))), objective, *flags])
    return draw(st.permutations(rows))


@st.composite
def prediction_rows(draw):
    """Prediction rows of up to 3 stations x 2 init times x 2 leads x the 3
    strategies, each key once, init times in either UTC spelling; shuffled."""
    plain = draw(st.booleans())
    stations = draw(st.lists(plain_station_ids if plain else station_ids, min_size=1, max_size=3,
                             unique_by=str.strip))
    inits = draw(st.lists(st.integers(0, 400), min_size=1, max_size=2, unique=True))
    leads = draw(st.lists(st.integers(0, 240), min_size=1, max_size=2, unique=True))
    keys = [(s, i, lead, k) for s in stations for i in inits for lead in leads for k in STRATEGIES]
    rows = []
    for sid, init_h, lead, strategy in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12, unique=True)):
        t = T0 + timedelta(hours=init_h)
        rows.append([sid, draw(st.sampled_from([format_timestamp(t), t.isoformat()])), str(lead), strategy,
                     number(draw, draw(values)), number(draw, draw(st.floats(1e-300, 1e6)))])
    return draw(st.permutations(rows))


blank_lines = st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["\n", "  \n", "\r\n"])), max_size=2)


def store_bits(store: CoefficientStore):
    station_ids, strategies, rows = store.table()
    return station_ids, strategies, rows.tobytes()


def table_bits(table):
    return (table.station_ids, table.init_times, table.strategies,
            *(getattr(table, name).tobytes() for name in ("station", "init", "lead", "strategy", "mu", "sigma")))


def read_alike(bulk, rows):
    """The bulk read and the row read: equal results, or the same error."""
    try:
        expected = rows()
    except Exception as error:  # the row reader's failure, whatever it is, is the oracle
        with pytest.raises(Exception) as got:
            bulk()
        assert (type(got.value), str(got.value)) == (type(error), str(error))
        if isinstance(error, SchemaError):
            assert (got.value.line_no, got.value.column) == (error.line_no, error.column)
        return None
    return expected, bulk()


def split_takes(path, columns) -> bool:
    """Whether ``str.split`` cuts every chunk of the file: the csv module
    never takes over the rest of it (by ``chain``)."""
    handed_over = []
    with pytest.MonkeyPatch.context() as patch, eio._TableReader(path, columns) as reader:
        patch.setattr(eio, "chain", lambda *parts: handed_over.append(parts) or chain(*parts))
        for _ in eio._chunks(reader):
            pass
    return not handed_over


def bulk_takes_store(path) -> bool:
    return split_takes(path, _STORE_COLUMNS)


# ---------------------------------------------------------------------------
# The store reader
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(rows=store_rows(), blanks=blank_lines)
def test_valid_store_files_read_equal_to_row_reader(tmp_path_factory, rows, blanks):
    path = tmp_path_factory.mktemp("store") / "coeffs.csv"
    text = to_text(_STORE_COLUMNS, rows, blanks)
    path.write_text(text, encoding="utf-8", newline="")
    expected, got = read_alike(lambda: read_store(path), lambda: _read_store_rows(path))
    assert store_bits(got) == store_bits(expected)
    if '"' not in text and "  \n" not in text:  # no quoted id, no blank line of spaces: str.split cuts it
        assert bulk_takes_store(path)


# (kind, column) of each corruption of one cell or line. A column that a
# record does not use (b2 or d2 of a single-model record) takes the
# corruption as the row reader judges it: a number there is "must be empty".
B_D = [5, 6, 8, 9]
STORE_CORRUPTIONS = (
    [("empty", c) for c in range(14)]
    + [("text", c) for c in [1, 4, 7, 10, 11, *B_D]]
    + [("non_finite", c) for c in [4, 7, 11, *B_D]]
    + [("negative", c) for c in [1, 10, 11, *B_D]]
    + [("filled", c) for c in [6, 9]]
    + [("bad_label", c) for c in [2, 3, 12, 13]]
    + [("fractional_int", c) for c in [1, 10]]
    + [("repeated_key", None), ("extra_field", None), ("missing_field", None)]
)
BAD = {"empty": ["", " "], "text": ["x1"], "non_finite": ["nan", "inf", "-inf"], "negative": ["-3", "-0.5"],
       "fractional_int": ["12.0", "1e1"], "filled": ["0.5", "1"], "sigma": ["0", "-0.0", "-2.5"],
       "bad_label": ["mixed:m1", "2017-13-01", "yes", "single:"],
       "bad_timestamp": ["2017-13-01T00:00:00Z", "0001-01-01T00:00:00+01:00"],
       "out_of_range": ["95", "-181", "180.5", "-90"]}


def corrupt(rows, row, kind, column, draw, key=4):
    """``rows`` with row ``row`` spoilt: cell ``column`` replaced by a bad
    value of ``kind``, or the row repeated (its key, the first ``key``
    cells, with another row's values), lengthened or shortened."""
    rows = [list(r) for r in rows]
    cells = rows[row]
    if kind == "repeated_key":
        twin = cells[:key] + list(rows[draw(st.integers(0, len(rows) - 1))][key:])
        rows.insert(draw(st.integers(0, len(rows))), twin)
    elif kind == "extra_field":
        cells.append("0")
    elif kind == "missing_field":
        cells.pop()
    else:
        cells[column] = draw(st.sampled_from(BAD[kind]))
    return rows


@pytest.mark.parametrize(("kind", "column"), STORE_CORRUPTIONS)
@settings(PROPERTY_SETTINGS, max_examples=8)
@given(rows=store_rows(), data=st.data())
def test_corrupt_store_files_fail_like_row_reader(tmp_path_factory, kind, column, rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    path = tmp_path_factory.mktemp("bad") / "coeffs.csv"
    path.write_text(to_text(_STORE_COLUMNS, corrupt(rows, row, kind, column, data.draw)), encoding="utf-8")
    result = read_alike(lambda: read_store(path), lambda: _read_store_rows(path))
    if result is not None:  # a corruption the row reader takes: an empty b2 of a single-model record, a NaN objective
        assert store_bits(result[1]) == store_bits(result[0])


def test_store_bulk_read_in_chunks(tmp_path, monkeypatch):
    # Chunks of 2 lines: labels and codes carry over from chunk to chunk.
    store = CoefficientStore({
        CoefficientKey(sid, lead, strategy, T0.date() + timedelta(days=day)): FitResult(
            EmosCoefficients(0.5 * lead, (1.0,) * k, 0.25, (0.75,) * k), 0.125, True, 0, 45, day % 2 == 0)
        for sid in ("S2", "S1") for lead in (3, 1) for day in (2, 0)
        for strategy, k in (("single:m1", 1), ("mixed:m1+m2", 2))})
    path = tmp_path / "coeffs.csv"
    write_store(path, store)
    monkeypatch.setattr(eio, "_CHUNK_LINES", 2)
    assert bulk_takes_store(path)
    assert store_bits(read_store(path)) == store_bits(store) == store_bits(_read_store_rows(path))


def test_lines_of_compensating_cell_counts_fail_like_row_reader(tmp_path):
    # 13 cells on one line and 15 on the next: as many cells as two lines
    # of 14, which the bulk pass must not read as such.
    path = tmp_path / "coeffs.csv"
    path.write_text(",".join(_STORE_COLUMNS) + "\n"
                    "S1,12,single:m1,2017-01-01,0,1,,0,1,,45,0.5,true\n"
                    "false,S1,13,single:m1,2017-01-01,0,1,,0,1,,45,0.5,true,false\n")
    assert read_alike(lambda: read_store(path), lambda: _read_store_rows(path)) is None


# ---------------------------------------------------------------------------
# The prediction reader
# ---------------------------------------------------------------------------


def write_files(root, rows, parts, blanks=()):
    """``rows`` split into ``parts`` files; their paths."""
    paths = []
    for i, part in enumerate(np.array_split(np.arange(len(rows)), parts)):
        path = root / f"predictions{i}.csv"
        path.write_text(to_text(_PREDICTION_COLUMNS, [rows[j] for j in part.tolist()], blanks), encoding="utf-8",
                        newline="")
        paths.append(path)
    return paths


@PROPERTY_SETTINGS
@given(rows=prediction_rows(), blanks=blank_lines, parts=st.integers(1, 3))
def test_valid_prediction_files_read_equal_to_row_reader(tmp_path_factory, rows, blanks, parts):
    paths = write_files(tmp_path_factory.mktemp("p"), rows, parts, blanks)
    expected, got = read_alike(lambda: read_predictions(*paths), lambda: _read_prediction_rows(paths))
    assert table_bits(got) == table_bits(expected)
    if not any('"' in p.read_text() or "  \n" in p.read_text() for p in paths):  # str.split cuts them
        assert all(split_takes(p, _PREDICTION_COLUMNS) for p in paths)
        assert table_bits(PredictionTable.concat([read_predictions(p) for p in paths])) == table_bits(got)


PREDICTION_CORRUPTIONS = (
    [("empty", c) for c in range(6)]
    + [("text", c) for c in [2, 4, 5]]
    + [("non_finite", c) for c in [4, 5]]
    + [("negative", 2), ("fractional_int", 2), ("sigma", 5), ("bad_timestamp", 1)]
    + [("repeated_key", None), ("extra_field", None), ("missing_field", None)]
)


@pytest.mark.parametrize(("kind", "column"), PREDICTION_CORRUPTIONS)
@settings(PROPERTY_SETTINGS, max_examples=8)
@given(rows=prediction_rows(), data=st.data())
def test_corrupt_prediction_files_fail_like_row_reader(tmp_path_factory, kind, column, rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    # Several files: a repeated key may sit in another file than its first line.
    paths = write_files(tmp_path_factory.mktemp("bad"), corrupt(rows, row, kind, column, data.draw),
                        data.draw(st.integers(1, 3)))
    result = read_alike(lambda: read_predictions(*paths), lambda: _read_prediction_rows(paths))
    if result is not None:
        assert table_bits(result[1]) == table_bits(result[0])


# ---------------------------------------------------------------------------
# The observation and station readers
# ---------------------------------------------------------------------------

OBSERVATION_COLUMNS = ["station_id", "valid_time", "temp_c"]
chunk_lines = st.sampled_from([2, eio._CHUNK_LINES])  # chunks of 2 lines: codes and keys carry over


@st.composite
def observation_rows(draw):
    """Observation rows of up to 3 stations x 4 valid times, each key once,
    times in either UTC spelling, some padded; shuffled. Half the files are
    plain: no quoted ids."""
    plain = draw(st.booleans())
    stations = draw(st.lists(plain_station_ids if plain else station_ids, min_size=1, max_size=3,
                             unique_by=str.strip))
    hours = draw(st.lists(st.integers(0, 400), min_size=1, max_size=4, unique=True))
    keys = [(s, h) for s in stations for h in hours]
    rows = []
    for sid, hour in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12, unique=True)):
        t = T0 + timedelta(hours=hour)
        pad = draw(st.sampled_from(["", " "]))
        rows.append([sid, pad + draw(st.sampled_from([format_timestamp(t), t.isoformat()])), number(draw, draw(values))])
    return draw(st.permutations(rows))


@st.composite
def station_files(draw):
    """A station header, with grid elevations of up to two models, and rows
    of up to 4 stations, each once; the columns and rows in any order."""
    models = draw(st.lists(st.sampled_from(["hires", "global", "m3"]), max_size=2, unique=True))
    plain = draw(st.booleans())
    stations = draw(st.lists(plain_station_ids if plain else station_ids, min_size=1, max_size=4,
                             unique_by=str.strip))
    header = ["station_id", "lat", "lon", "elev_m", *(f"grid_elev_{m}" for m in models)]
    rows = [[sid, number(draw, draw(st.floats(-90, 90))), number(draw, draw(st.floats(-180, 180))),
             *(number(draw, draw(values)) for _ in range(1 + len(models)))] for sid in stations]
    order = draw(st.permutations(range(len(header))))
    return [header[j] for j in order], [[row[j] for j in order] for row in rows]


def observation_bits(observations):
    return [(sid, s.station_id, s.times.tobytes(), s.values.tobytes()) for sid, s in observations.items()]


@PROPERTY_SETTINGS
@given(rows=observation_rows(), blanks=blank_lines, chunk=chunk_lines)
def test_valid_observation_files_read_equal_to_row_reader(tmp_path_factory, rows, blanks, chunk):
    path = tmp_path_factory.mktemp("obs") / "observations.csv"
    path.write_text(to_text(OBSERVATION_COLUMNS, rows, blanks), encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eio, "_CHUNK_LINES", chunk)
        expected, got = read_alike(lambda: read_observations(path), lambda: oracle_read_observations(path))
    assert observation_bits(got) == observation_bits(expected)


@PROPERTY_SETTINGS
@given(drawn=station_files(), blanks=blank_lines, chunk=chunk_lines)
def test_valid_station_files_read_equal_to_row_reader(tmp_path_factory, drawn, blanks, chunk):
    path = tmp_path_factory.mktemp("sta") / "stations.csv"
    path.write_text(to_text(*drawn, blanks), encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eio, "_CHUNK_LINES", chunk)
        expected, got = read_alike(lambda: read_stations(path), lambda: oracle_read_stations(path))
    assert got == expected
    assert [list(s.grid_elevation) for s in got] == [list(s.grid_elevation) for s in expected]


OBSERVATION_CORRUPTIONS = (
    [("empty", c) for c in range(3)] + [("text", 2), ("non_finite", 2), ("bad_timestamp", 1)]
    + [("repeated_key", None), ("extra_field", None), ("missing_field", None)]
)


@pytest.mark.parametrize(("kind", "column"), OBSERVATION_CORRUPTIONS)
@settings(PROPERTY_SETTINGS, max_examples=8)
@given(rows=observation_rows(), data=st.data())
def test_corrupt_observation_files_fail_like_row_reader(tmp_path_factory, kind, column, rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    path = tmp_path_factory.mktemp("bad") / "observations.csv"
    path.write_text(to_text(OBSERVATION_COLUMNS, corrupt(rows, row, kind, column, data.draw, key=2)), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eio, "_CHUNK_LINES", data.draw(chunk_lines))
        result = read_alike(lambda: read_observations(path), lambda: oracle_read_observations(path))
    assert result is None  # every corruption here is an error


STATION_CORRUPTIONS = (
    [("empty", c) for c in range(4)] + [("text", c) for c in range(1, 4)] + [("non_finite", c) for c in range(1, 4)]
    + [("out_of_range", c) for c in (1, 2)] + [("repeated_key", None), ("extra_field", None), ("missing_field", None)]
)


@pytest.mark.parametrize(("kind", "column"), STATION_CORRUPTIONS)
@settings(PROPERTY_SETTINGS, max_examples=8)
@given(drawn=station_files(), data=st.data())
def test_corrupt_station_files_fail_like_row_reader(tmp_path_factory, kind, column, drawn, data):
    header, rows = drawn
    if column is not None:  # the drawn column order: the corrupted cell is that of the column named here
        column = header.index(["station_id", "lat", "lon", "elev_m"][column])
    elif kind == "repeated_key":  # the station id first: the key that corrupt repeats
        first = [header.index("station_id")] + [j for j, name in enumerate(header) if name != "station_id"]
        header, rows = [header[j] for j in first], [[r[j] for j in first] for r in rows]
    row = data.draw(st.integers(0, len(rows) - 1))
    path = tmp_path_factory.mktemp("bad") / "stations.csv"
    path.write_text(to_text(header, corrupt(rows, row, kind, column, data.draw, key=1)), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eio, "_CHUNK_LINES", data.draw(chunk_lines))
        result = read_alike(lambda: read_stations(path), lambda: oracle_read_stations(path))
    if result is not None:  # an "out of range" value inside the range of its column
        assert kind == "out_of_range" and result[1] == result[0]


# ---------------------------------------------------------------------------
# The block writers
# ---------------------------------------------------------------------------


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(alphabet='AS09,"\n #', min_size=1, max_size=6)


@st.composite
def store_records(draw):
    strategy = draw(st.sampled_from(["single:a", "single:b,c", "mixed:a+b", 'mixed:"x"+y']))
    k = len(parse_strategy(strategy)[1])
    key = CoefficientKey(draw(names), draw(st.integers(0, 400)), strategy, draw(st.dates()))
    coef = EmosCoefficients(draw(finite), tuple(draw(st.floats(0.0, allow_infinity=False)) for _ in range(k)),
                            draw(finite), tuple(draw(st.floats(0.0, allow_infinity=False)) for _ in range(k)))
    objective = draw(st.one_of(st.just(math.nan), st.floats(0.0, allow_infinity=False)))
    return key, FitResult(coef, objective, draw(st.booleans()), 0, draw(st.integers(0, 10_000)), draw(st.booleans()))


@PROPERTY_SETTINGS
@given(records=st.lists(store_records(), min_size=0, max_size=10), chunk=st.sampled_from([1, 3, eio._CHUNK_LINES]))
def test_store_writer_bytes_equal_the_row_writer(tmp_path_factory, records, chunk):
    root = tmp_path_factory.mktemp("w")
    store = CoefficientStore(dict(records))
    with pytest.MonkeyPatch.context() as patch:  # blocks of 1 and 3 rows too
        patch.setattr(eio, "_CHUNK_LINES", chunk)
        write_store(root / "blocks.csv", store)
    oracle_write_store(root / "rows.csv", store)
    assert (root / "blocks.csv").read_bytes() == (root / "rows.csv").read_bytes()


@st.composite
def prediction_maps(draw):
    keys = st.tuples(names, st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)).map(
        lambda t: t.replace(microsecond=0, tzinfo=timezone.utc)), st.integers(0, 400), names)
    return draw(st.dictionaries(keys, st.builds(GaussianPredictive, finite,
                                                st.floats(min_value=5e-324, allow_infinity=False)), max_size=10))


@PROPERTY_SETTINGS
@given(predictions=prediction_maps(), chunk=st.sampled_from([1, 3, eio._CHUNK_LINES]))
def test_prediction_writer_bytes_equal_the_row_writer(tmp_path_factory, predictions, chunk):
    root = tmp_path_factory.mktemp("w")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eio, "_CHUNK_LINES", chunk)
        write_predictions(root / "blocks.csv", prediction_table(predictions))
    oracle_write_predictions(root / "rows.csv", predictions)
    assert (root / "blocks.csv").read_bytes() == (root / "rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# The vector predictor and latest_before
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(k=st.integers(1, 2), data=st.data(), min_sigma=st.sampled_from([1e-3, 0.5]))
def test_predict_columns_equals_predict_bit_for_bit(k, data, min_sigma):
    n = data.draw(st.integers(1, 8))
    column = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    spread = st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)
    a, c = np.array(data.draw(column)), np.array(data.draw(column))
    b, d, mean, std = (np.array([data.draw(s) for _ in range(k)]).T for s in (spread, spread, column, spread))
    mu, sigma = predict_columns(a, b, c, d, mean, std, min_sigma)
    for i in range(n):
        coef = EmosCoefficients(a[i].item(), b[i].tolist(), c[i].item(), d[i].tolist())
        pred = predict(coef, mean[i].tolist(), std[i].tolist(), min_sigma)
        assert (mu[i].hex(), sigma[i].hex()) == (pred.mu.hex(), pred.sigma.hex())


@PROPERTY_SETTINGS
@given(days=st.lists(st.tuples(st.sampled_from(STRATEGIES), st.integers(0, 40)), min_size=1, max_size=20),
       queries=st.lists(st.tuples(st.sampled_from(STRATEGIES), st.integers(-2, 52), st.integers(0, 12)), max_size=20))
def test_latest_before_equals_day_probing(tmp_path_factory, days, queries):
    # A key drawn twice keeps its last record.
    records = {}
    for i, (strategy, day) in enumerate(days):
        k = len(parse_strategy(strategy)[1])
        records[CoefficientKey("S1", 12, strategy, date(2017, 1, 1) + timedelta(days=day))] = FitResult(
            EmosCoefficients(float(i), (1.0,) * k, 0.0, (1.0,) * k), 0.25, True, 3, 45, False)
    store = CoefficientStore(records)
    path = tmp_path_factory.mktemp("lb") / "coeffs.csv"
    write_store(path, store)
    read = read_store(path)
    for strategy, day, max_age in queries:
        issue = date(2017, 1, 1) + timedelta(days=day)
        got = store.latest_before("S1", 12, strategy, issue, max_age)
        assert got == oracle_latest_before(store, "S1", 12, strategy, issue, max_age)
        expected = oracle_latest_before(read, "S1", 12, strategy, issue, max_age)
        assert read.latest_before("S1", 12, strategy, issue, max_age) == expected
        assert (expected is None) == (got is None)
        assert got is None or got.coefficients == expected.coefficients
