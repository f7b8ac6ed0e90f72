"""File formats: CSV data tables, the coefficient store and flat config files.

All tables are UTF-8 CSV with a header row; timestamps are ISO-8601 UTC
("2017-01-01T00:00:00Z") and floats are serialized with 9 significant
digits, which round-trips losslessly at that precision. Schemas:

    observations.csv       station_id, valid_time, temp_c
    forecasts_<model>.csv  station_id, init_time, lead_h, member_idx, temp_c
    stations.csv           station_id, lat, lon, elev_m, grid_elev_<model>...
    predictions.csv        station_id, init_time, lead_h, strategy, mu, sigma
    coefficient store      station_id, lead_h, strategy, issue_date, a, b1,
                           b2, c, d1, d2, n_samples, objective, converged,
                           fallback   (b2 and d2 are empty for single fits)

Schema violations raise SchemaError naming the file, line and column (a
cell out of its domain too, such as a negative lead or a NaN coefficient);
a repeated key (station, observation, prediction, store record) raises at
its second line.
Predictions are read into, and written from, the ``domain.PredictionTable``
that ``pipeline.predict_issues`` returns and ``verification.verify`` takes;
the coefficient store into and from the columns of a
``pipeline.CoefficientStore``.
Station files are read and written row by row with the csv module, and
observation files read so. Every other table is written in blocks with the
bytes of the row writer: each label (station, init time, strategy, issue
date) is csv-encoded once, and one printf template formats a block's lines
in one call, per ensemble for forecasts (one template per member count), per
station for observations (its valid times from one ``np.datetime_as_string``
call, with four-digit years as ``format_timestamp`` writes them), and per
``_CHUNK_LINES`` rows for predictions and the store.
Prediction and store files are read in bulk, ``_CHUNK_LINES`` lines at a
time: a chunk is split into its columns of cells in one ``str.split``; an id,
init-time, strategy, issue-date or flag column is factorized, each distinct
cell parsed once; a numeric column is converted by numpy, which parses each
cell as ``float`` or ``int`` does; and each domain rule is one array
operation. A file the bulk pass cannot take apart (a quote, carriage return
or NUL character, a line of another cell count, a cell that does not parse
or breaks a rule, a repeated key) is read again row by row, which raises the
first SchemaError, at its file, line and column, or reads it alike.
Forecast files are read in one pass that splits only the first line of each
ensemble's run of member rows and hands the member and value cells of kept
rows to numpy's C tokenizer in chunks, member cells through its int64 parser.
That parser (numpy >= 2.4; older releases read "12.5" as 12) rejects "12.5",
"12.0", "1e1", "1_2" and values beyond int64, a subset of what ``int`` takes.
A read holds the numeric arrays, four integers per run and one chunk of text,
so it peaks below twice the file's size. A file the pass cannot split (a quote
character, another column order, a cell numpy rejects, a negative lead, a kept
member value that is not finite) is read again row by row, which reads a cell
as ``int`` does or raises a row reader's SchemaError. So a negative lead or a
NaN or infinite member value raises SchemaError at its file, line and column,
as any other bad cell does.

Every stage reads forecasts this way. ``train`` keeps every row; ``predict``
with an issue range and ``verify`` pass ``read_forecasts`` a filter on init
dates, and only the rows of kept dates go to numpy. A bad station, init-time
or lead cell anywhere still raises as without a filter; a bad member or value
cell, or a broken ensemble (members not numbered 0..m-1, or a lead gap that
``pipeline``'s lead interpolation cannot fill), on a date that is not kept is
not seen. The file's stations, init times and lead grids come with the cube
either way (``ForecastFile``), so the issue dates, lead coverage and station
check of the stages still take every row.
Config files are flat "key = value" text with dotted keys; blank lines and
"#" comments are ignored.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from datetime import date, datetime, timezone
from io import StringIO
from itertools import compress, islice
from pathlib import Path

import numpy as np

from .domain import ForecastCube, ObservationSeries, PredictionTable, StationMetadata, _micros, relabel
from .emos import EmosCoefficients, FitResult
from .pipeline import _MAX_PREDICTORS, RECORD, CoefficientKey, CoefficientStore, parse_strategy

__all__ = [
    "SchemaError",
    "fmt_float",
    "format_timestamp",
    "parse_timestamp",
    "read_observations",
    "write_observations",
    "ForecastFile",
    "read_forecasts",
    "write_forecasts",
    "read_stations",
    "write_stations",
    "read_predictions",
    "write_predictions",
    "read_store",
    "write_store",
    "parse_config",
    "write_table",
    "write_columns",
    "csv_cells",
]


class SchemaError(ValueError):
    """A file does not conform to its schema; message cites file/line/column."""

    def __init__(self, path, line_no: int | None, column: str | None, message: str):
        location = str(path)
        if line_no is not None:
            location += f":{line_no}"
        if column:
            location += f" (column {column!r})"
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.column = column


def fmt_float(x: float) -> str:
    return f"{x:.9g}"


def format_timestamp(t: datetime) -> str:
    """``t`` (naive taken as UTC) to the second in UTC: "0999-01-01T00:00:00Z"."""
    if t.tzinfo is not None:
        t = t.astimezone(timezone.utc).replace(tzinfo=None)
    return t.isoformat(timespec="seconds") + "Z"


def parse_timestamp(s: str) -> datetime:
    raw = s.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    t = datetime.fromisoformat(raw)
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


class _TableReader:
    """CSV reader that validates the header and reports typed cell errors."""

    def __init__(self, path, required: list[str], allow_extra: bool = False):
        self.path = Path(path)
        self.required = required
        self.allow_extra = allow_extra

    def __enter__(self):
        self._fh = self.path.open("r", encoding="utf-8", newline="")
        try:
            reader = csv.reader(self._fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(self.path, 1, None, "file is empty, expected a header row") from None
            header = [h.strip() for h in header]
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise SchemaError(self.path, 1, name, "duplicate column")
            for col in self.required:
                if col not in header:
                    raise SchemaError(self.path, 1, col, "missing required column")
            if not self.allow_extra:
                extra = [h for h in header if h not in self.required]
                if extra:
                    raise SchemaError(self.path, 1, extra[0], "unexpected column")
        except BaseException:
            self._fh.close()  # __exit__ does not run when __enter__ raises
            raise
        self.header = header
        self.body = self._fh  # positioned after the header row
        self._reader = reader
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def rows(self):
        index = {name: i for i, name in enumerate(self.header)}
        for line_no, row in enumerate(self._reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(self.header):
                raise SchemaError(self.path, line_no, None, f"expected {len(self.header)} fields, got {len(row)}")
            yield line_no, _Row(self.path, line_no, index, row)


class _Row:
    def __init__(self, path, line_no, index, cells):
        self.path = path
        self.line_no = line_no
        self.index = index
        self.cells = cells

    def str(self, column: str) -> str:
        value = self.cells[self.index[column]].strip()
        if not value:
            raise SchemaError(self.path, self.line_no, column, "value must not be empty")
        return value

    def float(self, column: str) -> float:
        raw = self.str(column)
        try:
            return float(raw)
        except ValueError:
            raise SchemaError(self.path, self.line_no, column, f"not a number: {raw!r}") from None

    def optional_float(self, column: str) -> float | None:
        raw = self.cells[self.index[column]].strip()
        if not raw:
            return None
        try:
            return float(raw)
        except ValueError:
            raise SchemaError(self.path, self.line_no, column, f"not a number: {raw!r}") from None

    def finite(self, column: str, low: float = -math.inf, high: float = math.inf) -> float:
        value = self.float(column)
        if not math.isfinite(value):
            raise SchemaError(self.path, self.line_no, column, f"must be finite, got {value}")
        if not low <= value <= high:
            raise SchemaError(self.path, self.line_no, column, f"must lie in [{low}, {high}], got {value}")
        return value

    def int(self, column: str, minimum: int | None = None) -> int:
        raw = self.str(column)
        try:
            value = int(raw)
        except ValueError:
            raise SchemaError(self.path, self.line_no, column, f"not an integer: {raw!r}") from None
        if not -(2**63) <= value < 2**63:  # the range of the int64 arrays it may go into
            raise SchemaError(self.path, self.line_no, column, f"integer out of range: {raw!r}")
        if minimum is not None and value < minimum:
            raise SchemaError(self.path, self.line_no, column, f"must be >= {minimum}, got {value}")
        return value

    def bool(self, column: str) -> bool:
        raw = self.str(column).lower()
        if raw in ("true", "1"):
            return True
        if raw in ("false", "0"):
            return False
        raise SchemaError(self.path, self.line_no, column, f"not a boolean: {raw!r}")

    def timestamp(self, column: str) -> datetime:
        raw = self.str(column)
        try:
            return parse_timestamp(raw)
        except (ValueError, OverflowError):  # OverflowError: past the datetime range in UTC
            raise SchemaError(self.path, self.line_no, column, f"not an ISO-8601 timestamp: {raw!r}") from None

    def date(self, column: str) -> date:
        raw = self.str(column)
        try:
            return date.fromisoformat(raw)
        except ValueError:
            raise SchemaError(self.path, self.line_no, column, f"not an ISO date: {raw!r}") from None


def write_table(path, header: list[str], rows) -> None:
    """Write a CSV table in the format of every file here: the header, then
    each row of the iterable ``rows``."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_blocks(path, header: list[str], blocks) -> None:
    """Write a table as ``write_table`` does, its body from ``blocks`` of whole csv-encoded lines."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(blocks)


def _csv_cell(text: str) -> str:
    """``text`` as ``write_table`` writes it as a cell of a row of several."""
    csv.writer(buf := StringIO(), lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


# -- observations -----------------------------------------------------------


def write_observations(path, observations: dict[str, ObservationSeries]) -> None:
    def block(sid):  # missing observations (NaN) are simply absent rows
        head, series = _csv_cell(sid), observations[sid]
        kept = ~np.isnan(series.values)
        times = np.datetime_as_string(series.times[kept].astype("datetime64[us]"), unit="s").tolist()
        return "".join(f"{head},{t}Z,{fmt_float(v)}\n" for t, v in zip(times, series.values[kept].tolist()))

    _write_blocks(path, ["station_id", "valid_time", "temp_c"], map(block, sorted(observations)))


def read_observations(path) -> dict[str, ObservationSeries]:
    codes: dict[str, int] = {}  # station id -> code, in order of first appearance
    rows = []
    with _TableReader(path, ["station_id", "valid_time", "temp_c"]) as reader:
        for line_no, row in reader.rows():
            rows.append((codes.setdefault(row.str("station_id"), len(codes)), row.timestamp("valid_time"),
                         row.finite("temp_c"), line_no))
    station, times = np.array([r[0] for r in rows], dtype=np.int64), _micros(r[1] for r in rows)
    order = np.lexsort((times, station))  # stable: a repeated time keeps its lines in file order
    station, times, values = station[order], times[order], np.array([r[2] for r in rows])[order]
    repeats = order[1:][(station[1:] == station[:-1]) & (times[1:] == times[:-1])]
    if repeats.size:
        code, t, _, line_no = rows[repeats.min()]
        raise SchemaError(path, line_no, None, f"duplicate observation for {list(codes)[code]} {format_timestamp(t)}")
    bounds = np.searchsorted(station, np.arange(len(codes) + 1)).tolist()
    return {sid: ObservationSeries(sid, times[lo:hi], values[lo:hi]) for sid, lo, hi in zip(codes, bounds, bounds[1:])}


# -- forecasts ---------------------------------------------------------------


_FORECAST_COLUMNS = ["station_id", "init_time", "lead_h", "member_idx", "temp_c"]
_FLOAT_FORMAT = "%.9g"  # fmt_float's format in printf form, which formats many cells in one call


def write_forecasts(path, forecasts: ForecastCube) -> None:
    f = forecasts
    stations = [_csv_cell(sid) for sid in f.station_ids]
    inits = [_csv_cell(format_timestamp(t)) for t in f.init_times]
    values = [matrix.tolist() for matrix in f.members]
    # An ensemble's lines: "%s0,%.9g\n%s1,%.9g\n..." % (head, v0, head, v1, ...), head its first three cells.
    templates = ["".join(f"%s{idx},{_FLOAT_FORMAT}\n" for idx in range(matrix.shape[1])) for matrix in f.members]

    def block(s, t, lead, j, r):
        cells = [f"{stations[s]},{inits[t]},{lead},"] * (2 * len(values[j][r]))
        cells[1::2] = values[j][r]
        return templates[j] % tuple(cells)

    keys = (a.tolist() for a in (f.station, f.init, f.lead, f.block, f.row))
    _write_blocks(path, _FORECAST_COLUMNS, map(block, *keys))


_MEMBER_CELLS = {"member_idx": np.int64, "temp_c": np.float64}
# Kept lines per np.loadtxt call: the text a read holds at once, whatever the
# file's size.
_CHUNK_LINES = 4096


@dataclass(frozen=True, eq=False)
class ForecastFile(ForecastCube):
    """What ``read_forecasts`` returns: the cube of the ensembles it kept, and
    the labels of every row of the file, kept or not. ``file_lead_grids``
    holds the distinct lead sequences of the file's (station, init time)
    runs, each sorted."""

    file_station_ids: tuple[str, ...]
    file_init_times: tuple[datetime, ...]
    file_lead_grids: frozenset[tuple[int, ...]]


def read_forecasts(path, model_id: str, keep: Callable[[date], bool] | None = None) -> ForecastFile:
    """One model's ensembles, as a cube sorted by (station, init time, lead).

    One pass over the lines (``_scan_forecasts``) reads the station,
    init-time and lead cells of each run of member rows from its first line,
    and hands the member and value cells of the kept rows to numpy in chunks.
    A file the scan cannot take apart exactly is read row by row instead
    (``_read_forecast_rows``), which raises the file's first SchemaError on a
    cell. Either way ``_forecast_cube`` groups the member rows into the cube.

    ``keep``, a test on the UTC date of an init time (None: every date),
    limits the cube to the ensembles of the dates it takes. The member and
    value cells of other rows, and the ensembles they form, are not checked;
    every station, init-time and lead cell is.
    """
    with _TableReader(path, _FORECAST_COLUMNS) as reader:
        runs = _scan_forecasts(reader, keep)
    return _forecast_cube(path, model_id, *(runs or _read_forecast_rows(path, keep)))


def _scan_forecasts(reader: _TableReader, keep) -> tuple | None:
    """The runs of ``reader``'s body, in one pass (see ``_forecast_cube``), or
    None when a line cannot be taken apart exactly: a header that does not
    start station_id,init_time,lead_h, a quote character, fewer than four
    cells, an empty station id, a cell that the row reader might read
    otherwise, or a kept member value that is not finite.

    The member rows of an ensemble share the text of its station, init-time
    and lead cells, so a line that starts as the last split line did belongs
    to that line's run and is not split; each distinct init-time cell is
    parsed once. A kept line goes to ``np.loadtxt`` from its fourth cell on,
    ``_CHUNK_LINES`` lines per call.
    """
    if reader.header[:3] != _FORECAST_COLUMNS[:3]:
        return None
    dtype = [(name, _MEMBER_CELLS[name]) for name in reader.header[3:]]
    stations: dict[str, int] = {}
    times: dict[datetime, int] = {}
    init_cells: dict[str, tuple[int, bool]] = {}  # cell -> (init-time code, kept)
    heads = array("q")  # (station code, init-time code, lead, first kept row) of each run
    parts, chunk, done, limit = [], [], 0, _CHUNK_LINES  # done: the kept rows in parts
    append = chunk.append
    prefix, take, cut = "\n", False, 0  # no run yet: only a blank line starts with "\n"
    try:
        for line in reader.body:
            if not line.startswith(prefix):
                if not line.strip():
                    continue
                cells = line.split(",", 3)
                if '"' in line or len(cells) < 4:
                    return None
                sid, init, lead = cells[0].strip(), cells[1], cells[2].strip()
                if not (sid and lead.isascii() and lead.isdigit()):
                    return None
                if init not in init_cells:
                    t = parse_timestamp(init)
                    init_cells[init] = times.setdefault(t, len(times)), keep is None or keep(t.date())
                code, take = init_cells[init]
                heads.extend((stations.setdefault(sid, len(stations)), code, int(lead), done + len(chunk)))
                cut = len(line) - len(cells[3])
                prefix = line[:cut]
            if take:
                append(line[cut:])
                if len(chunk) == limit:
                    parts.append(_member_cells(chunk, dtype))
                    done += limit
                    chunk.clear()
        parts.append(_member_cells(chunk, dtype))
    except (ValueError, OverflowError):  # a cell the row reader must judge
        return None
    table = np.concatenate(parts)
    # numpy skips a line of no cells; the row reader locates a non-finite value.
    if len(table) != done + len(chunk) or not np.isfinite(table["temp_c"]).all():
        return None
    heads = np.frombuffer(heads, dtype=np.int64).reshape(-1, 4)
    return list(stations), list(times), heads, table["member_idx"], table["temp_c"]


def _member_cells(lines: list[str], dtype) -> np.ndarray:
    """The member and value cells of ``lines`` (each from its fourth cell on),
    by numpy's C tokenizer and its int64 and float64 parsers."""
    if not lines:
        return np.empty(0, dtype=dtype)  # numpy warns on input without rows
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _read_forecast_rows(path, keep) -> tuple:
    """The runs of ``_scan_forecasts``, one per row, read row by row: the
    file's first bad cell, a negative lead or a non-finite member among them,
    raises its SchemaError."""
    stations: dict[str, int] = {}
    times: dict[datetime, int] = {}
    heads, member, value = [], [], []
    with _TableReader(path, _FORECAST_COLUMNS) as reader:
        for _, row in reader.rows():
            sid, t, lead = row.str("station_id"), row.timestamp("init_time"), row.int("lead_h", 0)
            heads.append((stations.setdefault(sid, len(stations)), times.setdefault(t, len(times)), lead))
            member.append(row.int("member_idx"))
            value.append(row.finite("temp_c"))
    heads = np.array(heads, dtype=np.int64).reshape(-1, 3)
    taken = np.ones(len(heads), dtype=bool)
    if keep is not None:
        taken = np.array([keep(t.date()) for t in times], dtype=bool)[heads[:, 1]]
    first = np.cumsum(taken) - taken
    return (list(stations), list(times), np.column_stack([heads, first]), np.array(member, dtype=np.int64)[taken],
            np.array(value, dtype=float)[taken])


def _sorted_codes(labels: list, codes: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct ``labels`` sorted, and ``codes`` (indices into ``labels``)
    as indices into the sorted list."""
    ranked, rank = np.unique(np.array(labels, dtype=object), return_inverse=True)
    return ranked.tolist(), rank[codes]


def _lead_grids(station: np.ndarray, init: np.ndarray, lead: np.ndarray) -> frozenset[tuple[int, ...]]:
    """The distinct lead sequences of the (station, init time) runs of these
    keys, each sorted and without repeats."""
    if not len(lead):
        return frozenset()
    order = np.lexsort((lead, init, station))
    station, init, lead = station[order], init[order], lead[order]
    run = np.ones(len(order), dtype=bool)
    run[1:] = (station[1:] != station[:-1]) | (init[1:] != init[:-1])
    new = run.copy()
    new[1:] |= lead[1:] != lead[:-1]
    return frozenset(tuple(grid.tolist()) for grid in np.split(lead[new], np.flatnonzero(run[new])[1:]))


def _misplaced(member: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The rows whose member index is not their place in their ensemble, the
    ensembles taking ``counts`` rows from ``starts`` on."""
    return np.flatnonzero(member != np.arange(len(member)) - np.repeat(starts, counts))


def _forecast_cube(path, model_id: str, stations: list, times: list, heads: np.ndarray, member: np.ndarray,
                   value: np.ndarray) -> ForecastFile:
    """Group the kept member rows into ensembles, and those into a cube, with
    the ``ForecastFile`` labels of every run.

    ``stations`` and ``times`` are the file's station ids and init times in
    order of first appearance. ``heads`` holds the (station code, init-time
    code, lead, first kept row) of each run of rows with one key, in file
    order, and ``member`` and ``value`` the cells of the kept rows, so a run
    that starts where the next one does keeps no row. A key may have several
    runs, and its members may come in any order.

    Members of a (station, init time, lead) not numbered 0..m-1 raise
    SchemaError.
    """
    station_ids, station = _sorted_codes(stations, heads[:, 0])
    init_times, init = _sorted_codes(times, heads[:, 1])
    lead, size = heads[:, 2], np.diff(heads[:, 3], append=len(member))
    labels = tuple(station_ids), tuple(init_times), _lead_grids(station, init, lead)
    kept = size > 0
    used_stations, station = np.unique(station[kept], return_inverse=True)
    used_inits, init = np.unique(init[kept], return_inverse=True)
    station_ids = [station_ids[s] for s in used_stations.tolist()]
    init_times = [init_times[t] for t in used_inits.tolist()]
    lead, size = lead[kept], size[kept]
    order = np.lexsort((lead, init, station))  # the runs by key, a key's runs in file order
    station, init, lead = station[order], init[order], lead[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (station[1:] != station[:-1]) | (init[1:] != init[:-1]) | (lead[1:] != lead[:-1])
    ensemble = np.empty_like(order)
    ensemble[order] = np.cumsum(new) - 1
    counts = np.add.reduceat(size[order], np.flatnonzero(new))
    starts = np.cumsum(counts) - counts
    misplaced = _misplaced(member, starts, counts)
    if misplaced.size or (np.diff(ensemble) < 0).any():  # the rows are not in (ensemble, member) order
        rows = np.lexsort((member, np.repeat(ensemble, size)))
        member, value = member[rows], value[rows]
        misplaced = _misplaced(member, starts, counts)
    station, init, lead = station[new], init[new], lead[new]
    if misplaced.size:
        first = np.searchsorted(starts, misplaced[0], side="right") - 1
        raise SchemaError(path, None, "member_idx", f"members of {station_ids[station[first]]} "
                          f"{format_timestamp(init_times[init[first]])} lead {lead[first]} are not contiguous from 0")
    widths, block = np.unique(counts, return_inverse=True)
    members = [value[starts[block == j, None] + np.arange(width)] for j, width in enumerate(widths.tolist())]
    for matrix in members:
        matrix.flags.writeable = False  # so the cube holds these new arrays instead of copies
    return ForecastFile(model_id, station_ids, init_times, station, init, lead, block, members, *labels)


# -- stations ----------------------------------------------------------------


def write_stations(path, stations: list[StationMetadata], model_ids: list[str]) -> None:
    rows = (
        [s.station_id, fmt_float(s.latitude), fmt_float(s.longitude), fmt_float(s.elevation)]
        + [fmt_float(s.grid_elevation[m]) for m in model_ids]
        for s in sorted(stations, key=lambda s: s.station_id)
    )
    write_table(path, ["station_id", "lat", "lon", "elev_m"] + [f"grid_elev_{m}" for m in model_ids], rows)


def read_stations(path) -> list[StationMetadata]:
    prefix = "grid_elev_"
    with _TableReader(path, ["station_id", "lat", "lon", "elev_m"], allow_extra=True) as reader:
        models = [h[len(prefix):] for h in reader.header if h.startswith(prefix)]
        unknown = [h for h in reader.header if h not in ("station_id", "lat", "lon", "elev_m") and not h.startswith(prefix)]
        if unknown:
            raise SchemaError(path, 1, unknown[0], "unexpected column")
        out: dict[str, StationMetadata] = {}
        for line_no, row in reader.rows():
            sid = row.str("station_id")
            if sid in out:
                raise SchemaError(path, line_no, "station_id", f"duplicate station {sid}")
            out[sid] = StationMetadata(
                station_id=sid,
                latitude=row.finite("lat", -90, 90),
                longitude=row.finite("lon", -180, 180),
                elevation=row.finite("elev_m"),
                grid_elevation={m: row.finite(f"{prefix}{m}") for m in models},
            )
    return list(out.values())


# -- bulk tables -------------------------------------------------------------


class _NotBulk(Exception):
    """The bulk pass cannot take a file apart exactly; its row reader reads it."""


def _chunks(reader: _TableReader):
    """The body of ``reader`` in chunks of up to ``_CHUNK_LINES`` lines, each
    as one list of cells per column, blank lines left out. Raises _NotBulk at
    a chunk with a line that the csv module might split otherwise (a quote,
    carriage return or NUL character) or with a line of another cell count."""
    width = len(reader.header)
    while lines := list(islice(reader.body, _CHUNK_LINES)):
        text = "".join(lines).replace("\r\n", "\n")
        if text.startswith("\n") or "\n\n" in text:  # blank lines
            lines = [line for line in lines if not line.isspace()]
            text = "".join(lines).replace("\r\n", "\n")
            if not text:
                continue
        if any(c in text for c in '"\r\0'):
            raise _NotBulk
        # A marker cell "\n" after each line's cells: a line of another cell count moves the markers.
        cells = (text if text.endswith("\n") else text + "\n").replace("\n", ",\n,").split(",")[:-1]
        if len(cells) != len(lines) * (width + 1) or cells[width::width + 1].count("\n") != len(lines):
            raise _NotBulk
        yield [cells[j::width + 1] for j in range(width)]


def _numbers(cells: list[str], dtype) -> np.ndarray:
    """``cells`` parsed by numpy as ``float`` or ``int`` parse a cell, which
    the row reader calls; _NotBulk where one does not parse, or an integer
    leaves the int64 range."""
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        raise _NotBulk from None


def _factor(cells: list[str], codes: dict[str, int]) -> np.ndarray:
    """The code of each cell in ``codes``, which gains the cells new to it:
    each distinct cell is then parsed once."""
    for cell in dict.fromkeys(cells):
        codes.setdefault(cell, len(codes))
    return np.fromiter(map(codes.__getitem__, cells), dtype=np.int64, count=len(cells))


def _labels(codes: dict[str, int], parse) -> list:
    """``parse`` of each distinct cell of ``codes`` stripped, in code order;
    _NotBulk where a cell is empty or ``parse`` raises."""
    labels = []
    for cell in codes:
        cell = cell.strip()
        if not cell:
            raise _NotBulk
        try:
            labels.append(parse(cell))
        except (ValueError, OverflowError, KeyError):
            raise _NotBulk from None
    return labels


def write_columns(path, header: list[str], row: str, n: int, columns: Callable[[slice], list]) -> None:
    """Write a table of ``n`` rows as ``write_table`` does: the header, then
    one line per row by the printf template ``row``, one block of lines per
    ``_CHUNK_LINES`` rows. ``columns(rows)`` gives the cells of a block's
    rows (a slice), column by column: csv-encoded text for %s, numbers for
    %.9g; a block's cells are all that is held at once."""

    def block(lo):
        rows = slice(lo, min(lo + _CHUNK_LINES, n))
        columns_of_block = columns(rows)
        cells = np.empty((rows.stop - lo, len(columns_of_block)), dtype=object)
        for j, column in enumerate(columns_of_block):
            cells[:, j] = column
        return row * len(cells) % tuple(cells.ravel().tolist())

    _write_blocks(path, header, map(block, range(0, n, _CHUNK_LINES)))


def csv_cells(labels) -> np.ndarray:
    """Each of ``labels`` csv-encoded, as an object array to index by codes."""
    return np.array([_csv_cell(label) for label in labels], dtype=object)


# -- predictions -------------------------------------------------------------

_PREDICTION_COLUMNS = ["station_id", "init_time", "lead_h", "strategy", "mu", "sigma"]


def write_predictions(path, predictions: PredictionTable) -> None:
    """One row per (station, init time, lead, strategy) key, in key order."""
    p = predictions
    station, strategy = csv_cells(p.station_ids), csv_cells(p.strategies)
    init = csv_cells([format_timestamp(t) for t in p.init_times])
    write_columns(path, _PREDICTION_COLUMNS, f"%s,%s,%s,%s,{_FLOAT_FORMAT},{_FLOAT_FORMAT}\n", len(p),
                  lambda r: [station[p.station[r]], init[p.init[r]], p.lead[r], strategy[p.strategy[r]], p.mu[r],
                             p.sigma[r]])


def read_predictions(*paths) -> PredictionTable:
    """The predictions of one or more files, in one table.

    Each file is read in bulk (``_read_predictions_bulk``). A key that
    repeats, within a file or across them, or a file that the bulk pass
    cannot take apart, sends every file to the row reader, which raises the
    first SchemaError, at its file, line and column, or reads them alike."""
    try:
        return PredictionTable.concat([_read_predictions_bulk(path) for path in paths])
    except (_NotBulk, ValueError):  # ValueError: a repeated key
        return _read_prediction_rows(paths)


def _read_predictions_bulk(path) -> PredictionTable:
    """One file's predictions, read as ``_read_store_bulk`` reads a store;
    _NotBulk where the row reader must judge, and the table's ValueError at a
    repeated key."""
    factors = {name: {} for name in ("station_id", "init_time", "strategy")}
    parts = []
    with _TableReader(path, _PREDICTION_COLUMNS) as reader:
        column = {name: j for j, name in enumerate(reader.header)}
        for cells in _chunks(reader):
            parts.append([_factor(cells[column[name]], codes) for name, codes in factors.items()]
                         + [_numbers(cells[column["lead_h"]], np.int64)]
                         + [_numbers(cells[column[name]], float) for name in ("mu", "sigma")])
    if not parts:
        return PredictionTable((), (), (), *[[]] * 6)
    station, init, strategy, lead, mu, sigma = (np.concatenate(column) for column in zip(*parts))
    if (lead < 0).any() or not (np.isfinite(mu).all() and np.isfinite(sigma).all()) or (sigma <= 0.0).any():
        raise _NotBulk
    labels = [_labels(factors["station_id"], str), _labels(factors["init_time"], parse_timestamp),
              _labels(factors["strategy"], str)]
    return PredictionTable(*labels, station, init, lead, strategy, mu, sigma)


def _read_prediction_rows(paths) -> PredictionTable:
    """``read_predictions`` row by row, raising its SchemaErrors."""
    seen, columns = set(), []
    for path in paths:
        with _TableReader(path, _PREDICTION_COLUMNS) as reader:
            for line_no, row in reader.rows():
                sigma = row.finite("sigma")
                if sigma <= 0.0:
                    raise SchemaError(path, line_no, "sigma", f"sigma must be > 0, got {sigma}")
                key = (row.str("station_id"), row.timestamp("init_time"), row.int("lead_h", 0), row.str("strategy"))
                if key in seen:
                    sid, init, lead, strategy = key
                    raise SchemaError(path, line_no, None,
                                      f"duplicate prediction for {sid} {format_timestamp(init)} lead {lead} {strategy}")
                seen.add(key)
                columns.append((*key, row.finite("mu"), sigma))
    sid, init, lead, strategy, mu, sigma = zip(*columns) if columns else [()] * 6
    return PredictionTable(sid, init, strategy, np.arange(len(sid)), np.arange(len(sid)), lead, np.arange(len(sid)),
                           mu, sigma)


# -- coefficient store -------------------------------------------------------

_STORE_COLUMNS = [
    "station_id",
    "lead_h",
    "strategy",
    "issue_date",
    "a",
    "b1",
    "b2",
    "c",
    "d1",
    "d2",
    "n_samples",
    "objective",
    "converged",
    "fallback",
]
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def write_store(path, store: CoefficientStore) -> None:
    """One record per key, ordered by (issue_date, station, lead, strategy)."""
    station_ids, strategies, rows = store.table()
    station, strategy = csv_cells(station_ids), csv_cells(strategies)
    flags = np.array(["false", "true"], dtype=object)

    def columns(r):
        block = rows[r]
        days, day = np.unique(block["day"], return_inverse=True)
        second = []  # the b2 and d2 cells: empty for single-model records
        for name in ("b", "d"):
            values, cells = block[name][:, 1], np.full(len(block), "", dtype=object)
            kept = ~np.isnan(values)
            cells[kept] = (f"{_FLOAT_FORMAT}\n" * int(kept.sum()) % tuple(values[kept].tolist())).split("\n")[:-1]
            second.append(cells)
        return [station[block["station"]], block["lead"], strategy[block["strategy"]],
                csv_cells([date.fromordinal(d).isoformat() for d in days.tolist()])[day], block["a"],
                block["b"][:, 0], second[0], block["c"], block["d"][:, 0], second[1], block["n_samples"],
                block["objective"], flags[block["converged"].astype(np.int64)], flags[block["fallback"].astype(np.int64)]]

    f = _FLOAT_FORMAT
    write_columns(path, _STORE_COLUMNS, f"%s,%s,%s,%s,{f},{f},%s,{f},{f},%s,%s,{f},%s,%s\n", len(rows), columns)


def read_store(path) -> CoefficientStore:
    """The store file's records as a ``CoefficientStore``, read in bulk
    (``_read_store_bulk``); a file that the bulk pass cannot take apart, or
    whose cells break a rule, goes to the row reader, which raises the first
    SchemaError at its line and column."""
    with _TableReader(path, _STORE_COLUMNS) as reader:
        try:
            return _read_store_bulk(reader)
        except _NotBulk:
            pass
    return _read_store_rows(path)


def _read_store_bulk(reader: _TableReader) -> CoefficientStore:
    """The store of ``reader``'s body: the text columns factorized, each
    distinct cell parsed once, the numeric ones parsed by numpy, and each
    domain rule one array operation. Raises _NotBulk where the row reader
    must judge."""
    factors = {name: {} for name in ("station_id", "strategy", "issue_date", "converged", "fallback")}
    column = {name: j for j, name in enumerate(reader.header)}
    parts = []
    for cells in _chunks(reader):
        part = {name: _factor(cells[column[name]], codes) for name, codes in factors.items()}
        part.update({name: _numbers(cells[column[name]], np.int64) for name in ("lead_h", "n_samples")})
        part.update({name: _numbers(cells[column[name]], float) for name in ("a", "b1", "c", "d1", "objective")})
        for name in ("b2", "d2"):  # empty, or a number
            text = cells[column[name]]
            part[f"{name}_given"] = given = np.fromiter(map(bool, text), dtype=bool, count=len(text))
            part[name] = np.full(len(text), np.nan)
            part[name][given] = _numbers(list(compress(text, given.tolist())), float)
        parts.append(part)
    if not parts:
        return CoefficientStore()
    c = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    station_ids, issue_days = _labels(factors["station_id"], str), _labels(factors["issue_date"], date.fromisoformat)
    strategies = _labels(factors["strategy"], str)
    k = np.array(_labels(factors["strategy"], lambda s: len(parse_strategy(s)[1])))[c["strategy"]]
    flags = [np.array(_labels(factors[name], lambda s: _BOOLEANS[s.lower()]))[c[name]]
             for name in ("converged", "fallback")]
    coefficients = np.column_stack([c["a"], c["b1"], c["b2"], c["c"], c["d1"], c["d2"]])
    finite = np.isfinite(coefficients)
    finite[:, [2, 5]] |= (k == 1)[:, None]  # b2 and d2 of single-model records are absent
    objective = c["objective"]
    if (not finite.all() or (coefficients[:, [1, 2, 4, 5]] < 0).any()
            or (c["b2_given"] != (k > 1)).any() or (c["d2_given"] != (k > 1)).any()
            or (c["lead_h"] < 0).any() or (c["n_samples"] < 0).any()
            or (objective < 0).any() or np.isinf(objective).any()):
        raise _NotBulk
    rows = np.zeros(len(objective), dtype=RECORD)
    station_ids, rows["station"] = relabel(station_ids, c["station_id"])
    strategies, rows["strategy"] = relabel(strategies, c["strategy"])
    rows["day"] = np.array([d.toordinal() for d in issue_days], dtype=np.int64)[c["issue_date"]]
    rows["lead"], rows["n_samples"], rows["objective"] = c["lead_h"], c["n_samples"], objective
    rows["a"], rows["c"] = c["a"], c["c"]
    rows["b"], rows["d"] = coefficients[:, [1, 2]], coefficients[:, [4, 5]]
    rows["converged"], rows["fallback"] = flags
    order = np.lexsort([rows[name] for name in ("strategy", "lead", "station", "day")])
    rows = rows[order]
    keys = [rows[name] for name in ("day", "station", "lead", "strategy")]
    if np.logical_and.reduce([key[1:] == key[:-1] for key in keys]).any():
        raise _NotBulk  # a repeated key
    rows.flags.writeable = False
    return CoefficientStore.from_table(station_ids, strategies, rows)


def _read_store_rows(path) -> CoefficientStore:
    """``read_store`` row by row, raising its SchemaErrors."""
    records = {}
    with _TableReader(path, _STORE_COLUMNS) as reader:
        for line_no, row in reader.rows():
            strategy = row.str("strategy")
            try:
                k = len(parse_strategy(strategy)[1])
            except ValueError as err:
                raise SchemaError(path, line_no, "strategy", str(err)) from None
            for j in range(k + 1, _MAX_PREDICTORS + 1):
                for absent in (f"b{j}", f"d{j}"):
                    if row.optional_float(absent) is not None:
                        raise SchemaError(path, line_no, absent, "must be empty for single-model records")
            coef = EmosCoefficients(
                a=row.finite("a"),
                b=tuple(row.finite(f"b{j}", 0) for j in range(1, k + 1)),
                c=row.finite("c"),
                d=tuple(row.finite(f"d{j}", 0) for j in range(1, k + 1)),
            )
            key = CoefficientKey(
                station_id=row.str("station_id"),
                lead_time=row.int("lead_h", 0),
                strategy=strategy,
                issue_date=row.date("issue_date"),
            )
            if key in records:
                raise SchemaError(path, line_no, None, f"duplicate record for {key.station_id} lead {key.lead_time} "
                                                       f"{strategy} {key.issue_date}")
            objective = row.float("objective")
            if not (math.isnan(objective) or 0.0 <= objective < math.inf):  # NaN: an identity record
                raise SchemaError(path, line_no, "objective", f"must be NaN or finite and >= 0, got {objective}")
            records[key] = FitResult(coef, objective, row.bool("converged"), n_iterations=0,
                                     n_samples=row.int("n_samples", 0), fallback=row.bool("fallback"))
    return CoefficientStore(records)


# -- config ------------------------------------------------------------------


def parse_config(path) -> dict[str, str]:
    """Flat "key = value" config with dotted keys; later keys override earlier."""
    out: dict[str, str] = {}
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise SchemaError(path, line_no, None, f"expected 'key = value', got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise SchemaError(path, line_no, None, "empty config key")
            out[key] = value
    return out
