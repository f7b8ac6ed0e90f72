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

Every table but the forecasts is read by one column reader, ``_read_table``,
``_CHUNK_LINES`` lines at a time: ``str.split`` (the csv module, from a line
it might cut otherwise) cuts them into columns, label columns are factorized,
each distinct cell parsed once, and number columns parsed by numpy. Each file
states its cell kinds and the rules of a row in the order they are checked.
The first (row, rule) that fails, in file order, raises SchemaError naming
the file, line and column; so does a line of another cell count, a cell past
the csv field limit or, in any file, a byte that is not UTF-8. Predictions
are read into a ``domain.PredictionTable``, the store into the columns of a
``pipeline.CoefficientStore``.
Forecast files are read in one pass (``_scan_forecasts``) that splits only
the first line of each ensemble's run of member rows and hands the member
and value cells of kept rows to ``np.loadtxt`` in chunks (member cells to its
int64 parser, which rejects "12.5" from numpy 2.4 on); a read peaks below
twice the file's size. A file it cannot split exactly goes to the column
reader; with a filter on init dates, only the member and value cells of kept
dates are parsed (``ForecastFile``).

Station files are written row by row with the csv module; every other table
in blocks with the bytes of the row writer, each label csv-encoded once and a
block's lines formatted by one printf template. Config files are flat "key =
value" text with dotted keys; blank lines and "#" comments are ignored.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from datetime import date, datetime, timezone
from io import StringIO
from itertools import chain, compress, filterfalse, islice
from pathlib import Path

import numpy as np

from .domain import ForecastCube, ObservationSeries, PredictionTable, StationMetadata, _micros, relabel
from .pipeline import RECORD, CoefficientStore, parse_strategy

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


def _not_utf8(path) -> SchemaError:
    """The SchemaError of the first byte of ``path`` that is not UTF-8, at its line."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        return SchemaError(path, data.count(b"\n", 0, err.start) + 1, None,
                           f"not UTF-8: byte 0x{data[err.start]:02x} ({err.reason})")
    return SchemaError(path, None, None, "not UTF-8")  # the file changed since it was read


class _TableReader:
    """CSV reader that validates the header against ``columns`` (a name ending
    in "*": the columns that start with the rest of it; ``declared`` gives
    the one each header column matched) and raises SchemaError at a byte that
    is not UTF-8, in the ``with`` block too. ``body``: the file after the header."""

    def __init__(self, path, columns: list[str]):
        self.path = Path(path)
        self.columns = columns

    def __enter__(self):
        self._fh = self.path.open("r", encoding="utf-8", newline="")
        try:
            try:
                header = [h.strip() for h in next(csv.reader(self._fh))]
            except StopIteration:
                raise SchemaError(self.path, 1, None, "file is empty, expected a header row") from None
            except csv.Error as err:  # a cell past the field limit
                raise SchemaError(self.path, 1, None, str(err)) from None
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise SchemaError(self.path, 1, name, "duplicate column")
            for col in self.columns:
                if not col.endswith("*") and col not in header:
                    raise SchemaError(self.path, 1, col, "missing required column")
            self.declared = [next((c for c in self.columns if c == h or c.endswith("*") and h.startswith(c[:-1])),
                                  None) for h in header]
            if None in self.declared:
                raise SchemaError(self.path, 1, header[self.declared.index(None)], "unexpected column")
        except BaseException as err:
            self.__exit__(type(err), err, None)  # which does not run when __enter__ raises
            raise
        self.header = header
        self.body = self._fh  # positioned after the header row
        return self

    def __exit__(self, kind, error, traceback):
        self._fh.close()
        if isinstance(error, UnicodeDecodeError):
            raise _not_utf8(self.path) from None


# -- the column reader --------------------------------------------------------

# Lines per chunk of a read (and rows per block of a write): the text held at
# once, whatever the file's size.
_CHUNK_LINES = 4096
_EMPTY = "value must not be empty"


def _chunks(reader: _TableReader):
    """The records of ``reader``'s body, numbered from 2, in chunks of up to
    ``_CHUNK_LINES``: (line numbers, cells of each column), blank records left
    out. One ``str.split`` cuts a chunk; the csv module cuts the rest of the
    file from one with a quote, lone carriage return or NUL character, a line
    past the csv field limit or a line of another cell count. A record of
    another cell count, or a cell past the limit, raises SchemaError after
    the chunk of the records before it."""
    width, line_no = len(reader.header), 2
    while lines := list(islice(reader.body, _CHUNK_LINES)):
        numbers, kept = np.arange(line_no, line_no + len(lines)), list(filterfalse(str.isspace, lines))
        if len(kept) < len(lines):  # blank lines, left out
            numbers = numbers[~np.fromiter(map(str.isspace, lines), dtype=bool, count=len(lines))]
        text = "".join(kept).replace("\r\n", "\n")
        # A marker cell "\n" after each line's cells: a line of another cell count moves the markers.
        cells = (text if text.endswith("\n") or not text else text + "\n").replace("\n", ",\n,").split(",")[:-1]
        if (any(c in text for c in '"\r\0') or max(map(len, lines)) > csv.field_size_limit()
                or len(cells) != len(kept) * (width + 1) or cells[width::width + 1].count("\n") != len(kept)):
            break
        yield numbers, [cells[j::width + 1] for j in range(width)]
        line_no += len(lines)
    else:
        return
    start, line_no, rows, numbers, error = line_no, line_no - 1, [], [], None
    try:  # the chunks before were cut as the csv module cuts them, so it can take over at a line
        for line_no, row in enumerate(csv.reader(chain(lines, reader.body)), start=start):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                error = SchemaError(reader.path, line_no, None, f"expected {width} fields, got {len(row)}")
                break
            numbers.append(line_no)
            rows.append(row)
            if len(rows) == _CHUNK_LINES:
                yield np.array(numbers), list(zip(*rows))
                rows, numbers = [], []
    except csv.Error as err:  # a cell past the field limit
        error = SchemaError(reader.path, line_no + 1, None, str(err))
    if rows:
        yield np.array(numbers), list(zip(*rows))
    if error is not None:
        raise error


def _factor(cells, codes: dict[str, int]) -> np.ndarray:
    """The code of each cell in ``codes``, which gains the cells new to it:
    each distinct cell is then parsed once."""
    for cell in dict.fromkeys(cells):
        codes.setdefault(cell, len(codes))
    return np.fromiter(map(codes.__getitem__, cells), dtype=np.int64, count=len(cells))


def _numbers(cells, kind) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """``cells`` parsed by numpy as ``kind`` (``float`` or ``int``) parses a
    cell, NaN or 0 where one does not; the fault of each (0, or 1 where it is
    empty, 2 where it does not parse or an integer leaves the int64 range);
    and the messages of the faults, by index."""
    fault, errors = np.zeros(len(cells), dtype=np.int8), {}
    try:
        return np.array(cells, dtype=kind), fault, errors
    except (ValueError, OverflowError):
        pass
    values = np.full(len(cells), math.nan if kind is float else 0, dtype=kind)
    given = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    fault[~given] = 1
    try:
        values[given] = np.array(list(compress(cells, given.tolist())), dtype=kind)
    except (ValueError, OverflowError):
        for i in np.flatnonzero(given).tolist():
            cell = cells[i].strip()
            try:
                values[i] = np.array([cell], dtype=kind)[0]
            except OverflowError:
                fault[i], errors[i] = 2, f"integer out of range: {cell!r}"
            except ValueError:
                fault[i], errors[i] = (2, f"not an integer: {cell!r}" if kind is int else f"not a number: {cell!r}") \
                    if cell else (1, _EMPTY)
    return values, fault, errors


@dataclass
class _Column:
    """A column that ``_read_table`` read: ``values`` (numbers, or codes into
    ``labels``, in order of first appearance, -1 where a cell is no label);
    each cell's ``fault`` (0: it parsed, 1: it is empty, 2: it does not) and
    ``error(row)``, its message."""

    values: np.ndarray
    fault: np.ndarray
    error: Callable[[int], str]
    labels: list | None = None


def _column(parts: list, kind, distinct: dict[str, int]) -> _Column:
    """The column of the parsed chunks ``parts``: number parts of
    ``_numbers``, or codes of the ``distinct`` label cells, each cell then
    stripped and parsed once by the label ``kind``; equal labels share a
    code."""
    if kind in (float, int):
        values, fault = (np.concatenate([p[j] for p in parts] or [np.empty(0, dtype)]) for j, dtype in
                         ((0, kind), (1, np.int8)))
        starts = np.cumsum([0] + [len(p[0]) for p in parts]).tolist()
        errors = {start + i: message for start, p in zip(starts, parts) for i, message in p[2].items()}
        return _Column(values, fault, lambda row: errors.get(row, _EMPTY))
    (parse, message), labels, code_of, messages = kind, {}, [], []
    for cell in map(str.strip, distinct):
        try:
            code_of.append(labels.setdefault(parse(cell), len(labels)) if cell else -1)
            messages.append(None if cell else _EMPTY)
        except (ValueError, OverflowError, KeyError) as err:  # OverflowError: a time past the datetime range in UTC
            code_of.append(-1)
            messages.append(message(cell) if message else str(err))
    raw = np.concatenate(parts or [np.empty(0, np.int64)])
    codes = np.array(code_of, dtype=np.int64)[raw]
    return _Column(codes, (codes < 0).view(np.int8), lambda row: messages[raw[row]], list(labels))


def _read_table(paths, kinds: dict, checks: Callable[[dict], list]) -> dict[str, _Column]:
    """The columns of the files ``paths``, read one after another as one
    table. ``kinds`` maps each column (a name ending in "*": the columns that
    start with the rest of it) to its cell kind: ``float`` or ``int``, parsed
    by numpy, or a label's (parse of a stripped cell, message of a cell it
    raises at, or None for the error's own). ``checks(columns)`` lists the
    rules of a row in the order they are checked, as (column, mask of the
    rows that break it, message of a row), each judged only where those
    before it hold; the first (row, rule) that fails raises SchemaError, and
    so, once the rows before it pass, does a file that cannot be read or a
    record that cannot be cut."""
    names, chunks, distinct, pending = None, [], {}, None  # chunks: (path, line numbers, {column: parsed cells})
    try:
        for path in paths:
            with _TableReader(path, list(kinds)) as reader:
                header = {name: kinds[declared] for name, declared in zip(reader.header, reader.declared)}
                names = names or header
                for lines, cells in _chunks(reader):
                    chunks.append((path, lines, {
                        name: _numbers(column, kind) if kind in (float, int)
                        else _factor(column, distinct.setdefault(name, {}))
                        for (name, kind), column in zip(header.items(), cells)}))
    except (OSError, SchemaError) as err:
        pending = err
    if pending is not None and not chunks:
        raise pending
    columns = {name: _column([cells[name] for _, _, cells in chunks], kind, distinct.get(name, {}))
               for name, kind in names.items()}
    failures = [(mask.argmax(), rank, column, message)
                for rank, (column, mask, message) in enumerate(checks(columns)) if mask.any()]
    if failures:
        row, _, column, message = min(failures, key=lambda failure: failure[:2])
        message = message(row)
        for path, lines, _ in chunks:
            if row < len(lines):
                raise SchemaError(path, lines.item(row), column, message)
            row -= len(lines)
    if pending is not None:
        raise pending
    return columns


def _strategy(cell: str) -> str:
    parse_strategy(cell)  # ValueError with its message
    return cell


_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}
_ID, _STRATEGY = (str, None), (_strategy, None)
_TIMESTAMP = (parse_timestamp, lambda cell: f"not an ISO-8601 timestamp: {cell!r}")
_DATE = (date.fromisoformat, lambda cell: f"not an ISO date: {cell!r}")
_BOOL = (lambda cell: _BOOLEANS[cell.lower()], lambda cell: f"not a boolean: {cell.lower()!r}")


def _cell(c: dict, name: str, where=True) -> list:
    """The rule that the cell of ``name`` parses, in the rows ``where``."""
    return [(name, (c[name].fault > 0) & where, c[name].error)]


def _finite(c: dict, name: str, low=-math.inf, high=math.inf, where=True) -> list:
    """The rules of a finite number in [low, high], in the rows ``where``."""
    v = c[name].values
    return [*_cell(c, name, where), (name, ~np.isfinite(v) & where, lambda row: f"must be finite, got {v.item(row)}"),
            (name, ~((low <= v) & (v <= high)) & where, lambda row: f"must lie in [{low}, {high}], got {v.item(row)}")]


def _integer(c: dict, name: str, minimum: int) -> list:
    v = c[name].values
    return [*_cell(c, name), (name, v < minimum, lambda row: f"must be >= {minimum}, got {v.item(row)}")]


def _unique(c: dict, names: tuple, message, column: str | None = None) -> tuple:
    """The rule that a row does not repeat the key (its values of ``names``)
    of an earlier row; ``message`` of the key's values."""
    keys = [c[name].values for name in names]
    order = np.lexsort(keys)  # stable: the rows of a key in file order
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:][np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])]] = True
    return column, repeat, lambda row: message(*(c[name].values.item(row) if c[name].labels is None
                                                 else c[name].labels[c[name].values[row]] for name in names))


# -- writers ---------------------------------------------------------------


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


# -- observations -----------------------------------------------------------


def write_observations(path, observations: dict[str, ObservationSeries]) -> None:
    def block(sid):  # missing observations (NaN) are simply absent rows
        head, series = _csv_cell(sid), observations[sid]
        kept = ~np.isnan(series.values)
        times = np.datetime_as_string(series.times[kept].astype("datetime64[us]"), unit="s").tolist()
        return "".join(f"{head},{t}Z,{fmt_float(v)}\n" for t, v in zip(times, series.values[kept].tolist()))

    _write_blocks(path, ["station_id", "valid_time", "temp_c"], map(block, sorted(observations)))


def read_observations(path) -> dict[str, ObservationSeries]:
    c = _read_table([path], {"station_id": _ID, "valid_time": _TIMESTAMP, "temp_c": float}, lambda c: [
        *_cell(c, "station_id"), *_cell(c, "valid_time"), *_finite(c, "temp_c"), _unique(
            c, ("station_id", "valid_time"), lambda sid, t: f"duplicate observation for {sid} {format_timestamp(t)}")])
    station, times = c["station_id"].values, _micros(c["valid_time"].labels)[c["valid_time"].values]
    order = np.lexsort((times, station))
    station, times, values = station[order], times[order], c["temp_c"].values[order]
    bounds = np.searchsorted(station, np.arange(len(c["station_id"].labels) + 1)).tolist()
    return {sid: ObservationSeries(sid, times[lo:hi], values[lo:hi])
            for sid, lo, hi in zip(c["station_id"].labels, bounds, bounds[1:])}


# -- forecasts ---------------------------------------------------------------


_FORECAST_KINDS = {"station_id": _ID, "init_time": _TIMESTAMP, "lead_h": int, "member_idx": int, "temp_c": float}
_FORECAST_COLUMNS = list(_FORECAST_KINDS)
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
    A file the scan cannot take apart exactly is read by the column reader
    instead (``_forecast_runs``), which raises the file's first SchemaError
    on a cell. Either way ``_forecast_cube`` groups the member rows into the cube.

    ``keep``, a test on the UTC date of an init time (None: every date),
    limits the cube to the ensembles of the dates it takes. The member and
    value cells of other rows, and the ensembles they form, are not checked;
    every station, init-time and lead cell is.
    """
    with _TableReader(path, _FORECAST_COLUMNS) as reader:
        runs = _scan_forecasts(reader, keep)
    return _forecast_cube(path, model_id, *(runs or _forecast_runs(path, keep)))


def _scan_forecasts(reader: _TableReader, keep) -> tuple | None:
    """The runs of ``reader``'s body, in one pass (see ``_forecast_cube``), or
    None when a line cannot be taken apart exactly: a header that does not
    start station_id,init_time,lead_h, a quote character, fewer than four
    cells, an empty station id, a first line of a run or a kept line longer
    than the csv field limit (the latter checked once per chunk), a cell that
    the column reader might read otherwise, or a kept member value that is
    not finite.

    The member rows of an ensemble share the text of its station, init-time
    and lead cells, so a line that starts as the last split line did belongs
    to that line's run and is not split; each distinct init-time cell is
    parsed once. A kept line goes to ``np.loadtxt`` from its fourth cell on,
    ``_CHUNK_LINES`` lines per call.
    """
    if reader.header[:3] != _FORECAST_COLUMNS[:3]:
        return None
    dtype = [(name, _FORECAST_KINDS[name]) for name in reader.header[3:]]
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
                if '"' in line or len(cells) < 4 or len(line) > csv.field_size_limit():
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
    except (ValueError, OverflowError):  # a cell the column reader must judge
        return None
    table = np.concatenate(parts)
    # numpy skips a line of no cells; the column reader locates a non-finite value.
    if len(table) != done + len(chunk) or not np.isfinite(table["temp_c"]).all():
        return None
    heads = np.frombuffer(heads, dtype=np.int64).reshape(-1, 4)
    return list(stations), list(times), heads, table["member_idx"], table["temp_c"]


def _member_cells(lines: list[str], dtype) -> np.ndarray:
    """The member and value cells of ``lines`` (each from its fourth cell on),
    by numpy's C tokenizer and its int64 and float64 parsers. A line longer
    than the csv field limit raises ValueError: the column reader judges its
    cells."""
    if not lines:
        return np.empty(0, dtype=dtype)  # numpy warns on input without rows
    if max(map(len, lines)) > csv.field_size_limit():
        raise ValueError("a line past the csv field limit")
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _forecast_runs(path, keep) -> tuple:
    """The runs of ``_scan_forecasts``, one per row, read by the column
    reader: the file's first bad cell, a negative lead or a non-finite member
    among them, raises its SchemaError."""
    c = _read_table([path], _FORECAST_KINDS, lambda c: [*_cell(c, "station_id"), *_cell(c, "init_time"),
                                                         *_integer(c, "lead_h", 0), *_cell(c, "member_idx"),
                                                         *_finite(c, "temp_c")])
    stations, times = c["station_id"], c["init_time"]
    taken = np.array([keep is None or keep(t.date()) for t in times.labels], dtype=bool)[times.values]
    heads = np.column_stack([stations.values, times.values, c["lead_h"].values, np.cumsum(taken) - taken])
    return stations.labels, times.labels, heads, c["member_idx"].values[taken], c["temp_c"].values[taken]


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
    station_ids, station = relabel(stations, heads[:, 0])
    init_times, init = relabel(times, heads[:, 1])
    lead, size = heads[:, 2], np.diff(heads[:, 3], append=len(member))
    labels = station_ids, init_times, _lead_grids(station, init, lead)
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
    kinds = {"station_id": _ID, "lat": float, "lon": float, "elev_m": float, "grid_elev_*": float}
    c = _read_table([path], kinds, lambda c: [
        *_cell(c, "station_id"), _unique(c, ("station_id",), lambda sid: f"duplicate station {sid}", "station_id"),
        *_finite(c, "lat", -90, 90), *_finite(c, "lon", -180, 180), *_finite(c, "elev_m"),
        *(rule for name in c if name.startswith("grid_elev_") for rule in _finite(c, name))])
    grids = {name[len("grid_elev_"):]: c[name].values.tolist() for name in c if name.startswith("grid_elev_")}
    lat, lon, elev = (c[name].values.tolist() for name in ("lat", "lon", "elev_m"))
    return [StationMetadata(sid, lat[i], lon[i], elev[i], {m: grid[i] for m, grid in grids.items()})
            for i, sid in enumerate(c["station_id"].labels)]


# -- predictions -------------------------------------------------------------

_PREDICTION_KINDS = {"station_id": _ID, "init_time": _TIMESTAMP, "lead_h": int, "strategy": _ID, "mu": float,
                     "sigma": float}
_PREDICTION_COLUMNS = list(_PREDICTION_KINDS)


def write_predictions(path, predictions: PredictionTable) -> None:
    """One row per (station, init time, lead, strategy) key, in key order."""
    p = predictions
    station, strategy = csv_cells(p.station_ids), csv_cells(p.strategies)
    init = csv_cells([format_timestamp(t) for t in p.init_times])
    write_columns(path, _PREDICTION_COLUMNS, f"%s,%s,%s,%s,{_FLOAT_FORMAT},{_FLOAT_FORMAT}\n", len(p),
                  lambda r: [station[p.station[r]], init[p.init[r]], p.lead[r], strategy[p.strategy[r]], p.mu[r],
                             p.sigma[r]])


def read_predictions(*paths) -> PredictionTable:
    """The predictions of one or more files, in one table; a key in two
    files raises at its line in the later one."""
    c = _read_table(paths, _PREDICTION_KINDS, lambda c: [
        *_finite(c, "sigma"),
        ("sigma", c["sigma"].values <= 0.0, lambda row: f"sigma must be > 0, got {c['sigma'].values.item(row)}"),
        *_cell(c, "station_id"), *_cell(c, "init_time"), *_integer(c, "lead_h", 0), *_cell(c, "strategy"),
        _unique(c, ("station_id", "init_time", "lead_h", "strategy"), lambda sid, init, lead, strategy:
                f"duplicate prediction for {sid} {format_timestamp(init)} lead {lead} {strategy}"),
        *_finite(c, "mu")])
    return PredictionTable(*(c[name].labels for name in ("station_id", "init_time", "strategy")), *(
        c[name].values for name in ("station_id", "init_time", "lead_h", "strategy", "mu", "sigma")))


# -- coefficient store -------------------------------------------------------

_STORE_KINDS = {"station_id": _ID, "lead_h": int, "strategy": _STRATEGY, "issue_date": _DATE, "a": float, "b1": float,
                "b2": float, "c": float, "d1": float, "d2": float, "n_samples": int, "objective": float,
                "converged": _BOOL, "fallback": _BOOL}
_STORE_COLUMNS = list(_STORE_KINDS)


def write_store(path, store: CoefficientStore) -> None:
    """One record per key, ordered by (issue_date, station, lead, strategy)."""
    rows = store.rows
    station, strategy = csv_cells(store.station_ids), csv_cells(store.strategies)
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


def _store_checks(c: dict) -> list:
    """The rules of a store row, in the order they are checked."""
    strategy, objective = c["strategy"], c["objective"].values
    # The predictors of each row's strategy; the 0 after them is that of a bad strategy cell (code -1).
    k = np.array([len(parse_strategy(s)[1]) for s in strategy.labels] + [0], dtype=np.int64)[strategy.values]
    single, mixed = k == 1, k == 2
    absent = [(name, single & (c[name].fault != 1), lambda row, name=name: c[name].error(row) if c[name].fault[row]
               else "must be empty for single-model records") for name in ("b2", "d2")]
    return [*_cell(c, "strategy"), *absent, *_finite(c, "a"), *_finite(c, "b1", 0), *_finite(c, "b2", 0, where=mixed),
            *_finite(c, "c"), *_finite(c, "d1", 0), *_finite(c, "d2", 0, where=mixed),
            *_cell(c, "station_id"), *_integer(c, "lead_h", 0), *_cell(c, "issue_date"),
            _unique(c, ("station_id", "lead_h", "strategy", "issue_date"), lambda sid, lead, strategy, day:
                    f"duplicate record for {sid} lead {lead} {strategy} {day}"),
            *_cell(c, "objective"),  # NaN: an identity record
            ("objective", ~(np.isnan(objective) | (objective >= 0.0) & (objective < math.inf)),
             lambda row: f"must be NaN or finite and >= 0, got {objective.item(row)}"),
            *_cell(c, "converged"), *_integer(c, "n_samples", 0), *_cell(c, "fallback")]


def read_store(path) -> CoefficientStore:
    """The store file's records as a ``CoefficientStore``."""
    c = _read_table([path], _STORE_KINDS, _store_checks)
    v = {name: column.values for name, column in c.items()}
    rows = np.zeros(len(v["a"]), dtype=RECORD)
    rows["station"], rows["strategy"] = v["station_id"], v["strategy"]
    rows["day"] = np.array([d.toordinal() for d in c["issue_date"].labels], dtype=np.int64)[v["issue_date"]]
    rows["lead"], rows["n_samples"], rows["objective"], rows["a"], rows["c"] = (
        v[name] for name in ("lead_h", "n_samples", "objective", "a", "c"))
    rows["b"], rows["d"] = np.column_stack([v["b1"], v["b2"]]), np.column_stack([v["d1"], v["d2"]])
    rows["converged"], rows["fallback"] = (np.array(c[name].labels, dtype=bool)[v[name]]
                                           for name in ("converged", "fallback"))
    return CoefficientStore(c["station_id"].labels, c["strategy"].labels, rows)


# -- config ------------------------------------------------------------------


def parse_config(path) -> dict[str, str]:
    """Flat "key = value" config with dotted keys; later keys override earlier."""
    out: dict[str, str] = {}
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    for line_no, line in enumerate(lines, start=1):
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
