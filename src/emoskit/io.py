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

Schema violations raise SchemaError naming the file, line and column.
Tables are read row by row with the csv module, except forecast files, which
hold one row per member and are the bulk of every load: numpy's C tokenizer
(``np.loadtxt``, with the csv module's quoting) parses their body in one
call, each distinct station and init-time cell is parsed once, lead and
member cells are parsed by ``int`` as the row reader parses them, and
members are grouped by one sort. A forecast file that this bulk reader
cannot take as valid is read again row by row; that pass raises the
SchemaError, so its line and column are the same as a row reader's.
Config files are flat "key = value" text with dotted keys; blank lines and
"#" comments are ignored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from .domain import EnsembleForecast, GaussianPredictive, ObservationSeries, StationMetadata
from .emos import EmosCoefficients
from .pipeline import CoefficientKey, CoefficientStore, StoredFit, parse_strategy

__all__ = [
    "SchemaError",
    "PredictionRow",
    "fmt_float",
    "format_timestamp",
    "parse_timestamp",
    "read_observations",
    "write_observations",
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
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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

    def int(self, column: str) -> int:
        raw = self.str(column)
        try:
            return int(raw)
        except ValueError:
            raise SchemaError(self.path, self.line_no, column, f"not an integer: {raw!r}") from None

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
        except ValueError:
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


# -- observations -----------------------------------------------------------


def write_observations(path, observations: dict[str, ObservationSeries]) -> None:
    rows = (
        [sid, format_timestamp(t), fmt_float(v)]
        for sid in sorted(observations)
        for t, v in zip(observations[sid].timestamps, observations[sid].values)
        if not math.isnan(v)  # missing observations are simply absent rows
    )
    write_table(path, ["station_id", "valid_time", "temp_c"], rows)


def read_observations(path) -> dict[str, ObservationSeries]:
    collected: dict[str, list[tuple[datetime, float]]] = {}
    with _TableReader(path, ["station_id", "valid_time", "temp_c"]) as reader:
        for line_no, row in reader.rows():
            sid = row.str("station_id")
            t = row.timestamp("valid_time")
            v = row.float("temp_c")
            if not math.isfinite(v):
                raise SchemaError(path, line_no, "temp_c", "observation must be finite")
            collected.setdefault(sid, []).append((t, v))
    out = {}
    for sid, pairs in collected.items():
        pairs.sort(key=lambda p: p[0])
        out[sid] = ObservationSeries(
            station_id=sid,
            timestamps=tuple(t for t, _ in pairs),
            values=tuple(v for _, v in pairs),
        )
    return out


# -- forecasts ---------------------------------------------------------------


def write_forecasts(path, forecasts: list[EnsembleForecast]) -> None:
    def member_rows(fc):
        init = format_timestamp(fc.init_time)
        return [[fc.station_id, init, fc.lead_time, idx, fmt_float(v)] for idx, v in enumerate(fc.members)]

    ordered = sorted(forecasts, key=lambda f: (f.station_id, f.init_time, f.lead_time))
    rows = chain.from_iterable(map(member_rows, ordered))
    write_table(path, ["station_id", "init_time", "lead_h", "member_idx", "temp_c"], rows)


_FORECAST_COLUMNS = {"station_id": object, "init_time": object, "lead_h": np.int64, "member_idx": np.int64,
                     "temp_c": np.float64}
# Integer cells go through int(), as in the row reader: the integer parser of
# older numpy releases (deprecated in 1.23, not yet removed) reads "12.5" as
# 12 with only a DeprecationWarning.
_FORECAST_INT_COLUMNS = ("lead_h", "member_idx")


def read_forecasts(path, model_id: str) -> list[EnsembleForecast]:
    """One model's ensembles, sorted by (station, init time, lead).

    The body is tokenized in bulk (``_read_forecast_table``). A file that the
    bulk reader cannot take as it stands (a cell numpy rejects, an empty
    station id, members not contiguous from 0) is read again row by row,
    which raises the file's first SchemaError. Both readers build the
    ensembles in sorted order, so one that ``EnsembleForecast`` rejects
    raises the same ValueError either way.
    """
    with _TableReader(path, list(_FORECAST_COLUMNS)) as reader:
        forecasts = _read_forecast_table(reader, model_id)
    return _read_forecast_rows(path, model_id) if forecasts is None else forecasts


def _read_forecast_table(reader: _TableReader, model_id: str) -> list[EnsembleForecast] | None:
    """Parse the rest of ``reader``'s file with numpy's C tokenizer, or
    return None when it cannot be taken as valid without the row reader.

    Each distinct station and init-time cell is stripped or parsed once,
    the rows are sorted with one lexsort, and member indices are checked
    with vectorized comparisons. Lead and member cells are parsed by
    ``int``. Cell rules differ from the row reader only where numpy rejects
    a temperature ``float`` would take, such as "1_0"; such a file goes to
    the row reader too.
    """
    # numpy warns on a body without rows; the row reader skips blank lines.
    first = next((line for line in reader.body if line.strip()), None)
    if first is None:
        return []
    dtype = [(name, _FORECAST_COLUMNS[name]) for name in reader.header]
    converters = {i: int for i, name in enumerate(reader.header) if name in _FORECAST_INT_COLUMNS}
    try:
        table = np.loadtxt(chain([first], reader.body), dtype=dtype, delimiter=",", quotechar='"', comments=None,
                           encoding="utf-8", ndmin=1, converters=converters)
        station, stations = _factorize(table["station_id"], str.strip)
        init, inits = _factorize(table["init_time"], parse_timestamp)
    except (ValueError, OverflowError):
        return None
    if "" in stations:
        return None
    lead, member, value = table["lead_h"], table["member_idx"], table["temp_c"]
    order = np.lexsort((member, lead, init, station))
    station, init, lead, member, value = station[order], init[order], lead[order], member[order], value[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = (station[1:] != station[:-1]) | (init[1:] != init[:-1]) | (lead[1:] != lead[:-1])
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], len(order))
    if (member != np.arange(len(order)) - np.repeat(starts, ends - starts)).any():
        return None  # members not contiguous from 0
    values = value.tolist()
    return [
        EnsembleForecast(stations[s], model_id, inits[t], lt, tuple(values[a:b]))
        for s, t, lt, a, b in zip(station[starts].tolist(), init[starts].tolist(), lead[starts].tolist(),
                                  starts.tolist(), ends.tolist())
    ]


def _factorize(cells: np.ndarray, parse) -> tuple[np.ndarray, list]:
    """Codes into the sorted distinct values of ``parse(cell)``, and those
    values. ``parse`` runs once per distinct cell, and only cells that differ
    from the one above are hashed: one lookup per run in a sorted file.
    """
    head = np.ones(len(cells), dtype=bool)
    head[1:] = cells[1:] != cells[:-1]
    slot: dict[str, int] = {}
    head_slots = [slot.setdefault(cell, len(slot)) for cell in cells[head].tolist()]
    parsed = [parse(cell) for cell in slot]
    values = sorted(set(parsed))
    rank = {v: i for i, v in enumerate(values)}
    code_of_slot = np.array([rank[v] for v in parsed], dtype=np.intp)
    return code_of_slot[head_slots][np.cumsum(head) - 1], values


def _read_forecast_rows(path, model_id: str) -> list[EnsembleForecast]:
    groups: dict[tuple[str, datetime, int], list[tuple[int, float]]] = {}
    with _TableReader(path, list(_FORECAST_COLUMNS)) as reader:
        for line_no, row in reader.rows():
            key = (row.str("station_id"), row.timestamp("init_time"), row.int("lead_h"))
            groups.setdefault(key, []).append((row.int("member_idx"), row.float("temp_c")))
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
        out = []
        for _, row in reader.rows():
            out.append(
                StationMetadata(
                    station_id=row.str("station_id"),
                    latitude=row.float("lat"),
                    longitude=row.float("lon"),
                    elevation=row.float("elev_m"),
                    grid_elevation={m: row.float(f"{prefix}{m}") for m in models},
                )
            )
    return out


# -- predictions -------------------------------------------------------------


@dataclass(frozen=True)
class PredictionRow:
    station_id: str
    init_time: datetime
    lead_time: int
    strategy: str
    predictive: GaussianPredictive


def write_predictions(path, rows: list[PredictionRow]) -> None:
    cells = (
        [r.station_id, format_timestamp(r.init_time), r.lead_time, r.strategy, fmt_float(r.predictive.mu),
         fmt_float(r.predictive.sigma)]
        for r in sorted(rows, key=lambda r: (r.station_id, r.init_time, r.lead_time, r.strategy))
    )
    write_table(path, ["station_id", "init_time", "lead_h", "strategy", "mu", "sigma"], cells)


def read_predictions(path) -> list[PredictionRow]:
    out = []
    with _TableReader(path, ["station_id", "init_time", "lead_h", "strategy", "mu", "sigma"]) as reader:
        for line_no, row in reader.rows():
            sigma = row.float("sigma")
            if sigma <= 0.0:
                raise SchemaError(path, line_no, "sigma", f"sigma must be > 0, got {sigma}")
            out.append(
                PredictionRow(
                    station_id=row.str("station_id"),
                    init_time=row.timestamp("init_time"),
                    lead_time=row.int("lead_h"),
                    strategy=row.str("strategy"),
                    predictive=GaussianPredictive(mu=row.float("mu"), sigma=sigma),
                )
            )
    return out


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
_MAX_PREDICTORS = 2  # the store has b1, b2, d1, d2 columns


def write_store(path, store: CoefficientStore) -> None:
    """One record per key, ordered by (issue_date, station, lead, strategy)."""

    def rows():
        for key, record in store.items():
            coef = record.coefficients
            absent = [""] * (_MAX_PREDICTORS - len(parse_strategy(key.strategy)[1]))
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


def read_store(path) -> CoefficientStore:
    store = CoefficientStore()
    with _TableReader(path, _STORE_COLUMNS) as reader:
        for line_no, row in reader.rows():
            strategy = row.str("strategy")
            k = len(parse_strategy(strategy)[1])
            for j in range(k + 1, _MAX_PREDICTORS + 1):
                for absent in (f"b{j}", f"d{j}"):
                    if row.optional_float(absent) is not None:
                        raise SchemaError(path, line_no, absent, "must be empty for single-model records")
            coef = EmosCoefficients(
                a=row.float("a"),
                b=tuple(row.float(f"b{j}") for j in range(1, k + 1)),
                c=row.float("c"),
                d=tuple(row.float(f"d{j}") for j in range(1, k + 1)),
            )
            key = CoefficientKey(
                station_id=row.str("station_id"),
                lead_time=row.int("lead_h"),
                strategy=strategy,
                issue_date=row.date("issue_date"),
            )
            store.put(
                key,
                StoredFit(
                    coefficients=coef,
                    n_samples=row.int("n_samples"),
                    objective=row.float("objective"),
                    converged=row.bool("converged"),
                    fallback=row.bool("fallback"),
                ),
            )
    return store


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
