"""The row readers that the column reader of ``emoskit.io`` replaced, kept
as they were to serve the tests as oracles: ``_TableReader`` with its
``rows()`` and ``_Row``, ``_read_store_rows``, ``_read_prediction_rows``,
``read_observations`` and ``read_stations``.

One change: ``read_observations`` checks for a repeated observation in its
loop over the rows, so that it raises the first error in file order, where
it used to check after the loop and so raise a bad cell on a later line
first.
"""

from __future__ import annotations

import csv
import math
from datetime import date, datetime
from pathlib import Path

import numpy as np

from emoskit.domain import ObservationSeries, PredictionTable, StationMetadata, _micros
from emoskit.emos import EmosCoefficients, FitResult
from emoskit.io import _PREDICTION_COLUMNS, _STORE_COLUMNS, SchemaError, format_timestamp, parse_timestamp
from emoskit.pipeline import _MAX_PREDICTORS, CoefficientKey, CoefficientStore, parse_strategy


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


def read_observations(path) -> dict[str, ObservationSeries]:
    codes: dict[str, int] = {}  # station id -> code, in order of first appearance
    rows, seen = [], set()
    with _TableReader(path, ["station_id", "valid_time", "temp_c"]) as reader:
        for line_no, row in reader.rows():
            rows.append((codes.setdefault(row.str("station_id"), len(codes)), row.timestamp("valid_time"),
                         row.finite("temp_c"), line_no))
            if rows[-1][:2] in seen:  # the duplicate check, moved into the loop: errors in file order
                code, t, _, line_no = rows[-1]
                raise SchemaError(path, line_no, None, f"duplicate observation for {list(codes)[code]} {format_timestamp(t)}")
            seen.add(rows[-1][:2])
    station, times = np.array([r[0] for r in rows], dtype=np.int64), _micros(r[1] for r in rows)
    order = np.lexsort((times, station))  # stable: a repeated time keeps its lines in file order
    station, times, values = station[order], times[order], np.array([r[2] for r in rows])[order]
    bounds = np.searchsorted(station, np.arange(len(codes) + 1)).tolist()
    return {sid: ObservationSeries(sid, times[lo:hi], values[lo:hi]) for sid, lo, hi in zip(codes, bounds, bounds[1:])}


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
