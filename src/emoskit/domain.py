"""Core record types shared by all stages: stations, forecast cubes (one per
model, iterable as ``EnsembleForecast`` records), observation series, training
tables, Gaussian predictive distributions and the prediction table that holds
many of them as columns. ``align`` pairs cubes with the observations of one
station at one lead into a ``SampleTable``.

All records are immutable after construction, arrays included, and every
operation here is a pure function, so everything in this module is safe to
share across threads. Timestamps are whole hours, UTC; no time-zone logic
lives in the core. Array lookups take times as int64 microseconds since 1970
(``_micros``), the form of an observation series' times.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import cached_property, partial, reduce

import numpy as np

__all__ = [
    "StationMetadata",
    "ForecastCube",
    "EnsembleForecast",
    "ObservationSeries",
    "SampleTable",
    "GaussianPredictive",
    "PredictionTable",
    "ensemble_stats",
    "align",
]

_EPOCH_DAY = date(1970, 1, 1).toordinal()
_HOUR = 3_600_000_000  # microseconds


def _micros(times) -> np.ndarray:
    """Microseconds since 1970 of each time, naive ones taken as UTC: exact
    integer keys for array lookups, from the fields of the UTC time."""
    utc = (t if t.tzinfo is None else t - t.utcoffset() for t in times)
    return np.array([((t.toordinal() - _EPOCH_DAY) * 86_400 + (t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000
                     + t.microsecond for t in utc], dtype=np.int64)


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array; a writable input is copied first."""
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class StationMetadata:
    """A measurement site plus the nearest-grid-point elevation per model.

    ``grid_elevation`` maps a model id to the elevation (m MSL) of the model
    grid point matched to this station; the matching itself is precomputed
    upstream and treated as input.
    """

    station_id: str
    latitude: float
    longitude: float
    elevation: float
    grid_elevation: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.elevation):
            raise ValueError(f"station {self.station_id}: elevation must be finite")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"station {self.station_id}: latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"station {self.station_id}: longitude {self.longitude} outside [-180, 180]")
        for model_id, elev in self.grid_elevation.items():
            if not math.isfinite(elev):
                raise ValueError(f"station {self.station_id}: grid elevation for {model_id!r} must be finite")


@dataclass(frozen=True)
class EnsembleForecast:
    """Member temperatures (deg C) of one model run for one station/init/lead:
    one ensemble of a ``ForecastCube``, as iterating the cube yields it."""

    station_id: str
    model_id: str
    init_time: datetime
    lead_time: int
    members: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ForecastCube:
    """One model's ensembles, one per (station, init time, lead), sorted by
    that key.

    Ensemble i is at station ``station_ids[station[i]]``, init time
    ``init_times[init[i]]`` and lead ``lead[i]`` hours; the labels are sorted,
    and each is used. Its members are row ``row[i]`` of ``members[block[i]]``,
    one float64 matrix per member count with rows in ensemble order. ``mean``
    and ``std`` (ddof=0) come from one ``ensemble_stats`` per matrix, and
    ``init_days`` holds the UTC dates (``date.toordinal``) of the init times.
    Members, means and spreads must be finite. Writable input arrays are
    copied, and all arrays are read-only.
    """

    model_id: str
    station_ids: tuple[str, ...]
    init_times: tuple[datetime, ...]
    station: np.ndarray
    init: np.ndarray
    lead: np.ndarray
    block: np.ndarray
    members: tuple[np.ndarray, ...]
    row: np.ndarray = field(init=False)
    mean: np.ndarray = field(init=False)
    std: np.ndarray = field(init=False)
    init_days: np.ndarray = field(init=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("station_ids", tuple(self.station_ids))
        put("init_times", tuple(self.init_times))
        for name in ("station", "init", "lead", "block"):
            put(name, _read_only(getattr(self, name), np.int64))
        # C order: numpy reduces each row of such a matrix as it reduces a vector.
        put("members", tuple(_read_only(np.ascontiguousarray(matrix, dtype=float), None) for matrix in self.members))
        s, t, lead, n = self.station, self.init, self.lead, len(self.lead)
        if s.shape != (n,) or t.shape != (n,) or self.block.shape != (n,):
            raise ValueError("station, init, lead and block must be arrays of one length")
        for codes, labels in ((s, self.station_ids), (t, self.init_times)):
            used = np.bincount(codes, minlength=len(labels))
            if list(labels) != sorted(set(labels)) or len(used) != len(labels) or not used.all():
                raise ValueError("station and init-time labels must be sorted and distinct, each used by the codes")
        same_station, same_init = s[1:] == s[:-1], t[1:] == t[:-1]
        if not ((s[1:] > s[:-1]) | same_station & ((t[1:] > t[:-1]) | same_init & (lead[1:] > lead[:-1]))).all():
            raise ValueError("ensembles must be sorted by (station, init time, lead), each key once")
        widths = [matrix.shape[-1] for matrix in self.members]
        if any(matrix.ndim != 2 for matrix in self.members) or len(set(widths)) < len(widths) or 0 in widths:
            raise ValueError("members must be one matrix per member count, each with at least one member")
        if np.bincount(self.block, minlength=len(widths)).tolist() != [len(matrix) for matrix in self.members]:
            raise ValueError("each member matrix needs one row per ensemble of its block")
        if (lead < 0).any():
            raise ValueError(f"lead_time must be >= 0, got {lead[lead < 0][0]}")
        if not all(np.isfinite(matrix).all() for matrix in self.members):
            raise ValueError("all member values must be finite")

        row, mean, std = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
        with np.errstate(over="ignore", invalid="ignore"):  # finite members near +-1.8e308 overflow
            for j, matrix in enumerate(self.members):
                at = self.block == j
                row[at], (mean[at], std[at]) = np.arange(len(matrix)), ensemble_stats(matrix)
        overflow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if overflow.size:
            i = overflow[0]
            raise ValueError(f"ensemble at station {self.station_ids[s[i]]}, init time "
                             f"{self.init_times[t[i]].isoformat()}, lead {lead[i]} h: its mean or spread overflows")
        for name, value in (("row", row), ("mean", mean), ("std", std),
                            ("init_days", [t.date().toordinal() for t in self.init_times])):
            put(name, _read_only(value, None))

    def __len__(self) -> int:
        return len(self.lead)

    def __iter__(self) -> Iterator[EnsembleForecast]:
        values = [matrix.tolist() for matrix in self.members]
        columns = (a.tolist() for a in (self.station, self.init, self.lead, self.block, self.row))
        for s, t, lead, j, r in zip(*columns):
            yield EnsembleForecast(self.station_ids[s], self.model_id, self.init_times[t], lead, tuple(values[j][r]))

    def rows(self, station_id: str, lead_time: int) -> np.ndarray:
        """Indices of the ensembles at ``station_id`` and ``lead_time``, in
        init-time order."""
        if station_id not in self.station_ids:
            return np.empty(0, dtype=np.int64)
        code = self.station_ids.index(station_id)
        lo, hi = self.station.searchsorted([code, code + 1])  # a station's ensembles are one run
        return lo + np.flatnonzero(self.lead[lo:hi] == lead_time)

    @cached_property
    def _init_micros(self) -> np.ndarray:
        return _micros(self.init_times)


@dataclass(frozen=True, eq=False)
class ObservationSeries:
    """Hourly 2-m temperature observations for one station.

    ``times`` are microseconds since 1970 UTC (``_micros``), strictly
    increasing; ``values`` are the observations, NaN marking a missing one.
    Writable input arrays are copied, and both arrays are read-only.
    """

    station_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, dtype in (("times", np.int64), ("values", float)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        if self.times.ndim != 1 or self.values.shape != self.times.shape or (self.times[1:] <= self.times[:-1]).any():
            raise ValueError("times must be strictly increasing and values of their length")

    def values_at(self, times) -> np.ndarray:
        """The values at ``times`` (an array of microseconds since 1970 UTC), NaN where the series has none."""
        if not len(self.times):
            return np.full(np.shape(times), np.nan)
        i = np.minimum(np.searchsorted(self.times, times), len(self.times) - 1)
        return np.where(self.times[i] == times, self.values[i], np.nan)


@dataclass(frozen=True, eq=False)
class SampleTable:
    """The aligned (ensemble statistics, observation) samples of one
    (station, lead), one row per init time, in init-time order.

    ``mean`` and ``std`` are (n, K), column k for ``models[k]``; ``init_days``
    holds the UTC init dates as day numbers (``date.toordinal``). Writable
    input arrays are copied, and all arrays are read-only, row slices too.
    """

    models: tuple[str, ...]
    init_days: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    observation: np.ndarray

    def __post_init__(self):
        for name, dtype in (("init_days", np.int64), ("mean", float), ("std", float), ("observation", float)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        n, k = len(self.observation), len(self.models)
        if self.init_days.shape != (n,) or self.mean.shape != (n, k) or self.std.shape != (n, k):
            raise ValueError(f"{k} models and {n} observations do not match the array shapes")
        if (self.init_days[1:] < self.init_days[:-1]).any():
            raise ValueError("rows must be in init-time order")
        if not np.isfinite(self.observation).all():
            raise ValueError("observations must be finite")

    def __len__(self) -> int:
        return len(self.observation)

    def __getitem__(self, rows) -> SampleTable:
        arrays = [self.init_days[rows], self.mean[rows], self.std[rows], self.observation[rows]]
        if isinstance(rows, slice) and (rows.step or 1) > 0:
            # A forward row range of a checked table needs no checks: its views are read-only and in order.
            table = object.__new__(SampleTable)
            table.__dict__.update(zip(("models", "init_days", "mean", "std", "observation"), [self.models, *arrays]))
            return table
        return SampleTable(self.models, *arrays)


@dataclass(frozen=True)
class GaussianPredictive:
    """Calibrated Gaussian predictive distribution: (mu, sigma) in deg C."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


def relabel(labels, codes) -> tuple[tuple, np.ndarray]:
    """The ``labels`` that ``codes`` (indices into them) use, sorted and
    distinct, and the codes into that tuple; equal labels share a code."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(labels)))
    names = [labels[i] for i in used.tolist()]
    ranked = sorted(set(names))
    rank = {name: r for r, name in enumerate(ranked)}
    code_of = np.zeros(len(labels), dtype=np.int64)
    code_of[used] = [rank[name] for name in names]
    return tuple(ranked), code_of[codes]


def lookup(keys, queries, within=0) -> np.ndarray:
    """For each row of ``queries``, the row of ``keys`` that equals it in
    every column but the last and whose last column is the largest in
    [q - ``within``, q], q the query's last column; -1 where none is. Both
    are sequences of int64 key columns of one length each, the rows of
    ``keys`` distinct; ``within`` is one value or one per query row."""
    n, low = len(keys[0]), queries[-1] - within
    columns = [np.concatenate([k, q]) for k, q in zip(keys, queries)]
    order = np.lexsort(columns[::-1])  # stable: a query row comes right after the key rows not above it
    before = np.maximum.accumulate(np.where(order < n, np.arange(len(order)), -1))  # the last key row up to each
    queried = order >= n
    query, last = order[queried] - n, before[queried]
    hit = order[np.maximum(last, 0)]
    same = [c[hit] == q[query] for c, q in zip(columns[:-1], queries)]
    found = np.logical_and.reduce([last >= 0, *same, columns[-1][hit] >= low[query]])
    out = np.empty(len(query), dtype=np.int64)
    out[query] = np.where(found, hit, -1)
    return out


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Gaussian predictions as columns, one row per (station, init time, lead,
    strategy), sorted by that key.

    Row i is the prediction N(``mu[i]``, ``sigma[i]``) at station
    ``station_ids[station[i]]``, init time ``init_times[init[i]]``, lead
    ``lead[i]`` hours and strategy ``strategies[strategy[i]]``. The constructor
    takes labels in any order, repeated or unused, and codes into them; it
    keeps the labels the codes use, sorted and distinct, recodes, and puts the
    rows in key order. A repeated key, a non-finite mu or sigma, or a sigma
    <= 0 raises ValueError. All arrays are read-only.
    """

    station_ids: tuple[str, ...]
    init_times: tuple[datetime, ...]
    strategies: tuple[str, ...]
    station: np.ndarray
    init: np.ndarray
    lead: np.ndarray
    strategy: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        columns = {name: np.asarray(getattr(self, name), dtype=dtype) for name, dtype in _PREDICTION_COLUMNS.items()}
        if {column.shape for column in columns.values()} != {(len(columns["lead"]),)}:
            raise ValueError("station, init, lead, strategy, mu and sigma must be arrays of one length")
        for labels, name in _PREDICTION_LABELS:
            ranked, columns[name] = relabel(getattr(self, labels), columns[name])
            put(labels, ranked)
        order = np.lexsort([columns[name] for name in ("strategy", "lead", "init", "station")])
        for name, column in columns.items():
            put(name, _read_only(column[order], None))
        keys = [self.station, self.init, self.lead, self.strategy]
        repeated = np.flatnonzero(np.logical_and.reduce([k[1:] == k[:-1] for k in keys]))
        if repeated.size:
            s, t, lead, strategy = (k[repeated[0]] for k in keys)
            raise ValueError(f"repeated prediction for {self.station_ids[s]} {self.init_times[t]} lead {lead} "
                             f"{self.strategies[strategy]}")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("mu and sigma must be finite")
        if (self.sigma <= 0.0).any():
            raise ValueError(f"sigma must be > 0, got {self.sigma[self.sigma <= 0.0][0]}")

    def __len__(self) -> int:
        return len(self.lead)

    @staticmethod
    def concat(tables) -> PredictionTable:
        """The rows of all ``tables`` in one table; a key in two raises ValueError."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]
        args = {}
        for labels, name in _PREDICTION_LABELS:
            args[labels] = [label for t in tables for label in getattr(t, labels)]
            offsets = np.cumsum([0] + [len(getattr(t, labels)) for t in tables])
            args[name] = np.concatenate([getattr(t, name) + offset for t, offset in zip(tables, offsets)] or [[]])
        for name in ("lead", "mu", "sigma"):
            args[name] = np.concatenate([getattr(t, name) for t in tables] or [[]])
        return PredictionTable(**args)


# The columns of a PredictionTable with their dtypes, and its (labels, codes) pairs.
_PREDICTION_COLUMNS = {"station": np.int64, "init": np.int64, "lead": np.int64, "strategy": np.int64, "mu": float,
                       "sigma": float}
_PREDICTION_LABELS = (("station_ids", "station"), ("init_times", "init"), ("strategies", "strategy"))


def ensemble_stats(members) -> tuple:
    """Mean and population standard deviation (divide by m) along the last
    axis: of one ensemble's members, or of each row of a member matrix.

    numpy reduces each row of a C-ordered matrix as it reduces a vector, so
    the row statistics equal those of each ensemble alone, bit for bit
    (tests/test_domain.py, 1-200 members).
    """
    members = np.asarray(members, dtype=float)
    if members.shape[-1] == 0:
        raise ValueError("cannot compute statistics of an empty ensemble")
    return members.mean(axis=-1), members.std(axis=-1)  # population estimator, ddof=0


def align(forecasts: Sequence[ForecastCube], obs: ObservationSeries, lead_time: int) -> tuple[SampleTable, int]:
    """Pair the ensembles of ``obs``'s station at ``lead_time`` with the
    observations at their valid times.

    One sample is produced per init time for which the observation at
    init + lead exists (and is not missing) and every cube has an ensemble at
    that (init, lead). Incomplete init times are dropped silently. Raises
    ValueError when no cube has forecasts for the station.

    Returns
    -------
    (table, n_dropped)
        The samples, one column per cube in the given order, and the count of
        init times dropped for missing data.
    """
    if not any(obs.station_id in cube.station_ids for cube in forecasts):
        raise ValueError(f"no forecasts for the observations' station {obs.station_id!r}")
    rows = [cube.rows(obs.station_id, lead_time) for cube in forecasts]
    inits = [cube._init_micros[cube.init[r]] for cube, r in zip(forecasts, rows)]  # sorted, distinct
    # np.unique without a return_* argument would import numpy.ma (numpy 2.4).
    common = reduce(partial(np.intersect1d, assume_unique=True), inits)
    y = obs.values_at(common + lead_time * _HOUR)
    at = np.flatnonzero(~np.isnan(y))
    picked = [r[np.searchsorted(times, common[at])] for r, times in zip(rows, inits)]
    table = SampleTable(
        models=tuple(cube.model_id for cube in forecasts),
        init_days=forecasts[0].init_days[forecasts[0].init[picked[0]]],
        mean=np.column_stack([cube.mean[p] for cube, p in zip(forecasts, picked)]),
        std=np.column_stack([cube.std[p] for cube, p in zip(forecasts, picked)]),
        observation=y[at],
    )
    return table, len(set(np.concatenate(inits).tolist())) - len(at)
