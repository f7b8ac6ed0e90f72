"""Core record types shared by all stages: stations, forecast cubes (one per
model, iterable as ``EnsembleForecast`` records), observations, training
tables and Gaussian predictive distributions. ``align`` pairs cubes with the
observations of one station at one lead into a ``SampleTable``.

All records are immutable after construction, arrays included, and every
operation here is a pure function, so everything in this module is safe to
share across threads. Timestamps are whole hours, UTC; no time-zone logic
lives in the core.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property, partial, reduce

import numpy as np

__all__ = [
    "StationMetadata",
    "ForecastCube",
    "EnsembleForecast",
    "ObservationSeries",
    "SampleTable",
    "GaussianPredictive",
    "ensemble_stats",
    "align",
]

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_HOUR = 3_600_000_000  # microseconds


def _micros(times) -> np.ndarray:
    """Microseconds since 1970 of each time, naive ones taken as UTC: exact
    integer keys for array lookups."""
    utc = (t.replace(tzinfo=t.tzinfo or timezone.utc) for t in times)
    return np.array([(t - _EPOCH) // timedelta(microseconds=1) for t in utc], dtype=np.int64)


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

    def keys(self) -> list[tuple[str, datetime, int]]:
        """(station id, init time, lead) of each ensemble, in order."""
        stations = [self.station_ids[s] for s in self.station.tolist()]
        return list(zip(stations, [self.init_times[t] for t in self.init.tolist()], self.lead.tolist()))

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


@dataclass(frozen=True)
class ObservationSeries:
    """Hourly 2-m temperature observations for one station.

    ``values`` may contain NaN entries marking explicitly missing
    observations; timestamps must be strictly increasing.
    """

    station_id: str
    timestamps: tuple[datetime, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must have equal length")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def as_mapping(self) -> dict[datetime, float]:
        """Timestamp -> value for the non-missing entries."""
        return {t: v for t, v in zip(self.timestamps, self.values) if not math.isnan(v)}

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Times (``_micros``) and values of the non-missing entries, in time order."""
        values = np.array(self.values, dtype=float)
        present = ~np.isnan(values)
        return _micros(self.timestamps)[present], values[present]


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
    obs_times, obs_values = obs._lookup
    common = reduce(partial(np.intersect1d, assume_unique=True), inits)  # np.unique would import numpy.ma
    _, at, found = np.intersect1d(common + lead_time * _HOUR, obs_times, assume_unique=True, return_indices=True)
    picked = [r[np.searchsorted(times, common[at])] for r, times in zip(rows, inits)]
    table = SampleTable(
        models=tuple(cube.model_id for cube in forecasts),
        init_days=forecasts[0].init_days[forecasts[0].init[picked[0]]],
        mean=np.column_stack([cube.mean[p] for cube, p in zip(forecasts, picked)]),
        std=np.column_stack([cube.std[p] for cube, p in zip(forecasts, picked)]),
        observation=obs_values[found],
    )
    return table, len(set(np.concatenate(inits).tolist())) - len(at)
