"""Core record types shared by all stages: stations, ensembles, observations,
training tables and Gaussian predictive distributions.

All records are immutable after construction and every operation here is a
pure function, so everything in this module is safe to share across threads.
Timestamps are whole hours, UTC; no time-zone logic lives in the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

__all__ = [
    "StationMetadata",
    "EnsembleForecast",
    "EnsembleStats",
    "ObservationSeries",
    "SampleTable",
    "GaussianPredictive",
    "ensemble_stats",
    "align",
]


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
    """Member temperatures (deg C) of one model run for one station/init/lead."""

    station_id: str
    model_id: str
    init_time: datetime
    lead_time: int
    members: tuple[float, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("forecast must have at least one member")
        if self.lead_time < 0:
            raise ValueError(f"lead_time must be >= 0, got {self.lead_time}")
        if not all(math.isfinite(v) for v in self.members):
            raise ValueError("all member values must be finite")
        object.__setattr__(self, "members", tuple(float(v) for v in self.members))

    @property
    def valid_time(self) -> datetime:
        return self.init_time + timedelta(hours=self.lead_time)


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble mean and population standard deviation (deg C)."""

    mean: float
    std: float
    member_count: int

    def __post_init__(self):
        if self.std < 0.0:
            raise ValueError("std must be >= 0")


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
            array = np.asarray(getattr(self, name), dtype=dtype)
            if array.flags.writeable:
                array = array.copy()
                array.flags.writeable = False
            object.__setattr__(self, name, array)
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
        return SampleTable(self.models, self.init_days[rows], self.mean[rows], self.std[rows], self.observation[rows])


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


def ensemble_stats(forecast: EnsembleForecast) -> EnsembleStats:
    """Mean and population standard deviation (divide by m) of the members."""
    members = np.asarray(forecast.members, dtype=float)
    if members.size == 0:
        raise ValueError("cannot compute statistics of an empty ensemble")
    return EnsembleStats(
        mean=float(members.mean()),
        std=float(members.std()),  # population estimator, ddof=0
        member_count=members.size,
    )


def align(
    forecasts: list[EnsembleForecast],
    obs: ObservationSeries,
    lead_time: int,
    model_ids: list[str] | None = None,
) -> tuple[SampleTable, int]:
    """Pair forecasts at ``lead_time`` with observations at the valid time.

    One sample is produced per init time for which the observation at
    init + lead exists (and is not missing) and every requested model has a
    forecast at that (init, lead). Incomplete tuples are dropped silently;
    the second return value is the number of dropped init times.

    Returns
    -------
    (table, n_dropped)
        The samples, columns in ``model_ids`` order (default: all models,
        sorted), and the count of init times dropped for missing data.
    """
    by_init: dict[datetime, dict[str, EnsembleForecast]] = {}
    for fc in forecasts:
        if fc.station_id != obs.station_id:
            raise ValueError(
                f"forecast station {fc.station_id!r} does not match observations station {obs.station_id!r}"
            )
        if fc.lead_time != lead_time:
            continue
        by_init.setdefault(fc.init_time, {})[fc.model_id] = fc

    if model_ids is None:
        model_ids = sorted({fc.model_id for fc in forecasts})
    obs_map = obs.as_mapping()

    kept: list[tuple[datetime, dict[str, EnsembleForecast], float]] = []
    for init_time in sorted(by_init):
        group = by_init[init_time]
        y = obs_map.get(init_time + timedelta(hours=lead_time))
        if y is not None and all(m in group for m in model_ids):
            kept.append((init_time, group, y))
    mean = np.empty((len(kept), len(model_ids)))
    std = np.empty_like(mean)
    for k, m in enumerate(model_ids):
        by_size: dict[int, list[int]] = {}
        for i, (_, group, _) in enumerate(kept):
            by_size.setdefault(len(group[m].members), []).append(i)
        for rows in by_size.values():
            # numpy sums each row of a C-ordered matrix as it sums a vector, so these
            # equal ensemble_stats bit for bit (tests/test_domain.py, 1-200 members).
            matrix = np.array([kept[i][1][m].members for i in rows], dtype=float)
            mean[rows, k] = matrix.mean(axis=1)
            std[rows, k] = matrix.std(axis=1)  # population estimator, ddof=0
    days = [init_time.date().toordinal() for init_time, _, _ in kept]
    return SampleTable(tuple(model_ids), days, mean, std, [y for _, _, y in kept]), len(by_init) - len(kept)
