"""Synthetic two-model ensemble scenarios with a controllable error structure.

The generator produces an hourly "truth" series per station (seasonal +
diurnal sinusoids + AR(1) noise) and, per model, ensemble forecasts whose
members carry

  * an hour-of-day bias curve, modulated run-to-run so that a model's
    systematic error also contributes day-to-day error variance,
  * a shared forecast error that grows with lead time and is correlated
    across lead hours within one run,
  * member-specific noise scaled by a dispersion factor (< 1 produces the
    underdispersive spread typical of raw ensembles), and
  * a constant temperature offset from the model grid-point elevation
    mismatch, exactly removable by the lapse-rate correction.

The default model pair mimics a high-resolution short-range ensemble
("hires": hourly, 21 members, 120 h horizon, day-peaked bias, strongly
underdispersive) combined with a coarser global one ("global": 3-hourly
beyond 90 h, 51 members, 150 h horizon, cold night bias, milder
underdispersion). All draws derive from one seed through per-station,
per-model substreams, so scenarios are fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .domain import _HOUR, ForecastCube, ObservationSeries, StationMetadata, _micros
from .terrain import LAPSE_RATE_C_PER_100M

__all__ = [
    "TruthSpec",
    "ModelErrorSpec",
    "ScenarioSpec",
    "ScenarioData",
    "default_models",
    "generate_stations",
    "generate_truth",
    "generate_model_ensemble",
    "generate_scenario",
    "interpolate_leads",
]


@dataclass(frozen=True)
class TruthSpec:
    """Parameters of the simulated 2-m temperature process."""

    level: float = 8.0
    diurnal_amplitude: float = 5.0
    seasonal_amplitude: float = 8.0
    ar1_coefficient: float = 0.85
    innovation_std: float = 0.9

    def __post_init__(self):
        if not -1.0 < self.ar1_coefficient < 1.0:
            raise ValueError("AR(1) coefficient must lie in (-1, 1)")
        if self.innovation_std < 0.0:
            raise ValueError("innovation_std must be >= 0")


@dataclass(frozen=True)
class ModelErrorSpec:
    """Error structure of one synthetic NWP ensemble."""

    member_count: int = 21
    horizon: int = 120
    bias_amplitude: float = 0.0
    bias_peak_hour: int = 12
    bias_variability: float = 0.45
    error_base_std: float = 0.5
    error_growth_per_hour: float = 0.004
    error_lead_correlation: float = 0.98
    dispersion: float = 1.0
    coarse_after: int | None = None
    coarse_step: int = 3
    elevation_offset_std: float = 150.0

    def __post_init__(self):
        if self.member_count < 2:
            raise ValueError("member_count must be >= 2")
        if self.dispersion <= 0.0:
            raise ValueError("dispersion factor must be > 0")
        if not 0.0 <= self.error_lead_correlation < 1.0:
            raise ValueError("error_lead_correlation must lie in [0, 1)")

    def bias(self, hour: int) -> float:
        """Hour-of-day bias: a cosine bump peaking at bias_peak_hour."""
        return self.bias_amplitude * 0.5 * (1.0 + math.cos(2.0 * math.pi * (hour - self.bias_peak_hour) / 24.0))

    def error_std(self, lead: int) -> float:
        return self.error_base_std + self.error_growth_per_hour * lead

    def native_leads(self, lo: int, hi: int) -> list[int]:
        """Native lead grid intersected with [lo, hi], clipped to the horizon."""
        hi = min(hi, self.horizon)
        leads = []
        t = 0
        while t <= hi:
            if t >= lo:
                leads.append(t)
            if self.coarse_after is not None and t >= self.coarse_after:
                t += self.coarse_step
            else:
                t += 1
        return leads


def default_models() -> dict[str, ModelErrorSpec]:
    return {
        "hires": ModelErrorSpec(
            member_count=21,
            horizon=120,
            bias_amplitude=1.6,
            bias_peak_hour=13,
            bias_variability=0.45,
            error_base_std=0.5,
            error_growth_per_hour=0.004,
            dispersion=0.35,
            coarse_after=None,
            elevation_offset_std=120.0,
        ),
        "global": ModelErrorSpec(
            member_count=51,
            horizon=150,
            bias_amplitude=-2.2,
            bias_peak_hour=1,
            bias_variability=0.45,
            error_base_std=0.55,
            error_growth_per_hour=0.005,
            dispersion=0.55,
            coarse_after=90,
            coarse_step=3,
            elevation_offset_std=400.0,
        ),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """Full configuration of one synthetic scenario."""

    seed: int = 0
    n_stations: int = 10
    n_days: int = 100
    lead_hours: tuple[int, ...] = tuple(range(0, 127))
    start: datetime = datetime(2017, 1, 1, tzinfo=timezone.utc)
    truth: TruthSpec = field(default_factory=TruthSpec)
    models: dict[str, ModelErrorSpec] = field(default_factory=default_models)

    def __post_init__(self):
        if self.n_stations < 1 or self.n_days < 1:
            raise ValueError("need at least one station and one day")
        if not self.lead_hours:
            raise ValueError("lead_hours must be non-empty")
        if any(lh < 0 for lh in self.lead_hours):
            raise ValueError("lead hours must be >= 0")
        object.__setattr__(self, "lead_hours", tuple(sorted(set(int(h) for h in self.lead_hours))))

    @property
    def init_times(self) -> list[datetime]:
        return [self.start + timedelta(days=d) for d in range(self.n_days)]


@dataclass(frozen=True)
class ScenarioData:
    stations: list[StationMetadata]
    observations: dict[str, ObservationSeries]
    forecasts: dict[str, ForecastCube]


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def generate_stations(spec: ScenarioSpec) -> list[StationMetadata]:
    """Deterministic station set: Alpine-like box, elevations 300-2800 m,
    per-model grid elevations offset by the model's mismatch scale."""
    rng = _substream(spec.seed, 0)
    stations = []
    model_ids = sorted(spec.models)
    for i in range(spec.n_stations):
        lat = 45.9 + 1.8 * rng.random()
        lon = 6.0 + 4.5 * rng.random()
        elev = 300.0 + 2500.0 * rng.random()
        grid_elev = {}
        for m in model_ids:
            grid_elev[m] = elev + spec.models[m].elevation_offset_std * rng.standard_normal()
        stations.append(
            StationMetadata(
                station_id=f"S{i:03d}",
                latitude=round(lat, 6),
                longitude=round(lon, 6),
                elevation=round(elev, 2),
                grid_elevation={m: round(v, 2) for m, v in grid_elev.items()},
            )
        )
    return stations


def _truth_hours(spec: ScenarioSpec) -> int:
    max_lead = max(max(spec.lead_hours), max(m.horizon for m in spec.models.values()))
    return (spec.n_days - 1) * 24 + max_lead + 1


def generate_truth(spec: ScenarioSpec) -> dict[str, ObservationSeries]:
    """Hourly truth series per station: level + seasonal and diurnal
    sinusoids + stationary AR(1) noise. Station streams use distinct
    sub-seeds and are mutually independent."""
    n_hours = _truth_hours(spec)
    hours = np.arange(n_hours)
    t0 = spec.start
    hour_of_day = (hours + t0.hour) % 24
    base = (
        spec.truth.level
        + spec.truth.seasonal_amplitude * np.sin(2.0 * math.pi * hours / (24.0 * 365.25))
        + spec.truth.diurnal_amplitude * np.sin(2.0 * math.pi * (hour_of_day - 9) / 24.0)
    )
    times = _micros([t0]) + _HOUR * hours

    out = {}
    rho = spec.truth.ar1_coefficient
    innov_scale = spec.truth.innovation_std
    for i in range(spec.n_stations):
        sid = f"S{i:03d}"
        rng = _substream(spec.seed, 1, i)
        noise = np.empty(n_hours)
        stationary_std = innov_scale / math.sqrt(1.0 - rho * rho) if innov_scale > 0 else 0.0
        noise[0] = stationary_std * rng.standard_normal()
        innovations = innov_scale * rng.standard_normal(n_hours - 1)
        for t in range(1, n_hours):
            noise[t] = rho * noise[t - 1] + innovations[t - 1]
        out[sid] = ObservationSeries(station_id=sid, times=times, values=base + noise)
    return out


def generate_model_ensemble(
    spec: ScenarioSpec,
    model_id: str,
    truth: dict[str, ObservationSeries],
    stations: list[StationMetadata] | None = None,
) -> ForecastCube:
    """Ensemble forecasts of one model at its native lead grid.

    Member values are built as truth at the model grid elevation, plus the
    run-modulated hour-of-day bias, plus a lead-correlated shared error, plus
    member noise with standard deviation dispersion * error_std(lead).
    """
    model = spec.models[model_id]
    if stations is None:
        stations = generate_stations(spec)
    by_id = {s.station_id: s for s in stations}
    model_index = sorted(spec.models).index(model_id)
    lo, hi = min(spec.lead_hours), max(spec.lead_hours)
    leads = model.native_leads(max(0, lo - model.coarse_step), hi + model.coarse_step)
    if not leads:
        return ForecastCube(model_id, (), (), [], [], [], [], ())
    rho = model.error_lead_correlation

    valid_times = _micros(spec.init_times)[:, None] + _HOUR * np.array(leads)
    keys, rows = [], []
    for i, sid in enumerate(sorted(truth)):
        truth_at = truth[sid].values_at(valid_times).tolist()  # (init, lead), NaN where missing
        station = by_id[sid]
        elev_offset = -LAPSE_RATE_C_PER_100M / 100.0 * (station.grid_elevation[model_id] - station.elevation)
        rng = _substream(spec.seed, 2, model_index, i)
        for d, init_time in enumerate(spec.init_times):
            eta = 1.0 + model.bias_variability * rng.standard_normal()
            shocks = rng.standard_normal(len(leads))
            member_noise = rng.standard_normal((len(leads), model.member_count))
            shared = np.empty(len(leads))
            prev_lead = None
            for j, lead in enumerate(leads):
                std = model.error_std(lead)
                if prev_lead is None:
                    shared[j] = std * shocks[j]
                else:
                    r = rho ** (lead - prev_lead)
                    prev_std = model.error_std(prev_lead)
                    carry = shared[j - 1] / prev_std if prev_std > 0 else 0.0
                    shared[j] = std * (r * carry + math.sqrt(max(0.0, 1.0 - r * r)) * shocks[j])
                prev_lead = lead
            for j, (lead, truth_val) in enumerate(zip(leads, truth_at[d])):
                if math.isnan(truth_val):
                    continue
                valid = init_time + timedelta(hours=lead)
                center = truth_val + elev_offset + eta * model.bias(valid.hour) + shared[j]
                noise_std = model.dispersion * model.error_std(lead)
                keys.append((i, d, lead))
                rows.append(center + noise_std * member_noise[j])
    station, init, lead = np.array(keys, dtype=np.int64).T
    block = np.zeros_like(lead)  # one member count
    return ForecastCube(model_id, sorted(truth), spec.init_times, station, init, lead, block, [np.array(rows)])


def generate_scenario(spec: ScenarioSpec) -> ScenarioData:
    """Generate stations, truth observations and all models' forecasts."""
    stations = generate_stations(spec)
    truth = generate_truth(spec)
    forecasts = {
        model_id: generate_model_ensemble(spec, model_id, truth, stations)
        for model_id in sorted(spec.models)
    }
    return ScenarioData(stations=stations, observations=truth, forecasts=forecasts)


# Interpolated rows per pass of the fill: the bound of its temporary matrices.
_FILL_ROWS = 512


def interpolate_leads(forecasts: ForecastCube, source_step: int | None = ModelErrorSpec.coarse_step,
                      correct=None) -> ForecastCube:
    """Fill a coarse lead grid hourly by member-wise linear interpolation
    between bracketing leads, (1 - w) * lo + w * hi on each member matrix;
    native leads pass through unchanged (``source_step`` None: none is
    filled). A gap between consecutive source leads larger than
    ``source_step``, or a member count that changes across a gap to fill,
    raises. ``correct(matrix, station)`` may change the native rows of each
    new matrix in place before the fill (``station``: each row's code); the
    matrices are written once, and the cube keeps them read-only."""
    f = forecasts
    same_run = (f.station[1:] == f.station[:-1]) & (f.init[1:] == f.init[:-1]) & (source_step is not None)
    gap = np.where(same_run, f.lead[1:] - f.lead[:-1], 0)
    fill = gap > 1
    bad = np.flatnonzero((gap > (source_step or 0)) | fill & (f.block[1:] != f.block[:-1]))
    if bad.size:
        i = bad[0]
        lo, hi = f.lead[i], f.lead[i + 1]
        if gap[i] <= source_step:
            raise ValueError(f"member count changes between leads {lo} and {hi}")
        raise ValueError(
            f"lead gap {lo}..{hi} exceeds the native step of {source_step} h "
            f"for station {f.station_ids[f.station[i]]} init {f.init_times[f.init[i]]:%Y-%m-%dT%H}"
        )
    if not fill.any() and correct is None:
        return forecasts

    # One new ensemble per interpolated lead, placed after ensemble ``lo``.
    steps = gap[fill] - 1
    lo = np.repeat(np.flatnonzero(fill), steps)
    offset = np.arange(len(lo)) - np.repeat(np.cumsum(steps) - steps, steps) + 1
    w = (offset / gap[lo])[:, None]
    order = np.argsort(np.concatenate([np.arange(len(f)), lo + 0.5]), kind="stable")
    station, init, lead, block = (np.concatenate(pair)[order] for pair in (
        (f.station, f.station[lo]), (f.init, f.init[lo]), (f.lead, f.lead[lo] + offset), (f.block, f.block[lo])))
    row = np.empty_like(order)  # the row of each ensemble, the native ones first, in its new matrix
    members = []
    for j, matrix in enumerate(f.members):
        at = block == j
        row[order[at]] = np.arange(np.count_nonzero(at))
        out = np.zeros((np.count_nonzero(at), matrix.shape[1]))
        out[row[:len(f)][f.block == j]] = matrix
        if correct is not None:
            correct(out, station[at])
        new = np.flatnonzero(f.block[lo] == j)
        for part in (new[i:i + _FILL_ROWS] for i in range(0, len(new), _FILL_ROWS)):
            out[row[len(f) + part]] = (1.0 - w[part]) * out[row[lo[part]]] + w[part] * out[row[lo[part] + 1]]
        out.flags.writeable = False
        members.append(out)
    return ForecastCube(f.model_id, f.station_ids, f.init_times, station, init, lead, block, members)
