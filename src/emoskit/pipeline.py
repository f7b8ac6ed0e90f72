"""Rolling-archive coefficient estimation and application.

Coefficients are refit once per issue date, separately for every (station,
lead time, strategy) key, on the trailing window of aligned
forecast-observation pairs. Keys without enough window samples fall back to
the most recent stored coefficients (up to 10 days old) and finally to
pass-through identity coefficients. Fits and fallbacks alike are stored as
``emos.FitResult`` records, the fallbacks flagged ``fallback``. Each
``fit_for_issue`` call fits an issue date's keys, with t1 taper refits of
earlier dates under their bounds, in one batched ``emos`` solve per number
of predictors K; ``train`` makes one call per date. A fit that does not
converge is recorded with its best-so-far coefficients; any other failure
aborts the pass.

The drivers run the whole chain over many issue dates on one
``domain.ForecastCube`` per model: ``prepare_forecasts`` (lapse correction
and lead interpolation of a loaded cube), ``coefficient_slots`` (the keys to
fit, from each model's ``lead_coverage``), ``train`` (the rolling fits, with
the t1 taper refits) and ``predict_issues`` (the per-date predictions).
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta
from functools import cache

import numpy as np

from .domain import ForecastCube, GaussianPredictive, SampleTable, StationMetadata, align
from .emos import FitOptions, FitResult, FitTask, fit_batch, identity, predict
from .synth import interpolate_leads
from .terrain import lapse_correct
from .transition import TransitionSpec, transition1_bounds

__all__ = [
    "RollingWindowSpec",
    "CoefficientKey",
    "CoefficientStore",
    "PredictionOutcome",
    "single_strategy",
    "mixed_strategy",
    "parse_strategy",
    "select_window",
    "fit_for_issue",
    "predict_for_issue",
    "build_archive",
    "prepare_forecasts",
    "grid_elevations",
    "lead_coverage",
    "coefficient_slots",
    "train",
    "predict_issues",
]

# How far back stale coefficients may be reused before the identity fallback.
REUSE_WINDOW_DAYS = 10


@dataclass(frozen=True)
class RollingWindowSpec:
    """Training window: past ``window_days`` init dates before the issue date."""

    window_days: int = 45
    min_samples: int = 30

    def __post_init__(self):
        if not 1 <= self.min_samples <= self.window_days:
            raise ValueError("need 1 <= min_samples <= window_days")


def single_strategy(model_id: str) -> str:
    return f"single:{model_id}"


def mixed_strategy(model_id1: str, model_id2: str) -> str:
    return f"mixed:{model_id1}+{model_id2}"


@cache
def parse_strategy(strategy: str) -> tuple[str, tuple[str, ...]]:
    """Split a strategy label into its kind and model ids.

    Recognized forms: ``raw:<model>``, ``single:<model>``,
    ``mixed:<model1>+<model2>``. Cached per label; a malformed label raises each time.
    """
    kind, _, rest = strategy.partition(":")
    if kind == "raw" and rest:
        return "raw", (rest,)
    if kind == "single" and rest:
        return "single", (rest,)
    if kind == "mixed":
        models = tuple(rest.split("+"))
        if len(models) == 2 and all(models):
            return "mixed", models
    raise ValueError(f"malformed strategy {strategy!r}")


@dataclass(frozen=True)
class CoefficientKey:
    station_id: str
    lead_time: int
    strategy: str
    issue_date: date

    def __post_init__(self):
        if self.lead_time < 0:
            raise ValueError("lead_time must be >= 0")
        parse_strategy(self.strategy)

    def sort_key(self):
        return (self.issue_date, self.station_id, self.lead_time, self.strategy)


class CoefficientStore:
    """In-memory map of CoefficientKey -> FitResult with history lookups."""

    def __init__(self, records: dict[CoefficientKey, FitResult] | None = None):
        self._records: dict[CoefficientKey, FitResult] = dict(records or {})

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: CoefficientKey) -> bool:
        return key in self._records

    def get(self, key: CoefficientKey) -> FitResult | None:
        return self._records.get(key)

    def put(self, key: CoefficientKey, record: FitResult) -> None:
        self._records[key] = record

    def update(self, updates: dict[CoefficientKey, FitResult]) -> None:
        self._records.update(updates)

    def items(self):
        return sorted(self._records.items(), key=lambda kv: kv[0].sort_key())

    def latest_before(
        self, station_id: str, lead_time: int, strategy: str, issue_date: date, max_age_days: int
    ) -> FitResult | None:
        """Most recent record for the same slot within ``max_age_days`` before
        ``issue_date``."""
        for age in range(1, max_age_days + 1):
            key = CoefficientKey(station_id, lead_time, strategy, issue_date - timedelta(days=age))
            record = self._records.get(key)
            if record is not None:
                return record
        return None


def select_window(table: SampleTable, issue_date: date, spec: RollingWindowSpec) -> SampleTable:
    """The rows whose init dates fall in [issue - window_days, issue - 1].

    The issue date itself is excluded, so a fit can never see data that
    would only become known on the day it is issued.
    """
    issue = issue_date.toordinal()
    lo, hi = table.init_days.searchsorted([issue - spec.window_days, issue])
    return table[lo:hi]


Archive = dict[tuple[str, int], SampleTable]


def build_archive(
    forecasts_by_model: Mapping[str, ForecastCube],
    observations,
    lead_times,
) -> tuple[Archive, int]:
    """Align forecasts and observations into per-(station, lead) sample tables.

    For each lead time, alignment requires every model that provides any
    forecast at that lead; models whose horizon ends earlier simply drop out
    of the samples at longer leads. Returns the archive and the total number
    of dropped (incomplete) init times.
    """
    cubes = [forecasts_by_model[m] for m in sorted(forecasts_by_model)]
    leads_of = [set(cube.lead.tolist()) for cube in cubes]
    covered = set().union(*(cube.station_ids for cube in cubes))
    archive: Archive = {}
    total_dropped = 0
    for station_id in sorted(covered.intersection(observations)):
        for lead in lead_times:
            at_lead = [cube for cube, leads in zip(cubes, leads_of) if lead in leads]
            if not at_lead:
                continue
            table, dropped = align(at_lead, observations[station_id], lead)
            total_dropped += dropped
            if len(table):
                archive[(station_id, lead)] = table
    return archive, total_dropped


def _identity_record(strategy: str, n_samples: int) -> FitResult:
    coef = identity(len(parse_strategy(strategy)[1]))
    return FitResult(coef, objective=float("nan"), converged=True, n_iterations=0, n_samples=n_samples, fallback=True)


def fit_for_issue(
    archive: Archive,
    issue_date: date,
    keys: list[CoefficientKey],
    spec: RollingWindowSpec = RollingWindowSpec(),
    options: FitOptions = FitOptions(),
    store: CoefficientStore | None = None,
    bounds: dict[CoefficientKey, tuple[float, float]] | None = None,
) -> dict[CoefficientKey, FitResult]:
    """Compute store updates for one issue date: its ``keys``, and the keys of
    ``bounds``, which map keys of this or earlier dates to (b1_max, d1_max)
    upper bounds, as the t1 taper refits need. A key in both is fitted once,
    each key on the window of its own date.

    The keys are fitted in one batched solve per number of predictors K, in
    increasing K: the single-model keys first, then the combined keys, each
    seeded from the single-model fits of its slot and date (fitted in this
    call or already in ``store``). Keys whose window has fewer than
    ``spec.min_samples`` samples, or lacks one of the key's models, fall back
    to stale or identity coefficients; any other error propagates.

    ``store`` supplies warm starts, single-model fits and the history of the
    stale-coefficient fallback; it is not modified (merge the returned
    updates yourself).
    """
    for key in keys:
        if key.issue_date != issue_date:
            raise ValueError(f"key {key} does not belong to issue date {issue_date}")
    bounds = bounds or {}
    for key in bounds:
        if key.issue_date > issue_date:
            raise ValueError(f"bounds key {key} is dated after issue date {issue_date}")
    store = CoefficientStore() if store is None else store
    windows: dict[tuple[str, int, date], SampleTable | None] = {}
    updates: dict[CoefficientKey, FitResult] = {}
    to_fit: dict[int, list[CoefficientKey]] = {}
    for key in dict.fromkeys([*keys, *bounds]):
        kind, models = parse_strategy(key.strategy)
        if kind == "raw":
            raise ValueError(f"raw strategy {key.strategy!r} takes no coefficients")
        slot, where = (key.station_id, key.lead_time), (key.station_id, key.lead_time, key.issue_date)
        if where not in windows:
            windows[where] = select_window(archive[slot], key.issue_date, spec) if slot in archive else None
        window = windows[where]
        n_samples = len(window) if window else 0
        if n_samples < spec.min_samples or not set(models) <= set(window.models):
            prior = store.latest_before(key.station_id, key.lead_time, key.strategy, key.issue_date, REUSE_WINDOW_DAYS)
            if prior is not None:
                updates[key] = replace(prior, n_iterations=0, n_samples=n_samples, fallback=True)
            else:
                updates[key] = _identity_record(key.strategy, n_samples)
        else:
            to_fit.setdefault(len(models), []).append(key)

    for k in sorted(to_fit):
        tasks = []
        for key in to_fit[k]:
            models = parse_strategy(key.strategy)[1]
            # Yesterday's coefficients are an excellent starting point on a
            # rolling window that shifts by one day.
            prior = store.latest_before(key.station_id, key.lead_time, key.strategy, key.issue_date, 5)
            hints = None
            if k > 1:  # the single-model fits of the slot and date: this call's, else the store's
                singles = [replace(key, strategy=single_strategy(m)) for m in models]
                hints = [updates.get(s) or store.get(s) for s in singles]
            tasks.append(
                FitTask(
                    windows[(key.station_id, key.lead_time, key.issue_date)],
                    models,
                    start=None if prior is None else prior.coefficients,
                    single_fits=tuple(hints) if hints and all(h and not h.fallback for h in hints) else None,
                    bounds=bounds.get(key),
                )
            )
        updates.update(zip(to_fit[k], fit_batch(tasks, options)))
    return updates


@dataclass(frozen=True)
class PredictionOutcome:
    """Predictions and per-key errors, keyed by (station, lead, strategy),
    and the init time of each station's forecasts on the issue date."""

    predictions: dict[tuple[str, int, str], GaussianPredictive]
    errors: dict[tuple[str, int, str], str] = field(default_factory=dict)
    init_times: dict[str, datetime] = field(default_factory=dict)


def predict_for_issue(
    store: CoefficientStore,
    forecasts: Mapping[str, ForecastCube],
    issue_date: date,
    keys: list[CoefficientKey],
    min_sigma: float = 1e-3,
) -> PredictionOutcome:
    """Apply stored coefficients to the ensembles initialized on the issue
    date, by their means and spreads.

    Missing coefficients or missing forecasts produce per-key error entries;
    all other keys are unaffected. Predictions are keyed by station, lead and
    strategy, so a station with forecasts from more than one init time on
    the issue date is rejected with ValueError.
    """
    stats: dict[tuple[str, str, int], tuple[float, float]] = {}
    init_times: dict[str, set[datetime]] = {}
    for cube in forecasts.values():
        rows = np.flatnonzero(cube.init_days[cube.init] == issue_date.toordinal())
        columns = (a[rows].tolist() for a in (cube.station, cube.init, cube.lead, cube.mean, cube.std))
        for s, t, lead, mean, std in zip(*columns):
            init_times.setdefault(cube.station_ids[s], set()).add(cube.init_times[t])
            stats[(cube.station_ids[s], cube.model_id, lead)] = (mean, std)
    for station_id, times in sorted(init_times.items()):
        if len(times) > 1:
            listed = ", ".join(t.strftime("%H:%M") for t in sorted(times))
            raise ValueError(
                f"station {station_id} has forecasts from {len(times)} init times on {issue_date} ({listed}); "
                "only one run per day is supported"
            )

    predictions: dict[tuple[str, int, str], GaussianPredictive] = {}
    errors: dict[tuple[str, int, str], str] = {}
    for key in keys:
        out_key = (key.station_id, key.lead_time, key.strategy)
        record = store.get(key)
        if record is None:
            errors[out_key] = f"no coefficients stored for {key}"
            continue
        models = parse_strategy(key.strategy)[1]
        missing = [m for m in models if (key.station_id, m, key.lead_time) not in stats]
        if missing:
            errors[out_key] = f"no forecast for model {missing[0]!r} at {key.station_id} lead {key.lead_time}"
            continue
        mean, std = zip(*(stats[(key.station_id, m, key.lead_time)] for m in models))
        predictions[out_key] = predict(record.coefficients, mean, std, min_sigma=min_sigma)
    return PredictionOutcome(predictions, errors, {sid: next(iter(times)) for sid, times in init_times.items()})


# ---------------------------------------------------------------------------
# Drivers over many issue dates
# ---------------------------------------------------------------------------


def prepare_forecasts(
    forecasts: ForecastCube, stations: Sequence[StationMetadata], coarse_step: int | None
) -> ForecastCube:
    """Lapse-correct one model's members from its grid-point elevation to the
    station elevation, one add per station and member matrix, then fill a
    coarse lead grid of native step ``coarse_step`` hourly by linear
    interpolation (None: no interpolation).

    A station missing from ``stations``, or without a grid elevation for the
    model, raises ValueError (``grid_elevations``).
    """
    model = forecasts.model_id
    elevations = grid_elevations(model, forecasts.station_ids, stations)
    members = []
    for j, matrix in enumerate(forecasts.members):
        codes = forecasts.station[forecasts.block == j]  # sorted, as the rows are in ensemble order
        members.append(np.concatenate([lapse_correct(matrix[codes == code], *elevation)
                                       for code, elevation in enumerate(elevations)]))
    corrected = ForecastCube(model, forecasts.station_ids, forecasts.init_times, forecasts.station, forecasts.init,
                             forecasts.lead, forecasts.block, members)
    return corrected if coarse_step is None else interpolate_leads(corrected, source_step=coarse_step)


def grid_elevations(model_id: str, station_ids, stations: Sequence[StationMetadata]) -> list[tuple[float, float]]:
    """(grid-point elevation of the model, station elevation) of each station
    id, in order. The first id missing from ``stations``, or without a grid
    elevation for the model, raises ValueError."""
    by_station = {s.station_id: s for s in stations}
    elevations = []
    for sid in station_ids:
        station = by_station.get(sid)
        if station is None:
            raise ValueError(f"{model_id} forecasts: unknown station {sid!r}")
        if model_id not in station.grid_elevation:
            raise ValueError(f"station {sid} has no grid elevation for model {model_id!r} (column grid_elev_{model_id})")
        elevations.append((station.grid_elevation[model_id], station.elevation))
    return elevations


def lead_coverage(lead_grids, coarse_step: int | None) -> set[int]:
    """The leads ``prepare_forecasts`` leaves in a cube whose (station, init
    time) runs have these lead grids (sorted lead tuples): the grids' leads,
    and with a ``coarse_step`` every hour from a run's first lead to its last,
    which interpolation fills (or raises)."""
    if coarse_step is None:
        return {lead for grid in lead_grids for lead in grid}
    return {lead for grid in lead_grids for lead in range(grid[0], grid[-1] + 1)}


Slot = tuple[str, int, str]  # (station, lead, strategy): a CoefficientKey without its issue date


def coefficient_slots(coverage: Mapping[str, Collection[int]], station_ids, leads, strategies) -> list[Slot]:
    """Every station x lead x coefficient strategy (``raw:`` ones are left
    out) whose models all have forecasts at the lead, in that nesting order
    with stations sorted. ``coverage`` maps each model to the leads it has
    forecasts at."""
    fitted = []
    for strategy in strategies:
        kind, models = parse_strategy(strategy)
        if kind != "raw":
            fitted.append((strategy, models))
    return [
        (sid, lead, strategy)
        for sid in sorted(station_ids)
        for lead in leads
        for strategy, models in fitted
        if all(lead in coverage.get(m, ()) for m in models)
    ]


def train(
    archive: Archive,
    issue_dates: Sequence[date],
    slots: Sequence[Slot],
    spec: RollingWindowSpec = RollingWindowSpec(),
    options: FitOptions = FitOptions(),
    taper: tuple[TransitionSpec, str] | None = None,
) -> CoefficientStore:
    """Fit every slot on every issue date, in date order, into a new store;
    each date warm-starts from the fits of the dates before it.

    ``taper`` = (spec, combined strategy) selects the t1 scheme: the combined
    strategy's slots at the taper leads are left out of each date's own
    solves and refit under the upper bounds that ``transition1_bounds``
    derives from that date's fit at the anchor lead. No later date reads
    those refits, so they ride in the next date's ``fit_for_issue`` call (a
    wave: one solve per K over that date's keys and the previous date's
    taper keys), and the last date's run alone at the end. Slots without the anchor or taper
    leads, or a station without an anchor fit, raise ValueError.
    """
    store = CoefficientStore()
    tapered: list[Slot] = []
    if taper is not None:
        tspec, combined = taper
        present = {lead for _, lead, _ in slots}
        missing = [t for t in (tspec.anchor_lead, *tspec.taper_leads) if t not in present]
        if missing:
            raise ValueError(f"transition t1 needs leads {missing} in the configured lead set")
        tapered = [slot for slot in slots if slot[2] == combined and slot[1] in tspec.taper_leads]
        stations = sorted({sid for sid, _, _ in slots})
    taper_set = set(tapered)
    plain = [slot for slot in slots if slot not in taper_set]
    bounds: dict[CoefficientKey, tuple[float, float]] = {}  # the previous date's taper refits
    for issue in issue_dates:
        keys = [CoefficientKey(sid, lead, strategy, issue) for sid, lead, strategy in plain]
        store.update(fit_for_issue(archive, issue, keys, spec, options, store, bounds))
        if taper is None:
            continue
        station_bounds = {}
        for sid in stations:
            anchor = store.get(CoefficientKey(sid, tspec.anchor_lead, combined, issue))
            if anchor is None:
                raise ValueError(f"no anchor coefficients at lead {tspec.anchor_lead} for {sid} {issue}")
            station_bounds[sid] = transition1_bounds(anchor.coefficients, tspec)
        bounds = {CoefficientKey(sid, lead, s, issue): station_bounds[sid][lead] for sid, lead, s in tapered}
    if bounds:
        store.update(fit_for_issue(archive, issue_dates[-1], [], spec, options, store, bounds))
    return store


def predict_issues(
    store: CoefficientStore,
    forecasts_by_model: Mapping[str, ForecastCube],
    issue_dates: Sequence[date],
    slots: Sequence[Slot],
    min_sigma: float = 1e-3,
) -> tuple[dict[tuple[str, datetime, int, str], GaussianPredictive], list[str]]:
    """Apply stored coefficients to the forecasts of each issue date.

    Returns the predictions, keyed by (station, the station's init time,
    lead, strategy), and the per-key error messages of ``predict_for_issue``
    in date and key order. Dates without forecasts are skipped.
    """
    predictions: dict[tuple[str, datetime, int, str], GaussianPredictive] = {}
    errors: list[str] = []
    for issue in issue_dates:
        keys = [CoefficientKey(sid, lead, strategy, issue) for sid, lead, strategy in slots]
        outcome = predict_for_issue(store, forecasts_by_model, issue, keys, min_sigma=min_sigma)
        if not outcome.init_times:
            continue
        for (sid, lead, strategy), pred in outcome.predictions.items():
            predictions[(sid, outcome.init_times[sid], lead, strategy)] = pred
        errors += [message for _, message in sorted(outcome.errors.items())]
    return predictions, errors
