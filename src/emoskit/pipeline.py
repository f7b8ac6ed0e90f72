"""Rolling-archive coefficient estimation and application.

Coefficients are refit once per issue date, separately for every (station,
lead time, strategy) key, on the trailing window of aligned
forecast-observation pairs. Keys without enough window samples fall back to
the most recent stored coefficients (up to 10 days old) and finally to
pass-through identity coefficients; fallback records are flagged. The keys
of an issue date are fitted together by the batched solver of ``emos``, one
solve per number of predictors K. A fit that does not converge is recorded
with its best-so-far coefficients; any other failure aborts the pass.

The drivers run the whole chain over many issue dates: ``prepare_forecasts``
(lapse correction and lead interpolation of loaded forecasts),
``coefficient_slots`` (the keys to fit), ``train`` (the rolling fits, with
the t1 taper refits) and ``predict_issues`` (the per-date predictions).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta

from .domain import EnsembleForecast, EnsembleStats, GaussianPredictive, SampleTable, StationMetadata, ensemble_stats
from .emos import EmosCoefficients, FitOptions, FitResult, FitTask, fit_batch, identity, predict
from .synth import interpolate_leads
from .terrain import lapse_correct
from .transition import TransitionSpec, transition1_bounds

__all__ = [
    "RollingWindowSpec",
    "CoefficientKey",
    "StoredFit",
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


def parse_strategy(strategy: str) -> tuple[str, tuple[str, ...]]:
    """Split a strategy label into its kind and model ids.

    Recognized forms: ``raw:<model>``, ``single:<model>``,
    ``mixed:<model1>+<model2>``.
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


@dataclass(frozen=True)
class StoredFit:
    coefficients: EmosCoefficients
    n_samples: int
    objective: float
    converged: bool
    fallback: bool


class CoefficientStore:
    """In-memory map of CoefficientKey -> StoredFit with history lookups."""

    def __init__(self, records: dict[CoefficientKey, StoredFit] | None = None):
        self._records: dict[CoefficientKey, StoredFit] = dict(records or {})

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: CoefficientKey) -> bool:
        return key in self._records

    def get(self, key: CoefficientKey) -> StoredFit | None:
        return self._records.get(key)

    def put(self, key: CoefficientKey, record: StoredFit) -> None:
        self._records[key] = record

    def update(self, updates: dict[CoefficientKey, StoredFit]) -> None:
        self._records.update(updates)

    def items(self):
        return sorted(self._records.items(), key=lambda kv: kv[0].sort_key())

    def latest_before(
        self, station_id: str, lead_time: int, strategy: str, issue_date: date, max_age_days: int
    ) -> StoredFit | None:
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
    forecasts_by_model: dict[str, list[EnsembleForecast]],
    observations,
    lead_times,
) -> tuple[Archive, int]:
    """Align forecasts and observations into per-(station, lead) sample tables.

    For each lead time, alignment requires every model that provides any
    forecast at that lead; models whose horizon ends earlier simply drop out
    of the samples at longer leads. Returns the archive and the total number
    of dropped (incomplete) init times.
    """
    from .domain import align

    # Every forecast of a station at a lead, models in sorted order: the pool
    # ``align`` pairs for that (station, lead).
    pools: dict[tuple[str, int], list[EnsembleForecast]] = {}
    models_at_lead: dict[int, list[str]] = {}
    for model_id in sorted(forecasts_by_model):
        leads = set()
        for fc in forecasts_by_model[model_id]:
            pools.setdefault((fc.station_id, fc.lead_time), []).append(fc)
            leads.add(fc.lead_time)
        for lead in leads:
            models_at_lead.setdefault(lead, []).append(model_id)

    archive: Archive = {}
    total_dropped = 0
    for station_id in sorted(observations):
        obs = observations[station_id]
        for lead in lead_times:
            model_ids = models_at_lead.get(lead)
            if not model_ids:
                continue
            table, dropped = align(pools.get((station_id, lead), []), obs, lead, model_ids=model_ids)
            total_dropped += dropped
            if len(table):
                archive[(station_id, lead)] = table
    return archive, total_dropped


def _identity_record(strategy: str, n_samples: int) -> StoredFit:
    coef = identity(len(parse_strategy(strategy)[1]))
    return StoredFit(coefficients=coef, n_samples=n_samples, objective=float("nan"), converged=True, fallback=True)


def _stored_as_fit(record: StoredFit | None) -> FitResult | None:
    if record is None or record.fallback:
        return None
    return FitResult(record.coefficients, record.objective, record.converged, 0, record.n_samples)


def fit_for_issue(
    archive: Archive,
    issue_date: date,
    keys: list[CoefficientKey],
    spec: RollingWindowSpec = RollingWindowSpec(),
    options: FitOptions = FitOptions(),
    store: CoefficientStore | None = None,
    bounds: dict[CoefficientKey, tuple[float, float]] | None = None,
) -> dict[CoefficientKey, StoredFit]:
    """Compute store updates for one issue date.

    The keys are fitted in one batched solve per number of predictors K, in
    increasing K: the single-model keys first, then the combined keys, each
    seeded from the single-model fits of its slot on this issue date (fitted
    in this call or already in ``store``). Keys whose window has fewer than
    ``spec.min_samples`` samples, or lacks one of the key's models, fall back
    to stale or identity coefficients; any other error propagates.

    ``bounds`` maps keys to (b1_max, d1_max) upper bounds, as the t1 taper
    refits need. ``store`` supplies warm starts, single-model fits and the
    history of the stale-coefficient fallback; it is not modified (merge the
    returned updates yourself).
    """
    if store is None:
        store = CoefficientStore()
    bounds = bounds or {}
    windows: dict[tuple[str, int], SampleTable | None] = {}
    updates: dict[CoefficientKey, StoredFit] = {}
    to_fit: dict[int, list[CoefficientKey]] = {}
    for key in keys:
        if key.issue_date != issue_date:
            raise ValueError(f"key {key} does not belong to issue date {issue_date}")
        kind, models = parse_strategy(key.strategy)
        if kind == "raw":
            raise ValueError(f"raw strategy {key.strategy!r} takes no coefficients")
        slot = (key.station_id, key.lead_time)
        if slot not in windows:
            windows[slot] = select_window(archive[slot], issue_date, spec) if slot in archive else None
        window = windows[slot]
        n_samples = len(window) if window else 0
        if n_samples < spec.min_samples or not set(models) <= set(window.models):
            prior = store.latest_before(key.station_id, key.lead_time, key.strategy, issue_date, REUSE_WINDOW_DAYS)
            if prior is not None:
                updates[key] = replace(prior, n_samples=n_samples, fallback=True)
            else:
                updates[key] = _identity_record(key.strategy, n_samples)
        else:
            to_fit.setdefault(len(models), []).append(key)

    fitted: dict[CoefficientKey, FitResult] = {}
    for k in sorted(to_fit):
        tasks = []
        for key in to_fit[k]:
            models = parse_strategy(key.strategy)[1]
            # Yesterday's coefficients are an excellent starting point on a
            # rolling window that shifts by one day.
            prior = store.latest_before(key.station_id, key.lead_time, key.strategy, issue_date, 5)
            hints = None
            if k > 1:
                hints = []
                for m in models:
                    single_key = replace(key, strategy=single_strategy(m))
                    hints.append(fitted.get(single_key) or _stored_as_fit(store.get(single_key)))
            tasks.append(
                FitTask(
                    windows[(key.station_id, key.lead_time)],
                    models,
                    start=None if prior is None else prior.coefficients,
                    single_fits=None if hints is None or None in hints else tuple(hints),
                    bounds=bounds.get(key),
                )
            )
        fitted.update(zip(to_fit[k], fit_batch(tasks, options)))

    for key, result in fitted.items():
        updates[key] = StoredFit(
            coefficients=result.coefficients,
            n_samples=result.n_samples,
            objective=result.objective,
            converged=result.converged,
            fallback=False,
        )
    return updates


@dataclass(frozen=True)
class PredictionOutcome:
    predictions: dict[tuple[str, int, str], GaussianPredictive]
    errors: dict[tuple[str, int, str], str] = field(default_factory=dict)


def predict_for_issue(
    store: CoefficientStore,
    forecasts: list[EnsembleForecast],
    issue_date: date,
    keys: list[CoefficientKey],
    min_sigma: float = 1e-3,
) -> PredictionOutcome:
    """Apply stored coefficients to the issue date's forecasts.

    Missing coefficients or missing forecasts produce per-key error entries;
    all other keys are unaffected. Predictions are keyed by station, lead and
    strategy, so a station with forecasts from more than one init time on
    the issue date is rejected with ValueError.
    """
    read = {(key.station_id, m, key.lead_time) for key in keys for m in parse_strategy(key.strategy)[1]}
    init_times: dict[str, set] = {}
    stats: dict[tuple[str, str, int], EnsembleStats] = {}
    for fc in forecasts:
        init_times.setdefault(fc.station_id, set()).add(fc.init_time)
        triple = (fc.station_id, fc.model_id, fc.lead_time)
        if triple in read:
            stats[triple] = ensemble_stats(fc)
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
        model_stats = []
        missing = None
        for m in models:
            s = stats.get((key.station_id, m, key.lead_time))
            if s is None:
                missing = m
                break
            model_stats.append(s)
        if missing is not None:
            errors[out_key] = f"no forecast for model {missing!r} at {key.station_id} lead {key.lead_time}"
            continue
        predictions[out_key] = predict(record.coefficients, model_stats, min_sigma=min_sigma)
    return PredictionOutcome(predictions=predictions, errors=errors)


# ---------------------------------------------------------------------------
# Drivers over many issue dates
# ---------------------------------------------------------------------------


def prepare_forecasts(
    forecasts: list[EnsembleForecast], stations: Sequence[StationMetadata], coarse_step: int | None
) -> list[EnsembleForecast]:
    """Lapse-correct one model's members from its grid-point elevation to the
    station elevation, then fill a coarse lead grid of native step
    ``coarse_step`` hourly by linear interpolation (None: no interpolation).

    A forecast for a station missing from ``stations`` raises ValueError.
    """
    by_station = {s.station_id: s for s in stations}
    corrected = []
    for fc in forecasts:
        station = by_station.get(fc.station_id)
        if station is None:
            raise ValueError(f"{fc.model_id} forecasts: unknown station {fc.station_id!r}")
        members = lapse_correct(fc.members, station.grid_elevation[fc.model_id], station.elevation)
        corrected.append(replace(fc, members=members))
    return corrected if coarse_step is None else interpolate_leads(corrected, source_step=coarse_step)


Slot = tuple[str, int, str]  # (station, lead, strategy): a CoefficientKey without its issue date


def coefficient_slots(
    forecasts_by_model: dict[str, list[EnsembleForecast]], station_ids, leads, strategies
) -> list[Slot]:
    """Every station x lead x coefficient strategy (``raw:`` ones are left
    out) whose models all have forecasts at the lead, in that nesting order
    with stations sorted."""
    coverage = {m: {fc.lead_time for fc in fcs} for m, fcs in forecasts_by_model.items()}
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
    strategy's slots at the taper leads are left out of each date's first
    solve and refit in a second one, under the upper bounds that
    ``transition1_bounds`` derives from that date's fit at the anchor lead.
    Slots without the anchor or taper leads, or a station without an anchor
    fit, raise ValueError.
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
    for issue in issue_dates:
        keys = [CoefficientKey(sid, lead, strategy, issue) for sid, lead, strategy in plain]
        store.update(fit_for_issue(archive, issue, keys, spec, options, store))
        if taper is None:
            continue
        station_bounds = {}
        for sid in stations:
            anchor = store.get(CoefficientKey(sid, tspec.anchor_lead, combined, issue))
            if anchor is None:
                raise ValueError(f"no anchor coefficients at lead {tspec.anchor_lead} for {sid} {issue}")
            station_bounds[sid] = transition1_bounds(anchor.coefficients, tspec)
        bounds = {CoefficientKey(sid, lead, s, issue): station_bounds[sid][lead] for sid, lead, s in tapered}
        store.update(fit_for_issue(archive, issue, list(bounds), spec, options, store, bounds=bounds))
    return store


def predict_issues(
    store: CoefficientStore,
    forecasts_by_model: dict[str, list[EnsembleForecast]],
    issue_dates: Sequence[date],
    slots: Sequence[Slot],
    min_sigma: float = 1e-3,
) -> tuple[dict[tuple[str, datetime, int, str], GaussianPredictive], list[str]]:
    """Apply stored coefficients to the forecasts of each issue date.

    Returns the predictions, keyed by (station, the station's init time,
    lead, strategy), and the per-key error messages of ``predict_for_issue``
    in date and key order. Dates without forecasts are skipped.
    """
    by_date: dict[date, list[EnsembleForecast]] = {}
    for fcs in forecasts_by_model.values():
        for fc in fcs:
            by_date.setdefault(fc.init_time.date(), []).append(fc)
    predictions: dict[tuple[str, datetime, int, str], GaussianPredictive] = {}
    errors: list[str] = []
    for issue in issue_dates:
        todays = by_date.get(issue)
        if not todays:
            continue
        keys = [CoefficientKey(sid, lead, strategy, issue) for sid, lead, strategy in slots]
        outcome = predict_for_issue(store, todays, issue, keys, min_sigma=min_sigma)
        init_time = {fc.station_id: fc.init_time for fc in todays}
        for (sid, lead, strategy), pred in outcome.predictions.items():
            predictions[(sid, init_time[sid], lead, strategy)] = pred
        errors += [message for _, message in sorted(outcome.errors.items())]
    return predictions, errors
