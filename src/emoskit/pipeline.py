"""Rolling-archive coefficient estimation and application.

Coefficients are refit once per issue date, separately for every (station,
lead time, strategy) key, on the trailing window of aligned
forecast-observation pairs. Keys without enough window samples fall back to
the most recent stored coefficients (up to 10 days old) and finally to
pass-through identity coefficients; fallback records are flagged. All keys
of an issue date are fitted together by the batched solver of ``emos``. A
fit that does not converge is recorded with its best-so-far coefficients;
any other failure aborts the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date, timedelta

from .domain import EnsembleForecast, EnsembleStats, GaussianPredictive, TrainingSample, ensemble_stats
from .emos import (
    EmosCoefficients,
    FitOptions,
    FitResult,
    FitTask,
    MixedEmosCoefficients,
    fit_batch,
    identity_mixed,
    identity_single,
    predict_mixed,
    predict_single,
)

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
    coefficients: EmosCoefficients | MixedEmosCoefficients
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


def select_window(
    archive: list[TrainingSample], issue_date: date, spec: RollingWindowSpec
) -> list[TrainingSample]:
    """Samples whose init dates fall in [issue - window_days, issue - 1].

    The issue date itself is excluded, so a fit can never see data that
    would only become known on the day it is issued.
    """
    lo = issue_date - timedelta(days=spec.window_days)
    hi = issue_date - timedelta(days=1)
    return [s for s in archive if lo <= s.init_time.date() <= hi]


Archive = dict[tuple[str, int], list[TrainingSample]]


def build_archive(
    forecasts_by_model: dict[str, list[EnsembleForecast]],
    observations,
    lead_times,
) -> tuple[Archive, int]:
    """Align forecasts and observations into per-(station, lead) sample lists.

    For each lead time, alignment requires every model that provides any
    forecast at that lead; models whose horizon ends earlier simply drop out
    of the samples at longer leads. Returns the archive and the total number
    of dropped (incomplete) init times.
    """
    from .domain import align

    by_station_model: dict[str, dict[str, list[EnsembleForecast]]] = {}
    lead_sets: dict[str, set[int]] = {m: set() for m in forecasts_by_model}
    for model_id, fcs in forecasts_by_model.items():
        for fc in fcs:
            by_station_model.setdefault(fc.station_id, {}).setdefault(model_id, []).append(fc)
            lead_sets[model_id].add(fc.lead_time)
    models_at_lead = {
        lead: [m for m in sorted(forecasts_by_model) if lead in lead_sets[m]] for lead in lead_times
    }

    archive: Archive = {}
    total_dropped = 0
    for station_id in sorted(observations):
        obs = observations[station_id]
        station_fcs = by_station_model.get(station_id, {})
        for lead in lead_times:
            model_ids = models_at_lead[lead]
            if not model_ids:
                continue
            pool = [fc for m in model_ids for fc in station_fcs.get(m, [])]
            samples, dropped = align(pool, obs, lead, model_ids=model_ids)
            total_dropped += dropped
            if samples:
                archive[(station_id, lead)] = samples
    return archive, total_dropped


def _identity_record(strategy: str, n_samples: int) -> StoredFit:
    kind, _ = parse_strategy(strategy)
    coef = identity_mixed() if kind == "mixed" else identity_single()
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

    The keys are fitted in two batched solves: all single-model keys, then
    all mixed keys, each seeded from the single-model fits of its slot on
    this issue date (fitted in this call or already in ``store``). Keys
    whose window has fewer than ``spec.min_samples`` samples, or lacks one of
    the key's models, fall back to stale or identity coefficients; any other
    error propagates.

    ``bounds`` maps mixed keys to (b1_max, d1_max) upper bounds, as the t1
    taper refits need; ``options.bounds`` applies to the other mixed keys.
    ``store`` supplies warm starts, single-model fits and the history of the
    stale-coefficient fallback; it is not modified (merge the returned
    updates yourself).
    """
    if store is None:
        store = CoefficientStore()
    bounds = bounds or {}
    windows: dict[tuple[str, int], list[TrainingSample]] = {}
    updates: dict[CoefficientKey, StoredFit] = {}
    to_fit: dict[str, list[CoefficientKey]] = {"single": [], "mixed": []}
    for key in keys:
        if key.issue_date != issue_date:
            raise ValueError(f"key {key} does not belong to issue date {issue_date}")
        kind, models = parse_strategy(key.strategy)
        if kind == "raw":
            raise ValueError(f"raw strategy {key.strategy!r} takes no coefficients")
        slot = (key.station_id, key.lead_time)
        if slot not in windows:
            windows[slot] = select_window(archive.get(slot, []), issue_date, spec)
        samples = windows[slot]
        if len(samples) < spec.min_samples or any(m not in s.stats_per_model for s in samples for m in models):
            prior = store.latest_before(key.station_id, key.lead_time, key.strategy, issue_date, REUSE_WINDOW_DAYS)
            if prior is not None:
                updates[key] = replace(prior, n_samples=len(samples), fallback=True)
            else:
                updates[key] = _identity_record(key.strategy, len(samples))
        else:
            to_fit[kind].append(key)

    def warm_start(key: CoefficientKey, want_type):
        # Yesterday's coefficients are an excellent starting point on a
        # rolling window that shifts by one day.
        prior = store.latest_before(key.station_id, key.lead_time, key.strategy, issue_date, 5)
        if prior is None or not isinstance(prior.coefficients, want_type):
            return None
        return prior.coefficients

    fitted: dict[CoefficientKey, FitResult] = {}
    for kind in ("single", "mixed"):
        tasks = []
        for key in to_fit[kind]:
            models = parse_strategy(key.strategy)[1]
            samples = windows[(key.station_id, key.lead_time)]
            if kind == "single":
                tasks.append(FitTask(samples, models, start=warm_start(key, EmosCoefficients)))
                continue
            hints = []
            for m in models:
                single_key = replace(key, strategy=single_strategy(m))
                hints.append(fitted.get(single_key) or _stored_as_fit(store.get(single_key)))
            tasks.append(
                FitTask(
                    samples,
                    models,
                    start=warm_start(key, MixedEmosCoefficients),
                    single_fits=None if None in hints else tuple(hints),
                    bounds=bounds.get(key),
                )
            )
        fitted.update(zip(to_fit[kind], fit_batch(tasks, options)))

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
    init_times: dict[str, set] = {}
    stats: dict[tuple[str, str, int], EnsembleStats] = {}
    for fc in forecasts:
        init_times.setdefault(fc.station_id, set()).add(fc.init_time)
        stats[(fc.station_id, fc.model_id, fc.lead_time)] = ensemble_stats(fc)
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
        kind, models = parse_strategy(key.strategy)
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
        if kind == "single":
            predictions[out_key] = predict_single(record.coefficients, model_stats[0], min_sigma=min_sigma)
        elif kind == "mixed":
            predictions[out_key] = predict_mixed(record.coefficients, model_stats[0], model_stats[1], min_sigma=min_sigma)
        else:
            errors[out_key] = f"strategy {key.strategy!r} has no coefficient-based prediction"
    return PredictionOutcome(predictions=predictions, errors=errors)
