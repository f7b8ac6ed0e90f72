"""Rolling-archive coefficient estimation and application.

Coefficients are refit once per issue date, separately for every (station,
lead time, strategy) slot, on the trailing window of aligned
forecast-observation pairs. Slots without enough window samples fall back to
their most recent fit (up to 10 days old; a stale copy is not reused again)
and finally to pass-through identity coefficients. Fits and fallbacks alike
are rows of a ``CoefficientStore`` (``RECORD``), the fallbacks flagged
``fallback``: one table sorted by key, built once by its one constructor.
``train`` codes its slots once, in a ``RollingState`` that carries each
slot's latest row and latest fit from date to date; each ``fit_for_issue``
call takes its warm starts, seeds and stale coefficients from that state by
index, fits an issue date's slots, with the t1 taper refits of the date
before under their bounds, in one batched ``emos`` solve per number of
predictors K, and moves the state on. ``train`` builds its store once, from
the rows of every call, and ``predict_for_issue`` reads an issue date's rows
as one run of the store's key order. A fit that does not converge is
recorded with its best-so-far coefficients; any other failure aborts the
pass.

The drivers run the whole chain over many issue dates on one
``domain.ForecastCube`` per model: ``prepare_forecasts`` (lapse correction
and lead interpolation of a loaded cube), ``coefficient_slots`` (the slots
to fit, from each model's ``lead_coverage``), ``train`` (the rolling fits,
with the t1 taper refits) and ``predict_issues`` (the per-date predictions,
as one ``domain.PredictionTable``). ``build_archive`` and ``predict_for_issue``
accept one run (init time) per station and day.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import date, datetime
from functools import cache

import numpy as np

from .domain import ForecastCube, PredictionTable, SampleTable, StationMetadata, align, lookup, relabel
from .emos import EmosCoefficients, FitOptions, _coef_from, _theta_from, fit_batch, identity, predict_columns
from .synth import interpolate_leads
from .terrain import lapse_correct
from .transition import TransitionSpec, transition1_bounds

__all__ = [
    "RollingWindowSpec",
    "CoefficientKey",
    "CoefficientStore",
    "RollingState",
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


Slot = tuple[str, int, str]  # (station, lead, strategy): a CoefficientKey without its issue date
_MAX_PREDICTORS = 2  # the b and d columns of a store, b1, b2, d1 and d2 of the store file
_IDENTITY = {k: identity(k) for k in range(1, _MAX_PREDICTORS + 1)}  # the pass-through fallback of each K

# One coefficient record: its key as codes (issue date as ``date.toordinal``,
# station and strategy as indices into a store's labels), its coefficients
# (``b`` and ``d`` NaN past the strategy's K predictors) and how they were found.
RECORD = np.dtype([("day", np.int64), ("station", np.int64), ("lead", np.int64), ("strategy", np.int64),
                   ("a", float), ("b", float, (2,)), ("c", float), ("d", float, (2,)), ("n_samples", np.int64),
                   ("objective", float), ("converged", bool), ("fallback", bool)])


def _recode(names, codes: Mapping[str, int]) -> np.ndarray:
    """The code of each of ``names`` in ``codes``, -1 for a name it lacks."""
    return np.array([codes.get(name, -1) for name in names], dtype=np.int64)


def _coefficients(row, k: int) -> EmosCoefficients:
    """The coefficients of a ``RECORD`` row of K = ``k`` predictors."""
    return EmosCoefficients(row["a"].item(), row["b"].tolist()[:k], row["c"].item(), row["d"].tolist()[:k])


@dataclass(frozen=True, eq=False)
class CoefficientStore:
    """Coefficient records as ``RECORD`` rows, one per ``CoefficientKey``,
    sorted by key (issue date, station, lead, strategy): the order of the
    store file.

    Row i's station is ``station_ids[rows["station"][i]]`` and its strategy
    ``strategies[rows["strategy"][i]]``. The constructor takes labels in any
    order, repeated or unused, and rows in any order with codes into them; it
    keeps the labels the codes use, sorted and distinct, recodes, and puts
    the rows in key order. A repeated key raises ValueError. ``rows`` is
    read-only.
    """

    station_ids: tuple[str, ...]
    strategies: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=RECORD)
        station_ids, station = relabel(self.station_ids, rows["station"])
        strategies, strategy = relabel(self.strategies, rows["strategy"])
        order = np.lexsort((strategy, rows["lead"], station, rows["day"]))
        rows = rows[order]  # the one copy of the rows
        rows["station"], rows["strategy"] = station[order], strategy[order]
        rows.flags.writeable = False
        keys = [rows[name] for name in ("day", "station", "lead", "strategy")]
        repeated = np.flatnonzero(np.logical_and.reduce([k[1:] == k[:-1] for k in keys]))
        if repeated.size:
            day, s, lead, k = (key[repeated[0]].item() for key in keys)
            raise ValueError(f"repeated coefficients for {station_ids[s]} lead {lead} {strategies[k]} "
                             f"{date.fromordinal(day)}")
        for name, value in (("station_ids", station_ids), ("strategies", strategies), ("rows", rows)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.rows)


def select_window(table: SampleTable, issue_date: date, spec: RollingWindowSpec) -> SampleTable:
    """The rows whose init dates fall in [issue - window_days, issue - 1].

    The issue date itself is excluded, so a fit can never see data that
    would only become known on the day it is issued.
    """
    issue = issue_date.toordinal()
    lo, hi = table.init_days.searchsorted([issue - spec.window_days, issue])
    return table[lo:hi]


Archive = dict[tuple[str, int], SampleTable]


def _one_run_per_day(cubes: Iterable[ForecastCube], rows: Iterable) -> dict[tuple[int, str], datetime]:
    """The init time of the forecasts of each (day, station id) among the
    ``rows`` of each cube, days as ``date.toordinal``. A station with
    forecasts from more than one init time on a day raises ValueError."""
    times: dict[tuple[int, str], set[datetime]] = {}
    for cube, at in zip(cubes, rows):
        n, days = len(cube.init_times), cube.init_days.tolist()
        for s, t in (divmod(pair, n) for pair in set((cube.station[at] * n + cube.init[at]).tolist())):
            times.setdefault((days[t], cube.station_ids[s]), set()).add(cube.init_times[t])
    for (day, station_id), found in sorted(times.items()):
        if len(found) > 1:
            listed = ", ".join(t.strftime("%H:%M") for t in sorted(found))
            raise ValueError(f"station {station_id} has forecasts from {len(found)} init times on "
                             f"{date.fromordinal(day)} ({listed}); only one run per day is supported")
    return {key: found.pop() for key, found in times.items()}


def build_archive(
    forecasts_by_model: Mapping[str, ForecastCube],
    observations,
    lead_times,
) -> tuple[Archive, int]:
    """Align forecasts and observations into per-(station, lead) sample tables.

    For each lead time, alignment requires every model that provides any
    forecast at that lead; models whose horizon ends earlier simply drop out
    of the samples at longer leads. Returns the archive and the total number
    of dropped (incomplete) init times. A station with forecasts from more
    than one init time on a day raises ValueError, as in ``predict_for_issue``.
    """
    cubes = [forecasts_by_model[m] for m in sorted(forecasts_by_model)]
    leads_of = [set(cube.lead.tolist()) for cube in cubes]
    covered = set().union(*(cube.station_ids for cube in cubes))
    _one_run_per_day(cubes, [slice(None)] * len(cubes))
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


def _theta_of(rows: np.ndarray, k: int) -> np.ndarray:
    """The solver coordinates of ``RECORD`` rows of K = ``k`` predictors."""
    return _theta_from(rows["a"], rows["b"][:, :k], rows["c"], rows["d"][:, :k])


_NO_DAY = np.iinfo(np.int64).min  # the day of a state row that holds nothing yet


class RollingState:
    """What a rolling train carries over its slots from one issue date to the
    next: ``row``, each slot's latest ``RECORD`` row, and ``fit``, its latest
    fit (not a fallback), both day ``_NO_DAY`` where there is none.

    The slots are coded once: ``index`` maps each slot to its index, which
    codes both the station and the strategy of the slot's rows, and each
    slot's models map to ``singles``, the single-model slot of the same
    station and lead per model (-1 for none). A ``raw:`` slot raises
    ValueError.
    """

    def __init__(self, slots: Sequence[Slot]):
        self.slots, self.models = list(slots), []
        for _, _, strategy in self.slots:
            kind, models = parse_strategy(strategy)
            if kind == "raw":
                raise ValueError(f"raw strategy {strategy!r} takes no coefficients")
            self.models.append(models)
        self.k = np.array([len(models) for models in self.models], dtype=np.int64)
        pad, identities = (math.nan,) * _MAX_PREDICTORS, [_IDENTITY[k] for k in self.k.tolist()]
        blank = [(_NO_DAY, i, lead, i, c.a, (c.b + pad)[:2], c.c, (c.d + pad)[:2], 0, math.nan, True, True)
                 for i, ((_, lead, _), c) in enumerate(zip(self.slots, identities))]
        self._blank = np.array(blank, dtype=RECORD)  # each slot's row before its first date: identity, a fallback
        self.row, self.fit = self._blank.copy(), self._blank.copy()
        self.index = {slot: i for i, slot in enumerate(self.slots)}
        self.singles = np.full((len(self.slots), _MAX_PREDICTORS), -1)
        for i, ((sid, lead, _), models) in enumerate(zip(self.slots, self.models)):
            self.singles[i, :len(models)] = [self.index.get((sid, lead, single_strategy(m)), -1) for m in models]


def fit_for_issue(
    archive: Archive,
    issue_date: date,
    state: RollingState,
    at: Sequence[int],
    spec: RollingWindowSpec = RollingWindowSpec(),
    options: FitOptions = FitOptions(),
    refits: tuple[date, Sequence[int], np.ndarray] | None = None,
) -> np.ndarray:
    """Fit one wave: the slots ``at`` (indices into ``state.slots``) on
    ``issue_date``, and ``refits`` = (date, slots, caps), t1 taper slots of
    that or an earlier date under their (b1_max, d1_max) upper bounds (one
    row of ``caps`` per slot). Each task is fitted on the window of its own
    date; a slot takes at most one task per call, and its dates increase
    from call to call.

    The tasks are fitted in one batched solve per number of predictors K, in
    increasing K. A task warm-starts from its slot's latest row of the 5
    days before its date. A K = 2 task is seeded with the rows of its
    single-model slots of the same date: this wave's, else their latest
    ones. A task whose window has fewer than ``spec.min_samples`` samples,
    or lacks one of its models, falls back to the coefficients of the slot's
    latest fit of the 10 days before, else to identity ones; any other error
    propagates.

    Returns the tasks' rows (``RECORD``, station and strategy coded by slot
    index), this date's slots first, and moves ``state`` on to them. A slot
    listed twice raises ValueError before any fit.
    """
    refit_date, refit_at, caps = refits or (issue_date, [], np.empty((0, 2)))
    if refit_date > issue_date:
        raise ValueError(f"refits of {refit_date} are dated after issue date {issue_date}")
    slot = np.concatenate([at, refit_at]).astype(np.int64)
    ordered = np.sort(slot)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(twice):
        raise ValueError(f"slot {state.slots[twice[0]]} is listed twice in one call")
    dates = [issue_date] * len(at) + [refit_date] * len(refit_at)
    rows = state._blank[slot]
    rows["day"] = day = np.repeat([issue_date.toordinal(), refit_date.toordinal()], [len(at), len(refit_at)])
    late = np.flatnonzero(state.row["day"][slot] >= day)
    if len(late):
        raise ValueError(f"slot {state.slots[slot[late[0]]]} has a row on or after {dates[late[0]]}")
    windows, tables, n_samples, short = {}, [], [], []
    for s, on in zip(slot.tolist(), dates):
        sid, lead, _ = state.slots[s]
        if (sid, lead, on) not in windows:
            windows[sid, lead, on] = select_window(archive[sid, lead], on, spec) if (sid, lead) in archive else None
        window = windows[sid, lead, on]
        tables.append(window)
        n_samples.append(len(window) if window else 0)
        short.append(n_samples[-1] < spec.min_samples or not set(state.models[s]) <= set(window.models))
    rows["n_samples"], rows["fallback"] = n_samples, short
    short = rows["fallback"]

    # A fit warm-starts from the slot's latest row of the 5 days before
    # (yesterday's coefficients are an excellent start on a window shifted
    # by a day); a short window reuses the latest fit of the 10 days before,
    # else keeps identity coefficients.
    warm = state.row["day"][slot] >= day - 5
    stale = short & (state.fit["day"][slot] >= day - REUSE_WINDOW_DAYS)
    reused = ["a", "b", "c", "d", "objective", "converged"]
    rows[reused][stale] = state.fit[reused][slot[stale]]

    caps = np.vstack([np.full((len(at), 2), math.inf), caps])
    position = np.full(len(state.slots), -1)
    position[slot] = np.arange(len(slot))
    for k in sorted(set(state.k[slot[~short]].tolist())):
        at_k = np.flatnonzero(~short & (state.k[slot] == k))
        start = np.full((len(at_k), 2 * k + 2), math.nan)
        start[warm[at_k]] = _theta_of(state.row[slot[at_k[warm[at_k]]]], k)
        seeds = None
        if k > 1:  # the rows of each task's single-model slots on its date: this wave's, else the state's
            single, on = state.singles[slot[at_k], :k], day[at_k, None]
            seed = np.zeros(single.shape, dtype=RECORD)
            seed["fallback"] = True  # a missing seed, like a fallback one, seeds nothing
            kept = (single >= 0) & (state.row["day"][single] == on)
            seed[kept] = state.row[single[kept]]
            own = np.where(single >= 0, position[single], -1)
            mine = (own >= 0) & (day[own] == on)
            seed[mine] = rows[own[mine]]
            theta = _theta_of(seed.ravel(), 1).reshape(-1, k, 4)
            theta[seed["fallback"].any(axis=1)] = math.nan
            seeds = theta, seed["objective"]
        fit = fit_batch([tables[i] for i in at_k], [state.models[s] for s in slot[at_k]], options, start, seeds,
                        caps[at_k])
        coef = _coef_from(fit.theta, caps[at_k, 1])
        rows["a"][at_k], rows["b"][at_k, :k], rows["c"][at_k], rows["d"][at_k, :k] = coef
        rows["objective"][at_k], rows["converged"][at_k] = fit.f, fit.converged
    state.row[slot] = rows
    state.fit[slot[~short]] = rows[~short]
    return rows


def predict_for_issue(
    store: CoefficientStore,
    forecasts: Mapping[str, ForecastCube],
    issue_date: date,
    slots: Sequence[Slot],
    min_sigma: float = FitOptions.min_sigma,
) -> tuple[PredictionTable, dict[Slot, str]]:
    """Apply the issue date's stored coefficients of each (station, lead,
    strategy) slot to the means and spreads of the ensembles initialized on
    that date, one array expression per strategy (``emos.predict_columns``).

    Returns the predictions, at each station's init time, and an error
    message per slot without coefficients or forecasts, in slot order; all
    other slots are unaffected. A date without forecasts gives neither. A
    station with forecasts from more than one init time on the issue date is
    rejected with ValueError.
    """
    day = issue_date.toordinal()
    on_day = {model: np.flatnonzero(cube.init_days[cube.init] == day) for model, cube in forecasts.items()}
    runs = _one_run_per_day(forecasts.values(), on_day.values())
    if not runs:
        return PredictionTable((), (), (), *[[]] * 6), {}

    # The slots as codes: stations and strategies as indices into these labels.
    labels = [list(dict.fromkeys(column)) for column in zip(*slots)] or [[], [], []]
    codes = [{label: i for i, label in enumerate(column)} for column in labels]
    station = np.array([codes[0][sid] for sid, _, _ in slots], dtype=np.int64)
    lead = np.array([slot[1] for slot in slots], dtype=np.int64)
    strategy = np.array([codes[2][s] for _, _, s in slots], dtype=np.int64)

    # The issue date's rows are one run of the store's key order; each slot's row among them, -1 for none.
    block = store.rows[slice(*store.rows["day"].searchsorted([day, day + 1]))]
    known = [{label: i for i, label in enumerate(names)} for names in (store.station_ids, store.strategies)]
    queries = [_recode(labels[0], known[0])[station], lead, _recode(labels[2], known[1])[strategy]]
    stored = lookup([block["station"], block["lead"], block["strategy"]], queries)
    ensemble = {}  # model -> the cube row of each slot, -1 for none
    for model, cube in forecasts.items():
        rows_of_day = on_day[model]
        keys = [_recode(cube.station_ids, codes[0])[cube.station[rows_of_day]], cube.lead[rows_of_day]]
        ensemble[model] = np.append(rows_of_day, -1)[lookup(keys, [station, lead])]

    errors: dict[int, str] = {}
    found, mu, sigma = [], [], []
    for code, name in enumerate(labels[2]):
        at = np.flatnonzero(strategy == code)
        models = parse_strategy(name)[1]
        columns = [ensemble[m][at] if m in forecasts else np.full(len(at), -1) for m in models]
        missing = [e < 0 for e in columns]
        for i in at[stored[at] < 0].tolist():
            key = CoefficientKey(labels[0][station[i]], int(lead[i]), name, issue_date)
            errors[i] = f"no coefficients stored for {key}"
        for m, absent in zip(models, missing):
            for i in at[absent & (stored[at] >= 0)].tolist():
                errors.setdefault(i, f"no forecast for model {m!r} at {labels[0][station[i]]} lead {lead[i]}")
        ok = (stored[at] >= 0) & ~np.logical_or.reduce(missing)
        record = block[stored[at[ok]]]
        mean, std = (np.column_stack([getattr(forecasts[m], stat)[e[ok]] for m, e in zip(models, columns)])
                     for stat in ("mean", "std"))
        k = len(models)
        result = predict_columns(record["a"], record["b"][:, :k], record["c"], record["d"][:, :k], mean, std, min_sigma)
        found.append(at[ok])
        mu.append(result[0])
        sigma.append(result[1])
    found = np.concatenate(found or [np.empty(0, dtype=np.int64)])
    inits = [runs.get((day, sid)) for sid in labels[0]]
    predictions = PredictionTable(labels[0], inits, labels[2], station[found], station[found], lead[found],
                                  strategy[found], np.concatenate(mu or [[]]), np.concatenate(sigma or [[]]))
    return predictions, {slots[i]: errors[i] for i in sorted(errors)}


# ---------------------------------------------------------------------------
# Drivers over many issue dates
# ---------------------------------------------------------------------------


def prepare_forecasts(
    forecasts: ForecastCube, stations: Sequence[StationMetadata], coarse_step: int | None
) -> ForecastCube:
    """Lapse-correct one model's members from its grid-point elevation to the
    station elevation, one add per station and member matrix, then fill a
    coarse lead grid of native step ``coarse_step`` hourly by linear
    interpolation (None: no interpolation). Both write into the new cube's
    matrices (``interpolate_leads``): each member is written once.

    A station missing from ``stations``, or without a grid elevation for the
    model, raises ValueError (``grid_elevations``).
    """
    elevations = grid_elevations(forecasts.model_id, forecasts.station_ids, stations)

    def correct(matrix, station):  # a station's rows are one range of the matrix
        bounds = np.searchsorted(station, np.arange(len(elevations) + 1)).tolist()
        for lo, hi, elevation in zip(bounds, bounds[1:], elevations):
            lapse_correct(matrix[lo:hi], *elevation, out=matrix[lo:hi])

    return interpolate_leads(forecasts, coarse_step, correct)


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
    each date warm-starts from the fits of the dates before it, which one
    ``RollingState`` over the slots carries from date to date.

    ``taper`` = (spec, combined strategy) selects the t1 scheme: the combined
    strategy's slots at the taper leads are left out of each date's own
    solves and refit under the upper bounds that ``transition1_bounds``
    derives from that date's fit at the anchor lead. No later date reads
    those refits, so they ride in the next date's ``fit_for_issue`` call (a
    wave: one solve per K over that date's slots and the previous date's
    taper slots), and the last date's run alone at the end. The calls' rows
    are written into one array, the store's. Slots without the anchor or
    taper leads, or a station without an anchor slot, raise ValueError.
    """
    state = RollingState(slots)
    tapered: list[int] = []
    if taper is not None:
        tspec, combined = taper
        present = {lead for _, lead, _ in slots}
        missing = [t for t in (tspec.anchor_lead, *tspec.taper_leads) if t not in present]
        if missing:
            raise ValueError(f"transition t1 needs leads {missing} in the configured lead set")
        tapered = [i for i, (_, lead, s) in enumerate(slots) if s == combined and lead in tspec.taper_leads]
        stations = sorted({sid for sid, _, _ in slots})
        anchors = [state.index.get((sid, tspec.anchor_lead, combined), -1) for sid in stations]
    plain = sorted(set(range(len(slots))) - set(tapered))
    rows, n, refits = np.empty(len(issue_dates) * len(slots), dtype=RECORD), 0, None  # one row per slot and date
    for issue in issue_dates:
        wave = fit_for_issue(archive, issue, state, plain, spec, options, refits)
        rows[n:n + len(wave)], n = wave, n + len(wave)
        if taper is None:
            continue
        bounds = {}
        for sid, anchor in zip(stations, anchors):
            if anchor < 0:
                raise ValueError(f"no anchor coefficients at lead {tspec.anchor_lead} for {sid} {issue}")
            bounds[sid] = transition1_bounds(_coefficients(state.row[anchor], state.k[anchor]), tspec)
        refits = issue, tapered, np.array([bounds[slots[i][0]][slots[i][1]] for i in tapered]).reshape(-1, 2)
    if tapered and issue_dates:
        rows[n:] = fit_for_issue(archive, issue_dates[-1], state, [], spec, options, refits)
    return CoefficientStore([sid for sid, _, _ in slots], [strategy for _, _, strategy in slots], rows)


def predict_issues(
    store: CoefficientStore,
    forecasts_by_model: Mapping[str, ForecastCube],
    issue_dates: Sequence[date],
    slots: Sequence[Slot],
    min_sigma: float = FitOptions.min_sigma,
) -> tuple[PredictionTable, list[str]]:
    """Apply stored coefficients to the forecasts of each issue date
    (``predict_for_issue``). Returns the predictions, and the error messages
    in (date, station, lead, strategy) order.
    """
    tables, errors = [], []
    for issue in issue_dates:
        found, failed = predict_for_issue(store, forecasts_by_model, issue, slots, min_sigma=min_sigma)
        tables.append(found)
        errors += [failed[slot] for slot in sorted(failed)]
    return PredictionTable.concat(tables), errors
