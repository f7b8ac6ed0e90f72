"""Rolling-archive coefficient estimation and application.

Coefficients are refit once per issue date, separately for every (station,
lead time, strategy) key, on the trailing window of aligned
forecast-observation pairs. Keys without enough window samples fall back to
the most recent stored fit (up to 10 days old; a stale copy is not reused
again) and finally to pass-through identity coefficients. Fits and
fallbacks alike are rows of a ``CoefficientStore`` (``RECORD``), the
fallbacks flagged ``fallback``: each ``fit_for_issue`` call finds its warm
starts, seeds and stale coefficients among the store's rows with a few
``domain.lookup`` calls, fits an issue date's keys, with t1 taper refits of
earlier dates under their bounds, in one batched ``emos`` solve per number
of predictors K, and returns its rows as a store; ``train`` makes one call
per date and appends each. Records (``emos.FitResult``) are built only for
a caller that asks for one. A fit that does not converge is recorded with its
best-so-far coefficients; any other failure aborts the pass.

The drivers run the whole chain over many issue dates on one
``domain.ForecastCube`` per model: ``prepare_forecasts`` (lapse correction
and lead interpolation of a loaded cube), ``coefficient_slots`` (the keys to
fit, from each model's ``lead_coverage``), ``train`` (the rolling fits, with
the t1 taper refits) and ``predict_issues`` (the per-date predictions, as
one ``domain.PredictionTable``).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from datetime import date
from functools import cache

import numpy as np

from .domain import ForecastCube, PredictionTable, SampleTable, StationMetadata, align, lookup, relabel
from .emos import EmosCoefficients, FitOptions, FitResult, _coef_from, _theta_from, fit_batch, identity, predict_columns
from .synth import interpolate_leads
from .terrain import lapse_correct
from .transition import TransitionSpec, transition1_bounds

__all__ = [
    "RollingWindowSpec",
    "CoefficientKey",
    "CoefficientStore",
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
_KEY = ("station", "lead", "strategy", "day")  # a record's key columns, in the order ``_find`` looks them up
_LAST_DAY = date.max.toordinal()  # above every issue day


def _recode(names, codes: Mapping[str, int]) -> np.ndarray:
    """The code of each of ``names`` in ``codes``, -1 for a name it lacks."""
    return np.array([codes.get(name, -1) for name in names], dtype=np.int64)


def _record_row(codes, key: CoefficientKey, coef: EmosCoefficients, n_samples: int, objective: float,
                converged: bool, fallback: bool) -> tuple:
    """The ``RECORD`` row of one record, its station and strategy coded
    into ``codes`` (a new label takes the next code)."""
    if len(coef.b) > _MAX_PREDICTORS:
        raise ValueError(f"a store holds up to {_MAX_PREDICTORS} predictors, got {len(coef.b)}")
    station, strategy = (c.setdefault(label, len(c)) for c, label in zip(codes, (key.station_id, key.strategy)))
    pad = (math.nan,) * _MAX_PREDICTORS
    return (key.issue_date.toordinal(), station, key.lead_time, strategy, coef.a, (coef.b + pad)[:_MAX_PREDICTORS],
            coef.c, (coef.d + pad)[:_MAX_PREDICTORS], n_samples, objective, converged, fallback)


class CoefficientStore:
    """Coefficient records as columns, one row per ``CoefficientKey``.

    ``table()`` gives the rows in key order (issue date, station, lead,
    strategy), the order of the store file. ``get``, ``latest_before`` and
    ``items`` build the records they return from the rows. Every row lookup
    is one ``domain.lookup`` over the rows whose issue day can match
    (``_find``). ``update`` appends the rows of another store, whose keys
    must be new.
    """

    def __init__(self, records: Mapping[CoefficientKey, FitResult] | None = None):
        self._codes: tuple[dict[str, int], dict[str, int]] = ({}, {})  # station id, strategy -> code in _rows
        self._table: tuple | None = None
        self._rows = np.array([_record_row(self._codes, key, r.coefficients, r.n_samples, r.objective, r.converged,
                                           r.fallback) for key, r in (records or {}).items()], dtype=RECORD)
        self._n = len(self._rows)  # rows[:_n] are in use

    @classmethod
    def _of(cls, codes: tuple[dict[str, int], dict[str, int]], rows: np.ndarray) -> CoefficientStore:
        """The store of ``rows`` (``RECORD``, distinct keys, any order) with
        codes into ``codes``."""
        store = cls()
        store._codes, store._rows, store._n = codes, rows, len(rows)
        return store

    @classmethod
    def from_table(cls, station_ids: Sequence[str], strategies: Sequence[str], rows: np.ndarray) -> CoefficientStore:
        """The store of ``rows`` (``RECORD``, read-only), in key order with
        distinct keys and codes into the sorted, distinct labels."""
        store = cls._of(tuple({name: i for i, name in enumerate(names)} for names in (station_ids, strategies)), rows)
        store._table = tuple(station_ids), tuple(strategies), rows, np.arange(len(rows))
        return store

    def __len__(self) -> int:
        return self._n

    def table(self) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
        """(station ids, strategies, rows): the labels sorted, and the rows
        (``RECORD``, read-only) in key order with codes into them."""
        if self._table is None:
            used = self._rows[:self._n]
            station_ids, station = relabel(list(self._codes[0]), used["station"])
            strategies, strategy = relabel(list(self._codes[1]), used["strategy"])
            order = np.lexsort((strategy, used["lead"], station, used["day"]))
            rows = used[order]  # the one copy of the rows
            rows["station"], rows["strategy"] = station[order], strategy[order]
            rows.flags.writeable = False
            self._table = station_ids, strategies, rows, order
        return self._table[:3]

    def items(self):
        """(key, record) of every row, in key order: one record per row, for
        callers that want them all."""
        station_ids, strategies, rows = self.table()
        keys = zip(*(rows[name].tolist() for name in _KEY))
        for (s, lead, k, day), row in zip(keys, self._table[3].tolist()):
            yield CoefficientKey(station_ids[s], lead, strategies[k], date.fromordinal(day)), self._record(row)

    def _record(self, row: int) -> FitResult:
        _, _, _, strategy, a, b, c, d, n_samples, objective, converged, fallback = self._rows[row].tolist()
        k = len(parse_strategy(list(self._codes[1])[strategy])[1])
        coef = EmosCoefficients(a, b.tolist()[:k], c, d.tolist()[:k])
        return FitResult(coef, objective, converged, n_iterations=0, n_samples=n_samples, fallback=fallback)

    def _find(self, labels, queries, within=0, fits: bool = False) -> np.ndarray:
        """The row of each query's slot at its latest issue day in [day -
        ``within``, day], among fits only (``fallback`` false) if ``fits``;
        -1 for none. ``queries`` are (station, lead, strategy, day) int64
        columns, station and strategy as codes into ``labels`` (station ids,
        strategies)."""
        rows, day = self._rows[:self._n], queries[3]
        near = (rows["day"] >= (day - within).min(initial=_LAST_DAY)) & (rows["day"] <= day.max(initial=0))
        near = np.flatnonzero(near & ~rows["fallback"] if fits else near)
        if not len(near):
            return np.full(len(day), -1)
        station, strategy = (_recode(names, code)[column] for code, names, column in
                             zip(self._codes, labels, (queries[0], queries[2])))
        found = lookup([rows[name][near] for name in _KEY], [station, queries[1], strategy, day], within)
        return np.where(found >= 0, near[found], -1)

    def _row(self, station_id: str, lead_time: int, strategy: str, day: int, within: int = 0) -> int:
        return self._find(([station_id], [strategy]), np.array([[0], [lead_time], [0], [day]]), within)[0]

    def __contains__(self, key: CoefficientKey) -> bool:
        return self._row(key.station_id, key.lead_time, key.strategy, key.issue_date.toordinal()) >= 0

    def get(self, key: CoefficientKey) -> FitResult | None:
        row = self._row(key.station_id, key.lead_time, key.strategy, key.issue_date.toordinal())
        return None if row < 0 else self._record(row)

    def update(self, other: CoefficientStore) -> None:
        """Append the rows of ``other``. A key stored already raises
        ValueError and leaves the store unchanged."""
        if not len(other):  # a read store's rows are read-only, even where none is added
            return
        rows = other._rows[:other._n].copy()
        labels = [list(code) for code in other._codes]
        stored = np.flatnonzero(self._find(labels, [rows[name] for name in _KEY]) >= 0)
        if len(stored):
            s, lead, k, day = (rows[name][stored[0]].item() for name in _KEY)
            key = CoefficientKey(labels[0][s], lead, labels[1][k], date.fromordinal(day))
            raise ValueError(f"{key} is stored already")
        for name, code, names in zip(("station", "strategy"), self._codes, labels):
            rows[name] = np.array([code.setdefault(label, len(code)) for label in names], dtype=np.int64)[rows[name]]
        if self._n + len(rows) > len(self._rows):  # double the capacity; rows not yet written take no memory
            grown = np.empty(max(2 * self._n, self._n + len(rows)), dtype=RECORD)
            grown[:self._n] = self._rows[:self._n]
            self._rows = grown
        self._rows[self._n:self._n + len(rows)] = rows
        self._n += len(rows)
        self._table = None

    def latest_before(
        self, station_id: str, lead_time: int, strategy: str, issue_date: date, max_age_days: int
    ) -> FitResult | None:
        """Most recent record for the same slot within ``max_age_days`` before
        ``issue_date``."""
        row = self._row(station_id, lead_time, strategy, issue_date.toordinal() - 1, max_age_days - 1)
        return None if row < 0 else self._record(row)


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


def _theta_of(rows: np.ndarray, k: int) -> np.ndarray:
    """The solver coordinates of ``RECORD`` rows of K = ``k`` predictors."""
    return _theta_from(rows["a"], rows["b"][:, :k], rows["c"], rows["d"][:, :k])


def fit_for_issue(
    archive: Archive,
    issue_date: date,
    keys: list[CoefficientKey],
    spec: RollingWindowSpec = RollingWindowSpec(),
    options: FitOptions = FitOptions(),
    store: CoefficientStore | None = None,
    bounds: dict[CoefficientKey, tuple[float, float]] | None = None,
) -> CoefficientStore:
    """Compute store updates for one issue date: its ``keys``, and the keys of
    ``bounds``, which map keys of this or earlier dates to (b1_max, d1_max)
    upper bounds, as the t1 taper refits need. A key in both is fitted once,
    each key on the window of its own date.

    The keys are fitted in one batched solve per number of predictors K, in
    increasing K: the single-model keys first, then the combined keys, each
    seeded from the single-model fits of its slot and date (this call's rows,
    else the rows of ``store``). A key's latest ``store`` row of the 5 days
    before its date warm-starts its fit. Keys whose window has fewer than
    ``spec.min_samples`` samples, or lacks one of the key's models, fall back
    to the coefficients of the slot's latest ``store`` fit (not a fallback)
    of the 10 days before, else to identity ones; any other error
    propagates.

    ``store`` is not modified: the updates come back as a store of their
    own, for ``CoefficientStore.update``.
    """
    for key in keys:
        if key.issue_date != issue_date:
            raise ValueError(f"key {key} does not belong to issue date {issue_date}")
    bounds = bounds or {}
    for key in bounds:
        if key.issue_date > issue_date:
            raise ValueError(f"bounds key {key} is dated after issue date {issue_date}")
    store = CoefficientStore() if store is None else store
    every = list(dict.fromkeys([*keys, *bounds]))
    codes, windows, block, to_fit = ({}, {}), {}, [], {}
    for key in every:
        kind, models = parse_strategy(key.strategy)
        if kind == "raw":
            raise ValueError(f"raw strategy {key.strategy!r} takes no coefficients")
        slot, where = (key.station_id, key.lead_time), (key.station_id, key.lead_time, key.issue_date)
        if where not in windows:
            windows[where] = select_window(archive[slot], key.issue_date, spec) if slot in archive else None
        window = windows[where]
        n_samples = len(window) if window else 0
        short = n_samples < spec.min_samples or not set(models) <= set(window.models)
        if not short:
            to_fit.setdefault(len(models), []).append((len(block), window, models, bounds.get(key, (math.inf,) * 2)))
        block.append(_record_row(codes, key, _IDENTITY[len(models)], n_samples, math.nan, True, short))
    rows = np.array(block, dtype=RECORD)
    updates, labels = CoefficientStore._of(codes, rows), [list(code) for code in codes]

    def latest(of, days, fits=False):  # the store row of each row's slot in the ``days`` before its date, -1 for none
        found = np.full(len(rows), -1)
        found[of] = store._find(labels, [*(rows[name][of] for name in _KEY[:3]), rows["day"][of] - 1], days - 1, fits)
        return found

    # A fit warm-starts from the slot's latest row of the 5 days before
    # (yesterday's coefficients are an excellent start on a window shifted
    # by a day); a short window reuses the latest fit of the 10 days before,
    # else keeps identity coefficients.
    warm, stale = latest(~rows["fallback"], 5), latest(rows["fallback"], REUSE_WINDOW_DAYS, fits=True)
    reused = ["a", "b", "c", "d", "objective", "converged"]
    rows[reused][stale >= 0] = store._rows[reused][stale[stale >= 0]]

    for k in sorted(to_fit):
        at, tables, models, caps = (list(column) for column in zip(*to_fit[k]))
        caps, warm_at = np.array(caps), warm[at]
        start = np.full((len(at), 2 * k + 2), math.nan)
        start[warm_at >= 0] = _theta_of(store._rows[warm_at[warm_at >= 0]], k)
        seeds = None
        if k > 1:  # the single-model rows of each slot, date and model: this call's, else the store's
            mixed, which = np.unique(rows["strategy"][at], return_inverse=True)
            singles = [single_strategy(m) for code in mixed.tolist() for m in parse_strategy(labels[1][code])[1]]
            query = [np.repeat(rows[name][at], k) for name in _KEY]
            query[2] = (which[:, None] * k + np.arange(k)).ravel()  # codes into ``singles``
            own, kept = (s._find((labels[0], singles), query) for s in (updates, store))
            single = np.zeros(len(at) * k, dtype=RECORD)
            single["fallback"] = True  # a missing seed, like a fallback one, seeds nothing
            single[kept >= 0] = store._rows[kept[kept >= 0]]
            single[own >= 0] = rows[own[own >= 0]]
            theta = _theta_of(single, 1).reshape(-1, k, 4)
            theta[single["fallback"].reshape(-1, k).any(axis=1)] = math.nan
            seeds = theta, single["objective"].reshape(-1, k)
        fit = fit_batch(tables, models, options, start, seeds, caps)
        rows["a"][at], rows["b"][at, :k], rows["c"][at], rows["d"][at, :k] = _coef_from(fit.theta, caps[:, 1])
        rows["objective"][at], rows["converged"][at] = fit.f, fit.converged
    return updates


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
    on_day = {}  # model -> rows of the date's ensembles
    init_times: dict[str, set] = {}
    for model, cube in forecasts.items():
        on_day[model] = rows = np.flatnonzero(cube.init_days[cube.init] == day)
        for s, t in set(zip(cube.station[rows].tolist(), cube.init[rows].tolist())):
            init_times.setdefault(cube.station_ids[s], set()).add(cube.init_times[t])
    if not init_times:
        return PredictionTable((), (), (), *[[]] * 6), {}
    for station_id, times in sorted(init_times.items()):
        if len(times) > 1:
            listed = ", ".join(t.strftime("%H:%M") for t in sorted(times))
            raise ValueError(
                f"station {station_id} has forecasts from {len(times)} init times on {issue_date} ({listed}); "
                "only one run per day is supported"
            )

    # The slots as codes: stations and strategies as indices into these labels.
    labels = [list(dict.fromkeys(column)) for column in zip(*slots)] or [[], [], []]
    codes = [{label: i for i, label in enumerate(column)} for column in labels]
    station = np.array([codes[0][sid] for sid, _, _ in slots], dtype=np.int64)
    lead = np.array([slot[1] for slot in slots], dtype=np.int64)
    strategy = np.array([codes[2][s] for _, _, s in slots], dtype=np.int64)

    stored = store._find((labels[0], labels[2]), [station, lead, strategy, np.full(len(slots), day)])
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
        record = store._rows[stored[at[ok]]]
        mean, std = (np.column_stack([getattr(forecasts[m], stat)[e[ok]] for m, e in zip(models, columns)])
                     for stat in ("mean", "std"))
        k = len(models)
        result = predict_columns(record["a"], record["b"][:, :k], record["c"], record["d"][:, :k], mean, std, min_sigma)
        found.append(at[ok])
        mu.append(result[0])
        sigma.append(result[1])
    found = np.concatenate(found or [np.empty(0, dtype=np.int64)])
    inits = [next(iter(init_times.get(sid, {None}))) for sid in labels[0]]
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
        zero = np.zeros(len(stations), dtype=np.int64)
        anchor_query = [np.arange(len(stations)), zero + tspec.anchor_lead, zero]  # each station's anchor, less its day
    taper_set = set(tapered)
    plain = [slot for slot in slots if slot not in taper_set]
    bounds: dict[CoefficientKey, tuple[float, float]] = {}  # the previous date's taper refits
    for issue in issue_dates:
        keys = [CoefficientKey(sid, lead, strategy, issue) for sid, lead, strategy in plain]
        updates = fit_for_issue(archive, issue, keys, spec, options, store, bounds)
        store.update(updates)
        if taper is None:
            continue
        anchors = updates._find((stations, [combined]), [*anchor_query, zero + issue.toordinal()])
        station_bounds = {}
        for sid, row in zip(stations, anchors.tolist()):
            if row < 0:
                raise ValueError(f"no anchor coefficients at lead {tspec.anchor_lead} for {sid} {issue}")
            station_bounds[sid] = transition1_bounds(updates._record(row).coefficients, tspec)
        bounds = {CoefficientKey(sid, lead, s, issue): station_bounds[sid][lead] for sid, lead, s in tapered}
    if bounds:
        store.update(fit_for_issue(archive, issue_dates[-1], [], spec, options, store, bounds))
    return store


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
