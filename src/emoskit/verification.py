"""Verification of strategies on one aligned case set.

``verify`` takes what the drivers produce: the ``domain.PredictionTable``
of Gaussian predictions that ``pipeline.predict_issues`` returns, each model's ``ForecastCube`` from ``pipeline.prepare_forecasts`` for
the ``raw:`` strategies, and the observation series, each looked up once at
the valid times of its station's cases (``ObservationSeries.values_at``), as
is the seam window. It aligns the cases every scored strategy covers into
arrays once and scores them in one pass:
closed-form CRPS and PIT for Gaussian strategies, one row-wise kernel CRPS
and randomized-rank PIT per member matrix of the cube for raw ones. The
report, PIT histograms, Diebold-Mariano matrix and calibration table derive
from them. Phi and the DM test's t tail are ``scoring.ndtr`` and
``scoring.student_t_tail``, so verifying loads no scipy module. ``write_reports``
writes the result as the ``verify`` command's tables.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import io as eio
from .domain import _EPOCH_DAY, _HOUR, ForecastCube, ObservationSeries, PredictionTable, _micros, lookup
from .pipeline import CoefficientStore, parse_strategy
from .scoring import (
    DM_ALPHA,
    PitHistogram,
    SignificanceResult,
    VerificationReport,
    aggregate_report,
    crps_normal_unit,
    dm_test,
    ensemble_crps_rows,
    ndtr,
    pit_histogram,
    randomized_ensemble_pit,
    stratum_labels,
)
from .transition import SeamDiagnostics, seam_diagnostics

__all__ = ["Cases", "Verification", "verify", "write_reports"]


@dataclass(frozen=True, eq=False)
class Cases:
    """The aligned cases in (station, init time, lead) order, with each
    Gaussian strategy's ``mu``/``sigma`` per case."""

    station_ids: tuple[str, ...]
    init_days: np.ndarray  # date.toordinal() of the init time
    leads: np.ndarray
    valid_times: tuple[datetime, ...]
    y: np.ndarray
    mu: dict[str, np.ndarray]
    sigma: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True, eq=False)
class Verification:
    """What ``verify`` derives, per strategy in scored order. ``dm`` holds
    the test of a against b for each pair (a, b). ``calibration`` maps each
    Gaussian strategy and lead to (n, z_std, spread_skill): the standard
    deviation of (y - mu) / sigma, and sqrt(mean(sigma^2)) over the RMSE of
    mu. ``seam`` holds the strategies with a complete seam window (None
    without a window); ``weights`` the predictor-1 weights of the store's
    mixed records in store order, as columns (None without a store): station
    id, issue date (``date.toordinal``), lead, and the weights of the mean and
    the spread (``emos.model_weights``)."""

    cases: Cases
    crps: dict[str, np.ndarray]
    pit: dict[str, np.ndarray]
    report: VerificationReport
    pit_histograms: dict[str, PitHistogram]
    dm: dict[tuple[str, str], SignificanceResult]
    calibration: dict[tuple[str, int], tuple[int, float, float]]
    weights: dict[str, np.ndarray] | None
    seam: dict[str, SeamDiagnostics] | None


def _observed(observations: Mapping[str, ObservationSeries], station_ids, station: np.ndarray,
              valid: np.ndarray) -> np.ndarray:
    """The observation of station ``station_ids[station[i]]`` at each time of
    ``valid[i]`` (``domain._micros``), NaN where there is none: one lookup per
    station."""
    y = np.full(valid.shape, np.nan)
    for code, sid in enumerate(station_ids):
        at = station == code
        if sid in observations and at.any():
            y[at] = observations[sid].values_at(valid[at])
    return y


def _seam(p: PredictionTable, rows: np.ndarray, observations, lo: int, hi: int) -> SeamDiagnostics | None:
    """Seam diagnostics of one strategy's ``rows`` of ``p`` over its (station,
    init) cases with every lead of lo..hi and their observations."""
    leads = list(range(lo, hi + 1))
    rows = rows[(p.lead[rows] >= lo) & (p.lead[rows] <= hi)]
    new = np.ones(len(rows), dtype=bool)  # the rows are in (station, init, lead) order
    new[1:] = (p.station[rows[1:]] != p.station[rows[:-1]]) | (p.init[rows[1:]] != p.init[rows[:-1]])
    firsts = rows[new]
    # Cases in repr order: the summation order of the means in seam_diagnostics.csv.
    order = sorted(range(len(firsts)), key=lambda c: repr((p.station_ids[p.station[firsts[c]]],
                                                           p.init_times[p.init[firsts[c]]])))
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[order] = np.arange(len(firsts))
    case = rank[np.cumsum(new) - 1]
    mu, sigma = np.full((2, len(firsts), len(leads)), np.nan)
    mu[case, p.lead[rows] - lo], sigma[case, p.lead[rows] - lo] = p.mu[rows], p.sigma[rows]
    firsts = firsts[order]
    valid = _micros(p.init_times)[p.init[firsts]][:, None] + _HOUR * np.array(leads)
    y = _observed(observations, p.station_ids, p.station[firsts], valid)
    kept = ~(np.isnan(mu).any(axis=1) | np.isnan(y).any(axis=1))
    if not kept.any():
        return None
    return seam_diagnostics(mu[kept], sigma[kept], y[kept], leads)


def verify(
    predictions: PredictionTable,
    ensembles: Mapping[str, ForecastCube],
    observations: Mapping[str, ObservationSeries],
    strategies: Sequence[str],
    reference: str,
    *,
    pit_bins: int = 20,
    alpha: float = DM_ALPHA,
    seed: int = 0,
    seam_window: tuple[int, int] | None = None,
    store: CoefficientStore | None = None,
) -> Verification:
    """Score ``strategies`` on the cases they all cover that have a finite
    observation.

    ``raw:<model>`` is scored on the cube ``ensembles[model]``, any other
    strategy on its ``predictions``. The raw strategies' randomized PIT draws
    one uniform per case, strategy after strategy, from
    ``SeedSequence(entropy=seed, spawn_key=(99,))``. ``seam_window`` (lo, hi) adds seam diagnostics over
    leads lo..hi. Raises ValueError when ``reference`` is not scored or no
    case is left.
    """
    strategies = list(strategies)
    if reference not in strategies:
        raise ValueError(f"reference strategy {reference!r} is not among scored strategies {strategies}")
    p = predictions
    code = {s: i for i, s in enumerate(p.strategies)}
    tables = {s: np.flatnonzero(p.strategy == code.get(s, -1)) for s in strategies if not s.startswith("raw:")}
    raw = {s: ensembles.get(parse_strategy(s)[1][0]) for s in strategies if s not in tables}
    cubes = [cube for cube in raw.values() if cube is not None]
    # Case keys as codes: stations into these sorted ids, init times as microseconds.
    station_ids = sorted(set(p.station_ids).union(*(cube.station_ids for cube in cubes)))
    index = {sid: i for i, sid in enumerate(station_ids)}

    def keys(table):  # of each row of a prediction table or ensemble of a cube
        codes = np.array([index[sid] for sid in table.station_ids], dtype=np.int64)
        return [codes[table.station], _micros(table.init_times)[table.init], table.lead]

    sets = {s: [k[rows] for k in keys(p)] for s, rows in tables.items()}
    sets.update({s: [np.empty(0, dtype=np.int64)] * 3 if cube is None else keys(cube) for s, cube in raw.items()})
    case = next(iter(sets.values()))
    for other in sets.values():
        case = [k[lookup(other, case) >= 0] for k in case]
    order = np.lexsort(case[::-1])
    station, init, lead = (k[order] for k in case)
    y = _observed(observations, station_ids, station, init + _HOUR * lead)
    finite = np.isfinite(y)
    station, init, lead = station[finite], init[finite], lead[finite]
    if not len(lead):
        raise ValueError("no aligned cases with observations")
    at = {s: lookup(sets[s], [station, init, lead]) for s in strategies}
    label = {m: t for table in (p, *cubes) for t, m in zip(table.init_times, _micros(table.init_times).tolist())}
    cases = Cases(
        station_ids=tuple(np.array(station_ids, dtype=object)[station].tolist()),
        init_days=init // (24 * _HOUR) + _EPOCH_DAY,
        leads=lead,
        valid_times=tuple(label[t] + timedelta(hours=h) for t, h in zip(init.tolist(), lead.tolist())),
        y=y[finite],
        mu={s: p.mu[rows[at[s]]] for s, rows in tables.items()},
        sigma={s: p.sigma[rows[at[s]]] for s, rows in tables.items()},
    )

    n = len(cases)
    crps = {s: np.empty(n) for s in strategies}
    pit = {s: np.empty(n) for s in strategies}
    calibration = {}
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
    for s in strategies:
        if s in tables:
            mu, sigma = cases.mu[s], cases.sigma[s]
            z = (cases.y - mu) / sigma
            crps[s], pit[s] = sigma * crps_normal_unit(z), ndtr(z)
            for h in sorted(set(cases.leads.tolist())):
                at_lead = cases.leads == h
                spread = math.sqrt(np.mean(sigma[at_lead] ** 2))
                rmse = math.sqrt(np.mean((cases.y[at_lead] - mu[at_lead]) ** 2))
                calibration[(s, h)] = (int(at_lead.sum()), float(np.std(z[at_lead])),
                                       spread / rmse if rmse else math.inf)
            continue
        u = rng.random(n)
        cube, rows = raw[s], at[s]
        for j in sorted(set(cube.block[rows].tolist())):
            idx = np.flatnonzero(cube.block[rows] == j)
            x = cube.members[j][cube.row[rows[idx]]]
            crps[s][idx] = ensemble_crps_rows(x, cases.y[idx])
            pit[s][idx] = randomized_ensemble_pit(x, cases.y[idx], u[idx])

    seam = None
    if seam_window is not None:
        diagnostics = {s: _seam(p, rows, observations, *seam_window) for s, rows in tables.items()}
        seam = {s: diag for s, diag in diagnostics.items() if diag is not None}
    return Verification(
        cases=cases,
        crps=crps,
        pit=pit,
        report=aggregate_report(crps, stratum_labels(cases.valid_times, cases.station_ids, cases.leads), reference),
        pit_histograms={s: pit_histogram(pit[s], pit_bins) for s in strategies},
        dm={(a, b): dm_test(crps[a] - crps[b], cases.init_days, int(cases.leads.max()), alpha)
            for i, a in enumerate(strategies) for b in strategies[i + 1:]},
        calibration=calibration,
        weights=None if store is None else _weights(store),
        seam=seam,
    )


def _weights(store: CoefficientStore) -> dict[str, np.ndarray]:
    """``Verification.weights`` of the store's mixed records."""
    station_ids, strategies, rows = store.table()
    mixed = np.array([parse_strategy(s)[0] == "mixed" for s in strategies], dtype=bool)
    rows = rows[mixed[rows["strategy"]]]
    out = {"station_id": np.array(station_ids, dtype=object)[rows["station"]],
           "issue_day": rows["day"], "lead_h": rows["lead"]}
    for name, column in (("weight_mean", rows["b"]), ("weight_std", rows["d"])):
        total = column[:, 0] + column[:, 1]
        out[name] = np.divide(column[:, 0], total, out=np.full(len(rows), 0.5), where=total > 0.0)
    return out


def _fmt_optional(x) -> str:
    return "" if x is None else eio.fmt_float(x)


# stratification -> label column of its crps_by_<stratification>.csv table
_STRATUM_COLUMNS = {"season": "season", "daynight": "stratum", "lead": "lead_h", "station": "station_id"}


def write_reports(out_dir: Path, result: Verification) -> None:
    """Write ``result`` into ``out_dir``: crps_overall.csv, one
    crps_by_<stratification>.csv each, pit_hist.csv, dm_matrix.csv and
    calibration.csv, plus weights.csv with a store and seam_diagnostics.csv
    with a seam window."""
    out_dir.mkdir(parents=True, exist_ok=True)
    f, opt, report = eio.fmt_float, _fmt_optional, result.report
    tables = {
        "crps_overall": (
            ["strategy", "n", "mean_crps", "crpss", "frac_stations_crpss_pos"],
            [[s, st.count, f(st.mean_crps), opt(st.crpss), opt(report.station_skill_fraction.get(s))]
             for s, st in sorted(report.overall.items())],
        ),
    }
    for name, label_col in _STRATUM_COLUMNS.items():
        by_label = report.by_stratum[name]
        tables[f"crps_by_{name}"] = (
            ["strategy", label_col, "n", "mean_crps", "crpss"],
            [[s, label, st.count, f(st.mean_crps), opt(st.crpss)]
             for s in sorted(by_label) for label, st in by_label[s].items()],
        )
    tables["pit_hist"] = (
        ["bin_lo", "bin_hi", "count", "strategy"],
        [[f(lo), f(hi), count, s] for s, hist in result.pit_histograms.items()
         for lo, hi, count in zip(hist.edges, hist.edges[1:], hist.counts)],
    )
    tables["dm_matrix"] = (
        ["strategy_a", "strategy_b", "n", "statistic", "p_value", "conclusion"],
        [[a, b, r.n, opt(r.statistic), opt(r.p_value), r.conclusion.value]
         for (a, b), r in result.dm.items()],
    )
    tables["calibration"] = (
        ["strategy", "lead_h", "n", "z_std", "spread_skill"],
        [[s, lead, count, f(z_std), f(ratio)] for (s, lead), (count, z_std, ratio) in result.calibration.items()],
    )
    if result.seam is not None:
        tables["seam_diagnostics"] = (
            ["strategy", "lead_h", "mu_step", "sigma_step", "mean_crps"],
            [[s, lead, opt(d.mu_steps.get(lead)), opt(d.sigma_steps.get(lead)), f(d.mean_crps[lead])]
             for s, d in result.seam.items() for lead in d.leads],
        )
    for name, (header, rows) in tables.items():
        eio.write_table(out_dir / f"{name}.csv", header, rows)
    if result.weights is not None:
        w = result.weights
        (stations, station), (days, day) = (np.unique(w[name], return_inverse=True)
                                            for name in ("station_id", "issue_day"))
        station_cells = eio.csv_cells(stations.tolist())
        inits = eio.csv_cells([f"{date.fromordinal(d).isoformat()}T00:00:00Z" for d in days.tolist()])
        eio.write_columns(out_dir / "weights.csv", ["station_id", "init_time", "lead_h", "weight_mean", "weight_std"],
                          "%s,%s,%s,%.9g,%.9g\n", len(day), lambda r: [station_cells[station[r]], inits[day[r]],
                                                                       w["lead_h"][r], w["weight_mean"][r],
                                                                       w["weight_std"][r]])
