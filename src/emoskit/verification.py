"""Verification of strategies on one aligned case set.

``verify`` takes what the drivers produce: Gaussian predictions keyed by
(station, init time, lead, strategy) as ``pipeline.predict_issues`` returns
them, each model's ``ForecastCube`` from ``pipeline.prepare_forecasts`` for
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
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import io as eio
from .domain import _HOUR, ForecastCube, GaussianPredictive, ObservationSeries, _micros
from .emos import ModelWeights, model_weights
from .pipeline import CoefficientKey, CoefficientStore, parse_strategy
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
    without a window); ``weights`` the store's mixed records (None without
    a store)."""

    cases: Cases
    crps: dict[str, np.ndarray]
    pit: dict[str, np.ndarray]
    report: VerificationReport
    pit_histograms: dict[str, PitHistogram]
    dm: dict[tuple[str, str], SignificanceResult]
    calibration: dict[tuple[str, int], tuple[int, float, float]]
    weights: list[tuple[CoefficientKey, ModelWeights]] | None
    seam: dict[str, SeamDiagnostics] | None


def _observed(observations: Mapping[str, ObservationSeries], stations: list[str], valid: np.ndarray) -> np.ndarray:
    """The observation of station ``stations[i]`` at each time of ``valid[i]``
    (``domain._micros``), NaN where there is none: one lookup per station."""
    y = np.full(valid.shape, np.nan)
    codes = np.array(stations)
    for sid in observations.keys() & set(stations):
        at = codes == sid
        y[at] = observations[sid].values_at(valid[at])
    return y


def _seam(table, observations, lo: int, hi: int) -> SeamDiagnostics | None:
    """Seam diagnostics of one strategy over its (station, init) cases with
    every lead of lo..hi and their observations."""
    leads = list(range(lo, hi + 1))
    # Cases in repr order: the summation order of the means in seam_diagnostics.csv.
    cases = sorted({(sid, init) for sid, init, lead in table if lo <= lead <= hi}, key=repr)
    preds = [[table.get((sid, init, lead)) for lead in leads] for sid, init in cases]
    valid = _micros(init for _, init in cases)[:, None] + _HOUR * np.array(leads)
    y = _observed(observations, [sid for sid, _ in cases], valid)
    kept = [None not in row and ok for row, ok in zip(preds, (~np.isnan(y).any(axis=1)).tolist())]
    if not any(kept):
        return None
    complete = [row for row, ok in zip(preds, kept) if ok]
    mu, sigma = (np.array([[getattr(p, name) for p in row] for row in complete]) for name in ("mu", "sigma"))
    return seam_diagnostics(mu, sigma, y[kept], leads)


def verify(
    predictions: Mapping[tuple[str, datetime, int, str], GaussianPredictive],
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
    tables: dict[str, dict] = {s: {} for s in strategies if not s.startswith("raw:")}
    for (sid, init, lead, strategy), pred in predictions.items():
        if strategy in tables:
            tables[strategy][(sid, init, lead)] = pred
    raw = {}  # strategy -> (cube, case -> ensemble index)
    for s in strategies:
        if s not in tables:
            cube = ensembles.get(parse_strategy(s)[1][0])
            raw[s] = (cube, {} if cube is None else dict(zip(cube.keys(), range(len(cube)))))
    keys = sorted(set.intersection(*(set(t) for t in (*tables.values(), *(index for _, index in raw.values())))))
    init_micros = {init: int(_micros([init])[0]) for init in {init for _, init, _ in keys}}
    valid = np.array([init_micros[init] + lead * _HOUR for _, init, lead in keys], dtype=np.int64)
    y = _observed(observations, [sid for sid, _, _ in keys], valid)
    finite = np.isfinite(y)
    keys = [c for c, ok in zip(keys, finite.tolist()) if ok]
    if not keys:
        raise ValueError("no aligned cases with observations")
    cases = Cases(
        station_ids=tuple(c[0] for c in keys),
        init_days=np.array([c[1].toordinal() for c in keys], dtype=np.int64),
        leads=np.array([c[2] for c in keys], dtype=np.int64),
        valid_times=tuple(init + timedelta(hours=lead) for _, init, lead in keys),
        y=y[finite],
        mu={s: np.array([t[c].mu for c in keys], dtype=float) for s, t in tables.items()},
        sigma={s: np.array([t[c].sigma for c in keys], dtype=float) for s, t in tables.items()},
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
            for lead in sorted(set(cases.leads.tolist())):
                at = cases.leads == lead
                spread, rmse = math.sqrt(np.mean(sigma[at] ** 2)), math.sqrt(np.mean((cases.y[at] - mu[at]) ** 2))
                calibration[(s, lead)] = (int(at.sum()), float(np.std(z[at])), spread / rmse if rmse else math.inf)
            continue
        u = rng.random(n)
        cube, index = raw[s]
        rows = np.array([index[c] for c in keys])
        for j in sorted(set(cube.block[rows].tolist())):
            idx = np.flatnonzero(cube.block[rows] == j)
            x = cube.members[j][cube.row[rows[idx]]]
            crps[s][idx] = ensemble_crps_rows(x, cases.y[idx])
            pit[s][idx] = randomized_ensemble_pit(x, cases.y[idx], u[idx])

    seam = None
    if seam_window is not None:
        diagnostics = {s: _seam(table, observations, *seam_window) for s, table in tables.items()}
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
        weights=None if store is None else [(key, model_weights(r.coefficients)) for key, r in store.items()
                                            if parse_strategy(key.strategy)[0] == "mixed"],
        seam=seam,
    )


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
    if result.weights is not None:
        tables["weights"] = (
            ["station_id", "init_time", "lead_h", "weight_mean", "weight_std"],
            [[k.station_id, eio.format_timestamp(datetime.combine(k.issue_date, datetime.min.time(), timezone.utc)),
              k.lead_time, f(w.weight_mean), f(w.weight_std)] for k, w in result.weights],
        )
    if result.seam is not None:
        tables["seam_diagnostics"] = (
            ["strategy", "lead_h", "mu_step", "sigma_step", "mean_crps"],
            [[s, lead, opt(d.mu_steps.get(lead)), opt(d.sigma_steps.get(lead)), f(d.mean_crps[lead])]
             for s, d in result.seam.items() for lead in d.leads],
        )
    for name, (header, rows) in tables.items():
        eio.write_table(out_dir / f"{name}.csv", header, rows)
