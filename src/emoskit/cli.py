"""Command-line pipeline: simulate -> train -> predict -> transition -> verify.

Subcommands
-----------
simulate    Generate a synthetic scenario into a data directory (CSV tables
            plus a small ESRI ASCII elevation grid).
train       Fit coefficients per (station, lead, strategy) for every issue
            date in the archive and write the coefficient store.
predict     Apply a coefficient store to the forecasts of each issue date.
transition  Assemble the seam product (combined stream up to the horizon,
            continuing single-model stream beyond it), optionally blending
            with the post-horizon scheme.
verify      Score predictions and raw ensembles against observations and
            write stratified report tables, PIT histograms, a pairwise
            Diebold-Mariano matrix over init dates, a calibration table,
            weight time series and seam diagnostics.
tpi         Topographic position index of each station on an elevation grid.

Exit codes: 0 success, 1 input error, 2 at least one fit did not converge
(partial outputs are still written, with flags).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from datetime import date, datetime, timezone
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import io as eio
from .domain import ForecastCube
from .emos import FitOptions
from .pipeline import (
    RollingWindowSpec,
    build_archive,
    coefficient_slots,
    grid_elevations,
    lead_coverage,
    mixed_strategy,
    parse_strategy,
    predict_issues,
    prepare_forecasts,
    train,
)
from .synth import ModelErrorSpec, ScenarioSpec, TruthSpec, generate_scenario
from .terrain import ElevationGrid, read_esri_ascii, tpi_at_station, write_esri_ascii
from .transition import TransitionSpec, assemble_seam
from .verification import verify, write_reports

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Spec'd exit code for usage errors is 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_leads(raw: str) -> tuple[int, ...]:
    leads: set[int] = set()
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo, _, hi = chunk.partition("-")
            if int(hi) < int(lo):
                raise ValueError(f"lead range {chunk!r} in {raw!r} runs backwards")
            leads.update(range(int(lo), int(hi) + 1))
        else:
            leads.add(int(chunk))
    if not leads:
        raise ValueError(f"no lead times in {raw!r}")
    return tuple(sorted(leads))


def _utc(t: datetime) -> datetime:
    """``t`` in UTC; a naive time is taken as UTC."""
    return t.replace(tzinfo=timezone.utc) if t.tzinfo is None else t.astimezone(timezone.utc)


# The parser of a config value, by the annotation of the parameter it sets.
_PARSERS = {int: int, float: float, str: str, int | None: lambda raw: None if raw.lower() == "none" else int(raw),
            tuple[int, ...]: _parse_leads, tuple[float, ...]: lambda raw: tuple(float(w) for w in raw.split(",")),
            datetime: lambda raw: _utc(datetime.fromisoformat(raw))}

# Parameter -> config key, per spec class or function that the config sets; a
# model's keys follow "model.<id>.".
_MODEL_KEYS = {"member_count": "members", "error_growth_per_hour": "error_growth"} | {name: name for name in (
    "horizon", "bias_amplitude", "bias_peak_hour", "bias_variability", "error_base_std", "error_lead_correlation",
    "dispersion", "coarse_after", "coarse_step", "elevation_offset_std")}
_TRUTH_KEYS = {"level": "truth.level", "diurnal_amplitude": "truth.diurnal_amplitude",
               "seasonal_amplitude": "truth.seasonal_amplitude", "ar1_coefficient": "truth.ar1",
               "innovation_std": "truth.innovation_std"}
_SCENARIO_KEYS = {"seed": "seed", "n_stations": "scenario.n_stations", "n_days": "scenario.n_days",
                  "lead_hours": "scenario.leads", "start": "scenario.start"}
_WINDOW_KEYS = {"window_days": "window.days", "min_samples": "window.min_samples"}
_FIT_KEYS = {"max_iterations": "fit.max_iterations", "objective_tolerance": "fit.tolerance", "min_sigma": "fit.min_sigma"}
_TRANSITION_KEYS = {"horizon": "transition.horizon", "scheme": "transition.scheme", "weights": "transition.weights"}
_VERIFY_KEYS = {"pit_bins": "verify.pit_bins", "alpha": "verify.alpha", "seed": "seed"}


@cache
def _parameters(target):
    return inspect.signature(target, eval_str=True).parameters


def _settings(cfg, target, keys: dict[str, str], **flags) -> dict:
    """Keyword arguments of ``target`` (a spec class or a function): each flag
    that is not None, and each other parameter in ``keys`` (parameter ->
    config key) whose key is set, parsed by the parameter's annotation. An
    absent or empty key leaves the parameter its default; a value that does
    not parse raises ValueError naming its key."""
    out = {name: value for name, value in flags.items() if value is not None}
    for name, key in keys.items():
        raw = cfg.get(key)
        if raw and name not in out:
            try:
                out[name] = _PARSERS[_parameters(target)[name].annotation](raw)
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from None
    return out


def _setting(cfg, target, name: str, key: str):
    """One parameter of ``target``: its config ``key`` parsed, or its default."""
    return _settings(cfg, target, {name: key}).get(name, _parameters(target)[name].default)


def _model_ids(cfg) -> list[str]:
    raw = cfg.get("models")
    if raw:
        return [m.strip() for m in raw.split(",") if m.strip()]
    found = sorted({key.split(".")[1] for key in cfg if key.startswith("model.")})
    if not found:
        raise ValueError("no models configured (set 'models' or model.<id>.* keys)")
    return found


def _model_spec(cfg, model_id: str) -> ModelErrorSpec:
    keys = {name: f"model.{model_id}.{key}" for name, key in _MODEL_KEYS.items()}
    return ModelErrorSpec(**_settings(cfg, ModelErrorSpec, keys))


def _scenario_spec(cfg, seed_override=None) -> ScenarioSpec:
    models = {m: _model_spec(cfg, m) for m in _model_ids(cfg)}
    truth = TruthSpec(**_settings(cfg, TruthSpec, _TRUTH_KEYS))
    return ScenarioSpec(**_settings(cfg, ScenarioSpec, _SCENARIO_KEYS, seed=seed_override), truth=truth, models=models)


def _window_spec(cfg) -> RollingWindowSpec:
    return RollingWindowSpec(**_settings(cfg, RollingWindowSpec, _WINDOW_KEYS))


def _fit_options(cfg) -> FitOptions:
    return FitOptions(**_settings(cfg, FitOptions, _FIT_KEYS))


def _transition_spec(cfg, scheme_override=None) -> TransitionSpec:
    return TransitionSpec(**_settings(cfg, TransitionSpec, _TRANSITION_KEYS, scheme=scheme_override))


def _strategies(cfg) -> list[str]:
    raw = cfg.get("strategies")
    if raw:
        strategies = [s.strip() for s in raw.split(",") if s.strip()]
    else:
        models = _model_ids(cfg)
        strategies = [f"raw:{m}" for m in models] + [f"single:{m}" for m in models]
        if len(models) >= 2:
            strategies.append(mixed_strategy(models[0], models[1]))
    for s in strategies:
        parse_strategy(s)
    if not strategies:
        raise ValueError("strategy list is empty")
    return strategies


def _continuing_strategy(cfg) -> str:
    explicit = cfg.get("transition.continuing")
    if explicit:
        return explicit
    models = _model_ids(cfg)
    longest = max(models, key=lambda m: _setting(cfg, ModelErrorSpec, "horizon", f"model.{m}.horizon"))
    return f"single:{longest}"


def _mixed_strategy_name(cfg) -> str:
    for s in _strategies(cfg):
        if parse_strategy(s)[0] == "mixed":
            return s
    raise ValueError("no mixed strategy configured")


# ---------------------------------------------------------------------------
# Shared data loading
# ---------------------------------------------------------------------------


def _load_data(cfg, data_dir: Path, keep=None):
    """Read observations and one forecast cube per model; lapse-correct
    members to station elevation and fill coarse lead grids by linear
    interpolation. ``keep``, a test on UTC init dates, limits the cubes to
    the ensembles of the dates it takes (``io.read_forecasts``).

    Returns the observations, the cubes, the init dates of the forecast files
    and each model's lead coverage; those two, and the station check, take
    every row of the files, kept or not."""
    stations = eio.read_stations(data_dir / "stations.csv")
    observations = eio.read_observations(data_dir / "observations.csv")
    forecasts: dict[str, ForecastCube] = {}
    init_dates: set[date] = set()
    coverage: dict[str, set[int]] = {}
    for model_id in _model_ids(cfg):
        raw = eio.read_forecasts(data_dir / f"forecasts_{model_id}.csv", model_id, keep)
        coarse_step = _setting(cfg, ModelErrorSpec, "coarse_step", f"model.{model_id}.coarse_step")
        grid_elevations(model_id, raw.file_station_ids, stations)
        forecasts[model_id] = prepare_forecasts(raw, stations, coarse_step)
        init_dates.update(t.date() for t in raw.file_init_times)
        coverage[model_id] = lead_coverage(raw.file_lead_grids, coarse_step)
        del raw  # before the next file is read
    return observations, forecasts, sorted(init_dates), coverage


def _leads(cfg) -> tuple[int, ...]:
    return _setting(cfg, ScenarioSpec, "lead_hours", "scenario.leads")


def _slots(cfg, coverage, observations):
    return coefficient_slots(coverage, sorted(observations), _leads(cfg), _strategies(cfg))


def _check_issue_range(args) -> None:
    """Reject ``--issue-start`` after ``--issue-end`` before any data is read."""
    if args.issue_start is not None and args.issue_end is not None and args.issue_start > args.issue_end:
        raise ValueError(f"--issue-start {args.issue_start} is after --issue-end {args.issue_end}")


def _in_range(d: date, start=None, end=None) -> bool:
    return (start is None or d >= start) and (end is None or d <= end)


def _issue_dates(dates, start=None, end=None) -> list[date]:
    """The forecast init dates (sorted ``dates``) in [start, end]; a range
    that holds none is an error, not an empty store or prediction file."""
    issues = [d for d in dates if _in_range(d, start, end)]
    if not issues:
        first, last = (dates[0], dates[-1]) if dates else (None, None)
        raise ValueError(f"no issue dates between {start or first} and {end or last} "
                         f"(forecast init dates run from {first} to {last})")
    return issues


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _demo_grid(stations) -> ElevationGrid:
    """Smooth synthetic terrain covering the station box with a margin, so
    every station sits on an interior cell."""
    lons = [s.longitude for s in stations]
    lats = [s.latitude for s in stations]
    cell = 0.05
    x0 = math.floor((min(lons) - 3 * cell) / cell) * cell
    y0 = math.floor((min(lats) - 3 * cell) / cell) * cell
    n_cols = int((max(lons) - x0) / cell) + 4
    n_rows = int((max(lats) - y0) / cell) + 4
    values = []
    for r in range(n_rows):
        y = y0 + (n_rows - 1 - r + 0.5) * cell
        for c in range(n_cols):
            x = x0 + (c + 0.5) * cell
            elev = (
                700.0
                + 1500.0 * math.sin(1.1 * (x - x0)) ** 2 * math.cos(1.7 * (y - y0)) ** 2
                + 300.0 * math.sin(6.0 * (x - x0)) * math.cos(5.0 * (y - y0))
            )
            values.append(round(elev, 2))
    return ElevationGrid(
        n_rows=n_rows, n_cols=n_cols, cell_size=cell, origin=(x0, y0), values=tuple(values), nodata=-9999.0
    )


def cmd_simulate(args) -> int:
    cfg = eio.parse_config(args.config)
    spec = _scenario_spec(cfg, seed_override=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    data = generate_scenario(spec)
    model_ids = sorted(spec.models)
    eio.write_stations(out_dir / "stations.csv", data.stations, model_ids)
    eio.write_observations(out_dir / "observations.csv", data.observations)
    for model_id in model_ids:
        eio.write_forecasts(out_dir / f"forecasts_{model_id}.csv", data.forecasts[model_id])
    write_esri_ascii(out_dir / "topo.asc", _demo_grid(data.stations))
    n_forecasts = sum(len(v) for v in data.forecasts.values())
    print(f"simulated {spec.n_stations} stations x {spec.n_days} days -> {n_forecasts} forecasts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = eio.parse_config(args.config)
    _check_issue_range(args)
    observations, forecasts, init_dates, coverage = _load_data(cfg, Path(args.data))
    issues = _issue_dates(init_dates, args.issue_start, args.issue_end)
    tspec = _transition_spec(cfg, scheme_override=args.scheme)
    taper = (tspec, _mixed_strategy_name(cfg)) if tspec.scheme == "t1" else None
    archive, dropped = build_archive(forecasts, observations, _leads(cfg))
    if dropped:
        print(f"note: {dropped} incomplete init times dropped during alignment", file=sys.stderr)

    slots = _slots(cfg, coverage, observations)
    store = train(archive, issues, slots, _window_spec(cfg), _fit_options(cfg), taper)
    eio.write_store(args.store, store)
    records = store.table()[2]
    print(f"trained {len(records)} records over {len(issues)} issue dates ({records['fallback'].sum()} fallbacks) "
          f"-> {args.store}")
    if not records["converged"].all():
        print("warning: at least one fit did not converge (flagged in store)", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    cfg = eio.parse_config(args.config)
    _check_issue_range(args)
    start, end = args.issue_start, args.issue_end
    keep = None if start is None and end is None else partial(_in_range, start=start, end=end)
    observations, forecasts, init_dates, coverage = _load_data(cfg, Path(args.data), keep)
    issues = _issue_dates(init_dates, start, end)
    store = eio.read_store(args.store)
    slots = _slots(cfg, coverage, observations)
    predictions, errors = predict_issues(store, forecasts, issues, slots, min_sigma=_fit_options(cfg).min_sigma)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)

    eio.write_predictions(args.out, predictions)
    print(f"wrote {len(predictions)} predictions -> {args.out}")
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# transition
# ---------------------------------------------------------------------------


def cmd_transition(args) -> int:
    cfg = eio.parse_config(args.config)
    tspec = _transition_spec(cfg, scheme_override=args.scheme)
    label = f"seam_{tspec.scheme}"
    seam = assemble_seam(eio.read_predictions(args.predictions), tspec, _mixed_strategy_name(cfg),
                         _continuing_strategy(cfg), label, min_sigma=_fit_options(cfg).min_sigma)
    eio.write_predictions(args.out, seam)
    print(f"wrote {len(seam)} seam predictions ({label}) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _seam_window(cfg) -> tuple[int, int] | None:
    raw = cfg.get("verify.seam_window", "")
    if not raw:
        return None
    lo, sep, hi = raw.partition("-")
    if not (sep and lo.strip().isdigit() and hi.strip().isdigit() and int(lo) < int(hi)):
        raise ValueError(f"verify.seam_window must be 'lo-hi' with lo < hi, got {raw!r}")
    return int(lo), int(hi)


def cmd_verify(args) -> int:
    cfg = eio.parse_config(args.config)
    seam_window = _seam_window(cfg)
    predictions = eio.read_predictions(*args.predictions)
    gaussian_strategies = list(predictions.strategies)
    raw_strategies = [s for s in _strategies(cfg) if parse_strategy(s)[0] == "raw"]
    if args.strategies:
        known = gaussian_strategies + raw_strategies
        wanted = [s.strip() for s in args.strategies.split(",") if s.strip()]
        unknown = [s for s in wanted if s not in known]
        if unknown:
            raise ValueError(f"unknown strategy {unknown[0]!r} in --strategies (known: {', '.join(known)})")
        gaussian_strategies = [s for s in gaussian_strategies if s in wanted]
        raw_strategies = [s for s in raw_strategies if s in wanted]
    # The cases are those every scored strategy covers, so the raw ensembles
    # needed are those of the init dates the Gaussian strategies predict.
    scored = np.array([s in gaussian_strategies for s in predictions.strategies], dtype=bool)[predictions.strategy]
    init_dates = {predictions.init_times[t].date() for t in set(predictions.init[scored].tolist())}
    observations, forecasts, _, _ = _load_data(cfg, Path(args.data), init_dates.__contains__ if init_dates else None)
    reference = args.reference or cfg.get("reference") or _strategies(cfg)[0]

    result = verify(
        predictions, forecasts, observations, gaussian_strategies + raw_strategies, reference,
        **_settings(cfg, verify, _VERIFY_KEYS), seam_window=seam_window,
        store=eio.read_store(args.store) if args.store else None,
    )
    out_dir = Path(args.out)
    write_reports(out_dir, result)
    print(f"verified {len(result.cases)} cases x {len(result.crps)} strategies -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# tpi
# ---------------------------------------------------------------------------


def cmd_tpi(args) -> int:
    grid = read_esri_ascii(args.grid)
    stations = eio.read_stations(args.stations)
    rows = []
    for station in sorted(stations, key=lambda s: s.station_id):
        try:
            value = tpi_at_station(grid, station)
        except ValueError as err:
            print(f"error: {station.station_id}: {err}", file=sys.stderr)
            continue
        rows.append([station.station_id, eio.fmt_float(value)])
    eio.write_table(args.out, ["station_id", "tpi_m"], rows)
    print(f"wrote TPI for {len(rows)}/{len(stations)} stations -> {args.out}")
    return 1 if len(rows) < len(stations) else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", required=True, help="flat key = value config file")


def _date_arg(raw):
    return date.fromisoformat(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emoskit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    _add_common(p)
    p.add_argument("--out", required=True, help="output data directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit coefficients over all issue dates")
    _add_common(p)
    p.add_argument("--data", required=True, help="data directory from simulate")
    p.add_argument("--store", required=True, help="coefficient store output path")
    p.add_argument("--scheme", choices=["none", "t1", "t2"], default=None, help="transition scheme")
    p.add_argument("--issue-start", type=_date_arg, default=None)
    p.add_argument("--issue-end", type=_date_arg, default=None)
    p.add_argument(
        "--jobs", type=int, default=1, help="ignored: the fits run in batched solves"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a coefficient store")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="predictions.csv output path")
    p.add_argument("--issue-start", type=_date_arg, default=None)
    p.add_argument("--issue-end", type=_date_arg, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("transition", help="assemble the seam product across the horizon")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", choices=["none", "t1", "t2"], default=None)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("verify", help="score predictions and write report tables")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--predictions", nargs="+", required=True, help="one or more predictions.csv files")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--reference", default=None, help="reference strategy for CRPSS")
    p.add_argument("--strategies", default=None, help="comma-separated subset of strategies to score")
    p.add_argument("--store", default=None, help="coefficient store for the weight time series")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tpi", help="topographic position index per station")
    p.add_argument("--grid", required=True, help="ESRI ASCII elevation grid")
    p.add_argument("--stations", required=True, help="stations.csv")
    p.add_argument("--out", required=True, help="TPI csv output")
    p.set_defaults(func=cmd_tpi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except (eio.SchemaError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
