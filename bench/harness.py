"""Workload definitions and output checks shared by ``run.py`` and ``traced.py``.

A workload is a config file under ``workloads/`` plus the stage flags that
turn it into the CLI chain ``simulate -> train -> predict [-> transition] ->
verify``. The benchmark writes everything it produces under ``.bench_work/``
at the root of the checkout.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
from dataclasses import dataclass
from datetime import date, timedelta
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The seed that recorded values refer to, and the held-out seed that later
# claims are re-checked on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# The product's mean CRPS may differ from the recorded value by this share.
# A solver that reaches the same optima moves it by far less; one that fits
# worse, or falls back to identity coefficients, moves it by more.
CRPS_TOLERANCE = 0.002

# Smaller problems for the smoke test: same stages, seconds instead of minutes.
TINY_OVERRIDES = {
    "hindcast": {"scenario.n_days": "14", "scenario.leads": "116-124", "window.days": "10", "window.min_samples": "5"},
    "operational": {"scenario.n_stations": "1", "scenario.n_days": "12", "scenario.leads": "118-122",
                    "window.days": "10", "window.min_samples": "5"},
}

# BLAS thread pools are pinned to one thread in every stage process. With the
# default pool, each L-BFGS-B iteration runs BLAS calls that spin up threads;
# measured on a 2-core Xeon, a fit was about 60 times slower while another
# process held the second core, which no run-to-run bound can absorb.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str  # transition scheme passed to train and transition
    last_date_only: bool  # train and predict only the last issue date
    product: str  # strategy whose mean CRPS is crps_product

    @property
    def runs_transition(self) -> bool:
        return self.scheme != "none"


WORKLOADS = {
    "hindcast": Workload("hindcast", "t1", False, "seam_t1"),
    "operational": Workload("operational", "none", True, "mixed:hires+global"),
}


def check_checkout() -> None:
    """Fail before any work when the program's sources are not present."""
    if not (SRC / "emoskit" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}; run from a full checkout")


def parse_config(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_config(workload: Workload, tiny: bool, out_dir: Path) -> tuple[Path, dict[str, str]]:
    """Copy the workload's config into ``out_dir``, with the tiny overrides
    appended (later keys win), and return its path and parsed values."""
    text = (BENCH_DIR / "workloads" / f"{workload.name}.cfg").read_text(encoding="utf-8")
    if tiny:
        text += "".join(f"{k} = {v}\n" for k, v in TINY_OVERRIDES[workload.name].items())
    path = out_dir / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path, parse_config(text)


def last_issue_date(cfg: dict[str, str]) -> date:
    start = date.fromisoformat(cfg["scenario.start"])
    return start + timedelta(days=int(cfg["scenario.n_days"]) - 1)


@dataclass(frozen=True)
class PassPaths:
    """Files one pipeline pass writes."""

    root: Path

    @property
    def store(self) -> Path:
        return self.root / "store.csv"

    @property
    def predictions(self) -> Path:
        return self.root / "predictions.csv"

    @property
    def seam(self) -> Path:
        return self.root / "seam.csv"

    @property
    def reports(self) -> Path:
        return self.root / "reports"


def simulate_argv(cfg_path: Path, data_dir: Path, seed: int) -> list[str]:
    return ["simulate", "--config", str(cfg_path), "--out", str(data_dir), "--seed", str(seed)]


def pipeline_argvs(workload: Workload, cfg: dict[str, str], cfg_path: Path, data_dir: Path, out: PassPaths):
    """(stage, argv) pairs of one pipeline pass, in order."""
    c, d = str(cfg_path), str(data_dir)
    issue = []
    if workload.last_date_only:
        last = last_issue_date(cfg).isoformat()
        issue = ["--issue-start", last, "--issue-end", last]
    stages = [
        ("train", ["train", "--config", c, "--data", d, "--store", str(out.store), "--jobs", "1",
                   "--scheme", workload.scheme, *issue]),
        ("predict", ["predict", "--config", c, "--data", d, "--store", str(out.store),
                     "--out", str(out.predictions), *issue]),
    ]
    predictions = [str(out.predictions)]
    if workload.runs_transition:
        stages.append(("transition", ["transition", "--config", c, "--predictions", str(out.predictions),
                                      "--out", str(out.seam), "--scheme", workload.scheme]))
        predictions.append(str(out.seam))
    stages.append(("verify", ["verify", "--config", c, "--data", d, "--predictions", *predictions,
                              "--out", str(out.reports), "--store", str(out.store)]))
    return stages


def hash_files(paths, base: Path) -> dict[str, str]:
    """sha256 of each file under ``paths`` (files or directories), keyed by
    the path relative to ``base``."""
    out = {}
    for p in map(Path, paths):
        for f in sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]:
            out[str(f.relative_to(base))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def pass_outputs(workload: Workload, out: PassPaths) -> list[Path]:
    files = [out.store, out.predictions, out.reports]
    if workload.runs_transition:
        files.append(out.seam)
    return files


# Slack on "mixed <= best single": twice the default fit tolerance (1e-8),
# plus the 9-significant-digit rounding of the store.
NESTING_SLACK = 3e-8


@dataclass(frozen=True)
class StoreSummary:
    records: int
    fitted: int  # fallback=false
    nonconverged: int
    identity: int  # fallback=true with objective nan
    stale: int  # fallback=true with a finite objective
    fit_crps: float  # mean objective (training-window CRPS) of the fitted records
    nesting_violations: int  # unbounded mixed fits worse than the better single fit


def store_summary(path: Path, bounded_leads=()) -> StoreSummary:
    """Counts over a coefficient store. Mixed records at ``bounded_leads``
    (t1 taper refits) are left out of the nesting check: their bounds may
    exclude the single-model embedding."""
    records = fitted = nonconverged = identity = stale = 0
    objective_sum = 0.0
    slots: dict[tuple[str, str, str], dict[str, float]] = {}  # (station, lead, issue) -> strategy -> objective
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            records += 1
            nonconverged += row["converged"] == "false"
            objective = float(row["objective"])
            if row["fallback"] == "false":
                fitted += 1
                objective_sum += objective
                slots.setdefault((row["station_id"], row["lead_h"], row["issue_date"]), {})[row["strategy"]] = objective
            elif math.isfinite(objective):
                stale += 1
            else:
                identity += 1
    violations = 0
    for (_, lead, _), fits in slots.items():
        if int(lead) in bounded_leads:
            continue
        for strategy, objective in fits.items():
            kind, _, models = strategy.partition(":")
            singles = [fits.get(f"single:{m}") for m in models.split("+")]
            if kind == "mixed" and None not in singles and objective > min(singles) + NESTING_SLACK:
                violations += 1
    return StoreSummary(records, fitted, nonconverged, identity, stale, objective_sum / max(fitted, 1), violations)


def product_crps(workload: Workload, reports: Path) -> float:
    with (reports / "crps_overall.csv").open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["strategy"] == workload.product:
                return float(row["mean_crps"])
    raise ValueError(f"{workload.product!r} missing from crps_overall.csv")


def check_pass(workload: Workload, cfg: dict[str, str], seed: int, tiny: bool, out: PassPaths, checks: Checks):
    """Output checks on one pipeline pass; returns (store summary, crps_product)."""
    bounded = ()
    if workload.scheme == "t1":
        horizon = int(cfg.get("transition.horizon", "120"))
        n_weights = len(cfg.get("transition.weights", "0.75,0.5,0.25").split(","))
        bounded = range(horizon - n_weights + 1, horizon + 1)
    summary = store_summary(out.store, bounded)
    checks.require(summary.fitted > 0, "no coefficients were fitted")
    checks.require(
        summary.nesting_violations == 0,
        f"{summary.nesting_violations} mixed fits have a higher objective than their better single fit",
    )
    crps = product_crps(workload, out.reports)
    checks.crps(workload, seed, tiny, crps)
    return summary, crps


def recorded_crps(workload: Workload, seed: int, tiny: bool) -> float | None:
    """crps_product recorded for this workload and seed, if there is one."""
    if tiny:
        return None
    recorded = json.loads((BENCH_DIR / "recorded.json").read_text(encoding="utf-8"))
    return recorded["crps_product"].get(workload.name, {}).get(str(seed))


class Checks:
    """Output checks of one run; each failure is kept as a message."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> bool:
        if not ok and message not in self.failures:
            self.failures.append(message)
        return ok

    def same_outputs(self, first: dict[str, str], other: dict[str, str], what: str) -> None:
        differing = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
        self.require(not differing, f"{what}: outputs differ in {differing}")

    def crps(self, workload: Workload, seed: int, tiny: bool, value: float) -> None:
        if not self.require(math.isfinite(value) and value > 0, f"crps_product {value} is not a positive number"):
            return
        expected = recorded_crps(workload, seed, tiny)
        if expected is not None:
            self.require(
                abs(value - expected) <= CRPS_TOLERANCE * expected,
                f"crps_product {value:.9g} differs from the recorded {expected:.9g} by more than {CRPS_TOLERANCE:.1%}",
            )

    @property
    def ok(self) -> bool:
        return not self.failures


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(SINGLE_THREAD_ENV)
    return env


def environment_record() -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": "1 (" + ", ".join(f"{k}=1" for k in SINGLE_THREAD_ENV) + ")",
        "machine_tuning": "none: no cache dropping, no CPU pinning",
    }
