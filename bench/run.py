"""Benchmark of the emoskit CLI chain on synthetic data.

    python3 bench/run.py --workload hindcast --seed 1 --seconds 45 --trace 0

With ``--trace 0`` every stage runs as its own process, the way a user runs
it (``PYTHONPATH=src python -m emoskit.cli <stage> ...``), one at a time and
single-threaded. The run simulates the workload's data several times (the
median is ``setup_s``), then repeats the pipeline ``train -> predict [->
transition] -> verify`` until ``--seconds`` would be exceeded, at least
twice, and reports medians over the passes, scaled to a reference machine
speed measured by ``probe.py``. With ``--trace 1`` it runs the same chain in
one process under ``traced.py`` instead and reports per-layer metrics.

Checks: every stage exits 0 (exit 2, a fit that did not converge, is
counted in ``converged_frac``); every output exists; repeated simulations
and repeated pipeline passes of one seed give byte-identical files; no mixed
fit in the store is worse than the better of its single fits; and the
product's mean CRPS matches the value recorded for the seed in
``recorded.json``, when there is one.

The last line of standard output is the result object; the full record,
with the environment and per-pass figures, goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import harness as h
from traced import LAYER_UNITS

# Simulated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
# Pipeline passes per run at least, so outputs can be compared across passes.
MIN_PASSES = 2

# Time of probe.py on a quiet machine. A run's times are scaled by this over
# the median probe time of the run (see README.md, "Steadiness").
PROBE_REFERENCE_S = 0.6
TIME_METRICS = ("setup_s", "train_s", "pipeline_s", "pipeline_cpu_s")

# End-to-end metric -> unit. Stage times are medians over the passes of a run.
# predict, transition and verify take about a second each, most of it
# interpreter start-up, and vary too much from run to run to stand alone:
# pipeline_s covers them, and every pass record keeps their times.
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "fits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fit_crps": "degC",
    "converged_frac": "ratio",
}


def run_stage(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one CLI stage as a child process.

    Returns (exit code, wall seconds, user+sys CPU seconds, max RSS in MB),
    the CPU and RSS taken from the child's own rusage.
    """
    with log.open("w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "emoskit.cli", *argv], cwd=h.ROOT, env=h.stage_env(), stdout=fh, stderr=fh
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_probe() -> float:
    """Wall seconds of one probe.py process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(h.BENCH_DIR / "probe.py")], cwd=h.ROOT, env=h.stage_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class StageRunner:
    """Runs stages, logging each, and counts attempts and failures."""

    def __init__(self, log_dir: Path, checks: h.Checks):
        self.log_dir = log_dir
        self.checks = checks
        self.attempted = 0
        self.failed = 0

    def __call__(self, name: str, argv: list[str]):
        self.attempted += 1
        log = self.log_dir / f"{self.attempted:03d}-{name}.log"
        code, wall, cpu, rss = run_stage(argv, log)
        if code not in (0, 2):
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            self.checks.require(False, f"{name} exited {code}: {' | '.join(tail)}")
        return code, wall, cpu, rss


def run_untraced(workload: h.Workload, seed: int, seconds: float, tiny: bool, work: Path):
    checks = h.Checks()
    cfg_path, cfg = h.write_config(workload, tiny, work)
    stage = StageRunner(work, checks)

    probes = [run_probe()]
    setup_times, data_hashes = [], []
    for i in range(SETUP_REPEATS):
        data = work / f"data{i}"
        code, wall, _, _ = stage("simulate", h.simulate_argv(cfg_path, data, seed))
        if code != 0:
            return None, checks, stage
        setup_times.append(wall)
        data_hashes.append(h.hash_files([data], data))
        if i:
            checks.same_outputs(data_hashes[0], data_hashes[i], f"simulate repeat {i}")
            shutil.rmtree(data)
    data = work / "data0"
    probes.append(run_probe())

    passes, first_hashes = [], None
    start = time.perf_counter()
    while True:
        out = h.PassPaths(work / f"pass{len(passes)}")
        out.root.mkdir()
        t0 = time.perf_counter()
        times, cpu, rss, codes = {}, 0.0, 0.0, []
        for name, argv in h.pipeline_argvs(workload, cfg, cfg_path, data, out):
            code, wall, c, r = stage(name, argv)
            times[name], cpu, rss = wall, cpu + c, max(rss, r)
            codes.append(code)
            if code not in (0, 2):
                break
        pipeline = time.perf_counter() - t0
        files = h.pass_outputs(workload, out)
        missing = [f.name for f in files if not f.exists()]
        if missing or any(code not in (0, 2) for code in codes):
            checks.require(not missing, f"pass {len(passes)} wrote no {missing}")
            return None, checks, stage
        hashes = h.hash_files(files, out.root)
        if first_hashes is None:
            first_hashes = hashes
        else:
            checks.same_outputs(first_hashes, hashes, f"pipeline pass {len(passes)}")
        counts, crps = h.check_pass(workload, cfg, seed, tiny, out, checks)
        passes.append(
            {
                "train_s": times["train"],
                "predict_s": times["predict"],
                "transition_s": times.get("transition"),
                "verify_s": times["verify"],
                "pipeline_s": pipeline,
                "pipeline_cpu_s": cpu,
                "fits_per_s": counts.fitted / times["train"],
                "peak_rss_mb": rss,
                "fit_crps": counts.fit_crps,
                "converged_frac": 1.0 - counts.nonconverged / counts.records,
                "crps_product": crps,
                "store_records": counts.records,
                "fits": counts.fitted,
            }
        )
        probes.append(run_probe())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    raw = {"setup_s": median(setup_times)}
    for name in E2E_UNITS:
        if name != "setup_s":
            raw[name] = median([p[name] for p in passes])
    # Machine-speed scaling: times as they would read at the probe's
    # reference speed; the rate fits_per_s scales inversely.
    scale = PROBE_REFERENCE_S / median(probes)
    metrics = {name: value * scale if name in TIME_METRICS else value for name, value in raw.items()}
    metrics["fits_per_s"] = raw["fits_per_s"] / scale
    detail = {"setup_times_s": setup_times, "passes": passes, "probe_s": probes, "speed_scale": scale,
              "unscaled_metrics": raw, "output_sha256": first_hashes}
    return (metrics, detail), checks, stage


def run_traced(workload: h.Workload, seed: int, seconds: float, tiny: bool, work: Path):
    """Run traced.py in a child process and collect its per-layer metrics."""
    checks = h.Checks()
    argv = [sys.executable, str(h.BENCH_DIR / "traced.py"), "--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--work", str(work)]
    if tiny:
        argv.append("--tiny")
    log = work / "trace.log"
    with log.open("w", encoding="utf-8") as fh:
        proc = subprocess.run(argv, cwd=h.ROOT, env=h.stage_env(), stdout=subprocess.PIPE, stderr=fh, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        checks.require(False, f"traced.py exited {proc.returncode}: {' | '.join(tail)}")
        return None, checks, {"attempted": 1, "failed": 1}
    checks.failures.extend(out["check_failures"])
    if out["metrics"] is None:
        return None, checks, out["counts"]
    return (out["metrics"], out["detail"]), checks, out["counts"]


def emit(result: dict, record: dict, units: dict[str, str], out_file: Path) -> None:
    """Print metrics by name with unit, write the full record, and print the
    result object as the last line of standard output."""
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {units[name]}")
    for message in record.get("check_failures", []):
        print(f"check failed: {message}")
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(f"record: {out_file.relative_to(h.ROOT)}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(h.WORKLOADS))
    parser.add_argument("--seed", type=int, default=h.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (no recorded values apply)")
    args = parser.parse_args(argv)
    h.check_checkout()

    workload = h.WORKLOADS[args.workload]
    work = h.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            units = LAYER_UNITS
            measured, checks, counts = run_traced(workload, args.seed, args.seconds, args.tiny, work)
            attempted, failed = counts["attempted"], counts["failed"]
        else:
            units = E2E_UNITS
            measured, checks, stage = run_untraced(workload, args.seed, args.seconds, args.tiny, work)
            attempted, failed = stage.attempted, stage.failed
        if measured is None:
            print("\n".join(f"check failed: {m}" for m in checks.failures), file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": max(failed, 1), "metrics": {}}))
            return 1
        metrics, detail = measured
        result = {
            "correct": checks.ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "environment": h.environment_record(),
            "check_failures": checks.failures,
            "detail": detail,
        }
        emit(result, record, units, h.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
        return 0 if checks.ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
