"""In-process traced run of one workload, for the per-layer metrics.

    PYTHONPATH=src python3 bench/traced.py --workload hindcast --seed 1 --seconds 45 --work .bench_work/x

``run.py --trace 1`` starts this in a child process. It imports emoskit and
runs the same CLI chain as the untraced benchmark through ``cli.main``, in
pairs: once as is, then once with the functions below wrapped from outside
the program. Each wrapper records a span (name, start, end, parent) in
memory; the spans of the last traced pass are written to
``.bench_work/spans-<workload>-seed<seed>.npz`` at the end. Nothing under
``src/`` changes.

A span's self time is its duration minus the durations of its direct child
spans. Per-row helpers (timestamp parsing, float formatting) are not
wrapped: they run once per CSV cell and their spans would cost more than
the work.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import median

import harness as h

# span name -> (module, function). Span names are the module-qualified
# names later in-program instrumentation is expected to reuse.
SPANS = {
    "cli.simulate": ("cli", "cmd_simulate"),
    "cli.train": ("cli", "cmd_train"),
    "cli.predict": ("cli", "cmd_predict"),
    "cli.transition": ("cli", "cmd_transition"),
    "cli.verify": ("cli", "cmd_verify"),
    "cli._load_data": ("cli", "_load_data"),
    "io.read_forecasts": ("io", "read_forecasts"),
    "io.read_observations": ("io", "read_observations"),
    "io.read_store": ("io", "read_store"),
    "io.write_store": ("io", "write_store"),
    "io.read_predictions": ("io", "read_predictions"),
    "io.write_predictions": ("io", "write_predictions"),
    "io.write_forecasts": ("io", "write_forecasts"),
    "terrain.lapse_correct": ("terrain", "lapse_correct"),
    "synth.generate_scenario": ("synth", "generate_scenario"),
    "synth.interpolate_leads": ("synth", "interpolate_leads"),
    "domain.align": ("domain", "align"),
    "domain.ensemble_stats": ("domain", "ensemble_stats"),
    "pipeline.build_archive": ("pipeline", "build_archive"),
    "pipeline.fit_for_issue": ("pipeline", "fit_for_issue"),
    "pipeline.select_window": ("pipeline", "select_window"),
    "pipeline.predict_for_issue": ("pipeline", "predict_for_issue"),
    "emos.fit_single": ("emos", "fit_single"),
    "emos.fit_mixed": ("emos", "fit_mixed"),
    "emos.minimize": ("emos", "minimize"),  # scipy.optimize.minimize as emos calls it
    "scoring.gaussian_crps": ("scoring", "gaussian_crps"),
    "scoring.ensemble_crps": ("scoring", "ensemble_crps"),
    "scoring.pit_value": ("scoring", "pit_value"),
    "scoring.diebold_mariano": ("scoring", "diebold_mariano"),
    "scoring.stratified_report": ("scoring", "stratified_report"),
    "transition.transition1_bounds": ("transition", "transition1_bounds"),
    "transition.seam_diagnostics": ("transition", "seam_diagnostics"),
}
LAYERS = ("cli", "io", "terrain", "synth", "domain", "pipeline", "emos", "scoring", "transition")

LAYER_UNITS = {}
for _name in SPANS:
    LAYER_UNITS.update({f"{_name}.calls": "count", f"{_name}.s": "s", f"{_name}.self_s": "s"})
LAYER_UNITS.update(
    {
        "io.read_forecasts.rows": "count",
        "io.read_forecasts.us_per_row": "us",
        "synth.interpolate_leads.ensembles_out": "count",
        "domain.align.samples": "count",
        "pipeline.fit_for_issue.issue_dates": "count",
        "pipeline.fit_for_issue.p50_ms": "ms",
        "pipeline.fit_for_issue.tail_pct": "%",
        "pipeline.fit_for_issue.tail_ms": "ms",
        "pipeline.fallback_identity_frac": "ratio",
        "pipeline.fallback_stale_frac": "ratio",
        "emos.fit.p50_us": "us",
        "emos.nit_per_fit": "count",
        "emos.nfev_per_fit": "count",
        "emos.starts_per_fit": "count",
        "emos.nm_restarts": "count",
        "trace.pipeline_s": "s",
        "trace.overhead_s": "s",
    }
)
LAYER_UNITS.update({f"layer.{layer}.share": "ratio" for layer in LAYERS})


class Tracer:
    """Wraps functions in emoskit modules and records one span per call."""

    def __init__(self, modules: dict[str, object]):
        self.modules = modules
        self.names = list(SPANS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts = defaultdict(int)
        self.issue_seconds = defaultdict(float)  # issue date -> fit_for_issue seconds

    def _wrap(self, fn, nid: int, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            result = error = None
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                t1 = time.perf_counter()
                tracer.end[idx] = t1
                tracer._stack.pop()
                if after is not None:
                    after(args, kwargs, result, error, t1 - t0)

        return wrapper

    # Counters taken at the span boundary: (args, kwargs, result, error, seconds).
    def _after_read_forecasts(self, args, kwargs, result, error, dt):
        self.counts["rows"] += sum(len(fc.members) for fc in result or ())

    def _after_interpolate(self, args, kwargs, result, error, dt):
        self.counts["ensembles_out"] += len(result or ())

    def _after_align(self, args, kwargs, result, error, dt):
        self.counts["samples"] += len(result[0]) if result else 0

    def _after_fit_for_issue(self, args, kwargs, result, error, dt):
        issue = args[1] if len(args) > 1 else kwargs["issue_date"]
        self.issue_seconds[issue] += dt

    def _after_fit(self, args, kwargs, result, error, dt):
        fit = result if result is not None else getattr(error, "result", None)
        if fit is not None:
            self.counts["iterations"] += fit.n_iterations

    def _after_minimize(self, args, kwargs, result, error, dt):
        if result is not None:
            self.counts["nfev"] += int(result.nfev)
        if kwargs.get("method") == "Nelder-Mead":
            self.counts["nm_restarts"] += 1
        else:
            self.counts["lbfgsb_runs"] += 1

    def install(self) -> None:
        after = {
            "io.read_forecasts": self._after_read_forecasts,
            "synth.interpolate_leads": self._after_interpolate,
            "domain.align": self._after_align,
            "pipeline.fit_for_issue": self._after_fit_for_issue,
            "emos.fit_single": self._after_fit,
            "emos.fit_mixed": self._after_fit,
            "emos.minimize": self._after_minimize,
        }
        for nid, (name, (module, attr)) in enumerate(SPANS.items()):
            target = getattr(self.modules[module], attr)
            wrapper = self._wrap(target, nid, after.get(name))
            # `from .x import f` copies the binding: replace it wherever a
            # module of the package holds the same function object.
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def save(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest whole percentile with at least ten
    samples above it; (0, 0) when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    k = n - 10  # the k-th smallest value has exactly ten samples above it
    return float(math.floor(100 * k / n)), sorted(values)[k - 1]


def layer_metrics(tracer: Tracer, pipeline_s: float, store: h.StoreSummary) -> dict[str, float]:
    import numpy as np

    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    nested = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])
    self_s = dur - child
    # Root span of each span; parents always precede their children.
    root = np.arange(len(dur))
    for i in np.flatnonzero(nested):
        root[i] = root[parent[i]]
    in_pipeline = nid[root] != names.index("cli.simulate")

    m: dict[str, float] = {}
    for i, name in enumerate(names):
        sel = nid == i
        m[f"{name}.calls"] = int(sel.sum())
        m[f"{name}.s"] = float(dur[sel].sum())
        m[f"{name}.self_s"] = float(self_s[sel].sum())
    for layer in LAYERS:
        sel = in_pipeline & np.isin(nid, [i for i, n in enumerate(names) if n.split(".")[0] == layer])
        m[f"layer.{layer}.share"] = float(self_s[sel].sum()) / pipeline_s

    c = tracer.counts
    m["io.read_forecasts.rows"] = c["rows"]
    m["io.read_forecasts.us_per_row"] = 1e6 * m["io.read_forecasts.s"] / max(c["rows"], 1)
    m["synth.interpolate_leads.ensembles_out"] = c["ensembles_out"]
    m["domain.align.samples"] = c["samples"]
    per_issue = list(tracer.issue_seconds.values())
    m["pipeline.fit_for_issue.issue_dates"] = len(per_issue)
    m["pipeline.fit_for_issue.p50_ms"] = 1e3 * median(per_issue) if per_issue else 0.0
    pct, value = tail(per_issue)
    m["pipeline.fit_for_issue.tail_pct"] = pct
    m["pipeline.fit_for_issue.tail_ms"] = 1e3 * value
    m["pipeline.fallback_identity_frac"] = store.identity / store.records
    m["pipeline.fallback_stale_frac"] = store.stale / store.records
    fit_ids = [names.index("emos.fit_single"), names.index("emos.fit_mixed")]
    fit_dur = dur[np.isin(nid, fit_ids)]
    fits = max(len(fit_dur), 1)
    m["emos.fit.p50_us"] = 1e6 * float(np.median(fit_dur)) if len(fit_dur) else 0.0
    m["emos.nit_per_fit"] = c["iterations"] / fits
    m["emos.nfev_per_fit"] = c["nfev"] / fits
    m["emos.starts_per_fit"] = c["lbfgsb_runs"] / fits
    m["emos.nm_restarts"] = c["nm_restarts"]
    m["trace.pipeline_s"] = pipeline_s
    return m


def run_pass(cli, workload, cfg, cfg_path, seed, tiny, root: Path, checks: h.Checks, counts):
    """Simulate and run the pipeline in process. Returns (pipeline seconds,
    output hashes, store counts), or None when a stage failed."""
    data = root / "data"
    out = h.PassPaths(root / "out")
    out.root.mkdir(parents=True)
    stages = [("simulate", h.simulate_argv(cfg_path, data, seed))]
    stages += h.pipeline_argvs(workload, cfg, cfg_path, data, out)
    t_pipeline = None
    for name, argv in stages:
        if name == "train":
            t_pipeline = time.perf_counter()
        counts["attempted"] += 1
        code = cli.main(argv)
        if code not in (0, 2):
            counts["failed"] += 1
            checks.require(False, f"{name} exited {code} in process")
            return None
    pipeline_s = time.perf_counter() - t_pipeline
    summary, _ = h.check_pass(workload, cfg, seed, tiny, out, checks)
    return pipeline_s, h.hash_files(h.pass_outputs(workload, out), out.root), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(h.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    h.check_checkout()

    modules = {name: importlib.import_module(f"emoskit.{name}") for name in LAYERS}
    modules["package"] = importlib.import_module("emoskit")
    cli = modules["cli"]

    workload = h.WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    cfg_path, cfg = h.write_config(workload, args.tiny, args.work)
    checks = h.Checks()
    counts = {"attempted": 0, "failed": 0}
    untraced, traced, per_pass = [], [], []
    first_hashes, tracer = None, None
    start = time.perf_counter()
    while True:
        k = len(traced)
        plain = run_pass(cli, workload, cfg, cfg_path, args.seed, args.tiny, args.work / f"plain{k}", checks, counts)
        if plain is None:
            break
        tracer = Tracer(modules)
        tracer.install()
        try:
            done = run_pass(cli, workload, cfg, cfg_path, args.seed, args.tiny, args.work / f"traced{k}", checks, counts)
        finally:
            tracer.uninstall()
        if done is None:
            break
        for what, hashes in ((f"untraced pass {k}", plain[1]), (f"traced pass {k}", done[1])):
            if first_hashes is None:
                first_hashes = hashes
            else:
                checks.same_outputs(first_hashes, hashes, what)
        untraced.append(plain[0])
        traced.append(done[0])
        per_pass.append(layer_metrics(tracer, done[0], done[2]))
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > args.seconds:
            break

    if not traced:
        print(json.dumps({"check_failures": checks.failures, "counts": counts, "metrics": None, "detail": {}}))
        return 1
    tracer.save(h.WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    detail = {"untraced_inprocess_pipeline_s": untraced, "traced_pipeline_s": traced, "output_sha256": first_hashes}
    print(json.dumps({"check_failures": checks.failures, "counts": counts, "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
