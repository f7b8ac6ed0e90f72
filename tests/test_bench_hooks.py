"""The traced benchmark wraps program functions by (module, name) and counts
what they return; a rename or a new return type breaks ``bench/run.py
--trace 1``, so every hook must resolve and every counter must still count."""

import csv
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# One station, 8 days, leads across the global model's switch to 3-hourly
# steps at 90 h, so the lead interpolation fills gaps.
CHAIN_CFG = """
seed = 3
models = hires,global
strategies = raw:hires,single:hires,single:global,mixed:hires+global
scenario.n_stations = 1
scenario.n_days = 8
scenario.leads = 88-96
model.hires.members = 3
model.hires.horizon = 120
model.global.members = 5
model.global.horizon = 150
model.global.coarse_after = 90
window.days = 5
window.min_samples = 3
"""


def test_traced_spans_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("traced")
    assert traced.SPANS
    for span, (module, name) in traced.SPANS.items():
        target = getattr(importlib.import_module(f"emoskit.{module}"), name, None)
        assert callable(target), f"{span}: emoskit.{module}.{name} is not a callable"


def test_tracer_counts_match_the_chain_files(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("traced")
    modules = {name: importlib.import_module(f"emoskit.{name}") for name in traced.LAYERS}
    modules["package"] = importlib.import_module("emoskit")
    cfg, data = tmp_path / "run.cfg", tmp_path / "data"
    cfg.write_text(CHAIN_CFG)
    common = ["--config", str(cfg), "--data", str(data)]
    store, preds = str(tmp_path / "store.csv"), str(tmp_path / "predictions.csv")
    stages = [
        ["simulate", "--config", str(cfg), "--out", str(data)],
        ["train", *common, "--store", store],
        ["predict", *common, "--store", store, "--out", preds],
        ["verify", *common, "--predictions", preds, "--out", str(tmp_path / "reports")],
    ]
    original = modules["io"].read_forecasts
    tracer = traced.Tracer(modules)
    tracer.install()
    try:
        codes = [modules["cli"].main(argv) for argv in stages]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert modules["io"].read_forecasts is original

    rows = ensembles = 0
    for model in ("hires", "global"):
        with (data / f"forecasts_{model}.csv").open(newline="") as fh:
            table = list(csv.DictReader(fh))
        leads = {}
        for row in table:
            leads.setdefault((row["station_id"], row["init_time"]), set()).add(int(row["lead_h"]))
        rows += len(table)
        ensembles += sum(max(run) - min(run) + 1 for run in leads.values())  # every hour after interpolation
    loads = 3  # train, predict and verify each read and prepare both files
    assert tracer.counts["rows"] == loads * rows
    assert tracer.counts["ensembles_out"] == loads * ensembles
    assert tracer.counts["samples"] > 0


def test_train_records_one_fit_span_per_issue_date(monkeypatch, tmp_path):
    # The per-issue fit metrics come from the pipeline.fit_for_issue spans;
    # they read 0 when train fits its dates without calling it.
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("traced")
    modules = {name: importlib.import_module(f"emoskit.{name}") for name in traced.LAYERS}
    cfg, data = tmp_path / "run.cfg", tmp_path / "data"
    cfg.write_text(CHAIN_CFG)
    cli = modules["cli"]
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    tracer = traced.Tracer(modules)
    tracer.install()
    try:
        code = cli.main(["train", "--config", str(cfg), "--data", str(data), "--store", str(tmp_path / "store.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    with (data / "forecasts_hires.csv").open(newline="") as fh:
        issues = sorted({row["init_time"][:10] for row in csv.DictReader(fh)})
    assert len(issues) == 8
    assert list(tracer.name_id).count(tracer.names.index("pipeline.fit_for_issue")) == len(issues)
    assert sorted(d.isoformat() for d in tracer.issue_seconds) == issues
