import os
import re
import shutil
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from emoskit import cli, randomized_ensemble_pit
from emoskit.cli import main
from emoskit.domain import ensemble_stats
from emoskit.emos import FitOptions
from emoskit.io import read_forecasts, read_predictions, read_stations, read_store, write_predictions
from emoskit.pipeline import RollingWindowSpec
from emoskit.synth import ModelErrorSpec, ScenarioSpec
from emoskit.terrain import lapse_correct
from emoskit.transition import TransitionSpec
from emoskit.verification import verify

from conftest import prediction_dict, prediction_table
from store_records import records_of

BASIC_CFG = """
seed = 42
models = hires,global
strategies = raw:hires,raw:global,single:hires,single:global,mixed:hires+global
reference = raw:hires
scenario.n_stations = 3
scenario.n_days = 58
scenario.leads = 12,21
scenario.start = 2017-01-01
truth.seasonal_amplitude = 2.0
model.hires.members = 11
model.hires.horizon = 120
model.hires.bias_amplitude = 1.6
model.hires.bias_peak_hour = 13
model.hires.dispersion = 0.35
model.hires.elevation_offset_std = 120
model.global.members = 15
model.global.horizon = 150
model.global.bias_amplitude = -2.2
model.global.bias_peak_hour = 1
model.global.dispersion = 0.55
model.global.coarse_after = 90
model.global.elevation_offset_std = 400
window.days = 45
window.min_samples = 30
verify.pit_bins = 10
"""

SHORT_CFG = BASIC_CFG.replace("scenario.n_days = 58", "scenario.n_days = 8")

SEAM_CFG = """
seed = 9
models = hires,global
strategies = single:hires,single:global,mixed:hires+global
reference = single:global
scenario.n_stations = 2
scenario.n_days = 48
scenario.leads = 116-124
truth.seasonal_amplitude = 2.0
model.hires.members = 9
model.hires.horizon = 120
model.hires.bias_amplitude = 1.6
model.hires.bias_peak_hour = 13
model.hires.dispersion = 0.4
model.global.members = 13
model.global.horizon = 150
model.global.bias_amplitude = -2.2
model.global.bias_peak_hour = 1
model.global.dispersion = 0.6
model.global.coarse_after = 90
window.days = 45
window.min_samples = 30
transition.horizon = 120
transition.continuing = single:global
verify.seam_window = 117-123
verify.pit_bins = 10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def basic_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("basic")
    cfg = write_cfg(root, BASIC_CFG)
    data = root / "data"
    store = root / "coeffs.csv"
    preds = root / "predictions.csv"
    reports = root / "reports"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data), "--store", str(store)]) == 0
    assert main(["predict", "--config", cfg, "--data", str(data), "--store", str(store), "--out", str(preds)]) == 0
    assert (
        main(
            [
                "verify",
                "--config",
                cfg,
                "--data",
                str(data),
                "--predictions",
                str(preds),
                "--out",
                str(reports),
                "--store",
                str(store),
            ]
        )
        == 0
    )
    return {"cfg": cfg, "data": data, "store": store, "preds": preds, "reports": reports}


class TestSimulate:
    def test_outputs_exist(self, basic_run):
        data = basic_run["data"]
        for name in ("observations.csv", "forecasts_hires.csv", "forecasts_global.csv", "stations.csv", "topo.asc"):
            assert (data / name).exists()

    def test_deterministic(self, basic_run, tmp_path):
        cfg = basic_run["cfg"]
        again = tmp_path / "data2"
        assert main(["simulate", "--config", cfg, "--out", str(again)]) == 0
        for name in ("observations.csv", "forecasts_hires.csv", "stations.csv", "topo.asc"):
            assert (again / name).read_bytes() == (basic_run["data"] / name).read_bytes()

    def test_seed_flag_changes_output(self, basic_run, tmp_path):
        cfg = basic_run["cfg"]
        other = tmp_path / "data3"
        assert main(["simulate", "--config", cfg, "--out", str(other), "--seed", "4242"]) == 0
        assert (other / "observations.csv").read_bytes() != (basic_run["data"] / "observations.csv").read_bytes()


class TestTrain:
    def test_store_contents(self, basic_run):
        store = read_store(basic_run["store"])
        records = list(records_of(store).items())
        assert records
        fresh = [r for _, r in records if not r.fallback]
        fallback = [r for _, r in records if r.fallback]
        assert fresh and fallback  # early issues fall back, later ones fit
        assert all(r.converged for _, r in records)

    def test_rerun_is_idempotent(self, basic_run, tmp_path):
        store2 = tmp_path / "coeffs2.csv"
        assert (
            main(["train", "--config", basic_run["cfg"], "--data", str(basic_run["data"]), "--store", str(store2)])
            == 0
        )
        assert Path(store2).read_bytes() == Path(basic_run["store"]).read_bytes()


class TestPredict:
    def test_predictions_cover_strategies(self, basic_run):
        strategies = set(read_predictions(basic_run["preds"]).strategies)
        assert strategies == {"single:hires", "single:global", "mixed:hires+global"}

    def test_identity_fallback_equals_corrected_ensemble(self, tmp_path):
        cfg = write_cfg(tmp_path, SHORT_CFG)
        data = tmp_path / "data"
        store = tmp_path / "coeffs.csv"
        preds = tmp_path / "predictions.csv"
        assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["train", "--config", cfg, "--data", str(data), "--store", str(store)]) == 0
        assert main(["predict", "--config", cfg, "--data", str(data), "--store", str(store), "--out", str(preds)]) == 0
        stations = {s.station_id: s for s in read_stations(data / "stations.csv")}
        forecasts = read_forecasts(data / "forecasts_hires.csv", "hires")
        lookup = {(f.station_id, f.init_time, f.lead_time): f for f in forecasts}
        hires = {key[:3]: pred for key, pred in prediction_dict(read_predictions(preds)).items() if key[3] == "single:hires"}
        assert hires
        for (sid, init, lead), pred in hires.items():
            fc = lookup[(sid, init, lead)]
            st = stations[sid]
            mean, std = ensemble_stats(lapse_correct(fc.members, st.grid_elevation["hires"], st.elevation))
            # predictions.csv carries 9 significant digits
            assert pred.mu == pytest.approx(mean, rel=1e-8)
            assert pred.sigma == pytest.approx(max(std, 1e-3), rel=1e-8)

    def test_two_init_times_per_day_rejected(self, basic_run, tmp_path, capsys):
        # A 12 UTC run next to the 00 UTC one on the last day: one ensemble per
        # (station, model, lead) and day is all a prediction can be keyed by.
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "forecasts_hires.csv"
        lines = path.read_text().splitlines(keepends=True)
        extra = [
            line.replace("T00:00:00Z", "T12:00:00Z", 1)
            for line in lines[1:]
            if line.startswith("S001,2017-02-27T00:00:00Z")
        ]
        assert extra
        path.write_text("".join(lines + extra))
        preds = tmp_path / "predictions.csv"
        code = main(
            ["predict", "--config", basic_run["cfg"], "--data", str(data), "--store", str(basic_run["store"]),
             "--out", str(preds), "--issue-start", "2017-02-27", "--issue-end", "2017-02-27"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "S001" in err and "2017-02-27" in err


def with_second_run(basic_run, tmp_path, day="2017-02-10", station="S000"):
    """A copy of the basic run's data with a 12 UTC copy of one station's 00
    UTC runs of ``day`` in both forecast files."""
    data = tmp_path / "data"
    shutil.copytree(basic_run["data"], data)
    for model in ("hires", "global"):
        path = data / f"forecasts_{model}.csv"
        lines = path.read_text().splitlines(keepends=True)
        extra = [line.replace("T00:00:00Z", "T12:00:00Z", 1) for line in lines[1:]
                 if line.startswith(f"{station},{day}T00:00:00Z")]
        assert extra
        path.write_text("".join(lines + extra))
    return data


TWO_RUNS = ("error: station S000 has forecasts from 2 init times on 2017-02-10 (00:00, 12:00); "
            "only one run per day is supported\n")


@pytest.mark.parametrize("stage", ["train", "predict"])
def test_two_runs_a_day_rejected_by_train_and_predict(basic_run, tmp_path, capsys, stage):
    # train counted the second run as more window samples; both stages now
    # reject it with predict's message.
    data = with_second_run(basic_run, tmp_path)
    out = ["--store", str(tmp_path / "store.csv")] if stage == "train" else \
        ["--store", str(basic_run["store"]), "--out", str(tmp_path / "predictions.csv")]
    code = main([stage, "--config", basic_run["cfg"], "--data", str(data), *out])
    assert (code, capsys.readouterr().err) == (1, TWO_RUNS)
    assert not (tmp_path / "store.csv").exists() and not (tmp_path / "predictions.csv").exists()


def last_date_args(store, out):
    return ["--store", str(store), "--out", str(out), "--issue-start", "2017-02-27", "--issue-end", "2017-02-27"]


class TestIssueDateFilter:
    """``predict`` and ``verify`` tokenize only the forecast rows of the init
    dates they score; ``train`` reads every row."""

    def test_bad_value_on_other_date_seen_by_train_only(self, basic_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "forecasts_hires.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[1].startswith("S000,2017-01-01T00:00:00Z,")
        lines[1] = lines[1].rsplit(",", 1)[0] + ",x1\n"
        path.write_text("".join(lines))
        cfg = basic_run["cfg"]
        outputs = []
        for d, root in ((basic_run["data"], tmp_path / "clean"), (data, tmp_path / "bad")):
            root.mkdir()
            preds = root / "predictions.csv"
            assert main(["predict", "--config", cfg, "--data", str(d), *last_date_args(basic_run["store"], preds)]) == 0
            assert main(["verify", "--config", cfg, "--data", str(d), "--predictions", str(preds),
                         "--out", str(root / "reports")]) == 0
            outputs.append({f.relative_to(root): f.read_bytes() for f in root.rglob("*") if f.is_file()})
            assert capsys.readouterr().err == ""
        assert outputs[0] == outputs[1]
        code = main(["train", "--config", cfg, "--data", str(data), "--store", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}:2 (column 'temp_c'): not a number: 'x1'\n"

    def test_unknown_station_on_other_date_exit_1(self, basic_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "forecasts_hires.csv"
        with path.open("a") as fh:
            fh.write("S999,2017-01-01T00:00:00Z,12,0,1.5\n")
        code = main(["predict", "--config", basic_run["cfg"], "--data", str(data),
                     *last_date_args(basic_run["store"], tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: hires forecasts: unknown station 'S999'\n"

    def test_issue_date_without_a_lead_exit_1(self, basic_run, tmp_path, capsys):
        # Lead 21 is in the file, so its keys are predicted on every date; an
        # issue date whose hires runs end at 20 h is an error, not a smaller
        # prediction file.
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "forecasts_hires.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not (
            line.split(",")[1] == "2017-02-27T00:00:00Z" and int(line.split(",")[2]) >= 21)))
        assert len(path.read_text().splitlines()) < len(lines)
        code = main(["predict", "--config", basic_run["cfg"], "--data", str(data),
                     *last_date_args(basic_run["store"], tmp_path / "p.csv")])
        assert code == 1
        assert "error: no forecast for model 'hires' at S000 lead 21" in capsys.readouterr().err


class TestVerifyReports:
    def test_report_files_exist(self, basic_run):
        reports = basic_run["reports"]
        for name in (
            "crps_overall.csv",
            "crps_by_season.csv",
            "crps_by_daynight.csv",
            "crps_by_lead.csv",
            "crps_by_station.csv",
            "pit_hist.csv",
            "dm_matrix.csv",
            "weights.csv",
        ):
            assert (reports / name).exists(), name

    def test_reference_skill_zero(self, basic_run):
        lines = (basic_run["reports"] / "crps_overall.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = {parts[0]: dict(zip(header, parts)) for parts in (l.split(",") for l in lines[1:])}
        assert float(rows["raw:hires"]["crpss"]) == 0.0
        assert set(rows) >= {"raw:hires", "raw:global", "single:hires", "single:global", "mixed:hires+global"}

    def test_combined_stream_scores_best(self, basic_run):
        lines = (basic_run["reports"] / "crps_overall.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = {parts[0]: dict(zip(header, parts)) for parts in (l.split(",") for l in lines[1:])}
        mixed = float(rows["mixed:hires+global"]["mean_crps"])
        assert mixed < float(rows["single:hires"]["mean_crps"])
        assert mixed < float(rows["single:global"]["mean_crps"])
        assert float(rows["raw:hires"]["mean_crps"]) > float(rows["single:hires"]["mean_crps"])
        assert float(rows["raw:global"]["mean_crps"]) > float(rows["single:global"]["mean_crps"])

    def test_stratum_means_recombine(self, basic_run):
        overall_lines = (basic_run["reports"] / "crps_overall.csv").read_text().strip().splitlines()
        header = overall_lines[0].split(",")
        overall = {parts[0]: dict(zip(header, parts)) for parts in (l.split(",") for l in overall_lines[1:])}
        season_lines = (basic_run["reports"] / "crps_by_season.csv").read_text().strip().splitlines()
        sheader = season_lines[0].split(",")
        by_strategy = {}
        for line in season_lines[1:]:
            row = dict(zip(sheader, line.split(",")))
            by_strategy.setdefault(row["strategy"], []).append(row)
        for strategy, rows in by_strategy.items():
            total_n = sum(int(r["n"]) for r in rows)
            weighted = sum(float(r["mean_crps"]) * int(r["n"]) for r in rows) / total_n
            assert weighted == pytest.approx(float(overall[strategy]["mean_crps"]), abs=1e-9)
            assert total_n == int(overall[strategy]["n"])

    def test_pit_hist_counts(self, basic_run):
        lines = (basic_run["reports"] / "pit_hist.csv").read_text().strip().splitlines()[1:]
        per_strategy = {}
        for line in lines:
            lo, hi, count, strategy = line.split(",")
            per_strategy.setdefault(strategy, 0)
            per_strategy[strategy] += int(count)
        counts = set(per_strategy.values())
        assert len(counts) == 1  # every strategy scored on the same case set

    def test_calibration_table(self, basic_run):
        lines = (basic_run["reports"] / "calibration.csv").read_text().strip().splitlines()
        assert lines[0] == "strategy,lead_h,n,z_std,spread_skill"
        rows = [line.split(",") for line in lines[1:]]
        assert {(r[0], r[1]) for r in rows} == {
            (s, lead) for s in ("single:hires", "single:global", "mixed:hires+global") for lead in ("12", "21")
        }
        overall = (basic_run["reports"] / "crps_overall.csv").read_text().splitlines()
        assert sum(int(r[2]) for r in rows) == 3 * int(overall[1].split(",")[1])
        assert all(float(r[3]) > 0.0 and float(r[4]) > 0.0 for r in rows)

    def test_verify_leaves_scipy_stats_unimported(self, basic_run, tmp_path):
        # importing scipy.stats costs a stage process about 0.3 s; the DM test
        # takes its t tail from scoring.student_t_tail
        argv = ["verify", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
                "--predictions", str(basic_run["preds"]), "--out", str(tmp_path / "reports")]
        code = "\n".join(["import sys", "from emoskit.cli import main", f"assert main({argv!r}) == 0",
                          "print('scipy.stats' in sys.modules)"])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False"

    def test_weights_in_unit_interval(self, basic_run):
        lines = (basic_run["reports"] / "weights.csv").read_text().strip().splitlines()[1:]
        assert lines
        for line in lines:
            _, _, _, wm, ws = line.split(",")
            assert 0.0 <= float(wm) <= 1.0
            assert 0.0 <= float(ws) <= 1.0


def test_train_and_verify_leave_scipy_unimported(basic_run, tmp_path):
    # Phi and the t CDF come from scoring, so a train that never falls back to
    # L-BFGS-B and a verify load no scipy module, and produce the fixture's
    # store and reports.
    store, reports = tmp_path / "coeffs.csv", tmp_path / "reports"
    common = ["--config", basic_run["cfg"], "--data", str(basic_run["data"])]
    argvs = [["train", *common, "--store", str(store)],
             ["verify", *common, "--predictions", str(basic_run["preds"]), "--out", str(reports),
              "--store", str(basic_run["store"])]]
    code = "\n".join(["import sys", "from emoskit.cli import main", *(f"assert main({a!r}) == 0" for a in argvs),
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert store.read_bytes() == basic_run["store"].read_bytes()
    for path in sorted(basic_run["reports"].iterdir()):
        assert (reports / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.fixture(scope="module")
def seam_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("seam")
    cfg = write_cfg(root, SEAM_CFG)
    data = root / "data"
    store = root / "coeffs.csv"
    preds = root / "predictions.csv"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data), "--store", str(store)]) == 0
    assert main(["predict", "--config", cfg, "--data", str(data), "--store", str(store), "--out", str(preds)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "store": store, "preds": preds}


def test_simulate_predict_transition_leave_scipy_unimported(seam_run, tmp_path):
    # These stages neither fit nor score, so their processes never pay for
    # importing scipy.
    data, preds, seam = tmp_path / "data", tmp_path / "predictions.csv", tmp_path / "seam.csv"
    cfg = seam_run["cfg"]
    argvs = [["simulate", "--config", cfg, "--out", str(data)],
             ["predict", "--config", cfg, "--data", str(data), "--store", str(seam_run["store"]), "--out", str(preds)],
             ["transition", "--config", cfg, "--predictions", str(preds), "--out", str(seam), "--scheme", "t2"]]
    code = "\n".join(["import sys", "from emoskit.cli import main", *(f"assert main({a!r}) == 0" for a in argvs),
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert preds.read_bytes() == seam_run["preds"].read_bytes()


def test_train_and_verify_leave_numpy_ma_unimported(seam_run, tmp_path):
    # np.unique without return_* arguments imports numpy.ma (about 15 ms of
    # a stage process under numpy 2.4); neither stage needs it.
    cfg, data = seam_run["cfg"], str(seam_run["data"])
    argvs = [["train", "--config", cfg, "--data", data, "--store", str(tmp_path / "coeffs.csv"), "--scheme", "t1"],
             ["verify", "--config", cfg, "--data", data, "--predictions", str(seam_run["preds"]),
              "--out", str(tmp_path / "reports"), "--store", str(seam_run["store"])]]
    code = "\n".join(["import sys", "from emoskit.cli import main", *(f"assert main({a!r}) == 0" for a in argvs),
                      "print('numpy.ma' in sys.modules)"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def streams(path):
    """The mixed:hires+global and single:global predictions of a file, keyed
    by (station, init time, lead)."""
    source = prediction_dict(read_predictions(path))
    return [{key[:3]: pred for key, pred in source.items() if key[3] == strategy}
            for strategy in ("mixed:hires+global", "single:global")]


class TestTransitionCommand:
    def test_scheme_none_is_pure_assembly(self, seam_run):
        out = seam_run["root"] / "seam_none.csv"
        assert (
            main(
                ["transition", "--config", seam_run["cfg"], "--predictions", str(seam_run["preds"]),
                 "--out", str(out), "--scheme", "none"]
            )
            == 0
        )
        mixed, single = streams(seam_run["preds"])
        seam = prediction_dict(read_predictions(out))
        assert seam
        for (sid, init, lead, strategy), pred in seam.items():
            assert strategy == "seam_none"
            key = (sid, init, lead)
            if lead <= 120:
                assert pred == mixed[key]
            else:
                assert pred == single[key]

    def test_scheme_t2_blends_three_hours(self, seam_run):
        out = seam_run["root"] / "seam_t2.csv"
        assert (
            main(
                ["transition", "--config", seam_run["cfg"], "--predictions", str(seam_run["preds"]),
                 "--out", str(out), "--scheme", "t2"]
            )
            == 0
        )
        mixed, single = streams(seam_run["preds"])
        weights = {121: 0.75, 122: 0.5, 123: 0.25}
        for (sid, init, lead, _), pred in prediction_dict(read_predictions(out)).items():
            key = (sid, init, lead)
            if lead <= 120:
                assert pred == mixed[key]
            elif lead in weights:
                base_key = (sid, init, 120)
                delta = mixed[base_key].mu - single[base_key].mu
                expected = single[key].mu + weights[lead] * delta
                assert pred.mu == pytest.approx(expected, abs=1e-8)
            else:
                assert pred == single[key]

    def test_t2_missing_leads_name_strategy_and_case(self, seam_run, tmp_path, capsys):
        cut = {key: pred for key, pred in prediction_dict(read_predictions(seam_run["preds"])).items() if key[2] <= 121}
        write_predictions(tmp_path / "cut.csv", prediction_table(cut))
        sid, init = min(key[:2] for key in cut)
        code = main(["transition", "--config", seam_run["cfg"], "--predictions", str(tmp_path / "cut.csv"),
                     "--out", str(tmp_path / "seam.csv"), "--scheme", "t2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: no 'single:global' prediction at leads [122, 123] for {sid} {init}\n"
        assert not (tmp_path / "seam.csv").exists()

    def test_t1_bounds_enforced_in_store(self, seam_run):
        store_t1 = seam_run["root"] / "coeffs_t1.csv"
        code = main(
            ["train", "--config", seam_run["cfg"], "--data", str(seam_run["data"]),
             "--store", str(store_t1), "--scheme", "t1"]
        )
        assert code == 0
        records = records_of(read_store(store_t1))
        weights = {118: 0.75, 119: 0.5, 120: 0.25}
        checked = 0
        for key, record in records.items():
            if key.strategy != "mixed:hires+global" or key.lead_time not in weights or record.fallback:
                continue
            anchor = records.get(key.__class__(key.station_id, 117, key.strategy, key.issue_date))
            assert anchor is not None
            w = weights[key.lead_time]
            # the in-memory bound is exact (asserted in the acceptance suite);
            # the store file rounds both sides to 9 significant digits, so a
            # bound rebuilt from the rounded anchor can be off by ~5 ulps of
            # the anchor's last kept digit
            slack = 1e-12 + 1e-8 * max(anchor.coefficients.b[0], anchor.coefficients.d[0], 1.0)
            assert record.coefficients.b[0] <= anchor.coefficients.b[0] * w + slack
            assert record.coefficients.d[0] <= anchor.coefficients.d[0] * w + slack
            checked += 1
        assert checked > 0

    def test_verify_seam_diagnostics(self, seam_run):
        out_none = seam_run["root"] / "seam_none.csv"
        reports = seam_run["root"] / "reports"
        code = main(
            ["verify", "--config", seam_run["cfg"], "--data", str(seam_run["data"]),
             "--predictions", str(seam_run["preds"]), str(out_none),
             "--out", str(reports), "--reference", "single:global"]
        )
        assert code == 0
        seam_csv = reports / "seam_diagnostics.csv"
        assert seam_csv.exists()
        lines = seam_csv.read_text().strip().splitlines()[1:]
        strategies = {line.split(",")[0] for line in lines}
        assert "seam_none" in strategies
        assert "single:global" in strategies


    def test_verify_rejects_prediction_repeated_across_files(self, seam_run, capsys):
        code = main(
            ["verify", "--config", seam_run["cfg"], "--data", str(seam_run["data"]),
             "--predictions", str(seam_run["preds"]), str(seam_run["preds"]),
             "--out", str(seam_run["root"] / "dup_reports")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "duplicate prediction" in err and "S000" in err

    @pytest.mark.parametrize("window", ["118", "123-118", "118-118", "a-b"])
    def test_verify_rejects_bad_seam_window(self, seam_run, tmp_path, capsys, window):
        cfg = write_cfg(tmp_path, SEAM_CFG.replace("verify.seam_window = 117-123", f"verify.seam_window = {window}"))
        code = main(
            ["verify", "--config", cfg, "--data", str(seam_run["data"]), "--predictions", str(seam_run["preds"]),
             "--out", str(tmp_path / "reports")]
        )
        assert code == 1
        assert "verify.seam_window" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "seam_diagnostics.csv").exists()


class TestTpiCommand:
    def test_tpi_csv(self, basic_run, tmp_path):
        out = tmp_path / "tpi.csv"
        code = main(
            ["tpi", "--grid", str(basic_run["data"] / "topo.asc"), "--stations",
             str(basic_run["data"] / "stations.csv"), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "station_id,tpi_m"
        assert len(lines) == 4  # 3 stations


class TestErrors:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC_CFG)
        assert main(["train", "--config", cfg, "--data", str(tmp_path / "nope"), "--store", str(tmp_path / "s.csv")]) == 1

    @pytest.mark.parametrize("stage", ["train", "predict"])
    def test_init_time_out_of_range_exit_1(self, basic_run, tmp_path, capsys, stage):
        # ISO-8601 that leaves the datetime range in UTC is a located error,
        # not a traceback, on a date predict does not score too.
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "forecasts_hires.csv"
        with path.open("a") as fh:
            fh.write("S000,0001-01-01T00:00:00+01:00,12,0,1.5\n")
        line_no = len(path.read_text().splitlines())
        args = {"train": ["--store", str(tmp_path / "s.csv")],
                "predict": last_date_args(basic_run["store"], tmp_path / "p.csv")}[stage]
        assert main([stage, "--config", basic_run["cfg"], "--data", str(data), *args]) == 1
        assert capsys.readouterr().err == (f"error: {path}:{line_no} (column 'init_time'): "
                                           "not an ISO-8601 timestamp: '0001-01-01T00:00:00+01:00'\n")

    def test_bad_reference_exit_1(self, basic_run, tmp_path):
        code = main(
            ["verify", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
             "--predictions", str(basic_run["preds"]), "--out", str(tmp_path / "r"),
             "--reference", "raw:nonexistent"]
        )
        assert code == 1

    def test_unknown_verify_strategy_exit_1(self, basic_run, tmp_path, capsys):
        code = main(["verify", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
                     "--predictions", str(basic_run["preds"]), "--out", str(tmp_path / "r"),
                     "--strategies", "raw:hires,mixd:hires+global"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown strategy 'mixd:hires+global' in --strategies (known: mixed:hires+global, "
            "single:global, single:hires, raw:hires, raw:global)\n")
        assert not (tmp_path / "r").exists()

    def test_verify_strategies_are_stripped(self, basic_run, tmp_path, capsys):
        code = main(["verify", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
                     "--predictions", str(basic_run["preds"]), "--out", str(tmp_path / "r"),
                     "--strategies", "raw:hires, single:hires"])
        assert code == 0
        assert "x 2 strategies" in capsys.readouterr().out

    def test_raw_only_verify_reads_every_date(self, basic_run, tmp_path, capsys):
        # Raw strategies are scored on every forecast date whatever dates the
        # predictions hold: a one-date predictions file gives the same report.
        one_date = tmp_path / "one_date.csv"
        assert main(["predict", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
                     *last_date_args(basic_run["store"], one_date)]) == 0
        reports = {}
        for preds in (basic_run["preds"], one_date):
            out = tmp_path / preds.stem
            assert main(["verify", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
                         "--predictions", str(preds), "--out", str(out), "--strategies", "raw:hires,raw:global"]) == 0
            reports[preds.stem] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert reports["predictions"] == reports["one_date"]
        overall = {row.split(",")[0]: row.split(",") for row in reports["one_date"]["crps_overall.csv"].decode().split()}
        assert int(overall["raw:hires"][1]) > 3 * 2 * 50  # stations x leads x dates

    def test_t1_without_taper_leads_exit_1(self, basic_run, tmp_path, capsys):
        code = main(
            ["train", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
             "--store", str(tmp_path / "s.csv"), "--scheme", "t1"]
        )
        assert code == 1
        assert "needs leads" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_t1_missing_anchor_exit_1(self, tmp_path, capsys):
        # Without hires forecasts up to 117 h no interpolation can fill the
        # anchor lead, so no mixed key exists there.
        cfg = write_cfg(tmp_path, SEAM_CFG.replace("scenario.leads = 116-124", "scenario.leads = 117-123"))
        data = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
        path = data / "forecasts_hires.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(line for line in lines[1:] if int(line.split(",")[2]) > 117))
        code = main(
            ["train", "--config", cfg, "--data", str(data), "--store", str(tmp_path / "s.csv"), "--scheme", "t1",
             "--issue-start", "2017-01-05", "--issue-end", "2017-01-05"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "117" in err and "S000" in err and "2017-01-05" in err
        assert not (tmp_path / "s.csv").exists()

    def test_repeated_station_exit_1(self, basic_run, tmp_path, capsys):
        # S000 again, 100 m high: the second row must not silently win.
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "stations.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[3] = "100"
        path.write_text("".join(lines) + ",".join(cells))
        code = main(["train", "--config", basic_run["cfg"], "--data", str(data), "--store", str(tmp_path / "s.csv")])
        assert code == 1
        assert f"error: {path}:{len(lines) + 1} (column 'station_id'): duplicate station S000" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_missing_grid_elevation_column_exit_1(self, basic_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(basic_run["data"], data)
        path = data / "stations.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        drop = rows[0].index("grid_elev_hires")
        path.write_text("".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows))
        code = main(["train", "--config", basic_run["cfg"], "--data", str(data), "--store", str(tmp_path / "s.csv")])
        assert code == 1
        assert "station S000 has no grid elevation for model 'hires' (column grid_elev_hires)" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["train", "predict"])
    def test_empty_issue_range_exit_1(self, basic_run, tmp_path, capsys, stage):
        # a range past the data would write a header-only store, or no
        # predictions, and "succeed"
        out = tmp_path / "out.csv"
        argv = {"train": ["--store", str(out)], "predict": ["--store", str(basic_run["store"]), "--out", str(out)]}
        code = main([stage, "--config", basic_run["cfg"], "--data", str(basic_run["data"]), *argv[stage],
                     "--issue-start", "2030-01-01"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no issue dates between 2030-01-01 and 2017-02-27 (forecast init dates run from 2017-01-01 to 2017-02-27)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["train", "predict"])
    def test_reversed_issue_range_exit_1(self, basic_run, tmp_path, capsys, stage):
        out = tmp_path / "out.csv"
        argv = {"train": ["--store", str(out)], "predict": ["--store", str(basic_run["store"]), "--out", str(out)]}
        code = main([stage, "--config", basic_run["cfg"], "--data", str(basic_run["data"]), *argv[stage],
                     "--issue-start", "2017-02-27", "--issue-end", "2017-02-01"])
        assert code == 1
        assert "error: --issue-start 2017-02-27 is after --issue-end 2017-02-01" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_lead_range_exit_1(self, basic_run, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASIC_CFG.replace("scenario.leads = 12,21", "scenario.leads = 12,21-15"))
        code = main(["train", "--config", cfg, "--data", str(basic_run["data"]), "--store", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error: config key 'scenario.leads': lead range '21-15'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_non_finite_fit_exit_1(self, basic_run, tmp_path, monkeypatch, capsys):
        import emoskit.emos as emos

        real = emos._newton

        def broken(theta, st, lower, upper, options):
            solved = real(theta, st, lower, upper, options)
            solved.theta[:] = np.nan
            return solved

        monkeypatch.setattr(emos, "_newton", broken)
        code = main(
            ["train", "--config", basic_run["cfg"], "--data", str(basic_run["data"]),
             "--store", str(tmp_path / "s.csv"), "--issue-start", "2017-02-27", "--issue-end", "2017-02-27"]
        )
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


# Every config key the CLI reads, a model's keys under "model.<id>.".
CONFIG_KEYS = {
    "models", "strategies", "reference", "seed",
    "scenario.start", "scenario.n_stations", "scenario.n_days", "scenario.leads",
    "truth.level", "truth.diurnal_amplitude", "truth.seasonal_amplitude", "truth.ar1", "truth.innovation_std",
    *(f"model.<id>.{key}" for key in ("members", "horizon", "bias_amplitude", "bias_peak_hour", "bias_variability",
                                      "error_base_std", "error_growth", "error_lead_correlation", "dispersion",
                                      "coarse_after", "coarse_step", "elevation_offset_std")),
    "window.days", "window.min_samples", "fit.max_iterations", "fit.tolerance", "fit.min_sigma",
    "transition.scheme", "transition.weights", "transition.horizon", "transition.continuing",
    "verify.pit_bins", "verify.alpha", "verify.seam_window",
}


class RecordingConfig(dict):
    """A parsed config that notes each key read from it."""

    def __init__(self, items, read: set):
        super().__init__(items)
        self.read = read

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestConfigKeys:
    def test_pipeline_reads_the_pinned_keys(self, tmp_path, monkeypatch):
        # A new spec field or parameter does not become a config key unnoticed.
        assert len(CONFIG_KEYS) == 37
        read: set[str] = set()
        parse = cli.eio.parse_config
        monkeypatch.setattr(cli.eio, "parse_config", lambda path: RecordingConfig(parse(path), read))
        cfg = write_cfg(tmp_path, "models = hires,global\nscenario.n_stations = 1\nscenario.n_days = 3\n"
                                  "scenario.leads = 12,21\nmodel.hires.members = 3\nmodel.global.members = 3\n")
        data, store, preds = tmp_path / "data", str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["train", "--config", cfg, "--data", str(data), "--store", store]) == 0
        assert main(["predict", "--config", cfg, "--data", str(data), "--store", store, "--out", preds]) == 0
        assert main(["transition", "--config", cfg, "--predictions", preds, "--out", str(tmp_path / "seam.csv")]) == 0
        assert main(["verify", "--config", cfg, "--data", str(data), "--predictions", preds,
                     "--out", str(tmp_path / "r")]) == 0
        assert {re.sub(r"^model\.[^.]+\.", "model.<id>.", key) for key in read} == CONFIG_KEYS

    @pytest.mark.parametrize("value", [None, ""], ids=["absent", "empty"])
    def test_unset_keys_keep_the_defaults(self, value):
        # An empty transition.scheme, transition.weights, scenario.start or
        # scenario.leads used to raise; now it is unset, as any other key.
        cfg = {"models": "hires"} if value is None else {key.replace("<id>", "hires"): value for key in CONFIG_KEYS}
        assert cli._model_spec(cfg, "hires") == ModelErrorSpec()
        assert cli._scenario_spec(cfg) == ScenarioSpec(models={"hires": ModelErrorSpec()})
        assert cli._leads(cfg) == ScenarioSpec().lead_hours
        assert cli._setting(cfg, ModelErrorSpec, "coarse_step", "model.hires.coarse_step") == ModelErrorSpec().coarse_step
        assert cli._continuing_strategy(cfg) == "single:hires"
        assert cli._window_spec(cfg) == RollingWindowSpec()
        assert cli._fit_options(cfg) == FitOptions()
        assert cli._transition_spec(cfg) == TransitionSpec()
        assert cli._settings(cfg, verify, cli._VERIFY_KEYS) == {}  # verify keeps its own defaults

    @pytest.mark.parametrize(("start", "utc"), [
        ("2017-01-01T00:00:00+01:00", datetime(2016, 12, 31, 23, tzinfo=timezone.utc)),
        ("2017-01-01T05:30:00-02:30", datetime(2017, 1, 1, 8, tzinfo=timezone.utc)),
        ("2017-01-01", datetime(2017, 1, 1, tzinfo=timezone.utc)),  # a naive start is UTC
    ])
    def test_scenario_start_is_converted_to_utc(self, start, utc):
        got = cli._scenario_spec({"models": "hires", "scenario.start": start}).start
        assert (got, got.tzinfo) == (utc, timezone.utc)

    def test_flags_override_keys(self):
        cfg = {"models": "hires", "seed": "x", "transition.scheme": "t1"}
        assert cli._scenario_spec(cfg, seed_override=7).seed == 7
        assert cli._transition_spec(cfg, scheme_override="t2").scheme == "t2"

    @pytest.mark.parametrize(("stage", "key", "value"), [
        ("simulate", "scenario.n_days", "5x"),
        ("simulate", "truth.ar1", "0.8.5"),
        ("simulate", "model.global.coarse_after", "ninety"),
        ("train", "window.min_samples", "3o"),
        ("train", "fit.tolerance", "1e-8e"),
        ("transition", "transition.weights", "0.75,half"),
        ("verify", "verify.alpha", "5%"),
    ], ids=["scenario", "truth", "model", "window", "fit", "transition", "verify"])
    def test_bad_value_names_its_key(self, basic_run, tmp_path, capsys, stage, key, value):
        cfg = write_cfg(tmp_path, f"{BASIC_CFG}{key} = {value}\n")
        out = tmp_path / "out"
        argv = {"simulate": ["--out", str(out)],
                "train": ["--data", str(basic_run["data"]), "--store", str(out)],
                "transition": ["--predictions", str(basic_run["preds"]), "--out", str(out)],
                "verify": ["--data", str(basic_run["data"]), "--predictions", str(basic_run["preds"]),
                           "--out", str(out)]}[stage]
        assert main([stage, "--config", cfg, *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
        assert not out.exists()


class TestRandomizedPit:
    def test_uniform_for_exchangeable_draws(self):
        rng = np.random.default_rng(77)
        pits = []
        for _ in range(4000):
            members = rng.normal(0, 1, 15)
            y = rng.normal(0, 1)
            pits.append(randomized_ensemble_pit(members, y, rng.random()))
        from scipy.stats import chisquare

        counts = np.histogram(pits, bins=np.linspace(0, 1, 11))[0]
        assert chisquare(counts)[1] > 0.01

    def test_tie_handling(self):
        members = [1.0, 1.0, 2.0]
        # r=0 strictly below, t=2 ties: PIT = (0 + u*3)/4
        assert randomized_ensemble_pit(members, 1.0, 0.0) == 0.0
        assert randomized_ensemble_pit(members, 1.0, 1.0) == pytest.approx(0.75)
