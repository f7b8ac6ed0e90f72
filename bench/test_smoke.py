"""Smoke test of the benchmark harness at tiny problem sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, and
checks the result format, the metric names and units, that the benchmark
leaves src/ and tests/ untouched, and that it refuses to run without the
program's sources.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}


def tree_digest(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for d in dirs:
        for f in sorted(d.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return digest.hexdigest()


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    before = tree_digest(ROOT / "src", ROOT / "tests")
    out = {(w, t): run_bench(ROOT, w, t) for w in WORKLOADS for t in (0, 1)}
    return out, before, tree_digest(ROOT / "src", ROOT / "tests")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_format(runs, workload, trace):
    proc = runs[0][(workload, trace)]
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in METRICS[trace]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 0:
        printed = proc.stdout.splitlines()
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in printed), name


def test_sources_untouched(runs):
    _, before, after = runs
    assert before == after


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_store_summary_flags_nesting_violation(tmp_path):
    header = "station_id,lead_h,strategy,issue_date,a,b1,b2,c,d1,d2,n_samples,objective,converged,fallback\n"
    rows = [
        "S0,5,mixed:hires+global,2017-02-01,0,1,0,1,1,0,45,0.40,true,false",
        "S0,5,single:global,2017-02-01,0,1,,1,1,,45,0.50,true,false",
        "S0,5,single:hires,2017-02-01,0,1,,1,1,,45,0.30,false,false",
        "S0,6,single:hires,2017-02-01,0,1,,1,1,,45,0.20,true,true",
        "S0,7,single:hires,2017-02-01,0,1,,1,1,,10,nan,true,true",
    ]
    store = tmp_path / "store.csv"
    store.write_text(header + "\n".join(rows) + "\n", encoding="utf-8")
    summary = harness.store_summary(store)
    assert (summary.records, summary.fitted, summary.nonconverged) == (5, 3, 1)
    assert (summary.stale, summary.identity) == (1, 1)
    assert summary.fit_crps == pytest.approx(0.4)
    assert summary.nesting_violations == 1
    assert harness.store_summary(store, bounded_leads=(5,)).nesting_violations == 0
