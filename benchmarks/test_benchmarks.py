"""Self-tests of the benchmark (not part of the library's test suite):

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from convexuq import ModelVariant as V  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(script: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench(
        HERE / "run.py", ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    summary = proc.stdout.splitlines()[:-1]
    for name in ("setup_s", "wall_s", "model_ms_p50", "model_ms_p90", "eta_ms_p50",
                 "eta_ms_p90", "draws_per_s", "peak_rss_mb", "error_rate"):
        assert any(line.split()[:1] == [name] for line in summary), name


def _beam_ccc_mp2():
    p = harness.Pass()
    paths = (workloads.DATA / "beam_intervals.csv", workloads.DATA / "beam_samples.csv")
    data = workloads.read_set(p, "beam", paths, True)
    model, _ = workloads.fit_model(p, "beam/ccc/mp2", *data, V.MP2, "ccc", True)
    expected, _ = harness.load_golden("case-studies", 0)
    golden = {k: v for k, v in expected.items() if k.startswith("beam/ccc/mp2/model/")}
    assert "beam/ccc/mp2/model/R" in golden
    return p, model, golden


def test_recorded_fit_matches():
    p, _, golden = _beam_ccc_mp2()
    p.compare(golden, exhaustive=True)
    assert not p.failed


def test_R_entry_off_by_1e_12_fails_its_op():
    p, model, golden = _beam_ccc_mp2()
    R = model.R.entries.copy()
    R[0, 1] += 1e-12
    R[1, 0] = R[0, 1]
    p.outputs["beam/ccc/mp2/model/R"] = harness.canonical(R)
    p.compare(golden, exhaustive=True)
    assert list(p.failed) == ["beam/ccc/mp2/model"]


def test_eta_is_compared_at_the_stated_tolerance():
    eta = 0.4841640048989126
    assert harness.same("beam/scc/mp2/S220/eta/eta", eta * (1 + 0.5 * harness.ETA_RTOL), eta)
    assert not harness.same("beam/scc/mp2/S220/eta/eta", eta * (1 + 2 * harness.ETA_RTOL), eta)
    assert not harness.same("beam/scc/mp2/model/nu", eta * (1 + 1e-15), eta)


def test_without_the_library_it_exits_nonzero_and_prints_no_result():
    isolated = HERE / "out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    try:
        shutil.copytree(HERE, isolated / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        proc = run_bench(
            isolated / "benchmarks" / "run.py", isolated,
            "--workload", "fit-wide", "--seed", "1", "--seconds", "1", "--trace", "0",
        )
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
