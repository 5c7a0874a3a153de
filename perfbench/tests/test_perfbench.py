"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import NullTracer  # noqa: E402
from worker import cli_replay  # noqa: E402

import dummyreg  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    lines = proc.stdout.splitlines()
    assert any(line.split()[:3] == ["failed_frac", "0", "frac"] for line in lines)
    assert any(line.startswith("job_tail_s") for line in lines)


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "cli_small_mix", "--seed", "3", "--seconds", "2",
                 "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    spans = json.loads((HERE / ".work" / "spans-cli_small_mix-seed3.json").read_text())
    names = {s["name"] for s in spans}
    assert {"job", "dataset.read_csv", "encode.build_design", "solve.fit"} <= names
    for line in ("dataset.read_csv.s", "cli.startup_s", "import.oracle_deps_s"):
        assert any(out.startswith(line + " ") for out in proc.stdout.splitlines())


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "cli_small_mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corrupted_cli_output_counts_as_failed(tmp_path):
    wl = W.workload("mixed_csv_200k", "tiny")
    path = W.write_inputs(wl, 5, tmp_path, dummyreg)
    checker = W.SurveyChecker(W.survey_arrays(5, wl.rows), str(path), dummyreg)

    def corrupt(kind, stdout):
        doc = json.loads(stdout)
        doc["coefficients"][1]["estimate"] *= 1.001
        return json.dumps(doc)

    env = run.child_env()
    assert all(j["ok"] for j in run.cli_loop(wl, path, 0, env, checker))
    jobs = run.cli_loop(wl, path, 0, env, checker, mutate=corrupt)
    assert jobs and not any(j["ok"] for j in jobs)
    assert run.end_to_end(jobs, 1.0)["failed_frac"] == 1.0


def test_crossed_check_rejects_a_wrong_fitted_value():
    arrays = W.crossed_arrays(7, 3000)
    ref = W.crossed_reference(arrays)
    ast = dummyreg.parse_formula(W.CROSSED_FORMULA)
    data = dummyreg.listwise_delete(W.crossed_dataset(arrays, dummyreg),
                                    [ast.response, *ast.variables()])
    result = dummyreg.fit(dummyreg.build_design(ast, data))
    assert W.check_crossed(ref, result.fitted, result.rss)
    bad = result.fitted.copy()
    bad[17] += 1e-6
    assert not W.check_crossed(ref, bad, result.rss)
    assert not W.check_crossed(ref, result.fitted, result.rss * (1 + 1e-6))


def test_survey_checks_reject_corrupted_outputs(tmp_path):
    wl = W.workload("cli_small_mix", "tiny")
    path = W.write_inputs(wl, 9, tmp_path, dummyreg)
    checker = W.SurveyChecker(W.survey_arrays(9, wl.rows), str(path), dummyreg)
    kinds = {k.name: k for k in W.SMALL_MIX}
    for kind in W.SMALL_MIX:
        out = cli_replay(kind, str(path), NullTracer(), 0)
        assert checker.check(kind, out), kind.name
    text = cli_replay(kinds["fit_text"], str(path), NullTracer(), 0)
    assert not checker.check(kinds["fit_text"], text.replace("female", "femal", 1))
    rows = cli_replay(kinds["encode"], str(path), NullTracer(), 0).splitlines()
    cells = rows[3].split(",")
    cells[-1] = repr(float(cells[-1]) + 0.5)
    rows[3] = ",".join(cells)
    assert not checker.check(kinds["encode"], "\n".join(rows) + "\n")


def test_lstsq_reference_matches_library_fit(tmp_path):
    wl = W.workload("mixed_csv_200k", "tiny")
    arrays = W.survey_arrays(11, wl.rows)
    ref = W.survey_lstsq(arrays)
    assert len(ref.coefficients) == W.design_cols(wl)
    path = W.write_inputs(wl, 11, tmp_path, dummyreg)
    data = dummyreg.read_csv(str(path))
    ast = dummyreg.parse_formula(W.SURVEY_FORMULA)
    data = dummyreg.listwise_delete(data, [ast.response, *ast.variables()])
    result = dummyreg.fit(dummyreg.build_design(ast, data))
    for label, estimate in zip(result.labels, result.coefficients):
        assert estimate == pytest.approx(ref.coefficients[label.text], rel=1e-8, abs=1e-10)


def test_job_tail_needs_ten_jobs_beyond_it():
    assert run.job_tail([1.0] * 10) is None
    walls = [float(i) for i in range(1, 21)]
    value, pct = run.job_tail(walls)
    assert value == 10.0 and pct == 50
    assert sum(w > value for w in walls) == 10


def test_hd_median_estimates_the_middle():
    assert run.hd_median([2.5]) == 2.5
    assert run.hd_median([1.0, 3.0]) == pytest.approx(2.0)
    assert run.hd_median([3.0, 1.0, 2.0, 10.0, 0.0]) == pytest.approx(
        run.hd_median([0.0, 1.0, 2.0, 10.0, 3.0]))
    assert 2.0 < run.hd_median([1.0, 2.0, 3.0, 100.0]) < 100.0
    assert run.hd_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)


def test_inputs_depend_only_on_the_seed():
    a, b = W.survey_arrays(4, 500), W.survey_arrays(4, 500)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert W.survey_csv_text(a) != W.survey_csv_text(W.survey_arrays(5, 500))
