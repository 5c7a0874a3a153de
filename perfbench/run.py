"""Benchmark of the dummyreg pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loops, one job at a time):
  crossed_1m      library flow on an in-memory 1e6-row Dataset, y ~ a*b*c
  mixed_csv_200k  `dummyreg fit --output json` on a 2e5-row CSV
  cli_small_mix   short CLI calls on a 1e4-row CSV, rotating five subcommands;
                  run by hand only, not listed in BENCHMARK.json (see README)

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same inputs with spans around every layer call and prints the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs, span files and reports go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# Set-up is repeated at least SETUP_MIN_REPEATS times and until it has
# taken SETUP_MIN_S, at most SETUP_MAX_REPEATS times; setup_s is the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 5, 200, 2.0
IMPORT_REPEATS = 5
WORKLOADS = ("crossed_1m", "mixed_csv_200k", "cli_small_mix")
CLI_TIMEOUT_S = 60
# What `dummyreg` (the console script) runs.
CLI_LAUNCH = "import sys; from dummyreg.cli import main; sys.exit(main())"

END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# Per-layer metrics every workload defines; the rest are printed and
# written to the report but exist only on some workloads.
PER_LAYER_UNITS = {
    "import.s": "s",
    "dataset.s": "s",
    "dataset.listwise_delete.s": "s",
    "dataset.listwise_delete.rows_kept_frac": "frac",
    "formula.parse_formula.s": "s",
    "encode.build_design.s": "s",
    "encode.build_design.cols": "count",
    "encode.design_mb": "MB",
    "encode.build_design.peak_alloc_mb": "MB",
    "solve.fit.s": "s",
    "solve.fit.flops": "count",
    "solve.fit.gflop_per_s": "GFLOP/s",
    "solve.fit.peak_alloc_mb": "MB",
    "report.render.s": "s",
    "report.render.bytes": "bytes",
    "trace.overhead_frac": "frac",
}
EXTRA_UNITS = {
    "job_tail_s": "s", "failed_frac": "frac",
    "import.oracle_deps_s": "s", "import.scipy_integrate_s": "s",
    "import.numpy_s": "s", "import.scipy_linalg_s": "s",
    "dataset.read_csv.s": "s", "dataset.read_csv.rows": "count",
    "dataset.read_csv.mb_per_s": "MB/s", "dataset.listwise_delete.rows_in": "count",
    "cli.startup_s": "s",
}
LAYERS = ("dataset", "formula", "encode", "solve", "report", "cli")
EXTRA_UNITS.update({f"{layer}.errors": "count" for layer in LAYERS})


def child_env() -> dict[str, str]:
    """Environment for every child: this checkout's dummyreg, capped BLAS.

    One job runs at a time and the launcher waits idle, so the BLAS pool
    may use every core this process may run on, and no more.
    """
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONIOENCODING"] = "utf-8"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env


def job_tail(walls: list[float]) -> tuple[float, int] | None:
    """Highest percentile with at least ten jobs above it, and that percentile."""
    n = len(walls)
    if n < 11:
        return None
    k = n - 10  # 1-based rank with exactly ten jobs after it
    return sorted(walls)[k - 1], (100 * k) // n


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of all order statistics.

    A run holds 4 to 16 jobs, and their times often fall into a fast and
    a slow cluster as the shared host's speed changes. The middle sample
    alone then jumps between the clusters from run to run; this estimate
    of the same median moves less.
    """
    x = np.sort(values)
    a = (len(x) + 1) / 2
    weights = np.diff(betainc(a, a, np.arange(len(x) + 1) / len(x)))
    return float(weights @ x)


def run_cli(kind: W.CliKind, csv_path: Path, env: dict) -> tuple[float, str | None]:
    """Wall seconds and stdout of one CLI call; stdout None if it failed."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCH, *kind.argv(str(csv_path))],
            env=env, cwd=ROOT, capture_output=True, encoding="utf-8",
            timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return wall, None
    return wall, proc.stdout


def cli_loop(wl: W.Workload, csv_path: Path, seconds: float, env: dict,
             checker: W.SurveyChecker, mutate=None) -> list[dict]:
    """Closed loop of CLI calls rotating through the workload's kinds.

    ``mutate`` rewrites stdout before the check; the benchmark's own
    tests use it to show that a corrupted output counts as failed.
    """
    jobs: list[dict] = []
    busy = 0.0
    while busy < seconds or not jobs:
        kind = wl.kinds[len(jobs) % len(wl.kinds)]
        wall, out = run_cli(kind, csv_path, env)
        if out is not None and mutate is not None:
            out = mutate(kind, out)
        ok = out is not None and checker.check(kind, out)
        jobs.append({"kind": kind.name, "wall": wall, "rows": wl.rows, "ok": ok})
        busy += wall
    return jobs


def run_worker(wl: W.Workload, size: str, seed: int, input_path: Path,
               seconds: float, trace: bool, env: dict) -> dict:
    stem = WORK / f"worker-{wl.name}-seed{seed}-trace{int(trace)}"
    cfg_path, result_path = stem.with_suffix(".cfg.json"), stem.with_suffix(".out.json")
    result_path.unlink(missing_ok=True)
    cfg_path.write_text(json.dumps({
        "workload": wl.name, "size": size, "seed": seed, "input": str(input_path),
        "seconds": seconds, "trace": trace, "result": str(result_path)}))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                   env=env, cwd=ROOT, check=True, timeout=150)
    return json.loads(result_path.read_text())


def setup(wl: W.Workload, seed: int, dummyreg) -> tuple[Path, float]:
    """Generate the inputs several times; the median time is setup_s."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        path = W.write_inputs(wl, seed, WORK, dummyreg)
        times.append(time.perf_counter() - t0)
    return path, statistics.median(times)


def end_to_end(jobs: list[dict], setup_s: float) -> dict[str, float]:
    walls = [j["wall"] for j in jobs]
    failed = sum(not j["ok"] for j in jobs)
    out = {
        "setup_s": setup_s,
        "job_p50_s": hd_median(walls),
        "rows_per_s": sum(j["rows"] for j in jobs) / sum(walls),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
        "failed_frac": failed / len(jobs),
    }
    tail = job_tail(walls)
    if tail is not None:
        out["job_tail_s"] = tail[0]
        out["job_tail_pct"], out["job_tail_jobs"] = tail[1], len(walls)
    return out


def per_layer(traced_jobs: dict[int, dict], walls: dict[bool, list[float]]) -> dict:
    """Per-layer metrics: medians over traced jobs of each job's value."""
    def med(pick):
        return tracing.median_over_jobs(traced_jobs, pick)

    def self_time(name):
        return med(lambda j: j["self"].get(name))

    def count(key):
        return med(lambda j: j["counts"].get(key))

    def render_bytes(job):
        hits = [v for k, v in job["counts"].items()
                if k.startswith("report.") and k.endswith(".bytes")]
        return sum(hits) if hits else None

    out = {
        "dataset.s": med(lambda j: tracing.layer_self(j, "dataset.")),
        "dataset.read_csv.s": self_time("dataset.read_csv"),
        "dataset.read_csv.rows": count("dataset.read_csv.rows"),
        "dataset.listwise_delete.s": self_time("dataset.listwise_delete"),
        "dataset.listwise_delete.rows_in": count("dataset.listwise_delete.rows_in"),
        "formula.parse_formula.s": self_time("formula.parse_formula"),
        "encode.build_design.s": self_time("encode.build_design"),
        "encode.build_design.cols": count("encode.build_design.cols"),
        "encode.build_design.peak_alloc_mb": count("encode.build_design.peak_alloc_mb"),
        "solve.fit.s": self_time("solve.fit"),
        "solve.fit.peak_alloc_mb": count("solve.fit.peak_alloc_mb"),
        "report.render.s": med(lambda j: tracing.layer_self(j, "report.")),
        "report.render.bytes": med(render_bytes),
    }
    if out["dataset.read_csv.s"]:
        out["dataset.read_csv.mb_per_s"] = (count("dataset.read_csv.bytes") / 1e6
                                            / out["dataset.read_csv.s"])
    out["dataset.listwise_delete.rows_kept_frac"] = (
        count("dataset.listwise_delete.rows_out") / out["dataset.listwise_delete.rows_in"])
    n, p = count("encode.build_design.rows"), out["encode.build_design.cols"]
    out["encode.design_mb"] = n * p * 8 / 1e6  # computed, not measured
    # Householder QR flop count 2np^2 - 2p^3/3; computed, not measured.
    out["solve.fit.flops"] = 2 * n * p**2 - 2 * p**3 / 3
    out["solve.fit.gflop_per_s"] = out["solve.fit.flops"] / out["solve.fit.s"] / 1e9
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(j["errors"].get(layer, 0) for j in traced_jobs.values())
    base = statistics.median(walls[False])
    out["trace.overhead_frac"] = (statistics.median(walls[True]) - base) / base
    return {k: v for k, v in out.items() if v is not None}


def traced_run(wl, size, seed, input_path, seconds, env, checker, spans_path):
    """Import breakdown, in-process replay with spans, and (CLI) real calls."""
    metrics = probe.import_breakdown(SRC, env, IMPORT_REPEATS)
    replay_s = seconds / 2 if wl.uses_cli else seconds
    result = run_worker(wl, size, seed, input_path, replay_s, True, env)
    if result["error"]:
        sys.stderr.write(result["error"])
    jobs = result["jobs"]
    spans_path.write_text(json.dumps(result["spans"]))
    walls = {t: [j["wall"] for j in jobs if j["traced"] == t] for t in (False, True)}
    metrics.update(per_layer(tracing.per_job(result["spans"]), walls))
    if wl.uses_cli:
        cli_jobs = cli_loop(wl, input_path, seconds - replay_s, env, checker)
        startup = []
        for kind in wl.kinds:
            cli = [j["wall"] for j in cli_jobs if j["kind"] == kind.name]
            inproc = [j["wall"] for j in jobs if j["kind"] == kind.name and not j["traced"]]
            if cli and inproc:
                startup.append(statistics.median(cli) - statistics.median(inproc))
        metrics["cli.startup_s"] = statistics.median(startup)
        jobs = jobs + cli_jobs
    return jobs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(W.ROWS), default="full",
                        help="input sizes; 'tiny' is for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "dummyreg" / "__init__.py").is_file():
        print(f"error: no dummyreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dummyreg
    if Path(dummyreg.__file__).resolve().parent != SRC / "dummyreg":
        print(f"error: imported dummyreg from {dummyreg.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    wl = W.workload(args.workload, args.size)
    input_path, setup_s = setup(wl, args.seed, dummyreg)
    try:
        return measure(args, wl, input_path, setup_s, dummyreg)
    finally:
        input_path.unlink(missing_ok=True)  # the seed regenerates it


def measure(args, wl: W.Workload, input_path: Path, setup_s: float, dummyreg) -> int:
    """Run the jobs on generated inputs, then print and record every metric."""
    env = child_env()
    probe_run = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env,
                               cwd=ROOT, capture_output=True, text=True, timeout=60)
    if probe_run.returncode != 0:
        sys.stderr.write(probe_run.stderr)
        return 2
    environment = json.loads(probe_run.stdout)

    checker = (W.SurveyChecker(W.survey_arrays(args.seed, wl.rows), str(input_path),
                               dummyreg) if wl.uses_cli else None)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.json"
    if args.trace:
        jobs, metrics = traced_run(wl, args.size, args.seed, input_path,
                                   args.seconds, env, checker, spans_path)
        metrics["setup_s"] = setup_s
        units = {**PER_LAYER_UNITS, **EXTRA_UNITS, **END_TO_END_UNITS}
        reported = PER_LAYER_UNITS
    else:
        if wl.uses_cli:
            jobs = cli_loop(wl, input_path, args.seconds, env, checker)
        else:
            result = run_worker(wl, args.size, args.seed, input_path,
                                args.seconds, False, env)
            if result["error"]:
                sys.stderr.write(result["error"])
            jobs = result["jobs"]
        metrics = end_to_end(jobs, setup_s)
        units = {**END_TO_END_UNITS, **EXTRA_UNITS}
        reported = END_TO_END_UNITS

    missing = [name for name in reported if name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    failed = sum(not j["ok"] for j in jobs)
    l3 = probe.l3_bytes(environment["l3"])
    design_bytes = W.design_bytes(wl)
    sizes = {"rows": wl.rows, "cols": W.design_cols(wl), "design_bytes": design_bytes,
             "l3_bytes": l3, "design_over_l3": design_bytes / l3 if l3 else None,
             "input_bytes": input_path.stat().st_size}
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": environment,
              "sizes": sizes, "metrics": metrics, "jobs": jobs,
              "spans_file": str(spans_path) if args.trace else None}
    (WORK / f"report-{stem}.json").write_text(json.dumps(report, indent=1))

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs={len(jobs)} failed={failed}")
    print("# env " + json.dumps(environment))
    print("# sizes " + json.dumps(sizes))
    if args.trace:
        print(f"# spans {spans_path}")
    for name, value in metrics.items():
        if name in units:
            suffix = ""
            if name == "job_tail_s":
                suffix = f"  (p{metrics['job_tail_pct']} of {metrics['job_tail_jobs']} jobs)"
            print(f"{name:40s} {value:>14.6g} {units[name]}{suffix}")
    if not args.trace and "job_tail_s" not in metrics:
        print(f"{'job_tail_s':40s} {'undefined':>14s}   ({len(jobs)} jobs; needs 11)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
