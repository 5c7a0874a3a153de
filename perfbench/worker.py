"""In-process jobs, run in a fresh child of ``run.py``.

Usage: python3 perfbench/worker.py CONFIG.json

The crossed workload's jobs are the library flow on an in-memory
Dataset. For the CLI workloads the traced run replays each call here, in
the order ``dummyreg.cli`` calls the layers, and writes the same stdout
text the CLI would print so one checker serves both. A fresh process
keeps the parent's input generation out of the job's peak RSS.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

import dummyreg as d  # noqa: E402  (found through PYTHONPATH set by run.py)


def crossed_job(data, tr, job: int):
    with tr.span("job", job):
        with tr.span("formula.parse_formula", job):
            ast = d.parse_formula(W.CROSSED_FORMULA)
        with tr.span("dataset.listwise_delete", job) as c:
            c["rows_in"] = data.n_rows
            kept = d.listwise_delete(data, [ast.response, *ast.variables()])
            c["rows_out"] = kept.n_rows
        with tr.span("encode.build_design", job, alloc=True) as c:
            design = d.build_design(ast, kept)
            c["rows"], c["cols"] = design.n_rows, design.n_cols
        with tr.span("solve.fit", job, alloc=True):
            result = d.fit(design)
        refs = d.design_references(design)
        with tr.span("report.render_text", job) as c:
            text = d.render_text(result, refs)
            c["bytes"] = len(text.encode())
    return result.fitted, result.rss


def cli_replay(kind: W.CliKind, csv_path: str, tr, job: int) -> str:
    """The layers of one CLI call, in cli._prepare/_emit_fit order."""
    out = io.StringIO()
    with tr.span("job", job):
        with tr.span("formula.parse_formula", job):
            ast = d.parse_formula(W.SURVEY_FORMULA)
        with tr.span("dataset.read_csv", job) as c:
            data = d.read_csv(csv_path)
            c["rows"], c["bytes"] = data.n_rows, Path(csv_path).stat().st_size
        with tr.span("dataset.listwise_delete", job) as c:
            c["rows_in"] = data.n_rows
            data = d.listwise_delete(data, [ast.response, *ast.variables()])
            c["rows_out"] = data.n_rows
        refs: dict[str, str] = {}
        if kind.refs:
            with tr.span("encode.relevel", job):
                for name, level in kind.refs:
                    refs = d.relevel(refs, name, level, data)
        with tr.span("encode.build_design", job, alloc=True) as c:
            design = d.build_design(ast, data, "treatment", refs)
            c["rows"], c["cols"] = design.n_rows, design.n_cols
        if kind.subcommand == "encode":
            with tr.span("cli.write_rows", job) as c:
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow([label.text for label in design.labels]
                                + [design.response_name])
                for i in range(design.n_rows):
                    writer.writerow([repr(float(v)) for v in design.values[i]]
                                    + [repr(float(design.response[i]))])
                c["bytes"] = out.tell()
            return out.getvalue()
        with tr.span("solve.fit", job, alloc=True):
            result = d.fit(design)
        if kind.subcommand == "predict":
            with tr.span("solve.predict_mean", job):
                value = d.predict_mean(result, dict(kind.at), design)
            with tr.span("report.format_value", job) as c:
                print(d.format_value(value, 2), file=out)
                c["bytes"] = out.tell()
            return out.getvalue()
        refs_meta = d.design_references(design)
        if kind.output == "json":
            with tr.span("report.render_json", job) as c:
                print(json.dumps(d.render_json(result, refs_meta, "treatment"),
                                 indent=2), file=out)
                c["bytes"] = out.tell()
        else:
            with tr.span("report.render_text", job) as c:
                out.write(d.render_text(result, refs_meta, 2))
                c["bytes"] = out.tell()
    return out.getvalue()


def run(cfg: dict) -> dict:
    wl = W.workload(cfg["workload"], cfg["size"])
    seed, seconds, traced_run = cfg["seed"], cfg["seconds"], cfg["trace"]
    if wl.uses_cli:
        csv_path = cfg["input"]
        checker = W.SurveyChecker(W.survey_arrays(seed, wl.rows), csv_path, d)
    else:
        with np.load(cfg["input"]) as npz:
            arrays = {k: npz[k] for k in npz.files}
        data = W.crossed_dataset(arrays, d)
        reference = None

    tracer = Tracer()
    untraced = NullTracer()
    jobs: list[dict] = []
    first_error = None
    # Untraced run: one job after another. Traced run: rounds of one
    # untraced and one traced job on the same kind, alternating which
    # goes first, so the pair's difference is the tracing overhead.
    busy = 0.0
    round_no = 0
    while busy < seconds or not jobs:
        kind = wl.kinds[round_no % len(wl.kinds)] if wl.uses_cli else None
        order = [False] if not traced_run else ([False, True] if round_no % 2 == 0
                                                 else [True, False])
        for traced in order:
            job = len(jobs)
            tr = tracer if traced else untraced
            rec = {"job": job, "kind": kind.name if kind else "library",
                   "traced": traced, "rows": wl.rows, "ok": False}
            out = None
            t0 = time.perf_counter()
            try:
                if kind:
                    out = cli_replay(kind, csv_path, tr, job)
                else:
                    out = crossed_job(data, tr, job)
            except Exception:
                first_error = first_error or traceback.format_exc()
            rec["wall"] = time.perf_counter() - t0
            if out is not None:
                if kind:
                    rec["ok"] = checker.check(kind, out)
                else:
                    reference = reference or W.crossed_reference(arrays)
                    rec["ok"] = W.check_crossed(reference, *out)
            jobs.append(rec)
            busy += rec["wall"]
        round_no += 1
    return {"jobs": jobs, "spans": tracer.spans, "error": first_error}


def main(argv: list[str]) -> int:
    cfg = json.loads(Path(argv[1]).read_text())
    Path(cfg["result"]).write_text(json.dumps(run(cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
