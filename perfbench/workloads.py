"""Workload inputs, independent references and output checks.

Every input is generated from the run's seed, so one seed always gives
the same files and arrays. The references here never call dummyreg's
encoder or solver: cell means come from ``np.bincount`` and coefficients
from ``numpy.linalg.lstsq`` on a design assembled from the generated
arrays. Outputs that have no closed-form reference (text tables, the
design dump, a prediction) are compared with the library computing the
same thing in-process, which checks the CLI plumbing around it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CROSSED_FORMULA = "y ~ a*b*c"
SURVEY_FORMULA = (
    "bmi ~ female*edu + female*cat(children) + cat(year)"
    " + center(log(age), at=log(18))"
)
A_LEVELS = ("north", "south", "east", "west", "centre")
B_LEVELS = ("q1", "q2", "q3", "q4")
C_LEVELS = ("small", "medium", "large")
EDU_LEVELS = ("secondary", "primary", "tertiary")
SURVEY_HEADER = ("bmi", "female", "edu", "children", "year", "age")
N_CHILDREN = 4  # cat(children) levels 0..3
N_YEARS = 5  # cat(year) levels 2000..2004

# Rows per workload. "tiny" is for the benchmark's own smoke test.
ROWS = {
    "full": {"crossed_1m": 1_000_000, "mixed_csv_200k": 200_000,
             "cli_small_mix": 10_000},
    "tiny": {"crossed_1m": 3_000, "mixed_csv_200k": 2_000,
             "cli_small_mix": 1_000},
}


@dataclass(frozen=True)
class CliKind:
    """One kind of CLI call: the subcommand and the flags after --formula."""

    name: str
    subcommand: str
    output: str = "text"
    refs: tuple[tuple[str, str], ...] = ()
    at: tuple[tuple[str, str], ...] = ()

    def argv(self, csv_path: str) -> list[str]:
        args = [self.subcommand, "--data", csv_path, "--formula", SURVEY_FORMULA]
        if self.subcommand != "encode":
            args += ["--output", self.output]
        for flag, pairs in (("--refs", self.refs), ("--at", self.at)):
            for name, value in pairs:
                args += [flag, f"{name}={value}"]
        return args


FIT_JSON = CliKind("fit_json", "fit", output="json")
SMALL_MIX = (
    CliKind("fit_text", "fit"),
    FIT_JSON,
    CliKind("relevel", "relevel", refs=(("edu", "tertiary"),)),
    CliKind("predict", "predict", at=(
        ("female", "1"), ("edu", "primary"), ("children", "2"),
        ("year", "2002"), ("age", "40"))),
    CliKind("encode", "encode"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[CliKind, ...]  # empty for the in-memory library flow
    rows: int

    @property
    def uses_cli(self) -> bool:
        return bool(self.kinds)


def workload(name: str, size: str = "full") -> Workload:
    kinds = {"crossed_1m": (), "mixed_csv_200k": (FIT_JSON,),
             "cli_small_mix": SMALL_MIX}[name]
    return Workload(name, kinds, ROWS[size][name])


def design_cols(wl: Workload) -> int:
    if not wl.uses_cli:
        return len(A_LEVELS) * len(B_LEVELS) * len(C_LEVELS)
    # intercept, female, edu, children, year, age, female:edu, female:children
    k_edu = len(EDU_LEVELS) - 1
    return 1 + 1 + k_edu + (N_CHILDREN - 1) + (N_YEARS - 1) + 1 + k_edu + (N_CHILDREN - 1)


def design_bytes(wl: Workload) -> int:
    """Dense float64 design size before listwise deletion (an upper bound)."""
    return wl.rows * design_cols(wl) * 8


# --- generation -----------------------------------------------------------

def crossed_arrays(seed: int, n: int) -> dict[str, np.ndarray]:
    """Codes for a 5x4x3 crossing, about 1% of ``a`` missing (-1)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, len(A_LEVELS), n)
    b = rng.integers(0, len(B_LEVELS), n)
    c = rng.integers(0, len(C_LEVELS), n)
    cell_means = rng.normal(50.0, 5.0, len(A_LEVELS) * len(B_LEVELS) * len(C_LEVELS))
    y = cell_means[crossed_cell(a, b, c)] + rng.normal(0.0, 2.0, n)
    a[rng.random(n) < 0.01] = -1
    return {"a": a, "b": b, "c": c, "y": y}


def crossed_cell(a, b, c) -> np.ndarray:
    return (a * len(B_LEVELS) + b) * len(C_LEVELS) + c


def crossed_dataset(arrays, dummyreg):
    cat = dummyreg.CategoricalColumn
    return dummyreg.Dataset({
        "y": dummyreg.NumericColumn(arrays["y"]),
        "a": cat(A_LEVELS, arrays["a"]),
        "b": cat(B_LEVELS, arrays["b"]),
        "c": cat(C_LEVELS, arrays["c"]),
    })


def survey_arrays(seed: int, n: int) -> dict[str, np.ndarray]:
    """Survey columns; ``bmi`` in exact thousandths, about 2% of ``edu`` NA (-1)."""
    rng = np.random.default_rng(seed)
    female = rng.integers(0, 2, n)
    edu = rng.integers(0, len(EDU_LEVELS), n)
    children = rng.integers(0, N_CHILDREN, n)
    year = 2000 + rng.integers(0, N_YEARS, n)
    age = rng.integers(18, 81, n)
    mean = (23.0 + 0.8 * female + np.array([0.0, 1.1, -0.9])[edu]
            - 0.5 * female * (edu == 2) + 0.3 * children
            + 0.1 * (year - 2000) + 1.7 * np.log(age / 18.0))
    bmi_milli = np.rint((mean + rng.normal(0.0, 3.0, n)) * 1000).astype(np.int64)
    edu[rng.random(n) < 0.02] = -1
    return {"bmi": bmi_milli / 1000.0, "female": female, "edu": edu,
            "children": children, "year": year, "age": age}


def survey_csv_text(arrays) -> str:
    edu_text = [EDU_LEVELS[e] if e >= 0 else "NA" for e in arrays["edu"].tolist()]
    rows = zip(arrays["bmi"].tolist(), arrays["female"].tolist(), edu_text,
               arrays["children"].tolist(), arrays["year"].tolist(),
               arrays["age"].tolist())
    lines = [",".join(SURVEY_HEADER)]
    lines += [f"{bmi!r},{f},{e},{k},{yr},{age}" for bmi, f, e, k, yr, age in rows]
    return "\n".join(lines) + "\n"


def write_inputs(wl: Workload, seed: int, work: Path, dummyreg) -> Path:
    """Generate one workload's inputs into ``work``; returns the input file.

    The crossed workload also builds its in-memory Dataset here, so the
    set-up time covers everything a job receives ready-made.
    """
    if wl.uses_cli:
        path = work / f"{wl.name}-seed{seed}.csv"
        path.write_text(survey_csv_text(survey_arrays(seed, wl.rows)))
        return path
    arrays = crossed_arrays(seed, wl.rows)
    crossed_dataset(arrays, dummyreg)
    path = work / f"{wl.name}-seed{seed}.npz"
    np.savez(path, **arrays)
    return path


# --- references -------------------------------------------------------------

@dataclass(frozen=True)
class CrossedReference:
    fitted: np.ndarray  # per-row cell mean of the kept rows
    rss: float


def crossed_reference(arrays) -> CrossedReference:
    """Per-cell means by ``np.bincount``; RSS as a two-pass within-cell sum."""
    keep = arrays["a"] >= 0
    cell = crossed_cell(arrays["a"][keep], arrays["b"][keep], arrays["c"][keep])
    y = arrays["y"][keep]
    counts = np.bincount(cell)
    means = np.bincount(cell, weights=y) / counts
    fitted = means[cell]
    resid = y - fitted
    return CrossedReference(fitted, float(resid @ resid))


def check_crossed(ref: CrossedReference, fitted, rss: float) -> bool:
    fitted = np.asarray(fitted)
    if fitted.shape != ref.fitted.shape:
        return False
    scale = float(np.abs(ref.fitted).max())
    return (bool(np.abs(fitted - ref.fitted).max() <= 1e-9 * scale)
            and math.isclose(rss, ref.rss, rel_tol=1e-9))


def _level_order(codes: np.ndarray) -> list[int]:
    """Codes in order of first appearance, missing (-1) excluded."""
    observed = codes[codes >= 0]
    _, first = np.unique(observed, return_index=True)
    return [int(observed[i]) for i in np.sort(first)]


@dataclass(frozen=True)
class SurveyFit:
    coefficients: dict[str, float]
    rss: float
    n_rows: int


def survey_lstsq(arrays, refs: dict[str, str] | None = None) -> SurveyFit:
    """Treatment-coded OLS of SURVEY_FORMULA by ``numpy.linalg.lstsq``.

    Levels of ``edu`` follow first appearance in the file and the first
    one is the reference; ``cat(...)`` levels sort numerically.
    """
    refs = refs or {}
    keep = arrays["edu"] >= 0
    col = {name: arr[keep] for name, arr in arrays.items()}
    female = col["female"].astype(float)
    edu_order = [EDU_LEVELS[c] for c in _level_order(arrays["edu"])]
    edu_ref = refs.get("edu", edu_order[0])
    edu = {lv: (col["edu"] == EDU_LEVELS.index(lv)).astype(float)
           for lv in edu_order if lv != edu_ref}
    kids = {str(k): (col["children"] == k).astype(float)
            for k in np.unique(col["children"])[1:]}
    years = {str(v): (col["year"] == v).astype(float)
             for v in np.unique(col["year"])[1:]}

    columns = {"(intercept)": np.ones(keep.sum()), "female": female}
    columns.update({f"edu[{lv}]": v for lv, v in edu.items()})
    columns.update({f"children[{k}]": v for k, v in kids.items()})
    columns.update({f"year[{k}]": v for k, v in years.items()})
    columns["center(log(age), at=log(18))"] = np.log(col["age"]) - np.log(18.0)
    columns.update({f"female×edu[{lv}]": female * v for lv, v in edu.items()})
    columns.update({f"female×children[{k}]": female * v for k, v in kids.items()})

    x = np.column_stack(list(columns.values()))
    beta, _, _, _ = np.linalg.lstsq(x, col["bmi"], rcond=None)
    resid = col["bmi"] - x @ beta
    return SurveyFit(dict(zip(columns, beta.tolist())), float(resid @ resid),
                     int(keep.sum()))


def check_fit_json(stdout: str, ref: SurveyFit) -> bool:
    try:
        doc = json.loads(stdout)
        got = {c["label"]: c["estimate"] for c in doc["coefficients"]}
        rss, n_rows = doc["rss"], doc["n_rows"]
    except (ValueError, KeyError, TypeError):
        return False
    if set(got) != set(ref.coefficients) or n_rows != ref.n_rows:
        return False
    labels = sorted(got)
    est = np.array([got[k] for k in labels])
    want = np.array([ref.coefficients[k] for k in labels])
    return (bool(np.allclose(est, want, rtol=1e-8, atol=1e-10))
            and math.isclose(rss, ref.rss, rel_tol=1e-9))


def check_encode(stdout: str, header: list[str], values: np.ndarray) -> bool:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header or len(rows) - 1 != values.shape[0]:
        return False
    try:
        got = np.array(rows[1:], dtype=np.float64)
    except ValueError:
        return False
    return got.shape == values.shape and bool(np.array_equal(got, values))


@dataclass
class SurveyChecker:
    """Checks CLI-shaped stdout for every kind, building references lazily.

    References are computed on first use, after the first job's timer has
    stopped, and cached for the rest of the run.
    """

    arrays: dict[str, np.ndarray]
    csv_path: str
    dummyreg: object
    _cache: dict = field(default_factory=dict)

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _library_design(self, kind: CliKind):
        d = self.dummyreg
        ast = d.parse_formula(SURVEY_FORMULA)
        data = d.listwise_delete(d.read_csv(self.csv_path),
                                 [ast.response, *ast.variables()])
        return d.build_design(ast, data, "treatment", dict(kind.refs))

    def _library_stdout(self, kind: CliKind) -> str:
        d = self.dummyreg
        design = self._library_design(kind)
        result = d.fit(design)
        if kind.subcommand == "predict":
            value = d.predict_mean(result, dict(kind.at), design)
            return d.format_value(value, 2) + "\n"
        return d.render_text(result, d.design_references(design), 2)

    def _library_encode(self, kind: CliKind):
        design = self._library_design(kind)
        header = [label.text for label in design.labels] + [design.response_name]
        return header, np.column_stack([design.values, design.response])

    def check(self, kind: CliKind, stdout: str) -> bool:
        if kind.output == "json":
            ref = self._get(kind.name, lambda: survey_lstsq(self.arrays, dict(kind.refs)))
            return check_fit_json(stdout, ref)
        if kind.subcommand == "encode":
            header, values = self._get(kind.name, lambda: self._library_encode(kind))
            return check_encode(stdout, header, values)
        return stdout == self._get(kind.name, lambda: self._library_stdout(kind))
