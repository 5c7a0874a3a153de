"""Brute-force verification tools kept independent of the main path.

synthesize() builds datasets whose per-cell sample means hit prescribed
values exactly, so coefficient algebra can be checked without any real
survey data. cell_means() is the direct groupby-mean computation, and
t_cdf_quadrature() integrates the t density with a fixed Gauss-Legendre
rule, in numpy alone, as an oracle for the closed-form CDF in the solve
module. random_one_factor() and random_two_factor() draw random
datasets, and t_cdf_error(), t_cdf_closed_form_error(),
scheme_invariance_error(), saturated_cell_mean_error() and
dummy_trap_caught() are the checks that the acceptance tests and
``dummyreg selftest`` both run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Sequence, Union

import numpy as np

from .dataset import (
    CategoricalColumn,
    Dataset,
    categorical_column,
    numeric_column,
)
from .dataset import _NUMBER_RE  # shared numeric-literal rule
from .encode import DesignMatrix, build_design, simple_labels
from .errors import RankDeficient, UnknownVariable
from .formula import SCHEMES, format_number, parse_formula
from .solve import fit, student_t_cdf


@dataclass(frozen=True)
class Cell:
    mean: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 2:
            raise ValueError(f"cell count must be an integer >= 2, got {self.count!r}")
        object.__setattr__(self, "mean", float(self.mean))


@dataclass(frozen=True)
class CellMeanSpec:
    """Prescribed sample means: factor level lists plus per-cell mean/count."""

    factors: dict[str, tuple[str, ...]]
    cells: dict[tuple[str, ...], Cell] = field(default_factory=dict)
    response: str = "y"

    def __post_init__(self):
        factors = {name: tuple(lvs) for name, lvs in self.factors.items()}
        cells = {tuple(key): cell for key, cell in self.cells.items()}
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "cells", cells)
        if not factors:
            raise ValueError("at least one factor is required")
        if self.response in factors:
            raise ValueError(f"response {self.response!r} collides with a factor")
        for name, lvs in factors.items():
            if len(lvs) != len(set(lvs)):
                raise ValueError(f"factor {name!r} has duplicate levels")
        if not cells:
            raise ValueError("at least one cell is required")
        for key in cells:
            if len(key) != len(factors):
                raise ValueError(f"cell {key!r} does not match the factor count")
            for level, (name, lvs) in zip(key, factors.items()):
                if level not in lvs:
                    raise ValueError(f"cell level {level!r} not in factor {name!r}")

    @property
    def n_rows(self) -> int:
        return sum(cell.count for cell in self.cells.values())


def spec_from_json(source: Union[str, IO[str]]) -> CellMeanSpec:
    """Read a CellMeanSpec from JSON text or a text stream."""
    doc = json.loads(source if isinstance(source, str) else source.read())
    cells = {
        tuple(entry["levels"]): Cell(float(entry["mean"]), int(entry["count"]))
        for entry in doc["cells"]
    }
    factors = {name: tuple(lvs) for name, lvs in doc["factors"].items()}
    return CellMeanSpec(factors, cells, doc.get("response", "y"))


def spec_to_json(spec: CellMeanSpec) -> str:
    doc = {
        "response": spec.response,
        "factors": {name: list(lvs) for name, lvs in spec.factors.items()},
        "cells": [
            {"levels": list(key), "mean": cell.mean, "count": cell.count}
            for key, cell in spec.cells.items()
        ],
    }
    return json.dumps(doc, indent=2)


def _cell_values(mean: float, count: int, spread: float) -> list[float]:
    values = []
    for _ in range(count // 2):
        values.extend((mean - spread, mean + spread))
    if count % 2:
        values.append(mean)
    return values


def synthesize(spec: CellMeanSpec, spread: float = 1.0) -> Dataset:
    """Emit count rows per cell averaging exactly to the cell's mean.

    Rows come in pairs mean-spread / mean+spread (odd counts add one row
    at the mean), so coefficients of any saturated fit are independent
    of the spread while standard errors are not. Factor columns whose
    levels all look numeric become numeric columns, mirroring how the
    CSV reader would type them.
    """
    if spread < 0:
        raise ValueError("spread must be >= 0")
    level_rows: list[list[str]] = [[] for _ in spec.factors]
    response: list[float] = []
    for key, cell in spec.cells.items():
        response.extend(_cell_values(cell.mean, cell.count, spread))
        for j, level in enumerate(key):
            level_rows[j].extend([level] * cell.count)

    columns = {}
    for (name, level_list), cells_col in zip(spec.factors.items(), level_rows):
        if all(_NUMBER_RE.match(lv) for lv in level_list):
            columns[name] = numeric_column(float(v) for v in cells_col)
        else:
            columns[name] = categorical_column(cells_col, level_list, pinned=True)
    columns[spec.response] = numeric_column(response)
    return Dataset(columns)


def random_one_factor(rng) -> Dataset:
    """One categorical predictor with unequal group sizes plus response."""
    k = int(rng.integers(2, 6))
    counts = rng.integers(2, 9, size=k)
    if len(set(counts.tolist())) == 1:
        counts[0] += 1
    codes = np.repeat(np.arange(k), counts)
    levels = tuple(f"g{i}" for i in range(k))
    y = rng.normal(20.0, 3.0, size=int(counts.sum()))
    return Dataset({
        "g": CategoricalColumn(levels, codes),
        "y": numeric_column(y),
    })


def random_two_factor(rng) -> Dataset:
    """Full two-way grid, every cell populated with >= 2 rows."""
    ka = int(rng.integers(2, 4))
    kb = int(rng.integers(2, 4))
    a_cells, b_cells, y = [], [], []
    for i in range(ka):
        for j in range(kb):
            count = int(rng.integers(2, 5))
            a_cells.extend([f"a{i}"] * count)
            b_cells.extend([f"b{j}"] * count)
            y.extend(rng.normal(10.0, 2.0, size=count).tolist())
    return Dataset({
        "a": categorical_column(a_cells),
        "b": categorical_column(b_cells),
        "y": numeric_column(y),
    })


def row_keys(data: Dataset, factors: Sequence[str]) -> list[tuple[str, ...]]:
    """Each row's cell: the level name of each factor, a number by its
    canonical level text."""
    columns = [data[name] for name in factors]
    return [tuple(c.levels[c.codes[i]] if isinstance(c, CategoricalColumn)
                  else format_number(c.values[i]) for c in columns)
            for i in range(data.n_rows)]


def cell_means(
    data: Dataset, factors: Sequence[str], response: str = "y"
) -> dict[tuple[str, ...], float]:
    """Arithmetic mean of the response per observed factor-level cell."""
    for name in list(factors) + [response]:
        if name not in data:
            raise UnknownVariable(name)
    y = data[response].values  # type: ignore[union-attr]
    sums: dict[tuple[str, ...], float] = {}
    counts: dict[tuple[str, ...], int] = {}
    for key, value in zip(row_keys(data, factors), y):
        sums[key] = sums.get(key, 0.0) + float(value)
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


# Composite Gauss-Legendre rule for t_cdf_quadrature: 16 equal panels
# of 64 nodes each (Golub & Welsch, Math. Comp. 23, 1969), set up once.
_GL_PANELS = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def t_cdf_quadrature(t: float, df: int) -> float:
    """Student-t CDF by a fixed composite Gauss-Legendre rule on the
    density over [0, |t|].

    Deliberately a separate computation path from the incomplete-beta
    CDF so the two can cross-check each other. It agrees with adaptive
    quadrature to 1e-13 for |t| <= 30 and df up to 1000, the domain
    that is checked; far beyond it (df = 1, t = 1e3) it drifts past
    1e-10. +-inf give exactly 1 or 0, and a NaN t gives NaN.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    t = float(t)
    if not math.isfinite(t):
        return t if math.isnan(t) else float(t > 0)
    ln_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    width = abs(t) / _GL_PANELS
    u = (np.arange(_GL_PANELS)[:, None] + 0.5 + 0.5 * _GL_NODES) * width
    density = np.exp(ln_norm - ((df + 1) / 2.0) * np.log1p(u * u / df))
    area = 0.5 * width * float(np.sum(_GL_WEIGHTS * density))
    return 0.5 + area if t >= 0 else 0.5 - area


# --- checks shared by the acceptance tests and ``dummyreg selftest`` ---
# Each returns its worst error through np.max, so a NaN error is
# returned as NaN and fails the caller's bound.

def t_cdf_error(dfs: Sequence[int], ts: Sequence[float]) -> float:
    """Largest |student_t_cdf - t_cdf_quadrature| over every (df, t)."""
    return float(np.max([abs(student_t_cdf(float(t), df) - t_cdf_quadrature(t, df))
                         for df in dfs for t in ts]))


def t_cdf_closed_form_error() -> float:
    """Largest error of student_t_cdf at two closed forms: cdf(0) = 1/2
    at df = 7, and the Cauchy cdf(1) = 3/4 at df = 1."""
    return float(np.max([abs(student_t_cdf(0.0, 7) - 0.5),
                         abs(student_t_cdf(1.0, 1) - 0.75)]))


def dummy_trap_caught(rng, ks: Sequence[int], trials: int) -> tuple[int, int]:
    """Fit an intercept plus all k one-hot dummies of a random grouping
    (2 to 5 rows a group), ``trials`` times for each k.

    Returns how many fits raised RankDeficient naming only columns of
    the design, and how many were run.
    """
    caught = total = 0
    for k in ks:
        labels = simple_labels(["(intercept)"] + [f"g[{i}]" for i in range(k)])
        for _ in range(trials):
            codes = np.repeat(np.arange(k), rng.integers(2, 6, size=k))
            one_hot = np.zeros((codes.size, k))
            one_hot[np.arange(codes.size), codes] = 1.0
            design = DesignMatrix(np.column_stack([np.ones(codes.size), one_hot]),
                                  labels, rng.normal(size=codes.size))
            total += 1
            try:
                fit(design)
            except RankDeficient as exc:
                named = set(exc.labels)
                caught += bool(named) and named <= {lb.text for lb in labels}
    return caught, total


def scheme_invariance_error(rng, trials: int) -> tuple[float, float]:
    """Fit ``y ~ g`` under every scheme on random one-factor sets.

    Returns the largest fitted-value difference between schemes, and
    the largest error of the effect-coded intercept against the
    unweighted mean of the group means and of the weighted-effect
    intercept against the grand mean.
    """
    ast = parse_formula("y ~ g")
    fit_errors, intercept_errors = [], []
    for _ in range(trials):
        data = random_one_factor(rng)
        fits = {s: fit(build_design(ast, data, s)) for s in SCHEMES}
        base = fits["treatment"].fitted
        fit_errors += [np.max(np.abs(other.fitted - base)) for other in fits.values()]
        means = cell_means(data, ["g"], "y")
        unweighted = sum(means.values()) / len(means)
        grand = float(data["y"].values.mean())
        intercept_errors += [abs(fits["effect"].coefficients[0] - unweighted),
                             abs(fits["weighted"].coefficients[0] - grand)]
    return float(np.max(fit_errors)), float(np.max(intercept_errors))


def saturated_cell_mean_error(rng, trials: int) -> float:
    """Largest |fitted - cell mean| of ``y ~ a * b`` over every row of
    random full two-factor grids."""
    ast = parse_formula("y ~ a * b")
    errors = []
    for _ in range(trials):
        data = random_two_factor(rng)
        result = fit(build_design(ast, data))
        means = cell_means(data, ["a", "b"], "y")
        expected = [means[key] for key in row_keys(data, ["a", "b"])]
        errors.append(np.max(np.abs(result.fitted - expected)))
    return float(np.max(errors))
