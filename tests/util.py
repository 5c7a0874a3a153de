"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from dummyreg import (
    CategoricalColumn,
    Dataset,
    NumericColumn,
    Schema,
    build_design,
    cell_means,
    parse_formula,
    spec_from_json,
    synthesize,
)
from dummyreg.dataset import _NUMBER_RE, MISSING_TOKENS
from dummyreg.errors import EmptyInput, MalformedCsv, RaggedRow
from dummyreg.oracle import random_one_factor  # noqa: F401

DATA_DIR = Path(__file__).parent / "data"


def load_spec(name: str):
    return spec_from_json((DATA_DIR / name).read_text())


def load_json(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text())


def interaction_design(spread: float = 0.3):
    """Crossed 2x3 design from the checked-in cell-mean file.

    Returns (design, data, observed cell means keyed by level tuple).
    """
    data = synthesize(load_spec("sex_by_education_means.json"), spread)
    design = build_design(parse_formula("bmi ~ female * edu"), data,
                          refs={"edu": "low"})
    means = cell_means(data, ["female", "edu"], "bmi")
    return design, data, means


def exact_ols(x: np.ndarray, y: np.ndarray) -> tuple[list[Fraction], Fraction]:
    """The least-squares coefficients and RSS of y on the columns of x,
    exactly: every float64 is a Fraction, and the normal equations are
    solved by Gauss-Jordan elimination in Fractions. Made for designs up
    to about 60 x 10; x must have full column rank."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=np.float64).tolist()]
    ys = [Fraction(v) for v in np.asarray(y, dtype=np.float64).tolist()]
    cols = list(zip(*rows))
    p = len(cols)

    def dot(u, v):
        return sum(map(operator.mul, u, v), Fraction(0))

    # The augmented system [X'X | X'y], one list per equation.
    system = [[dot(cols[i], cols[j]) for j in range(p)] + [dot(cols[i], ys)]
              for i in range(p)]
    for k in range(p):
        pivot = next((i for i in range(k, p) if system[i][k] != 0), None)
        if pivot is None:
            raise ValueError("x does not have full column rank")
        system[k], system[pivot] = system[pivot], system[k]
        for i in range(p):
            if i != k and system[i][k] != 0:
                factor = system[i][k] / system[k][k]
                system[i] = [a - factor * b for a, b in zip(system[i], system[k])]
    beta = [system[k][p] / system[k][k] for k in range(p)]
    rss = sum(((yi - dot(row, beta)) ** 2 for row, yi in zip(rows, ys)), Fraction(0))
    return beta, rss


def reference_dependent_in_order(a: np.ndarray, tol: float) -> list[int]:
    """The rank scan that solve's LAPACK test must agree with: columns
    of a that lie in the span of the earlier columns kept, scanned left
    to right, by Gram-Schmidt: those whose remainder after projecting
    out the kept columns (twice, for orthogonality) is shorter than tol."""
    basis = np.empty((a.shape[0], 0))
    dependent = []
    for j in range(a.shape[1]):
        w = a[:, j]
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        norm = math.sqrt(w @ w)
        if norm < tol:
            dependent.append(j)
        else:
            basis = np.column_stack([basis, w / norm])
    return dependent


def reference_back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for an upper-triangular r, a row at a time from the
    bottom; b is a vector or a matrix."""
    x = np.array(b, dtype=np.float64)
    for i in range(len(r) - 1, -1, -1):
        x[i] -= r[i, i + 1:] @ x[i + 1:]
        x[i] /= r[i, i]
    return x


def reference_format_value(value: float, places: int = 2) -> str:
    """format_value by the decimal module: repr(value) quantized to
    places, ties away from zero, with no leading zero below 1."""
    value = float(value)
    if not math.isfinite(value):
        return str(value)
    exact = Decimal(repr(value))
    # Precise enough for every digit of the result, one more for a carry.
    context = Context(prec=max(exact.adjusted(), 0) + places + 2)
    quantum = Decimal(1).scaleb(-places)
    text = f"{exact.quantize(quantum, rounding=ROUND_HALF_UP, context=context):f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def dataset_csv(data: Dataset) -> str:
    """Dataset as CSV text that read_csv types back identically."""
    lines = [",".join(data.columns)]
    for i in range(data.n_rows):
        cells = []
        for name in data.columns:
            column = data[name]
            if isinstance(column, CategoricalColumn):
                cells.append(column.levels[column.codes[i]])
            else:
                cells.append(repr(float(column.values[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_read_csv(text: str, schema: Schema | None = None) -> Dataset:
    """The per-cell CSV reader that read_csv must agree with.

    It tokenizes the whole text, noting the physical line each row
    starts on, then strips, types and codes every cell on its own, in
    row order.
    """
    schema = schema or Schema()
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    rows, starts, end = [], [], 0
    try:
        for row in reader:
            rows.append(row)
            starts.append(end + 1)
            end = reader.line_num
    except csv.Error as exc:
        raise MalformedCsv(reader.line_num, str(exc)) from None
    if not rows:
        raise EmptyInput()

    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise MalformedCsv(1, f"duplicate column name {dupes[0]!r}")
    if any(not h for h in header):
        raise MalformedCsv(1, "empty column name")

    body = rows[1:]
    if not body:
        raise EmptyInput()
    lines = starts[1:]
    for line, row in zip(lines, body):
        if len(row) != len(header):
            raise RaggedRow(line, len(row), len(header))

    cells_by_col = [[row[j].strip() for row in body] for j in range(len(header))]
    columns = {}
    for name, cells in zip(header, cells_by_col):
        spec = schema.for_name(name)
        if spec.kind == "numeric":
            columns[name] = _reference_numeric(name, cells, lines)
        elif spec.kind == "categorical":
            columns[name] = _reference_categorical(
                cells, spec.levels, spec.levels is not None)
        elif _reference_looks_numeric(cells):
            columns[name] = _reference_numeric(name, cells, lines)
        else:
            columns[name] = _reference_categorical(cells, None, False)
    return Dataset(columns)


def _reference_looks_numeric(cells: list[str]) -> bool:
    seen_value = False
    for cell in cells:
        if cell in MISSING_TOKENS:
            continue
        seen_value = True
        if _NUMBER_RE.match(cell) is None:
            return False
    return seen_value


def _reference_numeric(name: str, cells: list[str], lines: list[int]) -> NumericColumn:
    values = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if cell in MISSING_TOKENS:
            values[i] = np.nan
        elif _NUMBER_RE.match(cell):
            values[i] = float(cell)
        else:
            raise MalformedCsv(lines[i], f"column {name!r}: {cell!r} is not a number")
    return NumericColumn(values)


def _reference_categorical(cells: list[str], levels, pinned: bool):
    if levels is None:
        vocab: dict[str, int] = {}
        for cell in cells:
            if cell not in MISSING_TOKENS:
                vocab.setdefault(cell, len(vocab))
        levels = tuple(vocab)
    index = {level: i for i, level in enumerate(levels)}
    codes = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        if cell in MISSING_TOKENS:
            codes[i] = -1
        else:
            try:
                codes[i] = index[cell]
            except KeyError:
                raise ValueError(f"value {cell!r} not in pinned levels") from None
    return CategoricalColumn(levels, codes, pinned=pinned)
