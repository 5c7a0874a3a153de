"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

from dummyreg import (
    CategoricalColumn,
    Dataset,
    build_design,
    cell_means,
    parse_formula,
    spec_from_json,
    synthesize,
)
from dummyreg.formula import format_number
from dummyreg.oracle import random_one_factor, random_two_factor  # noqa: F401

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


def row_cell_key(data: Dataset, factors, i: int) -> tuple[str, ...]:
    key = []
    for name in factors:
        column = data[name]
        if isinstance(column, CategoricalColumn):
            key.append(column.levels[column.codes[i]])
        else:
            key.append(format_number(column.values[i]))
    return tuple(key)


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
