"""Columnar dataset with typed columns and strict CSV ingestion.

Numeric columns are float64 with NaN marking missing cells. Categorical
columns store a level vocabulary plus integer codes (-1 = missing), so
level order is explicit and survives row filtering. A column whose
levels were pinned by a caller (rather than inferred from the data)
keeps its full vocabulary even when some level has no observed rows.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

import numpy as np

from .errors import (
    EmptyAfterDeletion,
    EmptyInput,
    MalformedCsv,
    NotCategorical,
    RaggedRow,
    UnknownVariable,
)

MISSING_TOKENS = ("", "NA")

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


@dataclass(frozen=True)
class NumericColumn:
    values: np.ndarray  # float64, NaN = missing

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)


@dataclass(frozen=True)
class CategoricalColumn:
    levels: tuple[str, ...]
    codes: np.ndarray  # int64 indices into levels, -1 = missing
    pinned: bool = False

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        codes.flags.writeable = False
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "codes", codes)
        if len(self.levels) != len(set(self.levels)):
            raise ValueError("duplicate level names")
        if codes.size and (codes.max() >= len(self.levels) or codes.min() < -1):
            raise ValueError("code out of range for level vocabulary")

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def missing(self) -> np.ndarray:
        return self.codes == -1

    @property
    def counts(self) -> np.ndarray:
        """Observed rows per level, in vocabulary order."""
        observed = self.codes[self.codes >= 0]
        return np.bincount(observed, minlength=len(self.levels))


Column = Union[NumericColumn, CategoricalColumn]


@dataclass(frozen=True)
class Dataset:
    columns: dict[str, Column]

    def __post_init__(self):
        lengths = {len(col) for col in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        for col in self.columns.values():
            return len(col)
        return 0

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def __getitem__(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownVariable(name) from None


@dataclass(frozen=True)
class ColumnSchema:
    kind: str  # "numeric" | "categorical" | "auto"
    levels: tuple[str, ...] | None = None  # pins order when categorical


@dataclass(frozen=True)
class Schema:
    columns: dict[str, ColumnSchema] = field(default_factory=dict)

    def for_name(self, name: str) -> ColumnSchema:
        return self.columns.get(name, ColumnSchema("auto"))


def numeric_column(values: Iterable[float]) -> NumericColumn:
    return NumericColumn(np.asarray(list(values), dtype=np.float64))


def categorical_column(
    values: Iterable[str],
    levels: tuple[str, ...] | None = None,
    pinned: bool = False,
) -> CategoricalColumn:
    """Build a categorical column from string cells.

    Without explicit levels the vocabulary is first-appearance order of
    the observed values. Missing tokens map to code -1.
    """
    cells = list(values)
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


def _looks_numeric(cells: list[str]) -> bool:
    seen_value = False
    for cell in cells:
        if cell in MISSING_TOKENS:
            continue
        seen_value = True
        if _NUMBER_RE.match(cell) is None:
            return False
    return seen_value


def read_csv(source: Union[str, IO[str]], schema: Schema | None = None) -> Dataset:
    """Read a CSV file (path or text stream) into a Dataset.

    The first row is the header. Missing cells are "" or "NA", exactly.
    Untyped columns are numeric when every non-missing cell parses as a
    number, else categorical with levels in first-appearance order.
    """
    if isinstance(source, str):
        with open(source, newline="") as fh:
            return read_csv(fh, schema)
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    schema = schema or Schema()

    reader = csv.reader(source, strict=True)
    try:
        rows = list(reader)
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
    for offset, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise RaggedRow(offset, len(row), len(header))

    cells_by_col = [[row[j].strip() for row in body] for j in range(len(header))]
    columns: dict[str, Column] = {}
    for name, cells in zip(header, cells_by_col):
        spec = schema.for_name(name)
        if spec.kind == "numeric":
            columns[name] = _parse_numeric(name, cells)
        elif spec.kind == "categorical":
            columns[name] = categorical_column(
                cells, levels=spec.levels, pinned=spec.levels is not None
            )
        elif _looks_numeric(cells):
            columns[name] = _parse_numeric(name, cells)
        else:
            columns[name] = categorical_column(cells)
    return Dataset(columns)


def read_csv_text(text: str, schema: Schema | None = None) -> Dataset:
    return read_csv(io.StringIO(text), schema)


def _parse_numeric(name: str, cells: list[str]) -> NumericColumn:
    values = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if cell in MISSING_TOKENS:
            values[i] = np.nan
        elif _NUMBER_RE.match(cell):
            values[i] = float(cell)
        else:
            raise MalformedCsv(i + 2, f"column {name!r}: {cell!r} is not a number")
    return NumericColumn(values)


def listwise_delete(data: Dataset, variables: Iterable[str]) -> Dataset:
    """Drop every row with a missing value in any of the given columns.

    Unpinned categorical columns then shed levels that no longer occur,
    keeping the survivors in their original order; pinned columns keep
    their full vocabulary.
    """
    names = list(variables)
    keep = np.ones(data.n_rows, dtype=bool)
    for name in names:
        keep &= ~data[name].missing
    if not keep.any():
        raise EmptyAfterDeletion()
    if keep.all():
        return data

    columns: dict[str, Column] = {}
    for name, col in data.columns.items():
        if isinstance(col, NumericColumn):
            columns[name] = NumericColumn(col.values[keep])
        else:
            codes = col.codes[keep]
            if col.pinned:
                columns[name] = CategoricalColumn(col.levels, codes, pinned=True)
            else:
                k = len(col.levels)
                present = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=k))
                # One slot past the levels maps the missing code -1 to -1.
                remap = np.full(k + 1, -1, dtype=np.int64)
                remap[present] = np.arange(present.size)
                new_levels = tuple(col.levels[i] for i in present)
                columns[name] = CategoricalColumn(new_levels, remap[codes])
    return Dataset(columns)


def levels(data: Dataset, name: str) -> tuple[str, ...]:
    col = data[name]
    if not isinstance(col, CategoricalColumn):
        raise NotCategorical(name)
    return col.levels
