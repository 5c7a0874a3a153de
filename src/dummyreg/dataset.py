"""Columnar dataset with typed columns and strict CSV ingestion.

Numeric columns are float64 with NaN marking missing cells. Categorical
columns store a level vocabulary plus integer codes (-1 = missing), so
level order is explicit and survives row filtering. A column whose
levels were pinned by a caller (rather than inferred from the data)
keeps its full vocabulary even when some level has no observed rows.
"""

from __future__ import annotations

import array
import csv
import functools
import io
import itertools
import re
import warnings
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Union

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

# Rows read_csv tokenizes before coding them column by column. A block
# this small is freed before the cyclic collector promotes its row lists
# to the oldest generation; with 1024 and 4096 rows, reading a 2e5-row
# file took 1.3x and 1.6x as long (CPython 3.11).
_BLOCK_ROWS = 512

# Characters of text that read_csv hands to np.loadtxt at a time, rounded
# up to the end of a line. This is below csv's default field limit of
# 128 KiB. On a 2e5-row, 5.6 MB file (CPython 3.11, numpy 2.4), 64 KiB
# read as fast as 1 MiB and peaked about 10 MB lower.
_CHUNK_CHARS = 1 << 16


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, so that no caller can change a column's data
    under the facts it caches. A view of all of an array's data freezes
    that array too; any other view (a slice, or of a bytearray) is copied."""
    owner = arr.base
    if (isinstance(owner, np.ndarray) and owner.base is None
            and owner.nbytes == arr.nbytes):
        owner.flags.writeable = False
    elif owner is not None:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NumericColumn:
    values: np.ndarray  # float64, NaN = missing

    def __post_init__(self):
        arr = _frozen(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)

    @functools.cached_property
    def has_missing(self) -> bool:
        """Whether any value is NaN, tested once per column."""
        return bool(np.isnan(self.values).any())


def _code_dtype(n_levels: int) -> np.dtype:
    """The narrowest signed integer type that holds -1..n_levels-1."""
    for dtype in (np.int8, np.int16, np.int32):
        if n_levels - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class CategoricalColumn:
    levels: tuple[str, ...]
    # Indices into levels, -1 = missing, in the narrowest signed integer
    # type that holds -1..len(levels)-1 (int8 for up to 128 levels).
    codes: np.ndarray
    pinned: bool = False

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.dtype.kind not in "iu":
            codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) != len(set(self.levels)):
            raise ValueError("duplicate level names")
        # Tested in the input's own integer type, before narrowing, so
        # that no code can wrap into range.
        if codes.size and (int(codes.max()) >= len(self.levels)
                           or int(codes.min()) < -1):
            raise ValueError("code out of range for level vocabulary")
        codes = _frozen(codes.astype(_code_dtype(len(self.levels)), copy=False))
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def missing(self) -> np.ndarray:
        return self.codes == -1

    @property
    def has_missing(self) -> bool:
        return int(self.counts.sum()) < len(self.codes)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """Observed rows per level, in vocabulary order, read-only.

        Counted once per column: the codes cannot change.
        """
        observed = self.codes
        if observed.size and observed.min() < 0:
            observed = observed[observed >= 0]
        return _seed(self, "counts", np.bincount(observed, minlength=len(self.levels)))


Column = Union[NumericColumn, CategoricalColumn]


def _seed(owner, name: str, value: np.ndarray) -> np.ndarray:
    """Make value read-only and store it as owner's cached property name."""
    value.flags.writeable = False
    owner.__dict__[name] = value
    return value


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
    book = _Codebook()
    book.add(values)
    distinct, codes = book.factorize(strip=False)
    return _categorical(distinct, codes, levels, pinned)


class _Codebook:
    """The distinct cells of one column, fed a block of rows at a time.

    add() costs one dict lookup per cell and keeps one int64 per row, the
    row where that row's cell first occurs, so a block's strings can be
    freed once it is added. factorize() strips and numbers each distinct
    cell once.
    """

    def __init__(self):
        self.first_row: dict = {}  # distinct cell -> row it first occurs in
        self.rows = array.array("q")  # each row's first_row value

    def add(self, cells: Iterable) -> None:
        row_numbers = itertools.count(len(self.rows))
        self.rows.extend(map(self.first_row.setdefault, cells, row_numbers))

    def factorize(self, strip: bool) -> tuple[list, np.ndarray]:
        """Distinct values in first-appearance order, and each row's index.

        With strip, cells that strip to the same value are one value.
        """
        distinct: dict = {}
        code_at_row = np.empty(len(self.rows), dtype=np.int64)
        for cell, row in self.first_row.items():
            value = cell.strip() if strip else cell
            code_at_row[row] = distinct.setdefault(value, len(distinct))
        return list(distinct), code_at_row[np.frombuffer(self.rows, dtype=np.int64)]


def _categorical(
    distinct: list,
    codes: np.ndarray,
    levels: tuple[str, ...] | None,
    pinned: bool = False,
) -> CategoricalColumn:
    """Categorical column from factorize output; levels fix the vocabulary."""
    if levels is None:
        levels = tuple(v for v in distinct if v not in MISSING_TOKENS)
    index = {level: i for i, level in enumerate(levels)}
    # distinct is in first-appearance order, so the first stranger found
    # here is also the first one in row order.
    remap = np.empty(len(distinct), dtype=_code_dtype(len(levels)))
    for i, value in enumerate(distinct):
        if value in MISSING_TOKENS:
            remap[i] = -1
        elif value in index:
            remap[i] = index[value]
        else:
            raise ValueError(f"value {value!r} not in pinned levels")
    return CategoricalColumn(levels, remap[codes], pinned=pinned)


def _first_row(bad: np.ndarray, index: np.ndarray | None = None) -> int:
    """The first row that index (None: the identity) maps to a true entry
    of bad; when no row does, the position of bad's first true entry."""
    used = bad if index is None else bad[index]
    return int(np.argmax(used if used.any() else bad))


def _number(value: str) -> float | None:
    """The float a CSV cell stands for: NaN if missing, None if no number."""
    if value in MISSING_TOKENS:
        return np.nan
    return float(value) if _NUMBER_RE.match(value) else None


def _read_column(
    name: str, book: _Codebook, spec: ColumnSchema, line_of: Callable[[int], int]
) -> Column:
    distinct, codes = book.factorize(strip=True)
    if spec.kind == "categorical":
        return _categorical(distinct, codes, spec.levels, spec.levels is not None)
    numbers = [_number(value) for value in distinct]
    bad = np.array([x is None for x in numbers], dtype=bool)
    if spec.kind == "numeric" and bad.any():
        row = _first_row(bad, codes)
        raise MalformedCsv(line_of(row), f"column {name!r}: "
                           f"{distinct[codes[row]]!r} is not a number")
    if spec.kind == "numeric" or (
        not bad.any() and any(value not in MISSING_TOKENS for value in distinct)
    ):
        return NumericColumn(np.array(numbers, dtype=np.float64)[codes])
    return _categorical(distinct, codes, None)


def read_csv(source: Union[str, IO[str]], schema: Schema | None = None) -> Dataset:
    """Read a CSV file (path, text stream, or binary stream read as
    UTF-8 and left open) into a Dataset.

    The first row is the header. Cells are stripped; missing cells are
    then "" or "NA", exactly. Untyped columns are numeric when every
    non-missing cell parses as a number, else categorical with levels in
    first-appearance order. A path or binary stream may start with a
    UTF-8 byte-order mark, which is skipped. Bytes that are not UTF-8
    raise MalformedCsv at the line of the first of them.
    A stream that cannot seek is read into memory first: both readers,
    and the line count of an error, read the text from its start.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return read_csv(fh, schema)
    binary = isinstance(source.read(0), bytes)
    if not source.seekable():
        content = source.read()
        source = io.BytesIO(content) if binary else io.StringIO(content, newline="")
    if binary:
        start = source.tell()
        # Detached afterwards, so the caller's stream stays open.
        text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
        try:
            return read_csv(text, schema)
        except UnicodeDecodeError:
            source.seek(start)
            raise _undecodable(source) from None
        finally:
            text.detach()
    schema = schema or Schema()
    start = source.tell()
    data = _read_fast(source, schema)
    if data is not None:
        return data
    source.seek(start)
    return _read_strict(source, schema)


def _undecodable(raw: IO[bytes]) -> MalformedCsv:
    """The error for the first byte of raw that is not UTF-8.

    Its line is counted as the csv module counts lines. No UTF-8
    sequence contains a CR or LF byte, so each line decodes on its own.
    """
    line = 1
    for piece in iter(raw.readline, b""):
        try:
            piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            line += _line_breaks(piece[:exc.start])
            return MalformedCsv(line, f"byte {piece[exc.start]:#04x} is not UTF-8")
        line += _line_breaks(piece)
    raise AssertionError("no undecodable byte")


def _line_breaks(raw: bytes) -> int:
    """Line breaks in raw: LF, CR and CRLF, as newline="" reads them."""
    return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")


def _line_of(source: IO[str], start: int, row: int) -> int:
    """The line data row `row` (from 0) starts on, as the csv module
    counts lines, reading source again from start, where the header
    begins. Only error paths call this."""
    source.seek(start)
    reader = csv.reader(source, strict=True)
    for _ in range(row + 1):  # the header and the rows before this one
        next(reader)
    return reader.line_num + 1


def _read_fast(source: IO[str], schema: Schema) -> Dataset | None:
    """read_csv's result from np.loadtxt, or None for the strict reader.

    None is returned, and the strict reader decides, when the text may
    tokenize differently under the csv module (a quote, CR, NUL, blank
    line, or a line longer than csv's field limit), when a row's width
    or a header name is wrong, when there is no body, when a column
    predicted numeric holds a non-number, when numpy reads a number as
    not finite, or when the text is not UTF-8.
    """
    line_of = functools.partial(_line_of, source, source.tell())
    try:
        header = source.readline()
        if not _plain(header) or len(header) > csv.field_size_limit():
            return None
        names = [cell.strip() for cell in header.removesuffix("\n").split(",")]
        if len(set(names)) != len(names) or not all(names):
            return None
        specs = [schema.for_name(name) for name in names]
        body = _read_body(source, specs)
    except UnicodeDecodeError:
        return None
    if body is None:
        return None
    return Dataset({
        name: NumericColumn(values) if book is None
        else _read_column(name, book, spec, line_of)
        for name, spec, book, values in zip(names, specs, *body)
    })


def _read_body(source: IO[str], specs: list[ColumnSchema]) -> tuple | None:
    """Each column's codebook or its float64 values, or None.

    Column types are predicted from the first rows. A column predicted
    numeric, with no missing cell there, is parsed to float64 by numpy;
    every other column's cells go to a codebook, as in the strict
    reader. A chunk whose numbers loadtxt rejects (say, an "NA") is
    parsed again with every column as text. A first pass checks the
    characters and counts the lines, so that each float column is
    allocated once, at its exact size, and returned whole.
    """
    start, capacity, chunk = source.tell(), 0, ""
    for chunk in iter(functools.partial(source.read, _CHUNK_CHARS), ""):
        if not _plain(chunk):
            return None
        capacity += chunk.count("\n")
    capacity += not chunk.endswith("\n")  # an unterminated last line
    source.seek(start)
    books: list = [None] * len(specs)
    floats: list = [None] * len(specs)
    as_text = np.dtype([(f"f{j}", object) for j in range(len(specs))])
    dtype, n_rows, limit = None, 0, csv.field_size_limit()
    while chunk := source.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += source.readline()
        # Chunks are read shorter than csv's default limit, so the lines
        # are measured only when a long line has stretched the chunk.
        if len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit:
            return None
        n_lines = chunk.count("\n") + (not chunk.endswith("\n"))
        if dtype is None:
            first = chunk.split("\n", _BLOCK_ROWS)[:min(_BLOCK_ROWS, n_lines)]
            numeric = _predict_numeric(first, specs)
            if numeric is None:
                return None
            dtype = np.dtype([(f"f{j}", "f8" if is_float else object)
                              for j, is_float in enumerate(numeric)])
            for j, is_float in enumerate(numeric):
                if is_float:
                    floats[j] = np.empty(capacity)
                else:
                    books[j] = _Codebook()
        table = _loadtxt(chunk, dtype)
        if table is None:
            table = _loadtxt(chunk, as_text)
        # loadtxt skips a blank line, which csv reads as a row of no cells.
        if table is None or len(table) != n_lines:
            return None
        end = n_rows + n_lines
        if end > capacity:
            return None
        for j, book in enumerate(books):
            cells = table[f"f{j}"]
            if book is not None:
                book.add(cells.tolist())
                continue
            if cells.dtype == object:
                values = _chunk_numbers(cells.tolist())
            else:
                values = cells if np.isfinite(cells).all() else None
            if values is None:
                return None
            floats[j][n_rows:end] = values
        n_rows = end
    if dtype is None or n_rows != capacity:
        return None
    return books, floats


def _plain(text: str) -> bool:
    """Whether text holds no quote, CR or NUL, which csv treats apart."""
    return not ('"' in text or "\r" in text or "\0" in text)


def _predict_numeric(lines: list[str], specs: list[ColumnSchema]) -> list[bool] | None:
    """Per column, whether every cell of these rows is a number."""
    rows = [line.split(",") for line in lines]
    if any(len(row) != len(specs) for row in rows):
        return None
    return [
        spec.kind != "categorical"
        and all(_NUMBER_RE.match(row[j].strip()) for row in rows)
        for j, spec in enumerate(specs)
    ]


def _loadtxt(text: str, dtype: np.dtype) -> np.ndarray | None:
    """The rows of text as one structured array, or None if numpy refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(io.StringIO(text), delimiter=",", dtype=dtype,
                              comments=None, quotechar=None, ndmin=1)
        except ValueError:
            return None


def _chunk_numbers(cells: list[str]) -> np.ndarray | None:
    """A chunk of a numeric column's text cells as floats, or None if one
    cell is neither missing nor a number."""
    book = _Codebook()
    book.add(cells)
    distinct, codes = book.factorize(strip=True)
    numbers = [_number(value) for value in distinct]
    if None in numbers:
        return None
    return np.array(numbers, dtype=np.float64)[codes]


def _read_strict(source: IO[str], schema: Schema) -> Dataset:
    """read_csv by the csv module: the oracle for every error and type.

    A ragged row or a bad number names the line its row starts on, which
    _line_of counts by reading the text again."""
    # Rows are transposed a block at a time and each block column is
    # coded at once, so only one block of rows and cells is alive at a
    # time. A ragged row is raised only after the whole file has
    # tokenized, because a later csv.Error takes precedence, as do the
    # header checks.
    line_of = functools.partial(_line_of, source, source.tell())
    reader = csv.reader(source, strict=True)
    n_rows, ragged = 0, None
    try:
        header = next(reader, None)
        width = len(header or ())
        books = [_Codebook() for _ in range(width)]
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            if ragged is None:
                widths = list(map(len, block))
                if widths.count(width) == len(block):
                    for book, cells in zip(books, zip(*block)):
                        book.add(cells)
                else:
                    i = next(j for j, got in enumerate(widths) if got != width)
                    ragged = n_rows + i, widths[i]
            n_rows += len(block)
    except csv.Error as exc:
        raise MalformedCsv(reader.line_num, str(exc)) from None
    if header is None:
        raise EmptyInput()

    header = [cell.strip() for cell in header]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise MalformedCsv(1, f"duplicate column name {dupes[0]!r}")
    if any(not h for h in header):
        raise MalformedCsv(1, "empty column name")
    if not n_rows:
        raise EmptyInput()
    if ragged is not None:
        raise RaggedRow(line_of(ragged[0]), ragged[1], width)
    return Dataset({
        name: _read_column(name, book, schema.for_name(name), line_of)
        for name, book in zip(header, books)
    })


def read_csv_text(text: str, schema: Schema | None = None) -> Dataset:
    return read_csv(io.StringIO(text, newline=""), schema)


def listwise_delete(data: Dataset, variables: Iterable[str]) -> Dataset:
    """Drop every row with a missing value in any of the given columns.

    Unpinned categorical columns then shed levels that no longer occur,
    keeping the survivors in their original order; pinned columns keep
    their full vocabulary. Each kept categorical's level counts are its
    source's less those of the dropped rows.
    """
    names = list(variables)
    keep = _complete_rows(data, names)
    if not keep.any():
        raise EmptyAfterDeletion()
    if keep.all():
        return data

    dropped = np.flatnonzero(~keep)
    columns: dict[str, Column] = {}
    for name, col in data.columns.items():
        if isinstance(col, NumericColumn):
            kept = columns[name] = NumericColumn(col.values[keep])
            if name in names:  # its NaN rows are the ones just dropped
                kept.__dict__["has_missing"] = False
        else:
            columns[name] = _kept_categorical(col, keep, dropped)
    return Dataset(columns)


def _complete_rows(data: Dataset, variables: Iterable[str]) -> np.ndarray:
    """Mask of the rows with no missing value in any of the given columns:
    the rows that listwise deletion keeps."""
    keep = np.ones(data.n_rows, dtype=bool)
    for name in variables:
        column = data[name]
        if column.has_missing:
            keep &= ~column.missing
    return keep


def _kept_categorical(
    col: CategoricalColumn, keep: np.ndarray, dropped: np.ndarray
) -> CategoricalColumn:
    """col's kept rows, with the levels they no longer use shed unless
    col is pinned, and their counts cached."""
    lost = col.codes[dropped]
    counts = col.counts - np.bincount(lost[lost >= 0], minlength=len(col.levels))
    codes = col.codes[keep]
    if col.pinned or counts.all():
        kept = CategoricalColumn(col.levels, codes, pinned=col.pinned)
    else:
        present = np.flatnonzero(counts)
        # One slot past the levels maps the missing code -1 to -1.
        remap = np.full(len(col.levels) + 1, -1, dtype=codes.dtype)
        remap[present] = np.arange(present.size)
        new_levels = tuple(col.levels[i] for i in present)
        kept = CategoricalColumn(new_levels, remap[codes])
        counts = counts[present]
    _seed(kept, "counts", counts)
    return kept


def levels(data: Dataset, name: str) -> tuple[str, ...]:
    col = data[name]
    if not isinstance(col, CategoricalColumn):
        raise NotCategorical(name)
    return col.levels
