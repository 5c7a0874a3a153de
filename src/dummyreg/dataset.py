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

# Rows the strict reader codes at a time, and that the fast reader types
# a column by. A block this small is freed before the cyclic collector
# promotes its row lists to the oldest generation; with 1024 and 4096
# rows, a 2e5-row file read 1.3x and 1.6x as slowly (CPython 3.11).
_BLOCK_ROWS = 512

# Characters of text that read_csv tokenizes at a time, rounded up to
# the end of a line. A 2e5-row, 5.6 MB file (CPython 3.11, numpy 2.4)
# read in 82 ms in 256 KiB chunks, in 100 ms in 64 KiB ones (numpy's
# per-call cost) and in 95 ms in 1 MiB ones, which also raised the CLI's
# peak RSS from 47 to 56 MB.
_CHUNK_CHARS = 1 << 18

_COMMA, _NEWLINE = ord(","), ord("\n")

# Each column's fields are padded to the longest one, so a chunk is read
# by the strict reader when its longest line is more than this many
# times as long as its mean: a few long lines among many short ones
# would cost far more memory than the chunk's own bytes.
_LONGEST_OVER_MEAN = 8

# A plain decimal of at most this many digits is read as an integer
# mantissa over a power of ten. Both are below 2**53, so exact in float64,
# and one IEEE division rounds their quotient correctly, as float() does
# (Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990).
_EXACT_DIGITS = 15
_POW10 = 10.0 ** np.arange(_EXACT_DIGITS + 1)


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
    levels: tuple[str, ...] | None = None  # pins a categorical's order

    def __post_init__(self):
        if self.kind not in ("auto", "numeric", "categorical"):
            raise ValueError(f"column kind {self.kind!r} is not 'auto', "
                             "'numeric' or 'categorical'")
        if self.levels is not None and self.kind != "categorical":
            raise ValueError(f"levels pin a categorical column, not kind {self.kind!r}")


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
    freed once it is added. add_keys() does the same for cells given as
    byte keys, and decodes only the keys it has not seen. factorize()
    strips and numbers each distinct cell once.
    """

    def __init__(self):
        self.first_row: dict = {}  # distinct cell -> row it first occurs in
        self.rows = array.array("q")  # each row's first_row value
        # The byte keys that add_keys() has seen, sorted, and their rows.
        self.keys = np.empty(0, dtype=np.uint64)
        self.key_rows = np.empty(0, dtype=np.int64)

    def add(self, cells: Iterable) -> None:
        row_numbers = itertools.count(len(self.rows))
        self.rows.extend(map(self.first_row.setdefault, cells, row_numbers))

    def add_keys(self, keys: np.ndarray) -> None:
        """add() for a block of cells given by _byte_keys. Each key is
        looked up among the sorted keys seen before; only the others are
        sorted, and decoded in the order they first occur."""
        start = len(self.rows)
        if keys.dtype != self.keys.dtype:  # compared as S keys of one width
            keys, self.keys = _string_keys(keys), _string_keys(self.keys)
            wide = np.result_type(keys, self.keys)
            keys = keys.astype(wide, copy=False)
            self.keys = self.keys.astype(wide, copy=False)
        rows = np.empty(keys.size, dtype=np.int64)
        seen = np.zeros(keys.size, dtype=bool)
        if self.keys.size:
            at = np.searchsorted(self.keys, keys)
            np.minimum(at, self.keys.size - 1, out=at)
            seen = self.keys[at] == keys
            rows[seen] = self.key_rows[at[seen]]
        new = np.flatnonzero(~seen)
        if new.size:
            fresh, first, inverse = np.unique(keys[new], return_index=True,
                                              return_inverse=True)
            first_rows = start + new[first]
            rows[new] = first_rows[inverse.reshape(-1)]
            order = np.argsort(first)
            cells = map(bytes.decode, _string_keys(fresh[order]).tolist())
            self.first_row.update(zip(cells, first_rows[order].tolist()))
            at = np.searchsorted(self.keys, fresh)
            self.keys = np.insert(self.keys, at, fresh)
            self.key_rows = np.insert(self.key_rows, at, first_rows)
        self.rows.frombytes(rows.tobytes())

    def factorize(self, strip: bool) -> tuple[list, np.ndarray]:
        """Distinct values in first-appearance order, and each row's index.

        With strip, cells that strip to the same value are one value.
        """
        distinct: dict = {}
        code_at_row = np.full(len(self.rows), -1, dtype=np.int64)
        for cell, row in self.first_row.items():
            value = cell.strip() if strip else cell
            code_at_row[row] = distinct.setdefault(value, len(distinct))
        codes = code_at_row[np.frombuffer(self.rows, dtype=np.int64)]
        if codes.size and codes.min() < 0:
            raise AssertionError("a row names no cell's first row")
        return list(distinct), codes


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
    """read_csv's result from the text's bytes, or None for the strict
    reader.

    None is returned, and the strict reader decides, when the text may
    tokenize differently under the csv module (a quote, a CR that does
    not end a line as CRLF, a NUL, a blank line, or a line longer than
    csv's field limit), when a row's width or a header name is wrong,
    when there is no body, when a column read as numbers holds a
    non-number past its first rows, or when the text is not UTF-8 or
    holds a lone surrogate.
    """
    line_of = functools.partial(_line_of, source, source.tell())
    try:
        header = source.readline().replace("\r\n", "\n")
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
        name: _read_column(name, column, spec, line_of)
        if isinstance(column, _Codebook) else NumericColumn(column)
        for name, spec, column in zip(names, specs, body)
    })


def _read_body(source: IO[str], specs: list[ColumnSchema]) -> list | None:
    """Each column's codebook or its float64 values, or None.

    The text is read once, in chunks of whole lines; a CRLF line end
    reads as LF. Each chunk is split into fields as UTF-8 bytes. A column
    that _read_as_numbers allows is parsed to float64 by _numbers into an
    array that starts at the first chunk's rows and moves to one twice as
    long when a chunk would overflow it; every other column's cells go to
    a codebook as byte keys, for _read_column to type.
    """
    columns, n_rows = None, 0
    while chunk := source.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += source.readline()
        if "\r" in chunk:  # a scan for one character, far faster than replace's
            chunk = chunk.replace("\r\n", "\n")
        if not _plain(chunk):
            return None
        if not chunk.endswith("\n"):  # the unterminated last line
            chunk += "\n"
        try:
            fields = _fields(chunk.encode("utf-8"), len(specs))
        except UnicodeEncodeError:  # a lone surrogate
            return None
        if fields is None:
            return None
        buf, starts, lengths = fields
        end = n_rows + lengths.shape[1]
        if columns is None:
            columns = [np.empty(end) if _read_as_numbers(spec, buf, at, size)
                       else _Codebook() for spec, at, size in zip(specs, starts, lengths)]
        for i, (column, at, size) in enumerate(zip(columns, starts, lengths)):
            if isinstance(column, _Codebook):
                column.add_keys(_byte_keys(buf, at, size))
                continue
            values = _numbers(buf, at, size)
            if values is None:
                return None
            if end > column.size:
                grown = np.empty(max(end, 2 * column.size))
                grown[:n_rows] = column[:n_rows]
                columns[i] = column = grown
            column[n_rows:end] = values
        n_rows = end
    for column in columns or ():  # no chunk: no body
        if not isinstance(column, _Codebook):
            # Shrunk in place, so NumericColumn takes it without a copy.
            # Only assignments through slices touched it, so no view of
            # it is alive; refcheck would count this loop's own names.
            column.resize(n_rows, refcheck=False)
    return columns


def _plain(text: str) -> bool:
    """Whether text holds no quote, CR or NUL, which csv treats apart."""
    return not ('"' in text or "\r" in text or "\0" in text)


def _read_as_numbers(spec: ColumnSchema, buf: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> bool:
    """Whether a column's schema allows numbers and _numbers reads the
    first _BLOCK_ROWS of these fields, not all missing, as numbers."""
    if spec.kind == "categorical":
        return False
    head = _numbers(buf, starts[:_BLOCK_ROWS], lengths[:_BLOCK_ROWS])
    return head is not None and not np.isnan(head).all()


def _fields(raw: bytes, width: int) -> tuple | None:
    """Plain text of whole lines as bytes, and each field's start and
    length in them, both (width, rows). None, for the strict reader, when
    a line does not hold width fields, is blank, is longer than csv's
    field limit, or is over _LONGEST_OVER_MEAN times the mean line."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    newline = buf == _NEWLINE
    ends = np.flatnonzero(newline | (buf == _COMMA))
    if ends.size % width:
        return None
    line_ends = ends[width - 1::width]
    if np.count_nonzero(newline) != line_ends.size or not newline[line_ends].all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lines = line_ends - starts[::width]
    longest = int(lines.max())
    if (lines.min() == 0 or longest > csv.field_size_limit()
            or longest * lines.size > _LONGEST_OVER_MEAN * len(raw)):
        return None
    ends -= starts
    return (buf, np.ascontiguousarray(starts.reshape(-1, width).T),
            np.ascontiguousarray(ends.reshape(-1, width).T))


def _field_bytes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                 width: int) -> np.ndarray:
    """The fields' bytes, NUL-padded to width, as a (width, rows) array."""
    at = np.arange(width)[:, None]
    raw = buf.take(starts + at, mode="clip")
    raw[at >= lengths] = 0
    return raw


def _byte_keys(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field's bytes as one key: NUL-padded to 8 and read as a
    big-endian uint64 (so that key order is byte order) when every field
    fits in 8 bytes, else as S{longest}."""
    keys = _as_bytes(_field_bytes(buf, starts, lengths, max(int(lengths.max()), 8)))
    return keys.view(">u8").astype(np.uint64) if keys.itemsize == 8 else keys


def _string_keys(keys: np.ndarray) -> np.ndarray:
    """_byte_keys as S keys, in the same order."""
    return keys.astype(">u8").view("S8") if keys.dtype == np.uint64 else keys


def _numbers(buf: np.ndarray, starts: np.ndarray,
             lengths: np.ndarray) -> np.ndarray | None:
    """A column's fields as float64, each as _number reads it stripped,
    an overflow as ±inf; None if one is not a number.

    A field of a sign, digits and at most one dot is read, if it has at
    most _EXACT_DIGITS digits, as mantissa / 10**fraction_digits in one
    scan over the byte positions. A longer one, or one with an exponent,
    is cast from its bytes by numpy, which rounds correctly. Any other
    field (padded, missing, or not ASCII) goes to _number, once per
    distinct field.
    """
    raw = _field_bytes(buf, starts, lengths, max(int(lengths.max()), 1))
    count = np.uint8 if len(raw) < 256 else np.intp  # sums over the positions
    digit_value = raw - ord("0")  # uint8, so every non-digit wraps past 9
    digit = digit_value < 10
    digit_value *= digit
    dot = raw == ord(".")
    digits, dots = digit.sum(0, dtype=count), dot.sum(0, dtype=count)
    sign = (raw[0] == ord("+")) | (raw[0] == ord("-"))
    decimal = (digits + dots + sign == lengths) & (dots <= 1) & (digits > 0)
    exact = decimal & (digits <= _EXACT_DIGITS)

    # The scan stops at the end of the longest exact field. int64 wraps
    # silently in the fields that are not exact.
    scan = int(lengths.max(initial=0, where=exact))
    mantissa = np.zeros(raw.shape[1], dtype=np.int64)
    for is_digit, value in zip(digit[:scan], digit_value[:scan]):
        np.multiply(mantissa, 10, out=mantissa, where=is_digit)
        mantissa += value
    values = mantissa.astype(np.float64)
    if dots.any():
        dot_at = (dot * np.arange(len(raw), dtype=count)[:, None]).sum(0, dtype=count)
        fraction = np.where(dots > 0, lengths - 1 - dot_at, 0)
        values /= _POW10.take(np.clip(fraction, 0, _EXACT_DIGITS))
    if sign.any():
        np.negative(values, out=values, where=raw[0] == ord("-"))
    if exact.all():
        return values

    other = np.flatnonzero(~exact)
    cast = decimal[other]
    if not cast.all():
        cast[~cast] = _scientific(raw[:, other[~cast]])
    with np.errstate(over="ignore"):  # an overflow reads as ±inf
        values[other[cast]] = _as_bytes(raw[:, other[cast]]).astype(np.float64)
    rest = other[~cast]
    if rest.size:
        cells, codes = np.unique(_as_bytes(raw[:, rest]), return_inverse=True)
        numbers = [_number(cell.decode("utf-8").strip()) for cell in cells.tolist()]
        if None in numbers:
            return None
        values[rest] = np.array(numbers, dtype=np.float64)[codes.reshape(-1)]
    return values


def _scientific(raw: np.ndarray) -> np.ndarray:
    """Which NUL-padded fields, as (width, rows) bytes, are a sign,
    digits, at most one dot, an exponent mark, a sign and digits: the
    _NUMBER_RE matches that have an exponent."""
    at = np.arange(len(raw))[:, None]
    digit, dot = raw - ord("0") < 10, raw == ord(".")
    sign = (raw == ord("+")) | (raw == ord("-"))
    exp = (raw | 0x20) == ord("e")  # e or E
    exp_at = exp.argmax(0)
    mantissa = at < exp_at
    return ((exp.sum(0) == 1) & ~(~(digit | dot | sign | exp) & (raw != 0)).any(0)
            & (digit & mantissa).any(0) & (digit & (at > exp_at)).any(0)
            & ((dot & mantissa).sum(0) <= 1) & ~(dot & ~mantissa).any(0)
            & ~(sign & (at != 0) & (at != exp_at + 1)).any(0))


def _as_bytes(raw: np.ndarray) -> np.ndarray:
    """The fields of a (width, rows) byte array as S{width} values."""
    return np.ascontiguousarray(raw.T).view(f"S{raw.shape[0]}").ravel()


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
