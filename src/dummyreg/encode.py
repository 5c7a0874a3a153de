"""Design-matrix construction: contrast coding, transforms, interactions.

A parsed formula plus a dataset become a labeled numeric matrix. Each
categorical variable contributes k-1 contrast columns per the scheme in
force; numeric variables pass through transforms; interaction terms are
elementwise products of their constituents' column blocks. The design
is stored as one row per occupied covariate pattern plus each data
row's pattern.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .dataset import (
    _NUMBER_RE, CategoricalColumn, Column, Dataset, NumericColumn, _code_dtype,
    _first_row, _frozen, _seed,
)
from .errors import (
    EncodingConflict,
    IncompleteProfile,
    InterceptRequired,
    InvalidProfileValue,
    MissingValuesPresent,
    NonFiniteValue,
    NonPositiveLog,
    NotCategorical,
    ResponseNotNumeric,
    ResponseOverflow,
    SingleLevel,
    UnknownLevel,
    UnknownVariable,
    ZeroCountLevel,
)
from .formula import (
    SCHEMES, FormulaAst, Term, VarRef, format_number, format_ref, format_term,
)

DEFAULT_SCHEME = "treatment"


@dataclass(frozen=True)
class ColumnLabel:
    """Ties a design column back to its term, variables, and levels."""

    text: str
    term: str
    variables: tuple[str, ...] = ()
    details: tuple[str, ...] = ()
    interaction: bool = False

    def __str__(self) -> str:
        return self.text


INTERCEPT_LABEL = ColumnLabel("(intercept)", "(intercept)")


@dataclass(frozen=True)
class CategoricalInfo:
    """How one categorical variable was encoded in a given design."""

    name: str
    kind: str  # "treatment" | "effect" | "weighted"
    omitted_level: str
    levels: tuple[str, ...]
    counts: tuple[int, ...]

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(lv for lv in self.levels if lv != self.omitted_level)


@dataclass(frozen=True)
class DesignInfo:
    """Everything needed to re-encode new rows against an existing fit."""

    formula: FormulaAst
    categoricals: dict[str, CategoricalInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class CellMoments:
    """The response read by pattern in one pass over its rows
    (_response_moments). ``means`` holds each table row's mean of y, 0
    where no data row uses it. The rest are of y scaled exactly by
    2**scale: ``shifts`` holds each pattern's shift, the y of one of its
    rows, or its mean where that row lay far from it (0 where unused),
    ``offsets`` each mean less its shift, and
    ``within`` the within-pattern sum of squares, the n rows' squared
    deviations from their pattern's mean. scale is 0 unless those
    squares overflowed or underflowed. The arrays are read-only."""

    means: np.ndarray
    shifts: np.ndarray
    offsets: np.ndarray
    within: float
    scale: int

    def __post_init__(self):
        for values in (self.means, self.shifts, self.offsets):
            values.flags.writeable = False


@dataclass(frozen=True, init=False)
class DesignMatrix:
    """The n x p design as a table of rows plus an index into it.

    ``cell_table`` holds one row per occupied covariate pattern (the
    values of every formula variable) and ``cell_index`` maps each of
    the n data rows to its table row. When the n rows are all distinct
    the table has n rows, and a design built without an index gets the
    identity index. ``values`` is the n x p gather, made on first
    access and kept.
    """

    labels: tuple[ColumnLabel, ...]
    response: np.ndarray  # n floats
    response_name: str
    info: DesignInfo | None
    cell_table: np.ndarray  # m x p, float64
    cell_index: np.ndarray  # n table rows, an integer type

    def __init__(self, values, labels, response, response_name="y", info=None,
                 *, cell_index=None):
        """``values`` is the m x p table that ``cell_index`` gathers rows
        from; without an index, table row i is data row i. The index is
        frozen in its own integer type (build_design's is the narrowest
        that holds m), except that one np.bincount cannot read as intp
        (uint64) becomes intp. Raises ValueError for an index that is not
        one-dimensional, not of an integer type or out of range."""
        table = _frozen(np.asarray(values, dtype=np.float64))
        response = _frozen(np.asarray(response, dtype=np.float64))
        labels = tuple(labels)
        if table.ndim != 2 or table.shape[1] != len(labels):
            raise ValueError("values shape does not match label count")
        m = table.shape[0]
        cell_index = np.asarray(np.arange(m) if cell_index is None else cell_index)
        if cell_index.dtype.kind not in "iu":
            raise ValueError(f"cell index of type {cell_index.dtype}, not integer")
        # Tested in the index's own type, so that no entry can wrap.
        if cell_index.ndim != 1 or (cell_index.size and not (
                0 <= int(cell_index.min()) and int(cell_index.max()) < m)):
            raise ValueError("cell index out of range for the table")
        if not np.can_cast(cell_index.dtype, np.intp):
            cell_index = cell_index.astype(np.intp)
        cell_index = _frozen(cell_index)
        if response.shape != cell_index.shape:
            raise ValueError("response length does not match row count")
        for name, value in (("labels", labels), ("response", response),
                            ("response_name", response_name), ("info", info),
                            ("cell_table", table), ("cell_index", cell_index)):
            object.__setattr__(self, name, value)

    @cached_property
    def values(self) -> np.ndarray:
        """The n x p design matrix, read-only."""
        # take on an intp index: on 195,890 rows of an int16 index into a
        # 7,560 x 17 table it ran in 5.3 ms, cell_table[cell_index] in
        # 6.4 ms, and a take of 65,536 rows at a time in 10.4 ms (numpy 2.4).
        rows = self.cell_index.astype(np.intp, copy=False)
        return _seed(self, "values", self.cell_table.take(rows, axis=0))

    @cached_property
    def cell_counts(self) -> np.ndarray:
        """Data rows per table row, read-only."""
        counts = _bincount_blocks(self.cell_index, len(self.cell_table))
        return _seed(self, "cell_counts", counts)

    @cached_property
    def cell_moments(self) -> CellMoments:
        """The response's pattern moments, each pattern shifted by the y
        of one of its rows (_response_moments)."""
        shifts = np.zeros(len(self.cell_table))
        shifts[self.cell_index] = self.response
        return _response_moments(self.cell_index, self.cell_counts, self.response,
                                 shifts)

    @property
    def n_rows(self) -> int:
        return self.response.shape[0]

    @property
    def n_cols(self) -> int:
        return len(self.labels)


def simple_labels(texts: Iterable[str]) -> tuple[ColumnLabel, ...]:
    """Bare labels for hand-assembled matrices (tests, experiments)."""
    return tuple(ColumnLabel(t, t, (t,), (t,)) for t in texts)


def _contrast_matrix(info: CategoricalInfo) -> np.ndarray:
    """Per-level contrast rows, shape (k, k-1); row i encodes level i.
    A zero-count level is an error under weighted coding, else a warning
    that names the caller of build_design or profile_row."""
    levels, counts, kind = info.levels, info.counts, info.kind
    if len(levels) < 2:
        raise SingleLevel(info.name)
    if info.omitted_level not in levels:
        raise UnknownLevel(info.name, info.omitted_level)
    for level, count in zip(levels, counts):
        if count == 0:
            if kind == "weighted":
                raise ZeroCountLevel(level, kind)
            warnings.warn(
                f"level {level!r} of {info.name!r} has no observations",
                stacklevel=4,
            )
    omit = levels.index(info.omitted_level)
    kept = [i for i in range(len(levels)) if i != omit]
    matrix = np.zeros((len(levels), len(kept)))
    for j, i in enumerate(kept):
        matrix[i, j] = 1.0
    if kind == "effect":
        matrix[omit, :] = -1.0
    elif kind == "weighted":
        matrix[omit, :] = [-counts[i] / counts[omit] for i in kept]
    return matrix


def apply_transform(
    values: np.ndarray, ref: VarRef, *, index: np.ndarray | None = None
) -> np.ndarray:
    """Apply a factor's transform chain (log, then centering) to values.

    This is the one check of a numeric predictor's values: ±inf raises
    NonFiniteValue, then, under log, a non-positive value raises
    NonPositiveLog. Either names its row by dataset._first_row, with
    ``index`` mapping data rows to entries of ``values``.
    """
    out = np.asarray(values, dtype=np.float64)
    infinite = np.isinf(out)
    if infinite.any():
        raise NonFiniteValue(ref.name, _first_row(infinite, index))
    if ref.log:
        bad = out <= 0
        if bad.any():
            raise NonPositiveLog(_first_row(bad, index))
        out = np.log(out)
    if ref.center is not None:
        out = out - ref.center.value
    return out


def _is_dummy_passthrough(ref: VarRef, values: np.ndarray) -> bool:
    if ref.log or ref.center is not None:
        return False
    return bool(np.isin(values, (0.0, 1.0)).all())


def _numeric_as_categorical(values: np.ndarray) -> CategoricalColumn:
    distinct, codes = _counted_unique(values) or np.unique(values, return_inverse=True)
    return CategoricalColumn(tuple(format_number(v) for v in distinct), codes)


def _level(name: str, levels: tuple[str, ...], raw) -> str:
    """The level that ``raw`` names: the text itself when it is a level,
    else the format_number spelling of a number (text by the CSV rule,
    or a non-string value). This is the one rule for every reference
    level and profile value; unknown text is reported as written."""
    if isinstance(raw, str) and (raw in levels or not _NUMBER_RE.match(raw)):
        level = raw
    else:
        level = format_number(float(raw))
    if level not in levels:
        raise UnknownLevel(name, raw if isinstance(raw, str) else level)
    return level


def _resolve_categoricals(
    ast: FormulaAst,
    data: Dataset,
    default_scheme: str,
    refs: Mapping[str, str],
) -> tuple[dict[str, CategoricalInfo], dict[str, Column]]:
    """Each categorical's encoding, plus every formula variable's column
    as the encoder reads it, with ``cat()`` numerics converted."""
    by_var: dict[str, list[VarRef]] = {}
    for term in ast.terms:
        for ref in term.factors:
            by_var.setdefault(ref.name, []).append(ref)

    out: dict[str, CategoricalInfo] = {}
    columns: dict[str, Column] = {}
    for name, occurrences in by_var.items():
        column = columns[name] = data[name]
        wants_cat = any(r.categorical for r in occurrences)
        is_cat = wants_cat or isinstance(column, CategoricalColumn)
        if not is_cat:
            continue
        if any(r.log or r.center is not None for r in occurrences):
            raise EncodingConflict(name, "cannot transform a categorical variable")
        if not isinstance(column, CategoricalColumn):
            column = columns[name] = _numeric_as_categorical(column.values)

        def named(text: str) -> str:  # text that names no level stays as written
            try:
                return _level(name, column.levels, text)
            except UnknownLevel:
                return text

        ref_texts = {r.ref_level for r in occurrences if r.ref_level is not None}
        schemes = {r.scheme for r in occurrences if r.scheme is not None}
        if len(set(map(named, ref_texts))) > 1:
            raise EncodingConflict(
                name, f"conflicting reference levels: {sorted(ref_texts)}"
            )
        if len(schemes) > 1:
            raise EncodingConflict(
                name, f"conflicting contrast schemes: {sorted(schemes)}"
            )

        omitted = refs.get(name, next(iter(ref_texts), None))
        omitted = (column.levels[0] if omitted is None
                   else _level(name, column.levels, omitted))
        kind = next(iter(schemes)) if schemes else default_scheme
        out[name] = CategoricalInfo(
            name, kind, omitted, column.levels,
            tuple(int(c) for c in column.counts),
        )
    return out, columns


def _term_signature(term: Term, categoricals: Mapping[str, CategoricalInfo]):
    parts = []
    for ref in term.factors:
        if ref.name in categoricals:
            parts.append(("cat", ref.name))
        else:
            center = None if ref.center is None else ref.center.value
            parts.append(("num", ref.name, ref.log, center))
    return tuple(parts)


def _layout(
    ast: FormulaAst, categoricals: Mapping[str, CategoricalInfo]
) -> tuple[dict[str, np.ndarray], list[Term], tuple[ColumnLabel, ...]]:
    """Each categorical's contrast rows, the distinct terms to encode
    (intercept, mains, then interactions) and their column labels."""
    contrasts = {}  # a loop: before 3.12 a comprehension shifts stacklevel
    for name, info in categoricals.items():
        contrasts[name] = _contrast_matrix(info)
    terms = [Term()]
    labels = [INTERCEPT_LABEL]
    seen = {_term_signature(Term(), categoricals)}
    mains = [t for t in ast.terms if t.kind == "main"]
    interactions = [t for t in ast.terms if t.kind == "interaction"]
    for term in mains + interactions:
        signature = _term_signature(term, categoricals)
        if signature in seen:
            continue
        seen.add(signature)
        term_text = format_term(term)
        cat_names = [r.name for r in term.factors if r.name in categoricals]
        if len(cat_names) != len(set(cat_names)):
            raise EncodingConflict(term_text, "a variable cannot interact with itself")
        texts = [
            [f"{r.name}[{lv}]" for lv in categoricals[r.name].kept]
            if r.name in categoricals
            else [format_ref(r)]
            for r in term.factors
        ]
        variables = tuple(r.name for r in term.factors)
        interaction = term.kind == "interaction"
        labels += [
            ColumnLabel("×".join(d), term_text, variables, d, interaction)
            for d in product(*texts)
        ]
        terms.append(term)
    texts_seen: set[str] = set()
    for label in labels:
        if label.text in texts_seen:
            raise EncodingConflict(label.text, "duplicate design column label")
        texts_seen.add(label.text)
    return contrasts, terms, tuple(labels)


def _encode(
    terms: Iterable[Term],
    contrasts: Mapping[str, np.ndarray],
    columns: Mapping[str, Column],
    n: int,
    p: int,
    *,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Expand the terms into the n x p design block of the n rows that
    ``columns`` hold: one per occupied pattern, or one profile.

    Each term folds its factors left to right, from 1.0, row by row: a
    categorical multiplies in its contrast rows, a numeric factor its
    transformed values. ``index`` is the data rows' pattern index, which
    an error in a numeric factor reads to name a data row.
    """
    out = np.empty((n, p))
    start = 0
    for term in terms:
        block = np.ones((n, 1))
        for ref in term.factors:
            column = columns[ref.name]
            matrix = contrasts.get(ref.name)
            rows = (apply_transform(column.values, ref, index=index)[:, None]
                    if matrix is None else matrix[column.codes])
            block = (block[:, :, None] * rows[:, None, :]).reshape(n, -1)
        stop = start + block.shape[1]
        out[:, start:stop] = block
        start = stop
    return out


# A pattern key, or a numeric column's whole values, are numbered by
# counting while their range is at most this many times the row count,
# and by sorting past that.
_KEY_SPAN = 4

# Rows that an n-row pass takes at a time, so that the pattern key is
# rewritten in place and each pass's temporaries stay in cache. On 1e6
# rows renumbering took 5.6 ms against 9.0 ms for whole-array gathers
# (numpy 2.4). The response's pass takes the same blocks.
_ROW_BLOCK = 1 << 16

# A sum of squares below this may hold squares that underflowed: with
# n < 2^30 rows, squares below 2^-1022 sum to under 2^-992, below an ulp
# of it.
_SQUARES_FLOOR = 2.0 ** -900


def _index_blocks(index: np.ndarray, step: int | None = None):
    """(rows, index[rows] as intp) for each slice of step rows,
    _ROW_BLOCK unless given, that covers the index, each block cast into
    one buffer that the pass reuses, so that no block allocates. A block
    is overwritten by the next one."""
    step = step or _ROW_BLOCK
    buffer = np.empty(min(step, index.size), dtype=np.intp)
    for start in range(0, index.size, step):
        rows = slice(start, start + step)
        piece = index[rows]
        block = buffer[:piece.size]
        block[...] = piece
        yield rows, block


def _bincount_blocks(index: np.ndarray, m: int) -> np.ndarray:
    """np.bincount(index, minlength=m), taken over slices of
    max(_ROW_BLOCK, m) rows, each cast to intp in one reused buffer
    (_index_blocks), and added in block order.

    np.bincount copies an index that is read-only or not intp whole; a
    block's copy stays in cache. On 1e6 rows of a read-only int8 index,
    blocks took 2.15 ms against 2.4 ms whole (numpy 2.4). A block is
    never shorter than m, so adding up the blocks' m counts costs O(n),
    and m >= n is one whole np.bincount.
    """
    out = np.zeros(m, dtype=np.intp)
    for _, block in _index_blocks(index, max(_ROW_BLOCK, m)):
        out += np.bincount(block, minlength=m)
    return out


def _shifted_pass(
    index: np.ndarray, counts: np.ndarray, response: np.ndarray, shifts: np.ndarray,
    scale: int = 0,
) -> tuple[np.ndarray, float, float]:
    """Each pattern's offset, its rows' mean deviation from its shift,
    the within-pattern sum of squares, and the total of the squared
    deviations that it is taken from, of y scaled exactly by 2**scale
    (shifts are given at that scale). One pass of max(_ROW_BLOCK, m)
    rows at a time, into buffers it reuses, so that no n-row array is
    written: the deviations are summed by np.bincount, and their squares
    by einsum, not a BLAS dot, whose sum order, and so its last bits,
    follow the thread count. The within total is the squares' total
    less each pattern's squared deviation sum over its count."""
    m = counts.size
    sums, squares = np.zeros(m), 0.0
    step = max(_ROW_BLOCK, m)
    buffer = np.empty(min(step, response.size))
    for rows, block in _index_blocks(index, step):
        deviations = buffer[:block.size]
        # The index is in range; mode "raise" would buffer the output.
        shifts.take(block, out=deviations, mode="clip")
        y = np.ldexp(response[rows], scale) if scale else response[rows]
        np.subtract(y, deviations, out=deviations)
        sums += np.bincount(block, deviations, minlength=m)
        squares += float(np.einsum("i,i->", deviations, deviations))
    offsets = sums / np.maximum(counts, 1)
    return offsets, squares - float(np.einsum("i,i->", offsets, sums)), squares


# A within total below 1/_SHIFT_SLACK of the squares it is taken from
# has lost over 4 bits to cancellation: some pattern's shift lay far
# from its mean. On 1e6 rows of one pattern with the shift 1e3 standard
# deviations out, the total was 1.6e-9 off.
_SHIFT_SLACK = 16


def _response_moments(index: np.ndarray, counts: np.ndarray, response: np.ndarray,
                      shifts: np.ndarray) -> CellMoments:
    """The response's moments by pattern (CellMoments), from one pass
    over the n rows (_shifted_pass) that sums each row's deviation from
    its pattern's shift, a y of that pattern, and the squares of those
    deviations. This is the shifted-data algorithm (Chan, Golub &
    LeVeque, Am. Stat. 37(3), 1983): summed about one of its own rows, a
    pattern's sum carries no error from the size of y, only from its
    spread, and its mean is the shift plus the deviations' mean.

    When each pattern has one row, no pass runs: its mean is its shift,
    and the within total is 0, so the means of the identity index are
    the response itself. Two cases take the pass again. Squares that
    overflowed, or whose total is below _SQUARES_FLOOR, where they may
    have underflowed, are summed again from y scaled by a power of two
    to about unit size. A within total that cancelled (_SHIFT_SLACK) is
    taken again about the means the first pass found. Only such a
    response, or one constant within each pattern, pays for another
    pass. A value that is not finite makes its pattern's mean not
    finite, for _check_response to name.
    """
    m = counts.size
    if m == response.size and counts.max(initial=0) <= 1:
        return CellMoments(shifts, shifts, np.broadcast_to(np.float64(0.0), (m,)),
                           0.0, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf
        offsets, within, squares = _shifted_pass(index, counts, response, shifts)
        scale = 0
        if not _SQUARES_FLOOR <= squares < math.inf and np.isfinite(response).all():
            size = max(abs(float(response.min())), abs(float(response.max())))
            scale = -math.frexp(size)[1]
            shifts = np.ldexp(shifts, scale)
            offsets, within, squares = _shifted_pass(index, counts, response, shifts,
                                                     scale)
        if squares > _SHIFT_SLACK * within:
            shifts = shifts + offsets
            offsets, within, squares = _shifted_pass(index, counts, response, shifts,
                                                     scale)
        means = shifts + offsets
        if scale:
            means = np.ldexp(means, -scale)
    return CellMoments(means, shifts, offsets, max(within, 0.0), scale)


def _check_response(name: str, response: np.ndarray, means: np.ndarray,
                    counts: np.ndarray) -> None:
    """The one check of a design's response, read from its pattern
    means: a value that is not finite makes its pattern's mean not
    finite, and raises NonFiniteValue naming its row by
    dataset._first_row; finite values whose pattern sum (count times
    mean) or whose total overflows raise ResponseOverflow. The total is
    one einsum, so +inf and -inf patterns add to NaN without a
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf
        if np.isfinite(np.einsum("i,i->", means, counts)):
            return
    finite = np.isfinite(response)
    if finite.all():
        raise ResponseOverflow(name)
    raise NonFiniteValue(name, _first_row(~finite))


def _counted_unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """np.unique(values, return_inverse=True) by counting, for float64
    values that are whole, in [0, 2**53), none -0.0, and whose range is
    at most _KEY_SPAN times their count; else None. For such values the
    value order is also the order of their int64 bit patterns. The codes
    are in the narrowest integer type that holds them."""
    if not values.size:
        return None
    low, high = values.min(), values.max()  # NaN if any value is NaN
    if not (0 <= low and high < 2**53 and high - low <= _KEY_SPAN * values.size):
        return None
    offsets = values.astype(np.int64)
    if not np.array_equal(offsets, values) or (low == 0 and np.signbit(values).any()):
        return None
    offsets -= int(low)
    counts = np.bincount(offsets)
    occupied = np.flatnonzero(counts)
    lookup = np.empty(counts.size, dtype=_code_dtype(occupied.size))
    lookup[occupied] = np.arange(occupied.size)
    return occupied + low, lookup.take(offsets)


def _compact(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber keys in [0, size) to the m occupied ones, in ascending
    order, in place when counting; returns the new keys and the m keys'
    row counts. Keys that occupy all of [0, size) are returned as they
    are, and a read-only key (a column's own codes) is never written."""
    if size > _KEY_SPAN * key.size:
        _, key, counts = np.unique(key, return_inverse=True, return_counts=True)
        return key.reshape(-1), counts
    counts = _bincount_blocks(key, size)
    if counts.all():
        return key, counts
    occupied = np.flatnonzero(counts)
    lookup = np.empty(size, dtype=_code_dtype(occupied.size))
    lookup[occupied] = np.arange(occupied.size)
    out = key if key.flags.writeable else np.empty(key.size, dtype=lookup.dtype)
    for rows, block in _index_blocks(key):  # take on an intp index
        out[rows] = lookup.take(block)
    return out, counts[occupied]


def _occupied_cells(
    columns: Mapping[str, Column], n: int
) -> tuple[Mapping[str, Column], np.ndarray, np.ndarray, np.ndarray | slice]:
    """The rows to encode, one per occupied covariate pattern.

    ``columns`` holds every formula variable, n rows each, as the
    encoder reads it (``cat()`` numerics converted). A row's pattern
    folds one digit per variable, mixed-radix: a categorical's level
    code, or a numeric value's rank among the column's distinct float64
    bit patterns, so each pattern's row is bit-identical to its data
    rows (-0.0 and 0.0 are two patterns). The key is folded in the
    narrowest integer type that holds its running range and its digits,
    and is compacted to the m occupied patterns by counting whenever its
    range would outgrow a few times n, so an all-categorical design is
    keyed in O(n). A numeric column is ranked by counting too when its
    values are whole and narrow in range (_counted_unique), else by
    sorting. Returns the columns to encode (each pattern's values, from
    one of its rows), the n-row pattern index, in the narrowest integer
    type that holds m (as categorical codes are), the m patterns' row
    counts and the row that each pattern was read from; a numeric column
    of n distinct values gives the columns as given, arange(n), n ones
    and slice(None), which reads every row in place.
    """
    key, size = None, 1
    for column in columns.values():
        if isinstance(column, CategoricalColumn):
            digit, k = column.codes, len(column.levels)
        else:
            distinct, digit = (_counted_unique(column.values) or np.unique(
                column.values.view(np.int64), return_inverse=True))
            digit, k = digit.reshape(-1), distinct.size
            if k == n:
                return (columns, np.arange(n, dtype=_code_dtype(n)),
                        np.ones(n, dtype=np.intp), slice(None))
        if size == 1:  # a key of one value folds to the digit itself
            key, size = digit, k
            continue
        if size * k > _KEY_SPAN * n:
            key, counts = _compact(key, size)
            size = counts.size
        dtype = np.result_type(key.dtype, digit.dtype, _code_dtype(size * k))
        if key.flags.writeable and key.dtype == dtype:
            key *= k
        else:  # a column's own codes are never written
            key = np.multiply(key, k, dtype=dtype)
        key += digit
        size *= k
    key, counts = _compact(key, size)
    m = counts.size
    key = key.astype(_code_dtype(m), copy=False)
    # Any row of a pattern stands for all. The scan stops once every
    # pattern has a row, tested after blocks 1, 2, 4, ... so that a
    # table of m rows costs O(m log n), not O(m) per block.
    first = np.full(m, -1, dtype=np.intp)
    check = 1
    for block, start in enumerate(range(0, n, _ROW_BLOCK), 1):
        stop = min(start + _ROW_BLOCK, n)
        first[key[start:stop]] = np.arange(start, stop)
        if block == check:
            if first.min() >= 0:
                break
            check *= 2
    patterns: dict[str, Column] = {}
    for name, column in columns.items():
        if isinstance(column, CategoricalColumn):
            patterns[name] = CategoricalColumn(column.levels, column.codes[first])
        else:
            patterns[name] = NumericColumn(column.values[first])
    return patterns, key, counts, first


def build_design(
    ast: FormulaAst,
    data: Dataset,
    default_scheme: str = DEFAULT_SCHEME,
    refs: Mapping[str, str] | None = None,
) -> DesignMatrix:
    """Assemble the labeled design matrix for a formula over a dataset.

    Column order: intercept, main-effect terms in formula order, then
    interaction terms in formula order. Callers must remove missing
    values first (see dataset.listwise_delete). The response is read
    once, once the rows are keyed: each pattern is shifted by the y of
    the row its table row is read from, and its mean and the
    within-pattern sum of squares are taken in one pass
    (_response_moments) and seeded on the design; ±inf in the response,
    or a sum that overflows, raises there (_check_response), after the
    references and schemes resolve and before any encoding error. ±inf
    in a variable used as a number raises only when apply_transform
    encodes it.
    """
    if not ast.intercept:
        raise InterceptRequired()
    if default_scheme not in SCHEMES:
        raise ValueError(f"unknown contrast scheme {default_scheme!r}")
    refs = dict(refs or {})

    response_col = data[ast.response]
    if not isinstance(response_col, NumericColumn):
        raise ResponseNotNumeric(ast.response)
    used = [ast.response] + ast.variables()
    incomplete = [name for name in used if data[name].has_missing]
    if incomplete:
        raise MissingValuesPresent(incomplete)
    for name in refs:
        if name not in data:
            raise UnknownVariable(name)

    categoricals, columns = _resolve_categoricals(ast, data, default_scheme, refs)
    for name in refs:
        if name in ast.variables() and name not in categoricals:
            raise NotCategorical(name)
    response = response_col.values
    columns, cell, counts, first = _occupied_cells(columns, response.size)
    moments = _response_moments(cell, counts, response, response[first])
    _check_response(ast.response, response, moments.means, counts)
    for term in ast.terms:
        if term.kind != "interaction":
            continue
        continuous = [
            r for r in term.factors if r.name not in categoricals
            and not _is_dummy_passthrough(r, columns[r.name].values)
        ]
        if len(continuous) > 1:
            raise EncodingConflict(
                format_term(term),
                "interactions of two continuous variables are not supported",
            )

    contrasts, terms, labels = _layout(ast, categoricals)
    table = _encode(terms, contrasts, columns, counts.size, len(labels), index=cell)
    info = DesignInfo(ast, categoricals)
    design = DesignMatrix(table, labels, response, ast.response, info, cell_index=cell)
    _seed(design, "cell_counts", counts)
    design.__dict__["cell_moments"] = moments
    return design


def relevel(
    refs: Mapping[str, str] | None,
    variable: str,
    new_reference: str,
    data: Dataset,
) -> dict[str, str]:
    """Return an updated reference map omitting, for variable, the level
    that new_reference names.

    The data supplies the level list as the encoder sees it, so an
    unknown level is rejected up front.
    """
    column = data[variable]
    if not isinstance(column, CategoricalColumn):
        column = _numeric_as_categorical(column.values)
    return {**(refs or {}), variable: _level(variable, column.levels, new_reference)}


def design_references(design: DesignMatrix) -> dict[str, str]:
    """Omitted level per categorical variable, in design order."""
    if design.info is None:
        return {}
    return {name: ci.omitted_level for name, ci in design.info.categoricals.items()}


def _profile_number(name: str, raw) -> float:
    """A finite profile value; strings must be numbers by the CSV rule."""
    if isinstance(raw, str) and not _NUMBER_RE.match(raw):
        raise InvalidProfileValue(name, raw)
    value = float(raw)  # type: ignore[arg-type]
    if not np.isfinite(value):
        raise InvalidProfileValue(name, raw)
    return value


def profile_row(design: DesignMatrix, profile: Mapping[str, object]) -> np.ndarray:
    """Encode one profile (variable -> level or value) as a design row.

    Uses the schemes, references, and level counts captured at build
    time, so weighted-effect rows reuse the original group sizes.
    """
    info = design.info
    if info is None:
        raise ValueError("design carries no encoder context")
    ast = info.formula
    missing = [v for v in ast.variables() if v not in profile]
    if missing:
        raise IncompleteProfile(missing)

    columns: dict[str, Column] = {}
    for name in ast.variables():
        ci = info.categoricals.get(name)
        if ci is None:
            columns[name] = NumericColumn([_profile_number(name, profile[name])])
        else:
            code = ci.levels.index(_level(name, ci.levels, profile[name]))
            columns[name] = CategoricalColumn(ci.levels, [code])
    contrasts, terms, labels = _layout(ast, info.categoricals)
    try:
        values = _encode(terms, contrasts, columns, 1, len(labels))
    except NonPositiveLog:
        raise NonPositiveLog(None) from None
    return values[0]
