"""Design-matrix construction: contrast coding, transforms, interactions.

A parsed formula plus a dataset become a labeled numeric matrix. Each
categorical variable contributes k-1 contrast columns per the scheme in
force; numeric variables pass through transforms; interaction terms are
elementwise products of their constituents' column blocks. The design
is stored as one row per occupied covariate pattern plus each data
row's pattern.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Union

import numpy as np

from .dataset import (
    _NUMBER_RE, CategoricalColumn, Column, Dataset, NumericColumn, _code_dtype,
    _frozen, _seed,
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
class ContrastScheme:
    kind: str  # "treatment" | "effect" | "weighted"
    omitted_level: str

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown contrast scheme {self.kind!r}")


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
    scheme: ContrastScheme
    levels: tuple[str, ...]
    counts: tuple[int, ...]

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(lv for lv in self.levels if lv != self.scheme.omitted_level)


@dataclass(frozen=True)
class DesignInfo:
    """Everything needed to re-encode new rows against an existing fit."""

    formula: FormulaAst
    categoricals: dict[str, CategoricalInfo] = field(default_factory=dict)


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
    cell_index: np.ndarray  # n table rows, intp

    def __init__(self, values, labels, response, response_name="y", info=None,
                 *, cell_index=None):
        """``values`` is the m x p table that ``cell_index`` gathers rows
        from; without an index, table row i is data row i."""
        table = _frozen(np.asarray(values, dtype=np.float64))
        response = _frozen(np.asarray(response, dtype=np.float64))
        labels = tuple(labels)
        if table.ndim != 2 or table.shape[1] != len(labels):
            raise ValueError("values shape does not match label count")
        m = table.shape[0]
        cell_index = _frozen(np.asarray(
            np.arange(m) if cell_index is None else cell_index, dtype=np.intp))
        if cell_index.ndim != 1 or (
            cell_index.size and not 0 <= cell_index.min() <= cell_index.max() < m
        ):
            raise ValueError("cell index out of range for the table")
        if response.shape != cell_index.shape:
            raise ValueError("response length does not match row count")
        for name, value in (("labels", labels), ("response", response),
                            ("response_name", response_name), ("info", info),
                            ("cell_table", table), ("cell_index", cell_index)):
            object.__setattr__(self, name, value)

    @cached_property
    def values(self) -> np.ndarray:
        """The n x p design matrix, read-only."""
        return _seed(self, "values", self.cell_table[self.cell_index])

    @cached_property
    def cell_counts(self) -> np.ndarray:
        """Data rows per table row, read-only."""
        counts = np.bincount(self.cell_index, minlength=len(self.cell_table))
        return _seed(self, "cell_counts", counts)

    @property
    def n_rows(self) -> int:
        return self.response.shape[0]

    @property
    def n_cols(self) -> int:
        return len(self.labels)


def simple_labels(texts: Iterable[str]) -> tuple[ColumnLabel, ...]:
    """Bare labels for hand-assembled matrices (tests, experiments)."""
    return tuple(ColumnLabel(t, t, (t,), (t,)) for t in texts)


def _contrast_matrix(info: CategoricalInfo, stacklevel: int = 3) -> np.ndarray:
    """Per-level contrast rows, shape (k, k-1); row i encodes level i."""
    levels, counts, scheme = info.levels, info.counts, info.scheme
    if len(levels) < 2:
        raise SingleLevel(info.name)
    if scheme.omitted_level not in levels:
        raise UnknownLevel(info.name, scheme.omitted_level)
    for level, count in zip(levels, counts):
        if count == 0:
            if scheme.kind == "weighted":
                raise ZeroCountLevel(level, scheme.kind)
            warnings.warn(
                f"level {level!r} of {info.name!r} has no observations",
                stacklevel=stacklevel,
            )
    omit = levels.index(scheme.omitted_level)
    kept = [i for i in range(len(levels)) if i != omit]
    matrix = np.zeros((len(levels), len(kept)))
    for j, i in enumerate(kept):
        matrix[i, j] = 1.0
    if scheme.kind == "effect":
        matrix[omit, :] = -1.0
    elif scheme.kind == "weighted":
        matrix[omit, :] = [-counts[i] / counts[omit] for i in kept]
    return matrix


def encode_categorical(
    column: CategoricalColumn, scheme: ContrastScheme, name: str = "column"
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Contrast-code one categorical column.

    Returns the n x (k-1) matrix plus the kept (non-omitted) levels in
    column order. Zero-count levels are an error under weighted coding
    and a warning otherwise.
    """
    if column.has_missing:
        raise MissingValuesPresent([name])
    info = CategoricalInfo(
        name, scheme, column.levels, tuple(int(c) for c in column.counts)
    )
    return _contrast_matrix(info)[column.codes], info.kept


def apply_transform(
    values: np.ndarray, ref: VarRef, *, index: np.ndarray | None = None
) -> np.ndarray:
    """Apply a factor's transform chain (log, then centering) to values.

    This is the one check of a numeric factor's values: ±inf raises
    NonFiniteValue, then, under log, a non-positive value raises
    NonPositiveLog. ``index`` maps data rows to entries of ``values``,
    so that either error names the first data row holding a bad value.
    """
    out = np.asarray(values, dtype=np.float64)

    def first_row(bad: np.ndarray) -> int:
        return int(np.argmax(bad if index is None else bad[index]))

    infinite = np.isinf(out)
    if infinite.any():
        raise NonFiniteValue(ref.name, first_row(infinite))
    if ref.log:
        bad = out <= 0
        if bad.any():
            raise NonPositiveLog(first_row(bad))
        out = np.log(out)
    if ref.center is not None:
        out = out - ref.center.value
    return out


def _is_dummy_passthrough(ref: VarRef, values: np.ndarray) -> bool:
    if ref.log or ref.center is not None:
        return False
    return bool(np.isin(values, (0.0, 1.0)).all())


def _numeric_as_categorical(values: np.ndarray) -> CategoricalColumn:
    distinct, codes = np.unique(values, return_inverse=True)
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
            name,
            ContrastScheme(kind, omitted),
            column.levels,
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
        contrasts[name] = _contrast_matrix(info, stacklevel=4)
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


# A pattern key is compacted by counting while its range is at most this
# many times the row count, and by sorting past that.
_KEY_SPAN = 4

# Rows that an n-row pass takes at a time, so that the pattern key is
# rewritten in place and each pass's temporaries stay in cache. On 1e6
# rows renumbering took 5.6 ms against 9.0 ms for whole-array gathers
# (numpy 2.4). solve.fit sums the total sum of squares by the same blocks.
_ROW_BLOCK = 1 << 16


def _compact(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber keys in [0, size) to the m occupied ones, in ascending
    order, in place when counting; returns the new keys and the m keys'
    row counts. Keys that occupy all of [0, size) are returned as they
    are, and a read-only key (a column's own codes) is never written."""
    if size > _KEY_SPAN * key.size:
        _, key, counts = np.unique(key, return_inverse=True, return_counts=True)
        return key.reshape(-1), counts
    counts = np.bincount(key, minlength=size)
    if counts.all():
        return key, counts
    occupied = np.flatnonzero(counts)
    lookup = np.empty(size, dtype=np.intp)
    lookup[occupied] = np.arange(occupied.size)
    if not key.flags.writeable:
        return lookup[key], counts[occupied]
    for start in range(0, key.size, _ROW_BLOCK):
        block = key[start:start + _ROW_BLOCK]
        block[:] = lookup[block]
    return key, counts[occupied]


def _occupied_cells(
    columns: Mapping[str, Column], n: int
) -> tuple[Mapping[str, Column], np.ndarray, np.ndarray]:
    """The rows to encode, one per occupied covariate pattern.

    ``columns`` holds every formula variable as the encoder reads it
    (``cat()`` numerics converted). A row's pattern folds one digit per
    variable, mixed-radix: a categorical's level code, or a numeric
    value's rank among the column's distinct float64 bit patterns, so
    each pattern's row is bit-identical to its data rows (-0.0 and 0.0
    are two patterns). The key is folded in the narrowest integer type
    that holds its running range and its digits, and is compacted to
    the m occupied patterns by counting whenever its range would outgrow
    a few times n, so an all-categorical design is keyed in O(n); only
    numeric columns with very many distinct values make the compaction
    sort. Returns the columns to encode (each pattern's values, from one
    of its rows), the n-row pattern index and the m patterns' row
    counts; a numeric column of n distinct values gives the columns as
    given and arange(n).
    """
    key, size = None, 1
    for column in columns.values():
        if isinstance(column, CategoricalColumn):
            digit, k = column.codes, len(column.levels)
        else:
            distinct, digit = np.unique(column.values.view(np.int64),
                                        return_inverse=True)
            digit, k = digit.reshape(-1), distinct.size
            if k == n:
                return columns, np.arange(n), np.ones(n, dtype=np.intp)
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
    key, counts = _compact(key.astype(np.intp, copy=False), size)
    m = counts.size
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
    return patterns, key, counts


def build_design(
    ast: FormulaAst,
    data: Dataset,
    default_scheme: str = DEFAULT_SCHEME,
    refs: Mapping[str, str] | None = None,
) -> DesignMatrix:
    """Assemble the labeled design matrix for a formula over a dataset.

    Column order: intercept, main-effect terms in formula order, then
    interaction terms in formula order. Callers must remove missing
    values first (see dataset.listwise_delete). ±inf in the response
    raises NonFiniteValue up front; in a variable used as a number, only
    when apply_transform encodes it, after any encoding error.
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
    infinite = np.isinf(response_col.values)
    if infinite.any():
        raise NonFiniteValue(ast.response, int(np.argmax(infinite)))
    for name in refs:
        if name not in data:
            raise UnknownVariable(name)

    categoricals, columns = _resolve_categoricals(ast, data, default_scheme, refs)
    for name in refs:
        if name in ast.variables() and name not in categoricals:
            raise NotCategorical(name)
    columns, cell, counts = _occupied_cells(columns, data.n_rows)
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
    design = DesignMatrix(table, labels, response_col.values, ast.response, info,
                          cell_index=cell)
    _seed(design, "cell_counts", counts)
    return design


def relevel(
    refs: Mapping[str, str] | None,
    variable: str,
    new_reference: str,
    context: Union[Dataset, DesignInfo, DesignMatrix],
) -> dict[str, str]:
    """Return an updated reference map omitting, for variable, the level
    that new_reference names.

    The context (dataset or prior design) supplies the level list as the
    encoder sees it, so an unknown level is rejected up front.
    """
    info = context.info if isinstance(context, DesignMatrix) else context
    if isinstance(info, DesignInfo):
        if variable not in info.categoricals:
            raise NotCategorical(variable)
        levels = info.categoricals[variable].levels
    else:
        column = context[variable]
        if not isinstance(column, CategoricalColumn):
            column = _numeric_as_categorical(column.values)
        levels = column.levels
    return {**(refs or {}), variable: _level(variable, levels, new_reference)}


def design_references(design: Union[DesignMatrix, DesignInfo]) -> dict[str, str]:
    """Omitted level per categorical variable, in design order."""
    info = design.info if isinstance(design, DesignMatrix) else design
    if info is None:
        return {}
    return {
        name: ci.scheme.omitted_level for name, ci in info.categoricals.items()
    }


def _profile_number(name: str, raw) -> float:
    """A finite profile value; strings must be numbers by the CSV rule."""
    if isinstance(raw, str) and not _NUMBER_RE.match(raw):
        raise InvalidProfileValue(name, raw)
    value = float(raw)  # type: ignore[arg-type]
    if not np.isfinite(value):
        raise InvalidProfileValue(name, raw)
    return value


def profile_row(
    design: Union[DesignMatrix, DesignInfo], profile: Mapping[str, object]
) -> np.ndarray:
    """Encode one profile (variable -> level or value) as a design row.

    Uses the schemes, references, and level counts captured at build
    time, so weighted-effect rows reuse the original group sizes.
    """
    info = design.info if isinstance(design, DesignMatrix) else design
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
