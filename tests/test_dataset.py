"""CSV ingestion, column typing, level management, listwise deletion."""

import collections
import csv
import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dummyreg import dataset
from dummyreg import (
    CategoricalColumn,
    ColumnSchema,
    Dataset,
    NumericColumn,
    Schema,
    build_design,
    categorical_column,
    fit,
    levels,
    listwise_delete,
    numeric_column,
    parse_formula,
    read_csv,
    read_csv_text,
)
from dummyreg.errors import (
    DummyregError,
    EmptyAfterDeletion,
    EmptyInput,
    MalformedCsv,
    NotCategorical,
    RaggedRow,
    UnknownVariable,
)

from dummyreg.encode import _occupied_cells
from util import reference_read_csv


class TestReadCsv:
    def test_auto_typing(self):
        data = read_csv_text("sex,bmi\nm,25.0\nf,24.0\n")
        assert isinstance(data["sex"], CategoricalColumn)
        assert isinstance(data["bmi"], NumericColumn)
        assert data["sex"].levels == ("m", "f")
        assert data["bmi"].values.tolist() == [25.0, 24.0]

    def test_numeric_with_missing(self):
        data = read_csv_text("x\n1\n2\nNA\n4\n")
        col = data["x"]
        assert isinstance(col, NumericColumn)
        assert col.missing.tolist() == [False, False, True, False]

    def test_empty_cell_is_missing(self):
        data = read_csv_text("x,g\n1,a\n,b\n")
        assert data["x"].missing.tolist() == [False, True]

    def test_missing_in_categorical(self):
        data = read_csv_text("g\na\nNA\nb\n")
        assert data["g"].codes.tolist() == [0, -1, 1]
        assert data["g"].levels == ("a", "b")

    def test_non_numeric_spellings_make_a_categorical(self):
        data = read_csv_text("x\n1\nnan\n")
        assert isinstance(data["x"], CategoricalColumn)
        assert data["x"].levels == ("1", "nan")

    def test_ragged_row(self):
        with pytest.raises(RaggedRow) as exc:
            read_csv_text("a,b\n1,2\n1,2,3\n")
        assert exc.value.row == 3
        assert (exc.value.got, exc.value.expected) == (3, 2)

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_text_splits_lines_as_bytes_do(self, newline):
        text = newline.join(["g,x", "a,1", '"b' + newline + 'c",2', "d,3", ""])
        got = read_csv_text(text)
        _assert_same(got, _read_bytes(text, None))
        assert got["g"].levels == ("a", "b" + newline + "c", "d")
        assert got["x"].values.tolist() == [1.0, 2.0, 3.0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            read_csv_text("")
        with pytest.raises(EmptyInput):
            read_csv_text("a,b\n")

    def test_duplicate_header(self):
        with pytest.raises(MalformedCsv) as exc:
            read_csv_text("a,a\n1,2\n")
        assert exc.value.row == 1

    def test_schema_forces_numeric(self):
        schema = Schema({"x": ColumnSchema("numeric")})
        with pytest.raises(MalformedCsv) as exc:
            read_csv_text("x\n1\noops\n", schema)
        assert exc.value.row == 3

    def test_schema_forces_categorical_with_level_order(self):
        schema = Schema({"g": ColumnSchema("categorical", ("high", "middle", "low"))})
        data = read_csv_text("g\nlow\nmiddle\nhigh\n", schema)
        assert data["g"].levels == ("high", "middle", "low")
        assert data["g"].pinned

    def test_quoted_fields(self):
        data = read_csv_text('g,y\n"a, b",1\nplain,2\n')
        assert data["g"].levels == ("a, b", "plain")

    def test_reads_path_and_binary_stream(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x\n1\n2\n")
        from_path = read_csv(str(path))
        with open(path, "rb") as fh:
            from_stream = read_csv(fh)
        assert from_path["x"].values.tolist() == from_stream["x"].values.tolist()

    def test_binary_stream_is_left_open(self, tmp_path):
        # The text wrapper is detached, so collecting it neither closes
        # the caller's file nor warns about it.
        path = tmp_path / "tiny.csv"
        path.write_text("x\n1\n2\n")
        probe = (
            "import gc, sys\n"
            "from dummyreg import read_csv\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    read_csv(fh)\n"
            "    gc.collect()\n"
            "    assert not fh.closed\n"
        )
        src = str(Path(dataset.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", probe, str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_deterministic(self):
        text = "g,x\na,1\nb,2\na,NA\n"
        one, two = read_csv_text(text), read_csv_text(text)
        assert one["g"].levels == two["g"].levels
        assert one["g"].codes.tolist() == two["g"].codes.tolist()
        assert np.array_equal(one["x"].values, two["x"].values, equal_nan=True)

    def test_scientific_notation_and_signs(self):
        data = read_csv_text("x\n+1.5\n-2e3\n.25\n")
        assert data["x"].values.tolist() == [1.5, -2000.0, 0.25]


# Cell spellings that the typing rules treat differently: padded variants
# that strip to one level, every missing form, numbers and the float()
# spellings that are not numbers, and cells that need quoting.
CELLS = ["a", " a", "a ", "b", "", "NA", " NA ", "1", "1_000", "inf", "nan",
         "1e5", ".5", "5.", "+3", "-0", " 2 ", "x,y", "p\nq", 'say "hi"']
# Raw text that strict quoting rejects or that shifts the cell count.
BROKEN = ['"q"z', ",", "\n"]


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def csv_cases(draw):
    """Random CSV text plus a random schema over its column names."""
    names = draw(st.lists(st.sampled_from(["g", "x", " y", "y ", "z"]),
                          min_size=1, max_size=4, unique_by=str.strip))
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        names.append(draw(st.sampled_from(["", names[0]])))
    pools = [draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4,
                           unique=True)) for _ in names]
    n_rows = draw(st.integers(min_value=0, max_value=12))
    lines = [",".join(names)]
    for _ in range(n_rows):
        cells = []
        for pool in pools:
            cell = draw(st.sampled_from(pool))
            quote = draw(st.booleans()) or any(c in cell for c in ',\n"')
            cells.append(_quoted(cell) if quote else cell)
        if draw(st.integers(min_value=0, max_value=30)) == 0:
            cells.append(draw(st.sampled_from(BROKEN)))
        lines.append(",".join(cells))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    text += draw(st.sampled_from(["", "\n"]))

    columns = {}
    for name, pool in zip(names, pools):
        kind = draw(st.sampled_from(["default", "auto", "numeric",
                                     "categorical", "pinned"]))
        if kind == "pinned":
            # The pool's values plus one that never occurs; leaving some
            # pool values out makes strangers.
            choices = sorted({c.strip() for c in pool} | {"zz"})
            pinned = draw(st.lists(st.sampled_from(choices), unique=True))
            columns[name.strip()] = ColumnSchema("categorical", tuple(pinned))
        elif kind != "default":
            columns[name.strip()] = ColumnSchema(kind)
    return text, Schema(columns)


def _read_or_error(reader, text, schema):
    try:
        return reader(text, schema)
    except (DummyregError, ValueError) as exc:
        return type(exc), str(exc)


class _Unseekable(io.StringIO):
    """A text stream that, like a pipe, cannot seek or tell."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def _read_unseekable(text, schema=None):
    return read_csv(_Unseekable(text, newline=""), schema)


class TestReaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(csv_cases(), st.sampled_from([1, 2, 3, dataset._BLOCK_ROWS]))
    def test_same_columns_or_same_error(self, case, block_rows):
        text, schema = case
        want = _read_or_error(reference_read_csv, text, schema)
        for reader in (read_csv_text, _read_unseekable):
            with mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
                got = _read_or_error(reader, text, schema)
            _assert_same(got, want)


class TestBlockBoundaries:
    """Errors and level order past the first block of rows."""

    N = dataset._BLOCK_ROWS + 7

    def _text(self, header, cells, at, bad, last=None):
        rows = [cells] * self.N
        rows[at] = bad
        rows[-1] = last or cells
        return header + "\n" + "\n".join(rows) + "\n"

    def test_ragged_row(self):
        at = dataset._BLOCK_ROWS + 3
        with pytest.raises(RaggedRow) as exc:
            read_csv_text(self._text("g,x", "a,1", at, "a,1,2", last="a"))
        assert exc.value.row == at + 2
        assert str(exc.value) == f"line {at + 2} has 3 cells, header has 2"

    def test_bad_number_under_numeric_schema(self):
        at = dataset._BLOCK_ROWS + 1
        text = self._text("g,x", "a,1", at, "a,oops", last="a,zap")
        with pytest.raises(MalformedCsv) as exc:
            read_csv_text(text, Schema({"x": ColumnSchema("numeric")}))
        assert exc.value.row == at + 2
        assert str(exc.value) == (
            f"malformed CSV at line {at + 2}: column 'x': 'oops' is not a number")

    def test_strict_quoting_error(self):
        at = dataset._BLOCK_ROWS + 4
        with pytest.raises(MalformedCsv) as exc:
            read_csv_text(self._text("g,x", "a,1", at, '"a"b,1'))
        assert exc.value.row == at + 2
        assert str(exc.value) == (
            f"malformed CSV at line {at + 2}: ',' expected after '\"'")

    @pytest.mark.parametrize("block_rows", [1, 2, dataset._BLOCK_ROWS])
    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_errors_name_the_physical_line(self, block_rows, newline):
        # A quoted cell spanning lines 3-5 puts every later row two lines
        # past its row number; the row with the error starts on line 9.
        lines = ["g,x", "a,1", '"b', "", 'c",2', "d,3", "e,4", "f,5", "{}", "h,6"]
        schema = Schema({"x": ColumnSchema("numeric")})
        for bad, error, message in [
            ("g,oops", MalformedCsv,
             "malformed CSV at line 9: column 'x': 'oops' is not a number"),
            ("g,7,8", RaggedRow, "line 9 has 3 cells, header has 2"),
        ]:
            text = newline.join(lines).format(bad)
            with mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
                got = _read_or_error(read_csv_text, text, schema)
            assert got == (error, message)
            assert _read_or_error(reference_read_csv, text, schema) == got

    def test_multiline_header_shifts_every_row(self):
        text = '"g\nh",x\na,1\nb,oops\n'
        with pytest.raises(MalformedCsv) as exc:
            read_csv_text(text, Schema({"x": ColumnSchema("numeric")}))
        assert exc.value.row == 4

    def test_csv_error_outranks_earlier_ragged_row(self):
        rows = ["a,1"] * self.N
        rows[2] = "a"
        rows[-1] = '"a"b,1'
        with pytest.raises(MalformedCsv) as exc:
            read_csv_text("g,x\n" + "\n".join(rows) + "\n")
        assert exc.value.row == self.N + 1

    def test_first_stranger_to_pinned_levels(self):
        rows = ["a"] * self.N
        rows[dataset._BLOCK_ROWS + 2] = "zz"
        rows[-1] = "b"
        schema = Schema({"g": ColumnSchema("categorical", ("a",))})
        with pytest.raises(ValueError) as exc:
            read_csv_text("g\n" + "\n".join(rows) + "\n", schema)
        assert str(exc.value) == "value 'zz' not in pinned levels"

    def test_padded_first_occurrence_sets_level_order(self):
        rows = ["x", "y"] * (self.N // 2)
        rows[dataset._BLOCK_ROWS + 1] = "c "
        rows[dataset._BLOCK_ROWS + 2] = "b"
        rows[-1] = "c"
        data = read_csv_text("g\n" + "\n".join(rows) + "\n")
        assert data["g"].levels == ("x", "y", "c", "b")
        order = {"x": 0, "y": 1, "c": 2, "b": 3}
        assert data["g"].codes.tolist() == [order[r.strip()] for r in rows]


# Quote-free cells, which the fast reader parses: padding that strips
# away, every missing form, float() spellings that are not plain numbers
# or that numpy reads as not finite, and a comment character.
PLAIN_CELLS = ["a", " a", "a\x0b", "\xa0a", "b", "", " ", "NA", " NA ",
               "\xa0NA", "1", " 1 ", "\x0b2", "2\xa0", "-0", ".5", "5.", "+3",
               "1e5", "inf", "nan", "1e500", "1_000", "0x10", "١٢", "#", "a#b"]


@st.composite
def plain_csv_cases(draw):
    """Random quote-free CSV text, now and then with CRLF line ends, a
    blank line or a trailing comma, plus a random schema."""
    names = draw(st.lists(st.sampled_from(["g", "x", " y", "z"]),
                          min_size=1, max_size=3, unique_by=str.strip))
    pools = [draw(st.lists(st.sampled_from(PLAIN_CELLS), min_size=1, max_size=4,
                           unique=True)) for _ in names]
    n_rows = draw(st.integers(min_value=0, max_value=12))
    lines = [",".join(names)]
    for _ in range(n_rows):
        line = ",".join(draw(st.sampled_from(pool)) for pool in pools)
        flaw = draw(st.integers(min_value=0, max_value=40))
        if flaw == 0:
            line += ","
        elif flaw == 1:
            lines.append("")
        lines.append(line)
    newline = "\r\n" if draw(st.integers(min_value=0, max_value=9)) == 0 else "\n"
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))

    columns = {}
    for name, pool in zip(names, pools):
        kind = draw(st.sampled_from(["default", "numeric", "categorical", "pinned"]))
        if kind == "pinned":
            choices = sorted({c.strip() for c in pool} | {"zz"})
            pinned = draw(st.lists(st.sampled_from(choices), unique=True))
            columns[name.strip()] = ColumnSchema("categorical", tuple(pinned))
        elif kind != "default":
            columns[name.strip()] = ColumnSchema(kind)
    return text, Schema(columns)


def _assert_same(got, want):
    """got and want are the same error, or Datasets with equal columns."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset)
    assert list(got.columns) == list(want.columns)
    for name, col in want.columns.items():
        other = got[name]
        assert type(other) is type(col)
        if isinstance(col, CategoricalColumn):
            assert (other.levels, other.codes.tolist(), other.pinned) == (
                col.levels, col.codes.tolist(), col.pinned)
        else:
            assert other.values.tobytes() == col.values.tobytes()


def _read_traced(reader, text, schema=None, chunk_chars=None, block_rows=None):
    """reader's result or error, and whether the fast reader gave it."""
    decided = []
    fast = dataset._read_fast

    def spy(source, schema):
        decided.append(True)  # stays so if the fast reader raises
        data = fast(source, schema)
        decided[-1] = data is not None
        return data

    with mock.patch.object(dataset, "_read_fast", spy), \
            mock.patch.object(dataset, "_CHUNK_CHARS", chunk_chars or dataset._CHUNK_CHARS), \
            mock.patch.object(dataset, "_BLOCK_ROWS", block_rows or dataset._BLOCK_ROWS):
        got = _read_or_error(reader, text, schema)
    return got, decided == [True]


def _read_bytes(text, schema):
    return read_csv(io.BytesIO(text.encode("utf-8")), schema)


def _compare_across_chunks(**options) -> collections.Counter:
    """Read 400 drawn texts with both readers, at several chunk and block
    sizes, and compare each result with the reference. Returns how many
    reads the fast reader gave (True) and left to the strict one (False).
    options are more hypothesis settings."""
    fast = collections.Counter()

    @settings(max_examples=400, deadline=None, **options)
    @given(plain_csv_cases(), st.sampled_from([1, 2, 3, dataset._BLOCK_ROWS]),
           st.sampled_from([1, 7, 64, dataset._CHUNK_CHARS]))
    def check(case, block_rows, chunk_chars):
        text, schema = case
        want = _read_or_error(reference_read_csv, text, schema)
        for reader in (read_csv_text, _read_bytes):
            got, by_fast = _read_traced(reader, text, schema, chunk_chars, block_rows)
            _assert_same(got, want)
            fast[by_fast] += 1

    check()
    return fast


class TestFastReader:
    def test_matches_reference_across_chunks(self):
        _compare_across_chunks()

    def test_fast_reader_decides_a_fifth_of_the_reads(self):
        # Otherwise the comparisons could pass by always falling back.
        # The draw is fixed, so the share is too: an unseeded draw once
        # fell below a fifth in six suite runs. This one reads 0.4725
        # (hypothesis 6.155).
        fast = _compare_across_chunks(derandomize=True, database=None)
        assert fast[True] >= 0.2 * sum(fast.values())

    N = 40  # rows, so that a 16-character chunk leaves the first ones behind

    def _rows(self, row, last, header="x,g"):
        return header + "\n" + row * self.N + last

    @pytest.mark.parametrize("text", [
        pytest.param('g,x\n"a",1\nb,2\n', id="quote"),
        pytest.param("g,x\ra,1\rb,2\r", id="lone-carriage-return"),
        pytest.param("g,x\na\rb,1\nb,2\n", id="carriage-return-in-line"),
        pytest.param("g,x\r\na,1\r\n\r\nb,2\r\n", id="crlf-blank-line"),
        pytest.param("x,g\r\n" + "1,a\r\n" * N + "1,a\r2,b\r\n",
                     id="lone-carriage-return-after-first-chunk"),
        pytest.param("g,x\na\0,1\nb,2\n", id="nul"),
        pytest.param("g,x\na\ud800,1\nb,2\n", id="lone-surrogate"),
        pytest.param("g,x\na,1\n\nb,2\n", id="blank-line"),
        pytest.param("g,x\na,1\nb,2\n\n", id="blank-last-line"),
        pytest.param("g,g\n1,2\n", id="duplicate-name"),
        pytest.param("g, \n1,2\n", id="empty-name"),
        pytest.param("g,x\n", id="no-body"),
        pytest.param("g,x", id="no-newline-after-header"),
        pytest.param("", id="empty"),
        pytest.param("x,g\n" + "1,a\n" * N + "1,a,2\n", id="ragged-after-first-chunk"),
        pytest.param("x,g\n" + "1,a\n" * N + "inf,a\n", id="inf-is-categorical"),
        pytest.param("x,g\n" + "1,a\n" * N + "nan,a\n", id="nan-is-categorical"),
        pytest.param("x,g\n" + "1,a\n" * N + "b,a\n", id="numeric-then-text"),
    ])
    def test_strict_reader_decides(self, text):
        want = _read_or_error(reference_read_csv, text, None)
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=16)
        _assert_same(got, want)
        assert not by_fast

    @pytest.mark.parametrize("text", [
        pytest.param("g,x\r\na,1\r\nb,2\r\n", id="carriage-return"),
        pytest.param("x,g\n" + "1,a\r\n" * N + "2,b", id="mixed-line-ends"),
        pytest.param("x,g\n" + "1,a\n" * N + "1e500,a\n", id="overflow-is-inf"),
        pytest.param("x,g\n-1e500,a\n" + "1,a\n" * N, id="overflow-in-first-rows"),
    ])
    def test_fast_reader_decides(self, text):
        want = _read_or_error(reference_read_csv, text, None)
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=16)
        _assert_same(got, want)
        assert by_fast

    def test_numeric_schema_error_names_the_line(self):
        text = "x,g\n" + "1,a\n" * self.N + "oops,a\n"
        schema = Schema({"x": ColumnSchema("numeric")})
        got, by_fast = _read_traced(read_csv_text, text, schema, chunk_chars=16)
        assert got == (MalformedCsv, f"malformed CSV at line {self.N + 2}: "
                                     "column 'x': 'oops' is not a number")
        assert not by_fast

    def test_over_long_line(self):
        text = "g,x\n" + "a,1\n" * self.N + "abcdefghijklmnop,1\n"
        limit = csv.field_size_limit(12)
        try:
            want = _read_or_error(reference_read_csv, text, None)
            got, by_fast = _read_traced(read_csv_text, text, chunk_chars=16)
        finally:
            csv.field_size_limit(limit)
        assert want[0] is MalformedCsv and "field limit" in want[1]
        assert (got, by_fast) == (want, False)

    def test_one_long_line_among_short_ones(self):
        # Padding the chunk's 1,001 fields of g to the long one's 400
        # bytes would take about 90 times the chunk's own bytes.
        text = "g,x\n" + "a,1\n" * 1000 + "b" * 400 + ",2\n"
        got, by_fast = _read_traced(read_csv_text, text)
        _assert_same(got, reference_read_csv(text))
        assert not by_fast
        text = "g,x\n" + "a,1\n" * 1000 + "b" * 20 + ",2\n"
        assert _read_traced(read_csv_text, text)[1]

    @pytest.mark.parametrize("cells", [
        ["a", "b", "ba", "ab", "longer than 8", "ab", " a"],
        ["longer than 8", "a", "bb", "a", "x" * 20, "bb"],
        ["café", "naïve", "café", "日本語テキスト", "naïve ", "NA"],
    ], ids=["short-then-long", "long-then-short", "multibyte"])
    def test_text_keys_of_any_width_across_chunks(self, cells):
        # Keys of at most 8 bytes are integers, longer ones bytes; a
        # column can change from one to the other between chunks. The
        # short keys' byte order is not their little-endian order.
        text = "g,x\n" + "".join(f"{cell},{i}\n" for i, cell in enumerate(cells * 10))
        for chunk_chars in (1, 7, 64):
            got, by_fast = _read_traced(read_csv_text, text, chunk_chars=chunk_chars)
            _assert_same(got, reference_read_csv(text))
            assert by_fast

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_byte_keys_fill_a_codebook_as_cells_do(self, block):
        cells = ["a", "b", "ba", "ab", "longer than 8", "ab", " a", "日本語テキスト", "a", "b"]
        by_cell, by_key = dataset._Codebook(), dataset._Codebook()
        by_cell.add(cells)
        for start in range(0, len(cells), block):
            text = "".join(cell + "\n" for cell in cells[start:start + block])
            buf, starts, lengths = dataset._fields(text.encode(), 1)
            by_key.add_keys(dataset._byte_keys(buf, starts[0], lengths[0]))
        assert list(by_key.first_row.items()) == list(by_cell.first_row.items())
        assert by_key.rows == by_cell.rows

    def test_factorize_rejects_a_row_that_names_no_first_row(self):
        book = dataset._Codebook()
        book.add(["a", "b", "a"])
        book.rows.append(2)  # row 2 holds "a", whose first row is 0
        with pytest.raises(AssertionError):
            book.factorize(strip=False)

    @pytest.mark.parametrize("last", ["NA,b\n", ",b\n", " 2 ,b\n", "\xa02,b"])
    def test_numeric_column_stays_fast(self, last):
        # The missing or padded cell comes after the rows that set the
        # column's type, so the number scan hands it to _number.
        text = "x,g\n" + "1,a\n" * self.N + last
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=16)
        _assert_same(got, reference_read_csv(text))
        assert isinstance(got["x"], NumericColumn)
        assert by_fast

    def test_no_warning_leaks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_csv_text("x,g\n1,a\n")["x"].values.tolist() == [1.0]
            long = "9" * 300  # wraps the scan's int64 mantissa
            values = read_csv_text(f"x\n{long}\n1e500\n-2.5e-3\n")["x"].values
            assert values.tolist() == [float(long), float("inf"), -0.0025]
            with pytest.raises(RaggedRow):
                read_csv_text("x,g\n1,a\n\n2,b\n")


@st.composite
def number_texts(draw):
    """A text that _NUMBER_RE accepts: a sign, 0-20 integer digits, an
    optional dot, 0-20 fraction digits and an optional exponent."""
    digits = st.text("0123456789", max_size=20)
    whole, fraction = draw(digits), draw(digits)
    dot = draw(st.booleans()) or not whole
    if not (whole or fraction):
        whole = "0"
    text = draw(st.sampled_from(["", "+", "-"])) + whole
    if dot:
        text += "." + fraction
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text("0123456789", min_size=1, max_size=3)))
    return text


class TestNumberScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(number_texts(), min_size=1, max_size=30),
           st.sampled_from([1, 7, 64]))
    @example(["-0", ".5", "5.", "-0.0", "+.5"], 1)
    @example(["123456789012345", "1234567890123456", "0.000000000000001",
              "9007199254740993", "4.9406564584124654e-324", "1e500"], 7)
    @example(["20000001e317"], 1)  # numpy warns of this overflow, not of 1e500's
    def test_numbers_read_as_float_reads_them(self, texts, chunk_chars):
        assert all(dataset._NUMBER_RE.match(text) for text in texts)
        text = "x,g\n" + "".join(f"{number},a\n" for number in texts)
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=chunk_chars)
        want = np.array([float(number) for number in texts])
        assert got["x"].values.tobytes() == want.tobytes()
        # The fast reader reads every such number, an overflow as +-inf.
        assert by_fast

    @pytest.mark.parametrize("text", [
        "1.2.3", "1..2", "1e", "e5", ".e5", "1.e", "1e+", "1e5.5", "1e5e5",
        "1E-", "+-1", "--1", "1-", "1+2", "-", "+", ".", "-.", "0x10", "1_000",
        "1e5-", "1-e5", "1e-+5", "1ee5", "inf", "nan", "1e5x", "x1"])
    def test_a_near_number_makes_the_column_text(self, text):
        rows = "x,g\n" + "1.5,a\n" * 40
        got, by_fast = _read_traced(read_csv_text, rows + f"{text},b\n", chunk_chars=16)
        assert not by_fast
        assert isinstance(got["x"], CategoricalColumn)
        got, by_fast = _read_traced(read_csv_text, rows + f"{text},b\n",
                                    Schema({"x": ColumnSchema("numeric")}))
        assert got == (MalformedCsv, "malformed CSV at line 42: "
                                     f"column 'x': {text!r} is not a number")


CHUNKS = [1, 7, 64, dataset._CHUNK_CHARS]


def _fed_codebooks(text, chunk_chars):
    """The result of reading text, and how many codebooks add_keys fed."""
    fed = set()
    add_keys = dataset._Codebook.add_keys

    def spy(book, keys):
        fed.add(id(book))
        return add_keys(book, keys)

    with mock.patch.object(dataset._Codebook, "add_keys", spy):
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=chunk_chars)
    assert by_fast
    return got, len(fed)


class TestColumnTyping:
    """The fast reader reads a column as numbers when its schema allows
    them and _numbers reads its first rows, not all missing, as numbers;
    every other column goes to a codebook, which types it as the
    reference does."""

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_missing_cells_in_the_first_rows_stay_numbers(self, chunk_chars):
        n = dataset._BLOCK_ROWS + 100
        x = [f"{i * 0.37:.6g}" for i in range(n)]
        x[3], x[100], x[400] = "NA", "", " NA "
        text = "x,g\n" + "".join(f"{v},{'ab'[i % 2]}\n" for i, v in enumerate(x))
        got, fed = _fed_codebooks(text, chunk_chars)
        _assert_same(got, reference_read_csv(text))
        assert isinstance(got["x"], NumericColumn)
        assert fed == 1  # g's

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    @pytest.mark.parametrize("later, kind", [
        ("2.5", NumericColumn), ("NA", CategoricalColumn)])
    def test_all_missing_first_rows_take_the_reference_type(self, chunk_chars,
                                                           later, kind):
        missing = ["NA", "", " NA ", " "] * (dataset._BLOCK_ROWS // 4)
        text = "x,g\n" + "".join(f"{v},a\n" for v in missing + [later, "NA"])
        got, fed = _fed_codebooks(text, chunk_chars)
        _assert_same(got, reference_read_csv(text))
        assert isinstance(got["x"], kind)
        assert fed == 2
        if kind is CategoricalColumn:
            assert got["x"].levels == ()

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_numbers_and_missing_then_text(self, chunk_chars):
        # The text cell comes after the rows that type the column, so
        # _numbers declines it and the strict reader decides.
        text = "x,g\n" + "1,a\nNA,a\n" * dataset._BLOCK_ROWS + "b,a\n"
        want = reference_read_csv(text)
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=chunk_chars)
        _assert_same(got, want)
        assert isinstance(got["x"], CategoricalColumn)
        assert not by_fast


def _growing_text(newline="\n", n=2000):
    """n rows of two number columns and a text one: lines of 6 to 39
    characters, so a chunk's rows vary and the float columns grow."""
    rng = np.random.default_rng(3)
    x = [f"{v:.{d}g}" for v, d in zip(rng.normal(0, 100, n).tolist(),
                                        rng.integers(1, 18, n).tolist())]
    k = [str(v) for v in rng.integers(0, 10 ** rng.integers(1, 6, n)).tolist()]
    x[1500], k[900] = "NA", " 7 "
    g = rng.choice(["a", "bb", "longer than 8"], n).tolist()
    return newline.join(["x,k,g", *map(",".join, zip(x, k, g))]) + newline


class TestColumnGrowth:
    """A float column starts at the first chunk's rows, moves to an
    array twice as long when a chunk would overflow it, and is shrunk to
    its rows at the end."""

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_grown_columns_match_the_reference(self, chunk_chars, newline):
        text = _growing_text(newline)
        read_body = dataset._read_body
        bodies = []

        def spy(source, specs):
            bodies.append(read_body(source, specs))
            return bodies[-1]

        with mock.patch.object(dataset, "_read_body", spy):
            got, by_fast = _read_traced(read_csv_text, text, chunk_chars=chunk_chars)
        assert by_fast
        _assert_same(got, reference_read_csv(text))
        assert isinstance(got["x"], NumericColumn) and isinstance(got["k"], NumericColumn)
        # Each float column is the array _read_body shrank, not a copy.
        [body] = bodies
        for name, column in zip(("x", "k"), body):
            assert got[name].values is column
            assert column.base is None and column.size == 2000

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_a_late_non_number_after_growth_goes_to_the_strict_reader(self, chunk_chars):
        text = _growing_text() + "oops,1,a\n"
        got, by_fast = _read_traced(read_csv_text, text, chunk_chars=chunk_chars)
        _assert_same(got, reference_read_csv(text))
        assert isinstance(got["x"], CategoricalColumn)
        assert not by_fast


class TestDecoding:
    @pytest.mark.parametrize("head", ["g,x\n", 'g,x\n"a",1\n'], ids=["fast", "strict"])
    @pytest.mark.parametrize("at", [1, 30])
    def test_undecodable_byte_names_its_line(self, tmp_path, head, at):
        raw = head.encode() + b"a,1\n" * at + b"caf\xe9,2\n" + b"a,1\n" * 30
        line = head.count("\n") + at + 1
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with mock.patch.object(dataset, "_CHUNK_CHARS", 16):
            for source in (str(path), io.BytesIO(raw)):
                with pytest.raises(MalformedCsv) as exc:
                    read_csv(source)
                assert str(exc.value) == (
                    f"malformed CSV at line {line}: byte 0xe9 is not UTF-8")

    def test_stream_that_cannot_seek(self):
        def pipe(raw):
            read_end, write_end = os.pipe()
            os.write(write_end, raw)
            os.close(write_end)
            return open(read_end, "rb")

        text = "x,g\n1,a\nNA,b\n2.5,a\n"
        with pipe(text.encode()) as fh:
            assert not fh.seekable()
            _assert_same(read_csv(fh), reference_read_csv(text))
        with pipe(b"x,g\n1,a\n2,caf\xe9\n") as fh, pytest.raises(MalformedCsv) as exc:
            read_csv(fh)
        assert str(exc.value) == "malformed CSV at line 3: byte 0xe9 is not UTF-8"

    def test_path_is_read_as_utf8_under_any_locale(self, tmp_path):
        path = tmp_path / "cafe.csv"
        path.write_bytes("g,y\ncafé,1\nb,2\n".encode("utf-8"))
        probe = (
            "import locale, sys\n"
            "from dummyreg import read_csv\n"
            "assert locale.getpreferredencoding(False).lower() not in ('utf-8', 'utf8')\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    from_stream = read_csv(fh)['g'].levels\n"
            "assert read_csv(sys.argv[1])['g'].levels == from_stream == ('caf\\xe9', 'b')\n"
        )
        src = str(Path(dataset.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="en_US.ISO-8859-1")
        env.pop("PYTHONUTF8", None)
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", probe, str(path)],
            env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")


    @pytest.mark.parametrize("text, fast", [
        ("y,g\n1,a\n2.5,b\nNA,a\n", True),
        ('y,g\n1,"a"\n2.5,b\nNA,a\n', False),
    ], ids=["fast", "strict"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, fast):
        raw = b"\xef\xbb\xbf" + text.encode()
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)

        def from_bytes(text, schema):
            return read_csv(io.BytesIO(raw), schema)

        got, decided = _read_traced(from_bytes, text)
        assert decided == fast
        _assert_same(got, reference_read_csv(text))
        _assert_same(read_csv(str(path)), reference_read_csv(text))

    def test_byte_order_mark_on_a_stream_that_cannot_seek(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"\xef\xbb\xbfx,g\n1,a\nNA,b\n")
        os.close(write_end)
        with open(read_end, "rb") as fh:
            assert not fh.seekable()
            _assert_same(read_csv(fh), reference_read_csv("x,g\n1,a\nNA,b\n"))

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfg,x\na,1\ncaf\xe9,2\n")
        with pytest.raises(MalformedCsv) as exc:
            read_csv(str(path))
        assert str(exc.value) == "malformed CSV at line 3: byte 0xe9 is not UTF-8"


def _text_pipe(text):
    """The read end of a pipe that holds text, opened as a text stream."""
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    return open(read_end, "r", encoding="utf-8", newline="")


def _read_text_pipe(text, schema=None):
    with _text_pipe(text) as fh:
        assert not fh.seekable()
        return read_csv(fh, schema)


class TestTextPipe:
    def test_plain_text_is_read_fast(self):
        text = "x,g\n1,a\nNA,b\n2.5,a\n"
        got, by_fast = _read_traced(_read_text_pipe, text)
        assert by_fast
        _assert_same(got, reference_read_csv(text))

    @pytest.mark.parametrize("bad, schema, message", [
        ("3.0,a,x", None, "line 5 has 3 cells, header has 2"),
        ("oops,a", Schema({"y": ColumnSchema("numeric")}),
         "malformed CSV at line 5: column 'y': 'oops' is not a number"),
    ], ids=["ragged", "not_a_number"])
    def test_error_after_a_quoted_line_break_names_its_line(self, bad, schema, message):
        text = f'y,g\n1.5,"a\nb"\n2.5,b\n{bad}\n4.5,b\n'
        want = _read_or_error(reference_read_csv, text, schema)
        assert want[1] == message
        assert _read_or_error(_read_text_pipe, text, schema) == want


class TestLevels:
    def test_first_appearance_order(self):
        data = read_csv_text("edu\nlow\nmiddle\nlow\nhigh\n")
        assert levels(data, "edu") == ("low", "middle", "high")

    def test_not_categorical(self):
        data = read_csv_text("x\n1\n")
        with pytest.raises(NotCategorical):
            levels(data, "x")

    def test_unknown_variable(self):
        data = read_csv_text("x\n1\n")
        with pytest.raises(UnknownVariable):
            levels(data, "nope")

    def test_single_level_column_reported_as_is(self):
        data = read_csv_text("g\nonly\nonly\n")
        assert levels(data, "g") == ("only",)


class TestListwiseDelete:
    def test_drops_rows_with_missing(self):
        data = read_csv_text("bmi,g\n1,a\nNA,b\n3,a\n4,b\n")
        kept = listwise_delete(data, ["bmi", "g"])
        assert kept.n_rows == 3
        assert kept["bmi"].values.tolist() == [1.0, 3.0, 4.0]
        assert data.n_rows == 4

    def test_identity_when_complete(self):
        data = read_csv_text("x,g\n1,a\n2,b\n")
        assert listwise_delete(data, ["x", "g"]) is data

    def test_only_listed_variables_count(self):
        data = read_csv_text("x,g\n1,NA\n2,b\n")
        kept = listwise_delete(data, ["x"])
        assert kept.n_rows == 2

    def test_all_rows_missing(self):
        data = read_csv_text("x\nNA\nNA\n")
        with pytest.raises(EmptyAfterDeletion):
            listwise_delete(data, ["x"])

    def test_unknown_variable(self):
        data = read_csv_text("x\n1\n")
        with pytest.raises(UnknownVariable):
            listwise_delete(data, ["y"])

    def test_idempotent(self):
        data = read_csv_text("x,g\n1,a\nNA,b\n3,c\n")
        once = listwise_delete(data, ["x"])
        twice = listwise_delete(once, ["x"])
        assert twice is once

    def test_unpinned_levels_shed_but_never_gained(self):
        data = read_csv_text("x,g\n1,a\nNA,b\n3,c\n")
        kept = listwise_delete(data, ["x"])
        assert levels(kept, "g") == ("a", "c")
        assert kept["g"].codes.tolist() == [0, 1]

    def test_pinned_levels_survive(self):
        schema = Schema({"g": ColumnSchema("categorical", ("a", "b", "c"))})
        data = read_csv_text("x,g\n1,a\nNA,b\n3,c\n", schema)
        kept = listwise_delete(data, ["x"])
        assert levels(kept, "g") == ("a", "b", "c")
        assert kept["g"].counts.tolist() == [1, 0, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(min_value=-1, max_value=k - 1), min_size=1,
                     max_size=40),
            st.lists(st.booleans(), min_size=40, max_size=40),
            st.booleans(),
        ))
    )
    def test_remap_matches_per_row_reference(self, case):
        k, codes, drop, pinned = case
        levels_in = tuple(f"L{i}" for i in range(k))
        x = [np.nan if d else 1.0 for d in drop[:len(codes)]]
        data = Dataset({"x": NumericColumn(x),
                        "g": CategoricalColumn(levels_in, codes, pinned)})
        keep = ~np.isnan(np.asarray(x))
        if not keep.any():
            return
        kept = listwise_delete(data, ["x"])
        if keep.all():
            assert kept is data
            return
        # The per-row remap that listwise_delete used to run.
        kept_codes = np.asarray(codes)[keep]
        if pinned:
            want_levels, want_codes = levels_in, kept_codes.tolist()
        else:
            present = [i for i in range(k) if (kept_codes == i).any()]
            remap = {old: new for new, old in enumerate(present)}
            want_levels = tuple(levels_in[i] for i in present)
            want_codes = [remap[c] if c >= 0 else -1 for c in kept_codes]
        assert kept["g"].levels == want_levels
        assert kept["g"].codes.tolist() == want_codes
        assert kept["g"].pinned == pinned


def _observed_counts(column: CategoricalColumn) -> list[int]:
    codes = column.codes
    return np.bincount(codes[codes >= 0], minlength=len(column.levels)).tolist()


def _fit_outcome(data: Dataset, scheme: str):
    """Every output array's bytes of delete, build and fit, or the error."""
    ast = parse_formula("y ~ g*h + x")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # levels without observations
            kept = listwise_delete(data, [ast.response, *ast.variables()])
            result = fit(build_design(ast, kept, scheme))
    except (DummyregError, ValueError) as exc:
        return type(exc), str(exc)
    arrays = (result.coefficients, result.stderr, result.cov, result.fitted,
              result.residuals, np.array([result.rss, result.r_squared]))
    return [a.tobytes() for a in arrays]


@st.composite
def count_cases(draw):
    """Column contents for a Dataset with y, x, g and h in the formula
    and a bystander column z, each categorical pinned or not."""
    n = draw(st.integers(min_value=1, max_value=30))

    def codes(k, missing):
        low = -1 if missing else 0
        return draw(st.lists(st.integers(min_value=low, max_value=k - 1),
                             min_size=n, max_size=n))

    def floats(missing):
        cell = st.floats(-5, 5, allow_nan=False)
        cells = st.one_of(cell, st.just(np.nan)) if missing else cell
        return draw(st.lists(cells, min_size=n, max_size=n))

    missing = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    cats = {}
    for name, miss in zip("ghz", missing[2:]):
        k = draw(st.integers(min_value=1, max_value=5))
        cats[name] = (k, codes(k, miss), draw(st.booleans()))
    return floats(missing[0]), floats(missing[1]), cats


def _count_dataset(case) -> Dataset:
    y, x, cats = case
    columns = {"y": NumericColumn(y), "x": NumericColumn(x)}
    for name, (k, codes, pinned) in cats.items():
        columns[name] = CategoricalColumn(tuple(f"L{i}" for i in range(k)),
                                          codes, pinned)
    return Dataset(columns)


class TestLevelCounts:
    """Level counts are counted once per column and carried through
    listwise deletion."""

    @settings(max_examples=200, deadline=None)
    @given(count_cases(), st.booleans(), st.sampled_from(["treatment", "effect",
                                                          "weighted"]))
    def test_counts_match_a_fresh_count(self, case, counted_first, scheme):
        data = _count_dataset(case)
        if counted_first:
            for column in data.columns.values():
                if isinstance(column, CategoricalColumn):
                    column.counts  # fills the cache
        try:
            kept = listwise_delete(data, ["y", "x", "g", "h"])
        except EmptyAfterDeletion:
            return
        for frame in (data, kept):
            for column in frame.columns.values():
                if isinstance(column, CategoricalColumn):
                    assert column.counts.tolist() == _observed_counts(column)
                    assert column.counts is column.counts
                    assert not column.counts.flags.writeable
                    assert column.has_missing == bool((column.codes < 0).any())
        once = _fit_outcome(data, scheme)
        assert _fit_outcome(data, scheme) == once
        assert _fit_outcome(_count_dataset(case), scheme) == once

    @settings(max_examples=200, deadline=None)
    @given(count_cases())
    def test_has_missing_matches_a_fresh_test(self, case):
        # w holds NaN but is not deleted on, so it is tested only when
        # read, and reads True.
        data = _count_dataset(case)
        data = Dataset({**data.columns, "w": NumericColumn([np.nan] * data.n_rows)})
        try:
            kept = listwise_delete(data, ["y", "x", "g", "h"])
        except EmptyAfterDeletion:
            return
        assert "has_missing" not in kept["w"].__dict__
        assert kept["w"].has_missing is True
        for name, column in kept.columns.items():
            if isinstance(column, NumericColumn):
                fresh = bool(np.isnan(column.values).any())
            else:
                fresh = bool((column.codes < 0).any())
                assert column.codes.dtype == np.int8, name
            assert column.has_missing == fresh, name

    def test_counts_are_read_only(self):
        col = categorical_column(["b", "a", "NA", "b"])
        with pytest.raises(ValueError):
            col.counts[0] = 5
        assert col.counts.tolist() == [2, 1]

    def test_delete_and_build_allocate_little_beyond_their_output(self):
        # An all-categorical crossing with 1% of a missing. Beyond the
        # columns it keeps, listwise_delete holds one boolean row mask;
        # beyond the n-row pattern index, build_design holds a block of
        # rows. One more n-row int64 array, such as a recount of a
        # column's codes or a key folded through fresh temporaries,
        # breaks these bounds (at this commit: 0.22 MB and 2.31 MB).
        # The kept columns themselves are y as float64 and one byte per
        # row for each of a, b and c, whose largest code is at most 127;
        # int64 codes would hold 6.34 MB here (at this commit: 2.18 MB).
        n = 200_000
        rng = np.random.default_rng(5)
        a = rng.integers(0, 5, n)
        a[rng.random(n) < 0.01] = -1
        data = Dataset({
            "y": NumericColumn(rng.normal(size=n)),
            "a": CategoricalColumn(tuple("pqrst"), a),
            "b": CategoricalColumn(tuple("wxyz"), rng.integers(0, 4, n)),
            "c": CategoricalColumn(tuple("ijk"), rng.integers(0, 3, n)),
        })
        ast = parse_formula("y ~ a*b*c")
        column = 8 * n
        tracemalloc.start()
        try:
            kept = listwise_delete(data, [ast.response, *ast.variables()])
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            design = build_design(ast, kept)
            build_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(design.cell_table) == 60 < design.n_rows
        assert held < column + 3 * n + n, (held, column)  # n: a mask's slack
        assert peak - held < column / 4, (peak - held, column)
        assert build_peak < 1.5 * column, (build_peak, column)


class TestOwnedData:
    """A column's data cannot change under the facts it caches: a view of
    all of an array is frozen with that array, and any other view is
    copied."""

    @settings(max_examples=200, deadline=None)
    @given(count_cases(), st.booleans(),
           st.sampled_from(["whole", "slice", "bytearray"]))
    def test_writing_through_the_base_changes_nothing(self, case, read_first,
                                                      memory):
        y, x, cats = case

        def shared(values, dtype):
            """An array for a column, and another over the same memory."""
            array = np.array(values, dtype=dtype)
            if memory == "whole":
                return array[:], array
            if memory == "slice":
                base = np.append(array, array[:1])
                return base[:-1], base
            raw = bytearray(array.tobytes())
            return np.frombuffer(raw, dtype=dtype), np.frombuffer(raw, dtype=dtype)

        writers, columns = [], {}
        for name, values in (("y", y), ("x", x)):
            values_view, writer = shared(values, np.float64)
            writers.append(writer)
            columns[name] = NumericColumn(values_view)
        for name, (k, codes, pinned) in cats.items():
            # int8 codes need no narrowing, which would copy them anyway.
            codes_view, writer = shared(codes, np.int8)
            writers.append(writer)
            columns[name] = CategoricalColumn(tuple(f"L{i}" for i in range(k)),
                                              codes_view, pinned)
        viewed = Dataset(columns)
        if read_first:
            for column in columns.values():
                column.has_missing  # fills the caches, counts included
        for writer in writers:
            fill = np.nan if writer.dtype.kind == "f" else 0
            if memory == "whole":
                with pytest.raises(ValueError, match="read-only"):
                    writer[:] = fill
            else:
                writer[:] = fill
        fresh = _count_dataset(case)
        for name, column in viewed.columns.items():
            assert column.has_missing == fresh[name].has_missing, name
            if isinstance(column, CategoricalColumn):
                assert column.counts.tolist() == fresh[name].counts.tolist(), name
        assert _fit_outcome(viewed, "weighted") == _fit_outcome(fresh, "weighted")

    @pytest.mark.parametrize("quoted", [False, True], ids=["fast", "strict"])
    def test_reader_deletion_and_patterns_hand_over_owned_arrays(self, quoted):
        # A view handed to a column is copied or freezes the array
        # behind it; these paths hand over none.
        rng = np.random.default_rng(8)
        n = 1500
        edu = rng.choice(["low", "mid", "high", "NA"], n, p=[0.3, 0.3, 0.3, 0.1])
        w = rng.choice(["1.5", "2", "NA"], n)
        w[0] = "NA"  # a numeric column with a missing cell in its first rows
        lines = [f"{b!r},{f},{e},{a},{v}" for b, f, e, a, v in zip(
            rng.normal(25.0, 3.0, n).tolist(), rng.integers(0, 2, n).tolist(),
            edu, rng.integers(18, 81, n).tolist(), w)]
        if quoted:
            lines[7] = '"' + lines[7].replace(",", '",', 1)  # for the csv module
        data = read_csv_text("bmi,female,edu,age,w\n" + "\n".join(lines) + "\n")
        kept = listwise_delete(data, ["bmi", "female", "edu", "age", "w"])
        assert kept.n_rows < n
        patterns, _, counts, _ = _occupied_cells(
            {name: kept[name] for name in ("female", "edu", "age", "w")}, kept.n_rows)
        assert counts.size < kept.n_rows
        for frame in (data.columns, kept.columns, patterns):
            for name, column in frame.items():
                array = column.values if isinstance(column, NumericColumn) else column.codes
                assert array.base is None, name


class TestCodeTypes:
    """Codes are range-checked in the input's own type, then stored in
    the narrowest signed integer type that holds -1..k-1."""

    @pytest.mark.parametrize("codes", [
        np.array([0, 256], dtype=np.int64),  # 0 as int8
        np.array([1, 2**40], dtype=np.int64),  # 0 as int8, int16 or int32
        np.array([0, -2], dtype=np.int64),
        np.array([0, 255], dtype=np.uint8),  # -1 as int8
        [0, 256],
    ])
    def test_out_of_range_codes_raise_and_never_wrap(self, codes):
        with pytest.raises(ValueError, match="out of range"):
            CategoricalColumn(("a", "b"), codes)

    @pytest.mark.parametrize("largest, dtype", [
        (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
    ])
    def test_narrowest_type_at_the_boundaries(self, largest, dtype):
        levels_in = tuple(str(i) for i in range(largest + 1))
        for codes in (np.array([-1, 0, largest]), [-1, 0, largest],
                      np.array([0, largest], dtype=np.uint16)):
            column = CategoricalColumn(levels_in, codes)
            assert column.codes.dtype == dtype
            assert column.codes.tolist() == np.asarray(codes).tolist()
            assert not column.codes.flags.writeable

    @pytest.mark.parametrize("codes", [
        [0.0, 1.9, -1.0], np.array([1.5, 0.2]), [True, False], [], ["1", "0"],
    ])
    def test_non_integer_input_converts_as_int64_did(self, codes):
        column = CategoricalColumn(("a", "b"), codes)
        assert column.codes.dtype == np.int8
        assert column.codes.tolist() == np.asarray(codes, dtype=np.int64).tolist()


class TestColumnFactories:
    def test_numeric_column(self):
        col = numeric_column([1, 2.5])
        assert col.values.dtype == np.float64
        assert len(col) == 2

    def test_categorical_column_infers_levels(self):
        col = categorical_column(["b", "a", "b", "NA"])
        assert col.levels == ("b", "a")
        assert col.codes.tolist() == [0, 1, 0, -1]
        assert col.counts.tolist() == [2, 1]

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ValueError, match="duplicate level names"):
            CategoricalColumn(("a", "a"), [0, 1])

    def test_pinned_levels_reject_strangers(self):
        with pytest.raises(ValueError):
            categorical_column(["x"], levels=("a", "b"))

    @pytest.mark.parametrize("kind, levels, message", [
        ("auto", ("a", "b"), "levels pin a categorical column, not kind 'auto'"),
        ("numeric", ("a", "b"), "levels pin a categorical column, not kind 'numeric'"),
        ("categoric", None, "column kind 'categoric' is not 'auto', 'numeric' "
                            "or 'categorical'"),
    ], ids=["levels-with-auto", "levels-with-numeric", "misspelled-kind"])
    def test_column_schema_rejects_what_it_cannot_honour(self, kind, levels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ColumnSchema(kind, levels)
        assert ColumnSchema("categorical", ("a", "b")).levels == ("a", "b")

    def test_columns_are_immutable(self):
        col = numeric_column([1.0])
        with pytest.raises(ValueError):
            col.values[0] = 2.0

    def test_length_mismatch_rejected(self):
        from dummyreg import Dataset

        with pytest.raises(ValueError):
            Dataset({"a": numeric_column([1.0]), "b": numeric_column([1.0, 2.0])})
