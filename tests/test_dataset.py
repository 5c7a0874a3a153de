"""CSV ingestion, column typing, level management, listwise deletion."""

import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dummyreg import dataset
from dummyreg import (
    CategoricalColumn,
    ColumnSchema,
    Dataset,
    NumericColumn,
    Schema,
    categorical_column,
    levels,
    listwise_delete,
    numeric_column,
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


class TestReaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(csv_cases(), st.sampled_from([1, 2, 3, dataset._BLOCK_ROWS]))
    def test_same_columns_or_same_error(self, case, block_rows):
        text, schema = case
        want = _read_or_error(reference_read_csv, text, schema)
        with mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
            got = _read_or_error(read_csv_text, text, schema)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, Dataset)
        assert list(got.columns) == list(want.columns)
        for name, col in want.columns.items():
            other = got[name]
            assert type(other) is type(col)
            if isinstance(col, CategoricalColumn):
                assert other.levels == col.levels
                assert other.codes.tolist() == col.codes.tolist()
                assert other.pinned == col.pinned
            else:
                assert other.values.tobytes() == col.values.tobytes()


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

    def test_pinned_levels_reject_strangers(self):
        with pytest.raises(ValueError):
            categorical_column(["x"], levels=("a", "b"))

    def test_columns_are_immutable(self):
        col = numeric_column([1.0])
        with pytest.raises(ValueError):
            col.values[0] = 2.0

    def test_length_mismatch_rejected(self):
        from dummyreg import Dataset

        with pytest.raises(ValueError):
            Dataset({"a": numeric_column([1.0]), "b": numeric_column([1.0, 2.0])})
