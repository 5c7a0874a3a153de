"""CSV ingestion, column typing, level management, listwise deletion."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    EmptyAfterDeletion,
    EmptyInput,
    MalformedCsv,
    NotCategorical,
    RaggedRow,
    UnknownVariable,
)


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

    def test_deterministic(self):
        text = "g,x\na,1\nb,2\na,NA\n"
        one, two = read_csv_text(text), read_csv_text(text)
        assert one["g"].levels == two["g"].levels
        assert one["g"].codes.tolist() == two["g"].codes.tolist()
        assert np.array_equal(one["x"].values, two["x"].values, equal_nan=True)

    def test_scientific_notation_and_signs(self):
        data = read_csv_text("x\n+1.5\n-2e3\n.25\n")
        assert data["x"].values.tolist() == [1.5, -2000.0, 0.25]


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
