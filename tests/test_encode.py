"""Contrast coding, transforms, design assembly, releveling."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dummyreg import (
    CategoricalColumn,
    ContrastScheme,
    Dataset,
    NumericColumn,
    VarRef,
    apply_transform,
    build_design,
    categorical_column,
    design_references,
    encode_categorical,
    fit,
    numeric_column,
    parse_formula,
    profile_row,
    read_csv_text,
    relevel,
)
from dummyreg.errors import (
    EncodingConflict,
    IncompleteProfile,
    InterceptRequired,
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
from dummyreg.encode import (
    DesignMatrix, _ROW_BLOCK, _numeric_as_categorical, _occupied_cells,
    simple_labels,
)
from dummyreg.formula import ConstExpr, format_number, format_ref


def edu_column(n_low=1, n_middle=1, n_high=1):
    cells = ["low"] * n_low + ["middle"] * n_middle + ["high"] * n_high
    return categorical_column(cells, ("low", "middle", "high"), pinned=True)


class TestEncodeCategorical:
    def test_treatment_rows(self):
        x, kept = encode_categorical(edu_column(), ContrastScheme("treatment", "low"))
        assert kept == ("middle", "high")
        assert x.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_effect_rows(self):
        x, _ = encode_categorical(edu_column(), ContrastScheme("effect", "low"))
        assert x.tolist() == [[-1, -1], [1, 0], [0, 1]]

    def test_weighted_rows(self):
        col = edu_column(10, 20, 5)
        x, kept = encode_categorical(col, ContrastScheme("weighted", "low"))
        assert kept == ("middle", "high")
        assert x[0].tolist() == [-2.0, -0.5]
        assert x[10].tolist() == [1.0, 0.0]
        assert x[-1].tolist() == [0.0, 1.0]

    def test_treatment_row_sums(self):
        col = edu_column(3, 4, 2)
        x, _ = encode_categorical(col, ContrastScheme("treatment", "middle"))
        sums = x.sum(axis=1)
        is_ref = np.array([lv == 1 for lv in col.codes])
        assert np.array_equal(sums, np.where(is_ref, 0.0, 1.0))

    def test_weighted_columns_sum_to_zero_exactly_on_dyadic_counts(self):
        col = edu_column(4, 8, 2)
        x, _ = encode_categorical(col, ContrastScheme("weighted", "low"))
        assert x.sum(axis=0).tolist() == [0.0, 0.0]

    def test_weighted_columns_sum_to_zero_on_random_counts(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            counts = rng.integers(1, 12, size=int(rng.integers(2, 6)))
            cells = [f"g{i}" for i, c in enumerate(counts) for _ in range(c)]
            col = categorical_column(cells)
            omit = f"g{int(rng.integers(len(counts)))}"
            x, _ = encode_categorical(col, ContrastScheme("weighted", omit))
            assert np.abs(x.sum(axis=0)).max() < 1e-12 * len(cells)

    def test_effect_columns_sum_to_zero_only_when_balanced(self):
        balanced, _ = encode_categorical(
            edu_column(2, 2, 2), ContrastScheme("effect", "low"))
        assert balanced.sum(axis=0).tolist() == [0.0, 0.0]
        lopsided, _ = encode_categorical(
            edu_column(5, 2, 2), ContrastScheme("effect", "low"))
        assert np.abs(lopsided.sum(axis=0)).max() > 0

    def test_single_level_rejected(self):
        col = categorical_column(["only", "only"])
        with pytest.raises(SingleLevel):
            encode_categorical(col, ContrastScheme("treatment", "only"))

    def test_zero_count_level_fatal_under_weighted(self):
        col = categorical_column(["a", "b"], ("a", "b", "c"), pinned=True)
        with pytest.raises(ZeroCountLevel) as exc:
            encode_categorical(col, ContrastScheme("weighted", "a"))
        assert exc.value.level == "c"

    def test_zero_count_level_warns_under_treatment(self):
        col = categorical_column(["a", "b"], ("a", "b", "c"), pinned=True)
        with pytest.warns(UserWarning, match="'c'"):
            encode_categorical(col, ContrastScheme("treatment", "a"))

    def test_unknown_omitted_level(self):
        with pytest.raises(UnknownLevel):
            encode_categorical(edu_column(), ContrastScheme("treatment", "phd"))

    def test_bad_scheme_kind(self):
        with pytest.raises(ValueError):
            ContrastScheme("helmert", "low")


class TestApplyTransform:
    def test_log_then_center_hits_zero_at_baseline(self):
        ref = VarRef("age", log=True, center=ConstExpr(18.0, logged=True))
        out = apply_transform(np.array([18.0, 36.0]), ref)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(math.log(2.0))

    def test_center_at_zero_is_identity(self):
        ref = VarRef("x", center=ConstExpr(0.0))
        values = np.array([1.5, -2.0])
        assert apply_transform(values, ref).tolist() == values.tolist()

    def test_log_rejects_nonpositive(self):
        ref = VarRef("age", log=True)
        with pytest.raises(NonPositiveLog) as exc:
            apply_transform(np.array([5.0, 0.0, 3.0]), ref)
        assert exc.value.row == 1

    def test_infinite_value_raised_before_the_log_test(self):
        # -inf is also <= 0; the finiteness test comes first.
        ref = VarRef("age", log=True)
        with pytest.raises(NonFiniteValue) as exc:
            apply_transform(np.array([5.0, 0.0, -np.inf]), ref,
                            index=np.array([0, 0, 2, 1]))
        assert (exc.value.name, exc.value.row) == ("age", 2)


def interaction_fixture(spread=0.3):
    from dummyreg import Cell, CellMeanSpec, synthesize

    cells = {
        ("0", "low"): Cell(26.07, 4), ("0", "middle"): Cell(25.25, 4),
        ("0", "high"): Cell(24.70, 4), ("1", "low"): Cell(26.16, 4),
        ("1", "middle"): Cell(24.69, 4), ("1", "high"): Cell(23.87, 4),
    }
    spec = CellMeanSpec(
        {"female": ("0", "1"), "edu": ("low", "middle", "high")},
        cells, response="bmi")
    return synthesize(spec, spread)


class TestBuildDesign:
    def test_crossed_design_has_six_labeled_columns(self):
        data = interaction_fixture()
        design = build_design(parse_formula("bmi ~ female * edu"), data,
                              refs={"edu": "low"})
        assert [l.text for l in design.labels] == [
            "(intercept)", "female", "edu[middle]", "edu[high]",
            "female×edu[middle]", "female×edu[high]",
        ]
        assert design.n_cols == 6

    def test_dichotomous_numeric_passes_through(self):
        data = read_csv_text("bmi,female\n25,0\n26,1\n24,0\n23,1\n")
        design = build_design(parse_formula("bmi ~ female"), data)
        assert [l.text for l in design.labels] == ["(intercept)", "female"]
        assert design.values[:, 1].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_interaction_columns_are_exact_products(self):
        data = interaction_fixture()
        design = build_design(parse_formula("bmi ~ female * edu"), data,
                              refs={"edu": "low"})
        x = design.values
        assert np.array_equal(x[:, 4], x[:, 1] * x[:, 2])
        assert np.array_equal(x[:, 5], x[:, 1] * x[:, 3])

    def test_column_order_mains_then_interactions(self):
        data = interaction_fixture()
        design = build_design(parse_formula("bmi ~ female:edu + female + edu"),
                              data, refs={"edu": "low"})
        kinds = [l.interaction for l in design.labels]
        assert kinds == sorted(kinds)

    def test_cat_converts_numeric_column(self):
        data = read_csv_text("y,children\n1,0\n2,1\n3,2\n4,0\n5,2\n6,1\n")
        design = build_design(parse_formula('y ~ cat(children, ref="0")'), data)
        assert [l.text for l in design.labels] == [
            "(intercept)", "children[1]", "children[2]"]

    def test_cat_levels_sorted_numerically(self):
        data = read_csv_text("y,year\n1,2011\n2,2000\n3,2005\n4,2000\n")
        design = build_design(parse_formula("y ~ cat(year)"), data)
        assert [l.text for l in design.labels] == [
            "(intercept)", "year[2005]", "year[2011]"]

    def test_transform_label_text(self):
        data = read_csv_text("y,age\n1,18\n2,36\n3,54\n")
        design = build_design(
            parse_formula("y ~ center(log(age), at=log(18))"), data)
        assert design.labels[1].text == "center(log(age), at=log(18))"

    def test_duplicate_spellings_merge(self):
        data = read_csv_text("y,edu\n1,low\n2,middle\n3,high\n4,low\n")
        design = build_design(parse_formula("y ~ edu + cat(edu)"), data)
        assert design.n_cols == 3

    def test_formula_scheme_override_applies_variable_wide(self):
        data = interaction_fixture()
        design = build_design(
            parse_formula('bmi ~ female * cat(edu, ref="low", scheme="effect")'),
            data)
        info = design.info.categoricals["edu"]
        assert info.scheme.kind == "effect"
        low_rows = design.values[:, 2][:4]
        assert low_rows.tolist() == [-1.0] * 4

    def test_refs_argument_beats_formula_default(self):
        data = interaction_fixture()
        ast = parse_formula('bmi ~ cat(edu, ref="low")')
        design = build_design(ast, data, refs={"edu": "middle"})
        assert design_references(design) == {"edu": "middle"}

    def test_intercept_suppression_rejected(self):
        data = read_csv_text("y,x\n1,2\n3,4\n")
        with pytest.raises(InterceptRequired):
            build_design(parse_formula("y ~ 0 + x"), data)

    def test_unknown_variable(self):
        data = read_csv_text("y,x\n1,2\n")
        with pytest.raises(UnknownVariable):
            build_design(parse_formula("y ~ ghost"), data)

    def test_response_must_be_numeric(self):
        data = read_csv_text("y,x\nlow,1\nhigh,2\n")
        with pytest.raises(ResponseNotNumeric):
            build_design(parse_formula("y ~ x"), data)

    def test_missing_values_rejected(self):
        data = read_csv_text("y,x\n1,2\nNA,3\n")
        with pytest.raises(MissingValuesPresent) as exc:
            build_design(parse_formula("y ~ x"), data)
        assert exc.value.variables == ("y",)

    @pytest.mark.parametrize("name", ["y", "x"])
    def test_infinite_value_named_with_its_first_row(self, name):
        cells = {"y": ["1", "2", "3", "4", "5"], "x": ["1", "2", "3", "1", "2"]}
        cells[name][1], cells[name][3] = "-1e500", "1e500"
        text = "y,g,x\n" + "".join(
            f"{y},{g},{x}\n" for y, g, x in zip(cells["y"], "ababa", cells["x"]))
        with pytest.raises(NonFiniteValue) as exc:
            build_design(parse_formula("y ~ g * log(x)"), read_csv_text(text))
        assert (exc.value.name, exc.value.row) == (name, 1)

    def test_infinite_label_and_missing_value_precedence(self):
        data = read_csv_text("y,x,z\n1,1e500,1\n2,2,NA\n3,-1e500,1\n4,2,1\n")
        design = build_design(parse_formula("y ~ cat(x)"), data)
        assert design.info.categoricals["x"].levels == ("-inf", "2", "inf")
        with pytest.raises(MissingValuesPresent):
            build_design(parse_formula("y ~ x + z"), data)

    def test_conflicting_reference_levels(self):
        data = interaction_fixture()
        with pytest.raises(EncodingConflict):
            build_design(parse_formula(
                'bmi ~ cat(edu, ref="low") + female:cat(edu, ref="middle")'),
                data)

    def test_conflicting_contrast_schemes(self):
        data = read_csv_text("y,g,age\n1,a,20\n2,b,30\n3,a,40\n4,b,50\n")
        with pytest.raises(EncodingConflict, match="conflicting contrast schemes"):
            build_design(parse_formula(
                'y ~ cat(g, scheme="effect") + cat(g, scheme="weighted"):age'),
                data)

    def test_transform_on_categorical_rejected(self):
        data = read_csv_text("y,edu\n1,low\n2,high\n")
        with pytest.raises(EncodingConflict):
            build_design(parse_formula("y ~ log(edu)"), data)

    def test_continuous_by_continuous_rejected(self):
        data = read_csv_text("y,a,b\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(EncodingConflict):
            build_design(parse_formula("y ~ a:b"), data)

    def test_continuous_pair_reported_before_encoding_errors(self):
        # The data-dependent check runs before any term is encoded, so it
        # wins over a single-level factor or a log of a non-positive value.
        data = read_csv_text("y,g,a,b\n1,p,-2,3\n4,p,5,6\n7,p,8,9\n")
        for formula in ("y ~ g + a:b", "y ~ log(a):b"):
            with pytest.raises(EncodingConflict, match="two continuous"):
                build_design(parse_formula(formula), data)

    def test_continuous_by_dummy_allowed(self):
        data = read_csv_text("y,age,female\n1,20,0\n2,30,1\n3,40,0\n4,50,1\n")
        design = build_design(parse_formula("y ~ age + female + age:female"), data)
        assert design.labels[-1].text == "age×female"

    def test_self_interaction_rejected(self):
        data = read_csv_text("y,edu\n1,low\n2,high\n3,low\n")
        with pytest.raises(EncodingConflict):
            build_design(parse_formula("y ~ edu:cat(edu)"), data)

    def test_refs_for_numeric_passthrough_rejected(self):
        data = read_csv_text("y,female\n1,0\n2,1\n")
        with pytest.raises(NotCategorical):
            build_design(parse_formula("y ~ female"), data,
                         refs={"female": "0"})

    def test_log_error_names_the_first_data_row(self):
        # Rows 0-5 repeat two patterns; -1.0 (row 6) sorts before every
        # positive value, so its pattern is not the sixth.
        x = [2.0, 3.0, 2.0, 3.0, 2.0, 3.0, -1.0, 2.0, 0.0, 3.0]
        data = Dataset({"y": numeric_column(range(10)), "x": numeric_column(x),
                        "g": categorical_column(list("ab") * 5)})
        with pytest.raises(NonPositiveLog) as exc:
            build_design(parse_formula("y ~ g + center(log(x), at=1)"), data)
        assert exc.value.row == 6
        assert str(exc.value) == "log transform requires positive values (row 6)"

    @pytest.mark.parametrize("formula", ["y ~ log(x) + g", "y ~ x + g"])
    def test_single_level_reported_before_infinite_value(self, formula):
        data = Dataset({"y": numeric_column(range(4)),
                        "x": numeric_column([1.0, np.inf, 1.0, 2.0]),
                        "g": categorical_column(["a"] * 4)})
        with pytest.raises(SingleLevel):
            build_design(parse_formula(formula), data)

    def test_single_level_reported_before_log_error(self):
        data = Dataset({"y": numeric_column(range(4)),
                        "x": numeric_column([1.0, 0.0, 1.0, 2.0]),
                        "g": categorical_column(["a"] * 4)})
        with pytest.raises(SingleLevel):
            build_design(parse_formula("y ~ log(x) + g"), data)

    def test_design_is_immutable(self):
        data = read_csv_text("y,x\n1,2\n3,4\n")
        design = build_design(parse_formula("y ~ x"), data)
        with pytest.raises(ValueError):
            design.values[0, 0] = 9.0


class TestDesignMatrix:
    def test_label_count_must_match_the_table(self):
        with pytest.raises(ValueError, match="label count"):
            DesignMatrix(np.ones((3, 2)), simple_labels(["(i)"]), np.ones(3))

    @pytest.mark.parametrize("index", [[0, 1, 2], [-1, 0, 1]])
    def test_cell_index_must_be_in_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            DesignMatrix(np.ones((2, 1)), simple_labels(["(i)"]), np.ones(3),
                         cell_index=index)


class TestRelevel:
    def test_changes_omitted_level(self):
        data = interaction_fixture()
        ast = parse_formula("bmi ~ edu")
        refs = relevel({}, "edu", "middle", data)
        design = build_design(ast, data, refs=refs)
        assert [l.text for l in design.labels] == [
            "(intercept)", "edu[low]", "edu[high]"]

    def test_relevel_to_current_reference_is_identity(self):
        data = interaction_fixture()
        ast = parse_formula("bmi ~ edu")
        base = build_design(ast, data, refs={"edu": "low"})
        again = build_design(ast, data, refs=relevel({}, "edu", "low", data))
        assert np.array_equal(base.values, again.values)
        assert [l.text for l in base.labels] == [l.text for l in again.labels]

    def test_unknown_level(self):
        data = interaction_fixture()
        with pytest.raises(UnknownLevel):
            relevel({}, "edu", "phd", data)

    def test_original_refs_untouched(self):
        data = interaction_fixture()
        original = {"edu": "low"}
        updated = relevel(original, "edu", "high", data)
        assert original == {"edu": "low"}
        assert updated == {"edu": "high"}

    def test_against_design_context_for_converted_numeric(self):
        data = read_csv_text("y,children\n1,0\n2,1\n3,2\n4,1\n")
        design = build_design(parse_formula("y ~ cat(children)"), data)
        refs = relevel({}, "children", "2", design)
        assert refs == {"children": "2"}
        with pytest.raises(UnknownLevel):
            relevel({}, "children", "9", design)

    def test_a_number_names_its_level(self):
        data = read_csv_text("y,k\n1,1\n2,2\n3,3\n4,2\n")
        design = build_design(parse_formula("y ~ cat(k)"), data)
        for context in (data, design):
            assert relevel({}, "k", "2.0", context) == {"k": "2"}
            assert relevel({}, "k", 2.0, context) == {"k": "2"}
        with pytest.raises(UnknownLevel, match="'2.5' is not a level of 'k'"):
            relevel({}, "k", "2.5", data)


# Values of a cat() numeric column; 1e500 reads as inf.
LEVEL_VALUES = (-3.0, -0.0, 1.0, 2.5, 1e20, math.inf)


def level_spellings(value: float) -> list[str]:
    """Texts that name the level of a cat() value: repr, format_number,
    a trailing zero, a + sign and an exponent; inf is the CSV's 1e500."""
    canon = format_number(value)
    if math.isinf(value):
        return [canon, "1e500", "+1E999"]
    return [repr(value), canon, canon + ("0" if "." in canon else ".0"),
            canon if canon.startswith("-") else "+" + canon,
            np.format_float_scientific(value)]


@st.composite
def spelled_level_cases(draw):
    values = draw(st.lists(st.sampled_from(LEVEL_VALUES), min_size=2,
                           max_size=len(LEVEL_VALUES), unique=True))
    extra = draw(st.lists(st.sampled_from(values), max_size=6))
    cells = [v for v in values for _ in "ab"] + extra
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = ["y,k,g"] + [
        f"{rng.normal()!r},{'1e500' if math.isinf(v) else repr(v)},{'ab'[i % 2]}"
        for i, v in enumerate(cells)]
    data = read_csv_text("\n".join(lines) + "\n")
    ref = draw(st.sampled_from(values))
    return data, ref, draw(st.lists(st.sampled_from(level_spellings(ref)),
                                    min_size=2, max_size=2))


class TestLevelNames:
    """One rule names a level: the text itself, else a number's
    format_number spelling, for refs, cat(ref=), relevel and profiles."""

    @settings(max_examples=100, deadline=None)
    @given(spelled_level_cases())
    def test_every_spelling_picks_the_canonical_level(self, case):
        data, ref, (text, other) = case
        level = format_number(ref)
        expected = fit(build_design(parse_formula("y ~ cat(k) + g"), data,
                                    refs={"k": level}))
        designs = [
            build_design(parse_formula("y ~ cat(k) + g"), data, refs={"k": text}),
            build_design(parse_formula(f'y ~ cat(k, ref="{text}") + g'), data),
            build_design(parse_formula(
                f'y ~ cat(k, ref="{text}") + cat(k, ref="{other}") + g'), data),
        ]
        for design in designs:
            assert design_references(design)["k"] == level
            got = fit(design)
            for name in ("coefficients", "stderr", "fitted", "cov"):
                assert np.array_equal(getattr(got, name), getattr(expected, name))
        design = designs[0]
        for raw in (text, ref):
            assert relevel({}, "k", raw, data) == {"k": level}
            assert relevel({}, "k", raw, design) == {"k": level}
            assert np.array_equal(profile_row(design, {"k": raw, "g": "b"}),
                                  profile_row(design, {"k": level, "g": "b"}))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["2.50", "+1", "007", "1e0", "-0", "1.0"]),
                    min_size=1, max_size=4, unique=True))
    def test_a_text_level_is_named_only_as_written(self, numeric_texts):
        levels = numeric_texts + ["x"]
        lines = ["y,h"] + [f"{i},{lv}" for i, lv in enumerate(levels * 2)]
        data = read_csv_text("\n".join(lines) + "\n")
        ast = parse_formula("y ~ h")
        design = build_design(ast, data)
        for lv in numeric_texts:
            assert relevel({}, "h", lv, data) == {"h": lv}
            assert design_references(build_design(ast, data, refs={"h": lv})) \
                == {"h": lv}
            canon = format_number(float(lv))
            with pytest.raises(UnknownLevel, match=f"'{re.escape(canon)}'"):
                relevel({}, "h", canon, data)
            with pytest.raises(UnknownLevel):
                build_design(ast, data, refs={"h": canon})
            with pytest.raises(UnknownLevel):
                build_design(parse_formula(f'y ~ cat(h, ref="{canon}")'), data)
            with pytest.raises(UnknownLevel):
                profile_row(design, {"h": canon})

    def test_texts_that_name_no_level_conflict_as_written(self):
        data = read_csv_text("y,k\n1,1\n2,2\n3,3\n4,2\n")
        with pytest.raises(EncodingConflict, match=r"\['2.0', '7'\]"):
            build_design(parse_formula(
                'y ~ cat(k, ref="2.0") + cat(k, ref="7")'), data)
        with pytest.raises(UnknownLevel, match="'7.0' is not a level"):
            build_design(parse_formula('y ~ cat(k, ref="7.0") + cat(k)'), data)


class TestNumericAsCategorical:
    """cat() numbers: levels and codes from one np.unique."""

    @staticmethod
    def by_search(values):
        distinct = np.unique(values)
        return (tuple(format_number(v) for v in distinct),
                np.searchsorted(distinct, values))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300]),
                              st.floats(allow_nan=False)), min_size=1, max_size=30))
    def test_matches_unique_and_searchsorted(self, values):
        values = np.array(values)
        column = _numeric_as_categorical(values)
        levels, codes = self.by_search(values)
        assert column.levels == levels
        assert np.array_equal(column.codes, codes)

    def test_signed_zeros_are_one_level(self):
        column = _numeric_as_categorical(np.array([0.0, -0.0, 2.0, -0.0]))
        assert column.levels == ("0", "2")
        assert column.codes.tolist() == [0, 0, 1, 0]

    def test_nan_on_an_undeleted_dataset(self):
        values = [2.0, np.nan, 1.0, np.nan, 2.0]
        data = Dataset({"y": numeric_column(range(5)), "x": numeric_column(values)})
        column = _numeric_as_categorical(data["x"].values)
        assert column.levels == ("1", "2", "nan")
        assert relevel({}, "x", "nan", data) == {"x": "nan"}
        assert np.array_equal(column.codes, self.by_search(data["x"].values)[1])
        assert column.codes.tolist() == [1, 2, 0, 2, 1]


class TestProfileRow:
    def test_matches_observed_design_rows(self):
        data = interaction_fixture()
        design = build_design(parse_formula("bmi ~ female * edu"), data,
                              refs={"edu": "low"})
        female = data["female"].values
        edu = data["edu"]
        for i in (0, 5, 13, 23):
            profile = {"female": female[i], "edu": edu.levels[edu.codes[i]]}
            assert profile_row(design, profile).tolist() == \
                design.values[i].tolist()

    def test_weighted_profile_reuses_fit_counts(self):
        cells = ["a"] * 10 + ["b"] * 20 + ["c"] * 5
        data = Dataset({
            "g": categorical_column(cells),
            "y": numeric_column(range(35)),
        })
        design = build_design(parse_formula("y ~ g"), data,
                              default_scheme="weighted")
        row = profile_row(design, {"g": "a"})
        assert row.tolist() == [1.0, -2.0, -0.5]

    def test_incomplete_profile(self):
        data = interaction_fixture()
        design = build_design(parse_formula("bmi ~ female * edu"), data)
        with pytest.raises(IncompleteProfile) as exc:
            profile_row(design, {"female": 1})
        assert exc.value.missing == ("edu",)

    def test_unknown_level(self):
        data = interaction_fixture()
        design = build_design(parse_formula("bmi ~ female * edu"), data)
        with pytest.raises(UnknownLevel):
            profile_row(design, {"female": 1, "edu": "phd"})


# --- properties of the encoder ---------------------------------------

# Factors a property formula draws from: two categoricals, a cat() of a
# numeric column, a 0/1 pass-through, and a centred log.
AGE = "center(log(x), at=log(18))"
FACTORS = ("a", "b", "cat(k)", "d", AGE)


@st.composite
def encoder_cases(draw):
    n = draw(st.integers(8, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def codes(k):
        # every level observed, so weighted coding is always defined
        return np.concatenate([np.arange(k), rng.integers(0, k, n - k)])

    data = Dataset({
        "y": numeric_column(rng.normal(size=n)),
        "a": CategoricalColumn(("lo", "mid", "hi"), codes(3)),
        "b": CategoricalColumn(("u", "v"), codes(2)),
        "k": numeric_column(np.array([0.0, 1.5, 3.0])[codes(3)]),
        "d": numeric_column(codes(2).astype(float)),
        "x": numeric_column(rng.uniform(0.5, 80.0, n)),
    })
    mains = draw(st.lists(st.sampled_from(FACTORS), unique=True))
    crossed = draw(st.permutations(FACTORS))[: draw(st.integers(2, 4))]
    formula = "y ~ " + " + ".join(mains + [":".join(crossed)])
    scheme = draw(st.sampled_from(("treatment", "effect", "weighted")))
    return data, parse_formula(formula), scheme, draw(st.booleans())


def factor_column(design, data, refs_by_text, variable, detail):
    """One factor's column, encoded without the design's term expansion."""
    ci = design.info.categoricals.get(variable)
    if ci is None:
        return apply_transform(data[variable].values, refs_by_text[detail])
    column = data[variable]
    if not isinstance(column, CategoricalColumn):
        names = [format_number(v) for v in column.values]
        column = categorical_column(names, ci.levels, pinned=True)
    block, kept = encode_categorical(column, ci.scheme, variable)
    return block[:, kept.index(detail[len(variable) + 1:-1])]


def dense_values(design, data, ast):
    """The n x p design, each column the left-to-right product of its
    factors' columns, encoded row by row without the pattern table."""
    refs_by_text = {format_ref(r): r for t in ast.terms for r in t.factors}
    out = np.empty((data.n_rows, design.n_cols))
    for j, label in enumerate(design.labels):
        expected = np.ones(data.n_rows)
        for variable, detail in zip(label.variables, label.details):
            expected = expected * factor_column(
                design, data, refs_by_text, variable, detail)
        out[:, j] = expected
    return out


class TestEncoderProperties:
    @settings(max_examples=60, deadline=None)
    @given(encoder_cases())
    def test_columns_are_left_to_right_factor_products(self, case):
        data, ast, scheme, _ = case
        design = build_design(ast, data, scheme)
        expected = dense_values(design, data, ast)
        for j, label in enumerate(design.labels):
            assert np.array_equal(design.values[:, j], expected[:, j]), label.text

    @settings(max_examples=60, deadline=None)
    @given(encoder_cases())
    def test_profile_row_reproduces_every_design_row(self, case):
        data, ast, scheme, as_text = case
        design = build_design(ast, data, scheme)
        for i in range(data.n_rows):
            profile = {}
            for name in ast.variables():
                column = data[name]
                if isinstance(column, CategoricalColumn):
                    profile[name] = column.levels[column.codes[i]]
                else:
                    value = float(column.values[i])
                    profile[name] = repr(value) if as_text else value
            assert np.array_equal(profile_row(design, profile),
                                  design.values[i]), (i, profile)

    @pytest.mark.parametrize("scheme", ["treatment", "effect"])
    def test_zero_count_level_warns_once_per_variable(self, scheme):
        a = categorical_column(["p", "q", "p", "q", "p", "q"], ("p", "q", "r"),
                               pinned=True)
        data = Dataset({"y": numeric_column(range(6)), "a": a,
                        "b": categorical_column(["s", "s", "t", "t", "s", "t"])})
        with warnings.catch_warnings(record=True) as built:
            warnings.simplefilter("always")
            design = build_design(parse_formula("y ~ a*b"), data, scheme)
        with warnings.catch_warnings(record=True) as profiled:
            warnings.simplefilter("always")
            profile_row(design, {"a": "q", "b": "t"})
        for caught in (built, profiled):
            assert [str(w.message) for w in caught] == [
                "level 'r' of 'a' has no observations"]
            assert caught[0].filename == __file__


# --- the log domain ---------------------------------------------------

# Log factors a property formula draws from, over two numeric columns.
LOG_FACTORS = ("log(x)", "center(log(x), at=log(2))", "log(z)")


@st.composite
def log_domain_cases(draw):
    n = draw(st.integers(6, 40))

    def log_column():
        if draw(st.booleans()):  # every value distinct: no pattern index
            values = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n,
                                   unique=True))
        else:
            values = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0]),
                                   min_size=n, max_size=n))
        if draw(st.booleans()):
            values = [abs(v) + 0.5 for v in values]
        return numeric_column(values)

    def codes(k):
        return draw(st.permutations(np.arange(n) % k))

    data = Dataset({
        "y": numeric_column(range(n)),
        "x": log_column(),
        "z": log_column(),
        "g": CategoricalColumn(("a", "b", "c"), codes(3)),
        "h": CategoricalColumn(("u", "v"), codes(2)),
    })
    factor = st.sampled_from(LOG_FACTORS)
    mains = draw(st.lists(st.sampled_from(LOG_FACTORS + ("g", "h")), unique=True))
    crossed = draw(st.lists(
        st.tuples(factor, st.sampled_from(("g", "h", "g:h")), st.booleans()).map(
            lambda t: f"{t[0]}:{t[1]}" if t[2] else f"{t[1]}:{t[0]}"),
        max_size=2))
    if not mains and not crossed:
        mains = [draw(factor)]
    return data, parse_formula("y ~ " + " + ".join(mains + crossed))


def first_log_error_row(ast, data):
    """The row NonPositiveLog must name: the first data row that the first
    log factor, in encoding order, cannot take; None if each can."""
    terms = ([t for t in ast.terms if t.kind == "main"]
             + [t for t in ast.terms if t.kind == "interaction"])
    for term in terms:
        for ref in term.factors:
            if ref.log:
                for row, value in enumerate(data[ref.name].values):
                    if value <= 0:
                        return row
    return None


class TestLogDomain:
    @pytest.mark.parametrize("formula", [
        "y ~ g + log(x)", "y ~ log(x) + g", "y ~ g + g:center(log(x), at=1)"])
    def test_names_a_data_row_not_a_pattern(self, formula):
        # Six rows, five patterns. Keyed, x = -1 (row 3) sorts before
        # x = 0 (row 1), but row 1 is the first that log cannot take.
        x = [3.0, 0.0, 2.0, -1.0, 3.0, 2.0]
        data = Dataset({"y": numeric_column(range(6)), "x": numeric_column(x),
                        "g": categorical_column(list("ababab"))})
        with pytest.raises(NonPositiveLog) as exc:
            build_design(parse_formula(formula), data)
        assert exc.value.row == 1

    @settings(max_examples=200, deadline=None)
    @given(log_domain_cases())
    def test_names_the_first_row_of_the_first_log_factor(self, case):
        data, ast = case
        expected = first_log_error_row(ast, data)
        if expected is None:
            build_design(ast, data)
            return
        with pytest.raises(NonPositiveLog) as exc:
            build_design(ast, data)
        assert exc.value.row == expected


# --- infinite values --------------------------------------------------

# Numeric factors a property formula draws from: x in main terms or
# interactions, z only in interactions.
X_FACTORS = ("x", "log(x)", "center(x, at=1)")
Z_FACTORS = ("z", "log(z)")


@st.composite
def infinite_value_cases(draw):
    """Keyed designs: n data rows repeat h base rows, each at least twice.
    A base row's x or z may be +-inf, and log(x) would also reject -inf."""
    h = draw(st.integers(3, 12))
    n = draw(st.integers(2 * h, 3 * h))
    pool = st.sampled_from([0.5, 2.0, 3.0, np.inf, -np.inf])
    x, z = (draw(st.lists(pool, min_size=h, max_size=h)) for _ in range(2))
    g = np.arange(h) % 3
    base = draw(st.permutations(np.arange(n) % h))
    data = Dataset({
        "y": numeric_column(range(n)),
        "x": numeric_column(np.array(x)[base]),
        "z": numeric_column(np.array(z)[base]),
        "g": CategoricalColumn(("a", "b", "c"), g[base]),
    })
    mains = draw(st.lists(st.sampled_from(X_FACTORS + ("g",)), unique=True))
    crossed = draw(st.lists(
        st.tuples(st.sampled_from(X_FACTORS + Z_FACTORS), st.booleans()).map(
            lambda t: f"{t[0]}:g" if t[1] else f"g:{t[0]}"),
        min_size=1, max_size=2))
    terms = draw(st.permutations(mains + crossed))  # formula order is not encoding order
    return data, parse_formula("y ~ " + " + ".join(terms))


def first_infinite_value(ast, data):
    """(variable, row) that NonFiniteValue must name: the first data row
    of the first numeric factor, in encoding order, holding +-inf."""
    terms = ([t for t in ast.terms if t.kind == "main"]
             + [t for t in ast.terms if t.kind == "interaction"])
    for term in terms:
        for ref in term.factors:
            if ref.name != "g":
                infinite = np.isinf(data[ref.name].values)
                if infinite.any():
                    return ref.name, int(np.argmax(infinite))
    return None


class TestInfiniteValues:
    @settings(max_examples=200, deadline=None)
    @given(infinite_value_cases())
    def test_names_the_first_row_of_the_first_infinite_factor(self, case):
        data, ast = case
        expected = first_infinite_value(ast, data)
        if expected is None:
            used = np.column_stack([data[name].codes if name == "g"
                                    else data[name].values
                                    for name in ast.variables()])
            patterns = len(np.unique(used, axis=0))
            assert len(build_design(ast, data).cell_table) == patterns < data.n_rows
            return
        with pytest.raises(NonFiniteValue) as exc:
            build_design(ast, data)
        assert (exc.value.name, exc.value.row) == expected


# --- the pattern key ----------------------------------------------------

def pattern_digits(columns):
    """Each column's digit per row: a level code, or a numeric value's
    rank among its distinct float64 bit patterns."""
    return np.stack([
        column.codes if isinstance(column, CategoricalColumn)
        else np.unique(column.values.view(np.int64), return_inverse=True)[1]
        for column in columns.values()]).reshape(len(columns), -1)


class TestPatternKey:
    # Rows enough that a key range up to 4 * 9000 folds without being
    # compacted: the running range crosses int8's and int16's ends.
    N = 9000

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=300), min_size=2, max_size=4),
           st.integers(min_value=-1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example([2, 64], -1, 0)  # the largest key is int8's 127
    @example([3, 43], -1, 0)  # 128: the key needs int16
    @example([128, 256], -1, 0)  # the largest key is int16's 32767
    @example([129, 255], -1, 0)  # 32894: the key needs int32
    @example([129, 255], 2, 0)  # then a numeric digit
    @example([2, 2, 2, 128], 1, 0)
    def test_folds_to_the_unique_rows_of_the_digits(self, sizes, numeric_at, seed):
        rng = np.random.default_rng(seed)
        columns = {}
        for i, k in enumerate(sizes):
            codes = rng.integers(0, k, self.N)
            codes[0] = k - 1  # row 0 holds the largest key
            columns[f"c{i}"] = CategoricalColumn(tuple(map(str, range(k))), codes)
        if numeric_at >= 0:  # -0.0 and 0.0 are two digits
            x = rng.choice([-0.0, 0.0, 0.5, 2.0], self.N)
            names = list(columns)
            names.insert(min(numeric_at, len(names)), "x")
            columns["x"] = NumericColumn(x)
            columns = {name: columns[name] for name in names}
        before = {name: np.array(c.codes) for name, c in columns.items()
                  if isinstance(c, CategoricalColumn)}
        patterns, index, counts = _occupied_cells(columns, self.N)
        digits = pattern_digits(columns)
        unique, inverse, expected = np.unique(digits, axis=1, return_inverse=True,
                                              return_counts=True)
        assert index.dtype == np.intp
        assert np.array_equal(index, inverse.reshape(-1))
        assert np.array_equal(counts, expected)
        assert np.array_equal(pattern_digits(patterns), unique)
        for name, codes in before.items():
            assert np.array_equal(columns[name].codes, codes)
            assert not columns[name].codes.flags.writeable

    @staticmethod
    def late_crossing(n, late):
        """a (3 levels) x b (2) x x (0.0, 1.0) in rows 0..11 and at random
        after them, except that rows ``late`` hold x = -0.0 in cells of
        their own."""
        rng = np.random.default_rng(n)
        fill = rng.integers(0, 12, n)
        fill[:12] = np.arange(12)
        a, b, x = fill % 3, fill // 3 % 2, (fill // 6).astype(float)
        a[late], b[late], x[late] = np.arange(len(late)) % 3, 1, -0.0
        return Dataset({"y": numeric_column(rng.normal(size=n)),
                        "a": CategoricalColumn(("p", "q", "r"), a),
                        "b": CategoricalColumn(("s", "t"), b),
                        "x": numeric_column(x)})

    # Two rows past the first block, one in a block that the scan does
    # not stop to test (the third) and one as the very last row; or
    # every pattern, -0.0 included, in the first block.
    @pytest.mark.parametrize("late", [(2 * _ROW_BLOCK + 5, -1), (20, 21)])
    def test_pattern_rows_are_found_in_any_block(self, late):
        n = 3 * _ROW_BLOCK + 17
        data = self.late_crossing(n, list(late))
        ast = parse_formula("y ~ a*b + a*x")
        design = build_design(ast, data)
        assert len(design.cell_table) == 14  # -0.0 and 0.0 apart
        assert np.array_equal(design.values.view(np.int64),
                              dense_values(design, data, ast).view(np.int64))
