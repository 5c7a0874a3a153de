"""Table rendering: rounding rules, reference rows, sections, JSON shape."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dummyreg import (
    build_design,
    design_references,
    fit,
    format_p,
    format_value,
    parse_formula,
    render_json,
    render_text,
    synthesize,
)

from util import interaction_design, load_spec, reference_format_value


class TestFormatValue:
    def test_plain_cases(self):
        assert format_value(25.23) == "25.23"
        assert format_value(25.0) == "25.00"
        assert format_value(-0.51) == "-.51"
        assert format_value(0.16) == ".16"
        assert format_value(0.0) == ".00"
        assert format_value(0.004) == ".00"

    def test_ties_round_away_from_zero(self):
        assert format_value(0.125) == ".13"
        assert format_value(-0.125) == "-.13"
        assert format_value(2.675) == "2.68"

    def test_places_parameter(self):
        assert format_value(0.0005, places=3) == ".001"
        assert format_value(1234.5, places=0) == "1235"

    def test_more_digits_than_the_default_decimal_context(self):
        assert format_value(1e20, 10) == "100000000000000000000.0000000000"
        assert format_value(1e26, 2) == "100000000000000000000000000.00"
        assert format_value(-123.456, 30) == "-123.456" + "0" * 27

    def test_small_values_stay_fixed_point(self):
        assert format_value(0.0, 8) == ".00000000"
        assert format_value(1e-9, 12) == ".000000001000"
        assert format_value(-1e-9, 7) == "-.0000000"

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError):
            format_value(1.5, -1)

    def test_non_finite_passthrough(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_parses_back_within_half_quantum(self, value):
        text = format_value(value)
        assert not text.startswith("0.") and not text.startswith("-0.")
        assert abs(float(text) - value) <= 0.005 + 1e-12


class TestFormatValueReference:
    """format_value rounds repr(value) as a string, byte for byte as the
    decimal module quantizes it."""

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(min_value=0, max_value=12))
    def test_matches_decimal_on_every_finite_float(self, value, places):
        assert format_value(value, places) == reference_format_value(value, places)

    @pytest.mark.parametrize("value", [
        0.125, 2.675, -9.995, 0.5, -0.5, 9.5, 0.0005, 99.995, 1e-05, -1e-05,
        1e+20, -1e+20, 1.5e+16, 1e-4, 5e-324, -5e-324, 2.2250738585072014e-308,
        1.7976931348623157e+308, 0.0, -0.0, 123456.789, 0.045, 1e16, 9.999999999999999e22,
    ])
    @pytest.mark.parametrize("places", range(13))
    def test_matches_decimal_on_ties_and_exponent_forms(self, value, places):
        assert format_value(value, places) == reference_format_value(value, places)

    def test_the_cli_does_not_import_decimal(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, dummyreg.cli; print('decimal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": str(src)})
        assert out.stdout == "False\n"


class TestFormatP:
    def test_ordinary_values(self):
        assert format_p(0.16) == ".16"
        assert format_p(0.72) == ".72"

    def test_below_floor(self):
        assert format_p(0.009) == "<.01"
        assert format_p(0.0099999) == "<.01"
        assert format_p(0.0) == "<.01"

    def test_floor_is_strict(self):
        assert format_p(0.01) == ".01"
        assert format_p(0.014) == ".01"

    def test_fewer_places_than_the_floor_keep_its_two(self):
        # Rounded to 0 or 1 places, .044 read ".0" or "0", smaller than
        # the "<.01" that p = .005 reads.
        for places in (0, 1):
            assert format_p(0.044, places) == ".04"
            assert format_p(0.44, places) == ".44"
            assert format_p(0.005, places) == "<.01"
        assert format_p(0.044, 3) == ".044"


TWO_GROUP_GOLDEN = (
    "             coefficients  standard error  t-value  p-value (2-tailed)\n"
    "(intercept)         25.23             .01  2523.00                <.01\n"
    "female               -.51             .01   -36.06                <.01\n"
)

INTERACTION_GOLDEN = (
    "                    coefficients  standard error  t-value  p-value (2-tailed)\n"
    "Main effects\n"
    "(intercept)                26.07             .17   150.52                <.01\n"
    "female                       .09             .24      .37                 .72\n"
    "edu[low]               reference\n"
    "edu[middle]                 -.82             .24    -3.35                <.01\n"
    "edu[high]                  -1.37             .24    -5.59                <.01\n"
    "\n"
    "Interaction effects\n"
    "female×edu[middle]          -.65             .35    -1.88                 .08\n"
    "female×edu[high]            -.92             .35    -2.66                 .02\n"
)


def two_group_fit(spread=0.01):
    data = synthesize(load_spec("two_group_means.json"), spread=spread)
    design = build_design(parse_formula("bmi ~ female"), data)
    return fit(design), design


class TestRenderText:
    def test_two_group_golden(self):
        result, design = two_group_fit()
        assert render_text(result, refs=design_references(design)) == TWO_GROUP_GOLDEN

    def test_interaction_golden(self):
        design, data, _ = interaction_design(spread=0.3)
        result = fit(design)
        text = render_text(result, refs=design_references(design))
        assert text == INTERACTION_GOLDEN

    def test_reference_row_emitted_once(self):
        design, data, _ = interaction_design(spread=0.3)
        text = render_text(fit(design), refs=design_references(design))
        assert text.count("reference") == 1
        lines = text.splitlines()
        ref_at = next(i for i, l in enumerate(lines) if "reference" in l)
        first_edu = next(i for i, l in enumerate(lines) if l.startswith("edu[middle]"))
        assert ref_at < first_edu

    def test_sections_only_with_interactions(self):
        result, design = two_group_fit()
        text = render_text(result, refs=design_references(design))
        assert "Main effects" not in text and "Interaction effects" not in text

    def test_one_tailed_column_single_row(self):
        design, data, _ = interaction_design(spread=0.3)
        result = fit(design)
        text = render_text(
            result,
            refs=design_references(design),
            one_tailed=("female", "less"),
        )
        lines = text.splitlines()
        assert lines[0].endswith("p-value (1-tailed, less)")
        filled = [l for l in lines[1:] if len(l) > len(INTERACTION_GOLDEN.splitlines()[2])]
        assert len(filled) == 1 and filled[0].startswith("female ")

    def test_rounding_parameter(self):
        result, design = two_group_fit()
        text = render_text(result, refs=design_references(design), rounding=3)
        assert "25.230" in text and "-.510" in text

    def test_no_trailing_spaces(self):
        design, data, _ = interaction_design(spread=0.3)
        text = render_text(fit(design), refs=design_references(design))
        assert all(line == line.rstrip() for line in text.splitlines())


class TestRenderJson:
    def test_shape_and_key_order(self):
        design, data, _ = interaction_design(spread=0.3)
        doc = render_json(
            fit(design), refs=design_references(design), scheme="treatment"
        )
        assert list(doc) == [
            "coefficients", "df_residual", "sigma2", "rss",
            "r_squared", "n_rows", "scheme", "references",
        ]
        assert doc["n_rows"] == 24
        assert doc["scheme"] == "treatment"
        assert doc["references"] == {"edu": "low"}
        assert len(doc["coefficients"]) == 6
        entry = doc["coefficients"][0]
        assert list(entry) == [
            "label", "term", "estimate", "stderr", "t", "p_two_tailed",
        ]

    def test_full_precision_round_trip(self):
        design, data, _ = interaction_design(spread=0.3)
        result = fit(design)
        doc = json.loads(json.dumps(render_json(result)))
        for i, entry in enumerate(doc["coefficients"]):
            assert entry["estimate"] == result.coefficients[i]
            assert entry["stderr"] == result.stderr[i]
        assert doc["rss"] == result.rss

    def test_deterministic_serialization(self):
        design, data, _ = interaction_design(spread=0.3)
        a = json.dumps(render_json(fit(design)))
        b = json.dumps(render_json(fit(design)))
        assert a == b
