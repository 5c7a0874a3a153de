"""OLS estimation, rank detection, and inference helpers."""

import dataclasses
import itertools
import math
import re
from fractions import Fraction
import tracemalloc
from unittest import mock
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dummyreg import (
    CategoricalColumn,
    Dataset,
    DesignMatrix,
    NumericColumn,
    VarRef,
    apply_transform,
    build_design,
    categorical_column,
    fit,
    linear_combination,
    numeric_column,
    one_tailed_p,
    parse_formula,
    predict_mean,
    profile_row,
    read_csv_text,
    simple_labels,
)
from dummyreg import encode, solve
from dummyreg.dataset import _code_dtype
from dummyreg.encode import _ROW_BLOCK
from dummyreg.formula import SCHEMES
from dummyreg.solve import RANK_TOL, _dependent_in_order, two_tailed_p
from dummyreg.errors import (
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
    ResponseOverflow,
    TooFewRows,
    UnknownLabel,
)
from dummyreg.solve import FitResult
from util import (
    dataset_csv,
    exact_ols,
    interaction_design,
    random_one_factor,
    reference_back_substitute,
    reference_dependent_in_order,
)


def two_group_design():
    data = Dataset({
        "female": numeric_column([0, 0, 1, 1]),
        "bmi": numeric_column([24.23, 26.23, 23.72, 25.72]),
    })
    return build_design(parse_formula("bmi ~ female"), data)


def assert_matches_lstsq(design, result):
    """Check a fit against numpy's SVD least squares on the n x p matrix,
    a solver that shares no code with fit: coefficients to 1e-8 of the
    largest one, RSS to 1e-8 of the total sum of squares, which bounds
    it when the model has an intercept."""
    x, y = design.values, design.response
    coefficients = np.linalg.lstsq(x, y, rcond=None)[0]
    residuals = y - x @ coefficients
    tss = float(((y - y.mean()) ** 2).sum())
    assert (np.abs(result.coefficients - coefficients).max()
            <= 1e-8 * np.abs(coefficients).max())
    assert abs(result.rss - float(residuals @ residuals)) <= 1e-8 * tss


class TestFit:
    def test_two_group_means(self):
        result = fit(two_group_design())
        assert abs(result.coefficients[0] - 25.23) < 1e-9
        assert abs(result.coefficients[1] - (-0.51)) < 1e-9
        assert result.df_residual == 2

    def test_constant_response(self):
        data = Dataset({
            "g": categorical_column(list("aabbcc")),
            "y": numeric_column([7.0] * 6),
        })
        result = fit(build_design(parse_formula("y ~ g"), data))
        assert abs(result.coefficients[0] - 7.0) < 1e-9
        assert np.abs(result.coefficients[1:]).max() < 1e-9
        assert result.r_squared == 0.0

    def test_dummy_trap_raises_with_names(self):
        n = 9
        codes = np.arange(n) % 3
        dummies = np.zeros((n, 3))
        dummies[np.arange(n), codes] = 1.0
        design = DesignMatrix(
            np.column_stack([np.ones(n), dummies]),
            simple_labels(["(intercept)", "g[a]", "g[b]", "g[c]"]),
            np.arange(n, dtype=float),
        )
        with pytest.raises(RankDeficient) as exc:
            fit(design)
        assert exc.value.labels
        assert set(exc.value.labels) <= {"(intercept)", "g[a]", "g[b]", "g[c]"}

    def test_too_few_rows(self):
        design = DesignMatrix(
            np.array([[1.0, 2.0], [1.0, 3.0]]),
            simple_labels(["(intercept)", "x"]),
            np.array([1.0, 2.0]),
        )
        with pytest.raises(TooFewRows):
            fit(design)

    def test_design_without_index_fits_as_the_identity_index(self):
        rng = np.random.default_rng(6)
        matrix = np.column_stack([np.ones(25), rng.normal(size=(25, 3))])
        labels = simple_labels(["(i)", "a", "b", "c"])
        y = rng.normal(size=25)
        bare = DesignMatrix(matrix, labels, y)
        assert bare.cell_index.dtype == np.intp
        assert np.array_equal(bare.cell_index, np.arange(25))
        with pytest.raises(ValueError):
            DesignMatrix(matrix, labels, y[:-1])
        got = fit(bare)
        expected = fit(DesignMatrix(matrix, labels, y, cell_index=np.arange(25)))
        for name in ("coefficients", "stderr", "p_two_tailed", "cov", "fitted",
                     "residuals"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert (got.rss, got.r_squared) == (expected.rss, expected.r_squared)

    def test_views_of_the_inputs_cannot_change_a_design(self):
        # A design on whole-array views freezes the arrays behind them,
        # so its cached counts cannot go stale under its index.
        table = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        idx = np.array([0, 0, 0, 1, 1, 1])
        design = DesignMatrix(table[:], simple_labels(["(i)", "x"]), y[:],
                              cell_index=idx[:])
        assert design.cell_counts.tolist() == [3, 3]
        for array, value in ((idx, [0, 1, 1, 1, 1, 1]), (table, 0.0), (y, 0.0)):
            with pytest.raises(ValueError):
                array[:] = value
        assert abs(fit(design).coefficients[1] - 3.0) < 1e-12

    def test_t_is_coefficient_over_stderr(self):
        result = fit(two_group_design())
        mask = result.stderr > 0
        assert np.allclose(result.t_values[mask],
                           result.coefficients[mask] / result.stderr[mask],
                           rtol=0, atol=1e-14)

    def test_p_values_in_unit_interval(self):
        result = fit(two_group_design())
        assert ((result.p_two_tailed >= 0) & (result.p_two_tailed <= 1)).all()

    def test_cov_symmetric_psd(self):
        rng = np.random.default_rng(3)
        result = fit(build_design(parse_formula("y ~ g"),
                                  random_one_factor(rng)))
        assert np.allclose(result.cov, result.cov.T, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(result.cov).min() > -1e-12

    def test_r_squared_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            result = fit(build_design(parse_formula("y ~ g"),
                                      random_one_factor(rng)))
            assert 0.0 <= result.r_squared <= 1.0

    def test_releveling_preserves_fit_summaries(self):
        rng = np.random.default_rng(5)
        data = random_one_factor(rng)
        ast = parse_formula("y ~ g")
        levels = data["g"].levels
        base = fit(build_design(ast, data, refs={"g": levels[0]}))
        for omit in levels[1:]:
            for scheme in ("treatment", "effect", "weighted"):
                other = fit(build_design(ast, data, scheme, {"g": omit}))
                assert np.abs(other.fitted - base.fitted).max() < 1e-10
                assert np.abs(other.residuals - base.residuals).max() < 1e-10
                assert abs(other.rss - base.rss) < 1e-10
                assert abs(other.sigma2 - base.sigma2) < 1e-10
                assert abs(other.r_squared - base.r_squared) < 1e-10


class TestCellPath:
    """All-categorical designs are solved from per-cell counts and means."""

    @staticmethod
    def row_level(design):
        return DesignMatrix(design.values, design.labels, design.response)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(min_value=2, max_value=4), st.booleans()),
                 min_size=1, max_size=3),
        st.sampled_from(SCHEMES),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_row_level_fit(self, factors, scheme, crossed, complete, seed):
        rng = np.random.default_rng(seed)
        names = ["a", "b", "c"][:len(factors)]
        sizes = [k for k, _ in factors]
        # Every level occurs; a complete sample also holds every crossing.
        base = ([list(combo) for combo in itertools.product(*map(range, sizes))]
                if complete else [[i % k for k in sizes] for i in range(max(sizes))])
        extra = rng.integers(0, sizes, size=(int(rng.integers(1, 40)), len(sizes)))
        codes = np.vstack([np.array(base), extra])
        n = len(codes)
        columns = {"y": NumericColumn(rng.normal(20.0, 3.0, n))}
        terms = []
        spellings = {}  # a cat() number's reference is spelled by repr
        for j, (name, (k, from_numeric)) in enumerate(zip(names, factors)):
            if from_numeric:
                level_values = rng.permutation([0.0, 1.0, 2.5, -3.0])[:k]
                columns[name] = NumericColumn(level_values[codes[:, j]])
                terms.append(f"cat({name})")
                spellings[name] = [repr(v) for v in level_values.tolist()]
            else:
                text = [f"L{c}" for c in rng.permutation(k)]
                columns[name] = categorical_column([text[c] for c in codes[:, j]])
                terms.append(name)
                spellings[name] = text
        data = Dataset(columns)
        formula = "y ~ " + ("*" if crossed else " + ").join(terms)
        refs = {name: str(rng.choice(spellings[name]))
                for name in names if rng.random() < 0.5}

        design = build_design(parse_formula(formula), data, scheme, refs)
        assert len(design.cell_table) == len(np.unique(codes, axis=0))
        try:
            expected = fit(self.row_level(design))
        except (RankDeficient, TooFewRows) as exc:
            with pytest.raises(type(exc)):
                fit(design)
            return
        got = fit(design)

        def close(a, b):
            a, b = np.atleast_1d(a), np.atleast_1d(b)
            return np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)

        assert close(got.coefficients, expected.coefficients)
        assert close(got.stderr, expected.stderr)
        assert close(got.rss, expected.rss)
        assert close(got.fitted, expected.fitted)
        assert abs(got.r_squared - expected.r_squared) <= 1e-10
        assert got.df_residual == expected.df_residual
        assert_matches_lstsq(design, got)

    def test_peak_memory_below_quarter_of_dense_design(self):
        n = 200_000
        rng = np.random.default_rng(11)
        data = Dataset({
            "y": NumericColumn(rng.normal(50.0, 5.0, n)),
            "a": CategoricalColumn(tuple("abcde"), rng.integers(0, 5, n)),
            "b": CategoricalColumn(tuple("pqrs"), rng.integers(0, 4, n)),
            "c": CategoricalColumn(tuple("xyz"), rng.integers(0, 3, n)),
        })
        ast = parse_formula("y ~ a*b*c")
        tracemalloc.start()
        try:
            design = build_design(ast, data)
            result = fit(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = n * design.n_cols * 8
        assert design.n_cols == 60 and result.fitted.shape == (n,)
        assert peak < dense / 4, (peak, dense)

    def test_fewer_cells_than_columns(self):
        # Three occupied cells of a 3x3 crossing, p = 5: the two pivots
        # past the third diagonal entry are dependent.
        a = ["p", "q", "r"] * 10
        data = Dataset({"y": numeric_column(np.arange(30.0) % 7),
                        "a": categorical_column(a),
                        "b": categorical_column([{"p": "s", "q": "t", "r": "u"}[v]
                                                 for v in a])})
        design = build_design(parse_formula("y ~ a + b"), data)
        assert len(design.cell_table) == 3 < design.n_cols
        texts = {label.text for label in design.labels}
        for candidate in (design, self.row_level(design)):
            with pytest.raises(RankDeficient) as exc:
                fit(candidate)
            assert len(exc.value.labels) >= 2
            assert set(exc.value.labels) <= texts

    @pytest.mark.parametrize("scheme", ["treatment", "effect"])
    def test_pinned_zero_count_level(self, scheme):
        a = CategoricalColumn(("p", "q", "r"), np.arange(40) % 2, pinned=True)
        data = Dataset({"y": numeric_column(np.sin(np.arange(40.0))), "a": a,
                        "b": categorical_column(["s", "t"] * 10 + ["t", "s"] * 10)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            design = build_design(parse_formula("y ~ a*b"), data, scheme)
        assert [str(w.message) for w in caught] == [
            "level 'r' of 'a' has no observations"]
        assert caught[0].filename == __file__
        assert len(design.cell_table) == 4  # (p, s), (q, t), (p, t), (q, s)
        with pytest.raises(RankDeficient) as exc:
            fit(design)
        assert set(exc.value.labels) <= {label.text for label in design.labels}

    def test_empty_crossing(self):
        # No row has a=q and b=t, so the a[q]xb[t] column is all zero
        # although the cells outnumber the columns.
        combos = [(a, b, c) for a in "pqr" for b in "stu" for c in "vwxz"
                  if (a, b) != ("q", "t")]
        rows = combos * 2
        data = Dataset({
            "y": numeric_column(np.cos(np.arange(len(rows), dtype=float))),
            "a": categorical_column([r[0] for r in rows]),
            "b": categorical_column([r[1] for r in rows]),
            "c": categorical_column([r[2] for r in rows]),
        })
        design = build_design(parse_formula("y ~ a*b + c"), data)
        assert len(design.cell_table) > design.n_cols
        with pytest.raises(RankDeficient) as exc:
            fit(design)
        assert "a[q]×b[t]" in exc.value.labels
        assert set(exc.value.labels) <= {label.text for label in design.labels}

    def test_too_few_rows_counts_rows_not_cells(self):
        data = Dataset({"y": numeric_column([1.0, 2.0, 3.0, 4.0]),
                        "a": categorical_column(["p", "p", "q", "q"])})
        design = build_design(parse_formula("y ~ a"), data)
        assert len(design.cell_table) == 2 == design.n_cols
        result = fit(design)
        assert result.df_residual == 2
        data = Dataset({"y": numeric_column([1.0, 2.0]),
                        "a": categorical_column(["p", "q"])})
        with pytest.raises(TooFewRows):
            fit(build_design(parse_formula("y ~ a"), data))

    def test_gathered_values_are_read_only(self):
        data = Dataset({"y": numeric_column(range(6)),
                        "a": categorical_column(list("pqrpqr")),
                        "b": categorical_column(list("sstttt"))})
        design = build_design(parse_formula("y ~ a*b"), data, "effect")
        assert design.n_rows == 6 and design.n_cols == 6
        assert design.values.shape == (6, 6)
        with pytest.raises(ValueError):
            design.values[0, 0] = 9.0


# Factors a pattern-path formula draws from: a categorical, a cat() of a
# numeric column, a 0/1 pass-through (with -0.0 among its zeros) and a
# centred log of a numeric column with few or all-distinct values.
LOG_X = "center(log(x), at=log(2))"
PATTERN_FACTORS = ("g", "cat(k)", "d", LOG_X)


@st.composite
def pattern_cases(draw):
    n = draw(st.integers(8, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct_x = draw(st.booleans())

    def codes(k):
        return np.concatenate([np.arange(k), rng.integers(0, k, n - k)])

    x = (rng.uniform(0.5, 40.0, n) if distinct_x
         else np.array([1.0, 2.0, 3.5, 7.0])[codes(4)])
    data = Dataset({
        "y": numeric_column(rng.normal(20.0, 3.0, n)),
        "g": CategoricalColumn(("lo", "mid", "hi"), codes(3)),
        "k": numeric_column(np.array([0.0, 1.5, 3.0])[codes(3)]),
        "d": numeric_column(np.array([0.0, -0.0, 1.0])[codes(3)]),
        "x": numeric_column(x),
    })
    mains = draw(st.lists(st.sampled_from(PATTERN_FACTORS), unique=True))
    crossed = draw(st.permutations(PATTERN_FACTORS))[: draw(st.integers(2, 4))]
    formula = "y ~ " + " + ".join(mains + [":".join(crossed)])
    scheme = draw(st.sampled_from(SCHEMES))
    return data, parse_formula(formula), scheme


class TestPatternPath:
    """Designs whose rows repeat a covariate pattern are solved per pattern."""

    @settings(max_examples=150, deadline=None)
    @given(pattern_cases())
    def test_matches_row_level_fit(self, case):
        data, ast, scheme = case
        design = build_design(ast, data, scheme)
        used = np.column_stack([
            data[name].codes if isinstance(data[name], CategoricalColumn)
            else data[name].values.view(np.int64) for name in ast.variables()])
        patterns = len(np.unique(used, axis=0))
        assert len(design.cell_table) == patterns
        try:
            expected = fit(TestCellPath.row_level(design))
        except TooFewRows:
            with pytest.raises(TooFewRows):
                fit(design)
            return
        except RankDeficient as exc:
            with pytest.raises(RankDeficient) as raised:
                fit(design)
            assert raised.value.labels == exc.labels
            return
        got = fit(design)

        def close(a, b):
            a, b = np.atleast_1d(a), np.atleast_1d(b)
            return np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)

        assert close(got.coefficients, expected.coefficients)
        assert close(got.stderr, expected.stderr)
        assert close(got.rss, expected.rss)
        assert close(got.fitted, expected.fitted)
        assert abs(got.r_squared - expected.r_squared) <= 1e-10
        assert_matches_lstsq(design, got)

    def test_repeated_patterns_shrink_the_table(self):
        data = Dataset({
            "y": numeric_column(np.arange(12.0)),
            "d": numeric_column([0.0, 1.0, -0.0, 1.0] * 3),
            "x": numeric_column([2.0, 2.0, 3.0, 3.0] * 3),
        })
        design = build_design(parse_formula("y ~ d + log(x)"), data)
        # -0.0 and 0.0 are kept apart: (0,2), (1,2), (-0,3), (1,3).
        assert design.cell_table.shape == (4, 3)
        assert np.array_equal(design.values[:, 2], np.log(data["x"].values))
        assert fit(design).df_residual == 9

    def test_all_distinct_rows_get_the_identity_index(self):
        rng = np.random.default_rng(4)
        data = Dataset({"y": numeric_column(rng.normal(size=30)),
                        "x": numeric_column(rng.uniform(1.0, 9.0, 30)),
                        "g": categorical_column(list("pqr") * 10)})
        design = build_design(parse_formula("y ~ g + log(x)"), data)
        assert design.cell_index.dtype == _code_dtype(30)
        assert np.array_equal(design.cell_index, np.arange(30))
        assert np.array_equal(design.cell_counts, np.ones(30))
        assert np.array_equal(design.values, design.cell_table)

    def test_wide_crossing_is_compacted_while_folded(self):
        # 2^18 crossings over 96 rows: the key is compacted by counting
        # each time its range would pass 4n.
        rng = np.random.default_rng(2)
        codes = np.tile(rng.integers(0, 2, (32, 18)), (3, 1))
        codes[:, 0] = np.arange(96) % 2
        names = [f"f{i}" for i in range(18)]
        data = Dataset({"y": numeric_column(rng.normal(size=96)),
                        **{name: CategoricalColumn(("p", "q"), codes[:, i])
                           for i, name in enumerate(names)}})
        design = build_design(parse_formula("y ~ " + " + ".join(names)), data)
        assert len(design.cell_table) == len(np.unique(codes, axis=0))
        assert np.array_equal(design.values[:, 1:], codes)
        expected = fit(TestCellPath.row_level(design))
        assert np.allclose(fit(design).fitted, expected.fitted, rtol=1e-10, atol=0)

    def test_many_distinct_values_are_keyed_by_sorting(self):
        # Two numeric columns of 20 values each: a 400-wide key over 40
        # rows, compacted by np.unique.
        rng = np.random.default_rng(3)
        x = np.tile(np.arange(1.0, 21.0) / 7.0, 2)
        z = np.tile(rng.permutation(20) / 3.0, 2)
        data = Dataset({"y": numeric_column(rng.normal(size=40)),
                        "x": numeric_column(x), "z": numeric_column(z)})
        design = build_design(parse_formula("y ~ x + z"), data)
        assert len(design.cell_table) == 20
        assert np.array_equal(design.values, np.column_stack([np.ones(40), x, z]))
        expected = fit(TestCellPath.row_level(design))
        assert np.allclose(fit(design).coefficients, expected.coefficients,
                           rtol=1e-10, atol=0)


class TestTotalSumOfSquares:
    """fit sums TSS about the mean of the pattern sums, a block of rows
    at a time."""

    @staticmethod
    def data(n, k, y_of, rng):
        g = np.arange(n) % k
        x = rng.normal(size=n)
        y = y_of(np.array([0.0, 1.0, -2.0, 3.0, 0.5])[g] + 0.3 * x
                 + rng.normal(size=n))
        return y, Dataset({"y": numeric_column(y), "x": numeric_column(x),
                           "g": CategoricalColumn(tuple("abcde"[:k]), g)})

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 300, 2 * _ROW_BLOCK + 3]),
           st.integers(min_value=2, max_value=5),
           st.sampled_from(["y ~ g", "y ~ g + x"]),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_r_squared_matches_the_two_pass_sum(self, n, k, formula, shift,
                                                 scale, seed):
        rng = np.random.default_rng(seed)
        y, data = self.data(n, k, lambda v: shift + scale * v, rng)
        result = fit(build_design(parse_formula(formula), data))
        expected = 1.0 - result.rss / ((y - y.mean()) ** 2).sum()
        assert abs(result.r_squared - expected) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.integers(min_value=6, max_value=300),
           st.integers(min_value=2, max_value=4))
    @example(0.1, 13, 4)  # read 0.31 when TSS was summed about y.mean()
    def test_constant_response_reads_zero(self, value, n, k):
        # Every centred value is the same few-ulp difference, whose
        # squares and sum are exact, so TSS is exactly 0.
        data = Dataset({"y": numeric_column(np.full(n, value)),
                        "g": CategoricalColumn(tuple("abcd"[:k]), np.arange(n) % k)})
        assert fit(build_design(parse_formula("y ~ g"), data)).r_squared == 0.0

    @pytest.mark.parametrize("value, n, k", [
        (4.555456405177107e-148, 56, 2),  # read 1.0: the residuals' squares underflowed
        (2.225073858507203e-309, 6, 2),  # a subnormal y
        (0.0, 7, 3),
    ])
    def test_tiny_constant_response_reads_zero(self, value, n, k):
        data = Dataset({"y": numeric_column(np.full(n, value)),
                        "g": CategoricalColumn(tuple("abcd"[:k]), np.arange(n) % k)})
        assert fit(build_design(parse_formula("y ~ g"), data)).r_squared == 0.0

    @pytest.mark.parametrize("scale", [2.0 ** -540, 2.0 ** -1000, 1.0, 2.0 ** 500, 6e152],
                             ids=["-540", "-1000", "0", "500", "6e152"])
    def test_r_squared_does_not_depend_on_the_scale_of_y(self, scale):
        # At 2^-540 the squares of y's spread fall below 2^-1022. At
        # 6e152 RSS is finite but TSS overflows, which read R^2 = 1.
        rng = np.random.default_rng(8)
        y, data = self.data(300, 4, lambda v: v, rng)
        ast = parse_formula("y ~ g + x")
        base = fit(build_design(ast, data)).r_squared
        scaled = Dataset({**data.columns, "y": numeric_column(y * scale)})
        assert abs(fit(build_design(ast, scaled)).r_squared - base) <= 1e-12

    @pytest.mark.parametrize("n", [50, 2 * _ROW_BLOCK + 3])
    def test_offset_response_keeps_r_squared(self, n):
        # y0 in multiples of 2^-16 below 2^10 in size, so y0 + 1e8 is
        # exact and has y0's R^2; the reference fits y0 by lstsq.
        rng = np.random.default_rng(n)
        y0, data = self.data(n, 4, lambda v: np.round(v * 2**16) / 2**16, rng)
        offset = Dataset({**data.columns, "y": numeric_column(y0 + 1e8)})
        design = build_design(parse_formula("y ~ g + x"), offset)
        coefficients = np.linalg.lstsq(design.values, y0, rcond=None)[0]
        residuals = y0 - design.values @ coefficients
        expected = 1.0 - (residuals @ residuals) / ((y0 - y0.mean()) ** 2).sum()
        assert abs(fit(design).r_squared - expected) <= 1e-9


class TestRowPasses:
    """fit reads the n rows in blocks and writes no n-row array; the
    fitted values and residuals are made when first read."""

    @staticmethod
    def crossing(n):
        rng = np.random.default_rng(n)
        g, h = rng.integers(0, 8, n), rng.integers(0, 3, n)
        return Dataset({"y": numeric_column(g - 0.5 * h * g + rng.normal(size=n)),
                        "g": CategoricalColumn(tuple("abcdefgh"), g),
                        "h": CategoricalColumn(tuple("xyz"), h)})

    def test_peak_allocation_does_not_grow_with_n(self):
        # fit factors the pattern rows alone; the statistics' row pass
        # reads the n rows in blocks.
        fits, peaks = [], []
        for n in (200_000, 1_000_000):
            design = build_design(parse_formula("y ~ g*h"), self.crossing(n))
            tracemalloc.start()
            try:
                result = fit(design)
                fits.append(tracemalloc.get_traced_memory()[1])
                result.rss, result.stderr, result.r_squared
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(fits) < 1e5, fits
        small, large = peaks
        assert large < 3e6, peaks
        assert abs(large - small) <= 0.1 * small, peaks

    def test_r_ends_in_the_residual_norm_of_the_pattern_rows(self):
        # r[p, p]^2 is RSS less the within-pattern sum of squares, and
        # all of RSS when each row is its own pattern.
        design = build_design(parse_formula("y ~ g + h"), self.crossing(5000))
        result, p = fit(design), design.n_cols
        cell, y = design.cell_index, design.response
        means = np.bincount(cell, y) / np.bincount(cell)
        within = float(((y - means[cell]) ** 2).sum())
        assert result.r[p, p] ** 2 == pytest.approx(result.rss - within, rel=1e-9)
        rows = fit(DesignMatrix(design.values, design.labels, y))
        assert rows.r[p, p] ** 2 == pytest.approx(result.rss, rel=1e-9)

    def test_fitted_values_are_made_on_first_read(self):
        design = build_design(parse_formula("y ~ g*h"), self.crossing(5000))
        result = fit(design)
        assert "fitted" not in result.__dict__
        assert "residuals" not in result.__dict__
        assert result.design is design
        fitted = result.fitted
        assert result.__dict__["fitted"] is fitted
        expected = (design.cell_table @ result.coefficients)[design.cell_index]
        assert np.array_equal(fitted, expected)
        assert np.array_equal(result.residuals, design.response - expected)
        for values in (result.fitted, result.residuals):
            assert values.base is None and not values.flags.writeable

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=100),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=3 * _ROW_BLOCK),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_index_type_does_not_change_the_fit(self, m, q, extra, seed):
        # One design whose index is given in five integer types; past
        # one block, the pattern sums and the RSS/TSS pass take blocks.
        rng = np.random.default_rng(seed)
        p = min(q + 1, m)
        table = np.column_stack([np.ones(m), rng.normal(size=(m, p - 1))])
        index = np.concatenate([np.arange(m), rng.integers(0, m, p + extra)])
        y = rng.normal(size=len(index)) + 10.0 * table[index, -1]
        results = []
        for dtype in (np.int8, np.int16, np.int32, np.intp, np.uint8):
            design = DesignMatrix(table, simple_labels(map(str, range(p))), y,
                                  cell_index=index.astype(dtype))
            assert design.cell_index.dtype == dtype
            try:
                results.append(fit(design))
            except RankDeficient:
                results.append(None)
        base = results[0]
        for other in results[1:]:
            assert (other is None) == (base is None)
            if base is None:
                continue
            for name in ("coefficients", "stderr", "cov", "fitted", "residuals"):
                assert np.array_equal(getattr(other, name), getattr(base, name))
            assert (other.rss, other.r_squared) == (base.rss, base.r_squared)


class TestNonFinite:
    """fit checks the m table rows and pattern means before the QR."""

    def test_infinite_column_value_names_column_and_row(self):
        x = np.array([1.0, 2.0, np.inf, 4.0, 5.0, 6.0])
        design = DesignMatrix(np.column_stack([np.ones(6), x]),
                              simple_labels(["(intercept)", "x"]),
                              np.arange(6.0))
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("x", 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_response_named_first(self, bad):
        x = np.array([1.0, 2.0, np.inf, 4.0, 5.0, 6.0])
        y = np.array([0.5, 1.0, 2.0, 3.5, bad, 6.0])
        design = DesignMatrix(np.column_stack([np.ones(6), x]),
                              simple_labels(["(intercept)", "x"]), y,
                              response_name="bmi")
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("bmi", 4)

    def test_pattern_design_names_first_data_row_of_bad_pattern(self):
        table = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 2.0], [1.0, 1.0, 3.0]])
        index = np.array([0, 2, 0, 1, 2, 1, 0])
        labels = simple_labels(["(i)", "d", "x"])
        bad_table = table.copy()
        bad_table[1, 2] = -np.inf
        design = DesignMatrix(bad_table, labels, np.arange(7.0), cell_index=index)
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("x", 3)

        # A response value is named on its own row, as build_design names it.
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, np.nan, 7.0])
        design = DesignMatrix(table, labels, y, cell_index=index)
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("y", 5)

    def test_a_sum_that_overflows_is_not_a_non_finite_value(self):
        table = np.array([[1.0, 0.0], [1.0, 1.0]])
        index = np.array([0, 0, 1, 1, 1])
        labels = simple_labels(["(i)", "d"])
        y = np.array([1e308, 1e308, 1.0, 2.0, 3.0])
        with pytest.raises(ResponseOverflow) as exc:
            fit(DesignMatrix(table, labels, y, cell_index=index))
        assert exc.value.name == "y"
        y = y.copy()  # the design froze y
        y[3] = np.nan  # named, on its own row, though a sum overflows
        with pytest.raises(NonFiniteValue) as exc:
            fit(DesignMatrix(table, labels, y, cell_index=index))
        assert (exc.value.name, exc.value.row) == ("y", 3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_response_value_is_named_on_its_own_row(self, bad):
        # Row 0 shares the bad row's pattern but holds a finite value.
        y = [1.0, 2.0, 3.0, bad, 5.0, 6.0]
        design = DesignMatrix([[1.0, 0.0], [1.0, 1.0]], simple_labels(["a", "b"]), y,
                              cell_index=[0, 1, 1, 0, 1, 0])
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("y", 3)

    def test_opposite_infinities_raise_without_a_warning(self):
        # Pattern sums of +inf and -inf add to NaN, with numpy's "invalid
        # value" warning, unless they are tested before they are added.
        design = DesignMatrix([[1.0, 0.0], [1.0, 1.0]], simple_labels(["a", "b"]),
                              [np.inf, 1.0, -np.inf, 2.0, 3.0, 4.0],
                              cell_index=[0, 0, 1, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                fit(design)
        assert (exc.value.name, exc.value.row) == ("y", 0)

    def test_unused_table_row_is_named_itself(self):
        table = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, np.nan], [1.0, 2.0]])
        index = np.array([0, 1, 3, 0, 1, 3])
        design = DesignMatrix(table, simple_labels(["(i)", "x"]),
                              np.arange(6.0), cell_index=index)
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("x", 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1.0, 2.5, np.inf, -np.inf]), min_size=1,
                    max_size=6).filter(lambda x: np.isinf(x).any()),
           st.data())
    def test_names_the_row_that_apply_transform_names(self, x, data):
        # The index may skip table rows, bad ones included.
        m = len(x)
        index = data.draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=10))
        x, index = np.array(x), np.array(index)
        with pytest.raises(NonFiniteValue) as by_transform:
            apply_transform(x, VarRef("x"), index=index)
        design = DesignMatrix(np.column_stack([np.ones(m), x]),
                              simple_labels(["(intercept)", "x"]),
                              np.arange(float(len(index))), cell_index=index)
        with pytest.raises(NonFiniteValue) as by_fit:
            fit(design)
        rows = [i for i, j in enumerate(index) if np.isinf(x[j])]
        expected = rows[0] if rows else int(np.flatnonzero(np.isinf(x))[0])
        assert (by_fit.value.name, by_fit.value.row) == ("x", expected)
        assert (by_transform.value.name, by_transform.value.row) == ("x", expected)


@st.composite
def exact_cases(draw):
    """20-60 rows of one or two categoricals of 2-3 levels, added or
    crossed, maybe with a centred log age, under one scheme. The first
    rows hold each crossing of the levels once, so no cell is empty."""
    n = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    names = ["a", "b"][:len(ks)]
    grid = np.array(list(itertools.product(*map(range, ks)))).T
    columns = {"y": numeric_column(rng.normal(25.0, 3.0, n))}
    for name, k, first in zip(names, ks, grid):
        codes = np.concatenate([first, rng.integers(0, k, n - len(first))])
        columns[name] = CategoricalColumn(tuple(f"{name}{i}" for i in range(k)), codes)
    terms = ["*".join(names) if draw(st.booleans()) else " + ".join(names)]
    if draw(st.booleans()):
        columns["age"] = numeric_column(rng.uniform(18.0, 80.0, n))
        terms.append("center(log(age), at=log(18))")
    scheme = draw(st.sampled_from(SCHEMES))
    return Dataset(columns), parse_formula("y ~ " + " + ".join(terms)), scheme


class TestExactReference:
    """fit against least squares solved exactly in rationals."""

    @settings(max_examples=200, deadline=None)
    @given(exact_cases())
    def test_matches_the_exact_solution(self, case):
        data, ast, scheme = case
        design = build_design(ast, data, default_scheme=scheme)
        assume(np.linalg.cond(design.values) < 1e3)
        beta, rss = exact_ols(design.values, design.response)
        result = fit(design)
        scale = max(abs(b) for b in beta)
        error = max(abs(Fraction(c) - b) for c, b in zip(result.coefficients, beta))
        assert error <= Fraction(1e-13) * scale
        assert abs(Fraction(result.rss) - rss) <= Fraction(1e-12) * rss


class TestRankTest:
    """The rank test sees column directions, not column scales."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([-12, 12]),
        st.integers(min_value=0, max_value=10),
        st.booleans(),
    )
    def test_column_scale_does_not_change_the_fit(self, k, seed, power, pick,
                                                  as_patterns):
        rng = np.random.default_rng(seed)
        n = 60
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        dummies = np.eye(k)[codes]
        x = rng.choice([0.5, 1.0, 2.0, 4.0], n)
        y = rng.normal(10.0, 2.0, n) + 0.3 * x

        def design_of(matrix, scaled_column=None):
            matrix = matrix.copy()
            if scaled_column is not None:
                matrix[:, scaled_column % matrix.shape[1]] *= 10.0 ** power
            labels = simple_labels([f"c{j}" for j in range(matrix.shape[1])])
            if not as_patterns:
                return DesignMatrix(matrix, labels, y)
            table, index = np.unique(matrix, axis=0, return_inverse=True)
            return DesignMatrix(table, labels, y, cell_index=index.reshape(-1))

        full = np.column_stack([np.ones(n), dummies[:, 1:], x])
        base = fit(design_of(full)).fitted
        scaled = fit(design_of(full, pick)).fitted
        assert np.abs(scaled - base).max() <= 1e-8 * np.abs(base).max()

        trap = np.column_stack([np.ones(n), dummies])
        with pytest.raises(RankDeficient):
            fit(design_of(trap, pick))

    def test_trap_is_named_in_formula_order(self):
        # d2 = 1 - d0 - d1 is the first column in the span of those kept
        # before it, whatever the column scales.
        rows = np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1)] * 3, dtype=float)
        for factor in (1.0, 1e-12, 1e12):
            matrix = np.column_stack([np.ones(9), rows]) * [1.0, factor, 1.0, 1.0]
            design = DesignMatrix(matrix, simple_labels(["(i)", "d0", "d1", "d2"]),
                                  np.arange(9.0))
            with pytest.raises(RankDeficient) as exc:
                fit(design)
            assert exc.value.labels == ("d2",)

    def test_names_only_the_trap_when_one_row_is_spare(self):
        # Four patterns give R four nonzero rows for five columns, so
        # x's diagonal entry is zero and a test reading |r_jj| / |r_:j|
        # would name x. x still differs on the two c rows: it is kept.
        g = np.array([0, 1, 2, 2])
        table = np.column_stack([np.ones(4), np.eye(3)[g], [1.0, 2.0, 3.0, 5.0]])
        index = np.repeat(np.arange(4), 3)
        design = DesignMatrix(table, simple_labels(["(i)", "d0", "d1", "d2", "x"]),
                              np.arange(12.0) % 5, cell_index=index)
        with pytest.raises(RankDeficient) as exc:
            fit(design)
        assert exc.value.labels == ("d2",)

    @pytest.mark.parametrize("distance, named", [(10 * RANK_TOL, ()),
                                                 (0.1 * RANK_TOL, ("c",))],
                             ids=["kept", "named"])
    def test_tolerance_is_a_distance_between_unit_columns(self, distance, named):
        rng = np.random.default_rng(3)
        a, b, e = np.linalg.qr(rng.normal(size=(8, 3)))[0].T
        c = (a + b) / np.sqrt(2.0) + distance * e
        design = DesignMatrix(np.column_stack([a, b, c]),
                              simple_labels(["a", "b", "c"]), rng.normal(size=8))
        if named:
            with pytest.raises(RankDeficient) as exc:
                fit(design)
            assert exc.value.labels == named
        else:
            assert fit(design).n_cols == 3

    def test_zero_column_is_named(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 3.0, 5.0])
        matrix = np.column_stack([np.ones(6), np.zeros(6), x])
        design = DesignMatrix(matrix, simple_labels(["(i)", "z", "x"]), x ** 2)
        with pytest.raises(RankDeficient) as exc:
            fit(design)
        assert exc.value.labels == ("z",)

    def test_copied_factor_names_its_dummies_in_order(self):
        cells = list("abcabcaab")
        data = Dataset({"y": numeric_column(np.arange(9.0)),
                        "g": categorical_column(cells),
                        "h": categorical_column(cells)})
        with pytest.raises(RankDeficient) as exc:
            fit(build_design(parse_formula("y ~ g + h"), data))
        assert exc.value.labels == ("h[b]", "h[c]")


@st.composite
def rank_cases(draw):
    """A 30-row design built a column at a time after an intercept:
    every dummy of a factor (with the intercept, the trap), draws, draws
    scaled by 1e12, zeros, and copies, 1e12-scaled copies and sums of
    earlier columns, so that dependent columns can follow one another."""
    n = 30
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [np.ones(n)]
    kinds = ["factor", "draw", "big", "zero", "copy", "scaled", "sum"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        earlier = st.integers(0, len(columns) - 1)
        if kind == "factor":
            k = draw(st.integers(2, 4))
            codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            columns += list(np.eye(k)[codes].T)
        elif kind in ("draw", "big"):
            columns.append(rng.normal(size=n) * (1e12 if kind == "big" else 1.0))
        elif kind == "zero":
            columns.append(np.zeros(n))
        elif kind in ("copy", "scaled"):
            columns.append(columns[draw(earlier)] * (1e12 if kind == "scaled" else 1.0))
        else:
            columns.append(columns[draw(earlier)] + columns[draw(earlier)])
    return np.column_stack(columns[:n - 2]), rng.normal(size=n)


def unit_r_columns(x):
    """The columns of x's R factor, padded to one more row than columns
    as fit's is, each scaled to unit norm (a zero column stays zero)."""
    r = np.zeros((x.shape[1] + 1, x.shape[1]))
    top = np.linalg.qr(x, mode="r")
    r[:len(top)] = top
    norms = np.linalg.norm(r, axis=0)
    return r / np.where(norms > 0.0, norms, 1.0)


class TestAgainstReferences:
    """The LAPACK rank test and solves against the Gram-Schmidt scan and
    the back-substitution they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    def test_rank_test_names_the_columns_the_scan_names(self, case):
        x, y = case
        unit = unit_r_columns(x)
        expected = reference_dependent_in_order(unit, RANK_TOL)
        assert _dependent_in_order(unit, RANK_TOL) == expected
        labels = simple_labels([f"c{j}" for j in range(x.shape[1])])
        design = DesignMatrix(x, labels, y)
        if expected:
            with pytest.raises(RankDeficient) as exc:
                fit(design)
            assert exc.value.labels == tuple(labels[j].text for j in expected)
        else:
            assert fit(design).n_cols == x.shape[1]

    @settings(max_examples=100, deadline=None)
    @given(exact_cases())
    def test_solves_match_back_substitution(self, case):
        data, ast, scheme = case
        result = fit(build_design(ast, data, default_scheme=scheme))
        p, r = result.n_cols, result.r
        coefficients = reference_back_substitute(r[:p, :p], r[:p, p])
        r_inv = reference_back_substitute(r[:p, :p], np.eye(p))
        stderr = np.sqrt(result.sigma2 * np.diag(r_inv @ r_inv.T))
        scale = np.abs(coefficients).max()
        assert np.abs(result.coefficients - coefficients).max() <= 1e-13 * scale
        assert (np.abs(result.stderr - stderr) <= 1e-13 * stderr).all()


class TestResponseScale:
    """y -> 2^k y scales each coefficient and SE by 2^k and keeps t, p
    and R^2, also where RSS underflows (k = -540, -1000) or overflows
    (k = 1000)."""

    @pytest.mark.parametrize("k", [-1000, -540, 0, 500, 1000])
    def test_scaling_the_response_by_a_power_of_two(self, k):
        rng = np.random.default_rng(4)
        g = np.arange(40) % 4
        y = rng.normal(size=40) + 0.25 * g

        def fit_of(values):
            data = Dataset({"y": numeric_column(values),
                            "g": CategoricalColumn(tuple("abcd"), g)})
            return fit(build_design(parse_formula("y ~ g"), data))

        base, scaled = fit_of(y), fit_of(np.ldexp(y, k))
        for name in ("coefficients", "stderr"):
            want = np.ldexp(getattr(base, name), k)
            assert np.allclose(getattr(scaled, name), want, rtol=1e-12, atol=0), name
        for name in ("t_values", "p_two_tailed"):
            assert np.allclose(getattr(scaled, name), getattr(base, name),
                               rtol=1e-12, atol=1e-12), name
        assert abs(scaled.r_squared - base.r_squared) <= 1e-12
        assert np.isfinite(scaled.stderr).all() and (scaled.stderr > 0).all()


@st.composite
def relation_cases(draw):
    """1-3 pinned factors of 2-3 levels, added or crossed, maybe with a
    centred log covariate and a cat() count, under one scheme, on 20-50
    rows more than the crossing has cells. The first rows hold each
    crossing of the factors' levels and each count, so no cell or level
    is empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    factors = ["a", "b", "c"][:len(ks)]
    grid = np.array(list(itertools.product(*map(range, ks)))).T
    n = grid.shape[1] + draw(st.integers(20, 50))
    columns = {"x": numeric_column(rng.uniform(0.5, 40.0, n)),
               "k": numeric_column(np.concatenate([[0.0, 1.0, 2.0],
                                                   rng.integers(0, 3, n - 3)]))}
    for name, k, first in zip(factors, ks, grid):
        codes = np.concatenate([first, rng.integers(0, k, n - len(first))])
        columns[name] = CategoricalColumn(tuple(f"{name}{i}" for i in range(k)), codes,
                                          pinned=True)
    columns["y"] = numeric_column(rng.normal(25.0, 3.0, n) + columns["a"].codes)
    extras = draw(st.lists(st.sampled_from([LOG_X, "cat(k)"]), unique=True))
    joint = "*" if draw(st.booleans()) else " + "
    formula = "y ~ " + " + ".join([joint.join(factors), *extras])
    return Dataset(columns), parse_formula(formula), draw(st.sampled_from(SCHEMES))


def _rows_of(data, rows):
    """data's rows in the order that rows gives; a factor keeps its
    levels, in order."""
    return Dataset({name: CategoricalColumn(column.levels, column.codes[rows], pinned=True)
                    if isinstance(column, CategoricalColumn)
                    else numeric_column(column.values[rows])
                    for name, column in data.columns.items()})


def assert_same_fit(got, want, tol=1e-13):
    """Coefficients within tol of the largest, each SE and RSS within
    tol relative, R^2 within tol."""
    scale = np.abs(want.coefficients).max()
    assert np.abs(got.coefficients - want.coefficients).max() <= tol * scale
    assert (np.abs(got.stderr - want.stderr) <= tol * want.stderr).all()
    assert abs(got.rss - want.rss) <= tol * want.rss
    assert abs(got.r_squared - want.r_squared) <= tol


class TestRelations:
    """Fits of related data agree within a stated tolerance, not bit for
    bit, so these relations hold whatever the order of the sums.
    Releveling and scheme invariance (test_acceptance.py::test_02,
    ::test_05), the scale of a column
    (TestRankTest::test_column_scale_does_not_change_the_fit) and the
    scale of y (TestTotalSumOfSquares, TestResponseScale) are tested
    where they are named."""

    @settings(max_examples=100, deadline=None)
    @given(relation_cases(), st.integers(0, 2**32 - 1))
    def test_a_row_permutation_keeps_the_fit(self, case, seed):
        data, ast, scheme = case
        rows = np.random.default_rng(seed).permutation(len(data["y"]))
        base = fit(build_design(ast, data, scheme))
        assert_same_fit(fit(build_design(ast, _rows_of(data, rows), scheme)), base)

    @settings(max_examples=100, deadline=None)
    @given(relation_cases())
    def test_every_row_twice_keeps_the_coefficients_and_doubles_rss(self, case):
        data, ast, scheme = case
        twice = _rows_of(data, np.tile(np.arange(len(data["y"])), 2))
        base, doubled = (fit(build_design(ast, d, scheme)) for d in (data, twice))
        scale = np.abs(base.coefficients).max()
        assert np.abs(doubled.coefficients - base.coefficients).max() <= 1e-13 * scale
        assert abs(doubled.rss - 2.0 * base.rss) <= 1e-13 * 2.0 * base.rss

    @settings(max_examples=100, deadline=None)
    @given(relation_cases(), st.sampled_from([3.0, -0.7, 10.0 / 3.0]),
           st.floats(-50.0, 50.0))
    def test_an_affine_response_maps_the_coefficients(self, case, a, c):
        # y -> a y + c: the slopes scale by a and the intercept becomes
        # a b0 + c, under every scheme, since the intercept column is
        # all ones. a is not a power of two, so each product rounds.
        data, ast, scheme = case
        mapped = Dataset({**data.columns, "y": numeric_column(a * data["y"].values + c)})
        base, result = (fit(build_design(ast, d, scheme)) for d in (data, mapped))
        assert result.labels[0].text == "(intercept)"
        want = a * base.coefficients
        want[0] += c
        assert np.abs(result.coefficients - want).max() <= 1e-13 * np.abs(want).max()
        assert abs(result.r_squared - base.r_squared) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(relation_cases())
    def test_small_blocks_keep_the_fit(self, case):
        # Every row pass and the pattern QR take 7 rows at a time. The
        # statistics are read inside the patch, since their pass runs on
        # first read.
        data, ast, scheme = case
        base = fit(build_design(ast, data, scheme))
        with mock.patch.object(encode, "_ROW_BLOCK", 7), \
                mock.patch.object(solve, "_QR_BLOCK_ROWS", 7):
            assert_same_fit(fit(build_design(ast, data, scheme)), base)

    @settings(max_examples=50, deadline=None)
    @given(relation_cases())
    def test_levels_renamed_by_a_bijection_keep_the_fit(self, case):
        # Through the reader: each level gets a name of more than 8 bytes,
        # which the reader keys as a string, not a uint64. The new names
        # sort in the reverse of first appearance, so a reader that
        # numbered levels in any order but first appearance would move a
        # reference level. cat(k)'s levels keep their names.
        data, ast, scheme = case
        renamed, rename = dict(data.columns), {}
        for name, column in data.columns.items():
            if isinstance(column, CategoricalColumn):
                k = len(column.levels)
                levels = tuple(f"{name}-level-number-{k - i}" for i in range(k))
                rename.update(((name, old), new)
                              for old, new in zip(column.levels, levels))
                renamed[name] = CategoricalColumn(levels, column.codes, pinned=True)
        base, result = (fit(build_design(ast, read_csv_text(dataset_csv(d)), scheme))
                        for d in (data, Dataset(renamed)))
        for name in ("coefficients", "stderr"):
            assert np.array_equal(getattr(result, name), getattr(base, name))
        assert (result.rss, result.r_squared) == (base.rss, base.r_squared)
        assert [label.text for label in result.labels] == [
            re.sub(r"(\w+)\[([^]]*)\]",
                   lambda m: f"{m[1]}[{rename.get((m[1], m[2]), m[2])}]", label.text)
            for label in base.labels]


class TestPValues:
    def test_fit_and_combination_p_keep_relative_precision(self):
        rng = np.random.default_rng(8)
        x = np.repeat([0.0, 1.0], 501)
        y = 0.6 * x + rng.normal(0.0, 1.0, x.size)
        result = fit(build_design(parse_formula("y ~ x"),
                                  Dataset({"y": numeric_column(y),
                                           "x": numeric_column(x)})))
        t, df = result.t_values[1], result.df_residual
        assert t > 8
        reference = 2.0 * stats.t.sf(t, df)
        assert result.p_two_tailed[1] == pytest.approx(reference, rel=1e-8, abs=0.0)
        combo = linear_combination(result, [0.0, 1.0])
        assert combo.p_two_tailed == pytest.approx(reference, rel=1e-8, abs=0.0)
        for t, p in zip(result.t_values, result.p_two_tailed):
            assert p == two_tailed_p(t, df)


class TestOneTailed:
    def test_halves_p_when_sign_agrees(self):
        result, half = _fake_fit(estimate=1.3), two_tailed_p(1.3, 10) / 2
        assert one_tailed_p(result, "b", "greater") == pytest.approx(half, abs=1e-15)
        assert one_tailed_p(result, "b", "less") == pytest.approx(1 - half, abs=1e-15)

    def test_complements_when_sign_disagrees(self):
        result, half = _fake_fit(estimate=-1.3), two_tailed_p(1.3, 10) / 2
        assert one_tailed_p(result, "b", "greater") == pytest.approx(1 - half, abs=1e-15)

    def test_zero_estimate_gives_half(self):
        result = _fake_fit(estimate=0.0)
        assert one_tailed_p(result, "b", "greater") == 0.5
        assert one_tailed_p(result, "b", "less") == 0.5

    def test_unknown_label(self):
        result = _fake_fit(estimate=1.0)
        with pytest.raises(UnknownLabel):
            one_tailed_p(result, "ghost", "greater")

    def test_bad_direction(self):
        result = _fake_fit(estimate=1.0)
        with pytest.raises(ValueError):
            one_tailed_p(result, "b", "sideways")

    def test_consistent_with_real_fit(self):
        result = fit(two_group_design())
        p2 = result.p_two_tailed[1]
        assert one_tailed_p(result, "female", "less") == pytest.approx(p2 / 2)


def _fake_fit(estimate: float, noise: float = 1.0) -> FitResult:
    """Coefficients (10, estimate), each with SE `noise` at df 10: a
    12-row, two-column design, an identity R, and y = 10 + estimate * b
    + e, with e = +-noise on 10 rows and 0 on 2, so RSS is 10 noise^2."""
    b = np.arange(12) % 2
    e = noise * np.array([1.0, -1.0] * 5 + [0.0, 0.0])
    design = DesignMatrix(np.column_stack([np.ones(12), b]), simple_labels(["a", "b"]),
                          10.0 + estimate * b + e)
    return FitResult(design, [[1.0, 0.0, 10.0], [0.0, 1.0, estimate], [0.0, 0.0, 0.0]])


class TestLinearCombination:
    def test_gap_weights_recover_cell_differences(self):
        design, data, means = interaction_design()
        result = fit(design)
        gap_mid = linear_combination(result, [0, 1, 0, 0, 1, 0])
        gap_high = linear_combination(result, [0, 1, 0, 0, 0, 1])
        expected_mid = means[("1", "middle")] - means[("0", "middle")]
        expected_high = means[("1", "high")] - means[("0", "high")]
        assert abs(gap_mid.estimate - expected_mid) < 1e-9
        assert abs(gap_high.estimate - expected_high) < 1e-9
        assert gap_mid.stderr > 0 and 0 <= gap_mid.p_two_tailed <= 1

    def test_matches_coefficient_sum_exactly(self):
        design, _, _ = interaction_design()
        result = fit(design)
        combo = linear_combination(result, [0, 1, 0, 0, 1, 0])
        direct = result.coefficients[1] + result.coefficients[4]
        assert abs(combo.estimate - direct) < 1e-12

    def test_zero_weights(self):
        result = fit(two_group_design())
        combo = linear_combination(result, [0.0, 0.0])
        assert combo.estimate == 0.0
        assert combo.stderr == 0.0
        assert combo.t_value == 0.0
        assert combo.p_two_tailed == 1.0

    def test_dimension_mismatch(self):
        result = fit(two_group_design())
        with pytest.raises(DimensionMismatch):
            linear_combination(result, [1.0, 2.0, 3.0])


class TestPredictMean:
    def test_cell_profiles(self):
        design, _, means = interaction_design()
        result = fit(design)
        got = predict_mean(result, {"female": 1, "edu": "middle"}, design)
        assert abs(got - means[("1", "middle")]) < 1e-9
        got = predict_mean(result, {"female": "1", "edu": "high"}, design)
        assert abs(got - means[("1", "high")]) < 1e-9

    def test_all_references_returns_intercept(self):
        design, _, _ = interaction_design()
        result = fit(design)
        got = predict_mean(result, {"female": 0, "edu": "low"}, design)
        assert got == result.coefficients[0]

    def test_profile_is_encoded_by_the_fitted_design(self):
        # A y ~ h design is as wide as the y ~ g fit, so encoding with it
        # read {"h": "b"} as g = b.
        data = read_csv_text("y,g,h\n1,a,a\n2,b,a\n3,a,a\n4,b,b\n5,a,b\n6,b,b\n")
        result = fit(build_design(parse_formula("y ~ g"), data))
        other = build_design(parse_formula("y ~ h"), data)
        with pytest.raises(ValueError, match="not the one the result was fitted on"):
            predict_mean(result, {"h": "b"}, other)
        assert predict_mean(result, {"g": "b"}) == 4.0


@st.composite
def inference_cases(draw):
    """1-3 categorical factors, crossed or not, with a 0/1 pass-through
    and a centred log beside them; a zero response puts every SE at 0."""
    n = draw(st.integers(12, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {"d": numeric_column(rng.integers(0, 2, n).astype(float)),
               "x": numeric_column(rng.uniform(0.5, 40.0, n))}
    factors = ["a", "b", "c"][:draw(st.integers(1, 3))]
    for name in factors:
        k = int(rng.integers(2, 4))
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        columns[name] = CategoricalColumn(tuple(f"L{i}" for i in range(k)), codes)
    scale = draw(st.sampled_from([3.0, 0.0]))
    columns["y"] = numeric_column(scale * rng.normal(size=n))
    extras = draw(st.lists(st.sampled_from(["d", LOG_X]), unique=True))
    joint = "*" if draw(st.booleans()) else " + "
    formula = "y ~ " + " + ".join([joint.join(factors), *extras])
    return Dataset(columns), parse_formula(formula), draw(st.sampled_from(SCHEMES))


class TestOneTestRule:
    """fit's table, linear_combination and predict_mean test an estimate
    by one rule, so their numbers agree bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(inference_cases())
    def test_coefficient_test_is_its_unit_combination(self, case):
        data, ast, scheme = case
        design = build_design(ast, data, scheme)
        try:
            result = fit(design)
        except (RankDeficient, TooFewRows):
            return
        for i, unit in enumerate(np.eye(result.n_cols)):
            combo = linear_combination(result, unit)
            assert (result.stderr[i], result.t_values[i], result.p_two_tailed[i]) \
                == (combo.stderr, combo.t_value, combo.p_two_tailed)
        rng = np.random.default_rng(len(design.response))
        profile = {name: str(rng.choice(column.levels))
                   if isinstance(column, CategoricalColumn)
                   else float(rng.choice(column.values))
                   for name, column in data.columns.items() if name != "y"}
        row = profile_row(design, profile)
        mean = predict_mean(result, profile)
        assert mean == linear_combination(result, row).estimate
        assert mean == predict_mean(result, profile, design)

    @settings(max_examples=50, deadline=None)
    @given(inference_cases())
    def test_a_result_is_read_from_its_design_and_r(self, case):
        # Rebuilt by hand from fit's two fields, a result reads fit's
        # arrays and statistics, and its table is still its unit
        # combinations' tests.
        data, ast, scheme = case
        design = build_design(ast, data, scheme)
        try:
            result = fit(design)
        except (RankDeficient, TooFewRows):
            return
        rebuilt = FitResult(design, result.r)
        for name in ("coefficients", "cov", "stderr", "t_values", "p_two_tailed",
                     "fitted", "rss", "r_squared", "sigma"):
            assert np.array_equal(getattr(rebuilt, name), getattr(result, name)), name
        for i, unit in enumerate(np.eye(rebuilt.n_cols)):
            combo = linear_combination(rebuilt, unit)
            assert (rebuilt.stderr[i], rebuilt.t_values[i], rebuilt.p_two_tailed[i]) \
                == (combo.stderr, combo.t_value, combo.p_two_tailed)

    def test_a_result_keeps_only_what_fit_solved(self):
        assert tuple(FitResult.__dataclass_fields__) == ("design", "r")
        with pytest.raises(ValueError, match="square"):
            FitResult(_fake_fit(1.0).design, np.eye(2))

    def test_zero_response_gives_zero_t(self):
        data = Dataset({"y": numeric_column(np.zeros(6)),
                        "g": categorical_column(list("abcabc"))})
        result = fit(build_design(parse_formula("y ~ g"), data))
        assert result.coefficients.tolist() == [0.0, 0.0, 0.0]
        assert np.signbit(result.coefficients).tolist() == [True, True, False]
        assert result.stderr.tolist() == [0.0, 0.0, 0.0]
        assert result.t_values.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(result.t_values).any()
        assert result.p_two_tailed.tolist() == [1.0, 1.0, 1.0]

    def test_zero_se_of_a_nonzero_estimate_gives_infinite_t(self):
        result = _fake_fit(estimate=-1.5, noise=0.0)
        assert result.rss == 0.0
        for unit, t in (([1.0, 0.0], math.inf), ([0.0, 1.0], -math.inf)):
            combo = linear_combination(result, unit)
            assert (combo.stderr, combo.t_value, combo.p_two_tailed) == (0.0, t, 0.0)

    def test_nan_weight_gives_nan_throughout(self):
        combo = linear_combination(fit(two_group_design()), [math.nan, 1.0])
        assert all(math.isnan(v) for v in (combo.estimate, combo.stderr,
                                           combo.t_value, combo.p_two_tailed))

    def test_a_view_of_the_inputs_cannot_change_a_result(self):
        # An array that views all of its base freezes the base; any
        # other view is copied.
        r = [[1.0, 0.0, 10.0], [0.0, 1.0, 1.3], [0.0, 0.0, 0.0]]
        whole, wider = np.array(r), np.pad(r, ((0, 0), (0, 1)))
        base = _fake_fit(estimate=0.0)
        result = dataclasses.replace(base, r=whole[:])
        other = dataclasses.replace(base, r=wider[:, :3])
        with pytest.raises(ValueError):
            whole[1, 2] = 99.0
        wider[1, 2] = 99.0
        for kept in (result, other):
            assert kept.coefficients.tolist() == [10.0, 1.3]
            assert not (kept.r.flags.writeable or kept.coefficients.flags.writeable)

    def test_fit_arrays_own_their_data(self):
        # So freezing them copies nothing.
        result = fit(interaction_design()[0])
        for name in ("coefficients", "stderr", "t_values", "p_two_tailed",
                     "cov", "fitted", "residuals"):
            assert getattr(result, name).base is None
