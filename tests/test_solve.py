"""OLS estimation, rank detection, and inference helpers."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dummyreg import (
    CategoricalColumn,
    Dataset,
    DesignMatrix,
    NumericColumn,
    build_design,
    categorical_column,
    fit,
    linear_combination,
    numeric_column,
    one_tailed_p,
    parse_formula,
    predict_mean,
    simple_labels,
)
from dummyreg.encode import _ROW_BLOCK
from dummyreg.formula import SCHEMES
from dummyreg.solve import RANK_TOL, two_tailed_p
from dummyreg.errors import (
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
    TooFewRows,
    UnknownLabel,
)
from dummyreg.solve import FitResult
from util import interaction_design, random_one_factor


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
        assert design.cell_index.dtype == np.intp
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

        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, np.nan, 7.0])
        design = DesignMatrix(table, labels, y, cell_index=index)
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("y", 3)

    def test_unused_table_row_is_named_itself(self):
        table = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, np.nan], [1.0, 2.0]])
        index = np.array([0, 1, 3, 0, 1, 3])
        design = DesignMatrix(table, simple_labels(["(i)", "x"]),
                              np.arange(6.0), cell_index=index)
        with pytest.raises(NonFiniteValue) as exc:
            fit(design)
        assert (exc.value.name, exc.value.row) == ("x", 2)


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
        result = _fake_fit(estimate=1.3, p_two=0.16)
        assert one_tailed_p(result, "b", "greater") == pytest.approx(0.08, abs=1e-15)
        assert one_tailed_p(result, "b", "less") == pytest.approx(0.92, abs=1e-15)

    def test_complements_when_sign_disagrees(self):
        result = _fake_fit(estimate=-1.3, p_two=0.16)
        assert one_tailed_p(result, "b", "greater") == pytest.approx(0.92, abs=1e-15)

    def test_zero_estimate_gives_half(self):
        result = _fake_fit(estimate=0.0, p_two=1.0)
        assert one_tailed_p(result, "b", "greater") == 0.5
        assert one_tailed_p(result, "b", "less") == 0.5

    def test_unknown_label(self):
        result = _fake_fit(estimate=1.0, p_two=0.5)
        with pytest.raises(UnknownLabel):
            one_tailed_p(result, "ghost", "greater")

    def test_bad_direction(self):
        result = _fake_fit(estimate=1.0, p_two=0.5)
        with pytest.raises(ValueError):
            one_tailed_p(result, "b", "sideways")

    def test_consistent_with_real_fit(self):
        result = fit(two_group_design())
        p2 = result.p_two_tailed[1]
        assert one_tailed_p(result, "female", "less") == pytest.approx(p2 / 2)


def _fake_fit(estimate: float, p_two: float) -> FitResult:
    zeros = np.zeros(2)
    return FitResult(
        coefficients=np.array([10.0, estimate]),
        stderr=np.array([1.0, 1.0]),
        t_values=np.array([10.0, estimate]),
        p_two_tailed=np.array([0.001, p_two]),
        df_residual=10,
        sigma2=1.0,
        cov=np.eye(2),
        labels=["a", "b"],
        r_squared=0.5,
        rss=10.0,
        fitted=zeros,
        residuals=zeros,
    )


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
