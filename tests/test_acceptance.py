"""Acceptance gate: every headline behavior checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s) and then
asserts, so a plain pytest run enforces the same bounds.
"""

import math
import time

import numpy as np

from dummyreg import (
    Cell,
    CellMeanSpec,
    Dataset,
    DesignMatrix,
    FitResult,
    build_design,
    cell_means,
    design_references,
    fit,
    linear_combination,
    numeric_column,
    one_tailed_p,
    parse_formula,
    render_text,
    simple_labels,
    synthesize,
)
from dummyreg.cli import main
from dummyreg.solve import two_tailed_p
from dummyreg.oracle import (
    dummy_trap_caught,
    saturated_cell_mean_error,
    scheme_invariance_error,
    t_cdf_closed_form_error,
    t_cdf_error,
)

from util import load_spec, dataset_csv


def _line(n, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} [{n:2d}] {text}")
    assert ok, f"[{n}] {text}"


def test_01_two_group_coefficients():
    start = time.perf_counter()
    data = synthesize(load_spec("two_group_means.json"))
    result = fit(build_design(parse_formula("bmi ~ female"), data))
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(result.coefficients - [25.23, -0.51])))
    _line(1, err < 1e-9 and elapsed < 1.0,
          f"two-group intercept/slope err {err:.2e}, {elapsed:.3f}s")


def test_02_releveling_transforms_coefficients_not_fit():
    data = synthesize(load_spec("education_means.json"))
    ast = parse_formula("bmi ~ edu")
    low = fit(build_design(ast, data, refs={"edu": "low"}))
    mid = fit(build_design(ast, data, refs={"edu": "middle"}))
    coef_err = max(
        float(np.max(np.abs(low.coefficients - [26.12, -1.18, -1.83]))),
        float(np.max(np.abs(mid.coefficients - [24.94, 1.18, -0.65]))),
    )
    fit_err = float(np.max(np.abs(low.fitted - mid.fitted)))
    _line(2, coef_err < 1e-9 and fit_err < 1e-10,
          f"relevel coef err {coef_err:.2e}, fitted diff {fit_err:.2e}")


def test_03_interaction_coefficients_and_gaps():
    data = synthesize(load_spec("sex_by_education_means.json"))
    design = build_design(parse_formula("bmi ~ female * edu"), data,
                          refs={"edu": "low"})
    result = fit(design)
    expected = [26.07, 0.09, -0.82, -1.37, -0.65, -0.92]
    coef_err = float(np.max(np.abs(result.coefficients - expected)))

    means = cell_means(data, ["female", "edu"], "bmi")
    gap_mid = linear_combination(result, [0, 1, 0, 0, 1, 0]).estimate
    gap_high = linear_combination(result, [0, 1, 0, 0, 0, 1]).estimate
    gap_of_gaps = linear_combination(result, [0, 0, 0, 0, -1, 1]).estimate
    direct_mid = means[("1", "middle")] - means[("0", "middle")]
    direct_high = means[("1", "high")] - means[("0", "high")]
    lin_err = max(
        abs(gap_mid - direct_mid),
        abs(gap_high - direct_high),
        abs(gap_of_gaps - (direct_high - direct_mid)),
        abs(gap_mid - (-0.56)),
        abs(gap_high - (-0.83)),
        abs(gap_of_gaps - (-0.27)),
    )
    _line(3, coef_err < 1e-9 and lin_err < 1e-9,
          f"interaction coef err {coef_err:.2e}, gap err {lin_err:.2e}")


def test_04_dummy_trap_always_detected():
    rng = np.random.default_rng(404)
    caught, trials = dummy_trap_caught(rng, (2, 3, 5), 25)
    _line(4, caught == trials,
          f"dummy trap detected with named columns in {caught}/{trials} trials")


def test_05_scheme_invariants_random_one_factor():
    rng = np.random.default_rng(505)
    worst_fit, worst_intercept = scheme_invariance_error(rng, 200)
    _line(5, worst_fit < 1e-10 and worst_intercept < 1e-10,
          f"200 one-factor sets: fitted diff {worst_fit:.2e}, "
          f"intercept err {worst_intercept:.2e}")


def test_06_saturated_two_factor_reproduces_cell_means():
    rng = np.random.default_rng(606)
    worst = saturated_cell_mean_error(rng, 200)
    _line(6, worst < 1e-9, f"200 two-factor sets: fitted vs cell means {worst:.2e}")


def test_07_t_cdf_accuracy():
    start = time.perf_counter()
    worst = t_cdf_error((1, 2, 5, 10, 30, 100, 1000),
                        np.arange(-5.0, 5.0 + 1e-9, 0.25))
    closed = t_cdf_closed_form_error()
    elapsed = time.perf_counter() - start
    _line(7, worst < 1e-8 and closed < 1e-12 and elapsed < 10.0,
          f"t-cdf vs quadrature {worst:.2e}, closed forms {closed:.2e}, "
          f"{elapsed:.2f}s")


def test_08_one_tailed_halving():
    # Coefficients (10, -1.3), each with SE 1 at df 10: an identity R,
    # and residuals of +-1 on 10 of 12 rows and 0 on 2, so RSS is 10,
    # the square of r[p, p], the residual norm of the rows.
    b = np.arange(12) % 2
    y = 10.0 - 1.3 * b + np.array([1.0, -1.0] * 5 + [0.0, 0.0])
    design = DesignMatrix(np.column_stack([np.ones(12), b]), simple_labels(["a", "b"]), y)
    result = FitResult(design, [[1.0, 0.0, 10.0], [0.0, 1.0, -1.3],
                                [0.0, 0.0, math.sqrt(10.0)]])
    p_two = two_tailed_p(1.3, 10)
    err = abs(one_tailed_p(result, "b", "less") - p_two / 2)
    _line(8, err < 1e-12, f"one-tailed p from two-tailed {p_two:.4f}: err {err:.2e}")


def test_09_golden_two_group_table(tmp_path, capsys):
    data = synthesize(load_spec("two_group_means.json"), spread=0.01)
    path = tmp_path / "two_group.csv"
    path.write_text(dataset_csv(data))
    code = main(["fit", "--data", str(path), "--formula", "bmi ~ female"])
    out = capsys.readouterr().out
    golden = (
        "             coefficients  standard error  t-value  p-value (2-tailed)\n"
        "(intercept)         25.23             .01  2523.00                <.01\n"
        "female               -.51             .01   -36.06                <.01\n"
    )
    lib_text = render_text(
        fit(build_design(parse_formula("bmi ~ female"), data)),
        refs=design_references(
            build_design(parse_formula("bmi ~ female"), data)
        ),
    )
    ok = (code == 0 and out == golden and lib_text == golden
          and " -.51 " in out.splitlines()[2] + " "
          and out.splitlines()[2].endswith("<.01"))
    _line(9, ok, "golden table bytes: slope -.51, p <.01")


def test_10_wide_crossed_model_shape():
    rng = np.random.default_rng(1010)
    cells = {}
    for f in ("0", "1"):
        for e in ("low", "middle", "high"):
            for c in ("0", "1", "2", "3", "4"):
                cells[(f, e, c)] = Cell(float(rng.normal(25.0, 1.5)), 2)
    spec = CellMeanSpec(
        {"female": ("0", "1"),
         "edu": ("low", "middle", "high"),
         "children": ("0", "1", "2", "3", "4")},
        cells,
        response="bmi",
    )
    base = synthesize(spec, spread=0.8)
    n = base.n_rows
    data = Dataset({
        **base.columns,
        "year": numeric_column(np.tile([2001.0, 2005.0, 2011.0], n // 3)),
        "age": numeric_column(rng.uniform(18.0, 80.0, size=n)),
    })
    formula = ("bmi ~ female * edu + female * cat(children) + cat(year) "
               "+ center(log(age), at=log(18))")
    design = build_design(parse_formula(formula), data)
    expected = [
        "(intercept)", "female", "edu[middle]", "edu[high]",
        "children[1]", "children[2]", "children[3]", "children[4]",
        "year[2005]", "year[2011]", "center(log(age), at=log(18))",
        "female×edu[middle]", "female×edu[high]",
        "female×children[1]", "female×children[2]",
        "female×children[3]", "female×children[4]",
    ]
    got = [label.text for label in design.labels]
    result = fit(design)
    ok = got == expected and len(got) == 17 and 0.0 <= result.r_squared <= 1.0
    _line(10, ok, f"wide crossed model: {len(got)} columns, labels match, fits")
