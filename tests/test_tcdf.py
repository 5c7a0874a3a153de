"""Student-t CDF: closed forms, symmetry, and the quadrature cross-check."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dummyreg import student_t_cdf, t_cdf_quadrature
from dummyreg.solve import two_tailed_p


class TestClosedForms:
    def test_half_at_zero(self):
        for df in (1, 2, 5, 30, 1000):
            assert student_t_cdf(0.0, df) == 0.5

    def test_cauchy_quartiles(self):
        assert abs(student_t_cdf(1.0, 1) - 0.75) < 1e-12
        assert abs(student_t_cdf(-1.0, 1) - 0.25) < 1e-12
        got = student_t_cdf(math.tan(math.pi * 0.3), 1)
        assert abs(got - 0.8) < 1e-12

    def test_textbook_value(self):
        assert abs(student_t_cdf(2.228, 10) - 0.9750) < 5e-5

    def test_df_one_required(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)

    def test_extreme_arguments_saturate(self):
        assert student_t_cdf(1e8, 5) == pytest.approx(1.0, abs=1e-15)
        assert student_t_cdf(-1e8, 5) == pytest.approx(0.0, abs=1e-15)
        assert student_t_cdf(math.inf, 5) == 1.0
        assert student_t_cdf(-math.inf, 5) == 0.0


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=1, max_value=500),
    )
    def test_symmetry_and_range(self, t, df):
        upper = student_t_cdf(t, df)
        lower = student_t_cdf(-t, df)
        assert 0.0 <= upper <= 1.0
        assert abs(upper + lower - 1.0) < 1e-12

    def test_monotone_on_grid(self):
        for df in (1, 2, 5, 10, 30, 100, 1000):
            grid = [t / 8 for t in range(-48, 49)]
            values = [student_t_cdf(t, df) for t in grid]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_heavier_tails_at_lower_df(self):
        assert student_t_cdf(3.0, 1) < student_t_cdf(3.0, 100)


class TestQuadratureAgreement:
    def test_spot_values(self):
        assert abs(t_cdf_quadrature(0.0, 3) - 0.5) < 1e-9
        assert abs(t_cdf_quadrature(1.0, 1) - 0.75) < 1e-9

    def test_coarse_grid(self):
        worst = 0.0
        for df in (1, 4, 25, 400):
            for t in (-4.5, -2.0, -0.75, 0.0, 0.25, 1.5, 3.25):
                worst = max(worst,
                            abs(student_t_cdf(t, df) - t_cdf_quadrature(t, df)))
        assert worst < 1e-10

    def test_df_one_required(self):
        with pytest.raises(ValueError):
            t_cdf_quadrature(1.0, 0)


class TestTwoTailedP:
    """The tail is computed directly, so small p keep their digits."""

    def test_far_tail_is_not_zero(self):
        assert two_tailed_p(10.0, 1000) == pytest.approx(1.66707e-22, rel=1e-5, abs=0.0)

    def test_endpoints(self):
        assert two_tailed_p(0.0, 7) == 1.0
        assert two_tailed_p(math.inf, 7) == 0.0
        assert two_tailed_p(-2.5, 12) == two_tailed_p(2.5, 12)

    def test_nan_t_gives_nan(self):
        assert math.isnan(two_tailed_p(math.nan, 7))
        assert math.isnan(student_t_cdf(math.nan, 7))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(min_value=1, max_value=1000),
                  st.integers(min_value=1, max_value=1_000_000)),
        st.floats(min_value=-12.0, max_value=3.0),
    )
    def test_matches_scipy(self, df, log10_t):
        t = 10.0 ** log10_t
        reference = 2.0 * stats.t.sf(t, df)
        if reference >= 1e-300:
            assert two_tailed_p(t, df) == pytest.approx(reference, rel=1e-8, abs=0.0)

    def test_matches_scipy_on_grid(self):
        # Around p = 0.1 the tail is 1 minus the complement, which
        # magnifies any error in the log-gamma prefactor at large df.
        for df in (1, 2, 3, 10, 100, 1000, 10**4, 10**5, 919848, 995134, 10**6):
            for t in np.concatenate([np.logspace(-9, 3, 241),
                                     np.linspace(1.4, 2.0, 121)]):
                reference = 2.0 * stats.t.sf(t, df)
                if reference >= 1e-300:
                    assert two_tailed_p(t, df) == pytest.approx(
                        reference, rel=1e-8, abs=0.0), (df, t)

    def test_large_df_keeps_the_log_of_x_exact(self):
        # x = df/(df + t^2) rounds near 1 at large df; log1p(-y) keeps
        # the digits that log(x) loses there. The grid is the one above.
        for df in (10**5, 919848, 995134, 10**6):
            for t in np.concatenate([np.logspace(-9, 3, 241),
                                     np.linspace(1.4, 2.0, 121)]):
                reference = 2.0 * stats.t.sf(t, df)
                if reference >= 1e-300:
                    assert two_tailed_p(t, df) == pytest.approx(
                        reference, rel=2e-10, abs=0.0), (df, t)

    def test_never_increases_with_abs_t(self):
        grid = np.concatenate([np.linspace(0.0, 40.0, 16001),
                               np.logspace(np.log10(40.0), 3, 2001)[1:]])
        for df in (1, 2, 5, 30, 1000, 10**6):
            p = [two_tailed_p(t, df) for t in grid]
            assert all(b <= a for a, b in zip(p, p[1:])), df


def _t_cdf_adaptive(t: float, df: int) -> float:
    """The same density integrated by scipy's adaptive quadrature.

    The integral over [0, |t|] is taken over [0, 1] with u = |t|·s, so
    that a subnormal |t| does not shrink the interval quad sees.
    """
    from scipy.integrate import quad

    ln_norm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
               - 0.5 * math.log(df * math.pi))
    width = abs(t)
    area, _ = quad(
        lambda s: width * math.exp(
            ln_norm - ((df + 1) / 2.0) * math.log1p((width * s) ** 2 / df)),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 0.5 + area if t >= 0 else 0.5 - area


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
class TestGaussLegendreOracle:
    """The fixed rule behind t_cdf_quadrature against adaptive quadrature,
    on its checked domain |t| <= 30."""

    def test_matches_adaptive_on_acceptance_grid(self):
        worst = max(abs(t_cdf_quadrature(t, df) - _t_cdf_adaptive(t, df))
                    for df in (1, 2, 5, 10, 30, 100, 1000)
                    for t in np.arange(-5.0, 5.0 + 1e-9, 0.25))
        assert worst < 1e-13

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=1000),
           st.floats(min_value=-30.0, max_value=30.0))
    @example(2, 30.0)
    @example(1, -30.0)
    @example(208, 4.562470967178988e-306)
    def test_matches_adaptive(self, df, t):
        assert abs(t_cdf_quadrature(t, df) - _t_cdf_adaptive(t, df)) < 1e-13

    def test_infinite_and_nan_t(self):
        for df in (1, 7, 1000):
            assert t_cdf_quadrature(math.inf, df) == 1.0
            assert t_cdf_quadrature(-math.inf, df) == 0.0
            assert math.isnan(t_cdf_quadrature(math.nan, df))
