"""Ordinary least squares with rank checking and Student-t inference.

Estimation reduces [X | y] to the R factor of its QR factorization and
solves with it, never forming Q or a normal-equations inverse, with
numpy's LAPACK calls alone. Exact collinearity (the dummy variable
trap), found by factoring R's columns at unit norm in formula order, is
a hard error naming the dependent columns. P-values come from the
Student-t tail, built on a self-contained regularized incomplete beta
function; an independent quadrature oracle lives in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dataset import _first_row, _frozen, _seed
from .encode import (
    _SQUARES_FLOOR, CellMoments, DesignMatrix, _check_response, _index_blocks,
    profile_row,
)
from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
    TooFewRows,
    UnknownLabel,
)

RANK_TOL = 1e-10
_QR_BLOCK_ROWS = 16384


@dataclass(frozen=True)
class FitResult:
    """What a fit solved: its design and the read-only (p+1)-square R
    factor of [X | y] over the design's pattern rows. Every estimate,
    test, statistic and fitted value is made from these two on first
    read, and kept read-only."""

    design: DesignMatrix
    r: np.ndarray

    def __post_init__(self):
        r = _frozen(np.asarray(self.r, dtype=np.float64))
        if r.shape != (self.n_cols + 1,) * 2:
            raise ValueError("r must be (p+1)-square for a design of p columns")
        object.__setattr__(self, "r", r)

    labels = property(lambda self: self.design.labels)
    n_cols = property(lambda self: self.design.n_cols)
    df_residual = property(lambda self: self.design.n_rows - self.design.n_cols)
    rss = property(lambda self: self._squares[0])
    r_squared = property(lambda self: self._squares[1])
    sigma = property(lambda self: self._squares[2])
    sigma2 = property(lambda self: self.rss / self.df_residual)

    @cached_property
    def _squares(self) -> tuple[float, float, float]:
        """RSS, R^2 and sigma, from the design's pattern moments and
        r[p, p], m values and no row: RSS is the within-pattern sum of
        squares plus r[p, p]^2, TSS that sum plus the sum of squares
        between patterns (_squares_from_moments). Both are taken again
        at a power-of-two scale that brings the pattern values to about
        unit size when either may hold squares that underflowed or
        overflowed; a response whose own squares did is rescaled in the
        design's pass. The scale is taken back out of RSS and of the
        residual norm, its root, that sigma is read from: so sigma stays
        finite and nonzero where RSS overflows or underflows."""
        moments, counts = self.design.cell_moments, self.design.cell_counts
        # Row 0's pattern shift, a value near the data, is the reference.
        args = (moments, counts, float(self.r[-1, -1]),
                float(moments.shifts[self.design.cell_index[0]]))
        rss, tss = _squares_from_moments(*args)
        shift = 0
        if not (_SQUARES_FLOOR <= rss < math.inf and _SQUARES_FLOOR <= tss < math.inf):
            size = max(float(np.abs(moments.shifts).max()),
                       float(np.abs(moments.offsets).max()))
            shift = -math.frexp(size)[1]
            rss, tss = _squares_from_moments(*args, shift=shift)
        r_squared = 0.0 if tss == 0 else min(max(1.0 - rss / tss, 0.0), 1.0)
        scale = moments.scale + shift
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.ldexp(math.sqrt(rss), -scale))
            rss = float(np.ldexp(rss, -2 * scale))
        return rss, r_squared, norm / math.sqrt(self.df_residual)

    @cached_property
    def coefficients(self) -> np.ndarray:
        p = self.n_cols
        return _seed(self, "coefficients", np.linalg.solve(self.r[:p, :p], self.r[:p, p]))

    @cached_property
    def _unscaled_cov(self) -> np.ndarray:
        """(X'X)^-1 = R^-1 R^-T, the covariance over sigma^2."""
        p = self.n_cols
        r_inv = np.linalg.solve(self.r[:p, :p], np.eye(p))
        return _seed(self, "_unscaled_cov", r_inv @ r_inv.T)

    @cached_property
    def cov(self) -> np.ndarray:
        return _seed(self, "cov", self.sigma2 * self._unscaled_cov)

    @cached_property
    def _tests(self) -> tuple[np.ndarray, ...]:
        """SE, t and two-tailed p of each coefficient, read-only."""
        tests = _t_tests(self.coefficients, self.sigma, np.diag(self._unscaled_cov),
                         self.df_residual)
        for values in tests:
            values.flags.writeable = False
        return tests

    stderr = property(lambda self: self._tests[0])
    t_values = property(lambda self: self._tests[1])
    p_two_tailed = property(lambda self: self._tests[2])

    @cached_property
    def cell_fitted(self) -> np.ndarray:
        """Each table row's fitted value, read-only."""
        return _seed(self, "cell_fitted", self.design.cell_table @ self.coefficients)

    @cached_property
    def fitted(self) -> np.ndarray:
        """The n fitted values, read-only."""
        out = np.empty(self.design.n_rows)
        for rows, block in _index_blocks(self.design.cell_index):
            # The index is in range; mode "raise" would buffer the output.
            self.cell_fitted.take(block, out=out[rows], mode="clip")
        return _seed(self, "fitted", out)

    @cached_property
    def residuals(self) -> np.ndarray:
        """The n residuals, response less fitted, read-only."""
        return _seed(self, "residuals", self.design.response - self.fitted)

    def index_of(self, label: str) -> int:
        for i, lab in enumerate(self.labels):
            if lab.text == label:
                return i
        raise UnknownLabel(label)


def _dependent_in_order(unit: np.ndarray, tol: float) -> list[int]:
    """Columns of unit (each of unit norm, or zero; more rows than
    columns) closer than tol to the span of the earlier columns kept, in
    order. The R factor of the kept columns holds on its diagonal each
    one's distance from the span of those before it, so each factoring
    drops the first column below tol: a matrix of full rank costs one
    LAPACK QR. A NaN distance is not below tol."""
    kept = list(range(unit.shape[1]))
    dependent = []
    while kept:
        distance = np.abs(np.diagonal(np.linalg.qr(unit[:, kept], mode="r")))
        below = np.flatnonzero(distance < tol)
        if not below.size:
            break
        dependent.append(kept.pop(int(below[0])))
    return dependent


def fit(design: DesignMatrix) -> FitResult:
    """Least-squares fit of the design's response on its columns.

    The design is solved from per-pattern sufficient statistics: the
    rows of ``sqrt(count) * [table row | pattern mean]`` have the same
    normal equations as the n x p problem, and are its rows when each
    pattern has one row. The pattern means are the design's
    cell_moments, which build_design takes in its one pass over the
    response (a hand-built design takes them here). That matrix is
    reduced to its (p+1)-square R factor without forming Q, so r[p, p]
    is the residual norm of the pattern rows: the part of the residual
    between patterns, all of it when each pattern has one row, which
    the result adds to the design's within-pattern sum of squares for
    RSS. The rank test factors R's columns, scaled to unit norm, in
    formula order: a column closer than RANK_TOL to the span of the
    earlier columns kept is dependent, whatever its scale. Neither fit
    nor any statistic of its result reads an n-row array of a design
    whose moments are known; only the fitted values and residuals do. A
    non-finite table value raises NonFiniteValue, naming the first data
    row on that table row, or the table row itself when no data row
    uses it. The response is checked on the pattern means by the check
    that build_design makes (encode._check_response), for a hand-built
    design too: a non-finite value raises NonFiniteValue naming its own
    row, and a finite response whose pattern sum or total overflows
    raises ResponseOverflow.
    """
    table, cell = design.cell_table, design.cell_index
    n, p = design.n_rows, design.n_cols
    if n <= p:
        raise TooFewRows(n, p)

    counts, means = design.cell_counts, design.cell_moments.means
    _check_response(design.response_name, design.response, means, counts)
    if not np.isfinite(table).all():
        j = int(np.argmax(~np.isfinite(table).all(axis=0)))
        bad = ~np.isfinite(table[:, j])
        raise NonFiniteValue(design.labels[j].text, _first_row(bad, cell))
    weight = np.sqrt(counts)
    # R is carried from block to block, so no temporary outgrows a block.
    top = np.zeros((0, p + 1))
    for start in range(0, len(table), _QR_BLOCK_ROWS):
        rows = slice(start, start + _QR_BLOCK_ROWS)
        block = np.column_stack([table[rows], means[rows]]) * weight[rows, None]
        top = np.linalg.qr(np.vstack([top, block]), mode="r")
    r = np.zeros((p + 1, p + 1))
    r[:len(top)] = top
    norms = np.sqrt(np.einsum("ij,ij->j", r[:, :p], r[:, :p]))
    unit = r[:, :p] / np.where(norms > 0.0, norms, 1.0)
    dependent = _dependent_in_order(unit, RANK_TOL)
    if dependent:
        raise RankDeficient([design.labels[j].text for j in dependent])
    return FitResult(design, r)


def _squares_from_moments(moments: CellMoments, counts: np.ndarray, r_end: float,
                          reference: float, shift: int = 0) -> tuple[float, float]:
    """RSS and TSS of y scaled exactly by 2**(moments.scale + shift),
    from the m pattern moments and r_end = r[p, p], the residual norm of
    the pattern rows.

    RSS is the within-pattern sum of squares plus r_end^2. TSS is that
    sum plus the between-pattern sum, taken from each pattern's shift
    less ``reference`` (a shift at the moments' scale) plus its offset:
    a difference of two values near the data, exact when they are
    within a factor of 2, so the size of y adds no error where the
    rounded means would. The
    deviations' own weighted sum takes the rounding of their mean back
    out (the corrected two-pass formula), so a constant response has
    TSS 0. einsum, not a BLAS dot, whose sum order, and so its last
    bits, follow the thread count.
    """
    n = int(counts.sum())
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        within = float(np.ldexp(moments.within, 2 * shift))
        r_end = float(np.ldexp(r_end, moments.scale + shift))
        shifts, offsets = moments.shifts, moments.offsets
        if shift:
            shifts, offsets = np.ldexp(shifts, shift), np.ldexp(offsets, shift)
            reference = float(np.ldexp(reference, shift))
        deviations = (shifts - reference) + offsets
        centred = deviations - float(np.einsum("i,i->", counts, deviations)) / n
        drift = float(np.einsum("i,i->", counts, centred))
        between = float(np.einsum("i,i,i->", counts, centred, centred))
    return within + r_end * r_end, within + between - drift * drift / n


# --- Student-t CDF via the regularized incomplete beta function -------

_BETA_MAXIT = 300
_BETA_EPS = 3e-16
_BETA_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _lgamma_ratio(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a), without cancellation at large a.

    Past a = 100 the two Stirling series are subtracted term by term;
    the remainder of the three-term correction is below 1e-17 there.
    """
    if a < 100.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def correction(z: float) -> float:
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z

    return ((a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
            + correction(a + b) - correction(a))


def _betai(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x.

    The caller passes y so that it keeps its relative precision when x
    rounds to 1.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    # Each log is taken from the smaller of x and y, which keeps its
    # relative precision; the larger one is 1 less the smaller.
    log_x = math.log(x) if x <= y else math.log1p(-y)
    log_y = math.log(y) if y <= x else math.log1p(-x)
    ln_front = _lgamma_ratio(a, b) - math.lgamma(b) + a * log_x + b * log_y
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    Computed as the tail itself, I_x(df/2, 1/2) with x = df/(df + t^2),
    never as 1 - cdf, so a small p keeps its relative precision. A NaN
    t gives NaN.
    """
    t2 = float(t) * float(t)
    if math.isnan(t2):
        return math.nan
    if t2 == 0.0:
        return 1.0
    return _betai(0.5 * df, 0.5, df / (df + t2), 1.0 / (1.0 + df / t2))


def student_t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with df degrees of freedom.

    Symmetric by construction: cdf(-t) and cdf(t) share one tail value,
    so their sum is 1 to full precision.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    t = float(t)
    if t == 0.0:
        return 0.5
    tail = 0.5 * two_tailed_p(t, df)
    return 1.0 - tail if t > 0 else tail


def _t_tests(estimates, sigma: float, unscaled_variances,
             df: int) -> tuple[np.ndarray, ...]:
    """SE, t and two-tailed p of each estimate, its SE sigma times the
    root of its variance over sigma^2, a negative one read as 0, so that
    no SE is squared. At SE 0, t is +0.0 if the estimate == 0 (-0.0
    too), else +-inf."""
    estimates = np.asarray(estimates, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is inf
        stderr = sigma * np.sqrt(np.maximum(unscaled_variances, 0.0))
    at_zero = np.where(estimates == 0.0, 0.0, np.copysign(np.inf, estimates))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(stderr == 0.0, at_zero, estimates / stderr)
    return stderr, t_values, np.array([two_tailed_p(t, df) for t in t_values])


def one_tailed_p(fit_result: FitResult, label: str, direction: str) -> float:
    """Directional p-value: half the two-tailed p when the estimate's
    sign matches the stated direction, else the complement."""
    if direction not in ("less", "greater"):
        raise ValueError("direction must be 'less' or 'greater'")
    i = fit_result.index_of(label)
    estimate = float(fit_result.coefficients[i])
    p_two = float(fit_result.p_two_tailed[i])
    agrees = estimate > 0 if direction == "greater" else estimate < 0
    return p_two / 2.0 if agrees else 1.0 - p_two / 2.0


@dataclass(frozen=True)
class LinearCombination:
    estimate: float
    stderr: float
    t_value: float
    p_two_tailed: float


def linear_combination(
    fit_result: FitResult, weights: Sequence[float]
) -> LinearCombination:
    """Estimate and test w'b for a fixed weight vector w."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (fit_result.n_cols,):
        raise DimensionMismatch(w.shape[0] if w.ndim == 1 else w.shape,
                                fit_result.n_cols)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf
        estimate = float(w @ fit_result.coefficients)
        variance = w @ fit_result._unscaled_cov @ w
    tests = _t_tests([estimate], fit_result.sigma, [variance], fit_result.df_residual)
    return LinearCombination(estimate, *(float(v[0]) for v in tests))


def predict_mean(
    fit_result: FitResult,
    profile: Mapping[str, object],
    design: DesignMatrix | None = None,
) -> float:
    """Estimated mean response for one profile: w'b, w its row in the
    design that the result was fitted on. A design given must be that
    one: any other raises ValueError."""
    if design is not None and design is not fit_result.design:
        raise ValueError("design is not the one the result was fitted on")
    row = profile_row(fit_result.design, profile)
    return linear_combination(fit_result, row).estimate
