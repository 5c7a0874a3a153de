"""Ordinary least squares with rank checking and Student-t inference.

Estimation reduces [X | y] to the R factor of its QR factorization and
back-substitutes, never forming Q or a normal-equations inverse, with
numpy alone. Exact collinearity (the dummy variable trap), found by a
formula-order scan of R's columns at unit norm, is a hard error naming
the dependent columns. P-values come from the Student-t tail, built on a
self-contained regularized incomplete beta function; an independent
quadrature oracle lives in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .encode import ColumnLabel, DesignInfo, DesignMatrix, profile_row
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
    coefficients: np.ndarray
    stderr: np.ndarray
    t_values: np.ndarray
    p_two_tailed: np.ndarray
    df_residual: int
    sigma2: float
    cov: np.ndarray
    labels: tuple[ColumnLabel, ...]
    r_squared: float
    rss: float
    fitted: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        labels = tuple(
            ColumnLabel(l, l) if isinstance(l, str) else l for l in self.labels
        )
        object.__setattr__(self, "labels", labels)
        for name in ("coefficients", "stderr", "t_values", "p_two_tailed",
                     "cov", "fitted", "residuals"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_cols(self) -> int:
        return len(self.coefficients)

    def index_of(self, label: str) -> int:
        for i, lab in enumerate(self.labels):
            if lab.text == label:
                return i
        raise UnknownLabel(label)


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for an upper-triangular r; b is a vector or a matrix."""
    x = np.array(b, dtype=np.float64)
    for i in range(len(r) - 1, -1, -1):
        x[i] -= r[i, i + 1:] @ x[i + 1:]
        x[i] /= r[i, i]
    return x


def _dependent_in_order(a: np.ndarray, tol: float) -> list[int]:
    """Columns of a that lie in the span of the earlier columns kept,
    scanned left to right: those whose remainder after projecting out
    the kept columns (twice, for orthogonality) is shorter than tol."""
    basis = np.empty((a.shape[0], 0))
    dependent = []
    for j in range(a.shape[1]):
        w = a[:, j]
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        norm = math.sqrt(w @ w)
        if norm < tol:
            dependent.append(j)
        else:
            basis = np.column_stack([basis, w / norm])
    return dependent


def fit(design: DesignMatrix) -> FitResult:
    """Least-squares fit of the design's response on its columns.

    The design is solved from per-pattern sufficient statistics: the
    rows of ``sqrt(count) * [table row | pattern mean]`` have the same
    normal equations as the n x p problem. A design without a pattern
    index is its own table, each row a pattern of count 1, for which
    this is exact. That matrix is reduced to its (p+1)-square R factor
    without forming Q; the coefficients and their covariance come from
    back-substitution in R. The rank test scans R's columns, scaled to
    unit norm, in formula order: a column closer than RANK_TOL to the
    span of the earlier columns kept is dependent, whatever its scale.
    Residuals and RSS come from all n rows. A non-finite table value or
    pattern mean raises NonFiniteValue, naming the first data row on
    that table row, or the table row itself when no data row uses it.
    """
    table = design.cell_table
    y = design.response
    n, p = design.n_rows, design.n_cols
    if n <= p:
        raise TooFewRows(n, p)
    cell = design.cell_index if design.cell_index is not None else np.arange(n)

    counts = design.cell_counts
    weight = np.sqrt(counts)
    # A table row that no data row uses gets weight 0, not 0/0.
    target = (np.bincount(cell, weights=y, minlength=len(table))
              / np.maximum(counts, 1))
    if not (np.isfinite(target).all() and np.isfinite(table).all()):
        name, bad = design.response_name, ~np.isfinite(target)
        if not bad.any():
            j = int(np.argmax(~np.isfinite(table).all(axis=0)))
            name, bad = design.labels[j].text, ~np.isfinite(table[:, j])
        used = bad[cell]  # O(n), on the error path only
        raise NonFiniteValue(name, int(np.argmax(used if used.any() else bad)))
    # R is carried from block to block, so no temporary outgrows a block.
    top = np.zeros((0, p + 1))
    for start in range(0, len(table), _QR_BLOCK_ROWS):
        rows = slice(start, start + _QR_BLOCK_ROWS)
        block = np.column_stack([table[rows], target[rows]]) * weight[rows, None]
        top = np.linalg.qr(np.vstack([top, block]), mode="r")
    r = np.zeros((p + 1, p + 1))
    r[:len(top)] = top
    norms = np.sqrt(np.einsum("ij,ij->j", r[:, :p], r[:, :p]))
    unit = r[:, :p] / np.where(norms > 0.0, norms, 1.0)
    dependent = _dependent_in_order(unit, RANK_TOL)
    if dependent:
        raise RankDeficient([design.labels[j].text for j in dependent])
    coefficients = _back_substitute(r[:p, :p], r[:p, p])

    fitted = (table @ coefficients)[cell]
    residuals = y - fitted
    # Not a BLAS dot, whose sum order, and so its last bits, follow the
    # thread count.
    rss = float(np.einsum("i,i->", residuals, residuals))
    df = n - p
    sigma2 = rss / df

    r_inv = _back_substitute(r[:p, :p], np.eye(p))
    cov = sigma2 * (r_inv @ r_inv.T)

    stderr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    t_values = np.zeros(p)
    for i in range(p):
        if stderr[i] > 0:
            t_values[i] = coefficients[i] / stderr[i]
        elif coefficients[i] != 0:
            t_values[i] = math.copysign(math.inf, coefficients[i])
    p_two = np.array([two_tailed_p(t, df) for t in t_values])

    centred = y - y.mean()
    tss = float(np.square(centred, out=centred).sum())
    r_squared = 0.0 if tss == 0 else min(max(1.0 - rss / tss, 0.0), 1.0)

    return FitResult(
        coefficients=coefficients,
        stderr=stderr,
        t_values=t_values,
        p_two_tailed=p_two,
        df_residual=df,
        sigma2=sigma2,
        cov=cov,
        labels=design.labels,
        r_squared=r_squared,
        rss=rss,
        fitted=fitted,
        residuals=residuals,
    )


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
    ln_front = (
        _lgamma_ratio(a, b)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(y)
    )
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
    estimate = float(w @ fit_result.coefficients)
    variance = float(w @ fit_result.cov @ w)
    stderr = math.sqrt(max(variance, 0.0))
    if stderr == 0.0:
        t_value = 0.0 if estimate == 0.0 else math.copysign(math.inf, estimate)
    else:
        t_value = estimate / stderr
    p_two = two_tailed_p(t_value, fit_result.df_residual)
    return LinearCombination(estimate, stderr, t_value, p_two)


def predict_mean(
    fit_result: FitResult,
    profile: Mapping[str, object],
    design: Union[DesignMatrix, DesignInfo],
) -> float:
    """Estimated mean response for one profile of predictor settings."""
    row = profile_row(design, profile)
    if row.shape != (fit_result.n_cols,):
        raise DimensionMismatch(row.shape[0], fit_result.n_cols)
    return float(row @ fit_result.coefficients)
