"""Least-squares fitting and cluster-robust inference.

The solver factors each design once: it builds the R factor of the
columns with the response appended, a panel of rows at a time (TSQR), so
a fit of a column-major design copies one panel of rows at a time, never
all n rows, and scales the triangle to the columns' unit norms.  A design
may carry a matrix of responses that share its regressors and rows (the
horizons of one local-projection sample); each is one more right-hand
side of the same factorization, validation, counts and bread, and only
its residuals, R-squared and cluster scores are formed on their own.  The
solver then drops, in design order, every column within a relative
tolerance of the span of the kept columns before it.  So
rank-deficient designs (absorbed group dummies, duplicated regressors)
degrade gracefully: the dropped names are reported instead of blowing up
or silently returning a pseudo-inverse fit.  Normal equations are never
formed or inverted here — they exist only as an independent oracle in
tests and in :mod:`panellp.validation`.

Covariances are the one-way cluster sandwich with the finite-sample scaling
``G/(G-1) * (N-1)/(N-K)``.  Its bread ``(X'X)^-1`` comes from the same R
factor as the coefficients, once for every response, and its meat sums
each response's scores over contiguous segments of rows, one per code of
the design's cluster axis (entity or period).  Rows arrive grouped by the
cluster axis from :mod:`panellp.lp`, so no fit of it sorts; a design
whose rows are not grouped is ordered by code once for all responses.
Confidence intervals and p-values use a Student-t reference with ``G - 1``
degrees of freedom (a normal reference is available as a switch), both
evaluated here with numpy and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDesignError,
    EmptySampleError,
    InsufficientClustersError,
    PanelLPError,
)
from .panel import Panel

__all__ = [
    "DesignMatrix",
    "RegressionResult",
    "CoefficientInterval",
    "ols_fit",
    "cluster_covariance",
    "fit_with_covariance",
    "coefficient_interval",
    "linear_combination",
    "lsdv_fit",
    "significance_stars",
    "PIVOT_RTOL",
]

# Rank threshold: a column is dropped when its distance from the span of the
# kept columns before it, the magnitude of its R diagonal entry, is at most
# PIVOT_RTOL.  Columns are scaled to unit 2-norm first, so a regressor in
# large units (population, GDP in currency) cannot make the others look
# collinear.
PIVOT_RTOL = 1e-10

# The largest confidence level whose upper quantile 0.5 + level / 2 is below
# 1 in floating point: for the one float between it and 1, that rounds to 1.
MAX_LEVEL = 1.0 - 2.0**-52

# Rows per panel of the blocked factorisation in ols_fit.  A panel is
# reduced to k + 1 rows, so the height grows with k to at least four times
# that, and a wide dummy-variable design still shrinks fourfold per panel.
_PANEL_ROWS = 1024


def _row_codes(given, n: int, attr: str) -> np.ndarray:
    """Check ``n`` non-negative integer row codes; densify sparse ones."""
    codes = np.asarray(given)
    if codes.shape != (n,) or codes.dtype.kind not in "iu" or (n and codes.min() < 0):
        raise PanelLPError(f"{attr} must be {n} non-negative integer codes")
    if n and codes.max() >= n:
        codes = np.unique(codes, return_inverse=True)[1]
    return codes.astype(np.intp, copy=False)


@dataclass(frozen=True)
class DesignMatrix:
    """A ready-to-fit regression sample.

    Rows map one-to-one onto entity-period cells that survived listwise
    deletion.  ``response`` is one value per row, or an ``(n_rows, m)``
    matrix of m responses fitted on the same regressors and rows.
    ``entities`` and ``periods`` carry that provenance as non-negative
    integer codes per row, equal for equal entities (periods); the fit
    counts them.  ``cluster`` names the axis whose codes group the
    scores, ``"entity"`` or ``"period"``: the clusters are that axis's
    codes themselves.  Codes may have gaps: :mod:`panellp.lp` passes the
    panel grid positions, where an entity without a row at some horizon
    leaves its code unused.  A caller holding arbitrary labels maps them
    to codes with ``np.unique(labels, return_inverse=True)[1]``.  A code
    array whose largest code reaches the row count is mapped that way
    here, once, so per-code counts are sized by the rows, never by the
    largest code.  Rows may come in any order; rows grouped by the cluster
    axis, each cluster's rows one contiguous segment, as :mod:`panellp.lp`
    gathers them, let :func:`cluster_covariance` sum the scores in place.
    """

    response: np.ndarray
    matrix: np.ndarray
    columns: tuple[str, ...]
    entities: np.ndarray
    periods: np.ndarray
    cluster: str = "entity"

    def __post_init__(self):
        y = np.asarray(self.response, dtype=float)
        X = np.asarray(self.matrix, dtype=float)
        if X.ndim != 2:
            raise PanelLPError("design matrix must be 2-D")
        n, k = X.shape
        if y.shape[:1] != (n,) or y.ndim > 2 or 0 in y.shape[1:]:
            raise PanelLPError(f"response shape {y.shape} does not match {n} rows")
        if len(self.columns) != k:
            raise PanelLPError(f"{len(self.columns)} names for {k} columns")
        if len(set(self.columns)) != k:
            raise PanelLPError("duplicate column names in design")
        for part, label in ((y, "response"), (X, "matrix")):
            if not np.isfinite(part).all():
                raise PanelLPError(f"design {label} contains NaN/inf")
        if self.cluster not in ("entity", "period"):
            raise PanelLPError(
                f"cluster must be 'entity' or 'period', got {self.cluster!r}"
            )
        object.__setattr__(self, "entities", _row_codes(self.entities, n, "entities"))
        object.__setattr__(self, "periods", _row_codes(self.periods, n, "periods"))

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class RegressionResult:
    """Coefficients and sample facts from one least-squares fit.

    ``columns`` lists the retained regressors in their original design
    order; ``dropped_columns`` the ones removed by rank filtering.
    ``bread`` is ``(X'X)^-1`` over the retained columns, in that order, as
    :func:`ols_fit` builds it from its R factor.  ``covariance`` is filled
    by :func:`cluster_covariance` (the plain fit leaves it ``None``).  The
    fit of an ``(n, m)`` response matrix keeps a trailing response axis on
    ``coefficients`` and ``residuals``, one R-squared per response, and a
    leading one on ``covariance``; :meth:`for_response` picks one out.
    """

    columns: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    n_obs: int
    n_clusters: int
    n_entities: int
    n_periods: int
    r_squared: float
    dropped_columns: tuple[str, ...] = ()
    bread: np.ndarray | None = None
    covariance: np.ndarray | None = None

    def column_index(self, name: str) -> int:
        """The position of retained column ``name`` in ``columns`` and on
        the coefficient axes; a dropped or unknown name is an error."""
        if name in self.columns:
            return self.columns.index(name)
        raise PanelLPError(
            f"no coefficient for {name!r}"
            + (
                " (dropped as collinear)"
                if name in self.dropped_columns
                else f"; retained columns: {list(self.columns)}"
            )
        )

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_index(name)])

    def for_response(self, j: int) -> RegressionResult:
        """The fit of column ``j`` of a response matrix, with the shared
        sample facts and bread."""
        return replace(
            self,
            coefficients=self.coefficients[:, j],
            residuals=self.residuals[:, j],
            r_squared=float(self.r_squared[j]),
            covariance=None if self.covariance is None else self.covariance[j],
        )

    @property
    def df_inference(self) -> int:
        return self.n_clusters - 1


@dataclass(frozen=True)
class CoefficientInterval:
    """A point estimate with its cluster-robust uncertainty summary."""

    name: str
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float
    stars: str
    level: float = 0.95

    def __post_init__(self):
        if self.ci_low > self.estimate + 1e-12 or self.ci_high < self.estimate - 1e-12:
            raise PanelLPError("confidence interval does not bracket the estimate")


def significance_stars(p_value: float) -> str:
    """Three/two/one stars for p < 0.01 / 0.05 / 0.1, strict inequalities.

    A p-value sitting exactly on a threshold takes the weaker marking.
    """
    if p_value < 0.01:
        return "***"
    if p_value < 0.05:
        return "**"
    if p_value < 0.1:
        return "*"
    return ""


def _count_codes(codes: np.ndarray) -> int:
    """Distinct values among non-negative integer codes, gaps allowed."""
    return int(np.count_nonzero(np.bincount(codes)))


def _rank_filtered_triangle(
    R: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the columns of ``[X | Y]``'s triangle that fail the rank rule.

    ``R`` is an R factor of the ``k`` unit-norm design columns followed by
    the m response columns, with at most ``k + m`` rows: from one QR of
    all rows or from :func:`ols_fit`'s panel by panel.  The rule reads
    only the design part, whose triangle is the R factor of the design
    alone, so the responses never change what is dropped; it depends on
    that part only through ``X'X``, which every such factor shares.  A
    design column is kept when its distance from the span of the kept
    columns before it, the magnitude of its diagonal entry once the
    columns dropped before it are gone, exceeds ``PIVOT_RTOL``.  Each drop
    re-triangularises the small triangle without that column, responses
    included, never the n rows.  Columns past the last row of a wide
    design lie in the span of those before them.  Returns the triangle of
    the kept columns and the responses, and the kept column indices in
    design order.
    """
    kept = np.arange(k)
    while True:
        diag = np.abs(np.diagonal(R))[: kept.size]
        low = np.flatnonzero(diag <= PIVOT_RTOL)
        if not low.size:
            break
        kept = np.delete(kept, low[0])
        R = np.linalg.qr(np.delete(R, low[0], axis=1), mode="r")
    if kept.size > R.shape[0]:
        R = np.delete(R, np.s_[R.shape[0] : kept.size], axis=1)
        kept = kept[: R.shape[0]]
    return R, kept


def ols_fit(design: DesignMatrix) -> RegressionResult:
    """Least squares via the R factor of ``[X | Y]``, panel by panel.

    ``Y`` is the response, or the m columns of a response matrix: every
    response is one more right-hand side of the one factorization.  TSQR
    (Demmel, Grigori, Hoemmen & Langou 2012): each panel of about
    ``_PANEL_ROWS`` rows is reduced by an R-only LAPACK ``geqrf``
    (``np.linalg.qr(mode="r")``, which copies its input), and one more
    R-only QR of the stacked panel triangles gives the R factor of the
    whole design.  A panel is one ``np.column_stack`` of its rows of a
    column-major ``X`` and of ``Y`` (a design that is not column-major is
    copied once to column-major); no n-row ``Q`` is formed.

    The column norms ``D`` are read off the triangle (``||R[:, j]|| =
    ||X_j||``), which is scaled to ``R D^-1``, the R factor of the unit-norm
    columns; Householder QR is columnwise backward stable (Higham 2002,
    Thm 19.4).  The rank rule runs in design order, as R's ``lm`` does: a
    column is dropped when its unit-norm distance from the span of the
    kept columns before it is at most ``PIVOT_RTOL`` (all-zero columns
    among them), so of two collinear columns the later one is dropped and
    reported in ``dropped_columns``.  One solve with the kept block ``R``
    gives ``R^-1 Q'Y`` and ``R^-1``: the coefficients of every response,
    unscaled by ``D``, and the rows ``D^-1 R^-1`` of the bread
    ``(X'X)^-1``; the residuals are ``Y - X B``, one matrix-vector product
    for a single response.  Entity and period counts are the distinct row
    codes, and the cluster count is that of the cluster axis.  Each
    R-squared is ``1 - RSS/TSS`` with TSS about the response mean (the
    within R-squared when the design was demeaned).
    """
    if design.n_rows == 0:
        raise EmptySampleError("no rows in design")
    y = np.asarray(design.response)
    X = np.asarray(design.matrix)
    n, k = X.shape
    if k == 0:
        raise DegenerateDesignError("design has no columns")
    Y = y.reshape(n, -1)  # a single response is the one-column case
    m = Y.shape[1]

    # R of [X | Y], one panel of rows at a time
    rows = min(n, max(_PANEL_ROWS, 4 * (k + m)))
    X = np.asfortranarray(X)
    triangles = []
    for start in range(0, n, rows):
        part = np.column_stack((X[start : start + rows], Y[start : start + rows]))
        triangles.append(np.linalg.qr(part, mode="r"))
    if len(triangles) > 1:
        triangles = [np.linalg.qr(np.vstack(triangles), mode="r")]
    R = triangles[0]
    norms = np.sqrt(np.einsum("ij,ij->j", R[:, :k], R[:, :k]))
    norms[norms == 0.0] = 1.0
    R[:, :k] /= norms
    R, kept = _rank_filtered_triangle(R, k)
    rank = kept.size
    if rank == 0:
        raise DegenerateDesignError(
            "design has no usable columns (every column is zero)"
        )
    # D^-1 [R^-1 Q'Y | R^-1] from one solve; the bread is W W', W = D^-1 R^-1
    rhs = np.hstack([R[:rank, rank:], np.eye(rank)])
    solved = np.linalg.solve(R[:rank, :rank], rhs) / norms[kept][:, None]
    beta = np.zeros((k, m))
    beta[kept] = solved[:, :m]
    resid = X @ beta
    np.subtract(Y, resid, out=resid)
    dropped = tuple(np.delete(np.asarray(design.columns, dtype=object), kept))

    n_entities = _count_codes(design.entities)
    n_periods = _count_codes(design.periods)

    r2 = np.zeros(m)
    for j, (u, v) in enumerate(zip(resid.T, Y.T)):
        dev = v - v.mean()
        tss = float(dev @ dev)
        if tss != 0.0:
            r2[j] = 1.0 - float(u @ u) / tss

    return RegressionResult(
        columns=tuple(design.columns[j] for j in kept),
        coefficients=beta[kept].reshape(rank, *y.shape[1:]),
        residuals=resid.reshape(y.shape),
        n_obs=n,
        n_clusters=n_entities if design.cluster == "entity" else n_periods,
        n_entities=n_entities,
        n_periods=n_periods,
        r_squared=float(r2[0]) if y.ndim == 1 else r2,
        dropped_columns=dropped,
        bread=solved[:, m:] @ solved[:, m:].T,
    )


def cluster_covariance(
    result: RegressionResult, design: DesignMatrix
) -> np.ndarray:
    """One-way cluster-robust (CR1) covariance of the retained coefficients.

    ``B (sum_g X_g' e_g e_g' X_g) B`` scaled by ``G/(G-1) * (N-1)/(N-K)``,
    where ``B = (X'X)^-1`` is the bread :func:`ols_fit` built from its R
    factor and the score sums ``X_g' e_g`` are grouped by the codes of the
    design's cluster axis.  Each cluster's scores are summed over one
    contiguous segment of rows (``np.add.reduceat``); the segments start
    where the code changes, so none is empty and an unused code adds no
    row.  Rows grouped by the cluster axis, as :mod:`panellp.lp` gathers
    them, are read in place; otherwise one stable sort by code orders the
    rows once for every response.  With every cluster a singleton this
    equals the HC1 heteroskedasticity-robust matrix.  Requires at least two
    clusters and more rows than retained columns.  The fit of a response
    matrix gets one matrix per response, stacked: each forms its own scores
    in one shared buffer and reuses the one bread.
    """
    G = result.n_clusters
    if G < 2:
        raise InsufficientClustersError(
            f"cluster-robust inference needs >= 2 clusters, got {G}"
        )
    X = design.matrix
    kept = [design.columns.index(c) for c in result.columns]
    n, k = X.shape[0], len(kept)
    if n <= k:
        raise DegenerateDesignError(
            f"no residual degrees of freedom ({n} rows, {k} retained columns)"
        )
    U = result.residuals.reshape(n, -1)
    codes = design.entities if design.cluster == "entity" else design.periods
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    if starts.size + 1 != G:  # some cluster's rows are not one segment
        order = np.argsort(codes, kind="stable")
        X, U, codes = X[order], U[order], codes[order]
        starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate(([0], starts))
    scale = (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    scores = np.empty_like(X)
    covs = []
    for u in U.T:
        # each cluster's score sum over its segment: S[g] = X_g' u_g
        np.multiply(X, u[:, None], out=scores)
        S = np.add.reduceat(scores, starts, axis=0)[:, kept]  # retained columns
        # per-cluster influence terms B S_g; the sandwich is their cross
        # product, which numpy forms by a symmetric rank-k update, so V is
        # exactly symmetric
        M = S @ result.bread
        covs.append(scale * (M.T @ M))
    return covs[0] if result.residuals.ndim == 1 else np.stack(covs)


def fit_with_covariance(design: DesignMatrix) -> RegressionResult:
    """Convenience wrapper: fit, then attach the CR1 covariance."""
    result = ols_fit(design)
    V = cluster_covariance(result, design)
    return replace(result, covariance=V)


# ---------------------------------------------------------------------------
# reference distributions
# ---------------------------------------------------------------------------

_STD_NORMAL = NormalDist()
_SQRT_HALF = math.sqrt(0.5)


@lru_cache(maxsize=64)
def _t_constants(df: int) -> tuple[float, np.ndarray]:
    """Density constant and finite-series coefficients of Student's t.

    The constant is ``Γ((df+1)/2) / (√π Γ(df/2))`` (the density is that
    over ``√df`` times ``(1 + t²/df)^-(df+1)/2``).  The ``df // 2``
    coefficients are those of Abramowitz & Stegun 26.7.3-4 for
    ``P(|T| < t)``: ``C(2m, m) / 4^m`` for even df and
    ``4^m / ((2m+1) C(2m, m))`` for odd df.  Each is one correctly rounded
    ratio of exact integers, so none carries the drift of a running
    product.
    """
    half = df // 2
    central = 1  # C(2m, m), exact
    coef = np.empty(half)
    for m in range(half):
        coef[m] = central / 4**m if df % 2 == 0 else 4**m / ((2 * m + 1) * central)
        central = central * (2 * m + 1) * (2 * m + 2) // (m + 1) ** 2
    if df % 2 == 0:
        const = half * central / 4**half
    else:
        const = 4**half / central / math.pi
    coef.flags.writeable = False
    return const, coef


def _t_tail_fraction(a: float, z: float) -> float:
    """The continued fraction ``1 / (1 + a1 / (1 + a2 / ...))`` of cephes
    ``incbd`` for ``I_x(a, 1/2)``, taken in ``z = x / (1 - x)``.

    For the t tail ``z = df / t²`` is known to full precision, where
    ``x = df / (df + t²)`` near one would lose the digits of ``1 - x``.
    A forward modified-Lentz pass finds the depth at which the fraction
    has converged; it is then evaluated from the bottom up, which damps
    rounding errors because every partial numerator is positive.
    """
    nums = []
    c, d = 1.0, 0.0
    for n in range(10_000):
        for num in (
            z * (a + n) * (n + 0.5) / ((a + 2 * n) * (a + 2 * n + 1.0)),
            z * (n + 1.0) * (a + n + 0.5) / ((a + 2 * n + 1.0) * (a + 2 * n + 2.0)),
        ):
            nums.append(num)
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
        if abs(c * d - 1.0) <= 2.0**-52:
            break
    value = 1.0
    for num in reversed(nums):
        value = 1.0 + num / value
    return 1.0 / value


def _t_tail(x: float, df: int) -> float:
    """``P(|T| >= x)`` for ``x > 0`` and df >= 3, as ``I_y(df/2, 1/2)`` at
    ``y = df / (df + x²)``: its prefactor times :func:`_t_tail_fraction`.
    Both keep their accuracy relative to the tail, however small.
    """
    const, _ = _t_constants(df)
    a = 0.5 * df
    u = x * x
    front = math.exp(-a * math.log1p(u / df)) * math.sqrt(df + u) / x
    return front * const / a * _t_tail_fraction(a, df / u)


def _t_pvalue(tstat: float, df: int) -> float:
    """Two-sided p-value ``P(|T| >= |tstat|)`` of Student's t, integer df.

    df 1 and 2 have closed forms.  Past ``|t| = 3`` it is :func:`_t_tail`.
    Up to 3 it is one minus the finite series of :func:`_t_constants`
    (Abramowitz & Stegun 26.7.3-4, cephes ``stdtr``), whose absolute error
    of a few 1e-16 stays below 1e-12 of any p-value there (at least 0.002).
    """
    x = abs(tstat)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if df == 1:
        return math.atan2(1.0, x) * (2.0 / math.pi)
    if df == 2:
        s = math.sqrt(2.0 + x * x)
        return 2.0 / (s * (s + x))
    if x > 3.0:
        return _t_tail(x, df)
    _, coef = _t_constants(df)
    u = x * x
    # log cos²θ is rounded once and every factor is taken from it, so that
    # rounding acts as a shift of t, not as errors that fail to cancel; the
    # powers exp(m log cos²θ) carry no running-product drift
    log_cos2 = math.log1p(-u / (df + u))
    sin = math.sqrt(-math.expm1(log_cos2))
    series = math.fsum((coef * np.exp(np.arange(coef.size) * log_cos2)).tolist())
    if df % 2 == 0:
        central = sin * series
    else:
        cos = math.exp(0.5 * log_cos2)
        central = (math.atan2(sin, cos) + sin * cos * series) * (2.0 / math.pi)
    return 1.0 - central


@lru_cache(maxsize=256)
def _t_quantile(df: int, p: float) -> float:
    """The ``p`` quantile of Student's t with integer df, for ``1/2 <= p < 1``.

    df 1 and 2 have closed forms in the upper tail ``q = 1 - p``, which is
    exact for such ``p``.  Otherwise Newton steps on the log two-sided
    tail against ``log t`` start from a Cornish-Fisher guess and stop once
    a step moves ``t`` by an ulp.  From ``t = 1`` on the tail comes from
    :func:`_t_tail`, so the quantile is not limited by the absolute
    rounding of ``1 - P(|T| < t)``.
    """
    q = 1.0 - p
    if q == 0.5:
        return 0.0
    if df == 1:
        return 1.0 / math.tan(math.pi * q)
    if df == 2:
        return (1.0 - 2.0 * q) / math.sqrt(2.0 * q * p)
    const, _ = _t_constants(df)
    scale = const / math.sqrt(df)
    z = _STD_NORMAL.inv_cdf(p)
    t = z + (z**3 + z) / (4.0 * df) + (5 * z**5 + 16 * z**3 + 3 * z) / (96.0 * df**2)
    log_target = math.log(2.0 * q)
    for _ in range(100):
        tail = _t_tail(t, df) if t >= 1.0 else _t_pvalue(t, df)
        density = scale * math.exp(-0.5 * (df + 1) * math.log1p(t * t / df))
        step = (math.log(tail) - log_target) * tail / (2.0 * t * density)
        t *= math.exp(step)
        if abs(step) <= 2.0**-52:
            break
    return t


def _normal_pvalue(tstat: float) -> float:
    """Two-sided standard-normal p-value ``erfc(|t| / √2)``."""
    return math.erfc(abs(tstat) * _SQRT_HALF)


def _interval(
    name: str,
    estimate: float,
    variance: float,
    df: int,
    level: float,
    dist: str,
) -> CoefficientInterval:
    if not 0.0 < level <= MAX_LEVEL:
        raise PanelLPError(
            f"confidence level must be in (0, 1), at most 1 - 2**-52, got {level}"
        )
    if variance < 0.0:
        # numerical dust on a PSD matrix diagonal
        variance = 0.0
    se = float(np.sqrt(variance))
    if se == 0.0:
        p = 0.0 if estimate != 0.0 else 1.0
        return CoefficientInterval(
            name=name,
            estimate=estimate,
            se=0.0,
            ci_low=estimate,
            ci_high=estimate,
            p_value=p,
            stars=significance_stars(p),
            level=level,
        )
    tstat = estimate / se
    if dist == "t":
        if df < 1:
            raise InsufficientClustersError(
                f"t reference needs >= 2 clusters (df = {df})"
            )
        p = _t_pvalue(tstat, df)
        crit = _t_quantile(df, 0.5 + level / 2.0)
    elif dist == "normal":
        p = _normal_pvalue(tstat)
        crit = _STD_NORMAL.inv_cdf(0.5 + level / 2.0)
    else:
        raise PanelLPError(f"unknown reference distribution {dist!r}")
    return CoefficientInterval(
        name=name,
        estimate=estimate,
        se=se,
        ci_low=estimate - crit * se,
        ci_high=estimate + crit * se,
        p_value=p,
        stars=significance_stars(p),
        level=level,
    )


def _require_covariance(result: RegressionResult) -> np.ndarray:
    if result.covariance is None:
        raise PanelLPError(
            "result has no covariance attached; call cluster_covariance first"
        )
    return result.covariance


def coefficient_interval(
    result: RegressionResult,
    name: str,
    level: float = 0.95,
    dist: str = "t",
) -> CoefficientInterval:
    """Estimate, SE, CI, p-value and stars for one retained coefficient.

    Uses a t reference with ``n_clusters - 1`` degrees of freedom by
    default; pass ``dist="normal"`` for standard-normal critical values.
    """
    V = _require_covariance(result)
    j = result.column_index(name)
    return _interval(
        name,
        float(result.coefficients[j]),
        float(V[j, j]),
        result.df_inference,
        level,
        dist,
    )


def linear_combination(
    result: RegressionResult,
    weights: Mapping[str, float],
    name: str | None = None,
    level: float = 0.95,
    dist: str = "t",
) -> CoefficientInterval:
    """Inference for ``w'beta`` with variance ``w'Vw``.

    ``weights`` maps retained column names to weights; naming a dropped or
    unknown column is an error (silently treating an absorbed coefficient
    as zero would misstate the combination).
    """
    if not weights:
        raise PanelLPError("empty weight vector")
    V = _require_covariance(result)
    w = np.zeros(len(result.columns))
    for col, wt in weights.items():
        w[result.column_index(col)] = float(wt)
    est = float(w @ result.coefficients)
    var = float(w @ V @ w)
    label = name if name is not None else "+".join(
        f"{wt:g}*{col}" for col, wt in weights.items()
    )
    return _interval(label, est, var, result.df_inference, level, dist)


def lsdv_fit(
    panel: Panel,
    response: str,
    regressors: Sequence[str],
    entity_fe: bool = True,
    time_fe: bool = True,
    cluster: str = "entity",
) -> RegressionResult:
    """Fixed effects by explicit dummy columns (least squares dummy variable).

    This is the slow transparent route kept as a cross-check for the
    demeaning path: an intercept plus drop-first entity and period dummy
    blocks, fit by the same QR solver.  The returned coefficients
    and covariance cover only the substantive regressors, so results are
    directly comparable with the demeaned fit.
    """
    names = [str(r) for r in regressors]
    mask = panel.present_mask([response] + names)
    ent_idx, per_idx = np.nonzero(mask)
    if ent_idx.size == 0:
        raise EmptySampleError("no complete rows for LSDV fit")
    y = panel.column(response)[mask]
    blocks = [np.ones((ent_idx.size, 1))]
    colnames = ["const"]
    if entity_fe:
        ents_present = np.unique(ent_idx)
        for e in ents_present[1:]:
            blocks.append((ent_idx == e).astype(float)[:, None])
            colnames.append(f"ent_{panel.entities[e]}")
    if time_fe:
        pers_present = np.unique(per_idx)
        for p in pers_present[1:]:
            blocks.append((per_idx == p).astype(float)[:, None])
            colnames.append(f"per_{panel.periods[p]}")
    sub = np.column_stack([panel.column(n)[mask] for n in names])
    blocks.append(sub)
    colnames.extend(names)

    design = DesignMatrix(
        response=y,
        matrix=np.column_stack(blocks),
        columns=tuple(colnames),
        entities=ent_idx,
        periods=per_idx,
        cluster=cluster,
    )
    full = fit_with_covariance(design)
    # restrict to the substantive regressors
    keep = [i for i, c in enumerate(full.columns) if c in names]
    sel = np.asarray(keep, dtype=int)
    V = full.covariance[np.ix_(sel, sel)]
    return replace(
        full,
        columns=tuple(full.columns[i] for i in keep),
        coefficients=full.coefficients[sel],
        bread=full.bread[np.ix_(sel, sel)],
        covariance=V,
        dropped_columns=tuple(c for c in full.dropped_columns if c in names),
    )
