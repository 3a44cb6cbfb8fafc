"""Least-squares fitting and cluster-robust inference.

The solver factors each design once, by a column-pivoted QR of the columns
scaled to unit norm, and drops columns whose pivot falls below a relative
tolerance, so rank-deficient designs (absorbed group dummies, duplicated
regressors) degrade gracefully: the dropped names are reported instead of
blowing up or silently returning a pseudo-inverse fit.  Normal equations
are never formed or inverted here — they exist only as an independent
oracle in tests and in :mod:`panellp.validation`.

Covariances are the one-way cluster sandwich with the finite-sample scaling
``G/(G-1) * (N-1)/(N-K)``.  Its bread ``(X'X)^-1`` comes from the same QR
factor as the coefficients, and its meat groups the scores by the integer
cluster codes the design carries, so no label array is sorted per fit.
Confidence intervals and p-values use a Student-t reference with ``G - 1``
degrees of freedom (a normal reference is available as a switch).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg as sla
from scipy import special

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
    "coefficient_interval",
    "linear_combination",
    "lsdv_fit",
    "significance_stars",
    "PIVOT_RTOL",
]

# Relative pivot threshold for rank detection: a column is dropped when its
# QR pivot magnitude falls below PIVOT_RTOL times the largest pivot.  Pivots
# come from the columns scaled to unit 2-norm, so a regressor in large units
# (population, GDP in currency) cannot make the others look collinear.
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """A ready-to-fit regression sample.

    Rows map one-to-one onto entity-period cells that survived listwise
    deletion; ``entities``/``periods`` carry that provenance as numpy
    label arrays, gathered by grid position (:meth:`Panel.cell_labels`).
    ``clusters`` holds the cluster label per row (entity labels under the
    default clustering).  ``raw_response`` optionally keeps the
    pre-demeaning response so an overall (rather than within) R-squared
    can be formed.
    ``demean_sweeps`` counts the group-mean passes of the fixed-effect
    projection: 1 with any fixed effect, 0 without.

    ``entity_codes``/``period_codes``/``cluster_codes`` are non-negative
    integer codes per row, equal for equal labels; the fit counts and
    groups by them.  They may have gaps: the projection passes the panel
    grid positions, where an entity without a row at some horizon leaves
    its code unused.  A design built from labels alone gets dense codes
    from one ``np.unique`` per label array.
    """

    response: np.ndarray
    matrix: np.ndarray
    columns: tuple[str, ...]
    entities: np.ndarray
    periods: np.ndarray
    clusters: np.ndarray
    raw_response: np.ndarray | None = None
    demean_sweeps: int = 0
    missing_counts: Mapping[str, int] = field(default_factory=dict)
    entity_codes: np.ndarray | None = None
    period_codes: np.ndarray | None = None
    cluster_codes: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.response, dtype=float)
        X = np.asarray(self.matrix, dtype=float)
        if X.ndim != 2:
            raise PanelLPError("design matrix must be 2-D")
        n, k = X.shape
        if y.shape != (n,):
            raise PanelLPError(f"response shape {y.shape} does not match {n} rows")
        if len(self.columns) != k:
            raise PanelLPError(f"{len(self.columns)} names for {k} columns")
        if len(set(self.columns)) != k:
            raise PanelLPError("duplicate column names in design")
        for part, label in ((y, "response"), (X, "matrix")):
            if not np.isfinite(part).all():
                raise PanelLPError(f"design {label} contains NaN/inf")
        for attr, code_attr in (
            ("entities", "entity_codes"),
            ("periods", "period_codes"),
            ("clusters", "cluster_codes"),
        ):
            if len(getattr(self, attr)) != n:
                raise PanelLPError(f"{attr} length does not match {n} rows")
            codes = getattr(self, code_attr)
            if codes is None:
                codes = np.unique(getattr(self, attr), return_inverse=True)[1]
            codes = np.asarray(codes)
            if (
                codes.shape != (n,)
                or codes.dtype.kind not in "iu"
                or (n and codes.min() < 0)
            ):
                raise PanelLPError(f"{code_attr} must be {n} non-negative integer codes")
            object.__setattr__(self, code_attr, codes.astype(np.intp, copy=False))

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
    by :func:`cluster_covariance` (the plain fit leaves it ``None``).
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

    def coefficient(self, name: str) -> float:
        try:
            return float(self.coefficients[self.columns.index(name)])
        except ValueError:
            raise PanelLPError(
                f"no coefficient for {name!r}"
                + (
                    f" (dropped as collinear)"
                    if name in self.dropped_columns
                    else f"; retained columns: {list(self.columns)}"
                )
            ) from None

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


def ols_fit(design: DesignMatrix) -> RegressionResult:
    """Least squares via one column-pivoted QR with relative rank filtering.

    Columns whose pivot magnitude in the unit-norm-scaled design falls
    below ``PIVOT_RTOL`` times the leading pivot (all-zero columns among
    them) are dropped and reported in ``dropped_columns``.  The same factors
    give the kept coefficients, unscaled and in the original design order,
    and their bread ``(X'X)^-1 = D^-1 R^-1 R^-T D^-1`` (``R`` the kept
    block of the factor, ``D`` the kept norms in pivot order); the result
    keeps that k-by-k bread, never the n-row ``Q``.  Entity, period and
    cluster counts are the distinct row codes.  R-squared is
    ``1 - RSS/TSS`` with TSS taken about the response mean (the within
    R-squared when the design was demeaned).
    """
    if design.n_rows == 0:
        raise EmptySampleError("no rows in design")
    y = design.response
    X = design.matrix
    n, k = X.shape
    if k == 0:
        raise DegenerateDesignError("design has no columns")

    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    norms[norms == 0.0] = 1.0
    # a private column-major copy, so LAPACK factors it in place
    scaled = np.asfortranarray(X) / norms
    Q, R, piv = sla.qr(scaled, mode="economic", pivoting=True, overwrite_a=True)
    diag = np.abs(np.diag(R))
    lead = diag[0] if diag.size else 0.0
    if lead <= 0.0:
        raise DegenerateDesignError(
            "design has no usable columns (all pivots are zero)"
        )
    rank = int((diag > PIVOT_RTOL * lead).sum())
    kept = piv[:rank]
    order = np.argsort(kept)
    Rr = R[:rank, :rank]
    Qr = Q[:, :rank]
    qty = Qr.T @ y
    # scaled-column coefficients in pivot order, unscaled and put in design order
    beta = (sla.solve_triangular(Rr, qty) / norms[kept])[order]
    # rows of D^-1 R^-1 in design order; the bread is W W'
    W = (sla.solve_triangular(Rr, np.eye(rank)) / norms[kept][:, None])[order]
    dropped = tuple(design.columns[j] for j in sorted(piv[rank:]))
    resid = y - Qr @ qty

    rss = float(resid @ resid)
    dev = y - y.mean()
    tss = float(dev @ dev)
    r2 = 0.0 if tss == 0.0 else 1.0 - rss / tss

    return RegressionResult(
        columns=tuple(design.columns[j] for j in kept[order]),
        coefficients=beta,
        residuals=resid,
        n_obs=n,
        n_clusters=_count_codes(design.cluster_codes),
        n_entities=_count_codes(design.entity_codes),
        n_periods=_count_codes(design.period_codes),
        r_squared=r2,
        dropped_columns=dropped,
        bread=W @ W.T,
    )


def cluster_covariance(
    result: RegressionResult, design: DesignMatrix
) -> np.ndarray:
    """One-way cluster-robust (CR1) covariance of the retained coefficients.

    ``B (sum_g X_g' e_g e_g' X_g) B`` scaled by ``G/(G-1) * (N-1)/(N-K)``,
    where ``B = (X'X)^-1`` is the bread :func:`ols_fit` built from its R
    factor and the score sums ``X_g' e_g`` are grouped by the design's
    integer cluster codes.  With every cluster a singleton this equals the
    HC1 heteroskedasticity-robust matrix.  Requires at least two clusters
    and more rows than retained columns.
    """
    G = result.n_clusters
    if G < 2:
        raise InsufficientClustersError(
            f"cluster-robust inference needs >= 2 clusters, got {G}"
        )
    X = design.matrix
    if result.dropped_columns:
        X = X[:, [design.columns.index(c) for c in result.columns]]
    n, k = X.shape
    if n <= k:
        raise DegenerateDesignError(
            f"no residual degrees of freedom ({n} rows, {k} retained columns)"
        )
    codes = design.cluster_codes
    Xu = X * result.residuals[:, None]
    # score sums per cluster code: S[g] = X_g' u_g (unused codes stay zero)
    S = np.column_stack([np.bincount(codes, weights=Xu[:, c]) for c in range(k)])
    # per-cluster influence terms B S_g; the sandwich is their cross product,
    # which numpy forms by a symmetric rank-k update, so V is exactly symmetric
    M = S @ result.bread
    scale = (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    return scale * (M.T @ M)


def fit_with_covariance(design: DesignMatrix) -> RegressionResult:
    """Convenience wrapper: fit, then attach the CR1 covariance."""
    result = ols_fit(design)
    V = cluster_covariance(result, design)
    return replace(result, covariance=V)


def _interval(
    name: str,
    estimate: float,
    variance: float,
    df: int,
    level: float,
    dist: str,
) -> CoefficientInterval:
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
        p = 2.0 * float(special.stdtr(df, -abs(tstat)))
        crit = float(special.stdtrit(df, 0.5 + level / 2.0))
    elif dist == "normal":
        p = 2.0 * float(special.ndtr(-abs(tstat)))
        crit = float(special.ndtri(0.5 + level / 2.0))
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
    if not 0.0 < level < 1.0:
        raise PanelLPError(f"confidence level must be in (0, 1), got {level}")
    V = _require_covariance(result)
    j = result.columns.index(name) if name in result.columns else None
    if j is None:
        raise PanelLPError(
            f"no coefficient for {name!r}"
            + (" (dropped as collinear)" if name in result.dropped_columns else "")
        )
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
        if col in result.columns:
            w[result.columns.index(col)] = float(wt)
        elif col in result.dropped_columns:
            raise PanelLPError(
                f"column {col!r} was dropped as collinear; its weight is undefined"
            )
        else:
            raise PanelLPError(f"unknown column {col!r} in linear combination")
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
    blocks, fit by the same pivoted-QR solver.  The returned coefficients
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

    entities, periods = panel.cell_labels(ent_idx, per_idx)
    by_entity = cluster == "entity"
    design = DesignMatrix(
        response=y,
        matrix=np.column_stack(blocks),
        columns=tuple(colnames),
        entities=entities,
        periods=periods,
        clusters=entities if by_entity else periods,
        entity_codes=ent_idx,
        period_codes=per_idx,
        cluster_codes=ent_idx if by_entity else per_idx,
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
