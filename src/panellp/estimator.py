"""Least-squares fitting and cluster-robust inference.

The solver factors each design once, by a column-pivoted QR of the columns
scaled to unit norm, and drops columns whose pivot falls below a relative
tolerance, so rank-deficient designs (absorbed group dummies, duplicated
regressors) degrade gracefully: the dropped names are reported instead of
blowing up or silently returning a pseudo-inverse fit.  Normal equations
are never used here — they exist only as an independent oracle in tests.

Covariances are the one-way cluster sandwich with the finite-sample scaling
``G/(G-1) * (N-1)/(N-K)``; confidence intervals and p-values use a
Student-t reference with ``G - 1`` degrees of freedom (a normal reference is
available as a switch).
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
        for attr in ("entities", "periods", "clusters"):
            if len(getattr(self, attr)) != n:
                raise PanelLPError(f"{attr} length does not match {n} rows")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class RegressionResult:
    """Coefficients and sample facts from one least-squares fit.

    ``columns`` lists the retained regressors in their original design
    order; ``dropped_columns`` the ones removed by rank filtering.
    ``covariance`` is filled by :func:`cluster_covariance` (the plain fit
    leaves it ``None``).
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


def ols_fit(design: DesignMatrix) -> RegressionResult:
    """Least squares via one column-pivoted QR with relative rank filtering.

    Columns whose pivot magnitude in the unit-norm-scaled design falls
    below ``PIVOT_RTOL`` times the leading pivot (all-zero columns among
    them) are dropped and reported in ``dropped_columns``.  The same factors
    give the kept coefficients, unscaled and in the original design order.
    R-squared is ``1 - RSS/TSS`` with TSS taken about the response mean
    (the within R-squared when the design was demeaned).
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
    Qr = Q[:, :rank]
    qty = Qr.T @ y
    # scaled-column coefficients in pivot order, unscaled and put in design order
    beta = (sla.solve_triangular(R[:rank, :rank], qty) / norms[kept])[np.argsort(kept)]
    keep = np.sort(kept)
    dropped = tuple(design.columns[j] for j in sorted(piv[rank:]))
    resid = y - Qr @ qty

    rss = float(resid @ resid)
    dev = y - y.mean()
    tss = float(dev @ dev)
    r2 = 0.0 if tss == 0.0 else 1.0 - rss / tss
    n_entities = len(np.unique(design.entities))
    n_periods = len(np.unique(design.periods))
    # under entity or period clustering ``clusters`` is that same label array
    shared = {id(design.entities): n_entities, id(design.periods): n_periods}
    n_clusters = shared.get(id(design.clusters)) or len(np.unique(design.clusters))

    return RegressionResult(
        columns=tuple(design.columns[j] for j in keep),
        coefficients=beta,
        residuals=resid,
        n_obs=n,
        n_clusters=n_clusters,
        n_entities=n_entities,
        n_periods=n_periods,
        r_squared=r2,
        dropped_columns=dropped,
    )


def cluster_covariance(
    result: RegressionResult, design: DesignMatrix
) -> np.ndarray:
    """One-way cluster-robust (CR1) covariance of the retained coefficients.

    ``(X'X)^-1 (sum_g X_g' e_g e_g' X_g) (X'X)^-1`` scaled by
    ``G/(G-1) * (N-1)/(N-K)``.  With every cluster a singleton this equals
    the HC1 heteroskedasticity-robust matrix.  Requires at least two
    clusters.
    """
    codes, inverse = np.unique(design.clusters, return_inverse=True)
    G = len(codes)
    if G < 2:
        raise InsufficientClustersError(
            f"cluster-robust inference needs >= 2 clusters, got {G}"
        )
    X = design.matrix[:, [design.columns.index(c) for c in result.columns]]
    n, k = X.shape
    u = result.residuals
    # score sums per cluster: S[g] = X_g' u_g
    S = np.empty((G, k))
    Xu = X * u[:, None]
    for c in range(k):
        S[:, c] = np.bincount(inverse, weights=Xu[:, c], minlength=G)
    meat = S.T @ S
    xtx_inv = np.linalg.inv(X.T @ X)
    scale = (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    V = scale * xtx_inv @ meat @ xtx_inv
    return (V + V.T) / 2.0


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
    clusters = entities if cluster == "entity" else periods
    design = DesignMatrix(
        response=y,
        matrix=np.column_stack(blocks),
        columns=tuple(colnames),
        entities=entities,
        periods=periods,
        clusters=clusters,
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
        covariance=V,
        dropped_columns=tuple(c for c in full.dropped_columns if c in names),
    )
