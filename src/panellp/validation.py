"""Numerical validation suites: oracles and Monte Carlo checks.

Each suite pits the production estimator against an independent route
(explicit-dummy least squares, extended-precision normal equations, a
literal per-cluster sandwich loop) or against a synthetic truth from the
data generator, and reports metric lines with pass/fail verdicts.  The
command line exposes them under ``validate --suite ...``; the acceptance
tests call them directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .estimator import (
    DesignMatrix,
    cluster_covariance,
    fit_with_covariance,
    lsdv_fit,
    ols_fit,
)
from .events import build_dummies
from .lp import LPSpec, estimate_irf
from .panel import Panel, VariableSpec, two_way_demean
from .simgen import DGPSpec, generate

__all__ = [
    "SuiteReport",
    "SUITES",
    "run_suite",
    "ols_oracle_suite",
    "fe_oracle_suite",
    "cluster_oracle_suite",
    "irf_recovery_suite",
    "size_control_suite",
    "transition_separation_suite",
    "solve_normal_equations",
    "brute_force_cluster_cov",
    "hc1_covariance",
    "random_unbalanced_panel",
    "within_fit",
]


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one validation suite."""

    name: str
    passed: bool
    lines: tuple[str, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join(list(self.lines) + [f"suite={self.name} {verdict}"])


# ---------------------------------------------------------------------------
# independent computation routes (oracles)
# ---------------------------------------------------------------------------


def solve_normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``X'X b = X'y`` in extended precision by Gauss-Jordan.

    For tests only: accumulating the cross products and the elimination in
    ``longdouble`` makes this an independent high-precision reference for
    the QR solver on well-conditioned designs.
    """
    Xl = X.astype(np.longdouble)
    yl = y.astype(np.longdouble)
    A = Xl.T @ Xl
    b = Xl.T @ yl
    k = A.shape[0]
    M = np.hstack([A, b[:, None]])
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(M[col:, col])))
        if M[pivot, col] == 0:
            raise ZeroDivisionError("singular normal equations")
        if pivot != col:
            M[[col, pivot]] = M[[pivot, col]]
        M[col] = M[col] / M[col, col]
        for row in range(k):
            if row != col:
                M[row] = M[row] - M[row, col] * M[col]
    return M[:, -1].astype(float)


def brute_force_cluster_cov(
    X: np.ndarray, resid: np.ndarray, clusters: np.ndarray
) -> np.ndarray:
    """Literal per-cluster sandwich with the CR1 small-sample scale."""
    n, k = X.shape
    labels = np.unique(clusters)
    G = len(labels)
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((k, k))
    for g in labels:
        sel = clusters == g
        score = X[sel].T @ resid[sel]
        meat += np.outer(score, score)
    scale = (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    V = scale * bread @ meat @ bread
    return (V + V.T) / 2.0


def hc1_covariance(X: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """White's heteroskedasticity-robust covariance with the N/(N-K) scale."""
    n, k = X.shape
    bread = np.linalg.inv(X.T @ X)
    meat = (X * (resid**2)[:, None]).T @ X
    V = (n / (n - k)) * bread @ meat @ bread
    return (V + V.T) / 2.0


# ---------------------------------------------------------------------------
# random test-panel construction
# ---------------------------------------------------------------------------


def random_unbalanced_panel(
    rng: np.random.Generator,
    max_entities: int = 20,
    max_periods: int = 15,
    drop_frac: float = 0.15,
    n_regressors: int = 2,
) -> tuple[Panel, list[str]]:
    """A small panel with real fixed effects and random holes.

    The response loads on the regressors and on entity/period effects, so a
    fit that mishandles the effects shows up immediately.  Up to
    ``drop_frac`` of the cells are deleted outright (all variables at
    once), producing an unbalanced panel.
    """
    E = int(rng.integers(5, max_entities + 1))
    T = int(rng.integers(6, max_periods + 1))
    regs = [f"x{i + 1}" for i in range(n_regressors)]
    alpha = rng.normal(0, 1, size=(E, 1))
    tau = rng.normal(0, 1, size=(1, T))
    cols = {}
    y = alpha + tau + rng.normal(0, 0.5, size=(E, T))
    beta = rng.normal(0, 1, size=n_regressors)
    for idx, name in enumerate(regs):
        x = 0.3 * alpha + 0.3 * tau + rng.normal(0, 1, size=(E, T))
        cols[name] = x
        y = y + beta[idx] * x
    drop = rng.random((E, T)) < drop_frac * rng.random()
    # keep at least two cells per entity so effects stay estimable
    for i in range(E):
        keep = np.flatnonzero(~drop[i])
        if keep.size < 2:
            drop[i, :2] = False
    y = np.where(drop, np.nan, y)
    cols = {n: np.where(drop, np.nan, v) for n, v in cols.items()}
    cols["y"] = y
    return Panel([f"P{i:02d}" for i in range(E)], range(2000, 2000 + T), cols), regs


def within_fit(
    panel: Panel,
    response: str,
    regressors: list[str],
    entity_fe: bool = True,
    time_fe: bool = True,
):
    """Demean-then-fit on one sample through :func:`panel.two_way_demean`:
    the fe-oracle's route.  ``estimate`` takes another, the stacked
    ``panel._fe_effects`` pass and ``lp._gather``."""
    names = [response] + regressors
    dm = two_way_demean(panel, names, entity_fe=entity_fe, time_fe=time_fe)
    mask = dm.present_mask(names)
    ent_idx, per_idx = np.nonzero(mask)
    design = DesignMatrix(
        response=dm.column(response)[mask],
        matrix=np.column_stack([dm.column(r)[mask] for r in regressors]),
        columns=tuple(regressors),
        entities=ent_idx,
        periods=per_idx,
    )
    return fit_with_covariance(design)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def ols_oracle_suite(reps: int = 40, seed: int = 20260401) -> SuiteReport:
    """QR solver vs extended-precision normal equations on random designs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_orth = 0.0
    for _ in range(reps):
        n = int(rng.integers(40, 200))
        k = int(rng.integers(2, 7))
        X = rng.normal(0, 1, size=(n, k))
        beta = rng.normal(0, 2, size=k)
        y = X @ beta + rng.normal(0, 0.7, size=n)
        design = DesignMatrix(
            response=y,
            matrix=X,
            columns=tuple(f"x{i}" for i in range(k)),
            entities=np.arange(n),
            periods=np.arange(n),
        )
        fit = ols_fit(design)
        ref = solve_normal_equations(X, y)
        worst = max(worst, float(np.abs(fit.coefficients - ref).max()))
        worst_orth = max(worst_orth, float(np.abs(X.T @ fit.residuals).max()))
    ok = worst < 1e-9 and worst_orth < 1e-8
    return SuiteReport(
        name="ols-oracle",
        passed=ok,
        lines=(
            f"designs={reps}",
            f"max_coefficient_gap={worst:.3e} bound=1e-9",
            f"max_score_orthogonality={worst_orth:.3e} bound=1e-8",
        ),
    )


def fe_oracle_suite(reps: int = 50, seed: int = 20260402) -> SuiteReport:
    """Exact two-way fixed-effect projection vs explicit-dummy least squares."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(reps):
        panel, regs = random_unbalanced_panel(rng)
        via_demean = within_fit(panel, "y", regs)
        via_dummies = lsdv_fit(panel, "y", regs)
        gap = float(
            np.abs(via_demean.coefficients - via_dummies.coefficients).max()
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    return SuiteReport(
        name="fe-oracle",
        passed=ok,
        lines=(
            f"panels={reps}",
            f"max_coefficient_gap={worst:.3e} bound=1e-8",
            f"elapsed_s={elapsed:.2f} bound=10",
        ),
    )


def cluster_oracle_suite(reps: int = 20, seed: int = 20260403) -> SuiteReport:
    """Grouped-score covariance vs a literal per-cluster loop, plus the
    all-singletons = HC1 degeneracy.  Each design's rows come in random
    code order; its X and codes are also refitted with 2-4 responses at
    once, rows grouped by code as :mod:`panellp.lp` gathers them, and each
    response's covariance is checked.  Those responses come from their own
    generator, so the single-response designs do not depend on them."""
    rng = np.random.default_rng(seed)
    extra = np.random.default_rng((seed, 1))
    worst = 0.0
    worst_multi = 0.0
    worst_hc1 = 0.0
    for _ in range(reps):
        n = int(rng.integers(60, 160))
        k = int(rng.integers(2, 6))
        G = int(rng.integers(5, 15))
        codes = rng.integers(0, G, size=n)
        X = rng.normal(0, 1, size=(n, k))
        y = X @ rng.normal(0, 1, size=k) + rng.normal(0, 1, size=n)
        design = DesignMatrix(
            response=y,
            matrix=X,
            columns=tuple(f"x{i}" for i in range(k)),
            entities=codes,
            periods=np.arange(n),
        )
        fit = ols_fit(design)
        V = cluster_covariance(fit, design)
        ref = brute_force_cluster_cov(X, fit.residuals, codes)
        worst = max(worst, float(np.abs(V - ref).max()))

        m = int(extra.integers(2, 5))
        order = np.argsort(codes, kind="stable")
        Xg, grouped = X[order], codes[order]
        Y = Xg @ extra.normal(0, 1, size=(k, m)) + extra.normal(0, 1, size=(n, m))
        multi = DesignMatrix(
            response=Y,
            matrix=Xg,
            columns=design.columns,
            entities=grouped,
            periods=np.arange(n),
        )
        fit_m = ols_fit(multi)
        V_m = cluster_covariance(fit_m, multi)
        for j in range(m):
            ref_m = brute_force_cluster_cov(Xg, fit_m.residuals[:, j], grouped)
            worst_multi = max(worst_multi, float(np.abs(V_m[j] - ref_m).max()))

        singles = DesignMatrix(
            response=y,
            matrix=X,
            columns=tuple(f"x{i}" for i in range(k)),
            entities=np.arange(n),
            periods=np.arange(n),
        )
        fit_s = ols_fit(singles)
        V_s = cluster_covariance(fit_s, singles)
        ref_s = hc1_covariance(X, fit_s.residuals)
        worst_hc1 = max(worst_hc1, float(np.abs(V_s - ref_s).max()))
    ok = max(worst, worst_multi, worst_hc1) < 1e-12
    return SuiteReport(
        name="cluster-oracle",
        passed=ok,
        lines=(
            f"designs={reps}",
            f"max_covariance_gap={worst:.3e} bound=1e-12",
            f"max_multi_response_gap={worst_multi:.3e} bound=1e-12",
            f"max_hc1_gap={worst_hc1:.3e} bound=1e-12",
        ),
    )


RECOVERY_THETA = (0.0, -0.034, -0.037, 0.0, 0.0, 0.0)


def _recovery_dgp(seed: int, **overrides) -> DGPSpec:
    base = dict(
        n_entities=200,
        n_periods=40,
        entity_sd=0.01,
        time_sd=0.01,
        noise_sd=0.02,
        error_rho=0.3,
        ar_coef=0.2,
        theta=RECOVERY_THETA,
        shock_prob=0.1,
        seed=seed,
    )
    base.update(overrides)
    return DGPSpec(**base)


def _sim_spec(**overrides) -> LPSpec:
    base = dict(
        dependent=VariableSpec("y", transform="level"),
        kind="baseline",
        horizons=5,
        lag_order=2,
        controls=(),
        dummy_lags=2,
    )
    base.update(overrides)
    return LPSpec(**base)


def _one_shot_schedule(
    rng: np.random.Generator, n_entities: int, lo: int, hi: int
) -> tuple[tuple[int, int], ...]:
    """One shock per entity at a uniform date in ``[lo, hi]`` (inclusive)."""
    dates = rng.integers(lo, hi + 1, size=n_entities)
    return tuple((i, int(dates[i])) for i in range(n_entities))


def irf_recovery_suite(reps: int = 200, seed: int = 20260404) -> SuiteReport:
    """Bias and coverage of the baseline projection on the known DGP.

    The mean estimate must sit within 0.005 of the injected path at every
    horizon, and the 95% bands must cover the truth between 93% and 97% of
    the time (pooled over horizons 1..H; horizon 0 has an identically zero
    response, hence a zero-width interval that always covers the zero
    truth, and is reported separately).

    Two choices keep the Monte Carlo estimand equal to the injected path.
    Shocks are scheduled once per entity at a random interior date, and the
    regression controls for the shock leads that fall inside the response
    window.  Without the leads, rows observed shortly *before* an entity's
    shock carry the (negative) path inside their forward window while rows
    at the shock date do not, so the treated/untreated contrast acquires an
    upward bias of order ``sum(theta) * H / T`` that lag controls cannot
    reach — the usual forward-contamination problem of event-sample
    projections, and the usual fix.
    """
    start = time.perf_counter()
    theta = np.asarray(RECOVERY_THETA)
    H = len(theta) - 1
    lead_controls = tuple(
        VariableSpec(f"shock_lead_{j}") for j in range(1, H + 1)
    )
    estimates = np.empty((reps, H + 1))
    covered = np.zeros((reps, H + 1), dtype=bool)
    for rep in range(reps):
        dgp = _recovery_dgp(seed + rep)
        sched = _one_shot_schedule(
            np.random.default_rng((seed, rep)),
            dgp.n_entities,
            lo=3,  # growth lags need t >= 3 once levels are differenced
            hi=dgp.n_periods - 1 - H,
        )
        panel, events, _ = generate(
            _recovery_dgp(seed + rep, shock_schedule=sched)
        )
        grid = build_dummies(events, panel).column("all")
        for j in range(1, H + 1):
            lead = np.full_like(grid, np.nan)
            lead[:, : grid.shape[1] - j] = grid[:, j:]
            panel = panel.with_column(f"shock_lead_{j}", lead)
        spec = _sim_spec(horizons=H, controls=lead_controls)
        irf = estimate_irf(panel, events, spec)
        for k, iv in enumerate(irf.series("shock")):
            estimates[rep, k] = iv.estimate
            covered[rep, k] = iv.ci_low <= theta[k] <= iv.ci_high
    elapsed = time.perf_counter() - start
    mean_gap = np.abs(estimates.mean(axis=0) - theta)
    coverage = covered[:, 1:].mean() * 100.0
    cover_k0 = covered[:, 0].mean() * 100.0
    ok = bool(
        (mean_gap < 0.005).all() and 93.0 <= coverage <= 97.0 and elapsed < 300.0
    )
    lines = [f"replications={reps}"]
    for k in range(H + 1):
        lines.append(
            f"horizon_{k}: mean={estimates[:, k].mean():+.5f} "
            f"truth={theta[k]:+.3f} gap={mean_gap[k]:.5f} bound=0.005"
        )
    lines.append(f"coverage_pct={coverage:.2f} bounds=[93,97] (horizons 1..{H})")
    lines.append(f"coverage_pct_horizon0={cover_k0:.1f} (degenerate, not scored)")
    lines.append(f"elapsed_s={elapsed:.1f} bound=300")
    return SuiteReport(name="irf-recovery", passed=ok, lines=tuple(lines))


def size_control_suite(reps: int = 500, seed: int = 20260405) -> SuiteReport:
    """Null rejection rate of the shock coefficient at the 5% level."""
    start = time.perf_counter()
    rejections = 0
    for rep in range(reps):
        dgp = _recovery_dgp(
            seed + rep,
            n_entities=50,
            n_periods=20,
            theta=(0.0, 0.0),
        )
        panel, events, _ = generate(dgp)
        irf = estimate_irf(panel, events, _sim_spec(horizons=1))
        if irf.series("shock")[1].p_value < 0.05:
            rejections += 1
    elapsed = time.perf_counter() - start
    rate = 100.0 * rejections / reps
    ok = 2.0 <= rate <= 9.0
    return SuiteReport(
        name="size-control",
        passed=ok,
        lines=(
            f"replications={reps}",
            f"rejection_rate_pct={rate:.2f} bounds=[2,9]",
            f"elapsed_s={elapsed:.1f}",
        ),
    )


SEPARATION_RECESSION = (0.0, -0.05, -0.05)
SEPARATION_EXPANSION = (0.0, 0.02, 0.02)


def transition_separation_suite(
    reps: int = 200, seed: int = 20260406
) -> SuiteReport:
    """Regime separation: recession and expansion responses keep their
    order and land near their injected paths.

    The generator draws growth without serial correlation here
    (``error_rho=0``, ``ar_coef=0``).  The regime weight is a function of
    growth in the shock year, so with persistent growth the weight predicts
    the post-shock path through the persistence channel as well as through
    the injected responses; finite lag controls cannot absorb that, and the
    estimated regime split widens mechanically (roughly twofold at these
    settings).  That is a property of state-dependent projections, not an
    estimator defect — with independent innovations the injected paths are
    exactly the estimand and recovery is clean.
    """
    start = time.perf_counter()
    H = len(SEPARATION_RECESSION) - 1
    low = np.empty((reps, H + 1))
    high = np.empty((reps, H + 1))
    for rep in range(reps):
        dgp = _recovery_dgp(
            seed + rep,
            noise_sd=0.05,
            error_rho=0.0,
            ar_coef=0.0,
            theta=(0.0,),
            theta_recession=SEPARATION_RECESSION,
            theta_expansion=SEPARATION_EXPANSION,
        )
        panel, events, _ = generate(dgp)
        spec = _sim_spec(kind="transition", horizons=H, growth="growth")
        irf = estimate_irf(panel, events, spec)
        low[rep] = [iv.estimate for iv in irf.series("shock_recession")]
        high[rep] = [iv.estimate for iv in irf.series("shock_expansion")]
    elapsed = time.perf_counter() - start
    lines = [f"replications={reps}"]
    ok = True
    for k in range(1, H + 1):
        ordered = 100.0 * float((low[:, k] < high[:, k]).mean())
        gap_low = abs(low[:, k].mean() - SEPARATION_RECESSION[k])
        gap_high = abs(high[:, k].mean() - SEPARATION_EXPANSION[k])
        ok = ok and ordered >= 95.0 and gap_low < 0.01 and gap_high < 0.01
        lines.append(
            f"horizon_{k}: ordered_pct={ordered:.1f} bound>=95 "
            f"recession_mean={low[:, k].mean():+.4f} (truth {SEPARATION_RECESSION[k]:+.3f}) "
            f"expansion_mean={high[:, k].mean():+.4f} (truth {SEPARATION_EXPANSION[k]:+.3f}) "
            f"gaps=({gap_low:.4f},{gap_high:.4f}) bound=0.01"
        )
    lines.append(f"elapsed_s={elapsed:.1f}")
    return SuiteReport(name="transition-separation", passed=bool(ok), lines=tuple(lines))


SUITES = {
    "ols-oracle": ols_oracle_suite,
    "fe-oracle": fe_oracle_suite,
    "cluster-oracle": cluster_oracle_suite,
    "irf-recovery": irf_recovery_suite,
    "size-control": size_control_suite,
    "transition-separation": transition_separation_suite,
}


def run_suite(
    name: str, reps: int | None = None, seed: int | None = None
) -> SuiteReport:
    """Run a named suite with optional replication/seed overrides."""
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    # with no replication an oracle suite would pass having checked nothing
    if reps is not None and reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    kwargs = {"reps": reps, "seed": seed}
    return SUITES[name](**{k: v for k, v in kwargs.items() if v is not None})
