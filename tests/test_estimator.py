"""Least-squares engine: QR fit, rank filtering, CR1 sandwich, intervals.

Reference values here come from independent routes: extended-precision
normal equations for coefficients and a literal per-cluster loop for the
sandwich (the oracles of :mod:`panellp.validation`), and frozen
distribution constants.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from panellp.errors import (
    DegenerateDesignError,
    EmptySampleError,
    InsufficientClustersError,
    PanelLPError,
)
from panellp.estimator import (
    _PANEL_ROWS,
    _rank_filtered_triangle,
    CoefficientInterval,
    DesignMatrix,
    RegressionResult,
    cluster_covariance,
    coefficient_interval,
    fit_with_covariance,
    linear_combination,
    lsdv_fit,
    ols_fit,
    significance_stars,
)
from panellp.validation import (
    brute_force_cluster_cov,
    hc1_covariance,
    solve_normal_equations,
    within_fit,
)

from conftest import balanced_panel, punch_holes, sparse_panel


def make_design(rng, n=60, k=3, n_clusters=12, beta=None):
    X = rng.normal(size=(n, k))
    beta = np.arange(1, k + 1, dtype=float) if beta is None else np.asarray(beta)
    clusters = rng.integers(0, n_clusters, size=n)
    # cluster-correlated errors so the sandwich has something to measure
    shock = rng.normal(size=n_clusters)[clusters]
    y = X @ beta + shock + rng.normal(size=n)
    return DesignMatrix(
        response=y,
        matrix=X,
        columns=tuple(f"x{i}" for i in range(k)),
        entities=clusters,
        periods=np.arange(n),
    )


# ---------------------------------------------------------------------------
# ols_fit
# ---------------------------------------------------------------------------


def test_ols_matches_normal_equations(rng):
    for _ in range(10):
        d = make_design(rng, n=rng.integers(30, 90), k=rng.integers(1, 5))
        fit = ols_fit(d)
        ref = solve_normal_equations(d.matrix, d.response)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-9)
        # residuals orthogonal to the design
        assert np.abs(d.matrix.T @ fit.residuals).max() < 1e-8


@pytest.mark.parametrize(
    "n",
    [_PANEL_ROWS - 1, _PANEL_ROWS, _PANEL_ROWS + 1, 3 * _PANEL_ROWS + 7],
    ids=["P-1", "P", "P+1", "3P+7"],
)
def test_ols_matches_normal_equations_across_panels(rng, n):
    # designs that end just short of, on, and past a panel boundary, and
    # one that spans several panels with a ragged last one
    d = make_design(rng, n=n, k=4)
    fit = ols_fit(d)
    ref = solve_normal_equations(d.matrix, d.response)
    np.testing.assert_allclose(fit.coefficients, ref, rtol=0, atol=1e-12)
    assert np.abs(d.matrix.T @ fit.residuals).max() < 1e-8


def test_ols_drops_a_twin_whose_rows_lie_past_the_first_panel(rng):
    # ``a`` and its twin are zero on every row of the first panel, so only
    # the factorisation of the stacked panel triangles can see them collide
    n = 2 * _PANEL_ROWS + 5
    a = rng.normal(size=n)
    a[:_PANEL_ROWS] = 0.0
    X = np.column_stack([rng.normal(size=n), a, rng.normal(size=n), a])
    y = X[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n)
    d = DesignMatrix(
        response=y,
        matrix=X,
        columns=("x", "a", "b", "a_copy"),
        entities=np.arange(n) % 9,
        periods=np.arange(n),
    )
    fit = ols_fit(d)
    assert fit.columns == ("x", "a", "b")
    assert fit.dropped_columns == ("a_copy",)
    ref = solve_normal_equations(X[:, :3], y)
    np.testing.assert_allclose(fit.coefficients, ref, rtol=0, atol=1e-12)


def test_ols_r_squared_definition(rng):
    d = make_design(rng)
    fit = ols_fit(d)
    y = d.response
    rss = fit.residuals @ fit.residuals
    tss = ((y - y.mean()) ** 2).sum()
    assert abs(fit.r_squared - (1 - rss / tss)) < 1e-12
    assert 0.0 <= fit.r_squared <= 1.0


def test_ols_zero_tss_reports_zero_r2(rng):
    X = rng.normal(size=(20, 1))
    d = DesignMatrix(
        response=np.zeros(20),
        matrix=X,
        columns=("x",),
        entities=np.arange(20) % 4,
        periods=np.arange(20),
    )
    assert ols_fit(d).r_squared == 0.0


def twin_design(rng, pos, scale):
    """Columns ``a``, ``c``, ``b`` plus ``a_copy``, a twin of ``a``, at ``pos``.

    ``c`` leans on ``a``; ``b`` is in units of ``scale``.  Returns the
    design and the column names.
    """
    base = rng.normal(size=(40, 3))
    y = base[:, 0] - base[:, 1] + rng.normal(size=40)
    names = ["a", "c", "b"]
    cols = [base[:, 0], base[:, 0] + 0.3 * base[:, 2], base[:, 1] * scale]
    names.insert(pos, "a_copy")
    cols.insert(pos, base[:, 0])
    d = DesignMatrix(
        response=y,
        matrix=np.column_stack(cols),
        columns=tuple(names),
        entities=np.arange(40) % 8,
        periods=np.arange(40),
    )
    return d, names


@pytest.mark.parametrize("scale", [1.0, 1e8], ids=["unit", "1e8"])
@pytest.mark.parametrize("pos", [0, 2, 3], ids=["first", "middle", "last"])
def test_ols_drops_duplicated_column(rng, pos, scale):
    d, names = twin_design(rng, pos, scale)
    X, y = d.matrix, d.response
    fit = ols_fit(d)
    # the rank rule runs in design order, so the later twin is dropped
    assert fit.dropped_columns == (("a",) if pos == 0 else ("a_copy",))
    kept = [j for j, name in enumerate(names) if name not in fit.dropped_columns]
    assert fit.columns == tuple(names[j] for j in kept)
    ref = solve_normal_equations(X[:, kept], y)
    # compare in each column's own units, so b's tolerance scales with it
    units = np.array([scale if names[j] == "b" else 1.0 for j in kept])
    np.testing.assert_allclose(fit.coefficients * units, ref * units, atol=1e-9)
    with pytest.raises(PanelLPError, match="collinear"):
        fit.coefficient(fit.dropped_columns[0])


def test_ols_wide_design_drops_every_column_past_the_rank(rng):
    # n rows span R^n, so of k > n generic columns the last k - n lie in
    # the span of those before them
    for n, k in ((4, 7), (300, 400)):
        names = tuple(f"x{j}" for j in range(k))
        d = DesignMatrix(
            response=rng.normal(size=n),
            matrix=rng.normal(size=(n, k)),
            columns=names,
            entities=np.arange(n),
            periods=np.arange(n),
        )
        fit = ols_fit(d)
        assert fit.columns == names[:n]
        assert fit.dropped_columns == names[n:]
        assert fit.bread.shape == (n, n)
        # a square nonsingular system is solved exactly
        np.testing.assert_allclose(
            d.matrix[:, :n] @ fit.coefficients, d.response, atol=1e-12
        )


@pytest.mark.parametrize("n, k", [(40, 5), (4, 7)])
def test_rank_filter_keeps_each_response_column_as_its_own(rng, n, k):
    # the rule reads the design part of the triangle only: with three
    # responses it drops what each one-response triangle drops (x2 in the
    # loop, and on 4 rows x5 and x6 past the rank), and every response
    # column comes out as it does alone
    X = rng.normal(size=(n, k))
    X[:, 2] = X[:, 0] - 0.5 * X[:, 1]
    Y = rng.normal(size=(n, 3))

    def filtered(responses):
        R = np.linalg.qr(np.column_stack([X, responses]), mode="r")
        R[:, :k] /= np.sqrt(np.einsum("ij,ij->j", R[:, :k], R[:, :k]))
        return _rank_filtered_triangle(R, k)

    R3, kept = filtered(Y)
    r = kept.size
    assert kept.tolist() == [j for j in range(min(k, n + 1)) if j != 2][:n]
    assert R3.shape[1] == r + 3
    for j in range(3):
        R1, kept1 = filtered(Y[:, j])
        assert kept1.tolist() == kept.tolist() and R1.shape[1] == r + 1
        np.testing.assert_allclose(R3[:r, :r], R1[:r, :r], rtol=0, atol=1e-13)
        np.testing.assert_allclose(R3[:r, r + j], R1[:r, r], rtol=0, atol=1e-13)


def test_a_response_matrix_fits_each_column_as_its_own_design(rng):
    # one factorization for three responses: each column's coefficients,
    # residuals, R-squared and CR1 covariance are those of its own fit up to
    # rounding, and of longdouble normal equations; the bread, the counts
    # and the dropped column are shared
    d = make_design(rng, n=90, k=4)
    X = d.matrix.copy()
    X[:, 3] = 2.0 * X[:, 1]
    Y = np.column_stack(
        [d.response, rng.normal(size=90), X @ [1.0, 0.0, -1.0, 0.0] + rng.normal(size=90)]
    )
    multi = fit_with_covariance(replace(d, response=Y, matrix=X))
    assert multi.coefficients.shape == (3, 3) and multi.residuals.shape == (90, 3)
    assert multi.r_squared.shape == (3,) and multi.covariance.shape == (3, 3, 3)
    for j in range(3):
        one = fit_with_covariance(replace(d, response=Y[:, j], matrix=X))
        got = multi.for_response(j)
        assert got.columns == one.columns == ("x0", "x1", "x2")
        assert got.dropped_columns == one.dropped_columns == ("x3",)
        assert (got.n_obs, got.n_clusters) == (one.n_obs, one.n_clusters)
        np.testing.assert_allclose(got.coefficients, one.coefficients, rtol=1e-12)
        np.testing.assert_allclose(got.residuals, one.residuals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.covariance, one.covariance, rtol=1e-12)
        assert got.r_squared == pytest.approx(one.r_squared, rel=1e-12)
        ref = solve_normal_equations(X[:, :3], Y[:, j])
        np.testing.assert_allclose(got.coefficients, ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(multi.bread, one.bread, rtol=1e-12)


def test_a_one_column_response_matrix_keeps_the_vector_bits(rng):
    # a single response is the one-column case of the same code: same bits
    d = make_design(rng, n=70, k=3)
    vec = fit_with_covariance(d)
    col = fit_with_covariance(replace(d, response=d.response[:, None])).for_response(0)
    for field in ("coefficients", "residuals", "covariance", "bread"):
        assert getattr(vec, field).tobytes() == getattr(col, field).tobytes()
    assert vec.r_squared == col.r_squared
    for shape in ((70, 0), (70, 1, 1), (69, 2)):
        with pytest.raises(PanelLPError, match="response shape"):
            replace(d, response=np.ones(shape))


def test_ols_wide_design_spanning_several_panels(rng):
    # with this many columns a panel holds more than _PANEL_ROWS rows, and
    # the design still spans three of them
    n, k = 3 * 4 * 301, 300
    d = make_design(rng, n=n, k=k)
    fit = ols_fit(d)
    assert fit.dropped_columns == ()
    ref = np.linalg.lstsq(d.matrix, d.response, rcond=None)[0]
    np.testing.assert_allclose(fit.coefficients, ref, rtol=0, atol=1e-10)


def test_ols_fit_is_independent_of_the_matrix_layout(rng):
    # the fit reads the design column-major, copying it when it is not, so
    # a C-order array, an F-order array and a strided view give the same
    # bits, with one panel of rows or several
    for n in (50, 3 * _PANEL_ROWS + 7):
        wide = rng.normal(size=(n, 8))
        views = {
            "C": np.ascontiguousarray(wide[:, ::2]),
            "F": np.asfortranarray(wide[:, ::2]),
            "strided": wide[:, ::2],
        }
        assert not views["strided"].flags.c_contiguous
        assert not views["strided"].flags.f_contiguous
        y = rng.normal(size=n)
        fits = {
            name: ols_fit(
                DesignMatrix(
                    response=y,
                    matrix=X,
                    columns=("a", "b", "c", "d"),
                    entities=np.arange(n) % 5,
                    periods=np.arange(n),
                )
            )
            for name, X in views.items()
        }
        for name in ("F", "strided"):
            for attr in ("coefficients", "bread", "residuals"):
                np.testing.assert_array_equal(
                    getattr(fits[name], attr), getattr(fits["C"], attr)
                )


def test_ols_fit_copies_each_panel_of_a_packed_block(rng, monkeypatch):
    # a design whose matrix and response are the rows of one C-order block,
    # as lp packs it, takes the one panel path of a design of separate
    # arrays: each panel is copied out, never handed to np.linalg.qr as a
    # view of the block, and both designs get the same bits
    n, k = 3 * _PANEL_ROWS + 7, 4
    block = np.empty((k + 1, n))
    block[:] = rng.normal(size=(k + 1, n))
    packed = DesignMatrix(
        response=block[k],
        matrix=block[:k].T,
        columns=("a", "b", "c", "d"),
        entities=np.arange(n) % 5,
        periods=np.arange(n),
    )
    apart = replace(
        packed, response=block[k].copy(), matrix=np.ascontiguousarray(block[:k].T)
    )
    views = []
    real = np.linalg.qr
    monkeypatch.setattr(
        np.linalg, "qr", lambda a, mode: views.append(a.base is block) or real(a, mode)
    )
    fits = [ols_fit(d) for d in (packed, apart)]
    # four panels and the stacked triangles, per fit
    assert views == [False] * 10
    for attr in ("coefficients", "bread", "residuals"):
        a, b = (getattr(f, attr) for f in fits)
        assert a.tobytes() == b.tobytes()


def test_ols_fit_holds_no_copy_of_a_tall_design(rng):
    # the factorisation works on one panel of rows at a time, so a fit
    # needs fewer than four n-vectors, its residuals among them; one
    # n x (k+1) copy of this column-major design would take eleven
    n = 40_000
    d = DesignMatrix(
        response=rng.normal(size=n),
        matrix=np.asfortranarray(rng.normal(size=(n, 10))),
        columns=tuple(f"x{j}" for j in range(10)),
        entities=np.arange(n) % 200,
        periods=np.arange(n) // 200,
    )
    tracemalloc.start()
    try:
        ols_fit(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 8


def test_ols_scaling_invariance(rng):
    # scaling a column by c scales its coefficient by 1/c exactly
    d = make_design(rng, k=3)
    fit = ols_fit(d)
    X2 = d.matrix.copy()
    X2[:, 1] *= 1000.0
    d2 = DesignMatrix(
        response=d.response,
        matrix=X2,
        columns=d.columns,
        entities=d.entities,
        periods=d.periods,
    )
    fit2 = ols_fit(d2)
    np.testing.assert_allclose(
        fit2.coefficient("x1"), fit.coefficient("x1") / 1000.0, rtol=1e-9
    )


def test_ols_empty_and_degenerate(rng):
    with pytest.raises(PanelLPError):
        DesignMatrix(
            response=np.array([1.0]),
            matrix=np.array([[np.nan]]),
            columns=("x",),
            entities=np.array([0]),
            periods=np.array([0]),
        )
    zeros = DesignMatrix(
        response=np.ones(5),
        matrix=np.zeros((5, 1)),
        columns=("x",),
        entities=np.arange(5),
        periods=np.arange(5),
    )
    with pytest.raises(DegenerateDesignError):
        ols_fit(zeros)


def test_fwl_partialling(rng):
    # coefficient on x0 from the joint fit equals the coefficient from
    # regressing the (x1, x2)-residualized y on the residualized x0
    for _ in range(20):
        d = make_design(rng, n=80, k=3)
        joint = ols_fit(d).coefficient("x0")
        X, y = d.matrix, d.response
        Z = X[:, 1:]
        P = Z @ np.linalg.solve(Z.T @ Z, Z.T)
        x_t = X[:, 0] - P @ X[:, 0]
        y_t = y - P @ y
        partial = float(x_t @ y_t / (x_t @ x_t))
        assert abs(joint - partial) < 1e-8


# ---------------------------------------------------------------------------
# cluster covariance
# ---------------------------------------------------------------------------


def test_cr1_matches_brute_force(rng):
    for _ in range(10):
        d = make_design(rng, n=70, k=3, n_clusters=9)
        fit = ols_fit(d)
        V = cluster_covariance(fit, d)
        ref = brute_force_cluster_cov(d.matrix, fit.residuals, d.entities)
        np.testing.assert_allclose(V, ref, atol=1e-12)
        np.testing.assert_array_equal(V, V.T)


def test_cr1_singleton_clusters_equal_hc1(rng):
    n = 50
    X = rng.normal(size=(n, 2))
    y = X @ np.array([1.0, -2.0]) + rng.normal(size=n)
    d = DesignMatrix(
        response=y,
        matrix=X,
        columns=("a", "b"),
        entities=np.arange(n),  # every row its own cluster
        periods=np.arange(n),
    )
    fit = ols_fit(d)
    V = cluster_covariance(fit, d)
    np.testing.assert_allclose(V, hc1_covariance(X, fit.residuals), atol=1e-12)


def test_cr1_of_a_response_matrix_with_ungrouped_gapped_singleton_codes(rng):
    # rows not grouped by cluster, an unused code (5), two singleton
    # clusters and three responses: each response's covariance is the
    # literal per-cluster loop's, and no unused code adds a score row
    n = 40
    codes = rng.permutation(np.r_[np.repeat([0, 1, 2, 3, 4, 6], 6), 7, 8, 9, 9])
    X = rng.normal(size=(n, 3))
    Y = X @ rng.normal(size=(3, 3)) + rng.normal(size=(n, 3))
    d = DesignMatrix(
        response=Y,
        matrix=X,
        columns=("a", "b", "c"),
        entities=codes,
        periods=np.arange(n),
    )
    assert (np.diff(codes) < 0).any() and 5 not in codes
    fit = fit_with_covariance(d)
    assert fit.n_clusters == 9 and fit.covariance.shape == (3, 3, 3)
    for j in range(3):
        ref = brute_force_cluster_cov(X, fit.residuals[:, j], codes)
        np.testing.assert_allclose(fit.covariance[j], ref, atol=1e-12)
        one = fit_with_covariance(replace(d, response=Y[:, j]))
        np.testing.assert_allclose(fit.covariance[j], one.covariance, atol=1e-12)


def test_cr1_needs_two_clusters(rng):
    d = make_design(rng, n=30, n_clusters=1)
    fit = ols_fit(d)
    with pytest.raises(InsufficientClustersError):
        cluster_covariance(fit, d)


@pytest.mark.parametrize("scale", [1.0, 1e8], ids=["unit", "1e8"])
@pytest.mark.parametrize("pos", [0, 2, 3], ids=["first", "middle", "last"])
def test_cr1_covers_only_retained_columns(rng, pos, scale):
    # the bread comes from the unit-scaled R factor of the kept columns, so
    # it has to be unscaled by their norms
    d, names = twin_design(rng, pos, scale)
    full = fit_with_covariance(d)
    kept = [names.index(c) for c in full.columns]
    assert len(kept) == 3
    ref = brute_force_cluster_cov(d.matrix[:, kept], full.residuals, d.entities)
    # compare in each column's own units, so b's entries are not dwarfed
    units = np.array([scale if names[j] == "b" else 1.0 for j in kept])
    to_units = np.outer(units, units)
    np.testing.assert_allclose(
        full.covariance * to_units, ref * to_units, rtol=0, atol=1e-12
    )


def test_cr1_needs_residual_degrees_of_freedom(rng):
    # as many rows as retained columns: the N - K scale would divide by zero
    d = DesignMatrix(
        response=rng.normal(size=3),
        matrix=rng.normal(size=(3, 3)),
        columns=("a", "b", "c"),
        entities=np.arange(3),
        periods=np.arange(3),
    )
    fit = ols_fit(d)
    with pytest.raises(DegenerateDesignError, match="no residual degrees of freedom"):
        cluster_covariance(fit, d)


@pytest.mark.parametrize(
    "codes",
    [np.arange(5), np.arange(6) - 1, np.arange(6.0), np.array(list("abcdef"))],
    ids=["short", "negative", "float", "string"],
)
def test_design_rejects_bad_codes(rng, codes):
    # labels are the caller's to map to codes; the error names the field
    good = {"entities": np.arange(6), "periods": np.arange(6)}
    for name in good:
        with pytest.raises(PanelLPError, match=f"^{name} must be 6 non-negative"):
            DesignMatrix(
                response=rng.normal(size=6),
                matrix=rng.normal(size=(6, 1)),
                columns=("x",),
                **{**good, name: codes},
            )
    # the cluster axis is one of the two code axes, named
    with pytest.raises(PanelLPError, match="^cluster must be 'entity' or 'period'"):
        DesignMatrix(
            response=rng.normal(size=6),
            matrix=rng.normal(size=(6, 1)),
            columns=("x",),
            cluster="region",
            **good,
        )


def test_sparse_codes_cost_and_give_what_dense_codes_do(rng):
    # codes far past the row count are mapped to dense ones once, so the
    # per-code counts of the fit and the covariance are sized by the 200
    # rows, never by the largest code
    X = rng.normal(size=(200, 2))
    y = rng.normal(size=200)
    entities = np.repeat(np.arange(10), 20)
    periods = np.tile(np.arange(20), 10)
    fits = []
    for offset in (0, 10**6):
        codes = entities + offset
        tracemalloc.start()
        try:
            d = DesignMatrix(y, X, ("a", "b"), codes, periods + offset)
            fits.append(fit_with_covariance(d))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert d.entities.max() < d.n_rows  # mapped to dense codes
    dense, sparse = fits
    for attr in ("n_obs", "n_clusters", "n_entities", "n_periods"):
        assert getattr(sparse, attr) == getattr(dense, attr)
    assert (sparse.n_clusters, sparse.n_periods) == (10, 20)
    for attr in ("coefficients", "covariance"):
        assert getattr(sparse, attr).tobytes() == getattr(dense, attr).tobytes()


# ---------------------------------------------------------------------------
# intervals, p-values, stars
# ---------------------------------------------------------------------------


def test_stars_strict_thresholds():
    assert significance_stars(0.009) == "***"
    assert significance_stars(0.01) == "**"  # boundary takes the weaker mark
    assert significance_stars(0.049) == "**"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.099) == "*"
    assert significance_stars(0.1) == ""
    assert significance_stars(0.9) == ""


def oracle_pvalue(tstat, dist, df):
    if dist == "t":
        return 2.0 * float(stats.t.sf(abs(tstat), df))
    return 2.0 * float(stats.norm.sf(abs(tstat)))


def oracle_crit(level, dist, df):
    if dist == "t":
        return float(stats.t.ppf(0.5 + level / 2.0, df))
    return float(stats.norm.ppf(0.5 + level / 2.0))


# two-sided p-values at |t| = 1: Cauchy, 1 - 1/sqrt(3), textbook tables
T_P_AT_ONE = {1: 0.5, 2: 1.0 - 1.0 / np.sqrt(3.0), 99: 0.31974847413930174}
NORMAL_P_AT_ONE = 0.31731050786291415


@pytest.mark.parametrize("df", [1, 2, 99])
@pytest.mark.parametrize("dist", ["t", "normal"])
def test_interval_frozen_t_pvalue(rng, dist, df):
    # df + 1 clusters of 3 rows give df inference degrees of freedom
    G = df + 1
    n = 3 * G
    X = rng.normal(size=(n, 1))
    y = rng.normal(size=n)
    d = DesignMatrix(
        response=y,
        matrix=X,
        columns=("x",),
        entities=np.repeat(np.arange(G), 3),
        periods=np.tile(np.arange(3), G),
    )
    fit = fit_with_covariance(d)
    iv = coefficient_interval(fit, "x", dist=dist)
    # p depends only on |t| and df; the oracle must give the frozen
    # textbook value at |t| = 1 before it judges the production p-value
    tstat = iv.estimate / iv.se
    assert fit.df_inference == df
    frozen = T_P_AT_ONE[df] if dist == "t" else NORMAL_P_AT_ONE
    assert abs(oracle_pvalue(1.0, dist, df) - frozen) < 1e-15
    np.testing.assert_allclose(
        iv.p_value, oracle_pvalue(tstat, dist, df), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("df", [1, 2, 99])
@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("dist", ["t", "normal"])
def test_interval_brackets_and_level(rng, dist, level, df):
    d = make_design(rng, n=max(60, 10 * (df + 1)), n_clusters=df + 1)
    fit = fit_with_covariance(d)
    assert fit.df_inference == df
    iv = coefficient_interval(fit, "x1", level=level, dist=dist)
    wider = coefficient_interval(fit, "x1", level=(1.0 + level) / 2.0, dist=dist)
    assert iv.ci_low <= iv.estimate <= iv.ci_high
    assert iv.ci_high - iv.ci_low < wider.ci_high - wider.ci_low
    crit = oracle_crit(level, dist, df)
    np.testing.assert_allclose(
        [iv.ci_low, iv.ci_high],
        [iv.estimate - crit * iv.se, iv.estimate + crit * iv.se],
        rtol=0,
        atol=1e-15,
    )
    p = oracle_pvalue(iv.estimate / iv.se, dist, df)
    np.testing.assert_allclose(iv.p_value, p, rtol=0, atol=1e-15)


def test_interval_normal_reference_is_tighter(rng):
    d = make_design(rng, n_clusters=5)
    fit = fit_with_covariance(d)
    t_iv = coefficient_interval(fit, "x0", dist="t")
    z_iv = coefficient_interval(fit, "x0", dist="normal")
    assert z_iv.ci_high - z_iv.ci_low < t_iv.ci_high - t_iv.ci_low
    with pytest.raises(PanelLPError):
        coefficient_interval(fit, "x0", dist="bootstrap")
    for level in (1.0, 1.0 - 2.0**-53):  # 0.5 + level / 2 rounds to 1 at both
        for dist in ("t", "normal"):
            with pytest.raises(PanelLPError, match="level"):
                coefficient_interval(fit, "x0", level=level, dist=dist)


def test_interval_requires_covariance(rng):
    fit = ols_fit(make_design(rng))
    with pytest.raises(PanelLPError, match="covariance"):
        coefficient_interval(fit, "x0")


def test_interval_bracket_validation():
    with pytest.raises(PanelLPError):
        CoefficientInterval(
            name="x", estimate=1.0, se=0.1, ci_low=2.0, ci_high=3.0,
            p_value=0.5, stars="",
        )


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------


def test_linear_combination_matches_hand_computation(rng):
    d = make_design(rng, k=3)
    fit = fit_with_covariance(d)
    iv = linear_combination(fit, {"x0": 1.0, "x2": -2.0}, name="contrast")
    w = np.array([1.0, 0.0, -2.0])
    est = float(w @ fit.coefficients)
    se = float(np.sqrt(w @ fit.covariance @ w))
    assert iv.name == "contrast"
    np.testing.assert_allclose(iv.estimate, est, atol=1e-14)
    np.testing.assert_allclose(iv.se, se, atol=1e-14)


def test_linear_combination_exact_sums():
    # published effect decompositions must add exactly in floating point
    assert -0.028 + (-0.020) == -0.048
    assert -0.054 + 0.076 == 0.022


def test_linear_combination_rejects_dropped_and_unknown(rng):
    X = rng.normal(size=(40, 2))
    X = np.column_stack([X, X[:, 0]])
    y = rng.normal(size=40)
    d = DesignMatrix(
        response=y,
        matrix=X,
        columns=("a", "b", "copy"),
        entities=np.arange(40) % 8,
        periods=np.arange(40),
    )
    fit = fit_with_covariance(d)
    # the one column lookup of RegressionResult words both errors
    with pytest.raises(PanelLPError, match=r"^no coefficient for 'copy' \(dropped"):
        linear_combination(fit, {"a": 1.0, "copy": 1.0})
    unknown = r"^no coefficient for 'ghost'; retained columns: \['a', 'b'\]$"
    with pytest.raises(PanelLPError, match=unknown):
        linear_combination(fit, {"a": 1.0, "ghost": 1.0})
    with pytest.raises(PanelLPError):
        linear_combination(fit, {})
    with pytest.raises(PanelLPError, match="level"):
        linear_combination(fit, {"a": 1.0}, level=1.0)


def test_single_column_combination_equals_interval(rng):
    d = make_design(rng)
    fit = fit_with_covariance(d)
    iv = coefficient_interval(fit, "x1")
    lc = linear_combination(fit, {"x1": 1.0})
    np.testing.assert_allclose(
        [iv.estimate, iv.se, iv.ci_low, iv.ci_high, iv.p_value],
        [lc.estimate, lc.se, lc.ci_low, lc.ci_high, lc.p_value],
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# LSDV vs demeaning
# ---------------------------------------------------------------------------


def test_lsdv_equals_demeaning_balanced(rng):
    p = balanced_panel(rng, n_entities=7, n_periods=9, variables=("y", "a", "b"))
    demeaned = within_fit(p, "y", ["a", "b"])
    dummies = lsdv_fit(p, "y", ["a", "b"])
    for name in ("a", "b"):
        assert abs(demeaned.coefficient(name) - dummies.coefficient(name)) < 1e-8


def test_lsdv_equals_demeaning_unbalanced(rng):
    p = punch_holes(
        balanced_panel(rng, n_entities=9, n_periods=11, variables=("y", "a", "b")),
        rng,
        frac=0.15,
    )
    demeaned = within_fit(p, "y", ["a", "b"])
    dummies = lsdv_fit(p, "y", ["a", "b"])
    for name in ("a", "b"):
        assert abs(demeaned.coefficient(name) - dummies.coefficient(name)) < 1e-8
    assert demeaned.n_obs == dummies.n_obs


@pytest.mark.parametrize("layout", ["blocks", "chain"])
def test_lsdv_equals_demeaning_on_sparse_graphs(rng, layout):
    p = sparse_panel(rng, layout)
    demeaned = within_fit(p, "y", ["a", "b"])
    dummies = lsdv_fit(p, "y", ["a", "b"])
    for name in ("a", "b"):
        assert abs(demeaned.coefficient(name) - dummies.coefficient(name)) < 1e-8
    assert demeaned.n_obs == dummies.n_obs


def test_lsdv_single_fe_routes(rng):
    p = balanced_panel(rng, n_entities=5, n_periods=6, variables=("y", "a"))
    ent_only = lsdv_fit(p, "y", ["a"], time_fe=False)
    y = p.column("y") - p.column("y").mean(axis=1, keepdims=True)
    a = p.column("a") - p.column("a").mean(axis=1, keepdims=True)
    ref = float(
        (a.ravel() @ y.ravel()) / (a.ravel() @ a.ravel())
    )
    assert abs(ent_only.coefficient("a") - ref) < 1e-10


def test_lsdv_empty_sample(rng):
    p = balanced_panel(rng, n_entities=2, n_periods=3)
    p = p.replace_column("y", np.full((2, 3), np.nan))
    with pytest.raises(EmptySampleError):
        lsdv_fit(p, "y", ["x"])
