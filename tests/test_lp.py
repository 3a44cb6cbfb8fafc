"""Projection designs and the impulse-response driver."""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_same_bits, sample_case
from panellp import estimator, lp
from panellp.errors import (
    ConfigError,
    DataError,
    DegenerateDesignError,
    EmptySampleError,
    MissingVariableError,
    PanelLPError,
    UnidentifiedShockError,
)
from panellp.estimator import fit_with_covariance, lsdv_fit
from panellp.events import EventList, PandemicEvent, build_dummies
from panellp.lp import (
    GroupSpec,
    LPSpec,
    build_baseline_design,
    build_interaction_design,
    build_transition_design,
    build_transition_state,
    estimate_irf,
    pp_conversion,
    smooth_transition,
)
from panellp.panel import (
    Panel,
    VariableSpec,
    horizon_delta,
    scale_column,
    standardize,
    two_way_demean,
)
from panellp.simgen import DGPSpec, generate
from panellp.validation import brute_force_cluster_cov, solve_normal_equations


def sim_case(seed=3, **dgp_kw):
    base = dict(
        n_entities=30,
        n_periods=20,
        theta=(0.0, -0.03, -0.04, 0.0, 0.0, 0.0),
        shock_prob=0.12,
        seed=seed,
    )
    base.update(dgp_kw)
    panel, events, truth = generate(DGPSpec(**base))
    return panel, events, truth


def spec_y(**kw):
    base = dict(dependent=VariableSpec("y", transform="level"), horizons=3)
    base.update(kw)
    return LPSpec(**base)


# ---------------------------------------------------------------------------
# smooth transition weight
# ---------------------------------------------------------------------------


def test_transition_weight_frozen_values():
    assert smooth_transition(0.0, 1.5) == 0.5  # exact by symmetry
    assert smooth_transition(0.0, 0.7) == 0.5
    # F(z=1, sigma=1.5) = logistic(-1.5)
    assert smooth_transition(1.0, 1.5) == pytest.approx(
        0.18242552380635635, abs=1e-16
    )
    # deep recession z=-3: logistic(4.5)
    assert smooth_transition(-3.0, 1.5) == pytest.approx(
        0.9890130573694068, abs=1e-16
    )


def test_transition_weight_monotone_and_stable():
    z = np.linspace(-10, 10, 401)
    F = smooth_transition(z, 1.5)
    assert (np.diff(F) < 0).all()
    assert 0.0 <= F.min() and F.max() <= 1.0
    # far tails must not overflow
    assert smooth_transition(-1000.0, 1.5) == 1.0
    assert smooth_transition(1000.0, 1.5) == 0.0
    out = smooth_transition(np.array([0.0, np.nan]), 1.5)
    assert out[0] == 0.5 and np.isnan(out[1])
    with pytest.raises(PanelLPError):
        smooth_transition(0.0, 0.0)


def test_transition_state_standardizes_growth(rng):
    panel, _, _ = sim_case()
    state = build_transition_state(panel, "growth", sigma=1.5)
    vals = state.z[~np.isnan(state.z)]
    assert abs(vals.mean()) < 1e-12
    assert abs(vals.std(ddof=1) - 1.0) < 1e-12
    np.testing.assert_allclose(
        state.weight, smooth_transition(state.z, 1.5), equal_nan=True
    )
    # the original growth column is untouched
    assert "__z" not in panel.variables


def test_pp_conversion_matches_hand_product():
    got = pp_conversion(0.06, 32.3)
    assert got == 0.06 * 32.3
    assert 1.9 < got < 2.0


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    dep = VariableSpec("y")
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, kind="fancy")
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, horizons=-1)
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, conf_level=1.0)
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, sigma=-2.0)
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, cluster="region")
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, kind="transition")  # no growth variable
    with pytest.raises(PanelLPError):
        LPSpec(dependent=dep, r2_mode="adjusted")
    assert LPSpec(dependent=dep, lag_order=0, dummy_lags=0).lag_order == 0


def test_transition_design_takes_no_controls():
    # its cycle-state block replaces the controls, so any control is refused
    dep = VariableSpec("y")
    with pytest.raises(ConfigError, match="transition design takes no controls"):
        LPSpec(dependent=dep, kind="transition", growth="g", controls=(VariableSpec("x"),))
    assert LPSpec(dependent=dep, kind="transition", growth="g").controls == ()


def test_a_spec_with_a_long_lag_order_builds_fast():
    # the repeated-name check once compared each design column with every
    # one before it: a spec with 8,000 lags took 0.65 s to build
    dep = VariableSpec("y")
    start = time.perf_counter()
    spec = LPSpec(dependent=dep, lag_order=50_000)
    assert time.perf_counter() - start < 5.0
    assert spec.lag_order == 50_000
    late = VariableSpec("outcome_growth_lag_49999")
    with pytest.raises(ConfigError, match="two columns named 'outcome_growth_lag_49999'"):
        LPSpec(dependent=dep, lag_order=50_000, controls=(late,))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_sigma_must_be_finite(sigma):
    # nan <= 0 is False, so a bare sign check let nan and inf through
    dep = VariableSpec("y")
    with pytest.raises(PanelLPError, match="sigma"):
        LPSpec(dependent=dep, kind="transition", growth="g", sigma=sigma)
    with pytest.raises(PanelLPError, match="sigma"):
        DGPSpec(sigma=sigma)
    with pytest.raises(PanelLPError, match="sigma"):
        smooth_transition(0.0, sigma)


def test_group_spec():
    with pytest.raises(PanelLPError):
        GroupSpec("oecd", frozenset())
    g = GroupSpec("oecd", frozenset({"E00", "E02"}))
    p = Panel(["E00", "E01", "E02"], [2000, 2001], {"y": np.zeros((3, 2))})
    ind = g.indicator(p)
    np.testing.assert_array_equal(ind[:, 0], [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(ind[:, 0], ind[:, 1])


# ---------------------------------------------------------------------------
# baseline design
# ---------------------------------------------------------------------------


def test_baseline_design_column_order():
    panel, events, _ = sim_case()
    spec = spec_y(controls=(VariableSpec("growth"),))
    d = build_baseline_design(panel, events, spec, k=1)
    assert d.columns == (
        "shock",
        "shock_lag_1",
        "shock_lag_2",
        "growth",
        "outcome_growth_lag_1",
        "outcome_growth_lag_2",
    )
    assert d.matrix.shape == (d.n_rows, 6)


def test_baseline_design_without_fe_exposes_raw_columns():
    # with both FE off the design matrix is the raw listwise sample, so the
    # shock column must be exactly the 0/1 dummy
    panel, events, truth = sim_case()
    spec = spec_y(entity_fe=False, time_fe=False)
    d = build_baseline_design(panel, events, spec, k=2)
    shock_col = d.matrix[:, 0]
    assert set(np.unique(shock_col)) <= {0.0, 1.0}
    # the row codes are grid positions: they index the panel's labels
    entities = np.asarray(panel.entities)[d.entities]
    cells = list(zip(entities, np.asarray(panel.periods)[d.periods]))
    hits = {cell for cell, s in zip(cells, shock_col) if s == 1.0}
    assert hits == set(truth.shock_cells) & set(cells)
    # response equals the raw forward delta of y
    y = panel.column("y")
    for row in range(0, d.n_rows, 17):
        i, j = d.entities[row], d.periods[row]
        assert d.response[row] == pytest.approx(y[i, j + 2] - y[i, j])


def test_baseline_sample_shrinks_with_horizon():
    panel, events, _ = sim_case()
    irf = estimate_irf(panel, events, spec_y(horizons=4))
    ns = [h.result.n_obs for h in irf.horizons]
    assert all(a >= b for a, b in zip(ns, ns[1:]))
    # lags cost the first rows, horizons the last ones
    assert irf.horizons[0].result.n_obs == 30 * (20 - 3)
    assert irf.horizons[4].result.n_obs == 30 * (20 - 7)


def test_baseline_demeaned_design_is_group_centered():
    panel, events, _ = sim_case()
    d = build_baseline_design(panel, events, spec_y(), k=1)
    for col in range(d.matrix.shape[1]):
        vals = d.matrix[:, col]
        for ent in np.unique(d.entities):
            sel = d.entities == ent
            assert abs(vals[sel].mean()) < 1e-8
        for per in np.unique(d.periods):
            sel = d.periods == per
            assert abs(vals[sel].mean()) < 1e-8


def test_period_clustered_design_labels_and_covariance():
    panel, events, _ = sim_case()
    spec = spec_y(cluster="period", horizons=2)
    irf = estimate_irf(panel, events, spec)
    for h in irf.horizons:
        d = build_baseline_design(panel, events, spec, h.horizon)
        assert d.cluster == "period"
        # the balanced sample keeps every entity from the fourth period up
        # to the last one the horizon-k lead reaches, period by period
        kept = panel.periods[3 : panel.n_periods - h.horizon]
        np.testing.assert_array_equal(
            np.asarray(panel.entities)[d.entities],
            np.tile(panel.entities, len(kept)),
        )
        np.testing.assert_array_equal(
            np.asarray(panel.periods)[d.periods], np.repeat(kept, panel.n_entities)
        )
        fit = h.result
        assert fit.n_clusters == len(kept)
        X = d.matrix[:, [d.columns.index(c) for c in fit.columns]]
        ref = brute_force_cluster_cov(X, fit.residuals, d.periods)
        np.testing.assert_allclose(fit.covariance, ref, rtol=0, atol=1e-12)


def wipe(panel, entity=None, period=None):
    """Blank every variable of one entity's row or of one period's column."""
    for name in panel.variables:
        grid = panel.column(name).copy()
        if entity is not None:
            grid[entity, :] = np.nan
        if period is not None:
            grid[:, period] = np.nan
        panel = panel.replace_column(name, grid)
    return panel


def cluster_codes(design):
    """The codes of ``design``'s cluster axis."""
    return design.entities if design.cluster == "entity" else design.periods


@pytest.mark.parametrize("cluster", ["entity", "period"])
@pytest.mark.parametrize("gap", ["entity", "period"])
def test_row_codes_with_gaps_count_and_cluster_like_labels(gap, cluster):
    panel, events, _ = sim_case()
    panel = wipe(panel, **{gap: 10})
    d = build_baseline_design(panel, events, spec_y(cluster=cluster), k=2)
    gapped = d.entities if gap == "entity" else d.periods
    # the wiped grid position leaves a gap between codes in use
    assert 10 not in gapped and gapped.min() < 10 < gapped.max()
    fit = fit_with_covariance(d)
    counts = (fit.n_entities, fit.n_periods, fit.n_clusters)
    codes = (d.entities, d.periods, cluster_codes(d))
    assert counts == tuple(len(np.unique(x)) for x in codes)
    X = d.matrix[:, [d.columns.index(c) for c in fit.columns]]
    ref = brute_force_cluster_cov(X, fit.residuals, cluster_codes(d))
    np.testing.assert_allclose(fit.covariance, ref, rtol=0, atol=1e-12)


def test_horizon_with_empty_and_single_row_entities_matches_lsdv():
    # At horizon 1 the first, a middle and the last entity have no rows,
    # entity 4 has one row and period 6 has none: the entity segment sums
    # must skip the empty entities (a reduceat segment of length zero
    # would read the next row) and leave the singleton its own mean.
    panel, events, _ = sim_case()
    n_ent = panel.n_entities
    y = panel.column("y").copy()
    y[[0, n_ent // 2, n_ent - 1], :] = np.nan
    y[4, :] = np.nan
    y[4, 9:11] = panel.column("y")[4, 9:11]
    growth = panel.column("growth").copy()
    growth[:, 6] = np.nan
    panel = panel.replace_column("y", y).replace_column("growth", growth)
    spec = spec_y(lag_order=0, dummy_lags=0, controls=(VariableSpec("growth"),))
    k = 1
    fit = estimate_irf(panel, events, spec).horizons[k]

    shock = lp.build_dummies(events, panel).column("all")
    work = horizon_delta(panel, "y", k, out="resp").with_column("shock", shock)
    names = ["resp", "shock", "growth"]
    mask = work.present_mask(names)
    ent_rows = np.count_nonzero(mask, axis=1)
    assert ent_rows[[0, n_ent // 2, n_ent - 1]].tolist() == [0, 0, 0]
    assert ent_rows[4] == 1 and not mask[:, 6].any()
    assert fit.result.n_obs == mask.sum() and fit.result.n_entities == n_ent - 3

    ref = lsdv_fit(work, "resp", names[1:])
    assert fit.result.columns == ref.columns
    np.testing.assert_allclose(
        fit.result.coefficients, ref.coefficients, rtol=0, atol=1e-10
    )
    demeaned = two_way_demean(work, names)
    ent_idx, per_idx = np.nonzero(mask)
    seen, per_cnt = ent_rows > 0, np.count_nonzero(mask, axis=0)
    for name in names:
        vals = demeaned.column(name)[mask]
        ent_sums = np.bincount(ent_idx, weights=vals, minlength=n_ent)
        per_sums = np.bincount(per_idx, weights=vals, minlength=panel.n_periods)
        assert np.abs(ent_sums[seen] / ent_rows[seen]).max() < 1e-10
        assert np.abs(per_sums[per_cnt > 0] / per_cnt[per_cnt > 0]).max() < 1e-10


@pytest.mark.parametrize("built", ["entity", "period"])
def test_cluster_count_reuses_a_shared_code_array(monkeypatch, built):
    panel, events, _ = sim_case()
    panel = wipe(panel, entity=10)
    d = build_baseline_design(panel, events, spec_y(cluster=built), k=2)
    calls = []
    real = estimator._count_codes
    monkeypatch.setattr(
        estimator, "_count_codes", lambda codes: calls.append(codes) or real(codes)
    )
    fit = estimator.ols_fit(d)
    assert d.cluster == built
    codes = (d.entities, d.periods, cluster_codes(d))
    assert (fit.n_entities, fit.n_periods, fit.n_clusters) == tuple(
        len(np.unique(x)) for x in codes
    )
    # the clusters are the codes of the design's cluster axis, so the
    # entity and period codes are counted once each
    assert len(calls) == 2


def test_horizon_zero_response_is_identically_zero():
    panel, events, _ = sim_case()
    irf = estimate_irf(panel, events, spec_y(horizons=2))
    iv0 = irf.series("shock")[0]
    assert iv0.estimate == 0.0
    assert iv0.se == 0.0
    assert iv0.ci_low == 0.0 and iv0.ci_high == 0.0
    assert iv0.p_value == 1.0 and iv0.stars == ""
    assert irf.horizons[0].result.r_squared == 0.0


def test_empty_sample_reports_missing_counts():
    panel, events, _ = sim_case(n_periods=8)
    spec = spec_y()
    # horizon 7 on an 8-period panel: lags eat t < 3, the response eats the
    # rest, so the listwise sample is empty
    with pytest.raises(EmptySampleError, match="missing cells per variable"):
        build_baseline_design(panel, events, spec, k=7)
    # the driver names the first horizon that fails
    with pytest.raises(PanelLPError, match="horizon"):
        estimate_irf(panel, events, spec_y(horizons=7))


def test_an_empty_sample_names_the_response_and_the_nine_largest_counts():
    # 200 outcome-growth lags on the sample's 40 periods: from lag 39 on a
    # lag misses all 400 cells, and the message stays one short line
    panel, events, spec = sample_case()
    with pytest.raises(EmptySampleError) as info:
        estimate_irf(panel, events, replace(spec, lag_order=200))
    lags = ", ".join(f"'outcome_growth_lag_{j}': 400" for j in range(39, 48))
    assert str(info.value) == (
        "horizon 0: no complete rows; missing cells per variable: "
        f"{{'response': 0, {lags}}} (+194 more)"
    )
    # a one-horizon design names its horizon too
    with pytest.raises(EmptySampleError) as one:
        build_baseline_design(panel, events, replace(spec, lag_order=200), 0)
    assert str(one.value) == str(info.value)


def test_each_transform_receives_only_the_inputs_of_its_grid(monkeypatch):
    # every working grid is made from a panel of at most a source and its
    # population, so a study with 30 outcome lags never grows one panel
    panel, events, spec = sample_case()
    widths = {}
    for name in ("add_lag", "apply_variable_spec", "first_difference", "horizon_delta"):

        def recording(pnl, *args, _real=getattr(lp, name), _name=name, **kwargs):
            widths.setdefault(_name, set()).add(len(pnl.variables))
            return _real(pnl, *args, **kwargs)

        monkeypatch.setattr(lp, name, recording)
    estimate_irf(panel, events, replace(spec, lag_order=30))
    assert len(widths) == 4
    assert max(map(max, widths.values())) <= 2, widths


@pytest.mark.parametrize("horizons", [14, 30, 5000])
def test_horizons_past_the_panel_end_keep_the_first_failure(horizons):
    # On 12 periods every horizon from 12 on has an empty sample, and the
    # stacked pass builds it without error: the run still fails at horizon
    # 8, whose design keeps rows but no usable column, with that horizon's
    # class and message.  Horizons past 12 are not built, so a large H
    # costs no more memory than H = 14, up to allocator noise well under
    # one float grid of the panel; each horizon built past the end would
    # add several.
    panel, events, _ = sim_case(n_periods=12)
    cells = panel.n_entities * panel.n_periods

    def failure_and_peak(h):
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateDesignError) as info:
                estimate_irf(panel, events, spec_y(horizons=h))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return str(info.value), peak

    failure_and_peak(14)  # first-call caches stay out of the peak
    message, peak = failure_and_peak(horizons)
    assert message == "horizon 8: design has no usable columns (every column is zero)"
    assert peak <= failure_and_peak(14)[1] + 8 * cells
    # each horizon past the end alone: an empty sample, every response
    # cell missing
    for k in (12, horizons):
        with pytest.raises(EmptySampleError, match=f"'response': {cells}"):
            build_baseline_design(panel, events, spec_y(), k)


def test_design_labels_are_the_panel_labels_of_its_rows():
    # a design labels its rows by their grid positions, grouped by its
    # cluster axis: entity by entity, or period by period; the wiped entity
    # 10 leaves its code unused
    panel, events, _ = sim_case()
    panel = wipe(panel, entity=10)
    E, T, k = panel.n_entities, panel.n_periods, 2
    # the lags cost the first three periods, the lead the last k
    kept = np.arange(3, T - k)
    entities = np.delete(np.arange(E), 10)
    for cluster in ("entity", "period"):
        d = build_baseline_design(panel, events, spec_y(cluster=cluster), k)
        if cluster == "entity":
            np.testing.assert_array_equal(d.entities, np.repeat(entities, kept.size))
            np.testing.assert_array_equal(d.periods, np.tile(kept, E - 1))
        else:
            np.testing.assert_array_equal(d.entities, np.tile(entities, kept.size))
            np.testing.assert_array_equal(d.periods, np.repeat(kept, E - 1))
        assert d.cluster == cluster


@pytest.mark.parametrize("cluster", ["entity", "period"])
def test_gathered_rows_are_grouped_by_the_cluster_axis(cluster):
    # every run's design lists its rows cluster by cluster, so the cluster
    # codes are nondecreasing, even around a wiped entity and period; each
    # horizon's covariance still matches the per-cluster loop
    panel, events, spec = lead_case(2, cluster=cluster)
    panel = wipe(panel, entity=10)
    growth = panel.column("growth").copy()
    growth[:, 10] = np.nan  # a regressor's hole leaves the period out of every horizon
    panel = panel.replace_column("growth", growth)
    study = lp._build_study(panel, events, spec, range(spec.horizons + 1))
    assert len(study.runs[0]) == 3  # a multi-response run is among them
    for r in range(len(study.runs)):
        d, flat = lp._gather(study, r, spec)
        codes = cluster_codes(d)
        assert (np.diff(codes) >= 0).all()
        assert 10 not in d.entities and 10 not in d.periods
        np.testing.assert_array_equal(flat, d.entities * panel.n_periods + d.periods)
        fit = fit_with_covariance(d)
        X = d.matrix[:, [d.columns.index(c) for c in fit.columns]]
        for j in range(len(study.runs[r])):
            ref = brute_force_cluster_cov(X, fit.residuals[:, j], codes)
            np.testing.assert_allclose(fit.covariance[j], ref, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# estimation driver
# ---------------------------------------------------------------------------


def test_irf_peak_memory_is_its_stacks_and_one_horizon_block():
    # An unbalanced 190 x 60 transition panel (staggered entry, 5 % holes),
    # H = 10.  With V design columns, E x T cells and n rows in the largest
    # horizon, one run may hold, in 8-byte floats: about 4 V E T while the
    # study builds its working grids, the regressor stack and its
    # period-major copy; 2 (H + 1) E T for every horizon's response or
    # float sample mask and what it is stacked from; and 2 n (V + 1) for
    # the horizon being fitted, its block and the fit's scores.  Keeping
    # every horizon's block alive adds about (H + 1) n (V + 1) and fails.
    E, T, H = 190, 60, 10
    full, events, _ = generate(
        DGPSpec(
            n_entities=E, n_periods=T, noise_sd=0.05, error_rho=0.0, ar_coef=0.0,
            theta=(0.0,), theta_recession=(0.0, -0.05, -0.05),
            theta_expansion=(0.0, 0.02, 0.02), shock_prob=0.1, seed=17,
        )
    )
    rng = np.random.default_rng(17)
    gone = np.arange(T) < rng.integers(0, T // 2, size=(E, 1))
    gone |= rng.random((E, T)) < 0.05
    cols = {v: np.where(gone, np.nan, full.column(v)) for v in full.variables}
    panel = Panel(full.entities, full.periods, cols)
    spec = spec_y(kind="transition", growth="growth", horizons=H, lag_order=2)
    estimate_irf(panel, events, spec)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        irf = estimate_irf(panel, events, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = irf.horizons[0]
    V = len(first.result.columns) + len(first.result.dropped_columns)
    n = max(h.result.n_obs for h in irf.horizons)
    assert V == 10 and n > 4000
    assert peak < 8 * (4 * V * E * T + 2 * (H + 1) * E * T + 2 * n * (V + 1))


def test_jobs_changes_no_output_bit():
    # jobs is accepted and has no effect: a study of several runs gives the
    # default call's bits under any value
    panel, events, spec = lead_case(2)
    want = estimate_irf(panel, events, spec)
    assert len(lp._build_study(panel, events, spec, range(5)).runs) == 3
    for jobs in (1, 2, 4):
        assert_same_bits(estimate_irf(panel, events, spec, jobs=jobs), want, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_horizon_failure_keeps_the_exception_and_its_attributes(monkeypatch, jobs):
    real = lp._estimate_horizon

    def fail_at_two(study, r, j, *args):
        if study.runs[r][j] == 2:
            raise DataError("bad", path="p.csv", line=3)
        return real(study, r, j, *args)

    monkeypatch.setattr(lp, "_estimate_horizon", fail_at_two)
    panel, events, _ = sim_case()
    with pytest.raises(DataError) as info:
        estimate_irf(panel, events, spec_y(horizons=3), jobs=jobs)
    exc = info.value
    assert type(exc) is DataError
    assert exc.path == "p.csv" and exc.line == 3
    assert str(exc) == "horizon 2: p.csv:3: bad"


@pytest.mark.parametrize("kind", ["baseline", "transition"])
def test_horizon_fits_sort_no_labels(monkeypatch, kind):
    # the fits count and group by the grid codes the designs carry; the set
    # routines sort through numpy's module-level unique, which the np.unique
    # patch alone cannot see
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    panel, events, _ = sim_case()
    spec = spec_y(kind=kind, growth="growth" if kind == "transition" else None)
    for name in ("unique", "setdiff1d", "intersect1d", "isin"):
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    estimate_irf(panel, events, spec)
    assert calls == []


def kind_case(kind):
    """A simulated panel with a few holes, and the arguments that run
    ``kind`` through ``estimate_irf`` and through its ``build_*_design``."""
    panel, events, _ = sim_case()
    for name, cells in (("y", [(3, 7), (12, 15)]), ("growth", [(5, 9)])):
        grid = panel.column(name).copy()
        for cell in cells:
            grid[cell] = np.nan
        panel = panel.replace_column(name, grid)
    spec = spec_y(kind=kind, growth="growth" if kind == "transition" else None)
    group = GroupSpec("treated", frozenset(panel.entities[:15]))
    if kind == "baseline":
        return panel, events, spec, {}, lambda k: build_baseline_design(
            panel, events, spec, k
        )
    if kind == "interaction":
        return panel, events, spec, {"group": group}, lambda k: (
            build_interaction_design(panel, events, group, spec, k)
        )
    return panel, events, spec, {}, lambda k: build_transition_design(
        panel, events, spec, k
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_dummies_are_built_once_per_irf(monkeypatch, kind, jobs):
    calls = []
    real = lp.build_dummies

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "build_dummies", counting)
    panel, events, spec, extra, _ = kind_case(kind)
    estimate_irf(panel, events, spec, jobs=jobs, **extra)
    assert len(calls) == 1


# every working column a study builds; an input column of one of these
# names is not among the spec's inputs, so it is never read
WORKING_NAMES = (
    "shock", "group", "shock_x_group", "shock_lag_1", "outcome_growth_lag_1",
    "growth_lag_1", "recession_weight_lag_1", "shock_recession",
    "__dep", "__dgrow", "__fz", "__z",
)


@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_input_columns_named_like_working_columns_change_nothing(kind, rng):
    panel, events, spec, extra, _ = kind_case(kind)
    if kind != "transition":
        spec = replace(spec, controls=(VariableSpec("growth"),))
    want = estimate_irf(panel, events, spec, **extra)
    for name in WORKING_NAMES:
        grid = rng.normal(size=(panel.n_entities, panel.n_periods))
        grid[0] = np.nan
        got = estimate_irf(panel.with_column(name, grid), events, spec, **extra)
        assert_same_bits(got, want, name)


@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_input_columns_the_spec_reads_may_take_working_names(kind):
    # the dependent's source, and the growth column (a control's source, or
    # the transition design's growth), under a working column's name give
    # the bits of the same columns under their own names
    panel, events, spec, extra, _ = kind_case(kind)
    if kind != "transition":
        spec = replace(spec, controls=(VariableSpec("g", source="growth"),))
    want = estimate_irf(panel, events, spec, **extra)
    for name in WORKING_NAMES:
        for old in ("y", "growth"):
            cols = {name if v == old else v: panel.column(v) for v in panel.variables}
            renamed = Panel(panel.entities, panel.periods, cols)
            if old == "y":
                reads = replace(spec, dependent=VariableSpec("y", source=name))
            elif kind == "transition":
                reads = replace(spec, growth=name)
            else:
                reads = replace(spec, controls=(VariableSpec("g", source=name),))
            got = estimate_irf(renamed, events, reads, **extra)
            assert_same_bits(got, want, (name, old))


@pytest.mark.parametrize(
    "kind, name", [("baseline", "__dgrow"), ("interaction", "__dgrow"), ("interaction", "group")]
)
def test_a_control_named_like_a_grid_outside_the_design_is_that_control(kind, name):
    # the outcome's growth is no design column, nor is the group's
    # membership when it is only reported: a control of either name gives
    # the bits of the same control under a name of its own
    panel, events, spec, extra, _ = kind_case(kind)
    spec = replace(spec, group_handling="report_only")

    def run(n):
        ctrl = VariableSpec(n, source="growth")
        return estimate_irf(panel, events, replace(spec, controls=(ctrl,)), **extra)

    got, want = run(name), run("g")
    assert got.diagnostics["missing_counts"][name] == want.diagnostics["missing_counts"]["g"]
    for g, w in zip(got.horizons, want.horizons, strict=True):
        assert g.intervals == w.intervals
        for field in ("coefficients", "covariance", "residuals"):
            assert getattr(g.result, field).tobytes() == getattr(w.result, field).tobytes()


def test_a_missing_input_is_reported_before_any_transform():
    # the dependent cannot be standardized, but the missing growth column
    # is what the study reports
    panel, events, spec, _, _ = kind_case("transition")
    panel = panel.with_column("flat", np.ones((panel.n_entities, panel.n_periods)))
    dep = VariableSpec("y", "standardize", source="flat")
    with pytest.raises(MissingVariableError, match="^no variable named 'nope';"):
        estimate_irf(panel, events, replace(spec, dependent=dep, growth="nope"))


@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_a_sample_without_a_shocked_cell_leaves_the_shock_unidentified(kind):
    # the one event hits the panel's last year: horizon 0 sees it, and
    # from horizon 1 on no sample row reaches that year
    panel, _, spec, extra, _ = kind_case(kind)
    events = EventList((PandemicEvent("late", panel.periods[-1], panel.entities[10:20]),))
    with pytest.raises(UnidentifiedShockError) as info:
        estimate_irf(panel, events, spec, **extra)
    first, last = panel.periods[3], panel.periods[-2]
    assert str(info.value) == (
        f"horizon 1: the sample ({first}-{last}) holds no shocked cell, "
        "so no event identifies the shock"
    )


@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_a_shock_the_year_effects_absorb_names_its_events(kind):
    # both events hit every entity, so each shocked year is shocked in
    # every sample row and the year effects absorb the shock
    panel, _, spec, extra, _ = kind_case(kind)
    years = panel.periods[10], panel.periods[14]
    events = EventList(
        tuple(PandemicEvent(n, y, panel.entities) for n, y in zip(("flu", "sars"), years))
    )
    with pytest.raises(UnidentifiedShockError) as info:
        estimate_irf(panel, events, spec, **extra)
    assert str(info.value) == (
        "horizon 0: the year effects absorb the shock: every shocked cell of the "
        f"sample sits in a year whose sample rows are all shocked "
        f"(flu {years[0]}, sars {years[1]})"
    )
    # without year effects nothing absorbs it
    estimate_irf(panel, events, replace(spec, time_fe=False), **extra)


def test_a_shock_its_entity_effect_absorbs_keeps_the_generic_message():
    # the one shocked country has a single sample row (a row needs y at
    # t-3..t), in its shock year, so its entity effect absorbs the shock;
    # the other countries' rows of that year are unshocked, so the year
    # effects do not, and the drop is reported as one
    panel, _, _ = sim_case()
    y = panel.column("y").copy()
    y[0, :3] = y[0, 7:] = np.nan
    panel = panel.replace_column("y", y)
    events = EventList((PandemicEvent("solo", panel.periods[6], panel.entities[:1]),))
    with pytest.raises(PanelLPError) as info:
        estimate_irf(panel, events, spec_y(horizons=0))
    assert type(info.value) is PanelLPError
    assert str(info.value) == "horizon 0: no coefficient for 'shock' (dropped as collinear)"


@pytest.mark.parametrize("name", ["co2_pc", "pop"])
def test_a_per_capita_outcome_may_take_its_source_or_population_name(name):
    # the outcome is made under a private name, so co2_pc / pop named
    # co2_pc or pop gives the bits of the same outcome under a name of its own
    panel, events, spec = sample_case()
    panel = panel.with_column("pop", np.full((panel.n_entities, panel.n_periods), 3.0))

    def run(n):
        dep = VariableSpec(n, "per_capita_log", source="co2_pc", population="pop")
        return estimate_irf(panel, events, replace(spec, dependent=dep))

    assert_same_bits(run(name), run("co2_per_head"))


@pytest.mark.parametrize("role", ["dependent", "control"])
def test_a_standardized_input_gives_the_bits_of_its_standardized_grid(role):
    # the standardize transform, applied by the study, equals a level input
    # that already holds panel.standardize's grid
    panel, events, spec = sample_case()
    src = "co2_pc" if role == "dependent" else "trade_share"
    panel = panel.with_column("held", standardize(panel, src, out="z").column("z"))
    via, held = (
        VariableSpec(f"standardize_{src}", "standardize", source=src),
        VariableSpec(f"standardize_{src}", source="held"),
    )
    if role == "dependent":
        specs = (replace(spec, dependent=v) for v in (via, held))
    else:
        specs = (replace(spec, controls=(spec.controls[0], v)) for v in (via, held))
    got, want = (estimate_irf(panel, events, s) for s in specs)
    assert_same_bits(got, want)


def test_a_series_lost_for_another_cause_keeps_the_generic_message():
    # no group member is ever shocked, so the product term is zero and
    # dropped while the shock itself is identified
    panel, _, _ = sim_case()
    events = EventList(
        (
            PandemicEvent("a", panel.periods[8], panel.entities[:5]),
            PandemicEvent("b", panel.periods[12], panel.entities[3:9]),
        )
    )
    group = GroupSpec("calm", frozenset(panel.entities[10:]))
    with pytest.raises(PanelLPError) as info:
        estimate_irf(panel, events, spec_y(kind="interaction"), group=group)
    assert type(info.value) is PanelLPError
    assert str(info.value) == (
        "horizon 0: no coefficient for 'shock_x_group' (dropped as collinear)"
    )


@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_a_run_that_keeps_its_series_looks_for_no_cause(monkeypatch, kind):
    def unexpected(*args):
        raise AssertionError("looked for a cause")

    monkeypatch.setattr(lp, "_check_shock_identified", unexpected)
    panel, events, spec, extra, _ = kind_case(kind)
    estimate_irf(panel, events, spec, **extra)


@pytest.mark.parametrize("kind", ["baseline", "interaction", "transition"])
def test_every_horizon_matches_its_build_design_bitwise(kind):
    panel, events, spec, extra, design = kind_case(kind)
    irf = estimate_irf(panel, events, spec, **extra)
    assert irf.diagnostics["missing_counts"]["y"] == 2
    assert not [n for n in irf.diagnostics["missing_counts"] if n.startswith("__")]
    for h in irf.horizons:
        d = design(h.horizon)
        fit = fit_with_covariance(d)
        assert fit.coefficients.tobytes() == h.result.coefficients.tobytes()
        assert fit.covariance.tobytes() == h.result.covariance.tobytes()
        assert fit.dropped_columns == h.result.dropped_columns
        assert fit.n_obs == h.result.n_obs == d.n_rows


def lead_case(leads, H=4, cluster="entity"):
    """A simulated panel whose regression controls for the shock's leads
    1..``leads``, as the irf-recovery suite does, and a ``growth`` control
    with a hole.  A lead reaches ``leads`` periods past a row, so horizons
    0..``leads`` share one sample and each later horizon has its own."""
    panel, events, _ = sim_case()
    grid = panel.column("growth").copy()
    grid[5, 9] = np.nan
    panel = panel.replace_column("growth", grid)
    shock = build_dummies(events, panel).column("all")
    for j in range(1, leads + 1):
        lead = np.full_like(shock, np.nan)
        lead[:, :-j] = shock[:, j:]
        panel = panel.with_column(f"shock_lead_{j}", lead)
    controls = (VariableSpec("growth"),) + tuple(
        VariableSpec(f"shock_lead_{j}") for j in range(1, leads + 1)
    )
    return panel, events, spec_y(horizons=H, controls=controls, cluster=cluster)


def assert_relative(got, want, rtol=1e-12):
    """``got`` within ``rtol`` of ``want``'s largest magnitude."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def assert_normal_equations(design, result):
    """``result`` against longdouble normal equations on ``design``'s kept
    columns, with the ols-oracle suite's bounds."""
    X = design.matrix[:, [design.columns.index(c) for c in result.columns]]
    ref = solve_normal_equations(X, design.response)
    assert np.abs(result.coefficients - ref).max() < 1e-9
    assert np.abs(X.T @ result.residuals).max() < 1e-8


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cluster", ["entity", "period"])
@pytest.mark.parametrize("leads", [4, 2])
def test_shared_sample_horizons_match_their_build_design_bitwise(leads, cluster, jobs):
    # the horizons of a run of equal samples are the right-hand sides of one
    # fit, so each matches the design built for that horizon alone to 1e-12
    # relative, and longdouble normal equations; a horizon whose sample is
    # its own keeps that design's bits
    panel, events, spec = lead_case(leads, cluster=cluster)
    study = lp._build_study(panel, events, spec, range(spec.horizons + 1))
    expected = [tuple(range(leads + 1))] + [(k,) for k in range(leads + 1, 5)]
    assert list(study.runs) == expected
    irf = estimate_irf(panel, events, spec, jobs=jobs)
    assert [h.horizon for h in irf.horizons] == list(range(5))
    for h in irf.horizons:
        d = build_baseline_design(panel, events, spec, h.horizon)
        fit = fit_with_covariance(d)
        assert fit.dropped_columns == h.result.dropped_columns
        assert fit.n_obs == h.result.n_obs
        for field in ("coefficients", "covariance", "residuals"):
            got, want = getattr(h.result, field), getattr(fit, field)
            if h.horizon > leads:
                assert got.tobytes() == want.tobytes()
            else:
                assert_relative(got, want)
        assert_normal_equations(d, h.result)


def test_an_absorbed_control_is_dropped_at_every_horizon_of_a_run():
    # a time-invariant control is absorbed by the entity effects; the one
    # factorization of the run drops it for every horizon, as each horizon's
    # own design does
    panel, events, spec = lead_case(4)
    rng = np.random.default_rng(5)
    fixed = rng.normal(size=(panel.n_entities, 1)).repeat(panel.n_periods, axis=1)
    panel = panel.with_column("fixed", fixed)
    spec = replace(spec, controls=spec.controls + (VariableSpec("fixed"),))
    study = lp._build_study(panel, events, spec, range(spec.horizons + 1))
    assert study.runs == (tuple(range(5)),)
    irf = estimate_irf(panel, events, spec)
    for h in irf.horizons:
        d = build_baseline_design(panel, events, spec, h.horizon)
        fit = fit_with_covariance(d)
        assert h.result.dropped_columns == fit.dropped_columns == ("fixed",)
        assert h.result.columns == fit.columns
        for field in ("coefficients", "covariance", "residuals"):
            assert_relative(getattr(h.result, field), getattr(fit, field))
        assert_normal_equations(d, h.result)


@pytest.mark.parametrize("leads", [4, 2])
def test_one_design_and_one_factorization_per_distinct_sample(monkeypatch, leads):
    # the run 0..leads is one design with a response per horizon, checked,
    # counted and factored once; every later horizon has its own
    fits, checks, counts = [], [], []
    real_fit, real_check = estimator.ols_fit, estimator.DesignMatrix.__post_init__
    real_count = estimator._count_codes

    def counting_fit(design):
        fits.append(design.response.shape[1])
        return real_fit(design)

    def counting_check(design):
        checks.append(design)
        real_check(design)

    def counting_codes(codes):
        counts.append(codes)
        return real_count(codes)

    monkeypatch.setattr(estimator, "ols_fit", counting_fit)
    monkeypatch.setattr(estimator.DesignMatrix, "__post_init__", counting_check)
    monkeypatch.setattr(estimator, "_count_codes", counting_codes)
    panel, events, spec = lead_case(leads)
    irf = estimate_irf(panel, events, spec)
    assert fits == [leads + 1] + [1] * (4 - leads)
    assert len(checks) == len(fits)
    assert len(counts) == 2 * len(fits)  # entities and periods; clusters are either
    assert len(irf.horizons) == 5


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("leads", [4, 2])
def test_a_block_is_gathered_once_per_distinct_sample(monkeypatch, leads, jobs):
    calls = []
    real = lp._gather

    def counting(study, r, spec):
        calls.append(study.runs[r][0])
        return real(study, r, spec)

    monkeypatch.setattr(lp, "_gather", counting)
    panel, events, spec = lead_case(leads)
    estimate_irf(panel, events, spec, jobs=jobs)
    assert sorted(calls) == [0] + list(range(leads + 1, 5))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failure_inside_a_shared_sample_keeps_its_horizon(monkeypatch, jobs):
    # horizon 2 sits in the middle of the run 0..4
    real = lp._estimate_horizon

    def fail_at_two(study, r, j, *args):
        if study.runs[r][j] == 2:
            raise DataError("bad", path="p.csv", line=3)
        return real(study, r, j, *args)

    monkeypatch.setattr(lp, "_estimate_horizon", fail_at_two)
    panel, events, spec = lead_case(4)
    with pytest.raises(DataError) as info:
        estimate_irf(panel, events, spec, jobs=jobs)
    exc = info.value
    assert type(exc) is DataError
    assert exc.path == "p.csv" and exc.line == 3
    assert str(exc) == "horizon 2: p.csv:3: bad"


def test_overall_r2_reads_each_horizons_own_response():
    # runs 0..2, 3 and 4: each horizon's overall R-squared is taken against
    # its own y[t+k] - y[t] on its sample, recomputed here from the panel
    panel, events, spec = lead_case(2)
    spec = replace(spec, r2_mode="overall")
    study = lp._build_study(panel, events, spec, range(spec.horizons + 1))
    assert study.runs == ((0, 1, 2), (3,), (4,))
    y = panel.column("y")
    irf = estimate_irf(panel, events, spec)
    for h in irf.horizons:
        d = build_baseline_design(panel, events, spec, h.horizon)
        raw = y[d.entities, d.periods + h.horizon] - y[d.entities, d.periods]
        tss = (raw - raw.mean()) @ (raw - raw.mean())
        assert (tss == 0.0) == (h.horizon == 0)  # horizon 0's response is zero
        rss = h.result.residuals @ h.result.residuals
        want = 0.0 if h.horizon == 0 else 1.0 - rss / tss
        np.testing.assert_allclose(h.result.r_squared, want, rtol=1e-12)


@pytest.mark.parametrize("H, L", [(10, 10), (20, 10)])
def test_shared_sample_peak_memory_is_its_stacks_and_one_block(H, L):
    # A 190 x 60 panel whose design controls for the shock's leads 1..L,
    # so horizons 0..L share one sample and each later horizon is a run of
    # its own, held to the bound of
    # test_irf_peak_memory_is_its_stacks_and_one_horizon_block: the run
    # keeps one block for all its horizons, never one per horizon, and each
    # horizon's response is kept once, never once more per run.
    E, T = 190, 60
    panel, events, _ = generate(
        DGPSpec(n_entities=E, n_periods=T, theta=(0.0, -0.03), shock_prob=0.1, seed=17)
    )
    rng = np.random.default_rng(17)
    grid = np.where(rng.random((E, T)) < 0.05, np.nan, panel.column("growth"))
    panel = panel.replace_column("growth", grid)
    shock = build_dummies(events, panel).column("all")
    for j in range(1, L + 1):
        lead = np.full_like(shock, np.nan)
        lead[:, :-j] = shock[:, j:]
        panel = panel.with_column(f"shock_lead_{j}", lead)
    controls = (VariableSpec("growth"),) + tuple(
        VariableSpec(f"shock_lead_{j}") for j in range(1, L + 1)
    )
    spec = spec_y(horizons=H, controls=controls)
    estimate_irf(panel, events, spec)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        irf = estimate_irf(panel, events, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = irf.horizons[0]
    V = len(first.result.columns) + len(first.result.dropped_columns)
    n_obs = [h.result.n_obs for h in irf.horizons]
    n = max(n_obs)
    assert n_obs[: L + 1] == [n] * (L + 1) and len(set(n_obs[L:])) == H - L + 1
    assert V == 16 and n > 7000
    assert peak < 8 * (4 * V * E * T + 2 * (H + 1) * E * T + 2 * n * (V + 1))


def test_irf_diagnostics_and_series_access():
    panel, events, _ = sim_case()
    irf = estimate_irf(panel, events, spec_y(horizons=2))
    assert irf.kind == "baseline"
    assert irf.series_names == ("shock",)
    assert len(irf.series("shock")) == 3
    assert irf.estimates("shock").shape == (3,)
    assert set(irf.diagnostics["demean_sweeps"]) == {0, 1, 2}
    with pytest.raises(PanelLPError, match="no series"):
        irf.series("ghost")


@pytest.mark.parametrize("factor", [1e8, 1e12])
def test_control_units_leave_rank_and_shock_unchanged(factor):
    # a level control in large units (population, GDP in currency) must
    # neither stall the demeaning nor make the rank filter drop other columns
    panel, events, spec = sample_case()
    base = estimate_irf(panel, events, spec)
    scaled = estimate_irf(scale_column(panel, "trade_share", factor), events, spec)
    assert [h.result.dropped_columns for h in scaled.horizons] == [
        h.result.dropped_columns for h in base.horizons
    ]
    np.testing.assert_allclose(
        scaled.estimates("shock"), base.estimates("shock"), rtol=1e-9
    )


def test_absorbed_controls_are_dropped_in_any_units(rng):
    # controls constant within entity or within period are absorbed by the
    # fixed effects; non-integer values leave rounding noise that must not
    # survive the unit-scaled rank filter as a regressor
    panel, events, _ = sim_case()
    base = estimate_irf(panel, events, spec_y())
    area = rng.uniform(0.1, 7.3, size=(panel.n_entities, 1))
    world = rng.uniform(0.1, 7.3, size=(1, panel.n_periods)) * 1e8
    shape = (panel.n_entities, panel.n_periods)
    panel = panel.with_column("area", np.broadcast_to(area, shape))
    panel = panel.with_column("world", np.broadcast_to(world, shape))
    spec = spec_y(controls=(VariableSpec("area"), VariableSpec("world")))
    irf = estimate_irf(panel, events, spec)
    for h in irf.horizons:
        assert h.result.dropped_columns == ("area", "world")
    np.testing.assert_allclose(
        irf.estimates("shock"), base.estimates("shock"), rtol=1e-12, atol=1e-15
    )


def test_dependent_log_transform_equals_prelogged_levels():
    panel, events, _ = sim_case()
    levels = panel.replace_column("y", np.exp(panel.column("y") / 10.0))
    logged = panel.replace_column("y", panel.column("y") / 10.0)
    via_transform = estimate_irf(
        levels,
        events,
        spec_y(dependent=VariableSpec("log_y", transform="log", source="y")),
    )
    direct = estimate_irf(logged, events, spec_y())
    np.testing.assert_allclose(
        via_transform.estimates("shock"),
        direct.estimates("shock"),
        atol=1e-12,
    )


def test_r2_modes_differ_but_share_estimates():
    panel, events, _ = sim_case()
    within = estimate_irf(panel, events, spec_y(horizons=1))
    overall = estimate_irf(panel, events, spec_y(horizons=1, r2_mode="overall"))
    assert within.estimates("shock")[1] == overall.estimates("shock")[1]
    r2w = within.horizons[1].result.r_squared
    r2o = overall.horizons[1].result.r_squared
    assert 0.0 <= r2w <= 1.0 and 0.0 <= r2o <= 1.0
    assert r2w != r2o


def test_severity_shock_dummy_selection():
    panel, events, _ = sim_case()
    # attach mortality so severity classes exist: spread values per event
    mortality = {}
    for ev in events.events:
        for i, ent in enumerate(ev.entities):
            mortality[(ev.name, ent)] = float(i + 1)
    events = EventList(events=events.events, mortality=mortality)
    full = estimate_irf(panel, events, spec_y(horizons=1))
    high = estimate_irf(panel, events, spec_y(horizons=1, shock_dummy="high"))
    assert high.estimates("shock")[1] != full.estimates("shock")[1]
    with pytest.raises(Exception, match="unknown shock dummy"):
        estimate_irf(panel, events, spec_y(shock_dummy="extreme"))


# ---------------------------------------------------------------------------
# interaction design
# ---------------------------------------------------------------------------


def test_interaction_requires_group():
    panel, events, _ = sim_case()
    with pytest.raises(PanelLPError, match="GroupSpec"):
        estimate_irf(panel, events, spec_y(kind="interaction"))


def test_interaction_columns_and_absorbed_membership():
    panel, events, _ = sim_case()
    group = GroupSpec("treated", frozenset(panel.entities[:15]))
    spec = spec_y(kind="interaction")
    d = build_interaction_design(panel, events, group, spec, k=1)
    assert d.columns[:3] == ("shock", "shock_x_group", "group")
    irf = estimate_irf(panel, events, spec, group=group)
    # time-invariant membership is absorbed by entity effects and dropped
    for h in irf.horizons:
        assert "group" in h.result.dropped_columns


def test_interaction_report_only_leaves_membership_out():
    panel, events, _ = sim_case()
    group = GroupSpec("treated", frozenset(panel.entities[:15]))
    spec = spec_y(kind="interaction", group_handling="report_only")
    d = build_interaction_design(panel, events, group, spec, k=1)
    assert "group" not in d.columns
    assert d.columns[:2] == ("shock", "shock_x_group")


def test_interaction_marginal_effect_identity():
    # effect_in - effect_outside must equal the product-term coefficient
    panel, events, _ = sim_case()
    group = GroupSpec("oecd", frozenset(panel.entities[:10]))
    irf = estimate_irf(panel, events, spec_y(kind="interaction"), group=group)
    assert irf.series_names == ("effect_outside_oecd", "effect_in_oecd")
    for h in irf.horizons:
        outside = h.interval("effect_outside_oecd")
        inside = h.interval("effect_in_oecd")
        omega = h.result.coefficient("shock_x_group")
        assert inside.estimate - outside.estimate == pytest.approx(
            omega, abs=1e-14
        )
        # outside effect is the shock coefficient itself
        assert outside.estimate == pytest.approx(
            h.result.coefficient("shock"), abs=1e-14
        )


def test_interaction_recovers_split_truths():
    # two different injected paths by group membership
    panel, events, truth = sim_case(
        seed=11, n_entities=60, n_periods=30, theta=(0.0, -0.04, 0.0)
    )
    # shift members' outcome so their response differs by a constant:
    # instead simulate via group injection: reuse theta for all, then the
    # product coefficient should be ~0
    group = GroupSpec("half", frozenset(panel.entities[:30]))
    irf = estimate_irf(
        panel, events, spec_y(kind="interaction", horizons=2), group=group
    )
    h1 = irf.horizons[1]
    omega = h1.result.coefficient("shock_x_group")
    se = h1.interval("effect_in_half").se + h1.interval("effect_outside_half").se
    assert abs(omega) < 4 * se  # no spurious group split


# ---------------------------------------------------------------------------
# transition design
# ---------------------------------------------------------------------------


def test_transition_columns_and_weight_split():
    panel, events, _ = sim_case()
    spec = spec_y(kind="transition", growth="growth", entity_fe=False, time_fe=False)
    d = build_transition_design(panel, events, spec, k=1)
    assert d.columns == (
        "shock_recession",
        "shock_expansion",
        "shock_lag_1",
        "shock_lag_2",
        "outcome_growth_lag_1",
        "outcome_growth_lag_2",
        "growth_lag_1",
        "recession_weight_lag_1",
        "growth_lag_2",
        "recession_weight_lag_2",
    )
    rec = d.matrix[:, 0]
    exp_ = d.matrix[:, 1]
    # with FE off, the two weighted shocks sum back to the 0/1 dummy
    total = rec + exp_
    assert set(np.round(np.unique(total), 12)) <= {0.0, 1.0}
    hit = total == 1.0
    assert ((rec[hit] > 0.0) & (rec[hit] < 1.0)).all()


def test_transition_estimates_both_series():
    panel, events, _ = sim_case(
        seed=5,
        n_entities=80,
        n_periods=30,
        theta=(0.0,),
        theta_recession=(0.0, -0.05, -0.05),
        theta_expansion=(0.0, 0.02, 0.02),
        error_rho=0.0,
        ar_coef=0.0,
    )
    irf = estimate_irf(
        panel, events, spec_y(kind="transition", growth="growth", horizons=2)
    )
    assert irf.series_names == ("shock_recession", "shock_expansion")
    rec = irf.estimates("shock_recession")
    exp_ = irf.estimates("shock_expansion")
    assert rec[0] == 0.0 and exp_[0] == 0.0
    assert rec[1] < exp_[1]
    assert rec[2] < exp_[2]
