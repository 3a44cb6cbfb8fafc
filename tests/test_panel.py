"""Panel container, shift/value transforms, and two-way demeaning."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panellp.errors import (
    DegenerateVariableError,
    MissingVariableError,
    PanelLPError,
)
from panellp.estimator import lsdv_fit
from panellp.panel import (
    Panel,
    VariableSpec,
    _fe_effects,
    _pinned_periods,
    add_lag,
    apply_variable_spec,
    first_difference,
    horizon_delta,
    log_column,
    per_capita,
    scale_column,
    standardize,
    two_way_demean,
)

from conftest import balanced_panel, punch_holes, sparse_panel


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_construction_and_introspection():
    p = Panel(
        ["AAA", "BBB"],
        [2000, 2001, 2002],
        {"y": [[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]]},
    )
    assert p.entities == ("AAA", "BBB")
    assert p.periods == (2000, 2001, 2002)
    assert p.variables == ("y",)
    assert p.n_entities == 2 and p.n_periods == 3
    assert "y" in p and "z" not in p
    assert p.missing_count("y") == 1
    assert p.entity_rows(["BBB", "CCC"]).tolist() == [1, -1]
    assert p.periods.index(2002) == 2


def test_construction_rejects_bad_shapes_and_values():
    with pytest.raises(PanelLPError):
        Panel([], [2000], {})
    with pytest.raises(PanelLPError):
        Panel(["A"], [], {})
    with pytest.raises(PanelLPError):
        Panel(["A", "A"], [2000], {})
    with pytest.raises(PanelLPError):
        Panel(["A"], [2000, 2002], {})  # gap in the period axis
    with pytest.raises(PanelLPError):
        Panel(["A"], [2000, 2001], {"y": [[1.0, np.inf]]})
    with pytest.raises(PanelLPError):
        Panel(["A"], [2000, 2001], {"y": [[1.0, 2.0, 3.0]]})


def test_periods_must_be_integers():
    # an integral float is an integer label; any other value is named
    p = Panel(["A"], [1980.0, 1981.0], {"y": [[1.0, 2.0]]})
    assert p.periods == (1980, 1981) and all(type(t) is int for t in p.periods)
    for bad in (1980.5, "1980.5", "1980", None, float("nan")):
        with pytest.raises(PanelLPError, match=f"period {bad!r} is not an integer"):
            Panel(["A", "B"], [bad, 1981, 1982], {})
    with pytest.raises(PanelLPError, match="period 1980.5 is not an integer"):
        Panel(["A", "B"], [1980.5, 1981.5, 1982.5], {})


def test_caller_arrays_are_copied():
    y = np.array([[1.0, 2.0]])
    p = Panel(["A"], [2000, 2001], {"y": y})
    q = p.with_column("x", y).replace_column("y", y)
    y[0, 0] = 9.0
    for panel in (p, q):
        assert panel.column("y")[0, 0] == 1.0
    assert q.column("x")[0, 0] == 1.0


def test_derived_grids_are_stored_once():
    # a transform's output is stored as built: the peak holds the lagged
    # grid and little else, where a second copy would make it two grids
    p = Panel(
        [f"E{i}" for i in range(2000)],
        range(1950, 2000),
        {"y": np.arange(100_000, dtype=float).reshape(2000, 50)},
    )
    grid_bytes = p.column("y").nbytes
    gc.collect()
    tracemalloc.start()
    try:
        q = add_lag(p, "y", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid_bytes
    lag = q.column("y_lag_1")
    with pytest.raises(ValueError):
        lag[0, 1] = 0.0
    np.testing.assert_array_equal(lag[:, 1:], p.column("y")[:, :-1])
    # the stored path still rejects an infinity a transform produces
    huge = Panel(["A"], [2000, 2001], {"x": [[-1e308, 1e308]]})
    with np.errstate(over="ignore"), pytest.raises(PanelLPError, match="non-finite"):
        first_difference(huge, "x")


def test_columns_are_read_only():
    p = Panel(["A"], [2000, 2001], {"y": [[1.0, 2.0]]})
    with pytest.raises(ValueError):
        p.column("y")[0, 0] = 9.0


def test_missing_variable_error_names_candidates():
    p = Panel(["A"], [2000], {"y": [[1.0]]})
    with pytest.raises(MissingVariableError, match="'z'"):
        p.column("z")


def test_with_column_collision_and_replace():
    p = Panel(["A"], [2000, 2001], {"y": [[1.0, 2.0]]})
    q = p.with_column("x", [[5.0, 6.0]])
    assert q.variables == ("y", "x")
    assert p.variables == ("y",)  # original untouched
    with pytest.raises(PanelLPError):
        q.with_column("x", [[0.0, 0.0]])
    r = q.replace_column("x", [[7.0, 8.0]])
    assert r.column("x")[0, 1] == 8.0
    with pytest.raises(MissingVariableError):
        p.replace_column("nope", [[0.0, 0.0]])


def test_observed_mask_marks_cells_with_any_variable():
    y = np.array([[1.0, np.nan, 3.0, np.nan], [np.nan, 2.0, 3.0, 4.0]])
    x = np.array([[np.nan, np.nan, np.nan, np.nan], [5.0, np.nan, np.nan, np.nan]])
    p = Panel(["A", "B"], [2000, 2001, 2002, 2003], {"y": y, "x": x})
    # A's interior hole and trailing cell stay unobserved; B's leading
    # cell is observed through x alone
    np.testing.assert_array_equal(
        p.observed_mask(), [[True, False, True, False], [True, True, True, True]]
    )


# ---------------------------------------------------------------------------
# shift transforms
# ---------------------------------------------------------------------------


def test_lag_never_crosses_entities(rng):
    p = balanced_panel(rng, n_entities=3, n_periods=5)
    q = add_lag(p, "y", 2)
    lag = q.column("y_lag_2")
    assert np.isnan(lag[:, :2]).all()
    np.testing.assert_array_equal(lag[:, 2:], p.column("y")[:, :-2])


def test_lag_requires_positive_order(rng):
    p = balanced_panel(rng)
    with pytest.raises(PanelLPError):
        add_lag(p, "y", 0)


def test_horizon_delta_matches_direct_subtraction(rng):
    p = balanced_panel(rng, n_periods=8)
    q = horizon_delta(p, "y", 3)
    d = q.column("y_h3")
    y = p.column("y")
    np.testing.assert_allclose(d[:, :-3], y[:, 3:] - y[:, :-3])
    assert np.isnan(d[:, -3:]).all()


def test_horizon_zero_is_identically_zero_where_observed(rng):
    p = punch_holes(balanced_panel(rng), rng, frac=0.2)
    q = horizon_delta(p, "y", 0)
    d = q.column("y_h0")
    ok = ~np.isnan(p.column("y"))
    assert (d[ok] == 0.0).all()
    assert np.isnan(d[~ok]).all()


def test_horizon_deltas_telescope(rng):
    # (y[t+2] - y[t]) == (y[t+1] - y[t]) + (y[t+2] - y[t+1]) shifted
    p = balanced_panel(rng, n_periods=10)
    q = horizon_delta(horizon_delta(p, "y", 1), "y", 2)
    h1 = q.column("y_h1")
    h2 = q.column("y_h2")
    lhs = h2[:, :-2]
    rhs = h1[:, :-2] + h1[:, 1:-1]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_first_difference_aligns_with_lag(rng):
    p = balanced_panel(rng)
    q = first_difference(p, "y")
    d = q.column("y_diff")
    y = p.column("y")
    np.testing.assert_allclose(d[:, 1:], np.diff(y, axis=1))
    assert np.isnan(d[:, 0]).all()


# ---------------------------------------------------------------------------
# value transforms
# ---------------------------------------------------------------------------


def test_standardize_pooled_moments(rng):
    p = punch_holes(balanced_panel(rng), rng)
    q = standardize(p, "y", out="z")
    z = q.column("z")
    vals = z[~np.isnan(z)]
    assert abs(vals.mean()) < 1e-12
    assert abs(vals.std(ddof=1) - 1.0) < 1e-12


def test_standardize_is_idempotent(rng):
    p = balanced_panel(rng)
    once = standardize(p, "y")
    twice = standardize(once, "y")
    np.testing.assert_allclose(
        twice.column("y"), once.column("y"), atol=1e-12
    )


def test_standardize_entity_scope(rng):
    p = balanced_panel(rng, n_entities=4)
    q = standardize(p, "y", scope="entity")
    z = q.column("y")
    for i in range(4):
        assert abs(z[i].mean()) < 1e-12
        assert abs(z[i].std(ddof=1) - 1.0) < 1e-12


def test_standardize_zero_variance_raises():
    p = Panel(["A", "B"], [2000, 2001], {"y": np.ones((2, 2))})
    with pytest.raises(DegenerateVariableError):
        standardize(p, "y")


def test_log_column_counts_nonpositive_cells():
    p = Panel(["A"], [2000, 2001, 2002], {"y": [[1.0, 0.0, -3.0]]})
    q, bad = log_column(p, "y")
    assert bad == 2
    assert q.column("log_y")[0, 0] == 0.0
    assert np.isnan(q.column("log_y")[0, 1:]).all()


def test_per_capita_log_spec_round_trip():
    p = Panel(
        ["A"],
        [2000, 2001],
        {"emis": [[20.0, 30.0]], "pop": [[10.0, 0.0]]},
    )
    spec = VariableSpec(
        "log_pc", transform="per_capita_log", source="emis", population="pop"
    )
    q, bad = apply_variable_spec(p, spec)
    assert bad == 0  # zero population is missing, not a log error
    assert abs(q.column("log_pc")[0, 0] - np.log(2.0)) < 1e-15
    assert np.isnan(q.column("log_pc")[0, 1])
    assert q.variables == ("emis", "pop", "log_pc")  # no scratch column


def test_scale_column_multiplies_in_place():
    p = Panel(["A"], [2000, 2001], {"y": [[2.0, np.nan]]})
    q = scale_column(p, "y", 3.667)
    assert q.column("y")[0, 0] == 2.0 * 3.667
    assert np.isnan(q.column("y")[0, 1])


def test_variable_spec_src_defaults_to_name():
    assert VariableSpec("y").src == "y"
    assert VariableSpec("log_y", transform="log", source="y").src == "y"
    with pytest.raises(PanelLPError):
        VariableSpec("y", transform="cube")
    with pytest.raises(PanelLPError):
        VariableSpec("y", transform="per_capita_log")


def test_per_capita_guards_population():
    p = Panel(
        ["A"],
        [2000, 2001, 2002],
        {"v": [[1.0, 2.0, 3.0]], "pop": [[2.0, np.nan, -1.0]]},
    )
    q = per_capita(p, "v", "pop", "v_pc")
    got = q.column("v_pc")
    assert got[0, 0] == 0.5
    assert np.isnan(got[0, 1]) and np.isnan(got[0, 2])


# ---------------------------------------------------------------------------
# two-way demeaning
# ---------------------------------------------------------------------------


def test_demeaned_balanced_panel_matches_closed_form(rng):
    # on a balanced panel the within transform has an exact closed form:
    # x - entity mean - period mean + grand mean
    p = balanced_panel(rng, n_entities=5, n_periods=7)
    q = two_way_demean(p, ["y"])
    y = p.column("y")
    expect = (
        y
        - y.mean(axis=1, keepdims=True)
        - y.mean(axis=0, keepdims=True)
        + y.mean()
    )
    np.testing.assert_allclose(q.column("y"), expect, atol=1e-9)


def test_demeaned_groups_are_orthogonal(rng):
    p = punch_holes(balanced_panel(rng, n_entities=8, n_periods=10), rng)
    q = two_way_demean(p, ["y", "x"])
    mask = p.present_mask(["y", "x"])
    for name in ("y", "x"):
        z = q.column(name)
        ent_idx, per_idx = np.nonzero(mask)
        vals = z[mask]
        for code in range(p.n_entities):
            sel = ent_idx == code
            if sel.any():
                assert abs(vals[sel].mean()) < 1e-10
        for code in range(p.n_periods):
            sel = per_idx == code
            if sel.any():
                assert abs(vals[sel].mean()) < 1e-10


@pytest.mark.parametrize("layout", ["blocks", "chain"])
def test_demeaned_groups_are_orthogonal_on_sparse_graphs(rng, layout):
    # disjoint entity blocks (two connected sets, two empty years) and a
    # chain of short overlapping spells both leave zero group means
    p = sparse_panel(rng, layout)
    names = ["y", "a", "b"]
    q = two_way_demean(p, names)
    mask = p.present_mask(names)
    ent_idx, per_idx = np.nonzero(mask)
    for name in names:
        vals = q.column(name)[mask]
        ent_means = np.bincount(ent_idx, weights=vals) / np.bincount(ent_idx)
        per_cnt = np.bincount(per_idx, minlength=p.n_periods)
        per_sums = np.bincount(per_idx, weights=vals, minlength=p.n_periods)
        assert np.abs(ent_means).max() < 1e-10
        assert np.abs(per_sums[per_cnt > 0] / per_cnt[per_cnt > 0]).max() < 1e-10


def _padded(own, m):
    """``own``'s variables and zero ones after them, ``m`` in all."""
    return np.concatenate([own, np.zeros((m - len(own),) + own.shape[1:])])


def _residuals(masks, grids, entity_fe=True, time_fe=True, own=None):
    """Each sample's cells less its effects from one stacked pass, as
    ``(n_samples, n_vars + m, n_entities, n_periods)``, NaN off the sample;
    ``own`` holds each sample's ``m_s`` own variables, zero-padded here to
    the largest, ``m``, as their sums are in the pass."""
    per_fe, ent_fe = _fe_effects(masks, grids, entity_fe, time_fe, own)
    values = np.broadcast_to(grids, (len(masks),) + grids.shape)
    if own is not None:
        m = per_fe.shape[1] - len(grids)
        values = np.concatenate([values, [_padded(Y, m) for Y in own]], axis=1)
    out = values - per_fe[:, :, None, :] - ent_fe[..., None]
    return np.where(masks[:, None], out, np.nan)


def test_demean_exactly_identified_connected_sets_absorb_every_cell(rng):
    # A alone in 2000-2001; 2002 empty; then a path of two-year entities
    # 2003-2012-2011-...-2004, so 2004 reaches the set's first year only
    # through nine links.  Each set's effects fit its cells exactly.  Missing
    # a set leaves the period system singular, and holding 2004 at zero as
    # if it began a set leaves residuals behind.  The chain also sits in a
    # stack between a dense sample and an empty one, as a horizon would.
    path = [3, 12, 11, 10, 9, 8, 7, 6, 5, 4]
    grid = np.full((len(path), 13), np.nan)
    grid[0, [0, 1]] = [1.5, -0.25]
    for i, (a, b) in enumerate(zip(path, path[1:]), start=1):
        grid[i, [a, b]] = [0.5 * i, 2.0 - 0.75 * i]
    p = Panel([f"E{i}" for i in range(len(path))], range(2000, 2013), {"y": grid})
    q = two_way_demean(p, ["y"])
    np.testing.assert_allclose(q.column("y")[~np.isnan(grid)], 0.0, atol=1e-12)

    chain = ~np.isnan(grid)
    masks = np.stack([rng.random(chain.shape) < 0.8, chain, np.zeros_like(chain)])
    incidence = masks.astype(float)
    pinned = _pinned_periods(incidence.transpose(0, 2, 1) @ incidence > 0)
    assert np.flatnonzero(pinned[1]).tolist() == [0, 3]
    assert not pinned[2].any()
    fills = np.where(chain, grid, rng.normal(size=grid.shape))
    resid = _residuals(masks, fills[None])
    np.testing.assert_allclose(resid[1, 0][chain], 0.0, atol=1e-12)


def _bfs_first_periods(mask):
    """The first period of each connected set, by breadth-first search
    over periods linked through shared entities."""
    firsts, seen = [], set()
    for start in range(mask.shape[1]):
        if start in seen or not mask[:, start].any():
            continue
        firsts.append(start)
        seen.add(start)
        queue = [start]
        while queue:
            t = queue.pop(0)
            for ent in np.flatnonzero(mask[:, t]):
                for s in np.flatnonzero(mask[ent]):
                    if s not in seen:
                        seen.add(s)
                        queue.append(s)
    return firsts


@st.composite
def incidence_stacks(draw):
    """Up to four samples of at most 12 x 15 cells: sparse, most of them
    in several connected sets, or dense, most of them one set whose first
    period links to every other (the labelling's early return)."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 15)))
    density = draw(st.sampled_from([0.25, 0.6, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < density


@settings(max_examples=200, deadline=None)
@given(incidence_stacks())
def test_pinned_periods_match_breadth_first_search(masks):
    # one batched labelling of a stack of samples, each against its own search
    incidence = masks.astype(float)
    pinned = _pinned_periods(incidence.transpose(0, 2, 1) @ incidence > 0)
    for mask, first in zip(masks, pinned):
        assert np.flatnonzero(first).tolist() == _bfs_first_periods(mask)


def _lsdv_residuals(mask, values, entity_fe, time_fe):
    """Residuals of each of ``values`` on the sample's explicit entity and
    period dummies, by least squares."""
    ent_idx, per_idx = np.nonzero(mask)
    dummies = [np.zeros((ent_idx.size, 0))]
    if entity_fe:
        dummies.append(ent_idx[:, None] == np.arange(mask.shape[0]))
    if time_fe:
        dummies.append(per_idx[:, None] == np.arange(mask.shape[1]))
    D = np.hstack(dummies).astype(float)
    ys = np.stack([v[mask] for v in values], axis=1)
    if D.shape[1]:
        ys = ys - D @ np.linalg.lstsq(D, ys, rcond=None)[0]
    return ys.T


@st.composite
def sample_stacks(draw):
    """Up to four samples of at most 12 x 15 cells, sparse or dense; when
    drawn, one sample is empty, one entity and one period have no rows, or
    the cells fall into two blocks with disjoint periods."""
    n_samples = draw(st.integers(1, 4))
    n_ent, n_per = draw(st.integers(1, 12)), draw(st.integers(1, 15))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = rng.random((n_samples, n_ent, n_per)) < density
    if draw(st.booleans()):
        masks[draw(st.integers(0, n_samples - 1))] = False
    if draw(st.booleans()):
        masks[:, draw(st.integers(0, n_ent - 1))] = False
        masks[:, :, draw(st.integers(0, n_per - 1))] = False
    if draw(st.booleans()):
        masks[:, : n_ent // 2, n_per // 2 :] = False
        masks[:, n_ent // 2 :, : n_per // 2] = False
    effects = st.sampled_from([(True, True), (True, False), (False, True), (False, False)])
    return masks, rng, draw(effects)


@settings(max_examples=150, deadline=None)
@given(sample_stacks(), st.integers(1, 3), st.booleans())
def test_stacked_effects_match_one_sample_runs_and_lsdv(case, m, ragged):
    masks, rng, (entity_fe, time_fe) = case
    # shared variables are finite in every cell; each sample's m own
    # variables, as a run's responses, are zero off its sample, or, ragged,
    # 1..m of them, as runs of different lengths are
    grids = rng.normal(size=(2,) + masks.shape[1:])
    draws = rng.normal(size=(len(masks), m) + masks.shape[1:])
    own = np.where(masks[:, None], draws, 0.0)
    if ragged:
        own = [Y[:w] for Y, w in zip(own, rng.integers(1, m + 1, size=len(masks)))]
    stacked = _residuals(masks, grids, entity_fe, time_fe, own)
    width = max(map(len, own))
    for s, mask in enumerate(masks):
        # the same bits alone at the stack's width: the number of
        # right-hand sides moves LAPACK's rounding
        padded = [_padded(own[s], width)]
        alone = _residuals(mask[None], grids, entity_fe, time_fe, padded)
        assert stacked[s].tobytes() == alone[0].tobytes()
        if not mask.any():
            continue
        values = np.concatenate([grids, own[s]])
        lsdv = _lsdv_residuals(mask, values, entity_fe, time_fe)
        resid = stacked[s, : len(values)][:, mask]
        np.testing.assert_allclose(resid, lsdv, rtol=0, atol=1e-10)
        # with a fixed effect to absorb its intercept, the estimator's LSDV
        # fit gives the demeaned slope, where the sample has two clusters,
        # residual degrees of freedom and within variation
        x, y = stacked[s, 0][mask], stacked[s, len(values) - 1][mask]
        n_dummies = mask.any(axis=1).sum() * entity_fe + mask.any(axis=0).sum() * time_fe
        if (
            (entity_fe or time_fe)
            and mask.any(axis=1).sum() > 1
            and mask.sum() > n_dummies + 1
            and x @ x > 1e-4 * (grids[0][mask] @ grids[0][mask])
        ):
            cols = {"y": own[s][-1], "x": grids[0]}
            panel = Panel(
                [f"E{i}" for i in range(mask.shape[0])],
                range(2000, 2000 + mask.shape[1]),
                {name: np.where(mask, v, np.nan) for name, v in cols.items()},
            )
            ref = lsdv_fit(panel, "y", ["x"], entity_fe=entity_fe, time_fe=time_fe)
            assert ref.columns == ("x",)
            np.testing.assert_allclose(
                ref.coefficients[0], (x @ y) / (x @ x), rtol=1e-10, atol=1e-10
            )


def test_demeaning_is_a_projection(rng):
    # applying the within transform twice changes nothing
    p = punch_holes(balanced_panel(rng), rng)
    once = two_way_demean(p, ["y"])
    twice = two_way_demean(once, ["y"])
    mask = ~np.isnan(once.column("y"))
    np.testing.assert_allclose(
        twice.column("y")[mask], once.column("y")[mask], atol=1e-9
    )


def test_demean_entity_only_and_time_only(rng):
    p = balanced_panel(rng)
    e = two_way_demean(p, ["y"], time_fe=False)
    t = two_way_demean(p, ["y"], entity_fe=False)
    np.testing.assert_allclose(
        e.column("y"),
        p.column("y") - p.column("y").mean(axis=1, keepdims=True),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        t.column("y"),
        p.column("y") - p.column("y").mean(axis=0, keepdims=True),
        atol=1e-12,
    )


def test_demean_no_fe_is_identity(rng):
    p = balanced_panel(rng)
    q = two_way_demean(p, ["y"], entity_fe=False, time_fe=False)
    np.testing.assert_array_equal(q.column("y"), p.column("y"))


def test_demean_respects_joint_sample(rng):
    # cells outside the joint mask come back missing even if observed
    p = balanced_panel(rng, n_entities=3, n_periods=6)
    x = p.column("x").copy()
    x[0, 0] = np.nan
    p = p.replace_column("x", x)
    q = two_way_demean(p, ["y", "x"])
    assert np.isnan(q.column("y")[0, 0])


def test_demean_empty_joint_sample_raises(rng):
    p = balanced_panel(rng, n_entities=2, n_periods=3)
    y = np.full((2, 3), np.nan)
    p = p.replace_column("y", y)
    with pytest.raises(PanelLPError):
        two_way_demean(p, ["y", "x"])
