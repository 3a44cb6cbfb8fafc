"""Synthetic DGP: reproducibility, injected paths, state dependence."""

from __future__ import annotations

import numpy as np
import pytest

from panellp.errors import ConfigError, PanelLPError
from panellp.events import PandemicEvent
from panellp.lp import smooth_transition
from panellp.simgen import DGPSpec, generate


def test_spec_validation():
    with pytest.raises(PanelLPError):
        DGPSpec(n_entities=1)
    with pytest.raises(PanelLPError):
        DGPSpec(error_rho=1.0)
    with pytest.raises(PanelLPError):
        DGPSpec(shock_prob=1.5)
    with pytest.raises(PanelLPError):
        DGPSpec(theta=())
    with pytest.raises(PanelLPError, match="both"):
        DGPSpec(theta_recession=(0.0, -0.05))
    with pytest.raises(PanelLPError, match="equal length"):
        DGPSpec(theta_recession=(0.0, -0.05), theta_expansion=(0.0,))
    with pytest.raises(PanelLPError):
        DGPSpec(sigma=0.0)
    # schedule cells outside the 5 x 6 grid, which an index would wrap or miss
    for cell in ((-1, 2), (1, -1), (1, 9), (5, 0)):
        with pytest.raises(ConfigError, match="outside the 5 x 6 grid"):
            DGPSpec(n_entities=5, n_periods=6, shock_schedule=(cell,))
    with pytest.raises(ConfigError, match="pairs"):
        DGPSpec(n_entities=5, n_periods=6, shock_schedule=((1, 2, 3),))


def test_same_seed_reproduces_bitwise():
    a_panel, a_events, a_truth = generate(DGPSpec(seed=7))
    b_panel, b_events, b_truth = generate(DGPSpec(seed=7))
    np.testing.assert_array_equal(a_panel.column("y"), b_panel.column("y"))
    assert a_truth.shock_cells == b_truth.shock_cells
    assert a_events.names == b_events.names
    c_panel, _, _ = generate(DGPSpec(seed=8))
    assert not np.array_equal(a_panel.column("y"), c_panel.column("y"))


def test_panel_shape_and_growth_identity():
    dgp = DGPSpec(n_entities=12, n_periods=9, start_year=1990, seed=1)
    panel, _, _ = generate(dgp)
    assert panel.entities == tuple(f"C{i:03d}" for i in range(12))
    assert panel.periods == tuple(range(1990, 1999))
    assert panel.variables == ("y", "growth")
    y = panel.column("y")
    g = panel.column("growth")
    np.testing.assert_allclose(g[:, 1:], np.diff(y, axis=1), atol=1e-12)
    # first growth is relative to the pre-sample base level
    np.testing.assert_allclose(g[:, 0], y[:, 0] - dgp.base_level, atol=1e-12)


def test_events_match_shock_cells():
    panel, events, truth = generate(DGPSpec(seed=3, shock_prob=0.15))
    from_events = {
        (ent, ev.year) for ev in events.events for ent in ev.entities
    }
    assert from_events == set(truth.shock_cells)
    # one synthetic event per shock year
    years = [ev.year for ev in events.events]
    assert len(years) == len(set(years))


def test_schedule_overrides_random_draws():
    sched = ((0, 3), (1, 5), (4, 3))
    panel, events, truth = generate(
        DGPSpec(n_entities=6, n_periods=10, shock_schedule=sched, seed=0)
    )
    assert set(truth.shock_cells) == {
        ("C000", 1983),
        ("C001", 1985),
        ("C004", 1983),
    }
    assert {ev.year for ev in events.events} == {1983, 1985}


def test_zero_shock_draw_is_an_error():
    with pytest.raises(ConfigError, match="no shocks"):
        generate(DGPSpec(n_entities=2, n_periods=3, shock_prob=0.0))


def test_plain_theta_is_the_level_path():
    # noiseless: y[t+k] - y[t] on an isolated shock equals theta[k] exactly
    theta = (0.0, -0.03, -0.04, 0.0, 0.0, 0.0)
    dgp = DGPSpec(
        n_entities=3,
        n_periods=12,
        entity_sd=0.0,
        time_sd=0.0,
        noise_sd=0.0,
        error_rho=0.0,
        ar_coef=0.0,
        theta=theta,
        shock_schedule=((1, 4),),
        seed=0,
    )
    panel, _, _ = generate(dgp)
    y = panel.column("y")
    # unshocked entity is flat at the base level
    np.testing.assert_allclose(y[0], dgp.base_level, atol=1e-14)
    for k, th in enumerate(theta):
        assert y[1, 4 + k] - y[1, 4] == pytest.approx(th, abs=1e-14)
    # the path is transitory: level returns to base after it ends
    np.testing.assert_allclose(y[1, 10:], dgp.base_level, atol=1e-14)


def test_state_paths_must_start_at_zero():
    with pytest.raises(PanelLPError, match="zero impact at horizon 0"):
        generate(
            DGPSpec(
                theta_recession=(-0.01, -0.05),
                theta_expansion=(0.0, 0.02),
                seed=1,
            )
        )


def test_state_weights_follow_realized_growth():
    dgp = DGPSpec(
        n_entities=40,
        n_periods=25,
        theta=(0.0,),
        theta_recession=(0.0, -0.05, -0.05),
        theta_expansion=(0.0, 0.02, 0.02),
        seed=9,
    )
    panel, _, truth = generate(dgp)
    w = truth.recession_weights
    assert w is not None and len(w) == len(truth.shock_cells)
    assert all(0.0 < v < 1.0 for v in w.values())
    # recompute the weights from the realized growth column: with the
    # two-pass moment refinement they should match closely
    g = panel.column("growth")
    m, s = g.mean(), g.std(ddof=1)
    for (ent, year), val in w.items():
        i = panel.entity_rows([ent])[0]
        j = year - panel.periods[0]
        again = smooth_transition((g[i, j] - m) / s, dgp.sigma)
        assert val == pytest.approx(again, abs=0.02)


def test_state_injection_blends_the_two_paths():
    # a recession-state shock must move the level down more than an
    # expansion-state one; verify against the recorded weight exactly
    dgp = DGPSpec(
        n_entities=30,
        n_periods=20,
        entity_sd=0.0,
        time_sd=0.0,
        noise_sd=0.02,
        error_rho=0.0,
        ar_coef=0.0,
        theta=(0.0,),
        theta_recession=(0.0, -0.06),
        theta_expansion=(0.0, 0.03),
        shock_schedule=tuple((i, 10) for i in range(30)),
        seed=13,
    )
    panel, _, truth = generate(dgp)
    y = panel.column("y")
    resid = []
    weights = []
    drops = []
    for (ent, year), F in truth.recession_weights.items():
        i = panel.entity_rows([ent])[0]
        j = year - panel.periods[0]
        injected = F * (-0.06) + (1 - F) * 0.03
        drop = y[i, j + 1] - y[i, j]
        resid.append(drop - injected)
        weights.append(F)
        drops.append(drop)
    # once the blended path is removed only the iid noise remains, so the
    # residual mean is ~N(0, noise_sd/sqrt(n))
    assert abs(np.mean(resid)) < 5 * 0.02 / np.sqrt(30)
    # and the level change itself is strongly decreasing in the weight
    corr = np.corrcoef(weights, drops)[0, 1]
    assert corr < -0.5


def _reference_draw(dgp):
    """The generator cell by cell: both AR recursions column by column, the
    schedule pair by pair, and the shocks, events and state weights period
    by period.  Returns ``y``, ``growth``, the events, the shock cells and
    the recession weights."""
    rng = np.random.default_rng(dgp.seed)
    E, T = dgp.n_entities, dgp.n_periods
    labels = [f"C{i:03d}" for i in range(E)]
    years = np.arange(dgp.start_year, dgp.start_year + T)
    alpha = rng.normal(0.0, dgp.entity_sd, size=E)
    tau = rng.normal(0.0, dgp.time_sd, size=T)
    eta = rng.normal(0.0, dgp.noise_sd, size=(E, T))
    w = np.empty((E, T))
    w[:, 0] = eta[:, 0]
    for t in range(1, T):
        w[:, t] = dgp.error_rho * w[:, t - 1] + eta[:, t]
    g0 = np.empty((E, T))
    g0[:, 0] = alpha + tau[0] + w[:, 0]
    for t in range(1, T):
        g0[:, t] = dgp.ar_coef * g0[:, t - 1] + alpha + tau[t] + w[:, t]
    if dgp.shock_schedule is not None:
        D = np.zeros((E, T))
        for i, t in dgp.shock_schedule:
            D[int(i), int(t)] = 1.0
    else:
        D = (rng.random((E, T)) < dgp.shock_prob).astype(float)
    weights = None
    if not dgp.state_dependent:
        inj = np.zeros((E, T))
        for k, th in enumerate(dgp.theta):
            if th != 0.0 and k < T:
                inj[:, k:] += th * D[:, : T - k]
    else:
        thL = np.asarray(dgp.theta_recession)
        thH = np.asarray(dgp.theta_expansion)

        def inject(mean, sd):
            inj = np.zeros((E, T))
            wts = {}
            for t in range(T):
                g_real_t = g0[:, t] + inj[:, t] - (inj[:, t - 1] if t else 0.0)
                hit = np.flatnonzero(D[:, t])
                if hit.size == 0:
                    continue
                F = smooth_transition((g_real_t[hit] - mean) / sd, dgp.sigma)
                paths = F[:, None] * thL[None, :] + (1.0 - F[:, None]) * thH[None, :]
                L = min(len(thL), T - t)
                for row, i in enumerate(hit):
                    inj[i, t : t + L] += paths[row, :L]
                    wts[(labels[i], int(years[t]))] = float(F[row])
            return inj, wts

        inj, _ = inject(g0.mean(), g0.std(ddof=1))
        g1 = np.empty((E, T))
        g1[:, 0] = g0[:, 0] + inj[:, 0]
        g1[:, 1:] = g0[:, 1:] + np.diff(inj, axis=1)
        inj, weights = inject(g1.mean(), g1.std(ddof=1))
    y = dgp.base_level + np.cumsum(g0, axis=1) + inj
    growth = np.empty((E, T))
    growth[:, 0] = g0[:, 0] + inj[:, 0]
    growth[:, 1:] = g0[:, 1:] + np.diff(inj, axis=1)
    cells, events = [], []
    for t in range(T):
        hit = np.flatnonzero(D[:, t])
        if hit.size:
            ents = tuple(labels[i] for i in hit)
            events.append(PandemicEvent(f"sim{years[t]}", int(years[t]), ents))
            cells.extend((labels[i], int(years[t])) for i in hit)
    return y, growth, tuple(events), tuple(cells), weights


@pytest.mark.parametrize(
    "dgp",
    [
        DGPSpec(n_entities=23, n_periods=17, shock_prob=0.2, seed=5),
        DGPSpec(
            n_entities=7,
            n_periods=9,
            shock_schedule=((3, 4), (0, 8), (3, 4), (6, 0), (0, 2), (0, 8)),
            seed=6,
        ),
        DGPSpec(
            n_entities=31,
            n_periods=22,
            theta=(0.0,),
            theta_recession=(0.0, -0.05, -0.02),
            theta_expansion=(0.0, 0.02, 0.01),
            shock_prob=0.15,
            seed=12,
        ),
    ],
    ids=["shock_prob", "repeated_schedule_cell", "state_dependent"],
)
def test_generate_matches_cell_by_cell_reference(dgp):
    y, growth, events, cells, weights = _reference_draw(dgp)
    panel, evs, truth = generate(dgp)
    assert panel.column("y").tobytes() == y.tobytes()
    assert panel.column("growth").tobytes() == growth.tobytes()
    assert evs.events == events
    assert truth.shock_cells == cells
    if weights is None:
        assert truth.recession_weights is None
    else:
        assert list(truth.recession_weights.items()) == list(weights.items())
