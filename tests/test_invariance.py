"""Metamorphic invariances of ``estimate_irf``: transformations of the
inputs whose effect on the estimates is known without a second
implementation.

Each check runs the shipped path twice, on an input and on its
transformed copy: the sample config under both cluster axes, and a
simulated 60 x 30 panel with about 5 % of its cells missing, under the
baseline, interaction (every other entity in the group) and transition
designs.  Relabelling periods and adding
an entity constant the floats add exactly are bitwise; a permutation or
a rescaling moves the rounding, so it is held to 1e-12 relative.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from conftest import assert_same_bits, sample_case
from panellp.events import EventList
from panellp.lp import GroupSpec, LPSpec, estimate_irf
from panellp.panel import Panel, VariableSpec
from panellp.simgen import DGPSpec, generate

RTOL = 1e-12

SAMPLE_CASES = ["sample-entity", "sample-period"]
SIM_CASES = ["sim-baseline", "sim-interaction", "sim-transition"]


@functools.cache
def case(name: str) -> tuple[Panel, EventList, LPSpec]:
    """The inputs of one case, ``(panel, events, spec)``."""
    if name.startswith("sample-"):
        panel, events, spec = sample_case()
        return panel, events, dataclasses.replace(spec, cluster=name.split("-")[1])
    full, events, _ = generate(
        DGPSpec(
            n_entities=60, n_periods=30, theta=(0.0, -0.03, -0.04, 0.0),
            theta_recession=(0.0, -0.05, -0.03), theta_expansion=(0.0, 0.01, 0.02),
            shock_prob=0.1, seed=5,
        )
    )
    gone = np.random.default_rng(5).random(full.column("y").shape) < 0.05
    cols = {v: np.where(gone, np.nan, full.column(v)) for v in full.variables}
    panel = Panel(full.entities, full.periods, cols)
    kind = name.split("-")[1]
    spec = LPSpec(
        dependent=VariableSpec("y", transform="level"), kind=kind, horizons=4,
        growth="growth" if kind == "transition" else None,
    )
    return panel, events, spec


def run(name: str, panel=None, events=None):
    """``estimate_irf`` on the case's inputs, with ``panel`` or ``events``
    put in their place; the interaction design's group holds every other
    entity of the case's panel."""
    p, e, spec = case(name)
    group = None
    if spec.kind == "interaction":
        group = GroupSpec("even", frozenset(p.entities[::2]))
    panel = p if panel is None else panel
    return estimate_irf(panel, e if events is None else events, spec, group)


def fit(irf) -> tuple[np.ndarray, np.ndarray]:
    """Every horizon's coefficients and their standard errors."""
    coef = np.concatenate([h.result.coefficients.ravel() for h in irf.horizons])
    se = np.concatenate(
        [np.sqrt(np.diagonal(h.result.covariance, axis1=-2, axis2=-1)).ravel()
         for h in irf.horizons]
    )
    return coef, se


def series(irf) -> tuple[np.ndarray, np.ndarray]:
    """The reported series' estimates and standard errors."""
    ivs = [iv for h in irf.horizons for iv in h.intervals]
    return np.array([iv.estimate for iv in ivs]), np.array([iv.se for iv in ivs])


def assert_close(got, want, scale=1.0):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, scale * w, rtol=RTOL, atol=0)


def with_outcome(panel: Panel, name: str, transform) -> Panel:
    return panel.replace_column(name, transform(panel.column(name)))


@pytest.mark.parametrize("name", SAMPLE_CASES + SIM_CASES)
def test_entity_order_changes_no_estimate(name):
    panel, _, _ = case(name)
    order = np.random.default_rng(1).permutation(panel.n_entities)
    shuffled = Panel(
        [panel.entities[i] for i in order],
        panel.periods,
        {v: panel.column(v)[order] for v in panel.variables},
    )
    assert_close(fit(run(name, panel=shuffled)), fit(run(name)))


@pytest.mark.parametrize("name", SAMPLE_CASES + SIM_CASES)
def test_period_labels_shifted_with_the_events_change_no_bit(name):
    panel, events, _ = case(name)
    shifted = Panel(
        panel.entities,
        [t + 100 for t in panel.periods],
        {v: panel.column(v) for v in panel.variables},
    )
    moved = EventList(
        tuple(dataclasses.replace(ev, year=ev.year + 100) for ev in events.events),
        events.mortality,
    )
    assert_same_bits(run(name, panel=shifted, events=moved), run(name))


@pytest.mark.parametrize("name", SIM_CASES)
def test_a_scaled_level_outcome_scales_the_response_and_its_se(name):
    panel, _, _ = case(name)
    tripled = with_outcome(panel, "y", lambda y: 3.0 * y)
    assert_close(series(run(name, panel=tripled)), series(run(name)), scale=3.0)


@pytest.mark.parametrize("name", SAMPLE_CASES)
def test_a_scaled_logged_outcome_changes_no_estimate(name):
    panel, _, _ = case(name)
    scaled = with_outcome(panel, "co2_pc", lambda y: 7.0 * y)
    assert_close(fit(run(name, panel=scaled)), fit(run(name)))


@pytest.mark.parametrize("name", SIM_CASES)
def test_an_entity_constant_in_a_level_outcome_changes_no_bit(name):
    # whole constants that keep every outcome cell in the binade [8, 16),
    # where the floats add them exactly; a constant the floats round would
    # move the first differences by an ulp of the sum
    panel, _, _ = case(name)
    shift = np.random.default_rng(2).integers(-1, 5, size=(panel.n_entities, 1))
    moved = with_outcome(panel, "y", lambda y: y + shift)
    cells = np.stack([panel.column("y"), moved.column("y")])
    assert 8 <= np.nanmin(cells) and np.nanmax(cells) < 16
    got, want = fit(run(name, panel=moved)), fit(run(name))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
