"""Inputs, operations and output checks of the three benchmark workloads.

Every input is drawn from the workload seed and the operation index, so a
seed fixes the whole sequence of inputs.  The program only ever sees the
generated panels and event lists (or, for ``cli_sample``, the committed
sample files).

The checks rebuild each horizon's regression columns from the public
``panellp.panel`` transforms.  The same columns feed the LSDV oracle and the
traced run's ``two_way_demean`` replay, so both see the joint sample that
the estimator used at that horizon.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace

import numpy as np

from panellp import estimator, events, ingest, lp, panel, simgen, validation
from panellp.panel import VariableSpec

# Bound of the fe-oracle validation suite on the demeaned-vs-LSDV gap.
LSDV_BOUND = 1e-8
# irf.csv floats against the committed sample output: the estimates and SEs
# match bit for bit, but t critical values differ across scipy builds in the
# last digits, which moves the CI bounds by about 1e-12.
IRF_RTOL = 1e-9
IRF_ATOL = 1e-12

REF_IRF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "sample_baseline_irf.csv")
SAMPLE_CONFIG = os.path.join("configs", "sample_baseline.cfg")

MC_ENTITIES, MC_PERIODS, MC_H = 200, 40, 5
UNB_ENTITIES, UNB_PERIODS, UNB_H = 190, 60, 10
UNB_HOLE_SHARE = 0.05


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# mc_recovery: one replication of the irf-recovery suite
# ---------------------------------------------------------------------------


def mc_spec() -> lp.LPSpec:
    leads = tuple(VariableSpec(f"shock_lead_{j}") for j in range(1, MC_H + 1))
    return lp.LPSpec(
        dependent=VariableSpec("y"), kind="baseline", horizons=MC_H,
        lag_order=2, dummy_lags=2, controls=leads,
    )


def mc_replication(seed: int, op: int, n_entities: int = MC_ENTITIES, n_periods: int = MC_PERIODS):
    """Draw the panel and estimate the response: the timed operation.

    Returns ``(panel, events, spec, irf)``.
    """
    # one shock per entity at a uniform interior date, as in the suite
    dates = np.random.default_rng((seed, op)).integers(3, n_periods - MC_H, size=n_entities)
    dgp = simgen.DGPSpec(
        n_entities=n_entities, n_periods=n_periods, entity_sd=0.01,
        time_sd=0.01, noise_sd=0.02, error_rho=0.3, ar_coef=0.2,
        theta=validation.RECOVERY_THETA, shock_prob=0.1,
        shock_schedule=tuple((i, int(t)) for i, t in enumerate(dates)),
        seed=_seed(seed, op),
    )
    pnl, evs, _ = simgen.generate(dgp)
    shock = np.zeros((n_entities, n_periods))
    shock[np.arange(n_entities), dates] = 1.0
    for j in range(1, MC_H + 1):
        lead = np.full_like(shock, np.nan)
        lead[:, :-j] = shock[:, j:]
        pnl = pnl.with_column(f"shock_lead_{j}", lead)
    spec = mc_spec()
    return pnl, evs, spec, lp.estimate_irf(pnl, evs, spec)


# ---------------------------------------------------------------------------
# unbalanced_transition: staggered entry, random holes, transition design
# ---------------------------------------------------------------------------


def unbalanced_spec(horizons: int = UNB_H) -> lp.LPSpec:
    return lp.LPSpec(
        dependent=VariableSpec("y"), kind="transition", horizons=horizons,
        lag_order=2, dummy_lags=2, growth="growth",
    )


def unbalanced_inputs(seed: int, op: int, n_entities: int = UNB_ENTITIES, n_periods: int = UNB_PERIODS):
    """A state-dependent draw with entry years uniform over the first half
    of the sample and about 5 % of the remaining cells deleted."""
    dgp = simgen.DGPSpec(
        n_entities=n_entities, n_periods=n_periods, noise_sd=0.05,
        error_rho=0.0, ar_coef=0.0, theta=(0.0,),
        theta_recession=validation.SEPARATION_RECESSION,
        theta_expansion=validation.SEPARATION_EXPANSION,
        shock_prob=0.1, seed=_seed(seed, op),
    )
    full, evs, _ = simgen.generate(dgp)
    rng = np.random.default_rng((seed, op, 1))
    entry = rng.integers(0, n_periods // 2, size=n_entities)
    gone = np.arange(n_periods)[None, :] < entry[:, None]
    gone |= rng.random((n_entities, n_periods)) < UNB_HOLE_SHARE
    cols = {v: np.where(gone, np.nan, full.column(v)) for v in full.variables}
    return panel.Panel(full.entities, full.periods, cols), evs


# ---------------------------------------------------------------------------
# horizon columns from the public transforms
# ---------------------------------------------------------------------------


def design_columns(pnl: panel.Panel, evs: events.EventList, spec: lp.LPSpec):
    """The horizon-invariant regression columns of ``spec``, named and
    ordered as the estimator names them.  Returns ``(panel, names)``; add
    the response with :func:`horizon_panel`."""
    if spec.kind not in ("baseline", "transition"):
        raise ValueError(f"no column rebuild for {spec.kind!r} designs")
    transition = spec.kind == "transition"
    dep = replace(spec.dependent, name="__dep", source=spec.dependent.src)
    work, _ = panel.apply_variable_spec(pnl, dep)
    dummy = events.build_dummies(evs, work, rule=spec.percentile_rule)
    work = work.with_column("shock", dummy.column(spec.shock_dummy))
    names = []
    if transition:
        F = lp.build_transition_state(pnl, spec.growth, spec.sigma, spec.z_scope).weight
        shock = work.column("shock")
        work = work.with_column("shock_recession", F * shock)
        work = work.with_column("shock_expansion", (1.0 - F) * shock)
        work = work.with_column("__fz", F)
        names += ["shock_recession", "shock_expansion"]
    else:
        names.append("shock")
    for j in range(1, spec.dummy_lags + 1):
        work = panel.add_lag(work, "shock", j)
        names.append(f"shock_lag_{j}")
    if not transition:
        for ctrl in spec.controls:
            work, _ = panel.apply_variable_spec(work, ctrl)
            names.append(ctrl.name)
    work = panel.first_difference(work, "__dep", out="__dgrow")
    for j in range(1, spec.lag_order + 1):
        work = panel.add_lag(work, "__dgrow", j, out=f"outcome_growth_lag_{j}")
        names.append(f"outcome_growth_lag_{j}")
    if transition:
        for j in range(1, spec.dummy_lags + 1):
            work = panel.add_lag(work, spec.growth, j, out=f"growth_lag_{j}")
            work = panel.add_lag(work, "__fz", j, out=f"recession_weight_lag_{j}")
            names += [f"growth_lag_{j}", f"recession_weight_lag_{j}"]
    return work, names


def horizon_panel(work: panel.Panel, k: int) -> panel.Panel:
    """``work`` plus the horizon-k response ``__resp``."""
    return panel.horizon_delta(work, "__dep", k, out="__resp")


def replay_demean(tracer, pnl, evs, spec: lp.LPSpec) -> None:
    """Time ``two_way_demean`` on each horizon's joint sample.

    Records one ``panel.demean_replay`` span per horizon and one
    ``bench.replay`` span for the whole replay, column building included.
    """
    begin = time.perf_counter()
    work, names = design_columns(pnl, evs, spec)
    for k in range(spec.horizons + 1):
        hp = horizon_panel(work, k)
        start = time.perf_counter()
        panel.two_way_demean(hp, ["__resp"] + names)
        tracer.record("panel.demean_replay", start, time.perf_counter())
    tracer.record("bench.replay", begin, time.perf_counter())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_irf(irf: lp.IRF, horizons: int) -> str | None:
    """Every horizon present, every estimate and SE finite, every interval
    bracketing its estimate.  Returns a description of the first problem."""
    if len(irf.horizons) != horizons + 1:
        return f"{len(irf.horizons)} horizons, expected {horizons + 1}"
    for h in irf.horizons:
        for iv in h.intervals:
            vals = (iv.estimate, iv.se, iv.ci_low, iv.ci_high)
            if not all(math.isfinite(v) for v in vals):
                return f"horizon {h.horizon} {iv.name}: non-finite value {vals}"
            if not iv.ci_low <= iv.estimate <= iv.ci_high:
                return f"horizon {h.horizon} {iv.name}: interval does not bracket estimate"
    return None


def lsdv_gap(pnl, evs, spec, irf, k: int) -> float:
    """Largest coefficient gap between horizon ``k`` of ``irf`` and an
    explicit-dummy fit of the same columns on the same sample.

    Both fits must keep the same number of columns and every reported
    series.  Of two exactly collinear columns (the transition design's
    ``growth_lag_j`` and ``outcome_growth_lag_j``) the two fits may keep
    different ones, so only the columns both kept are compared.
    """
    work, names = design_columns(pnl, evs, spec)
    ref = estimator.lsdv_fit(horizon_panel(work, k), "__resp", names, cluster=spec.cluster)
    fit = irf.horizons[k].result
    common = set(ref.columns) & set(fit.columns)
    if len(ref.columns) != len(fit.columns) or not set(irf.series_names) <= common:
        return math.inf
    return max(abs(fit.coefficient(c) - ref.coefficient(c)) for c in common)


def irf_csv_gap(path: str, ref_path: str = REF_IRF) -> float:
    """Largest float gap between two irf.csv files, read back through
    ``ingest.read_irf``; ``inf`` when the rows, integer or text fields
    differ or a float is outside ``IRF_RTOL``/``IRF_ATOL``."""
    got, want = ingest.read_irf(path), ingest.read_irf(ref_path)
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for g, w in zip(got, want):
        for key, wv in w.items():
            gv = g[key]
            if isinstance(wv, float):
                gap = abs(gv - wv)
                if not gap <= IRF_ATOL + IRF_RTOL * abs(wv):
                    return math.inf
                worst = max(worst, gap)
            elif gv != wv:
                return math.inf
    return worst
