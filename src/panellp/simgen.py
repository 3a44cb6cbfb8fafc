"""Synthetic panels with a known impulse response, for validating the
estimation pipeline end to end.

The data-generating process builds log outcome levels as cumulated growth:

* growth carries an entity effect, a period effect, an AR component, and an
  idiosyncratic error that is itself AR(1) within entity — so errors are
  clustered the way the estimator assumes;
* a shock hitting entity ``i`` in year ``s`` adds ``theta[k]`` to the
  *level* in year ``s + k``.  The projection regressions target
  ``y[t+k] - y[t]`` at the shock date, whose shift is
  ``theta[k] - theta[0]``: ``theta[k]`` itself only when ``theta[0] = 0``,
  as in every shipped path, while an impact-year effect is netted out of
  every horizon and horizon 0 estimates zero;
* optionally the injected path depends on the business-cycle state at the
  shock date through the same logistic weight the estimator uses, with a
  recession path and an expansion path blended by ``F(z)``.

``generate`` returns the panel, the matching event list, and a truth record
carrying the exact shock locations and injected paths.

A draw costs little beyond its arithmetic: the two AR recursions step
together over contiguous period rows, a fixed schedule is set with one
indexed assignment (``DGPSpec`` converts and checks its cells once), and the
events, shock cells and state weights come from one ``np.nonzero`` pass
over the shock grid, split where the period changes.  The outputs are
those of the cell-by-cell loops bit for bit; the tests keep those loops
as the reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .events import EventList, PandemicEvent
from .lp import _check_sigma, smooth_transition
from .panel import Panel

__all__ = ["DGPSpec", "SimTruth", "generate"]


@dataclass(frozen=True)
class DGPSpec:
    """Parameters of the synthetic panel generator.

    ``theta`` is the injected level path at horizons ``0..len(theta)-1``.
    Supplying both ``theta_recession`` and ``theta_expansion`` switches on
    state dependence: each shock injects the two paths blended by the
    logistic recession weight evaluated at the shock date.  ``shock_prob``
    draws shock cells i.i.d.; a fixed ``shock_schedule`` of
    ``(entity_index, period_index)`` pairs overrides it, each pair inside
    the ``n_entities x n_periods`` grid (a repeated pair is one shock).
    """

    n_entities: int = 50
    n_periods: int = 30
    entity_sd: float = 0.01
    time_sd: float = 0.01
    noise_sd: float = 0.02
    error_rho: float = 0.3
    ar_coef: float = 0.2
    theta: tuple[float, ...] = (0.0, -0.03, -0.04, 0.0, 0.0, 0.0)
    shock_prob: float = 0.1
    shock_schedule: tuple[tuple[int, int], ...] | None = None
    theta_recession: tuple[float, ...] | None = None
    theta_expansion: tuple[float, ...] | None = None
    sigma: float = 1.5
    start_year: int = 1980
    base_level: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n_entities < 2:
            raise ConfigError("need at least 2 entities")
        if self.n_periods < 3:
            raise ConfigError("need at least 3 periods")
        for name in ("entity_sd", "time_sd", "noise_sd", "error_rho", "ar_coef",
                     "shock_prob", "sigma", "base_level"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        for name in ("theta", "theta_recession", "theta_expansion"):
            path = getattr(self, name)
            if path is not None and not np.isfinite(path).all():
                raise ConfigError(f"{name} must hold finite numbers, got {path}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("entity_sd", "time_sd", "noise_sd"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not abs(self.error_rho) < 1:
            raise ConfigError("error_rho must lie in (-1, 1)")
        if not abs(self.ar_coef) < 1:
            raise ConfigError("ar_coef must lie in (-1, 1)")
        if not 0.0 <= self.shock_prob <= 1.0:
            raise ConfigError("shock_prob must lie in [0, 1]")
        if not self.theta:
            raise ConfigError("theta path is empty")
        cells = _schedule_cells(self.shock_schedule or ())  # no schedule: no cell
        inside = (cells >= 0) & (cells < (self.n_entities, self.n_periods))
        outside = cells[~inside.all(axis=1)]
        if outside.size:
            i, t = outside[0].tolist()
            raise ConfigError(
                f"shock_schedule cell ({i}, {t}) lies outside the "
                f"{self.n_entities} x {self.n_periods} grid"
            )
        object.__setattr__(self, "_schedule", cells)  # checked once, for generate
        state = (self.theta_recession is not None, self.theta_expansion is not None)
        if any(state) and not all(state):
            raise ConfigError(
                "state dependence needs both theta_recession and theta_expansion"
            )
        if all(state) and len(self.theta_recession) != len(self.theta_expansion):
            raise ConfigError("state-dependent paths must have equal length")
        if all(state) and not (
            self.theta_recession and self.theta_recession[0] == 0.0 == self.theta_expansion[0]
        ):
            raise ConfigError(
                "state-dependent paths must have zero impact at horizon 0 "
                "(the weight is read off growth in the shock year itself)"
            )
        _check_sigma(self.sigma)

    @property
    def state_dependent(self) -> bool:
        return self.theta_recession is not None


@dataclass(frozen=True)
class SimTruth:
    """What the generator actually injected, for judging estimates."""

    spec: DGPSpec
    shock_cells: tuple[tuple[str, int], ...]
    theta: tuple[float, ...]
    theta_recession: tuple[float, ...] | None = None
    theta_expansion: tuple[float, ...] | None = None
    recession_weights: Mapping[tuple[str, int], float] | None = None


def _schedule_cells(schedule) -> np.ndarray:
    """A shock schedule's ``(entity_index, period_index)`` pairs as an
    ``(n, 2)`` integer array."""
    try:
        return np.array(schedule, dtype=np.intp).reshape(len(schedule), 2)
    except (TypeError, ValueError):
        raise ConfigError(
            "shock_schedule must list (entity_index, period_index) pairs"
        ) from None


@functools.lru_cache(maxsize=8)
def _entity_labels(n: int) -> tuple[str, ...]:
    """``C000``, ``C001``, ...: built once per panel size."""
    return tuple(f"C{i:03d}" for i in range(n))


def generate(dgp: DGPSpec) -> tuple[Panel, EventList, SimTruth]:
    """Draw one synthetic panel with columns ``y`` and ``growth``.

    ``y`` is the (log) outcome level; ``growth`` its realized first
    difference, defined at every period (the first one relative to the
    pre-sample base level).  The event list holds one synthetic event per
    year with at least one shocked entity, so running it through the event
    machinery reproduces the generator's shock dummy exactly.
    """
    rng = np.random.default_rng(dgp.seed)
    E, T = dgp.n_entities, dgp.n_periods
    labels = _entity_labels(E)

    alpha = rng.normal(0.0, dgp.entity_sd, size=E)
    tau = rng.normal(0.0, dgp.time_sd, size=T)
    eta = rng.normal(0.0, dgp.noise_sd, size=(E, T))

    # Both AR recursions step over contiguous period rows of (T, E) grids,
    # in one loop and in the order the formulas read: the idiosyncratic
    # error w, AR(1) within entity, and baseline growth with its own AR
    # component.  Each step writes its row in place.
    mul, add = np.multiply, np.add
    etaT = np.ascontiguousarray(eta.T)
    w = np.empty((T, E))
    gT = np.empty((T, E))
    w[0] = etaT[0]
    add(add(alpha, tau[0], out=gT[0]), w[0], out=gT[0])
    steps = zip(w, w[1:], gT, gT[1:], etaT[1:], tau[1:].tolist())
    for w_prev, w_t, g_prev, g_t, eta_t, tau_t in steps:
        add(mul(w_prev, dgp.error_rho, out=w_t), eta_t, out=w_t)
        mul(g_prev, dgp.ar_coef, out=g_t)
        add(g_t, alpha, out=g_t)
        add(g_t, tau_t, out=g_t)
        add(g_t, w_t, out=g_t)
    g0 = np.ascontiguousarray(gT.T)  # C order: its moments sum as they always did

    # shock locations
    if dgp.shock_schedule is not None:
        D = np.zeros((E, T))
        D[dgp._schedule[:, 0], dgp._schedule[:, 1]] = 1.0
    else:
        D = (rng.random((E, T)) < dgp.shock_prob).astype(float)
    if D.sum() == 0:
        raise ConfigError(
            "the draw produced no shocks; raise shock_prob or fix a schedule"
        )

    # shocked cells period by period, entities ascending within a period;
    # each period's cells are one segment [starts[j], ends[j])
    per_idx, ent_idx = np.nonzero(D.T)
    starts = np.flatnonzero(np.diff(per_idx, prepend=-1)).tolist()
    ends = [*starts[1:], per_idx.size]
    ents = [labels[i] for i in ent_idx.tolist()]
    years = (per_idx + dgp.start_year).tolist()
    shock_cells = tuple(zip(ents, years))

    # level injections
    weights: dict[tuple[str, int], float] | None = None
    if not dgp.state_dependent:
        inj = np.zeros((E, T))
        for k, th in enumerate(dgp.theta):
            if th != 0.0 and k < T:
                inj[:, k:] += th * D[:, : T - k]
    else:
        # The state weight is read off realized growth at the shock date.
        # Both paths must start at zero impact so the weight never depends
        # on the injection it scales; injections from earlier shocks are
        # folded in by walking the shock periods forward.  The
        # standardization moments are refined in a second pass so they
        # match what an estimator standardizing the realized growth series
        # will compute.
        thL = np.asarray(dgp.theta_recession)
        thH = np.asarray(dgp.theta_expansion)
        K = len(thL)

        def _inject(mean: float, sd: float):
            inj = np.zeros((E, T))
            wts = np.empty(per_idx.size)
            for a, b in zip(starts, ends):
                t, hit = int(per_idx[a]), ent_idx[a:b]
                g_real = g0[hit, t] + inj[hit, t] - (inj[hit, t - 1] if t else 0.0)
                F = smooth_transition((g_real - mean) / sd, dgp.sigma)
                paths = (
                    F[:, None] * thL[None, :]
                    + (1.0 - F[:, None]) * thH[None, :]
                )
                L = min(K, T - t)
                inj[hit, t : t + L] += paths[:, :L]  # one entity per row
                wts[a:b] = F
            return inj, wts

        inj, _ = _inject(g0.mean(), g0.std(ddof=1))
        g_pass1 = np.empty((E, T))
        g_pass1[:, 0] = g0[:, 0] + inj[:, 0]
        g_pass1[:, 1:] = g0[:, 1:] + np.diff(inj, axis=1)
        inj, wts = _inject(g_pass1.mean(), g_pass1.std(ddof=1))
        weights = dict(zip(shock_cells, wts.tolist()))

    y = dgp.base_level + np.cumsum(g0, axis=1) + inj
    growth = np.empty((E, T))
    growth[:, 0] = g0[:, 0] + inj[:, 0]
    growth[:, 1:] = g0[:, 1:] + np.diff(inj, axis=1)

    years_axis = range(dgp.start_year, dgp.start_year + T)
    panel = Panel(labels, years_axis, {"y": y, "growth": growth})
    events = tuple(
        PandemicEvent(f"sim{years[a]}", years[a], tuple(ents[a:b]))
        for a, b in zip(starts, ends)
    )

    truth = SimTruth(
        spec=dgp,
        shock_cells=shock_cells,
        theta=dgp.theta,
        theta_recession=dgp.theta_recession,
        theta_expansion=dgp.theta_expansion,
        recession_weights=weights,
    )
    return panel, EventList(events=events), truth
