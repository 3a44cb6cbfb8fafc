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
"""

from __future__ import annotations

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
    ``(entity_index, period_index)`` pairs overrides it.
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


def _entity_labels(n: int) -> list[str]:
    return [f"C{i:03d}" for i in range(n)]


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
    years = np.arange(dgp.start_year, dgp.start_year + T)

    alpha = rng.normal(0.0, dgp.entity_sd, size=E)
    tau = rng.normal(0.0, dgp.time_sd, size=T)
    eta = rng.normal(0.0, dgp.noise_sd, size=(E, T))

    # idiosyncratic error, AR(1) within entity
    w = np.empty((E, T))
    w[:, 0] = eta[:, 0]
    for t in range(1, T):
        w[:, t] = dgp.error_rho * w[:, t - 1] + eta[:, t]

    # baseline growth with its own AR component
    g0 = np.empty((E, T))
    g0[:, 0] = alpha + tau[0] + w[:, 0]
    for t in range(1, T):
        g0[:, t] = dgp.ar_coef * g0[:, t - 1] + alpha + tau[t] + w[:, t]

    # shock locations
    if dgp.shock_schedule is not None:
        D = np.zeros((E, T))
        for i, t in dgp.shock_schedule:
            D[int(i), int(t)] = 1.0
    else:
        D = (rng.random((E, T)) < dgp.shock_prob).astype(float)
    if D.sum() == 0:
        raise ConfigError(
            "the draw produced no shocks; raise shock_prob or fix a schedule"
        )

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
        # folded in by walking time forward.  The standardization moments
        # are refined in a second pass so they match what an estimator
        # standardizing the realized growth series will compute.
        thL = np.asarray(dgp.theta_recession)
        thH = np.asarray(dgp.theta_expansion)
        K = len(thL)

        def _inject(mean: float, sd: float):
            inj = np.zeros((E, T))
            wts: dict[tuple[str, int], float] = {}
            for t in range(T):
                g_real_t = g0[:, t] + inj[:, t] - (inj[:, t - 1] if t else 0.0)
                hit = np.flatnonzero(D[:, t])
                if hit.size == 0:
                    continue
                z = (g_real_t[hit] - mean) / sd
                F = smooth_transition(z, dgp.sigma)
                paths = (
                    F[:, None] * thL[None, :]
                    + (1.0 - F[:, None]) * thH[None, :]
                )
                L = min(K, T - t)
                for row, i in enumerate(hit):
                    inj[i, t : t + L] += paths[row, :L]
                    wts[(labels[i], int(years[t]))] = float(F[row])
            return inj, wts

        inj, _ = _inject(g0.mean(), g0.std(ddof=1))
        g_pass1 = np.empty((E, T))
        g_pass1[:, 0] = g0[:, 0] + inj[:, 0]
        g_pass1[:, 1:] = g0[:, 1:] + np.diff(inj, axis=1)
        inj, weights = _inject(g_pass1.mean(), g_pass1.std(ddof=1))

    y = dgp.base_level + np.cumsum(g0, axis=1) + inj
    growth = np.empty((E, T))
    growth[:, 0] = g0[:, 0] + inj[:, 0]
    growth[:, 1:] = g0[:, 1:] + np.diff(inj, axis=1)

    panel = Panel(labels, years.tolist(), {"y": y, "growth": growth})

    shock_cells: list[tuple[str, int]] = []
    events: list[PandemicEvent] = []
    for t in range(T):
        hit = np.flatnonzero(D[:, t])
        if hit.size == 0:
            continue
        ents = tuple(labels[i] for i in hit)
        events.append(PandemicEvent(f"sim{years[t]}", int(years[t]), ents))
        shock_cells.extend((labels[i], int(years[t])) for i in hit)

    truth = SimTruth(
        spec=dgp,
        shock_cells=tuple(shock_cells),
        theta=dgp.theta,
        theta_recession=dgp.theta_recession,
        theta_expansion=dgp.theta_expansion,
        recession_weights=weights,
    )
    return panel, EventList(events=tuple(events)), truth
