"""Local-projection impulse responses on country-year panels.

One regression per horizon ``k``: the k-period-ahead change in the
(log) outcome on the shock dummy plus controls, with entity and period
fixed effects removed by an exact two-way projection and standard errors
clustered by ``spec.cluster``, country by default.  Three designs:

* baseline — the shock dummy, two of its lags, contemporaneous controls,
  and lagged outcome growth;
* group interaction — baseline plus a group membership indicator and its
  product with the shock; the impulse response for each group is the
  marginal effect (a linear combination of the shock and product terms);
* smooth transition — the shock enters twice, weighted by a logistic
  function of standardized output growth, separating responses in weak
  and strong states of the cycle.

Every horizon shares one right-hand side, so the work falls into three
kinds.  Per study, the regressors are built once, every horizon's
response ``y[t+k] - y[t]`` is formed once into one stack, zero off its
sample, and consecutive horizons whose samples are equal (as when the
shock's leads are controls) form a run, its responses a slice of the
stack.  Per run, one stacked pass over all runs finds the fixed effects
of the regressors and of the run's responses (the counts, the period
system and one solve per run); the run's cells are gathered once into a
row-major ``(n_columns + m, n_rows)`` block, ``[regressors | responses]``
by rows with one response row per horizon, its cells grouped by the
cluster axis (entity by entity, or period by period), and demeaned.  The
block's transpose, the column-major ``[X | Y]``, is one design,
validated once and fitted by one factorization, with each horizon's
response one more right-hand side.  Per horizon, what remains
is its residuals, R-squared, cluster scores and intervals.  A run of one
horizon is the single-response case of the same code and keeps the bits
of that horizon's own design; a longer run moves each estimate by
rounding, at most about 1e-15 relative.  A design names its rows by
integer codes, their grid positions, which the solver counts, and names
its cluster axis (``spec.cluster``), whose codes group the scores: each
cluster's rows are one contiguous segment, summed in place.  The runs
go in one serial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptySampleError,
    PanelLPError,
    UnidentifiedShockError,
)
from .estimator import (
    MAX_LEVEL,
    PIVOT_RTOL,
    CoefficientInterval,
    DesignMatrix,
    RegressionResult,
    coefficient_interval,
    fit_with_covariance,
    linear_combination,
)
from .events import EventList, build_dummies
from .panel import (
    Panel,
    VariableSpec,
    _fe_effects,
    add_lag,
    apply_variable_spec,
    first_difference,
    horizon_delta,
    standardize,
)

__all__ = [
    "LPSpec",
    "GroupSpec",
    "TransitionState",
    "IRF",
    "HorizonEstimate",
    "smooth_transition",
    "build_transition_state",
    "build_baseline_design",
    "build_interaction_design",
    "build_transition_design",
    "estimate_irf",
    "pp_conversion",
]

SHOCK = "shock"
SHOCK_RECESSION = "shock_recession"
SHOCK_EXPANSION = "shock_expansion"
_SHOCK_COLUMNS = (SHOCK, SHOCK_RECESSION, SHOCK_EXPANSION)


@dataclass(frozen=True)
class LPSpec:
    """Everything needed to run one projection study.

    ``dependent`` names the outcome (after its transform); ``controls`` are
    contemporaneous regressors; ``lag_order`` counts lagged first
    differences of the outcome and ``dummy_lags`` lagged copies of the
    shock.  ``kind`` picks the design: ``baseline``, ``interaction`` or
    ``transition``; the transition design takes no controls.
    """

    dependent: VariableSpec
    kind: str = "baseline"
    horizons: int = 5
    lag_order: int = 2
    controls: tuple[VariableSpec, ...] = ()
    dummy_lags: int = 2
    entity_fe: bool = True
    time_fe: bool = True
    cluster: str = "entity"
    conf_level: float = 0.95
    shock_dummy: str = "all"
    growth: str | None = None
    sigma: float = 1.5
    z_scope: str = "pooled"
    percentile_rule: str = "linear"
    group_handling: str = "design"
    r2_mode: str = "within"
    ci_dist: str = "t"

    def __post_init__(self):
        if self.kind not in ("baseline", "interaction", "transition"):
            raise ConfigError(f"unknown projection kind {self.kind!r}")
        if self.horizons < 0:
            raise ConfigError("horizons must be >= 0")
        if self.lag_order < 0:
            raise ConfigError("lag_order must be >= 0")
        if self.dummy_lags < 0:
            raise ConfigError("dummy_lags must be >= 0")
        if not 0.0 < self.conf_level <= MAX_LEVEL:
            raise ConfigError(
                f"conf_level must be in (0, 1), at most 1 - 2**-52, got {self.conf_level}"
            )
        _check_sigma(self.sigma)
        if self.cluster not in ("entity", "period"):
            raise ConfigError("cluster must be 'entity' or 'period'")
        if self.z_scope not in ("pooled", "entity"):
            raise ConfigError("z_scope must be 'pooled' or 'entity'")
        if self.group_handling not in ("design", "report_only"):
            raise ConfigError("group_handling must be 'design' or 'report_only'")
        if self.r2_mode not in ("within", "overall"):
            raise ConfigError("r2_mode must be 'within' or 'overall'")
        if self.shock_dummy not in ("all", "high", "medium", "low"):
            raise ConfigError(
                f"unknown shock dummy {self.shock_dummy!r}; "
                "pick one of all, high, medium, low"
            )
        if self.percentile_rule not in ("linear", "nearest_rank"):
            raise ConfigError(
                f"percentile_rule must be 'linear' or 'nearest_rank', "
                f"got {self.percentile_rule!r}"
            )
        if self.ci_dist not in ("t", "normal"):
            raise ConfigError(f"ci_dist must be 't' or 'normal', got {self.ci_dist!r}")
        if self.kind == "transition" and not self.growth:
            raise ConfigError("transition design needs a growth variable")
        if self.kind == "transition" and self.controls:
            raise ConfigError(
                "the transition design takes no controls (its cycle-state "
                "block replaces them); drop spec.controls"
            )
        _design_columns(self)


@dataclass(frozen=True)
class GroupSpec:
    """A time-invariant country grouping (e.g. an income-class indicator)."""

    name: str
    members: frozenset[str]

    def __post_init__(self):
        if not self.name:
            raise PanelLPError("group needs a name")
        if not self.members:
            raise PanelLPError(f"group {self.name!r} has no members")

    def indicator(self, panel: Panel) -> np.ndarray:
        member = np.array([e in self.members for e in panel.entities], dtype=float)
        return np.repeat(member[:, None], panel.n_periods, axis=1)


@dataclass(frozen=True)
class TransitionState:
    """Standardized cycle position and its logistic weight per cell.

    ``z`` is output growth standardized over the chosen scope; ``weight``
    is ``F(z) = exp(-sigma z) / (1 + exp(-sigma z))``, close to one deep in
    recessions and close to zero in strong expansions.
    """

    z: np.ndarray
    weight: np.ndarray


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ConfigError(f"sigma must be a finite number > 0, got {sigma}")


def smooth_transition(z, sigma: float):
    """Logistic recession weight ``exp(-sigma z) / (1 + exp(-sigma z))``.

    Evaluated in two branches on ``e = exp(-sigma |z|)``, ``1 / (1 + e)``
    for ``z <= 0`` and ``e / (1 + e)`` above, so nothing overflows however
    large ``|sigma * z|`` is; strictly decreasing in ``z``; ``F(0) = 0.5``
    exactly.  ``sigma`` must be finite and positive.  Accepts scalars or
    arrays (missing cells pass through as NaN).
    """
    _check_sigma(sigma)
    z = np.asarray(z, dtype=float)
    e = np.exp(-sigma * np.abs(z))
    out = np.where(z <= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def build_transition_state(
    panel: Panel,
    growth: str,
    sigma: float = 1.5,
    z_scope: str = "pooled",
) -> TransitionState:
    """Standardize the growth variable and map it through the logistic."""
    work = standardize(panel, growth, out="__z", scope=z_scope)
    z = work.column("__z")
    return TransitionState(z=z, weight=smooth_transition(z, sigma))


@dataclass(frozen=True)
class HorizonEstimate:
    """One horizon's regression digested for reporting: its series'
    intervals, and its fit, which holds the sample facts (``n_obs``,
    ``dropped_columns``, ...) and the R-squared ``spec.r2_mode`` names."""

    horizon: int
    intervals: tuple[CoefficientInterval, ...]
    result: RegressionResult

    def interval(self, name: str) -> CoefficientInterval:
        for iv in self.intervals:
            if iv.name == name:
                return iv
        raise PanelLPError(f"horizon {self.horizon} has no series {name!r}")


@dataclass(frozen=True)
class IRF:
    """Impulse responses across horizons 0..H for one specification."""

    kind: str
    horizons: tuple[HorizonEstimate, ...]
    series_names: tuple[str, ...]
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    def series(self, name: str) -> tuple[CoefficientInterval, ...]:
        return tuple(h.interval(name) for h in self.horizons)

    def estimates(self, name: str) -> np.ndarray:
        return np.asarray([iv.estimate for iv in self.series(name)])


def pp_conversion(percent_effect: float, mean_share: float) -> float:
    """Translate a relative effect into percentage points of a share.

    A 0.06 log-point rise in a share averaging 32.3 percent is roughly a
    1.9 percentage-point increase: ``0.06 * 32.3``.
    """
    return float(percent_effect) * float(mean_share)


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------

_DEP = "__dep"
_GROUP = "group"
_GROUP_SHOCK = "shock_x_group"


@dataclass(frozen=True)
class _Study:
    """What the horizons of one study share: the ``(n_columns, n_entities,
    n_periods)`` regressor stack, zero outside the cells where every
    regressor is present, and the reported series with their weights
    (``None``: that coefficient).  ``runs`` groups the horizons into runs of
    consecutive horizons with equal samples; per run ``r``: its sample
    ``masks[r]``, its horizons' slice ``responses[r]`` of the one response
    stack (zero off the sample), its first horizon's missing response cells
    and its fixed ``effects`` (:func:`panel._fe_effects`).
    """

    regressors: np.ndarray
    columns: tuple[str, ...]
    runs: tuple[tuple[int, ...], ...]
    masks: np.ndarray
    responses: tuple[np.ndarray, ...]
    response_missing: np.ndarray
    effects: tuple[np.ndarray, np.ndarray]
    missing_counts: Mapping[str, int]
    series: tuple[tuple[str, Mapping[str, float] | None], ...]


def _input(name: str | None) -> str | None:
    """The working panel's name for input column ``name``, which is what a
    transform's error message names.  No working column has it: the
    package's own names hold no colon, nor does a control parsed from a
    config."""
    return None if name is None else f"input:{name}"


def _design_columns(spec: LPSpec) -> tuple[str, ...]:
    """The regressors of ``spec``'s design, in reporting order: the shock
    (the transition design's two regime-weighted shocks; the interaction
    design's shock, its product with the group and the membership term
    unless ``group_handling`` is ``report_only``), the shock's lags, the
    controls, the lagged outcome growth, and the transition design's lags
    of growth and of the recession weight.  A control that reuses a name
    is a :class:`ConfigError`.
    """
    lags = range(1, spec.dummy_lags + 1)
    names = [SHOCK_RECESSION, SHOCK_EXPANSION] if spec.kind == "transition" else [SHOCK]
    if spec.kind == "interaction":
        names.append(_GROUP_SHOCK)
        if spec.group_handling == "design":
            names.append(_GROUP)
    names += [f"{SHOCK}_lag_{j}" for j in lags]
    names += [ctrl.name for ctrl in spec.controls]
    names += [f"outcome_growth_lag_{j}" for j in range(1, spec.lag_order + 1)]
    if spec.kind == "transition":
        for j in lags:
            names += [f"growth_lag_{j}", f"recession_weight_lag_{j}"]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(
                f"the {spec.kind} design would have two columns named {name!r}; "
                "rename or drop the control"
            )
    return tuple(names)


def _build_study(
    panel: Panel,
    events: EventList,
    spec: LPSpec,
    horizons: Sequence[int],
    group: GroupSpec | None = None,
) -> _Study:
    """The per-study step: every regressor of ``spec``'s design, once, in
    :func:`_design_columns` order, the runs of ``horizons`` with equal
    samples, and per run its sample, its horizons' slice of the one response
    stack (formed here only, by :func:`panel.horizon_delta`) and its fixed
    effects.  The working panel starts from the input columns ``spec``
    reads (the dependent's and each control's source and population, and
    the transition design's growth), each under its :func:`_input` name,
    which no working column shares: no other input column is read, and a
    missing one is reported before any work.
    Missing cells are counted per working column, holes and log losses
    together, from the one ``np.isnan`` of the regressor stack that also
    gives the present cells; the outcome's count (that of the horizon-0
    response) goes under the dependent's name.
    """
    names = _design_columns(spec)
    kind = spec.kind
    read = (spec.dependent, *spec.controls)
    sources = [s for v in read for s in (v.src, v.population) if s is not None]
    if kind == "transition":
        sources.append(spec.growth)
    inputs = panel._new({_input(s): panel.column(s) for s in sources})
    growth = _input(spec.growth)
    dep = spec.dependent
    dep = replace(dep, name=_DEP, source=_input(dep.src), population=_input(dep.population))
    work, _ = apply_variable_spec(inputs, dep)

    eventset = build_dummies(events, work, rule=spec.percentile_rule)
    work = work._stored(SHOCK, eventset.column(spec.shock_dummy))
    for j in range(1, spec.dummy_lags + 1):
        work = add_lag(work, SHOCK, j)
    for ctrl in spec.controls:
        ctrl = replace(ctrl, source=_input(ctrl.src), population=_input(ctrl.population))
        work, _ = apply_variable_spec(work, ctrl)
    work = first_difference(work, _DEP, out="__dgrow")
    for j in range(1, spec.lag_order + 1):
        work = add_lag(work, "__dgrow", j, out=f"outcome_growth_lag_{j}")

    series = ((SHOCK, None),)
    if kind == "interaction":
        gcol = group.indicator(work)
        work = work._stored(_GROUP_SHOCK, gcol * work.column(SHOCK))
        if spec.group_handling == "design":
            work = work._stored(_GROUP, gcol)
        series = (
            (f"effect_outside_{group.name}", {SHOCK: 1.0}),
            (f"effect_in_{group.name}", {SHOCK: 1.0, _GROUP_SHOCK: 1.0}),
        )
    elif kind == "transition":
        F = build_transition_state(inputs, growth, spec.sigma, spec.z_scope).weight
        shock = work.column(SHOCK)
        work = work._stored(SHOCK_RECESSION, F * shock)
        work = work._stored(SHOCK_EXPANSION, (1.0 - F) * shock)
        work = work._stored("__fz", F)
        for j in range(1, spec.dummy_lags + 1):
            work = add_lag(work, growth, j, out=f"growth_lag_{j}")
            work = add_lag(work, "__fz", j, out=f"recession_weight_lag_{j}")
        series = ((SHOCK_RECESSION, None), (SHOCK_EXPANSION, None))

    regressors = np.stack([work.column(n) for n in names])
    holes = np.isnan(regressors)
    counts = {spec.dependent.name: work.missing_count(_DEP)}
    counts.update(zip(names, np.count_nonzero(holes, axis=(1, 2)).tolist()))
    present = ~holes.any(axis=0)
    regressors[:, ~present] = 0.0  # the samples read only present cells
    outcome = work.select([_DEP])
    del work, eventset  # free every grid but the outcome's before the stacked pass
    deltas = (horizon_delta(outcome, _DEP, k, out="__resp") for k in horizons)
    grids = np.stack([delta.column("__resp") for delta in deltas])
    missing = np.isnan(grids)
    masks = present & ~missing
    grids[~masks] = 0.0  # each horizon's response, zero off its own sample
    # consecutive horizons with equal samples form a run, whose work is done once
    same = (masks[1:] == masks[:-1]).all(axis=(1, 2))
    bounds = [0, *(np.flatnonzero(~same) + 1).tolist(), len(horizons)]
    runs = tuple(tuple(horizons[a:b]) for a, b in zip(bounds, bounds[1:]))
    responses = tuple(grids[a:b] for a, b in zip(bounds, bounds[1:]))
    masks = masks[bounds[:-1]]
    return _Study(
        regressors=regressors,
        columns=names,
        runs=runs,
        masks=masks,
        responses=responses,
        response_missing=np.count_nonzero(missing[bounds[:-1]], axis=(1, 2)),
        effects=_fe_effects(masks, regressors, spec.entity_fe, spec.time_fe, responses),
        missing_counts={n: c for n, c in counts.items() if c},
        series=series,
    )


def _gather(
    study: _Study, r: int, spec: LPSpec
) -> tuple[DesignMatrix, np.ndarray]:
    """The per-run step: gather run ``r``'s sample once, its regressors and
    its slice of the response stack, into the row-major ``(n_columns + m,
    n_rows)`` block ``[regressors | responses]`` with its rows grouped by
    the cluster axis (entity-major cells under ``spec.cluster = "entity"``,
    period-major under ``"period"``), and subtract the run's fixed effects,
    a row at a time.  A regressor the fixed effects absorb leaves rounding
    noise that the unit-norm rank filter would keep as a column; it is
    zeroed, so the fit drops it.  Returns the block's transpose, the
    column-major ``[X | Y]`` design with one response column per horizon,
    whose row codes are the sample's grid positions and whose cluster axis
    is ``spec.cluster``, so each cluster's scores are one contiguous segment
    of rows, and the sample's flat grid positions in row order."""
    run = study.runs[r]
    mask = study.masks[r]
    E, T = mask.shape
    if spec.cluster == "period":
        per_idx, ent_idx = np.divmod(np.flatnonzero(mask.T), E)
        flat = ent_idx * T + per_idx
    else:
        flat = np.flatnonzero(mask)
        ent_idx, per_idx = np.divmod(flat, T)
    if flat.size == 0:
        counts = {"response": int(study.response_missing[r]), **study.missing_counts}
        raise EmptySampleError(
            f"no complete rows at horizon {run[0]}; "
            f"missing cells per variable: {counts}"
        )
    n_cols, m = len(study.columns), len(run)
    rows = np.empty((n_cols + m, flat.size))
    X, Y = rows[:n_cols], rows[n_cols:]
    study.regressors.reshape(n_cols, -1).take(flat, axis=1, out=X, mode="clip")
    study.responses[r].reshape(m, -1).take(flat, axis=1, out=Y, mode="clip")
    raw_ss = np.einsum("ij,ij->i", X, X)
    for fe, codes in zip(study.effects, (per_idx, ent_idx)):
        for row, eff in zip(rows, fe[r]):  # no block-sized temporary
            row -= eff.take(codes)
    X[np.einsum("ij,ij->i", X, X) <= PIVOT_RTOL**2 * raw_ss] = 0.0
    design = DesignMatrix(
        response=Y.T,
        matrix=X.T,
        columns=study.columns,
        entities=ent_idx,
        periods=per_idx,
        cluster=spec.cluster,
    )
    return design, flat


def _one_horizon_design(
    panel: Panel, events: EventList, spec: LPSpec, k: int, group: GroupSpec | None = None
) -> DesignMatrix:
    """The per-study and per-run steps of :func:`estimate_irf` for the
    one horizon ``k``, with its response as a vector."""
    design, _ = _gather(_build_study(panel, events, spec, (k,), group), 0, spec)
    return replace(design, response=design.response[:, 0])


def build_baseline_design(
    panel: Panel, events: EventList, spec: LPSpec, k: int
) -> DesignMatrix:
    """Horizon-k design for the plain shock regression.

    Columns, in order: the shock dummy, its lags, the contemporaneous
    controls, and the lagged outcome growth terms.  The response is the
    k-period forward change of the transformed outcome.  Response and
    regressors are two-way demeaned on the listwise-complete sample.
    Runs the steps of :func:`estimate_irf` for the one horizon.
    """
    return _one_horizon_design(panel, events, replace(spec, kind="baseline"), k)


def build_interaction_design(
    panel: Panel, events: EventList, group: GroupSpec, spec: LPSpec, k: int
) -> DesignMatrix:
    """Baseline design plus group membership and group-times-shock columns.

    The membership column is time-invariant, so with entity effects active
    it is absorbed; the solver's rank filter then reports it dropped.  Set
    ``spec.group_handling = "report_only"`` to leave the membership column
    out of the design up front and keep only the product term.  Runs the
    steps of :func:`estimate_irf` for the one horizon.
    """
    spec = replace(spec, kind="interaction")
    return _one_horizon_design(panel, events, spec, k, group)


def build_transition_design(
    panel: Panel, events: EventList, spec: LPSpec, k: int
) -> DesignMatrix:
    """Horizon-k design with regime-weighted shock terms.

    The shock dummy is split into ``shock_recession`` (weighted by the
    logistic recession weight ``F``) and ``shock_expansion`` (weighted by
    ``1 - F``); ``F`` is built from ``spec.growth``, ``spec.sigma`` and
    ``spec.z_scope``.  Controls are the lagged outcome growth terms plus
    lags of the shock, of raw growth, and of ``F`` itself — the
    contemporaneous level controls of the baseline are replaced by the
    cycle-state block.  Runs the steps of :func:`estimate_irf` for the
    one horizon.
    """
    return _one_horizon_design(panel, events, replace(spec, kind="transition"), k)


# ---------------------------------------------------------------------------
# estimation driver
# ---------------------------------------------------------------------------


def _estimate_horizon(
    study: _Study,
    r: int,
    j: int,
    flat: np.ndarray,
    result: RegressionResult,
    spec: LPSpec,
) -> HorizonEstimate:
    """Digest the fit of run ``r``'s ``j``-th horizon on the sample at grid
    positions ``flat``.  Under ``r2_mode = overall`` its R-squared is taken
    against its response before demeaning."""
    if spec.r2_mode == "overall":
        raw = study.responses[r][j].take(flat)
        rss = float(result.residuals @ result.residuals)
        dev = raw - raw.mean()
        tss = float(dev @ dev)
        result = replace(result, r_squared=0.0 if tss == 0.0 else 1.0 - rss / tss)
    level, dist = spec.conf_level, spec.ci_dist
    intervals = tuple(
        coefficient_interval(result, name, level, dist)
        if weights is None
        else linear_combination(result, weights, name=name, level=level, dist=dist)
        for name, weights in study.series
    )
    return HorizonEstimate(horizon=study.runs[r][j], intervals=intervals, result=result)


def _check_shock_identified(
    panel: Panel,
    events: EventList,
    study: _Study,
    flat: np.ndarray,
    fit: RegressionResult,
    spec: LPSpec,
) -> None:
    """Name the shock as the cause when ``fit`` dropped a reported series
    column: the sample at grid positions ``flat`` holds no shocked cell, or
    the plain shock column is dropped while every shocked sample cell sits
    in a year whose sample rows are all shocked, so the year effects absorb
    it (naming the events that hit those cells).  Either is an
    :class:`UnidentifiedShockError`; on any other drop this returns, and
    the series' interval reports the drop."""
    T = panel.n_periods
    shock = [i for i, c in enumerate(study.columns) if c in _SHOCK_COLUMNS]
    shocked = study.regressors[shock].reshape(len(shock), -1)[:, flat].any(axis=0)
    periods = flat % T
    if not shocked.any():
        first, last = panel.periods[periods.min()], panel.periods[periods.max()]
        raise UnidentifiedShockError(
            f"the sample ({first}-{last}) holds no shocked cell, "
            "so no event identifies the shock"
        )
    if SHOCK not in fit.dropped_columns or not spec.time_fe:
        return
    rows = np.bincount(periods, minlength=T)
    hits = np.bincount(periods[shocked], minlength=T)
    years = np.flatnonzero(hits)
    if (hits[years] < rows[years]).any():
        return
    hit = {
        (panel.entities[e], panel.periods[p])
        for e, p in zip(*np.divmod(flat[shocked], T))
    }
    named = [
        f"{ev.name} {ev.year}"
        for ev in events.events
        if any((e, ev.year) in hit for e in ev.entities)
    ]
    raise UnidentifiedShockError(
        "the year effects absorb the shock: every shocked cell of the sample "
        f"sits in a year whose sample rows are all shocked ({', '.join(named)})"
    )


def estimate_irf(
    panel: Panel,
    events: EventList,
    spec: LPSpec,
    group: GroupSpec | None = None,
    jobs: int = 1,
) -> IRF:
    """Run the per-horizon regressions and collect the impulse response.

    ``group`` is required for the interaction design; the transition
    design builds its weight from ``spec.growth``, ``spec.sigma`` and
    ``spec.z_scope``.  Horizons run from 0 to ``spec.horizons``, capped at
    ``panel.n_periods``: that horizon has no ``t + k`` cell, so its sample
    is empty and a run that reaches it fails there; later horizons are not
    built.  Per study, the regressors, every horizon's response, sample
    and missing counts, and each run's fixed effects are built once; per
    run (consecutive horizons with equal samples, as when the shock's
    leads are controls), the regressors and its horizons' responses are
    gathered and demeaned once into one design, which is validated,
    counted and factored once, with one bread; each horizon's own are its
    residuals, R-squared, cluster scores and intervals.  A shared run's
    estimates differ from separate per-horizon fits by rounding (at most
    about 1e-15 relative); a distinct sample's are those of its one-horizon
    design bit for bit.  A failing horizon aborts the whole run with the
    horizon identified; a shock coefficient lost for want of a shocked
    cell, or to the year effects, is an :class:`UnidentifiedShockError`.
    ``jobs`` is accepted and has no effect: the runs go in one serial
    loop.  It goes once the benchmark harness stops passing it (ROADMAP
    item 1).
    """
    if spec.kind == "interaction" and group is None:
        raise PanelLPError("interaction design needs a GroupSpec")
    ks = range(min(spec.horizons, panel.n_periods) + 1)
    study = _build_study(panel, events, spec, ks, group)
    reported = {c for name, weights in study.series for c in weights or (name,)}
    horizons = []
    for r, run in enumerate(study.runs):
        k = run[0]
        try:
            design, flat = _gather(study, r, spec)
            fit = fit_with_covariance(design)
            del design  # the run's block is freed before the next one is gathered
            if not reported.isdisjoint(fit.dropped_columns):
                _check_shock_identified(panel, events, study, flat, fit, spec)
            for j, k in enumerate(run):
                result = fit.for_response(j)
                horizons.append(_estimate_horizon(study, r, j, flat, result, spec))
        except PanelLPError as exc:
            # prefix in place, so the class and its attributes survive
            exc.args = (f"horizon {k}: {exc}",)
            raise

    diag: dict[str, object] = {
        "demean_sweeps": dict.fromkeys(ks, int(spec.entity_fe or spec.time_fe)),
        "missing_counts": dict(study.missing_counts),
    }
    return IRF(
        kind=spec.kind,
        horizons=tuple(horizons),
        series_names=tuple(name for name, _ in study.series),
        diagnostics=diag,
    )
