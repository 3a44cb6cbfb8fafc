"""Immutable country-year panel container and the transforms used by the
projection engine.

A :class:`Panel` stores one read-only float array per variable on a dense
entity-by-period grid.  Cells are either finite numbers or missing (NaN
internally); infinities are rejected whenever a grid is stored, so they can
never leak into downstream arithmetic.  All transforms are pure: they return
a new ``Panel`` and never mutate their input.  An array a caller passes in
(to the constructor, :meth:`Panel.with_column` or
:meth:`Panel.replace_column`) is copied; a grid a transform builds is
stored as built, with no second copy.

Grids are C-ordered, so cell ``(i, t)`` sits at flat offset
``i * n_periods + t`` and a flattened grid lists cells entity by entity.
The two-way projection finds the fixed effects of a stack of samples at
once, from sums on the grid; each sample subtracts them from its row-major
block, one row per variable and one column per cell in that order.

Period arithmetic (lags, leads, differences) is done in units of the integer
time index, never by positional shifting, so an entity observed for
1990-1995 with 1993 absent gets a missing lag at 1994 rather than a silently
misaligned one.  Shifts never cross entity boundaries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateVariableError,
    MissingVariableError,
    PanelLPError,
)

__all__ = [
    "Panel",
    "VariableSpec",
    "add_lag",
    "horizon_delta",
    "first_difference",
    "standardize",
    "log_column",
    "per_capita",
    "scale_column",
    "two_way_demean",
    "apply_variable_spec",
]


def _as_grid(values, n_entities: int, n_periods: int, name: str) -> np.ndarray:
    """A C-ordered float copy of a caller's ``values``, of the grid's shape."""
    arr = np.array(values, dtype=float, order="C")
    if arr.shape != (n_entities, n_periods):
        raise PanelLPError(
            f"column {name!r} has shape {arr.shape}, expected "
            f"({n_entities}, {n_periods})"
        )
    return arr


def _frozen(grid: np.ndarray, name: str) -> np.ndarray:
    """``grid`` itself, made read-only once it holds no infinity."""
    if np.isinf(grid).any():
        raise PanelLPError(f"column {name!r} contains non-finite values (inf)")
    grid.flags.writeable = False
    return grid


def _period(label) -> int:
    """An integer period label; a float passes only with an integral value."""
    try:
        return operator.index(label)
    except TypeError:
        if isinstance(label, (float, np.floating)) and float(label).is_integer():
            return int(label)
    raise PanelLPError(f"period {label!r} is not an integer")


class Panel:
    """Dense entity x period grid of named numeric variables.

    Parameters
    ----------
    entities : sequence of str
        Unique entity labels, kept in the given order.
    periods : sequence of int
        Consecutive integer time indices (typically years).  The grid spans
        the full range; an entity simply holds missing cells for periods it
        does not cover.
    columns : mapping of str -> array-like
        One ``(n_entities, n_periods)`` array per variable.  ``NaN`` marks a
        missing cell; infinities are rejected.

    Each column is stored read-only: a copy of what the caller passes
    here or to :meth:`with_column` and :meth:`replace_column`, and the
    grid itself, as built, for the package's transforms.  A period label
    that is not an integer (``1980.5``, ``"1980"``) is a
    :class:`PanelLPError`; a float of integral value is taken as that
    integer.
    """

    __slots__ = ("_entities", "_periods", "_columns", "_entity_index")

    def __init__(
        self,
        entities: Sequence[str],
        periods: Sequence[int],
        columns: Mapping[str, object],
    ):
        ents = tuple(map(str, entities))
        if len(ents) == 0:
            raise PanelLPError("panel needs at least one entity")
        index = dict(zip(ents, range(len(ents))))
        if len(index) != len(ents):
            raise PanelLPError("duplicate entity labels")
        pers = tuple(map(_period, periods))
        if len(pers) == 0:
            raise PanelLPError("panel needs at least one period")
        if pers != tuple(range(pers[0], pers[0] + len(pers))):
            raise PanelLPError("periods must be consecutive integers")
        self._entities = ents
        self._periods = pers
        self._entity_index = index
        self._columns = {}
        for name, vals in columns.items():
            name = str(name)
            grid = _as_grid(vals, len(ents), len(pers), name)
            self._columns[name] = _frozen(grid, name)

    # -- basic introspection -------------------------------------------------

    @property
    def entities(self) -> tuple[str, ...]:
        return self._entities

    @property
    def periods(self) -> tuple[int, ...]:
        return self._periods

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def n_entities(self) -> int:
        return len(self._entities)

    @property
    def n_periods(self) -> int:
        return len(self._periods)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> np.ndarray:
        """Read-only ``(n_entities, n_periods)`` array for ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise MissingVariableError(
                f"no variable named {name!r}; have {sorted(self._columns)}"
            ) from None

    def entity_rows(self, entities: Sequence[str]) -> np.ndarray:
        """Grid rows of ``entities``; -1 marks a label the panel lacks."""
        rows = [self._entity_index.get(e, -1) for e in entities]
        return np.array(rows, dtype=np.intp)

    def missing_count(self, name: str) -> int:
        return int(np.isnan(self.column(name)).sum())

    def present_mask(self, names: Iterable[str]) -> np.ndarray:
        """Boolean grid: True where every listed variable is non-missing."""
        names = list(names)
        if not names:
            raise PanelLPError("present_mask needs at least one variable")
        mask = ~np.isnan(self.column(names[0]))
        for name in names[1:]:
            mask &= ~np.isnan(self.column(name))
        return mask

    def observed_mask(self) -> np.ndarray:
        """True where the entity-period cell has any observed variable."""
        if not self._columns:
            return np.zeros((self.n_entities, self.n_periods), dtype=bool)
        mask = np.zeros((self.n_entities, self.n_periods), dtype=bool)
        for arr in self._columns.values():
            mask |= ~np.isnan(arr)
        return mask

    # -- derived panels ------------------------------------------------------

    def _new(self, columns: Mapping[str, np.ndarray]) -> "Panel":
        out = object.__new__(Panel)
        out._entities = self._entities
        out._periods = self._periods
        out._entity_index = self._entity_index
        out._columns = dict(columns)
        return out

    def with_column(self, name: str, values) -> "Panel":
        """Return a new panel with a copy of ``values`` as an added column;
        rejects name collisions."""
        name = str(name)
        grid = _as_grid(values, self.n_entities, self.n_periods, name)
        return self._stored(name, grid)

    def replace_column(self, name: str, values) -> "Panel":
        """Return a new panel with a copy of ``values`` in place of ``name``."""
        grid = _as_grid(values, self.n_entities, self.n_periods, name)
        return self._stored(name, grid, replace=True)

    def _stored(self, name: str, grid: np.ndarray, replace: bool = False) -> "Panel":
        """:meth:`with_column`, or :meth:`replace_column` if ``replace``, for
        a fresh C-ordered float grid that nothing else writes to, as the
        package's transforms build: ``grid`` is stored as built, not copied,
        once it is checked for infinities and made read-only."""
        if replace and name not in self._columns:
            raise MissingVariableError(f"no variable named {name!r}")
        if not replace and name in self._columns:
            raise PanelLPError(f"column {name!r} already exists")
        return self._new({**self._columns, name: _frozen(grid, name)})

    def select(self, names: Iterable[str]) -> "Panel":
        """A panel of only the named columns, sharing their grids; each name
        is looked up by :meth:`column`, so a missing one is its
        :class:`MissingVariableError`.  A repeated name is kept once."""
        return self._new({str(n): self.column(str(n)) for n in names})


@dataclass(frozen=True)
class VariableSpec:
    """How to derive a working column from raw panel data.

    ``name`` is the output column; ``source`` the raw input column (defaults
    to ``name``).  ``transform`` is one of ``level``, ``log``,
    ``per_capita_log`` (divide by ``population`` then log) or
    ``standardize``.
    """

    name: str
    transform: str = "level"
    source: str | None = None
    population: str | None = None

    def __post_init__(self):
        if self.transform not in ("level", "log", "per_capita_log", "standardize"):
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.transform == "per_capita_log" and not self.population:
            raise ConfigError("per_capita_log needs a population column")

    @property
    def src(self) -> str:
        return self.source if self.source is not None else self.name


# ---------------------------------------------------------------------------
# shift-based transforms
# ---------------------------------------------------------------------------


def _shifted(grid: np.ndarray, offset: int) -> np.ndarray:
    """Value at t+offset aligned to t, NaN where t+offset leaves the axis."""
    if offset == 0:
        return grid.copy()
    out = np.full_like(grid, np.nan)
    if offset > 0:
        out[:, :-offset] = grid[:, offset:]
    else:
        out[:, -offset:] = grid[:, :offset]
    return out


def add_lag(panel: Panel, var: str, j: int, out: str | None = None) -> Panel:
    """Add ``var`` lagged ``j`` periods as ``{var}_lag_{j}``.

    The lag at an entity's first ``j`` periods is missing; entity boundaries
    are never crossed.
    """
    if j < 1:
        raise PanelLPError(f"lag order must be >= 1, got {j}")
    name = out if out is not None else f"{var}_lag_{j}"
    return panel._stored(name, _shifted(panel.column(var), -j))


def horizon_delta(panel: Panel, var: str, k: int, out: str | None = None) -> Panel:
    """Add the k-period forward change ``x[t+k] - x[t]`` as ``{var}_h{k}``.

    ``k = 0`` yields zeros wherever ``var`` is observed.  Cells whose ``t+k``
    falls past the panel end are missing.
    """
    if k < 0:
        raise PanelLPError(f"horizon must be >= 0, got {k}")
    name = out if out is not None else f"{var}_h{k}"
    grid = panel.column(var)
    delta = _shifted(grid, k)
    delta -= grid
    return panel._stored(name, delta)


def first_difference(panel: Panel, var: str, out: str | None = None) -> Panel:
    """Add ``x[t] - x[t-1]`` as ``{var}_diff``."""
    name = out if out is not None else f"{var}_diff"
    grid = panel.column(var)
    lagged = _shifted(grid, -1)
    return panel._stored(name, np.subtract(grid, lagged, out=lagged))


# ---------------------------------------------------------------------------
# value transforms
# ---------------------------------------------------------------------------


def standardize(
    panel: Panel,
    var: str,
    out: str | None = None,
    scope: str = "pooled",
) -> Panel:
    """Center and scale ``var`` to mean zero, unit sample variance.

    ``scope="pooled"`` uses one mean/sd over every non-missing entity-year
    cell (the default); ``scope="entity"`` standardizes within each entity.
    Writes over ``var`` unless ``out`` names a new column.  A zero sample
    standard deviation raises :class:`DegenerateVariableError`.
    """
    grid = panel.column(var)
    ok = ~np.isnan(grid)
    z = np.full_like(grid, np.nan)
    if scope == "pooled":
        vals = grid[ok]
        if vals.size < 2:
            raise DegenerateVariableError(f"{var!r}: need >= 2 values to standardize")
        sd = vals.std(ddof=1)
        if sd == 0.0:
            raise DegenerateVariableError(f"{var!r} has zero variance")
        z[ok] = (vals - vals.mean()) / sd
    elif scope == "entity":
        for i in range(panel.n_entities):
            sel = ok[i]
            vals = grid[i, sel]
            if vals.size == 0:
                continue
            if vals.size < 2:
                raise DegenerateVariableError(
                    f"{var!r}: entity {panel.entities[i]!r} has a single value"
                )
            sd = vals.std(ddof=1)
            if sd == 0.0:
                raise DegenerateVariableError(
                    f"{var!r} has zero variance within entity {panel.entities[i]!r}"
                )
            z[i, sel] = (vals - vals.mean()) / sd
    else:
        raise PanelLPError(f"unknown standardize scope {scope!r}")
    if out is None or out == var:
        return panel._stored(var, z, replace=True)
    return panel._stored(str(out), z)


def log_column(panel: Panel, var: str, out: str | None = None) -> tuple[Panel, int]:
    """Natural log of ``var``; non-positive cells become missing.

    Returns the new panel and the count of non-positive cells that were
    mapped to missing (surfaced in run diagnostics).
    """
    grid = panel.column(var)
    ok = ~np.isnan(grid)
    bad = ok & (grid <= 0.0)
    vals = np.full_like(grid, np.nan)
    good = ok & (grid > 0.0)
    vals[good] = np.log(grid[good])
    name = out if out is not None else f"log_{var}"
    return panel._stored(str(name), vals, replace=name == var), int(bad.sum())


def per_capita(panel: Panel, var: str, population: str, out: str) -> Panel:
    """``var / population``; cells with missing or non-positive population
    become missing."""
    grid = panel.column(var)
    pop = panel.column(population)
    vals = np.full_like(grid, np.nan)
    ok = ~np.isnan(grid) & ~np.isnan(pop) & (pop > 0.0)
    vals[ok] = grid[ok] / pop[ok]
    return panel._stored(str(out), vals)


def scale_column(panel: Panel, var: str, factor: float) -> Panel:
    """Multiply every non-missing cell of ``var`` by ``factor`` in place."""
    return panel._stored(var, panel.column(var) * float(factor), replace=True)


def apply_variable_spec(panel: Panel, spec: VariableSpec) -> tuple[Panel, int]:
    """Materialize ``spec.name`` from its source column.

    Returns the augmented panel and the number of cells invalidated by a log
    of a non-positive value (zero for the other transforms).
    """
    src = spec.src
    if spec.transform == "level":
        if spec.name == src:
            panel.column(src)  # existence check
            return panel, 0
        # a stored grid is read-only, so the new name shares it
        return panel._stored(spec.name, panel.column(src)), 0
    if spec.transform == "log":
        return log_column(panel, src, out=spec.name)
    if spec.transform == "per_capita_log":
        tmp = f"__pc_{spec.name}"
        panel = per_capita(panel, src, spec.population, tmp)
        panel, bad = log_column(panel, tmp, out=spec.name)
        return panel.select([v for v in panel.variables if v != tmp]), bad
    if spec.transform == "standardize":
        return standardize(panel, src, out=spec.name), 0
    raise PanelLPError(f"unknown transform {spec.transform!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# two-way demeaning
# ---------------------------------------------------------------------------


def _pinned_periods(links: np.ndarray) -> np.ndarray:
    """True per sample at the first period of each connected set.

    ``links`` stacks boolean period x period matrices ``N'N > 0`` of entity
    x period incidences ``N``: two periods are linked when an entity has
    rows in both, and a period with rows is linked to itself.  Every period
    starts with its own index as label and takes the lowest label among its
    links until no label changes, which labels each connected set by its
    first period.  Periods without rows are never pinned.  When every
    sample's first period with rows links directly to each of its periods
    with rows, as on a balanced panel, each sample is one set and that
    period is its only pin, with no iteration.
    """
    first = np.arange(links.shape[-1])
    has_rows = np.diagonal(links, axis1=1, axis2=2)
    start = has_rows.argmax(axis=1)
    if np.array_equal(links[np.arange(len(links)), start], has_rows):
        return has_rows & (first == start[:, None])
    label = np.broadcast_to(first, links.shape[:-1])
    while True:
        lowest = np.where(links, label[:, None], first.size).min(axis=2)
        if np.array_equal(lowest, label):
            return has_rows & (label == first)
        label = lowest


def _fe_effects(
    masks: np.ndarray,
    grids: np.ndarray,
    entity_fe: bool,
    time_fe: bool,
    own: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact period and entity effects of every variable on every sample.

    ``masks`` stacks the samples' ``(n_entities, n_periods)`` cells and
    ``grids`` the ``(n_vars, n_entities, n_periods)`` variables they share,
    finite in every cell (zero, not NaN, where missing); ``own`` holds each
    sample's own ``(m_s, n_entities, n_periods)`` variables, zero off it,
    whose sums are zero-padded to the largest ``m_s``, ``m``.  Per sample,
    the counts and period system are built once for every right-hand side.
    Returns the ``(n_samples, n_vars + m, n_periods)`` period and
    ``(n_samples, n_vars + m, n_entities)`` entity effects (zero if left
    out), whose removal leaves a sample's residuals.  Each step is
    elementwise, within one sample or one BLAS or LAPACK call per sample, so
    stacks of equal ``m`` give a sample the same bits.  The period effects
    ``g`` solve ``(diag(n_t) - N' diag(1/n_i) N) g = b`` (``N`` the entity x
    period incidence, ``b`` the period sums of the entity-demeaned
    variables); the entity effects are the entity means less those of
    ``g``.  That Laplacian of the period graph is singular once per
    connected set, so each set's first period is held at zero (Abowd,
    Creecy and Kramarz 2002): it and every period without rows get an
    identity row, and one batched solve covers every sample.
    """
    N = masks.astype(float)
    # one matrix-vector product per sample and entity, then per period
    ent_sums = np.matmul(grids.transpose(1, 0, 2), N[..., None])[..., 0]
    by_period = np.ascontiguousarray(grids.transpose(2, 0, 1))
    per_sums = np.matmul(by_period, N.transpose(0, 2, 1)[..., None])[..., 0]
    del by_period
    if own is not None:
        # room for each sample's own sums after the shared ones, zero past m_s
        pad = max(map(len, own))
        ent_sums, per_sums = (
            np.concatenate((sums, np.zeros(sums.shape[:2] + (pad,))), axis=2)
            for sums in (ent_sums, per_sums)
        )
        for e, p, Y in zip(ent_sums, per_sums, own):
            e[:, len(grids) : len(grids) + len(Y)] = Y.sum(axis=2).T
            p[:, len(grids) : len(grids) + len(Y)] = Y.sum(axis=1).T
    cnt_p = np.count_nonzero(masks, axis=1)
    # an entity without rows has zero sums: any count serves
    cnt_e = np.maximum(np.count_nonzero(masks, axis=2), 1)[..., None]
    ent_fe = ent_sums / cnt_e if entity_fe else np.zeros_like(ent_sums)
    per_fe = np.zeros_like(per_sums)
    if time_fe and not entity_fe:
        per_fe = per_sums / np.maximum(cnt_p, 1)[..., None]
    elif time_fe:
        root = np.sqrt(cnt_e)
        N /= root  # diag(n_i)^-1/2 N, in place
        shared = np.matmul(N.transpose(0, 2, 1), N)  # positive where N'N is
        links = shared > 0.0
        free = np.diagonal(links, axis1=1, axis2=2) & ~_pinned_periods(links)
        schur = np.where(free[:, :, None] & free[:, None, :], -shared, 0.0)
        diag = np.arange(masks.shape[2])
        schur[:, diag, diag] = np.where(free, cnt_p - shared[:, diag, diag], 1.0)
        del shared, links
        b = per_sums - np.matmul(N.transpose(0, 2, 1), ent_sums / root)
        per_fe = np.linalg.solve(schur, np.where(free[..., None], b, 0.0))
        ent_fe -= np.matmul(N, per_fe) / root
    return per_fe.transpose(0, 2, 1), ent_fe.transpose(0, 2, 1)


def two_way_demean(
    panel: Panel,
    variables: Sequence[str],
    entity_fe: bool = True,
    time_fe: bool = True,
) -> Panel:
    """Demean the listed variables over their joint non-missing cells.

    Every listed variable is demeaned on the same row set (cells where all
    of them are observed); cells outside that set come back missing, which
    keeps the result aligned with the listwise-deleted regression sample.
    The projection is exact on connected and disconnected panels alike.
    """
    names = [str(v) for v in variables]
    mask = panel.present_mask(names)
    if not mask.any():
        raise PanelLPError("no cell has all the requested variables observed")
    grids = np.stack([np.where(mask, panel.column(name), 0.0) for name in names])
    per_fe, ent_fe = _fe_effects(mask[None], grids, entity_fe, time_fe)
    grids -= per_fe[0][:, None]
    grids -= ent_fe[0][..., None]
    grids[:, ~mask] = np.nan
    grids.flags.writeable = False  # one read-only grid per variable
    return panel._new({**panel._columns, **dict(zip(names, grids))})
