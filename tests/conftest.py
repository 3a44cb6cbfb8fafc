"""Shared builders for the test suite."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from panellp.cli import _spec_from_config
from panellp.ingest import load_config, read_event_list, read_panel
from panellp.panel import Panel

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def balanced_panel(
    rng: np.random.Generator,
    n_entities: int = 6,
    n_periods: int = 12,
    variables: tuple[str, ...] = ("y", "x"),
    start_year: int = 2000,
) -> Panel:
    """A dense random panel with entity labels E00, E01, ..."""
    cols = {
        v: rng.normal(size=(n_entities, n_periods)) for v in variables
    }
    return Panel(
        [f"E{i:02d}" for i in range(n_entities)],
        list(range(start_year, start_year + n_periods)),
        cols,
    )


def punch_holes(
    panel: Panel, rng: np.random.Generator, frac: float = 0.1
) -> Panel:
    """Knock out a fraction of cells in every variable, keeping each
    entity observed at least twice."""
    out = panel
    for name in panel.variables:
        grid = out.column(name).copy()
        mask = rng.random(grid.shape) < frac
        # never blank an entire row
        for i in range(grid.shape[0]):
            if mask[i].sum() > grid.shape[1] - 2:
                mask[i] = False
        grid[mask] = np.nan
        out = out.replace_column(name, grid)
    return out


def sparse_panel(
    rng: np.random.Generator,
    layout: str,
    variables: tuple[str, ...] = ("y", "a", "b"),
) -> Panel:
    """A panel whose entity-period graph is disconnected or barely connected.

    ``"blocks"``: entities E00-E05 observed in 2000-2006 and E06-E11 in
    2009-2015, with 2007-2008 empty and one hole per entity.  ``"chain"``:
    entity i spans the 2 or 3 years from 2000 + i, so only neighbouring
    entities share a year.  Every variable carries entity and period
    effects; cells off the layout are missing.
    """
    if layout == "blocks":
        n_entities, n_periods = 12, 16
        mask = np.zeros((n_entities, n_periods), dtype=bool)
        mask[:6, :7] = True
        mask[6:, 9:] = True
        for i in range(n_entities):
            mask[i, rng.choice(np.flatnonzero(mask[i]))] = False
    elif layout == "chain":
        n_entities = 30
        n_periods = n_entities + 2
        mask = np.zeros((n_entities, n_periods), dtype=bool)
        for i in range(n_entities):
            mask[i, i : i + 2 + i % 2] = True
    else:
        raise ValueError(f"unknown layout {layout!r}")
    alpha = rng.normal(scale=3.0, size=(n_entities, 1))
    gamma = rng.normal(scale=2.0, size=(1, n_periods))
    cols = {}
    for v in variables:
        grid = alpha * rng.normal() + gamma * rng.normal()
        grid = grid + rng.normal(size=(n_entities, n_periods))
        grid[~mask] = np.nan
        cols[v] = grid
    return Panel(
        [f"E{i:02d}" for i in range(n_entities)],
        list(range(2000, 2000 + n_periods)),
        cols,
    )


def sample_case():
    """The shipped sample panel, events and baseline spec."""
    cfg = load_config(str(REPO_ROOT / "configs" / "sample_baseline.cfg"))
    panel = read_panel(str(REPO_ROOT / cfg["input.panel"]))
    events = read_event_list(
        str(REPO_ROOT / cfg["input.events"]), str(REPO_ROOT / cfg["input.mortality"])
    )
    return panel, events, _spec_from_config(cfg)


def assert_same_bits(got, want, label=None):
    """Two impulse responses with equal diagnostics, intervals and fit
    arrays, bit for bit."""
    assert got.diagnostics == want.diagnostics, label
    assert len(got.horizons) == len(want.horizons), label
    for g, w in zip(got.horizons, want.horizons):
        assert g.intervals == w.intervals, label
        for field in ("coefficients", "covariance", "residuals"):
            a, b = getattr(g.result, field), getattr(w.result, field)
            assert a.tobytes() == b.tobytes(), (label, field)


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR
