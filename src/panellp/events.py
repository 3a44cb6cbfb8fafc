"""Event lists, shock dummies, and mortality-based severity classes.

An event is an outbreak year plus the set of countries it reached.  The
shock dummy marks each affected country in the event year.  When a
cross-country mortality measure is available for an event, affected
countries are split into high / medium / low severity by comparing each
country's mortality with the event's 70th and 30th percentiles (strict
inequalities; linear-interpolation percentiles by default, nearest-rank as
an option).  Countries without a usable class fall back to medium and are
counted in the diagnostics rather than dropped.  The events are laid onto
a panel's grid as one severity rank per cell; the plain dummy and the
three severity dummies are derived from it on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import EventError
from .panel import Panel

__all__ = [
    "PandemicEvent",
    "EventList",
    "EventSet",
    "SeverityClasses",
    "severity_terciles",
    "build_dummies",
]

SEVERITY_LEVELS = ("high", "medium", "low")


@dataclass(frozen=True)
class PandemicEvent:
    """One outbreak: a label, its onset year, and the countries it reached."""

    name: str
    year: int
    entities: tuple[str, ...]

    def __post_init__(self):
        if not self.entities:
            raise EventError(f"event {self.name!r} affects no countries")
        if len(set(self.entities)) != len(self.entities):
            dupes = sorted(
                {e for e in self.entities if self.entities.count(e) > 1}
            )
            raise EventError(
                f"event {self.name!r} lists countries more than once: {dupes}"
            )


@dataclass(frozen=True)
class EventList:
    """All events of a study plus an optional mortality measure.

    ``mortality`` maps ``(event_name, entity)`` to a non-negative
    cross-country severity measure (deaths per capita, say).  Keys must
    refer to (event, affected-country) pairs that exist.
    """

    events: tuple[PandemicEvent, ...]
    mortality: Mapping[tuple[str, str], float] | None = None

    def __post_init__(self):
        if not self.events:
            raise EventError("event list is empty")
        names = [ev.name for ev in self.events]
        if len(set(names)) != len(names):
            raise EventError("duplicate event names")
        if self.mortality is not None:
            affected = {
                (ev.name, ent) for ev in self.events for ent in ev.entities
            }
            for key, value in self.mortality.items():
                if key not in affected:
                    raise EventError(
                        f"mortality entry {key!r} does not match any "
                        "(event, affected country) pair"
                    )
                if not math.isfinite(value) or value < 0:
                    raise EventError(f"mortality for {key!r} must be >= 0")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(ev.name for ev in self.events)


@dataclass(frozen=True)
class SeverityClasses:
    """Per-(event, country) severity labels plus classification diagnostics."""

    classes: Mapping[tuple[str, str], str]
    unclassifiable_events: tuple[str, ...] = ()
    missing_mortality: tuple[tuple[str, str], ...] = ()


def _percentile(values: np.ndarray, q: float, rule: str) -> float:
    if rule == "linear":
        # np.percentile's default (Hyndman & Fan type 7) in the same float
        # operations, so the cutoffs match it bit for bit; np.percentile
        # itself loads numpy.ma and numpy.random on its first call
        ordered = np.sort(values)
        h = (ordered.size - 1) * (q / 100.0)
        lo = int(h)
        a, b = float(ordered[lo]), float(ordered[min(lo + 1, ordered.size - 1)])
        g = h - lo
        return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g
    if rule == "nearest_rank":
        # classical nearest-rank: the ceil(q/100 * n)-th order statistic
        n = values.size
        rank = int(np.ceil(q / 100.0 * n))
        rank = min(max(rank, 1), n)
        return float(np.sort(values)[rank - 1])
    raise EventError(f"unknown percentile rule {rule!r}")


def severity_terciles(
    events: EventList, rule: str = "linear"
) -> SeverityClasses:
    """Classify each (event, country) pair by within-event mortality.

    High when mortality exceeds the event's 70th percentile, low when below
    the 30th, medium otherwise — both comparisons strict, so a country
    sitting exactly on a cutoff is medium.  Percentiles are taken over the
    event's available mortality observations only.  An event with fewer
    than three mortality observations is flagged unclassifiable and every
    affected country falls back to medium; so does any country missing a
    mortality value in an otherwise classifiable event.
    """
    if events.mortality is None:
        raise EventError("event list carries no mortality data")
    classes: dict[tuple[str, str], str] = {}
    unclassifiable: list[str] = []
    missing: list[tuple[str, str]] = []
    for ev in events.events:
        have = [
            (ent, events.mortality[(ev.name, ent)])
            for ent in ev.entities
            if (ev.name, ent) in events.mortality
        ]
        absent = [ent for ent in ev.entities if (ev.name, ent) not in events.mortality]
        missing.extend((ev.name, ent) for ent in absent)
        if len(have) < 3:
            unclassifiable.append(ev.name)
            for ent in ev.entities:
                classes[(ev.name, ent)] = "medium"
            continue
        values = np.asarray([m for _, m in have], dtype=float)
        p70 = _percentile(values, 70.0, rule)
        p30 = _percentile(values, 30.0, rule)
        for ent, m in have:
            if m > p70:
                classes[(ev.name, ent)] = "high"
            elif m < p30:
                classes[(ev.name, ent)] = "low"
            else:
                classes[(ev.name, ent)] = "medium"
        for ent in absent:
            classes[(ev.name, ent)] = "medium"
    return SeverityClasses(
        classes=classes,
        unclassifiable_events=tuple(unclassifiable),
        missing_mortality=tuple(missing),
    )


@dataclass(frozen=True)
class EventSet:
    """Shock dummies aligned to a panel's entity x period grid, kept as one
    severity grid.

    ``severity`` holds an int8 rank per cell: -1 where no event hits, and
    0, 1 or 2 (low, medium, high) where one does; countries without a
    class rank medium.  :meth:`column` derives each 0/1 dummy on read: the
    plain outbreak indicator ``all``, and ``high``/``medium``/``low``,
    which partition it cell by cell.  Diagnostics record countries in the
    event list that the panel does not contain, event years outside the
    panel's period range, and how many dummy cells took the
    medium-by-fallback route.
    """

    severity: np.ndarray
    unresolved_entities: tuple[tuple[str, str], ...] = ()
    out_of_range_years: tuple[tuple[str, int], ...] = ()
    fallback_medium_cells: int = 0
    unclassifiable_events: tuple[str, ...] = ()

    def shock_count(self) -> int:
        return int(np.count_nonzero(self.severity >= 0))

    def column(self, which: str) -> np.ndarray:
        """A fresh 0/1 float grid of one dummy by name: all, high, medium,
        low."""
        if which == "all":
            return (self.severity >= 0).astype(float)
        if which in _SEVERITY_RANK:
            return (self.severity == _SEVERITY_RANK[which]).astype(float)
        raise EventError(
            f"unknown shock dummy {which!r}; "
            f"pick one of {sorted(('all', *_SEVERITY_RANK))}"
        )


_SEVERITY_RANK = {"high": 2, "medium": 1, "low": 0}


def build_dummies(
    events: EventList, panel: Panel, rule: str = "linear"
) -> EventSet:
    """Lay the event list onto a panel grid as a severity rank per cell.

    Every affected country found in the panel is hit in the event year.
    Its rank comes from :func:`severity_terciles` when the event list
    carries mortality; without mortality every hit ranks medium (and is
    counted as fallback).  If two events hit the same cell with different
    classes the more severe one wins, keeping the high/medium/low dummies
    an exact partition of the plain one.
    """
    pmin, pmax = panel.periods[0], panel.periods[-1]
    out_of_range, keys, cols = [], [], []
    for ev in events.events:
        if pmin <= ev.year <= pmax:
            keys += [(ev.name, ent) for ent in ev.entities]
            cols += [ev.year - pmin] * len(ev.entities)
        else:
            out_of_range.append((ev.name, ev.year))
    rows = panel.entity_rows([ent for _, ent in keys])
    found = rows >= 0
    unresolved = [key for key, ok in zip(keys, found.tolist()) if not ok]
    if events.mortality is None:
        # every hit is medium by fallback
        fallback, ranks, unclassifiable = int(found.sum()), _SEVERITY_RANK["medium"], ()
    else:
        terciles = severity_terciles(events, rule=rule)
        hits = [key for key, ok in zip(keys, found.tolist()) if ok]
        fallback = sum(key not in events.mortality for key in hits)
        ranks = [_SEVERITY_RANK[terciles.classes[key]] for key in hits]
        unclassifiable = terciles.unclassifiable_events

    cells = (rows[found], np.asarray(cols, dtype=np.intp)[found])
    severity = np.full((panel.n_entities, panel.n_periods), -1, dtype=np.int8)
    np.maximum.at(severity, cells, np.asarray(ranks, dtype=np.int8))
    return EventSet(
        severity=severity,
        unresolved_entities=tuple(unresolved),
        out_of_range_years=tuple(out_of_range),
        fallback_medium_cells=fallback,
        unclassifiable_events=unclassifiable,
    )
