"""Event lists, severity terciles, and dummy-grid construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panellp.errors import EventError
from panellp.events import (
    EventList,
    PandemicEvent,
    _percentile,
    build_dummies,
    severity_terciles,
)
from panellp.panel import Panel


def grid_panel(entities, years):
    zeros = np.zeros((len(entities), len(years)))
    return Panel(entities, years, {"zero": zeros})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_event_requires_countries_and_uniqueness():
    with pytest.raises(EventError):
        PandemicEvent("flu", 1968, ())
    with pytest.raises(EventError, match="more than once"):
        PandemicEvent("flu", 1968, ("USA", "USA"))


def test_event_list_validation():
    ev = PandemicEvent("flu", 1968, ("USA", "GBR"))
    with pytest.raises(EventError):
        EventList(events=())
    with pytest.raises(EventError, match="duplicate"):
        EventList(events=(ev, PandemicEvent("flu", 1970, ("FRA",))))
    with pytest.raises(EventError, match="does not match"):
        EventList(events=(ev,), mortality={("flu", "FRA"): 1.0})
    with pytest.raises(EventError, match=">= 0"):
        EventList(events=(ev,), mortality={("flu", "USA"): -1.0})
    ok = EventList(events=(ev,), mortality={("flu", "USA"): 2.0})
    assert ok.names == ("flu",)
    assert sum(len(ev.entities) for ev in ok.events) == 2


# ---------------------------------------------------------------------------
# severity classification
# ---------------------------------------------------------------------------


def test_tercile_cutoffs_frozen_values():
    # np.percentile (linear interpolation) on 1..10: P30 = 3.7, P70 = 7.3
    assert float(np.percentile(np.arange(1.0, 11.0), 30)) == pytest.approx(3.7, abs=1e-12)
    assert float(np.percentile(np.arange(1.0, 11.0), 70)) == pytest.approx(7.3, abs=1e-12)
    # and on three points 0, 1, 2: P30 = 0.6, P70 = 1.4
    assert float(np.percentile(np.arange(3.0), 30)) == pytest.approx(0.6)
    assert float(np.percentile(np.arange(3.0), 70)) == pytest.approx(1.4)


# mortality-like magnitudes, some log-uniform, with ties drawn from a pool
_magnitudes = st.one_of(
    st.just(0.0),
    st.floats(1e-5, 1e5),
    st.floats(-5.0, 5.0).map(lambda e: 10.0**e),
)
_samples = st.one_of(
    st.lists(_magnitudes, min_size=1, max_size=60),
    st.lists(_magnitudes, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
    ),
)


@settings(max_examples=400, deadline=None)
@given(_samples, st.sampled_from([30.0, 70.0]))
def test_linear_percentile_matches_numpy_exactly(values, q):
    # the in-house linear rule must reproduce np.percentile bit for bit,
    # or a country on a cutoff could change severity class
    arr = np.asarray(values)
    assert _percentile(arr, q, "linear") == float(np.percentile(arr, q))


def test_terciles_classify_strictly():
    ents = tuple(f"C{i}" for i in range(10))
    ev = PandemicEvent("flu", 2000, ents)
    mortality = {("flu", ents[i]): float(i + 1) for i in range(10)}
    classes = severity_terciles(EventList((ev,), mortality)).classes
    # cutoffs 3.7 / 7.3: 1..3 low, 4..7 medium, 8..10 high
    expect = ["low"] * 3 + ["medium"] * 4 + ["high"] * 3
    assert [classes[("flu", e)] for e in ents] == expect


def test_terciles_boundary_value_is_medium():
    # mortality exactly on a cutoff takes the middle class: with values
    # 0,1,2 the cutoffs are 0.6 and 1.4, so add a country at exactly 1.4
    ents = ("A", "B", "C", "D", "E")
    values = [0.0, 1.0, 2.0, 1.4, 0.6]
    # cutoffs over these five: P30 = 0.68, P70 = 1.32 -> recompute honestly
    ev = PandemicEvent("flu", 2000, ents)
    mort = dict(zip([("flu", e) for e in ents], values))
    classes = severity_terciles(EventList((ev,), mort)).classes
    arr = np.asarray(values)
    p30, p70 = np.percentile(arr, 30), np.percentile(arr, 70)
    for e, v in zip(ents, values):
        want = "high" if v > p70 else ("low" if v < p30 else "medium")
        assert classes[("flu", e)] == want


def test_terciles_nearest_rank_rule():
    ents = tuple(f"C{i}" for i in range(10))
    ev = PandemicEvent("flu", 2000, ents)
    mort = {("flu", ents[i]): float(i + 1) for i in range(10)}
    classes = severity_terciles(
        EventList((ev,), mort), rule="nearest_rank"
    ).classes
    # nearest-rank: P30 = 3rd order stat = 3, P70 = 7th = 7 (strict compare)
    expect = {1: "low", 2: "low", 3: "medium", 7: "medium", 8: "high"}
    for v, want in expect.items():
        assert classes[("flu", ents[v - 1])] == want
    with pytest.raises(EventError):
        severity_terciles(EventList((ev,), mort), rule="midpoint")


def test_terciles_small_event_unclassifiable():
    ev = PandemicEvent("zika", 2016, ("BRA", "COL", "PER"))
    mort = {("zika", "BRA"): 5.0, ("zika", "COL"): 1.0}  # only two values
    sev = severity_terciles(EventList((ev,), mort))
    assert sev.unclassifiable_events == ("zika",)
    assert all(
        sev.classes[("zika", e)] == "medium" for e in ("BRA", "COL", "PER")
    )
    assert ("zika", "PER") in sev.missing_mortality


def test_terciles_missing_country_falls_to_medium():
    ents = ("A", "B", "C", "D")
    ev = PandemicEvent("flu", 2000, ents)
    mort = {("flu", "A"): 1.0, ("flu", "B"): 2.0, ("flu", "C"): 30.0}
    sev = severity_terciles(EventList((ev,), mort))
    assert sev.classes[("flu", "D")] == "medium"
    assert sev.missing_mortality == (("flu", "D"),)
    assert sev.unclassifiable_events == ()


def test_terciles_require_mortality():
    ev = EventList((PandemicEvent("flu", 2000, ("A",)),))
    with pytest.raises(EventError, match="no mortality"):
        severity_terciles(ev)


# ---------------------------------------------------------------------------
# dummy grids
# ---------------------------------------------------------------------------


def test_build_dummies_basic_placement():
    ents = tuple(f"C{i}" for i in range(6))
    panel = grid_panel(ents, list(range(1995, 2005)))
    ev = EventList(
        (
            PandemicEvent("a", 1998, ents[:3]),
            PandemicEvent("b", 2002, ents[2:5]),
        )
    )
    es = build_dummies(ev, panel)
    assert es.shock_count() == 6
    j98 = 1998 - 1995
    j02 = 2002 - 1995
    dummy = es.column("all")
    assert dummy[:3, j98].sum() == 3
    assert dummy[2:5, j02].sum() == 3
    # without mortality, everything lands in medium by fallback
    np.testing.assert_array_equal(es.column("medium"), dummy)
    assert es.column("high").sum() == 0 and es.column("low").sum() == 0
    assert es.fallback_medium_cells == 6


def test_severity_dummies_partition_the_shock_dummy():
    ents = tuple(f"C{i}" for i in range(9))
    panel = grid_panel(ents, list(range(2000, 2010)))
    ev = PandemicEvent("flu", 2003, ents)
    mort = {("flu", e): float(i) for i, e in enumerate(ents)}
    es = build_dummies(EventList((ev,), mort), panel)
    high, medium, low = (es.column(n) for n in ("high", "medium", "low"))
    np.testing.assert_array_equal(high + medium + low, es.column("all"))
    assert high.sum() > 0 and low.sum() > 0


def test_same_cell_overlap_takes_max_severity():
    # two events in the same year; one classifies the country high, the
    # other low -> the cell must come out high
    ents = tuple(f"C{i}" for i in range(10))
    panel = grid_panel(ents, [2000, 2001, 2002])
    high_for_c0 = PandemicEvent("x", 2001, ents)
    low_for_c0 = PandemicEvent("y", 2001, ents)
    mort = {}
    for i, e in enumerate(ents):
        mort[("x", e)] = float(i)        # C9 highest
        mort[("y", e)] = float(10 - i)   # C9 lowest
    es = build_dummies(EventList((high_for_c0, low_for_c0), mort), panel)
    i = panel.entity_rows(["C9"])[0]
    j = 2001 - panel.periods[0]
    high, medium, low = (es.column(n) for n in ("high", "medium", "low"))
    assert es.column("all")[i, j] == 1.0
    assert high[i, j] == 1.0 and low[i, j] == 0.0
    # still a partition
    np.testing.assert_array_equal(high + medium + low, es.column("all"))


def test_unresolved_entities_and_out_of_range_years():
    panel = grid_panel(("USA", "GBR"), [2000, 2001])
    ev = EventList(
        (
            PandemicEvent("old", 1968, ("USA",)),
            PandemicEvent("now", 2001, ("USA", "FRA")),
        )
    )
    es = build_dummies(ev, panel)
    assert es.out_of_range_years == (("old", 1968),)
    assert es.unresolved_entities == (("now", "FRA"),)
    assert es.shock_count() == 1


def test_eventset_column_names():
    panel = grid_panel(("A", "B", "C"), [2000])
    ev = EventList((PandemicEvent("e", 2000, ("A",)),))
    es = build_dummies(ev, panel)
    np.testing.assert_array_equal(es.column("all"), [[1.0], [0.0], [0.0]])
    np.testing.assert_array_equal(es.column("medium"), es.column("all"))
    np.testing.assert_array_equal(es.column("high"), np.zeros((3, 1)))
    # each call returns a fresh grid: freezing one, as Panel._stored does,
    # touches neither the other nor the EventSet
    first, second = es.column("all"), es.column("all")
    assert first is not second and not np.shares_memory(first, second)
    assert not np.shares_memory(first, es.severity)
    severity, writeable = es.severity.copy(), es.severity.flags.writeable
    first.flags.writeable = False
    assert second.flags.writeable
    assert es.severity.flags.writeable == writeable
    np.testing.assert_array_equal(es.severity, severity)
    np.testing.assert_array_equal(es.column("all"), second)
    with pytest.raises(EventError, match="unknown shock dummy"):
        es.column("extreme")


# ---------------------------------------------------------------------------
# property: the vectorised layout equals a per-cell reference loop
# ---------------------------------------------------------------------------

_RANK = {"high": 2, "medium": 1, "low": 0}


def reference_dummies(events, panel, rule="linear"):
    """The per-cell loop that ``build_dummies`` replaced, kept as an oracle."""
    shape = (panel.n_entities, panel.n_periods)
    dummy = np.zeros(shape)
    rank = np.full(shape, -1, dtype=int)
    unresolved, out_of_range, fallback = [], [], 0
    if events.mortality is not None:
        severity = severity_terciles(events, rule=rule)
        classes, unclassifiable = severity.classes, severity.unclassifiable_events
    else:
        classes, unclassifiable = {}, ()
    pmin, pmax = panel.periods[0], panel.periods[-1]
    for ev in events.events:
        if ev.year < pmin or ev.year > pmax:
            out_of_range.append((ev.name, ev.year))
            continue
        j = ev.year - pmin
        for ent in ev.entities:
            i = panel.entity_rows([ent])[0]
            if i < 0:
                unresolved.append((ev.name, ent))
                continue
            dummy[i, j] = 1.0
            label = classes.get((ev.name, ent))
            if label is None:
                label = "medium"
                fallback += 1
            elif (
                events.mortality is not None
                and (ev.name, ent) not in events.mortality
            ):
                fallback += 1
            rank[i, j] = max(rank[i, j], _RANK[label])
    return dict(
        dummy=dummy,
        high=(rank == 2).astype(float),
        medium=(rank == 1).astype(float),
        low=(rank == 0).astype(float),
        unresolved_entities=tuple(unresolved),
        out_of_range_years=tuple(out_of_range),
        fallback_medium_cells=fallback,
        unclassifiable_events=tuple(unclassifiable),
    )


_LABELS = ("AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG")


@st.composite
def panels_and_events(draw):
    """A small panel, and events that overlap in cells, name countries the
    panel lacks, fall outside its years, and carry partial mortality."""
    labels = st.sampled_from(_LABELS)
    ents = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    start = draw(st.integers(2000, 2002))
    years = list(range(start, start + draw(st.integers(1, 4))))
    panel = grid_panel(ents, years)
    n_events = draw(st.integers(1, 5))
    events = tuple(
        PandemicEvent(
            f"ev{e}",
            draw(st.integers(1998, 2007)),
            tuple(draw(st.lists(labels, min_size=1, max_size=6, unique=True))),
        )
        for e in range(n_events)
    )
    mortality = None
    if draw(st.booleans()):
        pairs = [(ev.name, ent) for ev in events for ent in ev.entities]
        kept = draw(st.lists(st.sampled_from(pairs), unique=True))
        # few distinct values, so cutoffs tie with observations
        values = st.sampled_from((0.0, 1.0, 2.5, 4.0, 9.0))
        mortality = {key: draw(values) for key in kept}
    rule = draw(st.sampled_from(("linear", "nearest_rank")))
    return EventList(events, mortality), panel, rule


@settings(max_examples=60, deadline=None)
@given(panels_and_events())
def test_build_dummies_matches_per_cell_reference(case):
    events, panel, rule = case
    got = build_dummies(events, panel, rule=rule)
    want = reference_dummies(events, panel, rule=rule)
    for name in ("dummy", "high", "medium", "low"):
        which = "all" if name == "dummy" else name
        np.testing.assert_array_equal(got.column(which), want[name], err_msg=name)
    assert got.shock_count() == int(want["dummy"].sum())
    for name in (
        "unresolved_entities",
        "out_of_range_years",
        "fallback_medium_cells",
        "unclassifiable_events",
    ):
        assert getattr(got, name) == want[name], name
