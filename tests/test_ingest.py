"""CSV ingest/report round trips and their error paths."""

from __future__ import annotations

import os

import numpy as np
import pytest
from conftest import balanced_panel, punch_holes
from hypothesis import given, settings
from hypothesis import strategies as st

from panellp.errors import ConfigError, DataError, EventError
from panellp.estimator import lsdv_fit
from panellp.events import EventList, PandemicEvent
from panellp.ingest import (
    carbon_to_co2,
    file_sha256,
    load_config,
    merge,
    read_event_list,
    read_groups,
    read_irf,
    read_panel,
    write_event_list,
    write_irf,
    write_panel,
    write_regression_table,
)
from panellp.lp import LPSpec, estimate_irf
from panellp.panel import Panel, VariableSpec
from panellp.simgen import DGPSpec, generate

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# panel CSV
# ---------------------------------------------------------------------------


def test_panel_round_trip_is_exact(tmp_path, rng):
    panel = punch_holes(balanced_panel(rng, n_entities=5, n_periods=7), rng)
    path = str(tmp_path / "p.csv")
    write_panel(panel, path)
    back = read_panel(path)
    assert back.entities == panel.entities
    assert back.periods == panel.periods
    for v in panel.variables:
        np.testing.assert_array_equal(back.column(v), panel.column(v))


def test_read_panel_missing_required_header(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,y", "A,1.0"])
    with pytest.raises(DataError, match="year"):
        read_panel(path)


def test_read_panel_duplicate_header(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y,y", "A,2000,1.0,2.0"])
    with pytest.raises(DataError, match="duplicate column"):
        read_panel(path)


def test_read_panel_duplicate_cell_names_both_lines(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(
        path,
        ["entity,year,y", "A,2000,1.0", "B,2000,2.0", "A,2000,3.0"],
    )
    with pytest.raises(DataError, match="first seen at line 2") as err:
        read_panel(path)
    assert "p.csv:4:" in str(err.value)


def test_read_panel_non_numeric_cell_names_location(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y", "A,2000,1.0", "A,2001,oops"])
    with pytest.raises(DataError) as err:
        read_panel(path)
    msg = str(err.value)
    assert "p.csv:3" in msg and "'y'" in msg and "oops" in msg


def test_read_panel_empty_cell_is_missing(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y,x", "A,2000,1.0,", "A,2001,2.0,5.0"])
    panel = read_panel(path)
    x = panel.column("x")
    assert np.isnan(x[0, 0]) and x[0, 1] == 5.0


def test_read_panel_ragged_row(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y", "A,2000"])
    with pytest.raises(DataError, match="fields"):
        read_panel(path)


def test_read_panel_empty_and_headerless(tmp_path):
    blank = str(tmp_path / "blank.csv")
    write_lines(blank, ["", " , "])
    with pytest.raises(DataError, match="file is empty"):
        read_panel(blank)
    header_only = str(tmp_path / "h.csv")
    write_lines(header_only, ["entity,year,y"])
    with pytest.raises(DataError, match="no data rows"):
        read_panel(header_only)


def test_read_panel_spans_full_period_range(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y,x", "B,2003,1.0,", "A,2000,2.0,3.0", "A,2002,,"])
    p = read_panel(path)
    assert p.entities == ("B", "A")  # first-appearance order
    assert p.periods == (2000, 2001, 2002, 2003)  # 2001 is in no row
    assert p.variables == ("y", "x")
    assert p.column("y")[1, 0] == 2.0 and p.column("y")[0, 3] == 1.0
    assert np.isnan(p.column("y")[1, 2])  # an empty cell stays missing
    assert np.isnan(p.column("x")[0, 3])
    assert np.isnan(p.column("y")[:, 1]).all()


def test_read_panel_skips_blank_rows_and_strips_cells(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["", " entity , year ,y", "", "A , 2000, 1.5 ", ",,"])
    p = read_panel(path)
    assert p.entities == ("A",) and p.periods == (2000,)
    assert p.column("y")[0, 0] == 1.5


def test_read_panel_rejects_a_year_span_past_the_limit(tmp_path):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y", "A,2000,1.0", "A,200000000000,2.0"])
    with pytest.raises(DataError, match="span more than"):
        read_panel(path)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("absent.csv", None, "cannot read"),
        ("latin1.csv", "entity,year,y\nCôte,2000,1\n".encode("latin-1"), "UTF-8"),
    ],
)
def test_unreadable_input_is_a_data_error(tmp_path, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    for read in (read_panel, read_event_list, lambda p: read_groups(p, "g")):
        with pytest.raises(DataError, match=message) as err:
            read(str(path))
        assert str(err.value).startswith(f"{path}: ")


def test_a_byte_order_mark_reads_as_its_absence(tmp_path):
    # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
    texts = {
        "panel.csv": "entity,year,y\nA,2000,1.5\nB,2001,2.0\n",
        "events.csv": "event_name,year,iso3\nflu,2000,A\nflu,2000,B\n",
        "mortality.csv": "event_name,iso3,mortality\nflu,A,1.0\nflu,B,2.5\n",
        "groups.csv": "entity,member\nA,1\nB,0\n",
        "run.cfg": "input.panel = panel.csv\nspec.kind = baseline\n",
    }

    def read(bom):
        folder = tmp_path / ("bom" if bom else "plain")
        folder.mkdir()
        for name, text in texts.items():
            (folder / name).write_text(bom + text, encoding="utf-8")
        panel = read_panel(str(folder / "panel.csv"))
        grids = {v: panel.column(v).tobytes() for v in panel.variables}
        events = read_event_list(
            str(folder / "events.csv"), str(folder / "mortality.csv")
        )
        group = read_groups(str(folder / "groups.csv"), "g")
        config = load_config(str(folder / "run.cfg"))
        return panel.entities, panel.periods, grids, events, group, config

    assert read("\ufeff") == read("")
    assert (tmp_path / "bom" / "run.cfg").read_bytes()[:3] == b"\xef\xbb\xbf"


# ---------------------------------------------------------------------------
# event and group CSVs
# ---------------------------------------------------------------------------


def test_read_event_list_basic(tmp_path):
    path = str(tmp_path / "ev.csv")
    write_lines(
        path,
        [
            "event_name,year,iso3",
            "alpha,1997,USA",
            "alpha,1997,FRA",
            "beta,2004,JPN",
        ],
    )
    events = read_event_list(path)
    assert events.names == ("alpha", "beta")
    assert events.events[0].year == 1997
    assert events.events[0].entities == ("USA", "FRA")
    assert events.mortality is None


def test_write_event_list_round_trips_through_read_event_list(tmp_path):
    events = EventList(
        events=(
            PandemicEvent(name="alpha", year=1997, entities=("USA", "FRA")),
            PandemicEvent(name="beta, the second", year=2004, entities=("JPN",)),
        )
    )
    path = str(tmp_path / "ev.csv")
    write_event_list(events, path)
    assert read_event_list(path) == events


def test_read_event_list_conflicting_years(tmp_path):
    path = str(tmp_path / "ev.csv")
    write_lines(
        path,
        ["event_name,year,iso3", "alpha,1997,USA", "alpha,1998,FRA"],
    )
    with pytest.raises(DataError, match="conflicting years"):
        read_event_list(path)


def test_read_event_list_duplicate_pair(tmp_path):
    path = str(tmp_path / "ev.csv")
    write_lines(
        path,
        ["event_name,year,iso3", "alpha,1997,USA", "alpha,1997,USA"],
    )
    with pytest.raises(DataError, match="repeated"):
        read_event_list(path)


def test_read_event_list_with_mortality(tmp_path):
    epath = str(tmp_path / "ev.csv")
    mpath = str(tmp_path / "mort.csv")
    write_lines(
        epath,
        ["event_name,year,iso3", "alpha,1997,USA", "alpha,1997,FRA"],
    )
    write_lines(
        mpath,
        ["event_name,iso3,mortality", "alpha,USA,12.5", "alpha,FRA,"],
    )
    events = read_event_list(epath, mpath)
    # the empty cell is simply absent, not zero
    assert events.mortality == {("alpha", "USA"): 12.5}


def test_read_event_list_duplicate_mortality_pair(tmp_path):
    epath = str(tmp_path / "ev.csv")
    mpath = str(tmp_path / "mort.csv")
    write_lines(epath, ["event_name,year,iso3", "alpha,1997,USA"])
    write_lines(
        mpath,
        ["event_name,iso3,mortality", "alpha,USA,1.0", "alpha,USA,2.0"],
    )
    with pytest.raises(DataError, match="duplicate mortality"):
        read_event_list(epath, mpath)


def test_read_groups(tmp_path):
    path = str(tmp_path / "g.csv")
    write_lines(
        path,
        ["entity,member", "USA,1", "FRA,0", "JPN,1"],
    )
    group = read_groups(path, "treaty")
    assert group.name == "treaty"
    assert group.members == frozenset({"USA", "JPN"})
    bad = str(tmp_path / "bad.csv")
    write_lines(bad, ["entity,member", "USA,2"])
    with pytest.raises(DataError, match="0 or 1"):
        read_groups(bad, "treaty")
    none = str(tmp_path / "none.csv")
    write_lines(none, ["entity,member", "USA,0"])
    with pytest.raises(DataError, match="no group members"):
        read_groups(none, "treaty")
    twice = str(tmp_path / "twice.csv")
    write_lines(twice, ["entity,member", "USA,1", "FRA,0", "USA,0"])
    with pytest.raises(
        DataError, match="twice.csv:4: entity USA repeated; first seen at line 2"
    ):
        read_groups(twice, "treaty")
    blank = str(tmp_path / "blank.csv")
    write_lines(blank, ["entity,member", "USA,1", ",1"])
    with pytest.raises(DataError, match="blank.csv:3: empty entity label"):
        read_groups(blank, "treaty")


# ---------------------------------------------------------------------------
# every reader on arbitrary small CSV texts
# ---------------------------------------------------------------------------

_NAMES = ("entity", "year", "y", "event_name", "iso3", "mortality", "member", "")
# cells that every column takes (labels, years, values, 0/1 flags), drawn
# about as often as ones that some or all columns reject
_CELLS = st.sampled_from(
    ["0", "1", "2000", "2001"] * 3
    + ["", " ", "A", "flu", "2", "-3", "1.5", "x", "nan", "inf", "1e400",
       "9" * 25, "-" + "9" * 12]
)
_HEADERS = st.lists(st.sampled_from(_NAMES), max_size=5)
# per header width: mostly full-width rows, so that keys repeat, among
# blank and ragged ones
_BODIES = [
    st.lists(
        st.one_of(
            *[st.lists(_CELLS, min_size=width, max_size=width)] * 2,
            st.just([]),
            st.lists(_CELLS, max_size=5),
        ),
        min_size=1,
        max_size=6,
    )
    for width in range(6)
]


@st.composite
def csv_texts(draw, names):
    """A small CSV text: the ``names`` header three times in four, else a
    random, maybe repeated one; maybe a blank first line; then a body."""
    header = draw(_HEADERS) if draw(st.integers(0, 3)) == 0 else list(names)
    lead = [[]] if draw(st.booleans()) else []
    rows = lead + [header] + draw(_BODIES[len(header)])
    return "\n".join(",".join(r) for r in rows)


@settings(max_examples=100, deadline=None)
@given(
    panel=csv_texts(("entity", "year", "y")),
    events=csv_texts(("event_name", "year", "iso3")),
    mortality=csv_texts(("event_name", "iso3", "mortality")),
    groups=csv_texts(("entity", "member")),
)
def test_readers_return_or_raise_a_data_error(
    tmp_path_factory, panel, events, mortality, groups
):
    # bad input ends as the package's error, never as an IndexError,
    # ValueError or MemoryError
    folder = tmp_path_factory.getbasetemp() / "csv_texts"
    folder.mkdir(exist_ok=True)
    paths = []
    for name, text in zip("pemg", (panel, events, mortality, groups)):
        paths.append(folder / f"{name}.csv")
        paths[-1].write_text(text, encoding="utf-8")
    p, e, m, g = map(str, paths)
    for read in (
        lambda: read_panel(p),
        lambda: read_event_list(e),
        lambda: read_event_list(e, m),
        lambda: read_groups(g, "g"),
    ):
        try:
            read()
        except (DataError, EventError):
            pass


# ---------------------------------------------------------------------------
# unit conversion and merging
# ---------------------------------------------------------------------------


def test_carbon_to_co2_factor_is_exact():
    panel = Panel(["A"], [2000], {"c": np.array([[1000.0]])})
    out = carbon_to_co2(panel, "c")
    assert out.column("c")[0, 0] == 3667.0


def test_merge_outer_join_and_unmatched():
    left = Panel(
        ["A", "B"],
        [2000, 2001],
        {"y": np.array([[1.0, 2.0], [3.0, 4.0]])},
    )
    right = Panel(
        ["B", "C"],
        [2001, 2002],
        {"x": np.array([[5.0, 6.0], [7.0, 8.0]])},
    )
    merged, unmatched = merge([left, right])
    assert merged.entities == ("A", "B", "C")
    assert merged.periods == (2000, 2001, 2002)
    y, x = merged.column("y"), merged.column("x")
    assert y[0, 0] == 1.0 and y[1, 1] == 4.0 and np.isnan(y[2, 0])
    assert x[1, 1] == 5.0 and x[2, 1] == 7.0 and x[2, 2] == 8.0
    assert np.isnan(x[0, 0]) and np.isnan(x[1, 0])
    # A is only in the left input, C only in the right; B matched
    assert unmatched == ("A", "C")


def test_merge_variable_collision():
    a = Panel(["A"], [2000], {"y": np.array([[1.0]])})
    b = Panel(["A"], [2000], {"y": np.array([[2.0]])})
    with pytest.raises(DataError, match="'y'"):
        merge([a, b])


def test_merge_single_panel_is_identity():
    a = Panel(["A"], [2000], {"y": np.array([[1.0]])})
    merged, unmatched = merge([a])
    assert merged is a and unmatched == ()
    with pytest.raises(ConfigError):
        merge([])


# ---------------------------------------------------------------------------
# impulse-response CSV
# ---------------------------------------------------------------------------


def fitted_irf():
    panel, events, _ = generate(
        DGPSpec(n_entities=25, n_periods=18, theta=(0.0, -0.02, -0.03), seed=5)
    )
    spec = LPSpec(
        kind="baseline",
        dependent=VariableSpec("y"),
        horizons=3,
        lag_order=1,
        dummy_lags=1,
    )
    return estimate_irf(panel, events, spec)


def test_irf_round_trip_is_bit_exact(tmp_path):
    irf = fitted_irf()
    path = str(tmp_path / "irf.csv")
    write_irf(irf, path)
    rows = read_irf(path)
    flat = [(h, iv) for h in irf.horizons for iv in h.intervals]
    assert len(rows) == len(flat)
    for rec, (h, iv) in zip(rows, flat):
        assert rec["horizon"] == h.horizon
        assert rec["series"] == iv.name
        assert rec["estimate"] == iv.estimate  # exact, not approx
        assert rec["se"] == iv.se
        assert rec["ci_low"] == iv.ci_low
        assert rec["ci_high"] == iv.ci_high
        assert rec["p_value"] == iv.p_value
        assert rec["stars"] == iv.stars
        assert rec["n_obs"] == h.result.n_obs
        assert rec["r_squared"] == h.result.r_squared


def test_read_irf_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "x.csv")
    write_lines(path, ["a,b,c", "1,2,3"])
    with pytest.raises(DataError, match="header"):
        read_irf(path)


def test_read_irf_names_the_file_line_and_column_of_a_bad_float(tmp_path):
    path = str(tmp_path / "irf.csv")
    write_lines(
        path,
        [
            "horizon,series,estimate,se,ci_low,ci_high,p_value,stars,"
            "n_obs,n_entities,n_periods,r_squared",
            "0,shock,0.1,0.2,-0.3,0.5,0.6,,10,2,5,0.5",
            "1,shock,0.1,abc,-0.3,0.5,0.6,,10,2,5,0.5",
        ],
    )
    with pytest.raises(DataError) as info:
        read_irf(path)
    assert (info.value.path, info.value.line) == (path, 3)
    assert str(info.value) == f"{path}:3: column 'se' has non-numeric value 'abc'"


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e999"])
def test_a_non_finite_cell_is_rejected_with_its_text(tmp_path, cell):
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y", "A,2000,1.5", f"A,2001,{cell}"])
    with pytest.raises(DataError) as info:
        read_panel(path)
    assert str(info.value) == f"{path}:3: column 'y' has non-finite value {cell!r}"


def test_finite_extremes_are_read_as_written(tmp_path):
    cells = ["1.7976931348623157e308", "-5e-324", "-0.0", "1e-310"]
    path = str(tmp_path / "p.csv")
    write_lines(path, ["entity,year,y"] + [f"A,{2000 + i},{c}" for i, c in enumerate(cells)])
    got = read_panel(path).column("y")[0]
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()


# ---------------------------------------------------------------------------
# regression table rendering
# ---------------------------------------------------------------------------


def table_inputs():
    t = np.arange(10, dtype=float)
    x = np.vstack([np.sin(t + i) for i in range(4)])
    z = np.vstack([np.cos(0.5 * t + i) for i in range(4)])
    y = 1.5 * x - 0.8 * z + 0.05 * np.vstack(
        [np.sin(3.0 * t + 2 * i) for i in range(4)]
    )
    panel = Panel(
        [f"E{i}" for i in range(4)],
        list(range(2000, 2010)),
        {"y": y, "x": x, "z": z},
    )
    narrow = lsdv_fit(panel, "y", ("x",))
    wide = lsdv_fit(panel, "y", ("x", "z"))
    return [("(1)", narrow), ("(2)", wide)]


def test_regression_table_matches_golden(tmp_path):
    path = str(tmp_path / "table.txt")
    write_regression_table(table_inputs(), path, title="Outcome: y")
    with open(path, encoding="utf-8") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN, "regression_table.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert got == want


def test_regression_table_requires_results(tmp_path):
    with pytest.raises(ConfigError):
        write_regression_table([], str(tmp_path / "t.txt"))


# ---------------------------------------------------------------------------
# config files and hashing
# ---------------------------------------------------------------------------


def test_load_config_skips_comments_and_blanks(tmp_path):
    path = str(tmp_path / "run.cfg")
    write_lines(
        path,
        [
            "# a comment",
            "",
            "spec.kind = baseline",
            "spec.horizons= 5",
            "input.panel =data/p.csv",
        ],
    )
    cfg = load_config(path)
    assert cfg == {
        "spec.kind": "baseline",
        "spec.horizons": "5",
        "input.panel": "data/p.csv",
    }


def test_load_config_duplicate_key(tmp_path):
    path = str(tmp_path / "run.cfg")
    write_lines(path, ["a = 1", "a = 2"])
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(path)


def test_load_config_malformed_line(tmp_path):
    path = str(tmp_path / "run.cfg")
    write_lines(path, ["just words"])
    with pytest.raises(ConfigError, match="run.cfg:1"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_file_sha256_known_digest(tmp_path):
    path = str(tmp_path / "f.txt")
    with open(path, "wb") as fh:
        fh.write(b"abc")
    assert (
        file_sha256(path)
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
