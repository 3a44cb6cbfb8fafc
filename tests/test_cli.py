"""End-to-end command-line tests: exit codes, files, error lines."""

from __future__ import annotations

import dataclasses
import errno
import importlib.metadata
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import panellp.cli
from panellp.cli import main
from panellp.errors import (
    DataError,
    DegenerateDesignError,
    InsufficientClustersError,
    PanelLPError,
    UnidentifiedShockError,
)
from panellp.ingest import read_event_list, read_irf, read_panel
from panellp.lp import LPSpec
from panellp.validation import SUITES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture
def sim_dir(tmp_path):
    """Simulate a small panel through the CLI and return its directory."""
    cfg = tmp_path / "sim.cfg"
    write_lines(
        cfg,
        [
            "dgp.entities = 20",
            "dgp.periods = 16",
            "dgp.theta = 0,-0.02,-0.03,0",
            "dgp.shock_prob = 0.1",
            "dgp.seed = 11",
        ],
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def estimate_config(tmp_path, sim_dir, extra=()):
    """A baseline config on the simulated panel; a line of ``extra``
    replaces the default line of its key."""
    defaults = [
        f"input.panel = {sim_dir / 'panel.csv'}",
        f"input.events = {sim_dir / 'events.csv'}",
        f"output.dir = {tmp_path / 'out'}",
        "spec.kind = baseline",
        "spec.dependent = y",
        "spec.dependent_transform = level",
        "spec.horizons = 3",
        "spec.lag_order = 1",
        "spec.dummy_lags = 1",
    ]
    overridden = {line.split(" = ")[0] for line in extra}
    cfg = tmp_path / "run.cfg"
    write_lines(
        cfg,
        [l for l in defaults if l.split(" = ")[0] not in overridden] + list(extra),
    )
    return cfg


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_readable_outputs(sim_dir):
    panel = read_panel(str(sim_dir / "panel.csv"))
    assert panel.n_entities == 20 and panel.variables == ("y", "growth")
    events = read_event_list(str(sim_dir / "events.csv"))
    assert sum(len(ev.entities) for ev in events.events) > 0
    truth = (sim_dir / "truth.txt").read_text()
    assert "theta = 0.0,-0.02,-0.03,0.0" in truth
    assert "seed = 11" in truth


def test_simulate_seed_flag_overrides_config(tmp_path, sim_dir):
    cfg = tmp_path / "sim.cfg"  # written by the fixture
    out2 = tmp_path / "sim2"
    assert (
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        == 0
    )
    assert "seed = 99" in (out2 / "truth.txt").read_text()
    a = (sim_dir / "panel.csv").read_text()
    b = (out2 / "panel.csv").read_text()
    assert a != b


def test_simulate_unknown_dgp_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    write_lines(cfg, ["dgp.entitties = 5"])
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error: config:" in capsys.readouterr().err


def test_simulate_without_shocks_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "noshock.cfg"
    write_lines(cfg, ["dgp.entities = 5", "dgp.periods = 6", "dgp.shock_prob = 0"])
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "error: config: the draw produced no shocks" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_state_dependent_truth_lists_each_shock_weight(tmp_path):
    cfg = tmp_path / "sim.cfg"
    write_lines(
        cfg,
        [
            "dgp.entities = 20",
            "dgp.periods = 15",
            "dgp.theta_recession = 0,-0.03",
            "dgp.theta_expansion = 0,-0.01",
            "dgp.seed = 3",
        ],
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "truth.txt").read_text().splitlines()
    assert "theta_recession = 0.0,-0.03" in lines
    assert "theta_expansion = 0.0,-0.01" in lines
    shocks = [l.split(" = ")[1] for l in lines if l.startswith("shock = ")]
    weights = [l.split(" = ")[1] for l in lines if l.startswith("recession_weight = ")]
    assert len(shocks) == 40
    assert [w.rpartition(",")[0] for w in weights] == shocks


_DGP_FLOATS = [k for k, (_, kind) in panellp.cli._DGP_FIELDS.items() if kind is float]


@pytest.mark.parametrize(
    "lines, flags",
    [([f"{key} = {value}"], []) for key in _DGP_FLOATS for value in ("nan", "inf")]
    + [
        (["dgp.theta = nan,0"], []),
        (["dgp.theta_recession = 0,inf", "dgp.theta_expansion = 0,0"], []),
        (["dgp.seed = -5"], []),
        ([], ["--seed", "-1"]),
    ],
    ids=lambda value: ",".join(value).replace(" ", ""),
)
def test_simulate_non_finite_value_or_negative_seed_is_a_config_error(
    tmp_path, capsys, lines, flags
):
    # rejected before the draw: a NaN would write empty cells, an infinity
    # fail mid-draw and a negative seed reach numpy's generator
    cfg = tmp_path / "bad.cfg"
    write_lines(cfg, ["dgp.entities = 5", "dgp.periods = 6", *lines])
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), *flags])
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert rc == 1
    assert len(errors) == 1 and errors[0].startswith("error: config:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_end_to_end(tmp_path, sim_dir, capsys):
    cfg = estimate_config(tmp_path, sim_dir)
    assert main(["estimate", "--config", str(cfg)]) == 0
    assert "wrote 6 files" in capsys.readouterr().out
    out = tmp_path / "out"
    names = sorted(os.listdir(out))
    assert names == [
        "irf.csv",
        "manifest.txt",
        "table_k0.txt",
        "table_k1.txt",
        "table_k2.txt",
        "table_k3.txt",
    ]
    rows = read_irf(str(out / "irf.csv"))
    assert [r["horizon"] for r in rows] == [0, 1, 2, 3]
    assert all(r["series"] == "shock" for r in rows)
    assert rows[0]["estimate"] == 0.0 and rows[0]["se"] == 0.0
    table = (out / "table_k1.txt").read_text()
    assert "shock" in table and "Observations" in table
    manifest = (out / "manifest.txt").read_text()
    assert "config.spec.kind = baseline" in manifest
    assert "config_sha256 = " in manifest
    assert "input_sha256.panel.csv = " in manifest
    assert "series = shock" in manifest
    assert "horizon_3.n_obs = " in manifest


def test_estimate_corrupt_cell_exits_1(tmp_path, sim_dir, capsys):
    ppath = sim_dir / "panel.csv"
    lines = ppath.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = "watermelon"
    lines[5] = ",".join(fields)
    ppath.write_text("\n".join(lines) + "\n")
    cfg = estimate_config(tmp_path, sim_dir)
    rc = main(["estimate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: data:" in err
    assert "panel.csv:6" in err and "watermelon" in err


def test_estimate_unknown_config_key(tmp_path, sim_dir, capsys):
    cfg = estimate_config(tmp_path, sim_dir, extra=["spec.horizon = 3"])
    rc = main(["estimate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: config:" in err and "spec.horizon" in err
    # the config is checked before any input is read
    cfg.write_text(cfg.read_text().replace(str(sim_dir), str(tmp_path / "nowhere")))
    assert main(["estimate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config: unknown config key 'spec.horizon'\n"


def test_estimate_missing_required_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_lines(cfg, ["input.panel = nowhere.csv"])
    rc = main(["estimate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: config:" in err and "input.events" in err


def test_estimate_failure_leaves_no_partial_output(tmp_path, sim_dir, capsys):
    # horizons too deep for the panel: estimation fails after the output
    # directory exists; nothing should be left behind
    cfg = estimate_config(tmp_path, sim_dir)
    text = cfg.read_text().replace("spec.horizons = 3", "spec.horizons = 14")
    cfg.write_text(text)
    rc = main(["estimate", "--config", str(cfg)])
    assert rc == 1
    assert "horizon" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize(
    "command, writer",
    [("estimate", "write_regression_table"), ("simulate", "write_event_list")],
)
def test_a_failing_write_leaves_no_file_of_the_run(
    tmp_path, sim_dir, capsys, monkeypatch, command, writer
):
    # the writer fails after earlier files are written and after opening
    # and partly writing its own: none of them may stay behind.  A full
    # disk is the user's to fix (exit 1); any other failure is a bug (exit 2)
    if command == "estimate":
        out = tmp_path / "out"
        argv = ["estimate", "--config", str(estimate_config(tmp_path, sim_dir))]
    else:
        out = tmp_path / "sim_again"
        argv = ["simulate", "--config", str(tmp_path / "sim.cfg"), "--out", str(out)]
    for exc, rc, err in [
        (OSError(errno.ENOSPC, "No space left on device"), 1, "error: data: "),
        (RuntimeError("boom"), 2, "error: internal: RuntimeError: boom\n"),
    ]:

        def write_then_fail(*args, **kwargs):
            with open(args[-1], "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise exc

        monkeypatch.setattr(panellp.cli, writer, write_then_fail)
        assert main(argv) == rc
        lines = capsys.readouterr().err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith(err)
        if rc == 1:
            assert lines[0].endswith(": cannot write: No space left on device\n")
        assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_an_output_location_that_is_a_file_exits_1(tmp_path, sim_dir, capsys, command):
    target = tmp_path / "taken"
    target.write_text("keep me")
    if command == "estimate":
        cfg = estimate_config(tmp_path, sim_dir)
        cfg.write_text(cfg.read_text().replace(str(tmp_path / "out"), str(target)))
        argv = ["estimate", "--config", str(cfg)]
    else:
        argv = ["simulate", "--config", str(tmp_path / "sim.cfg"), "--out", str(target)]
    assert main(argv) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [f"error: data: {target}: cannot write: File exists"]
    assert target.read_text() == "keep me"


@pytest.mark.parametrize(
    "which, lines",
    [
        ("events", ["event_name,year,iso3", "alpha,1997"]),
        ("mortality", ["event_name,iso3,mortality", "alpha,E0"]),
        ("groups", ["entity,name,member", "E0,1"]),
    ],
)
def test_estimate_ragged_row_exits_1(tmp_path, sim_dir, capsys, which, lines):
    path = tmp_path / f"{which}.csv"
    write_lines(path, lines)
    cfg = estimate_config(tmp_path, sim_dir)
    text = cfg.read_text()
    if which == "events":
        text = text.replace(str(sim_dir / "events.csv"), str(path))
    elif which == "mortality":
        text += f"input.mortality = {path}\n"
    else:
        text = text.replace("spec.kind = baseline", "spec.kind = interaction")
        text += f"input.groups = {path}\n"
    cfg.write_text(text)
    rc = main(["estimate", "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: data: {path}:2: row has 2 fields, header has 3\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "which, line, message",
    [
        ("panel", ",2000,1.0", "{path}:2: empty entity label"),
        (
            "panel",
            "E0,2000," + "1" * 131_073,
            "{path}:2: field larger than field limit (131072)",
        ),
        ("config", " = 5", "{path}:2: empty key"),
    ],
    ids=["empty-entity", "huge-cell", "empty-key"],
)
def test_an_unreadable_input_line_exits_1_naming_it(
    tmp_path, sim_dir, capsys, which, line, message
):
    path = tmp_path / f"bad_{which}.{'cfg' if which == 'config' else 'csv'}"
    if which == "panel":
        write_lines(path, ["entity,year,y", line])
        cfg = estimate_config(tmp_path, sim_dir, [f"input.panel = {path}"])
    else:
        write_lines(path, [f"input.panel = {sim_dir / 'panel.csv'}", line])
        cfg = path
    assert main(["estimate", "--config", str(cfg)]) == 1
    errors = capsys.readouterr().err.splitlines()
    kind = "config" if which == "config" else "data"
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {kind}: {message.format(path=path)}")
    assert not (tmp_path / "out").exists()


def test_sample_horizon_zero_row_keeps_its_signed_zeros(tmp_path):
    # the horizon-0 response is identically zero, and its estimate is the
    # shock's own coefficient, read straight off the fit: -0.0, which a
    # product with a one-hot weight vector would turn into 0.0.  Pinned as
    # text, since a comparison of floats by value cannot tell the two apart
    cfg = (REPO_ROOT / "configs" / "sample_baseline.cfg").read_text()
    cfg = cfg.replace("= data/", f"= {REPO_ROOT / 'data'}/")
    cfg = cfg.replace("out/sample_baseline", str(tmp_path / "out"))
    (tmp_path / "run.cfg").write_text(cfg)
    assert main(["estimate", "--config", str(tmp_path / "run.cfg")]) == 0
    lines = (tmp_path / "out" / "irf.csv").read_text().splitlines()
    assert lines[1] == "0,shock,-0.0,0.0,-0.0,-0.0,1.0,,368,10,37,0.0"


@pytest.mark.parametrize("dist", ["t", "normal"])
def test_estimate_conf_level_an_ulp_below_one_is_a_config_error(tmp_path, capsys, dist):
    # at the float just below 1, 0.5 + level / 2 rounds to 1, whose
    # quantile has no finite value; the next float down still runs
    cfg = (REPO_ROOT / "configs" / "sample_baseline.cfg").read_text()
    cfg = cfg.replace("= data/", f"= {REPO_ROOT / 'data'}/")
    cfg += f"spec.ci_dist = {dist}\n"
    for level, rc in (("0.9999999999999999", 1), ("0.9999999999999998", 0)):
        out = tmp_path / level
        text = cfg.replace("out/sample_baseline", str(out))
        (tmp_path / "run.cfg").write_text(text + f"spec.conf_level = {level}\n")
        assert main(["estimate", "--config", str(tmp_path / "run.cfg")]) == rc
        assert out.exists() == (rc == 0)
    assert capsys.readouterr().err == (
        "error: config: conf_level must be in (0, 1), at most 1 - 2**-52, "
        "got 0.9999999999999999\n"
    )


@pytest.mark.parametrize("horizons", [45, 5000])
def test_estimate_horizons_past_the_sample_end_exit_1(tmp_path, capsys, horizons):
    # horizons past the end of the 40-period sample: every horizon from 40
    # on has an empty sample, and the run fails cleanly at the first
    # horizon whose shock coefficient is lost, with nothing written: at
    # horizon 17 the sample's rows end in 2002, and the events the panel's
    # years reach start in 2003
    cfg = (REPO_ROOT / "configs" / "sample_baseline.cfg").read_text()
    cfg = cfg.replace("= data/", f"= {REPO_ROOT / 'data'}/")
    cfg = cfg.replace("out/sample_baseline", str(tmp_path / "out"))
    cfg = cfg.replace("spec.horizons = 5", f"spec.horizons = {horizons}")
    (tmp_path / "run.cfg").write_text(cfg)
    assert main(["estimate", "--config", str(tmp_path / "run.cfg")]) == 1
    assert capsys.readouterr().err == (
        "error: unidentified-shock: horizon 17: the sample (1983-2002) holds "
        "no shocked cell, so no event identifies the shock\n"
    )
    out = tmp_path / "out"
    assert not out.exists() or os.listdir(out) == []


def test_estimate_transition_with_controls_is_a_config_error(tmp_path, capsys):
    # the sample config as a transition design keeps its controls, one of
    # them misspelled and one absent from the panel: the transition design
    # takes none, so the spec is refused before any input is read
    cfg = (REPO_ROOT / "configs" / "sample_baseline.cfg").read_text()
    cfg = cfg.replace("= data/", f"= {REPO_ROOT / 'data'}/")
    cfg = cfg.replace("out/sample_baseline", str(tmp_path / "out"))
    cfg = cfg.replace("spec.kind = baseline", "spec.kind = transition")
    cfg = cfg.replace(
        "spec.controls = gdp_pc:log,trade_share",
        "spec.growth = gdp_growth\nspec.controls = trade_shar,bogus_col",
    )
    (tmp_path / "run.cfg").write_text(cfg)
    assert main(["estimate", "--config", str(tmp_path / "run.cfg")]) == 1
    assert capsys.readouterr().err == (
        "error: config: the transition design takes no controls (its "
        "cycle-state block replaces them); drop spec.controls\n"
    )
    assert not (tmp_path / "out").exists()


def test_estimate_population_level_control_exits_0(tmp_path, capsys):
    # the sample config plus a population control of about 1e8 people
    rng = np.random.default_rng(7)
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    rows = [lines[0] + ",pop"]
    rows += [f"{line},{rng.uniform(0.5e8, 2e8):.1f}" for line in lines[1:]]
    write_lines(tmp_path / "panel.csv", rows)
    cfg = (REPO_ROOT / "configs" / "sample_baseline.cfg").read_text()
    cfg = cfg.replace("data/sample_panel.csv", str(tmp_path / "panel.csv"))
    cfg = cfg.replace("= data/", f"= {REPO_ROOT / 'data'}/")
    cfg = cfg.replace("out/sample_baseline", str(tmp_path / "out"))
    cfg = cfg.replace("trade_share", "trade_share,pop")
    (tmp_path / "run.cfg").write_text(cfg)
    assert main(["estimate", "--config", str(tmp_path / "run.cfg")]) == 0
    assert capsys.readouterr().err == ""
    irf_rows = read_irf(str(tmp_path / "out" / "irf.csv"))
    assert [r["horizon"] for r in irf_rows] == [0, 1, 2, 3, 4, 5]


def sample_run(tmp_path, lines, cfg_edits=()):
    """Run the sample config, with each ``(old, new)`` text of
    ``cfg_edits`` replaced, on the panel ``lines`` and return its exit
    code; the outputs go to ``tmp_path / "out"``."""
    tmp_path.mkdir(exist_ok=True)
    write_lines(tmp_path / "panel.csv", lines)
    cfg = (REPO_ROOT / "configs" / "sample_baseline.cfg").read_text()
    for old, new in cfg_edits:
        assert old in cfg
        cfg = cfg.replace(old, new)
    cfg = cfg.replace("data/sample_panel.csv", str(tmp_path / "panel.csv"))
    cfg = cfg.replace("= data/", f"= {REPO_ROOT / 'data'}/")
    cfg = cfg.replace("out/sample_baseline", str(tmp_path / "out"))
    (tmp_path / "run.cfg").write_text(cfg)
    return main(["estimate", "--config", str(tmp_path / "run.cfg")])


def run_manifest(out):
    """The manifest of the run written to ``out``, as a dict."""
    text = (out / "manifest.txt").read_text()
    return dict(line.split(" = ", 1) for line in text.splitlines())


def sample_manifest(tmp_path, edits=()):
    """Run the sample config on a copy of the sample panel whose cells
    ``(entity, year, column)`` are set to the given text; return the
    manifest as a dict."""
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for entity, year, column, text in edits:
        (row,) = [r for r in rows if r[:2] == [entity, str(year)]]
        row[header.index(column)] = text
    assert sample_run(tmp_path, [lines[0]] + [",".join(r) for r in rows]) == 0
    return run_manifest(tmp_path / "out")


def test_an_input_column_named_shock_is_not_read(tmp_path):
    # the study reads only the columns its config names, so an input
    # column sharing a working column's name changes no output byte
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    shocked = [lines[0] + ",shock"] + [line + ",1" for line in lines[1:]]
    assert sample_run(tmp_path / "plain", lines) == 0
    assert sample_run(tmp_path / "shocked", shocked) == 0
    plain, shocked = (tmp_path / d / "out" / "irf.csv" for d in ("plain", "shocked"))
    assert plain.read_bytes() == shocked.read_bytes()


def test_a_control_may_read_an_input_column_named_shock(tmp_path):
    # the control log_shock reads an input column named like the shock
    # dummy; its bytes are those of the same column under another name
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    trade = lines[0].split(",").index("trade_share")
    for name in ("shock", "extra"):
        panel = [f"{lines[0]},{name}"] + [f"{x},{x.split(',')[trade]}" for x in lines[1:]]
        edit = ("gdp_pc:log,trade_share", f"gdp_pc:log,{name}:log")
        assert sample_run(tmp_path / name, panel, [edit]) == 0
    shock, extra = (tmp_path / d / "out" / "irf.csv" for d in ("shock", "extra"))
    assert shock.read_bytes() == extra.read_bytes()


@pytest.mark.parametrize(
    "edit",
    [
        *(
            pytest.param(
                ("spec.kind = baseline", f"spec.entity_fe = {flag}\nspec.kind = baseline"),
                id=f"entity_fe-{flag}",
            )
            for flag in ("yes", "on", "1", "true")
        ),
        pytest.param(
            ("gdp_pc:log,trade_share", "gdp_pc:log,,trade_share,"), id="empty-controls"
        ),
    ],
)
def test_equivalent_config_spellings_write_the_same_irf(tmp_path, edit):
    # a true flag in any spelling is the default entity_fe, and empty
    # controls tokens are skipped
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    assert sample_run(tmp_path / "plain", lines) == 0
    assert sample_run(tmp_path / "edited", lines, [edit]) == 0
    plain, edited = (tmp_path / d / "out" / "irf.csv" for d in ("plain", "edited"))
    assert plain.read_bytes() == edited.read_bytes()


def test_manifest_names_a_control_the_year_effects_absorb(tmp_path):
    # a control that is the same for every entity in a year is collinear
    # with the year effects; the fit drops it and the manifest says so
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    price = {year: f"{50 + 0.7 * (year - 1980):.2f}" for year in range(1980, 2020)}
    rows = [lines[0] + ",world_price"]
    rows += [f"{line},{price[int(line.split(',')[1])]}" for line in lines[1:]]
    edit = ("gdp_pc:log,trade_share", "gdp_pc:log,trade_share,world_price")
    assert sample_run(tmp_path, rows, [edit]) == 0
    manifest = run_manifest(tmp_path / "out")
    for k in range(6):
        assert manifest[f"horizon_{k}.dropped_columns"] == "world_price"


def test_manifest_names_an_entity_missing_from_one_input(tmp_path):
    # the sample panel split over two files, the second without USA
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    cells = [line.split(",") for line in lines]
    write_lines(
        tmp_path / "extra.csv",
        [",".join(c[:2] + c[4:]) for c in cells if c[0] != "USA"],
    )
    edit = ("data/sample_panel.csv", f"data/sample_panel.csv,{tmp_path / 'extra.csv'}")
    assert sample_run(tmp_path, [",".join(c[:4]) for c in cells], [edit]) == 0
    manifest = run_manifest(tmp_path / "out")
    assert manifest["entities_not_in_every_input"] == "USA"
    assert "input_sha256.extra.csv" in manifest


def test_carbon_var_scales_a_logged_outcome_without_moving_the_irf(tmp_path):
    # input.carbon_var multiplies co2_pc by 3.667; the log response of a
    # rescaled outcome is the same up to rounding
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    edit = ("spec.kind = baseline", "input.carbon_var = co2_pc\nspec.kind = baseline")
    assert sample_run(tmp_path / "plain", lines) == 0
    assert sample_run(tmp_path / "carbon", lines, [edit]) == 0
    plain, carbon = (
        read_irf(str(tmp_path / d / "out" / "irf.csv")) for d in ("plain", "carbon")
    )
    for key in ("estimate", "se"):
        np.testing.assert_allclose(
            [r[key] for r in carbon], [r[key] for r in plain], rtol=1e-12, atol=0
        )
    manifest = run_manifest(tmp_path / "carbon" / "out")
    assert manifest["config.input.carbon_var"] == "co2_pc"


def h1n1_only_run(tmp_path, edits=()):
    """Run the sample config, with ``edits``, on the H1N1 rows of its
    event list alone and no mortality; H1N1 2009 hits all 10 sample
    countries, so every shocked cell sits in a year with no unshocked row.
    Returns the exit code."""
    events = (REPO_ROOT / "data" / "pandemic_events.csv").read_text().splitlines()
    events = [line for line in events if line.startswith(("event_name,", "H1N1,"))]
    write_lines(tmp_path / "events.csv", events)
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    edits = [
        ("data/pandemic_events.csv", str(tmp_path / "events.csv")),
        ("input.mortality = data/pandemic_mortality_stub.csv\n", ""),
        *edits,
    ]
    return sample_run(tmp_path, lines, edits)


ABSORBED_H1N1 = (
    "error: unidentified-shock: horizon 0: the year effects absorb the "
    "shock: every shocked cell of the sample sits in a year whose sample "
    "rows are all shocked (H1N1 2009)\n"
)


def test_a_shock_the_year_effects_absorb_exits_1_naming_its_event(tmp_path, capsys):
    assert h1n1_only_run(tmp_path) == 1
    assert capsys.readouterr().err == ABSORBED_H1N1
    out = tmp_path / "out"
    assert not out.exists() or os.listdir(out) == []


def test_a_transition_shock_the_year_effects_absorb_exits_1_naming_its_event(
    tmp_path, capsys
):
    # the two regime shocks sum to the plain one, which the year effects
    # absorb: the transition design names the cause as the others do
    edits = [
        ("spec.kind = baseline", "spec.kind = transition"),
        ("spec.controls = gdp_pc:log,trade_share", "spec.growth = gdp_growth"),
    ]
    assert h1n1_only_run(tmp_path, edits) == 1
    assert capsys.readouterr().err == ABSORBED_H1N1
    out = tmp_path / "out"
    assert not out.exists() or os.listdir(out) == []


def test_manifest_counts_log_control_holes_and_log_losses_together(tmp_path):
    base = sample_manifest(tmp_path / "base")
    edited = sample_manifest(
        tmp_path / "edited",
        [("AUS", 1990, "gdp_pc", ""), ("AUS", 1991, "gdp_pc", ""),
         ("AUS", 1992, "gdp_pc", "0")],
    )
    assert "missing_cells.log_gdp_pc" not in base
    assert edited["missing_cells.log_gdp_pc"] == "3"
    for k in range(6):
        n_obs = f"horizon_{k}.n_obs"
        assert int(edited[n_obs]) == int(base[n_obs]) - 3


def test_manifest_reports_an_outcome_hole_under_the_dependent_name(tmp_path):
    manifest = sample_manifest(tmp_path, [("AUS", 1990, "co2_pc", "")])
    assert manifest["missing_cells.log_co2_pc"] == "1"
    assert not [key for key in manifest if key.startswith("missing_cells.__")]


def test_estimate_without_residual_dof_exits_1(tmp_path, capsys):
    # no event matches a panel entity and there are no fixed effects, so
    # two outcome-growth lags are fit on the two rows of the last year
    rows = ["entity,year,co2"]
    for ent, values in (("AAA", (1.0, 1.5, 1.2, 1.9)), ("BBB", (2.0, 2.4, 2.2, 2.9))):
        rows += [f"{ent},{2000 + t},{v}" for t, v in enumerate(values)]
    write_lines(tmp_path / "panel.csv", rows)
    write_lines(tmp_path / "events.csv", ["event_name,year,iso3", "Flu,2001,ZZZ"])
    cfg = tmp_path / "run.cfg"
    write_lines(
        cfg,
        [
            f"input.panel = {tmp_path / 'panel.csv'}",
            f"input.events = {tmp_path / 'events.csv'}",
            f"output.dir = {tmp_path / 'out'}",
            "spec.dependent = co2",
            "spec.horizons = 0",
            "spec.lag_order = 2",
            "spec.dummy_lags = 0",
            "spec.entity_fe = false",
            "spec.time_fe = false",
        ],
    )
    rc = main(["estimate", "--config", str(cfg)])
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert rc == 1
    assert len(errors) == 1 and errors[0].startswith("error: degenerate-design:")


@pytest.mark.parametrize(
    "z_scope, usa_growth, message",
    [
        pytest.param(
            "entity", "single", "'gdp_growth': entity 'USA' has a single value",
            id="entity-single",
        ),
        pytest.param(
            "entity", "constant", "'gdp_growth' has zero variance within entity 'USA'",
            id="entity-constant",
        ),
        pytest.param(
            "pooled", "only", "'gdp_growth': need >= 2 values to standardize",
            id="pooled-only",
        ),
    ],
)
def test_entity_scoped_growth_needs_two_distinct_values_per_entity(
    tmp_path, capsys, z_scope, usa_growth, message
):
    # spec.z_scope = entity standardizes growth within each country, so a
    # country with a growth value needs two distinct ones; pooled, the panel
    # needs two growth values, and "only" leaves USA's one value alone in it
    lines = (REPO_ROOT / "data" / "sample_panel.csv").read_text().splitlines()
    col = lines[0].split(",").index("gdp_growth")
    usa = [i for i, line in enumerate(lines) if line.startswith("USA,")]
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        if i in usa and usa_growth == "constant":
            cells[col] = "1.5" if cells[col] else ""
        elif i in usa or usa_growth == "only":
            cells[col] = "1.5" if i == usa[1] else ""
        lines[i] = ",".join(cells)
    panel = tmp_path / "panel.csv"
    write_lines(panel, lines)
    cfg = estimate_config(
        tmp_path,
        tmp_path,
        [
            f"input.panel = {panel}",
            f"input.events = {REPO_ROOT / 'data' / 'pandemic_events.csv'}",
            "spec.kind = transition",
            "spec.dependent = co2_pc",
            "spec.growth = gdp_growth",
            f"spec.z_scope = {z_scope}",
        ],
    )
    assert main(["estimate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: degenerate-variable: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_estimate_non_finite_sigma_exits_1(tmp_path, sim_dir, capsys, sigma):
    # nan once passed the sigma > 0 check and surfaced as an empty sample;
    # inf turned every cell with z = 0 into NaN and dropped it silently
    cfg = estimate_config(
        tmp_path,
        sim_dir,
        extra=[
            "spec.kind = transition",
            "spec.growth = growth",
            f"spec.sigma = {sigma}",
        ],
    )
    rc = main(["estimate", "--config", str(cfg)])
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert rc == 1
    assert len(errors) == 1 and "sigma" in errors[0]
    assert errors[0].startswith("error: config:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    [
        "spec.percentile_rule = bogus",
        "spec.ci_dist = bogus",
        "spec.shock = bogus",
        "spec.conf_level = 1.5",
        "spec.entity_fe = maybe",
        "dgp.entities = x",
        "dgp.theta = 1,a",
        "spec.dependent_transform = bogus",
        "spec.controls = trade_share:bogus",
        "spec.controls = gdp_pc:log,trade_share:bogus",
        "spec.controls = gdp_pc:",
        "spec.controls = gdp_pc:per_capita_log",  # a control has no population
        "spec.dependent_transform = per_capita_log",  # without spec.population
        "spec.kind = interaction",  # without input.groups
        "spec.dependent = ",  # no outcome
        "spec.horizons = -3",
        "spec.lag_order = -4",
        "spec.dummy_lags = -5",
        "spec.cluster = region",
        "spec.z_scope = country",
        "spec.group_handling = drop",
        "spec.r2_mode = adjusted",
        "dgp.periods = 2",
        "dgp.entity_sd = -0.5",
        "dgp.time_sd = -0.25",
        "dgp.noise_sd = -2.5",
        "dgp.error_rho = -1.25",
        "dgp.ar_coef = 1.5",
        "dgp.shock_prob = 1.75",
    ],
)
def test_estimate_bad_spec_value_is_a_config_error(tmp_path, sim_dir, capsys, line):
    # rejected when the spec is built: a bad percentile rule used to be
    # ignored without mortality data, the others failed only mid-run
    key, value = line.split(" = ")
    value = value.rpartition(":")[2]  # a controls token names its transform
    if key.startswith("dgp."):
        cfg = tmp_path / "bad_sim.cfg"
        write_lines(cfg, [line])
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
    else:
        argv = ["estimate", "--config", str(estimate_config(tmp_path, sim_dir, [line]))]
    rc = main(argv)
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert rc == 1
    assert len(errors) == 1 and errors[0].startswith("error: config:")
    assert value in errors[0]
    if key in ("spec.entity_fe", "dgp.entities", "dgp.theta"):  # parser rejects
        assert errors[0].startswith(f"error: config: {key} must be ")
    if key == "spec.kind":
        assert errors == ["error: config: interaction design needs input.groups"]
    if key == "spec.dependent":
        assert errors == ["error: config: config lacks spec.dependent"]
    if key == "spec.controls":  # the line names the key and the bad token
        token = line.split(" = ")[1].split(",")[-1]
        assert errors[0].startswith(f"error: config: {key} token {token!r}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "controls, name",
    [
        ("trade_share,trade_share", "trade_share"),
        ("shock", "shock"),
        ("gdp_pc:log,gdp_pc:log", "log_gdp_pc"),
        ("outcome_growth_lag_1", "outcome_growth_lag_1"),
    ],
)
def test_estimate_repeated_or_colliding_controls_are_config_errors(
    tmp_path, capsys, controls, name
):
    # rejected when the spec is built, before any input is read: the panel
    # named here does not exist
    cfg = estimate_config(
        tmp_path, tmp_path / "absent", [f"spec.controls = {controls}"]
    )
    rc = main(["estimate", "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config: the baseline design would have two columns named "
        f"{name!r}; rename or drop the control\n"
    )


def test_estimate_misspelled_control_lists_only_the_input_columns(
    tmp_path, sim_dir, capsys
):
    cfg = estimate_config(tmp_path, sim_dir, ["spec.controls = growht"])
    rc = main(["estimate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: missing-variable: no variable named 'growht'; have [")
    assert "'growth'" in err
    assert "__dep" not in err and "shock_lag_1" not in err


def test_every_dataclass_field_has_a_config_key():
    # a field added to LPSpec or DGPSpec cannot silently lack its key
    from panellp.simgen import DGPSpec

    def names(table):
        return sorted(field for field, _ in table.values())

    lp_fields = {f.name for f in dataclasses.fields(LPSpec)} - {"dependent"}
    dgp_fields = {f.name for f in dataclasses.fields(DGPSpec)} - {"shock_schedule"}
    assert names(panellp.cli._SPEC_FIELDS) == sorted(lp_fields)
    assert names(panellp.cli._DGP_FIELDS) == sorted(dgp_fields)


@pytest.mark.parametrize(
    "exc, kind",
    [
        (PanelLPError, "panel-lp"),
        (DataError, "data"),
        (DegenerateDesignError, "degenerate-design"),
        (InsufficientClustersError, "insufficient-clusters"),
        (UnidentifiedShockError, "unidentified-shock"),
    ],
)
def test_error_kind_is_the_class_name_in_kebab_case(
    tmp_path, sim_dir, capsys, monkeypatch, exc, kind
):
    def fail(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(panellp.cli, "estimate_irf", fail)
    rc = main(["estimate", "--config", str(estimate_config(tmp_path, sim_dir))])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {kind}: boom\n"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_pass_line(capsys):
    rc = main(["validate", "--suite", "cluster-oracle", "--reps", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("suite=cluster-oracle PASS")
    assert "max_covariance_gap" in out and "bound=" in out


@pytest.mark.parametrize(
    "suite, count", [("fe-oracle", "panels"), ("cluster-oracle", "designs")]
)
def test_validate_reps_reaches_the_suite(capsys, suite, count):
    rc = main(["validate", "--suite", suite, "--reps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{count}=3" in out.splitlines()


def test_validate_transition_separation(capsys):
    rc = main(["validate", "--suite", "transition-separation", "--reps", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("suite=transition-separation PASS")


@pytest.mark.parametrize("reps", [0, -1])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_validate_reps_below_one_is_a_config_error(capsys, suite, reps):
    # no suite may pass having checked nothing, nor crash on the count
    rc = main(["validate", "--suite", suite, "--reps", str(reps)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: config: reps must be >= 1, got {reps}\n"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_validate_negative_seed_is_a_config_error(capsys, suite):
    rc = main(["validate", "--suite", suite, "--seed", "-1", "--reps", "1"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: config: seed must be >= 0, got -1\n"


def test_validate_unknown_suite(capsys):
    rc = main(["validate", "--suite", "nonsense"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: config:" in err and "ols-oracle" in err


# ---------------------------------------------------------------------------
# usage and wiring
# ---------------------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error: usage:" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    for argv in (
        ["frobnicate"],
        ["estimate", "--config", "run.cfg", "--jobs", "2"],
        ["validate", "--suite", "ols-oracle", "--jobs", "2"],
    ):
        assert main(argv) == 1
        assert "error: usage:" in capsys.readouterr().err


def test_missing_config_file(capsys):
    rc = main(["estimate", "--config", "/nonexistent/run.cfg"])
    assert rc == 1
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_a_config_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: config: cannot read config {cfg}: not UTF-8 text\n"


VALIDATE_ARGS = ["validate", "--suite", "ols-oracle", "--reps", "2"]


def _declared_console_script() -> importlib.metadata.EntryPoint:
    """The ``panellp`` console script as ``pyproject.toml`` declares it."""
    toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        value = toml.load(fh)["project"]["scripts"]["panellp"]
    return importlib.metadata.EntryPoint("panellp", value, "console_scripts")


def _run_entry_point(ep, args, cwd):
    """Run ``ep`` in a child process the way an installed console script
    does (``sys.exit(main())`` with ``args`` on ``sys.argv``), importing
    the package from this checkout's ``src``."""
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint({ep.name!r}, {ep.value!r}, {ep.group!r})\n"
        "sys.exit(ep.load()())\n"
    )
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env=env,
    )


def test_console_script_is_wired(tmp_path):
    ep = _declared_console_script()
    assert ep.load() is main
    proc = _run_entry_point(ep, VALIDATE_ARGS, tmp_path)
    assert proc.returncode == 0
    assert "suite=ols-oracle PASS" in proc.stdout
    # only a failing run shows that main returns its exit code: the
    # wrapper's sys.exit(None) would also exit 0
    proc = _run_entry_point(ep, ["frobnicate"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: usage:")


@pytest.mark.skipif(
    shutil.which("panellp") is None, reason="no panellp console script on PATH"
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which("panellp"), *VALIDATE_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "suite=ols-oracle PASS" in proc.stdout
