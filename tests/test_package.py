"""The public surface of the ``panellp`` package."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import panellp


def test_every_export_resolves():
    # a name removed from a module must leave ``__all__`` with it
    for name in panellp.__all__:
        assert hasattr(panellp, name), name


@pytest.mark.parametrize(
    "cls",
    [
        obj
        for obj in map(vars(panellp).get, panellp.__all__)
        if isinstance(obj, type) and issubclass(obj, panellp.PanelLPError)
    ],
    ids=lambda cls: cls.__name__,
)
def test_error_types_build_from_one_message(cls):
    # estimate_irf re-raises a horizon's failure as type(exc)(message)
    exc = cls("horizon 3: boom")
    assert "horizon 3: boom" in str(exc)


def test_cli_import_leaves_scipy_stats_unloaded():
    # the package needs no scipy at all (see the test below); this keeps
    # the heaviest scipy module out of every CLI start-up on its own
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, panellp.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_estimate_run_loads_no_scipy(tmp_path):
    # importing the package and running a whole estimate must not pull in
    # any scipy module: the fit, the intervals and the weights are numpy
    # and standard library only
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = (root / "configs" / "sample_baseline.cfg").read_text()
    for key in ("input.panel", "input.events", "input.mortality"):
        cfg = cfg.replace(f"{key} = ", f"{key} = {root}/")
    out = tmp_path / "out"
    cfg = cfg.replace("output.dir = out/sample_baseline", f"output.dir = {out}")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(cfg)
    code = (
        "import sys, panellp, panellp.cli\n"
        f"rc = panellp.cli.main(['estimate', '--config', {str(run_cfg)!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
    assert (out / "irf.csv").exists()
