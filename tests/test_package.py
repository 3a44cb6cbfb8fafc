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
    # scipy.stats is the one heavy import in reach; intervals use
    # scipy.special, so every CLI start-up skips it
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
