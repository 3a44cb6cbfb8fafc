"""The shipped CSV fixtures are what their generator script writes."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_make_fixtures_reproduces_data_byte_for_byte(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_fixtures.py"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in (ROOT / "data").glob("*.csv"))
    for name in names:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name
