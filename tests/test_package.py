"""The public surface of the ``panellp`` package."""

from __future__ import annotations

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
