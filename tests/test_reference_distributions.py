"""The Student-t and normal references behind p-values and intervals,
checked against mpmath at 50 digits.

Two-sided p-values must be within 5e-16 absolute for df 1-500 and
|t| <= 40, and within 1e-12 relative where p < 0.05.  Critical values at
the usual confidence levels must be within 4 ulp.
"""

from __future__ import annotations

import math

import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from panellp.estimator import (  # noqa: E402
    _STD_NORMAL,
    _normal_pvalue,
    _t_pvalue,
    _t_quantile,
)

LEVELS = [0.8, 0.9, 0.95, 0.99, 0.999]


def t_two_sided(t: float, df: int):
    """``P(|T| >= |t|) = I_x(df/2, 1/2)`` at ``x = df / (df + t²)``."""
    k = mpmath.mpf(df)
    x = k / (k + mpmath.mpf(t) ** 2)
    return mpmath.betainc(k / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)


def assert_pvalue_close(got: float, ref) -> None:
    err = abs(mpmath.mpf(got) - ref)
    assert err <= 5e-16, (got, ref)
    if ref < 0.05:
        assert err <= 1e-12 * ref, (got, ref)


@settings(deadline=None, max_examples=300)
@given(
    df=st.integers(1, 500),
    t=st.floats(-40.0, 40.0, allow_nan=False),
)
def test_t_pvalue_matches_mpmath(df, t):
    with mpmath.workdps(50):
        assert_pvalue_close(_t_pvalue(t, df), t_two_sided(t, df))


@settings(deadline=None, max_examples=150)
@given(df=st.integers(1, 500), level=st.sampled_from(LEVELS))
def test_t_quantile_within_4_ulp(df, level):
    p = 0.5 + level / 2.0
    got = _t_quantile(df, p)
    with mpmath.workdps(50):
        tail = 2 * (1 - mpmath.mpf(p))
        ref = mpmath.findroot(lambda t: t_two_sided(t, df) - tail, mpmath.mpf(got))
        assert abs(mpmath.mpf(got) - ref) <= 4 * math.ulp(got), (got, ref)


@settings(deadline=None, max_examples=300)
@given(t=st.floats(-37.0, 37.0, allow_nan=False))
def test_normal_pvalue_matches_mpmath(t):
    # past |t| = 37.5 the p-value leaves the normal double range
    with mpmath.workdps(50):
        ref = mpmath.erfc(abs(mpmath.mpf(t)) / mpmath.sqrt(2))
        assert_pvalue_close(_normal_pvalue(t), ref)


@pytest.mark.parametrize("level", LEVELS)
def test_normal_quantile_within_4_ulp(level):
    p = 0.5 + level / 2.0
    got = _STD_NORMAL.inv_cdf(p)
    with mpmath.workdps(50):
        ref = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
        assert abs(mpmath.mpf(got) - ref) <= 4 * math.ulp(got), (got, ref)


def test_t_edges():
    assert _t_pvalue(0.0, 7) == 1.0
    assert _t_pvalue(math.inf, 7) == 0.0
    assert _t_pvalue(-2.5, 7) == _t_pvalue(2.5, 7)
    assert _t_quantile(5, 0.5) == 0.0
