"""Tests of the benchmark's own checks and tracing.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``
"""

import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def perturb(irf, k, name, delta):
    """``irf`` with coefficient ``name`` at horizon ``k`` moved by ``delta``."""
    h = irf.horizons[k]
    coefs = h.result.coefficients.copy()
    coefs[h.result.columns.index(name)] += delta
    horizons = list(irf.horizons)
    horizons[k] = replace(h, result=replace(h.result, coefficients=coefs))
    return replace(irf, horizons=tuple(horizons))


def test_sample_reference_matches_and_perturbed_estimate_is_flagged(tmp_path):
    assert workloads.irf_csv_gap(workloads.REF_IRF) == 0.0
    lines = open(workloads.REF_IRF, encoding="utf-8").read().splitlines()
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[2] = ",".join(fields)
    bad = tmp_path / "irf.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert workloads.irf_csv_gap(str(bad)) == math.inf


def test_lsdv_oracle_agrees_and_flags_a_perturbed_coefficient():
    pnl, evs, spec, irf = workloads.mc_replication(7, 0, n_entities=30, n_periods=20)
    assert workloads.check_irf(irf, spec.horizons) is None
    assert workloads.lsdv_gap(pnl, evs, spec, irf, 2) < workloads.LSDV_BOUND
    bad = perturb(irf, 2, "shock", 1e-6)
    assert workloads.lsdv_gap(pnl, evs, spec, bad, 2) > workloads.LSDV_BOUND


def test_transition_columns_reproduce_the_estimator():
    pnl, evs = workloads.unbalanced_inputs(7, 0, n_entities=40, n_periods=30)
    spec = workloads.unbalanced_spec(horizons=3)
    from panellp import lp

    irf = lp.estimate_irf(pnl, evs, spec)
    for k in range(1, 4):
        assert workloads.lsdv_gap(pnl, evs, spec, irf, k) < workloads.LSDV_BOUND


def test_non_finite_estimate_is_flagged():
    _, _, spec, irf = workloads.mc_replication(7, 0, n_entities=30, n_periods=20)
    h = irf.horizons[1]
    iv = replace(h.intervals[0], se=float("nan"))
    horizons = list(irf.horizons)
    horizons[1] = replace(h, intervals=(iv,))
    assert "non-finite" in workloads.check_irf(replace(irf, horizons=tuple(horizons)), spec.horizons)
    assert "horizons" in workloads.check_irf(replace(irf, horizons=irf.horizons[:-1]), spec.horizons)


def test_self_time_subtracts_the_union_of_children():
    tr = tracing.Tracer()
    tr.record("root", 0.0, 10.0)
    tr.record("a", 1.0, 4.0, parent=0)
    tr.record("b", 3.0, 5.0, parent=0)  # overlaps a: covered is 1..5
    tr.record("c", 2.0, 3.0, parent=1)
    assert tracing.self_times(tr.spans) == [6.0, 2.0, 2.0, 1.0]


def test_patches_record_spans_and_restore_the_originals():
    from panellp import estimator, lp

    original = lp.fit_with_covariance
    tr = tracing.Tracer()
    tr.op = 0
    tr.install(tracing.LIBRARY_PATCHES)
    try:
        workloads.mc_replication(7, 0, n_entities=30, n_periods=20)
    finally:
        tr.uninstall()
    assert lp.fit_with_covariance is original
    assert estimator.ols_fit.__name__ == "ols_fit" and not hasattr(estimator.ols_fit, "__wrapped__")
    names = [s["name"] for s in tr.spans]
    assert names.count("events.build_dummies") == 6
    assert names.count("estimator.ols_fit") == 6
    assert names.count("simgen.generate") == 1
    fit = next(s for s in tr.spans if s["name"] == "estimator.ols_fit")
    assert tr.spans[fit["parent"]]["name"] == "estimator.fit"
    assert fit["counts"]["dropped"] == 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_recovery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("values", [list(range(11)), list(range(40))])
def test_tail_has_ten_values_beyond_it(values):
    import worker

    value, pct, n = worker.tail(np.random.default_rng(0).permutation(values).tolist())
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
