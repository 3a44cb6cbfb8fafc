"""The public surface of the ``panellp`` package."""

from __future__ import annotations

import importlib
import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import pytest

import panellp
from panellp.cli import main


def test_package_exports_each_module_all_and_every_name_resolves():
    # each module's ``__all__`` is the one list of its public names; the
    # package re-exports them all, and a name removed from a module must
    # leave its ``__all__`` with it
    from panellp import (
        cli,
        errors,
        estimator,
        events,
        ingest,
        lp,
        panel,
        simgen,
        validation,
    )

    modules = (errors, panel, estimator, events, lp, ingest)
    assert panellp.__all__ == [
        "__version__",
        *(name for module in modules for name in module.__all__),
        *simgen.__all__,  # spelled out in the package, which loads it lazily
    ]
    assert len(set(panellp.__all__)) == len(panellp.__all__)
    for module in (*modules, simgen, cli, validation):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    for name in panellp.__all__:
        assert hasattr(panellp, name), name


def _perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_patches_resolve():
    # perfbench's --trace run swaps these module attributes by name and
    # counts an EventSet's shock cells, unresolved pairs and out-of-range
    # events (tracing._dummies_counts); its checks rebuild the shock column
    # through EventSet.column (workloads.design_columns).  A rename in the
    # package must not leave a traced or checked run failing on a name
    tracing = _perfbench("tracing")
    for module_name, attr, _, _ in tracing.LIBRARY_PATCHES + tracing.CLI_PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    events = panellp.EventList(
        (
            panellp.PandemicEvent("now", 2000, ("A", "C")),
            panellp.PandemicEvent("old", 1918, ("A",)),
        )
    )
    eventset = panellp.build_dummies(events, panellp.Panel(("A", "B"), (2000, 2001), {}))
    assert tracing._dummies_counts((), {}, eventset) == {
        "shock_cells": 1,
        "unresolved_pairs": 1,
        "out_of_range_events": 1,
    }
    for which in ("all", "high", "medium", "low"):
        assert eventset.column(which).shape == (2, 2)


def _small_op(workloads, workload: str):
    """A small case of an in-process benchmark op, run through the calls
    the timed loop makes: ``(panel, events, spec, irf)``."""
    if workload == "mc_recovery":
        return workloads.mc_replication(7, 0, n_entities=30, n_periods=15)
    pnl, evs = workloads.unbalanced_inputs(7, 0, n_entities=30, n_periods=20)
    spec = workloads.unbalanced_spec(horizons=3)
    return pnl, evs, spec, panellp.lp.estimate_irf(pnl, evs, spec)


@pytest.mark.parametrize("workload", ["mc_recovery", "unbalanced_transition"])
def test_benchmark_ops_pass_their_checks(workload):
    # each small op checked by the benchmark's own checks, so a renamed
    # function or a changed signature fails here rather than in a bench run
    workloads = _perfbench("workloads")
    pnl, evs, spec, irf = _small_op(workloads, workload)
    assert workloads.check_irf(irf, spec.horizons) is None
    for k in range(1, spec.horizons + 1):
        assert workloads.lsdv_gap(pnl, evs, spec, irf, k) <= workloads.LSDV_BOUND


def test_benchmark_sample_run_passes_its_check(tmp_path, monkeypatch):
    # the cli_sample workload's check: estimate on the sample config from
    # the checkout root, its output.dir moved, and irf.csv within the
    # benchmark's tolerance of the committed reference
    workloads = _perfbench("workloads")
    monkeypatch.chdir(ROOT)
    text = pathlib.Path(workloads.SAMPLE_CONFIG).read_text(encoding="utf-8")
    cfg = tmp_path / "sample_baseline.cfg"
    cfg.write_text(text.replace("out/sample_baseline", str(tmp_path / "out")))
    assert main(["estimate", "--config", str(cfg)]) == 0
    assert math.isfinite(workloads.irf_csv_gap(str(tmp_path / "out" / "irf.csv")))


@pytest.mark.parametrize("workload", ["mc_recovery", "unbalanced_transition"])
def test_traced_ops_record_one_fit_per_run_and_restore_every_attribute(workload):
    # the benchmark's --trace run, on a small op of each in-process workload:
    # one estimate_irf span with its counts, one fit per run of equal-sample
    # horizons (mc_recovery's leads give one run, the unbalanced panel one
    # per horizon), and every patched attribute back afterwards
    tracing, workloads = _perfbench("tracing"), _perfbench("workloads")
    patched = [(importlib.import_module(m), a) for m, a, _, _ in tracing.LIBRARY_PATCHES]
    originals = [getattr(module, attr) for module, attr in patched]
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install(tracing.LIBRARY_PATCHES)
    try:
        *_, spec, irf = _small_op(workloads, workload)
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(patched, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    n_horizons = spec.horizons + 1
    assert len(irf.horizons) == n_horizons
    spans = [s for s in tracer.spans if s["name"] == "lp.estimate_irf"]
    assert len(spans) == 1
    assert spans[0]["counts"] == {"horizons": n_horizons, "demean_sweeps": n_horizons}
    names = [s["name"] for s in tracer.spans]
    fits = 1 if workload == "mc_recovery" else n_horizons
    assert names.count("estimator.ols_fit") == names.count("estimator.fit") == fits


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


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_sample_estimate(tmp_path, report: str) -> str:
    """Run ``estimate`` on the sample config in a fresh interpreter and
    return the last stdout line, ``<exit code> <report>``, where ``report``
    is an expression evaluated after the run."""
    cfg = (ROOT / "configs" / "sample_baseline.cfg").read_text()
    for key in ("input.panel", "input.events", "input.mortality"):
        cfg = cfg.replace(f"{key} = ", f"{key} = {ROOT}/")
    out = tmp_path / "out"
    cfg = cfg.replace("output.dir = out/sample_baseline", f"output.dir = {out}")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(cfg)
    code = (
        "import sys, panellp, panellp.cli\n"
        f"rc = panellp.cli.main(['estimate', '--config', {str(run_cfg)!r}])\n"
        f"print(rc, {report})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "irf.csv").exists()
    return proc.stdout.strip().splitlines()[-1]


def test_estimate_run_loads_no_scipy(tmp_path):
    # importing the package and running a whole estimate must not pull in
    # any scipy module: the fit, the intervals and the weights are numpy
    # and standard library only
    report = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    assert _run_sample_estimate(tmp_path, report) == "0 []"


def test_estimate_run_loads_only_the_estimate_path(tmp_path):
    # every estimate run is a fresh process, so each module it loads but
    # never uses is start-up time paid on every run
    unused = (
        "numpy.ma",
        "numpy.random",
        "panellp.simgen",
        "panellp.validation",
        "concurrent.futures",
    )
    report = f"[m for m in {unused!r} if m in sys.modules]"
    assert _run_sample_estimate(tmp_path, report) == "0 []"


def test_estimate_irf_with_jobs_loads_no_thread_pool():
    # jobs has no effect: the sample study's six horizons are six runs, and
    # jobs=2 still runs them in one serial loop
    code = (
        "import sys\n"
        "from panellp.cli import _spec_from_config\n"
        "from panellp.ingest import load_config, read_event_list, read_panel\n"
        "from panellp.lp import _build_study, estimate_irf\n"
        f"root = {str(ROOT)!r}\n"
        "cfg = load_config(root + '/configs/sample_baseline.cfg')\n"
        "panel = read_panel(root + '/' + cfg['input.panel'])\n"
        "events = read_event_list(\n"
        "    root + '/' + cfg['input.events'], root + '/' + cfg['input.mortality']\n"
        ")\n"
        "spec = _spec_from_config(cfg)\n"
        "runs = _build_study(panel, events, spec, range(spec.horizons + 1)).runs\n"
        "irf = estimate_irf(panel, events, spec, jobs=2)\n"
        "print(len(runs), len(irf.horizons), 'concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "6", "False"]


def test_simulator_names_load_on_first_use():
    code = (
        "import sys, panellp\n"
        "before = 'panellp.simgen' in sys.modules\n"
        "gen = panellp.generate\n"
        "from panellp import *\n"
        "from panellp import simgen\n"
        "print(before, gen is generate is simgen.generate,\n"
        "      DGPSpec is simgen.DGPSpec, SimTruth is simgen.SimTruth)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True"]
    with pytest.raises(AttributeError, match="no attribute 'ghost'"):
        panellp.ghost


def _glibc() -> bool:
    import ctypes

    try:
        return sys.platform.startswith("linux") and bool(ctypes.CDLL(None).mallopt)
    except (OSError, AttributeError):
        return False


def _untuned_env() -> dict[str, str]:
    return {
        k: v
        for k, v in os.environ.items()
        if k != "GLIBC_TUNABLES" and not (k.startswith("MALLOC_") and k.endswith("_"))
    }


@pytest.mark.skipif(not _glibc(), reason="glibc heap thresholds")
def test_import_keeps_a_freed_block_mapped():
    # a horizon's few MiB of arrays are freed and built again by the next
    # horizon; with glibc's default thresholds the second 3 MiB block
    # lands on fresh pages and faults in about 700 of its 768
    code = (
        "import resource, numpy as np, panellp\n"
        "def faults():\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    block = np.full(3 << 17, 1.0)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "faults()\n"
        "print(faults())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**_untuned_env(), "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64


@pytest.mark.skipif(not _glibc(), reason="glibc heap thresholds")
@pytest.mark.parametrize(
    "var, value",
    [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ],
)
def test_heap_tuned_by_the_environment_is_left_alone(monkeypatch, var, value):
    from panellp._heap import hold_freed_heap

    for name in set(os.environ) - set(_untuned_env()):
        monkeypatch.delenv(name)
    assert hold_freed_heap()
    monkeypatch.setenv(var, value)
    assert not hold_freed_heap()
