"""One benchmark run of one workload, started by ``run.py``.

``run.py`` pins BLAS to one thread in this process's environment before
numpy is imported here.  Modes:

* default: set up, run the closed loop for ``--seconds``, check every op,
  and print one JSON object (metrics, counts, notes) as the last stdout
  line.  With ``--trace 1`` every other op runs under the tracer and the
  per-layer metrics are reported instead of the end-to-end ones.
* ``--setup-only``: set up once and print ``{"setup_s": ...}``.
* ``--blas-probe N``: ``mc_recovery`` replications in this process, with
  whatever BLAS threading the environment gives; prints the median op time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from panellp import lp  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 11  # op_tail_ms needs ten ops beyond it
COUNT_OPS = 3  # counts are reported over the first traced ops, so they repeat exactly
WARMUP_OP = 1_000_000  # op indices outside the timed loop's range
JOBS_OP = 2_000_000
BLAS_OP = 3_000_000
JOBS_PAIRS = 3
BLAS_PROBE_OPS = 8
CHILD_TIMEOUT_S = 120


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class InProcess:
    """A workload whose op is a library call in this process."""

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, inputs, tracer, index):
        if tracer is None:
            return timed(self.run, inputs)
        tracer.op = index
        tracer.install(tracing.LIBRARY_PATCHES)
        try:
            out, seconds = timed(tracer.wrap(self.run, "op"), inputs)
        finally:
            tracer.uninstall()
        workloads.replay_demean(tracer, *out[:3])
        return out, seconds

    def check(self, out):
        return workloads.check_irf(out[3], self.horizons)

    def oracle_gap(self, out) -> float:
        """LSDV gap at one seed-chosen horizon (never 0, whose response is
        identically zero)."""
        return workloads.lsdv_gap(*out, 1 + self.seed % self.horizons)

    def close(self):
        pass


class McRecovery(InProcess):
    fits = workloads.MC_H + 1
    horizons = workloads.MC_H

    def prepare(self, index):
        return index

    def run(self, index):
        return workloads.mc_replication(self.seed, index)


class UnbalancedTransition(InProcess):
    fits = workloads.UNB_H + 1
    horizons = workloads.UNB_H

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = workloads.unbalanced_spec()

    def prepare(self, index):
        return workloads.unbalanced_inputs(self.seed, index)

    def run(self, inputs, jobs=1):
        pnl, evs = inputs
        return pnl, evs, self.spec, lp.estimate_irf(pnl, evs, self.spec, jobs=jobs)


class CliSample:
    """``python -m panellp.cli estimate`` on the sample config, one child
    process per op, writing into a directory of its own."""

    fits = 6

    def __init__(self, seed: int):
        self.dir = tempfile.mkdtemp(prefix="cli_", dir=RESULTS)
        self.out = os.path.relpath(os.path.join(self.dir, "out"))
        self.config = os.path.join(self.dir, "sample_baseline.cfg")
        with open(workloads.SAMPLE_CONFIG, encoding="utf-8") as fh:
            lines = [
                f"output.dir = {self.out}" if ln.split("=")[0].strip() == "output.dir" else ln
                for ln in fh.read().splitlines()
            ]
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.max_gap = 0.0

    def prepare(self, index):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, inputs, tracer, index):
        args = ["estimate", "--config", self.config]
        if tracer is None:
            cmd = [sys.executable, "-m", "panellp.cli", *args]
        else:
            spans_path = os.path.join(self.dir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_trace.py"), spans_path, *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
        if tracer is None:
            return proc.returncode, end - start
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        replay = sum(s["end"] - s["start"] for s in spans if s["name"] == "bench.replay")
        tracer.op = index
        root = len(tracer.spans)
        tracer.record("op", start, end - replay, bytes_written=self._bytes_written())
        for span in spans:
            span["op"] = index
            span["parent"] = root if span["parent"] is None else span["parent"] + root + 1
            if span["name"].startswith(("panel.demean_replay", "bench.")):
                span["parent"] = None
        tracer.spans.extend(spans)
        return proc.returncode, end - start - replay

    def _bytes_written(self):
        return sum(e.stat().st_size for e in os.scandir(self.out) if e.is_file())

    def check(self, out):
        gap = workloads.irf_csv_gap(os.path.join(self.out, "irf.csv"))
        if not math.isfinite(gap):
            return "irf.csv differs from the committed sample output"
        self.max_gap = max(self.max_gap, gap)
        return None

    def oracle_gap(self, out) -> float:
        """A mismatch has already failed its op; this is the largest gap
        among the ops that matched."""
        return self.max_gap

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "cli_sample": CliSample,
    "mc_recovery": McRecovery,
    "unbalanced_transition": UnbalancedTransition,
}


# ---------------------------------------------------------------------------
# loop
# ---------------------------------------------------------------------------


def run_op(wl, index, tracer):
    """Prepare, run and check one op.  Returns (seconds, problem, check_s, out)."""
    inputs = wl.prepare(index)
    start = time.perf_counter()
    try:
        out, seconds = wl.op(inputs, tracer, index)
    except Exception:  # an op failure is counted, not fatal
        return time.perf_counter() - start, traceback.format_exc(limit=3), 0.0, None
    try:
        problem, check_s = timed(wl.check, out)
    except Exception:  # an unreadable output fails the op
        problem, check_s = traceback.format_exc(limit=3), 0.0
    return seconds, problem, check_s, out


def closed_loop(wl, seconds: float, tracer):
    """Ops back to back until ``seconds`` have passed (and at least the
    minimum count).  Under tracing, even-numbered ops are traced."""
    min_ops = 2 * COUNT_OPS if tracer is not None else MIN_OPS
    ops = []
    first = None
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < min_ops:
        traced = tracer is not None and index % 2 == 0
        op_s, problem, check_s, out = run_op(wl, index, tracer if traced else None)
        if problem is not None:
            print(f"op {index} failed: {problem}", file=sys.stderr)
        ops.append({"index": index, "s": op_s, "failed": problem is not None,
                    "traced": traced, "check_s": check_s})
        if index == 0:
            first = out
        index += 1
    return ops, first


def oracle(wl, ops, first):
    """The run's oracle check on the first op; a mismatch fails that op."""
    gap, check_s = timed(wl.oracle_gap, first) if first is not None else (math.inf, 0.0)
    ok = gap < workloads.LSDV_BOUND
    if not ok:
        print(f"oracle check failed on op 0: coefficient gap {gap}", file=sys.stderr)
        ops[0]["failed"] = True
    return gap, check_s + sum(o["check_s"] for o in ops)


def setup(name: str, seed: int):
    wl = WORKLOADS[name](seed)
    inputs = wl.prepare(WARMUP_OP)
    wl.op(inputs, None, WARMUP_OP)
    return wl, time.perf_counter() - T0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten values beyond it:
    ``(value, percentile, n)``."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_sample" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, ops, rss, notes):
    ms = [o["s"] * 1e3 for o in ops]
    failed = sum(o["failed"] for o in ops)
    value, pct, n = tail(ms)
    notes.append(f"op_tail_ms is p{pct:.1f} of {n} ops, with 10 ops beyond it")
    notes.append(f"error_rate = {failed}/{n} = {failed / n:g}")
    return {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (value, "ms"),
        "fits_per_s": (wl.fits * (n - failed) / (sum(ms) / 1e3), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
        "success_rate": ((n - failed) / n, "ratio"),
    }


# per-layer times: metric -> (span names, "ms" for total time or "self")
LAYER_TIMES = {
    "cli.import_ms": (("cli.import",), "ms"),
    "cli.self_ms": (("cli.main",), "self"),
    "ingest.read_panel_ms": (("ingest.read_panel",), "ms"),
    "ingest.read_event_list_ms": (("ingest.read_event_list",), "ms"),
    "ingest.write_tables_ms": (("ingest.write_tables",), "ms"),
    "ingest.write_irf_ms": (("ingest.write_irf",), "ms"),
    "ingest.sha256_ms": (("ingest.sha256",), "ms"),
    "events.build_dummies_ms": (("events.build_dummies",), "ms"),
    "panel.transform_ms": (("panel.transform",), "ms"),
    "panel.demean_ms": (("panel.demean_replay",), "ms"),
    "lp.estimate_irf_ms": (("lp.estimate_irf",), "ms"),
    "lp.design_ms": (("lp.design",), "ms"),
    "lp.self_ms": (("lp.estimate_irf", "lp.design"), "self"),
    "estimator.ols_fit_ms": (("estimator.ols_fit",), "ms"),
    "estimator.covariance_ms": (("estimator.covariance",), "ms"),
    "estimator.interval_ms": (("estimator.interval",), "ms"),
    "simgen.generate_ms": (("simgen.generate",), "ms"),
}


def per_op_totals(tracer, ops):
    """Per traced op: total ms, self ms, calls and summed counts per span name."""
    selfs = tracing.self_times(tracer.spans)
    totals = {o["index"]: defaultdict(float) for o in ops if o["traced"]}
    for span, own in zip(tracer.spans, selfs):
        acc = totals.get(span["op"])
        if acc is None:
            continue
        name = span["name"]
        acc[(name, "ms")] += (span["end"] - span["start"]) * 1e3
        acc[(name, "self")] += own * 1e3
        acc[(name, "calls")] += 1
        for key, val in span["counts"].items():
            acc[(name, key)] += val
    return totals


def per_layer(tracer, ops, notes):
    totals = per_op_totals(tracer, ops)
    per_op = list(totals.values())
    counted = per_op[:COUNT_OPS]

    def med(fields):
        return statistics.median(sum(acc[f] for f in fields) for acc in per_op)

    def count(numer, denom=None):
        vals = []
        for acc in counted:
            top = sum(acc[f] for f in numer)
            bottom = acc[denom] if denom else 1.0
            vals.append(top / bottom if bottom else 0.0)
        return statistics.fmean(vals)

    out = {}
    for metric, (names, kind) in LAYER_TIMES.items():
        out[metric] = (med([(n, kind) for n in names]), "ms")
    dummies, fit = "events.build_dummies", "estimator.ols_fit"
    out.update({
        "ingest.bytes_read": (count([(n, "bytes_read") for n in (
            "ingest.read_panel", "ingest.read_event_list", "ingest.sha256")]), "bytes"),
        "ingest.bytes_written": (count([("op", "bytes_written")]), "bytes"),
        "events.build_dummies_calls": (count([(dummies, "calls")]), "count"),
        "events.shock_cells": (count([(dummies, "shock_cells")], (dummies, "calls")), "count"),
        "events.unresolved_pairs": (count([(dummies, "unresolved_pairs")], (dummies, "calls")), "count"),
        "events.out_of_range_events": (count([(dummies, "out_of_range_events")], (dummies, "calls")), "count"),
        "panel.transform_calls": (count([("panel.transform", "calls")]), "count"),
        "panel.demean_sweeps": (count([("lp.estimate_irf", "demean_sweeps")],
                                      ("lp.estimate_irf", "horizons")), "count"),
        "estimator.fit_calls": (count([(fit, "calls")]), "count"),
        "estimator.design_rows": (count([(fit, "rows")], (fit, "calls")), "count"),
        "estimator.design_cols": (count([(fit, "cols")], (fit, "calls")), "count"),
        "estimator.dropped_cols": (count([(fit, "dropped")]), "count"),
    })
    notes.append(f"per-layer times are medians over {len(per_op)} traced ops; "
                 f"counts are means over the first {len(counted)} traced ops")
    return out


def trace_overhead(ops):
    traced = [o["s"] for o in ops if o["traced"]]
    plain = [o["s"] for o in ops if not o["traced"]]
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def jobs_speedup(wl, notes):
    """estimate_irf with jobs=1 against jobs=2, alternating which runs first,
    on panels the loop never saw.  Returns (jobs1_ms, jobs2_ms, same)."""
    one, two, same = [], [], True
    for p in range(JOBS_PAIRS):
        inputs = wl.prepare(JOBS_OP + p)
        order = (1, 2) if p % 2 == 0 else (2, 1)
        res = {}
        for jobs in order:
            res[jobs], secs = timed(wl.run, inputs, jobs)
            (one if jobs == 1 else two).append(secs * 1e3)
        for name in res[1][3].series_names:
            same &= np.array_equal(res[1][3].estimates(name), res[2][3].estimates(name))
    if not same:
        notes.append("jobs=2 estimates differ from jobs=1")
    return statistics.median(one), statistics.median(two), same


def blas_probe(seed, notes):
    """Median mc_recovery op in a pinned child and in a child that keeps
    BLAS's default thread count."""
    out = {}
    for label, pinned in (("pinned", True), ("default", False)):
        env = dict(os.environ)
        if not pinned:
            for var in BLAS_VARS:
                env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", "mc_recovery",
             "--seed", str(seed), "--blas-probe", str(BLAS_PROBE_OPS)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out[label] = json.loads(proc.stdout.splitlines()[-1])["op_ms"]
    notes.append(f"BLAS default threads: {out['default']:.1f} ms per op against "
                 f"{out['pinned']:.1f} ms pinned to 1 thread (medians of {BLAS_PROBE_OPS})")
    return out["pinned"], out["default"]


def meta(seed):
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--blas-probe", type=int, default=0)
    args = ap.parse_args(argv)
    os.makedirs(RESULTS, exist_ok=True)

    if args.blas_probe:
        wl = McRecovery(args.seed)
        wl.op(wl.prepare(WARMUP_OP), None, WARMUP_OP)
        ms = [wl.op(wl.prepare(BLAS_OP + i), None, 0)[1] * 1e3 for i in range(args.blas_probe)]
        print(json.dumps({"op_ms": statistics.median(ms)}))
        return 0

    wl, setup_s = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        ops, first = closed_loop(wl, args.seconds, tracer)
        rss = peak_rss_mb(args.workload)  # before the oracle's own allocations
        gap, check_s = oracle(wl, ops, first)
        notes = []
        correct = True
        if tracer is None:
            metrics = end_to_end(wl, ops, rss, notes)
        else:
            metrics = per_layer(tracer, ops, notes)
            metrics["check.oracle_ms"] = (check_s * 1e3, "ms")
            metrics["check.max_coef_gap"] = (gap, "abs")
            metrics["trace.overhead_pct"] = (trace_overhead(ops), "%")
            jobs1 = jobs2 = 0.0
            if args.workload == "unbalanced_transition":
                jobs1, jobs2, correct = jobs_speedup(wl, notes)
            metrics["lp.jobs1_ms"] = (jobs1, "ms")
            metrics["lp.jobs2_ms"] = (jobs2, "ms")
            metrics["lp.jobs2_speedup"] = (jobs1 / jobs2 if jobs2 else 0.0, "x")
            pinned = default = 0.0
            if args.workload == "mc_recovery":
                pinned, default = blas_probe(args.seed, notes)
            metrics["blas.pinned_op_ms"] = (pinned, "ms")
            metrics["blas.default_threads_op_ms"] = (default, "ms")
            metrics["blas.default_threads_slowdown"] = (default / pinned if pinned else 0.0, "x")
            tracer.dump(os.path.join(RESULTS, f"spans_{args.workload}_seed{args.seed}.json"))
        failed = sum(o["failed"] for o in ops)
        notes.append(f"oracle: max coefficient gap {gap:.3e} (bound {workloads.LSDV_BOUND:g})")
        print(json.dumps({
            "correct": correct and failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
            "setup_s": setup_s,
            "notes": notes,
            "meta": meta(args.seed),
        }))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
