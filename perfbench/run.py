"""panellp benchmark: one run of one workload, or of each in turn.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a panellp checkout; the package is imported from
``src/`` as it stands, with no install step.  Prints one line per metric
and, last, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A copy of the
result with the machine facts goes to ``perfbench/results/``.

This file imports nothing but the standard library.  Every process it
starts gets BLAS pinned to one thread before numpy loads.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_sample", "mc_recovery", "unbalanced_transition")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 3  # setup_s is the median of this many fresh-process set-ups
BUDGET_S = 170  # one workload's run, so it ends within 180 s


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker(workload, args, deadline, *extra):
    """Run worker.py in its own process group and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker ran past the time budget")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(workload, args, declared) -> int:
    """One run of one workload: print its metrics, then its JSON result."""
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = [] if args.trace else [
            worker(workload, args, deadline, "--setup-only")["setup_s"] for _ in range(SETUPS - 1)]
        res = worker(workload, args, deadline)
    except (RuntimeError, ValueError, KeyError) as exc:
        return fail(str(exc))

    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = (statistics.median(setups), "s")
        res["notes"].insert(0, f"setup_s is the median of {SETUPS} set-ups in fresh processes: "
                               + ", ".join(f"{s:.3f}" for s in setups))
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        return fail(f"metrics {sorted(produced)} do not match BENCHMARK.json {sorted(declared)}")

    meta = res["meta"]
    print(f"# workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={meta['nproc']} blas={meta['blas']} threads={meta['blas_threads']} "
          f"python={meta['python']} numpy={meta['numpy']} scipy={meta['scipy']}")
    for note in res["notes"]:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")

    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    path = os.path.join(HERE, "results", f"{workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, meta=meta, notes=res["notes"]), fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn (one JSON line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/panellp/cli.py", "configs/sample_baseline.cfg", "data/sample_panel.csv",
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            return fail(f"{need} not found: run from the root of a panellp checkout")
    declared = declared_metrics(args.trace)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(workload, args, declared)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
