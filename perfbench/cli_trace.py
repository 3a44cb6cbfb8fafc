"""Run ``panellp estimate`` with spans recorded around its public calls.

Usage: ``python3 perfbench/cli_trace.py SPANS_JSON estimate --config CFG``

Times the import of ``panellp.cli``, runs ``panellp.cli.main`` under the
tracer, then replays the two-way demeaning of every horizon on the inputs
that ``estimate_irf`` received, and writes all spans to ``SPANS_JSON``.
Exits with the code ``main`` returned.
"""

import importlib
import sys
import time

import tracing


def main(spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("panellp.cli")
    tracer.record("cli.import", start, time.perf_counter())

    tracer.install(tracing.LIBRARY_PATCHES + tracing.CLI_PATCHES)
    calls = []
    estimate_irf = cli.estimate_irf

    def keep_inputs(panel, events, spec, **kwargs):
        calls.append((panel, events, spec))
        return estimate_irf(panel, events, spec, **kwargs)

    cli.estimate_irf = keep_inputs
    try:
        code = cli.main(argv)
    finally:
        cli.estimate_irf = estimate_irf
        tracer.uninstall()

    if code == 0:
        import workloads

        for panel, events, spec in calls:
            workloads.replay_demean(tracer, panel, events, spec)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
