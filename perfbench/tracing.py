"""Spans recorded around panellp's public functions, from outside.

A :class:`Tracer` swaps the module attributes through which callers reach
each public function for a wrapper that records a span: name, start, end,
parent span, operation id, and counts taken from the call.  Nothing private
is patched.  Spans stay in memory until :meth:`Tracer.dump`.

The wrappers keep one stack for the whole process, so traced operations
must run their horizons serially (``jobs=1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


def _size(path) -> int:
    return os.path.getsize(path) if path else 0


def _dummies_counts(args, kwargs, result):
    return {
        "shock_cells": result.shock_count(),
        "unresolved_pairs": len(result.unresolved_entities),
        "out_of_range_events": len(result.out_of_range_years),
    }


def _fit_counts(args, kwargs, result):
    design = args[0] if args else kwargs["design"]
    return {
        "rows": design.n_rows,
        "cols": design.matrix.shape[1],
        "dropped": len(result.dropped_columns),
    }


def _irf_counts(args, kwargs, result):
    sweeps = result.diagnostics["demean_sweeps"]
    return {"horizons": len(result.horizons), "demean_sweeps": sum(sweeps.values())}


def _path_bytes(args, kwargs, result):
    return {"bytes_read": _size(args[0] if args else kwargs["path"])}


def _event_bytes(args, kwargs, result):
    mortality = args[1] if len(args) > 1 else kwargs.get("mortality_path")
    return {"bytes_read": _size(args[0] if args else kwargs["path"]) + _size(mortality)}


# (module, attribute, span name, counts from (args, kwargs, result))
LIBRARY_PATCHES = (
    ("panellp.lp", "estimate_irf", "lp.estimate_irf", _irf_counts),
    ("panellp.lp", "build_baseline_design", "lp.design", None),
    ("panellp.lp", "build_transition_design", "lp.design", None),
    ("panellp.lp", "build_dummies", "events.build_dummies", _dummies_counts),
    ("panellp.lp", "apply_variable_spec", "panel.transform", None),
    ("panellp.lp", "add_lag", "panel.transform", None),
    ("panellp.lp", "first_difference", "panel.transform", None),
    ("panellp.lp", "horizon_delta", "panel.transform", None),
    ("panellp.lp", "standardize", "panel.transform", None),
    ("panellp.lp", "fit_with_covariance", "estimator.fit", None),
    ("panellp.estimator", "ols_fit", "estimator.ols_fit", _fit_counts),
    ("panellp.estimator", "cluster_covariance", "estimator.covariance", None),
    ("panellp.lp", "coefficient_interval", "estimator.interval", None),
    ("panellp.simgen", "generate", "simgen.generate", None),
)

CLI_PATCHES = (
    ("panellp.cli", "main", "cli.main", None),
    ("panellp.cli", "estimate_irf", "lp.estimate_irf", _irf_counts),
    ("panellp.cli", "read_panel", "ingest.read_panel", _path_bytes),
    ("panellp.cli", "read_event_list", "ingest.read_event_list", _event_bytes),
    ("panellp.cli", "write_irf", "ingest.write_irf", None),
    ("panellp.cli", "write_regression_table", "ingest.write_tables", None),
    ("panellp.cli", "file_sha256", "ingest.sha256", _path_bytes),
)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def record(self, name, start, end, parent=None, **counts) -> None:
        """Add a span measured elsewhere (a replay, an import)."""
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent,
                           "op": self.op, "counts": counts})

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "counts": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, patches) -> None:
        for module_name, attr, name, counter in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out
