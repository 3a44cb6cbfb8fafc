"""Command line driver: estimate, simulate, validate.

Exit codes are part of the contract: 0 on success, 1 on a user or data
problem (bad config, malformed CSV, failing validation suite), 2 on an
internal error.  Failures print exactly one machine-parsable line to
stderr, ``error: <kind>: <detail>``.  A failed run leaves none of its
output files behind, not even the one it was writing when it failed, so
a crashed run never leaves a half-valid result directory.
The simulator and the validation suites are imported by their own
subcommands, so an ``estimate`` run never loads them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable

from . import __version__
from .errors import ConfigError, PanelLPError
from .events import EventList
from .ingest import (
    carbon_to_co2,
    file_sha256,
    load_config,
    merge,
    read_event_list,
    read_groups,
    read_panel,
    write_irf,
    write_panel,
    write_regression_table,
)
from .lp import LPSpec, estimate_irf
from .panel import VariableSpec

if TYPE_CHECKING:
    from .simgen import DGPSpec, SimTruth

__all__ = ["main"]


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse usage problems through the package's exit-code contract
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="panellp",
        description="Panel local-projection impulse responses.",
    )
    sub = parser.add_subparsers(dest="command")

    est = sub.add_parser("estimate", help="run a projection study from a config")
    est.add_argument("--config", required=True, help="path to key=value config file")

    sim = sub.add_parser("simulate", help="draw a synthetic panel with known truth")
    sim.add_argument("--config", required=True, help="path to dgp.* config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override dgp.seed")

    val = sub.add_parser("validate", help="run a numerical validation suite")
    val.add_argument("--suite", required=True, help="validation suite name")
    val.add_argument("--reps", type=int, default=None, help="override replication count")
    val.add_argument("--seed", type=int, default=None, help="override the suite seed")
    return parser


# ---------------------------------------------------------------------------
# config -> spec
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "input.panel",
    "input.events",
    "input.mortality",
    "input.groups",
    "input.carbon_var",
    "output.dir",
    "spec.kind",
    "spec.dependent",
    "spec.dependent_transform",
    "spec.population",
    "spec.horizons",
    "spec.lag_order",
    "spec.dummy_lags",
    "spec.controls",
    "spec.shock",
    "spec.group_name",
    "spec.growth",
    "spec.sigma",
    "spec.conf_level",
    "spec.percentile_rule",
    "spec.r2_mode",
    "spec.z_scope",
    "spec.group_handling",
    "spec.ci_dist",
    "spec.entity_fe",
    "spec.time_fe",
    "spec.cluster",
}


def _get_bool(cfg: dict[str, str], key: str, default: bool) -> bool:
    raw = cfg.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be true/false, got {raw!r}")


def _get_int(cfg: dict[str, str], key: str, default: int) -> int:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _get_float(cfg: dict[str, str], key: str, default: float) -> float:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _control_specs(raw: str) -> tuple[VariableSpec, ...]:
    """Parse ``col`` / ``col:log`` / ``col:standardize`` tokens."""
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            src, _, transform = token.partition(":")
            src, transform = src.strip(), transform.strip()
            name = src if transform == "level" else f"{transform}_{src}"
            out.append(VariableSpec(name=name, transform=transform, source=src))
        else:
            out.append(VariableSpec(name=token))
    return tuple(out)


def _spec_from_config(cfg: dict[str, str]) -> LPSpec:
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    dep_col = cfg.get("spec.dependent")
    if not dep_col:
        raise ConfigError("config lacks spec.dependent")
    transform = cfg.get("spec.dependent_transform", "log")
    dependent = VariableSpec(
        name=f"{transform}_{dep_col}" if transform != "level" else dep_col,
        transform=transform,
        source=dep_col,
        population=cfg.get("spec.population"),
    )
    controls = _control_specs(cfg.get("spec.controls", ""))
    return LPSpec(
        dependent=dependent,
        kind=cfg.get("spec.kind", "baseline"),
        horizons=_get_int(cfg, "spec.horizons", 5),
        lag_order=_get_int(cfg, "spec.lag_order", 2),
        controls=controls,
        dummy_lags=_get_int(cfg, "spec.dummy_lags", 2),
        entity_fe=_get_bool(cfg, "spec.entity_fe", True),
        time_fe=_get_bool(cfg, "spec.time_fe", True),
        cluster=cfg.get("spec.cluster", "entity"),
        conf_level=_get_float(cfg, "spec.conf_level", 0.95),
        shock_dummy=cfg.get("spec.shock", "all"),
        growth=cfg.get("spec.growth"),
        sigma=_get_float(cfg, "spec.sigma", 1.5),
        z_scope=cfg.get("spec.z_scope", "pooled"),
        percentile_rule=cfg.get("spec.percentile_rule", "linear"),
        group_handling=cfg.get("spec.group_handling", "design"),
        r2_mode=cfg.get("spec.r2_mode", "within"),
        ci_dist=cfg.get("spec.ci_dist", "t"),
    )


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _write_or_remove(
    outdir: str, files: dict[str, Callable[[str], None]]
) -> list[str]:
    """Write each ``{name: write}`` file into ``outdir``, all or none.

    Each path is recorded before its writer runs, so when any writer
    fails, every file of the run, the one it was writing included, is
    removed before the failure propagates.  Returns the written paths.
    """
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    try:
        for name, write in files.items():
            written.append(os.path.join(outdir, name))
            write(written[-1])
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return written


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _write_manifest(
    cfg: dict[str, str],
    config_path: str,
    input_paths: list[str],
    irf,
    unmatched: tuple[str, ...],
    path: str,
) -> None:
    lines = [f"package_version = {__version__}"]
    lines.append(f"config_file = {config_path}")
    lines.append(f"config_sha256 = {file_sha256(config_path)}")
    for key in sorted(cfg):
        lines.append(f"config.{key} = {cfg[key]}")
    for p in input_paths:
        lines.append(f"input_sha256.{os.path.basename(p)} = {file_sha256(p)}")
    lines.append(f"series = {','.join(irf.series_names)}")
    for h in irf.horizons:
        lines.append(
            f"horizon_{h.horizon}.n_obs = {h.n_obs}"
        )
        lines.append(f"horizon_{h.horizon}.demean_sweeps = {h.demean_sweeps}")
        if h.dropped_columns:
            lines.append(
                f"horizon_{h.horizon}.dropped_columns = {','.join(h.dropped_columns)}"
            )
    missing = irf.diagnostics.get("missing_counts") or {}
    for name in sorted(missing):
        lines.append(f"missing_cells.{name} = {missing[name]}")
    if unmatched:
        lines.append(f"entities_not_in_every_input = {','.join(unmatched)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    for key in ("input.panel", "input.events", "output.dir"):
        if key not in cfg:
            raise ConfigError(f"config lacks required key {key!r}")

    panel_paths = [p.strip() for p in cfg["input.panel"].split(",") if p.strip()]
    input_paths = list(panel_paths) + [cfg["input.events"]]
    panels = [read_panel(p) for p in panel_paths]
    panel, unmatched = merge(panels)

    if "input.carbon_var" in cfg:
        panel = carbon_to_co2(panel, cfg["input.carbon_var"])

    mortality_path = cfg.get("input.mortality")
    if mortality_path:
        input_paths.append(mortality_path)
    events = read_event_list(cfg["input.events"], mortality_path)

    spec = _spec_from_config(cfg)
    group = None
    if spec.kind == "interaction":
        if "input.groups" not in cfg:
            raise ConfigError("interaction design needs input.groups")
        input_paths.append(cfg["input.groups"])
        group = read_groups(cfg["input.groups"], cfg.get("spec.group_name", "group"))

    irf = estimate_irf(panel, events, spec, group=group)

    files = {"irf.csv": partial(write_irf, irf)}
    for h in irf.horizons:
        files[f"table_k{h.horizon}.txt"] = partial(
            write_regression_table,
            [(f"k={h.horizon}", h.result)],
            title=f"Projection at horizon {h.horizon} ({spec.kind})",
            conf_level=spec.conf_level,
            dist=spec.ci_dist,
        )
    files["manifest.txt"] = partial(
        _write_manifest, cfg, args.config, input_paths, irf, unmatched
    )
    written = _write_or_remove(cfg["output.dir"], files)
    print(f"wrote {len(written)} files to {cfg['output.dir']}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_DGP_KEYS = {
    "dgp.entities": ("n_entities", int),
    "dgp.periods": ("n_periods", int),
    "dgp.entity_sd": ("entity_sd", float),
    "dgp.time_sd": ("time_sd", float),
    "dgp.noise_sd": ("noise_sd", float),
    "dgp.error_rho": ("error_rho", float),
    "dgp.ar_coef": ("ar_coef", float),
    "dgp.shock_prob": ("shock_prob", float),
    "dgp.sigma": ("sigma", float),
    "dgp.start_year": ("start_year", int),
    "dgp.base_level": ("base_level", float),
    "dgp.seed": ("seed", int),
}


def _theta_tuple(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"{key} must be a comma list of numbers, got {raw!r}") from None


def _dgp_from_config(cfg: dict[str, str]) -> DGPSpec:
    from .simgen import DGPSpec

    kwargs = {}
    for key, value in cfg.items():
        if key in _DGP_KEYS:
            field_name, cast = _DGP_KEYS[key]
            try:
                kwargs[field_name] = cast(value)
            except ValueError:
                raise ConfigError(f"{key} must be {cast.__name__}, got {value!r}") from None
        elif key == "dgp.theta":
            kwargs["theta"] = _theta_tuple(value, key)
        elif key == "dgp.theta_recession":
            kwargs["theta_recession"] = _theta_tuple(value, key)
        elif key == "dgp.theta_expansion":
            kwargs["theta_expansion"] = _theta_tuple(value, key)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return DGPSpec(**kwargs)


def _write_truth(truth: SimTruth, path: str) -> None:
    dgp = truth.spec
    lines = [
        f"seed = {dgp.seed}",
        f"n_entities = {dgp.n_entities}",
        f"n_periods = {dgp.n_periods}",
        f"theta = {','.join(repr(t) for t in truth.theta)}",
    ]
    if truth.theta_recession is not None:
        lines.append(
            f"theta_recession = {','.join(repr(t) for t in truth.theta_recession)}"
        )
        lines.append(
            f"theta_expansion = {','.join(repr(t) for t in truth.theta_expansion)}"
        )
    lines.append(f"n_shocks = {len(truth.shock_cells)}")
    for ent, year in truth.shock_cells:
        lines.append(f"shock = {ent},{year}")
    if truth.recession_weights:
        for (ent, year), w in truth.recession_weights.items():
            lines.append(f"recession_weight = {ent},{year},{repr(w)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_events_csv(events: EventList, path: str) -> None:
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["event_name", "year", "iso3"])
        for ev in events.events:
            for ent in ev.entities:
                writer.writerow([ev.name, ev.year, ent])


def _cmd_simulate(args) -> int:
    from .simgen import generate

    cfg = load_config(args.config)
    dgp = _dgp_from_config(cfg)
    if args.seed is not None:
        from dataclasses import replace

        dgp = replace(dgp, seed=args.seed)
    panel, events, truth = generate(dgp)
    _write_or_remove(
        args.out,
        {
            "panel.csv": partial(write_panel, panel),
            "events.csv": partial(_write_events_csv, events),
            "truth.txt": partial(_write_truth, truth),
        },
    )
    print(f"wrote panel.csv, events.csv, truth.txt to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    from .validation import run_suite

    report = run_suite(args.suite, reps=args.reps, seed=args.seed)
    for line in report.lines:
        print(line)
    print(f"suite={report.name} {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing command (estimate | simulate | validate)")
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_validate(args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except PanelLPError as exc:
        stem = type(exc).__name__.removesuffix("Error") or "data"
        kind = re.sub(r"(?<=[a-z])(?=[A-Z])", "-", stem).lower()
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract demands exit 2
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
