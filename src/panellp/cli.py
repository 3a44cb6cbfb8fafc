"""Command line driver: estimate, simulate, validate.

Exit codes are part of the contract: 0 on success, 1 on a user or data
problem (bad config, malformed CSV, failing validation suite), 2 on an
internal error.  Failures print exactly one machine-parsable line to
stderr, ``error: <kind>: <detail>``.  A failed run leaves none of its
output files behind, not even the one it was writing when it failed, so
a crashed run never leaves a half-valid result directory.  The whole
config is checked before any input file is read.  The simulator and the
validation suites are imported by their own subcommands, so an
``estimate`` run never loads them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Collection

from . import __version__
from .errors import ConfigError, DataError, PanelLPError
from .ingest import (
    carbon_to_co2,
    file_sha256,
    load_config,
    merge,
    read_event_list,
    read_groups,
    read_panel,
    write_event_list,
    write_irf,
    write_panel,
    write_regression_table,
)
from .lp import LPSpec, estimate_irf
from .panel import VariableSpec

if TYPE_CHECKING:
    from .simgen import SimTruth

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


def _flag(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")


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
            try:
                out.append(VariableSpec(name=name, transform=transform, source=src))
            except ConfigError as exc:
                raise ConfigError(f"spec.controls token {token!r}: {exc}") from None
        else:
            out.append(VariableSpec(name=token))
    return tuple(out)


# what a parser's ValueError says the value must be
_MUST_BE = {
    int: "an integer",
    float: "a number",
    _flag: "true/false",
    _numbers: "a comma list of numbers",
}

# {config key: (dataclass field, parser)}; an absent key takes the field's
# default, so LPSpec and DGPSpec own every default
_SPEC_FIELDS = {
    "spec.kind": ("kind", str),
    "spec.horizons": ("horizons", int),
    "spec.lag_order": ("lag_order", int),
    "spec.controls": ("controls", _control_specs),
    "spec.dummy_lags": ("dummy_lags", int),
    "spec.entity_fe": ("entity_fe", _flag),
    "spec.time_fe": ("time_fe", _flag),
    "spec.cluster": ("cluster", str),
    "spec.conf_level": ("conf_level", float),
    "spec.shock": ("shock_dummy", str),
    "spec.growth": ("growth", str),
    "spec.sigma": ("sigma", float),
    "spec.z_scope": ("z_scope", str),
    "spec.percentile_rule": ("percentile_rule", str),
    "spec.group_handling": ("group_handling", str),
    "spec.r2_mode": ("r2_mode", str),
    "spec.ci_dist": ("ci_dist", str),
}

_DGP_FIELDS = {
    "dgp.entities": ("n_entities", int),
    "dgp.periods": ("n_periods", int),
    "dgp.entity_sd": ("entity_sd", float),
    "dgp.time_sd": ("time_sd", float),
    "dgp.noise_sd": ("noise_sd", float),
    "dgp.error_rho": ("error_rho", float),
    "dgp.ar_coef": ("ar_coef", float),
    "dgp.theta": ("theta", _numbers),
    "dgp.shock_prob": ("shock_prob", float),
    "dgp.theta_recession": ("theta_recession", _numbers),
    "dgp.theta_expansion": ("theta_expansion", _numbers),
    "dgp.sigma": ("sigma", float),
    "dgp.start_year": ("start_year", int),
    "dgp.base_level": ("base_level", float),
    "dgp.seed": ("seed", int),
}

# the keys _cmd_estimate reads itself
_ESTIMATE_KEYS = {
    "input.panel",
    "input.events",
    "input.mortality",
    "input.groups",
    "input.carbon_var",
    "output.dir",
    "spec.dependent",
    "spec.dependent_transform",
    "spec.population",
    "spec.group_name",
}


def _fields(
    cfg: dict[str, str], table: dict, known: Collection[str] = ()
) -> dict[str, object]:
    """Parse the config keys of ``table`` into dataclass keyword arguments.

    A key in neither ``table`` nor ``known`` is an error, and so is a
    value its parser rejects.
    """
    kwargs = {}
    for key, raw in cfg.items():
        if key in table:
            field, parse = table[key]
            try:
                kwargs[field] = parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{key} must be {_MUST_BE[parse]}, got {raw!r}"
                ) from None
        elif key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return kwargs


def _spec_from_config(cfg: dict[str, str]) -> LPSpec:
    kwargs = _fields(cfg, _SPEC_FIELDS, _ESTIMATE_KEYS)
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
    return LPSpec(dependent=dependent, **kwargs)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _write_or_remove(
    outdir: str, files: dict[str, Callable[[str], None]]
) -> list[str]:
    """Write each ``{name: write}`` file into ``outdir``, all or none.

    Each path is recorded before its writer runs, so when any writer
    fails, every file of the run, the one it was writing included, is
    removed before the failure propagates.  An ``OSError`` (the directory
    cannot be made, a disk is full) is the user's to fix, so it leaves as
    a :class:`DataError` naming the path.  Returns the written paths.
    """
    written: list[str] = []
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, write in files.items():
            written.append(os.path.join(outdir, name))
            write(written[-1])
    except BaseException as exc:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise DataError(
                f"cannot write: {exc.strerror or exc}",
                path=written[-1] if written else outdir,
            ) from exc
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
    sweeps = irf.diagnostics["demean_sweeps"]
    for h in irf.horizons:
        lines.append(f"horizon_{h.horizon}.n_obs = {h.result.n_obs}")
        lines.append(f"horizon_{h.horizon}.demean_sweeps = {sweeps[h.horizon]}")
        if h.result.dropped_columns:
            dropped = ",".join(h.result.dropped_columns)
            lines.append(f"horizon_{h.horizon}.dropped_columns = {dropped}")
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
    spec = _spec_from_config(cfg)
    if spec.kind == "interaction" and "input.groups" not in cfg:
        raise ConfigError("interaction design needs input.groups")

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

    group = None
    if spec.kind == "interaction":
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


def _cmd_simulate(args) -> int:
    from .simgen import DGPSpec, generate

    kwargs = _fields(load_config(args.config), _DGP_FIELDS)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    panel, events, truth = generate(DGPSpec(**kwargs))
    _write_or_remove(
        args.out,
        {
            "panel.csv": partial(write_panel, panel),
            "events.csv": partial(write_event_list, events),
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
    print(report)
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
