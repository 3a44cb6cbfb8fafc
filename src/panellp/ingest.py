"""File boundary: CSV readers and writers, unit conversion, run config.

Every input CSV (panel, events, mortality, groups, impulse responses) is
read by one strict reader under one rule set.  Cells are stripped and
blank rows are skipped wherever they stand.  The first non-blank row is
the header; its names must be distinct and include the file's required
columns, and other columns are allowed.  Every data row has the header's
field count.  A breach of these rules, an empty, unreadable or non-UTF-8
file, a malformed cell, or a duplicate key fails loudly as a
:class:`DataError` with the file and line number rather than propagating
a silent NaN; an empty cell is the one sanctioned way to say "missing".
Writers are lossless where the data flows back into code (impulse
responses round-trip through ``repr`` floats) and fixed-point where the
output is meant for reading (regression tables).
"""

from __future__ import annotations

import csv
import hashlib
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .estimator import RegressionResult, coefficient_interval
from .events import EventList, PandemicEvent
from .lp import IRF, GroupSpec
from .panel import Panel, scale_column

__all__ = [
    "CARBON_TO_CO2",
    "read_panel",
    "write_panel",
    "read_event_list",
    "write_event_list",
    "read_groups",
    "carbon_to_co2",
    "merge",
    "write_irf",
    "read_irf",
    "write_regression_table",
    "load_config",
    "file_sha256",
]

# mass ratio of CO2 to elemental carbon (44/12, conventionally 3.667)
CARBON_TO_CO2 = 3.667

# The widest year range one panel file may span.  Panel grids are dense
# entity x year arrays, so a mistyped far-off year would otherwise allocate
# a grid column for every year in between.
_MAX_YEAR_SPAN = 10_000


def _read_table(
    path: str, required: Sequence[str]
) -> tuple[dict[str, int], list[tuple[int, list[str]]]]:
    """Read one input CSV under the rules every input file follows.

    Every cell is stripped, and blank rows are skipped wherever they
    stand, before the header too.  The first non-blank row is the header:
    its names must be distinct and include ``required``; other columns
    are allowed.  Every data row must have the header's field count.
    Returns the header's ``{name: position}`` in file order and one
    ``(line, cells)`` pair per data row.  The file is UTF-8 text; a
    leading byte-order mark, as spreadsheet programs write, is skipped.
    Each breach, an unreadable file included, is a :class:`DataError`
    naming the file and, where there is one, the line.
    """
    rows: list[tuple[int, list[str]]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row in reader:
                cells = [c.strip() for c in row]
                if any(cells):
                    rows.append((reader.line_num, cells))
    except OSError as exc:
        raise DataError(f"cannot read: {exc.strerror or exc}", path=path) from None
    except UnicodeDecodeError:
        raise DataError("file is not UTF-8 text", path=path) from None
    except csv.Error as exc:
        raise DataError(str(exc), path=path, line=reader.line_num) from None
    if not rows:
        raise DataError("file is empty", path=path)
    line, header = rows[0]
    pos = {name: i for i, name in enumerate(header)}
    if len(pos) != len(header):
        raise DataError("header has duplicate column names", path=path, line=line)
    for name in required:
        if name not in pos:
            raise DataError(
                f"header lacks required column {name!r} (found {header})",
                path=path,
                line=line,
            )
    for line, cells in rows[1:]:
        if len(cells) != len(header):
            raise DataError(
                f"row has {len(cells)} fields, header has {len(header)}",
                path=path,
                line=line,
            )
    return pos, rows[1:]


def _parse_float(
    cell: str, path: str, line: int, column: str
) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"column {column!r} has non-numeric value {cell!r}",
            path=path,
            line=line,
        ) from None
    if not np.isfinite(value):
        raise DataError(
            f"column {column!r} has non-finite value {cell!r}",
            path=path,
            line=line,
        )
    return value


def _parse_int(cell: str, path: str, line: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataError(
            f"column {column!r} has non-integer value {cell!r}",
            path=path,
            line=line,
        ) from None


def read_panel(path: str) -> Panel:
    """Load a country-year CSV into a :class:`Panel`.

    The header must contain ``entity`` and ``year``; every other header
    names a numeric variable.  Empty cells are missing.  Entities keep
    their order of first appearance, and the period axis spans every year
    from the file's first to its last, at most ``_MAX_YEAR_SPAN`` of them.
    A repeated (entity, year) pair is an error that names both offending
    lines, and a non-numeric cell is an error naming file, line, and
    column.
    """
    pos, rows = _read_table(path, ("entity", "year"))
    if not rows:
        raise DataError("no data rows", path=path)
    ent_pos, year_pos = pos.pop("entity"), pos.pop("year")
    codes: dict[str, int] = {}
    first_line: dict[tuple[int, int], int] = {}
    ents: list[int] = []
    years: list[int] = []
    values: list[list[float | None]] = []
    for line, row in rows:
        ent = row[ent_pos]
        if ent == "":
            raise DataError("empty entity label", path=path, line=line)
        code = codes.setdefault(ent, len(codes))
        year = _parse_int(row[year_pos], path, line, "year")
        seen = first_line.setdefault((code, year), line)
        if seen != line:
            raise DataError(
                f"duplicate (entity, year) = ({ent}, {year}); "
                f"first seen at line {seen}",
                path=path,
                line=line,
            )
        ents.append(code)
        years.append(year)
        values.append([_parse_float(row[p], path, line, v) for v, p in pos.items()])
    first, last = min(years), max(years)
    if last - first >= _MAX_YEAR_SPAN:
        raise DataError(
            f"years {first}..{last} span more than {_MAX_YEAR_SPAN}", path=path
        )
    # one (variable, entity, year) grid, filled by one assignment; None -> NaN
    block = np.array(values, dtype=float).reshape(len(rows), len(pos))
    offsets = np.fromiter((y - first for y in years), np.intp, len(years))
    grids = np.full((len(pos), len(codes), last - first + 1), np.nan)
    grids[:, ents, offsets] = block.T
    return Panel(list(codes), range(first, last + 1), dict(zip(pos, grids)))


def write_panel(panel: Panel, path: str, variables: Sequence[str] | None = None) -> None:
    """Write a panel back to CSV, one row per observed entity-year."""
    names = list(variables) if variables is not None else list(panel.variables)
    grids = [panel.column(n) for n in names]
    obs = panel.observed_mask()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity", "year"] + names)
        for i, ent in enumerate(panel.entities):
            for j, year in enumerate(panel.periods):
                if not obs[i, j]:
                    continue
                cells = []
                for g in grids:
                    v = g[i, j]
                    cells.append("" if np.isnan(v) else repr(float(v)))
                writer.writerow([ent, year] + cells)


def read_event_list(path: str, mortality_path: str | None = None) -> EventList:
    """Load events (``event_name, year, iso3`` rows) and optional mortality.

    The mortality file has ``event_name, iso3, mortality`` rows keyed to
    (event, affected country) pairs.
    """
    pos, rows = _read_table(path, ("event_name", "year", "iso3"))
    name_pos, year_pos, iso_pos = pos["event_name"], pos["year"], pos["iso3"]
    years: dict[str, int] = {}
    members: dict[str, list[str]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for line, row in rows:
        name, iso = row[name_pos], row[iso_pos]
        if name == "" or iso == "":
            raise DataError("empty event name or country code", path=path, line=line)
        year = _parse_int(row[year_pos], path, line, "year")
        if years.setdefault(name, year) != year:
            raise DataError(
                f"event {name!r} listed with conflicting years "
                f"{years[name]} and {year}",
                path=path,
                line=line,
            )
        seen = first_line.setdefault((name, iso), line)
        if seen != line:
            raise DataError(
                f"country {iso} repeated for event {name!r}; "
                f"first seen at line {seen}",
                path=path,
                line=line,
            )
        members.setdefault(name, []).append(iso)
    if not years:
        raise DataError("no events in file", path=path)
    events = tuple(
        PandemicEvent(name=n, year=y, entities=tuple(members[n]))
        for n, y in years.items()
    )

    mortality = None
    if mortality_path is not None:
        mortality = {}
        pos, rows = _read_table(mortality_path, ("event_name", "iso3", "mortality"))
        name_pos, iso_pos, mort_pos = pos["event_name"], pos["iso3"], pos["mortality"]
        first_line = {}
        for line, row in rows:
            key = (row[name_pos], row[iso_pos])
            seen = first_line.setdefault(key, line)
            if seen != line:
                raise DataError(
                    f"duplicate mortality entry for {key}; "
                    f"first seen at line {seen}",
                    path=mortality_path,
                    line=line,
                )
            value = _parse_float(row[mort_pos], mortality_path, line, "mortality")
            if value is not None:  # an empty mortality cell is simply absent
                mortality[key] = value
    return EventList(events=events, mortality=mortality)


def write_event_list(events: EventList, path: str) -> None:
    """Write the events, not their mortality, as the ``event_name, year,
    iso3`` rows that :func:`read_event_list` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_name", "year", "iso3"])
        for ev in events.events:
            for ent in ev.entities:
                writer.writerow([ev.name, ev.year, ent])


def read_groups(path: str, name: str) -> GroupSpec:
    """Load a membership CSV (``entity, member`` with 0/1 flags).

    Each entity is listed once; a repeated one is an error that names
    both lines.
    """
    pos, rows = _read_table(path, ("entity", "member"))
    ent_pos, mem_pos = pos["entity"], pos["member"]
    members: set[str] = set()
    first_line: dict[str, int] = {}
    for line, row in rows:
        ent = row[ent_pos]
        if ent == "":
            raise DataError("empty entity label", path=path, line=line)
        seen = first_line.setdefault(ent, line)
        if seen != line:
            raise DataError(
                f"entity {ent} repeated; first seen at line {seen}",
                path=path,
                line=line,
            )
        flag = _parse_int(row[mem_pos], path, line, "member")
        if flag not in (0, 1):
            raise DataError(
                f"member flag must be 0 or 1, got {flag}", path=path, line=line
            )
        if flag == 1:
            members.add(ent)
    if not members:
        raise DataError("no group members flagged", path=path)
    return GroupSpec(name=name, members=frozenset(members))


def carbon_to_co2(panel: Panel, var: str) -> Panel:
    """Convert a column of carbon mass into CO2 mass (factor 3.667)."""
    return scale_column(panel, var, CARBON_TO_CO2)


def merge(panels: Sequence[Panel]) -> tuple[Panel, tuple[str, ...]]:
    """Outer-join panels on (entity, year).

    Variable names must not collide across inputs.  Returns the merged
    panel plus the entities that are absent from at least one input — a
    diagnostic for join keys that never matched (e.g. a country-code
    mismatch between sources).
    """
    if not panels:
        raise ConfigError("merge needs at least one panel")
    if len(panels) == 1:
        return panels[0], ()
    seen_vars: dict[str, int] = {}
    for idx, p in enumerate(panels):
        for v in p.variables:
            if v in seen_vars:
                raise DataError(
                    f"variable {v!r} appears in input {seen_vars[v] + 1} "
                    f"and input {idx + 1}; rename one of them"
                )
            seen_vars[v] = idx

    entities: list[str] = []
    eseen: set[str] = set()
    for p in panels:
        for e in p.entities:
            if e not in eseen:
                eseen.add(e)
                entities.append(e)
    pmin = min(p.periods[0] for p in panels)
    pmax = max(p.periods[-1] for p in panels)
    periods = list(range(pmin, pmax + 1))
    eidx = {e: i for i, e in enumerate(entities)}

    grids: dict[str, np.ndarray] = {}
    for p in panels:
        rows = [eidx[e] for e in p.entities]
        off = p.periods[0] - pmin
        for v in p.variables:
            grid = np.full((len(entities), len(periods)), np.nan)
            grid[np.asarray(rows), off : off + p.n_periods] = p.column(v)
            grids[v] = grid

    entity_sets = [set(p.entities) for p in panels]
    unmatched = tuple(e for e in entities if any(e not in s for s in entity_sets))
    return Panel(entities, periods, grids), unmatched


# ---------------------------------------------------------------------------
# impulse-response tables
# ---------------------------------------------------------------------------

_IRF_FIELDS = (
    "horizon",
    "series",
    "estimate",
    "se",
    "ci_low",
    "ci_high",
    "p_value",
    "stars",
    "n_obs",
    "n_entities",
    "n_periods",
    "r_squared",
)


def write_irf(irf: IRF, path: str) -> None:
    """Write the impulse response as CSV at full float precision: per
    series and horizon its interval, then the horizon fit's sample facts.

    ``repr`` round-trips doubles exactly, so reading the file back yields
    bit-identical numbers.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_IRF_FIELDS)
        for h in irf.horizons:
            fit = h.result
            sample = (fit.n_obs, fit.n_entities, fit.n_periods, fit.r_squared)
            for iv in h.intervals:
                est = (iv.estimate, iv.se, iv.ci_low, iv.ci_high, iv.p_value)
                cells = [*map(repr, est), iv.stars, *map(repr, sample)]
                writer.writerow([h.horizon, iv.name, *cells])


def read_irf(path: str) -> list[dict[str, object]]:
    """Read an impulse-response CSV back into typed row dicts."""
    pos, rows = _read_table(path, _IRF_FIELDS)
    ints = {"horizon", "n_obs", "n_entities", "n_periods"}
    floats = {"estimate", "se", "ci_low", "ci_high", "p_value", "r_squared"}
    out: list[dict[str, object]] = []
    for line, row in rows:
        rec: dict[str, object] = {}
        for name in _IRF_FIELDS:
            cell = row[pos[name]]
            if name in ints:
                rec[name] = _parse_int(cell, path, line, name)
            elif name in floats:
                rec[name] = _parse_float(cell, path, line, name)
            else:
                rec[name] = cell
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# fixed-point regression tables
# ---------------------------------------------------------------------------


def _fmt_est(value: float, stars: str) -> str:
    return f"{value:.3f}{stars}"


def _fmt_se(value: float) -> str:
    return f"({value:.3f})"


def write_regression_table(
    results: Sequence[tuple[str, RegressionResult]],
    path: str,
    title: str | None = None,
    conf_level: float = 0.95,
    dist: str = "t",
) -> None:
    """Render fitted regressions as an aligned fixed-point text table.

    One column per ``(label, result)`` pair.  Every coefficient row shows
    the estimate to three decimals with significance stars, and its
    clustered standard error parenthesized on the following line.  The
    footer reports observations, number of countries, number of years, and
    R-squared.  Columns absent from a fit (e.g. dropped as collinear) are
    left blank.
    """
    if not results:
        raise ConfigError("no results to tabulate")
    coef_order: list[str] = []
    for _, res in results:
        for c in res.columns:
            if c not in coef_order:
                coef_order.append(c)

    header = [""] + [label for label, _ in results]
    body: list[list[str]] = []
    for cname in coef_order:
        est_row = [cname]
        se_row = [""]
        for _, res in results:
            if cname in res.columns:
                iv = coefficient_interval(res, cname, conf_level, dist)
                est_row.append(_fmt_est(iv.estimate, iv.stars))
                se_row.append(_fmt_se(iv.se))
            else:
                est_row.append("")
                se_row.append("")
        body.append(est_row)
        body.append(se_row)

    footers = [
        ["Observations"] + [str(res.n_obs) for _, res in results],
        ["Number of countries"] + [str(res.n_entities) for _, res in results],
        ["Number of years"] + [str(res.n_periods) for _, res in results],
        ["R-Square"] + [f"{res.r_squared:.3f}" for _, res in results],
    ]

    rows = [header] + body + footers
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    sep = "  "
    rule = "-" * (sum(widths) + len(sep) * (len(widths) - 1))
    lines = []
    if title:
        lines.append(title)
    for idx, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[c + 1]) for c, cell in enumerate(row[1:])]
        lines.append(sep.join(cells).rstrip())
        if idx == 0 or idx == len(rows) - 5:
            # under the header and between the last SE row and the footer
            lines.append(rule)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are skipped; keys must be unique; a line
    without ``=`` is an error naming the line.  Values are returned as
    strings for the caller to interpret.  The file is UTF-8 text, with or
    without a leading byte-order mark.
    """
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                if key in out:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text") from None
    return out


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
