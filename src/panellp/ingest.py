"""File boundary: CSV readers and writers, unit conversion, run config.

Every input CSV (panel, events, mortality, groups, impulse responses) is
read by one strict reader under one rule set.  Cells are stripped and
blank rows are skipped wherever they stand.  The first non-blank row is
the header; its names must be distinct and include the file's required
columns, and other columns are allowed.  Every data row has the header's
field count.  A breach of these rules, an empty, unreadable or non-UTF-8
file, a malformed cell, or an empty or repeated key fails loudly as a
:class:`DataError` with the file and line number rather than propagating
a silent NaN; an empty value cell is how a file says "missing".
Writers are lossless where the data flows back into code (impulse
responses round-trip through ``repr`` floats) and fixed-point where the
output is meant for reading (regression tables).
"""

from __future__ import annotations

import csv
import hashlib
import math
from typing import Callable, Sequence

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


def _integer(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError("non-integer") from None


def _number(cell: str) -> float | None:
    if cell == "":
        return None  # an empty cell is missing
    try:
        value = float(cell)
    except ValueError:
        raise ValueError("non-numeric") from None
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def _read_table(
    path: str,
    columns: dict[str, Callable[[str], object]],
    key: Sequence[str] = (),
    rest: Callable[[str], object] | None = None,
) -> tuple[list[str], list[tuple[int, list]]]:
    """Read one input CSV under the rules every input file follows.

    Every cell is stripped, and blank rows are skipped wherever they
    stand, before the header too.  The first non-blank row is the header:
    its names must be distinct and include ``columns``; other columns are
    parsed by ``rest`` when it is given and ignored otherwise.  Every data
    row must have the header's field count.  ``columns`` maps a column to
    its parser (``str``, :func:`_integer` or :func:`_number`); a parser
    rejects a cell with a ``ValueError`` that names what the cell is not.
    ``key`` names the columns that identify a row: no key cell is empty
    and no parsed key repeats.  Returns the names read, ``columns`` first
    and then the rest in file order, and one ``(line, values)`` pair per
    data row.  The file is UTF-8 text; a leading byte-order mark, as
    spreadsheet programs write, is skipped.  Each breach, an unreadable
    file included, is a :class:`DataError` naming the file and, where
    there is one, the line.
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
    for name in columns:
        if name not in pos:
            raise DataError(
                f"header lacks required column {name!r} (found {header})",
                path=path,
                line=line,
            )
    plan = [(name, pos[name], parse) for name, parse in columns.items()]
    if rest is not None:
        plan += [(name, i, rest) for i, name in enumerate(header) if name not in columns]
    names = [name for name, _, _ in plan]
    key_at = [names.index(name) for name in key]
    key_cells = [(name, pos[name]) for name in key]
    first_line: dict[tuple, int] = {}
    out: list[tuple[int, list]] = []
    for line, cells in rows[1:]:
        if len(cells) != len(header):
            raise DataError(
                f"row has {len(cells)} fields, header has {len(header)}",
                path=path,
                line=line,
            )
        for name, i in key_cells:
            if not cells[i]:
                raise DataError(f"empty {name} label", path=path, line=line)
        values = []
        try:
            for name, i, parse in plan:
                values.append(parse(cells[i]))
        except ValueError as exc:
            raise DataError(
                f"column {name!r} has {exc} value {cells[i]!r}",
                path=path,
                line=line,
            ) from None
        if key:
            ids = tuple([values[j] for j in key_at])
            seen = first_line.setdefault(ids, line)
            if seen != line:
                shown = (
                    f"{key[0]} {ids[0]}"
                    if len(key) == 1
                    else f"({', '.join(key)}) = ({', '.join(map(str, ids))})"
                )
                raise DataError(
                    f"{shown} repeated; first seen at line {seen}",
                    path=path,
                    line=line,
                )
        out.append((line, values))
    return names, out


def read_panel(path: str) -> Panel:
    """Load a country-year CSV into a :class:`Panel`.

    The header must contain ``entity`` and ``year``; every other header
    names a numeric variable.  Empty cells are missing.  Entities keep
    their order of first appearance, and the period axis spans every year
    from the file's first to its last, at most ``_MAX_YEAR_SPAN`` of them.
    The key is (entity, year), the year read as an integer.
    """
    names, rows = _read_table(
        path, {"entity": str, "year": _integer}, ("entity", "year"), rest=_number
    )
    if not rows:
        raise DataError("no data rows", path=path)
    variables = names[2:]
    codes: dict[str, int] = {}
    ents = [codes.setdefault(values[0], len(codes)) for _, values in rows]
    years = [values[1] for _, values in rows]
    first, last = min(years), max(years)
    if last - first >= _MAX_YEAR_SPAN:
        raise DataError(
            f"years {first}..{last} span more than {_MAX_YEAR_SPAN}", path=path
        )
    # one (variable, entity, year) grid, filled by one assignment; None -> NaN
    block = np.array([values[2:] for _, values in rows], dtype=float)
    block = block.reshape(len(rows), len(variables))
    offsets = np.fromiter((y - first for y in years), np.intp, len(years))
    grids = np.full((len(variables), len(codes), last - first + 1), np.nan)
    grids[:, ents, offsets] = block.T
    return Panel(list(codes), range(first, last + 1), dict(zip(variables, grids)))


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
    (event, affected country) pairs, as the event file is.
    """
    _, rows = _read_table(
        path,
        {"event_name": str, "year": _integer, "iso3": str},
        ("event_name", "iso3"),
    )
    years: dict[str, int] = {}
    members: dict[str, list[str]] = {}
    for line, (name, year, iso) in rows:
        if years.setdefault(name, year) != year:
            raise DataError(
                f"event {name!r} listed with conflicting years "
                f"{years[name]} and {year}",
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
        _, rows = _read_table(
            mortality_path,
            {"event_name": str, "iso3": str, "mortality": _number},
            ("event_name", "iso3"),
        )
        # an empty mortality cell is simply absent
        mortality = {(n, iso): v for _, (n, iso, v) in rows if v is not None}
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
    """Load a membership CSV (``entity, member`` with 0/1 flags), keyed
    on ``entity``."""
    _, rows = _read_table(path, {"entity": str, "member": _integer}, ("entity",))
    for line, (_, flag) in rows:
        if flag not in (0, 1):
            raise DataError(
                f"member flag must be 0 or 1, got {flag}", path=path, line=line
            )
    members = frozenset(ent for _, (ent, flag) in rows if flag == 1)
    if not members:
        raise DataError("no group members flagged", path=path)
    return GroupSpec(name=name, members=members)


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
_IRF_PARSERS = (_integer, str, *[_number] * 5, str, *[_integer] * 3, _number)


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
    """Read an impulse-response CSV, keyed on (horizon, series), back into
    typed row dicts."""
    names, rows = _read_table(
        path, dict(zip(_IRF_FIELDS, _IRF_PARSERS)), ("horizon", "series")
    )
    return [dict(zip(names, values)) for _, values in rows]


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
