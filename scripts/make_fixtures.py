"""Regenerate the CSV fixtures under data/.

The pandemic event table is the fixed historical record (WHO announcement
years and affected-country lists).  Everything else — the per-country
mortality figures and the demonstration panel — is synthetic, drawn from
seeded generators so rerunning this script reproduces the files bit for
bit.  The mortality file in particular is a stub: it exists so severity
classification can be exercised end to end, not because the numbers mean
anything.

Run from anywhere:  python3 scripts/make_fixtures.py [--out DIR]
(``DIR`` defaults to the repository's ``data/``).
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"

# (event name, announcement year) -> affected countries, ISO alpha-3
EVENTS: dict[tuple[str, int], tuple[str, ...]] = {
    ("H3N2 Flu", 1968): (
        "ARG", "AUS", "CHL", "DNK", "FIN", "FRA", "GBR", "GRC", "HKG",
        "ITA", "JAM", "JPN", "NLD", "NOR", "PRT", "SWE", "USA", "ZAF",
    ),
    ("SARS", 2003): (
        "AUS", "CAN", "CHE", "CHN", "DEU", "ESP", "FRA", "GBR", "HKG",
        "IDN", "IND", "IRL", "ITA", "KOR", "KWT", "MAC", "MNG", "MYS",
        "NZL", "PHL", "ROU", "RUS", "SGP", "SWE", "THA", "TWN", "USA",
        "VNM", "ZAF",
    ),
    ("H1N1", 2009): (
        "AFG", "AGO", "ALB", "AND", "ARE", "ARG", "ARM", "ATG", "AUS",
        "AUT", "AZE", "BDI", "BEL", "BGD", "BGR", "BHR", "BHS", "BIH",
        "BLR", "BLZ", "BMU", "BOL", "BRA", "BRB", "BRN", "BTN", "BWA",
        "CAN", "CHE", "CHL", "CHN", "CIV", "CMR", "COD", "COG", "COL",
        "CPV", "CRI", "CUB", "CYM", "CYP", "CZE", "DEU", "DJI", "DMA",
        "DNK", "DOM", "DZA", "ECU", "EGY", "ESP", "EST", "ETH", "FIN",
        "FJI", "FRA", "FSM", "GAB", "GBR", "GEO", "GHA", "GRC", "GRD",
        "GTM", "GUY", "HND", "HRV", "HTI", "HUN", "IDN", "IND", "IRL",
        "IRN", "IRQ", "ISL", "ISR", "ITA", "JAM", "JOR", "JPN", "KAZ",
        "KEN", "KHM", "KIR", "KNA", "KOR", "KWT", "LAO", "LBN", "LBY",
        "LCA", "LIE", "LKA", "LSO", "LTU", "LUX", "LVA", "MAR", "MDA",
        "MDG", "MDV", "MEX", "MHL", "MKD", "MLI", "MLT", "MMR", "MNE",
        "MNG", "MOZ", "MUS", "MWI", "MYS", "NAM", "NGA", "NIC", "NLD",
        "NOR", "NPL", "NRU", "NZL", "OMN", "PAK", "PAN", "PER", "PHL",
        "PLW", "PNG", "POL", "PRI", "PRT", "PRY", "QAT", "ROU", "RUS",
        "RWA", "SAU", "SDN", "SGP", "SLB", "SLV", "SOM", "SRB", "STP",
        "SUR", "SVK", "SVN", "SWE", "SWZ", "SYC", "SYR", "TCD", "THA",
        "TJK", "TON", "TTO", "TUN", "TUR", "TUV", "TZA", "UGA", "UKR",
        "URY", "USA", "VCT", "VEN", "VNM", "VUT", "WSM", "YEM", "ZAF",
        "ZMB", "ZWE",
    ),
    ("MERS", 2012): (
        "ARE", "AUT", "CHN", "DEU", "DZA", "EGY", "FRA", "GBR", "GRC",
        "IRN", "ITA", "JOR", "KOR", "KWT", "LBN", "MYS", "NLD", "OMN",
        "PHL", "QAT", "SAU", "THA", "TUN", "TUR", "USA", "YEM",
    ),
    ("Ebola", 2014): (
        "ESP", "GBR", "GIN", "ITA", "LBR", "MLI", "NGA", "SEN", "SLE",
        "USA",
    ),
    ("Zika", 2016): (
        "ABW", "ARG", "ATG", "BHS", "BLZ", "BOL", "BRA", "BRB", "CAN",
        "CHL", "COL", "CRI", "CUB", "CYM", "DMA", "DOM", "ECU", "GRD",
        "GTM", "GUY", "HND", "HTI", "JAM", "KNA", "LCA", "NIC", "PAN",
        "PER", "PRI", "PRY", "SLV", "SUR", "TCA", "TTO", "URY", "USA",
        "VCT", "VEN",
    ),
}

_EXPECTED_COUNTS = {
    "H3N2 Flu": 18,
    "SARS": 29,
    "H1N1": 173,
    "MERS": 26,
    "Ebola": 10,
    "Zika": 38,
}

PANEL_COUNTRIES = ("AUS", "DEU", "ESP", "FRA", "GBR", "ITA", "JPN", "NLD", "SWE", "USA")
PANEL_YEARS = range(1980, 2020)

# level path pressed into log emissions of affected panel countries, so the
# demonstration run has something to find
DEMO_PATH = (0.0, -0.02, -0.025, -0.01, 0.0, 0.0)


def write_events(out: pathlib.Path) -> None:
    rows = ["event_name,year,iso3"]
    for (name, year), isos in EVENTS.items():
        assert len(isos) == len(set(isos)), name
        assert len(isos) == _EXPECTED_COUNTS[name], name
        rows.extend(f"{name},{year},{iso}" for iso in isos)
    assert len(rows) - 1 == 294, len(rows) - 1
    (out / "pandemic_events.csv").write_text("\n".join(rows) + "\n")


def write_mortality_stub(out: pathlib.Path) -> None:
    rng = np.random.default_rng(20260501)
    rows = ["event_name,iso3,mortality"]
    for (name, _year), isos in EVENTS.items():
        # per-event scale, heavy right tail: deaths per million, synthetic
        draws = rng.lognormal(mean=2.0, sigma=1.2, size=len(isos))
        rows.extend(
            f"{name},{iso},{round(float(d), 3)}" for iso, d in zip(isos, draws)
        )
    (out / "pandemic_mortality_stub.csv").write_text("\n".join(rows) + "\n")


def write_sample_panel(out: pathlib.Path) -> None:
    rng = np.random.default_rng(20260502)
    n, T = len(PANEL_COUNTRIES), len(PANEL_YEARS)
    years = np.asarray(list(PANEL_YEARS))

    log_co2 = np.empty((n, T))
    log_gdp = np.empty((n, T))
    trade = np.empty((n, T))
    log_co2[:, 0] = rng.normal(2.2, 0.4, size=n)
    log_gdp[:, 0] = rng.normal(10.2, 0.25, size=n)
    trade[:, 0] = rng.uniform(35.0, 130.0, size=n)
    co2_drift = rng.normal(0.002, 0.004, size=n)
    gdp_drift = rng.normal(0.02, 0.005, size=n)
    for t in range(1, T):
        log_co2[:, t] = log_co2[:, t - 1] + co2_drift + rng.normal(0, 0.02, n)
        log_gdp[:, t] = log_gdp[:, t - 1] + gdp_drift + rng.normal(0, 0.015, n)
        trade[:, t] = np.clip(trade[:, t - 1] + rng.normal(0.4, 2.0, n), 10.0, None)

    affected = {
        (iso, year) for (_name, year), isos in EVENTS.items() for iso in isos
    }
    for i, iso in enumerate(PANEL_COUNTRIES):
        for j, year in enumerate(years):
            if (iso, int(year)) in affected:
                for k, s in enumerate(DEMO_PATH):
                    if s != 0.0 and j + k < T:
                        log_co2[i, j + k] += s

    gdp_growth = np.full((n, T), np.nan)
    gdp_growth[:, 1:] = 100.0 * np.diff(log_gdp, axis=1)

    # a few holes so ingestion of sparse data gets exercised by the fixture
    holes = {("SWE", 1991, "trade_share"), ("JPN", 2004, "trade_share")}

    rows = ["entity,year,co2_pc,gdp_pc,trade_share,gdp_growth"]
    for i, iso in enumerate(PANEL_COUNTRIES):
        for j, year in enumerate(years):
            cells = {
                "co2_pc": f"{np.exp(log_co2[i, j]):.4f}",
                "gdp_pc": f"{np.exp(log_gdp[i, j]):.2f}",
                "trade_share": f"{trade[i, j]:.2f}",
                "gdp_growth": "" if j == 0 else f"{gdp_growth[i, j]:.5f}",
            }
            for col in list(cells):
                if (iso, int(year), col) in holes:
                    cells[col] = ""
            rows.append(f"{iso},{year}," + ",".join(cells.values()))
    (out / "sample_panel.csv").write_text("\n".join(rows) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description="Regenerate the CSV fixtures.")
    parser.add_argument(
        "--out", type=pathlib.Path, default=DATA, help="output directory (default: data/)"
    )
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    write_events(out)
    write_mortality_stub(out)
    write_sample_panel(out)
    print(f"wrote fixtures to {out}")


if __name__ == "__main__":
    main()
