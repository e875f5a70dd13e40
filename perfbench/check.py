"""Output check: compare a pass's tables with the committed reference.

The reference for each workload holds, per table row, the rates that
``make_reference.py`` measured at several held-apart seeds. A run at any
seed is an independent sample of the same quantities, so each rate must
lie within ``K_SE`` standard errors of the reference mean. The standard
error combines the run's own (``se_pfa``/``se_pmd``, or the binomial SE at
``n_search`` for table1, never below the binomial SE at the reference
rate) with the seed-to-seed spread of the reference. No byte equality is
demanded, so an announced change of the random stream still passes while
a wrong kernel, which moves rates by many standard errors, fails.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
import statistics

from workloads import WORKLOADS, table1_search

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
K_SE = 8.0
RESULT_KEY = ("defender", "n_subcarriers", "alpha_II", "rho_AE")
TABLE1_KEY = ("n_subcarriers", "rho")


def parse_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def row_key(workload: str, row: dict) -> list:
    names = TABLE1_KEY if workload == "calib-table1" else RESULT_KEY
    return [row[k] for k in names]


def rate_cells(workload: str, row: dict, scale: float) -> list:
    """[(column, value, own SE, trial count)] of the rates a row carries."""
    if workload == "calib-table1":
        n = table1_search(scale)
        p = float(row["p_md"])
        return [("p_md", p, math.sqrt(max(p * (1 - p), 0.0) / n), n)]
    return [
        ("p_fa", float(row["p_fa"]), float(row["se_pfa"]), int(row["n_alice"])),
        ("p_md", float(row["p_md"]), float(row["se_pmd"]), int(row["n_eve"])),
    ]


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def tolerance(own_se: float, n: int, ref_values: list) -> tuple:
    """(reference mean, allowed absolute deviation) of one rate."""
    mean = statistics.fmean(ref_values)
    sd = statistics.stdev(ref_values) if len(ref_values) > 1 else 0.0
    q = min(max(mean, 1.0 / n), 0.5)
    se = max(own_se, sd, math.sqrt(q * (1 - q) / n))
    return mean, K_SE * math.sqrt(se**2 + sd**2 / len(ref_values))


def check_table(workload: str, label: str, text: str, reference: dict,
                scale: float = 1.0) -> list:
    """Problems found in one table; an empty list means it passed."""
    ref_rows = reference["tables"][label]
    rows = parse_csv(text)
    if len(rows) != len(ref_rows):
        return [f"{label}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        key = row_key(workload, row)
        if key != ref["key"]:
            problems.append(f"{label}: row {key} where reference has {ref['key']}")
            continue
        for col, value, own_se, n in rate_cells(workload, row, scale):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{label} {key}: {col}={value} is not a rate")
                continue
            mean, tol = tolerance(own_se, n, ref["rates"][col]["values"])
            if abs(value - mean) > tol:
                problems.append(f"{label} {key}: {col}={value:.6g} differs from the "
                                f"reference {mean:.6g} by more than {tol:.3g}")
    return problems


def classified_packets(tables: list) -> int:
    return sum(int(r["n_alice"]) + int(r["n_eve"])
               for t in tables for r in parse_csv(t["csv"]))


def check_pass(workload: str, tables: list, reference: dict, scale: float = 1.0) -> dict:
    """label -> problems for every table of one pass (None csv = the call raised)."""
    out = {}
    for t in tables:
        if t["csv"] is None:
            out[t["label"]] = ["call raised"]
        else:
            out[t["label"]] = check_table(workload, t["label"], t["csv"], reference, scale)
    if workload != "calib-table1" and all(t["csv"] is not None for t in tables):
        expected = WORKLOADS[workload].trials(scale)
        got = classified_packets(tables)
        if got != expected:
            for t in tables:
                out[t["label"]].append(f"{got} packets classified, config fixes {expected}")
    return out
