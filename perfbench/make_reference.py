"""Rebuild the committed reference tables of the output check.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload once per seed in REFERENCE_SEEDS (untraced, with the
workload's own pool size) and writes perfbench/reference/<workload>.json
with every rate per row and seed. It then prints, for each workload, the
largest leave-one-out deviation in units of the check's standard error,
which shows how much room K_SE leaves. Rebuild only when the program's
statistics are meant to change, and say so where the change is recorded.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path
import sys
import time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import K_SE, REFERENCE_DIR, parse_csv, rate_cells, row_key, tolerance  # noqa: E402
from run import run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEEDS = tuple(range(9001, 9011))


def build(root: Path, name: str) -> dict:
    workload = WORKLOADS[name]
    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    tables: dict = {}
    for seed in REFERENCE_SEEDS:
        spec = {"mode": "pass", "workload": name, "seed": seed, "scale": 1.0,
                "workers": workload.workers, "trace": False, "tmp": str(tmp)}
        result = run_worker(root, spec, time.monotonic() + 600)
        print(f"{name} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)
        for t in result["tables"]:
            if t["csv"] is None:
                raise SystemExit(f"{name} seed {seed}: {t['label']} raised")
            rows = tables.setdefault(t["label"], [])
            for i, row in enumerate(parse_csv(t["csv"])):
                if len(rows) <= i:
                    rows.append({"key": row_key(name, row)})
                rates = rows[i].setdefault("rates", {})
                for col, value, _, n in rate_cells(name, row, 1.0):
                    rates.setdefault(col, {"n": n, "values": []})["values"].append(value)
    tmp.rmdir()
    return {"workload": name, "seeds": list(REFERENCE_SEEDS), "tables": tables}


def leave_one_out(reference: dict) -> float:
    """Largest |value - mean of the others| / (tolerance / K_SE) over all cells.

    Uses the reference spread in place of the run's own SE, which the
    reference does not store; the real check takes the larger of the two.
    """
    worst = 0.0
    for rows in reference["tables"].values():
        for row in rows:
            for rate in row["rates"].values():
                values = rate["values"]
                for i, v in enumerate(values):
                    others = values[:i] + values[i + 1:]
                    mean, tol = tolerance(0.0, rate["n"], others)
                    if tol > 0:
                        worst = max(worst, abs(v - mean) / (tol / K_SE))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        reference = build(root, name)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
        print(f"{name}: worst leave-one-out deviation "
              f"{leave_one_out(reference):.2f} SE (check allows {K_SE:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
