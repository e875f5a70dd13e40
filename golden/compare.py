"""Regenerate the ``reproduce`` tables and compare them with the golden copies.

Every ``reproduce`` target is run at scale 0.05 and seed 42 on 2 workers
(the tables are the same bytes on any worker count) and compared
with ``golden/<target>.csv``; ``fig2`` is stored and compared without its
``train_seconds`` column, which holds measured wall-clock times. A table
whose bytes match is reported as identical. Otherwise each row that
differs is reported with |delta p_fa| / se_pfa and |delta p_md| / se_pmd,
in units of the golden row's standard errors, and every changed cell,
trained parameters included, as old -> new. ``table1`` and ``fig1`` carry
no SE column; their p_md moves read in binomial SEs of the golden rate over
the target's search trials at this scale (SEARCH_TRIALS).

Integer cells (confusion counts, j, k, knn_k, ...) and text cells must
match exactly and float cells to a relative tolerance of REL_TOL, so
float round-off across hosts passes and anything else fails. A changed
header or row count, a missing golden table or any cell beyond those
rules exits 1.

    python golden/compare.py            # regenerate and compare
    python golden/compare.py --write    # the same report, then replace golden/

``--write`` prints the same per-table report before it rewrites each
table, and exits 0. A change that moves rows on purpose rewrites
``golden/`` with ``--write`` in the same commit and quotes that run's
report. Standard library and pla_bench only.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
from pathlib import Path
import sys
import tempfile

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent / "src"))

from pla_bench.harness import REPRODUCE_TARGETS, emit, reproduce  # noqa: E402

SCALE, SEED, WORKERS = 0.05, 42, 2
REL_TOL = 1e-9  # float cells; counts and labels compare exactly
UNTIMED = "train_seconds"
# trials behind each p_md of the tables without SE columns, at SCALE: the
# exponent search's draw (reproduce's floors of 2,000 and 4,000)
SEARCH_TRIALS = {"table1": 2_000, "fig1": 4_000}


def table_csv(target: str) -> str:
    """The CSV text ``reproduce`` gives for one target, without measured times."""
    table = reproduce(target, scale=SCALE, seed=SEED, workers=WORKERS)
    table.columns = [c for c in table.columns if c != UNTIMED]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{target}.csv"
        emit(table, "csv", path)
        return path.read_bytes().decode()


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def same_cell(old: str, new: str) -> bool:
    if old == new:
        return True
    if _is_int(old) or _is_int(new):
        return False
    try:
        return math.isclose(float(old), float(new), rel_tol=REL_TOL)
    except ValueError:
        return False


def _se_units(old: dict, new: dict, rate: str, trials: int | None = None) -> str:
    """|delta rate| / se of one row, or "" where there is no SE.

    The SE is the row's se_rate cell over its n trials (n_alice for p_fa,
    n_eve for p_md), or, in a table without that column, the binomial SE
    sqrt(p (1 - p) / trials) of the golden rate. Either is floored at 1/n,
    the binomial SE of the one-event rate, so a row whose golden copy saw
    no error still reads in finite units.
    """
    try:
        delta = abs(float(new[rate]) - float(old[rate]))
        se_column = "se_" + rate.replace("_", "")
        if se_column in old:
            se, n = float(old[se_column]), int(old[{"p_fa": "n_alice", "p_md": "n_eve"}[rate]])
        elif trials:
            p, n = float(old[rate]), trials
            se = math.sqrt(p * (1.0 - p) / n)
        else:
            return ""
    except (KeyError, ValueError):
        return ""
    return f"|d{rate}|/se {delta / max(se, 1.0 / n):.2f}"


def compare(old_text: str, new_text: str, trials: int | None = None) -> tuple[bool, list]:
    """(within tolerance, report lines) of a regenerated table against its golden
    text; ``trials`` sizes the SE of a table without SE columns."""
    if old_text == new_text:
        return True, ["identical bytes"]
    old_csv, new_csv = csv.DictReader(io.StringIO(old_text)), csv.DictReader(io.StringIO(new_text))
    old_rows, new_rows = list(old_csv), list(new_csv)
    old_head, new_head = old_csv.fieldnames or [], new_csv.fieldnames or []
    if old_head != new_head or len(old_rows) != len(new_rows):
        return False, [f"shape changed: {len(old_head)} columns x {len(old_rows)} rows -> "
                       f"{len(new_head)} x {len(new_rows)}"]
    ok, lines = True, []
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        changed = [c for c in old_head if old[c] != new[c]]
        if not changed:
            continue
        ok &= all(same_cell(old[c], new[c]) for c in changed)
        units = [u for u in (_se_units(old, new, r, trials) for r in ("p_fa", "p_md")) if u]
        cells = [f"{c} {old[c] or '-'} -> {new[c] or '-'}" for c in changed]
        lines.append(f"row {i}: " + "; ".join(units + cells))
    if ok:
        lines.append(f"equal within rel_tol {REL_TOL:g}")
    return ok, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="replace the golden tables")
    args = ap.parse_args(argv)
    failed = []
    for target in REPRODUCE_TARGETS:
        text = table_csv(target)
        path = GOLDEN / f"{target}.csv"
        if not path.exists():
            ok, lines = False, [f"no golden table {path.name}"]
        else:
            ok, lines = compare(path.read_bytes().decode(), text, SEARCH_TRIALS.get(target))
        print(f"{target}: " + ("ok" if ok else "CHANGED"))
        for line in lines:
            print(f"  {line}")
        if args.write:
            path.write_bytes(text.encode())
            print(f"  wrote {path.name}")
        elif not ok:
            failed.append(target)
    if failed:
        print("changed beyond tolerance: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
