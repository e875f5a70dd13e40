"""The golden-table comparison flags what CI must flag and passes round-off.

``golden/compare.py`` regenerates every ``reproduce`` table, which takes
about half a minute, so CI runs it as its own step; these tests check only
its cell rules, on a committed golden table.
"""
import csv
import importlib.util
import io
import math
from pathlib import Path

from pla_bench import harness

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _compare_module():
    spec = importlib.util.spec_from_file_location("golden_compare", GOLDEN / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _with_cell(text: str, row: int, column: str, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row + 1][rows[0].index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_every_reproduce_target_has_a_golden_table():
    from pla_bench.harness import REPRODUCE_TARGETS

    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(REPRODUCE_TARGETS)
    assert "train_seconds" not in (GOLDEN / "fig2.csv").read_text().splitlines()[0]


def test_compare_rules():
    module = _compare_module()
    compare = module.compare
    text = (GOLDEN / "table4.csv").read_text()
    assert compare(text, text) == (True, ["identical bytes"])
    row = next(csv.DictReader(io.StringIO(text)))
    theta, fp, n_eve = float(row["theta"]), int(row["fp"]), int(row["n_eve"])
    ok, lines = compare(text, _with_cell(text, 0, "theta", repr(theta * (1 + 1e-12))))
    assert ok and lines[-1].startswith("equal within")
    assert not compare(text, _with_cell(text, 0, "theta", repr(theta * (1 + 1e-6))))[0]
    # one more missed detection: refused, and reported in units of se_pmd
    moved = _with_cell(_with_cell(text, 0, "fp", str(fp + 1)), 0, "p_md", repr((fp + 1) / n_eve))
    ok, lines = compare(text, moved)
    units = (1 / n_eve) / float(row["se_pmd"])
    assert not ok and lines == [f"row 0: |dp_fa|/se 0.00; |dp_md|/se {units:.2f}; "
                                f"fp {fp} -> {fp + 1}; p_md {row['p_md']} -> {(fp + 1) / n_eve!r}"]
    assert not compare(text, text + text.splitlines(keepends=True)[1])[0]
    assert not compare(text, _with_cell(text, 0, "defender", "llr2"))[0]
    # table1 has no SE column: its p_md moves read in binomial SEs over the
    # target's search trials, and with no trial count they read in none
    table1 = (GOLDEN / "table1.csv").read_text()
    p_md = float(next(csv.DictReader(io.StringIO(table1)))["p_md"])
    moved = _with_cell(table1, 0, "p_md", repr(p_md + 0.01))
    trials = module.SEARCH_TRIALS["table1"]
    units = 0.01 / max(math.sqrt(p_md * (1 - p_md) / trials), 1 / trials)
    ok, lines = compare(table1, moved, trials)
    assert not ok and lines == [f"row 0: |dp_md|/se {units:.2f}; "
                                f"p_md {p_md!r} -> {p_md + 0.01!r}"]
    assert compare(table1, moved)[1] == [f"row 0: p_md {p_md!r} -> {p_md + 0.01!r}"]
    # a golden rate of zero reads against the one-event SE, 1 / trials
    zero = _with_cell(table1, 0, "p_md", "0.0")
    ok, lines = compare(zero, _with_cell(zero, 0, "p_md", repr(2 / trials)), trials)
    assert lines[0].startswith("row 0: |dp_md|/se 2.00; ")
    # the counts are reproduce's search draws at the comparison's scale
    assert module.SEARCH_TRIALS == {"table1": harness._desk(20_000, module.SCALE, floor=2_000),
                                    "fig1": harness._desk(40_000, module.SCALE, floor=4_000)}


def test_a_move_off_a_zero_error_row_reads_in_one_event_units():
    compare = _compare_module().compare
    text = (GOLDEN / "table4.csv").read_text()
    n_alice = int(next(csv.DictReader(io.StringIO(text)))["n_alice"])
    # a golden row that saw no false alarm has se_pfa 0; two false alarms
    # read against the one-event SE, 1 / n_alice
    old = text
    for column, value in (("fn", "0"), ("p_fa", "0.0"), ("se_pfa", "0.0")):
        old = _with_cell(old, 0, column, value)
    new = _with_cell(_with_cell(old, 0, "fn", "2"), 0, "p_fa", repr(2 / n_alice))
    ok, lines = compare(old, new)
    assert not ok and lines[0].startswith("row 0: |dp_fa|/se 2.00; |dp_md|/se 0.00; ")


def test_write_prints_the_report_then_rewrites(monkeypatch, tmp_path, capsys):
    module = _compare_module()
    text = (GOLDEN / "table4.csv").read_text()
    fp = int(next(csv.DictReader(io.StringIO(text)))["fp"])
    moved = _with_cell(text, 0, "fp", str(fp + 1))
    (tmp_path / "table4.csv").write_text(text)
    monkeypatch.setattr(module, "GOLDEN", tmp_path)
    monkeypatch.setattr(module, "REPRODUCE_TARGETS", ("table4",))
    monkeypatch.setattr(module, "table_csv", lambda target: moved)
    # the default mode reports the move and fails; --write reports it, writes and passes
    assert module.main([]) == 1
    report = capsys.readouterr().out.splitlines()
    assert (tmp_path / "table4.csv").read_text() == text
    assert module.main(["--write"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == report[:-1] + ["  wrote table4.csv"]
    assert report[0] == "table4: CHANGED" and f"fp {fp} -> {fp + 1}" in report[1]
    assert (tmp_path / "table4.csv").read_text() == moved
