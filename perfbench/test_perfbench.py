"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import copy
import csv
import io
import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import check_pass, load_reference  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric(trace, section):
    proc = _bench("--workload", "stat-sweep", "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_bare_directory_fails_without_result():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stat-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _table_from_reference(reference: dict, label: str) -> str:
    """A CSV table whose rates sit on the reference means."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if reference["workload"] == "calib-table1":
        writer.writerow(["n_subcarriers", "rho", "p_md"])
        for row in reference["tables"][label]:
            p = row["rates"]["p_md"]["values"]
            writer.writerow(row["key"] + [sum(p) / len(p)])
        return out.getvalue()
    writer.writerow(["defender", "n_subcarriers", "alpha_II", "rho_AE", "n_alice", "n_eve",
                     "p_fa", "p_md", "se_pfa", "se_pmd"])
    for row in reference["tables"][label]:
        rates = row["rates"]
        means = [sum(rates[c]["values"]) / len(rates[c]["values"]) for c in ("p_fa", "p_md")]
        writer.writerow(row["key"] + [rates["p_fa"]["n"], rates["p_md"]["n"]] + means + [0, 0])
    return out.getvalue()


@pytest.mark.parametrize("workload", ["ml-table4-par", "calib-table1", "stat-sweep"])
def test_corrupted_table_fails_the_check(workload):
    reference = load_reference(workload)
    tables = [{"label": label, "csv": _table_from_reference(reference, label)}
              for label in reference["tables"]]
    assert all(not p for p in check_pass(workload, tables, reference).values())

    # a wrong kernel: the attacker's acceptance rate of the first row doubles
    bad = copy.deepcopy(tables)
    rows = list(csv.reader(io.StringIO(bad[0]["csv"])))
    col = rows[0].index("p_md")
    rows[1][col] = repr(min(2 * float(rows[1][col]) + 0.05, 1.0))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    bad[0]["csv"] = buf.getvalue()
    assert check_pass(workload, bad, reference)[bad[0]["label"]]

    # a dropped row fails too
    bad = copy.deepcopy(tables)
    bad[0]["csv"] = "".join(io.StringIO(tables[0]["csv"]).readlines()[:-1])
    assert check_pass(workload, bad, reference)[bad[0]["label"]]


def test_tracer_patches_every_import_site_and_restores():
    import pla_bench
    import pla_bench.channel
    import pla_bench.harness
    import pla_bench.mlauth
    from pla_bench.rng import Rng

    originals = (pla_bench.harness.complex_gaussian, pla_bench.harness.ocsvm_train_cv,
                 Rng.standard_normal)
    tracer = Tracer()
    tracer.install()
    try:
        assert pla_bench.harness.complex_gaussian is pla_bench.channel.complex_gaussian
        assert pla_bench.harness.ocsvm_train_cv.__wrapped__ is originals[1]
        pla_bench.harness.complex_gaussian(Rng(1), (4, 3))
    finally:
        tracer.uninstall()
    assert (pla_bench.harness.complex_gaussian, pla_bench.harness.ocsvm_train_cv,
            Rng.standard_normal) == originals
    assert tracer.counts["channel.draw_calls"] == 1
    assert tracer.counts["rng.normals"] == 24
    assert tracer.spans["channel.complex_gaussian"][0] == 1
