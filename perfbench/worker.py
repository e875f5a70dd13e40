"""One measured process of the benchmark: a set-up probe or one pass.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the mode ("setup" or "pass"), the workload, the program
seed, the pool size, whether to trace, the scale and a temporary directory
inside the checkout. The worker prints one JSON object as its last line.
A fresh process per pass gives each pass its own peak RSS and CPU count,
and a set-up probe its own cold import.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _provenance() -> dict:
    import numpy as np
    import pla_bench

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pla_bench": pla_bench.__version__,
        "blas": blas,
    }


def _rusage() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_maxrss, kids.ru_maxrss


def main(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    import pla_bench.harness as harness
    calls = workload.build(spec["seed"], spec["workers"], spec["scale"])
    setup_s = time.perf_counter() - _T_START
    if spec["mode"] == "setup":
        return {"setup_s": setup_s, "provenance": _provenance()}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, _, _ = _rusage()
    t0 = time.perf_counter()
    tables = []
    for label, thunk in calls:
        try:
            tables.append((label, thunk()))
        except Exception:  # a failed top-level call is counted, not fatal
            traceback.print_exc()
            tables.append((label, None))
    wall_s = time.perf_counter() - t0
    cpu1, rss_self, rss_kids = _rusage()
    if tracer is not None:
        tracer.uninstall()

    os.makedirs(spec["tmp"], exist_ok=True)
    out_tables = []
    for i, (label, table) in enumerate(tables):
        text = None
        if table is not None:
            path = os.path.join(spec["tmp"], f"{os.getpid()}-{i}.csv")
            harness.emit(table, "csv", path)
            with open(path) as fh:
                text = fh.read()
            os.unlink(path)
        out_tables.append({"label": label, "csv": text})
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        # ru_maxrss is KiB on Linux; the children figure is the largest
        # pool worker, reaped when the pool shut down
        "peak_rss_mb": (rss_self + rss_kids) / 1024.0,
        "tables": out_tables,
        "layers": tracer.metrics(wall_s) if tracer is not None else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
