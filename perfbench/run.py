"""pla-bench benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stat-sweep --seed 3 --seconds 20 --trace 0

Runs one workload through pla_bench's public API, checks its tables, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from a separate traced serial pass. Every pass and every
set-up probe is its own process (perfbench/worker.py); the lines before
the last hold the provenance and each pass's raw figures. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_pass, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up probes per untraced run, half before the passes and half after.
# A probe is a 0.15-0.3 s cold import, and its time falls into a fast and
# a slow mode whose shares drift with the host's load. setup_s is the mean
# of the probes without the SETUP_TRIM fastest and slowest: unlike the
# median it does not jump from one mode to the other when the slow share
# crosses one half, and a single stalled probe cannot move it much (see
# README.md, "Run-to-run spread")
SETUP_PROBES = 16
SETUP_TRIM = 2
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, spec: dict, deadline: float) -> dict:
    """Run worker.py in its own process group and return its JSON line."""
    env = dict(os.environ)
    # every probe compiles the package from source, as in a fresh checkout,
    # whether or not an earlier process could have left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{spec['mode']} of {spec['workload']} ran past the time limit")
    finally:
        # reap anything the worker left in its group (a pool it could not join)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{spec['mode']} of {spec['workload']} exited with {proc.returncode}")
    return json.loads(lines[-1])


def provenance(root: Path, args, workload, probe: dict) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **probe["provenance"],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "workers": workload.workers,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def measure(root: Path, args, deadline: float) -> tuple:
    """(setup probes, passes); passes are (role, result) in run order."""
    workload = WORKLOADS[args.workload]
    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    base = {"workload": workload.name, "seed": args.seed, "scale": args.scale,
            "tmp": str(tmp), "trace": False}

    def run(mode: str, **kw) -> dict:
        return run_worker(root, {**base, "mode": mode, "workers": workload.workers, **kw},
                          deadline)

    try:
        # a traced run reports no setup_s and needs one probe, for provenance
        probes = [run("setup") for _ in range(1 if args.trace else SETUP_PROBES // 2)]
        passes = []
        if args.trace:
            passes.append(("serial", run("pass", workers=1)))
            passes.append(("traced", run("pass", workers=1, trace=True)))
            if workload.workers > 1:
                passes.append(("parallel", run("pass")))
        else:
            # whole passes for --seconds: start another only if it should
            # finish in time, and always run the workload's minimum
            start = time.monotonic()
            while True:
                passes.append(("timed", run("pass")))
                elapsed = time.monotonic() - start
                if (len(passes) >= workload.min_passes
                        and elapsed + passes[-1][1]["wall_s"] > args.seconds):
                    break
            probes += [run("setup") for _ in range(SETUP_PROBES - len(probes))]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return probes, passes


def verify(workload: str, passes: list, scale: float) -> tuple:
    """(attempted, failed, problems) over every top-level call of every pass.

    A call fails if it raised, if its table fails the reference check, or
    if its bytes differ from the same call's table in the first pass
    (every pass of one run uses one seed; the traced serial pass and the
    pooled pass must agree byte for byte).
    """
    reference = load_reference(workload)
    first = {t["label"]: t["csv"] for t in passes[0][1]["tables"]}
    attempted = failed = 0
    problems = []
    for role, result in passes:
        checked = check_pass(workload, result["tables"], reference, scale)
        for t in result["tables"]:
            attempted += 1
            found = list(checked[t["label"]])
            if t["csv"] is not None and t["csv"] != first[t["label"]]:
                found.append("table bytes differ from the first pass of this run")
            if found:
                failed += 1
                problems.extend(f"{role} pass: {p}" for p in found)
    return attempted, failed, problems


def metrics(args, workload, probes: list, passes: list) -> dict:
    """The end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json."""
    if not args.trace:
        res = [r for _, r in passes]
        wall = statistics.median(r["wall_s"] for r in res)
        values = {
            "setup_s": statistics.mean(
                sorted(p["setup_s"] for p in probes)[SETUP_TRIM:-SETUP_TRIM]),
            "wall_s": wall,
            "trials_per_s": workload.trials(args.scale) / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in res),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in res),
        }
    else:
        by_role = dict(passes)
        serial, traced = by_role["serial"]["wall_s"], by_role["traced"]["wall_s"]
        parallel = by_role["parallel"]["wall_s"] if "parallel" in by_role else serial
        values = dict(by_role["traced"]["layers"])
        values["harness.parallel_efficiency"] = serial / (workload.workers * parallel)
        values["trace.wall_s"] = traced
        values["trace.overhead_ratio"] = traced / serial - 1.0
    with open(HERE.parent / "BENCHMARK.json") as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the stat-sweep trial count (self-tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path.cwd()
    if not (root / "src" / "pla_bench" / "__init__.py").is_file():
        print("perfbench: run from the root of a pla-bench checkout "
              "(src/pla_bench is missing)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    try:
        probes, passes = measure(root, args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = verify(workload.name, passes, args.scale)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(root, args, workload, probes[0])}))
    print(json.dumps({
        "setup_probes_s": [p["setup_s"] for p in probes],
        "passes": [
            {"role": role, **{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}}
            for role, r in passes]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(args, workload, probes, passes),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
