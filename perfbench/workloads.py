"""The benchmark's workloads: what each one runs through the public API.

Every workload is a list of top-level calls into ``pla_bench``. The
benchmark builds them from its own seed; the program only ever sees the
resulting arguments. ``build`` imports ``pla_bench`` lazily so that the
runner process can load this module without the package.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

# stat-sweep: the same rng/channel layers as calib-table1, cut into many
# small shards instead of a few huge arrays
STAT_DEFENDERS = ("llr", "combined", "ideal")
STAT_N = (1, 3, 6)
STAT_ALPHA_II = (0.8, 1.0)
STAT_TRIALS = 200_000
STAT_DATASETS = 10

# calib-table1: the (N, rho) grid and trial budgets reproduce("table1") uses
TABLE1_POINTS = 6
TABLE1_CALIB = 1_000_000
TABLE1_SEARCH = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # pool size of the timed passes
    min_passes: int = 1  # timed passes per run, however long they take

    def build(self, seed: int, workers: int, scale: float = 1.0) -> list:
        """[(label, thunk)] for one pass; each thunk returns a ResultTable."""
        from pla_bench import harness
        from pla_bench.attacks import AttackStrategy
        from pla_bench.harness import AttackerSpec, DefenderSpec, ExperimentConfig

        # the thunks look the entry points up when called, so that a tracer
        # installed after build still sees the top-level calls
        if self.name == "ml-table4-par":
            return [("table4", lambda: harness.reproduce(
                "table4", scale=0.05 * scale, seed=seed, workers=workers))]
        if self.name == "calib-table1":
            return [("table1", lambda: harness.reproduce(
                "table1", scale=scale, seed=seed, workers=workers))]
        calls = []
        for kind in STAT_DEFENDERS:
            cfg = ExperimentConfig(
                defender=DefenderSpec(kind),
                attacker=AttackerSpec(AttackStrategy("simplified")),
                n_subcarriers=STAT_N, alpha_II=STAT_ALPHA_II, rho_AE=(0.1,),
                target_pfa=1e-2, n_trials=stat_trials(scale), n_datasets=STAT_DATASETS,
                seed=seed, workers=workers,
            )
            calls.append((kind, lambda cfg=cfg: harness.run_experiment(cfg)))
        return calls

    def trials(self, scale: float = 1.0) -> int:
        """Monte Carlo trials one pass simulates, fixed by its configuration.

        For the result-table workloads this is every classified packet
        (Alice's and the attacker's, summed over rows); for table1 it is the
        H0 and H1 calibration draws plus the attack-search draws per point.
        """
        if self.name == "ml-table4-par":
            n_trials = max(round(40_000 * 0.05 * scale), 1_000)
            n_datasets = max(round(20 * 0.05 * scale), 2)
            rows = 4 * 3  # llr, combined, ocnn, ocsvm at N = 1, 2, 3
            return rows * 2 * n_datasets * math.ceil(n_trials / n_datasets)
        if self.name == "calib-table1":
            return TABLE1_POINTS * (2 * TABLE1_CALIB + table1_search(scale))
        rows = len(STAT_DEFENDERS) * len(STAT_N) * len(STAT_ALPHA_II)
        return rows * 2 * STAT_DATASETS * math.ceil(stat_trials(scale) / STAT_DATASETS)


def stat_trials(scale: float) -> int:
    return max(round(STAT_TRIALS * scale), 1_000)


def table1_search(scale: float) -> int:
    """Attack-search trials per point, as reproduce("table1") scales them."""
    return max(round(TABLE1_SEARCH * scale), 2_000)


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    # one pooled pass of the same seed takes anywhere from about 20 to 30 s,
    # with how the oversubscribed BLAS threads happen to be scheduled, so
    # its runs take the median of two passes
    Workload("ml-table4-par", workers=2, min_passes=2),
    Workload("calib-table1", workers=1),
    Workload("stat-sweep", workers=1),
)}
