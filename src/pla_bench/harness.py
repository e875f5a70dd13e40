"""Declarative Monte Carlo experiment engine.

An ExperimentConfig sweeps scenario parameters, trains or calibrates one
defender per sweep point and dataset, classifies phase-II packet streams
from the legitimate transmitter and the attacker, and aggregates
confusion counts into a ResultTable. Everything is deterministic given
the seed: each (sweep point, dataset) shard derives its own generator
stream, and reduction happens in sorted shard order, so results are
byte-identical no matter how many workers run.

The ``reproduce`` entry point runs named targets (table1..table5,
fig1..fig10) at desk scale; each sweep target is one entry of ``_TARGETS``.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
import csv
import io
import itertools
import json
import math
import time

import numpy as np

from .attacks import AttackStrategy, mismatched_eval, optimize_attack_exponents
from .channel import (
    ScenarioParams,
    alice_estimate_phase2,
    bob_estimate_phase1,
    complex_gaussian,  # noqa: F401  (an import site the perfbench tracer patches and checks)
    eve_observations,
    forged_observation,
    sample_channel,
    simulate_trials,
)
from .errors import ConfigError, SingularTestError
from .metrics import ConfusionMatrix, binomial_se
from .mlauth import (
    DistanceMetric,
    binary_knn,
    binary_knn_tune,
    binary_svm_classify,
    binary_svm_train,
    featurize,
    kmeans_label,
    median_heuristic,
    ocnn_classify,
    ocnn_train,
    ocsvm_classify,
    ocsvm_train_cv,
)
from .rng import Rng
from .statdec import (
    accepts,
    calibrate_threshold,
    ideal_llr,
    modulus_statistic,
    ncx2_inv,
    nominal_mu,
    normal_upper_quantile,
    optimize_thresholds,
    per_dim_variance,
)

DEFENDER_KINDS = (
    "llr", "combined", "ideal", "ocnn", "ocsvm",
    "binary_knn", "binary_svm", "kmeans_svm",
)

STAT_DEFENDERS = ("llr", "combined", "ideal")


@dataclass(frozen=True)
class DefenderSpec:
    kind: str
    variant: str = "1KNN"          # one-class NN flavor
    metric: str = "euclidean"      # "euclidean" or "llr"
    kernel: str = "gaussian"       # "gaussian", "linear" or "poly"
    ideal_sigma2: float | None = None
    ideal_sigma2_E: float | None = None

    def __post_init__(self):
        if self.kind not in DEFENDER_KINDS:
            raise ConfigError(f"unknown defender kind {self.kind!r}")
        if self.metric not in ("euclidean", "llr"):
            raise ConfigError(f"unknown defender metric {self.metric!r}")
        for v in (self.ideal_sigma2, self.ideal_sigma2_E):
            if v is not None and not v > 0:
                raise SingularTestError("ideal-bound variances must be positive")

    def label(self) -> str:
        if self.kind == "ocnn":
            suffix = "-llr" if self.metric == "llr" else ""
            return f"ocnn-{self.variant}{suffix}"
        if self.kind == "ocsvm" and self.kernel != "gaussian":
            return f"ocsvm-{self.kernel}"
        return self.kind


@dataclass(frozen=True)
class AttackerSpec:
    strategy: AttackStrategy = AttackStrategy("simplified")
    averaged: bool = False  # average the adversary's M observation pairs first

    def label(self) -> str:
        s = self.strategy
        name = s.kind if s.kind != "exponent" else f"exponent({s.x:g},{s.y:g})"
        return name + ("-avg" if self.averaged else "")


_SWEEP_FIELDS = (
    "n_subcarriers", "alpha_I", "alpha_II", "rho_AE", "rho_EB",
    "snr_I_db", "snr_II_db", "m_training",
)


@dataclass(frozen=True)
class ExperimentConfig:
    defender: DefenderSpec
    attacker: AttackerSpec = AttackerSpec()
    n_subcarriers: tuple = (1,)
    alpha_I: tuple = (1.0,)
    alpha_II: tuple = (1.0,)
    rho_AE: tuple = (0.1,)
    rho_EB: tuple = (0.0,)
    snr_I_db: tuple = (15.0,)
    snr_II_db: tuple = (20.0,)
    m_training: tuple = (1000,)
    target_pfa: float | tuple | None = None
    n_trials: int = 40_000
    n_datasets: int = 20
    seed: int = 0
    calibration_trials: int = 200_000
    workers: int | None = None
    record_timing: bool = False

    def __post_init__(self):
        for name in _SWEEP_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, (tuple, list)) or len(v) == 0:
                raise ConfigError(f"{name} must be a nonempty list")
            object.__setattr__(self, name, tuple(v))
        if self.n_trials < 1_000:
            raise ConfigError("n_trials must be at least 1000")
        if self.n_datasets < 1:
            raise ConfigError("n_datasets must be at least 1")
        _check_workers(self.workers)
        if self.defender.kind in STAT_DEFENDERS and self.target_pfa is None:
            raise ConfigError(f"defender {self.defender.kind!r} requires target_pfa")
        if isinstance(self.target_pfa, (tuple, list)):
            if len(self.target_pfa) != len(self.n_subcarriers):
                raise ConfigError("per-N target_pfa must align with n_subcarriers")
            object.__setattr__(self, "target_pfa", tuple(float(t) for t in self.target_pfa))

    def sweep_points(self):
        """Cartesian product over the sweep lists, in declaration order."""
        lists = [getattr(self, name) for name in _SWEEP_FIELDS]
        for combo in itertools.product(*lists):
            yield dict(zip(_SWEEP_FIELDS, combo))

    def target_for(self, point: dict) -> float | None:
        if self.target_pfa is None or isinstance(self.target_pfa, float):
            return self.target_pfa
        idx = self.n_subcarriers.index(point["n_subcarriers"])
        return self.target_pfa[idx]


def _check_workers(workers) -> None:
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")


def _scenario_for(point: dict) -> ScenarioParams:
    return ScenarioParams.from_snr(
        n_subcarriers=point["n_subcarriers"],
        snr_I_db=point["snr_I_db"],
        snr_II_db=point["snr_II_db"],
        alpha_I=point["alpha_I"],
        alpha_II=point["alpha_II"],
        rho_AE=point["rho_AE"],
        rho_EB=point["rho_EB"],
        m_training=point["m_training"],
    )


def _forge(scn: ScenarioParams, attacker: AttackerSpec, h: np.ndarray, rng: Rng,
           n: int | None = None) -> np.ndarray:
    """Forged vectors, one per row of h or n of them for a single channel h.

    The first form draws a fresh universe per trial; the second serves the
    trained defenders, whose packets all cross one fixed channel. When the
    adversary averages m_training observation pairs, the mean is drawn
    directly from a scenario whose innovation and noise variances are
    scaled by 1/m. That samples the average exactly because everything is
    Gaussian and the two links share each draw's innovation; the single
    averaged forgery is then sent n times.
    """
    obs_scn = scn
    if attacker.averaged:
        m = scn.m_training
        obs_scn = replace(scn, power_delay=scn.power_delay / m,
                          sigma2_AE=scn.sigma2_AE / m, sigma2_EB=scn.sigma2_EB / m)
    size = None if n is None else 1 if attacker.averaged else n
    g = attacker.strategy.forge(*eve_observations(h, obs_scn, rng, size=size), scn)
    return np.repeat(g, n, axis=0) if n is not None and attacker.averaged else g


def _forged_packets(scn: ScenarioParams, attacker: AttackerSpec, h: np.ndarray, rng: Rng,
                    n: int, phase: str = "II") -> np.ndarray:
    """n forged packets over the fixed channel h, as the verifier receives them."""
    return forged_observation(_forge(scn, attacker, h, rng, n), scn, rng, phase=phase)


def _ideal_psi(scn: ScenarioParams, attacker: AttackerSpec, rng: Rng, n: int,
               s_b: float, s_e: float) -> tuple[np.ndarray, np.ndarray]:
    """Genuine- and forged-packet statistics of the two-reference test.

    Every trial is a fresh universe: the verifier holds an enrollment
    reference of the genuine channel and one of the adversary's forgery,
    and scores phase-II packets against both.
    """
    h = sample_channel(scn, rng, size=n)
    ref = bob_estimate_phase1(h, scn, scn.alpha_I, rng)
    eve_ref = forged_observation(_forge(scn, attacker, h, rng), scn, rng, phase="I")
    alice = alice_estimate_phase2(h, scn, rng)
    eve = forged_observation(_forge(scn, attacker, h, rng), scn, rng)
    return (ideal_llr(alice, ref, eve_ref, s_b, s_e),
            ideal_llr(eve, ref, eve_ref, s_b, s_e))


# --------------------------------------------------------------------------
# shard execution

def _combined_calibration(scn, target, calib_trials, attacker, rng):
    """Scenario-level (theta, epsilon) for the combined defender.

    Falls back to an analytic split of the target between the two
    conditions when the Monte Carlo budget cannot resolve it.
    """
    if target * calib_trials >= 100:
        thr = optimize_thresholds(
            scn, target, calib_trials, rng,
            attack=lambda ae, eb, p: attacker.strategy.forge(ae, eb, p),
        )
        return thr.theta, thr.epsilon
    theta = ncx2_inv(1.0 - target / 2.0, 2 * scn.n_subcarriers, nominal_mu(scn))
    ref, alice, _ = simulate_trials(scn, rng, 100_000)
    eps = float(np.std(modulus_statistic(ref, alice))) * normal_upper_quantile(target / 4.0)
    return theta, eps


def _run_shard(payload: dict) -> dict:
    """One (sweep point, dataset) cell; pure function of its payload.

    Statistical defenders have no per-dataset trained state, so their
    trials each draw a fresh channel, reference and packet (the closed
    forms describe exactly that average). Learned defenders train one
    model per dataset on a fixed channel and classify packets over it.
    """
    point = payload["point"]
    defender: DefenderSpec = payload["defender"]
    attacker: AttackerSpec = payload["attacker"]
    target = payload["target"]
    n_eval = payload["n_eval"]
    rng = Rng(payload["seed"]).derive(payload["point_idx"], payload["dataset_idx"])
    scn = _scenario_for(point)
    n = scn.n_subcarriers

    trained: dict = {}
    t0 = time.perf_counter()

    kind = defender.kind
    if kind in STAT_DEFENDERS:
        if kind == "llr":
            trained["theta"] = ncx2_inv(1.0 - target, 2 * n, nominal_mu(scn))
        elif kind == "combined":
            theta, eps = payload["combined_thresholds"]
            trained["theta"], trained["epsilon"] = theta, eps
        else:
            s_b = defender.ideal_sigma2 or (scn.sigma2_I + scn.sigma2_II)
            s_e = defender.ideal_sigma2_E or (scn.sigma2_I + scn.sigma2_II)
            psi_cal, _ = _ideal_psi(scn, attacker, rng.derive(5),
                                    payload["ideal_calibration"], s_b, s_e)
            theta_bar = calibrate_threshold(psi_cal, target)
            trained["theta"] = theta_bar
        train_seconds = time.perf_counter() - t0

        r_eval = rng.derive(9)
        if kind == "ideal":
            psi_a, psi_e = _ideal_psi(scn, attacker, r_eval, n_eval, s_b, s_e)
            acc_a = psi_a <= trained["theta"]
            acc_e = psi_e <= trained["theta"]
        else:
            ref, alice, eve = simulate_trials(
                scn, r_eval, n_eval, forge=lambda h, r: _forge(scn, attacker, h, r))
            s2 = per_dim_variance(scn)
            acc_a = accepts(alice, ref, s2, trained["theta"], trained.get("epsilon"))
            acc_e = accepts(eve, ref, s2, trained["theta"], trained.get("epsilon"))
        return _shard_result(payload, acc_a, acc_e, trained, train_seconds)

    # learned defenders: one model per dataset on a fixed channel
    h = sample_channel(scn, rng.derive(0))
    train_pos = bob_estimate_phase1(h, scn, scn.alpha_I, rng.derive(1), size=scn.m_training)
    if kind in ("ocnn", "ocsvm"):
        negatives = featurize(_forged_packets(scn, attacker, h, rng.derive(2), scn.m_training))
        metric = (DistanceMetric("llr", per_dim_variance(scn))
                  if defender.metric == "llr" else DistanceMetric("euclidean"))
        if kind == "ocnn":
            model = ocnn_train(featurize(train_pos), defender.variant, metric, negatives,
                               rng.derive(3))
            trained.update(j=model.j, k=model.k, theta_d=model.theta_d)
        else:
            model, nu, sig = ocsvm_train_cv(
                featurize(train_pos), negatives, rng.derive(3), kernel=defender.kernel)
            trained.update(nu=nu, sigma_svm=sig)
    else:
        m_half = scn.m_training // 2
        pos = featurize(train_pos[:m_half])
        neg = featurize(_forged_packets(scn, attacker, h, rng.derive(2), m_half, phase="I"))
        x_tr = np.vstack([pos, neg])
        y_tr = np.concatenate([np.ones(m_half, dtype=int), np.zeros(m_half, dtype=int)])
        if kind == "binary_knn":
            k_sel = binary_knn_tune(x_tr, y_tr, rng.derive(3))
            trained["knn_k"] = k_sel
        else:
            if kind == "kmeans_svm":
                order = rng.derive(3).permutation(x_tr.shape[0])
                x_mix, y_true = x_tr[order], y_tr[order]
                km = kmeans_label(x_mix, 2, 50, rng.derive(4))
                # evaluation-side cluster-to-class assignment by majority
                match0 = np.mean(y_true[km.labels == 0]) if (km.labels == 0).any() else 0.0
                match1 = np.mean(y_true[km.labels == 1]) if (km.labels == 1).any() else 0.0
                alice_cluster = 0 if match0 >= match1 else 1
                x_tr = x_mix
                y_tr = (km.labels == alice_cluster).astype(int)
                if y_tr.all() or not y_tr.any():
                    # clustering collapsed; fall back to a coin-split
                    y_tr = (np.arange(x_tr.shape[0]) % 2).astype(int)
            sig = median_heuristic(x_tr)
            svm = binary_svm_train(x_tr, y_tr, c=1.0, sigma_svm=sig, kernel=defender.kernel)
            trained["svm_c"], trained["sigma_svm"] = 1.0, sig

    train_seconds = time.perf_counter() - t0

    r_eval = rng.derive(9)
    alice = alice_estimate_phase2(h, scn, r_eval, size=n_eval)
    eve = _forged_packets(scn, attacker, h, r_eval, n_eval)

    if kind == "ocnn":
        acc_a = ocnn_classify(model, featurize(alice))
        acc_e = ocnn_classify(model, featurize(eve))
    elif kind == "ocsvm":
        acc_a = ocsvm_classify(model, featurize(alice))
        acc_e = ocsvm_classify(model, featurize(eve))
    elif kind == "binary_knn":
        acc_a = np.asarray(binary_knn(x_tr, y_tr, k_sel, featurize(alice))) == 1
        acc_e = np.asarray(binary_knn(x_tr, y_tr, k_sel, featurize(eve))) == 1
    else:
        acc_a = np.asarray(binary_svm_classify(svm, featurize(alice))) == 1
        acc_e = np.asarray(binary_svm_classify(svm, featurize(eve))) == 1

    return _shard_result(payload, acc_a, acc_e, trained, train_seconds)


def _shard_result(payload: dict, acc_a, acc_e, trained: dict, train_seconds: float) -> dict:
    """Confusion counts of one shard from its genuine and forged accept masks."""
    n_eval = payload["n_eval"]
    cm = ConfusionMatrix(
        tp=int(np.sum(acc_a)), fn=int(n_eval - np.sum(acc_a)),
        fp=int(np.sum(acc_e)), tn=int(n_eval - np.sum(acc_e)),
    )
    return {
        "point_idx": payload["point_idx"],
        "dataset_idx": payload["dataset_idx"],
        "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
        "trained": trained,
        "train_seconds": train_seconds,
    }


# --------------------------------------------------------------------------
# result table

_BASE_COLUMNS = [
    "n_subcarriers", "alpha_I", "alpha_II", "rho_AE", "rho_EB",
    "snr_I_db", "snr_II_db", "m_training", "defender", "attacker",
    "target_pfa", "n_datasets", "n_alice", "n_eve",
    "tp", "fn", "fp", "tn",
    "p_fa", "p_md", "accuracy", "g_mean", "se_pfa", "se_pmd",
    "p_fa_note", "p_md_note",
    "theta", "epsilon", "j", "k", "theta_d", "nu", "sigma_svm",
    "knn_k", "svm_c", "x", "y",
]


@dataclass
class ResultTable:
    columns: list
    rows: list  # list of dicts keyed by column
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def find(self, **kv) -> list:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in kv.items()):
                out.append(row)
        return out


def _dataset_se(per_dataset: list, pooled_p: float, n_total: int) -> float:
    """Standard error of the pooled rate; dataset-level spread dominates."""
    if len(per_dataset) >= 2:
        arr = np.asarray(per_dataset, dtype=float)
        se = float(arr.std(ddof=1) / math.sqrt(arr.size))
        return max(se, binomial_se(pooled_p, n_total))
    return binomial_se(pooled_p, n_total)


def _median_or_none(values: list):
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    med = float(np.median(np.asarray(vals, dtype=float)))
    return med


def _openblas_entry_points(stem: str) -> list:
    """The ``*openblas_<stem>*`` function of every OpenBLAS mapped in this process.

    Found by file name in /proc/self/maps; numpy's wheel ships a prefixed,
    64-bit-integer build (``scipy_openblas_<stem>64_``), a plain build
    exports ``openblas_<stem>``. Empty where the map is unreadable or no
    OpenBLAS is loaded (non-Linux hosts, MKL, Accelerate).
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return []
    funcs = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            func = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if func is not None:
                funcs.append(func)
    return funcs


def _single_thread_blas() -> None:
    """Pool initializer: run every OpenBLAS of this worker on one thread.

    Each worker otherwise starts one BLAS thread per core, and idle OpenBLAS
    threads busy-wait, so the workers' threads oversubscribe the cores.
    The products here are small (2N features), so extra BLAS threads buy
    nothing, and pooled tables stay byte-identical to serial ones
    (acceptance criterion 9 checks this).
    """
    import ctypes

    for func in _openblas_entry_points("set_num_threads"):
        func.argtypes = [ctypes.c_int]
        func.restype = None
        func(1)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_single_thread_blas)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Execute the full sweep and aggregate per-point confusion counts."""
    points = list(config.sweep_points())
    n_eval = max(1, math.ceil(config.n_trials / config.n_datasets))

    payloads = []
    for p_idx, point in enumerate(points):
        target = config.target_for(point)
        combined_thresholds = None
        if config.defender.kind == "combined":
            scn = _scenario_for(point)
            combined_thresholds = _combined_calibration(
                scn, target, config.calibration_trials, config.attacker,
                Rng(config.seed).derive(p_idx, 1_000_000),
            )
        ideal_cal = min(max(int(100.0 / target), 2_000), 400_000) if (
            config.defender.kind == "ideal" and target) else 0
        for d_idx in range(config.n_datasets):
            payloads.append({
                "point_idx": p_idx, "dataset_idx": d_idx, "point": point,
                "defender": config.defender, "attacker": config.attacker,
                "target": target, "n_eval": n_eval, "seed": config.seed,
                "combined_thresholds": combined_thresholds,
                "ideal_calibration": ideal_cal,
            })

    if config.workers and config.workers > 1:
        with _worker_pool(config.workers) as pool:
            shard_results = list(pool.map(_run_shard, payloads, chunksize=1))
    else:
        shard_results = [_run_shard(p) for p in payloads]
    shard_results.sort(key=lambda r: (r["point_idx"], r["dataset_idx"]))

    columns = list(_BASE_COLUMNS)
    if config.record_timing:
        columns.append("train_seconds")
    rows = []
    for p_idx, point in enumerate(points):
        shards = [r for r in shard_results if r["point_idx"] == p_idx]
        cm = ConfusionMatrix()
        for r in shards:
            cm = cm + ConfusionMatrix(tp=r["tp"], fn=r["fn"], fp=r["fp"], tn=r["tn"])
        n_alice = cm.tp + cm.fn
        n_eve = cm.fp + cm.tn
        pfa = cm.fn / n_alice
        pmd = cm.fp / n_eve
        per_fa = [r["fn"] / (r["fn"] + r["tp"]) for r in shards]
        per_md = [r["fp"] / (r["fp"] + r["tn"]) for r in shards]
        row = dict(point)
        row.update({
            "defender": config.defender.label(),
            "attacker": config.attacker.label(),
            "target_pfa": config.target_for(point),
            "n_datasets": config.n_datasets,
            "n_alice": n_alice, "n_eve": n_eve,
            "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
            "p_fa": pfa, "p_md": pmd,
            "accuracy": (cm.tp + cm.tn) / cm.total,
            "g_mean": math.sqrt((1.0 - pfa) * (1.0 - pmd)),
            "se_pfa": _dataset_se(per_fa, pfa, n_alice),
            "se_pmd": _dataset_se(per_md, pmd, n_eve),
            "p_fa_note": f"<{1.0 / n_alice:.3e}" if cm.fn == 0 else "",
            "p_md_note": f"<{1.0 / n_eve:.3e}" if cm.fp == 0 else "",
        })
        for name in ("theta", "epsilon", "theta_d", "nu", "sigma_svm", "svm_c"):
            row[name] = _median_or_none([r["trained"].get(name) for r in shards])
        for name in ("j", "k", "knn_k"):
            med = _median_or_none([r["trained"].get(name) for r in shards])
            row[name] = int(med) if med is not None else None
        row["x"] = row["y"] = None
        if config.attacker.strategy.kind == "exponent":
            row["x"], row["y"] = config.attacker.strategy.x, config.attacker.strategy.y
        if config.record_timing:
            row["train_seconds"] = float(np.mean([r["train_seconds"] for r in shards]))
        rows.append(row)
    meta = {
        "seed": config.seed,
        "n_trials": config.n_trials,
        "defender": config.defender.label(),
        "attacker": config.attacker.label(),
    }
    return ResultTable(columns=columns, rows=rows, meta=meta)


# --------------------------------------------------------------------------
# canned reproduction targets

PUBLISHED_OCC_FA = (6.76e-4, 4.21e-5, 1e-6)  # matched-FA anchors for N = 1, 2, 3


def _desk(value: float, scale: float, floor: int = 1_000) -> int:
    return max(int(round(value * scale)), floor)


def _each(specs, **overrides) -> list:
    """(defender, overrides) pairs that run every spec over one sweep."""
    return [(spec, overrides) for spec in specs]


_OCNN_VARIANTS = tuple(DefenderSpec("ocnn", variant=v) for v in ("11NN", "1KNN", "J1NN", "JKNN"))
_STAT_TESTS = (DefenderSpec("llr"), DefenderSpec("combined"))


def _stat_ml_table(rho_ae: float) -> tuple:
    """table4/table5: matched-FA statistical tests beside the one-class learners."""
    sweep = dict(n_subcarriers=(1, 2, 3), rho_AE=(rho_ae,))
    return (40_000, 20, _each(_STAT_TESTS, target_pfa=PUBLISHED_OCC_FA, **sweep)
            + _each((DefenderSpec("ocnn"), DefenderSpec("ocsvm")), **sweep))


# Sweep targets: name -> (base trials, base datasets, [(defender, overrides)]).
# Each pair is one run_experiment call with the default (simplified)
# attacker; overrides name only the ExperimentConfig fields that differ
# from their defaults. Trials and datasets shrink with the scale.
_TARGETS = {
    "table2": (4_000, 5, [
        (spec, dict(n_subcarriers=(3,), rho_AE=(rho,), m_training=(m,)))
        for rho in (0.1, 0.8) for m in (100, 1000)
        for spec in (*_OCNN_VARIANTS, DefenderSpec("binary_knn"))
    ]),
    "table3": (40_000, 20, _each(
        [DefenderSpec("ocsvm", kernel=k) for k in ("gaussian", "poly", "linear")],
        n_subcarriers=(1, 2, 3))),
    "table4": _stat_ml_table(0.1),
    "table5": _stat_ml_table(0.8),
    "fig2": (4_000, 5, _each(
        _OCNN_VARIANTS, n_subcarriers=(1, 3, 6), alpha_I=(0.8,), alpha_II=(0.9,),
        m_training=(100,), record_timing=True)),
    "fig3": (20_000, 10, _each(_OCNN_VARIANTS, n_subcarriers=(3,), rho_AE=(0.1, 0.4, 0.8))),
    "fig4": (20_000, 10, _each(
        (DefenderSpec("binary_svm"), DefenderSpec("kmeans_svm")),
        n_subcarriers=(3,), rho_AE=(0.1, 0.4, 0.9), m_training=(100,))),
    "fig5": (40_000, 20, _each(
        (*_STAT_TESTS, DefenderSpec("ideal")),
        n_subcarriers=(1, 3, 6), alpha_II=(0.8,), target_pfa=1e-2)),
    "fig6": (20_000, 10, _each(
        (DefenderSpec("ocnn"),), n_subcarriers=(1, 3), alpha_II=(0.8, 0.9, 1.0))),
    "fig7": (40_000, 20, _each(
        _STAT_TESTS, n_subcarriers=(1, 3), alpha_II=(0.8, 0.9, 1.0), target_pfa=1e-2)),
    "fig8": (20_000, 10, _each(
        [DefenderSpec("ocnn", variant="11NN", metric=m) for m in ("euclidean", "llr")],
        n_subcarriers=(1, 3, 6), alpha_II=(0.9,))),
    "fig9": (20_000, 10, _each(
        (DefenderSpec("binary_svm"), DefenderSpec("ocsvm")),
        n_subcarriers=(3,), rho_AE=(0.1, 0.8))),
    "fig10": (20_000, 10, [
        (spec, dict(n_subcarriers=(3,), snr_II_db=(10.0, 15.0, 20.0, 25.0), target_pfa=target))
        for spec, target in ((DefenderSpec("llr"), 6.76e-4), (DefenderSpec("ocsvm"), None))
    ]),
}


def _target_configs(name: str, scale: float, seed: int, workers) -> list:
    """The ExperimentConfigs of one sweep target, in table row order."""
    trials, datasets, plan = _TARGETS[name]
    return [
        ExperimentConfig(
            defender=spec, n_trials=_desk(trials, scale),
            n_datasets=max(int(round(datasets * scale)), 2),
            seed=seed, workers=workers, **overrides,
        )
        for spec, overrides in plan
    ]


def _reproduce_table1(scale: float, seed: int) -> ResultTable:
    rows = []
    n_search = _desk(20_000, scale, floor=2_000)
    calib = _desk(1_000_000, scale, floor=1_000_000)
    for n in (1, 3):
        for rho in (0.1, 0.7, 0.9):
            scn = ScenarioParams.from_snr(
                n_subcarriers=n, snr_I_db=15.0, snr_II_db=20.0,
                rho_AE=rho, rho_EB=rho, alpha_I=1.0, alpha_II=1.0,
            )
            rng = Rng(seed).derive(n, int(rho * 10))
            thr = optimize_thresholds(scn, 1e-4, calib, rng.derive(0))
            x, y, pmd = optimize_attack_exponents(
                (thr.theta, thr.epsilon), scn, 0.1, n_search, rng.derive(1))
            rows.append({
                "n_subcarriers": n, "rho": rho, "target_pfa": 1e-4,
                "theta": thr.theta, "epsilon": thr.epsilon,
                "x": x, "y": y, "p_md": pmd,
            })
    return ResultTable(
        columns=["n_subcarriers", "rho", "target_pfa", "theta", "epsilon", "x", "y", "p_md"],
        rows=rows,
    )


def _reproduce_fig1(scale: float, seed: int) -> ResultTable:
    """Matched versus mismatched attacker against the combined test."""
    rows = []
    n_mc = _desk(40_000, scale, floor=4_000)
    calib = _desk(400_000, scale, floor=100_000)
    for alpha2 in (1.0, 0.8):
        for n in (1, 3, 6):
            scn = ScenarioParams.from_snr(
                n_subcarriers=n, snr_I_db=15.0, snr_II_db=20.0,
                rho_AE=0.5, rho_EB=0.5, alpha_I=1.0, alpha_II=alpha2,
            )
            rng = Rng(seed).derive(n, int(alpha2 * 10))
            thr = optimize_thresholds(scn, 1e-3, calib, rng.derive(0))
            x, y, pmd_matched = optimize_attack_exponents(
                (thr.theta, thr.epsilon), scn, 0.1, n_mc, rng.derive(1))
            for label, strat in (
                ("matched", AttackStrategy("exponent", x=x, y=y)),
                ("simplified", AttackStrategy("simplified")),
                ("modulus", AttackStrategy("modulus")),
            ):
                pmd = mismatched_eval(strat, "combined", scn, n_mc, rng.derive(2),
                                      thr.theta, thr.epsilon)
                rows.append({
                    "n_subcarriers": n, "alpha_II": alpha2, "attacker": label,
                    "x": x if label == "matched" else None,
                    "y": y if label == "matched" else None,
                    "p_md": pmd,
                })
    return ResultTable(
        columns=["n_subcarriers", "alpha_II", "attacker", "x", "y", "p_md"],
        rows=rows,
    )


# Targets that calibrate and search rather than sweep; they run in the
# calling process whatever the worker count.
_SEARCH_TARGETS = {"table1": _reproduce_table1, "fig1": _reproduce_fig1}

REPRODUCE_TARGETS = tuple(sorted([*_TARGETS, *_SEARCH_TARGETS]))


def reproduce(target: str, scale: float = 1.0, seed: int = 42,
              workers: int | None = None) -> ResultTable:
    """Run one canned experiment. scale in (0, 1] multiplies trial counts."""
    if target not in REPRODUCE_TARGETS:
        raise ConfigError(f"unknown reproduce target {target!r}")
    if not 0.0 < scale <= 1.0:
        raise ConfigError("scale must lie in (0, 1]")
    _check_workers(workers)
    if target in _SEARCH_TARGETS:
        table = _SEARCH_TARGETS[target](scale, seed)
    else:
        tables = [run_experiment(c) for c in _target_configs(target, scale, seed, workers)]
        table = ResultTable(columns=tables[0].columns, rows=[r for t in tables for r in t.rows])
    table.meta = {"target": target, "seed": seed, "scale": scale}
    return table


# --------------------------------------------------------------------------
# serialization

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def emit(table: ResultTable, fmt: str, path) -> None:
    """Write the table as CSV or JSON with a stable column order."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(row.get(c)) for c in table.columns])
        data = buf.getvalue()
        with open(path, "w", newline="") as fh:
            fh.write(data)
    elif fmt == "json":
        doc = {
            "meta": {k: table.meta[k] for k in sorted(table.meta)},
            "columns": table.columns,
            "rows": [
                {c: row.get(c) for c in table.columns if row.get(c) is not None}
                for row in table.rows
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=False)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}")


def load(path) -> ResultTable:
    """Read back a table written by emit (format inferred from content)."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        rows = [{c: row.get(c) for c in doc["columns"] if row.get(c) is not None}
                for row in doc["rows"]]
        return ResultTable(columns=doc["columns"], rows=rows, meta=doc.get("meta", {}))
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for rec in reader:
        row = {c: _parse_cell(v) for c, v in zip(header, rec)}
        rows.append({k: v for k, v in row.items() if v is not None})
    return ResultTable(columns=header, rows=rows, meta={})
