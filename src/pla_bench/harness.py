"""Declarative Monte Carlo experiment engine.

An ExperimentConfig sweeps scenario parameters, trains or calibrates one
defender per sweep point and dataset, classifies phase-II packet streams
from the legitimate transmitter and the attacker, and aggregates
confusion counts into a ResultTable. Everything is deterministic given
the seed: each (sweep point, dataset) shard derives its own generator
stream, and reduction happens in plan order, so results are
byte-identical no matter how many workers run.

The ``reproduce`` entry point runs named targets (table1..table5,
fig1..fig10) at desk scale; each sweep target is one entry of ``_TARGETS``.
"""
from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
import csv
import io
import itertools
import json
import math
import time

import numpy as np

from .attacks import (
    AttackerSpec,
    AttackStrategy,
    _common_draw_pmd,
    _search_grid,
    optimize_attack_exponents,
)
from .channel import (
    ScenarioParams,
    alice_estimate_phase2,
    bob_estimate_phase1,
    complex_gaussian,  # noqa: F401  (an import site the perfbench tracer patches and checks)
    forged_observation,
    genuine_arrival_law,
    pair_law,
    pairs_given_exponentials,
    sample_channel,
)
from .errors import ConfigError, NumericError
from .mlauth import (
    KERNELS,
    OCNN_VARIANTS,
    DistanceMetric,
    binary_knn,
    binary_knn_tune,
    binary_svm_classify,
    binary_svm_train,
    featurize,
    kmeans_oracle_labels,
    median_heuristic,
    ocnn_classify,
    ocnn_train,
    ocsvm_classify,
    ocsvm_train_cv,
)
from .rng import Rng
from .statdec import (
    calibrate_threshold,
    ideal_weights,
    llr_threshold,
    llr_weights,
    modulus_statistic,
    normal_upper_quantile,
    null_calibration,
    optimize_thresholds,
    per_dim_variance,
    select_thresholds,
    weighted_exponential_sums,
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
    kernel: str = "gaussian"       # the one-class SVM's, one of mlauth.KERNELS

    def __post_init__(self):
        if self.kind not in DEFENDER_KINDS:
            raise ConfigError(f"unknown defender kind {self.kind!r}")
        if self.metric not in ("euclidean", "llr"):
            raise ConfigError(f"unknown defender metric {self.metric!r}")
        if self.variant not in OCNN_VARIANTS:
            raise ConfigError(f"defender variant must be one of {OCNN_VARIANTS}")
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown defender kernel {self.kernel!r}")
        # a field the kind ignores would run unchanged under the default label
        for name, kind in (("variant", "ocnn"), ("metric", "ocnn"), ("kernel", "ocsvm")):
            if self.kind != kind and getattr(self, name) != getattr(DefenderSpec, name):
                raise ConfigError(f"defender {self.kind!r} takes no {name}")

    def label(self) -> str:
        if self.kind == "ocnn":
            suffix = "-llr" if self.metric == "llr" else ""
            return f"ocnn-{self.variant}{suffix}"
        if self.kernel != "gaussian":
            return f"{self.kind}-{self.kernel}"
        return self.kind


# each swept field and the type of its elements
_SWEEP_FIELDS = {
    "n_subcarriers": int,
    "alpha_I": float,
    "alpha_II": float,
    "rho_AE": float,
    "rho_EB": float,
    "snr_I_db": float,
    "snr_II_db": float,
    "m_training": int,
}


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
        for point in self.sweep_points():
            ScenarioParams.from_snr(**point)  # rejects a bad point before any shard runs
        # no numpy type may reach the CSV or JSON; a per-carrier vector becomes a tuple
        for name, kind in _SWEEP_FIELDS.items():
            object.__setattr__(self, name, tuple(
                kind(v) if np.ndim(v) == 0 else tuple(map(kind, v)) for v in getattr(self, name)))
        if self.n_trials < 1_000:
            raise ConfigError("n_trials must be at least 1000")
        if self.n_datasets < 1:
            raise ConfigError("n_datasets must be at least 1")
        if self.calibration_trials < 1:
            raise ConfigError("calibration_trials must be at least 1")
        _check_workers(self.workers)
        if isinstance(self.target_pfa, (tuple, list)):
            if len(self.target_pfa) != len(self.n_subcarriers):
                raise ConfigError("per-N target_pfa must align with n_subcarriers")
            if len(set(self.n_subcarriers)) != len(self.n_subcarriers):
                raise ConfigError("per-N target_pfa needs distinct n_subcarriers")
            object.__setattr__(self, "target_pfa", tuple(float(t) for t in self.target_pfa))
        elif self.target_pfa is not None:
            object.__setattr__(self, "target_pfa", float(self.target_pfa))
        targets = self.target_pfa if isinstance(self.target_pfa, tuple) else (self.target_pfa,)
        if any(t is not None and not 0.0 < t < 1.0 for t in targets):
            raise ConfigError("target_pfa must lie in (0, 1)")
        # a statistical test is calibrated to its target; a learned defender's tuning sets its own
        if (self.target_pfa is None) == (self.defender.kind in STAT_DEFENDERS):
            verb = "requires" if self.target_pfa is None else "takes no"
            raise ConfigError(f"defender {self.defender.kind!r} {verb} target_pfa")
        # as DefenderSpec does: only the combined and ideal calibrations read it
        if (self.defender.kind not in ("combined", "ideal")
                and self.calibration_trials != ExperimentConfig.calibration_trials):
            raise ConfigError(f"defender {self.defender.kind!r} takes no calibration_trials")
        if self.defender.kind == "ideal" and min(targets) * self.calibration_trials < 1:
            raise ConfigError(f"target_pfa {min(targets):g} is below "
                              f"1/{self.calibration_trials} calibration_trials")
        Rng(self.seed)  # rejects a seed outside [0, 2**64) before any shard runs

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


def _forged_packets(scn: ScenarioParams, attacker: AttackerSpec, h: np.ndarray, rng: Rng,
                    n: int, phase: str = "II") -> np.ndarray:
    """n forged packets over the fixed channel h, as the verifier receives them.

    The averaging adversary forges once per dataset and sends that one
    forgery n times; otherwise every packet is forged afresh.
    """
    g = attacker.forger(scn)(np.broadcast_to(h, (1 if attacker.averaged else n, h.size)), rng)
    return forged_observation(np.broadcast_to(g, (n, h.size)), scn, rng, phase=phase)


# --------------------------------------------------------------------------
# shard execution

def _point_thresholds(config: ExperimentConfig, p_idx: int, point: dict) -> tuple:
    """The (theta, epsilon) every dataset of one sweep point of a statistical
    test shares: llr's analytic theta; the ideal bound's empirical quantile
    of ``calibration_trials`` draws of its H0 statistic; combined's Monte
    Carlo calibration, or an analytic split of the target between its two
    conditions when the budget cannot resolve it. Only combined has an
    epsilon; the draws are on ``Rng(seed).derive(p_idx, 1_000_000)``.
    """
    scn, target = ScenarioParams.from_snr(**point), config.target_for(point)
    if config.defender.kind == "llr":
        return llr_threshold(scn, target), None
    rng = Rng(config.seed).derive(p_idx, 1_000_000)
    forger = config.attacker.forger(scn)
    if config.defender.kind == "ideal":
        psi = weighted_exponential_sums(
            ideal_weights(scn, forger.arrival_law("I"), genuine_arrival_law(scn)),
            rng, config.calibration_trials)
        return calibrate_threshold(psi, target), None
    if target * config.calibration_trials >= 100:
        thr = optimize_thresholds(scn, target, config.calibration_trials, rng,
                                  forger.arrival_law())
        return thr.theta, thr.epsilon
    theta, law = llr_threshold(scn, target / 2.0), genuine_arrival_law(scn)
    pair = pair_law(scn, law)
    gamma, = weighted_exponential_sums(llr_weights(scn, law), rng, 100_000, lambda psi, e, fill: (
        modulus_statistic(*pairs_given_exponentials(pair, e.T, fill)),))
    return theta, float(np.std(gamma)) * normal_upper_quantile(target / 4.0)


def _run_shard(config: ExperimentConfig, point_idx: int, dataset_idx: int, point: dict,
               thresholds: tuple | None = None) -> dict:
    """One (sweep point, dataset) cell; a pure function of its arguments.

    ``thresholds`` is the point's ``_point_thresholds``, None for a learned
    defender. A statistical shard judges fresh-channel trials (the closed
    forms describe exactly that average), genuine ones on ``rng.derive(9, 0)``
    and forged ones on ``rng.derive(9, 1)``, each drawing Psi by
    ``weighted_exponential_sums`` (combined llr's Psi, trial for trial) and
    keeping only its accept mask; combined completes the pairs whose Psi
    passes theta, as ``optimize_thresholds`` does, to test |Gamma|. A learned
    defender trains one model per dataset on a fixed channel and classifies
    packets over it.
    """
    defender, attacker = config.defender, config.attacker
    n_eval = math.ceil(config.n_trials / config.n_datasets)
    rng = Rng(config.seed).derive(point_idx, dataset_idx)
    scn = ScenarioParams.from_snr(**point)
    kind = defender.kind
    r_eval = rng.derive(9)

    if kind in STAT_DEFENDERS:
        theta, eps = thresholds
        forger = attacker.forger(scn)

        def accepted(stream, law):
            pair = pair_law(scn, law)
            def score(psi, e, fill):
                ok = psi <= theta
                if eps is not None:
                    ref, arrival = pairs_given_exponentials(pair, e[:, ok].T, fill)
                    ok[ok] = np.abs(modulus_statistic(ref, arrival)) <= eps
                return ok,

            weights = (ideal_weights(scn, forger.arrival_law("I"), law) if kind == "ideal"
                       else llr_weights(scn, law))
            return weighted_exponential_sums(weights, stream, n_eval, score)[0]

        return _shard_result(accepted(r_eval.derive(0), genuine_arrival_law(scn)),
                             accepted(r_eval.derive(1), forger.arrival_law()),
                             {"theta": theta, "epsilon": eps}, 0.0)

    # learned defenders: one model per dataset on a fixed channel
    t0 = time.perf_counter()
    h = sample_channel(scn, rng.derive(0))
    pos = featurize(bob_estimate_phase1(
        np.broadcast_to(h, (scn.m_training, h.size)), scn, rng.derive(1)))
    if kind in ("ocnn", "ocsvm"):
        # fit on m estimates; m phase-II forgeries only score the cross-validation
        neg = featurize(_forged_packets(scn, attacker, h, rng.derive(2), scn.m_training))
    else:
        # m/2 estimates labelled 1 and m/2 phase-I forgeries labelled 0
        m_half = scn.m_training // 2
        neg = featurize(_forged_packets(scn, attacker, h, rng.derive(2), m_half, phase="I"))
        x_tr, y_tr = np.vstack([pos[:m_half], neg]), np.repeat([1, 0], m_half)
        if kind == "kmeans_svm":  # the same set shuffled, labelled by k-means instead
            order = rng.derive(3).permutation(len(y_tr))
            x_tr, y_tr = x_tr[order], kmeans_oracle_labels(x_tr[order], y_tr[order], rng.derive(4))
    if kind == "ocnn":
        metric = DistanceMetric(defender.metric, per_dim_variance(scn))
        model = ocnn_train(pos, defender.variant, metric, neg, rng.derive(3))
        trained = {"j": model.j, "k": model.k, "theta_d": model.theta_d}
        accept = lambda f: ocnn_classify(model, f)
    elif kind == "ocsvm":
        model, nu, sig = ocsvm_train_cv(pos, neg, rng.derive(3), kernel=defender.kernel)
        trained = {"nu": nu, "sigma_svm": sig}
        accept = lambda f: ocsvm_classify(model, f)
    elif kind == "binary_knn":
        k_sel = binary_knn_tune(x_tr, y_tr, rng.derive(3))
        trained = {"knn_k": k_sel}
        accept = lambda f: binary_knn(x_tr, y_tr, k_sel, f)
    else:
        sig = median_heuristic(x_tr)
        model = binary_svm_train(x_tr, y_tr, c=1.0, sigma_svm=sig)
        trained = {"svm_c": 1.0, "sigma_svm": sig}
        accept = lambda f: binary_svm_classify(model, f)

    train_seconds = time.perf_counter() - t0

    alice = alice_estimate_phase2(np.broadcast_to(h, (n_eval, h.size)), scn, r_eval)
    eve = _forged_packets(scn, attacker, h, r_eval, n_eval)
    return _shard_result(accept(featurize(alice)), accept(featurize(eve)), trained, train_seconds)


def _addressed(task, config: ExperimentConfig, address: tuple, point: dict, *deps):
    """task(config, *address, point, *deps), re-raising a ConfigError or
    NumericError as the same type with the address, (point p) for thresholds
    or (point p, dataset d) for a shard, and the sweep point in front."""
    try:
        return task(config, *address, point, *deps)
    except (ConfigError, NumericError) as exc:
        label = ", ".join(f"{name} {i}" for name, i in zip(("point", "dataset"), address))
        where = ", ".join(f"{k}={v}" for k, v in point.items())
        raise type(exc)(f"({label}) {where}: {exc}") from exc


def _shard_result(acc_a, acc_e, trained: dict, train_seconds: float) -> dict:
    """Confusion counts of one shard from its genuine and forged accept masks.

    The transmitter being authenticated (Alice) is the positive class: a
    false alarm (fn) is a rejected genuine packet, a missed detection (fp)
    an accepted forged one.
    """
    tp, fp = int(np.sum(acc_a)), int(np.sum(acc_e))
    return {
        "tp": tp, "fn": len(acc_a) - tp, "fp": fp, "tn": len(acc_e) - fp,
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


def _binomial_se(p: float, n: int) -> float:
    """Standard error of an empirical proportion from n Bernoulli trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _dataset_se(per_dataset: list, pooled_p: float, n_total: int) -> float:
    """Standard error of the pooled rate; dataset-level spread dominates."""
    if len(per_dataset) >= 2:
        arr = np.asarray(per_dataset, dtype=float)
        se = float(arr.std(ddof=1) / math.sqrt(arr.size))
        return max(se, _binomial_se(pooled_p, n_total))
    return _binomial_se(pooled_p, n_total)


def _median_or_none(values: list):
    vals = [v for v in values if v is not None]
    return float(np.median(np.asarray(vals, dtype=float))) if vals else None


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


def _run_pooled(tasks: dict, workers: int) -> dict:
    """The result of every task of run_plan, from one pool of ``workers`` processes.

    Submitted in a fixed order: threshold calibrations, then the shards that
    need none (nearly all the work), then the rest, each in plan order. With
    one task per worker in flight, no task after a failure in plan order
    starts, and the first failure in plan order is raised, as in serial runs.
    """
    queue = sorted(tasks, key=lambda key: (2 if tasks[key][2] else key[1], key))
    done, busy = {}, {}
    with _worker_pool(workers) as pool:
        while queue or busy:
            while queue and len(busy) < workers:
                fn, args, deps = tasks[queue[0]]
                if any(key < queue[0] and f.exception() for key, f in done.items()):
                    queue.pop(0)
                elif all(d in done for d in deps):
                    busy[pool.submit(fn, *args, *(done[d].result() for d in deps))] = queue.pop(0)
                else:
                    break  # its point's thresholds are still being computed
            for future in wait(busy, return_when=FIRST_COMPLETED).done:
                done[busy.pop(future)] = future
    return {key: done[key].result() for key in sorted(done)}


def run_plan(configs: list, workers: int | None) -> list:
    """One ResultTable per config, from one process pool when ``workers`` > 1
    and in the calling process otherwise; the same tables either way."""
    _check_workers(workers)
    # plan-order key -> (function, arguments, keys of the results it takes after them);
    # a point's shared thresholds are (config, 0, point, 0), a shard (config, 1, point, dataset)
    tasks = {}
    for c_idx, config in enumerate(configs):
        for p_idx, point in enumerate(config.sweep_points()):
            deps = ()
            if config.defender.kind in STAT_DEFENDERS:  # one (theta, epsilon) per point
                deps = (c_idx, 0, p_idx, 0),
                tasks[deps[0]] = (_addressed, (_point_thresholds, config, (p_idx,), point), ())
            for d_idx in range(config.n_datasets):
                tasks[c_idx, 1, p_idx, d_idx] = (
                    _addressed, (_run_shard, config, (p_idx, d_idx), point), deps)
    results = _run_pooled(tasks, workers) if workers and workers > 1 else {}
    for key in sorted(tasks.keys() - results.keys()):  # a serial run's tasks, in plan order
        fn, args, deps = tasks[key]
        results[key] = fn(*args, *(results[d] for d in deps))
    return [_result_table(config, [results[key] for key in sorted(tasks) if key[:2] == (c_idx, 1)])
            for c_idx, config in enumerate(configs)]


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Execute the full sweep and aggregate per-point confusion counts."""
    return run_plan([config], config.workers)[0]


def _result_table(config: ExperimentConfig, shard_results: list) -> ResultTable:
    """The table of one config from its shard results in plan order."""
    columns = list(_BASE_COLUMNS)
    if config.record_timing:
        columns.append("train_seconds")
    rows = []
    for p_idx, point in enumerate(config.sweep_points()):
        shards = shard_results[p_idx * config.n_datasets:(p_idx + 1) * config.n_datasets]
        tp, fn, fp, tn = (sum(r[c] for r in shards) for c in ("tp", "fn", "fp", "tn"))
        n_alice = tp + fn
        n_eve = fp + tn
        pfa = fn / n_alice
        pmd = fp / n_eve
        per_fa = [r["fn"] / (r["fn"] + r["tp"]) for r in shards]
        per_md = [r["fp"] / (r["fp"] + r["tn"]) for r in shards]
        row = dict(point)
        row.update({
            "defender": config.defender.label(),
            "attacker": config.attacker.label(),
            "target_pfa": config.target_for(point),
            "n_datasets": config.n_datasets,
            "n_alice": n_alice, "n_eve": n_eve,
            "tp": tp, "fn": fn, "fp": fp, "tn": tn,
            "p_fa": pfa, "p_md": pmd,
            "accuracy": (tp + tn) / (n_alice + n_eve),
            "g_mean": math.sqrt((1.0 - pfa) * (1.0 - pmd)),
            "se_pfa": _dataset_se(per_fa, pfa, n_alice),
            "se_pmd": _dataset_se(per_md, pmd, n_eve),
            "p_fa_note": f"<{1.0 / n_alice:.3e}" if fn == 0 else "",
            "p_md_note": f"<{1.0 / n_eve:.3e}" if fp == 0 else "",
        })
        for name in ("theta", "epsilon", "theta_d", "nu", "sigma_svm", "svm_c"):
            row[name] = _median_or_none([r["trained"].get(name) for r in shards])
        for name in ("j", "k", "knn_k"):  # the lower median, a value some dataset chose
            picks = sorted(int(r["trained"][name]) for r in shards if name in r["trained"])
            row[name] = picks[(len(picks) - 1) // 2] if picks else None
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


_OCNN_VARIANTS = tuple(DefenderSpec("ocnn", variant=v) for v in OCNN_VARIANTS)
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
        [DefenderSpec("ocsvm", kernel=k) for k in KERNELS],
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


def _search_cell(scn: ScenarioParams, target_pfa: float, n_calib: int, n_mc: int, rng: Rng,
                 grid_step: float = 0.1, null=None) -> tuple:
    """(thresholds, x, y, P_MD): the combined test calibrated against the
    simplified attacker (H0 from ``null`` when given, else on
    ``rng.derive(0, 0)``; H1 on ``rng.derive(0, 1)``), then the exponent grid
    searched against it on ``rng.derive(1)``. A bad grid step or search size
    is rejected before any draw."""
    _search_grid(grid_step, n_mc)
    if null is None:
        null = null_calibration(scn, target_pfa, n_calib, rng.derive(0, 0))
    thr = select_thresholds(null, scn, AttackerSpec().forger(scn).arrival_law(), rng.derive(0, 1))
    x, y, pmd = optimize_attack_exponents(
        (thr.theta, thr.epsilon), scn, grid_step, n_mc, rng.derive(1))
    return thr, x, y, pmd


def _reproduce_table1(scale: float, seed: int) -> ResultTable:
    rows = []
    n_search = _desk(20_000, scale, floor=2_000)
    for n in (1, 3):
        genuine = ScenarioParams.from_snr(n, 15.0, 20.0, alpha_I=1.0, alpha_II=1.0)
        # H0 reads no rho: one sample per N, on the rho key 0 no cell uses
        null = null_calibration(genuine, 1e-4, 1_000_000, Rng(seed).derive(n, 0))
        for rho in (0.1, 0.7, 0.9):
            scn = replace(genuine, rho_AE=rho, rho_EB=rho)
            thr, x, y, pmd = _search_cell(scn, 1e-4, 1_000_000, n_search,
                                          Rng(seed).derive(n, int(rho * 10)), null=null)
            rows.append({
                "n_subcarriers": n, "rho": rho, "target_pfa": 1e-4,
                "theta": thr.theta, "epsilon": thr.epsilon,
                "x": x, "y": y, "p_md": pmd,
            })
    return ResultTable(columns=list(rows[0]), rows=rows)


def _reproduce_fig1(scale: float, seed: int) -> ResultTable:
    """Matched versus mismatched attackers against the combined test, scored on one draw."""
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
            thr, x, y, _ = _search_cell(scn, 1e-3, calib, n_mc, rng)
            attackers = {"matched": AttackStrategy("exponent", x=x, y=y),
                         "simplified": AttackStrategy("simplified"),
                         "modulus": AttackStrategy("modulus")}
            pmds = _common_draw_pmd(list(attackers.values()), scn, n_mc, rng.derive(2),
                                    thr.theta, thr.epsilon)
            for label, pmd in zip(attackers, pmds):
                rows.append({
                    "n_subcarriers": n, "alpha_II": alpha2, "attacker": label,
                    "x": x if label == "matched" else None,
                    "y": y if label == "matched" else None,
                    "p_md": pmd,
                })
    return ResultTable(columns=list(rows[0]), rows=rows)


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
        tables = run_plan(_target_configs(target, scale, seed, workers), workers)
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


def emit(table: ResultTable, fmt: str, path) -> None:
    """Write the table as CSV or JSON with a stable column order."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(row.get(c)) for c in table.columns])
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
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
