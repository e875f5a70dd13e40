import csv
import hashlib
import json
import math
import multiprocessing
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

from pla_bench.attacks import AttackStrategy
from pla_bench.channel import ScenarioParams, eve_observations
from pla_bench.errors import ConfigError, InfeasibleTargetError, NumericError
from pla_bench import channel, cli, harness, statdec
from pla_bench.harness import (
    _BASE_COLUMNS,
    _binomial_se,
    _forged_packets,
    _result_table,
    _shard_result,
    REPRODUCE_TARGETS,
    AttackerSpec,
    DefenderSpec,
    ExperimentConfig,
    ResultTable,
    emit,
    reproduce,
    run_experiment,
)
from pla_bench.rng import Rng
from pla_bench.statdec import optimize_thresholds

# ---------------------------------------------------------------------------
# specs


def test_defender_spec_validation():
    with pytest.raises(ConfigError):
        DefenderSpec(kind="oracle")
    with pytest.raises(ConfigError):
        DefenderSpec(kind="ocnn", metric="cosine")
    with pytest.raises(ConfigError, match="variant"):
        DefenderSpec(kind="ocnn", variant="2NN")
    with pytest.raises(ConfigError, match="kernel"):
        DefenderSpec(kind="ocsvm", kernel="gausian")
    # a field the kind ignores would run unchanged under the default label
    for kind, field, value in (("ocsvm", "metric", "llr"), ("binary_knn", "variant", "JKNN"),
                               ("llr", "kernel", "linear"), ("ocnn", "kernel", "poly")):
        with pytest.raises(ConfigError, match=f"{kind}.*{field}"):
            DefenderSpec(kind=kind, **{field: value})


def test_defender_labels():
    assert DefenderSpec(kind="llr").label() == "llr"
    assert DefenderSpec(kind="ocnn", variant="11NN").label() == "ocnn-11NN"
    assert DefenderSpec(kind="ocnn", variant="1KNN", metric="llr").label() == "ocnn-1KNN-llr"
    assert DefenderSpec(kind="ocsvm", kernel="linear").label() == "ocsvm-linear"
    assert DefenderSpec(kind="ocsvm").label() == "ocsvm"
    assert DefenderSpec(kind="ocsvm", kernel="poly").label() == "ocsvm-poly"
    assert DefenderSpec(kind="binary_knn").label() == "binary_knn"
    assert DefenderSpec(kind="binary_svm").label() == "binary_svm"
    assert DefenderSpec(kind="kmeans_svm").label() == "kmeans_svm"


# the binary SVMs are Gaussian; only the one-class SVM takes a kernel
@pytest.mark.parametrize("kind", ["binary_svm", "kmeans_svm"])
@pytest.mark.parametrize("kernel", ["poly", "linear"])
def test_only_the_one_class_svm_takes_a_kernel(kind, kernel):
    message = f"defender '{kind}' takes no kernel"
    with pytest.raises(ConfigError, match=message):
        DefenderSpec(kind=kind, kernel=kernel)
    with pytest.raises(ConfigError, match=message):
        cli.parse_config(f"defender.kind = {kind}\ndefender.kernel = {kernel}\n")
    assert cli.parse_config(f"defender.kind = ocsvm\ndefender.kernel = {kernel}\n"
                            ).defender == DefenderSpec("ocsvm", kernel=kernel)


def test_attacker_labels():
    assert AttackerSpec().label() == "simplified"
    assert AttackerSpec(strategy=AttackStrategy("ml")).label() == "ml"
    spec = AttackerSpec(strategy=AttackStrategy("exponent", x=0.5, y=-1.0))
    assert spec.label() == "exponent(0.5,-1)"
    assert AttackerSpec(averaged=True).label() == "simplified-avg"


def test_experiment_config_validation():
    llr = DefenderSpec(kind="llr")
    with pytest.raises(ConfigError):
        ExperimentConfig(defender=llr, target_pfa=0.01, n_subcarriers=())
    with pytest.raises(ConfigError):
        ExperimentConfig(defender=llr, target_pfa=0.01, n_trials=999)
    with pytest.raises(ConfigError):
        ExperimentConfig(defender=llr, target_pfa=0.01, n_datasets=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(defender=llr)  # statistical defender without a target
    with pytest.raises(ConfigError):
        ExperimentConfig(defender=llr, n_subcarriers=(1, 2), target_pfa=(0.01,))
    # a repeated N would take the first N's target
    with pytest.raises(ConfigError, match="distinct n_subcarriers"):
        ExperimentConfig(defender=llr, n_subcarriers=(1, 1), target_pfa=(0.01, 0.001))
    for trials in (0, -5):
        with pytest.raises(ConfigError, match="calibration_trials"):
            ExperimentConfig(defender=DefenderSpec(kind="combined"), target_pfa=0.01,
                             calibration_trials=trials)
    for target in (0, 1, 1.5, -0.01, (0.01, 1.5)):
        for kind in ("llr", "ideal", "ocnn"):
            with pytest.raises(ConfigError, match="target_pfa"):
                ExperimentConfig(defender=DefenderSpec(kind=kind), n_subcarriers=(1, 2),
                                 target_pfa=target)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(defender=llr, target_pfa=0.01, seed=seed)
    ExperimentConfig(defender=llr, target_pfa=0.01, seed=2**64 - 1)
    # every sweep point must make a valid scenario; a non-integral count
    # would run truncated but be written to the table as given
    for field, values in (("rho_AE", (0.5, 1.5)), ("alpha_II", (1.2,)),
                          ("n_subcarriers", (1.5,)), ("m_training", (99.9,))):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(defender=llr, target_pfa=0.01, **{field: values})
    # learned defenders are calibrated by their own tuning, no target needed
    ExperimentConfig(defender=DefenderSpec(kind="ocnn"))


@pytest.mark.parametrize("kind", ["llr", "ocnn", "ocsvm", "binary_knn", "binary_svm",
                                  "kmeans_svm"])
def test_config_rejects_calibration_trials_its_defender_never_reads(kind):
    # only the combined and ideal calibrations draw calibration_trials; any
    # other kind would run unchanged under a budget it never spent
    target = 0.01 if kind == "llr" else None
    ExperimentConfig(defender=DefenderSpec(kind), target_pfa=target, calibration_trials=200_000)
    with pytest.raises(ConfigError, match=f"defender '{kind}' takes no calibration_trials"):
        ExperimentConfig(defender=DefenderSpec(kind), target_pfa=target, calibration_trials=7)
    for reader in ("combined", "ideal"):
        ExperimentConfig(defender=DefenderSpec(reader), target_pfa=0.01, calibration_trials=700)


class _PoolStarted(Exception):
    """Raised by a spy in place of starting a worker pool."""


@pytest.mark.parametrize("kind, bad_line", [
    ("ocsvm", "rho_AE = 1.5"),
    ("ocsvm", "defender.kernel = gausian"),
    ("ocnn", "defender.variant = 2NN"),
    # below 1/calibration_trials (200,000 by default) the ideal bound's
    # calibration cannot resolve the target
    ("ideal", "target_pfa = 1e-6"),
    ("ideal", "target_pfa = 1e-3\ncalibration_trials = 500"),
    # a learned defender's tuning sets its own false-alarm rate
    ("ocnn", "target_pfa = 1e-3"),
    # and neither it nor llr's analytic threshold reads a calibration budget
    ("ocnn", "calibration_trials = 7"),
    ("llr", "target_pfa = 1e-2\ncalibration_trials = 7"),
])
def test_run_rejects_a_bad_config_before_starting_the_pool(monkeypatch, tmp_path, kind,
                                                           bad_line):
    def spy(self, *args, **kwargs):
        raise _PoolStarted

    monkeypatch.setattr(harness.ProcessPoolExecutor, "__init__", spy)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"defender.kind = {kind}\nn_trials = 1000\nn_datasets = 2\n{bad_line}\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                     "--workers", "2"]) == 2


# ocsvm: no nu of the grid keeps one point per fold; ocnn: fewer than 10 positives
@pytest.mark.parametrize("kind, m, cause", [("ocsvm", 5, "no nu in the grid"),
                                            ("ocnn", 8, "need at least 10 positive samples")])
@pytest.mark.parametrize("workers", [1, 2])
def test_failing_shard_names_its_address(kind, m, cause, workers):
    cfg = ExperimentConfig(defender=DefenderSpec(kind), m_training=(m,), n_trials=1000,
                           n_datasets=2, workers=workers)
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(cfg)
    assert type(excinfo.value) is ConfigError
    msg = str(excinfo.value)
    assert msg.startswith("(point 0, dataset 0) n_subcarriers=1, ")
    assert f"m_training={m}: " in msg and cause in msg


# each Monte Carlo calibration of a point: combined's optimizer and the ideal bound's quantile
@pytest.mark.parametrize("kind, calibration, error", [
    ("combined", "optimize_thresholds", InfeasibleTargetError),
    ("ideal", "calibrate_threshold", NumericError),
], ids=["combined", "ideal"])
@pytest.mark.parametrize("workers", [1, 2])
def test_failing_calibration_names_its_point(monkeypatch, workers, kind, calibration, error):
    # a pool worker inherits the patched calibration only when it is forked
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers are not forked on this platform")

    def failing(*args, **kwargs):
        raise error("no threshold reaches the target")

    monkeypatch.setattr(harness, calibration, failing)
    cfg = ExperimentConfig(defender=DefenderSpec(kind), n_subcarriers=(2,),
                           target_pfa=0.01, n_trials=1000, n_datasets=2,
                           calibration_trials=20_000, workers=workers)
    with pytest.raises(error) as excinfo:
        run_experiment(cfg)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == (
        "(point 0) n_subcarriers=2, alpha_I=1.0, alpha_II=1.0, rho_AE=0.1, rho_EB=0.0, "
        "snr_I_db=15.0, snr_II_db=20.0, m_training=1000: no threshold reaches the target")


def test_failing_shard_keeps_its_error_type(monkeypatch):
    def diverge(*args, **kwargs):
        raise NumericError("dual solver hit its iteration cap")

    monkeypatch.setattr(harness, "binary_svm_train", diverge)
    cfg = ExperimentConfig(defender=DefenderSpec("binary_svm"), m_training=(20,),
                           n_trials=1000, n_datasets=1)
    with pytest.raises(NumericError, match=r"^\(point 0, dataset 0\) .*iteration cap$"):
        run_experiment(cfg)


@pytest.mark.parametrize("kind", ["binary_knn", "binary_svm", "kmeans_svm", "ideal"])
def test_phase_i_forgery_kinds_run_at_alpha_i_below_one(kind):
    # their phase-I forgeries fade by alpha_I like the genuine phase-I estimates
    cfg = ExperimentConfig(defender=DefenderSpec(kind), n_subcarriers=(2,), alpha_I=(0.8,),
                           m_training=(40,), target_pfa=0.05 if kind == "ideal" else None,
                           n_trials=1000, n_datasets=1, seed=5)
    row = run_experiment(cfg).rows[0]
    assert row["alpha_I"] == 0.8 and row["n_alice"] == row["n_eve"] == 1000


def test_pooled_plan_stops_at_its_first_failing_shard(monkeypatch, tmp_path):
    # a pool worker inherits the patched trainer only when it is forked
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers are not forked on this platform")
    log = tmp_path / "trained.txt"

    def diverge(x, variant, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(variant + "\n")
        raise NumericError("trainer diverged")

    monkeypatch.setattr(harness, "ocnn_train", diverge)
    # table2's first config is ocnn-11NN; every later ocnn config would fail too
    with pytest.raises(NumericError, match=r"^\(point 0, dataset 0\) n_subcarriers=3, .*diverged$"):
        reproduce("table2", scale=0.05, seed=42, workers=2)
    assert set(log.read_text().split()) == {"11NN"}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -3])
def test_experiment_config_rejects_workers_below_one(workers):
    with pytest.raises(ConfigError, match="workers"):
        _tiny_llr_config(workers=workers)


def test_sweep_points_order_and_target_for():
    cfg = ExperimentConfig(
        defender=DefenderSpec(kind="llr"),
        n_subcarriers=(1, 2),
        rho_AE=(0.1, 0.9),
        target_pfa=(0.01, 0.001),
    )
    pts = list(cfg.sweep_points())
    assert len(pts) == 4
    # n_subcarriers is the outermost axis
    assert [p["n_subcarriers"] for p in pts] == [1, 1, 2, 2]
    assert [p["rho_AE"] for p in pts] == [0.1, 0.9, 0.1, 0.9]
    assert cfg.target_for(pts[0]) == 0.01
    assert cfg.target_for(pts[3]) == 0.001


def test_numpy_scalars_in_a_config_reach_the_output_as_plain_values(tmp_path):
    # a sweep of numpy scalars gives the same config, and so the same bytes,
    # as one of plain ints and floats
    plain = _tiny_llr_config(n_subcarriers=(1, 2), rho_AE=(0.1, 0.5))
    cfg = _tiny_llr_config(n_subcarriers=tuple(np.array([1, 2])),
                           rho_AE=tuple(np.array([0.1, 0.5])), target_pfa=np.float64(0.05))
    assert cfg == plain
    assert type(cfg.n_subcarriers[0]) is int and type(cfg.rho_AE[0]) is float
    assert type(cfg.target_pfa) is float
    tables = {"np": run_experiment(cfg), "plain": run_experiment(plain)}
    for fmt in ("csv", "json"):
        for name, table in tables.items():
            emit(table, fmt, tmp_path / f"{name}.{fmt}")
        assert (tmp_path / f"np.{fmt}").read_bytes() == (tmp_path / f"plain.{fmt}").read_bytes()


def test_a_per_carrier_alpha_sweep_value_is_stored_as_a_tuple(tmp_path):
    plain = _tiny_llr_config(n_subcarriers=(2,), alpha_II=((1.0, 0.8),))
    cfg = _tiny_llr_config(n_subcarriers=(2,), alpha_II=(np.array([1.0, 0.8]),))
    assert cfg == plain and type(cfg.alpha_II[0][1]) is float
    emit(run_experiment(cfg), "json", tmp_path / "out.json")
    assert json.loads((tmp_path / "out.json").read_text())["rows"][0]["alpha_II"] == [1.0, 0.8]


# ---------------------------------------------------------------------------
# result table helpers


def _toy_table():
    rows = [
        {"a": 1, "b": "x", "c": 0.5},
        {"a": 2, "b": "y", "c": None},
        {"a": 1, "b": "y", "c": 2.5},
    ]
    return ResultTable(columns=["a", "b", "c"], rows=rows, meta={"seed": 7})


def test_binomial_se_value():
    assert _binomial_se(0.5, 100) == pytest.approx(0.05)
    assert _binomial_se(0.0, 10) == 0.0


# ---------------------------------------------------------------------------
# experiment runs (small, statistical defender only; the learned defenders
# get their deep coverage in the acceptance suite)


def _tiny_llr_config(**kw):
    base = dict(
        defender=DefenderSpec(kind="llr"),
        n_subcarriers=(1,),
        rho_AE=(0.5,),
        rho_EB=(0.5,),
        target_pfa=0.05,
        n_trials=2000,
        n_datasets=2,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_llr_row_contents():
    table = run_experiment(_tiny_llr_config())
    assert table.columns == _BASE_COLUMNS
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["defender"] == "llr"
    assert row["attacker"] == "simplified"
    assert row["n_alice"] == 2000 and row["n_eve"] == 2000
    assert row["tp"] + row["fn"] == 2000
    assert row["fp"] + row["tn"] == 2000
    # the threshold is analytic, so the false-alarm rate must sit near the
    # target (four standard errors of slack)
    se = np.sqrt(0.05 * 0.95 / 2000)
    assert abs(row["p_fa"] - 0.05) < 4 * se
    assert 0.0 <= row["p_md"] <= 1.0
    assert row["theta"] > 0
    assert row["epsilon"] is None
    assert row["j"] is None and row["k"] is None
    assert row["x"] is None and row["y"] is None
    assert row["se_pfa"] > 0 and row["se_pmd"] >= 0
    assert table.meta["seed"] == 3
    assert table.meta["defender"] == "llr"


def test_run_experiment_shard_rounding():
    # 2000 trials over 3 datasets becomes 3 shards of ceil(2000/3) = 667
    table = run_experiment(_tiny_llr_config(n_datasets=3))
    assert table.rows[0]["n_alice"] == 3 * 667


@pytest.mark.parametrize("kind", ["llr", "combined", "ideal"])
def test_statistical_rows_time_their_threshold_task(monkeypatch, kind):
    # a statistical row's set-up is its point's threshold task, shared by
    # every dataset of the point: slowed by 0.05 s, it shows in train_seconds
    point_thresholds = harness._point_thresholds

    def slow(*args):
        time.sleep(0.05)
        return point_thresholds(*args)

    monkeypatch.setattr(harness, "_point_thresholds", slow)
    budget = {} if kind == "llr" else {"calibration_trials": 20_000}
    table = run_experiment(_tiny_llr_config(defender=DefenderSpec(kind), n_subcarriers=(1, 2),
                                            record_timing=True, **budget))
    assert table.columns == _BASE_COLUMNS + ["train_seconds"]
    assert [row["train_seconds"] >= 0.05 for row in table.rows] == [True, True]


def test_shard_result_maps_all_four_outcomes():
    genuine = np.array([True, True, True, False])
    forged = np.array([True, False, False, False])
    got = _shard_result(genuine, forged, {"theta": 1.0}, 0.5)
    assert (got["tp"], got["fn"], got["fp"], got["tn"]) == (3, 1, 1, 3)
    assert got["trained"] == {"theta": 1.0}


def test_integer_parameters_report_a_value_some_dataset_chose():
    # two datasets picking k = 3 and 5 report 3, not the truncated mean 4, an even kNN k
    accept = np.array([True, False])
    knn = ExperimentConfig(defender=DefenderSpec("binary_knn"), n_trials=1000, n_datasets=2)
    shards = [_shard_result(accept, accept, {"knn_k": k}, 0.0) for k in (5, 3)]
    row = _result_table(knn, shards).rows[0]
    assert row["knn_k"] == 3 and type(row["knn_k"]) is int
    # the NN family's neighbour counts come as numpy integers and leave as plain ones
    ocnn = ExperimentConfig(defender=DefenderSpec("ocnn"), n_trials=1000, n_datasets=2)
    shards = [_shard_result(accept, accept, {"j": np.int64(j), "k": np.int64(k), "theta_d": t}, 0.0)
              for j, k, t in ((2, 7, 1.0), (1, 12, 2.0))]
    row = _result_table(ocnn, shards).rows[0]
    assert (row["j"], row["k"], row["theta_d"]) == (1, 7, 1.5)
    assert type(row["j"]) is int and row["knn_k"] is None


class _Observer:
    """Forging strategy that keeps the adversary's observations."""

    def __init__(self):
        self.seen = []

    def forge(self, h_ae, h_eb, params, out=None):
        self.seen.append((h_ae, h_eb))
        return h_ae


def test_averaged_attacker_matches_explicit_average():
    # the averaged draw must follow the law of the mean of m observation
    # pairs: same means, variances and cross-correlation
    m, n = 8, 40_000
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.6, rho_EB=0.3,
                                  sigma2_AE=0.2, sigma2_EB=0.1, m_training=m)
    h = np.full((n, 1), 0.8 - 0.6j)
    observer = _Observer()
    AttackerSpec(observer, averaged=True).forger(scn)(h, Rng(30))
    ae, eb = (x[:, 0] for x in observer.seen[0])
    rng = Rng(31)
    pairs = [eve_observations(h, scn, rng) for _ in range(m)]
    ae_ref = np.mean([p[0] for p in pairs], axis=0)[:, 0]
    eb_ref = np.mean([p[1] for p in pairs], axis=0)[:, 0]

    def cov(a, b):
        return np.mean((a - a.mean()) * np.conj(b - b.mean()))

    var_ae = ((1 - 0.6**2) + 0.2) / m
    var_eb = ((1 - 0.3**2) + 0.1) / m
    cross = np.sqrt(1 - 0.6**2) * np.sqrt(1 - 0.3**2) / m
    # two independent estimates of each moment, so their gap has sqrt(2) SEs
    se = np.sqrt(2.0 / n)
    for got, want, var in ((ae, ae_ref, var_ae), (eb, eb_ref, var_eb)):
        assert abs(got.mean() - want.mean()) < 3.0 * se * np.sqrt(var)
        assert abs(cov(got, got) - cov(want, want)) < 3.0 * se * var
    assert abs(cov(ae, eb) - cov(ae_ref, eb_ref)) < 3.0 * se * np.sqrt(var_ae * var_eb)
    assert abs(cov(ae, eb) - cross) < 3.0 * np.sqrt(var_ae * var_eb / n)


def _recorded_shard(monkeypatch, kind):
    """One statistical shard's (Psi, accept mask) of each row block, both
    hypotheses in turn, the pairs it completed, its scenario and thresholds."""
    budget = {} if kind == "llr" else {"calibration_trials": 20_000}
    cfg = ExperimentConfig(defender=DefenderSpec(kind), n_subcarriers=(3,), alpha_II=(0.8,),
                           rho_AE=(0.1,), target_pfa=1e-2, n_trials=20_000, n_datasets=1,
                           seed=5, **budget)
    point = next(cfg.sweep_points())
    thresholds = harness._point_thresholds(cfg, 0, point)
    blocks, pairs = [], []

    def recording_sums(weights, rng, n, score):
        def recording(psi, e, fill):
            ok, = score(psi, e, fill)
            blocks.append((psi, ok))
            return ok,

        return statdec.weighted_exponential_sums(weights, rng, n, recording)

    def recording_pairs(*args):
        pairs.append(channel.pairs_given_exponentials(*args))
        return pairs[-1]

    monkeypatch.setattr(harness, "weighted_exponential_sums", recording_sums)
    monkeypatch.setattr(harness, "pairs_given_exponentials", recording_pairs)
    harness._run_shard(cfg, 0, 0, point, (thresholds, 0.0))
    monkeypatch.undo()
    return blocks, pairs, ScenarioParams.from_snr(**point), thresholds


def test_combined_shard_draws_the_llr_shards_psi(monkeypatch):
    # common random numbers: at the same seed, point and dataset a combined
    # shard scores the llr shard's Psi bit for bit, in every row block of
    # both hypotheses, whatever pairs it completes on the way
    llr = _recorded_shard(monkeypatch, "llr")[0]
    combined = _recorded_shard(monkeypatch, "combined")[0]
    assert len(llr) == len(combined) == 6  # 10,000 trials a hypothesis, in 3 blocks
    for (psi, _), (same, _) in zip(llr, combined):
        assert np.array_equal(psi, same)


def test_combined_shard_mask_is_accepts_on_its_completed_pairs(monkeypatch):
    # each block completes the pairs whose Psi passes theta and only those;
    # their llr_statistic is the drawn Psi, and accepts on them is the mask
    blocks, pairs, scn, (theta, eps) = _recorded_shard(monkeypatch, "combined")
    s2 = statdec.per_dim_variance(scn)
    assert len(pairs) == len(blocks)
    for (psi, ok), (ref, arrival) in zip(blocks, pairs):
        passed = psi <= theta
        assert not ok[~passed].any() and len(ref) == np.count_nonzero(passed)
        np.testing.assert_allclose(statdec.llr_statistic(arrival, ref, s2), psi[passed],
                                   rtol=1e-12)
        assert np.array_equal(statdec.accepts(arrival, ref, s2, theta, eps), ok[passed])
        assert 0 < np.count_nonzero(ok) < np.count_nonzero(passed)


def test_combined_calibration_faces_the_averaging_adversary():
    # the point's thresholds come from the forger its shards score, averaging included
    attacker = AttackerSpec(AttackStrategy("simplified"), averaged=True)
    cfg = ExperimentConfig(defender=DefenderSpec("combined"), attacker=attacker,
                           n_subcarriers=(2,), rho_AE=(0.5,), rho_EB=(0.3,), m_training=(10,),
                           target_pfa=0.01, n_trials=1000, n_datasets=1, seed=7,
                           calibration_trials=20_000)
    scn = ScenarioParams.from_snr(**next(cfg.sweep_points()))
    stream = Rng(7).derive(0, 1_000_000)
    thr = optimize_thresholds(scn, 0.01, 20_000, stream, attacker.forger(scn).arrival_law())
    row = run_experiment(cfg).rows[0]
    assert (row["theta"], row["epsilon"]) == (thr.theta, thr.epsilon)
    # the replay without averaging is a different adversary, with other thresholds
    plain = optimize_thresholds(scn, 0.01, 20_000, stream,
                                AttackerSpec().forger(scn).arrival_law())
    assert (plain.theta, plain.epsilon) != (thr.theta, thr.epsilon)


def test_averaged_attacker_sends_one_forgery_per_dataset():
    # at alpha_I = 1 phase-I arrivals are the forgery plus noise, so with no
    # noise every packet is the forgery itself
    scn = ScenarioParams.from_snr(2, math.inf, 20.0, rho_AE=0.6, m_training=10)
    attacker = AttackerSpec(AttackStrategy("simplified"), averaged=True)
    h = np.array([1.0 + 0j, -0.5j])
    g = _forged_packets(scn, attacker, h, Rng(32), 5, phase="I")
    assert g.shape == (5, 2)
    assert np.array_equal(g, np.repeat(g[:1], 5, axis=0))
    fresh = _forged_packets(scn, AttackerSpec(AttackStrategy("simplified")), h, Rng(32), 5,
                            phase="I")
    assert len(np.unique(fresh[:, 0])) == 5


class _Captured(Exception):
    """Stops a shard once its training set is built."""


def _training_negatives_variance(monkeypatch, kind, **sweep) -> float:
    """Total variance of one shard's 200,000 training negatives."""
    captured = {}

    def capture_ocnn(positives, variant, metric, negatives, rng):
        captured["neg"] = negatives
        raise _Captured

    def capture_knn(x, y, rng):
        captured["neg"] = x[y == 0]
        raise _Captured

    monkeypatch.setattr(harness, "ocnn_train", capture_ocnn)
    monkeypatch.setattr(harness, "binary_knn_tune", capture_knn)
    m = 400_000 if kind == "binary_knn" else 200_000
    config = ExperimentConfig(defender=DefenderSpec(kind), m_training=(m,), n_trials=1000,
                              n_datasets=1, seed=11, **sweep)
    with pytest.raises(_Captured):
        harness._run_shard(config, 0, 0, next(config.sweep_points()), None)
    neg = captured["neg"]
    assert neg.shape == (200_000, 2)
    return float(np.sum(np.var(neg, axis=0)))


@pytest.mark.parametrize("kind, alpha_ii, want", [
    # rho^2 (1 - rho^2) from the forgery, plus the phase-I noise
    ("binary_knn", 0.9, 0.1**2 * (1 - 0.1**2) + 10**-1.5),
    # plus the fading innovation and the phase-II noise
    ("ocnn", 0.9, 0.1**2 * (1 - 0.1**2) + (1 - 0.9**2) + 10**-2.0),
    ("ocnn", 1.0, 0.1**2 * (1 - 0.1**2) + 10**-2.0),
])
def test_training_negatives_have_independent_noise(monkeypatch, kind, alpha_ii, want):
    # the arrival noise of the synthetic attack draws must not reuse the
    # normals that drew the adversary's innovation
    var = _training_negatives_variance(monkeypatch, kind, alpha_II=(alpha_ii,))
    assert abs(var - want) < 3.0 * want / np.sqrt(200_000)


def test_phase_i_training_negatives_cross_the_epoch(monkeypatch):
    # the binary kinds' forged negatives fade by alpha_I, as their positives do
    want = 0.1**2 * (1 - 0.1**2) + (1 - 0.8**2) + 10**-1.5
    var = _training_negatives_variance(monkeypatch, "binary_knn", alpha_I=(0.8,))
    assert abs(var - want) < 3.0 * want / np.sqrt(200_000)


def test_run_experiment_deterministic():
    a = run_experiment(_tiny_llr_config())
    b = run_experiment(_tiny_llr_config())
    assert a.rows == b.rows


def test_run_experiment_exponent_attacker_records_xy():
    atk = AttackerSpec(strategy=AttackStrategy("exponent", x=0.5, y=-0.5))
    table = run_experiment(_tiny_llr_config(attacker=atk))
    row = table.rows[0]
    assert row["x"] == 0.5 and row["y"] == -0.5
    assert row["attacker"] == "exponent(0.5,-0.5)"


def test_run_experiment_more_subcarriers_detect_better():
    cfg = _tiny_llr_config(n_subcarriers=(1, 3), rho_AE=(0.7,), rho_EB=(0.7,),
                           n_trials=4000, n_datasets=1, seed=9)
    table = run_experiment(cfg)
    pmd = [row["p_md"] for row in table.rows]
    assert len(pmd) == 2
    assert pmd[1] < pmd[0]


@pytest.mark.parametrize("kind", ["llr", "ideal"])
def test_run_experiment_workers_give_identical_tables(tmp_path, kind):
    # both wait for their point's thresholds; the ideal bound's are drawn
    cfg_serial = _tiny_llr_config(defender=DefenderSpec(kind), n_subcarriers=(1, 2),
                                  target_pfa=0.05)
    cfg_workers = _tiny_llr_config(defender=DefenderSpec(kind), n_subcarriers=(1, 2),
                                   target_pfa=0.05, workers=2)
    t1 = run_experiment(cfg_serial)
    t2 = run_experiment(cfg_workers)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "workers.csv"
    emit(t1, "csv", p1)
    emit(t2, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def _openblas_threads() -> list:
    """Thread count of every OpenBLAS mapped in the calling process."""
    import ctypes

    counts = []
    for func in harness._openblas_entry_points("get_num_threads"):
        func.argtypes = []
        func.restype = ctypes.c_int
        counts.append(func())
    return counts


def test_pool_workers_run_single_threaded_blas():
    parent = _openblas_threads()
    if not parent:
        pytest.skip("no OpenBLAS is mapped in this process")
    with harness._worker_pool(1) as pool:
        assert pool.submit(_openblas_threads).result(timeout=60) == [1] * len(parent)


def test_one_pool_per_pooled_call_and_same_bytes(monkeypatch, tmp_path):
    pools = []
    start_pool = harness._worker_pool
    monkeypatch.setattr(harness, "_worker_pool", lambda w: pools.append(w) or start_pool(w))
    paths = []
    for workers in (1, 2):
        # 20 configs of ocnn and binary_knn shards
        paths.append(tmp_path / f"table2-{workers}.csv")
        emit(reproduce("table2", scale=0.05, seed=42, workers=workers), "csv", paths[-1])
        assert pools == [2] * (workers - 1)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    run_experiment(_tiny_llr_config(workers=1))
    run_experiment(_tiny_llr_config(n_subcarriers=(1, 2), workers=2))
    assert pools == [2, 2]


def test_pooled_run_keeps_the_callers_blas_threads():
    before = _openblas_threads()
    if not before:
        pytest.skip("no OpenBLAS is mapped in this process")
    run_experiment(_tiny_llr_config(n_subcarriers=(1, 2), workers=2))
    assert _openblas_threads() == before


def test_run_experiment_ocnn_records_trained_params():
    cfg = ExperimentConfig(
        defender=DefenderSpec(kind="ocnn", variant="1KNN"),
        n_subcarriers=(1,),
        rho_AE=(0.5,),
        rho_EB=(0.5,),
        m_training=(100,),
        n_trials=1000,
        n_datasets=1,
        seed=4,
    )
    table = run_experiment(cfg)
    row = table.rows[0]
    assert row["defender"] == "ocnn-1KNN"
    assert row["j"] == 1
    assert row["k"] >= 1
    assert row["theta_d"] > 0
    assert row["theta"] is None and row["nu"] is None


# ---------------------------------------------------------------------------
# serialization


def test_emit_load_round_trip_csv(tmp_path):
    table = run_experiment(_tiny_llr_config())
    path = tmp_path / "out.csv"
    emit(table, "csv", path)
    with open(path, newline="") as fh:
        header, *records = csv.reader(fh)
    assert header == table.columns
    assert len(records) == len(table.rows)
    for orig, rec in zip(table.rows, records):
        for key, text in zip(header, rec):
            val = orig[key]
            if val is None:
                assert text == ""
            elif isinstance(val, float):
                # floats are written as repr, so they read back exactly
                assert float(text) == val
            else:
                assert text == str(val)


def test_emit_load_round_trip_json(tmp_path):
    table = run_experiment(_tiny_llr_config())
    path = tmp_path / "out.json"
    emit(table, "json", path)
    doc = json.loads(path.read_text())
    assert doc["columns"] == table.columns
    assert doc["meta"]["seed"] == table.meta["seed"]
    assert len(doc["rows"]) == len(table.rows)
    for orig, got in zip(table.rows, doc["rows"]):
        assert got == {key: val for key, val in orig.items() if val is not None}


def test_emitted_json_satisfies_packaged_schema(tmp_path):
    schema_text = (
        resources.files("pla_bench") / "schemas" / "result_table.schema.json"
    ).read_text()
    schema = json.loads(schema_text)
    table = run_experiment(_tiny_llr_config())
    path = tmp_path / "out.json"
    emit(table, "json", path)
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, schema)


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        emit(_toy_table(), "xml", tmp_path / "out.xml")


def test_emit_empty_table_keeps_header(tmp_path):
    table = ResultTable(columns=list(_BASE_COLUMNS), rows=[], meta={})
    path = tmp_path / "empty.csv"
    emit(table, "csv", path)
    text = path.read_text()
    assert text.splitlines() == [",".join(_BASE_COLUMNS)]


# ---------------------------------------------------------------------------
# canned reproduction targets


def test_reproduce_validation():
    with pytest.raises(ConfigError):
        reproduce("table99")
    with pytest.raises(ConfigError):
        reproduce("table4", scale=0.0)
    with pytest.raises(ConfigError):
        reproduce("table4", scale=1.5)
    with pytest.raises(ConfigError, match="workers"):
        reproduce("table1", workers=0)  # builds no ExperimentConfig


def test_reproduce_targets_listed():
    assert "table4" in REPRODUCE_TARGETS
    assert "table1" in REPRODUCE_TARGETS
    assert len(REPRODUCE_TARGETS) == len(set(REPRODUCE_TARGETS))


def test_table1_draws_one_null_per_subcarrier_count(monkeypatch):
    # H0 reads neither rho nor the attacker, so table1 draws it once per N,
    # on the rho key 0 no cell uses (each of its six cells drew its own
    # before), and every cell selects against its N's null on its own stream
    calls = {"null_calibration": [], "select_thresholds": []}
    for name, record in calls.items():
        def spy(*args, _fn=getattr(harness, name), _record=record):
            _record.append((args, _fn(*args)))
            return _record[-1][1]

        monkeypatch.setattr(harness, name, spy)
    reproduce("table1", scale=0.05, seed=42)
    nulls = calls["null_calibration"]
    assert [(args[0].n_subcarriers, args[3].key) for args, _ in nulls] == [(1, (1, 0)),
                                                                          (3, (3, 0))]
    selects = calls["select_thresholds"]
    assert [(args[0], args[3].key) for args, _ in selects] == [
        (nulls[n > 1][1], (n, rho, 0, 1)) for n in (1, 3) for rho in (1, 7, 9)]


# Digest of repr(configs) that each sweep target hands to run_plan at
# seed 42 and 2 workers, for scales 1.0 and 0.05. A change to a target's
# plan (a sweep value, trial count, defender or its order) changes these,
# and so does adding or deleting a field of the config dataclasses.
_TARGET_PLAN_DIGESTS = {
    ("table2", 1.0): "741bc758043def31736be654ec60ccc46ea7d06506668d717858552a91bdbdb8",
    ("table2", 0.05): "6539d2f7bc369235166916fe871b4c5baf76ed67641b3e70308d59099eff0fa1",
    ("table3", 1.0): "dfcd71b8ebc1d8973defd2fecf22b5a79ae386b0a29ef042b964985001bb0824",
    ("table3", 0.05): "433c171361b7ee0c5d1d33c1c1ee2e5c37c362823f1b53e9c6c1e61efbb11a20",
    ("table4", 1.0): "c8d8a16cc0da6e76c913c17ded797387f38227158fc9e8bc9dcd31aba8e3eae5",
    ("table4", 0.05): "13f9411bdabd68339e458387900ebe618137fd40bc240dc3000b14af60fe186c",
    ("table5", 1.0): "dc84fb3afbb20d4aedc6c1299eab82850a370cbfb80adb7a22848cebb8f6619b",
    ("table5", 0.05): "c52ae0fbc6e9437282d4bf7b632132b43a68d894aeadb4a8927f2054a4e60039",
    ("fig2", 1.0): "a968f2ee184b8cc31cf8050897e6a0c2e34e9d5ca4018d10489d1e6dd9a7283d",
    ("fig2", 0.05): "47fa864ea53d97ad535c11034f8616fec97a36ec77a2519bb9997de15f70c484",
    ("fig3", 1.0): "c0d534cb0bdc18130ce1fb47b91b5169502d2e478389282f61af02187c68dc67",
    ("fig3", 0.05): "af2824152f50c9b9af6cb36b64beb19469e6e1684b9bfb7ada9f04205ec86df0",
    ("fig4", 1.0): "fa1c6fd60ef75126cb42e0b1da1d2383640dc48d0ebf34d166006938104bf3cb",
    ("fig4", 0.05): "5421da43e8c52faff9a5b7eb2641d1d4898eaf791b50e584c663ecb7b9ff3e0a",
    ("fig5", 1.0): "78fa3c085baaf118fe827d9748ba721c7869a4d29268c9d452908eb2adc95f52",
    ("fig5", 0.05): "8d49be318ba550666def6198bf2f411624b64e31ef7abb3f60311b1cea11ab21",
    ("fig6", 1.0): "df9dc465b2e27f885afa8d646a142c5317511c38beb6758ed17d7dcf56c07484",
    ("fig6", 0.05): "88e21c2f8d7708a586e7b9508fe4ea4f633e1eb94600ddef0b3eebfbf2a6ee34",
    ("fig7", 1.0): "58d0f86824442275774d290716f94220877c0511e3b49545bac6111c73174908",
    ("fig7", 0.05): "ea1f09ad44f6caf9451ade3836901d361ebea2325af958bb5321280e258e4701",
    ("fig8", 1.0): "1e00244b3c68ec1379b9b3e9b8632ebeca8d4ef13236ff1a5aa51a5aff3effca",
    ("fig8", 0.05): "e4da0368f039b38e7c45534703794579eff2c6f5ef14001245f730a747dd9e21",
    ("fig9", 1.0): "a2a6a65ecc0002038085e2cd5b78c47c960bb8dab05877b7b4be99bea196de1d",
    ("fig9", 0.05): "7cfda990c33cdbfe2a015b649fda3cee2a649130d6fd05d5de6deb4caf463819",
    ("fig10", 1.0): "1fbe65a1f7ee2902a18475929ad382ffc788a7c0727a009ede39bea9db147a30",
    ("fig10", 0.05): "58fe3fb825d4e505f2e1d494599c36987b0f1a622478424fbab9274389d3ed6a",
}


@pytest.mark.parametrize("target", sorted(set(REPRODUCE_TARGETS) - {"table1", "fig1"}))
@pytest.mark.parametrize("scale", [1.0, 0.05])
def test_reproduce_target_plans_are_pinned(monkeypatch, target, scale):
    configs = []

    def record(plan, workers):
        assert workers == 2
        configs.extend(plan)
        return [ResultTable(columns=list(_BASE_COLUMNS), rows=[], meta={}) for _ in plan]

    monkeypatch.setattr(harness, "run_plan", record)
    table = reproduce(target, scale=scale, seed=42, workers=2)
    assert table.meta == {"target": target, "seed": 42, "scale": scale}
    assert all(isinstance(c, ExperimentConfig) for c in configs) and configs
    digest = hashlib.sha256(repr(configs).encode()).hexdigest()
    assert digest == _TARGET_PLAN_DIGESTS[(target, scale)]
