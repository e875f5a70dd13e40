import hashlib
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from pla_bench.attacks import AttackStrategy
from pla_bench.channel import ScenarioParams, eve_observations
from pla_bench.errors import ConfigError, SingularTestError
from pla_bench import harness
from pla_bench.harness import (
    _BASE_COLUMNS,
    _forge,
    _shard_result,
    REPRODUCE_TARGETS,
    AttackerSpec,
    DefenderSpec,
    ExperimentConfig,
    ResultTable,
    emit,
    load,
    reproduce,
    run_experiment,
)
from pla_bench.rng import Rng

# ---------------------------------------------------------------------------
# specs


def test_defender_spec_validation():
    with pytest.raises(ConfigError):
        DefenderSpec(kind="oracle")
    with pytest.raises(ConfigError):
        DefenderSpec(kind="ocnn", metric="cosine")


def test_ideal_bound_requires_positive_variances():
    with pytest.raises(SingularTestError):
        DefenderSpec(kind="ideal", ideal_sigma2=0.0)
    with pytest.raises(SingularTestError):
        DefenderSpec(kind="ideal", ideal_sigma2=0.1, ideal_sigma2_E=-1.0)
    assert DefenderSpec(kind="ideal", ideal_sigma2=0.1, ideal_sigma2_E=0.2).ideal_sigma2 == 0.1


def test_defender_labels():
    assert DefenderSpec(kind="llr").label() == "llr"
    assert DefenderSpec(kind="ocnn", variant="11NN").label() == "ocnn-11NN"
    assert DefenderSpec(kind="ocnn", variant="1KNN", metric="llr").label() == "ocnn-1KNN-llr"
    assert DefenderSpec(kind="ocsvm", kernel="linear").label() == "ocsvm-linear"
    assert DefenderSpec(kind="ocsvm").label() == "ocsvm"
    assert DefenderSpec(kind="binary_knn").label() == "binary_knn"


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
    # learned defenders are calibrated by their own tuning, no target needed
    ExperimentConfig(defender=DefenderSpec(kind="ocnn"))


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


# ---------------------------------------------------------------------------
# result table helpers


def _toy_table():
    rows = [
        {"a": 1, "b": "x", "c": 0.5},
        {"a": 2, "b": "y", "c": None},
        {"a": 1, "b": "y", "c": 2.5},
    ]
    return ResultTable(columns=["a", "b", "c"], rows=rows, meta={"seed": 7})


def test_result_table_column_and_find():
    t = _toy_table()
    assert t.column("a") == [1, 2, 1]
    assert t.column("missing") == [None, None, None]
    assert len(t.find(a=1)) == 2
    assert t.find(a=1, b="y")[0]["c"] == 2.5
    assert t.find(a=3) == []


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


def test_shard_result_maps_all_four_outcomes():
    payload = {"point_idx": 3, "dataset_idx": 1, "n_eval": 4}
    genuine = np.array([True, True, True, False])
    forged = np.array([True, False, False, False])
    got = _shard_result(payload, genuine, forged, {"theta": 1.0}, 0.5)
    assert (got["tp"], got["fn"], got["fp"], got["tn"]) == (3, 1, 1, 3)
    assert (got["point_idx"], got["dataset_idx"], got["trained"]) == (3, 1, {"theta": 1.0})


class _Observer:
    """Forging strategy that keeps the adversary's observations."""

    def __init__(self):
        self.seen = []

    def forge(self, h_ae, h_eb, params):
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
    _forge(scn, AttackerSpec(observer, averaged=True), h, Rng(30))
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


def test_averaged_attacker_sends_one_forgery_per_dataset():
    scn = ScenarioParams.from_snr(2, 15.0, 20.0, rho_AE=0.6, m_training=10)
    attacker = AttackerSpec(AttackStrategy("simplified"), averaged=True)
    g = _forge(scn, attacker, np.array([1.0 + 0j, -0.5j]), Rng(32), n=5)
    assert g.shape == (5, 2)
    assert np.array_equal(g, np.repeat(g[:1], 5, axis=0))


class _Captured(Exception):
    """Stops a shard once its training set is built."""


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
    point = dict(n_subcarriers=1, alpha_I=1.0, alpha_II=alpha_ii, rho_AE=0.1, rho_EB=0.0,
                 snr_I_db=15.0, snr_II_db=20.0, m_training=m)
    payload = {"point": point, "defender": DefenderSpec(kind), "attacker": AttackerSpec(),
               "target": None, "n_eval": 1000, "seed": 11, "point_idx": 0, "dataset_idx": 0}
    with pytest.raises(_Captured):
        harness._run_shard(payload)
    neg = captured["neg"]
    assert neg.shape == (200_000, 2)
    var = float(np.sum(np.var(neg, axis=0)))
    assert abs(var - want) < 3.0 * want / np.sqrt(neg.shape[0])


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
    pmd = table.column("p_md")
    assert len(pmd) == 2
    assert pmd[1] < pmd[0]


def test_run_experiment_workers_give_identical_tables(tmp_path):
    cfg_serial = _tiny_llr_config(n_subcarriers=(1, 2), target_pfa=0.05)
    cfg_workers = _tiny_llr_config(n_subcarriers=(1, 2), target_pfa=0.05, workers=2)
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
    back = load(path)
    assert back.columns == table.columns
    assert len(back.rows) == len(table.rows)
    for orig, got in zip(table.rows, back.rows):
        for key, val in orig.items():
            if val is None or val == "":
                assert key not in got
            else:
                assert got[key] == val


def test_emit_load_round_trip_json(tmp_path):
    table = run_experiment(_tiny_llr_config())
    path = tmp_path / "out.json"
    emit(table, "json", path)
    back = load(path)
    assert back.columns == table.columns
    assert back.meta["seed"] == table.meta["seed"]
    for orig, got in zip(table.rows, back.rows):
        for key, val in orig.items():
            if val is not None:
                assert got[key] == val


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
    back = load(path)
    assert back.columns == _BASE_COLUMNS
    assert back.rows == []


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


# Digest of repr(configs) that each sweep target hands to run_experiment at
# seed 42 and 2 workers, for scales 1.0 and 0.05. A change to a target's
# plan (a sweep value, trial count, defender or its order) changes these.
_TARGET_PLAN_DIGESTS = {
    ("table2", 1.0): "45a66b7d42905f487fd636d794e581e4a8e66a32d7ed6bd65b5ab9f1412b72bd",
    ("table2", 0.05): "ab200656fa672eb85da0319ee41eaeb02851b38156b998cebd78ab4d4a0ac64f",
    ("table3", 1.0): "6d9242cfb6fc45fdb433ca31cdfdb5737e646e12cb46b975d41d0fa52bd719ec",
    ("table3", 0.05): "d450ef86a1fcf972f85dac8c4b5c425b5ad62d8daa5a1e2c3ae3fe31ba275709",
    ("table4", 1.0): "e297cafd452c34e9808d7d6466257e78b3dab80533d3dbb28920e29c6f2d592a",
    ("table4", 0.05): "9a7f3d948996ab20e77948bb62e98918cfcb29b297dc7e5e92621db595b61e5c",
    ("table5", 1.0): "43ef7b14fc2d1ea2bd92f0265f508d4dbc3ab767a7506b65b86f485b65100387",
    ("table5", 0.05): "11599b74a4f0017a6e9334e27316e1b46a9822346d80e3d156163f69604c7c30",
    ("fig2", 1.0): "b1fbec8fff37bbaf964eaa4af7c2c026247890b86b416354afbb626fc7316cd1",
    ("fig2", 0.05): "23b6daf392e0e5a30f48758582aa19fbe560cc5e07a606c7bb83cdd386d703d6",
    ("fig3", 1.0): "f4d3293868f39b0bf8c56fbe3944a7637ed05c374ccce1d32bba9ab6eeb6c40a",
    ("fig3", 0.05): "a4c07eb095d403fdb7fa0c490fea4edce607fb51e2be4749a71342391bf0fab4",
    ("fig4", 1.0): "956e8fa7cdbd4676fc353a072f54755fb12450c4a92bdc32877100f846649a5a",
    ("fig4", 0.05): "9e873a7c5525bf847481e06ef16e20bcca0c1d7301c1ff1f1b146a1a48b7a277",
    ("fig5", 1.0): "d2187edcebf8c1e06d115d4f22e56456bd0f62d26ecee7ba9b5caf90ab5c6051",
    ("fig5", 0.05): "f9a047432bd0c4b1678f42fc8f31bfcba2a93597eb474aea593f9147edd7f15d",
    ("fig6", 1.0): "d1021337d9a623488b7220878474ce2fc1558c8430c6a0b4c1a2eeefa58f1b6e",
    ("fig6", 0.05): "e0c6b62805057a4b44372b4575f6ad9a935015b7f292e3cef589ffb2c20e43de",
    ("fig7", 1.0): "69d087afa61b4ece4321eb81efbe1a075e95f91b9f8574a8806ec609bb73a988",
    ("fig7", 0.05): "b2b627d50ca58c5086864e999486cdc7ea73a3f1aa60f61df9a4213ad6f3a38f",
    ("fig8", 1.0): "71ad02802a7ee7b1c93cda6ded9080d8a077ebd34b3435f73defadce96704661",
    ("fig8", 0.05): "d1173a89a6f25c3a88701bafea01124ed05da27d68113b25b109ad1b631a29d6",
    ("fig9", 1.0): "130883c560ca2056e21f0bad1dd307006693abcc62b048a1c82986084ef6c528",
    ("fig9", 0.05): "62e1ffeaaa1cfd12d4498a652d350279720f12d470f38b42198f3c581656fffb",
    ("fig10", 1.0): "e1478641ea5aaff2b0feacc71bb76f1609320eaa2f84fa0974c1ed894706459b",
    ("fig10", 0.05): "02fd473fb154545bef7c3b9d4e29b91474e5fcd1d7007c48e6d2cfa59d98723c",
}


@pytest.mark.parametrize("target", sorted(set(REPRODUCE_TARGETS) - {"table1", "fig1"}))
@pytest.mark.parametrize("scale", [1.0, 0.05])
def test_reproduce_target_plans_are_pinned(monkeypatch, target, scale):
    configs = []

    def record(config):
        configs.append(config)
        return ResultTable(columns=list(_BASE_COLUMNS), rows=[], meta={})

    monkeypatch.setattr(harness, "run_experiment", record)
    table = reproduce(target, scale=scale, seed=42, workers=2)
    assert table.meta == {"target": target, "seed": 42, "scale": scale}
    assert all(isinstance(c, ExperimentConfig) for c in configs) and configs
    digest = hashlib.sha256(repr(configs).encode()).hexdigest()
    assert digest == _TARGET_PLAN_DIGESTS[(target, scale)]
