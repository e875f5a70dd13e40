"""Exact outputs of the seeded Monte Carlo paths, pinned bit for bit.

Every value below depends on the order of each path's draws (the row
blocks of ``statdec.weighted_exponential_sums`` in the calibrations and in
every statistical shard, and the rows whose pairs the calibrations and the
combined shards complete on its ``fill`` stream; the exponent search's
exponentials, their order and its one reference-noise draw; the channel,
estimate and forgery draws everywhere else), on the stream keys
each caller derives and on the floating-point association of the
statistics. A refactor must leave them all unchanged. A deliberate
stream change updates them in the same commit and records why in
CHANGES.md.
"""
import pytest

from pla_bench.attacks import AttackStrategy, mismatched_eval, optimize_attack_exponents
from pla_bench.channel import ScenarioParams
from pla_bench.harness import AttackerSpec, DefenderSpec, ExperimentConfig, run_experiment
from pla_bench.rng import Rng
from pla_bench.statdec import optimize_thresholds

# adversary estimation noise keeps the ml forgery apart from the scaled replay
SCN = ScenarioParams.from_snr(2, 15.0, 20.0, rho_AE=0.6, rho_EB=0.5, alpha_II=0.9,
                              sigma2_AE=0.05, sigma2_EB=0.02)

# the harness sweeps no adversary noise, so its ml rows equal the simplified ones
ATTACKERS = {
    "simplified": AttackerSpec(AttackStrategy("simplified")),
    "ml": AttackerSpec(AttackStrategy("ml")),
    "simplified-avg": AttackerSpec(AttackStrategy("simplified"), averaged=True),
}

# learned defenders and their training sizes, with the parameters each
# one's cross-validation selects; m = 1000 is fig9's size
LEARNED = {
    "ocnn-11NN": (DefenderSpec("ocnn", variant="11NN"), 200),
    "ocnn-1KNN": (DefenderSpec("ocnn", variant="1KNN"), 200),
    "ocnn-J1NN": (DefenderSpec("ocnn", variant="J1NN"), 200),
    "ocnn-JKNN": (DefenderSpec("ocnn", variant="JKNN"), 200),
    "ocnn-11NN-llr": (DefenderSpec("ocnn", variant="11NN", metric="llr"), 200),
    "ocsvm": (DefenderSpec("ocsvm"), 200),
    "ocsvm-poly": (DefenderSpec("ocsvm", kernel="poly"), 200),
    "binary_knn": (DefenderSpec("binary_knn"), 200),
    "binary_svm": (DefenderSpec("binary_svm"), 200),
    "kmeans_svm": (DefenderSpec("kmeans_svm"), 200),
    "binary_svm-m1000": (DefenderSpec("binary_svm"), 1000),
    "kmeans_svm-m1000": (DefenderSpec("kmeans_svm"), 1000),
}

EXPERIMENTS = [
    (kind, attacker, alpha_ii)
    for kind in ("llr", "combined", "ideal")
    for attacker in ATTACKERS
    for alpha_ii in (0.8, 1.0)
]


def thresholds():
    thr = optimize_thresholds(SCN, 1e-2, 20_000, Rng(101),
                              AttackerSpec().forger(SCN).arrival_law())
    return (thr.theta, thr.epsilon, thr.pfa_estimate, thr.pmd_estimate, thr.n_feasible)


def exponents():
    theta, epsilon = thresholds()[:2]
    return optimize_attack_exponents((theta, epsilon), SCN, 0.5, 4_000, Rng(102))


def mismatched(defender):
    theta, epsilon = thresholds()[:2]
    return mismatched_eval(AttackStrategy("ml"), SCN, 4_000, Rng(103),
                           theta, epsilon if defender == "combined" else None)


def experiment(kind, attacker, alpha_ii, calibration_trials=20_000):
    # llr's analytic threshold takes no calibration budget
    budget = {} if kind == "llr" else {"calibration_trials": calibration_trials}
    cfg = ExperimentConfig(
        defender=DefenderSpec(kind), attacker=ATTACKERS[attacker],
        n_subcarriers=(2,), alpha_II=(alpha_ii,), rho_AE=(0.5,), rho_EB=(0.3,),
        target_pfa=1e-2, n_trials=2_000, n_datasets=2, seed=7, **budget,
    )
    row = run_experiment(cfg).rows[0]
    return tuple(row[c] for c in ("tp", "fn", "fp", "tn", "theta", "epsilon"))


def learned(label):
    defender, m = LEARNED[label]
    cfg = ExperimentConfig(
        defender=defender, n_subcarriers=(2,), rho_AE=(0.9,), m_training=(m,),
        n_trials=1_000, n_datasets=3, seed=7,
    )
    row = run_experiment(cfg).rows[0]
    return tuple(row[c] for c in ("tp", "fn", "fp", "tn", "j", "k", "theta_d",
                                  "nu", "sigma_svm", "knn_k"))


EXPECTED_THRESHOLDS = (13.957220705868696, 1.4915989095237827, 0.011299999999999977, 0.37625,
                       147)
EXPECTED_EXPONENTS = (1.0, 1.0, 0.364)
EXPECTED_MISMATCHED = {
    'llr': 0.393,
    'combined': 0.39075,
}
EXPECTED_EXPERIMENTS = {
    ('llr', 'simplified', 0.8): (1985, 15, 1271, 729, 14.528338639881103, None),
    ('llr', 'simplified', 1.0): (1985, 15, 66, 1934, 13.276703990286183, None),
    ('llr', 'ml', 0.8): (1985, 15, 1271, 729, 14.528338639881103, None),
    ('llr', 'ml', 1.0): (1985, 15, 66, 1934, 13.276703990286183, None),
    ('llr', 'simplified-avg', 0.8): (1985, 15, 1728, 272, 14.528338639881103, None),
    ('llr', 'simplified-avg', 1.0): (1985, 15, 242, 1758, 13.276703990286183, None),
    ('combined', 'simplified', 0.8): (1983, 17, 1261, 739, 14.417917970668988, 1.9195589185305064),
    ('combined', 'simplified', 1.0): (1983, 17, 64, 1936, 13.178728438285825, 0.6022329581148108),
    ('combined', 'ml', 0.8): (1983, 17, 1261, 739, 14.417917970668988, 1.9195589185305064),
    ('combined', 'ml', 1.0): (1983, 17, 64, 1936, 13.178728438285825, 0.6022329581148108),
    ('combined', 'simplified-avg', 0.8): (1980, 20, 1702, 298, 14.534904820434928, 1.8251543815535962),
    ('combined', 'simplified-avg', 1.0): (1982, 18, 151, 1849, 16.308418863923777, 0.5282745246621148),
    ('ideal', 'simplified', 0.8): (1980, 20, 1629, 371, 17.690338389282523, None),
    ('ideal', 'simplified', 1.0): (1974, 26, 1039, 961, -0.659482991444474, None),
    ('ideal', 'ml', 0.8): (1980, 20, 1629, 371, 17.690338389282523, None),
    ('ideal', 'ml', 1.0): (1974, 26, 1039, 961, -0.659482991444474, None),
    ('ideal', 'simplified-avg', 0.8): (1983, 17, 1625, 375, 20.65813193648243, None),
    ('ideal', 'simplified-avg', 1.0): (1977, 23, 50, 1950, 0.37389728980898373, None),
}
EXPECTED_FALLBACK = (1986, 14, 1333, 667, 16.246412680141077, 1.686255861390815)

EXPECTED_LEARNED = {
    'ocnn-11NN': (851, 151, 297, 705, 1, 1, 1.5, None, None, None),
    'ocnn-1KNN': (974, 28, 253, 749, 1, 12, 1.0, None, None, None),
    'ocnn-J1NN': (1001, 1, 149, 853, 13, 1, 2.5, None, None, None),
    'ocnn-JKNN': (1002, 0, 115, 887, 14, 14, 1.5, None, None, None),
    'ocnn-11NN-llr': (821, 181, 268, 734, 1, 1, 2.0, None, None, None),
    'ocsvm': (1002, 0, 119, 883, None, None, None, 0.05, 0.6375548966141846, None),
    'ocsvm-poly': (998, 4, 230, 772, None, None, None, 0.2, 1.0, None),
    'binary_knn': (1001, 1, 209, 793, None, None, None, None, None, 3),
    'binary_svm': (1002, 0, 159, 843, None, None, None, None, 0.6260947696762768, None),
    'kmeans_svm': (1002, 0, 435, 567, None, None, None, None, 0.6260947696762768, None),
    'binary_svm-m1000': (1002, 0, 124, 878, None, None, None, None, 0.49410834014736627, None),
    'kmeans_svm-m1000': (1002, 0, 413, 589, None, None, None, None, 0.6434076187072966, None),
}


def test_optimize_thresholds_stream():
    assert thresholds() == EXPECTED_THRESHOLDS


def test_optimize_attack_exponents_stream():
    assert exponents() == EXPECTED_EXPONENTS


@pytest.mark.parametrize("defender", ["llr", "combined"])
def test_mismatched_eval_stream(defender):
    assert mismatched(defender) == EXPECTED_MISMATCHED[defender]


@pytest.mark.parametrize("case", EXPERIMENTS, ids=lambda c: "-".join(map(str, c)))
def test_run_experiment_stream(case):
    assert experiment(*case) == EXPECTED_EXPERIMENTS[case]


def test_combined_fallback_stream():
    # 1e-2 * 5000 trials is under the 100 the optimizer needs, so the
    # analytic split of the target runs
    assert experiment("combined", "ml", 0.8, calibration_trials=5_000) == EXPECTED_FALLBACK


@pytest.mark.parametrize("label", LEARNED)
def test_learned_defender_stream(label):
    assert learned(label) == EXPECTED_LEARNED[label]
