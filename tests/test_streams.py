"""Exact outputs of the seeded Monte Carlo paths, pinned bit for bit.

Every value below depends on the draw order of the trial kernel, on the
stream keys each caller derives and on the floating-point association of
the statistics. A refactor must leave them all unchanged. A deliberate
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
    "ocnn-1KNN": (DefenderSpec("ocnn", variant="1KNN"), 200),
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
    thr = optimize_thresholds(SCN, 1e-2, 20_000, Rng(101))
    return (thr.theta, thr.epsilon, thr.pfa_estimate, thr.pmd_estimate, thr.n_feasible)


def exponents():
    theta, epsilon = thresholds()[:2]
    return optimize_attack_exponents((theta, epsilon), SCN, 0.5, 4_000, Rng(102))


def mismatched(defender):
    theta, epsilon = thresholds()[:2]
    return mismatched_eval(AttackStrategy("ml"), defender, SCN, 4_000, Rng(103),
                           theta, epsilon if defender == "combined" else None)


def experiment(kind, attacker, alpha_ii, calibration_trials=20_000):
    cfg = ExperimentConfig(
        defender=DefenderSpec(kind), attacker=ATTACKERS[attacker],
        n_subcarriers=(2,), alpha_II=(alpha_ii,), rho_AE=(0.5,), rho_EB=(0.3,),
        target_pfa=1e-2, n_trials=2_000, n_datasets=2, seed=7,
        calibration_trials=calibration_trials,
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


EXPECTED_THRESHOLDS = (13.508345547192938, 1.433996716725254, 0.011199999999999988, 0.35245, 169)
EXPECTED_EXPONENTS = (1.0, 1.0, 0.35)
EXPECTED_MISMATCHED = {
    'llr': 0.39125,
    'combined': 0.38725,
}
EXPECTED_EXPERIMENTS = {
    ('llr', 'simplified', 0.8): (1983, 17, 1213, 787, 14.528338639881103, None),
    ('llr', 'simplified', 1.0): (1974, 26, 62, 1938, 13.276703990286183, None),
    ('llr', 'ml', 0.8): (1983, 17, 1213, 787, 14.528338639881103, None),
    ('llr', 'ml', 1.0): (1974, 26, 62, 1938, 13.276703990286183, None),
    ('llr', 'simplified-avg', 0.8): (1983, 17, 1702, 298, 14.528338639881103, None),
    ('llr', 'simplified-avg', 1.0): (1974, 26, 240, 1760, 13.276703990286183, None),
    ('combined', 'simplified', 0.8): (1984, 16, 1230, 770, 14.885865369732752, 1.9147029640041144),
    ('combined', 'simplified', 1.0): (1972, 28, 59, 1941, 13.070808078781067, 0.6736017305200229),
    ('combined', 'ml', 0.8): (1984, 16, 1230, 770, 14.885865369732752, 1.9147029640041144),
    ('combined', 'ml', 1.0): (1972, 28, 59, 1941, 13.070808078781067, 0.6736017305200229),
    ('combined', 'simplified-avg', 0.8): (1984, 16, 1708, 292, 14.885865369732752, 1.9147029640041144),
    ('combined', 'simplified-avg', 1.0): (1972, 28, 216, 1784, 13.070808078781067, 0.6736017305200229),
    ('ideal', 'simplified', 0.8): (1975, 25, 1605, 395, 18.39133349073296, None),
    ('ideal', 'simplified', 1.0): (1985, 15, 1020, 980, -0.6736767268330857, None),
    ('ideal', 'ml', 0.8): (1975, 25, 1605, 395, 18.39133349073296, None),
    ('ideal', 'ml', 1.0): (1985, 15, 1020, 980, -0.6736767268330857, None),
    ('ideal', 'simplified-avg', 0.8): (1976, 24, 1647, 353, 21.106616595262253, None),
    ('ideal', 'simplified-avg', 1.0): (1974, 26, 70, 1930, 0.44052761653946004, None),
}
EXPECTED_FALLBACK = (1982, 18, 1310, 690, 16.246412680141077, 1.6863036760313501)

EXPECTED_LEARNED = {
    'ocnn-1KNN': (974, 28, 253, 749, 1, 12, 1.0, None, None, None),
    'ocnn-JKNN': (1002, 0, 115, 887, 14, 14, 1.5, None, None, None),
    'ocnn-11NN-llr': (821, 181, 268, 734, 1, 1, 2.0, None, None, None),
    'ocsvm': (1002, 0, 119, 883, None, None, None, 0.05, 0.6375548966141846, None),
    'ocsvm-poly': (998, 4, 230, 772, None, None, None, 0.2, 1.0, None),
    'binary_knn': (1002, 0, 226, 776, None, None, None, None, None, 7),
    'binary_svm': (1002, 0, 152, 850, None, None, None, None, 0.6135589095679158, None),
    'kmeans_svm': (1002, 0, 396, 606, None, None, None, None, 0.6135589095679158, None),
    'binary_svm-m1000': (1002, 0, 120, 882, None, None, None, None, 0.49925028737059785, None),
    'kmeans_svm-m1000': (1002, 0, 369, 633, None, None, None, None, 0.6462538232054326, None),
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
