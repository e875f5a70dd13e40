"""Physical layer authentication benchmark toolkit.

Simulates a training/classification protocol over correlated fading
channels and evaluates statistical tests, one-class and binary machine
learning authenticators, and impersonation attacks under a seeded,
reproducible Monte Carlo harness.
"""

from .attacks import (
    AttackStrategy,
    exponent_attack,
    ml_attack,
    mismatched_eval,
    modulus_attack,
    optimize_attack_exponents,
    simplified_attack,
)
from .channel import (
    ScenarioParams,
    alice_estimate_phase2,
    bob_estimate_phase1,
    complex_gaussian,
    eve_observations,
    forged_observation,
    sample_channel,
    simulate_trials,
)
from .errors import (
    ConfigError,
    InfeasibleTargetError,
    NumericError,
    SingularTestError,
    UndefinedMetricError,
)
from .harness import (
    AttackerSpec,
    DefenderSpec,
    ExperimentConfig,
    REPRODUCE_TARGETS,
    ResultTable,
    emit,
    load,
    reproduce,
    run_experiment,
)
from .metrics import ConfusionMatrix, binomial_se
from .mlauth import (
    DistanceMetric,
    OcnnModel,
    OcsvmModel,
    binary_knn,
    binary_knn_tune,
    binary_svm_classify,
    binary_svm_train,
    featurize,
    kmeans_label,
    llr_distance,
    ocnn_classify,
    ocnn_train,
    ocsvm_classify,
    ocsvm_decision,
    ocsvm_train,
    ocsvm_train_cv,
)
from .rng import Rng
from .statdec import (
    ThresholdResult,
    accepts,
    analytic_pfa_pmd,
    calibrate_threshold,
    ideal_llr,
    llr_statistic,
    modulus_statistic,
    ncx2_cdf,
    ncx2_inv,
    noncentrality_beta,
    noncentrality_mu,
    nominal_mu,
    normal_upper_quantile,
    optimize_thresholds,
    per_dim_variance,
)

__version__ = "0.1.0"
