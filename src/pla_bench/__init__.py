"""Physical layer authentication benchmark toolkit.

Simulates a training/classification protocol over correlated fading
channels and evaluates statistical tests, one-class and binary machine
learning authenticators, and impersonation attacks under a seeded,
reproducible Monte Carlo harness.
"""

from .attacks import AttackStrategy, mismatched_eval, optimize_attack_exponents
from .channel import (
    ScenarioParams,
    alice_estimate_phase2,
    bob_estimate_phase1,
    complex_gaussian,
    eve_observations,
    forged_observation,
    sample_channel,
)
from .errors import (
    ConfigError,
    InfeasibleTargetError,
    NumericError,
    SingularTestError,
)
from .harness import (
    AttackerSpec,
    DefenderSpec,
    ExperimentConfig,
    REPRODUCE_TARGETS,
    ResultTable,
    emit,
    reproduce,
    run_experiment,
)
from .mlauth import (
    DistanceMetric,
    OcnnModel,
    KernelModel,
    binary_knn,
    binary_knn_tune,
    binary_svm_classify,
    binary_svm_train,
    featurize,
    kmeans_label,
    ocnn_classify,
    ocnn_train,
    ocsvm_classify,
    ocsvm_train,
    ocsvm_train_cv,
    svm_decision,
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
