"""The benchmark's span tracer reads pla_bench signatures from outside.

``perfbench/tracer.py`` wraps the package's public functions and counts
classify queries and support vectors from argument positions and return
values. Its own self-test traces only a statistical workload, so these
tests run the four learned defenders and the threshold and exponent
searches under it: a renamed or moved argument shows up here as a crash
or a wrong count.
"""
import importlib.util
from pathlib import Path
import sys

from pla_bench import attacks, statdec
from pla_bench.attacks import AttackStrategy
from pla_bench.channel import ScenarioParams
from pla_bench.harness import DefenderSpec, ExperimentConfig, run_experiment
from pla_bench.rng import Rng

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
KINDS = ("ocnn", "ocsvm", "binary_knn", "binary_svm")
N_TRIALS = 1_000


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _bindings() -> dict:
    """Every attribute of every pla_bench module, and Rng's own methods."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "pla_bench" or name.startswith("pla_bench."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out.update({("Rng", attr): value for attr, value in vars(Rng).items()})
    return out


def test_tracer_counts_learned_defenders_and_uninstalls():
    before = _bindings()
    tracer = _load_tracer()()
    tracer.install()
    try:
        assert _bindings() != before
        for kind in KINDS:
            run_experiment(ExperimentConfig(
                defender=DefenderSpec(kind), n_subcarriers=(2,), m_training=(50,),
                n_trials=N_TRIALS, n_datasets=1, seed=3))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # each experiment classifies N_TRIALS genuine and N_TRIALS forged rows
    assert tracer.counts["mlauth.classify_queries"] == 2 * N_TRIALS * len(KINDS)
    assert tracer.counts["mlauth.support_vectors"] > 0


def test_tracer_counts_the_statistical_searches():
    # the tracer reads n_mc and grid_step at position 2, where the harness
    # passes them; the module attributes are looked up after install
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    n_mc, grid_step = 20_000, 0.5
    tracer = _load_tracer()()
    tracer.install()
    try:
        thr = statdec.optimize_thresholds(scn, 1e-2, n_mc, Rng(1),
                                          attacks.AttackerSpec().forger(scn).arrival_law())
        attacks.optimize_attack_exponents((thr.theta, thr.epsilon), scn, grid_step, 2_000, Rng(2))
        attacks.mismatched_eval(AttackStrategy("modulus"), scn, 2_000, Rng(3),
                                thr.theta, thr.epsilon)
    finally:
        tracer.uninstall()
    assert tracer.counts["statdec.mc_trials"] == n_mc
    assert tracer.counts["attacks.grid_cells"] == (round(2 / grid_step) + 1) ** 2
    assert tracer.spans["statdec.optimize_thresholds"][0] == 1
    assert tracer.spans["attacks.optimize_attack_exponents"][0] == 1
    assert tracer.spans["attacks.mismatched_eval"][0] == 1
