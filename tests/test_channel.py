import tracemalloc

import numpy as np
import pytest

from pla_bench import channel, harness, statdec
from pla_bench.attacks import (
    AttackerSpec,
    AttackStrategy,
    mismatched_eval,
    optimize_attack_exponents,
)
from pla_bench.channel import (
    ScenarioParams,
    _add_complex_gaussian,
    _cross_epoch,
    alice_estimate_phase2,
    bob_estimate_phase1,
    complex_gaussian,
    eve_observations,
    forged_observation,
    sample_channel,
)
from pla_bench.errors import ConfigError
from pla_bench.harness import DefenderSpec, ExperimentConfig
from pla_bench.rng import Rng
from pla_bench.statdec import optimize_thresholds

N_SAMPLES = 200_000


def _three_se_of_variance(var, n):
    # variance estimator of a complex Gaussian has std ~ var / sqrt(n)
    return 3.0 * var / np.sqrt(n)


def test_complex_gaussian_moments():
    z = complex_gaussian(Rng(0), N_SAMPLES, variance=2.0)
    assert z.shape == (N_SAMPLES,)
    assert abs(z.mean()) < 3.0 * np.sqrt(2.0 / N_SAMPLES)
    assert abs(np.var(z) - 2.0) < _three_se_of_variance(2.0, N_SAMPLES)
    # circular symmetry: each quadrature carries half the power
    assert abs(np.var(z.real) - 1.0) < 3.0 * 1.0 * np.sqrt(2.0 / N_SAMPLES)
    assert abs(np.var(z.imag) - 1.0) < 3.0 * 1.0 * np.sqrt(2.0 / N_SAMPLES)


def test_complex_gaussian_vector_variance():
    z = complex_gaussian(Rng(1), (N_SAMPLES, 2), variance=np.array([1.0, 4.0]))
    v = np.var(z, axis=0)
    assert abs(v[0] - 1.0) < _three_se_of_variance(1.0, N_SAMPLES)
    assert abs(v[1] - 4.0) < _three_se_of_variance(4.0, N_SAMPLES)


def test_sample_channel_uses_power_delay():
    params = ScenarioParams(n_subcarriers=2, power_delay=np.array([2.0, 0.5]))
    h = sample_channel(params, Rng(2), size=N_SAMPLES)
    assert h.shape == (N_SAMPLES, 2)
    v = np.var(h, axis=0)
    assert abs(v[0] - 2.0) < _three_se_of_variance(2.0, N_SAMPLES)
    assert abs(v[1] - 0.5) < _three_se_of_variance(0.5, N_SAMPLES)


def test_bob_estimate_phase1_moments():
    params = ScenarioParams(n_subcarriers=1, alpha_I=0.8)
    h = np.array([1.5 - 0.5j])
    est = bob_estimate_phase1(np.broadcast_to(h, (N_SAMPLES, 1)), params, Rng(3))
    want_var = (1.0 - 0.8**2) + params.sigma2_I
    assert abs(est.mean() - 0.8 * h[0]) < 3.0 * np.sqrt(want_var / N_SAMPLES)
    assert abs(np.var(est) - want_var) < _three_se_of_variance(want_var, N_SAMPLES)


def test_reference_estimate_has_full_phase1_variance():
    # a fresh-channel trial's reference is one full-variance enrollment
    # estimate, not an average of m_training of them
    params = ScenarioParams(n_subcarriers=1, alpha_I=1.0, m_training=100)
    rng = Rng(50)
    ref = bob_estimate_phase1(sample_channel(params, rng, size=N_SAMPLES), params, rng)
    want_var = 1.0 + params.sigma2_I
    assert abs(np.var(ref) - want_var) < _three_se_of_variance(want_var, N_SAMPLES)


def test_reference_estimate_alpha_bar_matches_scenario():
    # reference and genuine packet share only alpha_I * alpha_II of the channel
    params = ScenarioParams(n_subcarriers=3, alpha_I=0.9, alpha_II=0.8)
    rng = Rng(7)
    h = sample_channel(params, rng, size=N_SAMPLES)
    ref = bob_estimate_phase1(h, params, rng)
    alice = alice_estimate_phase2(h, params, rng)
    assert ref.shape == alice.shape == (N_SAMPLES, 3)
    cross = np.mean(ref * np.conj(alice), axis=0)
    assert np.all(np.abs(cross - 0.9 * 0.8) < 5.0 / np.sqrt(N_SAMPLES))


def test_bob_training_set_shape():
    params = ScenarioParams(n_subcarriers=2, m_training=100)
    h = sample_channel(params, Rng(8))
    train = bob_estimate_phase1(np.broadcast_to(h, (params.m_training, 2)), params, Rng(9))
    assert train.shape == (100, 2)


def test_alice_estimate_phase2_moments():
    params = ScenarioParams(n_subcarriers=1, alpha_II=0.9)
    h = np.array([0.7 + 1.1j])
    est = alice_estimate_phase2(np.broadcast_to(h, (N_SAMPLES, 1)), params, Rng(10))
    want_var = (1.0 - 0.9**2) + params.sigma2_II
    assert abs(est.mean() - 0.9 * h[0]) < 3.0 * np.sqrt(want_var / N_SAMPLES)
    assert abs(np.var(est) - want_var) < _three_se_of_variance(want_var, N_SAMPLES)


def _corr(a, b):
    return np.mean(a * np.conj(b))


def test_eve_observations_correlations_shared_innovation():
    rho_ae, rho_eb = 0.6, 0.3
    params = ScenarioParams(n_subcarriers=1, rho_AE=rho_ae, rho_EB=rho_eb)
    rng = Rng(11)
    h = sample_channel(params, rng, size=N_SAMPLES)
    h_ae, h_eb = eve_observations(h, params, rng)
    tol = 5.0 / np.sqrt(N_SAMPLES)
    assert abs(_corr(h_ae, h) - rho_ae) < tol
    assert abs(_corr(h_eb, h) - rho_eb) < tol
    want_cross = rho_ae * rho_eb + np.sqrt(1 - rho_ae**2) * np.sqrt(1 - rho_eb**2)
    assert abs(_corr(h_ae, h_eb) - want_cross) < tol
    # unit variance is preserved on both of the adversary's links
    assert abs(np.var(h_ae) - 1.0) < _three_se_of_variance(1.0, N_SAMPLES)
    assert abs(np.var(h_eb) - 1.0) < _three_se_of_variance(1.0, N_SAMPLES)


def test_eve_observations_estimation_noise_adds_variance():
    params = ScenarioParams(n_subcarriers=1, rho_AE=0.5, rho_EB=0.5,
                            sigma2_AE=0.2, sigma2_EB=0.1)
    rng = Rng(13)
    h = sample_channel(params, rng, size=N_SAMPLES)
    h_ae, h_eb = eve_observations(h, params, rng)
    assert abs(np.var(h_ae) - 1.2) < _three_se_of_variance(1.2, N_SAMPLES)
    assert abs(np.var(h_eb) - 1.1) < _three_se_of_variance(1.1, N_SAMPLES)


def test_forged_observation_phases():
    params = ScenarioParams(n_subcarriers=1)
    g = np.array([3.0 + 0j])
    got2 = forged_observation(np.tile(g, (N_SAMPLES, 1)), params, Rng(14), phase="II")
    assert abs(np.var(got2) - params.sigma2_II) < _three_se_of_variance(params.sigma2_II, N_SAMPLES)
    got1 = forged_observation(np.tile(g, (N_SAMPLES, 1)), params, Rng(15), phase="I")
    assert abs(np.var(got1) - params.sigma2_I) < _three_se_of_variance(params.sigma2_I, N_SAMPLES)
    assert abs(got2.mean() - g[0]) < 3.0 * np.sqrt(params.sigma2_II / N_SAMPLES)
    with pytest.raises(ConfigError):
        forged_observation(g, params, Rng(16), phase="III")
    # a phase-I forgery keeps its mean and collects the alpha_I fade of a genuine estimate
    faded = ScenarioParams(n_subcarriers=2, alpha_I=0.8, power_delay=np.array([1.0, 0.5]))
    got1 = forged_observation(np.tile([3.0 + 0j, -1.0j], (N_SAMPLES, 1)), faded, Rng(19), phase="I")
    want_var = (1.0 - 0.8**2) * faded.power_delay + faded.sigma2_I
    assert np.all(np.abs(got1.mean(axis=0) - [3.0, -1.0j]) < 3.0 * np.sqrt(want_var / N_SAMPLES))
    assert np.all(np.abs(np.var(got1, axis=0) - want_var)
                  < _three_se_of_variance(want_var, N_SAMPLES))


def test_forged_observation_phase2_collects_fading():
    params = ScenarioParams(n_subcarriers=1, alpha_II=0.8)
    g = np.full((N_SAMPLES, 1), 1.0 - 1.0j)
    got = forged_observation(g, params, Rng(17))
    want_var = (1.0 - 0.8**2) + params.sigma2_II
    assert abs(got.mean() - g[0, 0]) < 3.0 * np.sqrt(want_var / N_SAMPLES)
    assert abs(np.var(got) - want_var) < _three_se_of_variance(want_var, N_SAMPLES)


def test_scenario_params_validation():
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=0)
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=1, rho_AE=1.5)
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=1, rho_EB=-0.1)
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=1, sigma2_I=-1.0)
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=1, alpha_II=1.1)
    # NaN compares false both ways, so it must fail the range test, not pass it
    for alpha in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ConfigError, match="alpha_II"):
            ScenarioParams(n_subcarriers=2, alpha_II=alpha)
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=2, alpha_I=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=2, power_delay=np.array([1.0]))
    with pytest.raises(ConfigError):
        ScenarioParams(n_subcarriers=2, power_delay=np.array([1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="power_delay"):
            ScenarioParams(n_subcarriers=2, power_delay=np.array([1.0, bad]))
    # counts must be integral, not truncated
    for kw in ({"n_subcarriers": 1.5}, {"n_subcarriers": 1, "m_training": 99.9}):
        with pytest.raises(ConfigError, match="positive integer"):
            ScenarioParams(**kw)
    params = ScenarioParams(n_subcarriers=3.0, m_training=np.int64(50))
    assert (params.n_subcarriers, params.m_training) == (3, 50)
    assert type(params.n_subcarriers) is int and type(params.m_training) is int


def test_from_snr_maps_db_to_variance():
    params = ScenarioParams.from_snr(1, 15.0, 20.0)
    assert params.sigma2_I == pytest.approx(10**-1.5)
    assert params.sigma2_II == pytest.approx(10**-2.0)


def test_channel_functions_deterministic_under_seed():
    params = ScenarioParams(n_subcarriers=3, rho_AE=0.4, rho_EB=0.2)
    h1 = sample_channel(params, Rng(20), size=5)
    h2 = sample_channel(params, Rng(20), size=5)
    assert np.array_equal(h1, h2)
    a1 = eve_observations(h1, params, Rng(21))
    a2 = eve_observations(h1, params, Rng(21))
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])


# ---------------------------------------------------------------------------
# the in-place kernel against the formulas it replaced, bit for bit

def _old_complex_gaussian(rng, shape, variance=1.0):
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


def _old_cross_epoch(mean, alpha, noise_var, params, rng):
    fade = _old_complex_gaussian(rng, mean.shape, params.power_delay)
    noise = _old_complex_gaussian(rng, mean.shape, noise_var)
    return mean + np.sqrt(1.0 - alpha**2) * fade + noise


def _old_eve_observations(h_ab, params, rng):
    r = _old_complex_gaussian(rng, h_ab.shape, params.power_delay)
    w_ae = _old_complex_gaussian(rng, h_ab.shape, params.sigma2_AE)
    w_eb = _old_complex_gaussian(rng, h_ab.shape, params.sigma2_EB)
    h_ae = params.rho_AE * h_ab + np.sqrt(1.0 - params.rho_AE**2) * r + w_ae
    h_eb = params.rho_EB * h_ab + np.sqrt(1.0 - params.rho_EB**2) * r + w_eb
    return h_ae, h_eb


def _assert_same_bits(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def _assert_same_position(rng_a, rng_b):
    _assert_same_bits(rng_a.standard_normal(5), rng_b.standard_normal(5))


@pytest.mark.parametrize("variance", [2.0, np.array([0.5, 1.0, 4.0])],
                         ids=["scalar", "per-carrier"])
def test_complex_gaussian_matches_the_promoted_product_bit_for_bit(variance):
    # one row block, several ending in a partial one, and one vector
    # (sample_channel's size=None)
    for shape in [(1000, 3), (3 * channel._ROW_BLOCK + 7, 3), (3,)]:
        new_rng, old_rng = Rng(40), Rng(40)
        _assert_same_bits(complex_gaussian(new_rng, shape, variance),
                          _old_complex_gaussian(old_rng, shape, variance))
        _assert_same_position(new_rng, old_rng)


def test_complex_gaussian_at_zero_variance_matches_up_to_signed_zeros():
    # the old product formed 0*re - 0*im, so only the signs of its zeros differ
    new_rng, old_rng = Rng(41), Rng(41)
    new = complex_gaussian(new_rng, (1000, 3), 0.0)
    old = _old_complex_gaussian(old_rng, (1000, 3), 0.0)
    assert not new.any() and not old.any()
    _assert_same_bits(new + 0.0, old + 0.0)
    _assert_same_position(new_rng, old_rng)


def _draw_sizes(monkeypatch, run):
    """The ``size`` each ``Rng.standard_normal`` and each
    ``Rng.standard_exponential`` call passes while ``run()`` runs, by
    method; a call that names no size fails, as a counting tracer would
    miss it."""
    sizes = {"standard_normal": [], "standard_exponential": []}
    for name, calls in sizes.items():
        def spy(self, size, *args, _draw=getattr(Rng, name), _calls=calls, **kwargs):
            _calls.append(size)
            return _draw(self, size, *args, **kwargs)

        monkeypatch.setattr(Rng, name, spy)
    run()
    monkeypatch.undo()
    return sizes


def _draw_counts(monkeypatch, run):
    """(normals, exponentials) that ``run()`` draws."""
    sizes = _draw_sizes(monkeypatch, run)
    return tuple(sum(int(np.prod(s)) for s in sizes[name])
                 for name in ("standard_normal", "standard_exponential"))


@pytest.mark.parametrize("shape", [0, (0, 3), 7, (1000, 3), (40_000, 1), (70_001, 2)])
def test_skipping_a_draw_leaves_the_stream_where_the_draw_would(shape, monkeypatch):
    # (40_000, 1) and (70_001, 2) span several row blocks, ending in a partial one
    skipped, drawn = Rng(42), Rng(42)
    complex_gaussian(drawn, shape)
    acc = np.zeros(shape, dtype=complex)
    sizes = _draw_sizes(monkeypatch,
                        lambda: _add_complex_gaussian(acc, skipped, 0.0))["standard_normal"]
    # every call names its size, so counting tracers see each normal
    assert sum(int(np.prod(s)) for s in sizes) == 2 * int(np.prod(shape))
    assert all(s[0] <= channel._ROW_BLOCK for s in sizes)
    # a zero-weight draw adds nothing, not even a signed zero
    _assert_same_bits(acc, np.zeros(shape, dtype=complex))
    _assert_same_position(skipped, drawn)


# rows inside one row block of the channel layer, and rows over several blocks
# that end in a partial one
_ROWS = {"": 2_000, "-blocks": 3 * channel._ROW_BLOCK + 7}


def _with_rows(cases):
    return [pytest.param(*case, rows, id=name + suffix)
            for name, case in cases for suffix, rows in _ROWS.items()]


@pytest.mark.parametrize("alpha, rows", _with_rows(
    [("still", (1.0,)), ("faded", (0.8,)), ("per-carrier", (np.array([1.0, 0.8]),))]))
def test_cross_epoch_matches_the_old_law_bit_for_bit(alpha, rows):
    params = ScenarioParams(n_subcarriers=2, alpha_II=alpha, power_delay=np.array([1.0, 0.5]))
    h = sample_channel(params, Rng(43), size=rows)
    mean = params.alpha_II * h
    new_rng, old_rng = Rng(44), Rng(44)
    old = _old_cross_epoch(mean, params.alpha_II, params.sigma2_II, params, old_rng)
    # the law is written over the mean its caller owns
    owned = mean.copy()
    new = _cross_epoch(owned, params.alpha_II, params.sigma2_II, params, new_rng)
    assert new is owned
    _assert_same_bits(new, old)
    _assert_same_position(new_rng, old_rng)
    # a broadcast mean (one fixed channel) goes through forged_observation,
    # which copies it once; the read-only view would refuse any write
    fixed = np.broadcast_to(mean[0], mean.shape)
    new_rng, old_rng = Rng(45), Rng(45)
    _assert_same_bits(forged_observation(fixed, params, new_rng),
                      _old_cross_epoch(fixed, params.alpha_II, params.sigma2_II, params, old_rng))


@pytest.mark.parametrize("sigma2_ae, sigma2_eb, rows", _with_rows(
    [(f"{ae}-{eb}", (ae, eb)) for ae, eb in [(0.0, 0.0), (0.0, 0.1), (0.2, 0.0), (0.2, 0.1)]]))
def test_eve_observations_match_the_old_law_bit_for_bit(sigma2_ae, sigma2_eb, rows):
    params = ScenarioParams(n_subcarriers=3, rho_AE=0.3, rho_EB=0.6,
                            sigma2_AE=sigma2_ae, sigma2_EB=sigma2_eb)
    h = sample_channel(params, Rng(46), size=rows)
    new_rng, old_rng = Rng(47), Rng(47)
    for new, old in zip(eve_observations(h, params, new_rng),
                        _old_eve_observations(h, params, old_rng)):
        _assert_same_bits(new, old)
    _assert_same_position(new_rng, old_rng)


def test_forge_into_its_first_observation_matches_the_whole_array_sum():
    # per-carrier ml weights over rows that span several blocks
    params = ScenarioParams(n_subcarriers=3, rho_AE=0.6, rho_EB=0.4, rho_AB=0.3,
                            sigma2_AE=0.05, sigma2_EB=0.02,
                            power_delay=np.array([0.4, 1.0, 1.6]))
    strategy = AttackStrategy("ml")
    a, b = strategy.coefficients(params)
    assert np.ndim(a) == 1 and np.ndim(b) == 1
    h_ae, h_eb = eve_observations(sample_channel(params, Rng(49), size=_ROWS["-blocks"]),
                                  params, Rng(50))
    want = a * h_ae + b * h_eb
    ae, eb = h_ae.copy(), h_eb.copy()
    # without out, neither observation is written
    _assert_same_bits(strategy.forge(h_ae, h_eb, params), want)
    _assert_same_bits(h_ae, ae)
    _assert_same_bits(h_eb, eb)
    got = strategy.forge(h_ae, h_eb, params, out=h_ae)
    assert got is h_ae
    _assert_same_bits(got, want)
    _assert_same_bits(h_eb, eb)


def test_forged_observation_leaves_its_input_untouched():
    params = ScenarioParams(n_subcarriers=2, alpha_I=0.9, alpha_II=0.8)
    g = sample_channel(params, Rng(51), size=1_000)
    kept = g.copy()
    for phase in ("I", "II"):
        forged_observation(g, params, Rng(52), phase=phase)
        _assert_same_bits(g, kept)


def _stat_point(kind, n, n_sub):
    """(config, point) of one statistical sweep point of n genuine and n
    forged trials over N carriers, in one dataset."""
    budget = {} if kind == "llr" else {"calibration_trials": 20_000}
    cfg = ExperimentConfig(defender=DefenderSpec(kind), n_subcarriers=(n_sub,), alpha_II=(0.8,),
                           rho_AE=(0.5,), rho_EB=(0.5,), target_pfa=1e-2, n_trials=n,
                           n_datasets=1, seed=3, **budget)
    return cfg, next(cfg.sweep_points())


def _stat_shard(kind, n, n_sub):
    """That point's one shard as a thunk; its thresholds are fixed outside it."""
    cfg, point = _stat_point(kind, n, n_sub)
    thresholds = harness._point_thresholds(cfg, 0, point)
    return lambda: harness._run_shard(cfg, 0, 0, point, thresholds)


@pytest.mark.parametrize("kind", ["llr", "combined"])
def test_stat_shard_draws_two_complex_draws_per_carrier_trial_and_hypothesis(kind, monkeypatch):
    # each shard draws its Psi as N weighted exponentials per trial and
    # hypothesis; a combined shard then completes the pair of each trial
    # whose Psi passes theta, one complex draw per carrier for the reference
    # given x: 2N #{Psi <= theta} normals per hypothesis, where it drew x as
    # 2N normals per trial too before (2N (n + #{Psi <= theta})). The ten-draw
    # trial kernel took 20 normals per carrier and trial. A counting tracer
    # reads each draw from the size argument.
    n, n_sub = 40_000, 3
    shard = _stat_shard(kind, n, n_sub)
    completed = []  # rows completed per hypothesis, one entry per Psi draw

    def counting_sums(*args):
        completed.append(0)
        return statdec.weighted_exponential_sums(*args)

    def counting_pairs(pair, e, rng):
        completed[-1] += len(e)
        return channel.pairs_given_exponentials(pair, e, rng)

    monkeypatch.setattr(harness, "weighted_exponential_sums", counting_sums)
    monkeypatch.setattr(harness, "pairs_given_exponentials", counting_pairs)
    assert _draw_counts(monkeypatch, shard) == (2 * n_sub * sum(completed), 2 * n * n_sub)
    if kind == "llr":
        assert completed == [0, 0]
    else:  # fewer forged trials than genuine ones pass Psi
        assert 0 < completed[1] < completed[0] < n


def test_ideal_shard_draws_four_complex_draws_per_carrier_and_trial(monkeypatch):
    # the shard draws two weighted exponentials per carrier, trial and
    # hypothesis, and no normal; its point's calibration, made once for all
    # datasets, draws as many per calibration trial. Scoring the four members
    # of each evaluation trial and the three of each calibration trial took 4
    # and 3 complex draws per carrier, the channel drawn first 5 and 4, and
    # the physical chain 15 and 10
    n, n_sub = 40_000, 3
    cfg, point = _stat_point("ideal", n, n_sub)
    assert (_draw_counts(monkeypatch, lambda: harness._point_thresholds(cfg, 0, point))
            == (0, 2 * n_sub * cfg.calibration_trials))
    assert _draw_counts(monkeypatch, _stat_shard("ideal", n, n_sub)) == (0, 2 * n_sub * 2 * n)


@pytest.mark.parametrize("search", ["one attack", "4 cells", "441 cells"])
def test_exponent_grid_draws_n_exponentials_and_n_complex_normals_per_trial(search, monkeypatch):
    # one draw serves every cell: N exponentials and one complex normal (two
    # normals) per carrier and trial, however many cells score it; forging
    # every cell on the physical chain drew 8 complex normals per carrier and trial
    n, n_sub = 20_000, 3
    params = ScenarioParams.from_snr(n_sub, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5, alpha_II=0.8)
    runs = {"one attack": lambda: mismatched_eval(AttackStrategy("ml"), params, n, Rng(58),
                                                  9.0, 0.8),
            "4 cells": lambda: optimize_attack_exponents((9.0, 0.8), params, 2.0, n, Rng(58)),
            "441 cells": lambda: optimize_attack_exponents((9.0, 0.8), params, 0.1, n, Rng(58))}
    assert _draw_counts(monkeypatch, runs[search]) == (2 * n_sub * n, n_sub * n)


def _peak_arrays(run, n, n_sub):
    """tracemalloc peak of ``run()`` in whole (n, N) complex arrays."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * n * n_sub)


def test_sample_channel_peak_memory_is_bounded():
    # the channel itself plus one row block's buffer; drawing each part
    # through a whole-shape buffer took 1.5
    n, n_sub = 100_000, 3
    params = ScenarioParams(n_subcarriers=n_sub)
    rng = Rng(55)  # outside the trace: a first generator's setup is not the draw's
    assert _peak_arrays(lambda: sample_channel(params, rng, n), n, n_sub) <= 1.1


def test_bob_estimate_phase1_peak_memory_is_bounded():
    # the channel and the estimate written over alpha_I * h, plus one row
    # block's buffer; whole-shape buffers took 2.5
    n, n_sub = 100_000, 3
    params = ScenarioParams(n_subcarriers=n_sub, alpha_I=0.8)
    rng = Rng(56)
    assert _peak_arrays(lambda: bob_estimate_phase1(sample_channel(params, rng, n), params, rng),
                        n, n_sub) <= 2.1


@pytest.mark.parametrize("kind", ["llr", "combined"])
def test_stat_shard_peak_memory_is_bounded(kind):
    # a few row blocks' exponentials and pairs, and the two accept masks;
    # scoring whole trial arrays from the trial kernel took 5.1 (llr) and
    # 6.0 (combined), and holding llr's whole Psi vectors 0.24
    n, n_sub = 100_000, 3
    assert _peak_arrays(_stat_shard(kind, n, n_sub), n, n_sub) <= 0.6


def test_llr_shard_keeps_only_its_accept_masks():
    # one row block's Psi at a time: whole Psi vectors of both hypotheses
    # read 0.24; the masks and a block's exponentials read about 0.15
    n, n_sub = 100_000, 3
    assert _peak_arrays(_stat_shard("llr", n, n_sub), n, n_sub) <= 0.2


def test_ideal_shard_peak_memory_is_bounded():
    # the two accept masks and one row block's exponentials (0.28 with both
    # whole Psi vectors); scoring whole trial arrays from the physical chain
    # took 5.85
    n, n_sub = 100_000, 3
    assert _peak_arrays(_stat_shard("ideal", n, n_sub), n, n_sub) <= 1.25


@pytest.mark.parametrize("alpha_ii", [1.0, 0.8])
def test_exponent_grid_peak_memory_is_bounded(alpha_ii):
    # the ordered exponentials, the reference noise and one cell's completed
    # pairs: 1.88 and 2.43 measured, bounded with about an eighth to spare.
    # Forging on the physical chain held the reference, both observations,
    # the perturbation and per-row products (bound 7.0), and 7.86 while it
    # held the channel after the adversary observed it
    n, n_sub = 100_000, 3
    params = ScenarioParams.from_snr(n_sub, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5,
                                     alpha_II=alpha_ii)
    rng = Rng(57)
    assert _peak_arrays(lambda: optimize_attack_exponents((9.0, 0.8), params, 0.5, n, rng),
                        n, n_sub) <= 2.75


def test_optimize_thresholds_peak_memory_is_bounded():
    # at most 0.85 whole (n, N) complex arrays: one hypothesis's theta index byte
    # and |Gamma| per trial, sorted in place, and one row block's pair: 0.75
    # measured. Float Psi and |Gamma| vectors with the counting's copies took
    # 0.92, drawing whole trial arrays 4.1, and 5.5 while H0's statistics
    # outlived their counts
    n, n_sub = 100_000, 3
    params = ScenarioParams(n_subcarriers=n_sub, rho_AE=0.5, rho_EB=0.5)
    law = AttackerSpec(AttackStrategy("simplified")).forger(params).arrival_law()
    assert _peak_arrays(lambda: optimize_thresholds(params, 1e-3, n, Rng(54), law),
                        n, n_sub) <= 0.85


def test_null_calibration_keeps_nine_bytes_per_trial():
    # a calibration's peak grows by its theta index byte and |Gamma| double per
    # trial (9.0 bytes measured): squaring |Gamma| for its spread and sorting it
    # happen in place. Float Psi and |Gamma| with a squared copy, a copy and a
    # sorted copy of |Gamma| for the counting grew by 33 bytes a trial
    scn = ScenarioParams.from_snr(3, 15.0, 20.0)
    peaks = []
    for n in (200_000, 400_000):
        rng = Rng(59)  # outside the trace: a first generator's setup is not the draw's
        tracemalloc.start()
        try:
            statdec.null_calibration(scn, 1e-3, n, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 200_000 <= 12.0
