from fractions import Fraction
import math

import numpy as np
import pytest

from pla_bench import channel, harness
from pla_bench.attacks import (
    AttackStrategy,
    _common_draw_pmd,
    _forged_law,
    mismatched_eval,
    optimize_attack_exponents,
)
from pla_bench.channel import (
    ScenarioParams,
    bob_estimate_phase1,
    eve_observations,
    forged_observation,
    pair_law,
    sample_channel,
)
from pla_bench.errors import ConfigError
from pla_bench.rng import Rng
from pla_bench.statdec import (
    accepts,
    llr_statistic,
    llr_threshold,
    modulus_statistic,
    normal_upper_quantile,
    per_dim_variance,
    weighted_exponential_sums,
)


def _pinned_params(**kw):
    base = dict(n_subcarriers=1, rho_AE=0.5, rho_EB=0.3, rho_AB=0.2,
                sigma2_AE=0.01, sigma2_EB=0.01)
    base.update(kw)
    return ScenarioParams(**base)


ML = AttackStrategy("ml")
SIMPLIFIED = AttackStrategy("simplified")
MODULUS = AttackStrategy("modulus")


def test_ml_attack_matches_exact_rational_solution():
    """The combining weights solve a 2x2 linear system; with rational inputs
    the solution is rational and can be carried exactly with Fraction."""
    params = _pinned_params()
    w = Fraction(101, 100)  # 1 + sigma2 / lambda at lambda = 1
    den = w * w - Fraction(1, 25)
    c_want = (Fraction(3, 10) * w - Fraction(1, 5) * Fraction(1, 2)) / den
    d_want = (Fraction(1, 2) * w - Fraction(1, 5) * Fraction(3, 10)) / den
    assert c_want == Fraction(2030, 9801)
    assert d_want == Fraction(4450, 9801)
    # basis inputs pick out the two weights separately
    d_got = ML.forge(np.array([1.0 + 0j]), np.array([0.0 + 0j]), params)[0]
    c_got = ML.forge(np.array([0.0 + 0j]), np.array([1.0 + 0j]), params)[0]
    assert c_got.real == pytest.approx(float(c_want), rel=1e-14)
    assert d_got.real == pytest.approx(float(d_want), rel=1e-14)
    assert c_got.imag == 0.0 and d_got.imag == 0.0
    # and the coefficients are (a, b) = (D, C) themselves
    a, b = ML.coefficients(params)
    assert a[0] == pytest.approx(float(d_want), rel=1e-14)
    assert b[0] == pytest.approx(float(c_want), rel=1e-14)


def test_ml_attack_is_linear_in_observations():
    params = _pinned_params()
    c = ML.forge(np.array([0j]), np.array([1.0 + 0j]), params)[0]
    d = ML.forge(np.array([1.0 + 0j]), np.array([0j]), params)[0]
    rng = Rng(3)
    h_ae = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h_eb = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    got = ML.forge(h_ae, h_eb, params)
    assert np.allclose(got, c * h_eb + d * h_ae, rtol=1e-13)


def test_ml_attack_per_carrier_weights():
    """Unequal power-delay components give each subcarrier its own solution."""
    params = _pinned_params(n_subcarriers=2, power_delay=np.array([1.0, 4.0]))
    # lambda = 4: w = 1 + 1/400
    w2 = Fraction(401, 400)
    den2 = w2 * w2 - Fraction(1, 25)
    c2 = (Fraction(3, 10) * w2 - Fraction(1, 10)) / den2
    d2 = (Fraction(1, 2) * w2 - Fraction(3, 50)) / den2
    assert c2 == Fraction(32120, 154401)
    assert d2 == Fraction(70600, 154401)
    got_d = ML.forge(np.array([1.0 + 0j, 1.0 + 0j]), np.zeros(2, dtype=complex), params)
    got_c = ML.forge(np.zeros(2, dtype=complex), np.array([1.0 + 0j, 1.0 + 0j]), params)
    assert got_c[0].real == pytest.approx(float(Fraction(2030, 9801)), rel=1e-14)
    assert got_c[1].real == pytest.approx(float(c2), rel=1e-14)
    assert got_d[1].real == pytest.approx(float(d2), rel=1e-14)
    a, b = ML.coefficients(params)
    assert a.shape == b.shape == (2,)
    assert b[1] == pytest.approx(float(c2), rel=1e-14)
    assert a[1] == pytest.approx(float(d2), rel=1e-14)


def test_ml_attack_is_the_scaled_replay_without_adversary_noise():
    """With sigma2_AE = sigma2_EB = rho_AB = 0 the combining weights are
    (rho_AE, rho_EB), so the ML forgery is the simplified one bit for bit."""
    rng = Rng(5)
    for n, rho_ae, rho_eb in ((1, 0.1, 0.0), (3, 0.5, 0.3), (6, 0.9, 0.7)):
        params = ScenarioParams(n_subcarriers=n, rho_AE=rho_ae, rho_EB=rho_eb,
                                power_delay=np.linspace(0.5, 2.0, n))
        h_ae = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        h_eb = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        assert np.array_equal(ML.forge(h_ae, h_eb, params),
                              SIMPLIFIED.forge(h_ae, h_eb, params))
    noisy = _pinned_params(rho_AB=0.0, sigma2_AE=0.1, sigma2_EB=0.0)
    assert not np.array_equal(ML.forge(h_ae[:, :1], h_eb[:, :1], noisy),
                              SIMPLIFIED.forge(h_ae[:, :1], h_eb[:, :1], noisy))


def test_ml_attack_rejects_singular_geometry():
    params = ScenarioParams(n_subcarriers=1, rho_AE=0.5, rho_EB=0.5, rho_AB=1.0)
    with pytest.raises(ConfigError):
        ML.forge(np.array([1.0 + 0j]), np.array([1.0 + 0j]), params)
    with pytest.raises(ConfigError):
        ML.coefficients(params)


def test_ml_attack_perfect_observation_limit():
    # with rho_AE = 1 and no estimation noise the adversary sees the true
    # channel on one link and copies it exactly
    params = ScenarioParams(n_subcarriers=1, rho_AE=1.0, rho_EB=0.0, rho_AB=0.0)
    h = np.array([1.3 - 0.7j])
    g = ML.forge(h, np.array([0j]), params)
    assert np.allclose(g, h, rtol=1e-14)


def test_exponent_reductions_are_bitwise():
    rng = Rng(123)
    for _ in range(50):
        scn = ScenarioParams.from_snr(3, 15.0, 20.0,
                                      rho_AE=float(rng.uniform(0.05, 1.0)),
                                      rho_EB=float(rng.uniform(0.05, 1.0)))
        h_ae = sample_channel(scn, rng)
        h_eb = sample_channel(scn, rng)
        assert np.array_equal(AttackStrategy("exponent", x=1.0, y=1.0).forge(h_ae, h_eb, scn),
                              SIMPLIFIED.forge(h_ae, h_eb, scn))
        assert np.array_equal(AttackStrategy("exponent", x=-1.0, y=-1.0).forge(h_ae, h_eb, scn),
                              MODULUS.forge(h_ae, h_eb, scn))
        # the named replays are the scaled and the inverse-scaled observations
        assert np.array_equal(SIMPLIFIED.forge(h_ae, h_eb, scn),
                              scn.rho_AE * h_ae + scn.rho_EB * h_eb)
        assert np.array_equal(MODULUS.forge(h_ae, h_eb, scn),
                              h_ae / scn.rho_AE + h_eb / scn.rho_EB)


def test_exponent_attack_validation_and_zero_rho():
    scn = ScenarioParams(n_subcarriers=1, rho_AE=0.0, rho_EB=0.5)
    h = np.array([1.0 + 0j])
    with pytest.raises(ConfigError):
        AttackStrategy("exponent", x=1.5, y=0.0)
    with pytest.raises(ConfigError):
        AttackStrategy("exponent", x=-0.5, y=0.0).forge(h, h, scn)
    with pytest.raises(ConfigError):
        AttackStrategy("exponent", x=-0.5, y=0.0).coefficients(scn)
    # 0**0 is taken as 1, any positive exponent kills the term
    assert AttackStrategy("exponent", x=0.0, y=0.0).forge(h, h, scn)[0] == pytest.approx(2.0 + 0j)
    assert AttackStrategy("exponent", x=0.5, y=0.0).forge(h, h, scn)[0] == pytest.approx(1.0 + 0j)
    assert AttackStrategy("exponent", x=0.0, y=0.0).coefficients(scn) == (1.0, 1.0)
    assert AttackStrategy("exponent", x=0.5, y=0.0).coefficients(scn) == (0.0, 1.0)


def test_modulus_attack_needs_nonzero_correlations():
    scn = ScenarioParams(n_subcarriers=1, rho_AE=0.0, rho_EB=0.5)
    h = np.array([1.0 + 0j])
    with pytest.raises(ConfigError):
        MODULUS.forge(h, h, scn)
    with pytest.raises(ConfigError):
        MODULUS.forge(h, h, ScenarioParams(n_subcarriers=1, rho_AE=0.5, rho_EB=0.0))


def test_attack_strategy_validation_and_dispatch():
    with pytest.raises(ConfigError):
        AttackStrategy("replay")
    with pytest.raises(ConfigError):
        AttackStrategy("exponent", x=2.0)
    scn = _pinned_params()
    h_ae = np.array([1.0 + 0.5j])
    h_eb = np.array([-0.5 + 1.0j])
    # every kind forges a * h_ae + b * h_eb from its own coefficients
    assert SIMPLIFIED.coefficients(scn) == (0.5, 0.3)
    assert MODULUS.coefficients(scn) == (0.5**-1.0, 0.3**-1.0)
    assert AttackStrategy("exponent", x=0.5, y=-0.5).coefficients(scn) == (0.5**0.5, 0.3**-0.5)
    for strategy in (ML, SIMPLIFIED, MODULUS, AttackStrategy("exponent", x=0.5, y=-0.5)):
        a, b = strategy.coefficients(scn)
        assert np.array_equal(strategy.forge(h_ae, h_eb, scn), a * h_ae + b * h_eb)


@pytest.mark.parametrize("kind", ["ml", "simplified", "modulus"])
def test_non_exponent_kinds_take_no_exponents(kind):
    # an ignored x would forge the kind's vector under the kind's label
    for xy in ({"x": 0.5}, {"y": -1.0}, {"x": 0.5, "y": 0.5}):
        with pytest.raises(ConfigError, match=f"{kind}.*takes no x or y"):
            AttackStrategy(kind, **xy)
    # the defaults are no setting, so the strategy equals the plain kind
    assert AttackStrategy(kind, x=1.0, y=1.0) == AttackStrategy(kind)


# ---------------------------------------------------------------------------
# exponent grid search


def test_optimize_attack_exponents_requires_rng_and_even_grid():
    scn = _pinned_params()
    with pytest.raises(TypeError):
        optimize_attack_exponents((10.0, 1.0), scn, 0.5, 1000)
    with pytest.raises(ConfigError):
        optimize_attack_exponents((10.0, 1.0), scn, 0.3, 1000, Rng(0))


BAD_GRID_STEPS = [0.0, math.nan, -0.5]


@pytest.mark.parametrize("step", BAD_GRID_STEPS)
def test_optimize_attack_exponents_rejects_a_bad_grid_step(step):
    # a zero or NaN step used to escape as ZeroDivisionError or ValueError,
    # and a negative one passed the "divides [-1, 1]" check
    with pytest.raises(ConfigError, match="grid_step"):
        optimize_attack_exponents((10.0, 1.0), _pinned_params(), step, 1000, Rng(0))


# each bad grid step, and an empty attack draw: (grid_step, n_mc, the field named)
BAD_SEARCHES = [*((step, 2_000, "grid_step") for step in BAD_GRID_STEPS), (0.1, 0, "n_mc")]
BAD_SEARCH_IDS = [*map(str, BAD_GRID_STEPS), "n_mc=0"]


@pytest.mark.parametrize("step, n_mc, field", BAD_SEARCHES, ids=BAD_SEARCH_IDS)
def test_search_cell_rejects_a_bad_grid_step_before_calibrating(monkeypatch, step, n_mc, field):
    calls = []
    for name in ("null_calibration", "select_thresholds"):  # every calibration draw
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError, match=field):
        harness._search_cell(_pinned_params(), 1e-2, 1_000_000, n_mc, Rng(0), step)
    assert calls == []


def test_attack_evaluator_rejects_an_empty_draw():
    # a P_MD over no trials has no value; it must not become a NaN optimum
    scn = _pinned_params()
    with pytest.raises(ConfigError, match="n_mc must be positive"):
        optimize_attack_exponents((10.0, 1.0), scn, 0.5, 0, Rng(0))
    with pytest.raises(ConfigError, match="n_mc must be positive"):
        mismatched_eval(SIMPLIFIED, scn, 0, Rng(0), 10.0, 1.0)


def test_optimize_attack_exponents_tie_break_prefers_one_one():
    # with both correlations at one every grid cell forges the same vector,
    # and wide-open thresholds accept everything: the tie-break must pick
    # the largest exponents
    scn = ScenarioParams(n_subcarriers=1, rho_AE=1.0, rho_EB=1.0)
    x, y, pmd = optimize_attack_exponents((1e9, 1e9), scn, grid_step=0.5,
                                          n_mc=2000, rng=Rng(5))
    assert (x, y) == (1.0, 1.0)
    assert pmd == 1.0


def test_optimize_attack_exponents_deterministic_and_bounded():
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.9, rho_EB=0.9)
    a = optimize_attack_exponents((5.0, 0.5), scn, grid_step=0.5, n_mc=4000, rng=Rng(6))
    b = optimize_attack_exponents((5.0, 0.5), scn, grid_step=0.5, n_mc=4000, rng=Rng(6))
    assert a == b
    x, y, pmd = a
    assert -1.0 <= x <= 1.0 and -1.0 <= y <= 1.0
    assert 0.0 <= pmd <= 1.0


def test_optimize_attack_exponents_agrees_with_mismatched_eval():
    # one evaluator serves both: the grid's optimum scores exactly what
    # evaluating that exponent attack on the same rng scores
    scn = ScenarioParams.from_snr(2, 15.0, 20.0, rho_AE=0.7, rho_EB=0.6, alpha_II=0.9)
    n_mc = 4000
    x, y, pmd = optimize_attack_exponents((9.0, 0.8), scn, grid_step=0.5, n_mc=n_mc, rng=Rng(7))
    atk = AttackStrategy("exponent", x=x, y=y)
    assert mismatched_eval(atk, scn, n_mc, Rng(7), 9.0, 0.8) == pmd


def test_optimize_attack_exponents_with_zero_rho_ae_reports_a_forgeable_cell():
    # with rho_AE = 0 no negative x can be forged, and x = 0 forges 1 * h_ae
    scn = ScenarioParams.from_snr(2, 15.0, 20.0, rho_AE=0.0, rho_EB=0.6)
    n_mc = 4000
    x, y, pmd = optimize_attack_exponents((9.0, 0.8), scn, grid_step=0.5, n_mc=n_mc, rng=Rng(8))
    assert x >= 0.0
    atk = AttackStrategy("exponent", x=x, y=y)
    atk.coefficients(scn)
    assert mismatched_eval(atk, scn, n_mc, Rng(8), 9.0, 0.8) == pmd
    with pytest.raises(ConfigError):
        mismatched_eval(AttackStrategy("exponent", x=-0.5, y=y), scn, n_mc, Rng(8), 9.0, 0.8)


@pytest.mark.parametrize("epsilon", [0.8, None])
def test_common_draw_pmd_equals_one_mismatched_eval_per_strategy(epsilon):
    # fig1 scores its three attackers in one call on the stream each of
    # three mismatched_eval calls would redraw
    scn = ScenarioParams.from_snr(3, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5, alpha_II=0.8)
    strategies = [AttackStrategy("exponent", x=0.5, y=-0.5), SIMPLIFIED, MODULUS]
    shared = _common_draw_pmd(strategies, scn, 4000, Rng(16), 9.0, epsilon)
    assert shared == [mismatched_eval(s, scn, 4000, Rng(16), 9.0, epsilon) for s in strategies]


def _forged_arrivals(strategies, scn, n_mc, rng):
    """(h_bar, sigma_n^2, each strategy's forged arrivals) of the physical
    chain: channel, reference, the adversary's observations and a zero
    forgery's phase-II arrival, every cell forged whole."""
    h = sample_channel(scn, rng, size=n_mc)
    h_bar = bob_estimate_phase1(h, scn, rng)
    observed = eve_observations(h, scn, rng)
    perturbation = forged_observation(np.zeros_like(h), scn, rng)
    return h_bar, per_dim_variance(scn), [s.forge(*observed, scn) + perturbation
                                          for s in strategies]


def _grid_pairs(strategies, scn, n_mc, rng):
    """Each strategy's (reference, arrival) pairs on the draws
    ``_common_draw_pmd`` makes on ``rng``: the trials ordered by their sum of
    exponentials, each row of reference noise paired with one ordered trial."""
    s, e = weighted_exponential_sums(np.ones(scn.n_subcarriers), rng.derive(0), n_mc,
                                     lambda s, e, fill: (s, e.T))
    e = e[np.argsort(s)]
    z = channel.reference_noise(rng.derive(1), e.shape)
    pairs = []
    for strategy in strategies:
        v, beta, w = pair_law(scn, _forged_law(*strategy.coefficients(scn), scn))
        x = np.sqrt(v * e)  # |x|^2 = v E, real
        ref = beta * x + np.sqrt(w) * z
        pairs.append((ref, ref + x))
    return pairs


def _assert_counts_agree(strategies, scn, seed, combined):
    """``_common_draw_pmd`` counts within 2 of ``accepts`` on the pairs it
    scores, and each cell's P_MD agrees with forging the cell on the
    physical chain, on independent draws, within a Bonferroni bound of
    family-wise level 1e-3 over the cells. The thresholds sit at the median
    Psi (and median |Gamma|) of all the chain's cells, so that the counts
    move with the coefficients."""
    n_mc = 20_000
    h_bar, s2, arrivals = _forged_arrivals(strategies, scn, n_mc, Rng(seed))
    theta = float(np.median([llr_statistic(f, h_bar, s2) for f in arrivals]))
    eps = None
    if combined:
        eps = float(np.median([np.abs(modulus_statistic(h_bar, f)) for f in arrivals]))
    chain = np.array([np.count_nonzero(accepts(f, h_bar, s2, theta, eps)) for f in arrivals])
    grid_rng = Rng(seed).derive(1)  # no stream the chain drew on
    got = np.rint(np.array(_common_draw_pmd(strategies, scn, n_mc, grid_rng, theta, eps)) * n_mc)
    own = np.array([np.count_nonzero(accepts(arrival, ref, s2, theta, eps))
                    for ref, arrival in _grid_pairs(strategies, scn, n_mc, grid_rng)])
    assert np.all(np.abs(got - own) <= 2), np.abs(got - own).max()
    pooled = (got + chain) / (2 * n_mc)
    se = np.maximum(np.sqrt(pooled * (1 - pooled) * 2 / n_mc), 1 / n_mc)
    z = np.abs(got - chain) / n_mc / se
    assert z.max() <= normal_upper_quantile(1e-3 / (2 * len(strategies))), z.max()
    assert np.any((0 < chain) & (chain < n_mc)), chain


@pytest.mark.parametrize("combined", [False, True])
@pytest.mark.parametrize("alpha_ii", [1.0, 0.8])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_common_draw_pmd_agrees_with_forging_each_cell(n, alpha_ii, combined):
    # Psi and Gamma on the per-carrier law, scored only on the trials whose
    # Psi can pass, must count what accepts counts on the same pairs, and
    # what forging every cell on the physical chain gives up to sampling
    scn = ScenarioParams.from_snr(n, 15.0, 20.0, rho_AE=0.6, rho_EB=0.4, alpha_II=alpha_ii)
    steps = (-1.0, -0.5, 0.0, 0.5, 1.0)
    cells = [AttackStrategy("exponent", x=x, y=y) for x in steps for y in steps]
    _assert_counts_agree(cells + [ML, SIMPLIFIED, MODULUS], scn, 21, combined)


@pytest.mark.parametrize("combined", [False, True])
def test_common_draw_pmd_agrees_with_forging_per_carrier_weights(combined):
    # adversary noise, rho_AB and an uneven profile give the ml attacker its
    # own (a_n, b_n) on every carrier
    scn = ScenarioParams.from_snr(3, 15.0, 20.0, rho_AE=0.7, rho_EB=0.5, rho_AB=0.3,
                                  sigma2_AE=0.05, sigma2_EB=0.02, alpha_II=0.8,
                                  power_delay=np.array([0.4, 1.0, 1.6]))
    a, b = ML.coefficients(scn)
    assert np.unique(a).size == np.unique(b).size == 3
    _assert_counts_agree([ML], scn, 22, combined)


@pytest.mark.parametrize("n", [1, 3])
def test_table1_points_score_swapped_exponents_alike(n):
    # at table1's points (rho_AE = rho_EB, no adversary noise) the two
    # observations are one vector, so every cell forges (rho^x + rho^y) u
    # and the grid is a one-parameter family in c = rho^x + rho^y
    scn = ScenarioParams.from_snr(n, 15.0, 20.0, rho_AE=0.1, rho_EB=0.1)
    h = sample_channel(scn, Rng(23), size=500)
    h_ae, h_eb = eve_observations(h, scn, Rng(24))
    assert np.array_equal(h_ae, h_eb)
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    pairs = [(x, y) for x in grid for y in grid if x < y]
    cells = [AttackStrategy("exponent", x=x, y=y) for x, y in pairs]
    swapped = [AttackStrategy("exponent", x=y, y=x) for x, y in pairs]
    theta, eps = llr_threshold(scn, 1e-4), 1.0
    pmds = _common_draw_pmd(cells, scn, 4000, Rng(25), theta, eps)
    assert pmds == _common_draw_pmd(swapped, scn, 4000, Rng(25), theta, eps)
    assert max(pmds) > 0


# ---------------------------------------------------------------------------
# mismatched evaluation


def test_mismatched_eval_deterministic():
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.7, rho_EB=0.7)
    atk = AttackStrategy("simplified")
    a = mismatched_eval(atk, scn, 5000, Rng(12), theta=4.0)
    b = mismatched_eval(atk, scn, 5000, Rng(12), theta=4.0)
    assert a == b


def test_mismatched_eval_wide_open_thresholds_accept_all():
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    atk = AttackStrategy("simplified")
    assert mismatched_eval(atk, scn, 2000, Rng(13), theta=1e12) == 1.0
    assert mismatched_eval(atk, scn, 2000, Rng(13), theta=1e12,
                           epsilon=1e12) == 1.0


def test_mismatched_eval_combined_reduces_to_llr_for_huge_epsilon():
    scn = ScenarioParams.from_snr(2, 15.0, 20.0, rho_AE=0.8, rho_EB=0.6)
    atk = AttackStrategy("ml")
    llr_only = mismatched_eval(atk, scn, 20_000, Rng(14), theta=6.0)
    combined = mismatched_eval(atk, scn, 20_000, Rng(14), theta=6.0,
                               epsilon=1e12)
    assert llr_only == combined


def test_mismatched_eval_monotone_in_theta():
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.7, rho_EB=0.7)
    atk = AttackStrategy("simplified")
    vals = [mismatched_eval(atk, scn, 10_000, Rng(15), theta=t)
            for t in (0.5, 2.0, 8.0, 32.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
