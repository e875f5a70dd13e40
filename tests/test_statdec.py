import itertools
import math

import numpy as np
import pytest
from scipy import stats

from pla_bench import channel, harness, statdec
from pla_bench.attacks import AttackerSpec, AttackStrategy
from pla_bench.channel import (
    ScenarioParams,
    alice_estimate_phase2,
    bob_estimate_phase1,
    forged_observation,
    genuine_arrival_law,
    pair_law,
    pairs_given_exponentials,
    sample_channel,
)
from pla_bench.errors import ConfigError, InfeasibleTargetError
from pla_bench.rng import Rng
from pla_bench.statdec import (
    ThresholdResult,
    accepts,
    analytic_pfa_pmd,
    calibrate_threshold,
    ideal_llr,
    ideal_weights,
    llr_statistic,
    llr_threshold,
    llr_weights,
    modulus_statistic,
    ncx2_cdf,
    ncx2_inv,
    noncentrality_beta,
    noncentrality_mu,
    nominal_mu,
    normal_upper_quantile,
    null_calibration,
    optimize_thresholds,
    per_dim_variance,
    select_thresholds,
    weighted_exponential_sums,
)

# ---------------------------------------------------------------------------
# per-dimension variance


def test_per_dim_variance_frozen_values():
    # sigma2_I + sigma2_II with all fading coefficients at one
    params = ScenarioParams.from_snr(1, 15.0, 20.0)
    assert per_dim_variance(params)[0] == pytest.approx(0.041622776601683795, abs=1e-15)
    # dropping alpha_II to 0.8 adds 1 - 0.64 = 0.36
    params2 = ScenarioParams.from_snr(1, 15.0, 20.0, alpha_II=0.8)
    assert per_dim_variance(params2)[0] == pytest.approx(0.401622776601683795, abs=1e-15)
    # so does dropping alpha_I to 0.8
    params3 = ScenarioParams.from_snr(1, 15.0, 20.0, alpha_I=0.8)
    assert per_dim_variance(params3)[0] == pytest.approx(0.401622776601683795, abs=1e-15)


def test_per_dim_variance_is_a_vector():
    params = ScenarioParams.from_snr(2, 15.0, 20.0, alpha_I=np.array([1.0, 0.8]))
    got = per_dim_variance(params)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(0.041622776601683795)
    assert got[1] == pytest.approx(0.401622776601683795)


# ---------------------------------------------------------------------------
# noncentral chi-square numerics


def test_central_cdf_dof2_closed_form():
    # with two degrees of freedom the central cdf is 1 - exp(-x/2)
    for x in (0.1, 0.5, 1.0, 3.0, 10.0, 25.0):
        assert ncx2_cdf(x, 2, 0.0) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-12)


def test_central_inverse_dof2_closed_form():
    # the bisection contract is |cdf(inv(p)) - p| <= 1e-9, so extreme
    # quantiles may sit ~1e-9/pdf away from the exact point in x space
    q_med = ncx2_inv(0.5, 2, 0.0)
    assert q_med == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
    q_tail = ncx2_inv(1.0 - 1e-4, 2, 0.0)
    assert q_tail == pytest.approx(18.420680743952367, abs=1e-4)
    assert 1.0 - math.exp(-q_tail / 2.0) == pytest.approx(1.0 - 1e-4, abs=2e-9)


def test_cdf_matches_scipy_on_grid():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(300):
        dof = int(rng.integers(1, 17))
        delta = float(rng.choice([0.0, rng.uniform(0, 5), rng.uniform(0, 60)]))
        mean = dof + delta
        sd = math.sqrt(2 * (dof + 2 * delta))
        x = float(rng.choice([rng.uniform(0.0, mean), mean + rng.uniform(0, 6) * sd]))
        worst = max(worst, abs(ncx2_cdf(x, dof, delta) - stats.ncx2.cdf(x, dof, delta)))
    assert worst < 1e-10


def test_cdf_edge_values():
    assert ncx2_cdf(0.0, 2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert ncx2_cdf(-1.0, 2, 1.0) == 0.0
    assert ncx2_cdf(1e6, 4, 10.0) == pytest.approx(1.0, abs=1e-12)


def test_cdf_broadcasts_over_inputs():
    xs = np.array([1.0, 5.0, 20.0])
    got = ncx2_cdf(xs, 4, 3.0)
    assert got.shape == (3,)
    for x, g in zip(xs, got):
        assert g == pytest.approx(stats.ncx2.cdf(x, 4, 3.0), abs=1e-10)


def test_series_stagnation_regression():
    """Far right tail with noncentrality above ~2 used to spin until the
    iteration cap because the Poisson-weight underflow guard was missing
    from the upward sweep."""
    x, dof, delta = 9.931764073883526, 2, 8.121208164742754
    assert ncx2_cdf(x, dof, delta) == pytest.approx(stats.ncx2.cdf(x, dof, delta), abs=1e-12)
    # a case where the whole mass sits far left of the evaluation point
    far = (4 + 9.0) + 12 * math.sqrt(2 * (4 + 18.0))
    assert ncx2_cdf(far, 4, 9.0) == pytest.approx(1.0, abs=1e-9)


def test_inverse_round_trips():
    for p, dof, delta in [
        (1e-4, 2, 0.0),
        (0.5, 2, 3.0),
        (0.999, 6, 10.0),
        (0.01, 12, 40.0),
        (1 - 1e-4, 2, 8.121208164742754),
    ]:
        q = ncx2_inv(p, dof, delta)
        assert ncx2_cdf(q, dof, delta) == pytest.approx(p, abs=2e-9)


def test_inverse_validation():
    with pytest.raises(ConfigError):
        ncx2_inv(0.0, 2, 1.0)
    with pytest.raises(ConfigError):
        ncx2_inv(1.0, 2, 1.0)
    with pytest.raises(ConfigError):
        ncx2_inv(-0.5, 2, 1.0)
    with pytest.raises(ConfigError):
        ncx2_inv(0.5, 2, -1.0)


def test_normal_upper_quantile_matches_scipy():
    for q in (0.25, 0.1, 0.01, 1e-4, 1e-6):
        z = normal_upper_quantile(q)
        # accuracy is guaranteed in tail-probability space, not in z space
        assert stats.norm.sf(z) == pytest.approx(q, abs=1e-9)
        assert z == pytest.approx(stats.norm.isf(q), abs=1e-3)
    with pytest.raises(ConfigError):
        normal_upper_quantile(0.5)
    with pytest.raises(ConfigError):
        normal_upper_quantile(0.0)
    with pytest.raises(ConfigError):
        normal_upper_quantile(-0.1)


# ---------------------------------------------------------------------------
# LLR statistic and closed-form error rates


def _reference(n=2):
    return np.arange(1, n + 1).astype(complex)


def test_llr_statistic_zero_at_reference():
    h_bar = _reference()
    assert llr_statistic(h_bar, h_bar, np.full(2, 0.5)) == pytest.approx(0.0)


def test_llr_statistic_direct_formula():
    h_bar, s2 = _reference(3), np.array([0.5, 0.25, 2.0])
    rng = Rng(1)
    h_hat = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    want = 2.0 * np.sum(np.abs(h_hat - h_bar) ** 2 / s2)
    assert llr_statistic(h_hat, h_bar, s2) == pytest.approx(want, rel=1e-12)


def test_llr_statistic_scales_inversely_with_variance():
    h_bar = _reference()
    h_hat = np.array([0.3 + 0.4j, -1.0 + 0j])
    base = llr_statistic(h_hat, h_bar, np.full(2, 0.5))
    assert base == pytest.approx(2.0 * llr_statistic(h_hat, h_bar, np.full(2, 1.0)))


def test_llr_statistic_batches_rows():
    h_bar = _reference()
    got = llr_statistic(np.tile(h_bar, (5, 1)), h_bar, np.full(2, 0.5))
    assert got.shape == (5,)
    assert np.allclose(got, 0.0)
    # one reference per row broadcasts the same way
    refs = np.tile(h_bar, (5, 1))
    assert np.allclose(llr_statistic(refs + 1.0, refs, np.full(2, 0.5)), 8.0)


def test_statistic_distribution_under_h0():
    """With a fresh reference per trial the statistic is noncentral
    chi-square with 2N degrees of freedom; checked by Kolmogorov-Smirnov
    at the one percent level."""
    n_trials = 100_000
    params = ScenarioParams.from_snr(2, 15.0, 20.0, alpha_II=0.9)
    rng = Rng(17)
    h = sample_channel(params, rng)
    s2 = per_dim_variance(params)
    # fresh reference and fresh genuine estimate per trial
    noise_ref = (rng.standard_normal((n_trials, 2)) + 1j * rng.standard_normal((n_trials, 2))) * math.sqrt(params.sigma2_I / 2)
    h_bar = h + noise_ref
    fade = (rng.standard_normal((n_trials, 2)) + 1j * rng.standard_normal((n_trials, 2))) * math.sqrt(0.5)
    noise = (rng.standard_normal((n_trials, 2)) + 1j * rng.standard_normal((n_trials, 2))) * math.sqrt(params.sigma2_II / 2)
    h_hat = 0.9 * h + math.sqrt(1 - 0.81) * fade + noise
    psi = llr_statistic(h_hat, h_bar, s2)
    mu = noncentrality_mu(params, h)
    grid = np.sort(psi)
    emp = np.arange(1, n_trials + 1) / n_trials
    model = ncx2_cdf(grid, 4, mu)
    ks = np.max(np.abs(emp - model))
    assert ks < 1.63 / math.sqrt(n_trials)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("alpha_ii", [1.0, 0.8])
@pytest.mark.parametrize("pfa", [1e-2, 1e-4])
def test_llr_threshold_leaves_pfa_above_it(n, alpha_ii, pfa):
    scn = ScenarioParams.from_snr(n, 15.0, 20.0, alpha_II=alpha_ii)
    theta = llr_threshold(scn, pfa)
    assert abs(1.0 - ncx2_cdf(theta, 2 * n, nominal_mu(scn)) - pfa) <= 1e-9


def test_noncentrality_mu_zero_when_coefficients_match():
    params = ScenarioParams.from_snr(2, 15.0, 20.0, alpha_I=0.9, alpha_II=0.9)
    h = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    assert noncentrality_mu(params, h) == pytest.approx(0.0, abs=1e-15)


def test_noncentrality_mu_hand_value():
    params = ScenarioParams.from_snr(3, 15.0, 20.0, alpha_II=0.9)
    h = np.array([1.0 + 0j, 1.0 + 1.0j, 2.0j])
    s2 = 10**-1.5 + 10**-2 + (1.0 - 0.81)
    want = (2.0 / s2) * 0.01 * (1.0 + 2.0 + 4.0)
    assert noncentrality_mu(params, h) == pytest.approx(want, rel=1e-12)


def test_noncentrality_beta_zero_at_perfect_forgery():
    params = ScenarioParams.from_snr(2, 15.0, 20.0)
    h = np.array([1.0 + 1.0j, -0.5 + 2.0j])
    assert noncentrality_beta(h, params, h) == pytest.approx(0.0, abs=1e-15)


def test_noncentrality_beta_grows_with_distance():
    params = ScenarioParams.from_snr(1, 15.0, 20.0)
    h = np.array([1.0 + 0j])
    betas = [noncentrality_beta(h + off, params, h) for off in (0.1, 0.5, 1.0, 2.0)]
    assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))


def test_noncentrality_beta_hand_value():
    params = ScenarioParams.from_snr(1, 15.0, 20.0)
    h = np.array([1.0 + 0j])
    g = np.array([0.5 + 0.5j])
    s2 = 10**-1.5 + 10**-2
    want = (2.0 / s2) * abs(0.5 + 0.5j - 1.0) ** 2
    assert noncentrality_beta(g, params, h) == pytest.approx(want, rel=1e-12)


def test_analytic_rates_identities():
    mu = 1.5
    pfa_lo, pmd_lo = analytic_pfa_pmd(1e-9, mu, 4.0, 2)
    assert pfa_lo == pytest.approx(1.0, abs=1e-9)
    assert pmd_lo == pytest.approx(0.0, abs=1e-9)
    pfa_hi, pmd_hi = analytic_pfa_pmd(1e4, mu, 4.0, 2)
    assert pfa_hi == pytest.approx(0.0, abs=1e-12)
    assert pmd_hi == pytest.approx(1.0, abs=1e-12)
    # when the adversary reproduces the legitimate statistics the two
    # error rates are complementary
    pfa, pmd = analytic_pfa_pmd(6.0, mu, mu, 2)
    assert pfa + pmd == pytest.approx(1.0, abs=1e-12)


def test_analytic_rates_accept_beta_array():
    pfa, pmd = analytic_pfa_pmd(6.0, 0.0, np.array([0.0, 2.0, 8.0]), 1)
    assert np.shape(pmd) == (3,)
    assert np.all(np.diff(pmd) < 0)


def test_nominal_mu_averages_the_channel_power():
    # the genuine noncentrality for a channel of power p on every carrier
    params = ScenarioParams.from_snr(2, 15.0, 20.0, alpha_I=0.95, alpha_II=0.8,
                                     power_delay=np.array([1.5, 0.5]))
    h = np.sqrt(params.power_delay).astype(complex)
    assert nominal_mu(params) == pytest.approx(noncentrality_mu(params, h), rel=1e-12)
    assert nominal_mu(ScenarioParams.from_snr(1, 15.0, 20.0)) == 0.0


# ---------------------------------------------------------------------------
# modulus statistic and the accept rule


def test_modulus_statistic_zero_and_phase_blind():
    h_bar = np.array([1.0 + 1.0j, 2.0 + 0j])
    assert modulus_statistic(h_bar, h_bar) == pytest.approx(0.0, abs=1e-15)
    phases = np.exp(1j * np.array([0.3, -2.0]))
    assert modulus_statistic(h_bar, h_bar * phases) == pytest.approx(0.0, abs=1e-12)
    assert modulus_statistic(h_bar, -h_bar) == pytest.approx(0.0, abs=1e-12)


def test_modulus_statistic_sign_and_batch():
    h_bar = np.array([2.0 + 0j])
    assert modulus_statistic(h_bar, np.array([1.0 + 0j])) == pytest.approx(1.0)
    assert modulus_statistic(h_bar, np.array([3.0 + 0j])) == pytest.approx(-1.0)
    batch = np.array([[1.0 + 0j], [2.0 + 0j], [4.0 + 0j]])
    got = modulus_statistic(h_bar, batch)
    assert np.allclose(got, [1.0, 0.0, -2.0])


def test_llr_decide_boundary():
    # Psi = 2 |h_hat - h_bar|^2 / s2 = |d|^2 with s2 = 2; the boundary accepts
    h_bar, s2 = np.array([0.0 + 0j]), np.array([2.0])
    h_hat = np.array([[2.0 + 0j], [2.0 + 1e-6j], [0.0 + 0j]])
    assert accepts(h_hat, h_bar, s2, 4.0).tolist() == [True, False, True]


def test_combined_decide_truth_table():
    # Psi = |h_hat - 2|^2 and Gamma = 2 - |h_hat| on one real carrier
    h_bar, s2 = np.array([2.0 + 0j]), np.array([2.0])
    h_hat = np.array([[1.5], [1.0], [3.0], [4.5], [0.5], [4.0]], dtype=complex)
    # Psi:   0.25, 1, 1, 6.25, 2.25, 4;  Gamma: 0.5, 1, -1, -2.5, 1.5, -2
    assert accepts(h_hat, h_bar, s2, 5.0, 1.0).tolist() == [True, True, True, False, False, False]
    assert accepts(h_hat, h_bar, s2, 5.0).tolist() == [True, True, True, False, True, True]


def _full_row_accepts(h_hat, h_bar, s2, theta, epsilon):
    return ((llr_statistic(h_hat, h_bar, s2) <= theta)
            & (np.abs(modulus_statistic(h_bar, h_hat)) <= epsilon))


@pytest.mark.parametrize("theta", [-1.0, 3.0, 6.0, 1e9], ids=["none", "few", "many", "all"])
def test_accepts_computes_gamma_only_where_psi_passes(theta):
    rng = Rng(50)
    s2 = np.array([0.5, 1.0, 2.0])
    h_bar = rng.standard_normal((4_000, 3)) + 1j * rng.standard_normal((4_000, 3))
    h_hat = h_bar + 0.7 * (rng.standard_normal((4_000, 3)) + 1j * rng.standard_normal((4_000, 3)))
    want = _full_row_accepts(h_hat, h_bar, s2, theta, 0.4)
    got = accepts(h_hat, h_bar, s2, theta, 0.4)
    assert got.dtype == bool and np.array_equal(got, want)
    # one reference broadcast against many rows
    got = accepts(h_hat, h_bar[0], s2, theta, 0.4)
    assert np.array_equal(got, _full_row_accepts(h_hat, h_bar[0], s2, theta, 0.4))


def test_accepts_gives_a_0d_result_for_one_vector():
    # Psi = |h_hat - h_bar|^2 summed over carriers and Gamma = 3 - sum |h_hat|
    h_bar, s2 = np.array([2.0 + 0j, 1.0j]), np.array([2.0, 2.0])
    for scale, epsilon, want_combined, want_llr in [(1.1, 1.0, True, True),    # Psi 0.17, |Gamma| 0.3
                                                    (3.0, 1.0, False, False),  # Psi 20
                                                    (1.5, 0.1, False, True)]:  # |Gamma| 1.5
        combined = accepts(scale * h_bar, h_bar, s2, 5.0, epsilon)
        llr = accepts(scale * h_bar, h_bar, s2, 5.0)
        assert np.ndim(combined) == 0 and bool(combined) == want_combined
        assert np.ndim(llr) == 0 and bool(llr) == want_llr


def _theta_index(psi, theta_grid):
    """``_pair_statistics``'s index: the first theta_j >= psi, theta_grid.size past it."""
    return np.searchsorted(theta_grid, psi, side="left").astype(np.uint8)


def test_acceptance_counts_match_the_add_at_histogram():
    theta_grid = np.linspace(1.0, 4.0, 7)
    eps_grid = np.linspace(0.0, 2.0, 5)
    rng = Rng(51)
    # values on the grid points, between them, below the first and beyond the last
    psi = np.concatenate([theta_grid, rng.uniform(0.0, 5.0, 500), [0.0, 4.0, 4.5, 1e9]])
    gam = np.concatenate([eps_grid, eps_grid[:2], rng.uniform(0.0, 3.0, 500), [2.0, 0.0, 9.0, 2.5]])
    j_idx = np.searchsorted(theta_grid, psi, side="left")
    k_idx = np.searchsorted(eps_grid, gam, side="left")
    hist = np.zeros((theta_grid.size + 1, eps_grid.size + 1), dtype=np.int64)
    np.add.at(hist, (j_idx, k_idx), 1)
    want = hist[:-1, :-1].cumsum(axis=0).cumsum(axis=1)
    got = statdec._acceptance_counts(_theta_index(psi, theta_grid), gam.copy(), theta_grid.size,
                                     eps_grid)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the definition: psi <= theta_j and |gamma| <= eps_k
    assert got[2, 3] == np.sum((psi <= theta_grid[2]) & (gam <= eps_grid[3]))


def _counts_by_definition(psi, gam, theta_grid, eps_grid):
    """counts[j, k] = #{psi <= theta_j and |gamma| <= eps_k}, one cell at a time."""
    return np.array([[np.count_nonzero((psi <= t) & (gam <= e)) for e in eps_grid]
                     for t in theta_grid])


@pytest.mark.parametrize("where", ["mixed", "all below", "all above", "empty"])
def test_acceptance_counts_are_their_definition(where):
    # the rows below theta_0 are counted by one sort of their |gamma|, the
    # rest binned; both must give the brute-force count at every grid pair
    theta_grid = np.linspace(1.0, 4.0, statdec._GRID_POINTS)
    eps_grid = np.linspace(0.0, 2.0, statdec._GRID_POINTS)
    rng = Rng(52)
    n = 3_000
    # every third value sits exactly on a grid point, of theta and of eps
    on_theta = theta_grid[rng.integers(0, theta_grid.size, n)]
    on_eps = eps_grid[rng.integers(0, eps_grid.size, n)]
    gam = np.where(np.arange(n) % 3 == 0, on_eps, rng.uniform(0.0, 2.5, n))
    psi = {"mixed": np.where(np.arange(n) % 3 == 1, on_theta, rng.uniform(0.0, 5.0, n)),
           "all below": np.concatenate([[theta_grid[0]], rng.uniform(0.0, 1.0, n - 1)]),
           "all above": rng.uniform(4.0, 9.0, n) + np.spacing(4.0),
           "empty": np.empty(0)}[where]
    gam = gam[:psi.size]
    consumed = gam.copy()
    got = statdec._acceptance_counts(_theta_index(psi, theta_grid), consumed, theta_grid.size,
                                     eps_grid)
    assert got.shape == (theta_grid.size, eps_grid.size) and got.dtype == np.int64
    assert np.array_equal(got, _counts_by_definition(psi, gam, theta_grid, eps_grid))
    # the input is sorted in place, the rows above theta_0 set to +inf
    assert np.array_equal(consumed, np.sort(np.where(psi <= theta_grid[0], gam, np.inf)))
    if where == "all below":
        assert np.array_equal(got[0], got[-1])  # every row passes every theta
    if where in ("all above", "empty"):
        assert not got.any()


def test_pair_statistics_keep_the_first_theta_at_or_above_psi():
    # the index of the first theta_j >= Psi, 64 past the grid, in one byte; screened
    # by the top of the grid, only the rows that can pass are kept. The grid is
    # drawn Psi values, so a row on a grid point takes that point's index
    scn = _table1_scenario(3)
    law = genuine_arrival_law(scn)
    psi = weighted_exponential_sums(llr_weights(scn, law), Rng(53), 20_000)
    theta_grid = np.quantile(psi, np.linspace(0.5, 0.99, statdec._GRID_POINTS),
                             method="inverted_cdf")
    assert np.isin(theta_grid, psi).all() and np.all(np.diff(theta_grid) > 0)
    j, _ = statdec._pair_statistics(scn, Rng(53), 20_000, law, theta_grid)
    assert j.dtype == np.uint8 and np.array_equal(j, np.searchsorted(theta_grid, psi))
    assert 0 < np.count_nonzero(j == 0) < psi.size and np.any(j == theta_grid.size)
    j, _ = statdec._pair_statistics(scn, Rng(53), 20_000, law, theta_grid, theta_grid[-1])
    assert np.array_equal(j, np.searchsorted(theta_grid, psi[psi <= theta_grid[-1]]))


def test_a_square_root_restores_the_square_of_a_double():
    # null_calibration squares |Gamma| in place for its spread and roots it
    # back: exact in binary floating point when the square does not underflow,
    # on a 10^5-trial calibration's |Gamma| and on doubles from 2^-500 to 2^500
    scn = _table1_scenario(3)
    _, gam = statdec._pair_statistics(scn, Rng(53), 100_000, genuine_arrival_law(scn),
                                      np.linspace(1.0, 2.0, statdec._GRID_POINTS))
    rng = Rng(54)
    doubles = rng.uniform(1.0, 2.0, 1_000_000) * np.exp2(rng.integers(-500, 500, 1_000_000))
    for g in (gam, doubles, -doubles):
        assert np.array_equal(np.sqrt(np.square(g)), np.abs(g))


# ---------------------------------------------------------------------------
# threshold optimization


def test_optimize_thresholds_validation():
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    with pytest.raises(ConfigError):
        optimize_thresholds(scn, 0.0, 100_000, Rng(0), AttackerSpec().forger(scn).arrival_law())
    with pytest.raises(ConfigError):
        optimize_thresholds(scn, 1.0, 100_000, Rng(0), AttackerSpec().forger(scn).arrival_law())
    with pytest.raises(ConfigError):
        optimize_thresholds(scn, 1e-3, 50_000, Rng(0), AttackerSpec().forger(scn).arrival_law())


def test_optimize_thresholds_infeasible_with_coarse_grid(monkeypatch):
    # two grid points per axis leave only the corners, all of which sit
    # far outside the binomial interval around the target
    monkeypatch.setattr(statdec, "_GRID_POINTS", 2)
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    with pytest.raises(InfeasibleTargetError):
        optimize_thresholds(scn, 1e-2, 100_000, Rng(8), AttackerSpec().forger(scn).arrival_law())


def test_optimize_thresholds_happy_path():
    target = 1e-2
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    res = optimize_thresholds(scn, target, 200_000, Rng(21),
                              AttackerSpec().forger(scn).arrival_law())
    assert isinstance(res, ThresholdResult)
    assert res.n_feasible >= 1
    assert res.epsilon > 0
    lo = ncx2_inv(1.0 - 2.0 * target, 2, 0.0)
    hi = ncx2_inv(1.0 - target / 10.0, 2, 0.0)
    assert lo - 1e-9 <= res.theta <= hi + 1e-9
    ci = 1.96 * math.sqrt(target * (1 - target) / 200_000)
    assert abs(res.pfa_estimate - target) <= ci
    assert 0.0 <= res.pmd_estimate <= 1.0


def test_optimize_thresholds_false_alarm_on_fresh_stream():
    target = 1e-2
    n_check = 200_000
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    res = optimize_thresholds(scn, target, 200_000, Rng(30),
                              AttackerSpec().forger(scn).arrival_law())
    rng = Rng(31)
    h = sample_channel(scn, rng, size=n_check)
    noise_ref = (rng.standard_normal((n_check, 1)) + 1j * rng.standard_normal((n_check, 1))) * math.sqrt(scn.sigma2_I / 2)
    h_bar = h + noise_ref
    noise = (rng.standard_normal((n_check, 1)) + 1j * rng.standard_normal((n_check, 1))) * math.sqrt(scn.sigma2_II / 2)
    h_hat = h + noise
    s2 = per_dim_variance(scn)
    psi = 2.0 * np.sum(np.abs(h_hat - h_bar) ** 2 / s2, axis=-1)
    gam = np.abs(np.sum(np.abs(h_bar) - np.abs(h_hat), axis=-1))
    fa = np.mean((psi > res.theta) | (gam > res.epsilon))
    se = math.sqrt(target * (1 - target) / n_check)
    # grid selection plus a fresh sample: allow five standard errors
    assert abs(fa - target) < 5 * se


def test_optimize_thresholds_pmd_estimate_on_fresh_stream():
    n_check = 200_000
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    forge = AttackerSpec().forger(scn)
    res = optimize_thresholds(scn, 1e-2, 200_000, Rng(30), forge.arrival_law())
    rng = Rng(32)
    h = sample_channel(scn, rng, size=n_check)
    ref = bob_estimate_phase1(h, scn, rng)
    eve = forged_observation(forge(h, rng), scn, rng)
    pmd = np.mean(accepts(eve, ref, per_dim_variance(scn), res.theta, res.epsilon))
    se = math.sqrt(pmd * (1 - pmd) * (1 / 200_000 + 1 / n_check))
    assert abs(res.pmd_estimate - pmd) < 4 * se


def test_optimize_thresholds_deterministic():
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    a = optimize_thresholds(scn, 1e-2, 100_000, Rng(9), AttackerSpec().forger(scn).arrival_law())
    b = optimize_thresholds(scn, 1e-2, 100_000, Rng(9), AttackerSpec().forger(scn).arrival_law())
    assert a == b


def test_optimize_thresholds_returns_the_pair_it_scored():
    # at a 0.99 target the epsilon = 0 column, which rejects every packet,
    # is feasible and misses nothing, so it wins; the result must be that
    # column's pair, whose false-alarm rate on the same H0 sample is the estimate
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    res = optimize_thresholds(scn, 0.99, 200, Rng(3), AttackerSpec().forger(scn).arrival_law())
    ref, pkt = _drawn_pairs(scn, Rng(3).derive(0), 200, genuine_arrival_law(scn))
    ok = accepts(pkt, ref, per_dim_variance(scn), res.theta, res.epsilon)
    assert res.pfa_estimate == pytest.approx(1.0 - ok.mean(), abs=1e-12)


def _table1_scenario(n, rho=0.0, **kwargs):
    return ScenarioParams.from_snr(n, 15.0, 20.0, rho_AE=rho, rho_EB=rho, **kwargs)


def test_optimize_thresholds_is_null_calibration_then_select_thresholds():
    scn = _table1_scenario(3, 0.7)
    law = AttackerSpec().forger(scn).arrival_law()
    null = null_calibration(scn, 1e-2, 20_000, Rng(9).derive(0))
    assert select_thresholds(null, scn, law, Rng(9).derive(1)) == optimize_thresholds(
        scn, 1e-2, 20_000, Rng(9), law)


def test_one_null_serves_every_correlation_and_attacker():
    # H0 reads neither rho nor the attacker: a null drawn at rho 0 selects
    # the pair one full calibration at rho selects
    null = null_calibration(_table1_scenario(1), 1e-2, 20_000, Rng(4).derive(0))
    for rho, attacker in ((0.1, AttackerSpec()), (0.9, AttackerSpec(AttackStrategy("ml")))):
        scn = _table1_scenario(1, rho)
        law = attacker.forger(scn).arrival_law()
        assert select_thresholds(null, scn, law, Rng(4).derive(1)) == optimize_thresholds(
            scn, 1e-2, 20_000, Rng(4), law)


@pytest.mark.parametrize("other", [dict(n=3), dict(alpha_II=0.8), dict(snr_II_db=25.0),
                                   dict(power_delay=np.array([2.0]))],
                         ids=["N", "alpha_II", "sigma2_II", "power_delay"])
def test_select_thresholds_rejects_a_null_of_other_genuine_laws(other):
    null = null_calibration(_table1_scenario(1), 1e-2, 20_000, Rng(5))
    kwargs = dict(n_subcarriers=other.pop("n", 1), snr_I_db=15.0, snr_II_db=20.0, rho_AE=0.5,
                  rho_EB=0.5)
    kwargs.update(other)
    scn = ScenarioParams.from_snr(**kwargs)
    with pytest.raises(ConfigError, match="genuine laws"):
        select_thresholds(null, scn, AttackerSpec().forger(scn).arrival_law(), Rng(6))


def test_null_calibration_keeps_no_trial():
    null = null_calibration(_table1_scenario(3), 1e-2, 20_000, Rng(7))
    assert null.theta_grid.shape == null.eps_grid.shape == (statdec._GRID_POINTS,)
    assert null.pfa_estimate.shape == null.feasible.shape == (statdec._GRID_POINTS,) * 2
    assert null.n_mc == 20_000 and null.feasible.any()
    assert all(np.size(v) <= statdec._GRID_POINTS**2 for v in vars(null).values())


# ---------------------------------------------------------------------------
# the per-carrier joint law against the physical trial it stands for.
# ``weighted_exponential_sums`` draws every calibration and combined pair's
# Psi and ``pairs_given_exponentials`` completes the pair; the tests named
# after the pair samplers these replaced keep those names, so their ids stay
# comparable across runs

PER_CARRIER = dict(power_delay=np.array([0.4, 1.0, 1.6]), sigma2_AE=0.05, sigma2_EB=0.02,
                   alpha_I=0.9, alpha_II=0.8)
LAW_CASES = {
    "table1-N1-rho0.1": (dict(n_subcarriers=1, rho_AE=0.1, rho_EB=0.1), AttackerSpec()),
    "table1-N3-rho0.7": (dict(n_subcarriers=3, rho_AE=0.7, rho_EB=0.7), AttackerSpec()),
    "alpha_II-0.8": (dict(n_subcarriers=3, rho_AE=0.5, rho_EB=0.5, alpha_II=0.8),
                     AttackerSpec()),
    "ml-per-carrier": (dict(n_subcarriers=3, rho_AE=0.6, rho_EB=0.4, **PER_CARRIER),
                       AttackerSpec(AttackStrategy("ml"))),
    "ml-per-carrier-avg": (dict(n_subcarriers=3, rho_AE=0.6, rho_EB=0.4, m_training=10,
                                **PER_CARRIER),
                           AttackerSpec(AttackStrategy("ml"), averaged=True)),
    "simplified-avg": (dict(n_subcarriers=2, rho_AE=0.5, rho_EB=0.3, m_training=10,
                            sigma2_AE=0.05, sigma2_EB=0.02),
                       AttackerSpec(averaged=True)),
    "alpha_I-0.8": (dict(n_subcarriers=2, rho_AE=0.5, rho_EB=0.3, alpha_I=0.8),
                    AttackerSpec(AttackStrategy("exponent", x=-0.5, y=0.5))),
}
LAW_TRIALS = 100_000


def _law_scenario(case):
    sweep, attacker = LAW_CASES[case]
    return ScenarioParams.from_snr(snr_I_db=15.0, snr_II_db=20.0, **sweep), attacker


# the members a fresh-channel trial draws after its reference, as indices
# into the physical chain's [reference, forged reference, genuine packet,
# forged packet]: a genuine pair, a forged pair and the ideal bound's quadruple
MEMBER_SETS = {"genuine": [2], "forged": [3], "ideal": [1, 2, 3]}


def _physical_chain(scn, forge):
    """LAW_TRIALS physical trials [reference, forged reference, genuine
    packet, forged packet]: channel, reference, a forgery carried to the
    verifier in phase I, genuine packet and a second, independent forgery
    carried in phase II."""
    rng = Rng(61)
    h = sample_channel(scn, rng, size=LAW_TRIALS)
    return [bob_estimate_phase1(h, scn, rng),
            forged_observation(forge(h, rng), scn, rng, phase="I"),
            alice_estimate_phase2(h, scn, rng),
            forged_observation(forge(h, rng), scn, rng)]


def _member_laws(scn, forge):
    """The laws of the chain's members after the reference, in its order."""
    return [forge.arrival_law("I"), genuine_arrival_law(scn), forge.arrival_law()]


def _closed_form(scn, attacker):
    """Per-carrier E[x_i conj(x_j)] of the chain's four members, written out:
    each is coef * h plus its own noise, so off the diagonal only the
    channel's lambda = power_delay remains, and every entry is real."""
    lam = scn.power_delay
    a, b = attacker.strategy.coefficients(scn)
    m = scn.m_training if attacker.averaged else 1
    c = a * scn.rho_AE + b * scn.rho_EB
    d = a * np.sqrt(1 - scn.rho_AE**2) + b * np.sqrt(1 - scn.rho_EB**2)
    observed = (d**2 * lam + a**2 * scn.sigma2_AE + b**2 * scn.sigma2_EB) / m
    coefs = [scn.alpha_I, c, scn.alpha_II, c]
    variances = [lam + scn.sigma2_I,
                 (c**2 + 1 - scn.alpha_I**2) * lam + scn.sigma2_I + observed,
                 lam + scn.sigma2_II,
                 (c**2 + 1 - scn.alpha_II**2) * lam + scn.sigma2_II + observed]
    return [[variances[i] if i == j else coefs[i] * coefs[j] * lam for j in range(4)]
            for i in range(4)]


def _cross_moments(members):
    """{(i, j, part): (per-carrier mean, standard error)} of the real and
    imaginary parts of x_i * conj(x_j), i < j, and of |x_i|^2."""
    out = {}
    for i, j in itertools.combinations_with_replacement(range(len(members)), 2):
        cross = members[i] * np.conj(members[j])
        for part in (("real", "imag") if i < j else ("real",)):
            x = getattr(cross, part)
            out[i, j, part] = x.mean(axis=0), x.std(axis=0) / math.sqrt(len(x))
    return out


def _drawn_pairs(scn, rng, n, law, keep=lambda psi: np.full(psi.shape, True)):
    """The (reference, arrival) pairs ``weighted_exponential_sums`` draws with
    ``llr_weights`` and ``pairs_given_exponentials`` completes on the rows
    where ``keep(psi)`` holds, as the calibrations and combined shards do."""
    pair = pair_law(scn, law)

    def score(psi, e, fill):
        return pairs_given_exponentials(pair, e[:, keep(psi)].T, fill)

    return weighted_exponential_sums(llr_weights(scn, law), rng, n, score)


def _pair_draws(case, forged, keep_for=None):
    """The physical chain's (reference, arrival) pairs, then the pairs
    ``_drawn_pairs`` completes, on the rows ``keep_for(chain)`` keeps when
    given, a function of the chain's pairs."""
    scn, attacker = _law_scenario(case)
    forge = attacker.forger(scn)
    chain = _physical_chain(scn, forge)
    chain = [chain[0], chain[3 if forged else 2]]
    law = forge.arrival_law() if forged else genuine_arrival_law(scn)
    keep = {} if keep_for is None else {"keep": keep_for(chain)}
    return scn, attacker, _drawn_pairs(scn, Rng(60), LAW_TRIALS, law, **keep), chain


@pytest.mark.parametrize("forged", [False, True], ids=["genuine", "forged"])
@pytest.mark.parametrize("case", LAW_CASES)
def test_sample_pairs_moments_match_the_trial_kernel(case, forged):
    # every cross moment of the pair agrees with the physical chain's within
    # 4 combined standard errors and with the closed form within 4 of its own
    scn, attacker, pair, chain = _pair_draws(case, forged)
    picks = [0] + MEMBER_SETS["forged" if forged else "genuine"]
    exact = _closed_form(scn, attacker)
    want = _cross_moments(chain)
    for (i, j, part), (g, g_se) in _cross_moments(pair).items():
        w, w_se = want[i, j, part]
        x = exact[picks[i]][picks[j]] if part == "real" else 0.0
        assert np.all(np.abs(g - w) < 4 * np.hypot(g_se, w_se)), (i, j, part)
        assert np.all(np.abs(g - x) < 4 * g_se), (i, j, part)


def _assert_covariance_matches_the_physical_chain(scn, attacker, members):
    """``trial_covariance`` of the reference and ``members`` (indices into the
    chain after its reference) agrees with the chain's sample covariance
    within 4 of its standard errors, and with the closed form."""
    forge = attacker.forger(scn)
    laws = _member_laws(scn, forge)
    cov = channel.trial_covariance(scn, [laws[i - 1] for i in members])
    picks = [0] + members
    chain = _physical_chain(scn, forge)
    exact = _closed_form(scn, attacker)
    for (i, j, part), (w, w_se) in _cross_moments([chain[k] for k in picks]).items():
        c = cov[i][j] if part == "real" else 0.0
        # <=: a zero-pivot chain's imaginary parts may be exact zeros, SE included
        assert np.all(np.abs(c - w) <= 4 * w_se), (i, j, part)
        if part == "real":
            assert np.allclose(c, exact[picks[i]][picks[j]], rtol=1e-12), (i, j)


@pytest.mark.parametrize("case", LAW_CASES)
def test_ideal_trials_moments_match_the_physical_chain(case):
    # the ideal bound's quadruple [reference, forged reference, genuine
    # packet, forged packet], whose covariance its weights read
    _assert_covariance_matches_the_physical_chain(*_law_scenario(case), MEMBER_SETS["ideal"])


@pytest.mark.parametrize("forged", [False, True], ids=["genuine", "forged"])
@pytest.mark.parametrize("case", LAW_CASES)
def test_sample_pairs_statistics_match_the_trial_kernel(case, forged):
    scn, _, pair, chain = _pair_draws(case, forged)
    s2 = per_dim_variance(scn)
    for stat in (lambda r, a: llr_statistic(a, r, s2),
                 lambda r, a: np.abs(modulus_statistic(r, a))):
        assert stats.ks_2samp(stat(*pair), stat(*chain)).pvalue > 0.001


@pytest.mark.parametrize("forged", [False, True], ids=["genuine", "forged"])
@pytest.mark.parametrize("case", LAW_CASES)
def test_screened_pairs_match_the_physical_chain(case, forged):
    # screened at the chain's median Psi: Psi over every row, and the
    # completed pairs and their |Gamma| over the chain's rows at or below
    # it, in moments (4 combined standard errors) and by two-sample KS
    s2 = per_dim_variance(_law_scenario(case)[0])
    psi = []

    def keep_for(chain):
        bound = np.median(llr_statistic(chain[1], chain[0], s2))

        def keep(block_psi):
            psi.append(block_psi)
            return block_psi <= bound

        return keep

    _, _, pair, chain = _pair_draws(case, forged, keep_for)
    chain_psi = llr_statistic(chain[1], chain[0], s2)
    bound = np.median(chain_psi)
    psi = np.concatenate(psi)
    kept = [m[chain_psi <= bound] for m in chain]
    assert psi.shape == (LAW_TRIALS,) and len(pair[0]) == np.count_nonzero(psi <= bound)
    root_n = math.sqrt(LAW_TRIALS)
    assert abs(psi.mean() - chain_psi.mean()) < 4 * np.hypot(psi.std(), chain_psi.std()) / root_n
    assert stats.ks_2samp(psi, chain_psi).pvalue > 0.001
    want = _cross_moments(kept)
    for key, (g, g_se) in _cross_moments(pair).items():
        w, w_se = want[key]
        assert np.all(np.abs(g - w) < 4 * np.hypot(g_se, w_se)), key
    gamma = [np.abs(modulus_statistic(r, a)) for r, a in (pair, kept)]
    assert stats.ks_2samp(*gamma).pvalue > 0.001


@pytest.mark.parametrize("case", LAW_CASES)
def test_ideal_psi_matches_the_physical_chain(case):
    # the ideal statistic reads x = packet - reference and y = packet -
    # forged reference; their covariance from ``trial_covariance`` against
    # the chain's sample covariance, within 4 of its standard errors, for
    # the genuine and the forged packet
    scn, attacker = _law_scenario(case)
    forge = attacker.forger(scn)
    cov = np.array(channel.trial_covariance(scn, _member_laws(scn, forge)))  # (4, 4, N)
    ref, eve_ref, *packets = _physical_chain(scn, forge)
    for member, packet in zip((2, 3), packets):  # H0, then H1
        diff = np.zeros((2, 4))
        diff[0, [member, 0]] = diff[1, [member, 1]] = (1, -1)
        want = np.einsum("ai,ijn,bj->abn", diff, cov, diff)
        got = _cross_moments([packet - ref, packet - eve_ref])
        for (i, j, part), (g, g_se) in got.items():
            w = want[i, j] if part == "real" else 0.0
            assert np.all(np.abs(g - w) < 4 * g_se), (member, i, j, part)


def test_sample_pairs_blocks_and_stream():
    # the score sees each row block's exponentials and their in-order
    # weighted sum, the unscored draw's Psi, since what it draws is on a
    # stream of its own; the result holds what it returns, block after
    # block; a completed pair differs by sqrt(v e), v = w s2 / 2; and the
    # same stream gives the same pairs
    scn, _ = _law_scenario("alpha_II-0.8")
    law = genuine_arrival_law(scn)
    weights = llr_weights(scn, law)
    n = 2 * channel._ROW_BLOCK + 5
    blocks = []

    def score(psi, e, fill):
        keep = e[0] > 1.0
        blocks.append((psi, e.copy(), keep))
        return (psi[keep], *pairs_given_exponentials(pair_law(scn, law), e[:, keep].T, fill))

    psi, ref, arrival = weighted_exponential_sums(weights, Rng(62), n, score)
    assert [e.shape for _, e, _ in blocks] == [(3, channel._ROW_BLOCK)] * 2 + [(3, 5)]
    for block_psi, e, _ in blocks:
        assert np.array_equal(block_psi, sum(w * row for w, row in zip(weights, e)))
    assert np.array_equal(np.concatenate([p for p, _, _ in blocks]),
                          weighted_exponential_sums(weights, Rng(62), n))
    assert np.array_equal(psi, np.concatenate([p[k] for p, _, k in blocks]))
    kept = np.concatenate([e[:, k] for _, e, k in blocks], axis=1).T
    v = weights * per_dim_variance(scn) / 2
    assert np.allclose(arrival - ref, np.sqrt(v * kept), rtol=1e-12, atol=1e-15)
    again = weighted_exponential_sums(weights, Rng(62), n, score)
    assert all(np.array_equal(a, b) for a, b in zip(again, (psi, ref, arrival)))


def test_sample_pairs_draws_but_never_adds_a_zero_innovation():
    # no noise and no fade: the genuine arrival is the reference itself, so
    # the difference has zero variance and adds nothing to the reference
    scn = ScenarioParams.from_snr(2, math.inf, math.inf)
    e = Rng(63).standard_exponential((10, 2))
    ref, arrival = pairs_given_exponentials(pair_law(scn, genuine_arrival_law(scn)), e, Rng(64))
    assert np.array_equal(arrival, ref)
    assert np.all(ref != 0)


def test_score_pairs_gives_a_zero_pivot_weight_zero():
    # no noise and rho 1: the replay forges 2h exactly, so given the
    # difference x = h the reference is x itself, with zero variance left
    # (drawn, weighted 0); and the genuine difference has zero variance, so
    # its weight on the reference is 0, not 0/0
    scn = ScenarioParams.from_snr(2, math.inf, math.inf, rho_AE=1.0, rho_EB=1.0)
    forge = AttackerSpec().forger(scn)
    e = Rng(67).standard_exponential((10, 2))
    ref, eve = pairs_given_exponentials(pair_law(scn, forge.arrival_law()), e, Rng(68))
    assert np.all(np.isfinite(ref)) and np.all(ref != 0)
    assert np.array_equal(eve, 2.0 * ref)
    ref, alice = pairs_given_exponentials(pair_law(scn, genuine_arrival_law(scn)), e, Rng(68))
    assert np.all(np.isfinite(ref)) and np.array_equal(alice, ref)
    # the rank-one covariance of the quadruple, against the chain's
    _assert_covariance_matches_the_physical_chain(scn, AttackerSpec(), MEMBER_SETS["ideal"])


def test_arrival_laws_take_the_phase_epoch():
    scn, attacker = _law_scenario("ml-per-carrier")  # alpha_I 0.9, alpha_II 0.8
    forger = attacker.forger(scn)
    observed = forger.arrival_law()[1] - genuine_arrival_law(scn)[1]
    for phase, alpha, noise_var in (("I", scn.alpha_I, scn.sigma2_I),
                                    ("II", scn.alpha_II, scn.sigma2_II)):
        epoch = (1 - alpha**2) * scn.power_delay + noise_var
        coef, spread = genuine_arrival_law(scn, phase)
        assert np.array_equal(coef, alpha) and np.allclose(spread, epoch)
        # the forgery keeps its coefficient and its own spread in both phases
        coef, spread = forger.arrival_law(phase)
        assert np.array_equal(coef, forger.arrival_law()[0])
        assert np.allclose(spread, observed + epoch)
    for law in (lambda p: genuine_arrival_law(scn, p), forger.arrival_law):
        with pytest.raises(ConfigError):
            law("III")


def test_ideal_calibration_draws_no_forged_packet():
    # the ideal bound's threshold is the empirical quantile of H0's weighted
    # exponentials on its point's stream: the reference, the forged
    # reference and the genuine packet, and no forged packet
    cfg = harness.ExperimentConfig(
        defender=harness.DefenderSpec("ideal"), attacker=AttackerSpec(AttackStrategy(
            "exponent", x=-0.5, y=0.5)), n_subcarriers=(2,), alpha_I=(0.8,), rho_AE=(0.5,),
        rho_EB=(0.3,), target_pfa=1e-2, n_trials=1_000, n_datasets=1, seed=66,
        calibration_trials=20_000)
    point = next(cfg.sweep_points())
    scn = ScenarioParams.from_snr(**point)
    weights = ideal_weights(scn, cfg.attacker.forger(scn).arrival_law("I"),
                            genuine_arrival_law(scn))
    theta = calibrate_threshold(
        weighted_exponential_sums(weights, Rng(66).derive(0, 1_000_000), 20_000), 1e-2)
    assert harness._point_thresholds(cfg, 0, point) == (theta, None)


def test_ideal_run_calibrates_once_per_point(monkeypatch):
    # every dataset of a point shares its threshold: 3 datasets at 2 points
    # calibrate twice, where each shard calibrated for itself (6 times)
    sizes = []

    def spy(samples, target_pfa):
        sizes.append(len(samples))
        return calibrate_threshold(samples, target_pfa)

    monkeypatch.setattr(harness, "calibrate_threshold", spy)
    cfg = harness.ExperimentConfig(
        defender=harness.DefenderSpec("ideal"), n_subcarriers=(1, 2), target_pfa=1e-2,
        n_trials=1_000, n_datasets=3, seed=67, calibration_trials=5_000)
    table = harness.run_experiment(cfg)
    assert sizes == [5_000, 5_000]
    assert [row["epsilon"] for row in table.rows] == [None, None]


# ---------------------------------------------------------------------------
# the llr and ideal statistics as weighted sums of exponentials, against the
# covariance they come from and the physical chain they stand for

def _weights(scn, attacker, statistic, forged):
    """The statistic's per-carrier weights under H0 (a genuine packet) or H1
    (a forged one), and the physical chain's statistic of the same trials."""
    forge = attacker.forger(scn)
    law = forge.arrival_law() if forged else genuine_arrival_law(scn)
    if statistic == "llr":
        weights = llr_weights(scn, law)
        return weights, lambda ref, eve_ref, alice, eve: llr_statistic(
            eve if forged else alice, ref, per_dim_variance(scn))
    weights = ideal_weights(scn, forge.arrival_law("I"), law)
    return weights, lambda ref, eve_ref, alice, eve: ideal_llr(
        eve if forged else alice, ref, eve_ref, scn.sigma2_I + scn.sigma2_II)


@pytest.mark.parametrize("statistic", ["llr", "ideal"])
@pytest.mark.parametrize("forged", [False, True], ids=["H0", "H1"])
@pytest.mark.parametrize("case", LAW_CASES)
def test_weighted_exponential_sums_match_the_physical_chain(case, forged, statistic):
    # a weighted sum of Exp(1) has mean sum w and variance sum w^2; each
    # moment within 4 standard errors, and the law the physical chain's
    # statistic by a two-sample KS test
    scn, attacker = _law_scenario(case)
    weights, chain_statistic = _weights(scn, attacker, statistic, forged)
    psi = weighted_exponential_sums(weights, Rng(68), LAW_TRIALS)
    root_n = math.sqrt(LAW_TRIALS)
    assert abs(psi.mean() - weights.sum()) < 4 * psi.std() / root_n
    dev2 = (psi - psi.mean()) ** 2
    assert abs(dev2.mean() - np.sum(weights**2)) < 4 * dev2.std() / root_n
    chain = chain_statistic(*_physical_chain(scn, attacker.forger(scn)))
    assert stats.ks_2samp(psi, chain).pvalue > 0.001


@pytest.mark.parametrize("forged", [False, True], ids=["H0", "H1"])
@pytest.mark.parametrize("case", LAW_CASES)
def test_weights_are_the_eigenvalues_of_the_forms_covariance(case, forged):
    # x = packet - reference and y = packet - forged reference, read off
    # the written-out covariance of [ref, forged ref, genuine packet,
    # forged packet]; llr weighs |x|^2, ideal |x|^2 - |y|^2
    scn, attacker = _law_scenario(case)
    cov = np.moveaxis(np.broadcast_arrays(*itertools.chain(*_closed_form(scn, attacker))), 0, -1)
    cov = cov.reshape(scn.n_subcarriers, 4, 4)
    packet = 3 if forged else 2
    x, y = np.zeros(4), np.zeros(4)
    x[[packet, 0]], y[[packet, 1]] = (1, -1), (1, -1)
    c_x = np.stack([x, y]) @ cov @ np.stack([x, y]).T  # (N, 2, 2)
    llr, _ = _weights(scn, attacker, "llr", forged)
    assert np.allclose(llr, 2 * c_x[:, 0, 0] / per_dim_variance(scn), rtol=1e-12)
    ideal, _ = _weights(scn, attacker, "ideal", forged)
    eig = np.sort(np.linalg.eigvals(np.diag([1.0, -1.0]) @ c_x).real, axis=-1)[:, ::-1]
    assert np.allclose(ideal, eig / (2 * (scn.sigma2_I + scn.sigma2_II)), rtol=1e-9, atol=1e-12)
    assert np.all(ideal[:, 0] >= 0) and np.all(ideal[:, 1] <= 0)


@pytest.mark.parametrize("case", ["table1-N1-rho0.1", "table1-N3-rho0.7", "alpha_II-0.8",
                                  "alpha_I-0.8"])
def test_llr_weights_at_scalar_alpha_on_a_flat_profile(case):
    # Psi = (2 v / s^2) * chi^2(2N) / 2, with v0 = s^2 + (alpha_II - alpha_I)^2
    # for a genuine arrival and, for a forgery g = a h_AE + b h_EB,
    # v1 = (c - alpha_I)^2 + d^2 + (1 - alpha_I^2) + (1 - alpha_II^2)
    #      + a^2 sigma2_AE + b^2 sigma2_EB + sigma2_I + sigma2_II
    scn, attacker = _law_scenario(case)
    a, b = attacker.strategy.coefficients(scn)
    c = a * scn.rho_AE + b * scn.rho_EB
    d = a * math.sqrt(1 - scn.rho_AE**2) + b * math.sqrt(1 - scn.rho_EB**2)
    alpha_i, alpha_ii = scn.alpha_I[0], scn.alpha_II[0]
    s2 = per_dim_variance(scn)
    v0 = s2 + (alpha_ii - alpha_i) ** 2
    v1 = ((c - alpha_i) ** 2 + d**2 + (1 - alpha_i**2) + (1 - alpha_ii**2)
          + a**2 * scn.sigma2_AE + b**2 * scn.sigma2_EB + scn.sigma2_I + scn.sigma2_II)
    assert np.allclose(llr_weights(scn, genuine_arrival_law(scn)), 2 * v0 / s2, rtol=1e-12)
    assert np.allclose(llr_weights(scn, attacker.forger(scn).arrival_law()), 2 * v1 / s2,
                       rtol=1e-12)


def test_weighted_exponential_sums_blocks_and_stream():
    # each row block's exponentials weight-major, weighted and summed in order
    weights = np.array([[0.5, -1.0], [2.0, 0.25]])
    n = 2 * channel._ROW_BLOCK + 5
    got = weighted_exponential_sums(weights, Rng(69), n)
    rng, want = Rng(69), []
    for rows in (channel._ROW_BLOCK, channel._ROW_BLOCK, 5):
        block = rng.standard_exponential((4, rows))
        want.append(sum(w * e for w, e in zip(weights.ravel(), block)))
    assert got.shape == (n,) and np.array_equal(got, np.concatenate(want))
    assert weighted_exponential_sums(weights, Rng(69), 0).shape == (0,)


# ---------------------------------------------------------------------------
# ideal-knowledge bound


def test_ideal_llr_direct_formula():
    h_bar = np.array([1.0 + 0j, 2.0 + 1j])
    eve_ref = np.array([0.5 + 0.5j, 1.5 - 1.0j])
    h_hat = np.array([0.9 + 0.1j, 2.2 + 0.8j])
    d0 = np.sum(np.abs(h_hat - h_bar) ** 2)
    d1 = np.sum(np.abs(h_hat - eve_ref) ** 2)
    want = d0 / 0.1 - d1 / 0.1
    assert ideal_llr(h_hat, h_bar, eve_ref, 0.05) == pytest.approx(want, rel=1e-12)


def test_ideal_llr_batches():
    batch = np.zeros((4, 2), dtype=complex)
    got = ideal_llr(batch, np.zeros(2, dtype=complex), np.ones(2, dtype=complex), 0.1)
    assert got.shape == (4,)
    # per-row references score each row against its own pair
    refs = np.tile(np.arange(2.0) + 0j, (4, 1))
    assert np.allclose(ideal_llr(refs, refs, refs + 1.0, 0.2), -2.0 / 0.4)


def test_ideal_llr_prefers_the_closer_hypothesis():
    # noise around the genuine reference should score lower than noise
    # around the forged one
    h_bar, eve_ref = np.array([2.0 + 0j]), np.array([-2.0 + 0j])
    assert (ideal_llr(np.array([1.9 + 0j]), h_bar, eve_ref, 0.1)
            < ideal_llr(np.array([-1.9 + 0j]), h_bar, eve_ref, 0.1))


def test_calibrate_threshold_hand_case():
    samples = np.arange(1.0, 101.0)
    theta = calibrate_threshold(samples, 0.05)
    assert theta == pytest.approx(96.0)
    assert np.mean(samples > theta) <= 0.05


def test_calibrate_threshold_guarantees_rate_on_sample():
    rng = Rng(40)
    for target in (0.01, 0.1, 0.3):
        samples = rng.standard_normal(5000)
        theta = calibrate_threshold(samples, target)
        assert np.mean(samples > theta) <= target


def test_calibrate_threshold_needs_enough_samples():
    with pytest.raises(ConfigError):
        calibrate_threshold(np.arange(10.0), 0.05)


# ---------------------------------------------------------------------------
# channel-coherence monotonicity of the analytic rates


def test_missed_detection_rises_as_coherence_drops():
    from pla_bench.attacks import AttackStrategy

    for n_sub, rho in ((1, 0.3), (4, 0.8)):
        rng = Rng(7).derive(n_sub)
        base = ScenarioParams.from_snr(n_sub, 15.0, 20.0, rho_AE=rho, rho_EB=rho)
        h = sample_channel(base, rng)
        g = AttackStrategy("simplified").forge(h, h, base)
        pmds = []
        for a2 in (1.0, 0.9, 0.8, 0.6):
            scn = ScenarioParams.from_snr(n_sub, 15.0, 20.0, rho_AE=rho, rho_EB=rho, alpha_II=a2)
            mu = noncentrality_mu(scn, h)
            beta = noncentrality_beta(g, scn, h)
            theta = ncx2_inv(1 - 1e-3, 2 * n_sub, mu)
            _, pmd = analytic_pfa_pmd(theta, mu, beta, n_sub)
            pmds.append(float(pmd))
        assert all(a <= b + 1e-12 for a, b in zip(pmds, pmds[1:]))
