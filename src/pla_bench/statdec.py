"""Statistical decision rules for the authentication problem.

Contains the log-likelihood-ratio (LLR) threshold test, the combined
LLR+modulus test with its two-step threshold optimization, the
ideal-knowledge bound, and the noncentral chi-square machinery these
tests are built on. The distribution code is self-contained (series plus
continued fraction for the regularized incomplete gamma, Poisson-mixture
series for the noncentral CDF) so the package has no runtime dependency
beyond numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .channel import (
    _ROW_BLOCK,
    ScenarioParams,
    genuine_arrival_law,
    pair_law,
    pairs_given_exponentials,
    trial_covariance,
)
from .errors import ConfigError, InfeasibleTargetError, NumericError, SingularTestError
from .rng import Rng


# ---------------------------------------------------------------------------
# incomplete gamma / chi-square numerics

_MAX_SERIES_ITER = 10_000


def _gammainc_lower_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    if a <= 0:
        raise ConfigError("gamma shape must be positive")
    if x < 0:
        raise ConfigError("gamma argument must be nonnegative")
    if x == 0.0:
        return 0.0
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # power series around 0
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(_MAX_SERIES_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                return min(1.0, total * math.exp(log_prefix))
        raise NumericError("incomplete gamma series did not converge")
    # Lentz continued fraction for the upper tail Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_SERIES_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            q = math.exp(log_prefix) * h
            return max(0.0, 1.0 - q)
    raise NumericError("incomplete gamma continued fraction did not converge")


def _ncx2_cdf_scalar(x: float, dof: int, delta: float) -> float:
    """Poisson mixture of central chi-square CDFs, absolute error < 1e-12.

    The mixture is walked outward from its modal index so that only terms
    carrying real probability mass are ever evaluated; the truncation error
    is bounded by the Poisson mass left unaccumulated.
    """
    if dof < 1:
        raise ConfigError("dof must be >= 1")
    if delta < 0:
        raise ConfigError("noncentrality must be nonnegative")
    if x <= 0.0:
        return 0.0
    lam = delta / 2.0
    if lam == 0.0:
        return _gammainc_lower_reg(dof / 2.0, x / 2.0)
    xs = x / 2.0
    a0 = dof / 2.0
    j0 = int(lam)
    log_lam = math.log(lam)
    log_xs = math.log(xs)
    # central value, Poisson log-weight and log step term at the start index
    c0 = _gammainc_lower_reg(a0 + j0, xs)
    lw0 = -lam + j0 * log_lam - math.lgamma(j0 + 1)
    lt0 = (a0 + j0) * log_xs - xs - math.lgamma(a0 + j0 + 1.0)
    w = math.exp(lw0)
    total = w * c0
    wsum = w
    # upward sweep: P(a+1, xs) = P(a, xs) - t(a), t(a+1) = t(a) * xs / (a+1)
    c, lw, lt, j = c0, lw0, lt0, j0
    for _ in range(1_000_000):
        c -= math.exp(lt)
        if c < 0.0:
            c = 0.0
        j += 1
        lt += log_xs - math.log(a0 + j)
        lw += log_lam - math.log(j)
        w = math.exp(lw)
        total += w * c
        wsum += w
        # the third clause guards against stagnation: once the step term
        # underflows, c freezes at a rounding remnant (~1e-15) while the
        # unaccumulated mass bound still counts the downward sweep's share
        if (1.0 - wsum) * c < 5e-16 or wsum >= 1.0 or w < 1e-20:
            break
    else:
        raise NumericError("noncentral chi-square series exceeded iteration cap")
    # downward sweep: P(a-1, xs) = P(a, xs) + t(a-1), t(a-1) = t(a) * a / xs
    c, lw, lt = c0, lw0, lt0
    for j in range(j0 - 1, -1, -1):
        lt += math.log(a0 + j + 1) - log_xs
        c = min(1.0, c + math.exp(lt))
        lw += math.log(j + 1) - log_lam
        w = math.exp(lw)
        total += w * c
        wsum += w
        if (1.0 - wsum) < 5e-16 or w < 1e-20:
            break
    return min(1.0, max(0.0, total))


def ncx2_cdf(x, dof: int, delta) -> float | np.ndarray:
    """Noncentral chi-square CDF; broadcasts over x and delta."""
    x_arr = np.asarray(x, dtype=float)
    d_arr = np.asarray(delta, dtype=float)
    if x_arr.ndim == 0 and d_arr.ndim == 0:
        return _ncx2_cdf_scalar(float(x_arr), dof, float(d_arr))
    x_b, d_b = np.broadcast_arrays(x_arr, d_arr)
    out = np.empty(x_b.shape)
    flat_x, flat_d, flat_o = x_b.ravel(), d_b.ravel(), out.ravel()
    for i in range(flat_o.size):
        flat_o[i] = _ncx2_cdf_scalar(float(flat_x[i]), dof, float(flat_d[i]))
    return out


def ncx2_inv(p: float, dof: int, delta: float) -> float:
    """Inverse CDF by bracketing and bisection, |cdf(x) - p| <= 1e-9."""
    if not 0.0 < p < 1.0:
        raise ConfigError("probability must lie strictly inside (0, 1)")
    if delta < 0:
        raise ConfigError("noncentrality must be nonnegative")
    mean = dof + delta
    spread = math.sqrt(2.0 * (dof + 2.0 * delta))
    lo, hi = 0.0, mean + 10.0 * spread + 10.0
    for _ in range(200):
        if _ncx2_cdf_scalar(hi, dof, delta) >= p:
            break
        hi *= 2.0
    else:
        raise NumericError("could not bracket the requested quantile")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        c = _ncx2_cdf_scalar(mid, dof, delta)
        if abs(c - p) <= 1e-9:
            return mid
        if c < p:
            lo = mid
        else:
            hi = mid
        # the width cutoff must stay relative: an absolute floor would stop
        # far-left quantiles (tiny x, steep density) short of the 1e-9 contract
        if hi - lo <= 1e-13 * mid:
            return mid
    raise NumericError("quantile bisection did not converge")


def normal_upper_quantile(q: float) -> float:
    """z with P[Z > z] = q for standard normal Z, via the chi-square link."""
    if not 0.0 < q < 0.5:
        raise ConfigError("tail probability must lie in (0, 0.5)")
    return math.sqrt(ncx2_inv(1.0 - 2.0 * q, 1, 0.0))


# ---------------------------------------------------------------------------
# LLR test

def per_dim_variance(params: ScenarioParams) -> np.ndarray:
    """Per-subcarrier variance of the test statistic's complex differences.

    sigma_n^2 = sigma2_I + sigma2_II + (1 - alpha_I_n^2) + (1 - alpha_II_n^2)
    """
    return (
        params.sigma2_I
        + params.sigma2_II
        + (1.0 - params.alpha_I**2)
        + (1.0 - params.alpha_II**2)
    )


def llr_statistic(h_hat, h_bar, sigma2_n):
    """Psi = 2 * sum_n |h_hat_n - h_bar_n|^2 / sigma_n^2 (batched over rows)."""
    return 2.0 * np.sum(np.abs(h_hat - h_bar) ** 2 / sigma2_n, axis=-1)


def nominal_mu(params: ScenarioParams) -> float:
    """Noncentrality of the genuine-packet statistic averaged over channels."""
    s2 = per_dim_variance(params)
    return float(np.sum((2.0 / s2) * (params.alpha_II - params.alpha_I) ** 2 * params.power_delay))


def llr_threshold(params: ScenarioParams, pfa: float) -> float:
    """theta with P[Psi > theta] = pfa under the noncentral chi-square law
    of 2N degrees of freedom at the channel-averaged ``nominal_mu``."""
    return ncx2_inv(1.0 - pfa, 2 * params.n_subcarriers, nominal_mu(params))


def noncentrality_mu(params: ScenarioParams, h_ab) -> float:
    """Noncentrality of the statistic when the legitimate user transmits."""
    s2 = per_dim_variance(params)
    h_ab = np.asarray(h_ab, dtype=complex)
    return float(np.sum((2.0 / s2) * np.abs((params.alpha_II - params.alpha_I) * h_ab) ** 2))


def noncentrality_beta(g, params: ScenarioParams, h_ab) -> float:
    """Noncentrality when the adversary transmits the forged vector g."""
    s2 = per_dim_variance(params)
    g = np.asarray(g, dtype=complex)
    h_ab = np.asarray(h_ab, dtype=complex)
    return float(np.sum((2.0 / s2) * np.abs(g - params.alpha_I * h_ab) ** 2))


def analytic_pfa_pmd(theta: float, mu: float, beta, n_subcarriers: int):
    """Closed-form error rates of the LLR test at threshold theta.

    Returns (P_FA, P_MD) with 2*n_subcarriers degrees of freedom. beta may
    be an array of noncentralities, in which case P_MD is an array.
    """
    dof = 2 * n_subcarriers
    pfa = 1.0 - ncx2_cdf(theta, dof, mu)
    pmd = ncx2_cdf(theta, dof, beta)
    return pfa, pmd


# ---------------------------------------------------------------------------
# combined LLR + modulus test

def modulus_statistic(h_bar, h_hat):
    """Gamma = sum_n (|h_bar_n| - |h_hat_n|), batched over rows."""
    return np.sum(np.abs(h_bar) - np.abs(h_hat), axis=-1)


def accepts(h_hat, h_bar, sigma2_n, theta: float, epsilon: float | None = None):
    """Where the LLR test (and, given epsilon, the modulus test) accepts h_hat.

    The packet passes when Psi <= theta and, for the combined test,
    |Gamma| <= epsilon.
    """
    ok = np.asarray(llr_statistic(h_hat, h_bar, sigma2_n) <= theta)
    if epsilon is not None:
        # Gamma is per row, so it is computed only where Psi already passed
        hat, bar = np.broadcast_arrays(h_hat, h_bar)
        ok[ok] = np.abs(modulus_statistic(bar[ok], hat[ok])) <= epsilon
    return ok


@dataclass(frozen=True)
class ThresholdResult:
    theta: float
    epsilon: float
    pfa_estimate: float
    pmd_estimate: float
    n_feasible: int


# points on each axis of the (theta, epsilon) calibration grid
_GRID_POINTS = 64


def _acceptance_counts(j, gamma_abs, n_theta, eps_grid):
    """counts[j', k] = #trials with j <= j' (``_pair_statistics``'s index: Psi <= theta_j')
    and |gamma| <= eps_k. Rows with j = 0 pass every theta: the rest binned and their |gamma|
    set to +inf, one sort in place counts them for every eps. Consumes ``gamma_abs``."""
    above = j > 0
    j, k = j[above], np.searchsorted(eps_grid, gamma_abs[above], side="left")
    gamma_abs[above] = np.inf
    gamma_abs.sort()
    shape = (n_theta + 1, eps_grid.size + 1)
    hist = np.bincount(np.ravel_multi_index((j, k), shape),
                       minlength=shape[0] * shape[1]).reshape(shape)
    return (hist[:-1, :-1].cumsum(axis=0).cumsum(axis=1)
            + np.searchsorted(gamma_abs, eps_grid, side="right"))


@dataclass(frozen=True, eq=False)
class NullCalibration:
    """H0's part of a calibration, which reads no attacker or correlation: the grids,
    each pair's P_FA estimate, the feasible pairs and the ``_genuine_laws`` drawn."""
    theta_grid: np.ndarray
    eps_grid: np.ndarray
    pfa_estimate: np.ndarray
    feasible: np.ndarray
    n_mc: int
    genuine_laws: tuple


def _genuine_laws(scenario: ScenarioParams) -> tuple:
    """What H0's law reads: the reference's and genuine arrival's laws, and power."""
    return (*genuine_arrival_law(scenario, "I"), *genuine_arrival_law(scenario),
            scenario.power_delay)


def _pair_statistics(scenario, rng: Rng, n_mc: int, law, theta_grid, theta_max=np.inf) -> tuple:
    """(j, |Gamma|) of n_mc fresh-channel pairs of one law, Psi drawn first: all of
    them, or those with Psi <= ``theta_max`` (no other passes a theta of the grid), the
    only ones ``pairs_given_exponentials`` completes. j, the first theta_j >= Psi, is
    searched only above theta_0 and kept in the smallest unsigned type that holds it."""
    pair = pair_law(scenario, law)
    def score(psi, e, fill):
        keep = psi <= theta_max
        psi = psi[keep]
        j, above = np.zeros(psi.shape, np.min_scalar_type(theta_grid.size)), psi > theta_grid[0]
        j[above] = np.searchsorted(theta_grid, psi[above], side="left")
        return j, np.abs(modulus_statistic(*pairs_given_exponentials(pair, e[:, keep].T, fill)))

    return weighted_exponential_sums(llr_weights(scenario, law), rng, n_mc, score)


def null_calibration(scenario: ScenarioParams, target_pfa: float, n_mc: int,
                     rng: Rng) -> NullCalibration:
    """Step 1: draw n_mc genuine pairs on ``rng``, build the grids and count H0
    once; a pair is feasible when its P_FA is within the target's 95% interval."""
    if not 0.0 < target_pfa < 1.0:
        raise ConfigError("target_pfa must lie in (0, 1)")
    if target_pfa * n_mc < 100:
        raise ConfigError("n_mc too small for the requested false-alarm target")
    if np.any(per_dim_variance(scenario) <= 0):
        raise SingularTestError("scenario gives zero per-dimension variance")
    theta_grid = np.linspace(llr_threshold(scenario, min(2.0 * target_pfa, 1.0 - 1e-9)),
                             llr_threshold(scenario, target_pfa / 10.0), _GRID_POINTS)
    j0, gam0 = _pair_statistics(scenario, rng, n_mc, genuine_arrival_law(scenario), theta_grid)
    # the top of the epsilon grid leaves the modulus condition a false-alarm share well
    # under the target: |Gamma|'s Gaussian-approximate quantile at a tenth of it. Squared in
    # place and rooted back, |Gamma| is exact: sqrt(x * x) = |x| in binary floating point,
    # rounding to nearest, unless x * x underflows (Boldo, ENTCS 317, 2015)
    sig_g = float(np.sqrt(np.mean(np.square(gam0, out=gam0))))
    np.sqrt(gam0, out=gam0)
    eps_hi = sig_g * normal_upper_quantile(min(target_pfa / 20.0, 0.25)) + 1e-12
    eps_grid = np.linspace(0.0, eps_hi, _GRID_POINTS)

    acc0 = _acceptance_counts(j0, gam0, theta_grid.size, eps_grid)
    del j0, gam0  # counted; only the grids and the counts are kept
    pfa_est = 1.0 - acc0 / float(n_mc)
    ci = 1.96 * math.sqrt(target_pfa * (1.0 - target_pfa) / n_mc)
    feasible = np.abs(pfa_est - target_pfa) <= ci
    if not feasible.any():
        raise InfeasibleTargetError(f"no (theta, epsilon) grid point reaches "
                                    f"P_FA={target_pfa:g} within its 95% interval")
    return NullCalibration(theta_grid, eps_grid, pfa_est, feasible, n_mc,
                           _genuine_laws(scenario))


def select_thresholds(null: NullCalibration, scenario: ScenarioParams, forged_law: tuple,
                      rng: Rng) -> ThresholdResult:
    """Step 2: the feasible pair of ``null`` with the smallest P_MD estimate on
    n_mc forged pairs of ``forged_law`` (a forger's ``arrival_law()``) drawn on
    ``rng`` and screened by the top of the theta grid; ties prefer the larger
    theta, then epsilon. A null of other genuine laws is a ``ConfigError``."""
    if not all(map(np.array_equal, _genuine_laws(scenario), null.genuine_laws)):
        raise ConfigError("the null calibration was drawn for other genuine laws")
    j1, gam1 = _pair_statistics(scenario, rng, null.n_mc, forged_law, null.theta_grid,
                                null.theta_grid[-1])
    pmd_est = _acceptance_counts(j1, gam1, null.theta_grid.size, null.eps_grid) / float(null.n_mc)

    # lexsort orders by its last key first: P_MD up, then theta down, then epsilon down
    jj, kk = np.nonzero(null.feasible)
    best = np.lexsort((-null.eps_grid[kk], -null.theta_grid[jj], pmd_est[jj, kk]))[0]
    j, k = jj[best], kk[best]
    return ThresholdResult(float(null.theta_grid[j]), float(null.eps_grid[k]),
                           float(null.pfa_estimate[j, k]), float(pmd_est[j, k]),
                           int(null.feasible.sum()))


def optimize_thresholds(scenario: ScenarioParams, target_pfa: float, n_mc: int, rng: Rng,
                        forged_law: tuple) -> ThresholdResult:
    """Two-step Monte Carlo selection of (theta, epsilon): ``null_calibration``
    on ``rng.derive(0)``, then ``select_thresholds`` against ``forged_law``
    (the adversary forger's ``arrival_law()``) on ``rng.derive(1)``."""
    return select_thresholds(null_calibration(scenario, target_pfa, n_mc, rng.derive(0)),
                             scenario, forged_law, rng.derive(1))


# ---------------------------------------------------------------------------
# ideal-knowledge bound

def ideal_llr(h_hat, h_bar, eve_ref, sigma2: float):
    """Log-likelihood ratio when the verifier also knows the forged reference.

    Both distances share one sigma2, which fits H0 only, so this is no
    Neyman-Pearson statistic. Accept at or below a threshold. Its
    fresh-channel draws are those of ``ideal_weights``.
    """
    d0 = np.sum(np.abs(h_hat - h_bar) ** 2, axis=-1)
    d1 = np.sum(np.abs(h_hat - eve_ref) ** 2, axis=-1)
    return d0 / (2.0 * sigma2) - d1 / (2.0 * sigma2)


def calibrate_threshold(samples, target_pfa: float) -> float:
    """Empirical threshold with P[statistic > threshold] <= target on the sample."""
    samples = np.asarray(samples, dtype=float)
    if samples.size * target_pfa < 1:
        raise ConfigError("not enough calibration samples for the target rate")
    return float(np.quantile(samples, 1.0 - target_pfa, method="higher"))


# ---------------------------------------------------------------------------
# fresh-channel statistics as weighted sums of exponentials
#
# Over fresh-channel trials the members are a zero-mean circular Gaussian
# vector, so a Hermitian form in them is a weighted sum of independent Exp(1)
# variables, weighted by the eigenvalues of the form's matrix times the
# members' covariance (Turin, Biometrika 47, 1960; Mathai & Provost,
# "Quadratic Forms in Random Variables", 1992).

def llr_weights(params: ScenarioParams, law: tuple) -> np.ndarray:
    """Per-carrier weights of ``llr_statistic(arrival, reference, s2)`` over
    fresh-channel trials whose arrival has the law ``(coef, spread)``.

    x_n = arrival - reference is CN(0, v_n), v_n of the law's ``pair_law``,
    so |x_n|^2 = v_n E_n and Psi = sum_n (2 v_n / s2_n) E_n.
    """
    return 2.0 * pair_law(params, law)[0] / per_dim_variance(params)


def ideal_weights(params: ScenarioParams, forged_reference_law: tuple,
                  packet_law: tuple) -> np.ndarray:
    """Per-carrier weights, shape (N, 2), of ``ideal_llr(packet, reference,
    forged reference, sigma2_I + sigma2_II)`` over fresh-channel trials
    whose forged reference and packet have the given laws.

    Per carrier, x = packet - reference and y = packet - forged reference
    are jointly CN(0, C), and Psi_n = (|x|^2 - |y|^2) / (2 s2). Its weights
    are the eigenvalues of diag(1, -1) C / (2 s2), t/2 + r and t/2 - r with
    t = C_xx - C_yy and r = sqrt(t^2/4 + det C): one is at least 0 and the
    other at most 0.
    """
    (rr, re, rp), (_, ee, ep), (_, _, pp) = trial_covariance(
        params, [forged_reference_law, packet_law])
    c_xx = pp + rr - 2.0 * rp
    c_yy = pp + ee - 2.0 * ep
    c_xy = pp - ep - rp + re
    half_trace = (c_xx - c_yy) / 2.0
    root = np.sqrt(np.maximum(half_trace**2 + c_xx * c_yy - c_xy**2, 0.0))
    s2 = params.sigma2_I + params.sigma2_II
    return np.stack([half_trace + root, half_trace - root], axis=-1) / (2.0 * s2)


def weighted_exponential_sums(weights, rng: Rng, n: int, score=None):
    """n draws of Psi = sum_k w_k E_k over the flattened ``weights``, every
    E_k an independent Exp(1): the one draw of every fresh-channel statistic.

    Each block of at most ``_ROW_BLOCK`` draws takes its exponentials
    weight-major, one row per weight, scales each row by its weight and
    sums the rows in order (no BLAS call, so no thread count moves a bit).
    Without ``score`` the result is Psi; with it, the tuple of per-row
    arrays ``score(psi, e, fill)`` returns for each block's Psi and (k, rows)
    exponentials, in block order. A score's own draws, such as the pairs it
    completes, come from ``fill = rng.derive(0)``, so Psi never depends on them.
    """
    if score is None:
        return weighted_exponential_sums(weights, rng, n, lambda psi, e, fill: (psi,))[0]
    weights = np.ravel(weights)
    buf = np.empty((2, weights.size * min(n, _ROW_BLOCK)))
    fill, outputs, done = rng.derive(0), (), 0
    for lo in range(0, max(n, 1), _ROW_BLOCK):  # n = 0 scores one empty block
        rows = min(_ROW_BLOCK, n - lo)
        e, scaled = (b[:weights.size * rows].reshape(weights.size, rows) for b in buf)
        rng.standard_exponential(e.shape, out=e)
        scores = score(np.sum(np.multiply(e, weights[:, None], out=scaled), axis=0), e, fill)
        if not outputs:  # n rows each, of which only the returned ones are written
            outputs = tuple(np.empty((n,) + s.shape[1:], dtype=s.dtype) for s in scores)
        for out, s in zip(outputs, scores):
            out[done:done + len(s)] = s
        done += len(s)
    return tuple(out[:done] for out in outputs)
