"""Forging strategies available to the adversary.

Every strategy maps the adversary's two correlated observations (of the
link she shares with the transmitter and of the link she shares with the
verifier) to the vector she transmits, by one linear law
g = a * h_ae + b * h_eb whose coefficients (a, b) name the strategy. None
of them may depend on the classification-phase fading coefficient: the
attacker plans as if the channel were static, which is her conservative
choice. The configured adversary forges through ``AttackerSpec.forger``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ScenarioParams,
    _add_scaled,
    bob_estimate_phase1,
    eve_observations,
    forged_observation,
    genuine_arrival_law,
    sample_channel,
)
from .errors import ConfigError
from .rng import Rng
from .statdec import modulus_statistic, per_dim_variance

# the exponent points the named replays sit on
_EXPONENTS = {"simplified": (1.0, 1.0), "modulus": (-1.0, -1.0)}


def _power(rho: float, x: float, name: str) -> float:
    """rho**x, with 0**0 = 1; a negative power of a zero correlation is undefined."""
    if rho > 0:
        return rho**x
    if x < 0:
        raise ConfigError(f"negative exponent with zero {name}")
    return 1.0 if x == 0 else 0.0


@dataclass(frozen=True)
class AttackStrategy:
    """The MMSE combiner ``ml``, or a point (x, y) in [-1, 1]^2 of the exponent
    family: ``simplified`` (scaled replay) is (1, 1), ``modulus``
    (inverse-scaled replay aimed at the reference modulus) is (-1, -1)."""

    kind: str  # "ml" | "simplified" | "modulus" | "exponent"
    x: float = 1.0
    y: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ml", "simplified", "modulus", "exponent"):
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if self.kind == "exponent" and not (-1.0 <= self.x <= 1.0 and -1.0 <= self.y <= 1.0):
            raise ConfigError("exponents must lie in [-1, 1]")
        # an exponent the kind ignores would forge unchanged under the kind's label
        if self.kind != "exponent" and (self.x, self.y) != (1.0, 1.0):
            raise ConfigError(f"attack {self.kind!r} takes no x or y")

    def coefficients(self, params: ScenarioParams):
        """The (a, b) of g = a * h_ae + b * h_eb, scalars or per-carrier arrays.

        For ``ml``, with w_AE = 1 + sigma2_AE / lambda_n and
        w_EB = 1 + sigma2_EB / lambda_n per carrier,
        a = (rho_AE * w_AE - rho_AB * rho_EB) / (w_AE * w_EB - rho_AB^2) and
        b = (rho_EB * w_EB - rho_AB * rho_AE) / (w_AE * w_EB - rho_AB^2).
        """
        if self.kind == "ml":
            lam = params.power_delay
            w_ae = 1.0 + params.sigma2_AE / lam
            w_eb = 1.0 + params.sigma2_EB / lam
            den = w_ae * w_eb - params.rho_AB**2
            if np.any(np.abs(den) < 1e-12):
                raise ConfigError("singular geometry: omega_AE * omega_EB == rho_AB^2")
            return ((params.rho_AE * w_ae - params.rho_AB * params.rho_EB) / den,
                    (params.rho_EB * w_eb - params.rho_AB * params.rho_AE) / den)
        x, y = _EXPONENTS.get(self.kind, (self.x, self.y))
        return _power(params.rho_AE, x, "rho_AE"), _power(params.rho_EB, y, "rho_EB")

    def forge(self, h_ae, h_eb, params: ScenarioParams, out=None) -> np.ndarray:
        """a * h_ae + b * h_eb, written into ``out`` (which may be h_ae) when
        given; nothing else is written."""
        a, b = self.coefficients(params)
        out = np.multiply(a, np.asarray(h_ae, dtype=complex), out=out)
        _add_scaled(out, b, np.asarray(h_eb, dtype=complex))
        return out


@dataclass(frozen=True)
class AttackerSpec:
    strategy: AttackStrategy = AttackStrategy("simplified")
    averaged: bool = False  # average the adversary's M observation pairs first

    def label(self) -> str:
        s = self.strategy
        name = s.kind if s.kind != "exponent" else f"exponent({s.x:g},{s.y:g})"
        return name + ("-avg" if self.averaged else "")

    def forger(self, scn: ScenarioParams) -> "Forger":
        """The adversary's forging entry point for one scenario (see ``Forger``)."""
        return Forger(self, scn)


class Forger:
    """``forge(h, rng)``: one forged vector per row of h, from the
    adversary's observations of both links, which ``forged_observation``
    carries to the verifier; ``arrival_law()`` is the law of its phase-II
    arrival.

    When she averages m_training observation pairs, the mean is drawn
    directly from a scenario whose innovation and noise variances are
    scaled by 1/m. That samples the average exactly because everything
    is Gaussian and the two links share each draw's innovation. The
    forgery is written over the observation of the first link, which
    nothing else holds.
    """

    def __init__(self, attacker: AttackerSpec, scn: ScenarioParams):
        self.strategy, self.scn = attacker.strategy, scn
        self.m = scn.m_training if attacker.averaged else 1
        self.obs_scn = scn if self.m == 1 else replace(
            scn, power_delay=scn.power_delay / self.m,
            sigma2_AE=scn.sigma2_AE / self.m, sigma2_EB=scn.sigma2_EB / self.m)

    def __call__(self, h, rng: Rng) -> np.ndarray:
        h_ae, h_eb = eve_observations(h, self.obs_scn, rng)
        return self.strategy.forge(h_ae, h_eb, self.scn, out=h_ae)

    def arrival_law(self, phase: str = "II") -> tuple:
        """``(coef, spread)`` of the forged arrival of a phase ("II", a
        classification-phase packet; "I", a forged enrollment reference), as
        ``pairs_given_exponentials`` and ``optimize_thresholds`` take it.

        With (a, b) the strategy's coefficients, the forgery is
        c * h + d * r + a * n_AE + b * n_EB, where c = a * rho_AE + b * rho_EB,
        d = a * sqrt(1 - rho_AE^2) + b * sqrt(1 - rho_EB^2) and r is the shared
        innovation (all three terms 1/m as wide when averaged); it then
        crosses the epoch as a genuine estimate of that phase does.
        """
        scn = self.scn
        a, b = self.strategy.coefficients(scn)
        c = a * scn.rho_AE + b * scn.rho_EB
        d = a * np.sqrt(1.0 - scn.rho_AE**2) + b * np.sqrt(1.0 - scn.rho_EB**2)
        _, epoch = genuine_arrival_law(scn, phase)
        observed = d * d * scn.power_delay + a * a * scn.sigma2_AE + b * b * scn.sigma2_EB
        return c, observed / self.m + epoch


def _common_draw_pmd(strategies, scenario: ScenarioParams, n_mc: int, rng: Rng,
                     theta: float, epsilon: float | None) -> list:
    """P_MD of each strategy against one fixed (theta, epsilon), on shared draws.

    One draw on ``rng.derive(0)`` (channel, reference, the adversary's
    observations u, v, then the phase-II arrival p of a zero forgery)
    serves every strategy: each forges a * u + b * v and crosses the same
    perturbation p. With q = p - h_bar, Psi is
    a^2 A + b^2 B + C + 2ab D + 2a E + 2b F, whose six terms are products
    of u, v and q weighted by 2 / sigma_n^2 and reduced once. Gamma is
    scored only where Psi passes.
    """
    if n_mc < 1:
        raise ConfigError("n_mc must be positive")
    draw = rng.derive(0)
    h = sample_channel(scenario, draw, size=n_mc)
    h_bar = bob_estimate_phase1(h, scenario, draw)
    u, v = eve_observations(h, scenario, draw)
    del h  # nothing reads the channel again; the zero forgery's copy takes its place
    perturbation = forged_observation(np.zeros_like(u), scenario, draw)
    q = perturbation - h_bar
    w = 2.0 / per_dim_variance(scenario)
    # w |u|^2, w |v|^2, w |q|^2, w Re(u v*), w Re(u q*), w Re(v q*) per carrier
    pairs = ((u, u), (v, v), (q, q), (u, v), (u, q), (v, q))

    def product(k):
        s, t = pairs[k]
        return w * (s.real * t.real + s.imag * t.imag)

    sums = [product(k).sum(axis=-1) for k in range(len(pairs))]

    def term(c, k):
        # per-carrier coefficients weight the product, formed again, before the carrier sum
        return c * sums[k] if np.ndim(c) == 0 else np.sum(c * product(k), axis=-1)

    pmds = []
    for strategy in strategies:
        a, b = strategy.coefficients(scenario)
        # paired so that where u = v, swapping a and b leaves every bit of Psi
        psi = (term(a * a, 0) + term(b * b, 1)) + (term(2.0 * a, 4) + term(2.0 * b, 5))
        psi += term(2.0 * a * b, 3) + sums[2]
        rows = np.flatnonzero(psi <= theta)
        if epsilon is not None:
            # the forgery in the order AttackStrategy.forge builds it
            forged = a * u.take(rows, axis=0)
            forged += b * v.take(rows, axis=0)
            forged += perturbation.take(rows, axis=0)
            rows = rows[np.abs(modulus_statistic(h_bar.take(rows, axis=0), forged)) <= epsilon]
        pmds.append(rows.size / n_mc)
    return pmds


def _forgeable(strategy: AttackStrategy, scenario: ScenarioParams) -> bool:
    try:
        strategy.coefficients(scenario)
    except ConfigError:
        return False
    return True


def _search_grid(grid_step: float, n_mc: int) -> list:
    """The exponent values -1, -1 + grid_step, ..., 1 of each grid axis of a
    search on n_mc draws; a bad step or an empty draw is rejected."""
    if n_mc < 1:
        raise ConfigError("n_mc must be positive")
    if not 0.0 < grid_step <= 2.0:  # NaN fails it too
        raise ConfigError(f"grid_step must be finite and lie in (0, 2], got {grid_step!r}")
    steps = round(2.0 / grid_step)
    if abs(steps * grid_step - 2.0) > 1e-9:
        raise ConfigError("grid_step must divide the interval [-1, 1] evenly")
    return [float(v) for v in np.round(np.linspace(-1.0, 1.0, steps + 1), 12)]


def optimize_attack_exponents(
    bob: tuple[float, float],
    scenario: ScenarioParams,
    grid_step: float,
    n_mc: int,
    rng: Rng,
) -> tuple[float, float, float]:
    """Exhaustive search of the exponent grid against a fixed combined test.

    ``bob`` is the defender's (theta, epsilon) pair. All grid cells are
    evaluated on the same Monte Carlo draws (common random numbers), so the
    landscape is smooth and the argmax is reproducible; ties prefer larger
    x, then larger y. A cell the strategy cannot forge (a negative exponent
    of a zero correlation) is no candidate. Returns (x, y, estimated P_MD
    at the optimum), which ``mismatched_eval`` of that exponent strategy
    reproduces exactly on the same ``rng``.
    """
    grid = _search_grid(grid_step, n_mc)
    cells = [s for s in (AttackStrategy("exponent", x=x, y=y) for x in grid for y in grid)
             if _forgeable(s, scenario)]
    pmds = _common_draw_pmd(cells, scenario, n_mc, rng, *bob)
    pmd, x, y = max((p, s.x, s.y) for p, s in zip(pmds, cells))
    return x, y, pmd


def mismatched_eval(
    attack: AttackStrategy,
    scenario: ScenarioParams,
    n_mc: int,
    rng: Rng,
    theta: float,
    epsilon: float | None = None,
) -> float:
    """Monte Carlo P_MD of one attack against a fixed, already-calibrated test.

    The test is the LLR test when ``epsilon`` is None and the combined test
    otherwise, as in ``accepts``. The defender's thresholds stay fixed, so
    evaluating several strategies against them quantifies the
    matched/mismatched gap.
    """
    return _common_draw_pmd([attack], scenario, n_mc, rng, theta, epsilon)[0]
