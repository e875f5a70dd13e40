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
    eve_observations,
    genuine_arrival_law,
    pair_law,
    reference_noise,
)
from .errors import ConfigError
from .rng import Rng
from .statdec import llr_weights, modulus_statistic, weighted_exponential_sums

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
        """``_forged_law`` of the strategy's coefficients: ``(coef, spread)`` of
        the forged arrival of a phase ("II", a packet; "I", a reference)."""
        return _forged_law(*self.strategy.coefficients(self.scn), self.scn, phase, self.m)


def _forged_law(a, b, scn: ScenarioParams, phase: str = "II", m: int = 1) -> tuple:
    """``(coef, spread)`` of the phase's arrival of g = a * h_ae + b * h_eb, per
    carrier and broadcast over a and b. The forgery is c * h + d * r +
    a * n_AE + b * n_EB, c = a * rho_AE + b * rho_EB and d = a * sqrt(1 - rho_AE^2) +
    b * sqrt(1 - rho_EB^2), with r the shared innovation (all three terms 1/m as
    wide when m observation pairs are averaged); it then crosses the epoch as
    a genuine estimate of that phase does."""
    c = a * scn.rho_AE + b * scn.rho_EB
    d = a * np.sqrt(1.0 - scn.rho_AE**2) + b * np.sqrt(1.0 - scn.rho_EB**2)
    _, epoch = genuine_arrival_law(scn, phase)
    observed = d * d * scn.power_delay + a * a * scn.sigma2_AE + b * b * scn.sigma2_EB
    return c, observed / m + epoch


def _common_draw_pmd(strategies, scenario: ScenarioParams, n_mc: int, rng: Rng,
                     theta: float, epsilon: float | None) -> list:
    """P_MD of each strategy against one fixed (theta, epsilon), on shared draws.

    A strategy's trial has Psi = sum_n weight_n E_n (``llr_weights`` of its
    ``_forged_law``) and, given x = sqrt(v E), the reference beta x + sqrt(w) z
    (``pair_law``). One draw serves every strategy: N exponentials E per trial
    on ``rng.derive(0)``, ordered by S = sum_n E_n, and one ``reference_noise``
    z per carrier and trial on ``rng.derive(1)``, which is independent of E.
    As Psi >= min_n weight_n * S, Psi is scored only on the trials with
    S <= theta / min_n weight_n (widened past round-off), and Gamma only where
    Psi passes."""
    if n_mc < 1:
        raise ConfigError("n_mc must be positive")
    n = scenario.n_subcarriers
    a, b = np.empty((2, len(strategies), n))
    for i, strategy in enumerate(strategies):
        a[i], b[i] = strategy.coefficients(scenario)
    law = _forged_law(a, b, scenario)
    weights, pairs = llr_weights(scenario, law), zip(*pair_law(scenario, law))
    s, e = weighted_exponential_sums(np.ones(n), rng.derive(0), n_mc,
                                     lambda s, e, fill: (s, e.T))
    order = np.argsort(s)
    s, e = s[order], e.T[:, order]  # carrier-major, so a prefix is one slice per carrier
    z = reference_noise(rng.derive(1), (n_mc, n))
    with np.errstate(divide="ignore"):  # a zero weight bounds nothing
        ends = np.searchsorted(s, theta / weights.min(axis=1) * (1.0 + 1e-9), side="right")
    pmds = []
    for weight, (v, beta, w), end in zip(weights, pairs, ends):
        psi = sum(w_n * e_n[:end] for w_n, e_n in zip(weight, e))
        rows = np.flatnonzero(psi <= theta)
        if epsilon is not None:  # x = sqrt(v E), real as in pairs_given_exponentials
            x = np.sqrt(v * e[:, rows].T)
            ref = beta * x + np.sqrt(w) * z[rows]
            rows = rows[np.abs(modulus_statistic(ref, ref + x)) <= epsilon]
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
    """Exhaustive search of the exponent grid against a fixed combined test,
    ``bob``'s (theta, epsilon), every cell on the same draws (common random
    numbers), so the landscape is smooth and the argmax reproducible; ties
    prefer larger x, then larger y, and a cell no strategy can forge (a
    negative exponent of a zero correlation) is no candidate. Returns (x, y,
    P_MD at the optimum), which ``mismatched_eval`` reproduces on the same ``rng``.
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
    """Monte Carlo P_MD of one attack against a fixed, already-calibrated test:
    the LLR test when ``epsilon`` is None and the combined test otherwise, as
    in ``accepts``. With the thresholds fixed, evaluating several strategies
    against them quantifies the matched/mismatched gap."""
    return _common_draw_pmd([attack], scenario, n_mc, rng, theta, epsilon)[0]
