"""Forging strategies available to the adversary.

Every strategy maps the adversary's two correlated observations (of the
link she shares with the transmitter and of the link she shares with the
verifier) to the vector she transmits. None of them may depend on the
classification-phase fading coefficient: the attacker plans as if the
channel were static, which is her conservative choice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ScenarioParams, eve_observations, simulate_trials
from .errors import ConfigError
from .rng import Rng
from .statdec import accepts, per_dim_variance


def ml_attack(h_ae, h_eb, params: ScenarioParams) -> np.ndarray:
    """Linear MMSE-style forgery combining both observations.

    g_n = C_n * h_eb_n + D_n * h_ae_n with
    C_n = (rho_EB * w_n_EB - rho_AB * rho_AE) / (w_n_AE * w_n_EB - rho_AB^2)
    D_n = (rho_AE * w_n_AE - rho_AB * rho_EB) / (w_n_AE * w_n_EB - rho_AB^2)
    where w_n_AE = 1 + sigma2_AE / lambda_n and w_n_EB = 1 + sigma2_EB / lambda_n.
    """
    lam = params.power_delay
    w_ae = 1.0 + params.sigma2_AE / lam
    w_eb = 1.0 + params.sigma2_EB / lam
    den = w_ae * w_eb - params.rho_AB**2
    if np.any(np.abs(den) < 1e-12):
        raise ConfigError("singular geometry: omega_AE * omega_EB == rho_AB^2")
    c = (params.rho_EB * w_eb - params.rho_AB * params.rho_AE) / den
    d = (params.rho_AE * w_ae - params.rho_AB * params.rho_EB) / den
    return np.asarray(h_eb, dtype=complex) * c + np.asarray(h_ae, dtype=complex) * d


def simplified_attack(h_ae, h_eb, params: ScenarioParams) -> np.ndarray:
    """Correlation-scaled replay: g = rho_AE * h_ae + rho_EB * h_eb."""
    return params.rho_AE * np.asarray(h_ae, dtype=complex) + params.rho_EB * np.asarray(h_eb, dtype=complex)


def modulus_attack(h_ae, h_eb, params: ScenarioParams) -> np.ndarray:
    """Inverse-scaled replay aimed at matching the reference modulus."""
    if params.rho_AE == 0 or params.rho_EB == 0:
        raise ConfigError("modulus attack requires both correlations nonzero")
    return np.asarray(h_ae, dtype=complex) / params.rho_AE + np.asarray(h_eb, dtype=complex) / params.rho_EB


def exponent_attack(h_ae, h_eb, params: ScenarioParams, x: float, y: float) -> np.ndarray:
    """Tunable family g = rho_AE**x * h_ae + rho_EB**y * h_eb, x, y in [-1, 1].

    (1, 1) recovers the scaled replay, (-1, -1) the modulus-matching
    attack.
    """
    if not (-1.0 <= x <= 1.0 and -1.0 <= y <= 1.0):
        raise ConfigError("exponents must lie in [-1, 1]")
    cx = params.rho_AE**x if params.rho_AE > 0 else (1.0 if x == 0 else 0.0)
    cy = params.rho_EB**y if params.rho_EB > 0 else (1.0 if y == 0 else 0.0)
    if params.rho_AE == 0 and x < 0:
        raise ConfigError("negative exponent with zero rho_AE")
    if params.rho_EB == 0 and y < 0:
        raise ConfigError("negative exponent with zero rho_EB")
    return cx * np.asarray(h_ae, dtype=complex) + cy * np.asarray(h_eb, dtype=complex)


@dataclass(frozen=True)
class AttackStrategy:
    """A named forging strategy, optionally carrying exponent parameters."""

    kind: str  # "ml" | "simplified" | "modulus" | "exponent"
    x: float = 1.0
    y: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ml", "simplified", "modulus", "exponent"):
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if self.kind == "exponent" and not (-1.0 <= self.x <= 1.0 and -1.0 <= self.y <= 1.0):
            raise ConfigError("exponents must lie in [-1, 1]")

    def forge(self, h_ae, h_eb, params: ScenarioParams) -> np.ndarray:
        if self.kind == "ml":
            return ml_attack(h_ae, h_eb, params)
        if self.kind == "simplified":
            return simplified_attack(h_ae, h_eb, params)
        if self.kind == "modulus":
            return modulus_attack(h_ae, h_eb, params)
        return exponent_attack(h_ae, h_eb, params, self.x, self.y)


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
    x, then larger y. Returns (x, y, estimated P_MD at the optimum).
    """
    steps = round(2.0 / grid_step)
    if abs(steps * grid_step - 2.0) > 1e-9:
        raise ConfigError("grid_step must divide the interval [-1, 1] evenly")
    theta, epsilon = bob
    grid = np.round(np.linspace(-1.0, 1.0, steps + 1), 12)

    s2 = per_dim_variance(scenario)
    observed = []

    def observe(h, r):
        # every cell forges from the same observations, so the trial kernel
        # forges zeros and its forged arrival is the phase-II perturbation
        observed.extend(eve_observations(h, scenario, r))
        return np.zeros_like(h)

    h_bar, _, noise2 = simulate_trials(scenario, rng.derive(0), n_mc, forge=observe, genuine=False)
    h_ae, h_eb = observed

    best = None
    for x in grid:
        gx = (scenario.rho_AE**x) * h_ae if scenario.rho_AE > 0 else np.zeros_like(h_ae)
        for y in grid:
            gy = (scenario.rho_EB**y) * h_eb if scenario.rho_EB > 0 else np.zeros_like(h_eb)
            pmd = float(np.mean(accepts(gx + gy + noise2, h_bar, s2, theta, epsilon)))
            cand = (pmd, x, y)
            if best is None or cand > best:
                best = cand
    pmd, x, y = best
    return float(x), float(y), pmd


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
    h_bar, _, h_hat = simulate_trials(
        scenario, rng.derive(0), n_mc, genuine=False,
        forge=lambda h, r: attack.forge(*eve_observations(h, scenario, r), scenario))
    return float(np.mean(accepts(h_hat, h_bar, per_dim_variance(scenario), theta, epsilon)))
