"""Channel model: ground-truth links and every noisy observation of them.

All channel coefficients are circularly symmetric complex Gaussians. The
variance convention throughout is the *total* complex variance: a draw of
variance ``v`` has ``v/2`` per real dimension, so a unit-variance component
has a Rayleigh-distributed magnitude with second moment 1.

Two transmission phases exist. In the enrollment phase the verifier
collects ``M`` estimates of the legitimate link (noise variance
``sigma2_I``); in the classification phase individual packets arrive with
noise variance ``sigma2_II``. Time variation between the two phases is a
Gauss-Markov fade with per-subcarrier coefficients ``alpha_I``/``alpha_II``.
The adversary sees spatially correlated versions of the legitimate link,
with correlations ``rho_AE`` and ``rho_EB`` sharing a common innovation
term per observation.

A statistical trial (a threshold calibration's, an llr, combined or ideal
shard's, or an exponent search's) is a fresh-channel universe: the enrollment reference and
one or more arrivals (genuine or forged packets, and for the ideal bound a
forged reference), each coef * h plus its own independent circular
Gaussian, by ``genuine_arrival_law`` or the forger's ``arrival_law`` of its
phase. Per carrier the members are a zero-mean circular complex Gaussian
vector whose covariance these laws fix (``trial_covariance``). Its
statistics are weighted sums of exponentials, with weights ``statdec``
reads from that covariance, drawn by ``statdec.weighted_exponential_sums``;
a calibration or combined shard completes a (reference, arrival) pair with
``pairs_given_exponentials`` only on the rows whose distance it keeps, and
the exponent search those of all its laws from one ``reference_noise`` draw.

The draw contract: one routine, ``_add_complex_gaussian``, makes every
complex draw. It takes all real parts, then all imaginary parts, from the
stream, in blocks of rows through one buffer. A term whose weight is zero
(the fade at alpha = 1, the adversary's noise at zero variance, a pair's
zero-variance term) is drawn, so every later draw stays where it was, but
never added. The one draw whose size reads the data, the reference of each
row ``pairs_given_exponentials`` completes, is still fixed by its stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigError
from .rng import Rng

ChannelVector = np.ndarray  # complex128, shape (N,) or batched (..., N)


def _as_alpha_vector(value, n: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(n, float(arr[0]))
    if arr.shape != (n,):
        raise ConfigError(f"{name} must be scalar or length-{n}, got shape {arr.shape}")
    if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails both
        raise ConfigError(f"{name} components must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class ScenarioParams:
    """All physical parameters of one authentication scenario.

    snr helpers: ``sigma2_I = 10**(-snr_db/10)`` so 15 dB -> 10**-1.5.
    """

    n_subcarriers: int
    m_training: int = 100
    sigma2_I: float = 10**-1.5
    sigma2_II: float = 10**-2.0
    alpha_I: np.ndarray | float = 1.0
    alpha_II: np.ndarray | float = 1.0
    rho_AE: float = 0.0
    rho_EB: float = 0.0
    rho_AB: float = 0.0
    sigma2_AE: float = 0.0
    sigma2_EB: float = 0.0
    power_delay: np.ndarray | None = field(default=None)

    def __post_init__(self):
        for name in ("n_subcarriers", "m_training"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        n = self.n_subcarriers
        for name in ("sigma2_I", "sigma2_II", "sigma2_AE", "sigma2_EB"):
            v = float(getattr(self, name))
            if v < 0 or not math.isfinite(v):
                raise ConfigError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)
        for name in ("rho_AE", "rho_EB", "rho_AB"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "alpha_I", _as_alpha_vector(self.alpha_I, n, "alpha_I"))
        object.__setattr__(self, "alpha_II", _as_alpha_vector(self.alpha_II, n, "alpha_II"))
        pd = self.power_delay
        if pd is None:
            pd = np.ones(n)
        else:
            pd = np.atleast_1d(np.asarray(pd, dtype=float))
            if pd.shape != (n,):
                raise ConfigError(f"power_delay must have length {n}")
            if not np.all((pd > 0) & np.isfinite(pd)):
                raise ConfigError("power_delay must be finite and strictly positive componentwise")
        object.__setattr__(self, "power_delay", pd)
        self.alpha_I.setflags(write=False)
        self.alpha_II.setflags(write=False)
        self.power_delay.setflags(write=False)

    @classmethod
    def from_snr(cls, n_subcarriers: int, snr_I_db: float, snr_II_db: float, **kwargs) -> "ScenarioParams":
        return cls(
            n_subcarriers=n_subcarriers,
            sigma2_I=10 ** (-snr_I_db / 10.0),
            sigma2_II=10 ** (-snr_II_db / 10.0),
            **kwargs,
        )


def complex_gaussian(rng: Rng, shape, variance=1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian, total variance per component."""
    out = np.zeros(shape, dtype=complex)
    _add_complex_gaussian(out, rng, variance)
    return out


# rows per block when a draw or a scaled array is added into an array in place
_ROW_BLOCK = 1 << 13


def _add_complex_gaussian(acc: ChannelVector, rng: Rng, variance, weight=1.0) -> None:
    """``acc += weight * complex_gaussian(rng, acc.shape, variance)`` in place,
    the channel layer's one complex draw.

    All real parts are drawn, then all imaginary parts, one block of
    ``_ROW_BLOCK`` rows at a time into one buffer; each block's normals are
    scaled by the deviation, then by ``weight``, and added. A draw whose
    every term is zero takes the same normals and adds none of them.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    add = (scale * weight).any()
    rows = np.atleast_2d(acc)  # a view: one vector is one row
    buf = np.empty((min(len(rows), _ROW_BLOCK),) + rows.shape[1:])
    for part in (rows.real, rows.imag):
        for lo in range(0, len(rows), _ROW_BLOCK):
            block = part[lo:lo + _ROW_BLOCK]
            normals = rng.standard_normal(block.shape, out=buf[:len(block)])
            if add:
                normals *= scale
                normals *= weight
                block += normals


def _add_scaled(acc: ChannelVector, weight, x) -> None:
    """``acc += weight * x`` one block of rows at a time, so the product is
    never whole; each element is the one the whole-array sum gives."""
    rows = np.atleast_2d(acc)
    x = np.atleast_2d(np.broadcast_to(x, acc.shape))
    for lo in range(0, len(rows), _ROW_BLOCK):
        rows[lo:lo + _ROW_BLOCK] += weight * x[lo:lo + _ROW_BLOCK]


def sample_channel(params: ScenarioParams, rng: Rng, size: int | None = None) -> ChannelVector:
    """Ground-truth link: independent components with variance power_delay[n]."""
    shape = (params.n_subcarriers,) if size is None else (size, params.n_subcarriers)
    return complex_gaussian(rng, shape, params.power_delay)


def _cross_epoch(mean: ChannelVector, alpha, noise_var: float, params: ScenarioParams,
                 rng: Rng) -> ChannelVector:
    """The epoch-crossing law, (mean + sqrt(1 - alpha^2) * fade) + noise,
    written over ``mean`` and returned; the mean is a complex array of the
    observations' shape that the caller owns and gives up.

    The fade is drawn first, then the estimation noise, both of the mean's
    shape; a fade whose every weight is zero (alpha = 1) is drawn but never
    added.
    """
    _add_complex_gaussian(mean, rng, params.power_delay, np.sqrt(1.0 - alpha**2))
    _add_complex_gaussian(mean, rng, noise_var)
    return mean


def bob_estimate_phase1(h_ab: ChannelVector, params: ScenarioParams, rng: Rng) -> ChannelVector:
    """Enrollment-phase estimates, one per row of ``h_ab``: the truth faded
    by alpha_I plus estimation noise of variance sigma2_I.

    A training set of one fixed channel passes that channel broadcast to
    ``m_training`` rows.
    """
    mean = np.multiply(params.alpha_I, h_ab, dtype=complex, order="C")
    return _cross_epoch(mean, params.alpha_I, params.sigma2_I, params, rng)


def alice_estimate_phase2(h_ab: ChannelVector, params: ScenarioParams, rng: Rng) -> ChannelVector:
    """Classification-phase estimates of genuine packets, one per row of ``h_ab``."""
    mean = np.multiply(params.alpha_II, h_ab, dtype=complex, order="C")
    return _cross_epoch(mean, params.alpha_II, params.sigma2_II, params, rng)


def eve_observations(h_ab: ChannelVector, params: ScenarioParams,
                     rng: Rng) -> tuple[ChannelVector, ChannelVector]:
    """The adversary's correlated estimates of the two links she can probe,
    one pair per row of ``h_ab``.

    Both observations share one innovation draw per packet, which is what
    couples them beyond their common dependence on the true channel.
    The second observation is built in the innovation's own storage:
    sqrt(1 - rho_EB^2) * r + rho_EB * h is, bit for bit, the
    rho_EB * h + sqrt(1 - rho_EB^2) * r of the law, since IEEE addition
    commutes.
    """
    h_ab = np.asarray(h_ab, dtype=complex)
    r = complex_gaussian(rng, h_ab.shape, params.power_delay)
    h_ae = params.rho_AE * h_ab
    _add_scaled(h_ae, np.sqrt(1.0 - params.rho_AE**2), r)
    _add_complex_gaussian(h_ae, rng, params.sigma2_AE)
    h_eb = r
    h_eb *= np.sqrt(1.0 - params.rho_EB**2)
    _add_scaled(h_eb, params.rho_EB, h_ab)
    _add_complex_gaussian(h_eb, rng, params.sigma2_EB)
    return h_ae, h_eb


def forged_observation(g: ChannelVector, params: ScenarioParams, rng: Rng,
                       phase: str = "II") -> ChannelVector:
    """What the verifier estimates when the adversary transmits ``g``.

    The forged vector keeps its mean and crosses the epoch boundary by the
    same law as a genuine estimate of its phase: "II", the classification
    phase (the usual case), with alpha_II and sigma2_II, which keeps the
    closed-form error rates exact for every alpha_II; "I", forged packets
    injected during enrollment (the binary defenders' training negatives;
    the ideal bound draws its forged reference from the forger's phase-I
    ``arrival_law``), with alpha_I and sigma2_I.
    """
    # one copy, so that g itself is only read
    return _cross_epoch(np.array(g, dtype=complex, order="C"), *_epoch(params, phase), params, rng)


def _epoch(params: ScenarioParams, phase: str) -> tuple:
    """``(alpha, noise variance)`` of a phase: "I", enrollment, or "II",
    classification."""
    epochs = {"I": (params.alpha_I, params.sigma2_I), "II": (params.alpha_II, params.sigma2_II)}
    if phase not in epochs:
        raise ConfigError(f"phase must be 'I' or 'II', got {phase!r}")
    return epochs[phase]


def genuine_arrival_law(params: ScenarioParams, phase: str = "II") -> tuple:
    """``(coef, spread)`` of a genuine estimate of the phase: coef * h plus an
    independent CN(0, spread), with coef = alpha and
    spread = (1 - alpha^2) * power_delay + noise variance, per carrier, from
    the phase's alpha and noise variance ("II", a classification-phase
    packet; "I", an enrollment reference)."""
    alpha, noise_var = _epoch(params, phase)
    return alpha, (1.0 - alpha**2) * params.power_delay + noise_var


def trial_covariance(params: ScenarioParams, laws) -> list:
    """Per-carrier Cov(x_i, x_j) = coef_i * coef_j * power_delay + [i = j] *
    spread_i of a fresh-channel trial's members: the enrollment reference
    (law ``genuine_arrival_law(params, "I")``), then one member per
    ``(coef, spread)`` of ``laws``. Entry [i][j] is a length-N array; every
    entry is real, since the members share only the channel."""
    coefs, spreads = zip(genuine_arrival_law(params, "I"), *laws)
    lam = params.power_delay
    return [[coef * other * lam + spread if i == j else coef * other * lam
             for j, other in enumerate(coefs)]
            for i, (coef, spread) in enumerate(zip(coefs, spreads))]


def pair_law(params: ScenarioParams, law) -> tuple:
    """Per-carrier ``(v, beta, w)`` of fresh-channel (reference, arrival) pairs
    of the arrival law ``(coef, spread)``, broadcast over its leading axes.

    Per carrier (``trial_covariance``) x = arrival - reference is CN(0, v),
    v = Var ref + Var arrival - 2 Cov, and given x the reference is
    beta * x + CN(0, w), beta = (Cov - Var ref) / v, w = Var ref -
    beta * (Cov - Var ref) (v and w clipped at 0; beta is 0 where v is).
    """
    (var_ref, cov), (_, var_arrival) = trial_covariance(params, [law])
    var_x = np.maximum(var_ref + var_arrival - 2.0 * cov, 0.0)
    lift = cov - var_ref  # Cov(reference, x)
    beta = np.divide(lift, var_x, out=np.zeros_like(lift), where=var_x > 0)
    return var_x, beta, np.maximum(var_ref - beta * lift, 0.0)


def pairs_given_exponentials(pair: tuple, e, rng: Rng) -> tuple:
    """(reference, arrival) of fresh-channel pairs given one Exp(1) draw ``e`` (rows, N)
    per row and carrier and their law's ``pair_law`` (v, beta, w), read once for all blocks:
    x = sqrt(v * e), real since Psi and Gamma do not change when a carrier's pair is rotated
    by x's phase, and the reference beta * x + CN(0, w), of which only the noise is drawn."""
    var_x, beta, noise = pair
    x = np.sqrt(var_x * e)
    ref = np.multiply(beta, x, dtype=complex)
    _add_complex_gaussian(ref, rng, noise)
    return ref, ref + x


def reference_noise(rng: Rng, shape) -> ChannelVector:
    """Unit circular draws z (total variance 1): given x, the reference of a
    pair of any law is beta * x + sqrt(w) * z (``pair_law``), so one draw
    serves pairs of every law."""
    return complex_gaussian(rng, shape)
