"""Learned authenticators: one-class nearest-neighbor family, one-class
SVM, binary kNN/SVM baselines, k-means pseudo-labeling, and the hybrid
variant that swaps the Euclidean metric for the statistically weighted
one.

Feature vectors are the interleaved real and imaginary parts of the
estimated channel coefficients, so a vector over N subcarriers has 2N
features. All solvers here are written out in full (pairwise-update dual
solvers, Lloyd iterations) because their exact decision geometry is what
the benchmark measures. The one-class SVM dual solver works on a batch of
problems over one Gram matrix in lockstep: a single fit is a batch of one,
and cross-validation solves every (nu, fold) problem of one kernel width
in one call, each fold's validation points masked out of its rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .rng import Rng

OCNN_VARIANTS = ("11NN", "1KNN", "J1NN", "JKNN")


# ---------------------------------------------------------------------------
# features and metrics

def featurize(h_hat) -> np.ndarray:
    """Complex (..., N) -> real (..., 2N), interleaving Re and Im per carrier."""
    h_hat = np.asarray(h_hat, dtype=complex)
    out = np.empty(h_hat.shape[:-1] + (2 * h_hat.shape[-1],))
    out[..., 0::2] = h_hat.real
    out[..., 1::2] = h_hat.imag
    return out


def unfeaturize(x) -> np.ndarray:
    """Inverse of featurize."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ConfigError("feature length must be even")
    return x[..., 0::2] + 1j * x[..., 1::2]


def llr_distance(a, b, sigma2_n) -> float | np.ndarray:
    """Statistically weighted squared distance between feature vectors.

    2 * sum_n (1/sigma_n^2) * ((dRe_n)^2 + (dIm_n)^2); sigma2_n has length N
    (one entry per subcarrier, shared by its Re and Im features).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s2 = np.asarray(sigma2_n, dtype=float)
    if np.any(s2 <= 0):
        raise ConfigError("sigma2_n must be strictly positive")
    w = np.repeat(2.0 / s2, 2)
    d = a - b
    return np.sum(w * d * d, axis=-1)


@dataclass(frozen=True)
class DistanceMetric:
    """Either plain Euclidean distance or the weighted statistic above."""

    kind: str = "euclidean"
    sigma2_n: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "llr"):
            raise ConfigError(f"unknown metric kind {self.kind!r}")
        if self.kind == "llr":
            if self.sigma2_n is None:
                raise ConfigError("llr metric requires sigma2_n")
            s2 = np.atleast_1d(np.asarray(self.sigma2_n, dtype=float))
            if np.any(s2 <= 0):
                raise ConfigError("sigma2_n must be strictly positive")
            object.__setattr__(self, "sigma2_n", s2)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between rows of a and rows of b."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if self.kind == "euclidean":
            sq = (
                np.sum(a * a, axis=1)[:, None]
                + np.sum(b * b, axis=1)[None, :]
                - 2.0 * (a @ b.T)
            )
            return np.sqrt(np.maximum(sq, 0.0))
        w = np.repeat(2.0 / self.sigma2_n, 2)
        aw = a * np.sqrt(w)
        bw = b * np.sqrt(w)
        sq = (
            np.sum(aw * aw, axis=1)[:, None]
            + np.sum(bw * bw, axis=1)[None, :]
            - 2.0 * (aw @ bw.T)
        )
        return np.maximum(sq, 0.0)


# ---------------------------------------------------------------------------
# one-class nearest neighbors

@dataclass(frozen=True)
class OcnnModel:
    variant: str
    j: int
    k: int
    theta_d: float
    training: np.ndarray
    metric: DistanceMetric
    # mean distance from each training point to its k nearest others
    yz_table: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.variant not in OCNN_VARIANTS:
            raise ConfigError(f"variant must be one of {OCNN_VARIANTS}")
        j, k = int(self.j), int(self.k)
        if self.variant == "11NN" and (j, k) != (1, 1):
            raise ConfigError("11NN fixes j = k = 1")
        if self.variant == "1KNN" and j != 1:
            raise ConfigError("1KNN fixes j = 1")
        if self.variant == "J1NN" and k != 1:
            raise ConfigError("J1NN fixes k = 1")
        if j < 1 or k < 1:
            raise ConfigError("j and k must be positive")
        if not self.theta_d > 0:
            raise ConfigError("theta_d must be positive")
        tr = np.atleast_2d(np.asarray(self.training, dtype=float))
        if tr.shape[0] < max(j + 1, k + 1):
            raise ConfigError("training set too small for the requested neighbors")
        object.__setattr__(self, "training", tr)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        if self.yz_table is None:
            d = self.metric.pairwise(tr, tr)
            np.fill_diagonal(d, np.inf)
            part = np.partition(d, k - 1, axis=1)[:, :k]
            object.__setattr__(self, "yz_table", part.mean(axis=1))


def ocnn_classify(model: OcnnModel, x) -> bool | np.ndarray:
    """Accept when the query-to-neighbor over neighbor-to-neighbor mean
    distance ratio stays below theta_d.

    Degenerate denominator (duplicated training points) accepts only an
    exact duplicate query.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    q = np.atleast_2d(x)
    d = model.metric.pairwise(q, model.training)
    jj = model.j
    if jj == 1:
        idx = np.argmin(d, axis=1)
        dxy = d[np.arange(q.shape[0]), idx]
        dyz = model.yz_table[idx]
    else:
        order = np.argsort(d, axis=1)[:, :jj]
        dxy = np.take_along_axis(d, order, axis=1).mean(axis=1)
        dyz = model.yz_table[order].mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        accept = np.where(dyz > 0, dxy < model.theta_d * dyz, dxy == 0)
    return bool(accept[0]) if single else accept


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings for the one-class tuners.

    negatives: synthetic attack draws used only to score candidate
    parameters (the deployed model never trains on them).
    """

    negatives: np.ndarray
    folds: int = 5
    theta_grid: tuple = tuple(np.arange(1.0, 5.01, 0.5))
    neighbor_cap: int = 30

    def __post_init__(self):
        neg = np.atleast_2d(np.asarray(self.negatives, dtype=float))
        object.__setattr__(self, "negatives", neg)
        if self.folds < 2:
            raise ConfigError("need at least 2 folds")


def _fold_slices(n: int, folds: int):
    sizes = [n // folds + (1 if i < n % folds else 0) for i in range(folds)]
    out, start = [], 0
    for s in sizes:
        out.append(slice(start, start + s))
        start += s
    return out


def _ocnn_yz_table(metric, train, kmax):
    """yz[i, k-1]: mean distance from training point i to its k nearest others."""
    t_all = metric.pairwise(train, train)
    np.fill_diagonal(t_all, np.inf)
    t_sorted = np.sort(t_all, axis=1)[:, :kmax]
    return np.cumsum(t_sorted, axis=1) / np.arange(1, kmax + 1)  # (m, kmax)


def _ocnn_ratio_tables(metric, train, yz, queries, jmax):
    """ratio[q, j-1, k-1] for all (j, k) up to the caps; inf where dyz = 0."""
    d = metric.pairwise(queries, train)
    order = np.argsort(d, axis=1)[:, :jmax]
    dxy_sorted = np.take_along_axis(d, order, axis=1)
    dxy = np.cumsum(dxy_sorted, axis=1) / np.arange(1, jmax + 1)  # (q, jmax)
    dyz = np.cumsum(yz[order, :], axis=1) / np.arange(1, jmax + 1)[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dxy[:, :, None] / dyz
        ratio = np.where(dyz > 0, ratio, np.where(dxy[:, :, None] == 0, 0.0, np.inf))
    return ratio


def ocnn_train(positives, variant: str, metric: DistanceMetric, cv: CvConfig, rng: Rng) -> OcnnModel:
    """Grid-search (j, k, theta_d) by cross-validated geometric mean.

    Held-out positives measure the true-positive rate and held-out
    synthetic attack draws the true-negative rate; the score of a
    candidate is the sum over folds of sqrt(TPR * TNR). Ties resolve to
    the smallest (j, k), then the smallest theta_d.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    m = pos.shape[0]
    if m < 10:
        raise ConfigError("need at least 10 positive samples")
    if variant not in OCNN_VARIANTS:
        raise ConfigError(f"variant must be one of {OCNN_VARIANTS}")
    cap = max(1, min(cv.neighbor_cap, int(np.sqrt(m))))
    jmax = cap if variant in ("J1NN", "JKNN") else 1
    kmax = cap if variant in ("1KNN", "JKNN") else 1
    thetas = np.asarray(cv.theta_grid, dtype=float)

    perm = rng.permutation(m)
    neg = cv.negatives[rng.permutation(cv.negatives.shape[0])]
    pos_slices = _fold_slices(m, cv.folds)
    neg_slices = _fold_slices(neg.shape[0], cv.folds)

    score = np.zeros((jmax, kmax, thetas.size))
    for f in range(cv.folds):
        va_idx = perm[pos_slices[f]]
        tr_idx = np.concatenate([perm[s] for i, s in enumerate(pos_slices) if i != f])
        tr, va = pos[tr_idx], pos[va_idx]
        ne = neg[neg_slices[f]]
        if va.shape[0] == 0 or ne.shape[0] == 0:
            raise ConfigError("folds leave an empty validation set")
        yz = _ocnn_yz_table(metric, tr, kmax)
        r_pos = _ocnn_ratio_tables(metric, tr, yz, va, jmax)
        r_neg = _ocnn_ratio_tables(metric, tr, yz, ne, jmax)
        tpr = np.mean(r_pos[:, :, :, None] < thetas, axis=0)
        tnr = np.mean(r_neg[:, :, :, None] >= thetas, axis=0)
        score += np.sqrt(tpr * tnr)

    best = np.unravel_index(np.argmax(score), score.shape)
    j, k, theta = best[0] + 1, best[1] + 1, float(thetas[best[2]])
    return OcnnModel(variant=variant, j=j, k=k, theta_d=theta, training=pos, metric=metric)


# ---------------------------------------------------------------------------
# kernels and one-class SVM

def gaussian_kernel(a, b, sigma_svm: float):
    if not sigma_svm > 0:
        raise ConfigError("sigma_svm must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a - b
    return np.exp(-np.sum(d * d, axis=-1) / (2.0 * sigma_svm**2))


def _gram(x: np.ndarray, y: np.ndarray, kernel: str, sigma_svm: float, degree: int) -> np.ndarray:
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    if kernel == "gaussian":
        sq = (
            np.sum(x * x, axis=1)[:, None]
            + np.sum(y * y, axis=1)[None, :]
            - 2.0 * (x @ y.T)
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma_svm**2))
    if kernel == "linear":
        return x @ y.T
    if kernel == "poly":
        return (x @ y.T + 1.0) ** degree
    raise ConfigError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class OcsvmModel:
    support: np.ndarray
    lambdas: np.ndarray
    xi: float
    nu: float
    sigma_svm: float
    kernel: str = "gaussian"
    degree: int = 3

    def __post_init__(self):
        object.__setattr__(self, "support", np.atleast_2d(np.asarray(self.support, dtype=float)))
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))


_BOX = 1e-12


def _ocsvm_solve(kmat, train, ub, tol: float, max_iter: int):
    """Solve a batch of one-class SVM duals over one Gram matrix in lockstep.

    Row b solves min 1/2 l^T K l, 0 <= l_i <= ub[b], sum l = 1 over the
    points where train[b] is set and keeps l = 0 on the others. Each step
    moves mass, in every row at once, between the pair of coordinates that
    most violates the KKT conditions; a row whose violation is within tol
    takes steps of 0 from then on. Returns l, the gradient K l over all
    columns (held-out ones included) and the offset xi of each row: the
    mean gradient over its margin support vectors, or over all its support
    vectors when none lies on the margin.
    """
    rows, m = train.shape
    ub_lo = ub - _BOX
    lam = np.where(train, 1.0 / train.sum(axis=1, keepdims=True), 0.0)
    # A pair step leaves its two gradients equal up to rounding, so the next
    # choice of pair is decided by the last bits: each row starts from the
    # product a lone solve on its points computes, in the same layout.
    masks, which = np.unique(train, axis=0, return_inverse=True)
    starts = np.empty(masks.shape)
    for s, mask in enumerate(masks):
        idx = np.flatnonzero(mask)
        lam0 = np.full(idx.size, 1.0 / idx.size)
        starts[s, idx] = kmat[np.ix_(idx, idx)] @ lam0
        starts[s, ~mask] = kmat[np.ix_(~mask, idx)] @ lam0
    grad = starts[which.ravel()]  # numpy 2.0.0 returns the inverse as a column
    diag = kmat.diagonal()
    # 0 where a coordinate may move up (down), inf (-inf) where it may not;
    # gradient plus penalty is the masked gradient the pair is chosen from
    up_pen = np.where(train & (lam < ub_lo[:, None]), 0.0, np.inf)
    dn_pen = np.where(lam > _BOX, 0.0, -np.inf)
    up, dn = np.empty_like(grad), np.empty_like(grad)
    # per-row scalars are read and written through flat views at row * m + i
    lam_f, up_f, dn_f = lam.reshape(-1), up.reshape(-1), dn.reshape(-1)
    up_pen_f, dn_pen_f, train_f = up_pen.reshape(-1), dn_pen.reshape(-1), train.reshape(-1)
    row0 = np.arange(rows) * m
    ub_lo2 = np.concatenate([ub_lo, ub_lo])
    for _ in range(max_iter):
        i = np.add(grad, up_pen, out=up).argmin(axis=1)
        j = np.add(grad, dn_pen, out=dn).argmax(axis=1)
        fi, fj = row0 + i, row0 + j
        viol = dn_f[fj] - up_f[fi]
        active = viol > tol
        if not active.any():
            break
        lam_i = lam_f[fi]
        denom = diag[i] + diag[j] - 2.0 * kmat[i, j]
        t_max = np.minimum(ub - lam_i, lam_f[fj])
        step = np.divide(viol, denom, out=np.full(rows, np.inf), where=denom > 1e-15)
        t = np.where(active, np.minimum(t_max, step), 0.0)
        lam_f[fi] = lam_i + t
        lam_f[fj] -= t
        # kmat is symmetric, so row gathers stand in for its columns
        delta = kmat[i]
        np.subtract(delta, kmat[j], out=delta)
        grad += np.multiply(delta, t[:, None], out=delta)
        # only the pair's two coordinates can have reached or left a bound
        fk = np.concatenate([fi, fj])
        lam_k = lam_f[fk]
        up_pen_f[fk] = np.where(train_f[fk] & (lam_k < ub_lo2), 0.0, np.inf)
        dn_pen_f[fk] = np.where(lam_k > _BOX, 0.0, -np.inf)
    else:
        raise NumericError("one-class SVM solver hit its iteration cap")
    xi = np.empty(rows)
    for b in range(rows):
        sv = lam[b] > _BOX
        margin = sv & (lam[b] < ub_lo[b])
        xi[b] = np.mean(grad[b, margin if margin.any() else sv])
    return lam, grad, xi


def ocsvm_train(
    positives,
    nu: float,
    sigma_svm: float,
    kernel: str = "gaussian",
    degree: int = 3,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> OcsvmModel:
    """Pairwise-update solver for min 1/2 l^T K l, 0 <= l_i <= 1/(nu m), sum l = 1.

    At each step mass moves between the pair of coordinates that most
    violates the KKT conditions; the offset xi is the mean decision value
    over the margin support vectors. This is the one-row case of the
    batched solver that ocsvm_train_cv runs.
    """
    x = np.atleast_2d(np.asarray(positives, dtype=float))
    m = x.shape[0]
    if not 0.0 < nu <= 1.0:
        raise ConfigError("nu must lie in (0, 1]")
    if m < 2:
        raise ConfigError("need at least two training points")
    if nu * m < 1.0:
        raise ConfigError("nu * m must be at least 1")
    if max_iter is None:
        max_iter = max(200 * m, 20_000)
    kmat = _gram(x, x, kernel, sigma_svm, degree)
    lam, _, xi = _ocsvm_solve(kmat, np.ones((1, m), dtype=bool),
                              np.array([1.0 / (nu * m)]), tol, max_iter)
    keep = lam[0] > _BOX
    return OcsvmModel(
        support=x[keep], lambdas=lam[0, keep], xi=float(xi[0]), nu=nu,
        sigma_svm=sigma_svm, kernel=kernel, degree=degree,
    )


def ocsvm_decision(model: OcsvmModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    q = np.atleast_2d(x)
    kq = _gram(q, model.support, model.kernel, model.sigma_svm, model.degree)
    f = kq @ model.lambdas - model.xi
    return f[0] if single else f


def ocsvm_classify(model: OcsvmModel, x) -> bool | np.ndarray:
    """Accept when the decision function is strictly positive."""
    f = ocsvm_decision(model, x)
    return bool(f > 0) if np.isscalar(f) or f.ndim == 0 else f > 0


def median_heuristic(x, cap: int = 256) -> float:
    """Median pairwise Euclidean distance, on a deterministic subsample."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] > cap:
        step = x.shape[0] // cap
        x = x[::step][:cap]
    d = DistanceMetric("euclidean").pairwise(x, x)
    vals = d[np.triu_indices_from(d, k=1)]
    med = float(np.median(vals))
    return med if med > 0 else 1.0


def _ocsvm_cv_scores(sel, neg_sel, folds: int, nus, sigmas, kernel: str,
                     degree: int, tol: float) -> np.ndarray:
    """Cross-validated score of every (nu, sigma), shape (len(nus), len(sigmas)).

    For each kernel width one Gram matrix over sel serves every (nu, fold)
    problem: they run as one lockstep batch, each fold's validation points
    masked out of its rows. Held-out positives are scored from the
    solver's gradient and negatives from one product with their kernel
    block. A nu with nu * n_train < 1 on any fold scores -1.
    """
    m = sel.shape[0]
    pos_slices = _fold_slices(m, folds)
    neg_slices = _fold_slices(neg_sel.shape[0], folds)
    held = np.zeros((folds, m), dtype=bool)
    for f, s in enumerate(pos_slices):
        held[f, s] = True
    n_train = m - held.sum(axis=1)
    fit = [a for a, nu in enumerate(nus) if np.all(nu * n_train >= 1.0)]
    score = np.full((len(nus), len(sigmas)), -1.0)
    if not fit:
        return score
    # row k * folds + f solves nus[fit[k]] on fold f
    train = np.tile(~held, (len(fit), 1))
    ub = 1.0 / (np.repeat([nus[a] for a in fit], folds) * np.tile(n_train, len(fit)))
    max_iter = max(200 * int(n_train.max()), 20_000)
    for s, sig in enumerate(sigmas):
        # the Gram matrix is freed before the negatives' block is built
        lam, grad, xi = _ocsvm_solve(_gram(sel, sel, kernel, sig, degree),
                                     train, ub, tol, max_iter)
        f_pos = grad - xi[:, None]
        f_neg = lam @ _gram(neg_sel, sel, kernel, sig, degree).T - xi[:, None]
        for k, a in enumerate(fit):
            total = 0.0
            for f in range(folds):
                b = k * folds + f
                tpr = float(np.mean(f_pos[b, pos_slices[f]] > 0))
                tnr = float(np.mean(f_neg[b, neg_slices[f]] <= 0))
                total += np.sqrt(tpr * tnr)
            score[a, s] = total
    return score


def ocsvm_train_cv(
    positives,
    cv: CvConfig,
    rng: Rng,
    nus=(0.01, 0.02, 0.05, 0.1, 0.2),
    sigma_factors=(0.5, 1.0, 2.0),
    kernel: str = "gaussian",
    degree: int = 3,
    selection_tol: float = 1e-3,
) -> tuple[OcsvmModel, float, float]:
    """Tune (nu, sigma_svm) by the same cross-validated score as ocnn_train.

    Selection solves every (nu, fold) problem of one kernel width as one
    lockstep batch at a loose solver tolerance; ties resolve to the
    smallest nu, then the smallest sigma_svm. The returned model is refit
    on the full positive set at full tolerance.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    m = pos.shape[0]
    base = median_heuristic(pos)
    sigmas = [base * f for f in sigma_factors] if kernel == "gaussian" else [1.0]
    perm = rng.permutation(m)
    neg = cv.negatives[rng.permutation(cv.negatives.shape[0])]
    score = _ocsvm_cv_scores(pos[perm], neg[:min(neg.shape[0], m)], cv.folds, nus,
                             sigmas, kernel, degree, selection_tol)
    best = None
    for a, nu in enumerate(nus):
        for s, sig in enumerate(sigmas):
            cand = (score[a, s], -nu, -sig)
            if best is None or cand > best[0]:
                best = (cand, nu, sig)
    _, nu, sig = best
    return ocsvm_train(pos, nu, sig, kernel=kernel, degree=degree), nu, sig


# ---------------------------------------------------------------------------
# binary baselines

def binary_knn(train_x, train_y, k: int, query, metric: DistanceMetric | None = None):
    """Majority vote over the k nearest labeled samples; k must be odd."""
    if k % 2 == 0:
        raise ConfigError("k must be odd")
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y)
    if k > x.shape[0]:
        raise ConfigError("k exceeds the training size")
    metric = metric or DistanceMetric("euclidean")
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    d = metric.pairwise(np.atleast_2d(q), x)
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    votes = (y[idx] > 0).sum(axis=1)
    out = np.where(votes * 2 > k, 1, 0)
    return int(out[0]) if single else out


def binary_knn_tune(train_x, train_y, rng: Rng, folds: int = 5) -> int:
    """Pick odd k in [3, sqrt(M)] by cross-validated geometric mean."""
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y)
    m = x.shape[0]
    kmax = max(3, int(np.sqrt(m)))
    grid = [k for k in range(3, kmax + 1, 2)]
    perm = rng.permutation(m)
    slices = _fold_slices(m, folds)
    best = None
    for k in grid:
        total = 0.0
        for f in range(folds):
            va = perm[slices[f]]
            tr = np.concatenate([perm[s] for i, s in enumerate(slices) if i != f])
            if k > tr.size:
                continue
            pred = binary_knn(x[tr], y[tr], k, x[va])
            pv, yv = np.asarray(pred), y[va]
            tp = np.sum((pv == 1) & (yv == 1))
            fn = np.sum((pv == 0) & (yv == 1))
            tn = np.sum((pv == 0) & (yv == 0))
            fp = np.sum((pv == 1) & (yv == 0))
            tpr = tp / max(tp + fn, 1)
            tnr = tn / max(tn + fp, 1)
            total += np.sqrt(tpr * tnr)
        if best is None or total > best[0]:
            best = (total, k)
    return best[1]


@dataclass(frozen=True)
class BinarySvmModel:
    support: np.ndarray
    support_y: np.ndarray
    alphas: np.ndarray
    bias: float
    c: float
    sigma_svm: float
    kernel: str = "gaussian"
    degree: int = 3


def binary_svm_train(
    train_x,
    train_y,
    c: float = 1.0,
    sigma_svm: float = 1.0,
    kernel: str = "gaussian",
    degree: int = 3,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> BinarySvmModel:
    """Soft-margin kernel SVM via maximal-violating-pair dual updates.

    Labels may be {0,1} or {-1,+1}; both classes must be present.
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y, dtype=float)
    y = np.where(y > 0, 1.0, -1.0)
    if not c > 0:
        raise ConfigError("c must be positive")
    if np.all(y > 0) or np.all(y < 0):
        raise ConfigError("both labels must be present")
    m = x.shape[0]
    kmat = _gram(x, x, kernel, sigma_svm, degree)
    alpha = np.zeros(m)
    # F_i = sum_j alpha_j y_j K_ij - y_i
    f_val = -y.copy()
    box = 1e-12
    if max_iter is None:
        max_iter = max(300 * m, 20_000)
    for _ in range(max_iter):
        up_mask = ((y > 0) & (alpha < c - box)) | ((y < 0) & (alpha > box))
        lo_mask = ((y > 0) & (alpha > box)) | ((y < 0) & (alpha < c - box))
        i_up = np.argmin(np.where(up_mask, f_val, np.inf))
        i_lo = np.argmax(np.where(lo_mask, f_val, -np.inf))
        b_up, b_lo = f_val[i_up], f_val[i_lo]
        if b_lo - b_up <= tol:
            break
        i, j = i_lo, i_up
        eta = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        if eta <= 1e-15:
            eta = 1e-15
        # optimal unconstrained step for the pair along the equality manifold
        delta = y[j] * (b_lo - b_up) / eta
        aj_old, ai_old = alpha[j], alpha[i]
        s = y[i] * y[j]
        gamma = ai_old + s * aj_old
        aj = aj_old + delta
        # clip to the box respecting alpha_i = gamma - s * alpha_j
        if s > 0:
            lo_b, hi_b = max(0.0, gamma - c), min(c, gamma)
        else:
            lo_b, hi_b = max(0.0, -gamma), min(c, c - gamma)
        aj = min(max(aj, lo_b), hi_b)
        ai = gamma - s * aj
        alpha[j], alpha[i] = aj, ai
        f_val += y[j] * (aj - aj_old) * kmat[:, j] + y[i] * (ai - ai_old) * kmat[:, i]
    else:
        raise NumericError("binary SVM solver hit its iteration cap")
    up_mask = ((y > 0) & (alpha < c - box)) | ((y < 0) & (alpha > box))
    lo_mask = ((y > 0) & (alpha > box)) | ((y < 0) & (alpha < c - box))
    b_up = float(np.min(np.where(up_mask, f_val, np.inf)))
    b_lo = float(np.max(np.where(lo_mask, f_val, -np.inf)))
    bias = -0.5 * (b_up + b_lo)
    keep = alpha > box
    return BinarySvmModel(
        support=x[keep], support_y=y[keep], alphas=alpha[keep], bias=bias,
        c=c, sigma_svm=sigma_svm, kernel=kernel, degree=degree,
    )


def binary_svm_classify(model: BinarySvmModel, query):
    """1 for the positive class, 0 for the negative."""
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    kq = _gram(np.atleast_2d(q), model.support, model.kernel, model.sigma_svm, model.degree)
    f = kq @ (model.alphas * model.support_y) + model.bias
    out = (f > 0).astype(int)
    return int(out[0]) if single else out


# ---------------------------------------------------------------------------
# clustering

@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    wcss: float
    wcss_history: tuple


def kmeans_label(samples, k: int, n_init: int, rng: Rng) -> KmeansResult:
    """Lloyd's algorithm, best of n_init random starts by final WCSS.

    Initial centroids are drawn uniformly without replacement from the
    samples; an emptied cluster is reseeded at the point farthest from its
    assigned centroid.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    m = x.shape[0]
    if not 1 <= k <= m:
        raise ConfigError("k must lie in [1, number of samples]")
    if n_init < 1:
        raise ConfigError("n_init must be at least 1")
    best = None
    for _ in range(n_init):
        idx = rng.choice(m, size=k, replace=False)
        cent = x[idx].copy()
        prev = None
        history = []
        for _ in range(300):
            d2 = (
                np.sum(x * x, axis=1)[:, None]
                + np.sum(cent * cent, axis=1)[None, :]
                - 2.0 * (x @ cent.T)
            )
            labels = np.argmin(d2, axis=1)
            wcss = float(np.sum(np.maximum(d2[np.arange(m), labels], 0.0)))
            history.append(wcss)
            for c in range(k):
                mask = labels == c
                if mask.any():
                    cent[c] = x[mask].mean(axis=0)
                else:
                    far = np.argmax(np.maximum(d2[np.arange(m), labels], 0.0))
                    cent[c] = x[far]
                    labels[far] = c
            if prev is not None and np.array_equal(labels, prev):
                break
            prev = labels.copy()
        d2 = (
            np.sum(x * x, axis=1)[:, None]
            + np.sum(cent * cent, axis=1)[None, :]
            - 2.0 * (x @ cent.T)
        )
        labels = np.argmin(d2, axis=1)
        wcss = float(np.sum(np.maximum(d2[np.arange(m), labels], 0.0)))
        history.append(wcss)
        if best is None or wcss < best.wcss:
            best = KmeansResult(labels=labels, centroids=cent.copy(), wcss=wcss,
                                wcss_history=tuple(history))
    return best
