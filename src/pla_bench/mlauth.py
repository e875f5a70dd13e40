"""Learned authenticators: one-class nearest-neighbor family, one-class
SVM, binary kNN/SVM baselines, k-means pseudo-labeling, and the hybrid
variant that swaps the Euclidean metric for the statistically weighted
one.

Feature vectors are the interleaved real and imaginary parts of the
estimated channel coefficients, so a vector over N subcarriers has 2N
features. All solvers here are written out in full (a pairwise-update
dual solver, Lloyd iterations) because their exact decision geometry is
what the benchmark measures. One dual solver serves both SVMs: it works on
a batch of problems over one Gram matrix in lockstep, each with its own
box bounds per coordinate and a fixed sum. One-class cross-validation
solves every (nu, fold) problem of one kernel width in one call, each
fold's validation points held at 0; a one-class fit and the binary SVM
are batches of one row.

The three tuners (one-class NN, one-class SVM, binary kNN) share one fold
plan and score every candidate with one cross-validated g-mean,
sqrt(TPR * TNR) summed over folds; the first best candidate in grid order
wins.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .rng import Rng

OCNN_VARIANTS = ("11NN", "1KNN", "J1NN", "JKNN")


# ---------------------------------------------------------------------------
# cross-validation shared by the tuners

_FOLDS = 5
_THETA_GRID = np.arange(1.0, 5.01, 0.5)
_NEIGHBOR_CAP = 30
_CV_TOL = 1e-3  # one-class SVM solver tolerance while scoring candidates


def _fold_slices(n: int):
    """Contiguous validation slices of the _FOLDS folds over n permuted points."""
    sizes = [n // _FOLDS + (1 if i < n % _FOLDS else 0) for i in range(_FOLDS)]
    out, start = [], 0
    for s in sizes:
        out.append(slice(start, start + s))
        start += s
    return out


def _fold_gmean(pos_accept, neg_accept) -> np.ndarray:
    """sqrt(TPR * TNR) of every candidate on one validation fold.

    Axis 0 of each boolean accept mask runs over the fold's held-out
    positives (negatives); the remaining axes index the candidates.
    """
    if len(pos_accept) == 0 or len(neg_accept) == 0:
        raise ConfigError("folds leave an empty validation set")
    return np.sqrt(np.mean(pos_accept, axis=0) * np.mean(~neg_accept, axis=0))


# ---------------------------------------------------------------------------
# features and metrics

def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b, unclipped."""
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)


def featurize(h_hat) -> np.ndarray:
    """Complex (..., N) -> real (..., 2N), interleaving Re and Im per carrier."""
    h_hat = np.asarray(h_hat, dtype=complex)
    out = np.empty(h_hat.shape[:-1] + (2 * h_hat.shape[-1],))
    out[..., 0::2] = h_hat.real
    out[..., 1::2] = h_hat.imag
    return out


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
    """Either plain Euclidean distance or the weighted statistic above.

    pairwise returns the plain distance for "euclidean" but the squared
    weighted distance for "llr", while the one-class NN rules use one
    theta_d grid for both; so under "llr" the grid spans ratios of squared
    distances, and its top value is often the one picked.
    """

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
            return np.sqrt(np.maximum(_sq_dists(a, b), 0.0))
        w = np.sqrt(np.repeat(2.0 / self.sigma2_n, 2))
        return np.maximum(_sq_dists(a * w, b * w), 0.0)


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


def ocnn_train(positives, variant: str, metric: DistanceMetric, negatives, rng: Rng) -> OcnnModel:
    """Grid-search (j, k, theta_d) by cross-validated geometric mean.

    Held-out positives measure the true-positive rate and held-out
    negatives (synthetic attack draws, never trained on) the true-negative
    rate; the score of a candidate is the sum over folds of
    sqrt(TPR * TNR). Ties resolve to the smallest (j, k), then the
    smallest theta_d.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    m = pos.shape[0]
    if m < 10:
        raise ConfigError("need at least 10 positive samples")
    if variant not in OCNN_VARIANTS:
        raise ConfigError(f"variant must be one of {OCNN_VARIANTS}")
    cap = max(1, min(_NEIGHBOR_CAP, int(np.sqrt(m))))
    jmax = cap if variant in ("J1NN", "JKNN") else 1
    kmax = cap if variant in ("1KNN", "JKNN") else 1

    perm = rng.permutation(m)
    neg = np.atleast_2d(np.asarray(negatives, dtype=float))
    neg = neg[rng.permutation(neg.shape[0])]
    score = np.zeros((jmax, kmax, _THETA_GRID.size))
    for s, ns in zip(_fold_slices(m), _fold_slices(neg.shape[0])):
        tr = pos[np.concatenate([perm[:s.start], perm[s.stop:]])]
        yz = _ocnn_yz_table(metric, tr, kmax)
        r_pos = _ocnn_ratio_tables(metric, tr, yz, pos[perm[s]], jmax)
        r_neg = _ocnn_ratio_tables(metric, tr, yz, neg[ns], jmax)
        score += _fold_gmean(r_pos[..., None] < _THETA_GRID, r_neg[..., None] < _THETA_GRID)

    best = np.unravel_index(np.argmax(score), score.shape)
    j, k, theta = best[0] + 1, best[1] + 1, float(_THETA_GRID[best[2]])
    return OcnnModel(variant=variant, j=j, k=k, theta_d=theta, training=pos, metric=metric)


# ---------------------------------------------------------------------------
# kernels, the pairwise dual solver and the one-class SVM

def _gram(x: np.ndarray, y: np.ndarray, kernel: str, sigma_svm: float, degree: int) -> np.ndarray:
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    if kernel == "gaussian":
        if not sigma_svm > 0:
            raise ConfigError("sigma_svm must be positive")
        return np.exp(-np.maximum(_sq_dists(x, y), 0.0) / (2.0 * sigma_svm**2))
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


def _dual_solve(kmat, lam, grad, lo, hi, tol: float, max_iter: int | None = None):
    """Solve a batch of duals min 1/2 l^T K l + p^T l over one Gram matrix.

    Row b keeps sum l fixed and lo[b] <= l <= hi[b]; lam is a feasible
    start and grad = K lam + p its gradient, and both are updated in place.
    Each step moves mass, in every row at once, between the pair of
    coordinates that most violates the KKT conditions: the smallest
    gradient among coordinates below hi (up) and the largest among those
    above lo (down), first index on ties. A row whose violation is within
    tol takes steps of 0 from then on. The cap is max(300 m, 20000) steps
    unless max_iter is given. Returns each row's smallest up and largest
    down gradient at the stop.
    """
    rows, m = lam.shape
    if max_iter is None:
        max_iter = max(300 * m, 20_000)
    hi_box, lo_box = hi - _BOX, lo + _BOX
    diag = kmat.diagonal()
    # 0 where a coordinate may move up (down), inf (-inf) where it may not;
    # gradient plus penalty is the masked gradient the pair is chosen from
    up_pen = np.where(lam < hi_box, 0.0, np.inf)
    dn_pen = np.where(lam > lo_box, 0.0, -np.inf)
    up, dn = np.empty_like(grad), np.empty_like(grad)
    # per-row scalars are read and written through flat views at row * m + i
    lam_f, up_f, dn_f = lam.reshape(-1), up.reshape(-1), dn.reshape(-1)
    up_pen_f, dn_pen_f = up_pen.reshape(-1), dn_pen.reshape(-1)
    lo_f, hi_f = lo.reshape(-1), hi.reshape(-1)
    hi_box_f, lo_box_f = hi_box.reshape(-1), lo_box.reshape(-1)
    row0 = np.arange(rows) * m
    for _ in range(max_iter):
        i = np.add(grad, up_pen, out=up).argmin(axis=1)
        j = np.add(grad, dn_pen, out=dn).argmax(axis=1)
        fi, fj = row0 + i, row0 + j
        viol = dn_f[fj] - up_f[fi]
        active = viol > tol
        if not active.any():
            return up_f[fi], dn_f[fj]
        lam_i, lam_j = lam_f[fi], lam_f[fj]
        denom = diag[i] + diag[j] - 2.0 * kmat[i, j]
        t_max = np.minimum(hi_f[fi] - lam_i, lam_j - lo_f[fj])
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
        up_pen_f[fk] = np.where(lam_k < hi_box_f[fk], 0.0, np.inf)
        dn_pen_f[fk] = np.where(lam_k > lo_box_f[fk], 0.0, -np.inf)
    raise NumericError("dual solver hit its iteration cap")


def _ocsvm_solve(kmat, train, ub, tol: float):
    """Solve a batch of one-class SVM duals over one Gram matrix in lockstep.

    Row b solves min 1/2 l^T K l, 0 <= l_i <= ub[b], sum l = 1 over the
    points where train[b] is set and keeps l = 0 (bounds 0, 0) on the
    others. Returns l, the gradient K l over all columns (held-out ones
    included) and the offset xi of each row: the mean gradient over its
    margin support vectors, or over all its support vectors when none lies
    on the margin.
    """
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
    _dual_solve(kmat, lam, grad, np.zeros_like(lam), np.where(train, ub[:, None], 0.0), tol)
    ub_lo = ub - _BOX
    xi = np.empty(len(ub))
    for b in range(len(ub)):
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
    kmat = _gram(x, x, kernel, sigma_svm, degree)
    lam, _, xi = _ocsvm_solve(kmat, np.ones((1, m), dtype=bool),
                              np.array([1.0 / (nu * m)]), tol)
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


def _ocsvm_cv_scores(sel, neg_sel, nus, sigmas, kernel: str, degree: int) -> np.ndarray:
    """Cross-validated score of every (nu, sigma), shape (len(nus), len(sigmas)).

    For each kernel width one Gram matrix over sel serves every (nu, fold)
    problem: they run as one lockstep batch, each fold's validation points
    masked out of its rows. Held-out positives are scored from the
    solver's gradient and negatives from one product with their kernel
    block. A nu with nu * n_train < 1 on any fold scores -1.
    """
    m = sel.shape[0]
    pos_slices = _fold_slices(m)
    neg_slices = _fold_slices(neg_sel.shape[0])
    held = np.zeros((_FOLDS, m), dtype=bool)
    for f, s in enumerate(pos_slices):
        held[f, s] = True
    n_train = m - held.sum(axis=1)
    fit = [a for a, nu in enumerate(nus) if np.all(nu * n_train >= 1.0)]
    score = np.full((len(nus), len(sigmas)), -1.0)
    if not fit:
        return score
    # row k * _FOLDS + f solves nus[fit[k]] on fold f
    train = np.tile(~held, (len(fit), 1))
    ub = 1.0 / (np.repeat([nus[a] for a in fit], _FOLDS) * np.tile(n_train, len(fit)))
    for s, sig in enumerate(sigmas):
        # the Gram matrix is freed before the negatives' block is built
        lam, grad, xi = _ocsvm_solve(_gram(sel, sel, kernel, sig, degree),
                                     train, ub, _CV_TOL)
        f_pos = grad - xi[:, None]
        f_neg = lam @ _gram(neg_sel, sel, kernel, sig, degree).T - xi[:, None]
        total = np.zeros(len(fit))
        for f, (ps, ns) in enumerate(zip(pos_slices, neg_slices)):
            total += _fold_gmean(f_pos[f::_FOLDS, ps].T > 0, f_neg[f::_FOLDS, ns].T > 0)
        score[fit, s] = total
    return score


def ocsvm_train_cv(
    positives,
    negatives,
    rng: Rng,
    nus=(0.01, 0.02, 0.05, 0.1, 0.2),
    sigma_factors=(0.5, 1.0, 2.0),
    kernel: str = "gaussian",
    degree: int = 3,
) -> tuple[OcsvmModel, float, float]:
    """Tune (nu, sigma_svm) by the same cross-validated score as ocnn_train.

    Selection solves every (nu, fold) problem of one kernel width as one
    lockstep batch at a loose solver tolerance; ties resolve to the
    smallest nu, then the smallest sigma_svm. The returned model is refit
    on the full positive set at full tolerance.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    m = pos.shape[0]
    nus = sorted(nus)
    base = median_heuristic(pos)
    sigmas = [base * f for f in sorted(sigma_factors)] if kernel == "gaussian" else [1.0]
    perm = rng.permutation(m)
    neg = np.atleast_2d(np.asarray(negatives, dtype=float))
    neg = neg[rng.permutation(neg.shape[0])]
    score = _ocsvm_cv_scores(pos[perm], neg[:m], nus, sigmas, kernel, degree)
    a, s = np.unravel_index(np.argmax(score), score.shape)
    nu, sig = nus[a], sigmas[s]
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


def binary_knn_tune(train_x, train_y, rng: Rng) -> int:
    """Pick odd k in [3, sqrt(M)] by cross-validated geometric mean.

    Each fold sorts its validation points' neighbours once and reads the
    vote of every k from the running count of positive labels. Ties
    resolve to the smallest k.
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    pos = np.asarray(train_y) > 0
    m = x.shape[0]
    ks = np.arange(3, max(3, int(np.sqrt(m))) + 1, 2)
    perm = rng.permutation(m)
    score = np.zeros(ks.size)
    metric = DistanceMetric("euclidean")
    for s in _fold_slices(m):
        va, tr = perm[s], np.concatenate([perm[:s.start], perm[s.stop:]])
        if ks[-1] > tr.size:
            raise ConfigError("k exceeds the training size")
        near = np.argsort(metric.pairwise(x[va], x[tr]), axis=1)[:, :ks[-1]]
        accept = np.cumsum(pos[tr][near], axis=1)[:, ks - 1] * 2 > ks
        score += _fold_gmean(accept[pos[va]], accept[~pos[va]])
    return int(ks[np.argmax(score)])


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
) -> BinarySvmModel:
    """Soft-margin kernel SVM: the one-row case of the pairwise dual solver.

    It solves for beta = y * alpha, min 1/2 b^T K b - y^T b with sum b = 0
    and 0 <= y_i b_i <= c, from b = 0. The bias is minus the mean of the
    smallest gradient that may move up and the largest that may move down
    when the solver stops.
    Labels may be {0,1} or {-1,+1}; both classes must be present.
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y, dtype=float)
    y = np.where(y > 0, 1.0, -1.0)
    if not c > 0:
        raise ConfigError("c must be positive")
    if np.all(y > 0) or np.all(y < 0):
        raise ConfigError("both labels must be present")
    kmat = _gram(x, x, kernel, sigma_svm, degree)
    beta = np.zeros((1, x.shape[0]))
    b_up, b_lo = _dual_solve(kmat, beta, -y[None], np.where(y > 0, 0.0, -c)[None],
                             np.where(y > 0, c, 0.0)[None], tol)
    alpha = np.abs(beta[0])
    keep = alpha > _BOX
    return BinarySvmModel(
        support=x[keep], support_y=y[keep], alphas=alpha[keep],
        bias=float(-0.5 * (b_up[0] + b_lo[0])),
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
        for _ in range(300):
            d2 = _sq_dists(x, cent)
            labels = np.argmin(d2, axis=1)
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
        d2 = _sq_dists(x, cent)
        labels = np.argmin(d2, axis=1)
        wcss = float(np.sum(np.maximum(d2[np.arange(m), labels], 0.0)))
        if best is None or wcss < best.wcss:
            best = KmeansResult(labels=labels, centroids=cent.copy(), wcss=wcss)
    return best
