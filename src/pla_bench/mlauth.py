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
box bounds per coordinate and a fixed sum. Both SVMs fit one KernelModel,
read by one svm_decision, and every classifier returns a boolean accept
mask, one entry per query row. One-class cross-validation
solves every (nu, fold) problem of one kernel width in one call, each
fold's validation points held at 0, to a KKT tolerance of 1e-4; a
one-class fit (tolerance 1e-6) and the binary SVM are batches of one row.
Every one-class dual starts at LIBSVM's sparse point, floor(nu n) points
at the bound, and the binary SVM at 0.

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

# one-class NN variant -> (tunes j, tunes k); a fixed count is 1
_OCNN_TUNES = {"11NN": (False, False), "1KNN": (False, True),
               "J1NN": (True, False), "JKNN": (True, True)}
OCNN_VARIANTS = tuple(_OCNN_TUNES)
KERNELS = ("gaussian", "poly", "linear")  # the one-class SVM's kernels


# ---------------------------------------------------------------------------
# cross-validation shared by the tuners

_FOLDS = 5
# each tuner's grid ascends, so the first best candidate is the smallest
_THETA_GRID = np.arange(1.0, 5.01, 0.5)
_OCSVM_NUS = (0.01, 0.02, 0.05, 0.1, 0.2)
_SIGMA_FACTORS = (0.5, 1.0, 2.0)  # Gaussian widths, in units of median_heuristic
_NEIGHBOR_CAP = 30
_CV_TOL = 1e-4  # one-class SVM solver tolerance while scoring candidates
_POLY_DEGREE = 3  # degree of the "poly" kernel
_MEDIAN_CAP = 256  # sample size of median_heuristic
_KMEANS_STARTS = 50  # random starts of kmeans_label


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


@dataclass(frozen=True)
class DistanceMetric:
    """Either plain Euclidean distance or the statistic Psi in feature space.

    "llr" is 2 * sum_n ((dRe_n)^2 + (dIm_n)^2) / sigma_n^2 with sigma2_n one
    entry per subcarrier: statdec.llr_statistic between the complex rows.
    pairwise returns the plain distance for "euclidean" but this squared
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

def _nearest(d: np.ndarray, n: int) -> np.ndarray:
    """Column indices of each row's n smallest entries of d, nearest first."""
    if n == 1:
        return np.argmin(d, axis=1)[:, None]
    idx = np.argpartition(d, n - 1, axis=1)[:, :n]
    return np.take_along_axis(idx, np.argsort(np.take_along_axis(d, idx, axis=1), axis=1),
                              axis=1)


def _ocnn_yz_table(metric, train, kmax):
    """yz[i, k-1]: mean distance from training point i to its k nearest others."""
    t_all = metric.pairwise(train, train)
    np.fill_diagonal(t_all, np.inf)
    t_sorted = np.take_along_axis(t_all, _nearest(t_all, kmax), axis=1)
    return np.cumsum(t_sorted, axis=1) / np.arange(1, kmax + 1)  # (m, kmax)


def _ocnn_ratio_tables(metric, train, yz, queries, jmax):
    """ratio[q, j-1, k-1] for all (j, k) up to the caps; inf where dyz = 0."""
    d = metric.pairwise(queries, train)
    order = _nearest(d, jmax)
    dxy_sorted = np.take_along_axis(d, order, axis=1)
    dxy = np.cumsum(dxy_sorted, axis=1) / np.arange(1, jmax + 1)  # (q, jmax)
    dyz = np.cumsum(yz[order, :], axis=1) / np.arange(1, jmax + 1)[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dxy[:, :, None] / dyz
        ratio = np.where(dyz > 0, ratio, np.where(dxy[:, :, None] == 0, 0.0, np.inf))
    return ratio


@dataclass(frozen=True)
class OcnnModel:
    variant: str
    j: int
    k: int
    theta_d: float
    training: np.ndarray
    metric: DistanceMetric
    # (m, 1): mean distance from each training point to its k nearest others
    yz_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.variant not in OCNN_VARIANTS:
            raise ConfigError(f"variant must be one of {OCNN_VARIANTS}")
        j, k = int(self.j), int(self.k)
        for name, count, tuned in zip("jk", (j, k), _OCNN_TUNES[self.variant]):
            if not tuned and count != 1:
                raise ConfigError(f"{self.variant} fixes {name} = 1")
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
        object.__setattr__(self, "yz_table", _ocnn_yz_table(self.metric, tr, k)[:, -1:])


def ocnn_classify(model: OcnnModel, x) -> np.ndarray:
    """Accept each query row when its query-to-neighbor over
    neighbor-to-neighbor mean distance ratio stays below theta_d: the
    (j, k) cell of the table ocnn_train scores.

    Degenerate denominator (duplicated training points) accepts only an
    exact duplicate query.
    """
    ratio = _ocnn_ratio_tables(model.metric, model.training, model.yz_table, x, model.j)
    return ratio[:, -1, -1] < model.theta_d


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
    jmax, kmax = (cap if tuned else 1 for tuned in _OCNN_TUNES[variant])

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

def _gram(x: np.ndarray, y: np.ndarray, kernel: str, sigma_svm: float) -> np.ndarray:
    if kernel == "gaussian":
        if not sigma_svm > 0:
            raise ConfigError("sigma_svm must be positive")
        return np.exp(-np.maximum(_sq_dists(x, y), 0.0) / (2.0 * sigma_svm**2))
    if kernel == "linear":
        return x @ y.T
    if kernel == "poly":
        return (x @ y.T + 1.0) ** _POLY_DEGREE
    raise ConfigError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class KernelModel:
    """Either SVM's decision function, sum_i lambdas_i k(support_i, x) + offset."""

    support: np.ndarray
    lambdas: np.ndarray
    offset: float
    sigma_svm: float
    kernel: str = "gaussian"


def svm_decision(model: KernelModel, x) -> np.ndarray:
    """Decision value of each query row; a positive value accepts."""
    kq = _gram(np.asarray(x, dtype=float), model.support, model.kernel, model.sigma_svm)
    return kq @ model.lambdas + model.offset


_BOX = 1e-12


def _dual_solve(kmat, lam, grad, lo, hi, tol: float):
    """Solve a batch of duals min 1/2 l^T K l + p^T l over one Gram matrix.

    Row b keeps sum l fixed and lo[b] <= l <= hi[b]; lam is a feasible
    start and grad = K lam + p its gradient, and both are updated in place.
    Each step moves mass, in every row at once, between the pair of
    coordinates that most violates the KKT conditions: the smallest
    gradient among coordinates below hi (up) and the largest among those
    above lo (down), first index on ties. A row whose violation is within
    tol takes steps of 0 from then on. The cap is max(300 m, 20000) steps.
    Returns each row's smallest up and largest down gradient at the stop.
    """
    rows, m = lam.shape
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
    for _ in range(max(300 * m, 20_000)):
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


def _ocsvm_start(kmat, train, ub):
    """LIBSVM's one-class start of each row of an _ocsvm_solve batch, and its
    gradient K l over all columns.

    Row b's first floor(1 / ub[b]) training points, in index order, sit at
    ub[b] and the rest of the unit mass, 1 - ub[b] floor(1 / ub[b]) (never
    negative in floating point), goes on the next one; every other
    coordinate is 0. A start at 1/n would need about (1 - nu) n pair steps
    to zero the coordinates off the support, whatever the pair rule.
    """
    lam, grad = np.zeros(train.shape), np.empty(train.shape)
    for b, row_ub in enumerate(ub):
        idx, held = np.flatnonzero(train[b]), np.flatnonzero(~train[b])
        at_ub = int(1.0 / row_ub)
        start = idx[:at_ub + 1]
        lam0 = np.full(start.size, row_ub)
        lam0[at_ub:] = 1.0 - at_ub * row_ub
        lam[b, start] = lam0
        # A pair step leaves its two gradients equal up to rounding, so the
        # next choice of pair is decided by the last bits: a row computes its
        # start in the layout a lone solve on its points uses.
        grad[b, idx] = kmat[np.ix_(idx, start)] @ lam0
        grad[b, held] = kmat[np.ix_(held, start)] @ lam0
    return lam, grad


def _ocsvm_solve(kmat, train, ub, tol: float):
    """Solve a batch of one-class SVM duals over one Gram matrix in lockstep.

    Row b solves min 1/2 l^T K l, 0 <= l_i <= ub[b], sum l = 1 over the
    points where train[b] is set and keeps l = 0 (bounds 0, 0) on the
    others. Each row starts at LIBSVM's one-class point (_ocsvm_start):
    floor(1 / ub) points at ub, the rest of the mass on one more. Cross-
    validation solves to tol = _CV_TOL = 1e-4 and a fit to 1e-6. Returns l,
    the gradient K l over all columns (held-out ones included) and the
    offset xi of each row: the mean gradient over its margin support
    vectors, or over all its support vectors when none lies on the margin.
    """
    lam, grad = _ocsvm_start(kmat, train, ub)
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
    tol: float = 1e-6,
) -> KernelModel:
    """Pairwise-update solver for min 1/2 l^T K l, 0 <= l_i <= 1/(nu m), sum l = 1.

    At each step mass moves between the pair of coordinates that most
    violates the KKT conditions; the model's offset is -xi, with xi the
    mean of K l over the margin support vectors. This is the one-row case
    of the batched solver that ocsvm_train_cv runs.
    """
    x = np.atleast_2d(np.asarray(positives, dtype=float))
    m = x.shape[0]
    if not 0.0 < nu <= 1.0:
        raise ConfigError("nu must lie in (0, 1]")
    if m < 2:
        raise ConfigError("need at least two training points")
    if nu * m < 1.0:
        raise ConfigError("nu * m must be at least 1")
    kmat = _gram(x, x, kernel, sigma_svm)
    lam, _, xi = _ocsvm_solve(kmat, np.ones((1, m), dtype=bool),
                              np.array([1.0 / (nu * m)]), tol)
    keep = lam[0] > _BOX
    return KernelModel(support=x[keep], lambdas=lam[0, keep], offset=-float(xi[0]),
                       sigma_svm=sigma_svm, kernel=kernel)


def ocsvm_classify(model: KernelModel, x) -> np.ndarray:
    """Accept each query row whose decision value is strictly positive."""
    return svm_decision(model, x) > 0


def median_heuristic(x) -> float:
    """Median pairwise Euclidean distance, on a deterministic subsample."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] > _MEDIAN_CAP:
        step = x.shape[0] // _MEDIAN_CAP
        x = x[::step][:_MEDIAN_CAP]
    d = DistanceMetric("euclidean").pairwise(x, x)
    vals = d[np.triu_indices_from(d, k=1)]
    med = float(np.median(vals))
    return med if med > 0 else 1.0


def _ocsvm_cv_scores(sel, neg_sel, nus, sigmas, kernel: str) -> np.ndarray:
    """Cross-validated score of every (nu, sigma), shape (len(nus), len(sigmas)).

    For each kernel width one Gram matrix over sel serves every (nu, fold)
    problem: they run as one lockstep batch, each fold's validation points
    masked out of its rows. Held-out positives are scored from the
    solver's gradient and negatives from one product with their kernel
    block. A nu with nu * n_train < 1 on any fold scores -1; a grid with
    no other nu raises ConfigError.
    """
    m = sel.shape[0]
    pos_slices = _fold_slices(m)
    neg_slices = _fold_slices(neg_sel.shape[0])
    held = np.zeros((_FOLDS, m), dtype=bool)
    for f, s in enumerate(pos_slices):
        held[f, s] = True
    n_train = m - held.sum(axis=1)
    fit = [a for a, nu in enumerate(nus) if np.all(nu * n_train >= 1.0)]
    if not fit:
        raise ConfigError(f"no nu in the grid has nu * n_train >= 1 on every fold "
                          f"({min(n_train)} training points in the smallest)")
    score = np.full((len(nus), len(sigmas)), -1.0)
    # row k * _FOLDS + f solves nus[fit[k]] on fold f
    train = np.tile(~held, (len(fit), 1))
    ub = 1.0 / (np.repeat([nus[a] for a in fit], _FOLDS) * np.tile(n_train, len(fit)))
    for s, sig in enumerate(sigmas):
        # the Gram matrix is freed before the negatives' block is built
        lam, grad, xi = _ocsvm_solve(_gram(sel, sel, kernel, sig), train, ub, _CV_TOL)
        f_pos = grad - xi[:, None]
        f_neg = lam @ _gram(neg_sel, sel, kernel, sig).T - xi[:, None]
        total = np.zeros(len(fit))
        for f, (ps, ns) in enumerate(zip(pos_slices, neg_slices)):
            total += _fold_gmean(f_pos[f::_FOLDS, ps].T > 0, f_neg[f::_FOLDS, ns].T > 0)
        score[fit, s] = total
    return score


def ocsvm_train_cv(positives, negatives, rng: Rng, kernel: str) -> tuple[KernelModel, float, float]:
    """Tune (nu, sigma_svm) over _OCSVM_NUS and _SIGMA_FACTORS times the
    median heuristic (a Gaussian kernel's only) by the same cross-validated
    score as ocnn_train.

    Selection solves every (nu, fold) problem of one kernel width as one
    lockstep batch at a loose solver tolerance; ties resolve to the
    smallest nu, then the smallest sigma_svm. The returned model is refit
    on the full positive set at full tolerance.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    m = pos.shape[0]
    base = median_heuristic(pos)
    sigmas = [base * f for f in _SIGMA_FACTORS] if kernel == "gaussian" else [1.0]
    perm = rng.permutation(m)
    neg = np.atleast_2d(np.asarray(negatives, dtype=float))
    neg = neg[rng.permutation(neg.shape[0])]
    score = _ocsvm_cv_scores(pos[perm], neg[:m], _OCSVM_NUS, sigmas, kernel)
    a, s = np.unravel_index(np.argmax(score), score.shape)
    nu, sig = _OCSVM_NUS[a], sigmas[s]
    return ocsvm_train(pos, nu, sig, kernel=kernel), nu, sig


# ---------------------------------------------------------------------------
# binary baselines

def binary_knn(train_x, train_y, k: int, query) -> np.ndarray:
    """Accept each query row whose k nearest labeled samples by Euclidean
    distance are mostly positive; k must be odd."""
    if k % 2 == 0:
        raise ConfigError("k must be odd")
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y)
    if k > x.shape[0]:
        raise ConfigError("k exceeds the training size")
    d = DistanceMetric("euclidean").pairwise(np.asarray(query, dtype=float), x)
    votes = (y[_nearest(d, k)] > 0).sum(axis=1)
    return votes * 2 > k


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
        near = _nearest(metric.pairwise(x[va], x[tr]), ks[-1])
        accept = np.cumsum(pos[tr][near], axis=1)[:, ks - 1] * 2 > ks
        score += _fold_gmean(accept[pos[va]], accept[~pos[va]])
    return int(ks[np.argmax(score)])


def binary_svm_train(
    train_x,
    train_y,
    c: float = 1.0,
    sigma_svm: float = 1.0,
    tol: float = 1e-6,
) -> KernelModel:
    """Soft-margin Gaussian-kernel SVM: the one-row case of the pairwise dual solver.

    It solves for beta = y * alpha, min 1/2 b^T K b - y^T b with sum b = 0
    and 0 <= y_i b_i <= c, from b = 0, and keeps beta as the model's
    lambdas. The offset (bias) is minus the mean of the smallest gradient
    that may move up and the largest that may move down when the solver
    stops.
    Labels may be {0,1} or {-1,+1}; both classes must be present.
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y, dtype=float)
    y = np.where(y > 0, 1.0, -1.0)
    if not c > 0:
        raise ConfigError("c must be positive")
    if np.all(y > 0) or np.all(y < 0):
        raise ConfigError("both labels must be present")
    kmat = _gram(x, x, "gaussian", sigma_svm)
    beta = np.zeros((1, x.shape[0]))
    b_up, b_lo = _dual_solve(kmat, beta, -y[None], np.where(y > 0, 0.0, -c)[None],
                             np.where(y > 0, c, 0.0)[None], tol)
    keep = np.abs(beta[0]) > _BOX
    return KernelModel(support=x[keep], lambdas=beta[0, keep],
                       offset=float(-0.5 * (b_up[0] + b_lo[0])), sigma_svm=sigma_svm)


def binary_svm_classify(model: KernelModel, query) -> np.ndarray:
    """Accept each query row on the positive side of the margin."""
    return svm_decision(model, query) > 0


# ---------------------------------------------------------------------------
# clustering

def kmeans_label(samples, rng: Rng) -> np.ndarray:
    """Two-cluster Lloyd's algorithm, best of _KMEANS_STARTS random starts by
    final WCSS; the cluster index, 0 or 1, of each sample.

    Initial centroids are drawn uniformly without replacement from the
    samples; an emptied cluster is reseeded at the point farthest from its
    assigned centroid.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    m = x.shape[0]
    if m < 2:
        raise ConfigError("two clusters need at least two samples")
    best = best_wcss = None
    for _ in range(_KMEANS_STARTS):
        cent = x[rng.choice(m, size=2, replace=False)].copy()
        prev = None
        for _ in range(300):
            d2 = _sq_dists(x, cent)
            labels = np.argmin(d2, axis=1)
            for c in range(2):
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
        if best is None or wcss < best_wcss:
            best, best_wcss = labels, wcss
    return best


def kmeans_oracle_labels(samples, true_labels, rng: Rng) -> np.ndarray:
    """0/1 labels of a two-cluster kmeans_label: 1 on the cluster whose true
    labels have the larger mean (cluster 0 on a tie), an oracle no unlabelled
    setting has; a coin-split, 0, 1, 0, 1, ..., when one cluster takes all."""
    labels = kmeans_label(samples, rng)
    if labels.min() == labels.max():
        return np.arange(labels.size) % 2
    share = [np.mean(np.asarray(true_labels)[labels == c]) for c in (0, 1)]
    return (labels == int(share[1] > share[0])).astype(int)
