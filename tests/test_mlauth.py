import math
import tracemalloc

import numpy as np
import pytest

from pla_bench import harness, mlauth
from pla_bench.channel import ScenarioParams, bob_estimate_phase1, sample_channel
from pla_bench.errors import ConfigError, NumericError
from pla_bench.harness import AttackerSpec, DefenderSpec, ExperimentConfig, _forged_packets
from pla_bench.mlauth import (
    DistanceMetric,
    KernelModel,
    OcnnModel,
    binary_knn,
    binary_knn_tune,
    binary_svm_classify,
    binary_svm_train,
    featurize,
    kmeans_label,
    kmeans_oracle_labels,
    median_heuristic,
    ocnn_classify,
    ocnn_train,
    ocsvm_classify,
    ocsvm_train,
    ocsvm_train_cv,
    svm_decision,
)
from pla_bench.mlauth import (
    _BOX,
    _FOLDS,
    _OCSVM_NUS,
    _THETA_GRID,
    _dual_solve,
    _fold_slices,
    _gram,
    _nearest,
    _ocsvm_cv_scores,
    _ocsvm_solve,
    _ocsvm_start,
    _sq_dists,
)
from pla_bench.rng import Rng
from pla_bench.statdec import llr_statistic

# ---------------------------------------------------------------------------
# features and metrics


def test_featurize_round_trip():
    rng = Rng(0)
    h = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    x = featurize(h)
    assert x.shape == (7, 6)
    assert np.array_equal(x[:, 0::2], h.real)
    assert np.array_equal(x[:, 1::2], h.imag)


def test_featurize_is_an_isometry():
    rng = Rng(1)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    complex_sq = np.sum(np.abs(a - b) ** 2)
    feature_sq = np.sum((featurize(a) - featurize(b)) ** 2)
    assert feature_sq == pytest.approx(complex_sq, rel=1e-14)


def _llr_psi(u, v, s2):
    """statdec's Psi between two feature vectors, read back as complex rows."""
    return float(llr_statistic(u[0::2] + 1j * u[1::2], v[0::2] + 1j * v[1::2], s2))


def test_llr_distance_zero_and_validation():
    a = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert DistanceMetric("llr", np.array([0.5, 0.5])).pairwise(a, a)[0, 0] == 0.0
    with pytest.raises(ConfigError):
        DistanceMetric("llr", np.array([0.5, 0.0]))


def test_llr_distance_with_sigma_two_is_squared_euclidean():
    # weights 2/sigma^2 collapse to one exactly
    rng = Rng(2)
    a = rng.standard_normal((1, 6))
    b = rng.standard_normal((1, 6))
    got = DistanceMetric("llr", np.full(3, 2.0)).pairwise(a, b)[0, 0]
    assert got == pytest.approx(np.sum((a - b) ** 2), rel=1e-14)


def test_llr_distance_hand_value():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 2.0]])
    # single carrier with sigma^2 = 0.5: weight 4 on both features
    got = DistanceMetric("llr", np.array([0.5])).pairwise(a, b)[0, 0]
    assert got == pytest.approx(4.0 * (1.0 + 4.0))


def test_distance_metric_pairwise_against_loops():
    rng = Rng(3)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((7, 4))
    euem = DistanceMetric("euclidean").pairwise(a, b)
    s2 = np.array([0.3, 0.7])
    llrm = DistanceMetric("llr", sigma2_n=s2).pairwise(a, b)
    for i in range(5):
        for j in range(7):
            assert euem[i, j] == pytest.approx(np.linalg.norm(a[i] - b[j]), rel=1e-12)
            assert llrm[i, j] == pytest.approx(_llr_psi(a[i], b[j], s2), rel=1e-12)


def test_distance_metric_validation():
    with pytest.raises(ConfigError):
        DistanceMetric("cosine")
    with pytest.raises(ConfigError):
        DistanceMetric("llr")
    with pytest.raises(ConfigError):
        DistanceMetric("llr", sigma2_n=np.array([0.5, -0.1]))


def _whole_sq_dists(a, b):
    """_sq_dists as one whole-array expression, every entry at once."""
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)


def _whole_nearest(d, n):
    """_nearest as one whole-array partition and sort."""
    if n == 1:
        return np.argmin(d, axis=1)[:, None]
    idx = np.argpartition(d, n - 1, axis=1)[:, :n]
    return np.take_along_axis(idx, np.argsort(np.take_along_axis(d, idx, axis=1), axis=1), axis=1)


# 503 columns: over an odd column count OpenBLAS's AVX-512 kernels give a
# row block's product other last bits than the same rows of the whole
# product, which is why _sq_dists blocks only the elementwise work
_COLS = 503
_EDGE = mlauth._BLOCK // _COLS  # the rows one block spans against _COLS columns
_SQUARE = math.isqrt(mlauth._BLOCK)  # m x m in one block; m + 1 takes two
_BLOCK_SHAPES = ([(rows, _COLS) for rows in (1, _EDGE - 1, _EDGE, _EDGE + 1, 2 * _EDGE + 1)]
                 + [(m, "same") for m in (_SQUARE, _SQUARE + 1, 1000)]
                 + [(1000, 2)])  # kmeans_label's samples against its two centroids


def _block_operands(rows, cols, features, seed):
    rng = Rng(seed)
    a = 3.0 * rng.standard_normal((rows, features)) + 1.0
    b = a if cols == "same" else rng.standard_normal((cols, features))
    return a, b


@pytest.mark.parametrize("features", [1, 2, 6])
@pytest.mark.parametrize("rows, cols", _BLOCK_SHAPES)
def test_blocked_distances_match_the_whole_array_expressions(rows, cols, features):
    # bit for bit, a is b (numpy's symmetric product) as well as a is not b
    a, b = _block_operands(rows, cols, features, 60 + features)
    d2 = _whole_sq_dists(a, b)
    assert np.array_equal(_sq_dists(a, b), d2)
    assert np.array_equal(DistanceMetric("euclidean").pairwise(a, b),
                          np.sqrt(np.maximum(d2, 0.0)))
    sigma = 0.7
    assert np.array_equal(_gram(a, b, "gaussian", sigma),
                          np.exp(-np.maximum(d2, 0.0) / (2.0 * sigma**2)))
    if features % 2 == 0:
        s2 = np.linspace(0.3, 1.1, features // 2)
        w = np.sqrt(np.repeat(2.0 / s2, 2))
        assert np.array_equal(DistanceMetric("llr", s2).pairwise(a, b),
                              np.maximum(_whole_sq_dists(a * w, b * w), 0.0))


@pytest.mark.parametrize("n", [1, 3, 30])
@pytest.mark.parametrize("rows", [1, _EDGE - 1, _EDGE, _EDGE + 1, 2 * _EDGE + 1])
def test_blocked_nearest_matches_the_whole_array_partition(rows, n):
    d = Rng(64).standard_normal((rows, _COLS))
    assert np.array_equal(_nearest(d, n), _whole_nearest(d, n))
    ties = np.round(d, 1)  # many equal entries per row
    assert np.array_equal(_nearest(ties, n), _whole_nearest(ties, n))


# ---------------------------------------------------------------------------
# one-class nearest neighbors


def _line_model(points, theta_d, variant="11NN", j=1, k=1):
    training = np.array([[p, 0.0] for p in points])
    return OcnnModel(variant=variant, j=j, k=k, theta_d=theta_d,
                     training=training, metric=DistanceMetric("euclidean"))


def test_ocnn_hand_case():
    model = _line_model([0.0, 1.0, 2.0], theta_d=1.5)
    # every trainer's nearest other trainer is one unit away
    assert np.allclose(model.yz_table, 1.0)
    # 0.2 < 1.5 accepts, 2.0 >= 1.5 rejects
    assert ocnn_classify(model, np.array([[1.2, 0.0], [4.0, 0.0]])).tolist() == [True, False]


def test_ocnn_boundary_is_strict():
    model = _line_model([0.0, 2.0], theta_d=1.5)
    assert np.allclose(model.yz_table, 2.0)
    # ratio is exactly theta_d: must reject
    assert ocnn_classify(model, np.array([[5.0, 0.0], [4.99, 0.0]])).tolist() == [False, True]


def test_ocnn_duplicate_trainers_accept_only_exact_copies():
    model = _line_model([0.0, 0.0, 5.0], theta_d=3.0)
    assert ocnn_classify(model, np.array([[0.0, 0.0], [0.1, 0.0]])).tolist() == [True, False]


def test_ocnn_classify_batches():
    model = _line_model([0.0, 1.0, 2.0], theta_d=1.5)
    queries = np.array([[1.2, 0.0], [4.0, 0.0]])
    got = ocnn_classify(model, queries)
    assert got.dtype == bool and got.shape == (2,)
    assert got.tolist() == [True, False]


def test_ocnn_model_validation():
    tr = np.zeros((5, 2))
    metric = DistanceMetric("euclidean")
    with pytest.raises(ConfigError):
        OcnnModel(variant="2NN", j=1, k=1, theta_d=1.0, training=tr, metric=metric)
    with pytest.raises(ConfigError):
        OcnnModel(variant="11NN", j=2, k=1, theta_d=1.0, training=tr, metric=metric)
    with pytest.raises(ConfigError):
        OcnnModel(variant="1KNN", j=2, k=2, theta_d=1.0, training=tr, metric=metric)
    with pytest.raises(ConfigError):
        OcnnModel(variant="J1NN", j=2, k=2, theta_d=1.0, training=tr, metric=metric)
    with pytest.raises(ConfigError):
        OcnnModel(variant="JKNN", j=1, k=1, theta_d=0.0, training=tr, metric=metric)
    with pytest.raises(ConfigError):
        OcnnModel(variant="JKNN", j=5, k=5, theta_d=1.0, training=tr, metric=metric)


def _brute_force_ocnn(training, metric_kind, s2, j, k, theta_d, query):
    if metric_kind == "euclidean":
        dist = lambda u, v: float(np.linalg.norm(u - v))
    else:
        dist = lambda u, v: _llr_psi(u, v, s2)
    m = training.shape[0]
    d_q = sorted((dist(query, training[i]), i) for i in range(m))
    picked = d_q[:j]
    dxy = np.mean([d for d, _ in picked])
    dyz_each = []
    for _, i in picked:
        others = sorted(dist(training[i], training[t]) for t in range(m) if t != i)
        dyz_each.append(np.mean(others[:k]))
    dyz = float(np.mean(dyz_each))
    if dyz > 0:
        return dxy < theta_d * dyz
    return dxy == 0


@pytest.mark.parametrize("metric_kind", ["euclidean", "llr"])
# k = 11 and j = 9 run past numpy's 8-element pairwise-summation block
@pytest.mark.parametrize("variant,j,k", [("11NN", 1, 1), ("1KNN", 1, 3),
                                         ("J1NN", 2, 1), ("JKNN", 3, 2),
                                         ("1KNN", 1, 11), ("JKNN", 9, 10)])
def test_ocnn_matches_brute_force(metric_kind, variant, j, k):
    rng = Rng(7)
    training = rng.standard_normal((12, 4))
    queries = rng.standard_normal((300, 4)) * 1.5
    s2 = np.array([0.4, 0.9])
    metric = (DistanceMetric("euclidean") if metric_kind == "euclidean"
              else DistanceMetric("llr", sigma2_n=s2))
    model = OcnnModel(variant=variant, j=j, k=k, theta_d=1.8,
                      training=training, metric=metric)
    got = ocnn_classify(model, queries)
    for q, g in zip(queries, got):
        assert g == _brute_force_ocnn(training, metric_kind, s2, j, k, 1.8, q)


def test_ocnn_train_respects_variant_and_grids():
    rng = Rng(9)
    pos = rng.standard_normal((40, 2))
    neg = rng.standard_normal((40, 2)) + 4.0
    for variant, jmax, kmax in [("11NN", 1, 1), ("1KNN", 1, 6),
                                ("J1NN", 6, 1), ("JKNN", 6, 6)]:
        model = ocnn_train(pos, variant, DistanceMetric("euclidean"), neg, Rng(10))
        assert model.variant == variant
        assert 1 <= model.j <= jmax and 1 <= model.k <= kmax
        assert model.theta_d in _THETA_GRID
        assert model.training.shape == (40, 2)


def test_ocnn_train_deterministic():
    rng = Rng(11)
    pos = rng.standard_normal((30, 2))
    neg = rng.standard_normal((30, 2)) + 3.0
    a = ocnn_train(pos, "JKNN", DistanceMetric("euclidean"), neg, Rng(12))
    b = ocnn_train(pos, "JKNN", DistanceMetric("euclidean"), neg, Rng(12))
    assert (a.j, a.k, a.theta_d) == (b.j, b.k, b.theta_d)


def test_ocnn_train_needs_ten_positives():
    neg = np.zeros((10, 2))
    with pytest.raises(ConfigError):
        ocnn_train(np.zeros((9, 2)), "11NN", DistanceMetric("euclidean"), neg, Rng(0))


def test_ocnn_train_separates_obvious_clusters():
    rng = Rng(13)
    pos = rng.standard_normal((50, 2)) * 0.3
    neg = rng.standard_normal((50, 2)) * 0.3 + 8.0
    model = ocnn_train(pos, "1KNN", DistanceMetric("euclidean"), neg, Rng(14))
    fresh_pos = rng.standard_normal((200, 2)) * 0.3
    fresh_neg = rng.standard_normal((200, 2)) * 0.3 + 8.0
    assert np.mean(ocnn_classify(model, fresh_pos)) > 0.9
    assert np.mean(ocnn_classify(model, fresh_neg)) < 0.05


# ---------------------------------------------------------------------------
# one-class SVM


def test_gaussian_kernel_values_and_validation():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert _gram(a, a, "gaussian", 1.0)[0, 0] == pytest.approx(1.0)
    assert _gram(a, b, "gaussian", 5.0)[0, 0] == pytest.approx(np.exp(-25.0 / 50.0))
    for sigma in (0.0, -1.0):
        with pytest.raises(ConfigError):
            _gram(a, b, "gaussian", sigma)


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_svm_training_rejects_nonpositive_sigma(sigma):
    x = Rng(19).standard_normal((20, 2))
    y = np.arange(20) % 2
    with pytest.raises(ConfigError):
        ocsvm_train(x, 0.2, sigma)
    with pytest.raises(ConfigError):
        binary_svm_train(x, y, c=1.0, sigma_svm=sigma)


def test_ocsvm_kkt_conditions():
    rng = Rng(20)
    x = rng.standard_normal((60, 2))
    nu = 0.3
    sigma = median_heuristic(x)
    model = ocsvm_train(x, nu, sigma)
    m, ub = 60, 1.0 / (nu * 60)
    # reconstruct the full multiplier vector by matching support rows
    lam = np.zeros(m)
    for row, lv in zip(model.support, model.lambdas):
        i = int(np.argmin(np.sum((x - row) ** 2, axis=1)))
        lam[i] += lv
    assert np.sum(lam) == pytest.approx(1.0, abs=1e-9)
    assert np.all(lam >= -1e-12) and np.all(lam <= ub + 1e-9)
    f = svm_decision(model, x)
    margin = (lam > 1e-9) & (lam < ub - 1e-9)
    bound = lam >= ub - 1e-9
    zero = lam <= 1e-9
    tol = 5e-5
    if margin.any():
        assert np.max(np.abs(f[margin])) < tol
    assert np.all(f[zero] >= -tol)
    assert np.all(f[bound] <= tol)
    # the nu-property: at most nu*m points sit strictly outside, at least
    # nu*m are support vectors (allow one point of slack either way)
    outside = int(np.sum(f < -tol))
    n_sv = int(np.sum(lam > 1e-9))
    assert outside <= nu * m + 1
    assert n_sv >= nu * m - 1


def test_ocsvm_validation():
    x = np.zeros((10, 2))
    with pytest.raises(ConfigError):
        ocsvm_train(x, 0.0, 1.0)
    with pytest.raises(ConfigError):
        ocsvm_train(x, 1.5, 1.0)
    with pytest.raises(ConfigError):
        ocsvm_train(np.zeros((1, 2)), 0.5, 1.0)
    with pytest.raises(ConfigError):
        ocsvm_train(x, 0.05, 1.0)  # nu * m = 0.5 < 1


def test_ocsvm_classify_single_and_batch():
    rng = Rng(21)
    x = rng.standard_normal((30, 2))
    model = ocsvm_train(x, 0.2, 1.5)
    single = ocsvm_classify(model, x[:1])
    batch = ocsvm_classify(model, x[:5])
    assert batch.shape == (5,) and batch.dtype == bool
    assert np.array_equal(single, batch[:1])
    # strictly positive decision accepts, zero or negative rejects
    f = svm_decision(model, x[:5])
    assert np.array_equal(batch, f > 0)


def test_ocsvm_rejects_far_outliers():
    rng = Rng(22)
    x = rng.standard_normal((50, 2))
    model = ocsvm_train(x, 0.1, median_heuristic(x))
    far = np.array([[40.0, -35.0], [-60.0, 10.0]])
    assert not ocsvm_classify(model, far).any()


def test_ocsvm_train_cv_grids_and_determinism():
    rng = Rng(23)
    pos = rng.standard_normal((40, 2))
    neg = rng.standard_normal((40, 2)) + 5.0
    base = median_heuristic(pos)
    model, nu, sig = ocsvm_train_cv(pos, neg, Rng(24), "gaussian")
    assert nu in mlauth._OCSVM_NUS
    assert any(sig == pytest.approx(base * f) for f in mlauth._SIGMA_FACTORS)
    assert model.sigma_svm == sig
    _, nu2, sig2 = ocsvm_train_cv(pos, neg, Rng(24), "gaussian")
    assert (nu, sig) == (nu2, sig2)


def test_ocsvm_train_cv_tie_goes_to_the_smallest_nu(monkeypatch):
    # the grids ascend, so the first best candidate is the smallest; on this
    # draw nu = 0.05 and nu = 0.1 tie for the best score at the widest kernel
    for grid in (mlauth._OCSVM_NUS, mlauth._SIGMA_FACTORS):
        assert list(grid) == sorted(set(grid))
    rng = Rng(25)
    pos = rng.standard_normal((40, 2))
    neg = rng.standard_normal((40, 2)) + 5.0
    nus = (0.05, 0.1, 0.2)
    monkeypatch.setattr(mlauth, "_OCSVM_NUS", nus)
    perm_rng = Rng(24)
    sel, neg_sel = pos[perm_rng.permutation(40)], neg[perm_rng.permutation(40)]
    sigmas = [median_heuristic(pos) * f for f in mlauth._SIGMA_FACTORS]
    score = _ocsvm_cv_scores(sel, neg_sel, nus, sigmas, "gaussian")
    assert score[0, 2] == score[1, 2] == score.max()
    _, nu, sig = ocsvm_train_cv(pos, neg, Rng(24), "gaussian")
    assert (nu, sig) == (0.05, sigmas[2])


def _per_fold_scores(sel, neg_sel, nus, sigmas, kernel):
    """The cross-validated score grid fitted one (nu, sigma, fold) at a time,
    at the batch's own solver tolerance."""
    pos_slices = _fold_slices(sel.shape[0])
    neg_slices = _fold_slices(neg_sel.shape[0])
    score = np.full((len(nus), len(sigmas)), -1.0)
    for a, nu in enumerate(nus):
        for s, sig in enumerate(sigmas):
            total = 0.0
            for f in range(len(pos_slices)):
                tr = np.concatenate([np.arange(q.start, q.stop)
                                     for i, q in enumerate(pos_slices) if i != f])
                if nu * tr.size < 1.0:
                    total = -1.0
                    break
                model = ocsvm_train(sel[tr], nu, sig, kernel=kernel, tol=mlauth._CV_TOL)
                tpr = float(np.mean(ocsvm_classify(model, sel[pos_slices[f]])))
                tnr = float(np.mean(~ocsvm_classify(model, neg_sel[neg_slices[f]])))
                total += np.sqrt(tpr * tnr)
            score[a, s] = total
    return score


@pytest.mark.parametrize("kernel", mlauth.KERNELS)
def test_ocsvm_cv_batch_matches_per_fold_loop(monkeypatch, kernel):
    # m = 43 gives uneven folds (9, 9, 9, 8, 8), so 34 or 35 training points:
    # nu = 0.029 falls short of one point on the folds of 34 only, 0.02 on all
    rng = Rng(26)
    pos = rng.standard_normal((43, 2))
    neg = rng.standard_normal((50, 2)) + 1.5
    nus = (0.02, 0.029, 0.05, 0.1, 0.3)
    factors = (0.5, 1.0, 2.0)
    monkeypatch.setattr(mlauth, "_OCSVM_NUS", nus)
    monkeypatch.setattr(mlauth, "_SIGMA_FACTORS", factors)
    model, nu, sig = ocsvm_train_cv(pos, neg, Rng(27), kernel)

    # the same permutations ocsvm_train_cv draws
    perm_rng = Rng(27)
    sel = pos[perm_rng.permutation(43)]
    neg_sel = neg[perm_rng.permutation(50)][:43]
    base = median_heuristic(pos)
    sigmas = [base * f for f in factors] if kernel == "gaussian" else [1.0]
    ref = _per_fold_scores(sel, neg_sel, nus, sigmas, kernel)
    got = _ocsvm_cv_scores(sel, neg_sel, nus, sigmas, kernel)
    assert np.all(ref[:2] == -1.0)
    assert np.all(ref[2:] >= 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-12

    cands = [((ref[a, s], -n, -g), n, g) for a, n in enumerate(nus) for s, g in enumerate(sigmas)]
    _, ref_nu, ref_sig = max(cands, key=lambda c: c[0])
    assert (nu, sig) == (ref_nu, ref_sig)
    assert (model.sigma_svm, model.kernel) == (sig, kernel)


def _shard_training_set(rho_ae, seed, dataset):
    """Positives, negatives and stream of an N = 1, m = 200 ocsvm shard,
    drawn as harness._run_shard draws them."""
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=rho_ae, m_training=200)
    rng = Rng(seed).derive(0, dataset)
    h = sample_channel(scn, rng.derive(0))
    pos = bob_estimate_phase1(np.broadcast_to(h, (200, 1)), scn, rng.derive(1))
    neg = _forged_packets(scn, AttackerSpec(), h, rng.derive(2), 200)
    return featurize(pos), featurize(neg), rng


# per kernel, the first shard draw (rho_AE 0.1 then 0.8, seeds from 0,
# datasets 0-3) on which the uniform start solved to 1e-3 selected another
# (nu, sigma) than at 1e-6
@pytest.mark.parametrize("kernel, rho_ae, seed, dataset",
                         [("linear", 0.1, 0, 0), ("poly", 0.8, 1, 0), ("gaussian", 0.1, 0, 1)])
def test_ocsvm_cv_selection_is_converged(monkeypatch, kernel, rho_ae, seed, dataset):
    pos, neg, rng = _shard_training_set(rho_ae, seed, dataset)
    _, nu, sig = ocsvm_train_cv(pos, neg, rng.derive(3), kernel=kernel)
    monkeypatch.setattr(mlauth, "_CV_TOL", 1e-6)
    _, nu_ref, sig_ref = ocsvm_train_cv(pos, neg, rng.derive(3), kernel=kernel)
    assert (nu, sig) == (nu_ref, sig_ref)


# nu * n integral; floor(1 / ub) = 92 one short of nu * n = 93, so the last
# start point takes 1 - 92 ub, just under ub; and a fractional nu * n = 4.3
@pytest.mark.parametrize("nu, n", [(0.25, 40), (1.0, 93), (0.1, 43)])
def test_ocsvm_start_is_feasible(nu, n):
    x = Rng(31).standard_normal((n + n // 2, 2))
    kmat = _gram(x, x, "gaussian", 1.0)
    # n training points: the first n, and n of those off every fifth column
    train = np.ones((2, x.shape[0]), dtype=bool)
    train[0, n:] = False
    train[1, ::5] = False
    train[1, np.flatnonzero(train[1])[n:]] = False
    assert train.sum(axis=1).tolist() == [n, n]
    ub = 1.0 / (nu * n)
    lam, grad = _ocsvm_start(kmat, train, np.full(2, ub))
    for b in range(2):
        assert abs(lam[b].sum() - 1.0) <= 1e-12
        assert np.all(lam[b] >= 0.0) and np.all(lam[b] <= ub)
        assert np.all(lam[b, ~train[b]] == 0.0)
        assert np.count_nonzero(lam[b]) <= int(nu * n) + 1
        assert np.max(np.abs(grad[b] - kmat @ lam[b])) <= 1e-12


def test_ocsvm_masked_rows_match_lone_fits():
    rng = Rng(28)
    x = rng.standard_normal((40, 2))
    sigma = median_heuristic(x)
    kmat = _gram(x, x, "gaussian", sigma)
    held = np.zeros((3, 40), dtype=bool)
    held[0, :7] = True
    held[1, 15:31] = True
    held[2, ::3] = True
    train = ~held
    nus = np.array([0.1, 0.3, 0.5])
    ub = 1.0 / (nus * train.sum(axis=1))
    lam, grad, xi = _ocsvm_solve(kmat, train, ub, 1e-6)
    for b in range(3):
        sub = x[train[b]]
        lone = ocsvm_train(sub, nus[b], sigma)
        keep = (sub[:, None, :] == lone.support[None]).all(axis=2).any(axis=1)
        want = np.zeros(sub.shape[0])
        want[keep] = lone.lambdas
        assert np.all(lam[b, held[b]] == 0.0)
        assert np.max(np.abs(lam[b, train[b]] - want)) <= 1e-9
        assert abs(xi[b] + lone.offset) <= 1e-9
        # held-out columns of the gradient are the lone model's decision values
        f_held = grad[b, held[b]] - xi[b]
        assert np.max(np.abs(f_held - svm_decision(lone, x[held[b]]))) <= 1e-9


def test_ocsvm_nu_one_returns_the_uniform_point():
    # nu = 1 puts the bound at 1/m, so the uniform multipliers are the only
    # feasible point and no coordinate may move up
    x = Rng(30).standard_normal((20, 2))
    model = ocsvm_train(x, 1.0, 1.0)
    assert np.array_equal(model.lambdas, np.full(20, 1.0 / 20))


def test_ocsvm_solve_iteration_cap():
    # a negative tolerance is never met, so the solver runs to its cap of 20,000 steps
    rng = Rng(29)
    x = rng.standard_normal((30, 2))
    kmat = _gram(x, x, "gaussian", 1.0)
    lam = np.full((2, 30), 1.0 / 30)
    hi = np.array([1.0 / 3.0, 1.0 / 15.0])[:, None].repeat(30, axis=1)
    with pytest.raises(NumericError, match="iteration cap"):
        _dual_solve(kmat, lam, lam @ kmat, np.zeros_like(lam), hi, -1.0)


def _lockstep_dual_solve(kmat, lam, grad, lo, hi, tol):
    """_dual_solve without compaction: every row steps in lockstep until all
    are within tol, a row that is by steps of 0. Returns each row's smallest
    up and largest down gradient at the stop, and the step at which it first
    came within tol."""
    rows, m = lam.shape
    hi_box, lo_box = hi - _BOX, lo + _BOX
    diag = kmat.diagonal()
    up_pen = np.where(lam < hi_box, 0.0, np.inf)
    dn_pen = np.where(lam > lo_box, 0.0, -np.inf)
    up, dn = np.empty_like(grad), np.empty_like(grad)
    lam_f, up_f, dn_f = lam.reshape(-1), up.reshape(-1), dn.reshape(-1)
    up_pen_f, dn_pen_f = up_pen.reshape(-1), dn_pen.reshape(-1)
    lo_f, hi_f = lo.reshape(-1), hi.reshape(-1)
    hi_box_f, lo_box_f = hi_box.reshape(-1), lo_box.reshape(-1)
    row0 = np.arange(rows) * m
    stopped = np.full(rows, -1)
    for n_step in range(max(300 * m, 20_000)):
        i = np.add(grad, up_pen, out=up).argmin(axis=1)
        j = np.add(grad, dn_pen, out=dn).argmax(axis=1)
        fi, fj = row0 + i, row0 + j
        viol = dn_f[fj] - up_f[fi]
        active = viol > tol
        stopped[(stopped < 0) & ~active] = n_step
        if not active.any():
            return up_f[fi], dn_f[fj], stopped
        lam_i, lam_j = lam_f[fi], lam_f[fj]
        denom = diag[i] + diag[j] - 2.0 * kmat[i, j]
        t_max = np.minimum(hi_f[fi] - lam_i, lam_j - lo_f[fj])
        step = np.divide(viol, denom, out=np.full(rows, np.inf), where=denom > 1e-15)
        t = np.where(active, np.minimum(t_max, step), 0.0)
        lam_f[fi] = lam_i + t
        lam_f[fj] -= t
        delta = kmat[i]
        np.subtract(delta, kmat[j], out=delta)
        grad += np.multiply(delta, t[:, None], out=delta)
        fk = np.concatenate([fi, fj])
        lam_k = lam_f[fk]
        up_pen_f[fk] = np.where(lam_k < hi_box_f[fk], 0.0, np.inf)
        dn_pen_f[fk] = np.where(lam_k > lo_box_f[fk], 0.0, -np.inf)
    raise NumericError("dual solver hit its iteration cap")


def _cv_batch(kernel, m):
    """A cross-validation batch as _ocsvm_cv_scores builds it: every (nu, fold)
    row over one Gram matrix, from the one-class start."""
    x = Rng(65).standard_normal((m, 2))
    kmat = _gram(x, x, kernel, median_heuristic(x))
    held = np.zeros((_FOLDS, m), dtype=bool)
    for f, s in enumerate(_fold_slices(m)):
        held[f, s] = True
    n_train = m - held.sum(axis=1)
    train = np.tile(~held, (len(_OCSVM_NUS), 1))
    ub = 1.0 / (np.repeat(_OCSVM_NUS, _FOLDS) * np.tile(n_train, len(_OCSVM_NUS)))
    lam, grad = _ocsvm_start(kmat, train, ub)
    return kmat, lam, grad, np.zeros_like(lam), np.where(train, ub[:, None], 0.0)


def _binary_batch(m):
    """Binary SVM duals at three costs c over one Gram matrix, from beta = 0."""
    x = Rng(66).standard_normal((m, 2))
    y = np.where(x[:, 0] + 0.5 * Rng(67).standard_normal(m) > 0, 1.0, -1.0)
    c = np.array([0.1, 1.0, 10.0])[:, None]
    lam = np.zeros((3, m))
    return (_gram(x, x, "gaussian", median_heuristic(x)), lam, np.tile(-y, (3, 1)),
            np.where(y > 0, 0.0, -c), np.where(y > 0, c, 0.0))


@pytest.mark.parametrize("batch, tol", [(("gaussian", 200), 1e-4), (("gaussian", 200), 1e-6),
                                        (("linear", 120), 1e-4), (("poly", 120), 1e-4),
                                        ("binary", 1e-6)], ids=str)
def test_compacting_dual_solve_matches_the_lockstep_loop(batch, tol):
    # rows leave the batch as they come within tol; the rest step on exactly
    # as in lockstep, so l, the gradient and (up, down) match bit for bit
    kmat, lam, grad, lo, hi = _binary_batch(90) if batch == "binary" else _cv_batch(*batch)
    lam_ref, grad_ref = lam.copy(), grad.copy()
    up_ref, dn_ref, stopped = _lockstep_dual_solve(kmat, lam_ref, grad_ref, lo, hi, tol)
    assert len(set(stopped.tolist())) > 1  # the rows stop at different steps
    up, dn = _dual_solve(kmat, lam, grad, lo, hi, tol)
    for got, want in ((lam, lam_ref), (grad, grad_ref), (up, up_ref), (dn, dn_ref)):
        assert np.array_equal(got, want)


def test_dual_solve_cap_counts_steps_after_rows_leave():
    # row 0 has no coordinate free to move (lo = hi = its start), so it stops
    # at step 0 and leaves the batch; under a negative tolerance row 1 never
    # stops, and the batch still ends at the cap of 20,000 steps
    x = Rng(29).standard_normal((30, 2))
    kmat = _gram(x, x, "gaussian", 1.0)
    lam = np.full((2, 30), 1.0 / 30)
    lo = np.vstack([lam[0], np.zeros(30)])
    hi = np.vstack([lam[0], np.full(30, 1.0 / 15.0)])
    for solve in (_lockstep_dual_solve, _dual_solve):
        with pytest.raises(NumericError, match="iteration cap"):
            solve(kmat, lam.copy(), lam @ kmat, lo, hi, -1.0)


def test_median_heuristic_hand_case_and_degenerate():
    pts = np.array([[0.0], [1.0], [3.0]])
    assert median_heuristic(pts) == pytest.approx(2.0)
    assert median_heuristic(np.zeros((8, 2))) == 1.0


def test_median_heuristic_subsamples_deterministically():
    rng = Rng(25)
    x = rng.standard_normal((1000, 2))
    a = median_heuristic(x)
    assert a == median_heuristic(x)
    # 1000 rows exceed the 256-point cap, so every third row up to the cap counts
    assert a == median_heuristic(x[::3][:256])
    assert a > 0


# ---------------------------------------------------------------------------
# binary baselines


def test_binary_knn_matches_brute_force():
    rng = Rng(30)
    x = rng.standard_normal((25, 3))
    y = (rng.uniform(size=25) > 0.5).astype(int)
    queries = rng.standard_normal((50, 3))
    got = binary_knn(x, y, 3, queries)
    for q, g in zip(queries, got):
        d = np.linalg.norm(x - q, axis=1)
        nearest = np.argsort(d)[:3]
        assert g == (np.sum(y[nearest]) * 2 > 3)


def test_binary_knn_validation_and_single_query():
    x = np.zeros((5, 2))
    y = np.array([1, 0, 1, 0, 1])
    with pytest.raises(ConfigError):
        binary_knn(x, y, 2, np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        binary_knn(x, y, 7, np.zeros((1, 2)))
    # one query row gives one vote
    assert binary_knn(x, y, 3, np.zeros((1, 2))).tolist() in ([False], [True])


def test_binary_knn_tune_returns_odd_k_in_range():
    rng = Rng(31)
    x = np.concatenate([rng.standard_normal((40, 2)),
                        rng.standard_normal((40, 2)) + 6.0])
    y = np.concatenate([np.ones(40, dtype=int), np.zeros(40, dtype=int)])
    k = binary_knn_tune(x, y, Rng(32))
    assert k % 2 == 1
    assert 3 <= k <= max(3, int(np.sqrt(80)))
    assert binary_knn_tune(x, y, Rng(32)) == k


def _per_k_knn_tune(x, y, rng):
    """binary_knn_tune's selection with one binary_knn call per (k, fold)."""
    m = x.shape[0]
    perm = rng.permutation(m)
    slices = _fold_slices(m)
    best = None
    for k in range(3, max(3, int(np.sqrt(m))) + 1, 2):
        total = 0.0
        for f, s in enumerate(slices):
            va = perm[s]
            tr = np.concatenate([perm[q] for i, q in enumerate(slices) if i != f])
            pred = binary_knn(x[tr], y[tr], k, x[va])
            tpr = np.mean(pred[y[va] == 1])
            tnr = np.mean(~pred[y[va] == 0])
            total += np.sqrt(tpr * tnr)
        if best is None or total > best[0]:
            best = (total, k)
    return best[1]


# overlapping classes score differently across k; separated ones tie at every k
@pytest.mark.parametrize("seed, shift", [(s, 0.8) for s in range(6)] + [(6, 8.0)])
def test_binary_knn_tune_matches_per_k_loop(seed, shift):
    rng = Rng(100 + seed)
    m = 60 + 40 * seed
    x = np.concatenate([rng.standard_normal((m, 3)), rng.standard_normal((m, 3)) + shift])
    y = np.concatenate([np.ones(m, dtype=int), np.zeros(m, dtype=int)])
    assert binary_knn_tune(x, y, Rng(seed)) == _per_k_knn_tune(x, y, Rng(seed))


def _tune_ocnn(pos, neg):
    return ocnn_train(pos, "1KNN", DistanceMetric("euclidean"), neg, Rng(0))


def _tune_ocsvm(pos, neg):
    return ocsvm_train_cv(pos, neg, Rng(0), "gaussian")


def _tune_knn(pos, neg):
    x = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(len(pos), dtype=int), np.zeros(len(neg), dtype=int)])
    return binary_knn_tune(x, y, Rng(0))


@pytest.mark.parametrize("tune", [_tune_ocnn, _tune_ocsvm, _tune_knn])
def test_tuners_reject_empty_validation_folds(tune):
    # three negatives leave two of the five folds without one
    rng = Rng(37)
    pos = rng.standard_normal((40, 2))
    neg = rng.standard_normal((3, 2)) + 3.0
    with pytest.raises(ConfigError, match="folds leave an empty validation set"):
        tune(pos, neg)


def _scalar_binary_svm(x, y, c, sigma, tol=1e-6):
    """binary_svm_train's model from a scalar maximal-violating-pair loop on alpha."""
    y = np.where(np.asarray(y) > 0, 1.0, -1.0)
    m = x.shape[0]
    kmat = _gram(x, x, "gaussian", sigma)
    alpha = np.zeros(m)
    f_val = -y.copy()  # F_i = sum_j alpha_j y_j K_ij - y_i
    box = 1e-12

    def masks():
        up = ((y > 0) & (alpha < c - box)) | ((y < 0) & (alpha > box))
        lo = ((y > 0) & (alpha > box)) | ((y < 0) & (alpha < c - box))
        return up, lo

    for _ in range(max(300 * m, 20_000)):
        up_mask, lo_mask = masks()
        i_up = np.argmin(np.where(up_mask, f_val, np.inf))
        i_lo = np.argmax(np.where(lo_mask, f_val, -np.inf))
        b_up, b_lo = f_val[i_up], f_val[i_lo]
        if b_lo - b_up <= tol:
            break
        i, j = i_lo, i_up
        eta = max(kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j], 1e-15)
        aj_old, ai_old = alpha[j], alpha[i]
        s = y[i] * y[j]
        gamma = ai_old + s * aj_old
        # clip to the box respecting alpha_i = gamma - s * alpha_j
        if s > 0:
            lo_b, hi_b = max(0.0, gamma - c), min(c, gamma)
        else:
            lo_b, hi_b = max(0.0, -gamma), min(c, c - gamma)
        aj = min(max(aj_old + y[j] * (b_lo - b_up) / eta, lo_b), hi_b)
        ai = gamma - s * aj
        alpha[j], alpha[i] = aj, ai
        f_val += y[j] * (aj - aj_old) * kmat[:, j] + y[i] * (ai - ai_old) * kmat[:, i]
    else:
        raise NumericError("scalar reference hit its iteration cap")
    up_mask, lo_mask = masks()
    b_up = float(np.min(np.where(up_mask, f_val, np.inf)))
    b_lo = float(np.max(np.where(lo_mask, f_val, -np.inf)))
    keep = alpha > box
    return KernelModel(support=x[keep], lambdas=alpha[keep] * y[keep],
                       offset=-0.5 * (b_up + b_lo), sigma_svm=sigma)


def _harness_like_draw(seed, m):
    """m training points in 6 features, half genuine and half forged, with overlap."""
    rng = Rng(300 + seed)
    centre = rng.standard_normal(6)
    pos = centre + 0.3 * rng.standard_normal((m // 2, 6))
    neg = 0.8 * centre + 0.5 * rng.standard_normal((m - m // 2, 6))
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(m // 2, dtype=int), np.zeros(m - m // 2, dtype=int)])
    queries = np.vstack([centre + 0.3 * rng.standard_normal((2_500, 6)),
                         0.8 * centre + 0.5 * rng.standard_normal((2_500, 6))])
    return x, y, 1.0, queries


def _separable_draw():
    rng = Rng(33)
    x = np.concatenate([rng.standard_normal((20, 2)) * 0.2,
                        rng.standard_normal((20, 2)) * 0.2 + 5.0])
    y = np.concatenate([np.ones(20, dtype=int), np.zeros(20, dtype=int)])
    return x, y, 10.0, 3.0 * rng.standard_normal((5_000, 2)) + 2.5


@pytest.mark.parametrize("draw", [(s, m) for s, m in enumerate((100, 100, 100, 1000, 1000))]
                         + ["separable"], ids=str)
def test_binary_svm_matches_scalar_reference(draw):
    x, y, c, queries = _separable_draw() if draw == "separable" else _harness_like_draw(*draw)
    sigma = median_heuristic(x)
    got = binary_svm_train(x, y, c=c, sigma_svm=sigma)
    ref = _scalar_binary_svm(x, y, c, sigma)
    assert abs(got.offset - ref.offset) <= 1e-5
    assert np.array_equal(binary_svm_classify(got, queries), binary_svm_classify(ref, queries))


def test_binary_svm_separable_case():
    rng = Rng(33)
    a = rng.standard_normal((20, 2)) * 0.2
    b = rng.standard_normal((20, 2)) * 0.2 + 5.0
    x = np.concatenate([a, b])
    y = np.concatenate([np.ones(20, dtype=int), np.zeros(20, dtype=int)])
    model = binary_svm_train(x, y, c=10.0, sigma_svm=2.0)
    pred = binary_svm_classify(model, x)
    assert np.array_equal(pred, y == 1)
    # the dual equality constraint survives the support-vector pruning
    assert abs(np.sum(model.lambdas)) < 1e-8
    alpha = np.abs(model.lambdas)
    assert np.all(alpha > 0) and np.all(alpha <= 10.0 + 1e-9)


def test_binary_svm_label_conventions_agree():
    rng = Rng(34)
    x = rng.standard_normal((30, 2))
    y01 = (rng.uniform(size=30) > 0.5).astype(int)
    ypm = np.where(y01 > 0, 1, -1)
    qa = rng.standard_normal((20, 2))
    m1 = binary_svm_train(x, y01, c=1.0, sigma_svm=1.0)
    m2 = binary_svm_train(x, ypm, c=1.0, sigma_svm=1.0)
    assert np.array_equal(binary_svm_classify(m1, qa), binary_svm_classify(m2, qa))


def test_binary_svm_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        binary_svm_train(x, np.ones(4), c=1.0)
    with pytest.raises(ConfigError):
        binary_svm_train(x, np.array([1, 1, 0, 0]), c=0.0)


def test_binary_svm_deterministic():
    rng = Rng(35)
    x = rng.standard_normal((30, 2))
    y = (rng.uniform(size=30) > 0.5).astype(int)
    m1 = binary_svm_train(x, y, c=1.0, sigma_svm=1.0)
    m2 = binary_svm_train(x, y, c=1.0, sigma_svm=1.0)
    assert np.array_equal(m1.lambdas, m2.lambdas)
    assert m1.offset == m2.offset


def test_binary_svm_classify_single():
    rng = Rng(36)
    x = rng.standard_normal((20, 2))
    y = (rng.uniform(size=20) > 0.5).astype(int)
    model = binary_svm_train(x, y, c=1.0, sigma_svm=1.0)
    # one query row gives one label
    assert binary_svm_classify(model, x[:1]).tolist() in ([False], [True])


def _accept_rules(x, y):
    """Each learned classifier, trained on x, as a function of query rows."""
    pos, neg = x[y == 1], x[y == 0]
    ocnn = ocnn_train(pos, "1KNN", DistanceMetric("euclidean"), neg, Rng(0))
    ocsvm = ocsvm_train(pos, 0.2, median_heuristic(pos))
    svm = binary_svm_train(x, y, c=1.0, sigma_svm=1.0)
    return {
        "ocnn_classify": lambda q: ocnn_classify(ocnn, q),
        "ocsvm_classify": lambda q: ocsvm_classify(ocsvm, q),
        "binary_knn": lambda q: binary_knn(x, y, 3, q),
        "binary_svm_classify": lambda q: binary_svm_classify(svm, q),
    }


@pytest.mark.parametrize("name", ["ocnn_classify", "ocsvm_classify", "binary_knn",
                                  "binary_svm_classify"])
@pytest.mark.parametrize("n_query", [1, 7])
def test_classifiers_return_one_boolean_per_query_row(name, n_query):
    rng = Rng(38)
    x = np.concatenate([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 2.0])
    y = np.concatenate([np.ones(30, dtype=int), np.zeros(30, dtype=int)])
    got = _accept_rules(x, y)[name](rng.standard_normal((n_query, 2)) + 1.0)
    assert got.dtype == bool and got.shape == (n_query,)


# ---------------------------------------------------------------------------
# clustering


def test_kmeans_recovers_blobs():
    rng = Rng(40)
    a = rng.standard_normal((30, 2)) * 0.2
    b = rng.standard_normal((30, 2)) * 0.2 + 10.0
    labels = kmeans_label(np.concatenate([a, b]), Rng(41))
    assert set(labels.tolist()) == {0, 1}
    assert len(set(labels[:30].tolist())) == 1 and len(set(labels[30:].tolist())) == 1
    assert labels[0] != labels[30]


def test_kmeans_reseeds_empty_clusters(monkeypatch):
    # a start on the two coincident points empties one cluster, which is
    # reseeded at the far point
    monkeypatch.setattr(mlauth, "_KMEANS_STARTS", 1)
    x = np.array([[0.0], [0.0], [10.0]])
    for seed in range(5):
        labels = kmeans_label(x, Rng(seed))
        assert labels[0] == labels[1] != labels[2]


def test_kmeans_validation():
    with pytest.raises(ConfigError, match="two samples"):
        kmeans_label(np.zeros((1, 2)), Rng(0))
    assert kmeans_label(np.zeros((2, 2)), Rng(0)).shape == (2,)


def test_kmeans_deterministic():
    rng = Rng(46)
    x = rng.standard_normal((50, 2))
    assert np.array_equal(kmeans_label(x, Rng(47)), kmeans_label(x, Rng(47)))


def _two_blobs(seed):
    rng = Rng(seed)
    return np.concatenate([rng.standard_normal((20, 2)) * 0.2,
                           rng.standard_normal((20, 2)) * 0.2 + 10.0])


@pytest.mark.parametrize("positive_blob", [0, 1])
def test_kmeans_oracle_labels_map_the_purer_cluster_to_1(positive_blob):
    x = _two_blobs(48)
    y = np.zeros(40, dtype=int)
    pos = slice(0, 20) if positive_blob == 0 else slice(20, 40)
    y[pos] = 1
    y[pos.start] = 0  # a mislabelled point does not move the map
    want = np.zeros(40, dtype=int)
    want[pos] = 1
    assert np.array_equal(kmeans_oracle_labels(x, y, Rng(49)), want)


def test_kmeans_oracle_labels_tie_goes_to_cluster_0():
    x = _two_blobs(50)
    y = np.tile([1, 0], 20)  # each blob holds as many positives as negatives
    clusters = kmeans_label(x, Rng(51))
    assert set(clusters[:20]) != set(clusters[20:])
    assert np.array_equal(kmeans_oracle_labels(x, y, Rng(51)), (clusters == 0).astype(int))


def test_kmeans_oracle_labels_coin_split_when_one_cluster_takes_all():
    # identical points: the final assignment puts every point in cluster 0
    x = np.ones((7, 2))
    assert not kmeans_label(x, Rng(52)).any()
    y = np.array([1, 1, 1, 1, 0, 0, 0])
    assert np.array_equal(kmeans_oracle_labels(x, y, Rng(52)), [0, 1, 0, 1, 0, 1, 0])


# ---------------------------------------------------------------------------
# memory of a learned shard


def _shard_peak_matrices(kind):
    """tracemalloc peak of one table4-style shard (N = 3, m = 1,000, one
    dataset of 1,000 evaluation trials) in whole m x m float64 matrices."""
    cfg = ExperimentConfig(defender=DefenderSpec(kind), n_subcarriers=(3,), rho_AE=(0.1,),
                           n_trials=1000, n_datasets=1, seed=42)
    point = next(cfg.sweep_points())
    tracemalloc.start()
    try:
        harness._run_shard(cfg, 0, 0, point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * point["m_training"] ** 2)


@pytest.mark.parametrize("kind, bound", [("ocnn", 1.3), ("ocsvm", 1.95)])
def test_learned_shard_peak_memory_is_bounded(kind, bound):
    # one m x m distance or Gram matrix, transformed in place, beside a row
    # block of work and, for ocsvm, the per-row arrays of its 25-row lockstep
    # batch: 1.13 (ocnn) and 1.75 (ocsvm) measured, bounded about 0.2 above.
    # Whole-array distance expressions and partitions read 2.07 and 2.13
    assert _shard_peak_matrices(kind) <= bound
