import numpy as np
import pytest

from pla_bench.errors import ConfigError, NumericError
from pla_bench.mlauth import (
    BinarySvmModel,
    DistanceMetric,
    OcnnModel,
    binary_knn,
    binary_knn_tune,
    binary_svm_classify,
    binary_svm_train,
    featurize,
    kmeans_label,
    llr_distance,
    median_heuristic,
    ocnn_classify,
    ocnn_train,
    ocsvm_classify,
    ocsvm_decision,
    ocsvm_train,
    ocsvm_train_cv,
)
from pla_bench.mlauth import (
    _THETA_GRID,
    _dual_solve,
    _fold_slices,
    _gram,
    _ocsvm_cv_scores,
    _ocsvm_solve,
)
from pla_bench.rng import Rng

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


def test_llr_distance_zero_and_validation():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert llr_distance(a, a, np.array([0.5, 0.5])) == 0.0
    with pytest.raises(ConfigError):
        llr_distance(a, a, np.array([0.5, 0.0]))


def test_llr_distance_with_sigma_two_is_squared_euclidean():
    # weights 2/sigma^2 collapse to one exactly
    rng = Rng(2)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    got = llr_distance(a, b, np.full(3, 2.0))
    assert got == pytest.approx(np.sum((a - b) ** 2), rel=1e-14)


def test_llr_distance_hand_value():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 2.0])
    # single carrier with sigma^2 = 0.5: weight 4 on both features
    assert llr_distance(a, b, np.array([0.5])) == pytest.approx(4.0 * (1.0 + 4.0))


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
            assert llrm[i, j] == pytest.approx(llr_distance(a[i], b[j], s2), rel=1e-12)


def test_distance_metric_validation():
    with pytest.raises(ConfigError):
        DistanceMetric("cosine")
    with pytest.raises(ConfigError):
        DistanceMetric("llr")
    with pytest.raises(ConfigError):
        DistanceMetric("llr", sigma2_n=np.array([0.5, -0.1]))


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
    assert ocnn_classify(model, np.array([1.2, 0.0])) is True   # 0.2 < 1.5
    assert ocnn_classify(model, np.array([4.0, 0.0])) is False  # 2.0 >= 1.5


def test_ocnn_boundary_is_strict():
    model = _line_model([0.0, 2.0], theta_d=1.5)
    assert np.allclose(model.yz_table, 2.0)
    # ratio is exactly theta_d: must reject
    assert ocnn_classify(model, np.array([5.0, 0.0])) is False
    assert ocnn_classify(model, np.array([4.99, 0.0])) is True


def test_ocnn_duplicate_trainers_accept_only_exact_copies():
    model = _line_model([0.0, 0.0, 5.0], theta_d=3.0)
    assert ocnn_classify(model, np.array([0.0, 0.0])) is True
    assert ocnn_classify(model, np.array([0.1, 0.0])) is False


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
        dist = lambda u, v: float(llr_distance(u, v, s2))
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
@pytest.mark.parametrize("variant,j,k", [("11NN", 1, 1), ("1KNN", 1, 3),
                                         ("J1NN", 2, 1), ("JKNN", 3, 2)])
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
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert _gram(a, a, "gaussian", 1.0, 3)[0, 0] == pytest.approx(1.0)
    assert _gram(a, b, "gaussian", 5.0, 3)[0, 0] == pytest.approx(np.exp(-25.0 / 50.0))
    for sigma in (0.0, -1.0):
        with pytest.raises(ConfigError):
            _gram(a, b, "gaussian", sigma, 3)


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
    f = ocsvm_decision(model, x)
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
    single = ocsvm_classify(model, x[0])
    assert isinstance(single, bool)
    batch = ocsvm_classify(model, x[:5])
    assert batch.shape == (5,) and batch.dtype == bool
    # strictly positive decision accepts, zero or negative rejects
    f = ocsvm_decision(model, x[:5])
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
    nus = (0.05, 0.1, 0.2)
    factors = (0.5, 1.0, 2.0)
    model, nu, sig = ocsvm_train_cv(pos, neg, Rng(24), nus=nus, sigma_factors=factors)
    assert nu in nus
    assert any(sig == pytest.approx(base * f) for f in factors)
    assert model.nu == nu and model.sigma_svm == sig
    _, nu2, sig2 = ocsvm_train_cv(pos, neg, Rng(24), nus=nus, sigma_factors=factors)
    assert (nu, sig) == (nu2, sig2)


def test_ocsvm_train_cv_tie_rule_ignores_grid_order():
    # on this draw nu = 0.05 and nu = 0.1 tie for the best score at the
    # widest kernel; the smaller nu wins however the grids are ordered
    rng = Rng(25)
    pos = rng.standard_normal((40, 2))
    neg = rng.standard_normal((40, 2)) + 5.0
    nus, factors = (0.05, 0.1, 0.2), (0.5, 1.0, 2.0)
    perm_rng = Rng(24)
    sel, neg_sel = pos[perm_rng.permutation(40)], neg[perm_rng.permutation(40)]
    sigmas = [median_heuristic(pos) * f for f in factors]
    score = _ocsvm_cv_scores(sel, neg_sel, nus, sigmas, "gaussian", 3)
    assert score[0, 2] == score[1, 2] == score.max()
    for order in (slice(None), slice(None, None, -1)):
        _, nu, sig = ocsvm_train_cv(pos, neg, Rng(24), nus=nus[order],
                                    sigma_factors=factors[order])
        assert (nu, sig) == (0.05, sigmas[2])


def _per_fold_scores(sel, neg_sel, nus, sigmas, kernel, tol=1e-3):
    """The cross-validated score grid fitted one (nu, sigma, fold) at a time."""
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
                model = ocsvm_train(sel[tr], nu, sig, kernel=kernel, tol=tol)
                tpr = float(np.mean(ocsvm_classify(model, sel[pos_slices[f]])))
                tnr = float(np.mean(~ocsvm_classify(model, neg_sel[neg_slices[f]])))
                total += np.sqrt(tpr * tnr)
            score[a, s] = total
    return score


@pytest.mark.parametrize("kernel", ["gaussian", "poly", "linear"])
def test_ocsvm_cv_batch_matches_per_fold_loop(kernel):
    # m = 43 gives uneven folds (9, 9, 9, 8, 8), so 34 or 35 training points:
    # nu = 0.029 falls short of one point on the folds of 34 only, 0.02 on all
    rng = Rng(26)
    pos = rng.standard_normal((43, 2))
    neg = rng.standard_normal((50, 2)) + 1.5
    nus = (0.02, 0.029, 0.05, 0.1, 0.3)
    factors = (0.5, 1.0, 2.0)
    model, nu, sig = ocsvm_train_cv(pos, neg, Rng(27), nus=nus, sigma_factors=factors,
                                    kernel=kernel)

    # the same permutations ocsvm_train_cv draws
    perm_rng = Rng(27)
    sel = pos[perm_rng.permutation(43)]
    neg_sel = neg[perm_rng.permutation(50)][:43]
    base = median_heuristic(pos)
    sigmas = [base * f for f in factors] if kernel == "gaussian" else [1.0]
    ref = _per_fold_scores(sel, neg_sel, nus, sigmas, kernel)
    got = _ocsvm_cv_scores(sel, neg_sel, nus, sigmas, kernel, 3)
    assert np.all(ref[:2] == -1.0)
    assert np.all(ref[2:] >= 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-12

    cands = [((ref[a, s], -n, -g), n, g) for a, n in enumerate(nus) for s, g in enumerate(sigmas)]
    _, ref_nu, ref_sig = max(cands, key=lambda c: c[0])
    assert (nu, sig) == (ref_nu, ref_sig)
    assert (model.nu, model.sigma_svm, model.kernel) == (nu, sig, kernel)


def test_ocsvm_masked_rows_match_lone_fits():
    rng = Rng(28)
    x = rng.standard_normal((40, 2))
    sigma = median_heuristic(x)
    kmat = _gram(x, x, "gaussian", sigma, 3)
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
        assert abs(xi[b] - lone.xi) <= 1e-9
        # held-out columns of the gradient are the lone model's decision values
        f_held = grad[b, held[b]] - xi[b]
        assert np.max(np.abs(f_held - ocsvm_decision(lone, x[held[b]]))) <= 1e-9


def test_ocsvm_nu_one_returns_the_uniform_point():
    # nu = 1 puts the bound at 1/m, so the uniform multipliers are the only
    # feasible point and no coordinate may move up
    x = Rng(30).standard_normal((20, 2))
    model = ocsvm_train(x, 1.0, 1.0)
    assert np.array_equal(model.lambdas, np.full(20, 1.0 / 20))


def test_ocsvm_solve_iteration_cap():
    rng = Rng(29)
    x = rng.standard_normal((30, 2))
    kmat = _gram(x, x, "gaussian", 1.0, 3)
    lam = np.full((2, 30), 1.0 / 30)
    hi = np.array([1.0 / 3.0, 1.0 / 15.0])[:, None].repeat(30, axis=1)
    with pytest.raises(NumericError):
        _dual_solve(kmat, lam, lam @ kmat, np.zeros_like(lam), hi, 1e-10, 2)


def test_median_heuristic_hand_case_and_degenerate():
    pts = np.array([[0.0], [1.0], [3.0]])
    assert median_heuristic(pts) == pytest.approx(2.0)
    assert median_heuristic(np.zeros((8, 2))) == 1.0


def test_median_heuristic_subsamples_deterministically():
    rng = Rng(25)
    x = rng.standard_normal((1000, 2))
    a = median_heuristic(x, cap=64)
    b = median_heuristic(x, cap=64)
    assert a == b
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
        want = int(np.sum(y[nearest]) * 2 > 3)
        assert g == want


def test_binary_knn_validation_and_single_query():
    x = np.zeros((5, 2))
    y = np.array([1, 0, 1, 0, 1])
    with pytest.raises(ConfigError):
        binary_knn(x, y, 2, np.zeros(2))
    with pytest.raises(ConfigError):
        binary_knn(x, y, 7, np.zeros(2))
    assert binary_knn(x, y, 3, np.zeros(2)) in (0, 1)


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
            tpr = np.mean(pred[y[va] == 1] == 1)
            tnr = np.mean(pred[y[va] == 0] == 0)
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
    return ocsvm_train_cv(pos, neg, Rng(0))


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
    kmat = _gram(x, x, "gaussian", sigma, 3)
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
    return BinarySvmModel(
        support=x[keep], support_y=y[keep], alphas=alpha[keep], bias=-0.5 * (b_up + b_lo),
        c=c, sigma_svm=sigma,
    )


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
    assert abs(got.bias - ref.bias) <= 1e-5
    assert np.array_equal(binary_svm_classify(got, queries), binary_svm_classify(ref, queries))


def test_binary_svm_separable_case():
    rng = Rng(33)
    a = rng.standard_normal((20, 2)) * 0.2
    b = rng.standard_normal((20, 2)) * 0.2 + 5.0
    x = np.concatenate([a, b])
    y = np.concatenate([np.ones(20, dtype=int), np.zeros(20, dtype=int)])
    model = binary_svm_train(x, y, c=10.0, sigma_svm=2.0)
    pred = binary_svm_classify(model, x)
    assert np.array_equal(pred, y)
    # the dual equality constraint survives the support-vector pruning
    assert abs(np.sum(model.alphas * model.support_y)) < 1e-8
    assert np.all(model.alphas > 0) and np.all(model.alphas <= 10.0 + 1e-9)


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
    assert np.array_equal(m1.alphas, m2.alphas)
    assert m1.bias == m2.bias


def test_binary_svm_classify_single():
    rng = Rng(36)
    x = rng.standard_normal((20, 2))
    y = (rng.uniform(size=20) > 0.5).astype(int)
    model = binary_svm_train(x, y, c=1.0, sigma_svm=1.0)
    assert binary_svm_classify(model, x[0]) in (0, 1)


# ---------------------------------------------------------------------------
# clustering


def test_kmeans_recovers_blobs():
    rng = Rng(40)
    a = rng.standard_normal((30, 2)) * 0.2
    b = rng.standard_normal((30, 2)) * 0.2 + 10.0
    x = np.concatenate([a, b])
    res = kmeans_label(x, 2, 4, Rng(41))
    labels_a = set(res.labels[:30].tolist())
    labels_b = set(res.labels[30:].tolist())
    assert len(labels_a) == 1 and len(labels_b) == 1
    assert labels_a != labels_b


def test_kmeans_k_equals_m_gives_zero_wcss():
    rng = Rng(42)
    x = rng.standard_normal((8, 2))
    res = kmeans_label(x, 8, 1, Rng(43))
    assert res.wcss == pytest.approx(0.0, abs=1e-20)


def test_kmeans_reseeds_empty_clusters():
    x = np.array([[0.0], [0.0], [10.0]])
    for seed in range(5):
        res = kmeans_label(x, 2, 1, Rng(seed))
        assert res.wcss == pytest.approx(0.0, abs=1e-20)


def test_kmeans_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ConfigError):
        kmeans_label(x, 0, 1, Rng(0))
    with pytest.raises(ConfigError):
        kmeans_label(x, 6, 1, Rng(0))
    with pytest.raises(ConfigError):
        kmeans_label(x, 2, 0, Rng(0))


def test_kmeans_deterministic():
    rng = Rng(46)
    x = rng.standard_normal((50, 2))
    a = kmeans_label(x, 3, 2, Rng(47))
    b = kmeans_label(x, 3, 2, Rng(47))
    assert np.array_equal(a.labels, b.labels)
    assert a.wcss == b.wcss
