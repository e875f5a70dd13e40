"""End-to-end acceptance checks.

One test per numbered criterion. Every test records a single PASS/FAIL
line for the terminal summary (see conftest) before asserting, so a red
run still reports the per-criterion verdicts. Tolerances are pinned
here; published reference values live in this file only.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate, special

import _acceptance_util

from pla_bench.attacks import (
    AttackStrategy,
    mismatched_eval,
    optimize_attack_exponents,
)
from pla_bench.channel import (
    ScenarioParams,
    complex_gaussian,
    eve_observations,
    sample_channel,
)
from pla_bench.harness import (
    PUBLISHED_OCC_FA,
    AttackerSpec,
    DefenderSpec,
    ExperimentConfig,
    emit,
    reproduce,
    run_experiment,
)
from pla_bench.mlauth import (
    DistanceMetric,
    OcnnModel,
    _gram,
    binary_svm_train,
    median_heuristic,
    ocnn_classify,
    ocnn_train,
    ocsvm_train,
)
from pla_bench.rng import Rng
from pla_bench.statdec import (
    analytic_pfa_pmd,
    llr_statistic,
    ncx2_cdf,
    ncx2_inv,
    noncentrality_beta,
    noncentrality_mu,
    optimize_thresholds,
    per_dim_variance,
)


def _finish(criterion, cells):
    """Record one summary line for the criterion, then assert."""
    ok = all(good for _, good, _ in cells)
    bad = [f"{label}: {info}" for label, good, info in cells if not good]
    if ok:
        detail = f"{len(cells)} checks ({'; '.join(label for label, _, _ in cells)})"
    else:
        detail = "; ".join(bad)
    _acceptance_util.record(criterion, ok, detail)
    assert ok, detail


def _rows_by_n(table):
    return {row["n_subcarriers"]: row for row in table.rows}


# ---------------------------------------------------------------------------
# criterion 1: closed-form error rates against Monte Carlo


def test_criterion_01_analytic_vs_monte_carlo():
    t0 = time.time()
    rng = Rng(2026)
    n_trials = 100_000
    targets = (1e-1, 1e-2, 1e-3)
    cells = []
    for i in range(20):
        n = int(rng.integers(1, 7))
        params = ScenarioParams.from_snr(
            n,
            float(rng.uniform(10.0, 18.0)),
            float(rng.uniform(15.0, 25.0)),
            alpha_I=float(rng.uniform(0.85, 1.0)),
            alpha_II=float(rng.uniform(0.85, 1.0)),
            rho_AE=float(rng.uniform(0.3, 0.9)),
            rho_EB=float(rng.uniform(0.3, 0.9)),
        )
        target = targets[i % 3]
        h = sample_channel(params, rng)
        h_ae, h_eb = eve_observations(h, params, rng)
        g = AttackStrategy("simplified").forge(h_ae, h_eb, params)
        mu = noncentrality_mu(params, h)
        beta = noncentrality_beta(g, params, h)
        theta = ncx2_inv(1.0 - target, 2 * n, mu)
        pfa_want, pmd_want = analytic_pfa_pmd(theta, mu, beta, n)

        s2 = per_dim_variance(params)
        a_ref = params.alpha_I
        a_est = params.alpha_II
        shape = (n_trials, n)
        h_bar = (
            a_ref * h
            + np.sqrt(1.0 - a_ref**2) * complex_gaussian(rng, shape, 1.0)
            + complex_gaussian(rng, shape, params.sigma2_I)
        )
        genuine = (
            a_est * h
            + np.sqrt(1.0 - a_est**2) * complex_gaussian(rng, shape, 1.0)
            + complex_gaussian(rng, shape, params.sigma2_II)
        )
        forged = (
            g
            + np.sqrt(1.0 - a_est**2) * complex_gaussian(rng, shape, 1.0)
            + complex_gaussian(rng, shape, params.sigma2_II)
        )
        psi_h0 = 2.0 * np.sum(np.abs(genuine - h_bar) ** 2 / s2, axis=-1)
        psi_h1 = 2.0 * np.sum(np.abs(forged - h_bar) ** 2 / s2, axis=-1)
        pfa_got = float(np.mean(psi_h0 > theta))
        pmd_got = float(np.mean(psi_h1 <= theta))

        tol_fa = 3.0 * math.sqrt(pfa_want * (1.0 - pfa_want) / n_trials) + 1e-12
        tol_md = 3.0 * math.sqrt(pmd_want * (1.0 - pmd_want) / n_trials) + 1e-12
        cells.append(
            (
                f"pt{i} fa",
                abs(pfa_got - pfa_want) <= tol_fa,
                f"got {pfa_got:.5f} want {pfa_want:.5f} tol {tol_fa:.5f}",
            )
        )
        cells.append(
            (
                f"pt{i} md",
                abs(pmd_got - pmd_want) <= tol_md,
                f"got {pmd_got:.5f} want {pmd_want:.5f} tol {tol_md:.5f}",
            )
        )
    elapsed = time.time() - t0
    cells.append(("runtime<2min", elapsed < 120.0, f"{elapsed:.1f}s"))
    _finish(1, cells)


# ---------------------------------------------------------------------------
# criteria 2 and 3: desk-scale table reproduction at rho = 0.1 and 0.8


def _table_cells(rho, defenders, published, seed=11):
    """Run the matched-FA table sweep and compare each cell."""
    base = dict(
        n_subcarriers=(1, 2, 3),
        rho_AE=(rho,),
        m_training=(1000,),
        attacker=AttackerSpec(AttackStrategy("simplified")),
        n_trials=40_000,
        n_datasets=20,
        seed=seed,
    )
    cells = []
    for spec, target, wanted in defenders:
        cfg_kw = dict(base)
        cfg_kw["n_subcarriers"] = tuple(sorted(wanted))
        table = run_experiment(
            ExperimentConfig(defender=spec, target_pfa=target, **cfg_kw)
        )
        rows = _rows_by_n(table)
        for n in sorted(wanted):
            want = published[(spec.label(), n)]
            row = rows[n]
            tol = max(0.20 * want, 3.0 * row["se_pmd"])
            cells.append(
                (
                    f"{spec.label()} N={n}",
                    abs(row["p_md"] - want) <= tol,
                    f"got {row['p_md']:.4f} want {want} tol {tol:.4f}",
                )
            )
    return cells


def test_criterion_02_matched_fa_table_rho_01():
    t0 = time.time()
    published = {
        ("llr", 1): 0.255,
        ("llr", 2): 0.094,
        ("llr", 3): 0.044,
        ("ocnn-1KNN", 1): 0.055,
    }
    defenders = [
        (DefenderSpec("llr"), PUBLISHED_OCC_FA, (1, 2, 3)),
        (DefenderSpec("ocnn", variant="1KNN"), None, (1,)),
    ]
    cells = _table_cells(0.1, defenders, published)
    elapsed = time.time() - t0
    cells.append(("runtime<10min", elapsed < 600.0, f"{elapsed:.1f}s"))
    _finish(2, cells)


def test_criterion_03_matched_fa_table_rho_08():
    published = {
        ("ocnn-1KNN", 1): 0.318,
        ("ocnn-1KNN", 2): 0.141,
        ("ocnn-1KNN", 3): 0.086,
        ("ocsvm", 1): 0.167,
        ("ocsvm", 2): 0.044,
        ("ocsvm", 3): 0.012,
    }
    defenders = [
        (DefenderSpec("ocnn", variant="1KNN"), None, (1, 2, 3)),
        (DefenderSpec("ocsvm"), None, (1, 2, 3)),
    ]
    _finish(3, _table_cells(0.8, defenders, published))


# ---------------------------------------------------------------------------
# criterion 4: exponent-search optima


def test_criterion_04_attack_exponent_search():
    t0 = time.time()
    table = reproduce("table1", scale=1.0, seed=42)
    cells = []
    for row in table.rows:
        n, rho = row["n_subcarriers"], row["rho"]
        x, y = row["x"], row["y"]
        if rho == 0.1:
            ok = abs(x - 0.7) <= 0.1 + 1e-9 and abs(y - 0.7) <= 0.1 + 1e-9
            cells.append(
                (f"N={n} rho=0.1 near (0.7,0.7)", ok, f"got ({x:g},{y:g})")
            )
        else:
            ok = x == 1.0 and y == 1.0
            cells.append(
                (f"N={n} rho={rho} exact (1,1)", ok, f"got ({x:g},{y:g})")
            )
    elapsed = time.time() - t0
    cells.append(("runtime<15min", elapsed < 900.0, f"{elapsed:.1f}s"))
    _finish(4, cells)


# ---------------------------------------------------------------------------
# criterion 5: ordering claims


def _pmd_cells(table):
    out = {}
    for row in table.rows:
        out[row["n_subcarriers"]] = (row["p_md"], row["se_pmd"])
    return out


def test_criterion_05_ordering_claims():
    cells = []

    # (a) and (b): statistical tests at matched FA, alpha_II = 0.8
    stat = {}
    for kind in ("llr", "combined", "ideal"):
        cfg = ExperimentConfig(
            defender=DefenderSpec(kind),
            attacker=AttackerSpec(AttackStrategy("simplified")),
            n_subcarriers=(3, 6),
            alpha_II=(0.8,),
            rho_AE=(0.1,),
            target_pfa=1e-2,
            n_trials=40_000,
            n_datasets=2,
            seed=5,
        )
        stat[kind] = _pmd_cells(run_experiment(cfg))
    for n in (3, 6):
        llr_p, llr_se = stat["llr"][n]
        com_p, com_se = stat["combined"][n]
        idl_p, idl_se = stat["ideal"][n]
        slack_ac = 3.0 * max(llr_se, com_se)
        slack_bi = 3.0 * max(llr_se, idl_se)
        cells.append(
            (
                f"a: combined<=llr N={n}",
                com_p <= llr_p + slack_ac,
                f"combined {com_p:.4f} llr {llr_p:.4f} slack {slack_ac:.4f}",
            )
        )
        cells.append(
            (
                f"b: ideal<=llr N={n}",
                idl_p <= llr_p + slack_bi,
                f"ideal {idl_p:.4f} llr {llr_p:.4f} slack {slack_bi:.4f}",
            )
        )

    # (c) matched exponents beat fixed mismatched choices against the
    # same calibrated combined test, common random numbers throughout
    scn = ScenarioParams.from_snr(1, 15.0, 20.0, rho_AE=0.5, rho_EB=0.5)
    rng = Rng(21)
    thr = optimize_thresholds(scn, 1e-2, 200_000, rng.derive(0),
                              AttackerSpec().forger(scn).arrival_law())
    x_opt, y_opt, _ = optimize_attack_exponents(
        (thr.theta, thr.epsilon), scn, 0.1, 20_000, rng.derive(1)
    )
    n_eval = 100_000

    def eval_pmd(strategy):
        return mismatched_eval(
            strategy, scn, n_eval, Rng(777),
            theta=thr.theta, epsilon=thr.epsilon,
        )

    matched = eval_pmd(AttackStrategy("exponent", x=x_opt, y=y_opt))
    for x, y in ((1.0, 1.0), (0.0, 0.0), (0.3, 0.9), (1.0, -1.0), (-1.0, -1.0)):
        other = eval_pmd(AttackStrategy("exponent", x=x, y=y))
        se = math.sqrt(max(matched, other) * (1.0 - min(matched, other)) / n_eval)
        cells.append(
            (
                f"c: matched>=({x:g},{y:g})",
                matched >= other - 3.0 * se,
                f"matched {matched:.4f} other {other:.4f} se {se:.5f}",
            )
        )

    # (d) distance metric swap inside the nearest-neighbour rule
    knn = {}
    for metric in ("euclidean", "llr"):
        cfg = ExperimentConfig(
            defender=DefenderSpec("ocnn", variant="11NN", metric=metric),
            attacker=AttackerSpec(AttackStrategy("simplified")),
            n_subcarriers=(1, 3, 6),
            alpha_II=(0.9,),
            rho_AE=(0.1,),
            m_training=(1000,),
            n_trials=10_000,
            n_datasets=6,
            seed=5,
        )
        knn[metric] = _pmd_cells(run_experiment(cfg))
    for n in (1, 3, 6):
        euc_p, euc_se = knn["euclidean"][n]
        llr_p, llr_se = knn["llr"][n]
        slack = 3.0 * max(euc_se, llr_se)
        cells.append(
            (
                f"d: llr<=euclid N={n}",
                llr_p <= euc_p + slack,
                f"llr {llr_p:.4f} euclid {euc_p:.4f} slack {slack:.4f}",
            )
        )

    _finish(5, cells)


# ---------------------------------------------------------------------------
# criterion 6: solver oracles


def _ocsvm_oracle_gap(seed, m=6, nu=0.5, denom=24):
    """Solver dual objective minus exhaustive simplex-grid minimum."""
    rng = Rng(seed)
    x = rng.standard_normal((m, 2))
    sig = median_heuristic(x)
    k = _gram(x, x, "gaussian", sig)
    ub = 1.0 / (nu * m)
    cap = int(round(ub * denom))
    prefix = np.array(list(itertools.product(range(cap + 1), repeat=m - 1)))
    last = denom - prefix.sum(axis=1)
    keep = (last >= 0) & (last <= cap)
    lam = np.hstack([prefix[keep], last[keep, None]]) / denom
    grid_min = float(np.min(0.5 * np.einsum("bi,ij,bj->b", lam, k, lam)))
    model = ocsvm_train(x, nu, sig, tol=1e-10)
    lam_full = np.zeros(m)
    for row, weight in zip(model.support, model.lambdas):
        lam_full[np.argmin(np.sum((x - row) ** 2, axis=1))] += weight
    solver = float(0.5 * lam_full @ k @ lam_full)
    return solver - grid_min


def _binary_svm_oracle_gap(seed, m=6, c=1.0, steps=12):
    """Solver dual objective minus exhaustive grid maximum (balanced sums)."""
    rng = Rng(seed)
    npos = m // 2
    nneg = m - npos
    offset = np.array([[1.0, 0.0]] * npos + [[-1.0, 0.0]] * nneg)
    x = rng.standard_normal((m, 2)) + offset
    y = np.array([1.0] * npos + [-1.0] * nneg)
    sig = median_heuristic(x)
    q = (y[:, None] * y[None, :]) * _gram(x, x, "gaussian", sig)
    pos = np.array(list(itertools.product(range(steps + 1), repeat=npos)))
    neg = np.array(list(itertools.product(range(steps + 1), repeat=nneg)))
    ps, ns = pos.sum(axis=1), neg.sum(axis=1)
    combos = []
    for s in range(min(ps.max(), ns.max()) + 1):
        pp = pos[ps == s]
        nn = neg[ns == s]
        if len(pp) and len(nn):
            combos.append(
                np.hstack([np.repeat(pp, len(nn), axis=0), np.tile(nn, (len(pp), 1))])
            )
    alpha = np.vstack(combos) * (c / steps)
    w = alpha.sum(axis=1) - 0.5 * np.einsum("bi,ij,bj->b", alpha, q, alpha)
    grid_max = float(w.max())
    model = binary_svm_train(x, y, c=c, sigma_svm=sig, tol=1e-10)
    a_full = np.zeros(m)
    for row, a in zip(model.support, np.abs(model.lambdas)):
        a_full[np.argmin(np.sum((x - row) ** 2, axis=1))] += a
    solver = float(a_full.sum() - 0.5 * a_full @ q @ a_full)
    return solver - grid_max


def _brute_ocnn(training, metric_kind, s2, j, k, theta_d, query):
    if metric_kind == "euclidean":
        dist = lambda u, v: float(np.linalg.norm(u - v))
    else:
        dist = lambda u, v: float(
            llr_statistic(u[0::2] + 1j * u[1::2], v[0::2] + 1j * v[1::2], s2))
    m = training.shape[0]
    d_q = sorted((dist(query, training[i]), i) for i in range(m))
    picked = d_q[:j]
    dxy = float(np.mean([d for d, _ in picked]))
    dyz_each = []
    for _, i in picked:
        others = sorted(dist(training[i], training[t]) for t in range(m) if t != i)
        dyz_each.append(float(np.mean(others[:k])))
    dyz = float(np.mean(dyz_each))
    if dyz > 0:
        return bool(dxy < theta_d * dyz)
    return bool(dxy == 0)


def test_criterion_06_solver_oracles():
    cells = []
    for seed in (0, 1, 2):
        gap = _ocsvm_oracle_gap(seed)
        cells.append(
            (f"ocsvm dual seed={seed}", abs(gap) <= 1e-3, f"gap {gap:.2e}")
        )
    for seed in (0, 1, 2):
        gap = _binary_svm_oracle_gap(seed)
        cells.append(
            (f"binary dual seed={seed}", abs(gap) <= 1e-3, f"gap {gap:.2e}")
        )

    rng = Rng(606)
    m, dim = 20, 6
    training = rng.standard_normal((m, dim))
    queries = np.vstack(
        [
            rng.standard_normal((700, dim)),
            training[rng.integers(0, m, size=150)]
            + 0.05 * rng.standard_normal((150, dim)),
            3.0 * rng.standard_normal((150, dim)),
        ]
    )
    s2 = np.full(dim // 2, 0.7)
    for metric_kind in ("euclidean", "llr"):
        metric = (
            DistanceMetric("euclidean")
            if metric_kind == "euclidean"
            else DistanceMetric("llr", sigma2_n=s2)
        )
        for variant, j, k in (
            ("11NN", 1, 1),
            ("1KNN", 1, 3),
            ("J1NN", 3, 1),
            ("JKNN", 3, 2),
        ):
            model = OcnnModel(
                variant=variant, j=j, k=k, theta_d=1.8,
                training=training, metric=metric,
            )
            got = ocnn_classify(model, queries)
            want = np.array(
                [
                    _brute_ocnn(training, metric_kind, s2, j, k, 1.8, q)
                    for q in queries
                ]
            )
            n_bad = int(np.sum(got != want))
            cells.append(
                (
                    f"ocnn {variant} {metric_kind} exact",
                    n_bad == 0,
                    f"{n_bad}/{len(queries)} disagree",
                )
            )
    _finish(6, cells)


# ---------------------------------------------------------------------------
# criterion 7: numeric kernel against adaptive quadrature


def _ncx2_cdf_quadrature(x, dof, delta):
    """Independent oracle: integrate the density with adaptive quadrature.

    Substituting t = u**2 removes the integrable singularity at zero
    for dof = 1; the Bessel factor uses the exponentially scaled ive.
    """
    if x <= 0.0:
        return 0.0
    k2 = dof / 2.0
    if delta == 0.0:
        norm = 1.0 / (2.0**k2 * math.gamma(k2))

        def pdf(t):
            return norm * t ** (k2 - 1.0) * math.exp(-0.5 * t)

    else:
        sd = math.sqrt(delta)

        def pdf(t):
            st = math.sqrt(t)
            return (
                0.5
                * math.exp(-0.5 * (st - sd) ** 2)
                * (t / delta) ** (k2 / 2.0 - 0.5)
                * special.ive(k2 - 1.0, sd * st)
            )

    val, err = integrate.quad(
        lambda u: pdf(u * u) * 2.0 * u,
        0.0,
        math.sqrt(x),
        limit=300,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-10
    return val


def test_criterion_07_numeric_kernel():
    cells = []
    combos = [
        (dof, delta)
        for dof in (1, 2, 4, 7, 12)
        for delta in (0.0, 0.4, 2.5, 9.0, 30.0)
    ]
    worst_cdf = 0.0
    for dof, delta in combos:
        scale = dof + delta
        for frac in (0.5, 1.6):
            x = frac * scale
            got = ncx2_cdf(x, dof, delta)
            want = _ncx2_cdf_quadrature(x, dof, delta)
            worst_cdf = max(worst_cdf, abs(got - want))
    cells.append(
        ("cdf vs quadrature (50 pts)", worst_cdf <= 1e-8, f"worst {worst_cdf:.2e}")
    )

    worst_inv = 0.0
    ps = (1e-6, 0.01, 0.3, 0.9, 0.9999)
    for dof, delta in combos[:10]:
        for p in ps:
            x = ncx2_inv(p, dof, delta)
            worst_inv = max(worst_inv, abs(ncx2_cdf(x, dof, delta) - p))
    cells.append(
        ("inv round-trip (50 pts)", worst_inv <= 1e-9, f"worst {worst_inv:.2e}")
    )
    _finish(7, cells)


# ---------------------------------------------------------------------------
# criterion 8: pseudo-labelled clustering pipeline


def test_criterion_08_kmeans_pseudo_labels():
    tables = {}
    for kind in ("binary_svm", "kmeans_svm"):
        cfg = ExperimentConfig(
            defender=DefenderSpec(kind),
            attacker=AttackerSpec(AttackStrategy("simplified")),
            n_subcarriers=(3,),
            rho_AE=(0.1, 0.4, 0.9),
            m_training=(100,),
            n_trials=20_000,
            n_datasets=10,
            seed=5,
        )
        tables[kind] = {
            row["rho_AE"]: (row["p_md"], row["se_pmd"])
            for row in run_experiment(cfg).rows
        }
    cells = []
    for rho in (0.1, 0.4):
        known_p, known_se = tables["binary_svm"][rho]
        km_p, km_se = tables["kmeans_svm"][rho]
        slack = 3.0 * max(known_se, km_se)
        cells.append(
            (
                f"rho={rho} indistinguishable",
                abs(km_p - known_p) <= slack,
                f"kmeans {km_p:.4f} known {known_p:.4f} slack {slack:.4f}",
            )
        )
    known_p, known_se = tables["binary_svm"][0.9]
    km_p, km_se = tables["kmeans_svm"][0.9]
    slack = 3.0 * max(known_se, km_se)
    cells.append(
        (
            "rho=0.9 strictly worse",
            km_p - known_p > slack,
            f"kmeans {km_p:.4f} known {known_p:.4f} slack {slack:.4f}",
        )
    )
    _finish(8, cells)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reproduction across worker counts


def test_criterion_09_reproduce_determinism(tmp_path):
    payloads = []
    for i, workers in enumerate((1, 2, 1)):
        table = reproduce("table4", scale=0.05, seed=42, workers=workers)
        path = tmp_path / f"rep_{i}.csv"
        emit(table, "csv", path)
        payloads.append(path.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    detail = (
        f"{len(payloads[0])} bytes, workers (1,2,1) "
        f"{'identical' if ok else 'DIFFER'}"
    )
    _acceptance_util.record(9, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# training-time note: the heaviest neighbour variant costs more to fit
# than the lightest; absolute times are hardware-bound and not asserted


def test_training_time_ordering_note():
    metric = DistanceMetric("euclidean")
    diffs = []
    for i in range(10):
        rng = Rng(400 + i)
        x = rng.standard_normal((200, 6))
        neg = rng.standard_normal((60, 6)) * 2.0
        t0 = time.perf_counter()
        ocnn_train(x, "11NN", metric, neg, Rng(1))
        t1 = time.perf_counter()
        ocnn_train(x, "JKNN", metric, neg, Rng(1))
        t2 = time.perf_counter()
        diffs.append((t2 - t1) - (t1 - t0))
    assert float(np.median(diffs)) > 0.0
