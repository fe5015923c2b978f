import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from netspill import glm, sim
from netspill.errors import ConvergenceError, InputError
from netspill.netgraph import Partition, generate_regular_components


def brute_marginal_loglik(X, y, groups, beta, sigma, n_grid=201, half_width=8.0):
    """Non-adaptive oracle: trapezoid integration of each group's marginal
    likelihood over b on a fixed wide grid."""
    b = np.linspace(-half_width * sigma, half_width * sigma, n_grid)
    log_phi = -0.5 * (b / sigma) ** 2 - 0.5 * np.log(2 * np.pi * sigma**2)
    lp = X @ beta
    total = 0.0
    for g in range(int(np.max(groups)) + 1):
        idx = np.flatnonzero(groups == g)
        eta = lp[idx][:, None] + b[None, :]
        ll = np.where(y[idx][:, None] == 1, -np.logaddexp(0, -eta),
                      -np.logaddexp(0, eta)).sum(axis=0)
        integrand = ll + log_phi
        # log of trapezoid rule
        w = np.full(n_grid, b[1] - b[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        total += logsumexp(integrand + np.log(w))
    return total


def make_grouped_data(seed, n_groups=40, group_size=8, beta=(0.4, -0.9), sigma=0.6):
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    X = np.column_stack([np.ones(n), rng.integers(0, 2, size=n).astype(float)])
    groups = np.repeat(np.arange(n_groups), group_size)
    b = rng.normal(0.0, sigma, size=n_groups)
    p = expit(X @ np.asarray(beta) + b[groups])
    y = (rng.random(n) < p).astype(np.int64)
    return X, y, groups


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        X = np.ones((10, 1))
        fit = glm.fit_logistic(X, y)
        p = 0.3
        assert fit.coefficients[0] == pytest.approx(np.log(p / (1 - p)), abs=1e-9)
        expected_ll = 10 * (p * np.log(p) + (1 - p) * np.log(1 - p))
        assert fit.log_likelihood == pytest.approx(expected_ll, abs=1e-9)

    def test_matches_direct_optimizer(self):
        rng = np.random.default_rng(3)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 2, n)])
        y = (rng.random(n) < expit(X @ np.array([-0.5, 0.8, 1.1]))).astype(int)

        def nll(beta):
            eta = X @ beta
            return np.sum(np.logaddexp(0, eta) - y * eta)

        ref = minimize(nll, np.zeros(3), method="BFGS", tol=1e-12)
        fit = glm.fit_logistic(X, y)
        np.testing.assert_allclose(fit.coefficients, ref.x, atol=1e-6)
        assert fit.converged

    def test_loglik_path_is_monotone(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(80), rng.normal(size=80)])
        y = rng.integers(0, 2, 80)
        fit = glm.fit_logistic(X, y)
        path = np.asarray(fit.loglik_path)
        assert np.all(np.diff(path) >= -1e-9)

    def test_separation_warns(self):
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        y = (np.arange(8) >= 4).astype(int)
        with pytest.warns(UserWarning, match="separation"):
            fit = glm.fit_logistic(X, y)
        assert fit.separation_warning

    def test_rank_deficient_rejected(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        y = np.arange(10) % 2
        with pytest.raises(InputError):
            glm.fit_logistic(X, y)

    def test_information_matches_xtwx(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = rng.integers(0, 2, 50)
        fit = glm.fit_logistic(X, y)
        p = expit(X @ fit.coefficients)
        expected = X.T @ (X * (p * (1 - p))[:, None])
        np.testing.assert_allclose(glm.logistic_information(X, fit.coefficients),
                                   expected, rtol=1e-12)


class TestGroupedMarginalLoglik:
    def test_matches_brute_force_grid(self):
        X, y, groups = make_grouped_data(11, n_groups=12, group_size=6)
        beta = np.array([0.3, -0.7])
        layout = glm.GroupLayout(groups, 12)
        lp = layout.sort(X @ beta)
        ys = layout.sort(y)
        for sigma in (0.2, 0.6, 1.3):
            ell = glm.grouped_posterior_bundle(layout, lp, ys, sigma).ell
            brute = brute_marginal_loglik(X, y, groups, beta, sigma, n_grid=2001)
            assert float(np.sum(ell)) == pytest.approx(brute, abs=1e-6)

    def test_node_count_insensitive(self):
        X, y, groups = make_grouped_data(12, n_groups=15, group_size=10)
        layout = glm.GroupLayout(groups, 15)
        lp = layout.sort(X @ np.array([0.2, -0.5]))
        ys = layout.sort(y)
        l21 = glm.grouped_posterior_bundle(layout, lp, ys, 0.7, quad_nodes=21).ell
        l41 = glm.grouped_posterior_bundle(layout, lp, ys, 0.7, quad_nodes=41).ell
        assert float(np.abs(l21 - l41).max()) < 1e-6

    def test_invalid_inputs_rejected(self):
        X, y, groups = make_grouped_data(13, n_groups=4, group_size=5)
        layout = glm.GroupLayout(groups, 4)
        lp = layout.sort(X @ np.zeros(2))
        ys = layout.sort(y)
        with pytest.raises(InputError):
            glm.grouped_posterior_bundle(layout, lp, ys, -0.1)
        with pytest.raises(InputError):
            glm.grouped_posterior_bundle(layout, lp, ys, 0.5, quad_nodes=10)


class TestFitMixedLogistic:
    def test_matches_direct_optimizer_on_brute_loglik(self):
        X, y, groups = make_grouped_data(21, n_groups=60, group_size=8)

        def nll(theta):
            return -brute_marginal_loglik(X, y, groups, theta[:2], np.exp(theta[2]))

        ref = minimize(nll, np.array([0.0, 0.0, np.log(0.5)]), method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000})
        fit = glm.fit_mixed_logistic(X, y, groups)
        np.testing.assert_allclose(fit.fixed_coefficients, ref.x[:2], atol=2e-4)
        assert fit.re_sd == pytest.approx(np.exp(ref.x[2]), abs=2e-4)
        assert fit.log_likelihood == pytest.approx(-ref.fun, abs=1e-4)

    def test_gradient_norm_small_at_optimum(self):
        X, y, groups = make_grouped_data(22, n_groups=30, group_size=6)
        fit = glm.fit_mixed_logistic(X, y, groups)
        assert fit.converged
        assert fit.gradient_norm <= 1e-8

    def test_collapses_to_logistic_when_no_heterogeneity(self):
        rng = np.random.default_rng(23)
        n = 2000
        X = np.column_stack([np.ones(n), rng.integers(0, 2, n).astype(float)])
        y = (rng.random(n) < expit(X @ np.array([0.3, -0.6]))).astype(int)
        groups = np.repeat(np.arange(50), 40)
        fit = glm.fit_mixed_logistic(X, y, groups)
        base = glm.fit_logistic(X, y)
        # the mixed model nests the logistic one
        assert fit.log_likelihood >= base.log_likelihood - 1e-8
        if fit.re_sd == 0.0:
            np.testing.assert_allclose(fit.fixed_coefficients, base.coefficients,
                                       atol=1e-8)
            assert fit.log_likelihood == pytest.approx(base.log_likelihood, abs=1e-8)
        else:
            # with 40 nodes per group the spurious heterogeneity is small
            assert fit.re_sd < 0.2

    def test_polish_accepts_step_within_quadrature_noise(self):
        # paper-trip replicate 44: the Newton step that brings the gradient
        # norm from 4e-7 to below tolerance raises -loglik by about 1e-11,
        # which is quadrature noise at |loglik| ~ 180
        sc = sim.preset_scenario("paper-trip")
        children = np.random.SeedSequence(sc.seed).spawn(46)
        net = sim.generate_network(sc.network, np.random.default_rng(children[0]))
        data, _ = sim.generate_dataset(net, sc, np.random.default_rng(children[45]))
        X = np.column_stack([np.ones(net.n), data.Z])
        fit = glm.fit_mixed_logistic(X, data.A, net.components, quad_nodes=sc.quad_nodes)
        assert fit.converged
        assert fit.gradient_norm <= glm.GLMM_GRADIENT_TOL

    def test_sd_collapse_keeps_separation_flag(self):
        # exposure equal to a binary covariate on 40 regular components:
        # the fixed-effects start separates (|beta| ~ 52) and the sd
        # collapses, so the returned fit is the fixed-effects one
        rng = np.random.default_rng(0)
        net = generate_regular_components(40, 6, 3, rng)
        z = rng.integers(0, 2, net.n)
        X = np.column_stack([np.ones(net.n), z.astype(float)])
        with pytest.warns(UserWarning, match="separation"):
            fit = glm.fit_mixed_logistic(X, z, net.components)
        assert fit.re_sd == 0.0
        assert np.max(np.abs(fit.fixed_coefficients)) > glm.SEPARATION_COEF
        assert fit.separation_warning

    def test_accepts_partition_object(self):
        X, y, groups = make_grouped_data(24, n_groups=10, group_size=6)
        f1 = glm.fit_mixed_logistic(X, y, groups)
        f2 = glm.fit_mixed_logistic(X, y, Partition.from_labels(groups))
        np.testing.assert_allclose(f1.fixed_coefficients, f2.fixed_coefficients)


def group_score_sums(fit, X, y, labels):
    """Per-group sums of the fit's observation-level score rows."""
    contrib = glm.score_contributions(X, y, getattr(fit, "groups", None),
                                      fit.coefficients, fit.re_sd)
    out = np.zeros((int(np.max(labels)) + 1, contrib.shape[1]))
    np.add.at(out, labels, contrib)
    return out


class TestScores:
    def test_logistic_per_group_matches_analytic(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        y = rng.integers(0, 2, 60)
        fit = glm.fit_logistic(X, y)
        groups = np.repeat(np.arange(12), 5)
        scores = group_score_sums(fit, X, y, groups)
        resid = y - expit(X @ fit.coefficients)
        for g in range(12):
            idx = np.flatnonzero(groups == g)
            np.testing.assert_allclose(scores[g], X[idx].T @ resid[idx], atol=1e-4)
        # scores sum to ~0 at the MLE
        np.testing.assert_allclose(scores.sum(axis=0), 0.0, atol=1e-6)

    def test_mixed_per_group_matches_loglik_differences(self):
        X, y, groups = make_grouped_data(32, n_groups=10, group_size=6, sigma=0.9)
        fit = glm.fit_mixed_logistic(X, y, groups)
        assert fit.re_sd > 0.0
        scores = group_score_sums(fit, X, y, groups)
        # central differences of the per-group marginal loglik, done here
        # from scratch with the brute grid
        theta = np.concatenate([fit.fixed_coefficients, [np.log(fit.re_sd)]])

        def group_lls(th):
            out = np.empty(10)
            for g in range(10):
                idx = np.flatnonzero(groups == g)
                out[g] = brute_marginal_loglik(X[idx], y[idx],
                                               np.zeros(idx.size, dtype=int),
                                               th[:2], np.exp(th[2]), n_grid=1501)
            return out

        for j in range(3):
            h = 1e-6 * (1.0 + abs(theta[j]))
            up = theta.copy(); up[j] += h
            dn = theta.copy(); dn[j] -= h
            fd = (group_lls(up) - group_lls(dn)) / (2 * h)
            np.testing.assert_allclose(scores[:, j], fd, atol=5e-4)

    def test_mixed_scores_sum_to_zero_at_mle(self):
        X, y, groups = make_grouped_data(33, n_groups=25, group_size=8)
        fit = glm.fit_mixed_logistic(X, y, groups)
        scores = group_score_sums(fit, X, y, groups)
        np.testing.assert_allclose(scores.sum(axis=0), 0.0, atol=1e-5)

    def test_per_node_contributions_support_regrouping(self):
        X, y, groups = make_grouped_data(35, n_groups=8, group_size=8)
        fit = glm.fit_mixed_logistic(X, y, groups)
        contrib = glm.score_contributions(X, y, groups, fit.fixed_coefficients, fit.re_sd)
        # regroup nodes by a finer partition: pairs within each fit group
        fine = np.arange(64) // 2
        summed = np.zeros((32, contrib.shape[1]))
        np.add.at(summed, fine, contrib)
        # total score is invariant to the regrouping
        total = group_score_sums(fit, X, y, groups).sum(axis=0)
        np.testing.assert_allclose(summed.sum(axis=0), total, atol=1e-8)

    def test_score_contributions_match_fd(self):
        X, y, groups = make_grouped_data(36, n_groups=15, group_size=6)
        beta = np.array([0.1, -0.4])
        sd = 0.5
        total = glm.score_contributions(X, y, groups, beta, sd).sum(axis=0)
        theta = np.concatenate([beta, [np.log(sd)]])
        for j in range(3):
            h = 1e-6 * (1.0 + abs(theta[j]))
            up = theta.copy(); up[j] += h
            dn = theta.copy(); dn[j] -= h
            fd = (brute_marginal_loglik(X, y, groups, up[:2], np.exp(up[2]), 2001)
                  - brute_marginal_loglik(X, y, groups, dn[:2], np.exp(dn[2]), 2001)) / (2 * h)
            assert total[j] == pytest.approx(fd, abs=5e-4)


    def test_louis_information_matches_fd_of_score(self):
        X, y, groups = make_grouped_data(37, n_groups=20, group_size=7)
        beta = np.array([0.3, -0.8])
        for sd in (0.02, 0.1, 0.5, 1.5):
            info = glm.mixed_information(X, y, groups, beta, sd)
            theta = np.concatenate([beta, [np.log(sd)]])
            fd = np.empty((3, 3))
            for j in range(3):
                h = 1e-5 * (1.0 + abs(theta[j]))
                up = theta.copy(); up[j] += h
                dn = theta.copy(); dn[j] -= h
                fd[:, j] = -(glm.score_contributions(X, y, groups, up[:2], np.exp(up[2]))
                             - glm.score_contributions(X, y, groups, dn[:2], np.exp(dn[2]))
                             ).sum(axis=0) / (2 * h)
            np.testing.assert_allclose(info, fd, rtol=0, atol=1e-7 * np.abs(fd).max())

    def test_mode_jacobian_matches_fd(self):
        X, y, groups = make_grouped_data(38, n_groups=10, group_size=6)
        theta = np.array([-0.2, 0.5, np.log(0.7)])
        _, jac = glm.mixed_group_modes(X, y, groups, theta[:2], np.exp(theta[2]))
        for j in range(3):
            h = 1e-6 * (1.0 + abs(theta[j]))
            up = theta.copy(); up[j] += h
            dn = theta.copy(); dn[j] -= h
            fd = (glm.mixed_group_modes(X, y, groups, up[:2], np.exp(up[2]))[0]
                  - glm.mixed_group_modes(X, y, groups, dn[:2], np.exp(dn[2]))[0]) / (2 * h)
            np.testing.assert_allclose(jac[:, j], fd, rtol=0, atol=1e-8)


class TestGroupLayout:
    def test_group_sum_matches_python_loop(self):
        rng = np.random.default_rng(41)
        groups = rng.integers(0, 5, size=30)
        layout = glm.GroupLayout(groups, 5)
        vals = rng.normal(size=(30, 2))
        got = layout.group_sum(layout.sort(vals))
        for g in range(5):
            np.testing.assert_allclose(got[g], vals[groups == g].sum(axis=0))
