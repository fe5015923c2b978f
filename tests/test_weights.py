import itertools

import numpy as np
import pytest
from scipy.special import expit

from netspill import glm, weights as wt
from netspill.errors import InputError, PositivityError
from netspill.estimator import StudyData, target_terms
from netspill.netgraph import Partition, build_network


def make_mixed_fit(beta, re_sd, n_groups=1):
    """Hand-built mixed fit with known parameters (bypasses fitting)."""
    return glm.MixedLogisticFit(
        fixed_coefficients=np.asarray(beta, dtype=float), re_sd=float(re_sd),
        group_modes=np.zeros(n_groups), column_names=("x%d" % k for k in range(len(beta))),
        log_likelihood=0.0, iterations=0, converged=True, gradient_norm=0.0,
        groups=Partition(np.zeros(1, dtype=np.int64), 1), quad_nodes=21)


class TestPolicyWeights:
    def test_pattern_probabilities_sum_to_one(self):
        for d in range(0, 7):
            for alpha in (0.25, 0.5, 0.75):
                total = sum(
                    wt.pi_neighbors(sum(pattern), d, alpha)
                    for pattern in itertools.product((0, 1), repeat=d))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_no_binomial_coefficient(self):
        # two treated among three neighbors is one specific pattern, not
        # the count probability
        assert wt.pi_neighbors(2, 3, 0.5) == pytest.approx(0.125)

    def test_joint_factorizes(self):
        # the marginal target's log numerator: own exposure plus neighbors
        for a in (0, 1):
            got = np.exp(np.log(wt.pi_own(a, 0.3)) + wt.log_pi_neighbors([2], [4], 0.3)[0])
            assert got == pytest.approx(wt.pi_own(a, 0.3) * wt.pi_neighbors(2, 4, 0.3))

    def test_degree_zero_neighbor_weight_is_one(self):
        assert wt.pi_neighbors(0, 0, 0.42) == 1.0

    def test_log_version_consistent(self):
        got = wt.log_pi_neighbors([1, 3], [4, 5], 0.7)
        expected = [np.log(wt.pi_neighbors(1, 4, 0.7)), np.log(wt.pi_neighbors(3, 5, 0.7))]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_allocation_bounds(self):
        with pytest.raises(InputError):
            wt.Allocation(0.0)
        with pytest.raises(InputError):
            wt.Allocation(1.0)
        with pytest.raises(InputError):
            wt.Allocation(-0.2)
        assert wt.Allocation(0.5).alpha == 0.5

    def test_bad_counts_rejected(self):
        with pytest.raises(InputError):
            wt.pi_neighbors(5, 4, 0.5)
        with pytest.raises(InputError):
            wt.pi_own(2, 0.5)


class TestPropensityDensity:
    def star_network(self):
        # node 0 centered on 1,2,3; node 4 pendant on 3
        return build_network(5, [(0, 1), (0, 2), (0, 3), (3, 4)])

    def test_fixed_effects_is_bernoulli_product(self):
        net = self.star_network()
        rng = np.random.default_rng(1)
        Z = rng.integers(0, 2, size=(5, 1)).astype(float)
        X = np.column_stack([np.ones(5), Z])
        A = np.array([1, 0, 1, 1, 0])
        fit = make_mixed_fit([0.4, -0.8], 0.0)
        logf = wt.log_propensity_density_all(net, A, X, fit)
        p = expit(X @ fit.fixed_coefficients)
        for i in range(5):
            members = [i, *net.adjacency[i]]
            expected = np.prod([p[j] if A[j] else 1 - p[j] for j in members])
            assert np.exp(logf[i]) == pytest.approx(expected, rel=1e-10)

    def test_patterns_sum_to_one_mixed(self):
        net = self.star_network()
        X = np.column_stack([np.ones(5), np.array([1.0, 0, 1, 0, 1])])
        fit = make_mixed_fit([0.2, -0.5], 0.6)
        for i in range(5):
            members = [i, *net.adjacency[i]]
            total = 0.0
            for pattern in itertools.product((0, 1), repeat=len(members)):
                A = np.zeros(5, dtype=np.int64)
                A[list(members)] = pattern
                total += np.exp(wt.log_propensity_density_all(net, A, X, fit)[i])
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_monte_carlo(self):
        net = self.star_network()
        X = np.column_stack([np.ones(5), np.array([0.0, 1, 0, 1, 0])])
        fit = make_mixed_fit([0.3, -0.9], 0.8)
        A = np.array([1, 1, 0, 1, 0])
        i = 0
        members = np.array([i, *net.adjacency[i]])
        rng = np.random.default_rng(99)
        draws = 400_000
        b = rng.normal(0.0, fit.re_sd, size=draws)
        lp = X[members] @ fit.fixed_coefficients
        probs = expit(lp[None, :] + b[:, None])
        match = np.all((rng.random((draws, members.size)) < probs)
                       == (A[members] == 1)[None, :], axis=1)
        mc = match.mean()
        mc_se = match.std(ddof=1) / np.sqrt(draws)
        got = np.exp(wt.log_propensity_density_all(net, A, X, fit)[i])
        assert abs(got - mc) < 3 * mc_se

    def test_neighbor_order_invariance(self):
        edges = [(0, 1), (0, 2), (0, 3), (3, 4)]
        net1 = build_network(5, edges)
        net2 = build_network(5, list(reversed(edges)))
        X = np.column_stack([np.ones(5), np.arange(5.0) % 2])
        fit = make_mixed_fit([0.1, 0.5], 0.4)
        A = np.array([0, 1, 1, 0, 1])
        f1 = wt.log_propensity_density_all(net1, A, X, fit)
        f2 = wt.log_propensity_density_all(net2, A, X, fit)
        np.testing.assert_allclose(f1, f2, rtol=1e-12)

    def test_quadrature_node_insensitivity(self):
        net = self.star_network()
        X = np.column_stack([np.ones(5), np.arange(5.0) % 2])
        fit = make_mixed_fit([0.2, -0.3], 0.7)
        A = np.array([1, 0, 0, 1, 1])
        f21 = wt.log_propensity_density_all(net, A, X, fit, quad_nodes=21)
        f41 = wt.log_propensity_density_all(net, A, X, fit, quad_nodes=41)
        np.testing.assert_allclose(f21, f41, atol=1e-8)

    def test_gradient_matches_fd_of_log_density(self):
        net = self.star_network()
        X = np.column_stack([np.ones(5), np.array([0.3, -1.2, 0.8, 0.0, 1.5])])
        A = np.array([1, 0, 1, 1, 0])
        for sd in (0.0, 0.7):
            fit = make_mixed_fit([0.2, -0.6], sd)
            grad = wt.log_propensity_density_gradient(net, A, X, fit)
            theta = np.array([0.2, -0.6] + ([np.log(sd)] if sd else []))
            assert grad.shape == (5, theta.size)
            for j in range(theta.size):
                h = 1e-5 * (1.0 + abs(theta[j]))
                logf = []
                for t in (theta[j] + h, theta[j] - h):
                    th = theta.copy(); th[j] = t
                    logf.append(wt.log_propensity_density_all(
                        net, A, X, fit, coefficients=th[:2],
                        re_sd=np.exp(th[2]) if sd else 0.0))
                fd = (logf[0] - logf[1]) / (2 * h)
                np.testing.assert_allclose(grad[:, j], fd, rtol=0, atol=1e-8)

    def test_underflow_raises_positivity(self):
        # a 60-star with extreme coefficients drives the observed all-ones
        # pattern below the floor
        n = 61
        net = build_network(n, [(0, j) for j in range(1, n)])
        X = np.ones((n, 1))
        fit = make_mixed_fit([-20.0], 0.0)
        data = StudyData(A=np.ones(n, dtype=np.int64), Z=np.zeros((n, 1)),
                         C=np.zeros(n, dtype=np.int64), Y=np.ones(n))
        logf = wt.log_propensity_density_all(net, data.A, X, fit)
        with pytest.raises(PositivityError) as exc:
            target_terms(net, data, logf, np.zeros(n), [0.5])
        assert exc.value.node == 0


class TestCensoringSurvival:
    def test_logistic_survival_is_one_minus_expit(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.integers(0, 2, 30)
        fit = glm.fit_logistic(X, y)
        s = wt.censoring_survival_all(X, fit)
        np.testing.assert_allclose(s, 1.0 - expit(X @ fit.coefficients), rtol=1e-12)

    def test_mixed_survival_uses_group_mode(self):
        fit = make_mixed_fit([0.5], 0.4, n_groups=2)
        fit.group_modes[:] = [0.3, -0.2]
        object.__setattr__(fit, "groups", Partition(np.array([0, 0, 1]), 2))
        X = np.ones((3, 1))
        s = wt.censoring_survival_all(X, fit)
        np.testing.assert_allclose(
            s, expit(-(np.array([0.5, 0.5, 0.5]) + np.array([0.3, 0.3, -0.2]))))


@pytest.mark.filterwarnings("ignore:possible separation")
class TestDiagnostics:
    def make_study(self, seed=5):
        rng = np.random.default_rng(seed)
        net = build_network(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        Z = rng.integers(0, 2, size=(6, 1)).astype(float)
        A = rng.integers(0, 2, size=6)
        C = np.array([0, 0, 1, 0, 0, 0])
        Y = np.where(C == 1, np.nan, rng.random(6))
        return net, StudyData(A=A, Z=Z, C=C, Y=Y)

    def test_flags_only_uncensored_heavy_nodes(self):
        net, data = self.make_study()
        X = np.column_stack([np.ones(6), data.Z])
        Xc = np.column_stack([X, data.A.astype(float)])
        pfit = make_mixed_fit([0.2, -0.4], 0.0)
        cfit = glm.fit_logistic(Xc, data.C)
        with pytest.warns(UserWarning, match="weight"):
            report = wt.weight_diagnostics(net, data, pfit, cfit, X, Xc,
                                           threshold=1.0)
        # threshold 1 flags every uncensored node (weights always exceed 1)
        assert report.n_flagged == 5
        assert not report.flagged[2]
        assert np.isnan(report.w[2])

    def test_weights_match_manual_product(self):
        net, data = self.make_study()
        X = np.column_stack([np.ones(6), data.Z])
        Xc = np.column_stack([X, data.A.astype(float)])
        pfit = make_mixed_fit([0.2, -0.4], 0.0)
        cfit = glm.fit_logistic(Xc, data.C)
        with np.errstate(all="ignore"):
            report = wt.weight_diagnostics(net, data, pfit, cfit, X, Xc,
                                           threshold=1e9)
        logf = wt.log_propensity_density_all(net, data.A, X, pfit)
        s = wt.censoring_survival_all(Xc, cfit)
        for i in range(6):
            if data.C[i] == 1:
                continue
            assert report.w[i] == pytest.approx(1.0 / (np.exp(logf[i]) * s[i]))

    def test_bad_threshold_rejected(self):
        net, data = self.make_study()
        X = np.column_stack([np.ones(6), data.Z])
        Xc = np.column_stack([X, data.A.astype(float)])
        pfit = make_mixed_fit([0.2, -0.4], 0.0)
        cfit = glm.fit_logistic(Xc, data.C)
        with pytest.raises(InputError):
            wt.weight_diagnostics(net, data, pfit, cfit, X, Xc, threshold=0.0)
