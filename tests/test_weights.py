import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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


def pi_neighbors(s, d, alpha):
    """P(one neighbor exposure pattern with s of d exposed) from the
    production log form."""
    return float(np.exp(wt.log_pi_neighbors([s], [d], alpha)[0]))


def closed_form(s, d, alpha):
    return alpha ** s * (1.0 - alpha) ** (d - s)


class TestPolicyWeights:
    def test_pattern_probabilities_sum_to_one(self):
        for d in range(0, 7):
            for alpha in (0.25, 0.5, 0.75):
                total = sum(
                    pi_neighbors(sum(pattern), d, alpha)
                    for pattern in itertools.product((0, 1), repeat=d))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_no_binomial_coefficient(self):
        # two treated among three neighbors is one specific pattern, not
        # the count probability
        assert pi_neighbors(2, 3, 0.5) == pytest.approx(0.125)

    def test_joint_factorizes(self):
        # the marginal target's log numerator: own exposure plus neighbors,
        # against the closed form alpha^a (1-alpha)^(1-a) alpha^s (1-alpha)^(d-s)
        for a in (0, 1):
            own = closed_form(a, 1, 0.3)
            got = np.exp(np.log(own) + wt.log_pi_neighbors([2], [4], 0.3)[0])
            assert got == pytest.approx(own * closed_form(2, 4, 0.3))

    def test_degree_zero_neighbor_weight_is_one(self):
        assert pi_neighbors(0, 0, 0.42) == 1.0

    def test_log_version_consistent(self):
        got = wt.log_pi_neighbors([1, 3], [4, 5], 0.7)
        expected = [np.log(closed_form(1, 4, 0.7)), np.log(closed_form(3, 5, 0.7))]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_allocation_bounds(self):
        with pytest.raises(InputError):
            wt.Allocation(0.0)
        with pytest.raises(InputError):
            wt.Allocation(1.0)
        with pytest.raises(InputError):
            wt.Allocation(-0.2)
        assert wt.Allocation(0.5).alpha == 0.5


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
            logf0, grad = wt.log_propensity_density_and_gradient(net, A, X, fit)
            np.testing.assert_array_equal(logf0, wt.log_propensity_density_all(net, A, X, fit))
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


class TestHubPositivity:
    """Hubs of degree 50-400 beside small paths: the log densities are
    finite, and the target terms are either finite or fail loudly at an
    uncensored node whose denominator is below the floor."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_finite_or_positivity_error(self, hdata):
        hub = hdata.draw(st.integers(50, 400), label="hub degree")
        paths = hdata.draw(st.lists(st.integers(2, 5), min_size=1, max_size=5),
                           label="path sizes")
        edges = [(0, j) for j in range(1, hub + 1)]
        leaf = st.integers(1, hub)
        edges += [e for e in hdata.draw(st.lists(st.tuples(leaf, leaf), max_size=20),
                                        label="leaf-leaf edges") if e[0] != e[1]]
        start = hub + 1
        for size in paths:
            edges += [(start + k, start + k + 1) for k in range(size - 1)]
            start += size
        n = start
        net = build_network(n, edges)
        rng = np.random.default_rng(hdata.draw(st.integers(0, 2**31), label="seed"))
        X = np.column_stack([np.ones(n), rng.integers(0, 2, n).astype(float)])
        # scale 8 reaches linear predictors of +-48, where the hub's
        # closed-neighborhood density underflows
        scale = hdata.draw(st.sampled_from([1.0, 8.0]), label="scale")
        coefs = scale * np.array(hdata.draw(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), label="coefs"))
        re_sd = hdata.draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]), label="re_sd")
        # exposures at random, or each against its own linear predictor
        p_a = hdata.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, None]), label="p(A)")
        A = (X @ coefs < 0.0) if p_a is None else (rng.random(n) < p_a)
        A = A.astype(np.int64)
        C = (rng.random(n) < 0.2).astype(np.int64)
        C[0] = hdata.draw(st.booleans(), label="hub censored")
        data = StudyData(A=A, Z=X[:, 1:], C=C,
                         Y=np.where(C == 1, np.nan, rng.random(n)))
        logf = wt.log_propensity_density_all(net, A, X, make_mixed_fit(coefs, re_sd),
                                             coefficients=coefs, re_sd=re_sd)
        assert np.all(np.isfinite(logf))
        logs = -np.logaddexp(0.0, -2.0 + X[:, 1])       # log(1 - expit(lp))
        try:
            _, T = target_terms(net, data, logf, logs, [0.25, 0.75])
        except PositivityError as exc:
            assert C[exc.node] == 0
            assert logf[exc.node] + logs[exc.node] <= wt.LOG_POSITIVITY_FLOOR
        else:
            assert np.all(np.isfinite(T))
            assert np.all((logf + logs)[C == 0] > wt.LOG_POSITIVITY_FLOOR)


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
        logf = wt.log_propensity_density_all(net, data.A, X, pfit)
        s = wt.censoring_survival_all(Xc, cfit)
        with pytest.warns(UserWarning, match="weight"):
            report = wt.weight_diagnostics(data, logf, s, threshold=1.0)
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
        logf = wt.log_propensity_density_all(net, data.A, X, pfit)
        s = wt.censoring_survival_all(Xc, cfit)
        with np.errstate(all="ignore"):
            report = wt.weight_diagnostics(data, logf, s, threshold=1e9)
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
            wt.weight_diagnostics(data, wt.log_propensity_density_all(net, data.A, X, pfit),
                                  wt.censoring_survival_all(Xc, cfit), threshold=0.0)
