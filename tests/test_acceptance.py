"""End-to-end acceptance checks.

Covers exact unbiasedness of the weighted estimator under known models,
policy-weight normalization, finite-sample bias / SE calibration / coverage
of the full simulation pipeline at study scale, variance-grouping behavior
on the clustered sparse network, censoring-model sensitivity, mixed-model
recovery against a non-adaptive quadrature oracle, agreement of the
closed-form variance with a delete-one-group jackknife, and byte-level
determinism of the reporting pipeline. The scaled simulation checks run
minutes, not seconds; they are the point of the harness.
"""
import itertools
import json
import math
import os

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from netspill import cli as cli_mod
from netspill import estimator as est
from netspill import glm, io, sim
from netspill import netgraph as ng
from netspill import variance as var
from netspill import weights as wt
from netspill.estimator import StudyData

pytestmark = pytest.mark.filterwarnings("ignore:possible separation",
                                        "ignore::UserWarning")

Z975 = est.Z975


def ipcw_fit(beta, re_sd, column_names=("x",)):
    return glm.MixedLogisticFit(
        fixed_coefficients=np.asarray(beta, dtype=float), re_sd=float(re_sd),
        group_modes=np.zeros(1), column_names=tuple(column_names),
        log_likelihood=0.0, iterations=0, converged=True, gradient_norm=0.0,
        groups=ng.Partition(np.zeros(1, dtype=np.int64), 1), quad_nodes=21)


class TestExactUnbiasedness:
    """Criterion: with the true exposure and censoring models plugged in,
    the estimator's expectation over every exposure and censoring pattern
    equals the policy truth to machine precision."""

    def test_exhaustive_expectation_matches_truth(self):
        net = ng.build_network(4, [(0, 1), (1, 2), (2, 3)])
        p = np.array([0.55, 0.40, 0.65, 0.50])    # true P(A=1)
        c = np.array([0.20, 0.10, 0.30, 0.15])    # true P(C=1)
        rng = np.random.default_rng(12345)
        table = est.CountPotentialOutcomes.from_blocks(
            [rng.random((2, d + 1)) for d in net.degrees])
        allocs = [0.25, 0.5, 0.75]

        X = np.log(p / (1 - p)).reshape(-1, 1)
        pfit = ipcw_fit([1.0], 0.0)
        logs = np.log(1.0 - c)
        Z = np.zeros((4, 1))

        keys = est.stack_targets(allocs)
        accum = dict.fromkeys(keys, 0.0)
        for A in itertools.product((0, 1), repeat=4):
            A = np.array(A, dtype=np.int64)
            pr_a = float(np.prod(np.where(A == 1, p, 1 - p)))
            logf = wt.log_propensity_density_all(net, A, X, pfit)
            s_obs = est.observed_treated_counts(net, A).astype(int)
            y_full = table.realize(A, s_obs)
            for C in itertools.product((0, 1), repeat=4):
                C = np.array(C, dtype=np.int64)
                pr = pr_a * float(np.prod(np.where(C == 1, c, 1 - c)))
                data = StudyData(A=A, Z=Z, C=C,
                                 Y=np.where(C == 1, np.nan, y_full))
                vals = est.ipcw_estimates(net, data, logf, logs, allocs)
                for k in keys:
                    accum[k] += pr * vals[k]

        truth = est.true_values(net, table, allocs)
        for k in keys:
            assert accum[k] == pytest.approx(truth.values[k], abs=1e-12), k


class TestWeightNormalization:
    """Criterion: policy weights and fitted exposure-pattern densities are
    proper probability distributions."""

    def test_policy_weights_normalize_up_to_degree_12(self):
        for d in range(13):
            counts = np.arange(d + 1)
            for alpha in (0.25, 0.5, 0.75):
                pi_nb = np.exp(wt.log_pi_neighbors(counts, np.full(d + 1, d), alpha))
                total = sum(math.comb(d, s) * pi_nb[s] for s in range(d + 1))
                assert total == pytest.approx(1.0, abs=1e-12), (d, alpha)
                joint = sum(
                    (alpha if a == 1 else 1.0 - alpha) * pi_nb[s] * math.comb(d, s)
                    for a in (0, 1) for s in range(d + 1))
                assert joint == pytest.approx(1.0, abs=1e-12), (d, alpha)

    def test_density_patterns_sum_to_one_on_ten_node_neighborhood(self):
        # star: closed neighborhood of the hub has 10 members
        net = ng.build_network(10, [(0, j) for j in range(1, 10)])
        rng = np.random.default_rng(77)
        X = np.column_stack([np.ones(10), rng.integers(0, 2, 10).astype(float)])
        pfit = ipcw_fit([0.3, -0.8], 0.7, column_names=("intercept", "z"))
        total = 0.0
        for pattern in itertools.product((0, 1), repeat=10):
            A = np.array(pattern, dtype=np.int64)
            logf = wt.log_propensity_density_all(net, A, X, pfit)
            total += float(np.exp(logf[0]))
        assert total == pytest.approx(1.0, abs=1e-8)


@pytest.fixture(scope="module")
def main_reports():
    sc = sim.preset_scenario("paper-main")
    logistic = sim.run_replicates(sc)
    mixed = sim.run_replicates(sim.apply_overrides(sc, censoring="mixed"))
    return {"logistic": logistic, "mixed": mixed}


@pytest.mark.slow
class TestStudyScaleCalibration:
    """Criterion: at 200 components and 1000 replicates, every estimand in
    both censoring arms has small bias, matching average and empirical SEs,
    and near-nominal coverage."""

    @pytest.mark.parametrize("arm", ["logistic", "mixed"])
    def test_bias_se_and_coverage(self, main_reports, arm):
        rep = main_reports[arm]
        assert rep.metadata["replicates_succeeded"] == 1000
        for r in rep.rows:
            assert abs(r.bias) <= 0.01, (arm, r.name, r.bias)
            assert abs(r.ase - r.ese) <= 0.01, (arm, r.name, r.ase, r.ese)
            assert 0.91 <= r.ecp <= 0.98, (arm, r.name, r.ecp)


@pytest.mark.slow
class TestSmallSampleAnticonservatism:
    """Criterion: with only 10 components the sandwich intervals undercover
    for most estimands."""

    def test_m10_coverage_drops(self):
        sc = sim.preset_scenario("paper-main", m=10)
        rep = sim.run_replicates(sc)
        under = sum(1 for r in rep.rows if r.ecp < 0.92)
        assert under >= 5, [(r.name, r.ecp) for r in rep.rows]


@pytest.mark.slow
class TestClusteredNetworkGrouping:
    """Criterion: on the sparse clustered network, component-level grouping
    keeps coverage while community-level grouping loses it; the grouping
    never moves point estimates."""

    def test_components_cover_communities_undercover(self):
        res = sim.trip_structure_scenario()
        for a, b in zip(res.by_components.rows, res.by_communities.rows):
            assert a.bias == pytest.approx(b.bias, abs=1e-12)
            assert a.true_value == pytest.approx(b.true_value, abs=1e-12)
        mean_comp = np.mean([r.ecp for r in res.by_components.rows])
        mean_comm = np.mean([r.ecp for r in res.by_communities.rows])
        assert mean_comp > 0.95, mean_comp
        assert mean_comm < 0.95, mean_comm
        assert res.n_communities > ng.generate_trip_shaped(
            np.random.default_rng(0)).m


@pytest.mark.slow
class TestCensoringModelSensitivity:
    """Criterion: under correlated censoring, fitting the censoring model
    with or without the random intercept barely moves coverage."""

    def test_ecp_gap_small_across_sds(self):
        entries = sim.sweep_re_sd(sim.preset_scenario("paper-sweep"),
                                  [0.1, 0.3, 0.5])
        for e in entries:
            for rl, rm in zip(e.reports["logistic"].rows,
                              e.reports["mixed"].rows):
                gap = abs(rl.ecp - rm.ecp)
                assert gap <= 0.04, (e.re_sd, rl.name, rl.ecp, rm.ecp)


def gh_loglik_oracle(X, y, groups, beta, sigma, nodes=201):
    """Non-adaptive Gauss-Hermite marginal log-likelihood (origin-centered,
    sigma-scaled), independent of the fitting code."""
    gx, gw = np.polynomial.hermite.hermgauss(nodes)
    b = np.sqrt(2.0) * sigma * gx
    lp = X @ beta
    total = 0.0
    for g in range(int(np.max(groups)) + 1):
        idx = np.flatnonzero(groups == g)
        eta = lp[idx][:, None] + b[None, :]
        ll = np.where(y[idx][:, None] == 1, -np.logaddexp(0, -eta),
                      -np.logaddexp(0, eta)).sum(axis=0)
        total += logsumexp(ll + np.log(gw)) - 0.5 * np.log(np.pi)
    return float(total)


class TestMixedModelRecovery:
    """Criterion: the mixed fit recovers the study's exposure model at 200
    groups and agrees with a dense non-adaptive quadrature oracle."""

    def test_recovery_and_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        n_groups, size = 200, 10
        n = n_groups * size
        Z = rng.integers(0, 2, n).astype(float)
        X = np.column_stack([np.ones(n), Z])
        groups = np.repeat(np.arange(n_groups), size)
        b = rng.normal(0.0, 0.5, n_groups)
        y = (rng.random(n) < expit(0.7 - 1.4 * Z + b[groups])).astype(np.int64)

        fit = glm.fit_mixed_logistic(X, y, groups)
        assert fit.converged
        assert 0.3 <= fit.re_sd <= 0.7, fit.re_sd

        # observed-information SEs from the analytic total score
        theta = np.concatenate([fit.fixed_coefficients, [np.log(fit.re_sd)]])
        H = np.empty((3, 3))
        for j in range(3):
            h = 1e-5 * (1.0 + abs(theta[j]))
            up = theta.copy(); up[j] += h
            dn = theta.copy(); dn[j] -= h
            H[:, j] = (glm.score_contributions(X, y, groups, up[:2], np.exp(up[2]))
                       - glm.score_contributions(X, y, groups, dn[:2], np.exp(dn[2]))
                       ).sum(axis=0) / (2 * h)
        se = np.sqrt(np.diag(np.linalg.inv(-0.5 * (H + H.T)))[:2])
        for truth, got, s in zip((0.7, -1.4), fit.fixed_coefficients, se):
            assert abs(got - truth) <= 3 * s, (truth, got, s)

        oracle = gh_loglik_oracle(X, y, groups, fit.fixed_coefficients,
                                  fit.re_sd)
        assert fit.log_likelihood == pytest.approx(oracle, abs=1e-4)


@pytest.fixture(scope="module")
def big_dataset():
    sc = sim.preset_scenario("paper-main", replicates=1, seed=606)
    ss = np.random.SeedSequence(sc.seed).spawn(2)
    net = sim.generate_network(sc.network, np.random.default_rng(ss[0]))
    data, _ = sim.generate_dataset(net, sc, np.random.default_rng(ss[1]))
    n = net.n
    X = np.column_stack([np.ones(n), data.Z])
    Xc = np.column_stack([X, data.A.astype(float)])
    pfit = glm.fit_mixed_logistic(X, data.A, net.components)
    cfit = glm.fit_logistic(Xc, data.C)
    return net, data, pfit, cfit, X, Xc


class TestVarianceAgainstJackknife:
    """Criterion: on one study-scale dataset the closed-form SEs land within
    25 percent of a delete-one-component jackknife with full refits, and the
    exposure-model information block matches the quadrature oracle."""

    def test_jackknife_agreement(self, big_dataset):
        net, data, pfit, cfit, X, Xc = big_dataset
        allocs = [0.25, 0.5, 0.75]
        res = var.sandwich(net, data, pfit, cfit, X, Xc, allocs)
        ase = res.target_ses()

        m = net.m
        loo = np.empty((m, len(res.stack.target_keys)))
        for g in range(m):
            keep = np.flatnonzero(net.component_id != g)
            relabel = np.full(net.n, -1)
            relabel[keep] = np.arange(keep.size)
            adj = [tuple(int(relabel[v]) for v in net.adjacency[i]) for i in keep]
            edges = [(i, j) for i, nbrs in enumerate(adj) for j in nbrs if i < j]
            sub = ng.build_network(keep.size, edges)
            sdata = data.subset(keep)
            sX, sXc = X[keep], Xc[keep]
            spfit = glm.fit_mixed_logistic(sX, sdata.A, sub.components)
            scfit = glm.fit_logistic(sXc, sdata.C)
            logf, logs = est.node_log_weights(sub, sdata, spfit, scfit, sX, sXc)
            vals = est.ipcw_estimates(sub, sdata, logf, logs, allocs)
            loo[g] = [vals[k] for k in res.stack.target_keys]

        jack_var = (m - 1) / m * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0)
        jack_se = np.sqrt(jack_var)
        ratio = jack_se / ase
        assert np.all(ratio > 0.75) and np.all(ratio < 1.25), ratio

    def test_information_block_matches_quadrature_oracle(self, big_dataset):
        net, data, pfit, cfit, X, Xc = big_dataset
        ctx = var.build_context(net, data, pfit, cfit, X, Xc, [0.5])
        A = var.compute_A(ctx)
        gs = ctx.stack.gamma_slice
        info = A[gs, gs] * (ctx.m * ctx.k_hat)

        theta = np.concatenate([pfit.fixed_coefficients, [np.log(pfit.re_sd)]])
        labels = net.components.labels
        H = np.empty((3, 3))
        for j in range(3):
            h = 1e-4 * (1.0 + abs(theta[j]))
            up = theta.copy(); up[j] += h
            dn = theta.copy(); dn[j] -= h

            def grad(th):
                g = np.zeros(3)
                for k in range(3):
                    hk = 1e-4 * (1.0 + abs(th[k]))
                    u = th.copy(); u[k] += hk
                    d = th.copy(); d[k] -= hk
                    g[k] = (gh_loglik_oracle(X, data.A, labels, u[:2], np.exp(u[2]))
                            - gh_loglik_oracle(X, data.A, labels, d[:2],
                                               np.exp(d[2]))) / (2 * hk)
                return g

            H[:, j] = (grad(up) - grad(dn)) / (2 * h)
        oracle_info = -0.5 * (H + H.T)
        np.testing.assert_allclose(info, oracle_info,
                                   rtol=1e-4, atol=1e-4 * np.abs(oracle_info).max())


class TestDeterminism:
    """Criterion: identical configs give byte-identical reports regardless
    of worker count, and a manifest rerun reproduces its outputs."""

    def test_threads_do_not_change_bytes(self, tmp_path):
        sc = sim.preset_scenario("paper-main", m=8, replicates=6, seed=404)
        serial = sim.run_replicates(sc, threads=1)
        pooled = sim.run_replicates(sc, threads=3)
        assert serial.csv_rows() == pooled.csv_rows()
        assert serial.metadata["config_hash"] == pooled.metadata["config_hash"]

    def test_cli_rerun_is_byte_identical(self, tmp_path):
        def invoke(args):
            with pytest.raises(SystemExit) as exc:
                cli_mod.main(args)
            assert exc.value.code == 0

        a, b, c = (str(tmp_path / s) for s in "abc")
        base = ["simulate", "--m", "8", "--replicates", "4", "--seed", "31"]
        invoke(base + ["--out", a])
        invoke(base + ["--out", b, "--threads", "2"])
        invoke(["simulate", "--scenario", os.path.join(a, "manifest.json"),
                "--out", c])
        bytes_a = open(os.path.join(a, "simreport.csv"), "rb").read()
        assert bytes_a == open(os.path.join(b, "simreport.csv"), "rb").read()
        assert bytes_a == open(os.path.join(c, "simreport.csv"), "rb").read()
        man_a = json.load(open(os.path.join(a, "manifest.json")))
        man_b = json.load(open(os.path.join(b, "manifest.json")))
        assert man_a["config_hash"] == man_b["config_hash"]
        assert man_b["runtime"]["threads"] == 2
