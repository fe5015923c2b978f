import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from netspill import glm, variance as var
from netspill import netgraph as ng
from netspill.errors import NumericalError
from netspill.estimator import StudyData, estimand_name
from netspill.weights import censoring_survival_all, log_propensity_density_all

ALLOCS = [0.3, 0.6]
FD_STEP = 1e-5    # central-difference step scale of the FD oracles


def make_dataset(seed, m=25, mean_size=8.0, degree=3, cens_mixed=False):
    rng = np.random.default_rng(seed)
    net = ng.generate_regular_components(m, mean_size, degree, rng)
    n = net.n
    Z = rng.integers(0, 2, size=(n, 1)).astype(float)
    b = rng.normal(0.0, 0.5, net.m)[net.component_id]
    A = (rng.random(n) < expit(0.7 - 1.4 * Z[:, 0] + b)).astype(np.int64)
    lpc = -2.2 + 1.5 * Z[:, 0]
    if cens_mixed:
        lpc = lpc + 0.4 + rng.normal(0.0, 0.9, net.m)[net.component_id]
    C = (rng.random(n) < expit(lpc)).astype(np.int64)
    Y = np.where(C == 1, np.nan, (rng.random(n) < 0.4).astype(float))
    data = StudyData(A=A, Z=Z, C=C, Y=Y)
    X = np.column_stack([np.ones(n), Z])
    Xc = np.column_stack([np.ones(n), Z, A.astype(float)])
    pfit = glm.fit_mixed_logistic(X, A, net.components)
    if cens_mixed:
        cfit = glm.fit_mixed_logistic(Xc, C, net.components)
    else:
        cfit = glm.fit_logistic(Xc, C)
    return net, data, pfit, cfit, X, Xc


@pytest.fixture(scope="module")
def ctx_logistic():
    net, data, pfit, cfit, X, Xc = make_dataset(17)
    assert pfit.re_sd > 0.0
    return var.build_context(net, data, pfit, cfit, X, Xc, ALLOCS)


@pytest.fixture(scope="module")
def ctx_mixed_cens():
    net, data, pfit, cfit, X, Xc = make_dataset(18, m=16, mean_size=8.0,
                                                cens_mixed=True)
    assert cfit.re_sd > 0.0
    return var.build_context(net, data, pfit, cfit, X, Xc, [0.5])


class TestPsi:
    def test_rows_sum_to_zero_at_fit(self, ctx_logistic):
        psi = var.component_psi(ctx_logistic)
        np.testing.assert_allclose(psi.sum(axis=0), 0.0, atol=1e-6)

    def test_target_rows_linear_slope_minus_one(self, ctx_logistic):
        ctx = ctx_logistic
        base = var.component_psi(ctx)
        values = ctx.stack.values.copy()
        t = ctx.stack.target_slice.start + 1
        values[t] += 0.37
        bumped = var.component_psi(ctx, values)
        np.testing.assert_allclose(bumped[:, t], base[:, t] - 0.37, atol=1e-12)
        # other columns untouched
        other = [j for j in range(ctx.stack.size) if j != t]
        np.testing.assert_allclose(bumped[:, other], base[:, other], atol=1e-9)

    def test_target_block_is_group_sums_minus_estimate(self, ctx_logistic):
        ctx = ctx_logistic
        psi = var.component_psi(ctx)
        ts = ctx.stack.target_slice
        # rebuild T group sums with a python loop
        for t_off, col in enumerate(range(ts.start, ts.stop)):
            for g in range(min(ctx.m, 4)):
                idx = np.flatnonzero(ctx.groups.labels == g)
                expected = ctx.T[idx, t_off].sum() / ctx.k_hat - ctx.estimates[t_off]
                assert psi[g, col] == pytest.approx(expected, abs=1e-12)


class TestComputeA:
    def test_matches_fd_jacobian_of_mean_psi(self, ctx_logistic):
        ctx = ctx_logistic
        A = var.compute_A(ctx)
        values = ctx.stack.values
        J = np.zeros((ctx.stack.size, ctx.stack.size))
        for j in range(ctx.stack.size):
            h = FD_STEP * (1.0 + abs(values[j]))
            up = values.copy(); up[j] += h
            dn = values.copy(); dn[j] -= h
            dpsi = (var.component_psi(ctx, up).mean(axis=0)
                    - var.component_psi(ctx, dn).mean(axis=0)) / (2 * h)
            J[:, j] = dpsi
        np.testing.assert_allclose(A, -J, atol=5e-5)

    def test_matches_fd_jacobian_mixed_censoring(self, ctx_mixed_cens):
        ctx = ctx_mixed_cens
        A = var.compute_A(ctx)
        values = ctx.stack.values
        J = np.zeros_like(A)
        for j in range(ctx.stack.size):
            h = FD_STEP * (1.0 + abs(values[j]))
            up = values.copy(); up[j] += h
            dn = values.copy(); dn[j] -= h
            dpsi = (var.component_psi(ctx, up).mean(axis=0)
                    - var.component_psi(ctx, dn).mean(axis=0)) / (2 * h)
            J[:, j] = dpsi
        np.testing.assert_allclose(A, -J, atol=2e-4)

    def test_block_structure(self, ctx_logistic):
        ctx = ctx_logistic
        A = var.compute_A(ctx)
        gs, es, ts = ctx.stack.gamma_slice, ctx.stack.eta_slice, ctx.stack.target_slice
        np.testing.assert_allclose(A[gs, es], 0.0)
        np.testing.assert_allclose(A[es, gs], 0.0)
        np.testing.assert_allclose(A[gs, ts], 0.0)
        np.testing.assert_allclose(A[es, ts], 0.0)
        np.testing.assert_allclose(A[ts, ts], np.eye(ts.stop - ts.start))

    def test_logistic_information_block(self, ctx_logistic):
        ctx = ctx_logistic
        A = var.compute_A(ctx)
        es = ctx.stack.eta_slice
        info = glm.logistic_information(ctx.cens.design, ctx.cens.fit.coefficients)
        np.testing.assert_allclose(A[es, es], info / (ctx.m * ctx.k_hat),
                                   rtol=1e-12)


class TestSandwich:
    def test_covariance_shrinks_by_half_on_duplicated_data(self):
        net, data, pfit, cfit, X, Xc = make_dataset(19, m=20)
        res1 = var.sandwich(net, data, pfit, cfit, X, Xc, ALLOCS)

        n = net.n
        edges = net.edge_list()
        doubled = ng.build_network(
            2 * n, np.vstack([edges, edges + n]).tolist())
        data2 = StudyData(A=np.tile(data.A, 2), Z=np.tile(data.Z, (2, 1)),
                          C=np.tile(data.C, 2),
                          Y=np.tile(data.Y, 2))
        X2 = np.tile(X, (2, 1))
        Xc2 = np.tile(Xc, (2, 1))
        pfit2 = glm.fit_mixed_logistic(X2, data2.A, doubled.components)
        cfit2 = glm.fit_logistic(Xc2, data2.C)
        np.testing.assert_allclose(pfit2.fixed_coefficients,
                                   pfit.fixed_coefficients, atol=1e-6)
        res2 = var.sandwich(doubled, data2, pfit2, cfit2, X2, Xc2, ALLOCS)
        np.testing.assert_allclose(res2.target_ses(),
                                   res1.target_ses() / np.sqrt(2.0), rtol=1e-4)

    def test_point_estimates_invariant_to_grouping(self):
        net, data, pfit, cfit, X, Xc = make_dataset(20, m=15)
        by_comp = var.sandwich(net, data, pfit, cfit, X, Xc, [0.5])
        fine = ng.fast_greedy_communities(net)
        by_comm = var.sandwich(net, data, pfit, cfit, X, Xc, [0.5], groups=fine)
        ts = by_comp.stack.target_slice
        np.testing.assert_allclose(by_comp.stack.values[ts],
                                   by_comm.stack.values[ts], atol=1e-14)
        if fine.group_count != net.m:
            assert not np.allclose(by_comp.target_ses(), by_comm.target_ses())

    def test_single_group_rejected(self):
        net, data, pfit, cfit, X, Xc = make_dataset(21, m=5)
        with pytest.raises(NumericalError):
            var.sandwich(net, data, pfit, cfit, X, Xc, [0.5],
                         groups=np.zeros(net.n, dtype=int))

    def test_contrast_se_formula(self, ctx_logistic):
        res = var.sandwich_from_context(ctx_logistic)
        i = res.stack.target_index(1, 0.3)
        j = res.stack.target_index(0, 0.3)
        expected = np.sqrt(res.sigma[i, i] + res.sigma[j, j] - 2 * res.sigma[i, j])
        assert res.contrast_se((1, 0.3), (0, 0.3)) == pytest.approx(expected)

    def test_dump_roundtrip_precision(self, ctx_logistic, tmp_path):
        res = var.sandwich_from_context(ctx_logistic)
        path = tmp_path / "sw.txt"
        res.dump(str(path))
        text = path.read_text().splitlines()
        assert text[0].startswith("names ")
        a_start = text.index("A") + 1
        first_row = np.array([float(v) for v in text[a_start].split()])
        np.testing.assert_array_equal(first_row, res.A[0])


def target_estimates_and_ses(net, data, X, Xc, allocs):
    pfit = glm.fit_mixed_logistic(X, data.A, net.components)
    cfit = glm.fit_logistic(Xc, data.C)
    res = var.sandwich(net, data, pfit, cfit, X, Xc, allocs)
    return res.stack.values[res.stack.target_slice], res.target_ses()


@pytest.fixture(scope="module")
def relabel_study():
    net, data, pfit, cfit, X, Xc = make_dataset(22, m=12)
    assert pfit.re_sd > 0.0
    return (net, data, X, Xc) + target_estimates_and_ses(net, data, X, Xc, ALLOCS)


class TestRelabelInvariance:
    # relabeling reorders every sum and the GLMM fit's path, so agreement is
    # to rounding, not bit for bit (observed: within 2e-15 relative)
    RTOL = 1e-10

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(st.data())
    def test_estimates_and_ses_invariant(self, relabel_study, hdata):
        net, data, X, Xc, estimates, ses = relabel_study
        perm = np.array(hdata.draw(st.permutations(range(net.n))))
        old = np.argsort(perm)          # old[new label] = original node
        pnet = ng.build_network(net.n, perm[net.edge_list()])
        pdata = StudyData(A=data.A[old], Z=data.Z[old], C=data.C[old], Y=data.Y[old])
        got_est, got_ses = target_estimates_and_ses(pnet, pdata, X[old], Xc[old], ALLOCS)
        np.testing.assert_allclose(got_est, estimates, rtol=self.RTOL)
        np.testing.assert_allclose(got_ses, ses, rtol=self.RTOL)


class TestKnownWeights:
    def test_hand_computed_two_components(self):
        # two disjoint edges; uniform weights chosen for tractability
        net = ng.build_network(4, [(0, 1), (2, 3)])
        data = StudyData(A=np.array([1, 0, 1, 1]),
                         Z=np.zeros((4, 1)),
                         C=np.zeros(4, dtype=np.int64),
                         Y=np.array([1.0, 0.0, 1.0, 1.0]))
        f = np.array([0.5, 0.4, 0.25, 0.5])
        s = np.array([0.8, 0.9, 1.0, 0.5])
        alpha = 0.5
        res = var.sandwich_known_weights(net, data, np.log(f), np.log(s), [alpha])

        # per-node terms for the arm-1 target: Y * 1{A=1} * pi_nb / (f s)
        w = np.array([
            1.0 * 0.5 / (0.5 * 0.8),
            0.0,
            1.0 * 0.5 / (0.25 * 1.0),
            1.0 * 0.5 / (0.5 * 0.5),
        ])
        yhat = w.mean()
        t = res.stack.target_index(1, alpha)
        assert res.stack.values[t] == pytest.approx(yhat, rel=1e-12)
        # psi per component (k_hat = 2): sum of terms / 2 - yhat
        psi = np.array([(w[0] + w[1]) / 2 - yhat, (w[2] + w[3]) / 2 - yhat])
        expected_var = np.sum(psi**2) / 2 / 2  # B / m with A = I
        assert res.target_se(1, alpha) == pytest.approx(np.sqrt(expected_var),
                                                        rel=1e-12)

    def test_matches_full_sandwich_shape(self):
        net, data, pfit, cfit, X, Xc = make_dataset(22, m=10)
        logf = log_propensity_density_all(net, data.A, X, pfit)
        with np.errstate(divide="ignore"):
            logs = np.log(censoring_survival_all(Xc, cfit))
        res = var.sandwich_known_weights(net, data, logf, logs, ALLOCS)
        assert res.sigma.shape == (6, 6)
        assert res.stack.names == tuple(
            estimand_name(*k) for k in res.stack.target_keys)


class TestQrSolve:
    def test_solves_well_conditioned_system(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        B = rng.normal(size=(6, 3))
        X = var._qr_solve(A, B)
        np.testing.assert_allclose(A @ X, B, atol=1e-10)

    def test_rejects_singular_system(self):
        A = np.ones((4, 4))
        with pytest.raises(NumericalError):
            var._qr_solve(A, np.eye(4))
