import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netspill import estimator as est
from netspill import weights as wt
from netspill.errors import InputError, PositivityError
from netspill.netgraph import build_network


def ipcw_oracle(net, data, logf, logs, arm, alpha):
    """Loop transcription of the weighted average: indicator, policy weight
    over the neighbor pattern (plus own-exposure weight for the marginal),
    inverse density and survival, averaged over all n nodes."""
    total = 0.0
    for i in range(net.n):
        if data.C[i] == 1:
            continue
        d = len(net.adjacency[i])
        s = int(sum(data.A[j] for j in net.adjacency[i]))
        pi_nb = alpha**s * (1.0 - alpha) ** (d - s)
        if arm is None:
            num = pi_nb * (alpha if data.A[i] == 1 else 1.0 - alpha)
        elif data.A[i] != arm:
            continue
        else:
            num = pi_nb
        total += data.Y[i] * num / (np.exp(logf[i]) * np.exp(logs[i]))
    return total / net.n


def small_study():
    # 3-node path plus an isolated censored node
    net = build_network(4, [(0, 1), (1, 2)])
    data = est.StudyData(
        A=np.array([1, 0, 1, 0]),
        Z=np.array([[0.0], [1.0], [0.0], [1.0]]),
        C=np.array([0, 0, 0, 1]),
        Y=np.array([1.0, 0.0, 1.0, np.nan]),
    )
    logf = np.log(np.array([0.3, 0.25, 0.4, 0.5]))
    logs = np.log(np.array([0.9, 0.8, 0.95, 0.7]))
    return net, data, logf, logs


class TestStudyData:
    def test_validates_binary_exposure(self):
        with pytest.raises(InputError):
            est.StudyData(A=np.array([0, 2]), Z=np.zeros((2, 1)),
                          C=np.zeros(2, dtype=int), Y=np.zeros(2))

    def test_validates_censored_outcomes_are_nan(self):
        with pytest.raises(InputError):
            est.StudyData(A=np.array([0, 1]), Z=np.zeros((2, 1)),
                          C=np.array([1, 0]), Y=np.array([0.5, 1.0]))
        with pytest.raises(InputError):
            est.StudyData(A=np.array([0, 1]), Z=np.zeros((2, 1)),
                          C=np.array([0, 0]), Y=np.array([np.nan, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            est.StudyData(A=np.array([0, 1, 0]), Z=np.zeros((2, 1)),
                          C=np.zeros(3, dtype=int), Y=np.zeros(3))

    def test_subset_keeps_alignment(self):
        _, data, _, _ = small_study()
        sub = data.subset(np.array([0, 2]))
        assert sub.n == 2
        np.testing.assert_array_equal(sub.A, [1, 1])
        np.testing.assert_array_equal(sub.Y, [1.0, 1.0])


class TestIpcwEstimates:
    def test_matches_loop_oracle(self):
        net, data, logf, logs = small_study()
        got = est.ipcw_estimates(net, data, logf, logs, [0.25, 0.5, 0.75])
        for (arm, alpha), val in got.items():
            expected = ipcw_oracle(net, data, logf, logs, arm, alpha)
            assert val == pytest.approx(expected, abs=1e-14), (arm, alpha)

    def test_hand_computed_value(self):
        net, data, logf, logs = small_study()
        alpha = 0.5
        # only nodes 0 and 2 are exposed and uncensored; node 1 exposed
        # count s=2 of d=2, nodes 0 and 2 have s=0 of d=1
        expected = (1.0 * 0.5 / (0.3 * 0.9) + 1.0 * 0.5 / (0.4 * 0.95)) / 4.0
        got = est.ipcw_estimates(net, data, logf, logs, [alpha])
        assert got[(1, alpha)] == pytest.approx(expected, rel=1e-12)

    def test_marginal_mixes_arms_exactly(self):
        net, data, logf, logs = small_study()
        for alpha in (0.2, 0.5, 0.8):
            got = est.ipcw_estimates(net, data, logf, logs, [alpha])
            mix = alpha * got[(1, alpha)] + (1 - alpha) * got[(0, alpha)]
            assert got[(None, alpha)] == pytest.approx(mix, abs=1e-15)

    def test_censored_nodes_contribute_zero_but_count(self):
        net, data, logf, logs = small_study()
        got = est.ipcw_estimates(net, data, logf, logs, [0.5])
        # same data without node 3 gives a mean over 3 instead of 4
        net3 = build_network(3, [(0, 1), (1, 2)])
        data3 = data.subset(np.array([0, 1, 2]))
        got3 = est.ipcw_estimates(net3, data3, logf[:3], logs[:3], [0.5])
        assert got[(1, 0.5)] == pytest.approx(got3[(1, 0.5)] * 3 / 4, rel=1e-12)

    def test_underflow_raises(self):
        net, data, logf, logs = small_study()
        logf = logf.copy()
        logf[0] = -800.0
        with pytest.raises(PositivityError):
            est.ipcw_estimates(net, data, logf, logs, [0.5])

    def test_all_censored_warns(self):
        net, data, logf, logs = small_study()
        data = est.StudyData(A=data.A, Z=data.Z, C=np.ones(4, dtype=int),
                             Y=np.full(4, np.nan))
        with pytest.warns(UserWarning, match="censored"):
            got = est.ipcw_estimates(net, data, logf, logs, [0.5])
        assert got[(1, 0.5)] == 0.0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_marginal_identity_on_generated_studies(self, hdata):
        # Y(alpha) = alpha Y(1,alpha) + (1-alpha) Y(0,alpha), to rounding
        # of the terms: 1e-12 of each column's absolute mean
        n = hdata.draw(st.integers(2, 30), label="n")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        net = build_network(n, hdata.draw(st.lists(pairs, max_size=3 * n), label="edges"))
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        A = np.array(hdata.draw(bits, label="A"))
        C = np.array(hdata.draw(bits, label="C"))
        C[0] = 0
        y = hdata.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n), label="Y")
        Y = np.where(C == 1, np.nan, y)
        # each log is at least -300, so log f + log s stays above the floor
        logs_f = st.lists(st.floats(-300.0, 0.0), min_size=n, max_size=n)
        logf = np.array(hdata.draw(logs_f, label="logf"))
        logs = np.array(hdata.draw(logs_f, label="logs"))
        allocs = hdata.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3,
                                     unique=True), label="allocs")
        data = est.StudyData(A=A, Z=np.zeros((n, 1)), C=C, Y=Y)
        got = est.ipcw_estimates(net, data, logf, logs, allocs)
        keys, T = est.target_terms(net, data, logf, logs, allocs)
        scale = dict(zip(keys, np.abs(T).mean(axis=0)))
        for alpha in (wt.as_allocation(a).alpha for a in allocs):
            mix = alpha * got[(1, alpha)] + (1 - alpha) * got[(0, alpha)]
            tol = 1e-12 * max(scale[(arm, alpha)] for arm in (0, 1, None))
            assert abs(got[(None, alpha)] - mix) <= tol


class TestTargetsAndNames:
    def test_stack_order(self):
        keys = est.stack_targets([0.25, 0.5])
        assert keys == [(0, 0.25), (1, 0.25), (None, 0.25),
                        (0, 0.5), (1, 0.5), (None, 0.5)]

    def test_report_order(self):
        keys = est.report_targets([0.25, 0.5])
        assert keys == [(1, 0.25), (1, 0.5), (0, 0.25), (0, 0.5),
                        (None, 0.25), (None, 0.5)]

    def test_names(self):
        assert est.estimand_name(1, 0.25) == "Y(1,0.25)"
        assert est.estimand_name(None, 0.5) == "Y(0.5)"

    def test_effect_pairs_order(self):
        assert est.effect_pairs([0.25, 0.5, 0.75]) == [
            (0.5, 0.25), (0.75, 0.5), (0.75, 0.25)]

    def test_observed_treated_counts(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)])
        got = est.observed_treated_counts(net, [1, 0, 1, 1])
        np.testing.assert_array_equal(got, [0, 2, 1, 1])


class TestEffectTable:
    def test_contrast_identities(self):
        net, data, logf, logs = small_study()
        allocs = [0.25, 0.5, 0.75]
        estimates = est.ipcw_estimates(net, data, logf, logs, allocs)
        rows = {(r.kind, r.alpha1, r.alpha0): r.rd
                for r in est.effect_table(estimates, allocs)}
        # total decomposes into direct at alpha1 plus indirect
        for a1, a0 in est.effect_pairs(allocs):
            assert rows[("total", a1, a0)] == pytest.approx(
                rows[("direct", a1, a1)] + rows[("indirect", a1, a0)], abs=1e-14)
        assert rows[("direct", 0.5, 0.5)] == pytest.approx(
            estimates[(1, 0.5)] - estimates[(0, 0.5)], abs=1e-15)

    def test_no_se_without_covariance(self):
        net, data, logf, logs = small_study()
        estimates = est.ipcw_estimates(net, data, logf, logs, [0.5])
        rows = est.effect_table(estimates, [0.5])
        assert len(rows) == 1
        assert rows[0].se is None and rows[0].ci_lo is None


class TestTrueValues:
    def test_binomial_pmf_matches_scipy(self):
        from scipy.stats import binom

        for d in range(41):
            for alpha in (0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.9):
                np.testing.assert_allclose(
                    est._binomial_pmf_matrix(d, alpha),
                    binom.pmf(np.arange(d + 1), d, alpha), rtol=0, atol=1e-15)

    def random_table(self, net, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.random((2, d + 1)) for d in net.degrees]
        return est.CountPotentialOutcomes.from_blocks(blocks)

    @staticmethod
    def enumeration_oracle(net, table, allocs):
        """Average over every neighbor-exposure pattern, weighted by its
        policy probability alpha^s (1-alpha)^(d-s)."""
        out = {}
        for alpha in allocs:
            for arm in (0, 1):
                acc = 0.0
                for i in range(net.n):
                    d = int(net.degrees[i])
                    for pattern in itertools.product((0, 1), repeat=d):
                        s = sum(pattern)
                        acc += table.value_by_count(i, arm, s) * (
                            alpha**s * (1 - alpha) ** (d - s))
                out[(arm, alpha)] = acc / net.n
        return out

    def check_against_enumeration(self, net, table, allocs):
        got = est.true_values(net, table, allocs)
        for (arm, alpha), v in self.enumeration_oracle(net, table, allocs).items():
            assert got.values[(arm, alpha)] == pytest.approx(v, abs=1e-12)
        for alpha in allocs:
            mix = ((1 - alpha) * got.values[(0, alpha)]
                   + alpha * got.values[(1, alpha)])
            assert got.values[(None, alpha)] == pytest.approx(mix, abs=1e-15)

    def test_matches_pattern_enumeration(self):
        net = build_network(5, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)])
        self.check_against_enumeration(net, self.random_table(net, 8), [0.3, 0.5])

    def test_uniform_degree_fast_path_agrees(self):
        # a 4-cycle: every node has degree 2, so all nodes share one pmf row
        cycle = build_network(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        self.check_against_enumeration(cycle, self.random_table(cycle, 9), [0.4])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_enumeration_on_generated_graphs(self, hdata):
        n = hdata.draw(st.integers(1, 12), label="n")
        if hdata.draw(st.booleans(), label="cycle") and n >= 3:
            edges = [(i, (i + 1) % n) for i in range(n)]
        else:
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1])
            drawn = hdata.draw(st.lists(pairs, max_size=3 * n), label="edges")
            # keep each new edge while both ends stay at degree <= 8
            edges, deg = set(), np.zeros(n, dtype=int)
            for u, v in drawn:
                key = (min(u, v), max(u, v))
                if key not in edges and deg[u] < 8 and deg[v] < 8:
                    edges.add(key)
                    deg[u] += 1
                    deg[v] += 1
            edges = sorted(edges)
        net = build_network(n, edges)
        allocs = hdata.draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3,
                                     unique=True), label="allocs")
        table = self.random_table(net, hdata.draw(st.integers(0, 2**31), label="seed"))
        self.check_against_enumeration(net, table, allocs)

    def test_degree_mismatch_rejected(self):
        net = build_network(3, [(0, 1), (1, 2)])
        other = build_network(3, [(0, 1)])
        table = self.random_table(other, 11)
        with pytest.raises(InputError):
            est.true_values(net, table, [0.5])

    def test_ordered_vector_layouts(self):
        net = build_network(3, [(0, 1), (1, 2)])
        table = self.random_table(net, 12)
        tv = est.true_values(net, table, [0.25, 0.75])
        stack = tv.ordered([0.25, 0.75], "stack")
        report = tv.ordered([0.25, 0.75], "report")
        assert stack[0] == tv.values[(0, 0.25)]
        assert report[0] == tv.values[(1, 0.25)]
        assert stack.shape == report.shape == (6,)


class TestCountPotentialOutcomes:
    def test_realize_matches_lookup(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(13)
        table = est.CountPotentialOutcomes.from_blocks(
            [rng.random((2, d + 1)) for d in net.degrees])
        A = np.array([1, 0, 1, 1])
        s = est.observed_treated_counts(net, A).astype(int)
        got = table.realize(A, s)
        for i in range(4):
            assert got[i] == table.value_by_count(i, int(A[i]), int(s[i]))

    def test_lookup_bounds(self):
        table = est.CountPotentialOutcomes.from_blocks([np.zeros((2, 3))])
        with pytest.raises(InputError):
            table.value_by_count(0, 0, 5)
        with pytest.raises(InputError):
            table.value_by_count(0, 2, 1)
