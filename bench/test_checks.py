"""Each benchmark check passes on a correct output and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""
import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402


def brute_log_density(lp, A, sigma):
    """Dense trapezoid over b in [-12 sigma, 12 sigma]."""
    b = np.linspace(-12 * sigma, 12 * sigma, 200_001)
    eta = np.asarray(lp)[:, None] + b[None, :]
    like = np.exp(np.sum(np.asarray(A)[:, None] * eta - np.logaddexp(0.0, eta), axis=0))
    dens = like * np.exp(-0.5 * (b / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return math.log(np.trapezoid(dens, b))


class TestDensity:
    lp = np.array([-0.4, 0.3, 1.1, -1.7, 0.2, 0.0, -0.8])
    A = np.array([1, 0, 1, 0, 0, 1, 1])

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.2])
    def test_reference_matches_brute_force(self, sigma):
        ref = checks.gh_log_density(self.lp, self.A, sigma)
        assert ref == pytest.approx(brute_log_density(self.lp, self.A, sigma), abs=1e-9)

    def test_zero_sd_is_a_bernoulli_product(self):
        p = 1.0 / (1.0 + np.exp(-self.lp))
        want = float(np.sum(np.log(np.where(self.A == 1, p, 1 - p))))
        assert checks.gh_log_density(self.lp, self.A, 0.0) == pytest.approx(want, abs=1e-12)

    def test_rejects_wrong_f(self):
        ref = [checks.gh_log_density(self.lp, self.A, 0.5)]
        assert checks.check_density([0], ref, ref, rtol=1e-7) == []
        wrong = [ref[0] + math.log1p(1e-4)]
        assert checks.check_density([0], wrong, ref, rtol=1e-5)


class TestTruth:
    def table(self):
        rng = np.random.default_rng(5)
        degrees = np.array([1, 3, 2, 4])
        blocks = [rng.random((2, d + 1)) for d in degrees]
        offsets = np.concatenate([[0], np.cumsum([b.size for b in blocks])[:-1]])
        return np.concatenate([b.ravel() for b in blocks]), offsets, degrees, blocks

    def test_comb_weights_match_pattern_enumeration(self):
        flat, offsets, degrees, blocks = self.table()
        got = checks.truth_by_comb(flat, offsets, degrees, [0.3])
        for a in (0, 1):
            tot = 0.0
            for d, blk in zip(degrees, blocks):
                for pat in itertools.product((0, 1), repeat=int(d)):
                    s = sum(pat)
                    tot += blk[a, s] * 0.3 ** s * 0.7 ** (d - s)
            assert got[(a, 0.3)] == pytest.approx(tot / len(degrees), abs=1e-14)

    def test_rejects_wrong_truth(self):
        flat, offsets, degrees, _ = self.table()
        ref = checks.truth_by_comb(flat, offsets, degrees, [0.3, 0.6])
        assert checks.check_truth(dict(ref), ref) == []
        bad = dict(ref)
        bad[(1, 0.6)] += 1e-9
        assert checks.check_truth(bad, ref)

    def test_closed_form_truth_matches_comb_table(self):
        # the estimate-large truth against the table form on a few nodes
        degrees = np.array([1, 2, 5])
        Z1, Z2 = np.array([0.0, 1.0, 1.0]), np.array([0.3, -1.2, 0.7])
        blocks = []
        for d, z1, z2 in zip(degrees, Z1, Z2):
            frac = np.arange(d + 1) / d
            b0, ba, bf, baf, b1, b2 = inputs.OUTCOME_COEFS
            blocks.append(np.vstack([
                inputs.expit(b0 + a * ba + (bf + baf * a) * frac + b1 * z1 + b2 * z2)
                for a in (0, 1)]))
        offsets = np.concatenate([[0], np.cumsum([b.size for b in blocks])[:-1]])
        flat = np.concatenate([b.ravel() for b in blocks])
        table = checks.truth_by_comb(flat, offsets, degrees, [0.25])
        closed = inputs.closed_form_truth(degrees, Z1, Z2, allocs=(0.25,))
        assert closed["Y(1,0.25)"] == pytest.approx(table[(1, 0.25)], abs=1e-14)
        assert closed["Y(0.25)"] == pytest.approx(table[(None, 0.25)], abs=1e-14)


class TestEstimates:
    def test_rejects_perturbed_estimate(self):
        est = {(0, 0.5): 0.3, (1, 0.5): 0.5, (None, 0.5): 0.4}
        assert checks.check_identity(est, [0.5]) == []
        est[(None, 0.5)] += 1e-6
        assert checks.check_identity(est, [0.5])

    def test_rejects_psi_off_the_fit(self):
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((50, 3))
        psi -= psi.mean(axis=0)
        assert checks.check_psi_sums(psi, ["a", "b", "c"]) == []
        psi[:, 1] += 1e-3
        assert checks.check_psi_sums(psi, ["a", "b", "c"])

    def test_rejects_indefinite_covariance(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 5))
        cov = G @ G.T
        assert checks.check_psd(cov, ["x", "y", "z"]) == []
        cov[0, 1] = cov[1, 0] = 10 * math.sqrt(cov[0, 0] * cov[1, 1])
        assert checks.check_psd(cov, ["x", "y", "z"])

    def test_rejects_biased_report(self):
        rows = [("Y(1,0.5)", 0.001, 0.05)]
        assert checks.check_bias(rows, 100) == []
        assert checks.check_bias([("Y(1,0.5)", 0.03, 0.05)], 100)

    def test_rejects_estimate_far_from_truth(self):
        assert checks.check_recovery(["b"], [1.03], [0.01], [1.0]) == []
        assert checks.check_recovery(["b"], [1.05], [0.01], [1.0])

    def test_rejects_differing_reports(self):
        assert checks.check_identical("r", b"abc", b"abc") == []
        assert checks.check_identical("r", b"abc", b"abd")


class TestCommunities:
    # two triangles joined by one edge, plus a separate pair
    edges = np.array([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (6, 7)])
    good = np.array([0, 0, 0, 3, 3, 3, 6, 6])

    def q(self, labels):
        return checks.modularity(self.edges, labels)

    def test_accepts_the_greedy_partition(self):
        assert checks.check_communities(self.edges, self.good, self.q(self.good)) == []

    def test_modularity_matches_definition(self):
        # Q = sum_c [e_c/M - (deg_c / 2M)^2] with M = 8
        want = 2 * (3 / 8 - (7 / 16) ** 2) + (1 / 8 - (2 / 16) ** 2)
        assert self.q(self.good) == pytest.approx(want, abs=1e-15)

    def test_rejects_positive_gain_pair(self):
        split = np.array([0, 0, 2, 3, 3, 3, 6, 6])   # node 2 alone beside its triangle
        problems = checks.check_communities(self.edges, split, self.q(split))
        assert any("merge gain" in p for p in problems)

    def test_rejects_community_spanning_components(self):
        joined = np.array([0, 0, 0, 3, 3, 3, 0, 0])
        problems = checks.check_communities(self.edges, joined, self.q(joined))
        assert any("spans components" in p for p in problems)

    def test_rejects_wrong_printed_modularity(self):
        problems = checks.check_communities(self.edges, self.good, self.q(self.good) + 1e-4)
        assert any("printed modularity" in p for p in problems)


class TestSpans:
    def test_self_time_excludes_child_spans(self):
        import time

        import spans

        tracer = spans.Tracer()
        inner = tracer.wrap("x.inner", lambda: time.sleep(0.02))

        def outer_fn():
            inner()
            inner()
            time.sleep(0.01)

        tracer.wrap("x.outer", outer_fn)()
        assert tracer.calls["x.inner"] == 2 and tracer.calls["x.outer"] == 1
        assert tracer.total["x.outer"] >= tracer.total["x.inner"] + 0.01
        assert tracer.self_time["x.outer"] == pytest.approx(
            tracer.total["x.outer"] - tracer.total["x.inner"], abs=1e-9)
        tracer.enabled = False
        inner()
        assert tracer.calls["x.inner"] == 2

    def test_distinct_pattern_ratio_counts_neighbourhood_multisets(self):
        import types

        import spans

        # path 0-1-2-3 with equal rows: ends share a pattern, so do middles
        net = types.SimpleNamespace(n=4, adjacency=((1,), (0, 2), (1, 3), (2,)))
        X = np.ones((4, 1))
        ratio, base = spans.distinct_pattern_ratio([(net, np.array([1, 0, 0, 1]), X)])
        assert (ratio, base) == (0.5, 4)
        ratio, _ = spans.distinct_pattern_ratio([(net, np.array([1, 1, 0, 0]), X)])
        assert ratio == 1.0
