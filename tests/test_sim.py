import numpy as np
import pytest
from scipy.special import expit

from netspill import estimator as est
from netspill import sim
from netspill.errors import InputError

# tiny per-replicate fits legitimately trip the separation heuristic
pytestmark = pytest.mark.filterwarnings("ignore:possible separation")


def tiny_scenario(**kw):
    base = dict(network=sim.RegularNetworkSpec(m=8, mean_size=8.0, degree=4),
                replicates=3, seed=71)
    base.update(kw)
    return sim.Scenario(**base)


class TestScenario:
    def test_round_trips_through_dict(self):
        sc = tiny_scenario(censoring_mode="correlated", censoring_re_sd=0.4)
        back = sim.Scenario.from_dict(sc.to_dict())
        assert back == sc
        assert back.config_hash() == sc.config_hash()

    def test_accepts_manifest_wrapper(self):
        sc = tiny_scenario()
        back = sim.Scenario.from_dict({"config": sc.to_dict()})
        assert back == sc

    def test_rejects_unknown_fields(self):
        payload = tiny_scenario().to_dict()
        payload["bogus"] = 1
        with pytest.raises(InputError):
            sim.Scenario.from_dict(payload)

    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            tiny_scenario(replicates=0)
        with pytest.raises(InputError):
            tiny_scenario(censoring_mode="sometimes")
        with pytest.raises(InputError):
            tiny_scenario(allocs=(0.0, 0.5))

    def test_network_spec_round_trip(self):
        trip = sim.TripNetworkSpec()
        back = sim.network_spec_from_dict(trip.to_dict())
        assert back == trip
        reg = sim.RegularNetworkSpec(m=5)
        assert sim.network_spec_from_dict(reg.to_dict()) == reg

    def test_apply_overrides(self):
        sc = tiny_scenario()
        mixed = sim.apply_overrides(sc, censoring="mixed")
        assert mixed.censoring_mode == "correlated"
        assert mixed.fit_censoring_as == "mixed"
        assert mixed.censoring_re_sd == 0.3
        logi = sim.apply_overrides(mixed, censoring="logistic")
        assert logi.censoring_mode == "independent"
        bumped = sim.apply_overrides(sc, m=12, replicates=9, seed=2)
        assert bumped.network.m == 12
        assert (bumped.replicates, bumped.seed) == (9, 2)
        with pytest.raises(InputError):
            sim.apply_overrides(sim.preset_scenario("paper-trip"), m=5)

    def test_presets(self):
        main = sim.preset_scenario("paper-main")
        assert main.network.m == 200 and main.replicates == 1000
        trip = sim.preset_scenario("paper-trip")
        assert isinstance(trip.network, sim.TripNetworkSpec)
        with pytest.raises(InputError):
            sim.preset_scenario("nope")


class TestGenerateDataset:
    def draw(self, sc, seed=5):
        net = sim.generate_network(sc.network, np.random.default_rng(seed))
        data, table = sim.generate_dataset(net, sc, np.random.default_rng(seed + 1))
        return net, data, table

    def test_deterministic(self):
        sc = tiny_scenario()
        net1, d1, t1 = self.draw(sc)
        net2, d2, t2 = self.draw(sc)
        np.testing.assert_array_equal(net1.edge_list(), net2.edge_list())
        np.testing.assert_array_equal(d1.A, d2.A)
        np.testing.assert_array_equal(d1.C, d2.C)
        np.testing.assert_array_equal(d1.Y, d2.Y)
        np.testing.assert_array_equal(t1.flat, t2.flat)

    def test_outcomes_consistent_with_table(self):
        sc = tiny_scenario()
        net, data, table = self.draw(sc)
        s_obs = est.observed_treated_counts(net, data.A).astype(int)
        for i in range(net.n):
            if data.C[i] == 1:
                assert np.isnan(data.Y[i])
            else:
                assert data.Y[i] == table.value_by_count(i, int(data.A[i]),
                                                         int(s_obs[i]))

    def test_independent_equals_correlated_at_zero_sd(self):
        ind = tiny_scenario(censoring_mode="independent")
        cor = tiny_scenario(censoring_mode="correlated", censoring_re_sd=0.0)
        net1, d1, t1 = self.draw(ind)
        net2, d2, t2 = self.draw(cor)
        np.testing.assert_array_equal(d1.C, d2.C)
        np.testing.assert_array_equal(d1.A, d2.A)
        np.testing.assert_array_equal(t1.flat, t2.flat)

    def test_marginal_censoring_rate(self):
        # P(C=1) = E_Z E_rho expit(-3 + 2 Z + rho); numeric reference
        # computed by Gauss-Hermite in the test
        sc = tiny_scenario(network=sim.RegularNetworkSpec(m=400),
                           censoring_mode="correlated", censoring_re_sd=0.3)
        net, data, _ = self.draw(sc, seed=30)
        x, w = np.polynomial.hermite_e.hermegauss(61)
        rate = np.mean([
            np.sum(w / np.sqrt(2 * np.pi) * expit(-3.0 + 2.0 * z + 0.3 * x))
            for z in (0.0, 1.0)
        ])
        se = np.sqrt(rate * (1 - rate) / net.n)
        assert abs(data.C.mean() - rate) < 4 * se

    def test_exposure_rate_matches_model(self):
        sc = tiny_scenario(network=sim.RegularNetworkSpec(m=400))
        net, data, _ = self.draw(sc, seed=31)
        x, w = np.polynomial.hermite_e.hermegauss(61)
        rate = np.mean([
            np.sum(w / np.sqrt(2 * np.pi) * expit(0.7 - 1.4 * z + 0.5 * x))
            for z in (0.0, 1.0)
        ])
        se = np.sqrt(rate * (1 - rate) / net.n)
        assert abs(data.A.mean() - rate) < 4 * se

    def test_potential_outcome_table_means(self):
        # cell (a, s) of a degree-4 node averages expit over Z and the
        # within-cell Bernoulli draw
        sc = tiny_scenario(network=sim.RegularNetworkSpec(m=500))
        net, _, table = self.draw(sc, seed=32)
        vals = table.flat.reshape(net.n, 2, 5)
        for a in (0, 1):
            for s_cnt in (0, 4):
                frac = s_cnt / 4.0
                expected = np.mean([
                    expit(-1.75 + 0.5 * a + frac - 1.5 * a * frac + 0.5 * z)
                    for z in (0.0, 1.0)
                ])
                cell = vals[:, a, s_cnt]
                se = np.sqrt(expected * (1 - expected) / net.n)
                assert abs(cell.mean() - expected) < 4 * se


class TestRunReplicates:
    def test_smoke_report_shape(self):
        rep = sim.run_replicates(tiny_scenario())
        assert len(rep.rows) == 9
        names = [r.name for r in rep.rows]
        assert names[:3] == ["Y(1,0.25)", "Y(1,0.5)", "Y(1,0.75)"]
        assert names[6:] == ["Y(0.25)", "Y(0.5)", "Y(0.75)"]
        for r in rep.rows:
            assert np.isfinite(r.bias) and np.isfinite(r.ase)
            assert 0.0 <= r.ecp <= 1.0
        md = rep.metadata
        assert md["replicates_succeeded"] == 3
        assert md["variance_grouping"] == "components"

    def test_deterministic_rows(self):
        sc = tiny_scenario(seed=77)
        r1 = sim.run_replicates(sc)
        r2 = sim.run_replicates(sc)
        assert r1.csv_rows() == r2.csv_rows()

    def test_thread_count_does_not_change_results(self):
        sc = tiny_scenario(seed=78, replicates=4)
        serial = sim.run_replicates(sc, threads=1)
        pooled = sim.run_replicates(sc, threads=2)
        assert serial.csv_rows() == pooled.csv_rows()

    def test_truth_modes_share_bias(self):
        sc = tiny_scenario(seed=79, replicates=4)
        per = sim.run_replicates(sc)
        fixed = sim.run_replicates(sim.apply_overrides(sc, truth_mode="fixed-average"))
        for a, b in zip(per.rows, fixed.rows):
            assert a.bias == pytest.approx(b.bias, abs=1e-12)
            assert a.true_value == pytest.approx(b.true_value, abs=1e-12)

    def test_unknown_grouping_rejected(self):
        with pytest.raises(InputError):
            sim.run_replicates(tiny_scenario(), grouping="clusters")

    def test_mixed_censoring_arm_runs(self):
        sc = sim.apply_overrides(tiny_scenario(seed=81, replicates=2),
                                 censoring="mixed")
        rep = sim.run_replicates(sc)
        assert rep.metadata["replicates_succeeded"] == 2
        assert rep.metadata["config"]["fit_censoring_as"] == "mixed"


class TestStructuredVariants:
    def test_sweep_entries(self):
        sc = tiny_scenario(seed=82, replicates=2)
        entries = sim.sweep_re_sd(sc, [0.1, 0.5])
        assert [e.re_sd for e in entries] == [0.1, 0.5]
        for e in entries:
            assert set(e.reports) == {"logistic", "mixed"}
            for rep in e.reports.values():
                assert rep.metadata["config"]["censoring_mode"] == "correlated"

    def test_trip_structure_point_estimates_match(self):
        base = sim.preset_scenario("paper-trip", replicates=2, seed=83)
        res = sim.trip_structure_scenario(base)
        assert res.n_communities > 10
        for a, b in zip(res.by_components.rows, res.by_communities.rows):
            assert a.bias == pytest.approx(b.bias, abs=1e-12)
            assert a.ase != b.ase
        assert (res.by_communities.metadata["variance_grouping"]
                == "fast-greedy communities")
