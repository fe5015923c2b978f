import csv
import json
import os

import numpy as np
import pytest

from netspill import cli as cli_mod
from netspill import io, sim

pytestmark = pytest.mark.filterwarnings("ignore:possible separation",
                                        "ignore::UserWarning")


def run_cli(args):
    with pytest.raises(SystemExit) as exc:
        cli_mod.main(list(args))
    return exc.value.code


@pytest.fixture()
def study_files(tmp_path):
    """Small but estimable study written to CSV."""
    sc = sim.preset_scenario("paper-main", m=20, replicates=1, seed=99)
    ss = np.random.SeedSequence(sc.seed).spawn(2)
    net = sim.generate_network(sc.network, np.random.default_rng(ss[0]))
    data, _ = sim.generate_dataset(net, sc, np.random.default_rng(ss[1]))
    edges = tmp_path / "edges.csv"
    nodes = tmp_path / "nodes.csv"
    io.write_csv_atomic(str(edges), ("src", "dst"),
                        [(f"n{u}", f"n{v}") for u, v in net.edge_list()])
    rows = []
    for i in range(net.n):
        y = "" if data.C[i] == 1 else io.fmt_num(data.Y[i])
        rows.append((f"n{i}", int(data.A[i]), int(data.C[i]), y,
                     int(data.Z[i, 0])))
    io.write_csv_atomic(str(nodes), ("id", "A", "C", "Y", "Z_1"), rows)
    return str(edges), str(nodes)


def write_study(tmp_path, n, edges, seed=1):
    """Study CSVs on nodes n0..n{n-1}: exposure, covariate and outcome
    Bernoulli(0.5), censoring Bernoulli(0.2)."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, n)
    Z = rng.integers(0, 2, n)
    C = (rng.random(n) < 0.2).astype(int)
    Y = rng.integers(0, 2, n)
    edges_path, nodes_path = tmp_path / "edges.csv", tmp_path / "nodes.csv"
    io.write_csv_atomic(str(edges_path), ("src", "dst"),
                        [(f"n{u}", f"n{v}") for u, v in edges])
    io.write_csv_atomic(str(nodes_path), ("id", "A", "C", "Y", "Z_1"),
                        [(f"n{i}", int(A[i]), int(C[i]), "" if C[i] else int(Y[i]), int(Z[i]))
                         for i in range(n)])
    return str(edges_path), str(nodes_path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEstimate:
    def test_writes_all_outputs(self, study_files, tmp_path):
        edges, nodes = study_files
        out = str(tmp_path / "out")
        code = run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--out", out])
        assert code == 0
        effects = read_csv(os.path.join(out, "effects.csv"))
        kinds = {r["kind"] for r in effects}
        assert kinds == {"direct", "indirect", "total", "overall"}
        # 3 direct + 3 pairs for each of the other kinds
        assert len(effects) == 12
        for r in effects:
            lo, hi, rd = float(r["ci_lo"]), float(r["ci_hi"]), float(r["rd"])
            assert lo <= rd <= hi
        weights = read_csv(os.path.join(out, "weights.csv"))
        assert weights[0]["node"] == "n0"
        summary = json.load(open(os.path.join(out, "fit_summary.json")))
        assert summary["propensity"]["converged"]
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "estimate"
        assert "config_hash" in manifest

    def test_bad_quad_nodes_exits_2(self, tmp_path):
        # one exposed node in every pair: the propensity sd collapses to 0,
        # so no density integral is left to catch the bad rule
        edges, nodes = tmp_path / "edges.csv", tmp_path / "nodes.csv"
        io.write_csv_atomic(str(edges), ("src", "dst"),
                            [(f"n{2 * k}", f"n{2 * k + 1}") for k in range(40)])
        rows = [(f"n{i}", i % 2, int(i % 7 == 0), "" if i % 7 == 0 else i % 3 % 2,
                 i % 5 % 2) for i in range(80)]
        io.write_csv_atomic(str(nodes), ("id", "A", "C", "Y", "Z_1"), rows)
        assert run_cli(["estimate", "--edges", str(edges), "--nodes", str(nodes),
                        "--quad-nodes", "10", "--out", str(tmp_path / "out")]) == 2

    def test_single_component_exits_3(self, tmp_path, capsys):
        edges, nodes = write_study(tmp_path, 30, [(k, k + 1) for k in range(29)])
        out = tmp_path / "out"
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--out", str(out)]) == 3
        assert "sandwich variance needs at least two groups" in capsys.readouterr().err
        assert not (out / "effects.csv").exists()
        assert not (out / "weights.csv").exists()

    def test_hub_underflow_exits_4(self, tmp_path, capsys):
        # the closed neighborhood of a 1,100-leaf hub has density below 1e-300
        hub = [(0, j) for j in range(1, 1101)]
        paths = [(1101 + 10 * c + k, 1102 + 10 * c + k) for c in range(40) for k in range(9)]
        edges, nodes = write_study(tmp_path, 1501, hub + paths)
        out = tmp_path / "out"
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--out", str(out)]) == 4
        assert "underflow at node 0" in capsys.readouterr().err
        assert not (out / "effects.csv").exists()
        assert not (out / "weights.csv").exists()

    def test_censored_nodes_have_blank_weight(self, study_files, tmp_path):
        edges, nodes = study_files
        out = str(tmp_path / "out")
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--out", out]) == 0
        weights = read_csv(os.path.join(out, "weights.csv"))
        nodes_rows = read_csv(nodes)
        for w, nrow in zip(weights, nodes_rows):
            if nrow["C"] == "1":
                assert w["weight"] == ""
            else:
                assert float(w["weight"]) > 0

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["estimate", "--edges", str(tmp_path / "no.csv"),
                        "--nodes", str(tmp_path / "no2.csv")]) == 2

    def test_malformed_nodes_exits_2(self, study_files, tmp_path):
        edges, _ = study_files
        bad = tmp_path / "bad.csv"
        bad.write_text("id,A,C,Y,Z_1\nn0,3,0,0.5,1\n")
        assert run_cli(["estimate", "--edges", edges, "--nodes", str(bad)]) == 2

    def test_bad_alloc_exits_2(self, study_files, tmp_path):
        edges, nodes = study_files
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--alloc", "0.5,oops"]) == 2
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--alloc", "1.5"]) == 2

    def test_nonpositive_weight_threshold_exits_2(self, study_files, tmp_path):
        # rejected as a usage error before any fit
        edges, nodes = study_files
        out = tmp_path / "out"
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--weight-threshold", "0", "--out", str(out)]) == 2
        assert not (out / "effects.csv").exists()

    def test_usage_error_exits_2(self):
        assert run_cli(["estimate"]) == 2

    def test_mixed_censoring_option(self, study_files, tmp_path):
        edges, nodes = study_files
        out = str(tmp_path / "mx")
        assert run_cli(["estimate", "--edges", edges, "--nodes", nodes,
                        "--censoring", "mixed", "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "fit_summary.json")))
        assert "re_sd" in summary["censoring"]


class TestSimulate:
    def test_writes_report_and_manifest(self, tmp_path):
        out = str(tmp_path / "sim")
        code = run_cli(["simulate", "--m", "8", "--replicates", "2",
                        "--seed", "5", "--out", out])
        assert code == 0
        rows = read_csv(os.path.join(out, "simreport.csv"))
        assert len(rows) == 9
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["replicates"] == 2
        assert manifest["runtime"]["threads"] >= 1

    def test_manifest_rerun_reproduces_bytes(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(["simulate", "--m", "8", "--replicates", "2", "--seed", "5",
                 "--out", out1])
        run_cli(["simulate", "--scenario", os.path.join(out1, "manifest.json"),
                 "--out", out2])
        a = open(os.path.join(out1, "simreport.csv"), "rb").read()
        b = open(os.path.join(out2, "simreport.csv"), "rb").read()
        assert a == b

    def test_manifest_rerun_reproduces_bytes_communities(self, tmp_path):
        # the manifest's grouping is a CLI-layer key; a rerun keeps it
        # unless --grouping is given
        out1, out2, out3 = (str(tmp_path / k) for k in "abc")
        run_cli(["simulate", "--preset", "paper-trip", "--replicates", "3",
                 "--grouping", "communities", "--out", out1])
        manifest = os.path.join(out1, "manifest.json")
        run_cli(["simulate", "--scenario", manifest, "--out", out2])
        for name in ("simreport.csv", "simreport.json", "manifest.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name
        meta = json.load(open(os.path.join(out2, "simreport.json")))["metadata"]
        assert meta["variance_grouping"] == "fast-greedy communities"
        run_cli(["simulate", "--scenario", manifest, "--grouping", "components",
                 "--out", out3])
        meta = json.load(open(os.path.join(out3, "simreport.json")))["metadata"]
        assert meta["variance_grouping"] == "components"

    def test_scenario_file_unknown_field_exits_2(self, tmp_path):
        bad = tmp_path / "sc.json"
        payload = sim.preset_scenario("paper-main", m=5, replicates=1).to_dict()
        payload["oops"] = True
        bad.write_text(json.dumps(payload))
        assert run_cli(["simulate", "--scenario", str(bad)]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "sc.json"
        bad.write_text("{not json")
        assert run_cli(["simulate", "--scenario", str(bad)]) == 2

    def test_env_var_sets_default_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETSPILL_THREADS", "2")
        out = str(tmp_path / "sim")
        run_cli(["simulate", "--m", "6", "--replicates", "2", "--seed", "4",
                 "--out", out])
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["runtime"]["threads"] == 2

    def test_bad_env_var_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETSPILL_THREADS", "many")
        assert run_cli(["simulate", "--m", "6", "--replicates", "1",
                        "--out", str(tmp_path / "x")]) == 2


class TestSweep:
    def test_writes_both_fits_per_sd(self, tmp_path):
        out = str(tmp_path / "sw")
        code = run_cli(["sweep", "--sds", "0.2,0.4", "--m", "8",
                        "--replicates", "2", "--seed", "6", "--out", out])
        assert code == 0
        rows = read_csv(os.path.join(out, "sweep.csv"))
        assert {(r["re_sd"], r["fit"]) for r in rows} == {
            ("0.2", "logistic"), ("0.2", "mixed"),
            ("0.4", "logistic"), ("0.4", "mixed")}
        assert len(rows) == 4 * 9

    def test_manifest_rerun_reproduces_bytes(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(["sweep", "--sds", "0.2", "--m", "8", "--replicates", "2",
                 "--seed", "6", "--out", out1])
        run_cli(["sweep", "--scenario", os.path.join(out1, "manifest.json"),
                 "--out", out2])
        for name in ("sweep.csv", "sweep.json", "manifest.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name


class TestCommunities:
    def test_writes_partition(self, study_files, tmp_path):
        edges, nodes = study_files
        out = str(tmp_path / "comm")
        assert run_cli(["communities", "--edges", edges, "--nodes", nodes,
                        "--out", out]) == 0
        rows = read_csv(os.path.join(out, "communities.csv"))
        node_rows = read_csv(nodes)
        assert len(rows) == len(node_rows)
        assert rows[0]["node"] == "n0"

    def test_edges_only_universe(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("src,dst\na,b\nb,c\nd,e\n")
        out = str(tmp_path / "comm")
        assert run_cli(["communities", "--edges", str(edges),
                        "--out", out]) == 0
        rows = read_csv(os.path.join(out, "communities.csv"))
        assert {r["node"] for r in rows} == {"a", "b", "c", "d", "e"}


class TestVersion:
    def test_version_flag(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "netspill" in capsys.readouterr().out
