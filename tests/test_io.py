import json
import os

import numpy as np
import pytest

from netspill import io
from netspill.errors import InputError
from netspill.netgraph import Partition


def write(path, text):
    path.write_text(text)
    return str(path)


def read_partition_csv(path, node_ids):
    """Community file with columns node,community aligned to node ids."""
    fh, reader, _ = io._open_csv(path, ("node", "community"))
    index = {nid: k for k, nid in enumerate(node_ids)}
    labels = [None] * len(node_ids)
    with fh:
        for lineno, row in enumerate(reader, start=2):
            node = row.get("node")
            if node not in index:
                raise InputError(f"{path}:{lineno}: unknown node id {node!r}")
            labels[index[node]] = row.get("community")
    missing = [node_ids[k] for k, lab in enumerate(labels) if lab is None]
    if missing:
        raise InputError(f"{path}: no community for node(s) {', '.join(missing[:5])}")
    return Partition.from_labels(labels)


class TestFormatting:
    def test_six_significant_digits(self):
        assert io.fmt_num(0.123456789) == "0.123457"
        assert io.fmt_num(1e-7) == "1e-07"
        assert io.fmt_num(1.0) == "1"

    def test_blank_for_missing(self):
        assert io.fmt_num(None) == ""
        assert io.fmt_num(float("nan")) == ""


class TestAtomicWrites:
    def test_csv_content_and_no_leftover_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        io.write_csv_atomic(str(path), ("a", "b"), [(1, "x"), (2, "y")])
        assert path.read_text() == "a,b\n1,x\n2,y\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "out.json"
        io.write_json_atomic(str(path), {"b": 1, "a": [2]})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [2], "b": 1}

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "f.txt"
        io.write_text_atomic(str(path), "one")
        io.write_text_atomic(str(path), "two")
        assert path.read_text() == "two"


class TestReadEdges:
    def test_reads_pairs(self, tmp_path):
        p = write(tmp_path / "e.csv", "src,dst\nu,v\nv,w\n")
        assert io.read_edges_csv(p) == [("u", "v"), ("v", "w")]

    def test_missing_column_rejected(self, tmp_path):
        p = write(tmp_path / "e.csv", "src,other\nu,v\n")
        with pytest.raises(InputError):
            io.read_edges_csv(p)

    def test_blank_field_rejected_with_line_number(self, tmp_path):
        p = write(tmp_path / "e.csv", "src,dst\nu,v\n,w\n")
        with pytest.raises(InputError, match=r"csv:3"):
            io.read_edges_csv(p)


class TestReadNodes:
    def good(self, tmp_path):
        return write(tmp_path / "n.csv",
                     "id,A,C,Y,Z_age\nn1,1,0,0.5,0\nn2,0,1,,1\nn3,1,0,1,1\n")

    def test_reads_all_columns(self, tmp_path):
        ids, A, C, Y, Z, names = io.read_nodes_csv(self.good(tmp_path))
        assert ids == ["n1", "n2", "n3"]
        np.testing.assert_array_equal(A, [1, 0, 1])
        np.testing.assert_array_equal(C, [0, 1, 0])
        assert Y[0] == 0.5 and np.isnan(Y[1])
        np.testing.assert_array_equal(Z, [[0.0], [1.0], [1.0]])
        assert names == ["Z_age"]

    def test_nonbinary_exposure_rejected(self, tmp_path):
        p = write(tmp_path / "n.csv", "id,A,C,Y,Z_x\nn1,2,0,0.5,0\n")
        with pytest.raises(InputError, match=r"csv:2"):
            io.read_nodes_csv(p)

    def test_outcome_must_be_blank_iff_censored(self, tmp_path):
        p = write(tmp_path / "n.csv", "id,A,C,Y\nn1,1,1,0.5\n")
        with pytest.raises(InputError):
            io.read_nodes_csv(p)
        p = write(tmp_path / "n2.csv", "id,A,C,Y\nn1,1,0,\n")
        with pytest.raises(InputError):
            io.read_nodes_csv(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = write(tmp_path / "n.csv", "id,A,C,Y\nn1,1,0,0.5\nn1,0,0,0.25\n")
        with pytest.raises(InputError, match="duplicate"):
            io.read_nodes_csv(p)

    def test_covariates_optional(self, tmp_path):
        p = write(tmp_path / "n.csv", "id,A,C,Y\nn1,1,0,0.5\n")
        ids, A, C, Y, Z, names = io.read_nodes_csv(p)
        assert Z.shape == (1, 0)
        assert names == []


class TestNetworkFromFiles:
    def test_resolves_string_ids(self, tmp_path):
        p = write(tmp_path / "e.csv", "src,dst\nb,a\nc,b\n")
        net = io.network_from_files(p, ["a", "b", "c"])
        assert net.n == 3
        assert net.adjacency[1] == (0, 2)

    def test_unknown_id_rejected(self, tmp_path):
        p = write(tmp_path / "e.csv", "src,dst\na,zzz\n")
        with pytest.raises(InputError, match="zzz"):
            io.network_from_files(p, ["a", "b"])


class TestReadPartition:
    def test_maps_labels_to_node_order(self, tmp_path):
        p = write(tmp_path / "p.csv", "node,community\nb,9\na,9\nc,4\n")
        part = read_partition_csv(p, ["a", "b", "c"])
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] != part.labels[0]

    def test_missing_node_rejected(self, tmp_path):
        p = write(tmp_path / "p.csv", "node,community\na,0\n")
        with pytest.raises(InputError):
            read_partition_csv(p, ["a", "b"])
