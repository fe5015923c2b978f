from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netspill import netgraph as ng
from netspill import sim
from netspill.errors import EmptyNetworkError, InputError


def path_network(n):
    return ng.build_network(n, [(i, i + 1) for i in range(n - 1)])


def modularity_oracle(net, labels):
    # direct double sum over ordered node pairs, Q = (1/2m) sum_ij
    # (A_ij - k_i k_j / 2m) 1{c_i = c_j}
    two_m = 2.0 * net.edge_count
    if two_m == 0:
        return 0.0
    deg = net.degrees
    q = 0.0
    for i in range(net.n):
        nbrs = set(net.adjacency[i])
        for j in range(net.n):
            if labels[i] != labels[j]:
                continue
            a_ij = 1.0 if j in nbrs else 0.0
            q += a_ij - deg[i] * deg[j] / two_m
    return q / two_m


def reference_build(n, edges):
    """Set-based dedupe, sorted adjacency tuples and BFS component labels:
    the construction the CSR build replaced, kept as an oracle."""
    seen = set()
    adj = [[] for _ in range(n)]
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    comp = [-1] * n
    sizes = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = len(sizes)
        size = 1
        queue = deque([start])
        while queue:
            for v in adjacency[queue.popleft()]:
                if comp[v] < 0:
                    comp[v] = comp[start]
                    size += 1
                    queue.append(v)
        sizes.append(size)
    return adjacency, comp, tuple(sizes)


@st.composite
def edge_multisets(draw):
    """(n, edges, as_array): random simple-graph edges with repeats in both
    orientations, isolates, and node ids shuffled by a random permutation."""
    n = draw(st.integers(0, 24))
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 3 * n))):
            u = draw(st.integers(0, n - 1))
            edges.append((u, (u + draw(st.integers(1, n - 1))) % n))
        repeats = draw(st.lists(st.tuples(st.integers(0, max(len(edges) - 1, 0)),
                                          st.booleans()), max_size=len(edges)))
        edges += [edges[k][::-1] if flip else edges[k] for k, flip in repeats]
        perm = draw(st.permutations(range(n)))
        edges = [(perm[u], perm[v]) for u, v in edges]
    return n, edges, draw(st.booleans())


def reference_fast_greedy(net):
    """Full ascending rescan of every connected community pair on each
    merge, with the 1e-15 float tie rule: the CNM the heap replaced, kept
    verbatim as an oracle."""
    if net.n == 0:
        raise EmptyNetworkError("cannot detect communities in an empty network")
    m_edges = net.edge_count
    if m_edges == 0:
        return ng.Partition(np.arange(net.n), net.n)

    deg = {i: float(d) for i, d in enumerate(net.degrees) if d > 0}
    between: dict = {i: {} for i in deg}
    for u, v in net.edge_list():
        u, v = int(u), int(v)
        between[u][v] = between[u].get(v, 0.0) + 1.0
        between[v][u] = between[v].get(u, 0.0) + 1.0
    members = {i: [i] for i in deg}

    two_m2 = 2.0 * m_edges * m_edges
    while True:
        best = None
        best_gain = 0.0
        # ascending scan: on exact ties the first (lowest) pair sticks
        for c in sorted(between):
            for d in sorted(between[c]):
                if d <= c:
                    continue
                gain = between[c][d] / m_edges - deg[c] * deg[d] / two_m2
                if gain > best_gain + 1e-15:
                    best = (c, d)
                    best_gain = gain
        if best is None or best_gain <= 0.0:
            break
        c, d = best
        members[c].extend(members.pop(d))
        deg[c] += deg.pop(d)
        nbrs_d = between.pop(d)
        for e, w in nbrs_d.items():
            if e == c:
                continue
            between[e].pop(d)
            between[c][e] = between[c].get(e, 0.0) + w
            between[e][c] = between[e].get(c, 0.0) + w
        between[c].pop(d, None)

    node_label = np.arange(net.n, dtype=np.int64)
    for root, mem in members.items():
        node_label[mem] = min(mem)
    # isolates keep their own singleton label
    return ng.Partition.from_labels(node_label.tolist())


@st.composite
def community_graphs(draw):
    """(n, edges): disjoint blocks from tie-heavy families (cycles, stars,
    complete bipartite graphs, regular components) and random multigraphs,
    plus isolates, repeated edges in both orientations and shuffled ids."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        family = draw(st.sampled_from(
            ("random", "cycle", "star", "bipartite", "regular")))
        if family == "random":
            size, block, _ = draw(edge_multisets())
        elif family == "cycle":
            size = draw(st.integers(3, 16))
            block = [(i, (i + 1) % size) for i in range(size)]
        elif family == "star":
            size = draw(st.integers(2, 16))
            block = [(0, i) for i in range(1, size)]
        elif family == "bipartite":
            a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
            size = a + b
            block = [(i, a + j) for i in range(a) for j in range(b)]
        else:
            degree = draw(st.integers(2, 4))
            net = ng.generate_regular_components(
                draw(st.integers(1, 3)), draw(st.floats(degree + 1.5, 10.0)),
                degree, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
            size, block = net.n, net.edge_list().tolist()
        edges += [(u + n, v + n) for u, v in block]
        n += size
    n += draw(st.integers(0, 3))
    if edges:
        repeats = draw(st.lists(st.tuples(st.integers(0, len(edges) - 1),
                                          st.booleans()), max_size=len(edges)))
        edges += [edges[k][::-1] if flip else edges[k] for k, flip in repeats]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        edges = [(perm[u], perm[v]) for u, v in edges]
    return n, edges


def trip_giant(n_nodes, edges_per_node, rng):
    """One component shaped like a TRIP giant: a random recursive tree plus
    uniform extra pairs, edges_per_node edges per node in all."""
    edges = {(int(rng.integers(0, j)), j) for j in range(1, n_nodes)}
    target = round(edges_per_node * n_nodes)
    while len(edges) < target:
        u, v = sorted(rng.choice(n_nodes, size=2, replace=False).tolist())
        edges.add((u, v))
    return ng.build_network(n_nodes, sorted(edges))


class TestBuildNetworkProperties:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(edge_multisets())
    def test_matches_reference_construction(self, case):
        n, edges, as_array = case
        net = ng.build_network(n, np.array(edges, dtype=np.int64) if as_array else edges)
        adjacency, comp, sizes = reference_build(n, edges)
        assert net.adjacency == adjacency
        assert net.component_id.tolist() == comp
        assert net.component_sizes == sizes
        assert net.degrees.tolist() == [len(a) for a in adjacency]
        assert net.edge_list().tolist() == sorted(
            [u, v] for u, nbrs in enumerate(adjacency) for v in nbrs if u < v)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(edge_multisets())
    def test_remove_isolates_matches_reference(self, case):
        n, edges, _ = case
        net = ng.build_network(n, edges)
        keep = [i for i in range(n) if net.adjacency[i]]
        if not keep:
            return
        relabel = {old: new for new, old in enumerate(keep)}
        sub, _ = ng.remove_isolates(net)
        adjacency, comp, sizes = reference_build(
            len(keep), [(relabel[u], relabel[v]) for u, v in edges])
        assert sub.adjacency == adjacency
        assert sub.component_id.tolist() == comp
        assert sub.component_sizes == sizes


class TestBuildNetwork:
    def test_error_names_first_bad_edge(self):
        with pytest.raises(InputError, match=r"edge \(0, 5\) out of range for 3 nodes"):
            ng.build_network(3, [(0, 1), (0, 5), (2, 2)])
        with pytest.raises(InputError, match="self loop at node 2"):
            ng.build_network(3, [(0, 1), (2, 2), (0, 5)])

    def test_path_structure(self):
        net = path_network(4)
        assert net.n == 4
        assert net.edge_count == 3
        assert net.adjacency == ((1,), (0, 2), (1, 3), (2,))
        assert net.m == 1
        np.testing.assert_array_equal(net.component_id, [0, 0, 0, 0])

    def test_duplicate_and_reversed_edges_collapse(self):
        net = ng.build_network(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert net.edge_count == 2
        assert net.adjacency[1] == (0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            ng.build_network(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            ng.build_network(3, [(0, 3)])
        with pytest.raises(InputError):
            ng.build_network(3, [(-1, 2)])

    def test_components_and_sizes(self):
        net = ng.build_network(6, [(0, 1), (2, 3), (3, 4)])
        assert net.m == 3
        assert net.component_sizes == (2, 3, 1)
        assert net.component_id[5] == 2
        assert net.degrees.tolist() == [1, 1, 1, 2, 1, 0]

    def test_edge_list_sorted_canonical(self):
        net = ng.build_network(4, [(3, 1), (2, 0)])
        np.testing.assert_array_equal(net.edge_list(), [[0, 2], [1, 3]])


class TestRemoveIsolates:
    def test_drops_and_relabels(self):
        net = ng.build_network(5, [(1, 3)])
        sub, _ = ng.remove_isolates(net)
        assert sub.n == 2
        assert sub.adjacency == ((1,), (0,))

    def test_subsets_aligned_data(self):
        net = ng.build_network(4, [(0, 2)])
        sub, keep = ng.remove_isolates(net)
        assert np.array([10, 11, 12, 13])[keep].tolist() == [10, 12]

    def test_no_isolates_is_identity(self):
        net = path_network(3)
        sub, _ = ng.remove_isolates(net)
        assert sub is net

    def test_all_isolated_raises(self):
        net = ng.build_network(3, [])
        with pytest.raises(EmptyNetworkError):
            ng.remove_isolates(net)


class TestPartition:
    def test_from_labels_relabels_by_first_appearance(self):
        part = ng.Partition.from_labels([1, 0, 1, 2, 0])
        assert part.group_count == 3
        assert part.sizes.tolist() == [2, 2, 1]
        groups = part.groups()
        assert sorted(groups[0].tolist()) == [0, 2]
        assert sorted(groups[1].tolist()) == [1, 4]
        assert groups[2].tolist() == [3]

    def test_from_labels_accepts_arbitrary_hashables(self):
        part = ng.Partition.from_labels(["b", "a", "b"])
        assert part.labels.tolist() == [0, 1, 0]

    def test_constructor_rejects_gaps(self):
        with pytest.raises(InputError):
            ng.Partition(np.array([0, 2, 2]), 3)
        with pytest.raises(InputError):
            ng.Partition(np.array([0, 1]), 1)


class TestModularity:
    def two_cliques_bridge(self):
        edges = []
        for base in (0, 5):
            group = range(base, base + 5)
            edges += [(i, j) for i in group for j in group if i < j]
        edges.append((4, 5))
        return ng.build_network(10, edges)

    def test_matches_pairwise_oracle_on_cliques(self):
        net = self.two_cliques_bridge()
        labels = np.array([0] * 5 + [1] * 5)
        part = ng.Partition.from_labels(labels)
        assert ng.modularity(net, part) == pytest.approx(
            modularity_oracle(net, labels), abs=1e-12)

    def test_matches_oracle_on_random_partitions(self):
        rng = np.random.default_rng(42)
        net = ng.generate_regular_components(3, 6.0, 2, rng)
        for _ in range(5):
            labels = rng.integers(0, 3, size=net.n)
            labels = ng.Partition.from_labels(labels)
            assert ng.modularity(net, labels) == pytest.approx(
                modularity_oracle(net, labels.labels), abs=1e-12)

    def test_edgeless_graph_zero(self):
        net = ng.build_network(4, [])
        assert ng.modularity(net, ng.Partition.from_labels([0, 1, 2, 3])) == 0.0

    def test_length_mismatch_rejected(self):
        net = path_network(3)
        with pytest.raises(InputError):
            ng.modularity(net, ng.Partition.from_labels([0, 1]))


class TestRegularComponents:
    def test_structure_invariants(self):
        rng = np.random.default_rng(7)
        net = ng.generate_regular_components(20, 8.0, 3, rng)
        assert net.m == 20
        # every node has exact degree 3 and component sizes allow it
        assert set(net.degrees.tolist()) == {3}
        for size in net.component_sizes:
            assert size >= 4
            assert (size * 3) % 2 == 0
        # no duplicate edges or self loops by construction
        for i, nbrs in enumerate(net.adjacency):
            assert len(nbrs) == len(set(nbrs))
            assert i not in nbrs

    def test_deterministic_given_seed(self):
        a = ng.generate_regular_components(5, 10.0, 4, np.random.default_rng(3))
        b = ng.generate_regular_components(5, 10.0, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(a.edge_list(), b.edge_list())

    def test_bad_parameters_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            ng.generate_regular_components(0, 10.0, 4, rng)
        with pytest.raises(InputError):
            ng.generate_regular_components(3, 10.0, 0, rng)
        with pytest.raises(InputError):
            ng.generate_regular_components(3, 3.0, 4, rng)

    def test_components_are_disjoint_and_connected(self):
        net = ng.generate_regular_components(6, 9.0, 4, np.random.default_rng(11))
        # BFS component ids computed at build time double as the check:
        # the generator places each regular graph on its own id block
        assert net.m == 6
        assert sum(net.component_sizes) == net.n


class TestTripShaped:
    def test_shape_and_connectivity(self):
        net = ng.generate_trip_shaped(np.random.default_rng(1))
        assert net.n == 275
        assert net.edge_count == 540
        assert net.m == 10
        assert sorted(net.component_sizes) == sorted(
            (2, 2, 2, 2, 2, 4, 5, 7, 10, 239))

    def test_edge_budget_split_is_deterministic(self):
        a = ng.generate_trip_shaped(np.random.default_rng(9))
        b = ng.generate_trip_shaped(np.random.default_rng(9))
        np.testing.assert_array_equal(a.edge_list(), b.edge_list())

    def test_infeasible_budget_rejected(self):
        with pytest.raises(InputError):
            ng.generate_trip_shaped(np.random.default_rng(0), sizes=(3, 3), n_edges=100)


class TestFastGreedy:
    def test_recovers_planted_cliques(self):
        net = TestModularity().two_cliques_bridge()
        part = ng.fast_greedy_communities(net)
        assert part.group_count == 2
        assert len(set(part.labels[:5].tolist())) == 1
        assert len(set(part.labels[5:].tolist())) == 1

    def test_communities_refine_components(self):
        net = ng.generate_regular_components(8, 12.0, 3, np.random.default_rng(5))
        part = ng.fast_greedy_communities(net)
        # two nodes in one community must share a component
        for group in part.groups():
            assert len(set(net.component_id[group].tolist())) == 1

    def test_achieves_at_least_component_modularity(self):
        net = ng.generate_regular_components(5, 10.0, 4, np.random.default_rng(2))
        comp_q = ng.modularity(net, net.components)
        comm_q = ng.modularity(net, ng.fast_greedy_communities(net))
        assert comm_q >= comp_q - 1e-12

    def test_isolates_get_singletons(self):
        net = ng.build_network(4, [(0, 1)])
        part = ng.fast_greedy_communities(net)
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] != part.labels[3]

    def test_deterministic(self):
        net = ng.generate_trip_shaped(np.random.default_rng(33))
        p1 = ng.fast_greedy_communities(net)
        p2 = ng.fast_greedy_communities(net)
        np.testing.assert_array_equal(p1.labels, p2.labels)


def assert_same_communities(net):
    new, old = ng.fast_greedy_communities(net), reference_fast_greedy(net)
    assert new.labels.tolist() == old.labels.tolist()
    assert net.n - new.group_count == net.n - old.group_count
    return new


class TestFastGreedyMatchesScan:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(community_graphs())
    def test_matches_reference_scan(self, case):
        n, edges = case
        if n == 0:
            return
        assert_same_communities(ng.build_network(n, edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_on_trip_shaped(self, seed):
        assert_same_communities(ng.generate_trip_shaped(np.random.default_rng(seed)))

    def test_matches_on_trip_structure_scenario_network(self):
        base = sim.preset_scenario("paper-trip")
        net = sim.generate_network(base.network, np.random.default_rng(
            np.random.SeedSequence(base.seed).spawn(1)[0]))
        assert_same_communities(net)

    def test_matches_on_trip_sized_giant(self):
        net = trip_giant(1600, 2.14, np.random.default_rng(1))
        assert net.m == 1
        assert_same_communities(net)

    def test_modularity_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for net in (ng.generate_trip_shaped(np.random.default_rng(3)),
                    trip_giant(400, 2.14, np.random.default_rng(2))):
            part = ng.fast_greedy_communities(net)
            graph = nx.Graph()
            graph.add_nodes_from(range(net.n))
            graph.add_edges_from(net.edge_list().tolist())
            q = nx.algorithms.community.modularity(
                graph, [set(g.tolist()) for g in part.groups()])
            assert ng.modularity(net, part) == pytest.approx(q, abs=1e-12)
