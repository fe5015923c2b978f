"""Undirected network container, generators, and community detection.

Nodes are dense integer indices 0..n-1. Graphs are simple (no self loops,
no parallel edges) and stored as CSR arrays (`indptr`, `indices`) with each
node's neighbours ascending, so every routine that consumes a Network is
order-deterministic.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import EmptyNetworkError, GenerationError, InputError


@dataclass(frozen=True, eq=False)
class Partition:
    """Grouping of nodes into contiguous labels 0..group_count-1.

    Every group must be nonempty; `from_labels` relabels arbitrary hashable
    labels by order of first appearance.
    """

    labels: np.ndarray
    group_count: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise InputError("partition labels must be a 1-d array")
        if self.group_count < 0:
            raise InputError("group_count must be nonnegative")
        if labels.size == 0:
            if self.group_count != 0:
                raise InputError("empty partition must have group_count 0")
            return
        if labels.min() < 0 or labels.max() >= self.group_count:
            raise InputError("partition labels out of range")
        if np.unique(labels).size != self.group_count:
            raise InputError("partition has empty groups")

    @classmethod
    def from_labels(cls, raw) -> "Partition":
        raw = list(raw)
        mapping: dict = {}
        labels = np.empty(len(raw), dtype=np.int64)
        for i, lab in enumerate(raw):
            if lab not in mapping:
                mapping[lab] = len(mapping)
            labels[i] = mapping[lab]
        return cls(labels, len(mapping))

    @property
    def n(self) -> int:
        return self.labels.size

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.group_count)

    def groups(self) -> list:
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(self.group_count + 1))
        return [order[bounds[g]:bounds[g + 1]] for g in range(self.group_count)]


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable simple undirected graph in CSR form with its components.

    Node i's neighbours are indices[indptr[i]:indptr[i + 1]], ascending;
    component_id labels components 0..m-1 in order of their smallest node.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    component_id: np.ndarray

    @cached_property
    def component_sizes(self) -> tuple:
        return tuple(np.bincount(self.component_id).tolist())

    @property
    def m(self) -> int:
        """Number of connected components."""
        return len(self.component_sizes)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def components(self) -> Partition:
        return Partition(self.component_id, self.m)

    @cached_property
    def owner_flat(self) -> np.ndarray:
        """Owning node of each directed adjacency entry in `indices`."""
        return np.repeat(np.arange(self.n), self.degrees)

    @property
    def nbr_flat(self) -> np.ndarray:
        return self.indices

    @cached_property
    def adjacency(self) -> tuple:
        """Sorted neighbour tuples, one per node (a read-only view)."""
        nbrs, ptr = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(nbrs[ptr[i]:ptr[i + 1]]) for i in range(self.n))

    @cached_property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def edge_list(self) -> np.ndarray:
        """Edges as an (E, 2) array with u < v, sorted lexicographically."""
        owner, nbr = self.owner_flat, self.indices
        keep = owner < nbr
        return np.column_stack([owner[keep], nbr[keep]])


def build_network(n_nodes: int, edges) -> Network:
    """Build a Network from an edge list.

    Duplicate edges (either orientation) collapse to one. The first self
    loop or out-of-range endpoint, in input order, raises InputError.
    """
    if n_nodes < 0:
        raise InputError("n_nodes must be nonnegative")
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    u, v = e[:, 0], e[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= n_nodes)
    if bad.any():
        k = int(np.argmax(bad))
        a, b = int(u[k]), int(v[k])
        if a == b:
            raise InputError(f"self loop at node {a}")
        raise InputError(f"edge ({a}, {b}) out of range for {n_nodes} nodes")
    keys = np.unique(lo * n_nodes + hi)
    lo, hi = np.divmod(keys, n_nodes)
    # both directions, ordered by (owner, neighbour)
    owner, indices = np.divmod(np.sort(np.concatenate([keys, hi * n_nodes + lo])), n_nodes)
    indptr = np.searchsorted(owner, np.arange(n_nodes + 1))
    graph = csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr),
                       shape=(n_nodes, n_nodes))
    _, labels = connected_components(graph, directed=False)
    return Network(n_nodes, indptr, indices, labels.astype(np.int64))


def remove_isolates(net: Network):
    """Drop degree-zero nodes and relabel; returns (network, kept indices).

    The kept old indices, ascending, subset any node-aligned data.
    """
    keep = np.flatnonzero(net.degrees > 0)
    if keep.size == 0:
        raise EmptyNetworkError("network has no non-isolated nodes")
    if keep.size == net.n:
        return net, keep
    relabel = np.full(net.n, -1, dtype=np.int64)
    relabel[keep] = np.arange(keep.size)
    return build_network(keep.size, relabel[net.edge_list()]), keep


# ---------------------------------------------------------------------------
# generators

_PAIRING_ATTEMPTS = 10_000


def _regular_edges(nodes, degree, rng) -> list:
    """Pairing-model draw of a simple degree-regular graph on `nodes`.

    Whole-graph rejection: reshuffle all stubs on any self loop or repeat
    edge. Bounded retries keep pathological parameter choices from hanging.
    """
    stubs = np.repeat(nodes, degree)
    for _ in range(_PAIRING_ATTEMPTS):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * (np.max(nodes) + 1) + hi
        if np.unique(keys).size != keys.size:
            continue
        return list(zip(lo.tolist(), hi.tolist()))
    raise GenerationError(
        f"no simple {degree}-regular graph found on {len(nodes)} nodes "
        f"after {_PAIRING_ATTEMPTS} pairing attempts"
    )


def generate_regular_components(m: int, mean_size: float, degree: int, rng) -> Network:
    """m disjoint degree-regular components with Poisson(mean_size) sizes.

    Sizes are redrawn until size >= degree+1 and size*degree is even, so a
    simple regular graph exists on each component.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    if degree < 1:
        raise InputError("degree must be at least 1")
    if mean_size <= degree:
        raise InputError("mean_size must exceed degree")
    sizes = []
    for _ in range(m):
        while True:
            s = int(rng.poisson(mean_size))
            if s >= degree + 1 and (s * degree) % 2 == 0:
                sizes.append(s)
                break
    edges = []
    offset = 0
    for s in sizes:
        nodes = np.arange(offset, offset + s)
        edges.extend(_regular_edges(nodes, degree, rng))
        offset += s
    return build_network(offset, edges)


_TRIP_SIZES = (2, 2, 2, 2, 2, 4, 5, 7, 10, 239)


def generate_trip_shaped(rng, sizes=_TRIP_SIZES, n_edges: int = 540) -> Network:
    """Sparse multi-component network shaped like a small risk-network study.

    Each component gets a uniform random spanning tree (connectivity is
    guaranteed), then the remaining edge budget is spread across components
    in proportion to their unused pair capacity.
    """
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 for s in sizes):
        raise InputError("component sizes must be positive")
    tree_edges = sum(s - 1 for s in sizes)
    capacity = [s * (s - 1) // 2 - (s - 1) for s in sizes]
    extra_total = n_edges - tree_edges
    if extra_total < 0 or extra_total > sum(capacity):
        raise InputError(
            f"edge budget {n_edges} infeasible for component sizes "
            f"(tree needs {tree_edges}, max {tree_edges + sum(capacity)})"
        )

    # proportional split of the extra budget, capped by capacity,
    # largest-remainder rounding, leftovers to whoever still has room
    total_cap = sum(capacity)
    raw = [extra_total * c / total_cap if total_cap else 0.0 for c in capacity]
    extra = [min(int(np.floor(r)), c) for r, c in zip(raw, capacity)]
    remainders = sorted(
        range(len(sizes)), key=lambda k: (raw[k] - np.floor(raw[k]), k), reverse=True
    )
    short = extra_total - sum(extra)
    idx = 0
    while short > 0:
        k = remainders[idx % len(sizes)]
        if extra[k] < capacity[k]:
            extra[k] += 1
            short -= 1
        idx += 1

    edges = []
    offset = 0
    for s, xtra in zip(sizes, extra):
        nodes = np.arange(offset, offset + s)
        present = set()
        for j in range(1, s):
            parent = int(rng.integers(0, j))
            e = (int(nodes[parent]), int(nodes[j]))
            present.add(e)
            edges.append(e)
        added = 0
        while added < xtra:
            u, v = rng.integers(0, s, size=2)
            if u == v:
                continue
            e = (int(nodes[min(u, v)]), int(nodes[max(u, v)]))
            if e in present:
                continue
            present.add(e)
            edges.append(e)
            added += 1
        offset += s
    return build_network(offset, edges)


# ---------------------------------------------------------------------------
# community detection

def modularity(net: Network, partition: Partition) -> float:
    """Newman modularity Q of a node partition. Zero-edge graphs give 0."""
    if partition.n != net.n:
        raise InputError("partition length does not match network size")
    m_edges = net.edge_count
    if m_edges == 0:
        return 0.0
    labels = partition.labels
    el = net.edge_list()
    same = labels[el[:, 0]] == labels[el[:, 1]]
    internal = np.bincount(labels[el[:, 0]][same], minlength=partition.group_count).astype(float)
    deg_sum = np.bincount(labels, weights=net.degrees, minlength=partition.group_count)
    return float(np.sum(internal / m_edges - (deg_sum / (2.0 * m_edges)) ** 2))


def fast_greedy_communities(net: Network) -> Partition:
    """Greedy agglomerative modularity maximization (CNM), heap form.

    Starts from singletons and repeatedly merges the connected community
    pair (c, d), c < d, with the largest positive modularity gain
        dQ = between/m_edges - deg_c*deg_d/(2*m_edges^2) = k / (2*m_edges^2),
        k = 2*m_edges*between - deg_c*deg_d  (an exact integer),
    breaking ties on the lowest (c, d); it stops once no key k is positive.
    A community's label is its smallest member node, so the procedure is
    deterministic; merges only happen across edges, so communities refine
    components. One heap holds (-k, c, d, version_c, version_d) entries
    (Clauset, Newman & Moore 2004, Phys. Rev. E 70:066111): a merge bumps
    both versions, which retires their stale entries lazily, and pushes
    fresh keys for every pair of the merged community.

    The merges equal those of the floating-point rule "scan all pairs in
    ascending order and keep a later pair only if its gain beats the best by
    more than 1e-15". Distinct gains differ by at least 1/(2*m_edges^2),
    which for any edge count below about 1e7 exceeds 1e-15 plus the rounding
    of gains of size at most 1, so that rule also picks the lowest pair with
    the largest key and stops when that key is not positive.
    """
    if net.n == 0:
        raise EmptyNetworkError("cannot detect communities in an empty network")
    m_edges = net.edge_count
    if m_edges == 0:
        return Partition(np.arange(net.n), net.n)

    two_m = 2 * m_edges
    deg = net.degrees.tolist()
    between = [{} for _ in range(net.n)]
    edges = net.edge_list().tolist()
    for u, v in edges:
        between[u][v] = between[v][u] = 1
    # a key that is not positive only changes when one side merges, which
    # pushes it again, so such keys never enter the heap
    heap = [(nk, u, v, 0, 0) for u, v in edges if (nk := deg[u] * deg[v] - two_m) < 0]
    heapq.heapify(heap)
    version = [0] * net.n
    merges = []
    while heap:
        _, c, d, vc, vd = heapq.heappop(heap)
        if version[c] != vc or version[d] != vd:
            continue
        version[c] += 1
        version[d] += 1
        merges.append((c, d))
        deg[c] += deg[d]
        bc, bd = between[c], between[d]
        between[d] = None
        del bc[d]
        for e, w in bd.items():
            if e != c:
                be = between[e]
                del be[d]
                be[c] = bc[e] = bc.get(e, 0) + w
        dc, vc = deg[c], version[c]
        for e, w in bc.items():
            nk = deg[e] * dc - two_m * w
            if nk < 0:
                heapq.heappush(heap, (nk, c, e, vc, version[e]) if c < e
                               else (nk, e, c, version[e], vc))

    # reverse merge order: a survivor's final label is set before its members'
    node_label = list(range(net.n))
    for c, d in reversed(merges):
        node_label[d] = node_label[c]
    # isolates keep their own singleton label
    return Partition.from_labels(node_label)
