"""Correctness checks, computed apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
The reference computations here use numpy and the standard library only:
a non-adaptive Gauss-Hermite rule for exposure densities, math.comb
binomial weights for the truth, union-find for components, and plain
edge-list arithmetic for modularity and merge gains. bench/test_checks.py
shows that each check rejects a corrupted output.
"""
from __future__ import annotations

import math

import numpy as np

GH_POINTS = 120


def _log1pexp(x):
    return np.logaddexp(0.0, x)


def gh_log_density(lp, A, sigma, points=GH_POINTS):
    """log of the integral over b ~ N(0, sigma^2) of a Bernoulli product.

    `lp` and `A` hold one closed neighbourhood's linear predictors and
    exposures. Non-adaptive Gauss-Hermite with `points` abscissas.
    """
    lp = np.asarray(lp, dtype=float)
    A = np.asarray(A, dtype=float)
    if sigma == 0.0:
        return float(np.sum(A * lp - _log1pexp(lp)))
    x, w = np.polynomial.hermite.hermgauss(points)
    b = math.sqrt(2.0) * sigma * x
    eta = lp[:, None] + b[None, :]
    ll = np.sum(A[:, None] * eta - _log1pexp(eta), axis=0)
    terms = ll + np.log(w) - 0.5 * math.log(math.pi)
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()))


def check_density(nodes, program_logf, reference_logf, rtol):
    """Program exposure densities agree with the reference within rtol."""
    out = []
    for i, lp, lr in zip(nodes, program_logf, reference_logf):
        rel = abs(math.expm1(lp - lr))
        if not rel <= rtol:
            out.append(f"density at node {i}: program f={math.exp(lp):.8g}, "
                       f"reference {math.exp(lr):.8g} (relative error {rel:.2g})")
    return out


def truth_by_comb(flat, offsets, degrees, allocs):
    """True Y(a, alpha) from a count-indexed potential-outcome table.

    Node i's block is flat[offsets[i]: offsets[i] + 2(d_i + 1)], rows by own
    exposure, columns by the number of exposed neighbours.
    """
    flat = np.asarray(flat, dtype=float)
    out = {}
    for alpha in allocs:
        pmf = {}
        acc = {0: 0.0, 1: 0.0}
        for i, (off, d) in enumerate(zip(offsets, degrees)):
            d = int(d)
            if d not in pmf:
                pmf[d] = [math.comb(d, s) * alpha ** s * (1.0 - alpha) ** (d - s)
                          for s in range(d + 1)]
            for a in (0, 1):
                row = flat[int(off) + a * (d + 1): int(off) + (a + 1) * (d + 1)]
                acc[a] += math.fsum(p * y for p, y in zip(pmf[d], row))
        n = len(degrees)
        out[(0, alpha)] = acc[0] / n
        out[(1, alpha)] = acc[1] / n
        out[(None, alpha)] = alpha * acc[1] / n + (1.0 - alpha) * acc[0] / n
    return out


def check_truth(program, reference, atol=1e-12):
    out = []
    for key, ref in reference.items():
        got = program[key]
        if not abs(got - ref) <= atol:
            out.append(f"truth {key}: program {got!r}, reference {ref!r}")
    return out


def check_identity(estimates, allocs, atol=1e-9):
    """Y(alpha) = alpha Y(1,alpha) + (1 - alpha) Y(0,alpha) for each alpha.

    `estimates` maps (arm, alpha) keys, arm None for the marginal.
    """
    out = []
    for alpha in allocs:
        y0, y1, ym = estimates[(0, alpha)], estimates[(1, alpha)], estimates[(None, alpha)]
        want = alpha * y1 + (1.0 - alpha) * y0
        if not abs(ym - want) <= atol * max(1.0, abs(want)):
            out.append(f"Y({alpha:g})={ym!r} but alpha*Y(1)+(1-alpha)*Y(0)={want!r}")
    return out


def check_psi_sums(psi, names, rtol=1e-6):
    """Stacked estimating-function rows sum to about 0 at the fit.

    Each column's sum is compared with the root of its summed squares, the
    scale of one group's contribution times sqrt(groups).
    """
    psi = np.asarray(psi, dtype=float)
    out = []
    sums = psi.sum(axis=0)
    scale = np.sqrt((psi ** 2).sum(axis=0))
    for name, s, sc in zip(names, sums, scale):
        if not abs(s) <= rtol * max(sc, 1e-300):
            out.append(f"psi column {name}: rows sum to {s:.3g} (scale {sc:.3g})")
    return out


def check_psd(cov, names, rtol=1e-10):
    """A covariance block is symmetric positive semidefinite."""
    cov = np.asarray(cov, dtype=float)
    out = []
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-14 * max(1.0, np.abs(cov).max())):
        out.append("covariance block is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if eig.min() < -rtol * max(abs(eig).max(), 1e-300):
        out.append(f"covariance block of {', '.join(names)} has eigenvalue {eig.min():.3g}")
    return out


def check_bias(rows, replicates, k=4.0):
    """|bias| <= k * ESE / sqrt(R) for every report row.

    `rows` are (name, bias, ese) triples.
    """
    out = []
    for name, bias, ese in rows:
        limit = k * ese / math.sqrt(replicates)
        if not abs(bias) <= limit:
            out.append(f"{name}: |bias| {abs(bias):.3g} above {k:g} ESE/sqrt(R) = {limit:.3g}")
    return out


def check_recovery(names, estimates, ses, truths, k=4.0):
    """Each estimate lies within k standard errors of its generating value."""
    out = []
    for name, e, se, t in zip(names, estimates, ses, truths):
        if not abs(e - t) <= k * se:
            out.append(f"{name}: estimate {e:.6g} is {abs(e - t) / se:.2f} SEs "
                       f"from generating value {t:.6g}")
    return out


def check_identical(label, a: bytes, b: bytes):
    if a != b:
        return [f"{label}: outputs differ"]
    return []


# ---------------------------------------------------------------------------
# communities


def components(n, edges):
    """Component label per node by union-find over an (E, 2) edge array."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(i) for i in range(n)], dtype=np.int64)


def check_within_components(labels, comp):
    """Every community lies inside one connected component."""
    out = []
    seen = {}
    for lab, c in zip(np.asarray(labels).tolist(), np.asarray(comp).tolist()):
        if seen.setdefault(lab, c) != c:
            out.append(f"community {lab} spans components {seen[lab]} and {c}")
            seen[lab] = c
    return out


def modularity(edges, labels):
    labels = np.asarray(labels)
    edges = np.asarray(edges)
    m_edges = edges.shape[0]
    deg_sum = {}
    internal = {}
    for u, v in edges.tolist():
        for node in (u, v):
            deg_sum[labels[node]] = deg_sum.get(labels[node], 0) + 1
        if labels[u] == labels[v]:
            internal[labels[u]] = internal.get(labels[u], 0) + 1
    return math.fsum(internal.get(c, 0) / m_edges - (d / (2.0 * m_edges)) ** 2
                     for c, d in deg_sum.items())


def positive_gain_pairs(edges, labels, tol=1e-12):
    """Adjacent community pairs whose merge would raise modularity.

    dQ(c, d) = e_cd / M - deg_c deg_d / (2 M^2), with e_cd the edges between.
    """
    labels = np.asarray(labels)
    edges = np.asarray(edges)
    m_edges = edges.shape[0]
    deg = {}
    between = {}
    for u, v in edges.tolist():
        cu, cv = labels[u], labels[v]
        deg[cu] = deg.get(cu, 0) + 1
        deg[cv] = deg.get(cv, 0) + 1
        if cu != cv:
            key = (min(cu, cv), max(cu, cv))
            between[key] = between.get(key, 0) + 1
    out = []
    for (c, d), e in sorted(between.items()):
        gain = e / m_edges - deg[c] * deg[d] / (2.0 * m_edges * m_edges)
        if gain > tol:
            out.append((c, d, gain))
    return out


def check_communities(edges, labels, printed_q, q_atol=2e-6):
    """Partition properties of a fast-greedy result on an edge list."""
    n = len(labels)
    out = check_within_components(labels, components(n, edges))
    for c, d, gain in positive_gain_pairs(edges, labels):
        out.append(f"adjacent communities {c} and {d} have merge gain {gain:.3g}")
    q = modularity(edges, labels)
    if not abs(q - printed_q) <= q_atol:
        out.append(f"printed modularity {printed_q!r}, recomputed {q!r}")
    return out
