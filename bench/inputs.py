"""Benchmark-owned input generators.

Two workloads read files: `estimate-large` (an observed study written to
node and edge CSVs from a model the benchmark knows) and `communities`
(a TRIP-shaped edge list with one giant component). Neither generator
calls netspill, so the program only ever sees the generated files.

Component sizes are fixed (they do not depend on the seed), so every seed
gives the same node and component counts; the seed draws the wiring, the
covariates, the random intercepts, the exposures, censoring and outcomes.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")

# --- estimate-large model -------------------------------------------------

LARGE_COMPONENTS = 4_500
LARGE_MAX_SIZE = 400
LARGE_SIZE_EXPONENT = 2.15       # P(size = s) proportional to s^-2.15 on [2, 400]
LARGE_EXTRA_EDGES_PER_NODE = 0.9  # on top of a random spanning tree
EXPOSURE_COEFS = (-0.3, 0.6, -0.5)           # intercept, Z_1, Z_2
EXPOSURE_RE_SD = 0.5
CENSORING_COEFS = (-2.0, 0.5, 0.4, -0.5)     # intercept, Z_1, Z_2, A
CENSORING_RE_SD = 0.4
OUTCOME_COEFS = (-1.0, 0.5, 1.0, -0.5, 0.4, 0.3)  # 1, A, frac, A*frac, Z_1, Z_2
ALLOCS = (0.25, 0.5, 0.75)

# --- communities shape ----------------------------------------------------

TRIP_SMALL_SIZES = (2, 2, 2, 2, 2, 4, 5, 7, 10)
COMMUNITY_SMALL_COPIES = 10
COMMUNITY_GIANT_SIZE = 1600
COMMUNITY_GIANT_EDGES_PER_NODE = 2.14   # the paper-trip giant: 512 edges on 239 nodes


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def large_component_sizes() -> np.ndarray:
    """Deterministic heavy-tailed sizes: quantiles of a truncated power law."""
    s = np.arange(2, LARGE_MAX_SIZE + 1)
    pmf = s ** -LARGE_SIZE_EXPONENT
    cdf = np.cumsum(pmf / pmf.sum())
    q = (np.arange(LARGE_COMPONENTS) + 0.5) / LARGE_COMPONENTS
    return s[np.minimum(np.searchsorted(cdf, q), s.size - 1)]


def _component_edges(sizes, extra_per_node, rng):
    """Random recursive spanning tree plus uniform extra pairs per component.

    Returns a deduplicated (E, 2) array with u < v, in random order.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    # tree: local node j >= 1 attaches to a uniform earlier node
    comp_of_child = np.repeat(np.arange(sizes.size), sizes - 1)
    first_child = np.concatenate([[0], np.cumsum(sizes - 1)[:-1]])
    local = np.arange(comp_of_child.size) - first_child[comp_of_child] + 1
    parent = np.floor(rng.random(local.size) * local).astype(np.int64)
    base = offsets[comp_of_child]
    tree = np.column_stack([base + parent, base + local])
    # extras: uniform pairs inside each component (self loops dropped)
    n_extra = np.floor(sizes * extra_per_node + rng.random(sizes.size)).astype(np.int64)
    n_extra[sizes < 4] = 0
    comp_of_extra = np.repeat(np.arange(sizes.size), n_extra)
    s_e = sizes[comp_of_extra]
    u = np.floor(rng.random(s_e.size) * s_e).astype(np.int64)
    v = np.floor(rng.random(s_e.size) * s_e).astype(np.int64)
    keep = u != v
    extra = np.column_stack([u[keep], v[keep]]) + offsets[comp_of_extra][keep, None]
    edges = np.vstack([tree, extra])
    edges = np.column_stack([edges.min(axis=1), edges.max(axis=1)])
    edges = np.unique(edges, axis=0)
    return edges[rng.permutation(edges.shape[0])]


def binomial_pmf(d: int, alpha: float) -> np.ndarray:
    """Binomial(d, alpha) pmf with math.comb coefficients."""
    return np.array([math.comb(d, s) * alpha ** s * (1.0 - alpha) ** (d - s)
                     for s in range(d + 1)])


def closed_form_truth(degrees, Z1, Z2, allocs=ALLOCS, coefs=OUTCOME_COEFS) -> dict:
    """Y(a, alpha) of the generating outcome model, exactly.

    Y(a, alpha) = mean_i sum_s Binom(s; d_i, alpha) * expit(eta_i(a, s/d_i)).
    Keys are "Y(a,alpha)" and "Y(alpha)" as netspill names its estimands.
    """
    b0, b_a, b_f, b_af, b_z1, b_z2 = coefs
    out = {}
    for alpha in allocs:
        means = {}
        for a in (0, 1):
            acc = np.empty(degrees.size)
            for d in np.unique(degrees):
                idx = np.flatnonzero(degrees == d)
                frac = np.arange(d + 1) / d
                eta = (b0 + b_a * a + b_z1 * Z1[idx, None] + b_z2 * Z2[idx, None]
                       + (b_f + b_af * a) * frac[None, :])
                acc[idx] = expit(eta) @ binomial_pmf(int(d), alpha)
            means[a] = float(acc.mean())
            out[f"Y({a},{alpha:g})"] = means[a]
        out[f"Y({alpha:g})"] = alpha * means[1] + (1.0 - alpha) * means[0]
    return out


def _write_lines(path, header, lines):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")
    os.replace(tmp, path)


def _write_json(path, obj):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def make_estimate_large(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    sizes = large_component_sizes()
    n, m = int(sizes.sum()), sizes.size
    edges = _component_edges(sizes, LARGE_EXTRA_EDGES_PER_NODE, rng)
    comp = np.repeat(np.arange(m), sizes)
    degrees = np.bincount(edges.ravel(), minlength=n)

    Z1 = (rng.random(n) < 0.5).astype(float)
    Z2 = rng.standard_normal(n)
    b = rng.standard_normal(m) * EXPOSURE_RE_SD
    rho = rng.standard_normal(m) * CENSORING_RE_SD
    g0, g1, g2 = EXPOSURE_COEFS
    A = (rng.random(n) < expit(g0 + g1 * Z1 + g2 * Z2 + b[comp])).astype(np.int64)
    c0, c1, c2, c3 = CENSORING_COEFS
    C = (rng.random(n) < expit(c0 + c1 * Z1 + c2 * Z2 + c3 * A + rho[comp])).astype(np.int64)
    treated = np.bincount(edges[:, 0], A[edges[:, 1]], minlength=n) + \
        np.bincount(edges[:, 1], A[edges[:, 0]], minlength=n)
    frac = treated / degrees
    b0, b_a, b_f, b_af, b_z1, b_z2 = OUTCOME_COEFS
    Y = (rng.random(n) < expit(b0 + b_a * A + b_f * frac + b_af * A * frac
                               + b_z1 * Z1 + b_z2 * Z2)).astype(np.int64)

    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "edges.csv"), "src,dst",
                 [f"v{u},v{v}" for u, v in edges.tolist()])
    z2_txt = [repr(float(z)) for z in Z2]
    _write_lines(os.path.join(out_dir, "nodes.csv"), "id,A,C,Y,Z_1,Z_2",
                 [f"v{i},{A[i]},{C[i]},{'' if C[i] else Y[i]},{int(Z1[i])},{z2_txt[i]}"
                  for i in range(n)])
    meta = {
        "seed": seed, "n_nodes": n, "n_components": m, "n_edges": int(edges.shape[0]),
        "max_component": int(sizes.max()), "max_degree": int(degrees.max()),
        "exposure_coefs": list(EXPOSURE_COEFS), "exposure_re_sd": EXPOSURE_RE_SD,
        "censoring_coefs": list(CENSORING_COEFS), "censoring_re_sd": CENSORING_RE_SD,
        "outcome_coefs": list(OUTCOME_COEFS), "allocs": list(ALLOCS),
        "censored_share": float(C.mean()), "exposed_share": float(A.mean()),
        "truth": closed_form_truth(degrees, Z1, Z2),
    }
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    return meta


def community_component_sizes() -> np.ndarray:
    return np.array(TRIP_SMALL_SIZES * COMMUNITY_SMALL_COPIES + (COMMUNITY_GIANT_SIZE,))


def make_communities(seed: int, out_dir: str) -> dict:
    """TRIP-shaped edge list: ten copies of the small components, one giant.

    Small components are spanning trees plus a few extra pairs; the giant
    gets the paper-trip giant's edge density.
    """
    rng = np.random.default_rng([seed, 2])
    sizes = community_component_sizes()
    small = _component_edges(sizes[:-1], 0.2, rng)
    giant_off = int(sizes[:-1].sum())
    giant = _component_edges([COMMUNITY_GIANT_SIZE], COMMUNITY_GIANT_EDGES_PER_NODE - 1.0,
                             rng) + giant_off
    edges = np.vstack([small, giant])
    edges = edges[rng.permutation(edges.shape[0])]
    # string ids in a shuffled order so node order follows first appearance
    names = rng.permutation(int(sizes.sum()))
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "edges.csv"), "src,dst",
                 [f"p{names[u]},p{names[v]}" for u, v in edges.tolist()])
    meta = {"seed": seed, "n_nodes": int(sizes.sum()), "n_edges": int(edges.shape[0]),
            "component_sizes": sizes.tolist()}
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    return meta


MAKERS = {"estimate-large": make_estimate_large, "communities": make_communities}


def input_dir(workload: str, seed: int) -> str:
    return os.path.join(CACHE_DIR, f"{workload}-seed{seed}")


def ensure_inputs(workload: str, seed: int) -> str:
    """Generate the workload's input files unless already cached."""
    out = input_dir(workload, seed)
    if not os.path.exists(os.path.join(out, "meta.json")):
        MAKERS[workload](seed, out)
    return out
