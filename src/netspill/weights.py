"""Allocation-strategy weights and inverse-probability denominators.

An allocation alpha assigns each node an independent Bernoulli(alpha)
exposure under the counterfactual policy. The numerator weights are plain
Bernoulli products; the denominator combines the neighborhood exposure
density (integrating a fresh shared random intercept over each node's
closed neighborhood) with the censoring survival probability.
"""
from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import glm
from .errors import InputError

POSITIVITY_FLOOR = 1e-300
LOG_POSITIVITY_FLOOR = np.log(POSITIVITY_FLOOR)
DEFAULT_WEIGHT_THRESHOLD = 50.0


@dataclass(frozen=True)
class Allocation:
    """Counterfactual exposure probability, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"allocation must lie strictly in (0, 1), got {self.alpha}")


def as_allocation(a) -> Allocation:
    return a if isinstance(a, Allocation) else Allocation(a)


def pi_neighbors(treated_count: int, degree: int, alloc) -> float:
    """P(exact neighbor exposure pattern with `treated_count` ones).

    No binomial coefficient: this weights one specific pattern. Degree-zero
    nodes return 1 (empty product).
    """
    alpha = as_allocation(alloc).alpha
    if degree < 0 or not 0 <= treated_count <= degree:
        raise InputError("need 0 <= treated_count <= degree")
    return float(alpha ** treated_count * (1.0 - alpha) ** (degree - treated_count))


def pi_own(a: int, alloc) -> float:
    alpha = as_allocation(alloc).alpha
    if a not in (0, 1):
        raise InputError("exposure must be 0 or 1")
    return alpha if a == 1 else 1.0 - alpha


def log_pi_neighbors(treated_counts, degrees, alloc) -> np.ndarray:
    alpha = as_allocation(alloc).alpha
    s = np.asarray(treated_counts, dtype=float)
    d = np.asarray(degrees, dtype=float)
    return s * np.log(alpha) + (d - s) * np.log1p(-alpha)


# ---------------------------------------------------------------------------
# neighborhood exposure density

_layout_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def neighborhood_layout(net):
    """Entry layout over closed neighborhoods: one group per node.

    Returns (GroupLayout grouped by owning node, member node of each entry
    in layout order). Cached per network; the layout is reused across
    parameter perturbations and replicates on a fixed network.
    """
    hit = _layout_cache.get(net)
    if hit is not None:
        return hit
    owner = np.repeat(np.arange(net.n), net.degrees + 1)
    # each node first, then its neighbours
    member = np.insert(net.indices, net.indptr[:-1], np.arange(net.n))
    layout = glm.GroupLayout(owner, net.n)
    pair = (layout, member[layout.order])
    _layout_cache[net] = pair
    return pair


def _neighborhood_terms(net, A, design, beta):
    """(layout, member, linear predictor, exposure) of every closed-
    neighborhood entry, in layout order."""
    if design.n != net.n:
        raise InputError("propensity design must have one row per node")
    layout, member = neighborhood_layout(net)
    return layout, member, (design.values @ beta)[member], np.asarray(A)[member].astype(float)


def log_propensity_density_all(net, A, design, fit, quad_nodes=None, *,
                               coefficients=None, re_sd=None) -> np.ndarray:
    """log density of each node's observed closed-neighborhood exposures.

    Mixed fits integrate a fresh shared N(0, re_sd^2) intercept across the
    closed neighborhood with the same adaptive quadrature used at fit time;
    re_sd=0 reduces to an independent Bernoulli product. `coefficients` and
    `re_sd` override the fitted values.
    """
    beta = np.asarray(fit.coefficients if coefficients is None else coefficients, dtype=float)
    sigma = float(fit.re_sd if re_sd is None else re_sd)
    if quad_nodes is None:
        quad_nodes = getattr(fit, "quad_nodes", glm.DEFAULT_QUAD_NODES)
    design = glm._as_design(design)
    layout, _, lp0, y = _neighborhood_terms(net, A, design, beta)
    if sigma == 0.0:
        terms = y * lp0 - np.logaddexp(0.0, lp0)
        return layout.group_sum(terms)
    return glm.grouped_posterior_bundle(layout, lp0, y, sigma, quad_nodes).ell


def log_propensity_density_gradient(net, A, design, fit, quad_nodes=None) -> np.ndarray:
    """d log f_i / d(coefficients..., log re_sd) at the fit, one row per node.

    By the Fisher identity on each closed neighborhood's posterior:
    d/d beta = sum_{j in N_i} x_j E[A_j - p_j(b)] and
    d/d log sd = E[b^2]/sd^2 - 1. Fixed-effects fits have no log-sd column.
    """
    beta = np.asarray(fit.coefficients, dtype=float)
    sigma = float(fit.re_sd)
    if quad_nodes is None:
        quad_nodes = getattr(fit, "quad_nodes", glm.DEFAULT_QUAD_NODES)
    design = glm._as_design(design)
    layout, member, lp0, y = _neighborhood_terms(net, A, design, beta)
    X = design.values[member]
    if sigma == 0.0:
        return layout.group_sum(X * (y - expit(lp0))[:, None])
    post = glm.grouped_posterior_bundle(layout, lp0, y, sigma, quad_nodes)
    d_beta = layout.group_sum(X * post.resid_bar()[:, None])
    return np.column_stack([d_beta, post.b2_bar() / (sigma * sigma) - 1.0])


# ---------------------------------------------------------------------------
# censoring survival

def censoring_survival_all(design, fit) -> np.ndarray:
    """P(uncensored) per node: 1 - expit(linear predictor [+ posterior mode]).

    Mixed censoring fits add each node's group posterior mode to the linear
    predictor; fixed-effects fits use the linear predictor alone.
    """
    design = glm._as_design(design)
    lp = design.values @ np.asarray(fit.coefficients, dtype=float)
    if getattr(fit, "re_sd", 0.0) > 0.0:
        # group_modes is indexed by group label (labels are contiguous)
        lp = lp + np.asarray(fit.group_modes, dtype=float)[fit.groups.labels]
    return expit(-lp)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass
class WeightReport:
    f: np.ndarray
    s: np.ndarray
    w: np.ndarray          # 1/(f*s) for uncensored nodes, NaN when censored
    flagged: np.ndarray
    threshold: float

    @property
    def n_flagged(self) -> int:
        return int(self.flagged.sum())

    def rows(self):
        out = []
        for i in range(self.f.size):
            w = "" if np.isnan(self.w[i]) else self.w[i]
            out.append((i, self.f[i], self.s[i], w, int(self.flagged[i])))
        return out


def weight_diagnostics(net, data, pfit, cfit, prop_design, cens_design,
                       threshold: float = DEFAULT_WEIGHT_THRESHOLD,
                       quad_nodes=None) -> WeightReport:
    """Per-node inverse-probability weight report.

    The reported weight is the denominator multiplier 1/(f_i * s_i); any
    uncensored node with f*s < 1/threshold is flagged. Flags warn but never
    truncate: large weights flow into estimates unchanged.
    """
    if threshold <= 0:
        raise InputError("weight threshold must be positive")
    logf = log_propensity_density_all(net, data.A, prop_design, pfit, quad_nodes)
    s = censoring_survival_all(cens_design, cfit)
    f = np.exp(logf)
    w = np.where(data.C == 0, 1.0 / (f * s), np.nan)
    flagged = (data.C == 0) & (f * s < 1.0 / threshold)
    if flagged.any():
        warnings.warn(
            f"{int(flagged.sum())} node(s) carry combined weight above {threshold:g}")
    return WeightReport(f=f, s=s, w=w, flagged=flagged, threshold=float(threshold))
