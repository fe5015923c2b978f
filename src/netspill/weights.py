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


def _neighborhood_density(net, A, design, fit, quad_nodes, beta, sigma):
    """Preamble shared by the density functions.

    Returns (log f per node, linear predictor and exposure of every
    closed-neighborhood entry in layout order, posterior); the posterior is
    None when sigma is 0.
    """
    design = glm._as_design(design)
    if design.n != net.n:
        raise InputError("propensity design must have one row per node")
    if quad_nodes is None:
        quad_nodes = getattr(fit, "quad_nodes", glm.DEFAULT_QUAD_NODES)
    layout, member = neighborhood_layout(net)
    lp0 = (design.values @ beta)[member]
    y = np.asarray(A)[member].astype(float)
    if sigma == 0.0:
        logf = layout.group_sum(y * lp0 - np.logaddexp(0.0, lp0))
        return logf, lp0, y, None
    post = glm.grouped_posterior_bundle(layout, lp0, y, sigma, quad_nodes)
    return post.ell, lp0, y, post


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
    return _neighborhood_density(net, A, design, fit, quad_nodes, beta, sigma)[0]


def log_propensity_density_and_gradient(net, A, design, fit, quad_nodes=None):
    """(log f_i, d log f_i / d(coefficients..., log re_sd)) at the fit, from
    one quadrature posterior per closed neighborhood.

    The gradient is the Fisher identity on each neighborhood's posterior:
    d/d beta = sum_{j in N_i} x_j E[A_j - p_j(b)] and
    d/d log sd = E[b^2]/sd^2 - 1. Fixed-effects fits have no log-sd column.
    """
    beta = np.asarray(fit.coefficients, dtype=float)
    sigma = float(fit.re_sd)
    logf, lp0, y, post = _neighborhood_density(net, A, design, fit, quad_nodes, beta, sigma)
    layout, member = neighborhood_layout(net)
    X = glm._as_design(design).values[member]
    if post is None:
        return logf, layout.group_sum(X * (y - expit(lp0))[:, None])
    d_beta = layout.group_sum(X * post.resid_bar()[:, None])
    return logf, np.column_stack([d_beta, post.b2_bar() / (sigma * sigma) - 1.0])


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


def weight_diagnostics(data, logf, s,
                       threshold: float = DEFAULT_WEIGHT_THRESHOLD) -> WeightReport:
    """Per-node inverse-probability weight report from log f and s.

    `logf` is each node's log neighborhood-exposure density (the variance
    context's `logf`) and `s` its censoring survival probability
    (censoring_survival_all).
    The reported weight is the denominator multiplier 1/(f_i * s_i); any
    uncensored node with f*s < 1/threshold is flagged. Flags warn but never
    truncate: large weights flow into estimates unchanged.
    """
    if threshold <= 0:
        raise InputError("weight threshold must be positive")
    f = np.exp(logf)
    w = np.where(data.C == 0, 1.0 / (f * s), np.nan)
    flagged = (data.C == 0) & (f * s < 1.0 / threshold)
    if flagged.any():
        warnings.warn(
            f"{int(flagged.sum())} node(s) carry combined weight above {threshold:g}")
    return WeightReport(f=f, s=s, w=w, flagged=flagged, threshold=float(threshold))
