"""Point estimation of average potential outcomes and effect contrasts.

The key quantity is the inverse-probability-of-censoring-weighted mean

    Yhat(a, alpha) = (1/n) sum_i Y_i 1{C_i=0} 1{A_i=a} pi(A_Ni; alpha)
                               / ( f_i(A_i, A_Ni | Z) * S_i )

with the marginal version Yhat(alpha) using the joint policy weight over
(A_i, A_Ni) and no own-exposure indicator. The denominator n counts every
node, censored or not, so censored nodes contribute zero to the numerator
but still dilute the mean; that is exactly what the censoring survival
S_i in the denominator corrects for on average.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import InputError, PositivityError

Z975 = 1.959964  # two-sided 95% normal quantile, fixed for reproducibility


@dataclass(frozen=True)
class StudyData:
    """Per-node exposure A, covariates Z, censoring C, outcome Y.

    Y must be NaN exactly where C=1 (the outcome is never observed for
    censored nodes) and finite where C=0.
    """

    A: np.ndarray
    Z: np.ndarray
    C: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.int64)
        C = np.asarray(self.C, dtype=np.int64)
        Y = np.asarray(self.Y, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        for name, arr in (("A", A), ("C", C), ("Y", Y)):
            if arr.shape != (A.shape[0],):
                raise InputError(f"{name} must be 1-d and aligned")
        if Z.shape[0] != A.shape[0]:
            raise InputError("Z must have one row per node")
        if not np.all(np.isin(A, (0, 1))):
            raise InputError("A must be binary 0/1")
        if not np.all(np.isin(C, (0, 1))):
            raise InputError("C must be binary 0/1")
        if np.any(np.isnan(Y[C == 0])) or np.any(~np.isfinite(Y[C == 0])):
            raise InputError("Y must be finite where C=0")
        if np.any(~np.isnan(Y[C == 1])):
            raise InputError("Y must be NaN where C=1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def subset(self, idx) -> "StudyData":
        idx = np.asarray(idx)
        return StudyData(self.A[idx], self.Z[idx], self.C[idx], self.Y[idx])


@dataclass(frozen=True)
class EffectEstimate:
    kind: str            # direct | indirect | total | overall
    alpha1: float
    alpha0: float
    rd: float
    se: object           # float or None when no covariance was supplied
    ci_lo: object
    ci_hi: object


def stack_targets(allocs) -> list:
    """Target keys in stacking order: per alpha, (arm0, arm1, marginal)."""
    keys = []
    for a in allocs:
        alpha = wt.as_allocation(a).alpha
        keys.extend([(0, alpha), (1, alpha), (None, alpha)])
    return keys


def report_targets(allocs) -> list:
    """Reporting order: all arm-1 rows, then arm-0, then marginal."""
    alphas = [wt.as_allocation(a).alpha for a in allocs]
    return [(1, a) for a in alphas] + [(0, a) for a in alphas] + [(None, a) for a in alphas]


def estimand_name(arm, alpha) -> str:
    if arm is None:
        return f"Y({alpha:g})"
    return f"Y({arm},{alpha:g})"


def observed_treated_counts(net, A) -> np.ndarray:
    """Number of exposed neighbors of each node."""
    A = np.asarray(A, dtype=float)
    return np.bincount(net.owner_flat, A[net.indices], minlength=net.n)


def target_terms(net, data, logf, logs, allocs):
    """Per-node numerator terms w_j(t) for every target, as an (n, T) matrix.

    Column order follows stack_targets(allocs). Yhat_t is the column mean
    over all n nodes. Raises PositivityError when an uncensored node's
    denominator underflows.
    """
    logf = np.asarray(logf, dtype=float)
    logs = np.asarray(logs, dtype=float)
    uncensored = data.C == 0
    log_den = logf + logs
    bad = uncensored & (log_den <= wt.LOG_POSITIVITY_FLOOR)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise PositivityError(
            f"combined weight denominator underflow at node {node}", node=node)
    y_filled = np.where(uncensored, data.Y, 0.0)
    base = np.where(uncensored, y_filled * np.exp(-np.where(uncensored, log_den, 0.0)), 0.0)
    s_obs = observed_treated_counts(net, data.A)
    d = net.degrees
    keys = stack_targets(allocs)
    T = np.empty((data.n, len(keys)))
    for col, (arm, alpha) in enumerate(keys):
        log_pi_nb = wt.log_pi_neighbors(s_obs, d, alpha)
        if arm is None:
            log_num = log_pi_nb + np.where(data.A == 1, np.log(alpha), np.log1p(-alpha))
            T[:, col] = base * np.exp(log_num)
        else:
            T[:, col] = np.where(data.A == arm, base * np.exp(log_pi_nb), 0.0)
    return keys, T


def node_log_weights(net, data, pfit, cfit, prop_design, cens_design, quad_nodes=None):
    """(log f, log s) per node under the fitted models."""
    logf = wt.log_propensity_density_all(net, data.A, prop_design, pfit, quad_nodes)
    s = wt.censoring_survival_all(cens_design, cfit)
    with np.errstate(divide="ignore"):
        logs = np.log(s)
    return logf, logs


def ipcw_estimates(net, data, logf, logs, allocs) -> dict:
    """All average-potential-outcome point estimates from given weights."""
    if data.n != net.n:
        raise InputError("data and network sizes differ")
    if net.n == 0:
        raise InputError("cannot estimate on an empty network")
    if np.all(data.C == 1):
        warnings.warn("all nodes censored: estimates degenerate to 0")
    keys, T = target_terms(net, data, logf, logs, allocs)
    means = T.mean(axis=0)
    return {k: float(v) for k, v in zip(keys, means)}


def effect_pairs(allocs) -> list:
    """(alpha1, alpha0) contrast pairs: alpha1 ascending, alpha0 descending."""
    alphas = sorted(wt.as_allocation(a).alpha for a in allocs)
    pairs = []
    for i, a1 in enumerate(alphas):
        for a0 in reversed(alphas[:i]):
            pairs.append((a1, a0))
    return pairs


def effect_table(estimates: dict, allocs, sandwich_result=None) -> list:
    """Risk-difference contrasts with Wald CIs when a covariance is given.

    direct(alpha)            = Y(1,alpha) - Y(0,alpha)
    indirect(alpha1,alpha0)  = Y(0,alpha1) - Y(0,alpha0)
    total(alpha1,alpha0)     = Y(1,alpha1) - Y(0,alpha0)
    overall(alpha1,alpha0)   = Y(alpha1) - Y(alpha0)
    """
    alphas = sorted(wt.as_allocation(a).alpha for a in allocs)
    rows = []

    def add(kind, a1, a0, key1, key0):
        rd = estimates[key1] - estimates[key0]
        se = ci_lo = ci_hi = None
        if sandwich_result is not None:
            se = sandwich_result.contrast_se(key1, key0)
            ci_lo, ci_hi = rd - Z975 * se, rd + Z975 * se
        rows.append(EffectEstimate(kind, a1, a0, rd, se, ci_lo, ci_hi))

    for a in alphas:
        add("direct", a, a, (1, a), (0, a))
    for kind in ("indirect", "total", "overall"):
        for a1, a0 in effect_pairs(alphas):
            key1 = {"indirect": (0, a1), "total": (1, a1), "overall": (None, a1)}[kind]
            key0 = {"indirect": (0, a0), "total": (0, a0), "overall": (None, a0)}[kind]
            add(kind, a1, a0, key1, key0)
    return rows


def effects(net, data, allocs, pfit, cfit, prop_design, cens_design,
            sandwich_result=None, quad_nodes=None) -> list:
    """Convenience wrapper: estimates plus contrasts in one call."""
    logf, logs = node_log_weights(net, data, pfit, cfit, prop_design, cens_design, quad_nodes)
    estimates = ipcw_estimates(net, data, logf, logs, allocs)
    return effect_table(estimates, allocs, sandwich_result)


# ---------------------------------------------------------------------------
# ground truth from a potential-outcome table

class CountPotentialOutcomes:
    """Potential outcomes that depend on neighbors only through the count.

    values[i] is a (2, d_i+1) block: rows by own exposure, columns by the
    number of exposed neighbors. Stored flat for cheap vectorized lookups.
    """

    def __init__(self, flat, offsets, degrees):
        self.flat = np.asarray(flat, dtype=float)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.degrees = np.asarray(degrees, dtype=np.int64)

    @classmethod
    def from_blocks(cls, blocks):
        degrees = np.array([b.shape[1] - 1 for b in blocks], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum([b.size for b in blocks])[:-1]])
        flat = np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks])
        return cls(flat, offsets, degrees)

    @property
    def n(self) -> int:
        return self.degrees.size

    def value_by_count(self, i, a, s) -> float:
        d = self.degrees[i]
        if not (0 <= s <= d) or a not in (0, 1):
            raise InputError("potential-outcome lookup out of range")
        return float(self.flat[self.offsets[i] + a * (d + 1) + s])

    def realize(self, A, s_obs) -> np.ndarray:
        """Observed outcomes Y_i = y_i(A_i, s_obs_i), vectorized."""
        A = np.asarray(A, dtype=np.int64)
        s = np.asarray(s_obs, dtype=np.int64)
        return self.flat[self.offsets + A * (self.degrees + 1) + s]


@dataclass
class TrueValues:
    values: dict         # (arm, alpha) -> average potential outcome

    def ordered(self, allocs, order="stack") -> np.ndarray:
        keys = stack_targets(allocs) if order == "stack" else report_targets(allocs)
        return np.array([self.values[k] for k in keys])


def _binomial_pmf_matrix(d: int, alpha: float) -> np.ndarray:
    """Binomial(d, alpha) probabilities of 0..d."""
    k = np.arange(d + 1)
    comb = np.array([math.comb(d, j) for j in k], dtype=float)
    return comb * alpha ** k * (1.0 - alpha) ** (d - k)


def true_values(net, table, allocs) -> TrueValues:
    """Policy-averaged potential outcomes from a count-indexed table.

    The average over a node's 2^d neighbor-exposure patterns reduces to a
    Binomial(d, alpha) average along its row of the table, exact for any
    degree. Nodes of equal degree d share one (k, d+1) gather per arm and,
    per allocation, one matrix-vector product with the pmf.
    """
    if not np.array_equal(table.degrees, net.degrees):
        raise InputError("potential-outcome table does not match network degrees")
    by_degree = []  # (d, nodes of degree d, their (k, d+1) rows of the table per arm)
    for d in np.unique(net.degrees).tolist():
        idx = np.flatnonzero(net.degrees == d)
        cols = table.offsets[idx, None] + np.arange(d + 1)
        by_degree.append((d, idx, [table.flat[cols + arm * (d + 1)] for arm in (0, 1)]))
    out = {}
    for alpha in (wt.as_allocation(a).alpha for a in allocs):
        pmfs = [_binomial_pmf_matrix(d, alpha) for d, _, _ in by_degree]
        for arm in (0, 1):
            acc = np.empty(net.n)
            for (_, idx, rows), pmf in zip(by_degree, pmfs):
                acc[idx] = rows[arm] @ pmf
            out[(arm, alpha)] = float(acc.mean())
        out[(None, alpha)] = (1.0 - alpha) * out[(0, alpha)] + alpha * out[(1, alpha)]
    return TrueValues(values=out)
