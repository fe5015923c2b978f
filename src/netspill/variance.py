"""Closed-form sandwich variance for the stacked estimating equations.

The stacked parameter is theta = (gamma, eta, targets): propensity-model
parameters, censoring-model parameters, then one average-potential-outcome
target per (arm, alpha). With m groups (components by default) and
k_hat = n/m, group nu contributes

    psi_nu = [ score_nu(gamma) / k_hat,
               score_nu(eta) / k_hat,
               (1/k_hat) * sum_{j in nu} w_j(t) - theta_t  ... per target ]

where w_j(t) is node j's numerator term. The target rows subtract theta
once per group, so their Jacobian block is exactly -I and the bread matrix
is A_m = -(1/m) sum_nu d psi_nu / d theta'. The variance estimate is
Sigma = A^-1 B (A^-1)' / m with B = (1/m) sum_nu psi_nu psi_nu'.

Every block of A is analytic (stacked M-estimation; Stefanski & Boos
2002). The model blocks are observed information: X'WX for logistic fits
and the Louis identity on the quadrature posterior for mixed fits. The
target-vs-model blocks are -d Yhat_t / d(param), from the Fisher-identity
gradient of each closed-neighborhood log density and the derivative of
each censoring linear predictor, which for a mixed fit passes through the
group's posterior mode by implicit differentiation.

build_context evaluates each quadrature posterior once: one per mixed
model (score rows, Louis information and mode Jacobian together) and one
over the closed neighborhoods (log densities and their gradients
together). component_psi, compute_A and compute_B read the stored arrays.
component_psi at arbitrary stack values recomputes every piece, so finite
differences of it check A from outside.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import expit

from . import estimator as est
from . import glm
from . import weights as wt
from .errors import InputError, NumericalError
from .netgraph import Partition

COND_LIMIT = 1e12
NEG_VAR_TOL = -1e-12


@dataclass(frozen=True)
class ThetaStack:
    names: tuple
    values: np.ndarray
    gamma_slice: slice
    eta_slice: slice
    target_slice: slice
    target_keys: tuple

    @property
    def size(self) -> int:
        return self.values.size

    def index(self, name: str) -> int:
        return self.names.index(name)

    def target_index(self, arm, alpha) -> int:
        key = (arm, float(alpha))
        for k, tk in enumerate(self.target_keys):
            if tk == key:
                return self.target_slice.start + k
        raise InputError(f"no target for arm={arm}, alpha={alpha}")


@dataclass
class SandwichResult:
    A: np.ndarray
    B: np.ndarray
    sigma: np.ndarray
    m: int
    k_hat: float
    stack: ThetaStack

    def target_ses(self) -> np.ndarray:
        idx = range(self.stack.target_slice.start, self.stack.target_slice.stop)
        return np.array([np.sqrt(_floor_var(self.sigma[t, t])) for t in idx])

    def contrast_se(self, key1, key0) -> float:
        i = self.stack.target_index(*key1)
        j = self.stack.target_index(*key0)
        return contrast_se(self.sigma, i, j)

    def dump(self, path):
        """Full-precision matrix dump for cross-implementation comparison."""
        lines = [f"names {' '.join(self.stack.names)}",
                 f"m {self.m}", f"k_hat {self.k_hat:.17g}"]
        for tag, M in (("A", self.A), ("B", self.B), ("sigma", self.sigma)):
            lines.append(tag)
            for row in M:
                lines.append(" ".join(f"{v:.17g}" for v in row))
        from .io import write_text_atomic

        write_text_atomic(path, "\n".join(lines) + "\n")


def _floor_var(v: float) -> float:
    if v < NEG_VAR_TOL:
        raise NumericalError(f"negative variance {v:.3g} beyond tolerance")
    return max(v, 0.0)


def contrast_se(sigma: np.ndarray, i: int, j: int) -> float:
    """Standard error of theta_i - theta_j from a covariance matrix."""
    v = sigma[i, i] + sigma[j, j] - 2.0 * sigma[i, j]
    return float(np.sqrt(_floor_var(v)))


# ---------------------------------------------------------------------------
# context

class _ModelBlock:
    """One fitted model's contribution to the stack.

    Holds the stacked parameters and, from one evaluation at the fit, the
    observation-level score rows, the observed information and the
    gradient of each node's linear predictor. A mixed fit's three come
    from one quadrature posterior (glm.posterior_at).
    """

    def __init__(self, tag, fit, design, y):
        self.tag = tag
        self.fit = fit
        self.design = glm._as_design(design)
        self.y = np.asarray(y)
        self.mixed = getattr(fit, "re_sd", 0.0) > 0.0
        coefs = np.asarray(fit.coefficients, dtype=float)
        X = self.design.values
        if not self.mixed:
            self.params = coefs.copy()
            self.names = tuple(f"{tag}:{c}" for c in fit.column_names)
            self.score_rows = glm.score_contributions(self.design, self.y, None, coefs, 0.0)
            self.information = glm.logistic_information(self.design, coefs)
            self.lp_gradient = X
            return
        self.params = np.concatenate([coefs, [np.log(fit.re_sd)]])
        self.names = tuple(f"{tag}:{c}" for c in fit.column_names) + (f"{tag}:log_re_sd",)
        # at exp(log sd), the sd the stacked parameter carries, not fit.re_sd
        _, sd = self.split(self.params)
        layout, Xs, post = glm.posterior_at(self.design, self.y, fit.groups, coefs, sd,
                                            fit.quad_nodes)
        self.score_rows = layout.unsort(post.score_rows(Xs))
        self.information = post.information(Xs)
        # d(linear predictor)/d params per node; the predictor includes the
        # group's posterior mode
        self.lp_gradient = post.mode_jacobian(Xs)[fit.groups.labels]
        self.lp_gradient[:, :-1] += X

    def split(self, params):
        """(coefficients, re_sd) from a stacked parameter segment."""
        if self.mixed:
            return params[:-1], float(np.exp(params[-1]))
        return params, 0.0

    def group_scores(self, groups: Partition, params=None) -> np.ndarray:
        """Score rows per variance group, at the fit or at given params.

        Observation-level score rows (analytic, Fisher identity for mixed
        fits) summed within each group, so any partition works. Given
        params, the rows are recomputed there.
        """
        contrib = self.score_rows
        if params is not None:
            coefs, sd = self.split(np.asarray(params, dtype=float))
            contrib = glm.score_contributions(
                self.design, self.y, getattr(self.fit, "groups", None), coefs, sd,
                getattr(self.fit, "quad_nodes", glm.DEFAULT_QUAD_NODES))
        out = np.zeros((groups.group_count, contrib.shape[1]))
        np.add.at(out, groups.labels, contrib)
        return out


class _Context:
    """Precomputed pieces shared by component_psi / compute_A / compute_B."""

    def __init__(self, net, data, pfit, cfit, prop_design, cens_design, allocs,
                 groups=None, quad_nodes=None):
        self.net = net
        self.data = data
        self.allocs = [wt.as_allocation(a).alpha for a in allocs]
        self.quad_nodes = quad_nodes
        self.groups = net.components if groups is None else groups
        if not isinstance(self.groups, Partition):
            self.groups = Partition.from_labels(list(self.groups))
        if self.groups.n != net.n:
            raise InputError("variance grouping must label every node")
        self.m = self.groups.group_count
        if self.m < 2:
            raise NumericalError("sandwich variance needs at least two groups")
        self.k_hat = net.n / self.m
        self.node_layout = glm.GroupLayout(self.groups.labels, self.m)

        self.prop = _ModelBlock("prop", pfit, prop_design, data.A)
        self.cens = _ModelBlock("cens", cfit, cens_design, data.C)

        self.logf, self.dlogf = wt.log_propensity_density_and_gradient(
            net, data.A, self.prop.design, pfit, quad_nodes)
        with np.errstate(divide="ignore"):
            self.logs = np.log(wt.censoring_survival_all(self.cens.design, cfit))
        self.keys, self.T = est.target_terms(net, data, self.logf, self.logs, self.allocs)
        self.estimates = self.T.mean(axis=0)

        values = np.concatenate([self.prop.params, self.cens.params, self.estimates])
        pg = len(self.prop.params)
        pe = len(self.cens.params)
        names = self.prop.names + self.cens.names + tuple(
            est.estimand_name(*k) for k in self.keys)
        self.stack = ThetaStack(
            names=names,
            values=values,
            gamma_slice=slice(0, pg),
            eta_slice=slice(pg, pg + pe),
            target_slice=slice(pg + pe, pg + pe + len(self.keys)),
            target_keys=tuple(self.keys),
        )

    # -- recomputation under perturbed model parameters ---------------------

    def logf_at(self, gamma) -> np.ndarray:
        coefs, sd = self.prop.split(np.asarray(gamma, dtype=float))
        return wt.log_propensity_density_all(
            self.net, self.data.A, self.prop.design, self.prop.fit,
            self.quad_nodes, coefficients=coefs, re_sd=sd)

    def logs_at(self, eta) -> np.ndarray:
        coefs, sd = self.cens.split(np.asarray(eta, dtype=float))
        lp = self.cens.design.values @ coefs
        if sd > 0.0:
            _, _, post = glm.posterior_at(self.cens.design, self.data.C, self.cens.fit.groups,
                                          coefs, sd, self.cens.fit.quad_nodes)
            lp = lp + post.modes[self.cens.fit.groups.labels]
        with np.errstate(divide="ignore"):
            return np.log(expit(-lp))


def build_context(net, data, pfit, cfit, prop_design, cens_design, allocs,
                  groups=None, quad_nodes=None) -> _Context:
    return _Context(net, data, pfit, cfit, prop_design, cens_design, allocs,
                    groups, quad_nodes)


# ---------------------------------------------------------------------------
# psi, A, B

def component_psi(ctx: _Context, values=None) -> np.ndarray:
    """Stacked estimating-function rows, one per variance group.

    With `values=None` this evaluates at the fitted stack and the rows sum
    to (numerically) zero. Arbitrary stack values force a full
    recomputation of scores, densities, and survivals at those parameters.
    """
    stack = ctx.stack
    if values is None:
        prop_scores = ctx.prop.group_scores(ctx.groups)
        cens_scores = ctx.cens.group_scores(ctx.groups)
        T = ctx.T
        targets = stack.values[stack.target_slice]
    else:
        values = np.asarray(values, dtype=float)
        gamma = values[stack.gamma_slice]
        eta = values[stack.eta_slice]
        targets = values[stack.target_slice]
        prop_scores = ctx.prop.group_scores(ctx.groups, gamma)
        cens_scores = ctx.cens.group_scores(ctx.groups, eta)
        _, T = est.target_terms(
            ctx.net, ctx.data, ctx.logf_at(gamma), ctx.logs_at(eta), ctx.allocs)
    T_g = ctx.node_layout.group_sum(ctx.node_layout.sort(T))
    psi = np.empty((ctx.m, stack.size))
    psi[:, stack.gamma_slice] = prop_scores / ctx.k_hat
    psi[:, stack.eta_slice] = cens_scores / ctx.k_hat
    psi[:, stack.target_slice] = T_g / ctx.k_hat - targets[None, :]
    return psi


def compute_A(ctx: _Context) -> np.ndarray:
    """Bread matrix A_m = -(1/m) sum_nu d psi_nu / d theta'.

    Model-vs-model blocks are information/n (n = m*k_hat); cross blocks
    between the two models and from models to targets are zero; the target
    diagonal is an exact identity. Target rows are -d Yhat/d(model params)
    in closed form. Each term T_it carries 1/(f_i s_i), so with
    q_i = 1 - s_i and lp_i the censoring linear predictor:

        A[t, gamma] =  (1/n) sum_i T_it d log f_i / d gamma
        A[t, eta]   = -(1/n) sum_i T_it q_i d lp_i / d eta
    """
    stack = ctx.stack
    P = stack.size
    A = np.zeros((P, P))
    scale = 1.0 / (ctx.m * ctx.k_hat)
    gs, es, ts = stack.gamma_slice, stack.eta_slice, stack.target_slice
    A[gs, gs] = ctx.prop.information * scale
    A[es, es] = ctx.cens.information * scale
    A[ts, gs] = ctx.T.T @ ctx.dlogf * scale
    q = -np.expm1(ctx.logs)
    A[ts, es] = -(ctx.T * q[:, None]).T @ ctx.cens.lp_gradient * scale
    A[ts, ts] = np.eye(len(ctx.keys))
    return A


def compute_B(ctx: _Context, psi: np.ndarray = None) -> np.ndarray:
    """Meat matrix B_m = (1/m) sum_nu psi_nu psi_nu'."""
    if psi is None:
        psi = component_psi(ctx)
    return psi.T @ psi / ctx.m


def _qr_solve(A, B):
    """Solve A X = B by column-pivoted QR with a condition-number guard."""
    Q, R, piv = qr(A, pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.min() <= 0.0 or diag.max() / diag.min() > COND_LIMIT:
        raise NumericalError(
            "stacked system is ill-conditioned; variance needs more groups "
            f"(R-diagonal ratio {diag.max() / max(diag.min(), 1e-300):.3g})")
    Y = solve_triangular(R, Q.T @ B, lower=False)
    X = np.empty_like(Y)
    X[piv, ...] = Y
    return X


def sandwich(net, data, pfit, cfit, prop_design, cens_design, allocs,
             groups=None, quad_nodes=None, dump_path=None) -> SandwichResult:
    """Full sandwich covariance of the stacked parameters.

    `groups` overrides the variance partition (components by default); the
    propensity and censoring fits keep their own grouping regardless.
    """
    ctx = build_context(net, data, pfit, cfit, prop_design, cens_design,
                        allocs, groups, quad_nodes)
    return sandwich_from_context(ctx, dump_path)


def sandwich_from_context(ctx: _Context, dump_path=None) -> SandwichResult:
    A = compute_A(ctx)
    psi = component_psi(ctx)
    B = compute_B(ctx, psi)
    # sigma = A^-1 B A^-T / m written as G G' with G = A^-1 psi' / m, which
    # is symmetric positive semidefinite by construction
    G = _qr_solve(A, psi.T) / ctx.m
    sigma = G @ G.T
    sigma = 0.5 * (sigma + sigma.T)
    res = SandwichResult(A=A, B=B, sigma=sigma, m=ctx.m, k_hat=ctx.k_hat, stack=ctx.stack)
    for t in range(ctx.stack.target_slice.start, ctx.stack.target_slice.stop):
        _floor_var(sigma[t, t])
    if dump_path is not None:
        res.dump(dump_path)
    return res
