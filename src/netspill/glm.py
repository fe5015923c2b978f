"""Logistic regression and logistic-normal random-intercept models.

Two fitters live here:

* fit_logistic: iteratively reweighted least squares with step halving,
  so the log-likelihood is nondecreasing across iterations by construction.
* fit_mixed_logistic: maximum likelihood for a Bernoulli GLMM with one
  shared random intercept per group. The marginal likelihood integrates
  the intercept out with adaptive Gauss-Hermite quadrature (mode centered,
  curvature scaled), and the outer optimization over (beta, log sd) is
  quasi-Newton with a damped-Newton polish, on the Louis information,
  down to a gradient-norm tolerance.

Every quadrature evaluation goes through one kernel,
grouped_posterior_bundle, which returns the posterior of each group's
intercept on the rule's abscissae. Derivatives are analytic and all come
from that posterior: scores by the Fisher identity (E of the complete-data
score) and the observed information by the Louis identity
(E[-complete-data Hessian] - Var[complete-data score]; Louis 1982). The
same kernel serves the neighborhood-exposure density integrals, which
have the same "product of Bernoullis with a fresh shared intercept" shape.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from .errors import ConvergenceError, InputError
from .netgraph import Partition

LOGISTIC_TOL = 1e-10          # relative log-likelihood change
IRLS_MAX_ITER = 100
SEPARATION_COEF = 15.0
GLMM_GRADIENT_TOL = 1e-8      # norm of the marginal log-likelihood gradient
MIXED_MAX_ITER = 200
DEFAULT_QUAD_NODES = 21
_LOG_SD_FLOOR = np.log(1e-4)  # below this the random intercept is treated as 0


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design matrix with column names for reporting."""

    values: np.ndarray
    column_names: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if values.ndim != 2:
            raise InputError("design matrix must be 2-d")
        if len(self.column_names) != values.shape[1]:
            raise InputError("column_names length does not match design width")
        if not np.all(np.isfinite(values)):
            raise InputError("design matrix contains non-finite values")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def _as_design(X) -> DesignMatrix:
    if isinstance(X, DesignMatrix):
        return X
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError("design matrix must be 2-d")
    return DesignMatrix(X, tuple(f"x{j}" for j in range(X.shape[1])))


def _as_partition(groups, n: int) -> Partition:
    if isinstance(groups, Partition):
        part = groups
    else:
        part = Partition.from_labels(list(groups))
    if part.n != n:
        raise InputError("group labels length does not match data length")
    return part


def _check_response(y, n):
    y = np.asarray(y)
    if y.shape != (n,):
        raise InputError("response length does not match design")
    vals = np.unique(y)
    if not np.all(np.isin(vals, (0, 1))):
        raise InputError("response must be binary 0/1")
    return y.astype(float)


def _check_rank(X: DesignMatrix):
    if X.n < X.p or np.linalg.matrix_rank(X.values) < X.p:
        raise InputError("design matrix is rank deficient")


@dataclass
class LogisticFit:
    coefficients: np.ndarray
    column_names: tuple
    log_likelihood: float
    iterations: int
    converged: bool
    separation_warning: bool
    loglik_path: tuple

    @property
    def re_sd(self) -> float:
        return 0.0


@dataclass
class MixedLogisticFit:
    fixed_coefficients: np.ndarray
    re_sd: float
    group_modes: np.ndarray
    column_names: tuple
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_norm: float
    groups: Partition
    quad_nodes: int
    separation_warning: bool = False   # the sd-0 fallback keeps its base fit's flag

    @property
    def coefficients(self) -> np.ndarray:
        return self.fixed_coefficients


def _bernoulli_loglik(lp, y):
    # sum_i y*lp - log(1 + e^lp), stable at large |lp|
    return float(np.sum(y * lp - np.logaddexp(0.0, lp)))


def fit_logistic(X, y, max_iter: int = IRLS_MAX_ITER, tol: float = LOGISTIC_TOL) -> LogisticFit:
    """IRLS maximum likelihood for plain logistic regression.

    Convergence is a relative log-likelihood change below `tol`. Steps that
    would decrease the log-likelihood are halved, so `loglik_path` is
    nondecreasing. Coefficients beyond 15 in absolute value trigger a
    separation warning (fitted probabilities at the 0/1 limit).
    """
    X = _as_design(X)
    _check_rank(X)
    y = _check_response(y, X.n)
    V = X.values
    beta = np.zeros(X.p)
    ll = _bernoulli_loglik(V @ beta, y)
    path = [ll]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        lp = V @ beta
        p = expit(lp)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        score = V.T @ (y - p)
        info = (V * w[:, None]).T @ V
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise InputError("singular information matrix in IRLS") from exc
        new_ll = _bernoulli_loglik(V @ (beta + step), y)
        halvings = 0
        while new_ll < ll - 1e-12 and halvings < 30:
            step *= 0.5
            new_ll = _bernoulli_loglik(V @ (beta + step), y)
            halvings += 1
        beta = beta + step
        path.append(new_ll)
        if abs(new_ll - ll) <= tol * (1.0 + abs(ll)):
            ll = new_ll
            converged = True
            break
        ll = new_ll
    separation = bool(np.any(np.abs(beta) > SEPARATION_COEF))
    if separation:
        warnings.warn("possible separation: coefficient beyond 15 in absolute value")
    return LogisticFit(
        coefficients=beta,
        column_names=X.column_names,
        log_likelihood=ll,
        iterations=it,
        converged=converged,
        separation_warning=separation,
        loglik_path=tuple(path),
    )


# ---------------------------------------------------------------------------
# grouped Bernoulli quadrature core

@lru_cache(maxsize=8)
def _gh_nodes(k: int):
    x, w = np.polynomial.hermite.hermgauss(k)
    return x, np.log(w)


class GroupLayout:
    """Sorted segment layout for per-group reductions over entry arrays."""

    def __init__(self, group_idx, n_groups: int):
        group_idx = np.asarray(group_idx, dtype=np.int64)
        if group_idx.size == 0:
            raise InputError("grouped evaluation needs at least one entry")
        if group_idx.min() < 0 or group_idx.max() >= n_groups:
            raise InputError("group index out of range")
        self.order = np.argsort(group_idx, kind="stable")
        self.g = group_idx[self.order]
        self.G = n_groups
        self.sizes = np.bincount(group_idx, minlength=n_groups)
        if np.any(self.sizes == 0):
            raise InputError("every group must contain at least one entry")
        self.starts = np.searchsorted(self.g, np.arange(n_groups))

    def sort(self, a):
        return np.asarray(a)[self.order]

    def group_sum(self, a):
        return np.add.reduceat(a, self.starts, axis=0)


def _group_modes(layout: GroupLayout, lp0, y, sigma: float, start=None):
    """Posterior mode and curvature scale of the shared intercept per group.

    Newton on the 1-d log posterior; strictly concave, steps clipped for
    global robustness. Arrays are in layout (sorted) order.
    """
    inv_s2 = 1.0 / (sigma * sigma)
    b = np.zeros(layout.G) if start is None else np.array(start, dtype=float)
    for _ in range(80):
        lp = lp0 + b[layout.g]
        p = expit(lp)
        grad = layout.group_sum(y - p) - b * inv_s2
        hess = layout.group_sum(p * (1.0 - p)) + inv_s2
        step = np.clip(grad / hess, -3.0, 3.0)
        b += step
        if np.max(np.abs(step)) < 1e-11:
            break
    lp = lp0 + b[layout.g]
    p = expit(lp)
    tau = 1.0 / np.sqrt(layout.group_sum(p * (1.0 - p)) + inv_s2)
    return b, tau


@dataclass
class GroupPosterior:
    """Quadrature posterior of each group's shared intercept.

    `ell` holds the per-group marginal log-likelihoods, `modes` the
    posterior modes that center the rule, `b` the (G, K) abscissae and
    `post` their normalized posterior weights. Entry arrays are in layout
    order. Entry-level expectations are formed on request, so a caller that
    needs only `ell` holds no more than the log-likelihood temporaries.
    """

    layout: GroupLayout
    lp0: np.ndarray
    y: np.ndarray
    sigma: float
    b: np.ndarray
    post: np.ndarray
    ell: np.ndarray
    modes: np.ndarray

    def _prob(self):
        """p(b) of every entry at every abscissa, (N, K)."""
        p = self.b[self.layout.g]
        p += self.lp0[:, None]
        return expit(p, out=p)

    def resid_bar(self):
        """Posterior-expected residual E[y - p(b)] per entry."""
        r = self._prob()
        np.subtract(self.y[:, None], r, out=r)
        return np.einsum("nk,nk->n", self.post[self.layout.g], r)

    def b2_bar(self):
        """Posterior-expected squared intercept per group."""
        return np.einsum("gk,gk->g", self.post, self.b * self.b)

    def score_rows(self, Xs):
        """Fisher-identity score per entry over (beta..., log sd).

        Each entry contributes x * E[y - p(b)]; the group's log-sd score
        E[b^2]/sd^2 - 1 is split equally across its entries.
        """
        sd_group = self.b2_bar() / (self.sigma * self.sigma) - 1.0
        sd_part = (sd_group / self.layout.sizes)[self.layout.g]
        return np.column_stack([Xs * self.resid_bar()[:, None], sd_part])

    def information(self, Xs):
        """Observed information over (beta..., log sd) by the Louis identity.

        Sum over groups of E[-d2 log p(y, b)] - Var[d log p(y, b)] under
        the quadrature posterior.
        """
        P = Xs.shape[1]
        p = self._prob()
        w_bar = np.einsum("nk,nk->n", self.post[self.layout.g], p * (1.0 - p))
        r = np.subtract(self.y[:, None], p, out=p)
        inv_s2 = 1.0 / (self.sigma * self.sigma)
        scores = np.empty((self.layout.G, P + 1, self.b.shape[1]))
        for c in range(P):
            scores[:, c, :] = self.layout.group_sum(Xs[:, c, None] * r)
        scores[:, P, :] = self.b * self.b * inv_s2 - 1.0
        scores -= np.einsum("gck,gk->gc", scores, self.post)[:, :, None]
        info = -np.einsum("gck,gdk,gk->cd", scores, scores, self.post)
        info[:P, :P] += (Xs * w_bar[:, None]).T @ Xs
        info[P, P] += 2.0 * inv_s2 * float(np.sum(self.b2_bar()))
        return 0.5 * (info + info.T)


def grouped_posterior_bundle(layout, lp0, y, sigma, quad_nodes=DEFAULT_QUAD_NODES,
                             mode_start=None) -> GroupPosterior:
    """Adaptive Gauss-Hermite posterior of a shared intercept per group.

    The one place the quadrature rule is evaluated: marginal likelihoods,
    scores and information all come from the returned GroupPosterior.
    Inputs are entry arrays in layout order; `mode_start` warm-starts the
    per-group mode search.
    """
    if sigma <= 0.0:
        raise InputError("grouped quadrature requires a positive sd")
    if quad_nodes < 11 or quad_nodes % 2 == 0:
        raise InputError("quad_nodes must be odd and at least 11")
    gx, glogw = _gh_nodes(quad_nodes)
    modes, tau = _group_modes(layout, lp0, y, sigma, mode_start)
    b = modes[:, None] + np.sqrt(2.0) * tau[:, None] * gx[None, :]
    # log p(y_group, b) at each abscissa, built in place: at most two
    # (entries, K) arrays are alive at once
    ll = b[layout.g]
    ll += lp0[:, None]
    soft = np.logaddexp(0.0, ll)
    ll *= y[:, None]
    ll -= soft
    del soft
    L = layout.group_sum(ll)
    del ll
    L += -0.5 * b * b / (sigma * sigma) - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)
    L += (glogw + gx * gx)[None, :]
    norm = logsumexp(L, axis=1)
    post = np.exp(L - norm[:, None])
    post /= post.sum(axis=1, keepdims=True)
    ell = norm + 0.5 * np.log(2.0) + np.log(tau)
    return GroupPosterior(layout, lp0, y, sigma, b, post, ell, modes)


# ---------------------------------------------------------------------------
# mixed-model fitting

def _mixed_evaluator(layout, Xs, ys, quad_nodes):
    """Closure giving the quadrature posterior at theta = (beta..., log sd).

    Mode warm starts persist across calls.
    """
    cache = {"modes": None}

    def posterior(theta):
        sigma = max(float(np.exp(theta[-1])), 1e-8)
        post = grouped_posterior_bundle(
            layout, Xs @ theta[:-1], ys, sigma, quad_nodes, cache["modes"])
        cache["modes"] = post.modes
        return post

    return posterior


def _neg_loglik_and_grad(post, Xs):
    """(-loglik, -gradient) with the gradient by the Fisher identity:
    d/dbeta = sum_n x_n E[y_n - p_n(b) | y], d/dlog sd = sum_g E[b^2]/sd^2 - 1.
    """
    g_beta = Xs.T @ post.resid_bar()
    g_logsd = float(np.sum(post.b2_bar() / (post.sigma * post.sigma) - 1.0))
    return -float(np.sum(post.ell)), -np.concatenate([g_beta, [g_logsd]])


def _logistic_as_mixed(base: LogisticFit, part: Partition, quad_nodes: int) -> MixedLogisticFit:
    return MixedLogisticFit(
        fixed_coefficients=base.coefficients.copy(),
        re_sd=0.0,
        group_modes=np.zeros(part.group_count),
        column_names=base.column_names,
        log_likelihood=base.log_likelihood,
        iterations=base.iterations,
        converged=base.converged,
        gradient_norm=0.0,
        groups=part,
        quad_nodes=quad_nodes,
        separation_warning=base.separation_warning,
    )


def fit_mixed_logistic(X, y, groups, quad_nodes: int = DEFAULT_QUAD_NODES,
                       max_iter: int = MIXED_MAX_ITER,
                       gtol: float = GLMM_GRADIENT_TOL) -> MixedLogisticFit:
    """ML fit of a logistic model with a shared N(0, sd^2) group intercept.

    Starts from the fixed-effects fit with a small grid of sd starting
    values, runs L-BFGS-B on (beta, log sd), then polishes with damped
    Newton until the gradient norm is below `gtol`. If the sd collapses
    to the boundary (or never improves on sd=0), the fixed-effects fit is
    returned with re_sd=0.
    """
    X = _as_design(X)
    _check_rank(X)
    y = _check_response(y, X.n)
    part = _as_partition(groups, X.n)
    layout = GroupLayout(part.labels, part.group_count)
    Xs = layout.sort(X.values)
    ys = layout.sort(y)

    base = fit_logistic(X, y)
    posterior = _mixed_evaluator(layout, Xs, ys, quad_nodes)

    def fun(theta):
        return _neg_loglik_and_grad(posterior(theta), Xs)

    best = None
    used_iters = 0
    for sd0 in (0.5, 0.25, 1.0):
        theta0 = np.concatenate([base.coefficients, [np.log(sd0)]])
        res = minimize(
            fun, theta0, jac=True, method="L-BFGS-B",
            bounds=[(None, None)] * X.p + [(_LOG_SD_FLOOR - 2.0, np.log(50.0))],
            options={"maxiter": max_iter, "ftol": 1e-13, "gtol": 1e-10},
        )
        used_iters += res.nit
        theta = res.x
        # damped Newton polish with the Louis observed information
        for _ in range(40):
            post = posterior(theta)
            nll, ng = _neg_loglik_and_grad(post, Xs)
            gnorm = float(np.linalg.norm(ng))
            if gnorm <= gtol or theta[-1] <= _LOG_SD_FLOOR:
                break
            H = post.information(Xs)
            lam = 0.0
            for _ in range(8):
                try:
                    step = np.linalg.solve(H + lam * np.eye(theta.size), -ng)
                except np.linalg.LinAlgError:
                    lam = max(1e-6, lam * 10.0)
                    continue
                cand = theta + step
                # the quadrature's own noise in -loglik scales with its size
                if fun(cand)[0] <= nll + 1e-12 * (1.0 + abs(nll)):
                    theta = cand
                    break
                lam = max(1e-6, lam * 10.0)
            else:
                break
            used_iters += 1
        nll, ng = fun(theta)
        cand = (float(-nll), theta, float(np.linalg.norm(ng)))
        if best is None or cand[0] > best[0]:
            best = cand
        if best[2] <= gtol and best[0] >= base.log_likelihood - 1e-10:
            break
        if theta[-1] <= _LOG_SD_FLOOR + 0.5:
            break  # sd collapsed; more starts would only rediscover the boundary

    ll, theta, gnorm = best
    sigma = float(np.exp(theta[-1]))
    if sigma <= 1.5e-4 or ll <= base.log_likelihood + 1e-10:
        return _logistic_as_mixed(base, part, quad_nodes)
    if gnorm > gtol:
        last = MixedLogisticFit(
            fixed_coefficients=theta[:-1], re_sd=sigma,
            group_modes=np.zeros(part.group_count), column_names=X.column_names,
            log_likelihood=ll, iterations=used_iters, converged=False,
            gradient_norm=gnorm, groups=part, quad_nodes=quad_nodes,
        )
        raise ConvergenceError(
            f"mixed-model gradient norm {gnorm:.3g} above tolerance {gtol:g}", last=last
        )
    lp0 = Xs @ theta[:-1]
    modes_sorted, _ = _group_modes(layout, lp0, ys, sigma)
    return MixedLogisticFit(
        fixed_coefficients=theta[:-1],
        re_sd=sigma,
        group_modes=modes_sorted,
        column_names=X.column_names,
        log_likelihood=ll,
        iterations=used_iters,
        converged=True,
        gradient_norm=gnorm,
        groups=part,
        quad_nodes=quad_nodes,
    )


# ---------------------------------------------------------------------------
# scores and information

def _posterior_at(X, y, groups, coefficients, re_sd, quad_nodes):
    """(layout, sorted design, quadrature posterior) at given parameters."""
    part = _as_partition(groups, X.n)
    layout = GroupLayout(part.labels, part.group_count)
    Xs = layout.sort(X.values)
    lp0 = Xs @ np.asarray(coefficients, dtype=float)
    post = grouped_posterior_bundle(layout, lp0, layout.sort(y), float(re_sd), quad_nodes)
    return layout, Xs, post


def score_contributions(X, y, groups, coefficients, re_sd,
                        quad_nodes=DEFAULT_QUAD_NODES) -> np.ndarray:
    """Observation-level score rows at any parameter values.

    With re_sd=0 the rows are the fixed-effects x(y - p) and `groups` is
    not used. Otherwise they come from the Fisher identity over
    (beta..., log sd): each observation contributes x * E[y - p(b) | y_group],
    and its group's log-sd score E[b^2]/sd^2 - 1 is split equally across
    the group's observations. Summing rows within any union of groups gives
    that union's exact score, which regrouped variance stacks need.
    """
    X = _as_design(X)
    y = _check_response(y, X.n)
    if re_sd == 0.0:
        p = expit(X.values @ np.asarray(coefficients, dtype=float))
        return X.values * (y - p)[:, None]
    layout, Xs, post = _posterior_at(X, y, groups, coefficients, re_sd, quad_nodes)
    out = np.empty((X.n, X.p + 1))
    out[layout.order] = post.score_rows(Xs)
    return out


def mixed_information(X, y, groups, coefficients, re_sd,
                      quad_nodes=DEFAULT_QUAD_NODES) -> np.ndarray:
    """Observed information of the marginal log-likelihood over
    (beta..., log sd), by the Louis identity on the quadrature posterior."""
    X = _as_design(X)
    y = _check_response(y, X.n)
    _, Xs, post = _posterior_at(X, y, groups, coefficients, re_sd, quad_nodes)
    return post.information(Xs)


def mixed_group_modes(X, y, groups, coefficients, re_sd):
    """Posterior modes of the shared intercept and their parameter Jacobian.

    Returns (modes, jac), both indexed by group label; jac[g] is
    d b_g / d(beta..., log sd), by implicit differentiation of the mode
    equation sum_j (y_j - p_j) - b/sd^2 = 0:
    d b/d beta = -sum_j p_j(1 - p_j) x_j / H and d b/d log sd = 2 b/(sd^2 H),
    where H = sum_j p_j(1 - p_j) + 1/sd^2 = 1/tau^2.
    """
    X = _as_design(X)
    y = _check_response(y, X.n)
    part = _as_partition(groups, X.n)
    layout = GroupLayout(part.labels, part.group_count)
    Xs = layout.sort(X.values)
    sigma = float(re_sd)
    lp0 = Xs @ np.asarray(coefficients, dtype=float)
    modes, tau = _group_modes(layout, lp0, layout.sort(y), sigma)
    p = expit(lp0 + modes[layout.g])
    tau2 = tau * tau
    d_beta = -layout.group_sum(Xs * (p * (1.0 - p))[:, None]) * tau2[:, None]
    d_logsd = 2.0 * modes * tau2 / (sigma * sigma)
    return modes, np.column_stack([d_beta, d_logsd])


def logistic_information(X, coefficients) -> np.ndarray:
    """Fisher information X' W X of a fixed-effects logistic model."""
    X = _as_design(X)
    p = expit(X.values @ np.asarray(coefficients, dtype=float))
    w = p * (1.0 - p)
    return (X.values * w[:, None]).T @ X.values
