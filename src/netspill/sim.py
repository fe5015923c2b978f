"""Finite-sample simulation harness.

A Scenario pins the network shape, the data-generating coefficients, the
censoring regime, how the censoring model is fit, the allocations, the
replicate count, and the seed. One run draws the network once (seed child
0), then per replicate (seed child r+1) draws covariates, random effects,
censoring, a full potential-outcome table, and exposures; fits both
nuisance models; computes all average-potential-outcome targets with
sandwich standard errors; and scores them against that replicate's exact
truth from the generated table.

Everything downstream of the SeedSequence tree is deterministic, and
replicate results are aggregated by index, so reports are byte-identical
for any thread count.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import estimator as est
from . import glm
from . import variance
from .errors import ConvergenceError, InputError, NumericalError, PositivityError
from .netgraph import (
    fast_greedy_communities,
    generate_regular_components,
    generate_trip_shaped,
)

FAILURE_WARN_FRACTION = 0.05


def hash_config(cfg: dict) -> str:
    """sha256 of the sorted-key JSON of a config; manifests record it."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class RegularNetworkSpec:
    """m disjoint degree-regular components, Poisson-sized."""

    m: int = 200
    mean_size: float = 10.0
    degree: int = 4

    def to_dict(self):
        return {"kind": "regular", "m": self.m, "mean_size": self.mean_size,
                "degree": self.degree}


@dataclass(frozen=True)
class TripNetworkSpec:
    """Fixed component-size profile with a global edge budget."""

    sizes: tuple = (2, 2, 2, 2, 2, 4, 5, 7, 10, 239)
    n_edges: int = 540

    def to_dict(self):
        return {"kind": "trip", "sizes": list(self.sizes), "n_edges": self.n_edges}


def network_spec_from_dict(d) -> object:
    kind = d.get("kind")
    if kind == "regular":
        return RegularNetworkSpec(int(d["m"]), float(d["mean_size"]), int(d["degree"]))
    if kind == "trip":
        return TripNetworkSpec(tuple(int(s) for s in d["sizes"]), int(d["n_edges"]))
    raise InputError(f"unknown network kind {kind!r}")


@dataclass(frozen=True)
class Scenario:
    network: object
    censoring_mode: str = "independent"      # independent | correlated
    censoring_re_sd: float = 0.3
    fit_censoring_as: str = "logistic"       # logistic | mixed
    covariate_p: float = 0.5
    censoring_coefs: tuple = (-3.0, 2.0)
    outcome_coefs: tuple = (-1.75, 0.5, 1.0, -1.5, 0.5)
    exposure_coefs: tuple = (0.7, -1.4)
    exposure_re_sd: float = 0.5
    allocs: tuple = (0.25, 0.5, 0.75)
    replicates: int = 1000
    seed: int = 1
    truth_mode: str = "per-replicate"        # per-replicate | fixed-average
    quad_nodes: int = 21

    def __post_init__(self):
        if self.replicates < 1:
            raise InputError("replicates must be at least 1")
        if self.censoring_mode not in ("independent", "correlated"):
            raise InputError(f"unknown censoring_mode {self.censoring_mode!r}")
        if self.fit_censoring_as not in ("logistic", "mixed"):
            raise InputError(f"unknown fit_censoring_as {self.fit_censoring_as!r}")
        if self.truth_mode not in ("per-replicate", "fixed-average"):
            raise InputError(f"unknown truth_mode {self.truth_mode!r}")
        if not self.allocs:
            raise InputError("at least one allocation is required")
        for a in self.allocs:
            if not 0.0 < a < 1.0:
                raise InputError("allocations must lie strictly in (0, 1)")
        if self.censoring_re_sd < 0 or self.exposure_re_sd < 0:
            raise InputError("random-effect sds must be nonnegative")
        object.__setattr__(self, "allocs", tuple(float(a) for a in self.allocs))
        object.__setattr__(self, "censoring_coefs", tuple(float(v) for v in self.censoring_coefs))
        object.__setattr__(self, "outcome_coefs", tuple(float(v) for v in self.outcome_coefs))
        object.__setattr__(self, "exposure_coefs", tuple(float(v) for v in self.exposure_coefs))

    def to_dict(self):
        d = {
            "network": self.network.to_dict(),
            "censoring_mode": self.censoring_mode,
            "censoring_re_sd": self.censoring_re_sd,
            "fit_censoring_as": self.fit_censoring_as,
            "covariate_p": self.covariate_p,
            "censoring_coefs": list(self.censoring_coefs),
            "outcome_coefs": list(self.outcome_coefs),
            "exposure_coefs": list(self.exposure_coefs),
            "exposure_re_sd": self.exposure_re_sd,
            "allocs": list(self.allocs),
            "replicates": self.replicates,
            "seed": self.seed,
            "truth_mode": self.truth_mode,
            "quad_nodes": self.quad_nodes,
        }
        return d

    @classmethod
    def from_dict(cls, d) -> "Scenario":
        d = dict(d)
        if "config" in d:  # accept a whole manifest
            d = dict(d["config"])
        try:
            network = network_spec_from_dict(d.pop("network"))
        except KeyError as exc:
            raise InputError("scenario is missing the network block") from exc
        known = {f for f in cls.__dataclass_fields__ if f != "network"}
        unknown = set(d) - known
        if unknown:
            raise InputError(f"unknown scenario field(s): {', '.join(sorted(unknown))}")
        for tup in ("censoring_coefs", "outcome_coefs", "exposure_coefs", "allocs"):
            if tup in d:
                d[tup] = tuple(d[tup])
        return cls(network=network, **d)

    def config_hash(self) -> str:
        return hash_config(self.to_dict())


@dataclass
class EstimandSummary:
    name: str
    true_value: float
    bias: float
    ese: object          # None when fewer than two successful replicates
    ase: float
    ecp: float


@dataclass
class SimReport:
    rows: list
    metadata: dict

    def to_json_obj(self):
        return {
            "metadata": self.metadata,
            "rows": [
                {"estimand": r.name, "true": r.true_value, "bias": r.bias,
                 "ese": r.ese, "ase": r.ase, "ecp": r.ecp}
                for r in self.rows
            ],
        }

    def csv_rows(self):
        from .io import fmt_num

        out = []
        for r in self.rows:
            out.append((r.name, fmt_num(r.true_value), fmt_num(r.bias),
                        fmt_num(r.ese), fmt_num(r.ase), fmt_num(r.ecp)))
        return out


def generate_network(spec, rng):
    if isinstance(spec, RegularNetworkSpec):
        return generate_regular_components(spec.m, spec.mean_size, spec.degree, rng)
    if isinstance(spec, TripNetworkSpec):
        return generate_trip_shaped(rng, spec.sizes, spec.n_edges)
    raise InputError(f"unknown network spec {type(spec).__name__}")


def generate_dataset(net, sc: Scenario, rng):
    """One replicate draw: (StudyData, CountPotentialOutcomes).

    Draw order is fixed (covariates, censoring intercepts, exposure
    intercepts, censoring, potential-outcome table, exposures) so that
    scenarios differing only in scale parameters consume identical uniform
    streams; a correlated scenario with sd 0 equals the independent one
    draw for draw.
    """
    n = net.n
    comp = net.component_id
    Z = (rng.random(n) < sc.covariate_p).astype(float)
    rho_scale = sc.censoring_re_sd if sc.censoring_mode == "correlated" else 0.0
    rho = rng.standard_normal(net.m) * rho_scale
    b = rng.standard_normal(net.m) * sc.exposure_re_sd

    xi0, xi1 = sc.censoring_coefs
    C = (rng.random(n) < expit(xi0 + xi1 * Z + rho[comp])).astype(np.int64)

    degrees = net.degrees
    block = 2 * (degrees + 1)
    offsets = np.concatenate([[0], np.cumsum(block)[:-1]]).astype(np.int64)
    total = int(block.sum())
    node_rep = np.repeat(np.arange(n), block)
    within = np.arange(total) - np.repeat(offsets, block)
    dd = degrees[node_rep]
    a_flat = (within >= dd + 1).astype(float)
    s_flat = (within - a_flat * (dd + 1)).astype(float)
    frac = np.where(dd > 0, s_flat / np.maximum(dd, 1), 0.0)
    b0, b_own, b_frac, b_int, b_z = sc.outcome_coefs
    lp = b0 + b_own * a_flat + b_frac * frac + b_int * a_flat * frac + b_z * Z[node_rep]
    flat = (rng.random(total) < expit(lp)).astype(float)
    table = est.CountPotentialOutcomes(flat, offsets, degrees)

    t0, t1 = sc.exposure_coefs
    A = (rng.random(n) < expit(t0 + t1 * Z + b[comp])).astype(np.int64)
    s_obs = est.observed_treated_counts(net, A).astype(np.int64)
    Y = table.realize(A, s_obs)
    Y = np.where(C == 1, np.nan, Y)
    data = est.StudyData(A=A, Z=Z[:, None], C=C, Y=Y)
    return data, table


def _designs(data):
    ones = np.ones(data.n)
    cols = [ones] + [data.Z[:, k] for k in range(data.Z.shape[1])]
    names = ("intercept",) + tuple(
        f"Z_{k + 1}" for k in range(data.Z.shape[1]))
    X = glm.DesignMatrix(np.column_stack(cols), names)
    return X, X


def run_one_replicate(net, sc: Scenario, seed_seq, var_partition=None):
    """(estimates, ases, truths) in stack target order for one replicate."""
    rng = np.random.default_rng(seed_seq)
    data, table = generate_dataset(net, sc, rng)
    Xp, Xc = _designs(data)
    pfit = glm.fit_mixed_logistic(Xp, data.A, net.components, quad_nodes=sc.quad_nodes)
    if sc.fit_censoring_as == "logistic":
        cfit = glm.fit_logistic(Xc, data.C)
        if not cfit.converged:
            raise ConvergenceError("censoring IRLS did not converge")
    else:
        cfit = glm.fit_mixed_logistic(Xc, data.C, net.components, quad_nodes=sc.quad_nodes)
    ctx = variance.build_context(
        net, data, pfit, cfit, Xp, Xc, sc.allocs,
        groups=var_partition, quad_nodes=sc.quad_nodes)
    res = variance.sandwich_from_context(ctx)
    truths = est.true_values(net, table, sc.allocs).ordered(sc.allocs, "stack")
    return ctx.estimates.copy(), res.target_ses(), truths


_WORKER = {}


def _worker_init(net, sc, part):
    _WORKER["net"] = net
    _WORKER["sc"] = sc
    _WORKER["part"] = part


def _worker_run(task):
    r, seed_seq = task
    try:
        out = run_one_replicate(_WORKER["net"], _WORKER["sc"], seed_seq, _WORKER["part"])
        return ("ok", out)
    except (ConvergenceError, PositivityError, NumericalError) as exc:
        return ("fail", f"replicate {r}: {type(exc).__name__}: {exc}")


def run_replicates(sc: Scenario, threads: int = 1,
                   grouping: str = "components") -> SimReport:
    """Run the full replicate loop and summarize bias / ESE / ASE / ECP.

    `grouping` picks the sandwich's variance groups: the network's
    components, or its fast-greedy modularity communities. Failed
    replicates (non-convergence, positivity, conditioning) are skipped and
    recorded; more than 5% failures flags the report.
    """
    if threads < 1:
        raise InputError("threads must be at least 1")
    if grouping not in ("components", "communities"):
        raise InputError(f"unknown grouping {grouping!r}")
    root = np.random.SeedSequence(sc.seed)
    children = root.spawn(sc.replicates + 1)
    net = generate_network(sc.network, np.random.default_rng(children[0]))
    part = fast_greedy_communities(net) if grouping == "communities" else None

    tasks = [(r, children[r + 1]) for r in range(sc.replicates)]
    if threads == 1:
        _worker_init(net, sc, part)
        results = [_worker_run(t) for t in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_worker_init,
            initargs=(net, sc, part),
        ) as ex:
            chunk = max(1, sc.replicates // (4 * threads))
            results = list(ex.map(_worker_run, tasks, chunksize=chunk))

    estimates, ases, truths, failures = [], [], [], []
    for (r, _), (status, payload) in zip(tasks, results):
        if status == "ok":
            e, a, t = payload
            estimates.append(e)
            ases.append(a)
            truths.append(t)
        else:
            failures.append(payload)
    n_ok = len(estimates)
    if n_ok == 0:
        raise NumericalError("every replicate failed; nothing to summarize")
    fail_frac = len(failures) / sc.replicates
    if fail_frac > FAILURE_WARN_FRACTION:
        warnings.warn(f"{len(failures)} of {sc.replicates} replicates failed")

    E = np.vstack(estimates)
    S = np.vstack(ases)
    T = np.vstack(truths)
    stack_keys = est.stack_targets(sc.allocs)
    report_keys = est.report_targets(sc.allocs)
    col = {k: j for j, k in enumerate(stack_keys)}

    rows = []
    for key in report_keys:
        j = col[key]
        e, s, t = E[:, j], S[:, j], T[:, j]
        t_for_cover = t if sc.truth_mode == "per-replicate" else np.full_like(t, t.mean())
        covered = np.abs(e - t_for_cover) <= est.Z975 * s
        rows.append(EstimandSummary(
            name=est.estimand_name(*key),
            true_value=float(t.mean()),
            bias=float(e.mean() - t.mean()),
            ese=float(np.std(e, ddof=1)) if n_ok >= 2 else None,
            ase=float(s.mean()),
            ecp=float(covered.mean()),
        ))

    notes = [
        "coverage measured against "
        + ("each replicate's own truth" if sc.truth_mode == "per-replicate"
           else "the across-replicate average truth"),
    ]
    if isinstance(sc.network, RegularNetworkSpec):
        notes.append(
            "component sizes drawn Poisson(mean_size) and redrawn until "
            "size >= degree+1 with size*degree even; the truncation raises "
            "the realized mean size slightly")
    metadata = {
        "config": sc.to_dict(),
        "config_hash": sc.config_hash(),
        "seed": sc.seed,
        "n_nodes": net.n,
        "n_components": net.m,
        "variance_grouping": "components" if part is None else "fast-greedy communities",
        "variance_groups": net.m if part is None else int(part.group_count),
        "replicates_requested": sc.replicates,
        "replicates_succeeded": n_ok,
        "failures": failures,
        "failure_warning": fail_frac > FAILURE_WARN_FRACTION,
        "notes": notes,
    }
    return SimReport(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# derived studies

@dataclass
class SweepEntry:
    re_sd: float
    reports: dict        # fit label ("logistic" | "mixed") -> SimReport


def sweep_re_sd(base: Scenario, sds, threads: int = 1) -> list:
    """Correlated-censoring sensitivity sweep, each sd fit both ways.

    Both fits share the scenario seed, so they see identical datasets and
    differ only in the censoring working model.
    """
    entries = []
    for sd in sds:
        reports = {}
        for fit_as in ("logistic", "mixed"):
            sc = replace(base, censoring_mode="correlated",
                         censoring_re_sd=float(sd), fit_censoring_as=fit_as)
            reports[fit_as] = run_replicates(sc, threads=threads)
        entries.append(SweepEntry(re_sd=float(sd), reports=reports))
    return entries


@dataclass
class TripStructureResult:
    by_components: SimReport
    by_communities: SimReport
    n_communities: int


def trip_structure_scenario(base: Scenario = None, threads: int = 1) -> TripStructureResult:
    """Same replicates, two variance groupings: components vs communities.

    Point estimates are grouping-invariant (identical seeds and fits); only
    B_m and k_hat change, which is the whole comparison.
    """
    if base is None:
        base = preset_scenario("paper-trip")
    if not isinstance(base.network, TripNetworkSpec):
        raise InputError("structure comparison expects the trip-shaped network")
    by_comp = run_replicates(base, threads=threads)
    by_comm = run_replicates(base, threads=threads, grouping="communities")
    return TripStructureResult(by_components=by_comp, by_communities=by_comm,
                               n_communities=by_comm.metadata["variance_groups"])


def apply_overrides(sc: Scenario, m=None, replicates=None, seed=None,
                    censoring: str = None, truth_mode: str = None,
                    allocs=None) -> Scenario:
    """Common CLI knobs applied to any scenario.

    censoring="logistic" pairs independent generation with a fixed-effects
    fit; censoring="mixed" pairs correlated generation (sd 0.3) with the
    mixed fit, mirroring the two headline study arms.
    """
    if censoring is not None:
        if censoring == "logistic":
            sc = replace(sc, censoring_mode="independent", fit_censoring_as="logistic")
        elif censoring == "mixed":
            sc = replace(sc, censoring_mode="correlated", censoring_re_sd=0.3,
                         fit_censoring_as="mixed")
        else:
            raise InputError(f"unknown censoring option {censoring!r}")
    if m is not None:
        if not isinstance(sc.network, RegularNetworkSpec):
            raise InputError("m only applies to regular-component networks")
        sc = replace(sc, network=replace(sc.network, m=int(m)))
    if replicates is not None:
        sc = replace(sc, replicates=int(replicates))
    if seed is not None:
        sc = replace(sc, seed=int(seed))
    if truth_mode is not None:
        sc = replace(sc, truth_mode=truth_mode)
    if allocs is not None:
        sc = replace(sc, allocs=tuple(float(a) for a in allocs))
    return sc


def preset_scenario(name: str, **overrides) -> Scenario:
    """Named study presets; keyword overrides as in apply_overrides."""
    if name == "paper-main":
        sc = Scenario(network=RegularNetworkSpec(m=200), replicates=1000, seed=1031)
    elif name == "paper-sweep":
        sc = Scenario(network=RegularNetworkSpec(m=100), replicates=500, seed=2057,
                      censoring_mode="correlated", fit_censoring_as="mixed")
    elif name == "paper-trip":
        sc = Scenario(network=TripNetworkSpec(), replicates=500, seed=3083)
    else:
        raise InputError(f"unknown preset {name!r}")
    return apply_overrides(sc, **overrides)
