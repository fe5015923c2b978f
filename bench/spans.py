"""Span recording by wrapping netspill's module functions from outside.

`Tracer.install()` replaces every public function of the package modules
(the layers cli, io, netgraph, glm, weights, estimator, variance, sim) with
a wrapper that records a span: name, duration, and the time covered by the
spans it caused. A function imported by name into another module is a
second binding, so every binding of a wrapped function is replaced, in
every netspill module. Click commands are wrapped through their callbacks
(`cli.estimate`, `cli.communities`, ...), and the two recomputation methods
of the variance context are wrapped so that work under `compute_A` can be
counted.

Spans stay in memory as per-name aggregates: calls, total seconds, self
seconds (total minus child spans) and the first call's duration. Hooks
attach counts at the same boundaries. Nothing under src/ is modified on
disk; the wrapping lives only in the traced process.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "netgraph", "glm", "weights", "estimator", "variance", "sim")
# (N, K) float64 arrays each quadrature call materialises; bytes_computed is
# 8 * entries * quad nodes * this count, computed from array sizes
QUAD_ARRAYS = {"grouped_marginal_logliks": 5, "grouped_posterior_bundle": 10}
QUAD_DEFAULT_NODES = 21
RECOMPUTE_SPANS = ("weights.log_propensity_density_all", "variance._Context.logs_at")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stack = []                      # [name, child seconds] per open span
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.first = {}
        self.counts = defaultdict(float)
        self.pattern_inputs = []             # (net, A, design) seen by build_context
        self.pattern_base = 0                # neighbourhoods behind the pattern ratio
        self._hooks = {
            "glm.fit_mixed_logistic": self._fit_iterations,
            "glm.grouped_marginal_logliks": self._quadrature,
            "glm.grouped_posterior_bundle": self._quadrature,
            "io.read_nodes_csv": self._file_bytes,
            "io.read_edges_csv": self._file_bytes,
            "netgraph.fast_greedy_communities": self._merges,
            "variance.build_context": self._pattern_input,
        }

    # -- span core ----------------------------------------------------------

    def wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self.stack.append(frame)
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.first.setdefault(name, dt)
                if self.stack:
                    self.stack[-1][1] += dt
                if name in RECOMPUTE_SPANS and any(
                        f[0] == "variance.compute_A" for f in self.stack):
                    self.counts["variance.compute_A.density_recomputes"] += 1
                if hook is not None:
                    hook(name, args, kwargs, result, error)

        return wrapper

    def install(self):
        """Wrap every public function of each layer, at every binding."""
        import click

        from netspill import variance

        modules = {layer: __import__(f"netspill.{layer}", fromlist=["_"])
                   for layer in LAYERS}
        wrapped = {}                          # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, click.Command) and obj.callback is not None \
                        and layer == "cli":
                    obj.callback = self.wrap(f"cli.{obj.name}", obj.callback)
        for meth in ("logf_at", "logs_at"):
            setattr(variance._Context, meth,
                    self.wrap(f"variance._Context.{meth}", getattr(variance._Context, meth)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "netspill" and not mod_name.startswith("netspill."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    # -- hooks (counts at the same boundaries) -------------------------------

    def _fit_iterations(self, name, args, kwargs, result, error):
        fit = result if result is not None else getattr(error, "last", None)
        if fit is not None:
            self.counts["glm.fit_mixed_logistic.iterations"] += fit.iterations

    def _quadrature(self, name, args, kwargs, result, error):
        lp0 = args[1] if len(args) > 1 else kwargs["lp0"]
        k = args[4] if len(args) > 4 else kwargs.get("quad_nodes", QUAD_DEFAULT_NODES)
        evals = lp0.size * int(k)
        self.counts["glm.quadrature.entry_evals"] += evals
        self.counts["glm.quadrature.bytes_computed"] += \
            8 * evals * QUAD_ARRAYS[name.split(".")[1]]

    def _file_bytes(self, name, args, kwargs, result, error):
        path = args[0] if args else kwargs.get("path")
        self.counts["io.read.bytes"] += os.path.getsize(path)

    def _merges(self, name, args, kwargs, result, error):
        if result is not None:
            self.counts["netgraph.fast_greedy_communities.merges"] += \
                result.n - result.group_count

    def _pattern_input(self, name, args, kwargs, result, error):
        if result is not None:
            net, data, design = args[0], args[1], args[4]
            self.pattern_inputs.append((net, data.A, design.values))

    # -- derived per-layer metrics -------------------------------------------

    def _sum(self, table, *names):
        return float(sum(table.get(n, 0.0) for n in names))

    def layer_metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric; 0 where the workload never enters the layer."""
        gen = [n for n in self.total if n.startswith("netgraph.generate_")]
        quad = ("glm.grouped_marginal_logliks", "glm.grouped_posterior_bundle")
        reads = ("io.read_nodes_csv", "io.read_edges_csv", "io.network_from_files")
        ratio, self.pattern_base = distinct_pattern_ratio(self.pattern_inputs)
        m = {
            "netgraph.generate.total_s": (self._sum(self.total, *gen), "s"),
            "netgraph.build_network.total_s":
                (self._sum(self.total, "netgraph.build_network"), "s"),
            "netgraph.fast_greedy_communities.total_s":
                (self._sum(self.total, "netgraph.fast_greedy_communities"), "s"),
            "netgraph.fast_greedy_communities.merges":
                (self.counts["netgraph.fast_greedy_communities.merges"], "count"),
            "io.read.self_s": (self._sum(self.self_time, *reads), "s"),
            "io.read.bytes": (self.counts["io.read.bytes"], "bytes"),
            "glm.fit_mixed_logistic.total_s":
                (self._sum(self.total, "glm.fit_mixed_logistic"), "s"),
            "glm.fit_mixed_logistic.calls":
                (self._sum(self.calls, "glm.fit_mixed_logistic"), "count"),
            "glm.fit_mixed_logistic.iterations":
                (self.counts["glm.fit_mixed_logistic.iterations"], "count"),
            "glm.fit_logistic.total_s": (self._sum(self.total, "glm.fit_logistic"), "s"),
            "glm.quadrature.self_s": (self._sum(self.self_time, *quad), "s"),
            "glm.quadrature.calls": (self._sum(self.calls, *quad), "count"),
            "glm.quadrature.entry_evals": (self.counts["glm.quadrature.entry_evals"], "count"),
            "glm.quadrature.bytes_computed":
                (self.counts["glm.quadrature.bytes_computed"], "bytes"),
            "weights.log_propensity_density_all.total_s":
                (self._sum(self.total, "weights.log_propensity_density_all"), "s"),
            "weights.log_propensity_density_all.calls":
                (self._sum(self.calls, "weights.log_propensity_density_all"), "count"),
            "weights.distinct_pattern_ratio": (ratio, "ratio"),
            "weights.weight_diagnostics.total_s":
                (self._sum(self.total, "weights.weight_diagnostics"), "s"),
            "estimator.target_terms.total_s":
                (self._sum(self.total, "estimator.target_terms"), "s"),
            "estimator.target_terms.calls":
                (self._sum(self.calls, "estimator.target_terms"), "count"),
            "estimator.true_values.total_s":
                (self._sum(self.total, "estimator.true_values"), "s"),
            "estimator.true_values.first_call_s":
                (float(self.first.get("estimator.true_values", 0.0)), "s"),
            "variance.build_context.self_s":
                (self._sum(self.self_time, "variance.build_context"), "s"),
            "variance.component_psi.total_s":
                (self._sum(self.total, "variance.component_psi"), "s"),
            "variance.sandwich.total_s":
                (self._sum(self.total, "variance.build_context",
                           "variance.sandwich_from_context"), "s"),
            "variance.compute_A.self_s": (self._sum(self.self_time, "variance.compute_A"), "s"),
            "variance.compute_A.total_s": (self._sum(self.total, "variance.compute_A"), "s"),
            "variance.compute_A.density_recomputes":
                (self.counts["variance.compute_A.density_recomputes"], "count"),
            "sim.generate_dataset.total_s": (self._sum(self.total, "sim.generate_dataset"), "s"),
            "sim.run_one_replicate.total_s":
                (self._sum(self.total, "sim.run_one_replicate"), "s"),
            "sim.run_one_replicate.calls":
                (self._sum(self.calls, "sim.run_one_replicate"), "count"),
            "cli.estimate.self_s": (self._sum(self.self_time, "cli.estimate"), "s"),
            "cli.communities.self_s": (self._sum(self.self_time, "cli.communities"), "s"),
            "trace.overhead_s": (float(overhead_s), "s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def distinct_pattern_ratio(inputs):
    """Distinct closed-neighbourhood multisets of (design row, exposure).

    Pooled over every (network, exposures, design) seen: returns (distinct
    multisets / neighbourhoods, neighbourhoods). The base is the node count
    summed over the datasets; one neighbourhood per node.
    """
    import numpy as np

    distinct, base = 0, 0
    for net, A, X in inputs:
        rows = np.column_stack([X, A])
        _, code = np.unique(rows, axis=0, return_inverse=True)
        code = code.ravel()
        seen = set()
        for i in range(net.n):
            seen.add(tuple(sorted([int(code[i])] + code[list(net.adjacency[i])].tolist())))
        distinct += len(seen)
        base += net.n
    return (distinct / base if base else 0.0), base
