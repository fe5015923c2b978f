"""Command-line interface.

Four subcommands: estimate (observed data), simulate (one scenario),
sweep (censoring-heterogeneity sensitivity), communities (modularity
partition of an edge list). Every run writes a manifest.json with the
resolved config, its hash, the seed, and the library version; re-running
the same config reproduces all outputs byte for byte.

Exit codes: 2 malformed input or config, 3 non-convergence or unstable
linear algebra, 4 positivity (weight denominator underflow).
"""
from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import __version__
from . import estimator as est
from . import glm
from . import io
from . import netgraph
from . import sim as simmod
from . import variance
from . import weights as wt
from .errors import (
    ConvergenceError,
    GenerationError,
    InputError,
    NetspillError,
    NumericalError,
    PositivityError,
)


def _parse_floats(text, what):
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InputError(f"cannot parse {what} list {text!r}") from exc
    if not vals:
        raise InputError(f"empty {what} list")
    return vals


def _default_threads():
    raw = os.environ.get("NETSPILL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise InputError(f"bad NETSPILL_THREADS value {raw!r}") from exc


def _write_manifest(out_dir, command, cfg, seed, outputs, threads=None):
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "config_hash": simmod.hash_config(cfg),
        "seed": seed,
        "outputs": sorted(outputs),
    }
    if threads is not None:
        manifest["runtime"] = {"threads": threads}
    io.write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)


def _ensure_out(out):
    os.makedirs(out, exist_ok=True)
    return out


@click.group()
@click.version_option(__version__, prog_name="netspill")
def cli():
    """Network spillover effects under censoring: estimation and simulation."""


@cli.command("estimate")
@click.option("--edges", required=True, help="Edge CSV with columns src,dst.")
@click.option("--nodes", required=True,
              help="Node CSV with columns id,A,C,Y,Z_* (Y blank iff C=1).")
@click.option("--alloc", default="0.25,0.5,0.75", show_default=True,
              help="Comma-separated allocation probabilities.")
@click.option("--censoring", type=click.Choice(["logistic", "mixed"]),
              default="logistic", show_default=True)
@click.option("--keep-isolates", is_flag=True,
              help="Keep degree-zero nodes instead of dropping them.")
@click.option("--weight-threshold", default=wt.DEFAULT_WEIGHT_THRESHOLD,
              show_default=True, type=click.FloatRange(min=0.0, min_open=True))
@click.option("--quad-nodes", default=glm.DEFAULT_QUAD_NODES, show_default=True, type=int)
@click.option("--dump-matrices", is_flag=True,
              help="Also write the sandwich A/B/sigma at full precision.")
@click.option("--out", default=".", show_default=True)
def cmd_estimate(edges, nodes, alloc, censoring, keep_isolates, weight_threshold,
                 quad_nodes, dump_matrices, out):
    """Estimate direct/spillover effects from an observed network study."""
    out = _ensure_out(out)
    allocs = _parse_floats(alloc, "allocation")
    ids, A, C, Y, Z, z_names = io.read_nodes_csv(nodes)
    net = io.network_from_files(edges, ids)
    data = est.StudyData(A=A, Z=Z, C=C, Y=Y)
    if not keep_isolates:
        net, keep = netgraph.remove_isolates(net)
        if keep.size < data.n:
            click.echo(f"removed {data.n - keep.size} isolated node(s)")
        data, ids = data.subset(keep), [ids[k] for k in keep]

    ones = np.ones(data.n)
    prop_design = glm.DesignMatrix(
        np.column_stack([ones, data.Z]), ("intercept",) + tuple(z_names))
    cens_design = glm.DesignMatrix(
        np.column_stack([ones, data.Z, data.A.astype(float)]),
        ("intercept",) + tuple(z_names) + ("A",))

    pfit = glm.fit_mixed_logistic(prop_design, data.A, net.components,
                                  quad_nodes=quad_nodes)
    if censoring == "logistic":
        cfit = glm.fit_logistic(cens_design, data.C)
    else:
        cfit = glm.fit_mixed_logistic(cens_design, data.C, net.components,
                                      quad_nodes=quad_nodes)

    ctx = variance.build_context(net, data, pfit, cfit, prop_design, cens_design, allocs,
                                 quad_nodes=quad_nodes)
    s = wt.censoring_survival_all(cens_design, cfit)
    report = wt.weight_diagnostics(data, ctx.logf, s, weight_threshold)
    res = variance.sandwich_from_context(ctx)
    estimates = {k: float(v) for k, v in
                 zip(res.stack.target_keys,
                     res.stack.values[res.stack.target_slice])}
    rows = est.effect_table(estimates, allocs, res)

    io.write_csv_atomic(
        os.path.join(out, "effects.csv"),
        ("kind", "alpha1", "alpha0", "rd", "se", "ci_lo", "ci_hi"),
        [(r.kind, io.fmt_num(r.alpha1), io.fmt_num(r.alpha0), io.fmt_num(r.rd),
          io.fmt_num(r.se), io.fmt_num(r.ci_lo), io.fmt_num(r.ci_hi)) for r in rows])
    io.write_csv_atomic(
        os.path.join(out, "weights.csv"),
        ("node", "f", "s", "weight", "flag"),
        [(ids[i], io.fmt_num(f), io.fmt_num(s),
          io.fmt_num(w) if w != "" else "", flag)
         for (i, f, s, w, flag) in report.rows()])

    def fit_dict(fit, design):
        d = {
            "coefficients": {c: float(v) for c, v in
                             zip(design.column_names, np.asarray(fit.coefficients))},
            "re_sd": float(getattr(fit, "re_sd", 0.0)),
            "log_likelihood": float(fit.log_likelihood),
            "converged": bool(fit.converged),
        }
        notes = []
        if isinstance(fit, glm.MixedLogisticFit) and fit.re_sd == 0.0:
            notes.append("random-intercept sd collapsed to 0; logistic-equivalent fit")
        if fit.separation_warning:
            notes.append("separation warning: some coefficient beyond 15")
        if notes:
            d["note"] = "; ".join(notes)
        return d

    summary = {
        "n_nodes": net.n,
        "n_components": net.m,
        "allocations": list(allocs),
        "propensity": fit_dict(pfit, prop_design),
        "censoring": fit_dict(cfit, cens_design),
        "estimates": {est.estimand_name(*k): v for k, v in estimates.items()},
        "flagged_weights": report.n_flagged,
    }
    io.write_json_atomic(os.path.join(out, "fit_summary.json"), summary)
    outputs = ["effects.csv", "weights.csv", "fit_summary.json"]
    if dump_matrices:
        res.dump(os.path.join(out, "sandwich.txt"))
        outputs.append("sandwich.txt")
    cfg = {"edges": edges, "nodes": nodes, "alloc": list(allocs),
           "censoring": censoring, "keep_isolates": bool(keep_isolates),
           "weight_threshold": weight_threshold, "quad_nodes": quad_nodes}
    _write_manifest(out, "estimate", cfg, None, outputs)
    click.echo(f"wrote {', '.join(outputs)} to {out}")


def _load_scenario(preset, scenario, m, replicates, seed, censoring, truth_ecp, alloc):
    if scenario is not None:
        try:
            with open(scenario) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot open scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"scenario file is not valid JSON: {exc}") from exc
        if isinstance(payload, dict) and "config" in payload:
            payload = payload["config"]
        if isinstance(payload, dict):
            # drop CLI-layer keys a manifest config may carry
            payload = {k: v for k, v in payload.items()
                       if k not in ("grouping", "sds")}
        sc = simmod.Scenario.from_dict(payload)
    else:
        sc = simmod.preset_scenario(preset)
    allocs = _parse_floats(alloc, "allocation") if alloc is not None else None
    return simmod.apply_overrides(sc, m=m, replicates=replicates, seed=seed,
                                  censoring=censoring, truth_mode=truth_ecp,
                                  allocs=allocs)


def _write_simreport(out, report, prefix="simreport"):
    io.write_csv_atomic(
        os.path.join(out, f"{prefix}.csv"),
        ("estimand", "true", "bias", "ese", "ase", "ecp"),
        report.csv_rows())
    io.write_json_atomic(os.path.join(out, f"{prefix}.json"), report.to_json_obj())
    return [f"{prefix}.csv", f"{prefix}.json"]


@cli.command("simulate")
@click.option("--preset", type=click.Choice(["paper-main", "paper-sweep", "paper-trip"]),
              default="paper-main", show_default=True)
@click.option("--scenario", default=None,
              help="Scenario JSON (a config block or a previous manifest).")
@click.option("--m", default=None, type=int, help="Component count override.")
@click.option("--replicates", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--censoring", type=click.Choice(["logistic", "mixed"]), default=None)
@click.option("--alloc", default=None, help="Comma-separated allocations override.")
@click.option("--truth-ecp", type=click.Choice(["per-replicate", "fixed-average"]),
              default=None)
@click.option("--grouping", type=click.Choice(["components", "communities"]),
              default="components", show_default=True,
              help="Variance grouping for the sandwich.")
@click.option("--threads", default=None, type=int,
              help="Worker processes (default: NETSPILL_THREADS or 1).")
@click.option("--out", default=".", show_default=True)
def cmd_simulate(preset, scenario, m, replicates, seed, censoring, alloc, truth_ecp,
                 grouping, threads, out):
    """Run one simulation scenario and report bias / ESE / ASE / ECP."""
    out = _ensure_out(out)
    threads = threads if threads is not None else _default_threads()
    sc = _load_scenario(preset, scenario, m, replicates, seed, censoring,
                        truth_ecp, alloc)
    part = None
    label = "components"
    if grouping == "communities":
        net = simmod.generate_network(
            sc.network,
            np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(1)[0]))
        part = netgraph.fast_greedy_communities(net)
        label = "fast-greedy communities"
    report = simmod.run_replicates(sc, threads=threads, variance_partition=part,
                                   partition_label=label)
    outputs = _write_simreport(out, report)
    _write_manifest(out, "simulate", {**sc.to_dict(), "grouping": grouping},
                    sc.seed, outputs, threads=threads)
    click.echo(f"wrote {', '.join(outputs)} to {out}")


@cli.command("sweep")
@click.option("--preset", type=click.Choice(["paper-main", "paper-sweep", "paper-trip"]),
              default="paper-sweep", show_default=True)
@click.option("--scenario", default=None)
@click.option("--sds", default="0.1,0.2,0.3,0.4,0.5", show_default=True,
              help="Censoring random-intercept sds to sweep.")
@click.option("--m", default=None, type=int)
@click.option("--replicates", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--threads", default=None, type=int)
@click.option("--out", default=".", show_default=True)
def cmd_sweep(preset, scenario, sds, m, replicates, seed, threads, out):
    """Sweep censoring heterogeneity, fitting each dataset both ways."""
    out = _ensure_out(out)
    threads = threads if threads is not None else _default_threads()
    sd_list = _parse_floats(sds, "sd")
    sc = _load_scenario(preset, scenario, m, replicates, seed, None, None, None)
    entries = simmod.sweep_re_sd(sc, sd_list, threads=threads)
    rows = []
    json_entries = []
    for entry in entries:
        for fit_label in ("logistic", "mixed"):
            rep = entry.reports[fit_label]
            for r in rep.rows:
                rows.append((io.fmt_num(entry.re_sd), fit_label, r.name,
                             io.fmt_num(r.true_value), io.fmt_num(r.bias),
                             io.fmt_num(r.ese), io.fmt_num(r.ase), io.fmt_num(r.ecp)))
            json_entries.append({"re_sd": entry.re_sd, "fit": fit_label,
                                 "report": rep.to_json_obj()})
    io.write_csv_atomic(
        os.path.join(out, "sweep.csv"),
        ("re_sd", "fit", "estimand", "true", "bias", "ese", "ase", "ecp"), rows)
    io.write_json_atomic(os.path.join(out, "sweep.json"), json_entries)
    outputs = ["sweep.csv", "sweep.json"]
    _write_manifest(out, "sweep", {**sc.to_dict(), "sds": list(sd_list)},
                    sc.seed, outputs, threads=threads)
    click.echo(f"wrote {', '.join(outputs)} to {out}")


@cli.command("communities")
@click.option("--edges", required=True, help="Edge CSV with columns src,dst.")
@click.option("--nodes", default=None,
              help="Optional node CSV fixing the node universe and order.")
@click.option("--out", default=".", show_default=True)
def cmd_communities(edges, nodes, out):
    """Fast-greedy modularity communities of an edge list."""
    out = _ensure_out(out)
    ids = io.read_nodes_csv(nodes)[0] if nodes is not None else None
    pairs = io.read_edges_csv(edges)
    if ids is None:
        # nodes in order of first appearance
        ids = list(dict.fromkeys(node for pair in pairs for node in pair))
        if not ids:
            raise InputError(f"{edges}: no edges found")
    net = io.network_from_files(edges, ids, pairs)
    part = netgraph.fast_greedy_communities(net)
    q = netgraph.modularity(net, part)
    io.write_csv_atomic(
        os.path.join(out, "communities.csv"), ("node", "community"),
        [(ids[i], int(part.labels[i])) for i in range(net.n)])
    sizes = sorted(part.sizes.tolist(), reverse=True)
    click.echo(f"{part.group_count} communities on {net.n} nodes, modularity "
               f"{io.fmt_num(q)}; sizes {sizes}")
    _write_manifest(out, "communities", {"edges": edges, "nodes": nodes}, None,
                    ["communities.csv"])


_EXIT_CODES = (
    (InputError, 2),
    (GenerationError, 2),
    (PositivityError, 4),
    (ConvergenceError, 3),
    (NumericalError, 3),
)


def main(argv=None):
    try:
        cli(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(2)
    except NetspillError as exc:
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                click.echo(f"error: {exc}", err=True)
                sys.exit(code)
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
