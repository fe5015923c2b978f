"""One benchmark workload in a fresh interpreter: set up, measure, check.

bench/run.py starts this script and passes the monotonic clock reading it
took just before the start, so `setup_s` counts interpreter start-up,
imports and the workload's own set-up. Input files are generated by the
parent beforehand and never timed here.

The last line of standard output is the JSON result. With --trace 1 the
process installs the span wrappers of bench/spans.py before any set-up
work, runs a traced round between two untraced ones (the reference wall
time), and reports the per-layer metrics instead of the end-to-end ones.
"""
import time

import argparse
import contextlib
import io as pyio
import json
import os
import re
import resource
import shutil
import sys
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402  (standard library and numpy only)

SIM_PRESETS = {
    # name: (preset, replicates per round); the first and last replicates of
    # a round are re-run step by step for the checks
    "sim-main": ("paper-main", 10),
    "sim-trip": ("paper-trip", 50),
}
POOL_PREFIX = 6          # replicates in the serial-vs-pool byte comparison
DENSITY_SAMPLE = 30      # nodes per re-checked replicate
ESTIMATE_SAMPLE = 200    # nodes re-checked in estimate-large's weights.csv
RECOVERY_SES = 4.0


def peak_rss_mb():
    """Largest resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Run:
    def __init__(self, args):
        self.args = args
        self.tracer = None
        self.setup_s = None
        self.failures = []
        self.named = {}            # workload-specific end-to-end figures, printed
        self.rounds = []           # wall seconds of each measured round
        self.rss = None            # peak_rss_mb, read right after the rounds
        self.overhead = None       # traced minus untraced round, traced runs only
        self.attempted = 0
        self.failed = 0

    def imported(self):
        """Called once the program is imported: tracing starts here."""
        if self.args.trace:
            from spans import Tracer

            self.tracer = Tracer()
            self.tracer.install()

    def ready(self):
        self.setup_s = time.monotonic() - self.args.t0

    def measure(self, op):
        """Whole rounds of `op` until --seconds have passed; returns their results.

        A traced run makes an untraced, a traced and an untraced round; the
        overhead is the traced round minus the faster untraced one. Round
        wall times, peak memory and the trace overhead are kept.
        """
        results = []
        if self.tracer is None:
            start = time.perf_counter()
            while not self.rounds or time.perf_counter() - start < self.args.seconds:
                t = time.perf_counter()
                results.append(op())
                self.rounds.append(time.perf_counter() - t)
        else:
            for traced in (False, True, False):
                self.tracer.enabled = traced
                t = time.perf_counter()
                results.append(op())
                if traced:
                    traced_s = time.perf_counter() - t
                else:
                    self.rounds.append(time.perf_counter() - t)
            self.tracer.enabled = False      # the checks that follow are not traced
            self.overhead = traced_s - min(self.rounds)
        self.rss = peak_rss_mb()
        return results


def call_cli(cli, argv):
    """Run one netspill command in-process; returns (exit code, stdout)."""
    buf = pyio.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# simulation workloads


def sim_workload(run, name):
    import numpy as np

    from netspill import glm, sim, variance
    from netspill import estimator as est
    from netspill import weights as wt

    run.imported()
    preset, reps = SIM_PRESETS[name]
    sc = sim.preset_scenario(preset, replicates=reps)
    children = np.random.SeedSequence(sc.seed).spawn(reps + 1)
    net = sim.generate_network(sc.network, np.random.default_rng(children[0]))
    sim.run_one_replicate(net, sc, children[1])     # warm-up: first-call costs land here
    run.ready()

    reports = run.measure(lambda: sim.run_replicates(sc, threads=1))
    run.attempted = reps * len(reports)
    run.failed = sum(len(r.metadata["failures"]) for r in reports)
    ok = [reps - len(r.metadata["failures"]) for r in reports]
    run.named["replicates_per_s"] = (max(k / t for k, t in zip(ok, run.rounds)), "1/s")

    # -- checks ------------------------------------------------------------
    blobs = [json.dumps(r.to_json_obj(), sort_keys=True).encode() for r in reports]
    for b in blobs[1:]:
        run.failures += checks.check_identical("repeated round report", blobs[0], b)
    rep = reports[0]
    keys = est.report_targets(sc.allocs)
    run.failures += checks.check_bias(
        [(r.name, r.bias, r.ese) for r in rep.rows], rep.metadata["replicates_succeeded"])
    run.failures += checks.check_identity(
        {k: r.true_value + r.bias for k, r in zip(keys, rep.rows)}, sc.allocs)

    pick = np.random.default_rng(run.args.seed)
    for r in (0, reps - 1):
        data, table = sim.generate_dataset(net, sc, np.random.default_rng(children[r + 1]))
        ones = np.ones(data.n)
        X = glm.DesignMatrix(np.column_stack([ones, data.Z]), ("intercept", "Z_1"))
        pfit = glm.fit_mixed_logistic(X, data.A, net.components, quad_nodes=sc.quad_nodes)
        cfit = glm.fit_logistic(X, data.C)
        ctx = variance.build_context(net, data, pfit, cfit, X, X, sc.allocs,
                                     quad_nodes=sc.quad_nodes)
        res = variance.sandwich_from_context(ctx)

        nodes = np.sort(pick.choice(net.n, size=DENSITY_SAMPLE, replace=False))
        logf = wt.log_propensity_density_all(net, data.A, X, pfit)
        lp = X.values @ pfit.coefficients
        ref = [checks.gh_log_density(lp[[i, *net.adjacency[i]]],
                                     data.A[[i, *net.adjacency[i]]], pfit.re_sd)
               for i in nodes]
        run.failures += checks.check_density(nodes, logf[nodes], ref, rtol=1e-7)
        run.failures += checks.check_truth(
            est.true_values(net, table, sc.allocs).values,
            checks.truth_by_comb(table.flat, table.offsets, table.degrees, sc.allocs))
        run.failures += checks.check_identity(dict(zip(ctx.keys, ctx.estimates)), sc.allocs)
        run.failures += checks.check_psi_sums(variance.component_psi(ctx), ctx.stack.names)
        ts = ctx.stack.target_slice
        run.failures += checks.check_psd(res.sigma[ts, ts], ctx.stack.names[ts])

    if name == "sim-trip":
        # the same prefix of replicates, serial and with a 2-worker pool
        from dataclasses import replace

        short = replace(sc, replicates=POOL_PREFIX)
        serial, pooled = (sim.run_replicates(short, threads=t) for t in (1, 2))
        run.failures += checks.check_identical(
            "serial vs 2-worker report",
            json.dumps([serial.to_json_obj(), serial.csv_rows()]).encode(),
            json.dumps([pooled.to_json_obj(), pooled.csv_rows()]).encode())
    return min(run.rounds) / reps


# ---------------------------------------------------------------------------
# command workloads


def read_table(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def command_workload(run, argv, figure):
    """Rounds of one netspill command; a failed call counts as a failed operation."""
    import netspill.cli as cli

    run.imported()
    run.ready()
    results = run.measure(lambda: call_cli(cli, argv))
    run.attempted = len(results)
    run.failed = sum(code != 0 for code, _ in results)
    run.named[figure] = (min(run.rounds), "s")
    return results


def estimate_workload(run, in_dir, out_dir):
    argv = ["estimate", "--edges", os.path.join(in_dir, "edges.csv"),
            "--nodes", os.path.join(in_dir, "nodes.csv"), "--censoring", "mixed",
            "--dump-matrices", "--out", out_dir]
    results = command_workload(run, argv, "estimate_s")
    if results[-1][0] == 0:
        estimate_checks(run, in_dir, out_dir)
    return min(run.rounds)


def estimate_checks(run, in_dir, out_dir):
    import numpy as np

    with open(os.path.join(in_dir, "meta.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(out_dir, "fit_summary.json")) as fh:
        summary = json.load(fh)
    allocs = meta["allocs"]

    # sandwich dump: names, then the A, B and sigma blocks
    with open(os.path.join(out_dir, "sandwich.txt")) as fh:
        lines = fh.read().splitlines()
    names = lines[0].split()[1:]
    start = lines.index("sigma") + 1
    sigma = np.array([[float(v) for v in ln.split()] for ln in lines[start:start + len(names)]])
    se = dict(zip(names, np.sqrt(np.clip(np.diag(sigma), 0.0, None))))

    est = {}
    for name, val in summary["estimates"].items():
        arm, alpha = re.fullmatch(r"Y\((?:(\d),)?([0-9.]+)\)", name).groups()
        est[(None if arm is None else int(arm), float(alpha))] = val
    run.failures += checks.check_identity(est, allocs)
    tidx = [i for i, n in enumerate(names) if n.startswith("Y(")]
    run.failures += checks.check_psd(sigma[np.ix_(tidx, tidx)], [names[i] for i in tidx])

    prop, cens = summary["propensity"], summary["censoring"]
    p_names = ["intercept", "Z_1", "Z_2"]
    c_names = ["intercept", "Z_1", "Z_2", "A"]
    rec = [(f"prop:{c}", prop["coefficients"][c], v)
           for c, v in zip(p_names, meta["exposure_coefs"])]
    rec.append(("prop:log_re_sd", float(np.log(prop["re_sd"])),
                float(np.log(meta["exposure_re_sd"]))))
    rec += [(f"cens:{c}", cens["coefficients"][c], v)
            for c, v in zip(c_names, meta["censoring_coefs"])]
    rec.append(("cens:log_re_sd", float(np.log(cens["re_sd"])),
                float(np.log(meta["censoring_re_sd"]))))
    rec += [(n, summary["estimates"][n], meta["truth"][n]) for n in meta["truth"]]
    run.failures += checks.check_recovery(
        [r[0] for r in rec], [r[1] for r in rec], [se[r[0]] for r in rec],
        [r[2] for r in rec], k=RECOVERY_SES)

    # exposure density of sampled nodes against weights.csv
    header, rows = read_table(os.path.join(in_dir, "nodes.csv"))
    col = {h: k for k, h in enumerate(header)}
    index = {r[0]: k for k, r in enumerate(rows)}
    A = np.array([int(r[col["A"]]) for r in rows])
    X = np.array([[1.0, float(r[col["Z_1"]]), float(r[col["Z_2"]])] for r in rows])
    _, erows = read_table(os.path.join(in_dir, "edges.csv"))
    e = np.array([(index[u], index[v]) for u, v in erows])
    _, wrows = read_table(os.path.join(out_dir, "weights.csv"))
    f_prog = {r[0]: float(r[1]) for r in wrows}
    lp = X @ np.array([prop["coefficients"][c] for c in p_names])
    pick = np.random.default_rng(run.args.seed)
    nodes = np.sort(pick.choice(len(rows), size=ESTIMATE_SAMPLE, replace=False))
    ref, prog = [], []
    for i in nodes:
        members = np.concatenate([[i], e[e[:, 0] == i, 1], e[e[:, 1] == i, 0]])
        ref.append(checks.gh_log_density(lp[members], A[members], prop["re_sd"]))
        prog.append(float(np.log(f_prog[rows[i][0]])))
    run.failures += checks.check_density(nodes, prog, ref, rtol=1e-5)


def communities_workload(run, in_dir, out_dir):
    import numpy as np

    edges_path = os.path.join(in_dir, "edges.csv")
    results = command_workload(
        run, ["communities", "--edges", edges_path, "--out", out_dir], "communities_s")
    if results[-1][0] != 0:
        return min(run.rounds)

    printed = re.search(r"modularity (\S+);", results[-1][1])
    _, crows = read_table(os.path.join(out_dir, "communities.csv"))
    index = {r[0]: k for k, r in enumerate(crows)}
    labels = np.array([int(r[1]) for r in crows])
    _, erows = read_table(edges_path)
    edges = np.array([(index[u], index[v]) for u, v in erows])
    with open(os.path.join(in_dir, "meta.json")) as fh:
        n_nodes = json.load(fh)["n_nodes"]
    if len(crows) != n_nodes:
        run.failures.append(f"communities.csv has {len(crows)} nodes, input {n_nodes}")
    if printed is None:
        run.failures.append("no modularity in the command output")
    else:
        run.failures += checks.check_communities(edges, labels, float(printed.group(1)))
    return min(run.rounds)


WORKLOADS = ("sim-main", "sim-trip", "estimate-large", "communities")


def main():
    ap = argparse.ArgumentParser(description="Run one netspill benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="monotonic clock reading taken by the parent at spawn")
    ap.add_argument("--inputs", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    run = Run(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.workload in SIM_PRESETS:
            op_s = sim_workload(run, args.workload)
        elif args.workload == "estimate-large":
            op_s = estimate_workload(run, args.inputs, args.out)
        else:
            op_s = communities_workload(run, args.inputs, args.out)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)

    for name, (value, unit) in run.named.items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    print(f"{args.workload}: setup_s {run.setup_s:.4g} s, op_s {op_s:.6g} s, "
          f"peak_rss_mb {run.rss:.1f} MB, attempted {run.attempted}, failed {run.failed}")
    print(f"{args.workload}: round wall times (s) "
          f"{' '.join(f'{t:.3f}' for t in run.rounds)}")
    for msg in run.failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    if run.tracer is not None:
        metrics = run.tracer.layer_metrics(run.overhead)
        if run.tracer.pattern_base:
            print(f"{args.workload}: weights.distinct_pattern_ratio over "
                  f"{run.tracer.pattern_base} closed neighbourhoods")
    else:
        metrics = {"setup_s": {"value": run.setup_s, "unit": "s"},
                   "op_s": {"value": op_s, "unit": "s"},
                   "peak_rss_mb": {"value": run.rss, "unit": "MB"}}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
