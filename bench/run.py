"""netspill benchmark: one command for every workload.

    python3 bench/run.py --workload sim-main --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout (the program is imported from
src/). Each workload runs in a fresh interpreter (bench/workload.py) so
that set-up time and peak memory belong to that workload alone. Input
files are generated here, before the workload process starts, and cached
under bench/.cache/, so generation is never timed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. With --workload all, one
such line is printed per workload. See bench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402

WORKLOADS = ("sim-main", "sim-trip", "estimate-large", "communities")
# estimate-large fails on some generator seeds (see README), so its study is
# fixed; the simulation workloads run their presets' own scenario seeds
ESTIMATE_INPUT_SEED = 1
CHILD_TIMEOUT_S = 170


def run_workload(name, args):
    in_dir = None
    if name == "estimate-large":
        in_dir = inputs.ensure_inputs(name, ESTIMATE_INPUT_SEED)
    elif name == "communities":
        in_dir = inputs.ensure_inputs(name, args.seed)
    out_dir = os.path.join(inputs.CACHE_DIR, f"out-{name}-{os.getpid()}")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
           "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    if in_dir is not None:
        cmd += ["--inputs", in_dir]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description="netspill benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "netspill", "__init__.py")):
        raise SystemExit(f"no netspill sources under {os.path.join(ROOT, 'src')}; "
                         "run from a source checkout")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
