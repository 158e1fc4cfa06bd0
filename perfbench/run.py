#!/usr/bin/env python3
"""Build and run the socket-level serving benchmark, or compare run sets.

Run from the root of a checkout:

  python3 perfbench/run.py --workload hot-zipf|cold-mix|fleet-miss \\
      --seed N --seconds S --trace 0|1
      Build `wikisearch` and the benchmark from source, run one workload,
      print one JSON result line last.

  python3 perfbench/run.py record OUT.ndjson --seed N [--runs K]
      [--seconds S] [--trace 0|1] [--workloads a,b,...]
      Run each workload K times (seeds N, N+1, ...) and append one line
      per run: {"workload", "seed", "trace", "result"}.

  python3 perfbench/run.py compare A.ndjson B.ndjson
      For each workload and metric, print each side's median and
      quartiles and the verdict under BENCHMARK.json's bounds.

Builds go to $CARGO_TARGET_DIR (default .bench_build); generated inputs,
snapshots and span files to .bench_work/.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["hot-zipf", "cold-mix", "fleet-miss"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the served binary and the benchmark; return their paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/cli/Cargo.toml")):
        fail("run from the root of a wikisearch checkout (no Cargo.toml or crates/cli here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "wikisearch-cli", "--bin", "wikisearch"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)
    release = os.path.join(target, "release")
    return os.path.join(release, "wikisearch"), os.path.join(release, "perfbench")


def run_once(bins, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, last stdout line)."""
    wikisearch, perfbench = bins
    workdir = os.path.abspath(os.path.join(".bench_work", workload))
    cmd = [perfbench, "--wikisearch", wikisearch, "--workdir", workdir,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def parse_flags(argv, known):
    flags = {}
    while argv:
        flag = argv.pop(0)
        if flag not in known or not argv:
            fail(f"unknown flag or missing value: {flag}")
        flags[flag] = argv.pop(0)
    return flags


def main_run(argv):
    flags = parse_flags(argv, {"--workload", "--seed", "--seconds", "--trace"})
    if flags.get("--workload") not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    for f in ("--seed", "--seconds"):
        if f not in flags:
            fail(f"{f} is required")
    bins = build()
    code, line = run_once(bins, flags["--workload"], flags["--seed"], flags["--seconds"],
                          flags.get("--trace", "0"))
    if line:
        print(line)
    sys.exit(code)


def main_record(argv):
    if not argv:
        fail("record needs an output file")
    out = argv.pop(0)
    flags = parse_flags(argv, {"--seed", "--runs", "--seconds", "--trace", "--workloads"})
    seed = int(flags.get("--seed", "1"))
    runs = int(flags.get("--runs", "1"))
    trace = int(flags.get("--trace", "0"))
    seconds = flags.get("--seconds") or str(load_spec().get("run_seconds", 25))
    workloads = flags.get("--workloads", ",".join(WORKLOADS)).split(",")
    bins = build()
    worst = 0
    for k in range(runs):
        for workload in workloads:
            code, line = run_once(bins, workload, seed + k, seconds, trace)
            worst = max(worst, code)
            try:
                result = json.loads(line)
            except ValueError:
                result = None
            with open(out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed + k, "trace": trace,
                                    "result": result}) + "\n")
            print(f"{workload} seed {seed + k}: exit {code}", file=sys.stderr)
    sys.exit(worst)


def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """{workload: {metric: [values]}} over the successful runs in `path`."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            result = row.get("result")
            if not result or not result.get("correct"):
                continue
            per = runs.setdefault(row["workload"], {})
            for name, m in result["metrics"].items():
                if m.get("value") is not None:
                    per.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return med, q1, q3


def verdict(a, b, metric):
    """Compare B against A under the metric's bound (end-to-end only)."""
    if metric is None:
        return "-"
    (ma, qa1, qa3), (mb, _, _) = a, b
    if ma == 0:
        return "-"
    change = (mb - ma) / abs(ma)
    if metric["better"] == "lower":
        change = -change
    # change > 0: B is better.
    spread = (qa3 - qa1) / abs(ma)
    if change < -metric["bound"]:
        return f"WORSE beyond bound {metric['bound']:.0%}"
    if spread > metric["bound"]:
        return "unresolved (A's spread exceeds the bound)"
    if change > spread:
        return "better (beyond A's spread)"
    return "within bound"


def main_compare(argv):
    if len(argv) != 2:
        fail("compare needs two run files")
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_runs(argv[0]), load_runs(argv[1])
    print(f"A = {argv[0]}\nB = {argv[1]}")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a or workload not in b:
            print(f"\n{workload}: missing on one side")
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<28} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}  verdict")
        for name in a[workload]:
            if name not in b[workload]:
                continue
            sa, sb = summary(a[workload][name]), summary(b[workload][name])
            fmt = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
            print(f"  {name:<28} {fmt(sa):>34} {fmt(sb):>34}  {verdict(sa, sb, bounds.get(name))}")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        main_compare(argv[1:])
    elif argv and argv[0] == "record":
        main_record(argv[1:])
    else:
        main_run(argv)


if __name__ == "__main__":
    main()
