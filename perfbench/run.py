#!/usr/bin/env python3
"""Builds and runs the lanecert benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 25 --trace 0

builds the library and the benchmark program from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints the
program's output; the last line is the JSON result.

Steadiness (run-to-run spread of every end-to-end metric next to its bound):

    python3 perfbench/run.py --steadiness --runs 10 [--workload NAME ...]

Exactness self-check (seed-determined counters repeat on one seed and
change on another):

    python3 perfbench/run.py --self-check [--seed N] [--workload NAME ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
HUGE_PAGES_TUNABLE = "glibc.malloc.hugetlb=1"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds into build_dir(); returns the benchmark binary."""
    if not (ROOT / "src" / "core" / "prover.hpp").is_file():
        sys.exit("perfbench: no lanecert sources next to the benchmark "
                 f"({ROOT / 'src'} is missing)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    binary = out / "lanecert_perfbench"
    if not binary.is_file():
        sys.exit("perfbench: build produced no lanecert_perfbench binary")
    return binary


def program_args(binary, workload, seed, seconds, trace):
    out = build_dir()
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--trace-dir", str(out / "traces"), "--work-dir", str(out / "work")]


def program_env():
    """The program's environment: glibc's allocator backs its heap with
    transparent huge pages, as on a system whose THP mode is "always".
    Without them the prover's speed depended on the heap layout the first
    graphs of a run left behind: the same graphs proved 20-25% faster or
    slower depending on what the process had proved before."""
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + [HUGE_PAGES_TUNABLE])
    return env


def run_captured(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, exact dict, stdout)."""
    proc = subprocess.run(program_args(binary, workload, seed, seconds, trace),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, env=program_env())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    exact = {}
    for line in lines:
        if line.startswith("exact "):
            exact = json.loads(line[len("exact "):])
    return json.loads(lines[-1]), exact, proc.stdout


def spread(values):
    """Interquartile range as a share of the median (the acceptance rule)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def classify(s, bound):
    """Verdict on one metric's spread: every spread must stay within its
    bound, and the benchmark aims for a third of it."""
    if s <= bound / 3:
        return "steady"
    if s <= bound:
        return "within bound"
    return "OVER BOUND"


def steadiness(args, bench):
    binary = build()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    worst_ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        samples = {name: [] for name in bounds}
        steal = []
        for i in range(args.runs):
            result, _, stdout = run_captured(binary, workload, args.seed + i,
                                             seconds, False)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {args.seed + i}: wrong output")
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            steal += [line.split()[1] for line in stdout.splitlines()
                      if line.startswith("cpu-steal ")]
        print(f"== {workload}: {args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {seconds} s each")
        print(f"cpu steal per run: {' '.join(steal)}")
        print(f"{'metric':24} {'median':>14} {'spread':>8} {'bound':>6} "
              f"{'bound/3':>8}  verdict")
        for name, values in samples.items():
            s, med = spread(values)
            bound = bounds[name]
            verdict = classify(s, bound)
            worst_ok = worst_ok and verdict != "OVER BOUND"
            print(f"{name:24} {med:14.6g} {s:8.3f} {bound:6.2f} "
                  f"{bound / 3:8.3f}  {verdict:14} "
                  + " ".join(f"{v:.4g}" for v in values))
    return 0 if worst_ok else 1


def self_check(args, bench):
    binary = build()
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        _, a, _ = run_captured(binary, workload, args.seed, 4, True)
        _, b, _ = run_captured(binary, workload, args.seed, 4, True)
        _, c, _ = run_captured(binary, workload, args.seed + 1, 4, True)
        same = a == b
        changed = sorted(k for k in a if a.get(k) != c.get(k))
        ok = ok and same and bool(changed)
        print(f"{workload}: {len(a)} exact counters; same seed "
              f"{'identical' if same else 'DIFFER'}; seed+1 changes "
              f"{', '.join(changed) if changed else 'NOTHING'}")
        if not same:
            for k in sorted(set(a) | set(b)):
                if a.get(k) != b.get(k):
                    print(f"  {k}: {a.get(k)} vs {b.get(k)}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    if args.steadiness or args.self_check:
        bench = load_benchmark()
        return steadiness(args, bench) if args.steadiness else self_check(args, bench)

    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        p.error("a run needs exactly one --workload and --seconds")
    binary = build()
    try:
        proc = subprocess.run(program_args(binary, args.workload[0], args.seed,
                                          args.seconds, args.trace),
                              timeout=RUN_TIMEOUT_S, env=program_env())
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
