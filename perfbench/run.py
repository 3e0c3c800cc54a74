#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload dht --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest [--workload NAME]
  python3 perfbench/run.py --steady 10 [--workload NAME] [--seed 1]
                           [--vary-seeds] [--seconds 10]

The first form builds a Release tree of its own (under $CARGO_TARGET_DIR,
default .bench_build) from ../src and runs one workload; the last line of
its output is the JSON result, with the metrics BENCHMARK.json declares for
the run (end-to-end ones untraced, per-layer ones traced) and the units it
gives them. --selftest corrupts each checked output once
and shows that its check rejects it. --steady runs each workload N times and
prints every metric's median and quartiles against its bound; with the same
seed every simulated figure must repeat exactly, and any that differs is
flagged (with --vary-seeds each run takes the next seed instead).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: the program's sources (src/) are missing next to",
            HERE)
        sys.exit(1)
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    out = os.path.abspath(out)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def run_binary(binary, args, echo=True):
    """Runs the benchmark binary; returns its stdout lines."""
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        sys.exit(1)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    if r.returncode != 0:
        if not echo:
            log(r.stdout[-4000:])
        log("perfbench: exited with", r.returncode)
        sys.exit(r.returncode or 1)
    return r.stdout.splitlines()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result(lines, spec, trace):
    """The run's JSON result: the binary's last line, reduced to the
    metrics BENCHMARK.json declares for the run, each with its unit."""
    out = json.loads(lines[-1])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in out["values"]:
            log("perfbench: the program printed no value for", m["name"])
            sys.exit(1)
        metrics[m["name"]] = {"value": out["values"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def measure(binary, spec, workload, seed, seconds):
    """One untraced run; returns its result and its simulated figures."""
    lines = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
                       echo=False)
    sim = next(json.loads(l[len("simulated: "):]) for l in lines
               if l.startswith("simulated: "))
    return result(lines, spec, 0), sim


def steady(binary, args):
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    bad = 0
    for w in names:
        results, sims, failed_share = [], [], set()
        for i in range(args.steady):
            seed = args.seed + i if args.vary_seeds else args.seed
            res, sim = measure(binary, spec, w, seed, args.seconds)
            results.append(res)
            sims.append(sim)
            failed_share.add(res["failed"] / res["attempted"])
            if not res["correct"]:
                bad += 1
                print(f"{w} seed {seed}: correct = false")
        print(f"== {w}: {args.steady} runs, seed {args.seed}"
              f"{' onwards' if args.vary_seeds else ''}")
        for name, m in e2e.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 \
                else "  SPREAD ABOVE BOUND/3"
            if flag:
                bad += 1
            print(f"  {name:14s} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:7.4f}  bound "
                  f"{m['bound']:.2f}{flag}")
        if len(failed_share) != 1:
            bad += 1
            print("  failed share differs between runs:", failed_share)
        if not args.vary_seeds:
            for k in sims[0]:
                vals = {s.get(k) for s in sims}
                if len(vals) != 1:
                    bad += 1
                    print(f"  SIMULATED {k} differs between runs: {vals}")
    print("steady: ok" if bad == 0 else f"steady: {bad} problems")
    return 0 if bad == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--steady", type=int, default=0)
    p.add_argument("--vary-seeds", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.selftest:
        extra = ["--workload", args.workload] if args.workload else []
        run_binary(binary, ["--selftest", "--seed", str(args.seed)] + extra)
        return 0
    if args.steady:
        return steady(binary, args)
    if not args.workload:
        p.error("--workload is required")
    lines = run_binary(binary, ["--workload", args.workload, "--seed",
                                str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
    print(json.dumps(result(lines, load_spec(), args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
