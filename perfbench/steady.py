#!/usr/bin/env python3
"""Steadiness and exact-repeat check for the benchmark.

Runs the command in BENCHMARK.json on each workload with seeds
SEED0 .. SEED0+RUNS-1 and, for every end-to-end metric, reports the
distance between the first and third quartile of those values as a share
of their median (Python's statistics.quantiles(values, n=4)). It fails
(exit 1) when

  * any run fails, exits non-zero, or prints correct=false;
  * a spread other than setup_s exceeds its metric's bound;
  * with --sets 2: the second set's median is worse than the first's by
    more than the bound, for any metric, setup_s included;
  * with --sets 2: an exact metric (sim_cycles, sim_instructions,
    verified_frac) or the stats fingerprint differs between the two runs
    of one seed;
  * with --traced: a count metric of the traced run, or its stats
    fingerprint, differs between two traced runs of one seed.

Spreads above a third of their bound are reported as warnings.

Run from the repository root:
    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads memory_bound --runs 5
    python3 perfbench/steady.py --runs 2 --traced
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Per-layer metrics that are exact functions of simulated or compiled
# results (counts and ratios of counts): they must repeat exactly.
EXACT_LAYER = {
    "xmtc.tokens", "xmtc.asm_instrs", "xmtc.layout_fixes",
    "sim.events_per_instr", "issue.mean_burst_len", "decode.replay_frac",
    "decode.fusions", "icn.hops_elided_per_leg", "mem.events_per_package",
    "mem.drains", "sim.cache_hit_rate", "sim.dram_accesses",
    "trace.event_inflation", "trace.records", "trace.dropped",
}
EXACT_E2E = {"sim_cycles", "sim_instructions", "verified_frac"}


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: bad result {lines[-1][:300]}")
    report = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("# ") and " = " in l)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The host probe is a diagnostic: shown next to each run, never judged.
    values["host.probe_ms"] = float(report.get("host.probe_ms", "nan").split()[0])
    return values, report.get("stats_fingerprint")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0, statistics.median(values)


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", action="store_true",
                    help="instead: run --trace 1 twice per seed and compare exact counts")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in names:
        seeds = range(args.seed0, args.seed0 + args.runs)
        if args.traced:
            for s in seeds:
                (a, fa), (b, fb) = run(bench, w, s, 1), run(bench, w, s, 1)
                diff = [k for k in EXACT_LAYER if a[k] != b[k]]
                if diff or fa != fb:
                    ok = False
                    print(f"FAIL {w} seed {s}: traced counts differ: {diff} fp {fa} vs {fb}")
                else:
                    print(f"ok   {w} seed {s}: {len(EXACT_LAYER)} traced counts and fingerprint repeat")
            continue
        sets = []
        for k in range(args.sets):
            runs = []
            for s in seeds:
                runs.append(run(bench, w, s, 0))
                print(f"  {w} set {k + 1} seed {s}: " + " ".join(
                    f"{m}={runs[-1][0][m]:.6g}" for m in [*e2e, "host.probe_ms"]), flush=True)
            sets.append(runs)
        for m, spec in e2e.items():
            medians = []
            for k, runs in enumerate(sets):
                sp, med = spread([r[0][m] for r in runs])
                medians.append(med)
                tag = "ok  "
                if m != "setup_s" and sp > spec["bound"]:
                    tag, ok = "FAIL", False
                elif m != "setup_s" and sp > spec["bound"] / 3:
                    tag = "warn"
                print(f"{tag} {w} set {k + 1} {m}: median {med:.6g} {spec['unit']}, "
                      f"spread {sp:.4f} (bound {spec['bound']})")
            if len(medians) == 2:
                d = worse(medians[0], medians[1], spec["better"])
                tag = "FAIL" if d > spec["bound"] else "ok  "
                ok = ok and d <= spec["bound"]
                print(f"{tag} {w} {m}: second median worse by {d:+.4f} (bound {spec['bound']})")
        if len(sets) == 2:
            for i, s in enumerate(seeds):
                (a, fa), (b, fb) = sets[0][i], sets[1][i]
                diff = [m for m in EXACT_E2E if a[m] != b[m]]
                if diff or fa != fb:
                    ok = False
                    print(f"FAIL {w} seed {s}: exact metrics differ between sets: {diff} fp {fa} vs {fb}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.exit(main())
