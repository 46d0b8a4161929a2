#!/usr/bin/env python3
"""End-to-end check of the suite prepass.

Usage:
    check_shard.py --suite <radcrit_suite> [--runs N] [--jobs N]
                   [--min-speedup X] [--reps N]

Runs the full 21-distinct-campaign suite plan (every experiment
except the google-benchmark throughput sweep, which declares no
campaigns and only adds wall clock) in a sandbox, and asserts the
two claims the prepass makes:

  1. Byte-identity: cold runs at --jobs 2 and --jobs N, each on a
     fresh cache, produce per-experiment CSVs byte-identical to a
     cold --jobs 1 reference run, and suite JSON documents whose
     campaigns / totals / experiments blocks match modulo
     wall-clock fields. Every warm run below reads the cache the
     reference wrote, must serve every campaign from it, and must
     reproduce the reference CSVs.

  2. Speedup: on a warm cache — the steady-state shape of
     `run all`, where the prepass wall is pure store I/O +
     analysis — the prepass at --jobs N (default 8) beats the
     same prepass at --jobs 1 by at least --min-speedup (default
     1.5x), each timed as the best of --reps (default 5, at
     least 5) warm passes. The reference is the one prepass on
     one worker, so the gate measures how the prepass scales. The
     assertion needs real parallelism, so it only arms when
     os.cpu_count() >= 4; on smaller machines the measurement
     still runs and is reported, with a printed skip notice. Cold
     prepass walls are reported for reference but not asserted:
     with one campaign holding ~85% of the simulation work, every
     worker count is bounded by the same critical path.

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import json
import os
import subprocess
import sys
import tempfile

# Every experiment except kernel_throughput: the gbench sweep
# declares no campaigns, so it cannot affect prepass identity and
# would only add ~30 s of benchmark wall per suite invocation.
GLOBS = ["fig*", "table*", "sdc_crash_ratios", "abft_coverage",
         "detectors", "hardening", "avf_comparison",
         "mtbf_projection", "calibration", "ablation*"]


def fail(msg):
    print("check_shard: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def run_suite(suite, sandbox, tag, jobs, cache, runs):
    """One suite invocation; returns its parsed JSON document."""
    out_dir = os.path.join(sandbox, "out_" + tag)
    json_path = os.path.join(sandbox, tag + ".json")
    cmd = [suite, "run"] + GLOBS + [
        "--runs=%d" % runs, "--jobs=%d" % jobs,
        "--cache=%s" % os.path.join(sandbox, cache),
        "--out=%s" % out_dir, "--json=%s" % json_path]
    proc = subprocess.run(cmd, cwd=sandbox,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    expect(proc.returncode == 0,
           "suite run '%s' exited with %d:\n%s"
           % (tag, proc.returncode, proc.stderr))
    with open(json_path) as f:
        return json.load(f)


def read_csvs(sandbox, tag):
    out_dir = os.path.join(sandbox, "out_" + tag)
    csvs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as f:
                csvs[name] = f.read()
    expect(csvs, "suite run '%s' wrote no CSVs" % tag)
    return csvs


def compare_csvs(ref, ref_tag, got, got_tag):
    expect(set(ref) == set(got),
           "CSV sets differ between %s and %s: %s"
           % (ref_tag, got_tag,
              sorted(set(ref) ^ set(got))))
    for name in sorted(ref):
        expect(ref[name] == got[name],
               "%s differs between %s (%d bytes) and %s (%d "
               "bytes) — the prepass output depends on --jobs or "
               "on the cache"
               % (name, ref_tag, len(ref[name]), got_tag,
                  len(got[name])))


def comparable(doc):
    """The suite-JSON blocks that must not depend on scheduling:
    everything except wall-clock (and wall-derived) fields."""
    return {
        "campaigns": {k: v for k, v in doc["campaigns"].items()
                      if k != "prepass_wall_ns"},
        "totals": {k: v for k, v in doc["totals"].items()
                   if k not in ("wall_ns", "ns_per_op",
                                "runs_per_s")},
        "experiments": {
            name: {k: v for k, v in block.items()
                   if k != "wall_ns"}
            for name, block in doc["experiments"].items()},
    }


def compare_json(ref, ref_tag, got, got_tag):
    a, b = comparable(ref), comparable(got)
    for block in ("campaigns", "totals", "experiments"):
        expect(a[block] == b[block],
               "suite JSON '%s' block differs between %s and %s:"
               "\n  %s\n  %s"
               % (block, ref_tag, got_tag, a[block], b[block]))


def prepass_ms(doc):
    return doc["sharding"]["prepass_wall_ns"] / 1e6


def main(argv):
    suite = None
    runs = 8
    jobs = 8
    min_speedup = 1.5
    reps = 5

    i = 1
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--suite":
            suite = argv[i]
        elif arg == "--runs":
            runs = int(argv[i])
        elif arg == "--jobs":
            jobs = int(argv[i])
        elif arg == "--min-speedup":
            min_speedup = float(argv[i])
        elif arg == "--reps":
            reps = int(argv[i])
        else:
            print(__doc__, file=sys.stderr)
            return 2
        i += 1
    if suite is None:
        print(__doc__, file=sys.stderr)
        return 2
    suite = os.path.abspath(suite)
    expect(os.path.exists(suite),
           "radcrit_suite binary %s does not exist (build it "
           "first)" % suite)

    if reps < 5:
        print("check_shard: --reps must be at least 5",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as sandbox:
        # --- Cold reference: the prepass on one worker.
        ref = run_suite(suite, sandbox, "ref", 1, "cache_ref", runs)
        ref_csvs = read_csvs(sandbox, "ref")
        expect(ref["campaigns"]["simulated"]
               == ref["campaigns"]["distinct"] > 0,
               "cold reference run did not simulate every "
               "distinct campaign: %s" % ref["campaigns"])

        # --- Cold runs at more workers, each on a fresh cache so
        # every campaign really simulates.
        cold_walls = {1: prepass_ms(ref)}
        for j in (2, jobs):
            tag = "cold%d" % j
            doc = run_suite(suite, sandbox, tag, j, "cache_" + tag,
                            runs)
            expect(doc["campaigns"]["simulated"]
                   == ref["campaigns"]["distinct"],
                   "%s simulated %d campaigns, reference "
                   "simulated %d"
                   % (tag, doc["campaigns"]["simulated"],
                      ref["campaigns"]["distinct"]))
            compare_csvs(ref_csvs, "ref", read_csvs(sandbox, tag),
                         tag)
            compare_json(ref, "ref", doc, tag)
            cold_walls[j] = prepass_ms(doc)

        # --- Warm passes on the reference cache: every one must
        # hit the store for every campaign and reproduce the
        # reference CSVs; best-of-N damps scheduler noise.
        def warm_ms(j, r):
            tag = "warm%d_%d" % (j, r)
            doc = run_suite(suite, sandbox, tag, j, "cache_ref",
                            runs)
            expect(doc["campaigns"]["store_hits"]
                   == ref["campaigns"]["distinct"],
                   "warm run %s missed the cache: %s"
                   % (tag, doc["campaigns"]))
            compare_csvs(ref_csvs, "ref", read_csvs(sandbox, tag),
                         tag)
            return prepass_ms(doc)

        one_warm = min(warm_ms(1, r) for r in range(reps))
        many_warm = min(warm_ms(jobs, r) for r in range(reps))
        speedup = (one_warm / many_warm
                   if many_warm > 0 else float("inf"))

        cold = ", ".join("jobs %d: %.0f ms" % (j, w)
                         for j, w in sorted(cold_walls.items()))
        print("check_shard: byte-identical at --jobs 1/2/%d; "
              "cold prepass [%s]; warm prepass (best of %d) "
              "%.0f ms at --jobs %d vs %.0f ms at --jobs 1 "
              "(%.2fx)"
              % (jobs, cold, reps, many_warm, jobs, one_warm,
                 speedup))

        cpus = os.cpu_count() or 1
        if cpus >= 4:
            expect(speedup >= min_speedup,
                   "warm prepass speedup %.2fx at --jobs %d over "
                   "--jobs 1 is below the %.2fx gate (%.0f ms vs "
                   "%.0f ms)"
                   % (speedup, jobs, min_speedup, many_warm,
                      one_warm))
        else:
            print("check_shard: NOTE: %d CPU(s) < 4 — speedup "
                  "gate skipped (measured %.2fx, gate %.2fx)"
                  % (cpus, speedup, min_speedup))

    print("check_shard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
