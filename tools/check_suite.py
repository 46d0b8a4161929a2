#!/usr/bin/env python3
"""End-to-end check of the radcrit experiment suite.

Runs ``radcrit_suite run all`` twice through a shared campaign
cache -- once cold at ``--jobs 1`` and once warm at ``--jobs 8`` --
then every experiment alone through a second shared cache, and
asserts:

 1. Artifact determinism: the CSV/PPM files ``run all`` writes are
    byte-identical across jobs counts, and each experiment run
    alone (``run <name>``) writes byte-identical copies of the
    files it owns; together the single runs write every file
    ``run all`` does.
 2. Dedup accounting: the cold run's JSON proves every distinct
    campaign was simulated exactly once against an empty store
    (simulated == distinct, store_hits == 0), and the warm run
    re-simulated nothing (simulated == 0, every distinct campaign
    served from the store).
 3. Warm figure run builds and replays nothing: a `run 'fig2*' ...
    'fig7*' ablation_scheduler` on the cold run's cache (the
    ablation adds the scheduler-swapped device variants) simulates
    nothing, its JSON
    stats record no kernel.<dgemm|lavamd|hotspot>.golden calls (store
    hits are keyed and launched from the workload's identity, not
    from a built workload) and no kernel.*.inject calls, and its CSVs
    are byte-identical to the cold run's.
 4. Every suite JSON written is valid at the current schema
    (delegated to check_bench_json.py's validator).

Exit code 0 on success; prints a diagnostic and exits 1 on the
first violation.
"""

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_json import validate_suite_json  # noqa: E402

# google-benchmark timings, no artifacts: the single-experiment
# phase skips it ("run all" still exercises it).
NOT_RUN_ALONE = {"kernel_throughput"}

ARTIFACT_EXTS = (".csv", ".ppm")

# The experiments whose campaigns a warm store must serve without
# computing a golden output (CLAMR's identity needs its golden run,
# so fig8/fig9 are not among them). ablation_scheduler declares
# device variants, which the plan serves like stock devices.
WARM_FIGURE_GLOBS = ["fig2*", "fig3*", "fig4*", "fig5*", "fig6*",
                     "fig7*", "ablation_scheduler"]
GOLDEN_CALLS = re.compile(
    r"kernel\.(dgemm|lavamd|hotspot)\.golden\.calls")
INJECT_CALLS = re.compile(r"kernel\.\w+\.inject\.calls")


def fail(msg):
    print("check_suite: FAIL: %s" % msg)
    sys.exit(1)


def run(cmd, cwd, extra_env=None):
    env = dict(os.environ)
    env.pop("RADCRIT_CAMPAIGN_CACHE", None)
    env.pop("RADCRIT_BENCH_OUT", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(cmd, cwd=cwd, env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stdout.buffer.write(proc.stdout[-4000:])
        fail("command failed (%d): %s" %
             (proc.returncode, " ".join(cmd)))
    return proc.stdout.decode("utf-8", "replace")


def artifact_files(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(ARTIFACT_EXTS):
            found[name] = os.path.join(out_dir, name)
    return found


def compare_artifacts(label_a, dir_a, label_b, dir_b):
    files_a = artifact_files(dir_a)
    files_b = artifact_files(dir_b)
    if set(files_a) != set(files_b):
        fail("artifact sets differ between %s and %s:\n"
             "  only in %s: %s\n  only in %s: %s" %
             (label_a, label_b,
              label_a, sorted(set(files_a) - set(files_b)),
              label_b, sorted(set(files_b) - set(files_a))))
    for name in sorted(files_a):
        if not filecmp.cmp(files_a[name], files_b[name],
                           shallow=False):
            fail("%s differs between %s and %s" %
                 (name, label_a, label_b))
    print("check_suite: %d artifacts byte-identical (%s vs %s)" %
          (len(files_a), label_a, label_b))
    return len(files_a)


def check_warm_figures(args, suite, cache, cold_out, sandbox):
    """Warm figure run on the cold run's cache: no golden, same CSVs."""
    out = os.path.join(sandbox, "suite_figures_warm")
    run([suite, "run"] + WARM_FIGURE_GLOBS +
        ["--runs", str(args.runs), "--jobs", "4", "--cache", cache,
         "--out", out], sandbox)
    doc = json.load(open(os.path.join(out, "radcrit_suite.json")))
    validate_suite_json(doc)
    if doc["campaigns"]["simulated"] != 0:
        fail("warm figure run simulated %d campaigns" %
             doc["campaigns"]["simulated"])
    golden = {name: entry["value"]
              for name, entry in doc["stats"].items()
              if GOLDEN_CALLS.fullmatch(name) and entry["value"]}
    if golden:
        fail("warm figure run computed golden outputs: %s" % golden)
    inject = {name: entry["value"]
              for name, entry in doc["stats"].items()
              if INJECT_CALLS.fullmatch(name) and entry["value"]}
    if inject:
        fail("warm figure run replayed fault injections: %s" % inject)
    csvs = [name for name in artifact_files(out)
            if name.endswith(".csv")]
    if not csvs:
        fail("warm figure run wrote no CSVs")
    for name in csvs:
        cold = os.path.join(cold_out, name)
        if not os.path.exists(cold):
            fail("%s written by the warm figure run only" % name)
        if not filecmp.cmp(os.path.join(out, name), cold,
                           shallow=False):
            fail("%s differs between the cold run and the warm "
                 "figure run" % name)
    print("check_suite: warm figure run: 0 simulated, no golden "
          "outputs, no injections, %d CSVs byte-identical to the "
          "cold run" % len(csvs))


def check_single_experiments(args, suite, names, all_out, sandbox):
    """Each experiment alone writes exactly its share of run all."""
    cache = os.path.join(sandbox, "single_cache")
    all_files = artifact_files(all_out)
    covered = set()
    for name in names:
        if name in NOT_RUN_ALONE:
            continue
        out = os.path.join(sandbox, "single", name)
        run([suite, "run", name, "--runs", str(args.runs),
             "--jobs", "4", "--cache", cache, "--out", out], sandbox)
        validate_suite_json(
            json.load(open(os.path.join(out, "radcrit_suite.json"))))
        for fname, path in artifact_files(out).items():
            if fname not in all_files:
                fail("%s written by 'run %s' but not by 'run all'" %
                     (fname, name))
            if fname in covered:
                fail("%s written by more than one experiment" % fname)
            if not filecmp.cmp(path, all_files[fname], shallow=False):
                fail("%s differs between 'run %s' and 'run all'" %
                     (fname, name))
            covered.add(fname)
    missing = sorted(set(all_files) - covered)
    if missing:
        fail("no single experiment wrote %s" % missing)
    print("check_suite: %d artifacts byte-identical (each experiment "
          "alone vs run all)" % len(covered))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", required=True,
                    help="path to the radcrit_suite binary")
    ap.add_argument("--runs", type=int, default=12)
    args = ap.parse_args()

    suite = os.path.abspath(args.suite)
    sandbox = tempfile.mkdtemp(prefix="radcrit_check_suite_")
    try:
        check(args, suite, sandbox)
    finally:
        shutil.rmtree(sandbox, ignore_errors=True)
    print("check_suite: OK")


def check(args, suite, sandbox):
    cache = os.path.join(sandbox, "cache")
    suite1 = os.path.join(sandbox, "suite_jobs1")
    suite8 = os.path.join(sandbox, "suite_jobs8")

    catalog = json.loads(run([suite, "list", "--json"], sandbox))
    names = [e["name"] for e in catalog["experiments"]]
    if len(names) != len(set(names)):
        fail("duplicate experiment names in catalog")
    if len(names) < 20:
        fail("expected >= 20 registered experiments, got %d" %
             len(names))

    gbench = ["--gbench-min-time", "0.01"]

    # --- Suite run 1: cold cache, serial pool. -----------------
    run([suite, "run", "all", "--runs", str(args.runs),
         "--jobs", "1", "--cache", cache, "--out", suite1] +
        gbench, sandbox)
    doc1 = json.load(open(os.path.join(suite1,
                                       "radcrit_suite.json")))
    validate_suite_json(doc1)
    camp1 = doc1["campaigns"]
    if camp1["distinct"] <= 0:
        fail("suite run 1 planned no campaigns")
    if camp1["requested"] < camp1["distinct"]:
        fail("requested (%d) < distinct (%d): dedup key broken" %
             (camp1["requested"], camp1["distinct"]))
    if camp1["requested"] == camp1["distinct"]:
        fail("no campaign shared between experiments; dedup "
             "never exercised (requested == distinct == %d)" %
             camp1["requested"])
    if camp1["simulated"] != camp1["distinct"]:
        fail("cold run simulated %d of %d distinct campaigns" %
             (camp1["simulated"], camp1["distinct"]))
    if camp1["store_hits"] != 0:
        fail("cold run reported %d store hits" %
             camp1["store_hits"])
    print("check_suite: cold run: %d requested -> %d distinct, "
          "each simulated once" %
          (camp1["requested"], camp1["distinct"]))

    check_warm_figures(args, suite, cache, suite1, sandbox)

    # --- Suite run 2: warm cache, parallel pool. ---------------
    run([suite, "run", "all", "--runs", str(args.runs),
         "--jobs", "8", "--cache", cache, "--out", suite8] +
        gbench, sandbox)
    doc2 = json.load(open(os.path.join(suite8,
                                       "radcrit_suite.json")))
    validate_suite_json(doc2)
    camp2 = doc2["campaigns"]
    if camp2["distinct"] != camp1["distinct"]:
        fail("distinct campaign count changed between runs "
             "(%d vs %d)" % (camp1["distinct"],
                             camp2["distinct"]))
    if camp2["simulated"] != 0:
        fail("warm run re-simulated %d campaigns" %
             camp2["simulated"])
    if camp2["store_hits"] != camp2["distinct"]:
        fail("warm run served %d of %d campaigns from the store" %
             (camp2["store_hits"], camp2["distinct"]))
    print("check_suite: warm run: 0 simulated, %d store hits" %
          camp2["store_hits"])

    n = compare_artifacts("suite --jobs 1", suite1,
                          "suite --jobs 8", suite8)
    if n < 5:
        fail("only %d artifacts compared; expected the figure "
             "experiments to produce more" % n)

    check_single_experiments(args, suite, names, suite1, sandbox)


if __name__ == "__main__":
    main()
