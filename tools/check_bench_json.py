#!/usr/bin/env python3
"""Validate the suite JSON document radcrit_suite writes.

Usage:
    check_bench_json.py --suite <radcrit_suite.json>
    check_bench_json.py --docs <repo_root>

With --suite the argument is an existing suite document
(written by `radcrit_suite run`) and is validated in place:

  * schema == SCHEMA (11), positive jobs/experiments_run/wall_ns
  * campaigns is the dedup ledger: simulated + store_hits ==
    distinct <= requested, and it has no other keys
  * totals tally with the per-experiment blocks, and every consumed
    campaign is a plan serve (memory_serves == totals.campaigns)
  * the pool, sharding (prepass concurrency peak, overlap, wall),
    resilience (retry/resume/quarantine/chaos counters) and memory
    (RSS sample) blocks hold every field as a non-negative integer,
    never absent
  * stats is an object of instrument entries, each with a valid
    kind

With --docs the argument is the repository root: README.md and
.claude/skills/verify/SKILL.md must quote the current schema
version, and every suite JSON schema version they quote
("schema-N", "schema N", or a "schema": N literal on a line about
bench or suite JSON) must be the current one.

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import json
import os
import re
import sys

# Version of the suite document (benchJsonSchema in
# src/suite/driver.cc).
SCHEMA = 11


def fail(msg):
    print("check_bench_json: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def validate_stats(stats):
    """Check every instrument entry in the registry snapshot."""
    expect(isinstance(stats, dict), "stats must be an object")
    expect(stats, "stats snapshot is empty")
    for name, entry in stats.items():
        expect(name, "stats entry with empty name")
        expect(isinstance(entry, dict),
               "stats entry %r is not an object" % name)
        kind = entry.get("kind")
        if kind in ("counter", "gauge"):
            expect(isinstance(entry.get("value"), (int, float)),
                   "%s: missing numeric value" % name)
        elif kind == "histogram":
            expect(isinstance(entry.get("count"), int),
                   "%s: missing integer count" % name)
            buckets = entry.get("buckets")
            expect(isinstance(buckets, dict),
                   "%s: missing buckets object" % name)
            expect(sum(buckets.values()) == entry["count"],
                   "%s: bucket counts do not sum to count" % name)
        else:
            fail("%s: unknown kind %r" % (name, kind))


RESILIENCE_KEYS = ("retries", "resumed_runs", "watchdog_overdue",
                   "checkpoint_torn_records", "store_quarantined",
                   "chaos_throws", "chaos_stalls",
                   "chaos_corrupt_writes")


def validate_resilience(doc):
    """Check the execution-resilience block.

    Every field is always present (zero on a clean run) so
    consumers can difference documents without existence checks.
    """
    rz = doc.get("resilience")
    expect(isinstance(rz, dict),
           "resilience must be an object, got %r" % rz)
    for key in RESILIENCE_KEYS:
        expect(isinstance(rz.get(key), int) and rz[key] >= 0,
               "resilience.%s must be a non-negative integer, "
               "got %r" % (key, rz.get(key)))
    extra = set(rz) - set(RESILIENCE_KEYS)
    expect(not extra,
           "resilience has unexpected keys %s" % sorted(extra))


SHARDING_KEYS = ("concurrent_campaigns", "overlap_ns",
                 "prepass_wall_ns")


def validate_sharding(doc):
    """Check the suite-prepass block.

    Every field is always present (zero when nothing was planned)
    so consumers can difference documents without existence
    checks.
    """
    sh = doc.get("sharding")
    expect(isinstance(sh, dict),
           "sharding must be an object, got %r" % sh)
    for key in SHARDING_KEYS:
        expect(isinstance(sh.get(key), int) and sh[key] >= 0,
               "sharding.%s must be a non-negative integer, "
               "got %r" % (key, sh.get(key)))
    extra = set(sh) - set(SHARDING_KEYS)
    expect(not extra,
           "sharding has unexpected keys %s" % sorted(extra))
    if sh["prepass_wall_ns"] == 0:
        expect(sh["concurrent_campaigns"] == 0
               and sh["overlap_ns"] == 0,
               "no prepass ran but sharding reports one (%r)" % sh)


MEMORY_KEYS = ("peak_rss_bytes", "current_rss_bytes")


def validate_memory(doc):
    """Check the process-memory block.

    The RSS fields are zero only when /proc was unavailable. Both
    are always present.
    """
    mem = doc.get("memory")
    expect(isinstance(mem, dict),
           "memory must be an object, got %r" % mem)
    for key in MEMORY_KEYS:
        expect(isinstance(mem.get(key), int) and mem[key] >= 0,
               "memory.%s must be a non-negative integer, got %r"
               % (key, mem.get(key)))
    extra = set(mem) - set(MEMORY_KEYS)
    expect(not extra,
           "memory has unexpected keys %s" % sorted(extra))
    if mem["peak_rss_bytes"] and mem["current_rss_bytes"]:
        expect(mem["peak_rss_bytes"] >= mem["current_rss_bytes"],
               "memory.peak_rss_bytes (%d) below "
               "current_rss_bytes (%d): VmHWM is a high-water "
               "mark" % (mem["peak_rss_bytes"],
                         mem["current_rss_bytes"]))


SUITE_CAMPAIGN_KEYS = ("requested", "distinct", "simulated",
                       "store_hits", "memory_serves",
                       "prepass_wall_ns")
SUITE_EXP_KEYS = ("campaigns", "runs", "wall_ns")


def validate_suite_json(doc):
    """Check the suite document written by radcrit_suite.

    A suite run may legitimately involve zero campaigns (e.g.
    `run fig1_setup`), so the totals only need to be non-negative
    and internally consistent.
    """
    expect(doc.get("schema") == SCHEMA,
           "suite schema must be %d, got %r"
           % (SCHEMA, doc.get("schema")))
    expect(doc.get("suite") == "radcrit_suite",
           "suite must be 'radcrit_suite', got %r"
           % doc.get("suite"))
    for key in ("jobs", "experiments_run", "wall_ns"):
        expect(isinstance(doc.get(key), int) and doc[key] > 0,
               "%s must be a positive integer, got %r"
               % (key, doc.get(key)))

    camp = doc.get("campaigns")
    expect(isinstance(camp, dict),
           "campaigns must be an object, got %r" % camp)
    for key in SUITE_CAMPAIGN_KEYS:
        expect(isinstance(camp.get(key), int) and camp[key] >= 0,
               "campaigns.%s must be a non-negative integer, "
               "got %r" % (key, camp.get(key)))
    extra = set(camp) - set(SUITE_CAMPAIGN_KEYS)
    expect(not extra,
           "campaigns has unexpected keys %s" % sorted(extra))
    expect(camp["distinct"] <= camp["requested"],
           "distinct (%d) exceeds requested (%d)"
           % (camp["distinct"], camp["requested"]))
    expect(camp["simulated"] + camp["store_hits"]
           == camp["distinct"],
           "simulated (%d) + store_hits (%d) must account for "
           "every distinct planned campaign (%d)"
           % (camp["simulated"], camp["store_hits"],
              camp["distinct"]))

    totals = doc.get("totals")
    expect(isinstance(totals, dict),
           "totals must be an object, got %r" % totals)
    for key in SUITE_EXP_KEYS:
        expect(isinstance(totals.get(key), int)
               and totals[key] >= 0,
               "totals.%s must be a non-negative integer, got %r"
               % (key, totals.get(key)))
    # The suite serves campaigns only from the prepass's plan, so
    # every consumed campaign is one memory serve.
    expect(camp["memory_serves"] == totals["campaigns"],
           "campaigns.memory_serves (%d) != totals.campaigns (%d)"
           % (camp["memory_serves"], totals["campaigns"]))
    if totals["runs"] > 0:
        for key in ("ns_per_op", "runs_per_s"):
            expect(isinstance(totals.get(key), (int, float))
                   and totals[key] > 0,
                   "totals.%s must be positive, got %r"
                   % (key, totals.get(key)))
        ratio = totals["ns_per_op"] * totals["runs_per_s"] / 1e9
        expect(abs(ratio - 1.0) < 1e-6,
               "totals.ns_per_op and runs_per_s are inconsistent "
               "(ratio %g)" % ratio)

    pool = doc.get("pool")
    expect(isinstance(pool, dict),
           "pool must be an object, got %r" % pool)
    expect(pool.get("jobs") == doc["jobs"],
           "pool.jobs (%r) != top-level jobs (%r)"
           % (pool.get("jobs"), doc.get("jobs")))
    expect(isinstance(pool.get("dispatches"), int)
           and pool["dispatches"] >= 0,
           "pool.dispatches must be a non-negative integer, "
           "got %r" % pool.get("dispatches"))

    exps = doc.get("experiments")
    expect(isinstance(exps, dict),
           "experiments must be an object, got %r" % exps)
    expect(len(exps) == doc["experiments_run"],
           "experiments_run (%d) != number of experiment blocks "
           "(%d)" % (doc["experiments_run"], len(exps)))
    sums = dict.fromkeys(SUITE_EXP_KEYS, 0)
    for name, block in exps.items():
        expect(isinstance(block, dict),
               "experiments.%s is not an object" % name)
        expect(isinstance(block.get("tag"), str),
               "experiments.%s.tag must be a string" % name)
        for key in SUITE_EXP_KEYS:
            expect(isinstance(block.get(key), int)
                   and block[key] >= 0,
                   "experiments.%s.%s must be a non-negative "
                   "integer, got %r" % (name, key, block.get(key)))
            sums[key] += block[key]
    for key in SUITE_EXP_KEYS:
        expect(sums[key] == totals[key],
               "per-experiment %s sum to %d but totals.%s is %d"
               % (key, sums[key], key, totals[key]))

    validate_sharding(doc)
    validate_resilience(doc)
    validate_memory(doc)
    validate_stats(doc.get("stats"))


def validate_suite_file(path):
    expect(os.path.exists(path),
           "missing suite output file %s" % path)
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail("%s is truncated or not valid JSON: %s"
                 % (path, e))
    validate_suite_json(doc)
    print("check_bench_json: OK: %s (suite schema %d, %d "
          "experiments, %d/%d distinct campaigns simulated)"
          % (path, SCHEMA, doc["experiments_run"],
             doc["campaigns"]["simulated"],
             doc["campaigns"]["distinct"]))


# The documents that quote the suite JSON schema version.
DOC_FILES = ("README.md", os.path.join(".claude", "skills", "verify",
                                       "SKILL.md"))
# Prose quotes ("schema-11", "schema 11") are always suite
# versions; a "schema": N literal only counts on a line about bench
# or suite JSON (trace records and the catalog carry their own).
PROSE_SCHEMA = re.compile(r"\bschema[- ](\d+)\b")
LITERAL_SCHEMA = re.compile(r'"schema": (\d+)')


def validate_docs(root):
    """Check that the docs quote the current schema, and only it."""
    for rel in DOC_FILES:
        path = os.path.join(root, rel)
        expect(os.path.exists(path), "missing doc file %s" % path)
        with open(path) as f:
            lines = f.read().splitlines()
        current = 0
        for lineno, line in enumerate(lines, 1):
            versions = [int(v) for v in PROSE_SCHEMA.findall(line)]
            if "bench" in line or "suite" in line:
                versions += [int(v)
                             for v in LITERAL_SCHEMA.findall(line)]
            for version in versions:
                expect(version == SCHEMA,
                       "%s:%d quotes bench/suite JSON schema %d, "
                       "the current schema is %d"
                       % (rel, lineno, version, SCHEMA))
                current += 1
        expect(current > 0,
               "%s does not quote the bench/suite JSON schema "
               "version (%d)" % (rel, SCHEMA))
    print("check_bench_json: OK: docs quote schema %d" % SCHEMA)


def main(argv):
    argv = argv[1:]
    if len(argv) != 2 or argv[0] not in ("--suite", "--docs"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--docs":
        validate_docs(argv[1])
    else:
        validate_suite_file(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
