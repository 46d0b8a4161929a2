#!/usr/bin/env python3
"""Regression tests for check_bench_json.py's failure modes.

Usage:
    test_check_bench_json.py <mode>

Modes:
    missing    the suite document named on the command line does
               not exist; the checker must fail naming it
    truncated  the suite document is cut off mid-object
    schema     a well-formed suite document passes at the current
               schema and is rejected when it carries the previous
               one, so old producers are not silently accepted
    ledger     a suite document whose experiments consumed a
               campaign the plan did not serve (memory_serves !=
               totals.campaigns) is rejected
    docs       a README that still quotes an older suite JSON
               schema must fail the --docs check, and one quoting
               the current schema must pass it

Each mode builds a sandbox, runs check_bench_json.py against it,
and requires the matching exit status and diagnostic on stderr.
Exits 0 when the checker behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_json.py")

sys.path.insert(0, os.path.dirname(CHECKER))
from check_bench_json import SCHEMA  # noqa: E402


def suite_doc(schema=SCHEMA):
    """@return a valid suite document: one experiment consuming one
    planned campaign twice (one simulation, two plan serves)."""
    return {
        "schema": schema,
        "suite": "radcrit_suite",
        "jobs": 1,
        "experiments_run": 1,
        "wall_ns": 9000,
        "campaigns": {
            "requested": 2, "distinct": 1, "simulated": 1,
            "store_hits": 0, "memory_serves": 2,
            "campaign_wall_sum_ns": 3000,
        },
        "totals": {
            "campaigns": 2, "runs": 8, "wall_ns": 4000,
            "ns_per_op": 500.0, "runs_per_s": 2000000.0,
        },
        "pool": {"jobs": 1, "dispatches": 3},
        "sharding": {"concurrent_campaigns": 1, "overlap_ns": 0,
                     "prepass_wall_ns": 3000},
        "resilience": {key: 0 for key in (
            "retries", "resumed_runs", "watchdog_overdue",
            "checkpoint_torn_records", "store_quarantined",
            "chaos_throws", "chaos_stalls", "chaos_corrupt_writes")},
        "memory": {"peak_rss_bytes": 20971520,
                   "current_rss_bytes": 10485760},
        "experiments": {
            "fake_experiment": {
                "tag": "test", "campaigns": 2, "runs": 8,
                "wall_ns": 4000,
            },
        },
        "stats": {
            "campaign.k40.dgemm.masked": {"kind": "counter",
                                          "value": 2},
            "campaign.k40.dgemm.sdc": {"kind": "counter", "value": 2},
        },
    }


def write_doc(sandbox, doc):
    path = os.path.join(sandbox, "radcrit_suite.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    return path


def run_checker(cwd, *args):
    return subprocess.run(
        [sys.executable, CHECKER, *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def expect(cond, msg, proc):
    if not cond:
        print("test_check_bench_json: FAIL: %s" % msg,
              file=sys.stderr)
        print("checker exit=%d\nstdout:\n%s\nstderr:\n%s"
              % (proc.returncode, proc.stdout, proc.stderr),
              file=sys.stderr)
        sys.exit(1)


def mode_missing(sandbox):
    """A suite document that was never written must fail."""
    path = os.path.join(sandbox, "radcrit_suite.json")
    proc = run_checker(sandbox, "--suite", path)
    expect(proc.returncode != 0,
           "checker passed on a suite document that does not exist",
           proc)
    expect("missing suite output file" in proc.stderr,
           "diagnostic does not name the missing output file",
           proc)


def mode_truncated(sandbox):
    """Half a suite document must fail as invalid JSON."""
    path = os.path.join(sandbox, "radcrit_suite.json")
    text = json.dumps(suite_doc(), indent=2)
    with open(path, "w") as f:
        f.write(text[:len(text) // 2])
    proc = run_checker(sandbox, "--suite", path)
    expect(proc.returncode != 0,
           "checker passed on truncated JSON", proc)
    expect("truncated or not valid JSON" in proc.stderr,
           "diagnostic does not flag truncated/invalid JSON",
           proc)


def mode_schema(sandbox):
    """The current schema passes; the previous one is rejected."""
    proc = run_checker(sandbox, "--suite",
                       write_doc(sandbox, suite_doc()))
    expect(proc.returncode == 0,
           "checker rejected a valid schema-%d document" % SCHEMA,
           proc)
    proc = run_checker(sandbox, "--suite",
                       write_doc(sandbox, suite_doc(SCHEMA - 1)))
    expect(proc.returncode != 0,
           "checker accepted an outdated schema-%d document"
           % (SCHEMA - 1), proc)
    expect("suite schema must be %d" % SCHEMA in proc.stderr,
           "diagnostic does not name the expected schema", proc)


def mode_ledger(sandbox):
    """A campaign consumed outside the plan must be rejected."""
    doc = suite_doc()
    doc["campaigns"]["memory_serves"] = 1
    proc = run_checker(sandbox, "--suite", write_doc(sandbox, doc))
    expect(proc.returncode != 0,
           "checker accepted a campaign the plan did not serve", proc)
    expect("campaigns.memory_serves (1) != totals.campaigns (2)"
           in proc.stderr,
           "diagnostic does not name the serve ledger", proc)


def mode_docs(sandbox):
    """Docs quoting an older schema fail --docs; current ones pass."""
    skill = os.path.join(sandbox, ".claude", "skills", "verify")
    os.makedirs(skill)
    with open(os.path.join(skill, "SKILL.md"), "w") as f:
        f.write("validate the schema-%d document\n" % SCHEMA)
    readme = os.path.join(sandbox, "README.md")
    with open(readme, "w") as f:
        f.write('Trace records carry `"schema": 1`.\n'
                'Suite JSON (schema %d) records the traffic.\n'
                % (SCHEMA - 1))
    proc = run_checker(sandbox, "--docs", sandbox)
    expect(proc.returncode != 0,
           "checker accepted a README quoting schema %d"
           % (SCHEMA - 1), proc)
    expect("README.md:2 quotes bench/suite JSON schema %d"
           % (SCHEMA - 1) in proc.stderr,
           "diagnostic does not name the stale quote", proc)
    with open(readme, "w") as f:
        f.write('Trace records carry `"schema": 1`.\n'
                'Suite JSON (schema %d) records the traffic.\n'
                % SCHEMA)
    proc = run_checker(sandbox, "--docs", sandbox)
    expect(proc.returncode == 0,
           "checker rejected docs quoting the current schema", proc)


MODES = {
    "missing": mode_missing,
    "truncated": mode_truncated,
    "schema": mode_schema,
    "ledger": mode_ledger,
    "docs": mode_docs,
}


def main(argv):
    if len(argv) != 2 or argv[1] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as sandbox:
        MODES[argv[1]](sandbox)
    print("test_check_bench_json: OK: %s" % argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
