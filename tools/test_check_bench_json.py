#!/usr/bin/env python3
"""Regression tests for check_bench_json.py's failure modes.

Usage:
    test_check_bench_json.py <mode>

Modes:
    missing    bench exits 0 but writes no JSON; a stale file from
               a previous run is present and must NOT rescue the
               check (the vacuous-pass regression)
    truncated  bench writes a truncated JSON document
    schema     bench writes a well-formed but outdated schema-4
               document (no resilience block); the checker must
               reject it, not silently accept old producers
    docs       a README that still quotes an older bench JSON
               schema must fail the --docs check, and one quoting
               the current schema must pass it

Each mode builds a sandbox with a fake bench binary, runs
check_bench_json.py against it, and requires a nonzero exit with
the matching diagnostic on stderr. Exits 0 when the checker
behaves, 1 otherwise.
"""

import os
import re
import stat
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_json.py")

sys.path.insert(0, os.path.dirname(CHECKER))
from check_bench_json import SCHEMA  # noqa: E402

STALE_JSON = """{
  "schema": %d,
  "bench": "fake_bench",
  "campaigns": 1,
  "jobs": 1,
  "runs": 4,
  "wall_ns": 4000,
  "cache_hits": 0,
  "cache_misses": 1,
  "ns_per_op": 1000,
  "runs_per_s": 1000000.0,
  "timings": {
    "wall_ns": 4000,
    "runs_per_s": 1000000.0,
    "pool_busy_ns": 3000,
    "pool_idle_ns": 1000,
    "pool_utilization": 0.75,
    "phase_ns": {
      "sample": 500,
      "classify": 500,
      "replay": 1500,
      "metrics": 500,
      "total": 3000
    }
  },
  "sharding": {
    "concurrent_campaigns": 0,
    "overlap_ns": 0,
    "prepass_wall_ns": 0
  },
  "resilience": {
    "retries": 0,
    "resumed_runs": 0,
    "watchdog_overdue": 0,
    "checkpoint_torn_records": 0,
    "store_quarantined": 0,
    "chaos_throws": 0,
    "chaos_stalls": 0,
    "chaos_corrupt_writes": 0
  },
  "memory": {
    "peak_rss_bytes": 20971520,
    "current_rss_bytes": 10485760,
    "stream_batches": 0,
    "batch_runs": 0
  },
  "stats": {
    "campaign.k40.dgemm.masked": {"kind": "counter", "value": 1},
    "campaign.k40.dgemm.sdc": {"kind": "counter", "value": 1},
    "campaign.k40.dgemm.crash": {"kind": "counter", "value": 1},
    "campaign.k40.dgemm.hang": {"kind": "counter", "value": 1}
  }
}
""" % SCHEMA

# A document an old (pre-resilience) bench would emit.
SCHEMA4_JSON = re.sub(r'"schema": \d+', '"schema": 4', STALE_JSON)
in_block = False
lines = []
for line in SCHEMA4_JSON.splitlines():
    if '"resilience"' in line:
        in_block = True
    if not in_block:
        lines.append(line)
    elif in_block and line == "  },":
        in_block = False
SCHEMA4_JSON = "\n".join(lines) + "\n"


def write_fake_bench(path, body):
    with open(path, "w") as f:
        f.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)


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
    """Bench writes nothing; stale JSON must not pass the check."""
    os.makedirs(os.path.join(sandbox, "bench_out"))
    with open(os.path.join(sandbox, "bench_out",
                           "fake_bench.json"), "w") as f:
        f.write(STALE_JSON)
    bench = os.path.join(sandbox, "fake_bench")
    write_fake_bench(bench, "exit 0\n")
    proc = run_checker(sandbox, bench)
    expect(proc.returncode != 0,
           "checker passed even though the bench wrote no JSON "
           "(validated a stale file)", proc)
    expect("missing output file" in proc.stderr,
           "diagnostic does not name the missing output file",
           proc)


def mode_truncated(sandbox):
    """Bench writes half a document; must fail as invalid JSON."""
    bench = os.path.join(sandbox, "fake_bench")
    write_fake_bench(
        bench,
        "mkdir -p bench_out\n"
        "printf '{\"schema\": 2, \"bench\": \"fake_b' "
        "> bench_out/fake_bench.json\n")
    proc = run_checker(sandbox, bench)
    expect(proc.returncode != 0,
           "checker passed on truncated JSON", proc)
    expect("truncated or not valid JSON" in proc.stderr,
           "diagnostic does not flag truncated/invalid JSON",
           proc)


def mode_schema(sandbox):
    """A schema-4 document (old producer) must be rejected."""
    bench = os.path.join(sandbox, "fake_bench")
    write_fake_bench(
        bench,
        "mkdir -p bench_out\n"
        "cat > bench_out/fake_bench.json <<'JSON'\n"
        + SCHEMA4_JSON + "JSON\n")
    proc = run_checker(sandbox, bench)
    expect(proc.returncode != 0,
           "checker accepted an outdated schema-4 document", proc)
    expect("schema must be %d" % SCHEMA in proc.stderr,
           "diagnostic does not name the expected schema", proc)


def mode_docs(sandbox):
    """Docs quoting an older schema fail --docs; current ones pass."""
    skill = os.path.join(sandbox, ".claude", "skills", "verify")
    os.makedirs(skill)
    with open(os.path.join(skill, "SKILL.md"), "w") as f:
        f.write("validate the schema-%d document\n" % SCHEMA)
    readme = os.path.join(sandbox, "README.md")
    with open(readme, "w") as f:
        f.write('Trace records carry `"schema": 1`.\n'
                'Bench JSON (schema %d) records the traffic.\n'
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
                'Bench JSON (schema %d) records the traffic.\n'
                % SCHEMA)
    proc = run_checker(sandbox, "--docs", sandbox)
    expect(proc.returncode == 0,
           "checker rejected docs quoting the current schema", proc)


MODES = {
    "missing": mode_missing,
    "truncated": mode_truncated,
    "schema": mode_schema,
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
