#!/usr/bin/env python3
"""Check that the beam-log bytes do not depend on how they are written.

Usage:
    check_log_bytes.py --cli <radcrit_cli> [--runs N] [--size N]

Runs one cold DGEMM campaign three times, each into an empty
campaign store and each with --log and --csv:

  1. materialized at --jobs 1 (the log is formatted inline);
  2. materialized at --jobs 4 (the store save and --log format the
     log in ordered slices on the command's four workers);
  3. streamed (--stream) at --jobs 4 (batch by batch, the store
     save on its own I/O thread).

The store entry, the --log file and the CSV must be byte-identical
across the three runs, and the store entry must equal the --log
file.

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import os
import subprocess
import sys
import tempfile


def fail(msg):
    print("check_log_bytes: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def read_bytes(path):
    if not os.path.isfile(path):
        fail("missing artifact %s" % path)
    with open(path, "rb") as f:
        return f.read()


def run(cli, name, extra, common, sandbox):
    """Run one campaign; return its (entry, log, csv) bytes."""
    cache = os.path.join(sandbox, name + "_cache")
    log = os.path.join(sandbox, name + ".beamlog")
    csv = os.path.join(sandbox, name + ".csv")
    proc = subprocess.run(
        [cli] + common + extra +
        ["--cache=" + cache, "--log=" + log, "--csv=" + csv],
        cwd=sandbox, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s run exited with %d:\n%s"
             % (name, proc.returncode, proc.stderr))
    entries = [e for e in os.listdir(cache)
               if os.path.isfile(os.path.join(cache, e))]
    if len(entries) != 1:
        fail("%s run left %d store entries, expected 1: %s"
             % (name, len(entries), entries))
    return (read_bytes(os.path.join(cache, entries[0])),
            read_bytes(log), read_bytes(csv))


def main(argv):
    cli = None
    runs = 600
    size = 1024
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--cli" and i + 1 < len(argv):
            cli = argv[i + 1]
        elif arg == "--runs" and i + 1 < len(argv):
            runs = int(argv[i + 1])
        elif arg == "--size" and i + 1 < len(argv):
            size = int(argv[i + 1])
        else:
            print(__doc__, file=sys.stderr)
            return 2
        i += 2
    if cli is None:
        print(__doc__, file=sys.stderr)
        return 2
    cli = os.path.abspath(cli)

    common = ["--workload=DGEMM", "--runs=%d" % runs,
              "--size=%d" % size, "--seed=11"]
    with tempfile.TemporaryDirectory() as sandbox:
        ref = run(cli, "jobs1", ["--jobs=1"], common, sandbox)
        if ref[0] != ref[1]:
            fail("--jobs 1: store entry (%d bytes) differs from the "
                 "--log file (%d bytes)" % (len(ref[0]), len(ref[1])))
        for name, extra in (("jobs4", ["--jobs=4"]),
                            ("stream", ["--jobs=4", "--stream"])):
            got = run(cli, name, extra, common, sandbox)
            for what, a, b in zip(("store entry", "--log file", "CSV"),
                                  ref, got):
                if a != b:
                    fail("%s: %s differs from the --jobs 1 run "
                         "(%d vs %d bytes)"
                         % (name, what, len(b), len(a)))
        log_lines = ref[1].count(b"\n")
    print("check_log_bytes: OK: %d runs, %d log lines; store entry, "
          "--log and CSV byte-identical at --jobs 1, --jobs 4 and "
          "--stream" % (runs, log_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
