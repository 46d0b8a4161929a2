#!/usr/bin/env python3
"""Check that radcrit_cli rejects options it no longer has.

Usage:
    check_cli_options.py --cli <radcrit_cli>

The streamed CLI has one shape, so neither `run` nor `analyze` takes
an option that picks one. Each invocation below must exit 1 with
"unknown option --<name>" on stderr, before it simulates or reads
anything.

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import subprocess
import sys
import tempfile

REJECTED = [
    ["--io-threads=2"],
    ["--batch-runs=4"],
    ["analyze", "--batch-runs=4"],
]


def main(argv):
    if len(argv) != 3 or argv[1] != "--cli":
        print(__doc__, file=sys.stderr)
        return 2
    cli = argv[2]
    failures = []
    with tempfile.TemporaryDirectory() as sandbox:
        for args in REJECTED:
            proc = subprocess.run([cli] + args, cwd=sandbox,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            option = args[-1].split("=")[0]
            if (proc.returncode != 1 or
                    "unknown option " + option not in proc.stderr):
                failures.append("%s: exit %d, stderr %r"
                                % (" ".join(args), proc.returncode,
                                   proc.stderr.strip()))
    for failure in failures:
        print("check_cli_options: FAIL: %s" % failure, file=sys.stderr)
    if failures:
        return 1
    print("check_cli_options: OK: %d invocations rejected"
          % len(REJECTED))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
