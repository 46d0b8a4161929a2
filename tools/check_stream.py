#!/usr/bin/env python3
"""End-to-end check of the bounded-memory streaming pipeline.

Usage:
    check_stream.py --cli <radcrit_cli> [--runs N] [--size N]
                    [--jobs N] [--budget-mib N]

Runs one large DGEMM campaign twice in a sandbox sharing a campaign
cache:

  1. materialized (the default path): simulates the campaign, holds
     the whole CampaignRaw in memory, saves it to the cache and
     writes the per-run CSV;
  2. streamed (--stream): loads the same campaign from the cache
     batch by batch and analyzes it without ever materializing the
     raw campaign.

and asserts the two claims the streaming refactor makes:

  * the per-run CSVs are byte-identical — streaming changes peak
    memory, never a single output byte;
  * the streamed run's peak RSS (VmHWM, via ru_maxrss of the child)
    stays under a fixed budget that the materialized run exceeds —
    the budget separates the two paths, so a regression that quietly
    re-materializes the campaign under --stream trips the check.

The 200k-run store entry is then re-analyzed without --stream,
plainly and with --progress: the two CSVs must be byte-identical,
and the --progress run's peak RSS must stay within 1.1x of the plain
one, so progress reporting never holds the loaded campaign twice.

Then a second, smaller campaign (under CampaignStore's single-pass
validate cap, so the store streams it in one parse) checks the
warm-hit cost: a streamed store hit must cost no more than
--warm-factor (default 1.5x) the wall of a materialized (raw,
single-parse) load of the same entry. Before single-pass validate,
the streamed hit parsed the entry twice (validate, then stream)
and cost ~3x; this gate keeps the double-parse from coming back.

Peak RSS is measured per child by wrapping each radcrit_cli
invocation in its own short-lived Python process that reports
getrusage(RUSAGE_CHILDREN).ru_maxrss (KiB on Linux, the only
platform with the /proc-based gauges this pipeline targets).

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import os
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print("check_stream: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


# Runs in a child interpreter: execute one radcrit_cli invocation
# and report its exit code and peak RSS on the last stdout line.
MEASURE = (
    "import resource, subprocess, sys\n"
    "p = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "r = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
    "print(p.returncode, r.ru_maxrss)\n"
)


def run_measured(args, cwd):
    """Run one CLI invocation; return its peak RSS in KiB."""
    proc = subprocess.run([sys.executable, "-c", MEASURE] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    expect(proc.returncode == 0,
           "measurement wrapper for %s exited with %d:\n%s"
           % (" ".join(args), proc.returncode, proc.stderr))
    fields = proc.stdout.split()
    expect(len(fields) == 2,
           "unexpected wrapper output: %r" % proc.stdout)
    returncode, max_rss_kib = int(fields[0]), int(fields[1])
    expect(returncode == 0,
           "radcrit_cli exited with %d:\n%s"
           % (returncode, proc.stderr))
    return max_rss_kib


def read_bytes(path):
    expect(os.path.exists(path), "missing artifact %s" % path)
    with open(path, "rb") as f:
        return f.read()


def run_timed(args, cwd):
    """Run one CLI invocation; return its wall-clock seconds."""
    begin = time.monotonic()
    proc = subprocess.run(args, cwd=cwd,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - begin
    expect(proc.returncode == 0,
           "radcrit_cli exited with %d:\n%s"
           % (proc.returncode, proc.stderr))
    return wall


def main(argv):
    cli = None
    runs = 200000
    size = 512
    jobs = 4
    budget_mib = 256
    warm_runs = 20000
    warm_factor = 1.5

    i = 1
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--cli":
            cli = argv[i]
        elif arg == "--runs":
            runs = int(argv[i])
        elif arg == "--size":
            size = int(argv[i])
        elif arg == "--jobs":
            jobs = int(argv[i])
        elif arg == "--budget-mib":
            budget_mib = int(argv[i])
        elif arg == "--warm-runs":
            warm_runs = int(argv[i])
        elif arg == "--warm-factor":
            warm_factor = float(argv[i])
        else:
            print(__doc__, file=sys.stderr)
            return 2
        i += 1
    if cli is None:
        print(__doc__, file=sys.stderr)
        return 2
    cli = os.path.abspath(cli)
    expect(os.path.exists(cli),
           "radcrit_cli binary %s does not exist (build it first)"
           % cli)

    common = ["--runs=%d" % runs, "--size=%d" % size,
              "--jobs=%d" % jobs, "--seed=7", "--cache=cache"]
    budget_kib = budget_mib * 1024

    with tempfile.TemporaryDirectory() as sandbox:
        mat_kib = run_measured(
            [cli] + common + ["--csv=materialized.csv"], sandbox)
        stream_kib = run_measured(
            [cli] + common + ["--stream", "--csv=streamed.csv"],
            sandbox)

        mat_csv = read_bytes(
            os.path.join(sandbox, "materialized.csv"))
        stream_csv = read_bytes(
            os.path.join(sandbox, "streamed.csv"))
        expect(mat_csv == stream_csv,
               "streamed CSV differs from the materialized run "
               "(%d vs %d bytes)" % (len(stream_csv), len(mat_csv)))
        expect(len(mat_csv.splitlines()) == runs + 1,
               "CSV has %d data rows, expected %d"
               % (len(mat_csv.splitlines()) - 1, runs))

        expect(mat_kib > budget_kib,
               "materialized peak RSS %d KiB within the %d MiB "
               "budget — the campaign is too small to prove the "
               "streamed path bounds memory; raise --runs/--size"
               % (mat_kib, budget_mib))
        expect(stream_kib <= budget_kib,
               "streamed peak RSS %d KiB exceeds the %d MiB budget "
               "(materialized used %d KiB)"
               % (stream_kib, budget_mib, mat_kib))

        # --- analyze --progress holds the campaign once: the same
        # entry re-analyzed with and without --progress.
        cache = os.path.join(sandbox, "cache")
        entries = [e for e in os.listdir(cache)
                   if os.path.isfile(os.path.join(cache, e))]
        expect(len(entries) == 1,
               "expected one store entry, found %s" % entries)
        entry = os.path.join(cache, entries[0])
        plain_kib = run_measured(
            [cli, "analyze", "--log=" + entry, "--csv=plain.csv"],
            sandbox)
        progress_kib = run_measured(
            [cli, "analyze", "--log=" + entry, "--progress",
             "--csv=progress.csv"], sandbox)
        expect(read_bytes(os.path.join(sandbox, "plain.csv")) ==
               read_bytes(os.path.join(sandbox, "progress.csv")),
               "analyze --progress CSV differs from plain analyze")
        expect(progress_kib <= 1.1 * plain_kib,
               "analyze --progress peak RSS %d KiB is more than "
               "1.1x plain analyze's %d KiB — the loaded campaign "
               "is held twice" % (progress_kib, plain_kib))

        # --- Warm-hit cost. A smaller campaign (under the store's
        # single-pass validate cap) simulated once, then loaded
        # twice from the warm cache: materialized (one raw parse)
        # and streamed. The streamed hit must stay within
        # warm_factor of the raw load — the double-parse gate.
        warm = ["--runs=%d" % warm_runs, "--size=%d" % size,
                "--jobs=%d" % jobs, "--seed=9", "--cache=cache"]
        run_timed([cli] + warm + ["--csv=warm_ref.csv"], sandbox)
        raw_s = run_timed([cli] + warm + ["--csv=warm_raw.csv"],
                          sandbox)
        stream_s = run_timed(
            [cli] + warm + ["--stream", "--csv=warm_stream.csv"],
            sandbox)
        ref_csv = read_bytes(os.path.join(sandbox, "warm_ref.csv"))
        for name in ("warm_raw.csv", "warm_stream.csv"):
            expect(read_bytes(os.path.join(sandbox, name))
                   == ref_csv,
                   "%s differs from the simulating run's CSV"
                   % name)
        expect(stream_s <= warm_factor * raw_s + 0.25,
               "warm streamed hit took %.2f s, more than %.2fx "
               "the %.2f s materialized load — the streamed path "
               "is double-parsing the entry again"
               % (stream_s, warm_factor, raw_s))

    print("check_stream: OK: %d runs, CSV byte-identical, peak RSS "
          "streamed %d KiB <= %d MiB budget < materialized %d KiB; "
          "analyze --progress %d KiB vs plain %d KiB (gate 1.1x); "
          "warm hit streamed %.2f s vs raw %.2f s (gate %.1fx)"
          % (runs, stream_kib, budget_mib, mat_kib, progress_kib,
             plain_kib, stream_s, raw_s, warm_factor))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
