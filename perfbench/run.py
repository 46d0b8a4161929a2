#!/usr/bin/env python3
"""radcrit performance benchmark.

One entry point for four workloads. Each run builds the repository
from source (perfbench/CMakeLists.txt, into .bench_build/perfbench),
sets the workload up several times, then repeats the workload for
--seconds and prints one JSON result as its last stdout line.

  python3 perfbench/run.py --workload dense-cold --seed 3 --trace 0
  python3 perfbench/run.py --workload all        # every workload, one table
  python3 perfbench/run.py record [--sets 0-15]  # re-record output digests
  python3 perfbench/run.py compare A.json B.json # compare two saved results

--trace 0 drives the user surfaces (radcrit_cli, radcrit_suite) as
subprocesses and reports the end-to-end metrics. --trace 1 runs the
same plan in-process through perfbench_probe, which records spans
around each layer's public functions, and reports per-layer metrics
derived from those spans. See perfbench/README.md.

Every run checks its outputs: the SHA-256 of every per-run CSV, suite
CSV and campaign-store entry must equal the digest recorded in
perfbench/digests.json for the seed's input set. The digests were
recorded at --jobs 1 and runs use JOBS = min(4, nproc) jobs, so a match
also shows the outputs do not depend on the job count.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".perfbench"
DIGESTS_FILE = BENCH_DIR / "digests.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("stencil-replay", "dense-cold", "dense-reanalyze",
             "suite-warm")
KERNELS = ("DGEMM", "LavaMD", "HotSpot", "CLAMR")
MANIFESTATIONS = ("BitFlipValue", "BitFlipInputLine", "WrongOperation",
                  "SkippedChunk", "StaleData", "MisscheduledBlock")

# Seeds select one of this many recorded input sets (seed mod N), so
# every seed has recorded output digests.
INPUT_SETS = 16
SETUP_REPEATS = 3
# Every measured command runs with this many jobs; one process at a time.
JOBS = min(4, os.cpu_count() or 1)
# A process that runs longer than this is killed and counted failed.
PROC_TIMEOUT_S = 150

HOTSPOT_RUNS = 400
# CLAMR replays cost 50 ms to 1.1 s each and about a third of runs
# replay, so a seed-drawn 24-run sample would swing a run's wall by
# more than the bounds allow. CLAMR campaigns therefore keep one
# fixed seed; HotSpot and the dense campaigns follow --seed.
CLAMR_RUNS = 24
CLAMR_SEED = 20170204
DENSE_RUNS = 600
DGEMM_SIDES = {"K40": (1024, 2048, 4096),
               "XeonPhi": (1024, 2048, 4096, 8192)}
LAVAMD_BOXES = {"K40": (15, 19, 23), "XeonPhi": (13, 15, 19, 23)}
THRESHOLDS = (2.0, 5.0)
SUITE_GLOBS = ("fig2*", "fig3*", "fig6*", "fig7*")
SUITE_RUNS = 40


@dataclass(frozen=True)
class Campaign:
    """One radcrit_cli campaign: --device --workload --size --runs --seed."""
    id: str
    device: str
    workload: str
    size: int
    runs: int
    seed: int


def campaign_seed(input_set, index):
    return 1 + 1000 * input_set + index


def stencil_campaigns(input_set):
    return [
        Campaign("k40-hotspot", "K40", "HotSpot", 0, HOTSPOT_RUNS,
                 campaign_seed(input_set, 0)),
        Campaign("phi-hotspot", "XeonPhi", "HotSpot", 0, HOTSPOT_RUNS,
                 campaign_seed(input_set, 1)),
        Campaign("k40-clamr", "K40", "CLAMR", 0, CLAMR_RUNS, CLAMR_SEED),
        Campaign("phi-clamr", "XeonPhi", "CLAMR", 0, CLAMR_RUNS,
                 CLAMR_SEED + 1),
    ]


def dense_campaigns(input_set):
    out = []
    for device, tag in (("K40", "k40"), ("XeonPhi", "phi")):
        for side in DGEMM_SIDES[device]:
            out.append(Campaign(f"{tag}-dgemm-{side}", device, "DGEMM",
                                side, DENSE_RUNS, 0))
        for boxes in LAVAMD_BOXES[device]:
            out.append(Campaign(f"{tag}-lavamd-{boxes}", device, "LavaMD",
                                boxes, DENSE_RUNS, 0))
    return [Campaign(c.id, c.device, c.workload, c.size, c.runs,
                     campaign_seed(input_set, i))
            for i, c in enumerate(out)]


# ---------------------------------------------------------------------------
# Processes and bookkeeping


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


@dataclass
class Proc:
    wall: float
    rss_mb: float
    rc: int


@dataclass
class Ctx:
    """State of one benchmark invocation."""
    bins: dict
    jobs: int
    work: Path
    expected: dict = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)

    @property
    def log(self):
        return self.work / "commands.log"


def run_proc(ctx, argv, stdout_path=None):
    """Run argv from the repo root; time it and read its peak RSS."""
    with open(ctx.log, "a") as log:
        log.write("$ " + " ".join(str(a) for a in argv) + "\n")
        log.flush()
        out = open(stdout_path, "w") if stdout_path else log
        try:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                                    stdout=out, stderr=log)
            timer = threading.Timer(PROC_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout_path:
                out.close()
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def has_infra_rows(csv_path):
    """True when a per-run CSV holds runs quarantined as infra outcomes."""
    with open(csv_path) as f:
        return any(",InfraError," in line or ",InfraTimeout," in line
                   for line in f)


def finish_op(ctx, label, rc, outputs, extra_problems=()):
    """Count one operation; its outputs are checked by check_ops().

    An operation is one campaign simulated, one campaign re-analyzed
    at one threshold, or one suite run. Checks run outside the timed
    region, so digesting outputs never counts toward a wall time.
    """
    ctx.pending.append((label, rc, outputs, list(extra_problems)))


def check_ops(ctx):
    """Check every pending operation.

    An operation fails on a non-zero exit, a missing output, an
    output whose digest differs from the recorded one, a quarantined
    run in a CSV, or any extra problem noted when it ran.
    """
    for label, rc, outputs, problems in ctx.pending:
        if rc != 0:
            problems.append(f"exit code {rc}")
        for name, path in sorted(outputs.items()):
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            digest = sha256(path)
            ctx.digests[name] = digest
            want = (ctx.expected or {}).get(name)
            if ctx.expected is not None and want != digest:
                problems.append(f"{name} digest {digest[:12]} != "
                                f"recorded {(want or 'none')[:12]}")
            if name.endswith(".csv") and has_infra_rows(path):
                problems.append(f"{name} has quarantined runs")
        ctx.attempted += 1
        if problems:
            ctx.failed += 1
            ctx.problems.append(f"{label}: " + "; ".join(problems))
    ctx.pending.clear()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def store_entries(store):
    return {p.name: p for p in store.iterdir() if p.suffix == ".beamlog"}


def quarantined(store):
    return sorted(p.name for p in store.iterdir()
                  if p.name.endswith(".quarantined"))


def cli_args(c, jobs, csv=None, cache=None):
    """radcrit_cli arguments that run campaign c."""
    args = [f"--device={c.device}", f"--workload={c.workload}",
            f"--runs={c.runs}", f"--seed={c.seed}", f"--jobs={jobs}"]
    if c.size:
        args.append(f"--size={c.size}")
    if csv:
        args.append(f"--csv={csv}")
    if cache:
        args.append(f"--cache={cache}")
    return args


def analyze_args(entry, threshold, csv):
    return ["analyze", f"--log={entry}", f"--filter-pct={threshold:g}",
            f"--csv={csv}"]


def suite_args(jobs, cache, out):
    return ["run", *SUITE_GLOBS, f"--runs={SUITE_RUNS}", f"--jobs={jobs}",
            f"--cache={cache}", f"--out={out}"]


def run_campaigns(ctx, campaigns, jobs, out, cache=None):
    """Run each campaign through radcrit_cli; return (procs, entries)."""
    procs, entries = [], {}
    for c in campaigns:
        before = set(store_entries(cache)) if cache else set()
        csv = out / f"{c.id}.csv"
        proc = run_proc(ctx, [ctx.bins["cli"],
                              *cli_args(c, jobs, csv, cache)])
        outputs = {csv.name: csv}
        extra = []
        if cache:
            new = {n: p for n, p in store_entries(cache).items()
                   if n not in before}
            if len(new) != 1:
                extra.append(f"expected one new store entry, got {len(new)}")
            outputs.update(new)
            entries.update({c.id: p for p in new.values()})
            extra += [f"store quarantined {q}" for q in quarantined(cache)]
        finish_op(ctx, f"{c.device} {c.workload} {c.id}", proc.rc, outputs,
                  extra)
        procs.append(proc)
    return procs, entries


def analyze_entries(ctx, campaigns, entries, out):
    """Re-analyze each stored campaign the way `radcrit_cli analyze` does."""
    procs = []
    for c in campaigns:
        for t in THRESHOLDS:
            csv = out / f"{c.id}@{t:g}.csv"
            entry = entries.get(c.id)
            if entry is None:
                finish_op(ctx, f"analyze {c.id}", 1, {csv.name: csv},
                          ["no store entry"])
                continue
            proc = run_proc(ctx, [ctx.bins["cli"],
                                  *analyze_args(entry, t, csv)])
            finish_op(ctx, f"analyze {c.id} @{t:g}%", proc.rc,
                      {csv.name: csv})
            procs.append(proc)
    return procs


def suite_run(ctx, jobs, cache, out, warm):
    """One `radcrit_suite run`; @return (proc, runs consumed)."""
    proc = run_proc(ctx, [ctx.bins["suite"], *suite_args(jobs, cache, out)])
    outputs = {p.name: p for p in out.glob("*.csv")}
    outputs.update(store_entries(cache))
    extra = [f"store quarantined {q}" for q in quarantined(cache)]
    runs = 0
    summary = out / "radcrit_suite.json"
    if summary.is_file():
        doc = json.loads(summary.read_text())
        runs = doc["totals"]["runs"]
        if warm and doc["campaigns"]["simulated"] != 0:
            extra.append(f"warm suite simulated "
                         f"{doc['campaigns']['simulated']} campaign(s)")
        if doc["resilience"]["store_quarantined"]:
            extra.append("suite quarantined store entries")
    elif proc.rc == 0:
        extra.append("no suite JSON")
    finish_op(ctx, f"suite {'warm' if warm else 'cold'}", proc.rc, outputs,
              extra)
    return proc, runs


def run_probe(ctx, mode, plan, out, trace_path=None):
    """Run perfbench_probe on a plan; @return (proc, summary or None).

    A plan is a list of commands, each ("cli", label, args) or
    ("suite", args); "{out}" in an argument stands for the probe
    pass's output directory. Fields are tab-separated in the file.
    """
    plan_file = out.parent / f"{out.name}.plan"
    plan_file.write_text("".join("\t".join(map(str, (*head, *args))) + "\n"
                                 for *head, args in plan))
    stdout = out.parent / f"{out.name}.stdout"
    argv = [ctx.bins["probe"], mode, f"--plan={plan_file}", f"--out={out}"]
    if trace_path:
        argv.append(f"--trace={trace_path}")
    proc = run_proc(ctx, argv, stdout)
    summary = None
    lines = stdout.read_text().strip().splitlines()
    if proc.rc == 0 and lines:
        summary = json.loads(lines[-1])
    return proc, summary


def campaign_plan(campaigns, jobs, cache=None):
    """Probe commands that run each campaign, outputs under {out}."""
    return [("cli", c.id, cli_args(c, jobs, f"{{out}}/{c.id}.csv", cache))
            for c in campaigns]


def probe_setup(ctx, campaigns, d):
    """Median-able set-up: the time radcrit_cli spends in make*Workload.

    The probe runs each campaign's radcrit_cli command in-process with
    one run and reports only the workload construction time.
    """
    plan = [("cli", c.id, cli_args(Campaign(c.id, c.device, c.workload,
                                            c.size, 1, c.seed), 1))
            for c in campaigns]
    proc, summary = run_probe(ctx, "setup", plan, d / "setup")
    if summary is None:
        finish_op(ctx, "probe setup", proc.rc or 1, {})
        check_ops(ctx)
        return None
    return summary["setup_s"]


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Rep:
    wall: float
    runs: int
    rss_mb: float


class Workload:
    """A workload: its set-up, one measured repetition, its traced plan."""
    name = ""
    input_sets = INPUT_SETS

    def __init__(self, input_set):
        self.input_set = input_set

    def setup(self, ctx, d):
        """Set up once in d; @return (seconds, state)."""
        raise NotImplementedError

    def rep(self, ctx, state, d, jobs):
        """Run one measured repetition in d; @return a Rep."""
        raise NotImplementedError

    def trace_setup(self, ctx, d):
        """Prepare what the traced pass reads; @return plan lines."""
        raise NotImplementedError


def timed_rep(ctx, procs_fn):
    start = time.perf_counter()
    procs, runs = procs_fn()
    wall = time.perf_counter() - start
    check_ops(ctx)
    return Rep(wall, runs, max((p.rss_mb for p in procs), default=0.0))


class StencilReplay(Workload):
    """Fresh, uncached HotSpot and CLAMR campaigns on both devices."""
    name = "stencil-replay"

    def campaigns(self):
        return stencil_campaigns(self.input_set)

    def setup(self, ctx, d):
        return probe_setup(ctx, self.campaigns(), d), None

    def rep(self, ctx, state, d, jobs):
        cs = self.campaigns()
        return timed_rep(ctx, lambda: (run_campaigns(ctx, cs, jobs, d)[0],
                                       sum(c.runs for c in cs)))

    def trace_setup(self, ctx, d):
        return campaign_plan(self.campaigns(), ctx.jobs)


class DenseCold(StencilReplay):
    """Every DGEMM side and LavaMD size, saved into an empty store."""
    name = "dense-cold"

    def campaigns(self):
        return dense_campaigns(self.input_set)

    def rep(self, ctx, state, d, jobs):
        cs = self.campaigns()
        store = fresh_dir(d / "store")
        return timed_rep(ctx, lambda: (
            run_campaigns(ctx, cs, jobs, d, store)[0],
            sum(c.runs for c in cs)))

    def trace_setup(self, ctx, d):
        return campaign_plan(self.campaigns(), ctx.jobs, "{out}/store")


class DenseReanalyze(DenseCold):
    """The dense campaigns, pre-stored, re-analyzed at two thresholds."""
    name = "dense-reanalyze"

    def setup(self, ctx, d):
        store = fresh_dir(d / "store")
        start = time.perf_counter()
        _, entries = run_campaigns(ctx, self.campaigns(), ctx.jobs, d, store)
        return time.perf_counter() - start, entries

    def rep(self, ctx, entries, d, jobs):
        cs = self.campaigns()
        return timed_rep(ctx, lambda: (
            analyze_entries(ctx, cs, entries, d),
            sum(c.runs for c in cs) * len(THRESHOLDS)))

    def trace_setup(self, ctx, d):
        _, entries = self.setup(ctx, d)
        return [("cli", f"{c.id}@{t:g}",
                 analyze_args(entries[c.id], t, f"{{out}}/{c.id}@{t:g}.csv"))
                for c in self.campaigns() if c.id in entries
                for t in THRESHOLDS]


class SuiteWarm(Workload):
    """radcrit_suite run over paper figures against a pre-filled store.

    The suite derives every campaign seed from its labels, so this
    workload has a single input set whatever the seed.
    """
    name = "suite-warm"
    input_sets = 1

    def setup(self, ctx, d):
        cache = fresh_dir(d / "cache")
        proc, _ = suite_run(ctx, ctx.jobs, cache, fresh_dir(d / "cold"),
                            warm=False)
        return proc.wall, cache

    def rep(self, ctx, cache, d, jobs):
        def go():
            proc, runs = suite_run(ctx, jobs, cache, fresh_dir(d / "out"),
                                   warm=True)
            return [proc], runs
        return timed_rep(ctx, go)

    def trace_setup(self, ctx, d):
        _, cache = self.setup(ctx, d)
        return [("suite", suite_args(ctx.jobs, cache, "{out}"))]


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (StencilReplay, DenseCold, DenseReanalyze, SuiteWarm)}


def make_workload(name, seed):
    cls = WORKLOAD_CLASSES[name]
    return cls(seed % cls.input_sets)


# ---------------------------------------------------------------------------
# Per-layer metrics from the probe's spans


def self_times(events):
    """Self time per span name: duration minus what its children cover."""
    children = defaultdict(list)
    for e in events:
        children[e["args"]["parent"]].append(e)
    totals = defaultdict(float)
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(e["args"]["id"], ()),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[e["name"]] += (e["dur"] - covered) * 1e-6
    return dict(totals)


def layer_metrics(events, summary, jobs, attempted, failed):
    """Every per-layer metric, derived from the traced pass's spans."""
    spans = defaultdict(list)
    for e in events:
        spans[e["name"]].append(e)

    def dur_s(es):
        return sum(e["args"]["dur_ns"] for e in es) * 1e-9

    def per(es, key=None):
        """Mean ns per call, or per unit of args[key]; 0 when none."""
        n = sum(e["args"][key] for e in es) if key else len(es)
        return dur_s(es) * 1e9 / n if n else 0.0

    def rate_mb(es):
        t = dur_s(es)
        return sum(e["args"]["value"] for e in es) / 1e6 / t if t else 0.0

    m = {}
    for k in KERNELS:
        m[f"kernels.setup_s.{k}"] = dur_s(
            [e for e in spans["kernels.setup"]
             if e["args"].get("kernel") == k])
    replay = spans["kernels.replay"]
    for k in KERNELS:
        rk = [e for e in replay if e["args"].get("kernel") == k]
        m[f"kernels.replay.{k}.calls"] = len(rk)
        m[f"kernels.replay.{k}.ns_per_call"] = per(rk)
        m[f"kernels.replay.{k}.yield"] = (
            sum(e["args"]["value"] for e in rk) / len(rk) if rk else 0.0)
        for man in MANIFESTATIONS:
            m[f"kernels.replay.{k}.{man}.ns_per_call"] = per(
                [e for e in rk if e["args"].get("manifestation") == man])
    pass_s = dur_s(spans["probe.pass"])
    m["kernels.replay.busy_s"] = dur_s(replay)
    m["kernels.replay.share"] = (dur_s(replay) / (jobs * pass_s)
                                 if pass_s else 0.0)
    m["sim.sample.ns_per_run"] = per(spans["sim.sample"])
    m["sim.classify.ns_per_run"] = per(spans["sim.classify"])
    m["engine.ns_per_run"] = per(spans["engine.simulateRun"])
    busy = dur_s(spans["engine.simulateRun"])
    capacity = sum(e["args"]["value"] * e["args"]["dur_ns"]
                   for e in spans["exec.dispatch"]) * 1e-9
    m["exec.pool.busy_s"] = busy
    m["exec.pool.idle_s"] = max(capacity - busy, 0.0)
    m["exec.pool.utilization"] = busy / capacity if capacity else 0.0
    m["logs.write.bytes"] = sum(e["args"]["value"]
                                for e in spans["logs.write"])
    m["logs.write.mb_per_s"] = rate_mb(spans["logs.write"])
    m["logs.parse.mb_per_s"] = rate_mb(spans["logs.parse"])
    m["logs.parse.ns_per_element"] = per(spans["logs.parse"], "elements")
    m["logs.busy_s"] = dur_s(spans["logs.write"] + spans["logs.parse"])
    # simulateOrLoad either loads a stored campaign or simulates
    # (exec.dispatch child) and saves it. `analyze --log` reads a
    # stored entry by path: a logs.parse outside simulateOrLoad.
    dispatched = defaultdict(float)
    for e in spans["exec.dispatch"]:
        dispatched[e["args"]["parent"]] += e["args"]["dur_ns"] * 1e-9
    lookups = spans["store.simulateOrLoad"]
    lookup_ids = {e["args"]["id"] for e in lookups}
    m["store.save_s"] = sum(dur_s([e]) - dispatched[e["args"]["id"]]
                            for e in lookups
                            if e["args"]["id"] in dispatched)
    m["store.load_s"] = dur_s(
        [e for e in lookups if e["args"]["id"] not in dispatched] +
        [e for e in spans["logs.parse"]
         if e["args"]["parent"] not in lookup_ids])
    m["store.hits"] = summary["store_hits"] + summary["entries_read"]
    m["store.misses"] = summary["store_misses"]
    m["store.quarantined"] = summary["store_quarantined"]
    m["store.bytes"] = sum(e["args"]["value"] for e in
                           spans["logs.write"] + spans["logs.parse"])
    m["analysis.ns_per_run"] = per(spans["analysis"], "value")
    m["analysis.ns_per_element"] = per(spans["analysis"], "elements")
    m["metrics.locality.ns_per_call"] = per(spans["metrics.locality"])
    m["metrics.filter.ns_per_call"] = per(spans["metrics.filter"])
    m["suite.prepass_s"] = dur_s(spans["suite.prepass"])
    suite_end = max((e["ts"] + e["dur"] for e in spans["suite.run"]),
                    default=0.0)
    prepass_end = max((e["ts"] + e["dur"] for e in spans["suite.prepass"]),
                      default=suite_end)
    m["suite.experiments_s"] = (suite_end - prepass_end) * 1e-6
    m["suite.setup_s"] = (dur_s(spans["kernels.setup"])
                          if spans["suite.run"] else 0.0)
    m["trace.overhead_s"] = summary["traced_s"] - summary["untraced_s"]
    m["error_rate"] = failed / attempted if attempted else 0.0
    return m


# ---------------------------------------------------------------------------
# Build, environment, results


def check_sources():
    if not (ROOT / "src").is_dir() or not (ROOT / "tools" /
                                           "radcrit_cli.cc").is_file():
        raise BenchError(f"radcrit sources not found under {ROOT}")


def build(jobs):
    """Configure and build the benchmark package; @return binary paths."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = WORK_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", str(jobs)])
    with open(log, "w") as f:
        for argv in steps:
            rc = subprocess.run([str(a) for a in argv], cwd=ROOT, stdout=f,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {"cli": BUILD_DIR / "radcrit_cli",
            "suite": BUILD_DIR / "radcrit_suite",
            "probe": BUILD_DIR / "perfbench_probe"}


def cmake_cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    return ""


def environment(args, workload):
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        version = out.splitlines()[0] if out else ""
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": compiler, "compiler_version": version,
            "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
            "git_commit": commit, "jobs": JOBS, "seed": args.seed,
            "input_set": workload.input_set, "workload": workload.name,
            "trace": args.trace, "seconds": args.seconds}


def load_spec():
    return json.loads(SPEC_FILE.read_text()) if SPEC_FILE.is_file() else None


def metric_units():
    spec = load_spec() or {}
    return {m["name"]: m["unit"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def recorded_digests(workload):
    if not DIGESTS_FILE.is_file():
        return None
    doc = json.loads(DIGESTS_FILE.read_text())
    return doc.get(workload.name, {}).get(str(workload.input_set))


def record_digests(bins, workload, work):
    """Run set-up plus one repetition at --jobs 1; @return their digests."""
    ctx = Ctx(bins=bins, jobs=1, work=fresh_dir(work))
    _, state = workload.setup(ctx, fresh_dir(work / "setup"))
    workload.rep(ctx, state, fresh_dir(work / "rep"), 1)
    check_ops(ctx)
    if ctx.failed:
        raise BenchError("recording failed: " + "; ".join(ctx.problems))
    return ctx.digests


def measure(ctx, workload, seconds, work):
    """Set up SETUP_REPEATS times, then repeat for `seconds`."""
    setups, state = [], None
    for i in range(SETUP_REPEATS):
        t, state = workload.setup(ctx, fresh_dir(work / f"setup{i}"))
        check_ops(ctx)
        if t is not None:
            setups.append(t)
    reps = []
    start = time.perf_counter()
    while True:
        rep_dir = fresh_dir(work / "rep")
        reps.append(workload.rep(ctx, state, rep_dir, ctx.jobs))
        if time.perf_counter() - start >= seconds:
            break
    median = statistics.median
    metrics = {
        "wall_s": median(r.wall for r in reps),
        "runs_per_s": median(r.runs / r.wall for r in reps),
        "setup_s": median(setups) if setups else 0.0,
        "peak_rss_mb": median(r.rss_mb for r in reps),
    }
    detail = {"setup_s": setups,
              "reps": [r.__dict__ for r in reps]}
    return metrics, detail


def traced(ctx, workload, work):
    """Set up once, run the probe, derive per-layer metrics."""
    plan = workload.trace_setup(ctx, fresh_dir(work / "setup"))
    check_ops(ctx)
    trace_path = WORK_DIR / "traces" / (
        f"{workload.name}-set{workload.input_set}.json")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    out = work / "probe"
    proc, summary = run_probe(ctx, "trace", plan, out, trace_path)
    if summary is None:
        finish_op(ctx, "probe trace", proc.rc or 1, {})
        check_ops(ctx)
        return {}, {}
    if summary["redrive_mismatches"]:
        finish_op(ctx, "probe re-drive", 1, {},
                  [f"{summary['redrive_mismatches']} re-driven runs "
                   "differ from simulateRun"])
    if summary["store_quarantined"]:
        finish_op(ctx, "probe store", 1, {},
                  [f"{summary['store_quarantined']} store entries "
                   "quarantined"])
    for pass_name in ("untraced", "traced"):
        pass_dir = out / pass_name
        outputs = {p.name: p for p in pass_dir.glob("*.csv")}
        if (pass_dir / "store").is_dir():
            outputs.update(store_entries(pass_dir / "store"))
        for name, path in sorted(outputs.items()):
            finish_op(ctx, f"probe {pass_name} {name}", 0, {name: path})
    check_ops(ctx)
    doc = json.loads(trace_path.read_text())
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    metrics = layer_metrics(events, summary, ctx.jobs,
                            ctx.attempted, ctx.failed)
    detail = {"probe": summary, "trace_file": str(trace_path),
              "self_s": self_times(events)}
    return metrics, detail


def run_workload(args, bins, name):
    workload = make_workload(name, args.seed)
    work = fresh_dir(WORK_DIR / "work" / name)
    ctx = Ctx(bins=bins, jobs=JOBS, work=work)
    # A missing digest set leaves ctx.expected empty, so every output
    # fails its check; `run.py record` records new sets.
    ctx.expected = recorded_digests(workload) or {}
    if args.trace:
        metrics, detail = traced(ctx, workload, work)
    else:
        metrics, detail = measure(ctx, workload, args.seconds, work)
    spec = load_spec()
    if spec is not None:
        names = [m["name"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]]
        metrics = {n: metrics[n] for n in names if n in metrics}
    units = metric_units()
    result = {
        "correct": ctx.failed == 0 and bool(metrics),
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed if ctx.attempted else 1,
        "metrics": {n: {"value": v, "unit": units.get(n, "")}
                    for n, v in metrics.items()},
    }
    env = environment(args, workload)
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "detail": detail,
                    "problems": ctx.problems}, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    for problem in ctx.problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    return env, result


def compare(paths):
    """Print metric ratios of two saved results; refuse unlike machines."""
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    for key in ("build_type", "nproc"):
        if a["env"][key] != b["env"][key]:
            print(f"perfbench: refusing to compare: {key} differs "
                  f"({a['env'][key]} vs {b['env'][key]})", file=sys.stderr)
            return 3
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:48s} {ma['value']:14.6g} {mb['value']:14.6g} "
              f"{ratio:8.3f} {ma['unit']}")
    return 0


def parse_sets(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "record"))
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", default=f"0-{INPUT_SETS - 1}",
                        help="record: input sets to record, e.g. 0-15")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        check_sources()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        bins = build(JOBS)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.command == "record":
            doc = (json.loads(DIGESTS_FILE.read_text())
                   if DIGESTS_FILE.is_file() else {})
            for name in names:
                cls = WORKLOAD_CLASSES[name]
                for s in parse_sets(args.sets):
                    if s >= cls.input_sets:
                        continue
                    digests = record_digests(bins, cls(s),
                                             WORK_DIR / "work" / "record")
                    doc.setdefault(name, {})[str(s)] = digests
                    DIGESTS_FILE.write_text(
                        json.dumps(doc, indent=1, sort_keys=True) + "\n")
                    print(f"recorded {name} input set {s}", flush=True)
            return 0
        outcomes = {name: run_workload(args, bins, name) for name in names}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    for name, (env, result) in outcomes.items():
        print("perfbench env: " + json.dumps(env))
        for metric, v in result["metrics"].items():
            print(f"  {name:16s} {metric:44s} {v['value']:16.6f} "
                  f"{v['unit']}")
        if "error_rate" not in result["metrics"]:
            print(f"  {name:16s} {'error_rate':44s} "
                  f"{result['failed'] / result['attempted']:16.6f} ratio")
    ok = all(r["correct"] for _, r in outcomes.values())
    if len(outcomes) == 1:
        print(json.dumps(next(iter(outcomes.values()))[1]))
    else:
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for _, r in outcomes.values()),
            "failed": sum(r["failed"] for _, r in outcomes.values()),
            "workloads": {n: r["metrics"] for n, (_, r) in outcomes.items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
