#!/usr/bin/env python3
"""Tests of the benchmark itself: metric names, failure accounting,
and that each workload stresses the layer it was chosen for.

  python3 perfbench/test_perfbench.py

The tests that run radcrit build perfbench's package first (about a
minute from scratch) and use tiny campaign plans.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as R  # noqa: E402

SPEC = json.loads(R.SPEC_FILE.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_names(kind):
    return [m["name"] for m in SPEC[kind]]


class FakeWorkload(R.Workload):
    name = "fake"

    def setup(self, ctx, d):
        return 0.5, None

    def rep(self, ctx, state, d, jobs):
        return R.Rep(wall=2.0, runs=10, rss_mb=12.0)


class SpecTest(unittest.TestCase):
    def test_spec_is_well_formed(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(R.WORKLOADS))
        names = spec_names("end_to_end") + spec_names("per_layer")
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_end_to_end_names_match_what_is_printed(self):
        with tempfile.TemporaryDirectory() as tmp:
            ctx = R.Ctx(bins={}, jobs=1, work=Path(tmp))
            metrics, _ = R.measure(ctx, FakeWorkload(0), 0, Path(tmp))
        self.assertEqual(sorted(metrics), sorted(spec_names("end_to_end")))

    def test_per_layer_names_match_what_is_printed(self):
        summary = {"store_hits": 0, "store_misses": 0,
                   "store_quarantined": 0, "entries_read": 0,
                   "traced_s": 1.0, "untraced_s": 1.0}
        metrics = R.layer_metrics([], summary, 4, 1, 0)
        self.assertEqual(sorted(metrics), sorted(spec_names("per_layer")))

    def test_readme_maps_every_per_layer_metric(self):
        readme = (R.BENCH_DIR / "README.md").read_text()
        for name in spec_names("per_layer"):
            self.assertIn(f"`{name}`", readme)

    def test_self_time_subtracts_children(self):
        def span(i, parent, ts, dur, name):
            return {"name": name, "ts": ts, "dur": dur,
                    "args": {"id": i, "parent": parent}}
        events = [span(1, 0, 0, 100, "a"), span(2, 1, 10, 30, "b"),
                  span(3, 1, 20, 30, "b")]
        self_s = R.self_times(events)
        self.assertAlmostEqual(self_s["a"], 60e-6)
        self.assertAlmostEqual(self_s["b"], 60e-6)

    def test_compare_refuses_unlike_builds(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a.json"), Path(tmp, "b.json")
            res = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
            a.write_text(json.dumps({"env": {"build_type": "Release",
                                             "nproc": 4}, "result": res}))
            b.write_text(json.dumps({"env": {"build_type": "Debug",
                                             "nproc": 4}, "result": res}))
            self.assertNotEqual(R.compare([a, b]), 0)
            b.write_text(a.read_text())
            self.assertEqual(R.compare([a, b]), 0)

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(R.SPEC_FILE, tmp)
            shutil.copytree(R.BENCH_DIR, Path(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "dense-cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class RadcritTest(unittest.TestCase):
    """Runs the real binaries on tiny plans."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.saved = {k: getattr(R, k) for k in
                     ("WORK_DIR", "DGEMM_SIDES", "LAVAMD_BOXES",
                      "DENSE_RUNS", "SUITE_GLOBS", "SUITE_RUNS")}
        R.WORK_DIR = Path(cls.tmp.name)
        R.DGEMM_SIDES = {"K40": (1024,), "XeonPhi": ()}
        R.LAVAMD_BOXES = {"K40": (), "XeonPhi": (13,)}
        R.DENSE_RUNS = 30
        R.SUITE_GLOBS = ("fig6*",)
        R.SUITE_RUNS = 6
        cls.bins = R.build(4)

    @classmethod
    def tearDownClass(cls):
        for k, v in cls.saved.items():
            setattr(R, k, v)
        cls.tmp.cleanup()

    def ctx(self, name):
        return R.Ctx(bins=self.bins, jobs=2,
                     work=R.fresh_dir(R.WORK_DIR / name))

    def traced(self, workload, name):
        ctx = self.ctx(name)
        metrics, _ = R.traced(ctx, workload, ctx.work)
        self.assertEqual(ctx.failed, 0, ctx.problems)
        return metrics

    def test_digest_mismatch_is_a_failure(self):
        ctx = self.ctx("mismatch")
        c = R.dense_campaigns(0)[0]
        ctx.expected = {f"{c.id}.csv": "0" * 64}
        R.run_campaigns(ctx, [c], 2, ctx.work)
        R.check_ops(ctx)
        self.assertEqual((ctx.attempted, ctx.failed), (1, 1))
        self.assertIn("digest", ctx.problems[0])

    def test_corrupted_entry_fails_reanalysis(self):
        ctx = self.ctx("corrupt-analyze")
        campaigns = R.dense_campaigns(0)
        store = R.fresh_dir(ctx.work / "store")
        _, entries = R.run_campaigns(ctx, campaigns, 2, ctx.work, store)
        R.check_ops(ctx)
        self.assertEqual(ctx.failed, 0, ctx.problems)
        entry = entries[campaigns[0].id]
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        R.analyze_entries(ctx, campaigns, entries, ctx.work)
        R.check_ops(ctx)
        self.assertEqual(ctx.failed, len(R.THRESHOLDS), ctx.problems)

    def test_corrupted_entry_fails_warm_suite(self):
        ctx = self.ctx("corrupt-suite")
        workload = R.SuiteWarm(0)
        _, cache = workload.setup(ctx, ctx.work)
        R.check_ops(ctx)
        self.assertEqual(ctx.failed, 0, ctx.problems)
        entry = sorted(R.store_entries(cache).values())[0]
        entry.write_bytes(b"not a beam log\n")
        workload.rep(ctx, cache, R.fresh_dir(ctx.work / "rep"), 2)
        self.assertEqual(ctx.failed, 1, ctx.problems)
        self.assertRegex(ctx.problems[0], "quarantined|simulated")

    def test_cold_trace_misses_every_lookup(self):
        m = self.traced(R.DenseCold(0), "trace-cold")
        n = len(R.dense_campaigns(0))
        self.assertEqual((m["store.hits"], m["store.misses"]), (0, n))
        self.assertGreater(m["logs.write.bytes"], 0)
        self.assertGreater(m["kernels.replay.DGEMM.calls"], 0)

    def test_reanalyze_trace_replays_nothing_and_hits_every_lookup(self):
        m = self.traced(R.DenseReanalyze(0), "trace-reanalyze")
        # Every `analyze --log` command reads its stored entry back.
        n = len(R.dense_campaigns(0)) * len(R.THRESHOLDS)
        for k in R.KERNELS:
            self.assertEqual(m[f"kernels.replay.{k}.calls"], 0)
        self.assertEqual((m["store.hits"], m["store.misses"]), (n, 0))
        self.assertGreater(m["logs.parse.mb_per_s"], 0)

    def test_suite_trace_times_prepass_and_setup(self):
        m = self.traced(R.SuiteWarm(0), "trace-suite")
        self.assertGreater(m["suite.prepass_s"], 0)
        self.assertGreater(m["suite.setup_s"], 0)
        self.assertEqual(m["store.misses"], 0)


if __name__ == "__main__":
    unittest.main()
