#!/usr/bin/env python3
"""The benchmark's own tests, on its quick mode (n=32, at most 2 instances).

    python3 perfbench/test_perfbench.py      # from the root of a checkout

Builds through run.py like a real run, then checks that every metric named
in BENCHMARK.json prints with its unit, that the spans of the traced run are
well-formed, that traced and untraced runs see the same instances, that a
known-failing spec is counted as failed, and that the benchmark refuses to
run without the library sources beside it.
"""
import glob
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def read(path):
    """A file the benchmark names, relative to the checkout root."""
    with open(os.path.join(ROOT, path)) as f:
        return f.read()


SPEC = json.loads(read("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    """Records (all lines but the last) and the result (the last line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode:
        raise AssertionError("%s exited %d: %s" % (cmd, proc.returncode,
                                                   proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return [json.loads(l) for l in lines[:-1]], json.loads(lines[-1])


class QuickMode(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[w, trace] = run_bench(w, trace)

    def test_every_metric_prints_with_its_unit(self):
        for (w, trace), (_, result) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in want])
                for m in want:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertTrue(math.isfinite(got["value"]))

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            for name, m in self.runs[w, 0][1]["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_spans_are_well_formed(self):
        for w in WORKLOADS:
            records, _ = self.runs[w, 1]
            summary = next(r for r in records if r["record"] == "summary")
            self.assertEqual(summary["span_problems"], 0)
            events = json.loads(read(summary["trace_file"]))["traceEvents"]
            self.assertTrue(events)
            by_id = {e["args"]["id"]: e for e in events}
            child_us = {}
            for e in events:
                parent = e["args"]["parent"]
                if parent < 0:
                    continue
                p = by_id[parent]
                with self.subTest(workload=w, span=e["name"]):
                    self.assertGreaterEqual(e["ts"], p["ts"] - 1e-3)
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"] + 1e-3)
                child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
            for e in events:
                self.assertGreaterEqual(e["args"]["self_us"], -1e-3)
                self.assertAlmostEqual(
                    e["args"]["self_us"],
                    e["dur"] - child_us.get(e["args"]["id"], 0.0), delta=1e-2)
            names = {e["name"] for e in events}
            for layer in ("replay", "tree.build", "core.ae", "core.a2e",
                          "crypto.deal", "crypto.decode_clean",
                          "crypto.decode_damaged"):
                self.assertIn(layer, names)

    def test_traced_and_untraced_runs_see_the_same_instances(self):
        for w in WORKLOADS:
            untraced = {r["seed_offset"]: r["fingerprint"]
                        for r in self.runs[w, 0][0]
                        if r["record"] == "instance"}
            traced = [r for r in self.runs[w, 1][0]
                      if r["record"] == "instance"]
            self.assertTrue(traced)
            for r in traced:
                with self.subTest(workload=w, seed_offset=r["seed_offset"]):
                    self.assertTrue(r["guard_ok"])
                    self.assertEqual(r["replay_fingerprint"], r["fingerprint"])
                    if r["seed_offset"] in untraced:
                        self.assertEqual(untraced[r["seed_offset"]],
                                         r["fingerprint"])

    def test_every_record_is_replayable(self):
        for (w, trace), (records, _) in self.runs.items():
            summary = next(r for r in records if r["record"] == "summary")
            jobs = read(summary["jobs"]).splitlines()
            offsets = [r["seed_offset"] for r in records
                       if r["record"] == "instance"]
            self.assertEqual([int(j.split()[0].split("=")[1]) for j in jobs],
                             offsets)
            host = next(r for r in records if r["record"] == "host")
            for key in ("nproc", "simd", "build_type", "compiler",
                        "git_commit", "loadavg_1m_before",
                        "loadavg_1m_after"):
                self.assertIn(key, host)

    def test_a_known_failing_spec_counts_as_failed(self):
        # Adaptive takeover breaks all-good agreement on every seed at n=32.
        for trace in (0, 1):
            records, result = run_bench(WORKLOADS[0], trace,
                                        "--set", "adversary=adaptive_takeover")
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
            if trace == 0:
                self.assertEqual(result["metrics"]["ok_share"]["value"], 0)
                summary = next(r for r in records if r["record"] == "summary")
                self.assertEqual(summary["failed_share"], 1)
            else:
                # Failed instances are still replayed and still match.
                for r in records:
                    if r["record"] == "instance":
                        self.assertTrue(r["guard_ok"])

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for f in glob.glob(os.path.join(HERE, "*")):
            if os.path.isfile(f):
                shutil.copy(f, os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
