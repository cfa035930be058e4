#!/usr/bin/env python3
"""Smoke self-test of the gdelay benchmark.

    python3 perfbench/tests/test_smoke.py

Run from the root of a checkout (the first run builds the benchmark).
For every workload in BENCHMARK.json it runs one short plain run and one
short traced run on a seed other than the usual ones, and checks that the
golden digests match on both backends, no op failed, and every declared
metric is emitted with its declared unit. It also checks that the
benchmark refuses to run without the program's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SEED = 987654321
SECONDS = 1


# Knob overrides a user might have exported; the benchmark must record
# them and still run with its pinned settings.
INHERITED_ENV = {"GDELAY_THREADS": "1", "GDELAY_BACKEND": "scalar",
                 "GDELAY_SERVICE_SHARDS": "2", "GDELAY_CAMPAIGN_MODE": "serial",
                 "GDELAY_CAMPAIGN_SHARDS": "3"}


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, **(env or {})))


def stamp_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("# stamp "):
            return json.loads(line[len("# stamp "):])
    raise AssertionError("no stamp line")


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def check_run(self, workload, trace, declared, env=None):
        proc = run_bench(workload, trace, env=env)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        golden = [l for l in lines if l.startswith("# golden")]
        self.assertEqual(len(golden), 2, lines)
        for line in golden:
            self.assertTrue(line.endswith(" ok"), line)
        stamp = stamp_of(proc.stdout)
        self.assertEqual(stamp["build_type"], "Release")
        self.assertEqual(stamp["pool_threads"], 4)
        self.assertEqual([b["select"] for b in stamp["backends"]],
                         ["scalar", "auto"])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
        return metrics, stamp

    def test_workloads(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                m, _ = self.check_run(w["name"], 0, self.spec["end_to_end"])
                for e in self.spec["end_to_end"]:
                    self.assertGreater(m[e["name"]]["value"], 0, e["name"])
            with self.subTest(workload=w["name"], trace=1):
                m, _ = self.check_run(w["name"], 1, self.spec["per_layer"])
                self.assertEqual(m["fail_share"]["value"], 0)

    def test_inherited_env_is_recorded_not_obeyed(self):
        _, stamp = self.check_run("campaign_mc", 0, self.spec["end_to_end"],
                                  env=INHERITED_ENV)
        self.assertEqual(stamp["inherited_env"], INHERITED_ENV)
        self.assertEqual(stamp["campaign_mode"], "thread")
        self.assertEqual(stamp["campaign_shards"], 4)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench(self.spec["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
