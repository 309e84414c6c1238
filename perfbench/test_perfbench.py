#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism, output contract, trace sanity.

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then drives the binary directly. Needs a
host with PKU (the benchmark refuses to measure elsewhere).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

# The share of an untraced request the replayed serve path may leave
# outside every span before the replay counts as drifted from
# HandleRequestLine.
MAX_UNATTRIBUTED_FRAC = 0.15

# Per-layer metrics that are counts or ratios of counts: they must repeat
# exactly for a seed.
COUNT_METRICS = (
    "server.sessions_created_per_kreq",
    "server.sessions_released_per_kreq",
    "multidomain.vpkey.hit_ratio",
    "multidomain.vpkey.evictions_per_req",
    "runtime.transitions_per_op",
    "pkalloc.trusted.allocs_per_op",
    "pkalloc.untrusted.allocs_per_op",
    "pkalloc.cache.hit_ratio",
    "runtime.untrusted_frac",
    "mpk.faults.serviced_in_setup",
)

BINARY = None
TRACED = {}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(*args):
    done = subprocess.run([BINARY] + list(args), stdout=subprocess.PIPE, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


def traced(workload, seed=3):
    """Traced-run result; cached so each (workload, seed) runs once."""
    key = (workload, seed)
    if key not in TRACED:
        code, lines = perfbench("--workload", workload, "--seed", str(seed),
                                "--seconds", "1", "--trace", "1")
        assert code == 0, lines[-3:]
        TRACED[key] = json.loads(lines[-1])
    return TRACED[key]


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("perfbench did not build")


class OutputContractTest(unittest.TestCase):
    def test_timed_run_reports_every_end_to_end_metric(self):
        names = [m["name"] for m in spec()["end_to_end"]]
        for workload in run.WORKLOADS:
            code, lines = perfbench("--workload", workload, "--seed", "1", "--seconds", "1",
                                    "--trace", "0")
            self.assertEqual(code, 0, lines[-3:])
            result = json.loads(lines[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), names)
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
            env = json.loads(lines[0])["env"]
            self.assertEqual(env["backend"], "hardware")

    def test_traced_run_reports_every_per_layer_metric(self):
        names = [m["name"] for m in spec()["per_layer"]]
        for workload in run.WORKLOADS:
            result = traced(workload)
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), names)

    def test_refuses_without_the_program_sources(self):
        scratch = os.path.join(run.build_dir(), "lone-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(["python3", "perfbench/run.py", "--workload", "serve_hot",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=scratch, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=170)
        shutil.rmtree(scratch)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_gives_identical_counts(self):
        for workload in run.WORKLOADS:
            first = values(traced(workload, seed=5))
            TRACED.pop((workload, 5))
            second = values(traced(workload, seed=5))
            for name in COUNT_METRICS:
                self.assertEqual(first[name], second[name], "%s %s" % (workload, name))

    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(perfbench("--workload", workload, "--seed", "7",
                                       "--print-inputs", "200"),
                             perfbench("--workload", workload, "--seed", "7",
                                       "--print-inputs", "200"))

    def test_other_seed_gives_other_script_texts(self):
        for workload in ("serve_hot", "serve_churn"):
            _, one = perfbench("--workload", workload, "--seed", "1", "--print-inputs", "300")
            _, two = perfbench("--workload", workload, "--seed", "2", "--print-inputs", "300")
            scripts_one = {json.loads(line.split("\t")[0])["script"] for line in one}
            scripts_two = {json.loads(line.split("\t")[0])["script"] for line in two}
            self.assertFalse(scripts_one & scripts_two, workload)
        _, one = perfbench("--workload", "browse_dom", "--seed", "1", "--print-inputs", "14")
        _, two = perfbench("--workload", "browse_dom", "--seed", "2", "--print-inputs", "14")
        self.assertNotEqual(one, two)
        self.assertEqual(sorted(one), sorted(two))

    def test_churn_scripts_never_repeat_and_hot_scripts_do(self):
        _, churn = perfbench("--workload", "serve_churn", "--seed", "1", "--print-inputs", "2000")
        self.assertEqual(len({line.split("\t")[0] for line in churn}), 2000)
        _, hot = perfbench("--workload", "serve_hot", "--seed", "1", "--print-inputs", "2000")
        scripts = {json.loads(line.split("\t")[0])["script"] for line in hot}
        self.assertLessEqual(len(scripts), 33)


class LayerStressTest(unittest.TestCase):
    def test_each_workload_stresses_its_layer(self):
        hot, churn, dom = (values(traced(w)) for w in run.WORKLOADS)
        self.assertGreater(hot["multidomain.vpkey.hit_ratio"], 0.99)
        self.assertLess(churn["multidomain.vpkey.hit_ratio"], 0.5)
        self.assertGreater(churn["server.sessions_created_per_kreq"], 0)
        self.assertEqual(hot["server.sessions_created_per_kreq"], 0)
        self.assertGreaterEqual(dom["runtime.transitions_per_op"],
                                100 * hot["runtime.transitions_per_op"])
        self.assertGreater(dom["mpk.faults.serviced_in_setup"], 0)

    def test_trace_accounts_for_the_serve_request(self):
        for workload in ("serve_hot", "serve_churn"):
            result = values(traced(workload))
            self.assertLess(result["trace.unattributed_frac"], MAX_UNATTRIBUTED_FRAC, workload)


if __name__ == "__main__":
    unittest.main()
