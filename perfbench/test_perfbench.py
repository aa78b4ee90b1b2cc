#!/usr/bin/env python3
"""Self-tests of the benchmark (perfbench/README.md).

    python3 perfbench/test_perfbench.py            # every workload, ~3 min
    python3 perfbench/test_perfbench.py -k des     # one workload

For every workload:
  * a traced run at a seed other than the development seed passes every
    oracle and reports every per-layer metric BENCHMARK.json names;
  * a second traced run at the same seed repeats the deterministic counts
    exactly;
  * a negative-control run (every oracle fed a wrong expected value)
    reports failures of each of the workload's oracles on its own;
  * an untraced run reports exactly the end-to-end metrics;
  * every run other than the negative control reports no oracle failure.
Also: without the library sources next to it the benchmark exits nonzero
and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DETERMINISTIC = ("sim.events", "core.solve_fixed_point.iterations",
                 "linalg.iterative.applications",
                 "spectral.model_evaluations")
CHECK_SEED = 20261017  # not the seed the benchmark was developed on
# The oracles each workload evaluates, as the details line names them
# ("failed.<oracle>"; README "Oracles").
ORACLES = {
    "map_smalln": {"radius_finite", "t3", "t4", "s2_radius", "orbit"},
    "spectral_single": {"converged", "closed_form_radius", "t4"},
    "spectral_multi": {"converged", "fixed_point", "t4", "fd_reference"},
    "des_packets": {"queue_band"},
}


def run(workload, seed, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().split("\n")[-1])


def oracle_failures(done):
    """Failures per oracle, from the details line."""
    prefix = "details: "
    line = next(l for l in done.stdout.split("\n") if l.startswith(prefix))
    details = json.loads(line[len(prefix):])
    return {k[len("failed."):]: v for k, v in details.items()
            if k.startswith("failed.")}


class WorkloadTests(unittest.TestCase):
    pass


def add_tests(workload):
    def test_traced_runs(self):
        first_run = run(workload, CHECK_SEED, 1)
        second_run = run(workload, CHECK_SEED, 1)
        first, second = result_of(first_run), result_of(second_run)
        for done in (first_run, second_run):
            self.assertEqual(oracle_failures(done),
                             dict.fromkeys(ORACLES[workload], 0))
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                PER_LAYER)
        for name in DETERMINISTIC:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        self.assertGreaterEqual(
            first["metrics"]["trace.attributed_frac"]["value"], 0.95)

    def test_negative_control(self):
        done = run(workload, CHECK_SEED, 0, "--negative-control")
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        failures = oracle_failures(done)
        self.assertEqual(set(failures), ORACLES[workload])
        for oracle, count in failures.items():
            self.assertGreater(count, 0, oracle)

    def test_end_to_end_metrics(self):
        done = run(workload, CHECK_SEED + 1, 0)
        result = result_of(done)
        self.assertTrue(result["correct"])
        self.assertEqual(oracle_failures(done),
                         dict.fromkeys(ORACLES[workload], 0))
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()}, END_TO_END)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    for test in (test_traced_runs, test_negative_control,
                 test_end_to_end_metrics):
        setattr(WorkloadTests, f"{test.__name__}_{workload}", test)


for _workload in WORKLOADS:
    add_tests(_workload)


class MissingSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        try:
            done = subprocess.run(
                [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                check=False)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
