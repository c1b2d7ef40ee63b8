#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 nocbench/test_nocbench.py

Builds the driver (as run.py does) and checks that the sharded workload is
bit-identical to its serial run, that a held-out seed runs every workload
cleanly, that work counts and modelled outputs repeat exactly, and that
the benchmark refuses to run without the simulator sources.
"""

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Not used while the workloads were sized, and absent from digests.json.
HELD_OUT_SEED = 7919

COUNTS = ("noc.flit_hops", "noc.buffer_writes", "noc.vc_allocs", "noc.sa_grants",
          "noc.packets", "noc.idle_router_fraction", "thermal.transient_steps",
          "mem.tile_cycles", "mem.dram_reads", "mem.dram_writes", "mem.queue_peak",
          "mem.mcast_replications")
MODELLED = ("sim_latency_cycles", "sim_p99_latency_cycles", "noc_energy_uj")


def setUpModule():
    global BINARY
    BINARY = run.build()


def drive(workload, seed, trace):
    return run.run_driver(BINARY, workload, seed, 1, trace,
                          time.monotonic() + run.TIME_LIMIT_S)


class NocbenchTest(unittest.TestCase):
    def test_sharded_digest_equals_serial(self):
        doc = drive("sharded_mesh32", HELD_OUT_SEED, 1)
        self.assertEqual(doc["failures"], [])
        self.assertEqual(doc["host"]["sim_threads"], 2)
        self.assertEqual(doc["serial_digest"], doc["digest"])

    def test_held_out_seed_runs_every_workload_cleanly(self):
        self.assertNotIn(str(HELD_OUT_SEED),
                         run.recorded_digests().get("dense_mesh16", {}))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    doc = drive(workload, HELD_OUT_SEED, trace)
                    result, problems = run.result_line(doc, trace)
                    self.assertEqual(problems, [])
                    self.assertEqual(doc["failures"], [])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = [m["name"] for m in run.declared_metrics(trace)]
                    self.assertEqual(sorted(result["metrics"]), sorted(declared))
                    if not trace:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_counts_and_modelled_outputs_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = drive(workload, HELD_OUT_SEED, 1)
                b = drive(workload, HELD_OUT_SEED, 1)
                self.assertEqual(a["digest"], b["digest"])
                for name in COUNTS:
                    self.assertEqual(a["per_layer"][name], b["per_layer"][name], name)
                for name in MODELLED:
                    self.assertEqual(a["end_to_end"][name], b["end_to_end"][name], name)

    def test_refuses_to_run_without_sources(self):
        bare = run.BUILD_DIR.parent / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                 "dense_mesh16", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
