#!/usr/bin/env python3
"""Determinism self-check of the tsg_serve benchmark.

Two short runs with one seed must send byte-identical request streams and
report identical per-request counts (optimize evaluations, top-K solves,
Monte Carlo samples, incremental warm states kept, constructed payload-cache
hits); the daemon's cache-hit counter must equal the constructed count, and
every response must match the in-process executor.  Each run sends a fixed
number of requests per client, so no count depends on timing.

    python3 tsgbench/test_determinism.py
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
# Requests per client: each batch client's stream holds four sweeps
# (one every 24th request), the last a deliberate repeat.
REQUESTS = {"interactive": 40, "batch": 96, "jobs": 24}


def selfcheck(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--selfcheck", str(REQUESTS[workload])],
        stdout=subprocess.PIPE, timeout=900, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def test_one_seed_repeats_exactly(self):
        for workload in REQUESTS:
            with self.subTest(workload=workload):
                first = selfcheck(workload, 7)
                second = selfcheck(workload, 7)
                for run in (first, second):
                    self.assertEqual(run["failed"], 0)
                    self.assertEqual(run["mismatches"], 0)
                    self.assertEqual(run["cache_hits"], run["constructed_cache_hits"])
                self.assertEqual(first["stream_digest"], second["stream_digest"])
                self.assertEqual(first["counts"], second["counts"])
                self.assertEqual(first["requests"], second["requests"])

    def test_seed_drives_the_stream(self):
        self.assertNotEqual(selfcheck("jobs", 7)["stream_digest"],
                            selfcheck("jobs", 8)["stream_digest"])


if __name__ == "__main__":
    unittest.main()
