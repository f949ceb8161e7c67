"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Checks that generated configs pass `parse_config` validation at several
seeds and differ only in the bank seed, that BENCHMARK.json lists
exactly the metrics run.py reports, and the self-time arithmetic of the
tracer.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from thickflow.config import parse_config, parse_raw  # noqa: E402

import run  # noqa: E402
from tracer import _self_times, _union  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

SEEDS = (0, 1, 2, 17, 2026, 2**40 + 3)


class ConfigGenerator(unittest.TestCase):
    def test_configs_validate(self):
        for name, w in WORKLOADS.items():
            for seed in SEEDS:
                with self.subTest(workload=name, seed=seed):
                    cfg = parse_config(config_text(w, seed))
                    self.assertEqual(cfg.model, w.sections["model"]["kind"])
                    c1, _ = cfg.initial_density_range()
                    self.assertGreater(c1, 0.0)

    def test_same_seed_same_config(self):
        for w in WORKLOADS.values():
            self.assertEqual(config_text(w, 5), config_text(w, 5))

    def test_seeds_differ_only_in_bank_seed(self):
        for name, w in WORKLOADS.items():
            raws = [parse_raw(config_text(w, seed)) for seed in SEEDS]
            with self.subTest(workload=name):
                self.assertEqual(len({r["initial"].pop("seed") for r in raws}),
                                 len(SEEDS))
                self.assertTrue(all(r == raws[0] for r in raws))


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual([w["why"] for w in spec["workloads"]],
                         [w.why for w in WORKLOADS.values()])


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertAlmostEqual(_union(np.array([0.0, 1.0, 5.0]),
                                      np.array([2.0, 3.0, 6.0])), 4.0)

    def test_children_on_two_threads(self):
        # root 0..10 with children 1..5 and 2..6 on two threads, and a
        # grandchild 3..4 inside the first child
        spans = {"id": np.array([1, 2, 3, 4]),
                 "parent": np.array([0, 1, 1, 2]),
                 "start": np.array([0.0, 1.0, 2.0, 3.0]),
                 "end": np.array([10.0, 5.0, 6.0, 4.0])}
        self_t = _self_times(spans)
        self.assertAlmostEqual(self_t[1], 5.0)
        self.assertAlmostEqual(self_t[2], 3.0)
        self.assertAlmostEqual(self_t[3], 4.0)
        self.assertAlmostEqual(self_t[4], 1.0)


if __name__ == "__main__":
    unittest.main()
