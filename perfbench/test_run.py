"""Checks of the benchmark definition and of run.py's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = run.ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkDefinition(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.raw = BENCHMARK.read_bytes()
        cls.spec = json.loads(cls.raw)

    def test_shape_and_limits(self):
        s = self.spec
        self.assertLessEqual(len(self.raw), 64 * 1024)
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(s["command"]) <= 32)
        for arg in s["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        for p in s["paths"]:
            self.assertRegex(p, PATH)
            self.assertNotIn("..", p.split("/"))
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)

    def test_names_units_and_whys(self):
        s = self.spec
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names are used once")

    def test_setup_metric(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_matches_run_py(self):
        s = self.spec
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in s["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in s["per_layer"]},
            run.PER_LAYER)
        for name in run.PRINTED_ONLY:
            self.assertNotIn(name, run.PER_LAYER)

    def test_run_budget(self):
        # Every run of the driver's schedule, at the longest a run may take
        # to start its last repetition, fits the schedule's time limit.
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLessEqual(runs * self.spec["run_seconds"], 3420)
        self.assertLess(run.HARD_LIMIT_S + 20, 180)


class Arithmetic(unittest.TestCase):
    def test_quartile_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(run.quartile_spread([2.0]), 0.0)
        self.assertEqual(run.quartile_spread([3.0, 3.0, 3.0]), 0.0)

    def test_golden_applies_only_at_its_seed_and_scale(self):
        golden = json.loads(run.GOLDEN.read_text())
        self.assertEqual(golden["scale"], run.SCALE)
        self.assertEqual(run.golden_digest("nmm-cold", golden["seed"]),
                         golden["digests"]["nmm"])
        self.assertEqual(run.golden_digest("ndm-warm", golden["seed"]),
                         golden["digests"]["ndm"])
        self.assertIsNone(run.golden_digest("nmm-cold", golden["seed"] + 1))

    def test_clean_env_drops_hms_knobs(self):
        saved = dict(run.os.environ)
        try:
            run.os.environ["HMS_REPLAY_MODE"] = "config"
            run.os.environ["HMS_SAMPLING"] = "simpoint"
            env = run.clean_env()
            self.assertFalse([k for k in env if k.startswith("HMS_")])
            self.assertIn("PATH", env)
        finally:
            run.os.environ.clear()
            run.os.environ.update(saved)


if __name__ == "__main__":
    unittest.main()
