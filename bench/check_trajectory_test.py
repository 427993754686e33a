#!/usr/bin/env python3
"""Tests for check_trajectory.py: every gate kind holds on a passing fixture
and fails on a mutated one, and --update rewrites only `value` fields.

Runs the script the way CI does (a subprocess reading a baseline file and a
measurement on stdin), so the CLI is under test too.

    python3 bench/check_trajectory_test.py
"""
import copy
import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "check_trajectory.py")
sys.path.insert(0, HERE)
from check_trajectory import KINDS  # noqa: E402

# One measurement every passing row below holds on.
MEASURED = {
    "page_size": 4096,
    "speedup": {"sparse": 8.0, "dense": 1.3},
    "legs": {
        "off": {"messages": 100, "wire_bytes": 1000, "checksum": 77,
                "retransmits": 0},
        "lossy": {"messages": 120, "wire_bytes": 1100, "checksum": 77,
                  "retransmits": 4},
    },
    "points": [{"nodes": 8, "load": 10, "bytes": 100},
               {"nodes": 64, "load": 12, "bytes": 400},
               {"nodes": 256, "load": 13, "bytes": 900}],
}

# kind -> (passing row, mutation of MEASURED that must make the row fail)
CASES = {
    "exact": ({"metric": "legs.off.checksum", "kind": "exact", "value": 77},
              lambda m: m["legs"]["off"].update(checksum=78)),
    "exact_list": ({"metric": "points.*.nodes", "kind": "exact",
                    "value": [8, 64, 256]},
                   lambda m: m["points"].pop()),
    "band_low": ({"metric": "speedup.sparse", "kind": "band", "value": 8.5,
                  "tol": 0.1, "better": "higher"},
                 lambda m: m["speedup"].update(sparse=7.0)),
    "band_high": ({"metric": "points.*.load", "kind": "band",
                   "value": [10, 12, 13], "tol": 0.05, "better": "lower"},
                  lambda m: m["points"][1].update(load=13)),
    "max": ({"metric": "points.*.bytes", "kind": "max", "value": 1000},
            lambda m: m["points"][0].update(bytes=1001)),
    "min": ({"metric": "legs.*.messages", "kind": "min", "value": 100},
            lambda m: m["legs"]["lossy"].update(messages=99)),
    "equal": ({"metric": "legs.*.checksum", "kind": "equal",
               "ref": "legs.off.checksum"},
              lambda m: m["legs"]["lossy"].update(checksum=1)),
    "ratio_max": ({"metric": "legs.lossy.wire_bytes", "kind": "ratio_max",
                   "value": 1.15, "ref": "legs.off.wire_bytes"},
                  lambda m: m["legs"]["lossy"].update(wire_bytes=1200)),
    "log_growth": ({"metric": "points.*.load", "kind": "log_growth",
                    "tol": 0.05, "ref": "points.*.nodes"},
                   lambda m: m["points"][2].update(load=30)),
    "growth_min": ({"metric": "points.*.bytes", "kind": "growth_min",
                    "value": 3.0},
                   lambda m: m["points"][2].update(bytes=250)),
    "nonzero": ({"metric": "legs.lossy.retransmits", "kind": "nonzero"},
                lambda m: m["legs"]["lossy"].update(retransmits=0)),
    "zero": ({"metric": "legs.off.retransmits", "kind": "zero"},
             lambda m: m["legs"]["off"].update(retransmits=1)),
    "missing": ({"metric": "legs.off.messages", "kind": "exact", "value": 100},
                lambda m: m["legs"].pop("off")),
}


class CheckTrajectory(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.baseline = os.path.join(self.dir.name, "baseline.json")

    def run_script(self, rows, measured, *flags):
        with open(self.baseline, "w") as f:
            json.dump({"comment": "fixture", "gates": rows}, f)
        return subprocess.run(
            [sys.executable, SCRIPT, "--baseline", self.baseline] + list(flags),
            input=json.dumps(measured), capture_output=True, text=True)

    def test_every_kind_passes_then_fails_on_its_mutation(self):
        for name, (row, mutate) in CASES.items():
            with self.subTest(kind=name):
                ok = self.run_script([row], MEASURED)
                self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
                bad = copy.deepcopy(MEASURED)
                mutate(bad)
                res = self.run_script([row], bad)
                self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
                self.assertIn("trajectory check FAILED", res.stderr)

    def test_band_good_side_warns_and_fails_only_under_strict(self):
        row = CASES["band_low"][0]
        better = copy.deepcopy(MEASURED)
        better["speedup"]["sparse"] = 20.0
        warned = self.run_script([row], better)
        self.assertEqual(warned.returncode, 0, warned.stdout + warned.stderr)
        self.assertIn("WARN", warned.stdout)
        self.assertEqual(self.run_script([row], better, "--strict").returncode, 1)

    def test_every_row_is_checked_not_just_the_first_failure(self):
        rows = [CASES["exact"][0], CASES["zero"][0]]
        bad = copy.deepcopy(MEASURED)
        bad["legs"]["off"].update(checksum=78, retransmits=1)
        res = self.run_script(rows, bad)
        self.assertEqual(res.returncode, 1)
        self.assertIn("legs.off.checksum", res.stderr)
        self.assertIn("legs.off.retransmits", res.stderr)

    def test_checked_in_baselines_use_known_kinds(self):
        paths = glob.glob(os.path.join(HERE, "baselines", "*.json"))
        self.assertTrue(paths)
        for path in paths:
            with open(path) as f:
                rows = json.load(f)["gates"]
            self.assertTrue(rows, path)
            for row in rows:
                self.assertIn(row["kind"], KINDS, (path, row))
                self.assertIsInstance(row["metric"], str)

    def test_unknown_kind_fails(self):
        row = {"metric": "page_size", "kind": "roughly", "value": 4096}
        self.assertEqual(self.run_script([row], MEASURED).returncode, 1)

    def test_update_rewrites_only_value_fields(self):
        rows = [copy.deepcopy(row) for row, _ in CASES.values()]
        moved = copy.deepcopy(MEASURED)
        moved["legs"]["off"]["checksum"] = 78
        moved["speedup"]["sparse"] = 9.123
        moved["points"][1]["load"] = 11
        moved["points"][0]["bytes"] = 5
        res = self.run_script(rows, moved, "--update")
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        with open(self.baseline) as f:
            updated = json.load(f)
        self.assertEqual(updated["comment"], "fixture")
        self.assertEqual(len(updated["gates"]), len(rows))
        for old, new in zip(rows, updated["gates"]):
            # Same fields, and nothing but `value` may differ.
            self.assertEqual(set(old), set(new))
            for key in old:
                if key != "value":
                    self.assertEqual(old[key], new[key], (old, key))
        by_name = dict(zip(CASES, updated["gates"]))
        self.assertEqual(by_name["exact"]["value"], 78)
        self.assertEqual(by_name["band_low"]["value"], 9.12)
        self.assertEqual(by_name["band_high"]["value"], [10, 11, 13])
        # Caps and floors are policy, not measurements: they stay.
        self.assertEqual(by_name["max"]["value"], 1000)
        self.assertEqual(by_name["growth_min"]["value"], 3.0)
        self.assertEqual(by_name["ratio_max"]["value"], 1.15)
        # The re-centred baseline passes the measurement it came from.
        with open(self.baseline) as f:
            gates = json.load(f)["gates"]
        recentred = [r for r in gates if r["kind"] in ("exact", "band")]
        self.assertEqual(self.run_script(recentred, moved).returncode, 0)


if __name__ == "__main__":
    unittest.main()
