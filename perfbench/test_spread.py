"""Tests of the Python helpers: the quartile spread and the result check.

    python3 perfbench/test_spread.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        # statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
        self.assertAlmostEqual(spread.spread(list(range(1, 11))), 1.0)
        self.assertEqual(spread.spread([4.0] * 10), 0.0)

    def test_seed_range(self):
        self.assertEqual(spread.seed_range("3-6"), [3, 4, 5, 6])
        self.assertEqual(spread.seed_range("7"), [7])


class CheckResultTest(unittest.TestCase):
    expected = {"elections_per_s": "1/s"}

    def line(self, metrics, **extra):
        import json
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": metrics}
        result.update(extra)
        return json.dumps(result)

    def test_accepts_listed_metrics(self):
        run.check_result(self.line(
            {"elections_per_s": {"value": 1.5, "unit": "1/s"}}), self.expected)

    def test_rejects(self):
        bad = [
            "not json",
            self.line({}),
            self.line({"elections_per_s": {"value": 1.5, "unit": "s"}}),
            self.line({"elections_per_s": {"value": 1.5, "unit": "1/s"}},
                      extra=1),
        ]
        for line in bad:
            with self.assertRaises(SystemExit):
                run.check_result(line, self.expected)


if __name__ == "__main__":
    unittest.main()
