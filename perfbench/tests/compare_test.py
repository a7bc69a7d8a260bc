#!/usr/bin/env python3
"""Tests of perfbench/compare.py, and of the driver's metric tables against
BENCHMARK.json."""

import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        median, q1, q3, spread = compare.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(median, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread, 1.0)

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.summarize([3.0]), (3.0, 3.0, 3.0, 0.0))


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_within_bound_is_same(self):
        new = [v * 1.05 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1), "same")

    def test_direction_follows_better(self):
        slower = [v * 1.3 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, slower, "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(self.BASE, slower, "higher", 0.1), "better")

    def test_wide_overlapping_runs_are_unresolved(self):
        wide = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        self.assertEqual(compare.verdict(self.BASE, wide, "lower", 0.1), "unresolved")

    def test_wide_but_separated_runs_resolve(self):
        wide_low = [10, 40, 15, 35, 20, 30, 25, 22, 28, 18]
        self.assertEqual(compare.verdict(self.BASE, wide_low, "lower", 0.1), "better")


class LoadRunsTest(unittest.TestCase):
    def test_reads_detail_records_only(self):
        record = {"perfbench": "run", "workload": "live_service", "trace": 0,
                  "metrics": {"rows_per_s": {"value": 4.0e5, "unit": "1/s", "samples": 3}}}
        final = {"correct": True, "attempted": 3, "failed": 0,
                 "metrics": {"rows_per_s": {"value": 1.0, "unit": "1/s"}}}
        with tempfile.NamedTemporaryFile("w", suffix=".log", delete=False) as handle:
            handle.write("rows_per_s 400000 1/s n=3\n{not json\n")
            handle.write(json.dumps(record) + "\n" + json.dumps(final) + "\n")
            path = handle.name
        try:
            runs = compare.load_runs([path])
        finally:
            os.unlink(path)
        self.assertEqual(runs, {("live_service", 0): [{"rows_per_s": 4.0e5}]})


class MetricTableTest(unittest.TestCase):
    def test_driver_tables_mirror_benchmark_json(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        with open(os.path.join(here, "src", "main.cc")) as handle:
            source = handle.read()
        for table, key in (("kEndToEnd", "end_to_end"), ("kPerLayer", "per_layer")):
            body = re.search(table + r"\[\] = \{(.*?)\n\};", source, re.S).group(1)
            pairs = re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)
            self.assertEqual(pairs, [(m["name"], m["unit"]) for m in spec[key]], table)


if __name__ == "__main__":
    unittest.main()
