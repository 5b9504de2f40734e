"""Unit tests for the span analysis: python3 skbench/test_analysis.py"""

import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analysis  # noqa: E402
from analysis import Span  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_level_with_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # 1 .. 1000
        level, value, count = analysis.tail_percentile(samples)
        # p99.5 leaves 5 samples above it, p99 leaves 10.
        self.assertEqual(level, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(count, 1000)

    def test_small_sample_falls_back_to_lower_level(self):
        level, value, count = analysis.tail_percentile(range(40, 0, -1))
        self.assertEqual((level, value, count), (75.0, 30, 40))

    def test_too_few_samples(self):
        self.assertIsNone(analysis.tail_percentile(range(19)))
        self.assertEqual(analysis.tail_percentile(range(20))[0], 50.0)

    def test_nearest_rank(self):
        self.assertEqual(analysis.nearest_rank([1, 2, 3, 4], 50.0), 2)
        self.assertEqual(analysis.nearest_rank([7], 99.0), 7)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_only(self):
        spans = [
            Span("trial", -1, 0, 0, 100),
            Span("rounds.step", 0, 0, 10, 60),
            Span("kset.transition", 1, 0, 20, 30),
            Span("kset.transition", 1, 0, 30, 45),
            Span("graph.current_scc", 0, 0, 70, 80),
        ]
        self.assertEqual(analysis.self_times(spans), [40, 25, 10, 15, 10])

    def test_overlapping_and_outlying_children_count_once(self):
        self.assertEqual(analysis.covered_length(0, 100, [(10, 30), (20, 40)]), 30)
        self.assertEqual(analysis.covered_length(0, 100, [(-5, 10), (90, 120)]), 20)
        self.assertEqual(analysis.covered_length(0, 100, [(200, 300)]), 0)
        self.assertEqual(analysis.covered_length(0, 100, []), 0)

    def test_layer_metrics_from_a_span_file(self):
        names = ["trial", "trial.untraced", "rounds.step", "kset.send_into"]
        spans = [
            (1, -1, 0, 0, 1000),      # untraced trial: 1 us
            (0, -1, 0, 2000, 3100),   # traced trial: 1.1 us
            (2, 1, 0, 2100, 2900),    # step, self 800 - 2 * 100
            (3, 2, 0, 2200, 2300),
            (3, 2, 0, 2400, 2500),
        ]
        data = b"SKSP" + struct.pack("<I", len(names))
        for name in names:
            data += struct.pack("<H", len(name)) + name.encode()
        data += struct.pack("<Q", len(spans))
        for record in spans:
            data += struct.pack("<Iiqqq", *record)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.bin")
            with open(path, "wb") as handle:
                handle.write(data)
            metrics = analysis.layer_metrics(analysis.read_spans(path))
        self.assertAlmostEqual(metrics["rounds.step_self_us"][0], 0.6)
        self.assertAlmostEqual(metrics["kset.send_into_us"][0], 0.1)
        self.assertAlmostEqual(metrics["trace.overhead_pct"][0], 10.0)
        self.assertAlmostEqual(metrics["kset.trial_us.p50"][0], 1.0)
        self.assertEqual(metrics["kset.trial_us.samples"][0], 1.0)
        self.assertEqual(metrics["net.step_self_us"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
