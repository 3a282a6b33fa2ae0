"""Tests for the benchmark's own helpers (no build needed):

    python3 servebench/test_helpers.py
"""

import hashlib
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import serving  # noqa: E402
import stats  # noqa: E402
import workload  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_ten_samples_beyond(self):
        # p99 needs >= 10 samples above it: 1000 samples, not 999.
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_selected_percentile_has_ten_beyond(self):
        for n in (20, 57, 100, 640, 1000, 4321, 10000):
            values = list(range(n))
            p = stats.tail_percentile(n)
            cut = stats.percentile(values, p)
            self.assertGreaterEqual(sum(1 for v in values if v > cut), 10, n)


class SeedTest(unittest.TestCase):
    @staticmethod
    def digest(graphs):
        return hashlib.sha256("\n".join(g for _, g in graphs).encode()).hexdigest()

    def test_same_seed_same_bytes(self):
        for make in (lambda s: workload.paper_set(s, 30, "cold"),
                     lambda s: workload.paper_set(s, 24, "hit", (12, 16, 20, 24)),
                     lambda s: workload.scale_set(s, 3)):
            self.assertEqual(self.digest(make(5)), self.digest(make(5)))
            self.assertNotEqual(self.digest(make(5)), self.digest(make(6)))
        self.assertEqual(workload.arrival_schedule(5, 2000.0, 1.0, 24),
                         workload.arrival_schedule(5, 2000.0, 1.0, 24))
        self.assertNotEqual(workload.arrival_schedule(5, 2000.0, 1.0, 24),
                            workload.arrival_schedule(6, 2000.0, 1.0, 24))

    def test_cold_graphs_are_distinct_with_a_fixed_size_mix(self):
        graphs = workload.paper_set(9, 105, "cold")
        self.assertEqual(len({g for _, g in graphs}), 105)
        names = sorted(name for name, _ in graphs)
        self.assertEqual(names, sorted(name for name, _ in
                                       workload.paper_set(10, 105, "cold")))
        scale = workload.scale_set(9, 6)
        self.assertEqual(len({g for _, g in scale}), 6)

    def test_blocks_are_full_mixes_of_fixed_shapes(self):
        sizes = tuple(range(12, 25))
        mix = len(workload.PAPER_FAMILIES) * len(sizes)
        a = workload.paper_set(3, 3 * mix, "cold", sizes, shapes=0, blocks=True)
        b = workload.paper_set(4, 3 * mix, "cold", sizes, shapes=0, blocks=True)
        self.assertEqual(len({g for _, g in a}), 3 * mix)
        for i in range(0, 3 * mix, mix):
            self.assertEqual(len({name for name, _ in a[i:i + mix]}), mix)
        # Another seed relabels the same shapes: same edge counts per name.
        def shapes(graphs):
            return sorted((name, self.edges(g)) for name, g in graphs)
        self.assertEqual(shapes(a), shapes(b))
        self.assertNotEqual(a, b)

    @staticmethod
    def edges(g6):
        n = ord(g6[0]) - 63
        bits = "".join(format(ord(c) - 63, "06b") for c in g6[1:])
        return bits[:n * (n - 1) // 2].count("1")

    def test_graph6(self):
        self.assertEqual(workload.graph6(3, [(0, 1), (1, 2)]), "Bg")
        self.assertEqual(workload.graph6(3, [(0, 1), (1, 2), (0, 2)]), "Bw")
        self.assertTrue(workload.graph6(1000, []).startswith("~?Ng"))

    def test_schedule_rate(self):
        sched = workload.arrival_schedule(3, 2000.0, 5.0, 4)
        self.assertAlmostEqual(len(sched) / 5.0, 2000.0, delta=100.0)
        self.assertTrue(all(a[0] < b[0] for a, b in zip(sched, sched[1:])))


class BacklogTest(unittest.TestCase):
    @staticmethod
    def rows(latencies, rate=2000.0):
        # (due_s, late_ms, latency_ms, status) as serving.open_loop returns
        return [(i / rate, 0.0, lat, 0) for i, lat in enumerate(latencies)]

    def test_steady_step_passes(self):
        lat = [0.2 + 0.05 * ((i * 7919) % 13) / 13 for i in range(2000)]
        self.assertFalse(stats.backlog_growing(
            [(r[0], r[2]) for r in self.rows(lat)]))
        self.assertTrue(serving.summarize_step(self.rows(lat), 20.0)["meets"])

    def test_overload_is_detected(self):
        # Arrivals outpace service: each request queues behind all earlier
        # ones, so latency from the due time climbs through the step.
        lat = [0.2 + 0.01 * i for i in range(2000)]
        self.assertTrue(stats.backlog_growing([(i, x) for i, x in enumerate(lat)]))

    def test_planted_stall_is_detected(self):
        # The server freezes halfway through the step and resumes only after
        # its last request is due (2000 req/s, 0.5 ms apart): each request
        # due during the freeze waits for the resume, so the backlog grows
        # even though the p99 limit is generous.
        lat = [0.2] * 1000 + [0.2 + 0.5 * (1000 - i) for i in range(1000)]
        self.assertTrue(stats.backlog_growing([(i, x) for i, x in enumerate(lat)]))
        s = serving.summarize_step(self.rows(lat), 1e9)
        self.assertTrue(s["backlog"])
        self.assertFalse(s["meets"])

    def test_short_hiccup_is_absorbed(self):
        lat = [0.2] * 2000
        for i in range(900, 920):
            lat[i] = 10.0
        self.assertFalse(stats.backlog_growing([(i, x) for i, x in enumerate(lat)]))

    def test_refusals_miss_the_limit(self):
        rows = self.rows([0.2] * 1000)
        rows[10] = (rows[10][0], 0.0, 0.3, 3)   # queue_full
        rows[11] = (rows[11][0], 0.0, None, 2)  # unanswered
        s = serving.summarize_step(rows, 20.0)
        self.assertEqual(s["failed"], 2)
        self.assertEqual(s["wrong"], 0)
        self.assertFalse(s["meets"])


if __name__ == "__main__":
    unittest.main()
