"""Unit tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import perfstats
import run

HERE = os.path.dirname(os.path.abspath(__file__))
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, ts, dur, tid=1, **args):
    e = {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}
    if args:
        e["args"] = args
    return e


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(perfstats.percentile(list(range(19)), 0.5))
        self.assertEqual(perfstats.percentile(list(range(20)), 0.5),
                         (9.5, 20))
        # p90 of 91 samples sits at rank 81 (9 above); of 92 between
        # ranks 81 and 82 (10 above).
        self.assertIsNone(perfstats.percentile(list(range(91)), 0.9))
        self.assertIsNotNone(perfstats.percentile(list(range(92)), 0.9))
        self.assertIsNotNone(perfstats.percentile(list(range(100)), 0.9))
        self.assertIsNone(perfstats.percentile(list(range(900)), 0.99))

    def test_interpolates_between_ranks_and_states_count(self):
        values = list(range(1, 102))  # 1..101, unsorted below
        values.reverse()
        self.assertEqual(perfstats.percentile(values, 0.9), (91.0, 101))
        self.assertEqual(perfstats.percentile([4.0] * 30, 0.5), (4.0, 30))

    def test_empty(self):
        self.assertIsNone(perfstats.percentile([], 0.5, min_beyond=0))


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        events = [span("root", 0, 100), span("a", 10, 30), span("a.x", 20, 10),
                  span("b", 50, 20)]
        self.assertEqual(perfstats.self_times(events), [50, 20, 10, 20])

    def test_input_order_does_not_matter(self):
        events = [span("a.x", 20, 10), span("b", 50, 20), span("root", 0, 100),
                  span("a", 10, 30)]
        self.assertEqual(perfstats.self_times(events), [10, 20, 50, 20])

    def test_parallel_threads_never_nest(self):
        # A parent waiting on thread 1 while two workers run: every
        # thread's span keeps its own time (a CPU-style sum).
        events = [span("wait", 0, 100, tid=1), span("w1", 10, 50, tid=2),
                  span("w2", 30, 60, tid=3), span("w2.x", 40, 15, tid=3)]
        self.assertEqual(perfstats.self_times(events), [100, 50, 45, 15])

    def test_overlapping_children_are_not_subtracted_twice(self):
        # Explicit-endpoint records may overlap on one thread.
        events = [span("p", 0, 100), span("c1", 10, 40), span("c2", 40, 40)]
        self.assertEqual(perfstats.self_times(events), [30, 40, 40])

    def test_rounded_child_end_still_nests(self):
        events = [span("p", 0.0, 10.0), span("c", 5.0, 5.001)]
        self.assertAlmostEqual(perfstats.self_times(events)[0], 5.0)

    def test_layer_table(self):
        trace = {"traceEvents": [
            span("flow.synthesize_control", 0, 1000),
            span("minimalist.hfmin", 100, 600, rows=36, candidates=27),
            span("logic.ucp", 200, 100),
            span("minimalist.hfmin", 800, 100, rows=4, candidates=2),
            span("flow.lint.bm", 950, 20),
            span("sim.run", 2000, 500, events=1000, status="quiescent"),
            span("sim.run", 3000, 500, events=3000,
                 status=perfstats.EVENT_BUDGET),
        ]}
        row = perfstats.layer_table(trace)
        self.assertEqual(row["minimalist.hfmin_ms"], 0.6)
        self.assertEqual(row["logic.ucp_ms"], 0.1)
        self.assertEqual(row["minimalist.hfmin_ms_max"], 0.6)
        self.assertEqual(row["minimalist.hfmin_share_pct"], 70.0)
        self.assertEqual(row["minimalist.hfmin_calls"], 2)
        self.assertEqual(row["minimalist.hfmin_rows"], 40)
        self.assertEqual(row["minimalist.hfmin_candidates"], 29)
        self.assertEqual(row["flow.lint_ms"], 0.02)
        self.assertEqual(row["sim.events"], 4000)
        self.assertEqual(row["sim.budget_runs"], 1)
        self.assertEqual(row["sim.events_per_s"], 4000 / 0.001)


class MetricsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json"),
                  encoding="utf-8") as f:
            cls.bench = json.load(f)

    def test_names_charset_units_and_uniqueness(self):
        names = []
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in self.bench[group]:
                self.assertRegex(entry["name"], perfstats.METRIC_NAME)
                names.append(entry["name"])
                if group != "workloads":
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertRegex("compile_ms.stack", perfstats.METRIC_NAME)
        self.assertNotRegex("hit ms", perfstats.METRIC_NAME)
        self.assertNotRegex("_x", perfstats.METRIC_NAME)

    def raw(self):
        return {"setup_s": [2.0, 1.0, 3.0], "pass_s": [5.0, 4.0],
                "traced_pass_s": [5.0],
                "ops": {"a": [1.0, 3.0], "b": [9.0, 8.0, 10.0], "c": [2.0]},
                "peak_rss_mb": 12.5, "traces": ["t0"],
                "pass_counts": [{"cache.mem_hits": 3, "cache.disk_hits": 1,
                                 "cache.misses": 4, "fuzz.cases": 10,
                                 "fuzz.skipped": 1,
                                 "serve.client_ms_p50": 5.0,
                                 "serve.server_ms_p50": 3.5}]}

    def test_every_declared_metric_is_computed(self):
        raw = self.raw()
        e2e = perfstats.end_to_end(raw)
        self.assertEqual(set(e2e), {m["name"] for m in self.bench["end_to_end"]})
        self.assertEqual(e2e["setup_s"], 2.0)
        self.assertEqual(e2e["wall_s"], 4.5)
        self.assertEqual(perfstats.op_ms(raw), 2.0)
        layers = perfstats.per_layer(raw, load=lambda path: {"traceEvents": []})
        for m in self.bench["per_layer"]:
            self.assertIn(m["name"], layers)
        self.assertEqual(layers["cache.hit_ratio"], 0.5)
        self.assertEqual(layers["fuzz.skipped_ratio"], 0.1)
        self.assertEqual(layers["serve.wire_ms"], 1.5)
        self.assertAlmostEqual(layers["trace.overhead_pct"], 100.0 / 9.0)


class SeedTest(unittest.TestCase):
    def test_held_out_seed_is_not_a_tuning_seed(self):
        self.assertNotIn(run.HELD_OUT_SEED, run.TUNING_SEEDS)

    def test_seed_reaches_the_driver_unchanged(self):
        args = run.parse_args(["--workload", "fuzz", "--seed",
                               str(run.HELD_OUT_SEED), "--seconds", "20"])
        cmd = run.binary_command(args)
        self.assertEqual(cmd[cmd.index("--seed") + 1], str(run.HELD_OUT_SEED))
        self.assertEqual(cmd[cmd.index("--trace") + 1], "0")

    def test_seed_is_required(self):
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "fuzz", "--seconds", "20"])


if __name__ == "__main__":
    unittest.main()
