"""Self-tests of the benchmark itself, on tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric is emitted with its unit, that a corrupted
stream trips the correctness gate, that self time is computed correctly
on nested spans, and that a seed fixes the request schedule and the
reference digests.
"""

from __future__ import annotations

import copy
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.scrub_environment()
sys.path.insert(0, str(common.SRC))

import layers  # noqa: E402
import libload  # noqa: E402
import tracing  # noqa: E402
import wire  # noqa: E402

TINY = {
    "path-shallow": {"instance": {"kind": "path", "length": 4, "size": 300,
                                  "domain": 30, "seed": 7},
                     "k_band": [5, 20], "samples": 20, "setups": 2},
    "path-deep-ties": {"instance": {"kind": "path-int-weights", "length": 4,
                                    "size": 200, "domain": 20,
                                    "max_weight": 9, "seed": 11},
                       "k_band": [1000, 1500], "samples": 20, "setups": 2},
    "cycle-shallow": {"instance": {"kind": "graph", "num_edges": 600,
                                   "num_nodes": 120, "seed": 3},
                      "k_band": [5, 20], "samples": 20, "setups": 2},
    "wire-read-mostly": {"setups": 2, "warmup_s": 0.3, "nominal_qps": 50.0,
                         "coarse_step_s": 0.5,
                         "fine_step_s": 0.5, "max_qps": 80.0,
                         "ttf_limit_ms": 500.0},
}


class TinyDesign(unittest.TestCase):
    """Shrinks every workload for the duration of a test."""

    def setUp(self) -> None:
        self._saved = copy.deepcopy(common.DESIGN["workloads"])
        for name, overrides in TINY.items():
            common.DESIGN["workloads"][name].update(copy.deepcopy(overrides))

    def tearDown(self) -> None:
        common.DESIGN["workloads"].clear()
        common.DESIGN["workloads"].update(self._saved)

    def run_workload(self, name: str, trace: bool, seconds: float = 0.2):
        module = wire if name.startswith("wire") else libload
        return module.run(name, 1, seconds, trace)


class MetricsEmitted(TinyDesign):
    def check(self, name: str, trace: bool, seconds: float = 0.2) -> None:
        values, context, failures = self.run_workload(name, trace, seconds)
        self.assertEqual(failures, [])
        self.assertEqual(context["failed"], 0)
        units = common.LAYER_UNITS if trace else common.E2E_UNITS
        block = common.metric_block(values, units)
        self.assertEqual(list(block), list(units))
        for metric, entry in block.items():
            self.assertEqual(entry["unit"], units[metric])
            self.assertIsInstance(entry["value"], float)
        if not trace:
            block.update(common.metric_block(values,
                                             common.REPORTED_ONLY_UNITS))
            for metric, entry in block.items():
                self.assertGreater(entry["value"], 0.0, metric)

    def test_library_end_to_end(self):
        for name in ("path-shallow", "path-deep-ties", "cycle-shallow"):
            with self.subTest(name=name):
                self.check(name, trace=False)

    def test_library_layers(self):
        for name in ("path-shallow", "path-deep-ties", "cycle-shallow"):
            with self.subTest(name=name):
                self.check(name, trace=True)

    def test_wire_end_to_end_and_layers(self):
        self.check("wire-read-mostly", trace=False, seconds=4.0)
        self.check("wire-read-mostly", trace=True, seconds=4.0)

    def test_names_match_benchmark_json(self):
        names = [m["name"] for m in common.BENCHMARK["end_to_end"]]
        self.assertIn("setup_s", names)
        self.assertEqual(len(names), len(set(names)))
        layer_names = set(common.LAYER_UNITS)
        self.assertTrue(set(layers.SELF_TIME_METRICS.values()) <= layer_names)
        self.assertTrue(set(layers.ROUTED.values()) <= layer_names)


class CorrectnessGate(TinyDesign):
    def test_corrupted_library_stream_is_named(self):
        import repro.anyk as anyk

        real = anyk.rank_enumerate
        calls = {"n": 0}

        def corrupting(db, query, *args, **kwargs):
            stream = real(db, query, *args, **kwargs)
            if kwargs.get("method") != "auto":
                return stream  # the reference engine stays honest
            calls["n"] += 1
            rows = list(stream)
            if calls["n"] == 3:  # a timed request, after the warm-up
                rows[1], rows[2] = rows[2], rows[1]
            return iter(rows)

        anyk.rank_enumerate = corrupting
        try:
            _, _, failures = self.run_workload("path-deep-ties", trace=False)
        finally:
            anyk.rank_enumerate = real
        self.assertTrue(failures)
        self.assertIn("request 1 ", failures[0])
        self.assertIn("row 1", failures[0])

    def test_corrupted_wire_page_is_named(self):
        from repro.workload.validate import SampledPage, normalize_page
        import repro.sql
        from repro.server.cli import parse_generator_spec

        spec = common.DESIGN["workloads"]["wire-read-mostly"]
        sql = ("SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
               "ORDER BY weight LIMIT 5")
        rows = repro.sql.query(parse_generator_spec(spec["dataset"]),
                               sql).fetchall()
        sender = wire.Sender([], sample_every=1)
        good = normalize_page([[list(r), w] for r, w in rows])
        sender.samples.append(SampledPage(sql, 1, 0, good))
        self.assertEqual(wire.verify(spec, sender), [])
        bad = (good[1], good[0]) + good[2:]
        sender.samples.append(SampledPage(sql, 1, 0, bad))
        failures = wire.verify(spec, sender)
        self.assertEqual(len(failures), 1)
        self.assertIn(sql, failures[0])
        self.assertIn("versions none of 1..1", failures[0])

    def test_stale_wire_page_names_the_version_it_came_from(self):
        from repro.workload.validate import SampledPage, normalize_page
        import repro.sql
        from repro.server.cli import parse_generator_spec

        spec = common.DESIGN["workloads"]["wire-read-mostly"]
        sql = ("SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
               "ORDER BY weight LIMIT 5")
        rows = repro.sql.query(parse_generator_spec(spec["dataset"]),
                               sql).fetchall()
        a1, a2 = rows[0][0][:2]
        sender = wire.Sender([], sample_every=1)
        # Versions 2 and 3 add rows that join nothing; version 4 deletes
        # the best answer's R1 tuple.  A page labelled 4 that still holds
        # it is version 1-3's answer.
        sender.mutation_log.extend([
            (2, "INSERT INTO R1 (A1, A2, weight) VALUES (999, 998, 0.5)"),
            (3, "INSERT INTO R1 (A1, A2, weight) VALUES (997, 998, 0.5)"),
            (4, f"DELETE FROM R1 WHERE A1 = {a1} AND A2 = {a2}")])
        stale = normalize_page([[list(r), w] for r, w in rows])
        sender.samples.append(SampledPage(sql, 4, 0, stale))
        failures = wire.verify(spec, sender)
        self.assertEqual(len(failures), 1)
        self.assertIn("@version 4", failures[0])
        self.assertIn("versions 1-3 of 1..4", failures[0])


class SelfTime(unittest.TestCase):
    def test_nested_synthetic_spans(self):
        # request [0,10] > tdp [1,7] > reduce [2,5]; request > ties pulls
        # folded to 2.0 busy, with enumerate pulls 1.5 inside them.
        spans = [
            [1, "request", 0.0, 10.0, None, "q", 10.0, 1, None],
            [2, "tdp", 1.0, 7.0, 1, "q", 6.0, 1, None],
            [3, "reduce", 2.0, 5.0, 2, "q", 3.0, 1, None],
            [4, "ties", 7.0, 9.5, 1, "q", 2.0, 5, None],
            [5, "enumerate", 7.1, 9.4, 4, "q", 1.5, 6, None],
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {1: 2.0, 2: 3.0, 3: 3.0, 4: 0.5, 5: 1.5})
        by_name = tracing.self_time_by_name(spans)
        self.assertAlmostEqual(sum(by_name.values()), 10.0)

    def test_recorder_nests_calls_and_pulls(self):
        rec = tracing.Recorder()
        rec.enabled = True

        def inner():
            time.sleep(0.01)

        def outer():
            rec.call("inner", inner, (), {})
            return list(rec.pulls("gen", iter(range(3))))

        rec.request_id = "q1"
        self.assertEqual(rec.call("outer", outer, (), {}), [0, 1, 2])
        names = {s[tracing.NAME]: s for s in rec.spans}
        self.assertEqual(names["inner"][tracing.PARENT], names["outer"][tracing.ID])
        self.assertEqual(names["gen"][tracing.PARENT], names["outer"][tracing.ID])
        self.assertEqual(names["gen"][tracing.CALLS], 4)  # 3 rows + StopIteration
        self.assertTrue(all(s[tracing.RID] == "q1" for s in rec.spans))
        own = tracing.self_times(rec.spans)
        outer_span = names["outer"]
        self.assertAlmostEqual(
            own[outer_span[0]],
            outer_span[tracing.TOTAL] - names["inner"][tracing.TOTAL]
            - names["gen"][tracing.TOTAL])
        self.assertGreaterEqual(own[names["inner"][0]], 0.01)

    def test_disabled_recorder_records_nothing(self):
        rec = tracing.Recorder()
        self.assertEqual(rec.call("x", lambda: 3, (), {}), 3)
        self.assertEqual(list(rec.pulls("g", iter([1]))), [1])
        self.assertEqual(rec.spans, [])


class InflightCap(unittest.TestCase):
    def test_reads_past_the_cap_wait_in_the_sender(self):
        import asyncio

        class SlowConnection:
            """Answers each request 10 ms after it is sent."""

            def __init__(self) -> None:
                self.outstanding = self.peak = 0

            def request(self, message):
                loop = asyncio.get_running_loop()
                future = loop.create_future()
                self.outstanding += 1
                self.peak = max(self.peak, self.outstanding)

                def answer() -> None:
                    self.outstanding -= 1
                    future.set_result(({"ok": True, "rows": [[[1], 0.0]],
                                        "done": True, "version": 1,
                                        "cursor": 1}, time.perf_counter(), 1))

                loop.call_later(0.01, answer)
                return future, time.perf_counter()

        conn = SlowConnection()
        sender = wire.Sender([conn], sample_every=1000, max_inflight=3)
        events = [(0.0, "query", ("SELECT 1", 1, 1))] * 12
        phase = wire.run_async(sender.run_phase(events, sample=False))
        self.assertEqual(conn.peak, 3)
        self.assertTrue(all(r["ok"] for r in phase["records"]))
        # The last read waited for three rounds of answers before it was
        # sent, and that wait counts in its latency.
        last = max(r["last"] - r["due"] for r in phase["records"])
        self.assertGreaterEqual(last, 0.035)


class Determinism(TinyDesign):
    def take(self, iterator, n):
        return [next(iterator) for _ in range(n)]

    def test_library_schedule_is_a_function_of_the_seed(self):
        for name in ("path-shallow", "path-deep-ties", "cycle-shallow"):
            a = self.take(libload.schedule(name, 5), 50)
            self.assertEqual(a, self.take(libload.schedule(name, 5), 50))
            self.assertNotEqual(a, self.take(libload.schedule(name, 6), 50))

    def test_wire_schedule_is_a_function_of_the_seed(self):
        a = wire.phase_schedule(5, "nominal", 50.0, 2.0, 10.0)
        self.assertEqual(a, wire.phase_schedule(5, "nominal", 50.0, 2.0, 10.0))
        self.assertNotEqual(a, wire.phase_schedule(6, "nominal", 50.0, 2.0,
                                                   10.0))
        self.assertEqual(sum(1 for e in a if e[1] == "query"), 100)

    def test_reference_digests_repeat(self):
        from repro.anyk import rank_enumerate

        for name in ("path-shallow", "path-deep-ties", "cycle-shallow"):
            spec = common.DESIGN["workloads"][name]
            digests = set()
            for _ in range(2):
                db, query, _ = libload.build_instance(spec)
                rows = rank_enumerate(db, query, method="rec",
                                      k=spec["k_band"][1])
                digests.add(libload.digest(rows))
            self.assertEqual(len(digests), 1, name)

    def test_same_seed_same_context_digest(self):
        _, first, _ = self.run_workload("path-shallow", trace=False)
        _, second, _ = self.run_workload("path-shallow", trace=False)
        self.assertEqual(first["reference_digest"], second["reference_digest"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
