"""Tests of perfbench/trace_report.py on a synthetic trace with known answers.

    python3 perfbench/test_trace_report.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_report  # noqa: E402

T1 = (1 << 40) | 7
T2 = (2 << 40) | 9


def event(name, tid, ts, dur, trace_id, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid,
            "args": dict(trace_id=trace_id, **args)}


# Two client requests fused into one batch on device worker thread 3, whose
# exec carries only T1's id. Threads 4 and 6 are pool workers running one
# chunk each.
TRACE = {"traceEvents": [
    event("bench.request", 1, 0.0, 100.0, T1),
    event("bench.request", 5, 0.0, 120.0, T2),
    event("service.request", 2, 5.0, 5.0, T1),
    event("service.request", 2, 6.0, 6.0, T2),
    event("engine.queue", 3, 10.0, 20.0, T1, device=0),
    event("engine.queue", 3, 12.0, 18.0, T2, device=0),
    event("engine.exec", 3, 31.0, 50.0, T1, device=0, batch=2),
    event("native.execute", 3, 32.0, 48.0, T1),
    event("native.chunk", 3, 33.0, 27.0, T1),
    event("native.fold", 3, 61.0, 9.0, T1),
    event("native.chunk", 4, 33.0, 32.0, T1),
    event("native.chunk", 6, 40.0, 10.0, T1),
    {"name": "metadata", "ph": "M", "pid": 1},
]}


class TraceReportTest(unittest.TestCase):
    def setUp(self):
        self.summary = trace_report.analyze(TRACE, dropped=3)
        self.spans = self.summary["spans"]

    def test_counts_sums_and_percentiles(self):
        chunk = self.spans["native.chunk"]
        self.assertEqual(chunk["count"], 3)
        self.assertAlmostEqual(chunk["sum_ms"], 0.069)
        self.assertAlmostEqual(chunk["p50_ms"], 0.027)
        self.assertAlmostEqual(chunk["p99_ms"], 0.027 + 0.98 * 0.005)
        self.assertNotIn("metadata", self.spans)

    def test_self_time_subtracts_union_of_children(self):
        # native.execute [32,80]: own chunk [33,60], fold [61,70] and the
        # pool chunk [33,65] of the same trace id cover [33,70] -> 48 - 37.
        self.assertAlmostEqual(self.spans["native.execute"]["self_sum_ms"], 0.011)
        # engine.exec [31,81] holds native.execute [32,80] -> 50 - 48.
        self.assertAlmostEqual(self.spans["engine.exec"]["self_sum_ms"], 0.002)
        # Leaves keep their whole duration.
        self.assertAlmostEqual(self.spans["native.fold"]["self_sum_ms"], 0.009)

    def test_parallel_siblings_are_not_children(self):
        # The chunk on thread 6 lies inside the chunks on threads 3 and 4
        # (same trace id, same name): no chunk loses self time to it.
        chunk = self.spans["native.chunk"]
        self.assertAlmostEqual(chunk["self_sum_ms"], chunk["sum_ms"])

    def test_wait_spans_do_not_nest(self):
        # The two queue spans overlap on one thread but are both waits.
        self.assertAlmostEqual(self.spans["engine.queue"]["self_sum_ms"], 0.038)

    def test_client_self_time_counts_same_trace_spans_on_other_threads(self):
        # T1's client span is covered by [5,30] and [31,81]; T2's only by
        # [6,30] (the batch exec carries T1's id): 25 + 96 us of self time.
        self.assertAlmostEqual(self.spans["bench.request"]["self_sum_ms"], 0.121)

    def test_unattributed_credits_fused_exec_to_every_member(self):
        rem = {t: r for t, _, r in trace_report.unattributed(trace_report.load_spans(TRACE))}
        self.assertAlmostEqual(rem[T1], 100 - 5 - 20 - 50)
        self.assertAlmostEqual(rem[T2], 120 - 6 - 18 - 50)
        self.assertEqual(self.summary["requests"], 2)
        self.assertEqual(self.summary["requests_with_exec"], 2)
        self.assertAlmostEqual(self.summary["unattributed_p50_ms"], 0.0355)

    def test_exec_credit_needs_the_batch_arg(self):
        solo = {"traceEvents": [e if e["name"] != "engine.exec" else
                                event("engine.exec", 3, 31.0, 50.0, T1, device=0)
                                for e in TRACE["traceEvents"]]}
        rem = {t: r for t, _, r in trace_report.unattributed(trace_report.load_spans(solo))}
        self.assertAlmostEqual(rem[T2], 120 - 6 - 18)

    def test_layer_metrics_and_dropped(self):
        m = trace_report.layer_metrics(self.summary)
        self.assertAlmostEqual(m["core.chunk_ms"], 0.027)
        self.assertAlmostEqual(m["service.parse_us"], 5.5)
        self.assertAlmostEqual(m["engine.queue_ms"], 0.019)
        self.assertAlmostEqual(m["engine.exec_ms"], 0.05)
        self.assertAlmostEqual(m["core.fold_ms"], 0.009)
        self.assertEqual(self.summary["dropped"], 3)

    def test_layer_metrics_leave_out_layers_without_spans(self):
        only_kernel = {"traceEvents": [e for e in TRACE["traceEvents"]
                                       if e["name"].startswith("native.")]}
        m = trace_report.layer_metrics(trace_report.analyze(only_kernel))
        self.assertEqual(set(m), {"core.chunk_ms", "core.fold_ms"})

    def test_quantile_matches_linear_interpolation(self):
        self.assertEqual(trace_report.quantile([], 0.5), 0.0)
        self.assertEqual(trace_report.quantile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertAlmostEqual(trace_report.quantile(list(range(101)), 0.99), 99.0)


if __name__ == "__main__":
    unittest.main()
