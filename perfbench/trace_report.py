"""Analyzer for the Chrome trace-event JSON that ust's span tracer exports.

Reads the "X" (complete) events of one traced pass and reports, per span
name, the count, sum, p50 and p99 of durations and of self time, plus the
per-request remainder that no server span covers.

Definitions (times are microseconds in the trace, milliseconds out):

* Self time of a span is its duration minus the part of its interval its
  children cover. Children are (a) spans on the same thread nested inside it
  and (b) spans of another name on other threads with the same non-zero
  trace_id that lie inside its interval (a request's work moves between
  threads; same-name spans there are parallel siblings). Wait spans
  (engine.queue) are recorded by the thread that ends the wait, after the
  fact, so they never take same-thread children and are never nested.
* The unattributed remainder of a client request (bench.request) is its
  duration minus the service.request, engine.queue and engine.exec spans of
  the same trace_id. A fused batch's engine.exec carries only its head
  request's trace_id and the arg batch=n; it is credited to every member,
  i.e. to the n engine.queue spans its own thread ended last before it
  started.

Run as a script to summarize a trace file:
    python3 perfbench/trace_report.py trace.json
"""

import bisect
import collections
import json
import math
import sys

WAIT_SPANS = frozenset({"engine.queue"})
CLIENT_SPAN = "bench.request"
SERVER_SPANS = ("service.request", "engine.queue")
EXEC_SPAN = "engine.exec"


class Span:
    __slots__ = ("name", "tid", "start", "end", "trace_id", "args")

    def __init__(self, name, tid, start, dur, trace_id=0, args=None):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start + dur
        self.trace_id = trace_id
        self.args = args or {}

    @property
    def dur(self):
        return self.end - self.start


def quantile(values, p):
    """Linear-interpolated quantile, p in [0, 1]; 0 for no values. Matches
    perfbench's C++ quantile()."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = p * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load_spans(trace):
    """Spans of a parsed trace document (dict) or of a trace file path."""
    if isinstance(trace, str):
        with open(trace, encoding="utf-8") as f:
            trace = json.load(f)
    spans = []
    for e in trace.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        args = dict(e.get("args", {}))
        trace_id = int(args.pop("trace_id", 0))
        spans.append(Span(e["name"], e.get("tid", 0), float(e["ts"]),
                          float(e.get("dur", 0.0)), trace_id, args))
    return spans


def _union_length(intervals, lo, hi):
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans):
    """List of self times (us), index-aligned with `spans`."""
    children = [[] for _ in spans]
    by_tid = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s.name not in WAIT_SPANS:
            by_tid[s.tid].append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack = []
        for i in idx:
            s = spans[i]
            while stack and spans[stack[-1]].end <= s.start:
                stack.pop()
            # Partial overlap cannot nest; drop enclosing candidates that end
            # inside this span.
            while stack and spans[stack[-1]].end < s.end:
                stack.pop()
            if stack:
                children[stack[-1]].append(i)
            stack.append(i)
    by_trace = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s.trace_id != 0:
            by_trace[s.trace_id].append(i)
    for idx in by_trace.values():
        for i in idx:
            s = spans[i]
            for j in idx:
                c = spans[j]
                if (c.tid != s.tid and c.name != s.name
                        and c.start >= s.start and c.end <= s.end):
                    children[i].append(j)
    out = []
    for i, s in enumerate(spans):
        cover = _union_length([(spans[j].start, spans[j].end) for j in children[i]],
                              s.start, s.end)
        out.append(s.dur - cover)
    return out


def exec_credit(spans):
    """trace_id -> engine.exec microseconds credited to that request."""
    queues = collections.defaultdict(list)
    for s in spans:
        if s.name == "engine.queue":
            queues[s.tid].append(s)
    for q in queues.values():
        q.sort(key=lambda s: s.end)
    ends = {tid: [s.end for s in q] for tid, q in queues.items()}
    credit = collections.defaultdict(float)
    for e in spans:
        if e.name != EXEC_SPAN:
            continue
        members = {e.trace_id}
        n = int(e.args.get("batch", 1))
        if n > 1:
            # The batch's queue spans: the last n this thread ended at or
            # before the exec started (the trace rounds to nanoseconds).
            q = queues.get(e.tid, [])
            k = bisect.bisect_right(ends.get(e.tid, []), e.start + 5e-4)
            members.update(s.trace_id for s in q[max(0, k - n):k])
        for t in members:
            credit[t] += e.dur
    return credit


def unattributed(spans, credit=None):
    """Per client request: (trace_id, client_us, unattributed_us). `credit`
    is exec_credit(spans), computed here when not given."""
    server = collections.defaultdict(float)
    for s in spans:
        if s.name in SERVER_SPANS:
            server[s.trace_id] += s.dur
    if credit is None:
        credit = exec_credit(spans)
    return [(c.trace_id, c.dur, c.dur - server[c.trace_id] - credit.get(c.trace_id, 0.0))
            for c in spans if c.name == CLIENT_SPAN]


def analyze(trace, dropped=0):
    """Summary dict: per-name span statistics (ms), the unattributed
    remainder per client request, and the dropped-span count reported by the
    tracer (a trace file cannot show what it lost)."""
    spans = load_spans(trace)
    selfs = self_times(spans)
    groups = collections.defaultdict(lambda: ([], []))
    for s, st in zip(spans, selfs):
        durs, st_list = groups[s.name]
        durs.append(s.dur / 1e3)
        st_list.append(st / 1e3)
    names = {}
    for name, (durs, st_list) in sorted(groups.items()):
        names[name] = {
            "count": len(durs),
            "sum_ms": sum(durs),
            "p50_ms": quantile(durs, 0.5),
            "p99_ms": quantile(durs, 0.99),
            "self_sum_ms": sum(st_list),
            "self_p50_ms": quantile(st_list, 0.5),
            "self_p99_ms": quantile(st_list, 0.99),
        }
    credit = exec_credit(spans)
    rem = unattributed(spans, credit)
    rem_ms = [r / 1e3 for _, _, r in rem]
    client_ms = [c / 1e3 for _, c, _ in rem]
    return {
        "spans": names,
        "requests": len(rem),
        "requests_with_exec": sum(1 for t, _, _ in rem if credit.get(t, 0.0) > 0.0),
        "client_p50_ms": quantile(client_ms, 0.5),
        "unattributed_p50_ms": quantile(rem_ms, 0.5),
        "unattributed_p99_ms": quantile(rem_ms, 0.99),
        "dropped": dropped,
    }


def layer_metrics(summary):
    """The per-layer metrics the benchmark reads from a traced pass. A metric
    whose span never occurred is left out (the layer was not exercised)."""
    spans = summary["spans"]
    sources = {
        "core.chunk_ms": ("native.chunk", 1.0),
        "core.fold_ms": ("native.fold", 1.0),
        "engine.exec_ms": ("engine.exec", 1.0),
        "engine.queue_ms": ("engine.queue", 1.0),
        "service.parse_us": ("service.request", 1e3),
    }
    out = {metric: spans[name]["p50_ms"] * scale
           for metric, (name, scale) in sources.items() if name in spans}
    if summary["requests"]:
        out["service.unattributed_ms"] = summary["unattributed_p50_ms"]
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(analyze(argv[1]), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
