// Tests of the observability layer (DESIGN.md §14): the per-thread span
// tracer (seqlock rings, wraparound accounting, Chrome trace-event export,
// concurrent emission vs export -- the TSan targets) and the metrics
// registry (log-bucket boundaries, bucket-interpolated quantiles, Prometheus
// exposition, get-or-create identity). ObsTrace and ObsMetrics are in the
// tsan preset's suite filter; keep new concurrency cases in these suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ust::obs {
namespace {

[[maybe_unused]] std::size_t count_occurrences(const std::string& hay,
                                               const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// True when the export contains an event named `name` whose args carry
/// `trace_id` (events serialize as {"name":"...",...,"args":{...}}).
[[maybe_unused]] bool has_span_with_id(const std::string& json, const std::string& name,
                                       std::uint64_t id) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::string idstr = "\"trace_id\":" + std::to_string(id);
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    const std::size_t end = json.find("}}", pos);
    if (end != std::string::npos &&
        json.substr(pos, end - pos).find(idstr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Per-test tracer sandbox: rings cleared, tracing off on entry and exit.
class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing(false);
    reset_trace();
  }
  void TearDown() override {
    set_tracing(false);
    set_ring_capacity(8192);
    reset_trace();
  }
};

TEST_F(ObsTrace, DisabledSpansRecordNothing) {
  {
    Span s("test.disabled");
    s.arg("a", 1);
  }
  emit_span("test.disabled.emit", 1, 0);
  const TraceStats st = trace_stats();
  EXPECT_EQ(st.recorded, 0u);
  EXPECT_EQ(chrome_trace_json().find("test.disabled"), std::string::npos);
}

TEST_F(ObsTrace, RecordsSpanWithArgsAndTraceId) {
  set_tracing(true);
  {
    const ScopedTraceId id(42);
    Span s("test.span");
    s.arg("nnz", 7).arg("chunk", 3);
  }
  set_tracing(false);
  EXPECT_EQ(trace_stats().recorded, 1u);
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"test.span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"nnz\":7"), std::string::npos);
  EXPECT_NE(json.find("\"chunk\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_TRUE(has_span_with_id(json, "test.span", 42));
}

TEST_F(ObsTrace, ScopedTraceIdNestsAndRestores) {
  EXPECT_EQ(current_trace_id(), 0u);
  {
    const ScopedTraceId a(11);
    EXPECT_EQ(current_trace_id(), 11u);
    {
      const ScopedTraceId b(22);
      EXPECT_EQ(current_trace_id(), 22u);
    }
    EXPECT_EQ(current_trace_id(), 11u);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST_F(ObsTrace, EmitSpanRecordsPastInterval) {
  set_tracing(true);
  const std::uint64_t t0 = now_ns();
  emit_span("test.emit", 9, t0, "device", 1);
  set_tracing(false);
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(has_span_with_id(json, "test.emit", 9));
  EXPECT_NE(json.find("\"device\":1"), std::string::npos);
}

TEST_F(ObsTrace, RingWraparoundKeepsMostRecentAndCountsDrops) {
  constexpr std::size_t kCap = 64;
  constexpr std::uint64_t kEmit = 200;
  set_ring_capacity(kCap);  // applies to the ring the new thread registers
  set_tracing(true);
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kEmit; ++i) {
      Span s("test.wrap");
      s.arg("i", i);
    }
  });
  writer.join();
  set_tracing(false);

  const TraceStats st = trace_stats();
  EXPECT_EQ(st.recorded, kCap);
  EXPECT_EQ(st.dropped, kEmit - kCap);

  const std::string json = chrome_trace_json();
  EXPECT_EQ(count_occurrences(json, "\"name\":\"test.wrap\""), kCap);
  // Oldest overwritten, newest survive.
  EXPECT_EQ(json.find("\"i\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"i\":199}"), std::string::npos);
}

TEST_F(ObsTrace, ExportCapKeepsMostRecentEvents) {
  set_tracing(true);
  const std::uint64_t base = now_ns();
  for (std::uint64_t i = 0; i < 10; ++i) {
    // Manufactured monotone start times make the most-recent-N cut exact.
    emit_span("test.recent", 1, base + i, "i", i);
  }
  set_tracing(false);
  const std::string json = chrome_trace_json(/*max_events=*/3);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"test.recent\""), 3u);
  EXPECT_NE(json.find("\"i\":9}"), std::string::npos);
  EXPECT_EQ(json.find("\"i\":0}"), std::string::npos);
}

TEST_F(ObsTrace, ResetClearsEventsButKeepsRings) {
  set_tracing(true);
  { Span s("test.pre"); }
  set_tracing(false);
  ASSERT_GE(trace_stats().recorded, 1u);
  const std::size_t threads_before = trace_stats().threads;

  reset_trace();
  EXPECT_EQ(trace_stats().recorded, 0u);
  EXPECT_EQ(trace_stats().dropped, 0u);
  EXPECT_EQ(trace_stats().threads, threads_before);

  // The cleared ring (cached thread-local pointer) still records.
  set_tracing(true);
  { Span s("test.post"); }
  set_tracing(false);
  EXPECT_EQ(trace_stats().recorded, 1u);
  EXPECT_NE(chrome_trace_json().find("test.post"), std::string::npos);
  EXPECT_EQ(chrome_trace_json().find("test.pre"), std::string::npos);
}

TEST_F(ObsTrace, ConcurrentWritersAndExportStayConsistent) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;
  set_tracing(true);
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&go, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        Span s("test.concurrent", static_cast<std::uint64_t>(w) + 1);
        s.arg("i", i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Export concurrently with live writers: every result must be well-formed
  // (the seqlock rejects torn slots; it never blocks the writers).
  for (int k = 0; k < 50; ++k) {
    const std::string json = chrome_trace_json();
    ASSERT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
    ASSERT_EQ(json.substr(json.size() - 2), "]}");
  }
  for (auto& t : writers) t.join();
  set_tracing(false);

  const TraceStats st = trace_stats();
  EXPECT_EQ(st.recorded + st.dropped, kWriters * kPerWriter);
  const std::string json = chrome_trace_json();
  EXPECT_EQ(count_occurrences(json, "\"name\":\"test.concurrent\""), st.recorded);
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(ObsMetrics, RegistryGetOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("ust.test.count");
  Counter& b = reg.counter("ust.test.count");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(reg.counter("ust.test.count").value(), 5u);
}

TEST(ObsMetrics, NameBoundToOneKindThrowsOnMismatch) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), std::logic_error);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // Buckets grow by 2^(1/4) from an upper bound of 1.0; the last is +Inf.
  EXPECT_DOUBLE_EQ(HistogramSnapshot::bucket_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot::bucket_upper(4), 2.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot::bucket_upper(16), 16.0);
  EXPECT_TRUE(std::isinf(HistogramSnapshot::bucket_upper(HistogramSnapshot::kBuckets - 1)));

  Histogram h;
  h.record(0.5);   // <= 1 -> bucket 0
  h.record(1.0);   // boundary -> bucket 0
  h.record(1.01);  // just above 1 -> bucket 1
  h.record(2.0);   // exact power -> bucket 4 (upper bound is inclusive)
  h.record(16.0);  // -> bucket 16
  h.record(1e12);  // beyond the tracked range -> +Inf bucket
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_EQ(s.buckets[16], 1u);
  EXPECT_EQ(s.buckets[HistogramSnapshot::kBuckets - 1], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.max, 1e12);
}

TEST(ObsMetrics, QuantilesInterpolateWithinBuckets) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(100.0);
  for (int i = 0; i < 10; ++i) h.record(10000.0);
  const HistogramSnapshot s = h.snapshot();
  // p50 falls in 100's bucket: bounds 2^6.5 ~ 90.5 and 2^6.75 ~ 107.6.
  EXPECT_GE(s.quantile(0.5), 90.0);
  EXPECT_LE(s.quantile(0.5), 108.0);
  // p99 falls in 10000's bucket (lower bound 2^13.25 ~ 9742), clamped to max.
  EXPECT_GE(s.quantile(0.99), 9000.0);
  EXPECT_LE(s.quantile(0.99), 10000.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10000.0);
  EXPECT_DOUBLE_EQ(s.mean(), (100.0 * 100.0 + 10.0 * 10000.0) / 110.0);

  const HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(ObsMetrics, HistogramResetZeroes) {
  Histogram h;
  h.record(5.0);
  h.reset();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(ObsMetrics, PrometheusExpositionShape) {
  MetricsRegistry reg;
  reg.counter("ust.test.count").inc(3);
  reg.gauge("ust.test.depth").set(2.5);
  reg.histogram("ust.test.lat").record(0.5);
  reg.histogram("ust.test.lat").record(2.0);
  const std::string text = reg.render_prometheus();

  // '.' sanitizes to '_'; counters and gauges get TYPE lines + one sample.
  EXPECT_NE(text.find("# TYPE ust_test_count counter\nust_test_count 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ust_test_depth gauge\nust_test_depth 2.5\n"),
            std::string::npos);
  // Histogram: cumulative le buckets closed by +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE ust_test_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("ust_test_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("ust_test_lat_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("ust_test_lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("ust_test_lat_sum 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("ust_test_lat_count 2\n"), std::string::npos);
}

TEST(ObsMetrics, FreestandingHistogramRenderMatchesRegistry) {
  Histogram h;
  h.record(2.0);
  const std::string text = render_prometheus_histogram("ust.engine.exec_latency_us",
                                                       h.snapshot());
  EXPECT_NE(text.find("# TYPE ust_engine_exec_latency_us histogram"), std::string::npos);
  EXPECT_NE(text.find("ust_engine_exec_latency_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ust_engine_exec_latency_us_count 1\n"), std::string::npos);
}

TEST(ObsMetrics, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  Histogram h;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(1 + (i % 1000)));
        c.inc();
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

}  // namespace
}  // namespace ust::obs
