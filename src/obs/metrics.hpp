// Metrics registry (DESIGN.md §14): named counters, gauges and log-bucketed
// histograms behind one get-or-create registry, rendered as Prometheus text
// exposition. Unlike the span tracer this layer has no runtime switch (it
// backs the versioned kStats wire payload): instruments are plain atomics,
// cheap enough for request-rate paths, and snapshots are wait-free for
// writers.
//
// Histograms use 128 geometric buckets growing by 2^(1/4) (four buckets per
// octave) from an upper bound of 1.0, covering ~9 decades (up to ~3e9 units;
// anything larger lands in the +Inf bucket). Quantiles interpolate linearly
// inside the winning bucket, so p50/p90/p99 carry at most ~9% relative
// bucket-resolution error -- plenty for latency reporting, and recording is
// a single atomic increment instead of retaining every sample.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ust::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Consistent-enough copy of a histogram (buckets are read relaxed; counts
/// lag at most the in-flight records). Arithmetic lives here so snapshots
/// can be shipped across the wire and queried client-side.
struct HistogramSnapshot {
  static constexpr int kBuckets = 128;
  std::array<std::uint64_t, kBuckets> buckets{};  ///< per-bucket counts
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  /// Upper bound of bucket i: 2^(i/4); the last bucket is +Inf.
  static double bucket_upper(int i) noexcept;
  /// Quantile for p in [0, 1] via cumulative counts + linear interpolation
  /// within the winning bucket, clamped to the tracked max. 0 when empty.
  double quantile(double p) const noexcept;
  double mean() const noexcept { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Lock-free multi-writer histogram; record() is one relaxed fetch_add plus
/// a CAS loop each for sum and max.
class Histogram {
 public:
  void record(double v) noexcept;
  HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// One histogram as Prometheus text exposition (the registry uses this for
/// its own histograms; callers with an external snapshot -- e.g. the
/// engine's exec-latency stats -- render through it too).
std::string render_prometheus_histogram(const std::string& name,
                                        const HistogramSnapshot& s);

/// Get-or-create by name; returned references are stable for the registry's
/// lifetime (instruments are never removed). A name is bound to ONE kind --
/// asking for the same name as a different kind throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Prometheus text exposition ('.' in names becomes '_'; histogram bucket
  /// `le` labels are cumulative and end with +Inf; `_sum`/`_count` follow).
  std::string render_prometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& get(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ust::obs
