// Load generator for the tensor-op service: N concurrent connections (one
// tenant each) driving a mixed-op request stream against one server, with
// end-to-end latency recording and full response verification. Every worker
// replays requests whose expected outputs were computed up front on a local
// Engine -- submitted jobs are bitwise identical to sequential execution
// (engine.hpp), so any response that is not byte-for-byte the local result is
// counted corrupt. Queue-full rejections are retried through the client's
// retryable path; a request that exhausts its retries or loses its
// connection is counted lost. The bench target (BENCH_service.json) is
// zero lost + zero corrupt under >= 32 connections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::service {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connections = 32;
  int requests_per_connection = 32;
  /// Factor rank of the generated traffic (TTMc output is rank^2 wide).
  index_t rank = 8;
  /// Generated tensor shape.
  std::vector<index_t> dims = {64, 48, 56};
  nnz_t nnz = 20000;
  std::uint64_t seed = 4242;
  Partitioning part{};
  /// Client retry policy for kQueueFull responses.
  int max_attempts = 64;
  int backoff_ms = 1;
  /// Deadline attached to every run request (0 = none).
  std::uint32_t timeout_ms = 0;
  /// Same-plan burst mode: instead of the four-op mix, every request is an
  /// SpMTTKRP mode-0 with one of several distinct factor sets. All tenants
  /// upload identical tensor content, and the engine plan cache keys on
  /// content, so the whole burst shares ONE cached plan -- the traffic shape
  /// the engine's request batching (DESIGN.md §13) is built to fuse. Verification is unchanged:
  /// batched responses must stay byte-identical to the local truth.
  bool same_plan = false;
  /// Service-class mix: every Nth request per worker is sent latency-class
  /// (RequestHeader::service_class = kLatency), the rest batch-class. 0
  /// disables classing (all batch). Latency requests record into
  /// LoadgenReport::latency_class_us so the two tails are separable.
  int latency_every = 0;
};

struct LoadgenReport {
  std::uint64_t requests = 0;   // run-op requests issued (excl. uploads)
  std::uint64_t ok = 0;         // verified byte-identical responses
  std::uint64_t corrupt = 0;    // responded kOk but wrong bytes/shape
  std::uint64_t lost = 0;       // connection error / retries exhausted / non-OK
  std::uint64_t queue_full = 0; // kQueueFull responses observed (pre-retry)
  std::uint64_t timeouts = 0;   // kTimeout responses observed
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  /// End-to-end per-request latency distribution (including retries): every
  /// worker records into ONE shared obs::Histogram (lock-free), and this is
  /// its snapshot -- the same log-bucketed instrument the server exports, so
  /// the load generator's percentiles and the service's self-reported ones
  /// are directly comparable.
  obs::HistogramSnapshot latency_us;
  /// Latency-class requests only (empty unless LoadgenOptions::latency_every
  /// > 0); latency_us still includes every request of both classes.
  obs::HistogramSnapshot latency_class_us;

  /// Percentile in microseconds; `p` in [0, 100] (bucket-interpolated).
  double percentile_us(double p) const { return latency_us.quantile(p / 100.0); }
  double max_us() const { return latency_us.max; }
  double mean_us() const { return latency_us.mean(); }
};

/// Runs the full workload (upload phase + mixed-op phase) and blocks until
/// every connection drains. Thread-safe against a live server only; the
/// server must already be listening on opt.host:opt.port.
LoadgenReport run_loadgen(const LoadgenOptions& opt);

}  // namespace ust::service
