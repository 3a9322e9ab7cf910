// The tensor-op service front-end (DESIGN.md §12): a TCP daemon that maps
// protocol sessions onto engine::Engine::submit. Shape: ONE poll()-driven
// I/O thread owning the listener, every session socket, and the pending-job
// table -- the lean aio media-server loop, not a thread-per-connection farm.
// Kernel execution never happens on the I/O thread; requests are submitted
// with Admission::kReject so a full engine queue surfaces immediately as the
// retryable Status::kQueueFull instead of stalling the loop. Job completion
// is one of the loop's events: the engine's completion callback queues the
// job and writes an eventfd in the poll set, so a finished job is answered
// at once; poll() otherwise sleeps until the nearest request deadline, or
// indefinitely.
//
// Multi-tenancy: every request names a tenant id. Each tenant owns its
// uploaded tensors (bounded by a tensor-byte quota -- uploads beyond it get
// Status::kQuotaExceeded) and an LRU of engine plans (bounded by a resident-
// byte quota, layered on the engine's per-device PlanCaches: evicting a
// tenant plan calls Engine::forget, which releases the bytes from the device
// budgets). Requests carry an optional deadline; jobs that miss it answer
// Status::kTimeout while the engine job runs to harmless completion in the
// background (simulated kernels are not preemptible -- cancellation is
// abandonment of the response, never of the buffers).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "engine/engine.hpp"
#include "service/protocol.hpp"

namespace ust::service {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Host bytes of uploaded tensors one tenant may hold (hard: uploads
  /// beyond it are rejected with kQuotaExceeded).
  std::size_t tenant_tensor_quota = 256u << 20;
  /// Resident plan bytes one tenant may pin in the engine caches (soft LRU:
  /// admitting a new plan evicts the tenant's oldest via Engine::forget; a
  /// single plan larger than the whole quota stays resident alone, matching
  /// the PlanCache always-keep-one rule).
  std::size_t tenant_plan_quota = 64u << 20;
  /// Hard cap on response bytes buffered in userspace for one session (on
  /// top of whatever the kernel socket buffers absorb). A client that
  /// submits requests but never reads responses would otherwise grow the
  /// server's out buffer without bound; a session whose backlog exceeds the
  /// cap is disconnected (counted in ServerStats::slow_reader_closes). Must
  /// comfortably exceed kMaxFrameBytes so a single large result never trips
  /// it.
  std::size_t session_backlog_limit = 256u << 20;
};

/// Monotone counters + gauges, readable from any thread.
struct ServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_open = 0;  // gauge
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t slow_reader_closes = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t tenants = 0;       // gauge
  std::uint64_t tensors = 0;       // gauge
  std::uint64_t tensor_bytes = 0;  // gauge
  std::uint64_t plans = 0;         // gauge
  std::uint64_t plan_bytes = 0;    // gauge
};

class TensorOpServer {
 public:
  /// The engine must outlive the server.
  explicit TensorOpServer(engine::Engine& engine, ServerOptions opt = {});
  ~TensorOpServer();

  TensorOpServer(const TensorOpServer&) = delete;
  TensorOpServer& operator=(const TensorOpServer&) = delete;

  /// Binds + listens (throws std::system_error on failure), then spawns the
  /// I/O thread. port() is valid once start() returns.
  void start();
  /// Stops the I/O loop, closes every session, joins the thread. Idempotent.
  void stop();
  std::uint16_t port() const noexcept { return bound_port_; }
  ServerStats stats() const;
  /// Prometheus text exposition of the server + engine metrics (DESIGN.md
  /// §14) -- the same payload a v2 kStats response carries. Callable from any
  /// thread (gauges are filled from atomics / Engine::stats at scrape time);
  /// ust_serve dumps it on SIGUSR1.
  std::string metrics_text() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::thread io_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> started_{false};
};

}  // namespace ust::service
