// serve_small / serve_same_plan: the TCP service on loopback, in process.
// 4 closed-loop connections (one tenant and one thread each) send their
// next request only after the previous one came back verified; latency is
// measured by the client from the first send to the response, retries
// included. Every response is compared byte for byte with the output of a
// local Engine::run on the same inputs.
//   serve_small: 2-device engine; each tenant uploads its own ~2k-nnz
//     uniform 64x48x56 tensor and cycles SpMTTKRP m0, SpTTM m2, SpTTV m1,
//     SpTTMc m0 at rank 8 (distinct tensors: no request can fuse).
//   serve_same_plan: 1-device engine; every tenant uploads the same brainq
//     replica and sends SpMTTKRP m0 at rank 16 with one of 4 factor sets
//     (one shared plan: requests fuse into batches).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "engine/engine.hpp"
#include "io/datasets.hpp"
#include "io/generate.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ust;

namespace {

constexpr int kConnections = 4;
/// Set-ups built per run (each tens of milliseconds); setup_s is their
/// median.
constexpr int kSetups = 7;
/// Rounds of the op mix each tenant runs inside set-up, verified.
constexpr int kSetupRounds = 2;
/// kQueueFull handling: retry with a linear backoff, at most this often.
constexpr int kMaxAttempts = 64;

enum SeedTag : std::uint64_t { kTensorSeed = 16, kInputSeed = 32 };

struct MixEntry {
  service::WireOp op;
  int mode;
  std::vector<DenseMatrix> inputs;
  DenseMatrix expected;
};

struct Tenant {
  std::uint64_t id = 0;
  CooTensor tensor;
  std::vector<MixEntry> mix;
};

engine::OpKind to_kind(service::WireOp op) {
  switch (op) {
    case service::WireOp::kSpTTM: return engine::OpKind::kSpTTM;
    case service::WireOp::kSpMTTKRP: return engine::OpKind::kSpMTTKRP;
    case service::WireOp::kSpTTMc: return engine::OpKind::kSpTTMc;
    case service::WireOp::kSpTTV: return engine::OpKind::kSpTTV;
  }
  return engine::OpKind::kSpMTTKRP;
}

/// Per-connection outcome of one closed-loop phase.
struct LoopResult {
  std::vector<double> latency_s;
  std::vector<Clock::time_point> done_at;  // completion time of each request
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

class ServeWorkload {
 public:
  ServeWorkload(const RunOptions& opt, bool same_plan, Report& report)
      : opt_(opt), same_plan_(same_plan), report_(report) {}

  void run();

 private:
  void make_inputs();
  MixEntry golden(engine::Engine& local, const Tenant& t, service::WireOp op, int mode,
                  index_t cols, Prng& rng, double& plan_s);
  void build_setup();
  /// Closed loop on every connection until `until` (run on the calling
  /// thread) returns; `traced` adds the benchmark's bench.request span per
  /// request. wall_s is the phase's length.
  std::vector<LoopResult> closed_loop(const std::function<void()>& until, bool traced,
                                      double& wall_s);
  static void request_loop(service::Client& client, const Tenant& t, const Partitioning& part,
                           std::atomic<bool>& stop, bool traced, std::size_t first,
                           std::size_t max_requests, LoopResult& out);
  void account(const std::vector<LoopResult>& loops, const std::string& phase);
  void steady_phase();
  void traced_pass();

  const RunOptions& opt_;
  bool same_plan_;
  Report& report_;
  Partitioning part_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<service::TensorOpServer> server_;
  std::vector<std::unique_ptr<service::Client>> clients_;
  double steady_p50_s_ = 0.0;
  Clock::time_point phase_start_;
};

MixEntry ServeWorkload::golden(engine::Engine& local, const Tenant& t, service::WireOp op,
                               int mode, index_t cols, Prng& rng, double& plan_s) {
  MixEntry e{op, mode, {}, {}};
  const auto tp = Clock::now();
  const auto plan = local.plan(t.tensor, to_kind(op), mode, part_);
  plan_s += seconds_since(tp);
  for (int pm : plan->product_modes) {
    DenseMatrix f(t.tensor.dim(pm), cols);
    f.fill_random(rng, -1.0f, 1.0f);
    e.inputs.push_back(std::move(f));
  }
  const index_t out_cols = op == service::WireOp::kSpTTMc ? cols * cols : cols;
  e.expected = DenseMatrix(plan->out_rows(), out_cols);
  engine::OpRequest req;
  req.plan = plan;
  for (const DenseMatrix& m : e.inputs) req.inputs.push_back({m.data(), m.rows(), m.cols()});
  req.out = e.expected.data();
  req.out_rows = e.expected.rows();
  req.out_cols = e.expected.cols();
  local.run(req);
  return e;
}

/// Tensors, request inputs and the expected bytes of every response,
/// computed on a local engine (its Engine::plan calls are what
/// pipeline.plan_build_s / plan_mb report for the serve workloads).
void ServeWorkload::make_inputs() {
  engine::Engine local;
  double plan_s = 0.0;
  if (same_plan_) {
    io::DatasetSpec spec = *io::find_dataset("brainq");
    spec.seed = derive_seed(opt_.seed, kTensorSeed);
    part_ = spec.best_spmttkrp;
    Tenant proto;
    proto.tensor = io::make_replica(spec, 1.0);
    Prng rng(derive_seed(opt_.seed, kInputSeed));
    for (int k = 0; k < 4; ++k) {
      proto.mix.push_back(golden(local, proto, service::WireOp::kSpMTTKRP, 0, 16, rng, plan_s));
    }
    for (int c = 0; c < kConnections; ++c) {
      tenants_.push_back(proto);
      tenants_.back().id = static_cast<std::uint64_t>(c) + 1;
    }
    report_.info["tensor"] = "brainq replica x1.0, " + std::to_string(proto.tensor.nnz()) +
                             " nnz, identical for every tenant";
  } else {
    part_ = Partitioning{};
    for (int c = 0; c < kConnections; ++c) {
      Tenant t;
      t.id = static_cast<std::uint64_t>(c) + 1;
      t.tensor = io::generate_uniform({64, 48, 56}, 2000, derive_seed(opt_.seed, kTensorSeed + t.id));
      Prng rng(derive_seed(opt_.seed, kInputSeed + t.id));
      t.mix.push_back(golden(local, t, service::WireOp::kSpMTTKRP, 0, 8, rng, plan_s));
      t.mix.push_back(golden(local, t, service::WireOp::kSpTTM, 2, 8, rng, plan_s));
      t.mix.push_back(golden(local, t, service::WireOp::kSpTTV, 1, 1, rng, plan_s));
      t.mix.push_back(golden(local, t, service::WireOp::kSpTTMc, 0, 8, rng, plan_s));
      tenants_.push_back(std::move(t));
    }
    report_.info["tensor"] = "4 uniform 64x48x56 tensors, " +
                             std::to_string(tenants_[0].tensor.nnz()) + " nnz (tenant 1)";
  }
  report_.metrics["pipeline.plan_build_s"] = plan_s;
  report_.metrics["pipeline.plan_mb"] =
      static_cast<double>(local.stats().cache_total.bytes_in_use) / 1e6;
}

void ServeWorkload::request_loop(service::Client& client, const Tenant& t,
                                 const Partitioning& part, std::atomic<bool>& stop,
                                 bool traced, std::size_t first, std::size_t max_requests,
                                 LoopResult& out) {
  const auto fail = [&](const std::string& why) {
    ++out.failed;
    if (out.first_failure.empty()) out.first_failure = "tenant " + std::to_string(t.id) + ": " + why;
  };
  for (std::size_t i = 0; i < max_requests && !stop.load(std::memory_order_relaxed); ++i) {
    // Tenants start at different points of the mix so ops interleave.
    const MixEntry& e = t.mix[(first + i) % t.mix.size()];
    ++out.attempted;
    const auto t0 = Clock::now();
    const std::uint64_t t0_ns = traced ? obs::now_ns() : 0;
    service::Response resp;
    std::uint64_t id = 0;
    try {
      for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
        id = client.send_run(1, e.op, e.mode, part, e.inputs);
        resp = client.recv_response();
        if (!resp.header.retryable) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200 * attempt));
      }
    } catch (const std::exception& ex) {
      fail(std::string("connection error: ") + ex.what());
      return;
    }
    const double lat = seconds_since(t0);
    if (traced) {
      obs::emit_span("bench.request", (t.id << 40) | (id & ((std::uint64_t{1} << 40) - 1)), t0_ns);
    }
    out.latency_s.push_back(lat);
    out.done_at.push_back(Clock::now());
    if (resp.header.request_id != id) {
      fail("response id " + std::to_string(resp.header.request_id) + " for request " + std::to_string(id));
    } else if (!resp.ok()) {
      fail(std::string("status ") + service::status_name(resp.header.status));
    } else {
      try {
        const DenseMatrix got = resp.matrix();
        if (got.rows() != e.expected.rows() || got.cols() != e.expected.cols() ||
            std::memcmp(got.data(), e.expected.data(), got.byte_size()) != 0) {
          fail("response bytes differ from the local Engine::run");
        }
      } catch (const std::exception& ex) {
        fail(std::string("undecodable response: ") + ex.what());
      }
    }
  }
}

void ServeWorkload::account(const std::vector<LoopResult>& loops, const std::string& phase) {
  for (const LoopResult& r : loops) {
    report_.outcome.check(true, r.attempted - r.failed, phase);
    if (r.failed != 0) report_.outcome.check(false, r.failed, phase + ": " + r.first_failure);
  }
}

/// Engine + server + 4 connections; each tenant uploads its tensor and runs
/// kSetupRounds rounds of its mix, so plan builds and every (tenant, op)'s
/// first runs land here, not in the steady phase.
void ServeWorkload::build_setup() {
  clients_.clear();
  server_.reset();
  engine_.reset();
  const auto t0 = Clock::now();
  engine::EngineOptions eopt;
  eopt.num_devices = same_plan_ ? 1 : 2;
  engine_ = std::make_unique<engine::Engine>(eopt);
  server_ = std::make_unique<service::TensorOpServer>(*engine_);
  server_->start();
  clients_.resize(kConnections);
  std::vector<LoopResult> loops(kConnections);
  std::atomic<bool> never{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const Tenant& t = tenants_[static_cast<std::size_t>(c)];
      LoopResult& r = loops[static_cast<std::size_t>(c)];
      try {
        auto client = std::make_unique<service::Client>("127.0.0.1", server_->port(), t.id);
        const service::Response up = client->upload_tensor(1, t.tensor);
        ++r.attempted;
        if (!up.ok()) {
          ++r.failed;
          r.first_failure = "upload: " + up.message();
          return;
        }
        request_loop(*client, t, part_, never, false, static_cast<std::size_t>(c),
                     kSetupRounds * t.mix.size(), r);
        clients_[static_cast<std::size_t>(c)] = std::move(client);
      } catch (const std::exception& ex) {
        ++r.attempted;
        ++r.failed;
        r.first_failure = std::string("connect: ") + ex.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  report_.samples["setup_s"].push_back(seconds_since(t0));
  account(loops, "set-up");
  for (const auto& c : clients_) {
    if (c == nullptr) throw std::runtime_error("set-up left a connection unusable");
  }
}

std::vector<LoopResult> ServeWorkload::closed_loop(const std::function<void()>& until,
                                                   bool traced, double& wall_s) {
  std::vector<LoopResult> loops(kConnections);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  phase_start_ = t0;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& r = loops[static_cast<std::size_t>(c)];
      r.latency_s.reserve(1 << 16);
      request_loop(*clients_[static_cast<std::size_t>(c)], tenants_[static_cast<std::size_t>(c)],
                   part_, stop, traced, static_cast<std::size_t>(c), SIZE_MAX, r);
    });
  }
  until();
  stop.store(true);
  for (auto& th : threads) th.join();
  wall_s = seconds_since(t0);
  return loops;
}

std::vector<double> merged_latencies(const std::vector<LoopResult>& loops) {
  std::vector<double> all;
  for (const LoopResult& r : loops) all.insert(all.end(), r.latency_s.begin(), r.latency_s.end());
  return all;
}

/// The untraced measurement: --seconds of closed-loop traffic, with engine
/// and server counters read before and after.
void ServeWorkload::steady_phase() {
  const engine::EngineStats e0 = engine_->stats();
  const service::ServerStats s0 = server_->stats();
  double wall = 0.0;
  const auto loops = closed_loop(
      [&] {
        std::this_thread::sleep_for(std::chrono::duration<double>(opt_.seconds));
      },
      false, wall);
  const engine::EngineStats e1 = engine_->stats();
  const service::ServerStats s1 = server_->stats();
  account(loops, "steady phase");

  const std::vector<double> lat = merged_latencies(loops);
  std::uint64_t ok = 0;
  for (const LoopResult& r : loops) ok += r.attempted - r.failed;
  auto& m = report_.metrics;
  steady_p50_s_ = median(lat);
  m["lat_ms"] = steady_p50_s_ * 1e3;  // the gated latency: the median request
  m["lat_p10_ms"] = quantile(lat, 0.10) * 1e3;
  m["lat_p50_ms"] = steady_p50_s_ * 1e3;
  m["lat_p99_ms"] = quantile(lat, 0.99) * 1e3;
  m["throughput"] = static_cast<double>(ok) / wall;
  report_.info["samples"] = std::to_string(lat.size()) + " requests in " + std::to_string(wall) + " s";
  // Completions per whole second of the phase: shows a slow stretch that a
  // run-wide median would blend in.
  std::vector<double>& windows = report_.samples["requests_per_1s_window"];
  windows.assign(static_cast<std::size_t>(wall), 0.0);
  for (const LoopResult& r : loops) {
    for (const auto& t : r.done_at) {
      const auto w = static_cast<std::size_t>(std::chrono::duration<double>(t - phase_start_).count());
      if (w < windows.size()) windows[w] += 1.0;
    }
  }

  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  double busy = 0.0;
  for (std::size_t i = 0; i < e1.devices.size(); ++i) {
    busy += e1.devices[i].busy_s - (i < e0.devices.size() ? e0.devices[i].busy_s : 0.0);
  }
  const double jobs = std::max(1.0, d(e0.jobs_completed, e1.jobs_completed));
  const double batches = d(e0.batches_formed, e1.batches_formed);
  const double batched = d(e0.jobs_batched, e1.jobs_batched);
  m["engine.busy_share"] = busy / (static_cast<double>(e1.devices.size()) * wall);
  m["engine.batched_share"] = batched / jobs;
  m["engine.jobs_per_batch"] = batches > 0.0 ? batched / batches : 0.0;
  m["engine.steals_per_kreq"] = 1e3 * d(e0.steals, e1.steals) / jobs;
  const double hits = d(e0.cache_total.hits, e1.cache_total.hits);
  const double misses = d(e0.cache_total.misses, e1.cache_total.misses);
  m["pipeline.cache_hit_ratio"] = 1.0 - misses / std::max(1.0, hits + misses);
  const double reqs = std::max(1.0, d(s0.requests, s1.requests));
  m["service.bytes_per_req"] = (d(s0.bytes_rx, s1.bytes_rx) + d(s0.bytes_tx, s1.bytes_tx)) / reqs;
  m["service.refused_per_req"] = d(s0.queue_full, s1.queue_full) / reqs;
}

/// The traced pass: the same closed loop with tracing on, stopped after
/// kTracedMaxSeconds or as soon as the rings hold 3/4 of one ring's
/// capacity in total -- no single ring can then have wrapped, so no span
/// is dropped.
void ServeWorkload::traced_pass() {
  obs::set_ring_capacity(kRingEvents);
  obs::reset_trace();
  obs::set_tracing(true);
  double wall = 0.0;
  const auto loops = closed_loop(
      [&] {
        const auto t0 = Clock::now();
        while (seconds_since(t0) < std::min(opt_.seconds, kTracedMaxSeconds) &&
               obs::trace_stats().recorded < kRingEvents * 3 / 4) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      },
      true, wall);
  obs::set_tracing(false);
  account(loops, "traced pass");
  report_.metrics["obs.overhead"] = median(merged_latencies(loops)) / steady_p50_s_;
  export_trace(opt_.trace_out, report_);
}

void ServeWorkload::run() {
  make_inputs();
  for (int s = 0; s < kSetups; ++s) build_setup();
  report_.metrics["setup_s"] = median(report_.samples["setup_s"]);
  steady_phase();
  if (opt_.trace) traced_pass();
  clients_.clear();
  server_->stop();
  report_.metrics["rss_mb"] = peak_rss_mb();
}

}  // namespace

void run_serve(const RunOptions& opt, bool same_plan, Report& report) {
  ServeWorkload(opt, same_plan, report).run();
}

}  // namespace perfbench
