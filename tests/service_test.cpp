// End-to-end tests of the tensor-op service (DESIGN.md §12): a real
// TensorOpServer on a loopback ephemeral port, driven through the blocking
// Client. Covers the full request surface (ping/upload/run/drop/stats), the
// typed error statuses (not-found, bad-request, quota, queue-full, timeout),
// bitwise equivalence of served results against a local engine, and the
// failure modes an open TCP port invites: malformed payloads, corrupt
// framing, and abrupt disconnects mid-frame.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "test_support.hpp"

namespace ust::service {
namespace {

constexpr Partitioning kPart{.threadlen = 8, .block_size = 64};
using Clock = std::chrono::steady_clock;

engine::OpKind to_kind(WireOp op) {
  switch (op) {
    case WireOp::kSpTTM: return engine::OpKind::kSpTTM;
    case WireOp::kSpMTTKRP: return engine::OpKind::kSpMTTKRP;
    case WireOp::kSpTTMc: return engine::OpKind::kSpTTMc;
    case WireOp::kSpTTV: return engine::OpKind::kSpTTV;
  }
  UST_ENSURES(false);
}

/// Product-mode inputs for (op, mode) plus the local-engine golden output.
struct Golden {
  std::vector<DenseMatrix> inputs;
  DenseMatrix expected;
};

Golden compute_golden(engine::Engine& local, const CooTensor& t, WireOp op, int mode,
                      index_t rank, std::uint64_t seed) {
  Golden g;
  auto plan = local.plan(t, to_kind(op), mode, kPart);
  const index_t cols = op == WireOp::kSpTTV ? 1 : rank;
  Prng rng(seed);
  for (int pm : plan->product_modes) {
    DenseMatrix f(t.dim(pm), cols);
    f.fill_random(rng, -1.0f, 1.0f);
    g.inputs.push_back(std::move(f));
  }
  index_t out_cols = cols;
  if (op == WireOp::kSpTTMc) out_cols = cols * cols;
  g.expected = DenseMatrix(plan->out_rows(), out_cols);
  engine::OpRequest req;
  req.plan = plan;
  for (const DenseMatrix& m : g.inputs) req.inputs.push_back({m.data(), m.rows(), m.cols()});
  req.out = g.expected.data();
  req.out_rows = g.expected.rows();
  req.out_cols = g.expected.cols();
  local.run(req);
  return g;
}

/// Polls `done` every millisecond for up to 300 s.
template <class Pred>
bool wait_until(const Pred& done) {
  for (const auto give_up = Clock::now() + std::chrono::seconds(300); Clock::now() < give_up;) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Keeps a one-device engine's only worker busy until release() or
/// destruction: an SpMTTKRP on `t` whose completion callback waits. Jobs
/// submitted meanwhile stay queued however fast the worker would drain
/// them, so a test's queue-state precondition cannot be lost to timing.
class WorkerHold {
 public:
  WorkerHold(engine::Engine& eng, const CooTensor& t) {
    engine::OpRequest req;
    req.plan = eng.plan(t, engine::OpKind::kSpMTTKRP, 0, kPart);
    Prng rng(0x401D);
    for (int pm : req.plan->product_modes) {
      inputs_.emplace_back(t.dim(pm), 4);
      inputs_.back().fill_random(rng, -1.0f, 1.0f);
    }
    out_ = DenseMatrix(req.plan->out_rows(), 4);
    for (const DenseMatrix& m : inputs_) req.inputs.push_back({m.data(), m.rows(), m.cols()});
    req.out = out_.data();
    req.out_rows = out_.rows();
    req.out_cols = out_.cols();
    done_ = eng.submit(std::move(req), nullptr, engine::Admission::kBlock, [this] {
      holding_ = true;
      while (!released_) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  ~WorkerHold() { release(); }
  WorkerHold(const WorkerHold&) = delete;
  WorkerHold& operator=(const WorkerHold&) = delete;

  /// True once the job's callback holds the worker.
  bool holding() const { return holding_; }
  /// Lets the worker go and waits for the job to finish.
  void release() {
    released_ = true;
    if (done_.valid()) done_.wait();
  }

 private:
  std::vector<DenseMatrix> inputs_;
  DenseMatrix out_;
  std::atomic<bool> holding_{false};
  std::atomic<bool> released_{false};
  std::future<void> done_;
};

TEST(Service, PingUploadRunDropLifecycle) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), /*tenant=*/7);

  EXPECT_TRUE(c.ping().ok());

  Prng rng(0x5E21);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  EXPECT_TRUE(c.upload_tensor(1, t).ok());

  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 6, 99);
  const Response run = c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
  ASSERT_TRUE(run.ok()) << run.message();
  EXPECT_EQ(run.matrix(), g.expected);  // bitwise

  EXPECT_TRUE(c.drop_tensor(1).ok());
  const Response gone = c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
  EXPECT_EQ(gone.header.status, Status::kNotFound);
  EXPECT_FALSE(gone.header.retryable);
  server.stop();
}

TEST(Service, AllFourOpsServedBitwiseEqualToLocalEngine) {
  engine::Engine eng(engine::EngineOptions{.num_devices = 2});
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 1);

  Prng rng(0xBEE5);
  const CooTensor t = test::random_coo3(rng, 24, 1500);
  ASSERT_TRUE(c.upload_tensor(5, t).ok());

  engine::Engine local;
  const struct {
    WireOp op;
    int mode;
  } cases[] = {{WireOp::kSpMTTKRP, 0},
               {WireOp::kSpTTM, 2},
               {WireOp::kSpTTMc, 0},
               {WireOp::kSpTTV, 1}};
  for (const auto& [op, mode] : cases) {
    const Golden g = compute_golden(local, t, op, mode, 5, 1000 + mode);
    const Response run = c.run_op(5, op, mode, kPart, g.inputs);
    ASSERT_TRUE(run.ok()) << status_name(run.header.status) << ": " << run.message();
    EXPECT_EQ(run.matrix(), g.expected) << "op " << static_cast<int>(op);
  }
  server.stop();
}

TEST(Service, TenantsAreIsolated) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Prng rng(0x1507);
  const CooTensor t = test::random_coo3(rng, 16, 400);

  Client alice("127.0.0.1", server.port(), 1);
  Client bob("127.0.0.1", server.port(), 2);
  ASSERT_TRUE(alice.upload_tensor(1, t).ok());
  // Bob cannot see (or drop) Alice's tensor id.
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpTTV, 1, 1, 7);
  EXPECT_EQ(bob.run_op(1, WireOp::kSpTTV, 1, kPart, g.inputs).header.status,
            Status::kNotFound);
  EXPECT_EQ(bob.drop_tensor(1).header.status, Status::kNotFound);
  EXPECT_TRUE(alice.run_op(1, WireOp::kSpTTV, 1, kPart, g.inputs).ok());
  server.stop();
}

TEST(Service, MalformedPayloadIsBadRequestAndSessionSurvives) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 3);

  // Valid header, truncated run body: typed kBadRequest, same connection
  // keeps serving.
  Writer w;
  write_request_header(w, RequestHeader{MsgType::kRunOp, 3, 41});
  w.u32(123);  // not even a full tensor_id
  c.send_raw(encode_frame(w.data()));
  Response resp = c.recv_response();
  EXPECT_EQ(resp.header.status, Status::kBadRequest);
  EXPECT_EQ(resp.header.request_id, 41u);
  EXPECT_FALSE(resp.header.retryable);

  // Unknown message type: kBadRequest too (request id unknowable -> 0).
  Writer u;
  u.u8(0x66);
  u.u64(3);
  u.u64(42);
  c.send_raw(encode_frame(u.data()));
  resp = c.recv_response();
  EXPECT_EQ(resp.header.status, Status::kBadRequest);

  // Bad shapes that parse fine but violate the op contract: rank mismatch
  // between the two MTTKRP factors.
  Prng rng(0xFEED);
  const CooTensor t = test::random_coo3(rng, 12, 200);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());
  std::vector<DenseMatrix> bad;
  bad.emplace_back(t.dim(1), 4);
  bad.emplace_back(t.dim(2), 5);
  resp = c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, bad);
  EXPECT_EQ(resp.header.status, Status::kBadRequest);

  EXPECT_TRUE(c.ping().ok());
  server.stop();
  EXPECT_GE(server.stats().bad_requests, 3u);
}

TEST(Service, CorruptFramingDropsConnectionOnly) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();

  Client bad("127.0.0.1", server.port(), 4);
  ASSERT_TRUE(bad.ping().ok());
  const std::uint8_t zeros[4] = {0, 0, 0, 0};  // zero-length frame: corrupt
  bad.send_raw(zeros);
  EXPECT_THROW(bad.recv_response(), ProtocolError);  // server closed it

  // The listener and other sessions are unaffected.
  Client good("127.0.0.1", server.port(), 5);
  EXPECT_TRUE(good.ping().ok());
  server.stop();
}

TEST(Service, AbruptDisconnectMidFrameLeavesServerServing) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  {
    Client doomed("127.0.0.1", server.port(), 6);
    Writer w;
    write_request_header(w, RequestHeader{MsgType::kUploadTensor, 6, 1});
    const auto frame = encode_frame(w.data());
    // Half a frame, then vanish.
    doomed.send_raw(std::span(frame).first(frame.size() / 2));
  }
  Client c("127.0.0.1", server.port(), 7);
  EXPECT_TRUE(c.ping().ok());

  // Disconnect with a RUNNING job: the pending entry is orphaned, buffers
  // stay alive until the engine drains, nothing leaks (ASan-checked).
  Prng rng(0xD15C);
  const CooTensor t = test::random_coo3(rng, 30, 12000);
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 16, 8);
  {
    Client impatient("127.0.0.1", server.port(), 8);
    ASSERT_TRUE(impatient.upload_tensor(1, t).ok());
    impatient.send_run(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
    // Destructor closes the socket without reading the response.
  }
  EXPECT_TRUE(c.ping().ok());
  server.stop();
}

TEST(Service, QueueFullBurstIsRetryableTypedAndRetrySucceeds) {
  // Queue depth 1 + pipelined burst: later submissions find the queue
  // occupied while the worker is busy, so the server must surface
  // engine::QueueFull as the retryable protocol status. A follow-up
  // run_with_retry on the same connection must then succeed. The worker is
  // held until the server has taken in the whole burst; a free worker may
  // drain each job before the next request arrives.
  engine::Engine eng(engine::EngineOptions{.num_devices = 1, .max_queued_jobs = 1});
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 9);

  const CooTensor t = io::generate_uniform({48, 48, 48}, 50000, 0xF111);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 16, 17);

  constexpr int kBurst = 8;
  {
    WorkerHold hold(eng, t);
    ASSERT_TRUE(wait_until([&] { return hold.holding(); }));
    for (int i = 0; i < kBurst; ++i) c.send_run(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
    // One job queued behind the held one; the rest are refused.
    ASSERT_TRUE(wait_until([&] { return server.stats().queue_full == kBurst - 1; }));
  }
  int ok = 0, rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    const Response r = c.recv_response();
    if (r.ok()) {
      ++ok;
      EXPECT_EQ(r.matrix(), g.expected);
    } else {
      ASSERT_EQ(r.header.status, Status::kQueueFull) << r.message();
      EXPECT_TRUE(r.header.retryable);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kBurst);
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1) << "burst never hit the bounded queue";

  const Response retried = c.run_with_retry(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
  ASSERT_TRUE(retried.ok()) << status_name(retried.header.status);
  EXPECT_EQ(retried.matrix(), g.expected);
  EXPECT_GE(server.stats().queue_full, static_cast<std::uint64_t>(rejected));
  server.stop();
}

TEST(Service, HostileNnzOverflowIsBadRequestAndSessionSurvives) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 20);

  // order 1, nnz = 2^62 + 1: a naive `nnz * (order+1) * 4` byte count wraps
  // to 8, so an 8-byte body would pass a post-multiplication size check and
  // the copy loop would read far out of bounds. The server must reject the
  // nnz before any size arithmetic.
  Writer w;
  write_request_header(w, RequestHeader{MsgType::kUploadTensor, 20, 77});
  w.u64(1);                             // tensor_id
  w.u8(1);                              // order
  w.u32(16);                            // dims[0]
  w.u64((std::uint64_t{1} << 62) + 1);  // nnz
  w.u64(0);                             // 8-byte "body" matching the wrapped size
  c.send_raw(encode_frame(w.data()));
  const Response resp = c.recv_response();
  EXPECT_EQ(resp.header.status, Status::kBadRequest);
  EXPECT_EQ(resp.header.request_id, 77u);
  EXPECT_FALSE(resp.header.retryable);
  EXPECT_TRUE(c.ping().ok());
  server.stop();
  EXPECT_EQ(server.stats().tensors, 0u);
}

TEST(Service, TensorQuotaIsEnforcedPerTenant) {
  Prng rng(0x0A11);
  const CooTensor big = test::random_coo3(rng, 32, 3000);
  const CooTensor small = test::random_coo3(rng, 16, 600);
  // Size the quota from the actual (coalesced) footprints: one small tensor
  // fits, two small ones or the big one don't.
  engine::Engine eng;
  ServerOptions opt;
  opt.tenant_tensor_quota = small.storage_bytes() + small.storage_bytes() / 2;
  ASSERT_GT(big.storage_bytes(), opt.tenant_tensor_quota);
  TensorOpServer server(eng, opt);
  server.start();

  Client c("127.0.0.1", server.port(), 10);
  const Response over = c.upload_tensor(1, big);
  EXPECT_EQ(over.header.status, Status::kQuotaExceeded);
  EXPECT_FALSE(over.header.retryable);
  EXPECT_TRUE(c.upload_tensor(2, small).ok());
  // A second small one would breach the sum: quota counts the tenant, not
  // the upload.
  EXPECT_EQ(c.upload_tensor(3, small).header.status, Status::kQuotaExceeded);
  // Dropping frees quota.
  EXPECT_TRUE(c.drop_tensor(2).ok());
  EXPECT_TRUE(c.upload_tensor(3, small).ok());
  // Another tenant's quota is untouched.
  Client other("127.0.0.1", server.port(), 11);
  EXPECT_TRUE(other.upload_tensor(1, small).ok());
  server.stop();
}

TEST(Service, QuotaRejectedReuploadLeavesExistingTensorIntact) {
  const CooTensor small = io::generate_uniform({16, 16, 16}, 600, 0x2B2B);
  const CooTensor big = io::generate_uniform({32, 32, 32}, 6000, 0x2B2C);
  engine::Engine eng;
  ServerOptions opt;
  opt.tenant_tensor_quota = small.storage_bytes() + small.storage_bytes() / 2;
  ASSERT_GT(big.storage_bytes(), opt.tenant_tensor_quota);
  TensorOpServer server(eng, opt);
  server.start();
  Client c("127.0.0.1", server.port(), 21);
  ASSERT_TRUE(c.upload_tensor(1, small).ok());

  engine::Engine local;
  const Golden g = compute_golden(local, small, WireOp::kSpMTTKRP, 0, 4, 5);
  ASSERT_TRUE(c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs).ok());

  // Replacing id 1 with a tensor over quota must be rejected BEFORE any
  // state change: the resident tensor and its cached plan survive.
  EXPECT_EQ(c.upload_tensor(1, big).header.status, Status::kQuotaExceeded);
  const Response rerun = c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
  ASSERT_TRUE(rerun.ok()) << status_name(rerun.header.status);
  EXPECT_EQ(rerun.matrix(), g.expected);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.tensors, 1u);
  EXPECT_EQ(st.tensor_bytes, small.storage_bytes());
  EXPECT_EQ(st.plans, 1u);

  // A within-quota replacement still works: the quota charges the tenant's
  // prospective usage with the old tensor replaced, not old + new together.
  EXPECT_TRUE(c.upload_tensor(1, small).ok());
  server.stop();
}

TEST(Service, SharedEngineCacheEntrySurvivesOtherTenantsEviction) {
  Prng rng(0x5A5A);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client alice("127.0.0.1", server.port(), 30);
  Client bob("127.0.0.1", server.port(), 31);
  ASSERT_TRUE(alice.upload_tensor(1, t).ok());
  ASSERT_TRUE(bob.upload_tensor(9, t).ok());  // identical content => same fingerprint

  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 4, 6);
  ASSERT_TRUE(alice.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs).ok());
  ASSERT_TRUE(bob.run_op(9, WireOp::kSpMTTKRP, 0, kPart, g.inputs).ok());

  const auto engine_cache_bytes = [&alice]() -> std::uint64_t {
    const Response r = alice.stats();
    EXPECT_TRUE(r.ok());
    for (const auto& [key, value] : r.stats()) {
      if (key == "engine.cache_bytes") return value;
    }
    return 0;
  };
  const std::uint64_t resident = engine_cache_bytes();
  ASSERT_GT(resident, 0u);

  // Both tenants' plan slots reference ONE engine cache entry (the caches
  // key on tensor content, not tenants). Alice dropping her tensor must not
  // Engine::forget the entry out from under Bob.
  ASSERT_TRUE(alice.drop_tensor(1).ok());
  EXPECT_EQ(engine_cache_bytes(), resident);
  const Response rerun = bob.run_op(9, WireOp::kSpMTTKRP, 0, kPart, g.inputs);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun.matrix(), g.expected);

  // The last slot dropping releases the shared entry.
  ASSERT_TRUE(bob.drop_tensor(9).ok());
  EXPECT_EQ(engine_cache_bytes(), 0u);
  server.stop();
}

TEST(Service, SlowReaderIsDisconnectedAtBacklogCap) {
  // SpTTMc at rank 32 returns 64 x 1024 floats = 256 KiB per response; 64
  // pipelined requests produce ~16 MiB of responses for a client that never
  // reads. The kernel socket buffers absorb a few MiB at most, so the
  // server-side backlog must cross the 1 MiB cap and the session must be
  // disconnected instead of buffering response bytes without bound.
  engine::Engine eng(engine::EngineOptions{.num_devices = 1, .max_queued_jobs = 64});
  ServerOptions opt;
  opt.session_backlog_limit = 1u << 20;
  TensorOpServer server(eng, opt);
  server.start();

  const CooTensor t = io::generate_uniform({64, 64, 64}, 4000, 0xABCD);
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpTTMc, 0, 32, 9);
  {
    Client hog("127.0.0.1", server.port(), 40);
    ASSERT_TRUE(hog.upload_tensor(1, t).ok());
    try {
      for (int i = 0; i < 64; ++i) hog.send_run(1, WireOp::kSpTTMc, 0, kPart, g.inputs);
    } catch (const std::system_error&) {
      // The server may reset the connection mid-send once it drops us.
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (server.stats().slow_reader_closes == 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(server.stats().slow_reader_closes, 1u);
  }
  // The listener and other sessions are unaffected; the dropped session's
  // in-flight jobs drain harmlessly (ASan-checked).
  Client c("127.0.0.1", server.port(), 41);
  EXPECT_TRUE(c.ping().ok());
  server.stop();
}

TEST(Service, PlanQuotaEvictsLeastRecentlyUsedThroughEngineForget) {
  Prng rng(0x91A2);
  const CooTensor t = test::random_coo3(rng, 24, 2000);
  // Size the quota from the real plan footprint: one plan fits, two don't.
  std::size_t one_plan = 0;
  {
    engine::Engine probe;
    one_plan = probe.plan(t, engine::OpKind::kSpMTTKRP, 0, kPart)->resident_bytes();
  }
  ASSERT_GT(one_plan, 0u);

  engine::Engine eng;
  ServerOptions opt;
  opt.tenant_plan_quota = one_plan + one_plan / 2;
  TensorOpServer server(eng, opt);
  server.start();
  Client c("127.0.0.1", server.port(), 12);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());

  engine::Engine local;
  const Golden g0 = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 6, 1);
  const Golden g1 = compute_golden(local, t, WireOp::kSpMTTKRP, 1, 6, 2);

  ASSERT_TRUE(c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g0.inputs).ok());
  ServerStats s = server.stats();
  EXPECT_EQ(s.plans, 1u);
  // Mode 1 needs a second plan; admitting it must evict mode 0's (LRU)
  // through Engine::forget, keeping the tenant inside its quota.
  ASSERT_TRUE(c.run_op(1, WireOp::kSpMTTKRP, 1, kPart, g1.inputs).ok());
  s = server.stats();
  EXPECT_EQ(s.plans, 1u);
  EXPECT_LE(s.plan_bytes, opt.tenant_plan_quota);

  // Each re-admission after eviction rebuilds: three runs alternating modes
  // means three engine-cache misses (no plan ever survives to be hit).
  ASSERT_TRUE(c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g0.inputs).ok());
  const auto kv = c.stats();
  ASSERT_TRUE(kv.ok());
  for (const auto& [key, value] : kv.stats()) {
    if (key == "engine.cache_misses") {
      EXPECT_EQ(value, 3u);
    } else if (key == "engine.cache_hits") {
      EXPECT_EQ(value, 0u);
    } else if (key == "server.plans") {
      EXPECT_EQ(value, 1u);
    }
  }
  server.stop();
}

TEST(Service, DeadlineMissRespondsTimeoutAndKeepsServing) {
  // One device, four front jobs without deadlines, then a 1 ms-deadline job
  // queued behind them: its deadline passes while it waits, the server
  // answers kTimeout, and the abandoned job's buffers survive until the
  // engine drains it (ASan-checked by the following traffic). A second
  // phase runs one job alone, so only the deadline itself can wake the
  // I/O loop in time.
  engine::Engine eng(engine::EngineOptions{.num_devices = 1, .max_queued_jobs = 16});
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 13);

  // SpTTMc at rank 32 writes rank^2 = 1024 output columns per row: each job
  // holds the single device for tens of milliseconds, so the 1 ms deadline
  // of the job queued behind four of them passes deterministically.
  const CooTensor t = io::generate_uniform({64, 64, 64}, 200000, 0x7134);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpTTMc, 0, 32, 3);

  constexpr int kFront = 4;
  for (int i = 0; i < kFront; ++i) {
    c.send_run(1, WireOp::kSpTTMc, 0, kPart, g.inputs, /*timeout_ms=*/0);
  }
  const std::uint64_t doomed_id =
      c.send_run(1, WireOp::kSpTTMc, 0, kPart, g.inputs, /*timeout_ms=*/1);

  int ok = 0, timed_out = 0;
  for (int i = 0; i < kFront + 1; ++i) {
    const Response r = c.recv_response();
    if (r.header.request_id == doomed_id) {
      EXPECT_EQ(r.header.status, Status::kTimeout);
      EXPECT_FALSE(r.header.retryable);
      ++timed_out;
    } else {
      ASSERT_TRUE(r.ok()) << status_name(r.header.status);
      EXPECT_EQ(r.matrix(), g.expected);
      ++ok;
    }
  }
  EXPECT_EQ(ok, kFront);
  EXPECT_EQ(timed_out, 1);
  EXPECT_TRUE(c.ping().ok());
  EXPECT_GE(server.stats().timeouts, 1u);

  // Phase 2: nothing else in flight, and SpTTMc at rank 128 (16384 output
  // columns per row) runs for well over 100x its 1 ms deadline. No job
  // completes before the deadline, so kTimeout must come from the loop's
  // own deadline wakeup, while the engine still counts the job in flight
  // (queued or executing: a loaded host may not have dequeued it yet).
  const auto wait_idle = [&eng] {
    for (const auto give_up = Clock::now() + std::chrono::seconds(300); Clock::now() < give_up;) {
      const engine::EngineStats s = eng.stats();
      if (s.jobs_submitted == s.jobs_completed) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  ASSERT_TRUE(wait_idle());  // phase 1's abandoned job has drained
  Prng rng(0xDEAD);
  std::vector<DenseMatrix> wide;
  for (int m = 1; m < 3; ++m) {
    DenseMatrix f(t.dim(m), 128);
    f.fill_random(rng, -1.0f, 1.0f);
    wide.push_back(std::move(f));
  }
  const std::uint64_t completed = eng.stats().jobs_completed;
  const std::uint64_t answered = server.stats().responses;
  const std::uint64_t lone_id =
      c.send_run(1, WireOp::kSpTTMc, 0, kPart, wide, /*timeout_ms=*/1);
  const Response late = c.recv_response();
  const engine::EngineStats during = eng.stats();
  EXPECT_EQ(late.header.request_id, lone_id);
  EXPECT_EQ(late.header.status, Status::kTimeout) << status_name(late.header.status);
  EXPECT_EQ(during.jobs_completed, completed);
  EXPECT_EQ(during.jobs_queued + during.jobs_active, 1u);
  // The late result is dropped: after the job completes, the session's
  // next response answers the ping, and the server has sent exactly two
  // responses since the job went in (kTimeout and the ping's).
  ASSERT_TRUE(wait_idle());
  const Response pong = c.ping();
  EXPECT_TRUE(pong.ok()) << status_name(pong.header.status);
  EXPECT_NE(pong.header.request_id, lone_id);
  EXPECT_EQ(server.stats().responses, answered + 2);
  server.stop();
}

TEST(Service, LateResultOfAClosedSessionNeverReachesTheFdsNextOwner) {
  // Tenant 1 submits an SpTTMc and disconnects while it waits behind a job
  // that holds the engine's only worker. Once the server has closed that
  // session, tenant 2 connects, and the kernel hands the server the freed fd
  // number again. Only then is the worker released. Tenant 1's result must
  // be dropped: both of tenant 2's pings are answered by empty ping
  // responses, never by tenant 1's matrix.
  engine::Engine eng(engine::EngineOptions{.num_devices = 1});
  TensorOpServer server(eng);
  server.start();
  Prng rng(0xFD);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  const Golden g = compute_golden(eng, t, WireOp::kSpTTMc, 0, 4, 0xFD2);

  WorkerHold hold(eng, t);
  ASSERT_TRUE(wait_until([&] { return hold.holding(); }));
  const std::uint64_t submitted = eng.stats().jobs_submitted;
  {
    Client c1("127.0.0.1", server.port(), 1);
    ASSERT_TRUE(c1.upload_tensor(1, t).ok());
    (void)c1.send_run(1, WireOp::kSpTTMc, 0, kPart, g.inputs);
    ASSERT_TRUE(wait_until([&] { return eng.stats().jobs_submitted == submitted + 1; }));
  }
  ASSERT_TRUE(wait_until([&] { return server.stats().sessions_open == 0; }));
  Client c2("127.0.0.1", server.port(), 2);
  ASSERT_TRUE(wait_until([&] { return server.stats().sessions_open == 1; }));
  hold.release();
  ASSERT_TRUE(wait_until([&] { return eng.stats().jobs_completed == submitted + 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the loop harvest it
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const Response pong = c2.ping();
    EXPECT_TRUE(pong.ok()) << status_name(pong.header.status);
    EXPECT_EQ(pong.header.request_id, id);
    EXPECT_TRUE(pong.body.empty()) << "tenant 2 received " << pong.body.size() << " bytes";
  }
  server.stop();
}

TEST(Service, StatsRequestMergesEngineAndServerCounters) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 14);

  Prng rng(0x57A5);
  const CooTensor t = test::random_coo3(rng, 16, 500);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpTTM, 2, 4, 5);
  ASSERT_TRUE(c.run_op(1, WireOp::kSpTTM, 2, kPart, g.inputs).ok());

  const Response resp = c.stats();
  ASSERT_TRUE(resp.ok());
  std::uint64_t jobs = 0, tensors = 0, requests = 0, open = 0;
  bool has_jobs_batched = false, has_batches_formed = false;
  std::uint64_t jobs_batched = 1, batches_formed = 1;
  for (const auto& [key, value] : resp.stats()) {
    if (key == "engine.jobs_completed") jobs = value;
    if (key == "server.tensors") tensors = value;
    if (key == "server.requests") requests = value;
    if (key == "server.sessions_open") open = value;
    if (key == "engine.jobs_batched") has_jobs_batched = true, jobs_batched = value;
    if (key == "engine.batches_formed") has_batches_formed = true, batches_formed = value;
  }
  EXPECT_EQ(jobs, 1u);
  EXPECT_EQ(tensors, 1u);
  EXPECT_GE(requests, 3u);  // upload + run + this stats request
  EXPECT_EQ(open, 1u);
  // The batching counters are always reported, and a single solo run keeps
  // all of them at zero.
  EXPECT_TRUE(has_jobs_batched);
  EXPECT_TRUE(has_batches_formed);
  EXPECT_EQ(jobs_batched, 0u);
  EXPECT_EQ(batches_formed, 0u);
  server.stop();
}

TEST(Service, StatsVersionMismatchIsTypedBadRequest) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 3);

  // A client speaking a future schema gets the typed rejection.
  const Response stale = c.stats(kStatsVersion + 1);
  EXPECT_EQ(stale.header.status, Status::kBadRequest);
  EXPECT_FALSE(stale.header.retryable);
  EXPECT_NE(stale.message().find("stats_version"), std::string::npos) << stale.message();

  // A pre-versioning client sent an EMPTY kStats body; that must also come
  // back as typed kBadRequest (Reader underrun), never as a payload the old
  // client would misparse.
  Writer w;
  write_request_header(w, RequestHeader{MsgType::kStats, 3, 77});
  c.send_raw(encode_frame(w.data()));
  const Response legacy = c.recv_response();
  EXPECT_EQ(legacy.header.status, Status::kBadRequest);

  // The connection survives both rejections; the current version works.
  const Response good = c.stats();
  ASSERT_TRUE(good.ok()) << good.message();
  EXPECT_EQ(good.stats_version(), kStatsVersion);
  server.stop();
}

TEST(Service, StatsCarriesPrometheusMetricsText) {
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 4);

  Prng rng(0x0B5);
  const CooTensor t = test::random_coo3(rng, 16, 500);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 4, 5);
  ASSERT_TRUE(c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs).ok());

  const Response resp = c.stats();
  ASSERT_TRUE(resp.ok()) << resp.message();
  const std::string text = resp.metrics_text();
  // The exposition covers server gauges, engine gauges, the request-latency
  // histogram recorded by harvest, and the engine's exec-latency histogram.
  EXPECT_NE(text.find("# TYPE ust_server_requests gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("ust_engine_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("ust_engine_cache_hit_ratio"), std::string::npos);
  EXPECT_NE(text.find("ust_server_request_latency_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("ust_engine_exec_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ust_engine_device0_queued"), std::string::npos);
  server.stop();
}

TEST(Service, TraceExportsConnectedSpanChain) {
  obs::reset_trace();
  obs::set_tracing(true);
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), /*tenant=*/9);

  Prng rng(0x7ACE);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  ASSERT_TRUE(c.upload_tensor(1, t).ok());  // request_id 1
  engine::Engine local;
  const Golden g = compute_golden(local, t, WireOp::kSpMTTKRP, 0, 4, 7);
  ASSERT_TRUE(c.run_op(1, WireOp::kSpMTTKRP, 0, kPart, g.inputs).ok());  // request_id 2

  const Response tr = c.trace();
  ASSERT_TRUE(tr.ok()) << tr.message();
  obs::set_tracing(false);
  server.stop();

  const std::string json = tr.trace_json();
  ASSERT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  // The run request's spans chain service -> engine -> kernel under ONE
  // correlation id: tenant in the top bits, wire request_id in the low
  // (trace_id_for in server.cpp). The run was this connection's request 2.
  const std::uint64_t run_id = (std::uint64_t{9} << 40) | 2u;
  // service.harvest runs from the job's completion callback to its response
  // being queued on the I/O thread.
  for (const char* name : {"service.request", "engine.queue", "engine.exec", "native.execute",
                           "service.harvest"}) {
    bool found = false;
    const std::string needle = std::string("\"name\":\"") + name + "\"";
    const std::string idstr = "\"trace_id\":" + std::to_string(run_id);
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      const std::size_t end = json.find("}}", pos);
      if (end != std::string::npos &&
          json.substr(pos, end - pos).find(idstr) != std::string::npos) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no span '" << name << "' with trace_id " << run_id;
  }
}

TEST(Service, TraceExportHonorsMaxEvents) {
  obs::reset_trace();
  obs::set_tracing(true);
  engine::Engine eng;
  TensorOpServer server(eng);
  server.start();
  Client c("127.0.0.1", server.port(), 2);
  ASSERT_TRUE(c.ping().ok());
  ASSERT_TRUE(c.ping().ok());
  ASSERT_TRUE(c.ping().ok());

  const Response capped = c.trace(/*max_events=*/1);
  ASSERT_TRUE(capped.ok());
  obs::set_tracing(false);
  server.stop();

  const std::string json = capped.trace_json();
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 8)) {
    ++events;
  }
  EXPECT_EQ(events, 1u);
}

}  // namespace
}  // namespace ust::service
