#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <system_error>
#include <tuple>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::service {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::system_error(errno, std::generic_category(), "fcntl(O_NONBLOCK)");
  }
}

engine::OpKind to_op_kind(WireOp op) {
  switch (op) {
    case WireOp::kSpTTM: return engine::OpKind::kSpTTM;
    case WireOp::kSpMTTKRP: return engine::OpKind::kSpMTTKRP;
    case WireOp::kSpTTMc: return engine::OpKind::kSpTTMc;
    case WireOp::kSpTTV: return engine::OpKind::kSpTTV;
  }
  throw ProtocolError("unknown op");
}

/// Mirror of the engine's output-width rule (engine.cpp expected_out_cols).
index_t out_cols_for(engine::OpKind kind, std::span<const DenseMatrix> inputs) {
  switch (kind) {
    case engine::OpKind::kSpTTM:
    case engine::OpKind::kSpMTTKRP:
      return inputs[0].cols();
    case engine::OpKind::kSpTTMc:
      return inputs[0].cols() * inputs[1].cols();
    case engine::OpKind::kSpTTV:
      return 1;
  }
  UST_ENSURES(false);
}

}  // namespace

struct TensorOpServer::Impl {
  engine::Engine& engine;
  ServerOptions opt;
  int listener = -1;
  std::atomic<bool> stop{false};

  struct Session {
    int fd = -1;
    /// Never reused, unlike fd numbers: a pending job names its session by
    /// (fd, id), so a result that outlives its session cannot reach the
    /// next session the kernel hands the same fd.
    std::uint64_t id = 0;
    FrameAssembler in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };
  std::unordered_map<int, Session> sessions;  // keyed by fd
  std::uint64_t next_session_id = 1;

  /// One submitted job. The matrices anchor every pointer the OpRequest
  /// handed to the engine, so a Pending must outlive its job even when the
  /// response was abandoned (timeout / dead session): once its job is
  /// admitted, an entry leaves `pending` only through harvest() or the
  /// shutdown drain.
  struct Pending {
    int fd = -1;
    std::uint64_t session_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::future<void> future;
    std::vector<DenseMatrix> inputs;
    DenseMatrix out;
    std::shared_ptr<const engine::OpPlan> plan;
    std::optional<Clock::time_point> deadline;
    Clock::time_point t_arrive{};  // parse time; harvest records the latency
    bool abandoned = false;
  };
  std::list<Pending> pending;

  /// Job completion as a loop event. The engine runs complete() on its
  /// worker just before the job's future resolves; it appends the entry to
  /// `done` and writes `wake_fd`, an eventfd in the poll set, and harvest()
  /// then answers exactly the jobs in `done`. A std::list iterator stays
  /// valid while other entries come and go, and the worker only copies it.
  struct Completion {
    std::list<Pending>::iterator job;
    std::uint64_t t_ns = 0;  // obs::now_ns() at the callback; 0 untraced
  };
  std::mutex done_mutex;
  std::vector<Completion> done;        // guarded by done_mutex
  std::vector<Completion> harvesting;  // I/O thread only: harvest()'s batch
  int wake_fd = -1;

  struct PlanSlot {
    std::uint64_t tensor = 0;
    std::uint8_t op = 0;
    std::uint8_t mode = 0;
    std::uint32_t threadlen = 0;
    std::uint32_t block_size = 0;
    std::shared_ptr<const engine::OpPlan> plan;
    std::size_t bytes = 0;

    bool matches(std::uint64_t t, std::uint8_t o, std::uint8_t m, const Partitioning& p) const {
      return tensor == t && op == o && mode == m && threadlen == p.threadlen &&
             block_size == p.block_size;
    }
  };
  struct Tenant {
    struct TensorEntry {
      CooTensor tensor;
      std::size_t bytes = 0;
    };
    std::unordered_map<std::uint64_t, TensorEntry> tensors;
    std::size_t tensor_bytes = 0;
    std::list<PlanSlot> plans;  // front = most recent
    std::size_t plan_bytes = 0;
  };
  std::unordered_map<std::uint64_t, Tenant> tenants;

  /// The engine's plan caches key on tensor *content* (fingerprint), not on
  /// tenants, so two tenants holding plans for identical content share one
  /// cache entry. Refcount that shared key across every tenant's PlanSlots
  /// and call Engine::forget only when the last slot drops -- otherwise one
  /// tenant's quota eviction would evict another tenant's engine-cached plan.
  using EngineKey = std::tuple<std::uint64_t, int, int, std::uint32_t, std::uint32_t>;
  std::map<EngineKey, std::size_t> engine_plan_refs;

  static EngineKey engine_key(const engine::OpPlan& p) {
    return {p.tensor_fp, static_cast<int>(p.cache_op), p.mode, p.part.threadlen,
            p.part.block_size};
  }

  // Counters (atomics: stats() reads from foreign threads).
  std::atomic<std::uint64_t> sessions_accepted{0}, requests{0}, responses{0},
      queue_full{0}, timeouts{0}, bad_requests{0}, slow_closes{0}, bytes_rx{0}, bytes_tx{0},
      tensors_gauge{0}, tensor_bytes_gauge{0}, plans_gauge{0}, plan_bytes_gauge{0},
      sessions_gauge{0}, tenants_gauge{0};

  /// Metrics registry (DESIGN.md §14). The run-op latency histogram is
  /// recorded by the I/O thread (arrival -> response write); everything else
  /// is a gauge filled from the counter atomics + Engine::stats() at scrape
  /// time, so the scattered counters surface through ONE Prometheus text
  /// exposition without being double-tracked.
  obs::MetricsRegistry registry;

  explicit Impl(engine::Engine& eng, ServerOptions o) : engine(eng), opt(std::move(o)) {}

  /// Observability correlation id: tenant in the top 24 bits, wire
  /// request_id in the low 40 -- unique enough to chain one request's spans
  /// service -> engine -> kernel (args carry the plain request_id too).
  static std::uint64_t trace_id_for(const RequestHeader& h) noexcept {
    return (h.tenant << 40) | (h.request_id & ((std::uint64_t{1} << 40) - 1));
  }

  std::string render_metrics() {
    const engine::EngineStats es = engine.stats();
    const auto g = [&](const std::string& name, double v) { registry.gauge(name).set(v); };
    g("ust.engine.queue_depth", static_cast<double>(es.jobs_queued));
    g("ust.engine.jobs.active", static_cast<double>(es.jobs_active));
    g("ust.engine.jobs.submitted", static_cast<double>(es.jobs_submitted));
    g("ust.engine.jobs.completed", static_cast<double>(es.jobs_completed));
    g("ust.engine.jobs.batched", static_cast<double>(es.jobs_batched));
    g("ust.engine.batches_formed", static_cast<double>(es.batches_formed));
    const double lookups =
        static_cast<double>(es.cache_total.hits + es.cache_total.misses);
    g("ust.engine.cache.hit_ratio",
      lookups > 0 ? static_cast<double>(es.cache_total.hits) / lookups : 0.0);
    g("ust.engine.cache.bytes", static_cast<double>(es.cache_total.bytes_in_use));
    g("ust.engine.batch_occupancy",
      es.batches_formed > 0
          ? static_cast<double>(es.jobs_batched) / static_cast<double>(es.batches_formed)
          : 0.0);
    for (const auto& d : es.devices) {
      const std::string prefix = "ust.engine.device" + std::to_string(d.ordinal);
      g(prefix + ".queued", static_cast<double>(d.queued));
      g(prefix + ".inflight", static_cast<double>(d.active));
      g(prefix + ".jobs", static_cast<double>(d.jobs));
      g(prefix + ".busy_seconds", d.busy_s);
    }
    g("ust.engine.steals", static_cast<double>(es.steals));
    g("ust.server.sessions.open", static_cast<double>(sessions_gauge.load()));
    g("ust.server.sessions.accepted", static_cast<double>(sessions_accepted.load()));
    g("ust.server.requests", static_cast<double>(requests.load()));
    g("ust.server.responses", static_cast<double>(responses.load()));
    g("ust.server.queue_full", static_cast<double>(queue_full.load()));
    g("ust.server.timeouts", static_cast<double>(timeouts.load()));
    g("ust.server.bad_requests", static_cast<double>(bad_requests.load()));
    g("ust.server.slow_reader_closes", static_cast<double>(slow_closes.load()));
    g("ust.server.bytes.rx", static_cast<double>(bytes_rx.load()));
    g("ust.server.bytes.tx", static_cast<double>(bytes_tx.load()));
    g("ust.server.tenants", static_cast<double>(tenants_gauge.load()));
    g("ust.server.tensors", static_cast<double>(tensors_gauge.load()));
    g("ust.server.tensor_bytes", static_cast<double>(tensor_bytes_gauge.load()));
    g("ust.server.plans", static_cast<double>(plans_gauge.load()));
    g("ust.server.plan_bytes", static_cast<double>(plan_bytes_gauge.load()));
    // The engine's per-job exec-share latency histogram lives in its stats
    // snapshot, not this registry: render it alongside.
    return registry.render_prometheus() +
           obs::render_prometheus_histogram("ust.engine.exec_latency_us",
                                            es.exec_latency_us);
  }

  // ---- plan quota ------------------------------------------------------

  void drop_plan(Tenant& tenant, std::list<PlanSlot>::iterator it) {
    const auto ref = engine_plan_refs.find(engine_key(*it->plan));
    UST_ENSURES(ref != engine_plan_refs.end() && ref->second > 0);
    if (--ref->second == 0) {
      engine_plan_refs.erase(ref);
      engine.forget(*it->plan);
    }
    tenant.plan_bytes -= it->bytes;
    plan_bytes_gauge -= it->bytes;
    --plans_gauge;
    tenant.plans.erase(it);
  }

  /// Tenant-LRU plan acquisition. A hit refreshes recency; a miss plans
  /// through the engine (primary PlanCache) and charges the tenant quota,
  /// evicting the tenant's stalest plans via Engine::forget until it fits
  /// (always-keep-one: the newest plan is never evicted by its own
  /// admission).
  std::shared_ptr<const engine::OpPlan> plan_for(Tenant& tenant, std::uint64_t tensor_id,
                                                 const CooTensor& tensor, WireOp op,
                                                 std::uint8_t mode, const Partitioning& part) {
    const auto raw_op = static_cast<std::uint8_t>(op);
    for (auto it = tenant.plans.begin(); it != tenant.plans.end(); ++it) {
      if (it->matches(tensor_id, raw_op, mode, part)) {
        tenant.plans.splice(tenant.plans.begin(), tenant.plans, it);
        return tenant.plans.front().plan;
      }
    }
    auto plan = engine.plan(tensor, to_op_kind(op), mode, part);
    ++engine_plan_refs[engine_key(*plan)];
    const std::size_t bytes = plan->resident_bytes();
    while (tenant.plan_bytes + bytes > opt.tenant_plan_quota && !tenant.plans.empty()) {
      drop_plan(tenant, std::prev(tenant.plans.end()));
    }
    tenant.plans.push_front(PlanSlot{tensor_id, raw_op, mode, part.threadlen,
                                     part.block_size, plan, bytes});
    tenant.plan_bytes += bytes;
    plan_bytes_gauge += bytes;
    ++plans_gauge;
    return plan;
  }

  void drop_tensor(Tenant& tenant, std::uint64_t tensor_id) {
    const auto it = tenant.tensors.find(tensor_id);
    if (it == tenant.tensors.end()) return;
    for (auto p = tenant.plans.begin(); p != tenant.plans.end();) {
      if (p->tensor == tensor_id) {
        const auto victim = p++;
        drop_plan(tenant, victim);
      } else {
        ++p;
      }
    }
    tenant.tensor_bytes -= it->second.bytes;
    tensor_bytes_gauge -= it->second.bytes;
    --tensors_gauge;
    tenant.tensors.erase(it);
  }

  // ---- responses -------------------------------------------------------

  void enqueue(Session& s, const Writer& payload) {
    const auto frame = encode_frame(payload.data());
    s.out.insert(s.out.end(), frame.begin(), frame.end());
    ++responses;
  }

  void respond_error(Session& s, Status status, std::uint64_t request_id,
                     std::string_view message) {
    Writer w;
    write_response_header(w, status, request_id);
    w.str(message);
    if (status == Status::kQueueFull) ++queue_full;
    if (status == Status::kTimeout) ++timeouts;
    if (status == Status::kBadRequest || status == Status::kNotFound ||
        status == Status::kQuotaExceeded) {
      ++bad_requests;
    }
    enqueue(s, w);
  }

  // ---- request handlers ------------------------------------------------

  void handle_frame(Session& s, std::span<const std::uint8_t> payload) {
    ++requests;
    Reader r(payload);
    RequestHeader h;
    try {
      h = read_request_header(r);
    } catch (const ProtocolError& e) {
      ++bad_requests;
      Writer w;
      write_response_header(w, Status::kBadRequest, 0);
      w.str(e.what());
      enqueue(s, w);
      return;
    }
    // Root of the request's span chain: everything the dispatch (and, via
    // OpRequest::trace_id, the engine + kernels) records below carries this
    // correlation id.
    const obs::ScopedTraceId obs_id(trace_id_for(h));
    obs::Span obs_span("service.request");
    obs_span.arg("type", static_cast<std::uint64_t>(h.type))
        .arg("req", h.request_id);
    try {
      switch (h.type) {
        case MsgType::kPing: {
          Writer w;
          write_response_header(w, Status::kOk, h.request_id);
          enqueue(s, w);
          return;
        }
        case MsgType::kUploadTensor: return handle_upload(s, h, r);
        case MsgType::kRunOp: return handle_run(s, h, r);
        case MsgType::kDropTensor: return handle_drop(s, h, r);
        case MsgType::kStats: return handle_stats(s, h, r);
        case MsgType::kTrace: return handle_trace(s, h, r);
      }
    } catch (const ProtocolError& e) {
      respond_error(s, Status::kBadRequest, h.request_id, e.what());
    } catch (const ContractViolation& e) {
      // Bad shapes / indices out of range: a malformed request, not a
      // server fault.
      respond_error(s, Status::kBadRequest, h.request_id, e.what());
    } catch (const core::InvalidOptions& e) {
      respond_error(s, Status::kBadRequest, h.request_id, e.what());
    } catch (const std::exception& e) {
      respond_error(s, Status::kInternal, h.request_id, e.what());
    }
  }

  void handle_upload(Session& s, const RequestHeader& h, Reader& r) {
    const std::uint64_t tensor_id = r.u64();
    const int order = r.u8();
    if (order < 1 || order > static_cast<int>(engine::kMaxProductModes) + 1) {
      throw ProtocolError("unsupported tensor order " + std::to_string(order));
    }
    std::vector<index_t> dims(static_cast<std::size_t>(order));
    for (auto& d : dims) d = r.u32();
    const std::uint64_t nnz = r.u64();
    // One nonzero costs `order` indices plus one value on the wire. Bound nnz
    // by the frame payload ceiling BEFORE any multiplication: a hostile
    // 64-bit nnz must not wrap `need` (or the per-column byte counts below)
    // into a small number that passes the size check.
    const std::size_t per_nnz =
        static_cast<std::size_t>(order) * sizeof(index_t) + sizeof(value_t);
    if (nnz > kMaxFrameBytes / per_nnz) {
      throw ProtocolError("nnz " + std::to_string(nnz) + " exceeds frame capacity");
    }
    const std::size_t need = static_cast<std::size_t>(nnz) * per_nnz;
    if (r.remaining() != need) throw ProtocolError("tensor body size mismatch");

    // The columns sit at arbitrary offsets in the frame payload, so no
    // typed pointer may be bound over them: every element is copied out.
    // nnz is bounded by the frame ceiling and the body size above, so the
    // reservation is no larger than the frame already received.
    CooTensor tensor(dims);
    tensor.reserve(nnz);
    std::vector<const std::uint8_t*> cols(static_cast<std::size_t>(order));
    for (auto& col : cols) col = r.bytes(static_cast<std::size_t>(nnz) * sizeof(index_t));
    const std::uint8_t* vals = r.bytes(static_cast<std::size_t>(nnz) * sizeof(value_t));
    std::vector<index_t> idx(static_cast<std::size_t>(order));
    for (std::size_t x = 0; x < nnz; ++x) {
      for (std::size_t m = 0; m < cols.size(); ++m) {
        std::memcpy(&idx[m], cols[m] + x * sizeof(index_t), sizeof(index_t));
      }
      value_t v;
      std::memcpy(&v, vals + x * sizeof(value_t), sizeof(value_t));
      tensor.push_back(idx, v);
    }

    Tenant& tenant = get_tenant(h.tenant);
    const std::size_t bytes = tensor.storage_bytes();
    // Quota-check the prospective usage (old tensor replaced by the new one)
    // before mutating anything: a rejected re-upload must leave the existing
    // tensor and its cached plans intact.
    const auto old = tenant.tensors.find(tensor_id);
    const std::size_t old_bytes = old != tenant.tensors.end() ? old->second.bytes : 0;
    if (tenant.tensor_bytes - old_bytes + bytes > opt.tenant_tensor_quota) {
      respond_error(s, Status::kQuotaExceeded, h.request_id,
                    "tenant tensor quota exceeded");
      return;
    }
    drop_tensor(tenant, tensor_id);  // re-upload replaces
    tenant.tensor_bytes += bytes;
    tensor_bytes_gauge += bytes;
    ++tensors_gauge;
    tenant.tensors.emplace(tensor_id, Tenant::TensorEntry{std::move(tensor), bytes});
    Writer w;
    write_response_header(w, Status::kOk, h.request_id);
    enqueue(s, w);
  }

  void handle_drop(Session& s, const RequestHeader& h, Reader& r) {
    const std::uint64_t tensor_id = r.u64();
    r.expect_done();
    const auto t = tenants.find(h.tenant);
    if (t == tenants.end() || !t->second.tensors.contains(tensor_id)) {
      respond_error(s, Status::kNotFound, h.request_id, "unknown tensor");
      return;
    }
    drop_tensor(t->second, tensor_id);
    Writer w;
    write_response_header(w, Status::kOk, h.request_id);
    enqueue(s, w);
  }

  void handle_run(Session& s, const RequestHeader& h, Reader& r) {
    const std::uint64_t tensor_id = r.u64();
    const auto raw_op = r.u8();
    if (raw_op > static_cast<std::uint8_t>(WireOp::kSpTTV)) {
      throw ProtocolError("unknown op " + std::to_string(raw_op));
    }
    const auto op = static_cast<WireOp>(raw_op);
    const std::uint8_t mode = r.u8();
    Partitioning part;
    part.threadlen = r.u32();
    part.block_size = r.u32();
    const std::uint32_t timeout_ms = r.u32();
    const int num_inputs = r.u8();
    std::vector<DenseMatrix> inputs;
    inputs.reserve(static_cast<std::size_t>(num_inputs));
    for (int i = 0; i < num_inputs; ++i) {
      const index_t rows = r.u32();
      const index_t cols = r.u32();
      const std::size_t n = static_cast<std::size_t>(rows) * cols;
      if (n > r.remaining() / sizeof(value_t)) throw ProtocolError("matrix truncated");
      DenseMatrix m(rows, cols);
      std::memcpy(m.data(), r.bytes(n * sizeof(value_t)), n * sizeof(value_t));
      inputs.push_back(std::move(m));
    }
    r.expect_done();

    const auto t = tenants.find(h.tenant);
    if (t == tenants.end()) {
      respond_error(s, Status::kNotFound, h.request_id, "unknown tensor");
      return;
    }
    const auto entry = t->second.tensors.find(tensor_id);
    if (entry == t->second.tensors.end()) {
      respond_error(s, Status::kNotFound, h.request_id, "unknown tensor");
      return;
    }
    auto plan = plan_for(t->second, tensor_id, entry->second.tensor, op, mode, part);
    if (inputs.size() != plan->product_modes.size()) {
      respond_error(s, Status::kBadRequest, h.request_id,
                    "expected " + std::to_string(plan->product_modes.size()) +
                        " input matrices, got " + std::to_string(inputs.size()));
      return;
    }

    Pending job;
    job.fd = s.fd;
    job.session_id = s.id;
    job.request_id = h.request_id;
    job.trace_id = trace_id_for(h);
    job.t_arrive = Clock::now();
    job.inputs = std::move(inputs);
    job.out = DenseMatrix(plan->out_rows(),
                          out_cols_for(plan->kind, job.inputs));
    job.plan = plan;
    if (timeout_ms != 0) {
      job.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }

    engine::OpRequest req;
    req.trace_id = job.trace_id;
    req.service_class = h.service_class == WireClass::kLatency
                            ? engine::OpRequest::ServiceClass::kLatency
                            : engine::OpRequest::ServiceClass::kBatch;
    req.plan = std::move(plan);
    req.inputs.reserve(job.inputs.size());
    for (const DenseMatrix& m : job.inputs) {
      req.inputs.push_back({m.data(), m.rows(), m.cols()});
    }
    req.out = job.out.data();
    req.out_rows = job.out.rows();
    req.out_cols = job.out.cols();

    // Moving job into `pending` keeps the matrices' heap buffers, which the
    // request points into. The entry goes in before submit so the completion
    // callback can name it, and comes out again if submit admits no job. Any
    // other exception maps to its status in handle_frame.
    const auto it = pending.insert(pending.end(), std::move(job));
    try {
      it->future = engine.submit(std::move(req), nullptr, engine::Admission::kReject,
                                 [this, it] { complete(it); });
    } catch (const engine::QueueFull& e) {
      pending.erase(it);
      respond_error(s, Status::kQueueFull, h.request_id, e.what());
    } catch (const engine::ShuttingDown& e) {
      pending.erase(it);
      respond_error(s, Status::kShuttingDown, h.request_id, e.what());
    } catch (...) {
      pending.erase(it);
      throw;
    }
  }

  /// kStats v2. The request body carries the version the client expects; a
  /// mismatch -- including the empty body pre-versioning clients sent, which
  /// the Reader turns into a ProtocolError -> kBadRequest upstream -- gets a
  /// typed error instead of a payload the client would misparse. Response:
  /// version echo, key/value counters (the pre-v2 schema), then the
  /// Prometheus text exposition as a u32-length blob (Writer::str's u16
  /// length is too small for it).
  void handle_stats(Session& s, const RequestHeader& h, Reader& r) {
    const std::uint32_t version = r.u32();
    r.expect_done();
    if (version != kStatsVersion) {
      respond_error(s, Status::kBadRequest, h.request_id,
                    "stats_version " + std::to_string(version) + " unsupported; server speaks " +
                        std::to_string(kStatsVersion));
      return;
    }
    const engine::EngineStats es = engine.stats();
    Writer w;
    write_response_header(w, Status::kOk, h.request_id);
    w.u32(kStatsVersion);
    std::vector<std::pair<std::string_view, std::uint64_t>> kv = {
        {"engine.devices", es.devices.size()},
        {"engine.jobs_submitted", es.jobs_submitted},
        {"engine.jobs_completed", es.jobs_completed},
        {"engine.jobs_queued", es.jobs_queued},
        {"engine.jobs_active", es.jobs_active},
        {"engine.jobs_batched", es.jobs_batched},
        {"engine.batches_formed", es.batches_formed},
        {"engine.steals", es.steals},
        {"engine.cache_hits", es.cache_total.hits},
        {"engine.cache_misses", es.cache_total.misses},
        {"engine.cache_evictions", es.cache_total.evictions},
        {"engine.cache_bytes", es.cache_total.bytes_in_use},
        {"server.sessions_accepted", sessions_accepted.load()},
        {"server.sessions_open", sessions_gauge.load()},
        {"server.requests", requests.load()},
        {"server.responses", responses.load()},
        {"server.queue_full", queue_full.load()},
        {"server.timeouts", timeouts.load()},
        {"server.bad_requests", bad_requests.load()},
        {"server.slow_reader_closes", slow_closes.load()},
        {"server.tenants", tenants_gauge.load()},
        {"server.tensors", tensors_gauge.load()},
        {"server.tensor_bytes", tensor_bytes_gauge.load()},
        {"server.plans", plans_gauge.load()},
        {"server.plan_bytes", plan_bytes_gauge.load()},
    };
    w.u32(static_cast<std::uint32_t>(kv.size()));
    for (const auto& [k, v] : kv) {
      w.str(k);
      w.u64(v);
    }
    const std::string metrics = render_metrics();
    w.u32(static_cast<std::uint32_t>(metrics.size()));
    w.bytes(metrics.data(), metrics.size());
    enqueue(s, w);
  }

  /// kTrace: exports the process-wide span rings as Chrome trace-event JSON
  /// (u32 length + bytes). The body's u32 caps the event count (0 = all);
  /// if the JSON would overflow the frame ceiling, halve the cap until it
  /// fits -- most recent events win, which is what a debugger wants anyway.
  void handle_trace(Session& s, const RequestHeader& h, Reader& r) {
    std::size_t max_events = r.u32();
    r.expect_done();
    std::string json = engine::Engine::dump_trace(max_events);
    while (json.size() + 64 > kMaxFrameBytes) {
      max_events = max_events == 0 ? 1u << 16 : max_events / 2;
      if (max_events == 0) {
        respond_error(s, Status::kInternal, h.request_id, "trace export too large");
        return;
      }
      json = engine::Engine::dump_trace(max_events);
    }
    Writer w;
    write_response_header(w, Status::kOk, h.request_id);
    w.u32(static_cast<std::uint32_t>(json.size()));
    w.bytes(json.data(), json.size());
    enqueue(s, w);
  }

  Tenant& get_tenant(std::uint64_t id) {
    const auto [it, inserted] = tenants.try_emplace(id);
    if (inserted) ++tenants_gauge;
    return it->second;
  }

  // ---- completion harvesting -------------------------------------------

  /// The completion callback (engine worker thread). Must not block or
  /// throw: it takes only done_mutex, which the I/O thread holds just long
  /// enough to swap the list out.
  void complete(std::list<Pending>::iterator job) noexcept {
    const std::uint64_t t_ns = obs::tracing_enabled() ? obs::now_ns() : 0;
    {
      std::lock_guard lock(done_mutex);
      done.push_back({job, t_ns});
    }
    wake();
  }

  void wake() noexcept {
    const std::uint64_t one = 1;
    // Fails only if the counter would overflow; harvest() drains it.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  /// Answers every job whose completion callback has run. The eventfd is
  /// drained BEFORE the list is swapped out, so a completion that lands
  /// after the swap has written it again and wakes the next poll().
  void harvest() {
    std::uint64_t wakeups = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd, &wakeups, sizeof(wakeups));
    {
      std::lock_guard lock(done_mutex);
      harvesting.swap(done);
    }
    const auto now = Clock::now();
    // Each callback ran just before its promise resolved, so get() below
    // returns at once (at most it waits out that gap).
    for (const Completion& c : harvesting) {
      const auto it = c.job;
      Session* s = it->abandoned ? nullptr : owner(*it);
      if (s == nullptr) {
        // Response already sent (timeout) or the session is gone: just let
        // the buffers go.
        try {
          it->future.get();
        } catch (...) {
        }
        pending.erase(it);
        continue;
      }
      try {
        it->future.get();
        Writer w;
        write_response_header(w, Status::kOk, it->request_id);
        w.u32(it->out.rows());
        w.u32(it->out.cols());
        w.bytes(it->out.data(), it->out.byte_size());
        enqueue(*s, w);
      } catch (const std::exception& e) {
        respond_error(*s, Status::kInternal, it->request_id, e.what());
      }
      // End-to-end run-op latency (parse -> response enqueued), answered or
      // failed alike; only the single I/O thread records here.
      registry.histogram("ust.server.request_latency_us")
          .record(std::chrono::duration<double, std::micro>(now - it->t_arrive).count());
      // Completion callback -> response enqueued: the wakeup's own cost.
      if (c.t_ns != 0) {
        obs::emit_span("service.harvest", it->trace_id, c.t_ns, "req", it->request_id);
      }
      pending.erase(it);
    }
    harvesting.clear();
  }

  /// Answers kTimeout for every unanswered job past its deadline. The job
  /// runs on (kernels cannot be preempted), so its entry keeps the buffers
  /// until its completion reaches harvest(). Returns the poll() timeout in
  /// ms until the nearest remaining deadline, or -1 when there is none.
  /// `pending` is bounded by the engine's queue cap plus in-flight jobs, so
  /// a scan is cheap.
  int expire_deadlines() {
    const auto now = Clock::now();
    std::optional<Clock::time_point> next;
    for (Pending& p : pending) {
      if (p.abandoned || !p.deadline) continue;
      if (now < *p.deadline) {
        if (!next || *p.deadline < *next) next = p.deadline;
        continue;
      }
      if (auto* s = owner(p)) {
        respond_error(*s, Status::kTimeout, p.request_id, "deadline exceeded");
      } else {
        ++timeouts;
      }
      p.abandoned = true;
    }
    if (!next) return -1;
    // Round up: a timeout short of the deadline would spin until it passes.
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(*next - now).count();
    return static_cast<int>(std::min<decltype(ms)>(ms, INT_MAX));
  }

  // ---- socket plumbing -------------------------------------------------

  Session* find_session(int fd) {
    const auto it = sessions.find(fd);
    return it != sessions.end() ? &it->second : nullptr;
  }

  /// The session that submitted `p`, or nullptr once it has closed.
  Session* owner(const Pending& p) {
    Session* s = find_session(p.fd);
    return s != nullptr && s->id == p.session_id ? s : nullptr;
  }

  void close_session(int fd) {
    const auto it = sessions.find(fd);
    if (it == sessions.end()) return;
    ::close(fd);
    sessions.erase(it);
    --sessions_gauge;
  }

  void accept_all() {
    for (;;) {
      const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) return;  // EAGAIN / transient
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sessions.emplace(fd, Session{fd, next_session_id++, {}, {}, 0});
      ++sessions_accepted;
      ++sessions_gauge;
    }
  }

  /// Drains readable bytes; false when the peer closed or framing broke.
  bool read_session(Session& s) {
    std::uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(s.fd, chunk, sizeof(chunk), 0);
      if (n == 0) return false;  // orderly or abrupt close
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      bytes_rx += static_cast<std::uint64_t>(n);
      try {
        s.in.feed(chunk, static_cast<std::size_t>(n));
        std::vector<std::uint8_t> payload;
        while (s.in.next(payload)) handle_frame(s, payload);
      } catch (const ProtocolError&) {
        // Corrupt framing (zero / oversized length prefix): the byte stream
        // cannot be resynchronised -- drop the connection.
        return false;
      }
    }
    return true;
  }

  /// Flushes as much of the out buffer as the socket accepts.
  bool write_session(Session& s) {
    while (s.out_off < s.out.size()) {
      const ssize_t n = ::send(s.fd, s.out.data() + s.out_off, s.out.size() - s.out_off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      s.out_off += static_cast<std::size_t>(n);
      bytes_tx += static_cast<std::uint64_t>(n);
    }
    s.out.clear();
    s.out_off = 0;
    return true;
  }

  void loop() {
    std::vector<pollfd> fds;
    std::vector<int> dead;
    int timeout = -1;  // until the nearest deadline; -1 sleeps until an event
    while (!stop.load(std::memory_order_relaxed)) {
      fds.clear();
      fds.push_back({listener, POLLIN, 0});
      fds.push_back({wake_fd, POLLIN, 0});
      for (auto& [fd, s] : sessions) {
        short events = POLLIN;
        if (s.out_off < s.out.size()) events |= POLLOUT;
        fds.push_back({fd, events, 0});
      }
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);

      if (fds[0].revents & POLLIN) accept_all();
      dead.clear();
      for (std::size_t i = 2; i < fds.size(); ++i) {
        const int fd = fds[i].fd;
        Session* s = find_session(fd);
        if (s == nullptr) continue;
        if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // Abrupt disconnect mid-request: drain what arrived (POLLIN may
          // accompany HUP), then drop.
          if (fds[i].revents & POLLIN) (void)read_session(*s);
          dead.push_back(fd);
          continue;
        }
        if ((fds[i].revents & POLLIN) && !read_session(*s)) {
          dead.push_back(fd);
          continue;
        }
        if (!write_session(*s)) dead.push_back(fd);
      }
      for (int fd : dead) close_session(fd);

      if (fds[1].revents & POLLIN) harvest();
      timeout = expire_deadlines();
      // Responses enqueued above would go out on the next poll()'s POLLOUT
      // -- except most sockets are writable now, so try eagerly.
      // Sessions whose unflushed backlog still exceeds the cap after the
      // flush are slow readers (the kernel socket buffers are full and the
      // client is not consuming): disconnect them instead of buffering
      // response bytes without bound.
      dead.clear();
      for (auto& [fd, s] : sessions) {
        if (s.out_off < s.out.size() && !write_session(s)) {
          dead.push_back(fd);
        } else if (s.out.size() - s.out_off > opt.session_backlog_limit) {
          ++slow_closes;
          dead.push_back(fd);
        }
      }
      for (int fd : dead) close_session(fd);
    }
  }

  void shutdown_sockets() {
    for (auto& [fd, s] : sessions) ::close(fd);
    sessions.clear();
    sessions_gauge = 0;
    if (listener >= 0) {
      ::close(listener);
      listener = -1;
    }
    // Drain every job so its buffers outlive the engine work. A ready
    // future means its completion callback has returned, so after this loop
    // no worker touches `done` or wake_fd again.
    for (auto& p : pending) {
      try {
        p.future.get();
      } catch (...) {
      }
    }
    {
      std::lock_guard lock(done_mutex);
      done.clear();
    }
    pending.clear();
    if (wake_fd >= 0) {
      ::close(wake_fd);
      wake_fd = -1;
    }
  }
};

TensorOpServer::TensorOpServer(engine::Engine& engine, ServerOptions opt)
    : impl_(std::make_unique<Impl>(engine, std::move(opt))) {}

TensorOpServer::~TensorOpServer() { stop(); }

void TensorOpServer::start() {
  UST_EXPECTS(!started_.load());
  Impl& im = *impl_;
  im.listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listener < 0) throw std::system_error(errno, std::generic_category(), "socket");
  const int one = 1;
  ::setsockopt(im.listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.opt.port);
  if (::inet_pton(AF_INET, im.opt.bind_address.c_str(), &addr.sin_addr) != 1) {
    throw std::system_error(EINVAL, std::generic_category(), "bind address");
  }
  if (::bind(im.listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(im.listener, 128) < 0) {
    const int err = errno;
    ::close(im.listener);
    im.listener = -1;
    throw std::system_error(err, std::generic_category(), "bind/listen");
  }
  set_nonblocking(im.listener);
  im.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (im.wake_fd < 0) {
    const int err = errno;
    ::close(im.listener);
    im.listener = -1;
    throw std::system_error(err, std::generic_category(), "eventfd");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(im.listener, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  started_ = true;
  io_ = std::thread([this] { impl_->loop(); });
}

void TensorOpServer::stop() {
  if (!started_.exchange(false)) return;
  impl_->stop = true;
  impl_->wake();
  if (io_.joinable()) io_.join();
  impl_->shutdown_sockets();
}

std::string TensorOpServer::metrics_text() const { return impl_->render_metrics(); }

ServerStats TensorOpServer::stats() const {
  const Impl& im = *impl_;
  ServerStats s;
  s.sessions_accepted = im.sessions_accepted;
  s.sessions_open = im.sessions_gauge;
  s.requests = im.requests;
  s.responses = im.responses;
  s.queue_full = im.queue_full;
  s.timeouts = im.timeouts;
  s.bad_requests = im.bad_requests;
  s.slow_reader_closes = im.slow_closes;
  s.bytes_rx = im.bytes_rx;
  s.bytes_tx = im.bytes_tx;
  s.tenants = im.tenants_gauge;
  s.tensors = im.tensors_gauge;
  s.tensor_bytes = im.tensor_bytes_gauge;
  s.plans = im.plans_gauge;
  s.plan_bytes = im.plan_bytes_gauge;
  return s;
}

}  // namespace ust::service
