// The execution engine (DESIGN.md §11): ONE owner for the long-lived
// execution resources that used to be scattered per op front-end -- the
// simulated device group (primary + replicas, each with its own worker pool),
// one byte-budgeted PlanCache per device, and the submission machinery for
// concurrent jobs -- and ONE dispatch path that routes every unified
// operation (SpTTM, SpMTTKRP, SpTTMc, SpTTV) through the sim, native,
// streaming, or sharded execution style. The paper's thesis is that these
// operations are a single parallel program; this layer is where the codebase
// says it architecturally: the four ops in src/core/ are thin front-ends that
// build an OpRequest and hand it here.
//
// Concurrency model (`submit`): jobs enter a bounded queue and are admitted
// to per-device sub-queues by one placement rule (DESIGN.md §15): a job
// batch-compatible with an already-queued job lands on that job's device
// (batch affinity); otherwise it goes to the device with the fewest queued
// plus executing jobs, ties rotated. A device that drains its own queue
// steals the whole batch-affinity group at the head of the deepest
// backlogged queue, so one long job never idles the rest of the group.
// Latency-class jobs (OpRequest::ServiceClass) jump ahead of batch backlog
// but age it: each batch job is passed at most kLatencyMaxSkips times.
// submit() takes native single-device jobs only, so every queued job can run
// on any device; sim-backend and sharded requests execute through the
// synchronous run() / run_sharded(). Each device executes one job at a time
// (its exec mutex, which those synchronous paths take too). A job executes
// the SAME single-device path run() uses -- and because the native worker
// grid is a function of nnz, threadlen and chunk_nnz alone, never of a
// pool's width, it is identical on every device, so a job's result is
// bitwise identical no matter which device it lands on and therefore
// bitwise identical to sequential execution
// (tests/engine_concurrency_test.cpp, tests/scheduler_test.cpp,
// tests/worker_grid_test.cpp).
//
// Request batching (DESIGN.md §13): when a device worker dequeues a job it
// also pulls up to EngineOptions::max_batch - 1 batch-compatible jobs (same
// cached plan content, kind, shapes and grid options -- see BatchedRequest)
// from its queue and executes them as ONE pass over the nnz stream with
// per-request accumulator tiles (core::native::execute_batched). Per-request
// results stay bitwise identical to solo runs, so coalescing is invisible
// except in the jobs_batched / batches_formed counters and the wall clock.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/mode_plan.hpp"
#include "core/unified_kernel.hpp"
#include "engine/errors.hpp"
#include "engine/op_exprs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/chunker.hpp"
#include "pipeline/plan_cache.hpp"
#include "shard/shard_executor.hpp"
#include "sim/device.hpp"
#include "tensor/coo.hpp"
#include "tensor/fcoo.hpp"

namespace ust::engine {

/// Host row-major matrix view: how factor matrices (and contraction vectors,
/// as single-column matrices) enter a type-erased OpRequest.
struct HostMatrixView {
  const value_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
};

/// The engine's F-COO handle for one (tensor, operation, mode, partitioning,
/// streaming) tuple: everything needed to execute the op on any device of the
/// group. Immutable after creation, so concurrent jobs share it freely.
/// Non-streaming plans carry the primary-device bundle (UnifiedPlan + SpTTM
/// fiber coordinates); replica devices get whole-range chunk plans built on
/// demand from the bundle's host-visible arrays and cached per device.
/// Streaming plans retain the host FcooTensor instead and build bounded
/// chunk plans on whatever device runs them.
struct OpPlan {
  OpKind kind = OpKind::kSpMTTKRP;
  core::TensorOp cache_op = core::TensorOp::kSpMTTKRP;  // plan-cache identity
  int mode = 0;
  Partitioning part;
  core::StreamingOptions stream;
  std::uint64_t tensor_fp = 0;
  std::vector<index_t> dims;
  std::vector<int> index_modes;
  std::vector<int> product_modes;
  nnz_t nnz = 0;
  nnz_t num_segments = 0;
  /// Primary-device plan bundle (null when streaming). May alias a PlanCache
  /// entry; the shared_ptr alone keeps it alive past eviction.
  std::shared_ptr<const pipeline::CachedPlan> bundle;
  /// Retained host tensor (streaming only).
  std::shared_ptr<const FcooTensor> fcoo;
  /// SpTTM streaming: ordinal seg_row backing the host view (output rows are
  /// fiber ordinals; no UnifiedPlan exists to provide them).
  std::vector<index_t> seg_ordinals;
  /// SpTTM: per-index-mode fiber coordinates for sCOO output assembly; views
  /// into the bundle or the host tensor, never a copy.
  std::vector<std::span<const index_t>> fiber_coords;

  bool streaming() const noexcept { return stream.enabled; }
  const core::UnifiedPlan& unified_plan() const {
    UST_EXPECTS(bundle != nullptr);
    return bundle->plan;
  }
  /// Bytes this plan keeps resident on the primary device (0 for streaming
  /// plans, whose chunk plans are transient). The unit the service's
  /// per-tenant plan quotas are accounted in (DESIGN.md §12).
  std::size_t resident_bytes() const { return bundle != nullptr ? bundle->bytes() : 0; }
  /// Host-side view for the chunk/shard plan builders.
  pipeline::HostFcoo host() const;
  /// Output rows of this operation (fiber count for SpTTM, dims[mode] else).
  index_t out_rows() const;
};

/// Aging bound for latency-class queue jumps: a batch-class job passed this
/// many times cannot be passed again (see OpRequest::ServiceClass).
inline constexpr unsigned kLatencyMaxSkips = 4;

/// Type-erased execution request: op kind + mode live in the plan; inputs are
/// the product-mode factors in ascending mode order (vectors as single-column
/// matrices); `out` is a caller-owned out_rows x out_cols row-major buffer,
/// overwritten by the run (no pre-zeroing needed). The buffer and the inputs
/// must stay alive until the run returns (or the submit future resolves).
struct OpRequest {
  /// Scheduling class (DESIGN.md §15). kBatch is throughput work, served in
  /// queue order. kLatency jobs may jump ahead of batch backlog on their
  /// device, but never starve it: every batch job they pass ages, and a job
  /// that has been passed kLatencyMaxSkips times cannot be passed again. The
  /// class never affects results -- only queue position.
  enum class ServiceClass : std::uint8_t {
    kBatch = 0,
    kLatency = 1,
  };

  std::shared_ptr<const OpPlan> plan;
  std::vector<HostMatrixView> inputs;
  value_t* out = nullptr;
  index_t out_rows = 0;
  index_t out_cols = 0;
  core::UnifiedOptions options;
  ServiceClass service_class = ServiceClass::kBatch;
  /// Observability correlation id (DESIGN.md §14): the service composes it
  /// from (tenant, wire request_id); in-process callers may leave it 0. The
  /// engine propagates it into every span the job emits, so one request's
  /// trace chains service -> engine -> kernel.
  std::uint64_t trace_id = 0;
};

struct EngineOptions {
  /// Properties of an engine-owned primary device (ignored when the engine is
  /// constructed around an existing device).
  sim::DeviceProps props = sim::DeviceProps::titan_x();
  /// Initial device-group size; grows on demand (sharded runs requesting more
  /// devices) and never shrinks, so per-device caches survive.
  unsigned num_devices = 1;
  /// Byte budget of each device's PlanCache (whole-tensor plans on the
  /// primary, whole-range replica plans and shard slices elsewhere).
  std::size_t cache_bytes_per_device = 256u << 20;
  /// Bounded job queue: submit() blocks once this many jobs are queued
  /// (admission back-pressure, counted across all per-device sub-queues).
  std::size_t max_queued_jobs = 64;
  /// Most jobs one device worker fuses into a single batched execution
  /// (one pass over the nnz stream with per-request accumulator tiles).
  /// 1 disables coalescing -- the batching-off baseline benches compare
  /// against.
  std::size_t max_batch = 8;
};

/// N requests executed as one engine call. Consecutive *batch-compatible*
/// requests -- same plan content (identical cached bundle), same op kind,
/// same factor/output shapes, native backend, non-streaming, non-sharded,
/// equal chunk_nnz / rank_block -- are fused into one pass over the nnz
/// stream; anything else (streaming, sharded, sim, or mismatched) executes
/// sequentially in its position. Either way every request's result is
/// bitwise identical to running it alone, so callers (CP-ALS inner
/// iterations, same-plan bursts) batch freely.
struct BatchedRequest {
  std::vector<OpRequest> requests;
};

/// Aggregated engine-wide report: the per-device PlanCache counters that
/// benches used to hand-roll, plus submission statistics.
///
/// Snapshot consistency (the service polls this per `stats` request under
/// live traffic): every job counter and gauge below is captured in ONE
/// critical section of the engine's state mutex -- the same lock every
/// transition (submit, dequeue, completion, batch formation) mutates them
/// under -- so within one EngineStats the invariants
///     jobs_submitted <= jobs_queued + jobs_active + jobs_completed
///     jobs_completed == sum over devices of DeviceStats::jobs
///     jobs_batched >= 2 * batches_formed
/// hold exactly (the first with equality when no synchronous run() /
/// run_sharded() / run_batched() is in flight -- those contribute to
/// jobs_active only); no torn or half-applied transition is observable
/// (EngineConcurrency.StatsSnapshotConsistentUnderLiveTraffic proves both
/// under TSan). Cache counters are read per device under each cache's own
/// mutex: each DeviceStats::cache is internally consistent and cache_total
/// is the exact sum of the captured per-device values, but a concurrently
/// executing job may land a hit between two devices' reads -- cache
/// counters are monotone, so the snapshot is a valid recent past, never an
/// impossible state.
struct EngineStats {
  struct DeviceStats {
    int ordinal = 0;
    pipeline::PlanCache::Stats cache;
    std::uint64_t jobs = 0;  // submitted jobs executed on this device
    double busy_s = 0.0;     // wall-clock this device spent on submitted jobs
    /// Gauges for the metrics exposition (DESIGN.md §14): jobs waiting in
    /// this device's sub-queue and jobs it is currently executing.
    std::uint64_t queued = 0;
    std::uint64_t active = 0;
  };
  std::vector<DeviceStats> devices;
  /// Sum of the per-device cache counters (hits/misses/evictions/bytes).
  pipeline::PlanCache::Stats cache_total;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  /// Gauges (not monotone): jobs admitted but not yet dequeued by a device
  /// worker, and jobs currently executing (submitted or synchronous run()).
  std::uint64_t jobs_queued = 0;
  std::uint64_t jobs_active = 0;
  /// Request-batching counters: jobs that executed inside a fused batch of
  /// >= 2 (through worker coalescing or run_batched) and the number of such
  /// batches. Solo executions count in neither.
  std::uint64_t jobs_batched = 0;
  std::uint64_t batches_formed = 0;
  /// Per-job execution-latency distribution in MICROSECONDS (each job's
  /// amortised share of its batch, matching JobRecord::exec_s).
  obs::HistogramSnapshot exec_latency_us;
  /// Steal events (DESIGN.md §15): one per batch-affinity group moved
  /// between device queues.
  std::uint64_t steals = 0;
};

/// Optional per-job record for submit(): filled (device ordinal + execution
/// seconds) before the job's future resolves, so reading it after
/// future.get() is race-free. For a job executed inside a fused batch,
/// exec_s is the batch wall time divided by the batch size -- the job's
/// amortized share, so per-device sums still add up to device busy time.
struct JobRecord {
  int device = -1;
  double exec_s = 0.0;
  /// Queue wait, submit -> dequeue by the executing worker. exec_s + wait_s
  /// is the job's in-engine latency (the service-class benches' measure).
  double wait_s = 0.0;
};

/// How submit() behaves when the bounded job queue is at capacity.
enum class Admission {
  kBlock,   // wait for a slot (in-process callers: benches, solvers)
  kReject   // throw engine::QueueFull immediately (the service's admission
            // control: surface back-pressure to the client as a retryable
            // protocol error instead of stalling the I/O loop)
};

class Engine {
 public:
  /// Engine with an owned primary device (opt.props), running on the global
  /// worker pool.
  explicit Engine(const EngineOptions& opt = {});
  /// Engine around an existing device (non-owning; `primary` must outlive the
  /// engine).
  explicit Engine(sim::Device& primary, const EngineOptions& opt = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  sim::Device& device(unsigned d = 0);
  unsigned num_devices() const;
  /// Grows the device group to at least `n` devices (never shrinks). Waits
  /// until no jobs are queued or running; replica devices, their pools and
  /// caches are appended, existing ones (and their cached plans) survive.
  void ensure_devices(unsigned n);

  /// Builds (or fetches) the F-COO handle for one operation through the
  /// engine's primary-device cache. The fingerprint and a missing plan's
  /// build run on the primary device's pool.
  std::shared_ptr<const OpPlan> plan(const CooTensor& tensor, OpKind kind, int mode,
                                     const Partitioning& part,
                                     const core::StreamingOptions& stream = {});

  /// Synchronous execution on the primary device (or the sharded path when
  /// req.options.shard.num_devices > 1). Serialises against submitted jobs on
  /// the devices it uses.
  void run(const OpRequest& req);

  /// Executes through the multi-device sharded executor regardless of the
  /// requested device count (>= 1, so a one-device baseline runs the same
  /// code path), filling `report` when non-null. run() routes here for
  /// num_devices > 1.
  void run_sharded(const OpRequest& req, shard::Report* report = nullptr);

  /// Synchronous batched execution: runs of consecutive batch-compatible
  /// requests (see BatchedRequest) fuse into one pass over the nnz stream on
  /// device 0; the rest execute sequentially in order. Every request's
  /// result is bitwise identical to run() -- the deterministic entry point
  /// the batched-equivalence tests and bench batch_speedup measurements use,
  /// and the synchronous twin of the worker-side submit() coalescing.
  void run_batched(const BatchedRequest& batch);

  /// Concurrent submission: enqueues the job, places it onto a device
  /// sub-queue (batch affinity, else least loaded), and returns a future
  /// that resolves when it completes (or carries the job's exception).
  /// Results are bitwise identical to run(). While the bounded
  /// queue is full, Admission::kBlock waits for a slot and
  /// Admission::kReject throws engine::QueueFull (retryable). A submission
  /// racing the destructor throws engine::ShuttingDown (terminal).
  /// Only native single-device requests are admitted: a sim-backend or
  /// sharded (options.shard.num_devices > 1) request throws
  /// core::InvalidOptions -- run() executes both kinds.
  ///
  /// `on_done`, when set, runs exactly once per admitted job on the worker
  /// thread, after `record` is filled and just BEFORE the future resolves --
  /// for ok, failed, fused, stolen and drained-at-shutdown jobs alike -- so
  /// a ready future implies the callback has returned. It must not block and
  /// must not throw. A submit that throws admits no job and never runs it.
  /// The service uses it to wake its I/O loop (DESIGN.md §12).
  std::future<void> submit(OpRequest req, JobRecord* record = nullptr,
                           Admission admission = Admission::kBlock,
                           std::function<void()> on_done = {});

  /// Quota hook (the service's per-tenant plan budgets, DESIGN.md §12):
  /// drops every cache entry the engine holds for `plan` -- the primary
  /// whole-tensor bundle and any whole-range replica plans -- releasing
  /// their bytes from the per-device budgets. Holders of the OpPlan keep a
  /// valid (now uncached) plan; a later plan() for the same tuple rebuilds.
  /// No-op for streaming plans, which never touch the caches.
  void forget(const OpPlan& plan);

  /// Builds (and caches) the whole-range replica plan for `plan` on every
  /// device of the group, so a following submit() burst measures execution,
  /// not first-touch plan uploads. No-op for streaming plans.
  void prewarm(const OpPlan& plan);

  EngineStats stats() const;

  /// Chrome trace-event JSON of every span recorded so far (engine, kernel
  /// and service spans share one process-wide tracer; this is a convenience
  /// forwarder to obs::chrome_trace_json so engine embedders need not reach
  /// into obs directly). max_events == 0 exports everything resident.
  static std::string dump_trace(std::size_t max_events = 0);

 private:
  struct Job {
    OpRequest req;
    std::promise<void> done;
    JobRecord* record = nullptr;
    std::function<void()> on_done;  // submit()'s completion callback
    /// Times a latency-class job has jumped ahead of this (batch-class) job;
    /// at kLatencyMaxSkips the job becomes un-passable (aging).
    unsigned skips = 0;
    /// obs::now_ns() at enqueue: JobRecord::wait_s, and the start of the
    /// engine.queue span when tracing was on at submit (`traced`).
    std::uint64_t t_submit_ns = 0;
    bool traced = false;
  };
  struct DeviceRt {
    std::deque<Job> queue;
    std::thread worker;
    bool worker_started = false;
    std::uint64_t jobs = 0;
    double busy_s = 0.0;
    std::size_t active_now = 0;  // jobs this device is executing (gauge)
    // One in-flight job per device: the per-device admission lock, shared
    // with synchronous run()/run_sharded().
    std::mutex exec_mutex;
    // Staging-buffer pool (guarded by exec_mutex: only the device's one
    // in-flight job touches it). Jobs return their factor/output buffers
    // here and later runs with matching sizes reuse them -- the
    // cross-iteration reuse the per-op front-ends used to hold as members
    // (CP-ALS runs three ops per iteration on one device, sharded or not).
    std::vector<sim::DeviceBuffer<value_t>> scratch;

    /// A staging buffer of exactly `elems` floats from `scratch`, or a fresh
    /// one on `dev` (this slot's device). Caller holds exec_mutex.
    sim::DeviceBuffer<value_t> take(sim::Device& dev, std::size_t elems);
    /// Moves the non-empty `bufs` into `scratch`, evicting the oldest beyond
    /// max(16, 4 * max_batch) -- room for a full batch's working set, so a
    /// steady same-plan burst reuses every buffer. Caller holds exec_mutex.
    void retire(std::span<sim::DeviceBuffer<value_t>> bufs, std::size_t max_batch);
  };

  void init_group(sim::Device& primary, const EngineOptions& opt);
  void validate_request(const OpRequest& req) const;
  /// Sharded execution after validation (run() and run_sharded() both land
  /// here, validating exactly once): grows the group to n devices, takes
  /// exec mutexes 0..n-1 in ascending order, shards the tensor over those
  /// devices and reduces into req.out.
  void run_sharded_impl(const OpRequest& req, shard::Report* report);
  /// Grows group + runtime slots to `n` under state_mutex_; caller must have
  /// established idleness (no queued or active jobs).
  void grow_locked(unsigned n);
  void start_workers_locked();
  void worker_loop(unsigned d, DeviceRt* rt);
  /// True when `a` and `b` can fuse into one batched native execution: same
  /// cached plan content (bundle pointer), same kind, same factor/output
  /// shapes, native backend, non-streaming, non-sharded, equal chunk_nnz and
  /// rank_block (one worker grid and pass structure must serve the batch).
  static bool batch_compatible(const OpRequest& a, const OpRequest& b);
  /// Single-device execution of reqs on device d: one request follows the
  /// full sim / native / streaming dispatch; two or more (callers guarantee
  /// pairwise batch compatibility) stage per-request factors and outputs and
  /// run core::native::execute_batched. Caller holds rt.exec_mutex (rt is
  /// device d's runtime slot).
  void exec_batch(unsigned d, DeviceRt& rt, std::span<const OpRequest* const> reqs);
  /// exec_batch of one.
  void exec_single(unsigned d, DeviceRt& rt, const OpRequest& req);
  /// Cache-or-build the whole-range plan for `plan` on replica device d.
  std::shared_ptr<const pipeline::CachedPlan> replica_plan(unsigned d, const OpPlan& plan);

  // ---- scheduler internals (all require state_mutex_) --------------------
  /// Target device for `req`: batch affinity; else the device with the
  /// fewest queued plus executing jobs, ties rotated through next_device_.
  unsigned pick_device_locked(const OpRequest& req);
  /// Queue insertion implementing the service classes: batch-class appends;
  /// latency-class inserts ahead of batch jobs that still have skip budget
  /// and ages every batch job it passes.
  void enqueue_locked(unsigned d, Job&& job);
  /// Deepest queue worker d may steal from, or -1. A queue qualifies when
  /// its own device cannot service it promptly: its worker is
  /// mid-execution, or it is more than one job deep.
  int steal_victim_locked(unsigned d) const;
  /// Pops the head of device v's queue plus every queued job
  /// batch-compatible with it (up to max_batch_, preserving the remainder's
  /// order). Both the owner's pop and the thief path of worker_loop.
  std::vector<Job> take_group_locked(unsigned v);

  std::unique_ptr<sim::Device> owned_primary_;
  std::unique_ptr<shard::DeviceGroup> group_;
  std::size_t max_queued_;
  std::size_t max_batch_;

  // state_mutex_ guards the group/runtime structure (growth, worker spawn),
  // the queues and every counter below. Execution itself runs outside it,
  // holding only the target device's exec_mutex.
  mutable std::mutex state_mutex_;
  std::condition_variable queue_cv_;  // wakes workers when a job is queued
  std::condition_variable space_cv_;  // wakes submitters when space frees
  std::condition_variable idle_cv_;   // wakes growers when fully idle
  std::deque<DeviceRt> rt_;           // deque: stable references across growth
  std::size_t queued_total_ = 0;
  std::size_t active_jobs_ = 0;
  /// Threads waiting in ensure_devices for idleness. While non-zero,
  /// submit() stops admitting new jobs so the grower cannot be starved by
  /// sustained traffic (growth needs active == queued == 0).
  std::size_t grow_waiters_ = 0;
  /// Tie-rotation cursor of least-loaded placement: equally-loaded devices
  /// are cycled so bursts of identical jobs spread out instead of piling on
  /// device 0.
  unsigned next_device_ = 0;
  bool workers_started_ = false;
  bool stop_ = false;
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_batched_ = 0;
  std::uint64_t batches_formed_ = 0;
  std::uint64_t steals_ = 0;
  /// Per-job exec-share latency (us); internally thread-safe, recorded by
  /// workers outside state_mutex_.
  obs::Histogram exec_latency_us_;
};

}  // namespace ust::engine
