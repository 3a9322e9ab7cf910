#include "engine/engine.hpp"

#include <algorithm>

#include "core/native_exec.hpp"
#include "sim/executor.hpp"
#include "util/timer.hpp"

namespace ust::engine {

namespace {

/// Registers a synchronous job: waits out any pending group growth (so
/// sustained run() traffic cannot starve a grower, mirroring submit()'s
/// admission gate), then holds the active-job count for the scope, waking
/// idle waiters on exit.
class ActiveJobGuard {
 public:
  ActiveJobGuard(std::mutex& m, std::size_t& active, std::size_t& queued,
                 std::size_t& grow_waiters, std::condition_variable& idle,
                 std::condition_variable& space)
      : m_(m), active_(active), queued_(queued), idle_(idle) {
    std::unique_lock lock(m_);
    space.wait(lock, [&] { return grow_waiters == 0; });
    ++active_;
  }
  ~ActiveJobGuard() {
    std::lock_guard lock(m_);
    --active_;
    if (active_ == 0 && queued_ == 0) idle_.notify_all();
  }

 private:
  std::mutex& m_;
  std::size_t& active_;
  std::size_t& queued_;
  std::condition_variable& idle_;
};

core::ModePlan mode_plan_for(OpKind kind, int order, int mode) {
  switch (kind) {
    case OpKind::kSpTTM:
      return core::make_mode_plan_spttm(order, mode);
    case OpKind::kSpTTMc:
      return core::make_mode_plan_spttmc(order, mode);
    case OpKind::kSpMTTKRP:
    case OpKind::kSpTTV:
      // SpTTV contracts every mode but `mode`, exactly SpMTTKRP's split: the
      // two ops share one F-COO layout (and therefore cached plans).
      return core::make_mode_plan_spmttkrp(order, mode);
  }
  UST_ENSURES(false);
}

index_t expected_out_cols(OpKind kind, std::span<const HostMatrixView> inputs) {
  switch (kind) {
    case OpKind::kSpTTM:
    case OpKind::kSpMTTKRP:
      return inputs[0].cols;
    case OpKind::kSpTTMc:
      return inputs[0].cols * inputs[1].cols;
    case OpKind::kSpTTV:
      return 1;
  }
  UST_ENSURES(false);
}

void accumulate_cache_stats(pipeline::PlanCache::Stats& total,
                            const pipeline::PlanCache::Stats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.evictions += s.evictions;
  total.bytes_in_use += s.bytes_in_use;
  total.byte_budget += s.byte_budget;
  total.entries += s.entries;
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kSpTTM: return "SpTTM";
    case OpKind::kSpMTTKRP: return "SpMTTKRP";
    case OpKind::kSpTTMc: return "SpTTMc";
    case OpKind::kSpTTV: return "SpTTV";
  }
  return "?";
}

pipeline::HostFcoo OpPlan::host() const { return pipeline::host_view(unified_plan()); }

index_t OpPlan::out_rows() const {
  if (kind == OpKind::kSpTTM) return static_cast<index_t>(num_segments);
  return dims[static_cast<std::size_t>(mode)];
}

Engine::Engine(const EngineOptions& opt)
    : owned_primary_(std::make_unique<sim::Device>(opt.props)),
      max_queued_(std::max<std::size_t>(1, opt.max_queued_jobs)),
      max_batch_(std::max<std::size_t>(1, opt.max_batch)) {
  init_group(*owned_primary_, opt);
}

Engine::Engine(sim::Device& primary, const EngineOptions& opt)
    : max_queued_(std::max<std::size_t>(1, opt.max_queued_jobs)),
      max_batch_(std::max<std::size_t>(1, opt.max_batch)) {
  init_group(primary, opt);
}

void Engine::init_group(sim::Device& primary, const EngineOptions& opt) {
  group_ = std::make_unique<shard::DeviceGroup>(primary, std::max(1u, opt.num_devices),
                                                opt.cache_bytes_per_device);
  while (rt_.size() < group_->size()) rt_.emplace_back();
}

Engine::~Engine() {
  {
    std::lock_guard lock(state_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  // Workers drain their queues (resolving every outstanding future) before
  // exiting; the group -- and with it every per-device cache entry -- is
  // destroyed afterwards, while all devices are still alive.
  for (auto& rt : rt_) {
    if (rt.worker.joinable()) rt.worker.join();
  }
}

sim::Device& Engine::device(unsigned d) {
  std::lock_guard lock(state_mutex_);
  return group_->device(d);
}

unsigned Engine::num_devices() const {
  std::lock_guard lock(state_mutex_);
  return group_->size();
}

void Engine::ensure_devices(unsigned n) {
  std::unique_lock lock(state_mutex_);
  if (group_->size() >= n) return;
  // Growth appends devices (existing ones and their cached plans survive) but
  // must not race structure readers: wait until nothing is queued or running.
  // grow_waiters_ gates submit() while we wait, so sustained traffic cannot
  // starve the grower.
  ++grow_waiters_;
  idle_cv_.wait(lock, [&] { return active_jobs_ == 0 && queued_total_ == 0; });
  if (group_->size() < n) grow_locked(n);
  --grow_waiters_;
  if (grow_waiters_ == 0) space_cv_.notify_all();
}

void Engine::grow_locked(unsigned n) {
  group_->grow(n);
  while (rt_.size() < group_->size()) rt_.emplace_back();
  if (workers_started_) start_workers_locked();
}

void Engine::start_workers_locked() {
  workers_started_ = true;
  for (unsigned d = 0; d < rt_.size(); ++d) {
    DeviceRt& rt = rt_[d];
    if (!rt.worker_started) {
      rt.worker_started = true;
      rt.worker = std::thread([this, d, &rt] { worker_loop(d, &rt); });
    }
  }
}

std::shared_ptr<const OpPlan> Engine::plan(const CooTensor& tensor, OpKind kind, int mode,
                                           const Partitioning& part) {
  core::validate(part);
  if (kind == OpKind::kSpTTMc) UST_EXPECTS(tensor.order() == 3);
  const core::ModePlan mp = mode_plan_for(kind, tensor.order(), mode);
  UST_EXPECTS(mp.product_modes.size() <= kMaxProductModes);

  sim::Device* dev0 = nullptr;
  pipeline::PlanCache* cache = nullptr;
  {
    std::lock_guard lock(state_mutex_);
    dev0 = &group_->device(0);
    cache = &group_->cache(0);
  }

  auto p = std::make_shared<OpPlan>();
  p->kind = kind;
  p->cache_op = mp.op;
  p->mode = mode;
  p->part = part;

  // Fingerprinted because the per-device (primary, replica and shard) caches
  // are shared across ops and tensors, so keys must carry the tensor
  // identity. acquire_plan builds outside the cache lock and keys on the
  // *mode plan's* op, so SpTTV shares SpMTTKRP's entries -- identical layout.
  p->tensor_fp = pipeline::coo_fingerprint(tensor);
  p->bundle = pipeline::acquire_plan(*dev0, tensor, mp, part, *cache,
                                     /*want_coords=*/kind == OpKind::kSpTTM,
                                     p->tensor_fp);
  p->dims = p->bundle->plan.dims();
  p->index_modes = p->bundle->plan.index_modes();
  p->product_modes = p->bundle->plan.product_modes();
  p->nnz = p->bundle->plan.nnz();
  p->num_segments = p->bundle->plan.num_segments();
  if (kind == OpKind::kSpTTM) {
    for (const auto& coords : p->bundle->segment_coords) p->fiber_coords.push_back(coords);
  }
  return p;
}

void Engine::validate_request(const OpRequest& req) const {
  UST_EXPECTS(req.plan != nullptr);
  const OpPlan& p = *req.plan;
  const std::size_t nprod = p.product_modes.size();
  UST_EXPECTS(req.inputs.size() == nprod);
  for (std::size_t i = 0; i < nprod; ++i) {
    const HostMatrixView& in = req.inputs[i];
    UST_EXPECTS(in.rows == p.dims[static_cast<std::size_t>(p.product_modes[i])]);
    UST_EXPECTS(in.data != nullptr ||
                static_cast<std::size_t>(in.rows) * in.cols == 0);
    if (p.kind == OpKind::kSpMTTKRP) UST_EXPECTS(in.cols == req.inputs[0].cols);
    if (p.kind == OpKind::kSpTTV) UST_EXPECTS(in.cols == 1);
  }
  UST_EXPECTS(req.out_cols == expected_out_cols(p.kind, req.inputs));
  UST_EXPECTS(req.out_rows == p.out_rows());
  UST_EXPECTS(req.out != nullptr ||
              static_cast<std::size_t>(req.out_rows) * req.out_cols == 0);
}

std::shared_ptr<const pipeline::CachedPlan> Engine::replica_plan(unsigned d,
                                                                 const OpPlan& p) {
  sim::Device* dev = nullptr;
  pipeline::PlanCache* cache = nullptr;
  {
    std::lock_guard lock(state_mutex_);
    dev = &group_->device(d);
    cache = &group_->cache(d);
  }
  pipeline::PlanKey key;
  key.device = dev;
  key.tensor_fp = p.tensor_fp;
  key.op = p.cache_op;
  key.mode = p.mode;
  key.threadlen = p.part.threadlen;
  key.block_size = p.part.block_size;
  key.shard_lo = 0;
  key.shard_hi = p.nnz;
  key.chunk_nnz = 0;
  key.flavor = pipeline::PlanKey::kWholeReplica;
  return cache->get_or_build(key, [&] {
    // A whole-range "shard": the replica carries the identical arrays the
    // primary UnifiedPlan holds (lo 0, row_base 0), and the native worker
    // grid depends on the plan alone, not on the device's pool, so native
    // execution over it is bitwise identical to device-0 execution.
    pipeline::StreamChunk spec;
    spec.lo = 0;
    spec.hi = p.nnz;
    spec.first_seg = 0;
    spec.num_segments = p.num_segments;
    pipeline::CachedPlan cached;
    cached.chunk = pipeline::build_chunk_plan(*dev, p.host(), p.part, spec, /*row_base=*/0);
    return cached;
  });
}

void Engine::forget(const OpPlan& plan) {
  // Reconstruct the keys the plan's entries were cached under: the primary
  // whole-tensor bundle (pipeline::acquire_plan's key shape) plus one
  // whole-range replica plan per additional device (replica_plan's shape).
  std::vector<std::pair<sim::Device*, pipeline::PlanCache*>> slots;
  {
    std::lock_guard lock(state_mutex_);
    for (unsigned d = 0; d < group_->size(); ++d) {
      slots.emplace_back(&group_->device(d), &group_->cache(d));
    }
  }
  for (unsigned d = 0; d < slots.size(); ++d) {
    pipeline::PlanKey key;
    key.device = slots[d].first;
    key.tensor_fp = plan.tensor_fp;
    key.op = plan.cache_op;
    key.mode = plan.mode;
    key.threadlen = plan.part.threadlen;
    key.block_size = plan.part.block_size;
    if (d == 0) {
      key.flavor = pipeline::PlanKey::kWholePlan;
    } else {
      key.shard_lo = 0;
      key.shard_hi = plan.nnz;
      key.chunk_nnz = 0;
      key.flavor = pipeline::PlanKey::kWholeReplica;
    }
    slots[d].second->erase(key);
  }
}

void Engine::prewarm(const OpPlan& plan) {
  if (plan.nnz == 0) return;
  unsigned n = 0;
  {
    std::lock_guard lock(state_mutex_);
    n = group_->size();
  }
  for (unsigned d = 1; d < n; ++d) (void)replica_plan(d, plan);
}

void Engine::exec_batch(unsigned d, DeviceRt& rt, std::span<const OpRequest* const> reqs) {
  const std::size_t n = reqs.size();
  UST_EXPECTS(n >= 1);
  // Trace id comes from the thread-local context (installed by worker_loop /
  // run() from the head request) so nested kernel spans chain to it.
  obs::Span obs_span("engine.exec");
  obs_span.arg("device", d).arg("batch", n);
  const OpRequest& first = *reqs[0];
  const OpPlan& p = *first.plan;
  const core::UnifiedOptions& opt = first.options;
  sim::Device* devp = nullptr;
  {
    std::lock_guard lock(state_mutex_);
    devp = &group_->device(d);
  }
  sim::Device& dev = *devp;

  // Batches are formed from pairwise batch_compatible() requests, so every
  // shape and grid parameter below is shared by the whole batch.
  const std::size_t nprod = p.product_modes.size();
  const index_t r0 = first.inputs[0].cols;
  const index_t r1 = first.inputs.size() > 1 ? first.inputs[1].cols : 1;
  const index_t cols = first.out_cols;
  const std::size_t out_elems = static_cast<std::size_t>(first.out_rows) * cols;

  // Stage every request's product-mode inputs and output on the target
  // device through its scratch pool (transfers are re-done every run: CP-ALS
  // mutates the factors between calls). fcs[j] are request j's factor
  // pointers, out_views[j] its zero-filled output tile.
  std::vector<sim::DeviceBuffer<value_t>> fac(n * nprod);
  std::vector<std::array<const value_t*, kMaxProductModes>> fcs(n);
  std::vector<sim::DeviceBuffer<value_t>> out_bufs(n);
  std::vector<core::OutView> out_views(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < nprod; ++i) {
      const HostMatrixView& in = reqs[j]->inputs[i];
      const std::size_t elems = static_cast<std::size_t>(in.rows) * in.cols;
      sim::DeviceBuffer<value_t>& b = fac[j * nprod + i];
      b = rt.take(dev, elems);
      b.copy_from_host({in.data, elems});
      fcs[j][i] = b.data();
    }
    out_bufs[j] = rt.take(dev, out_elems);
    out_bufs[j].fill(value_t{0});
    out_views[j] = core::OutView{out_bufs[j].data(), cols, cols};
  }

  // Returns the staging buffers to the pool once the run has copied its
  // results out.
  const auto retire = [&] {
    rt.retire(fac, max_batch_);
    rt.retire(out_bufs, max_batch_);
  };
  const auto copy_out = [&] {
    for (std::size_t j = 0; j < n; ++j) {
      out_bufs[j].copy_to_host({reqs[j]->out, out_elems});
    }
  };

  if (p.nnz == 0 || cols == 0) {
    copy_out();
    retire();
    return;
  }

  // Device-resident plan: the primary bundle on device 0, a cached
  // whole-range replica elsewhere (native only -- sim-backend requests run
  // only through run(), on the primary, where the UnifiedPlan lives).
  // Compatible requests share the plan by construction, so one view serves
  // the whole batch.
  std::shared_ptr<const pipeline::CachedPlan> replica;
  core::FcooView view;
  std::array<const index_t*, kMaxProductModes> px{};
  if (d == 0) {
    const core::UnifiedPlan& up = p.unified_plan();
    view = up.view();
    for (std::size_t i = 0; i < nprod; ++i) px[i] = up.product_indices(i).data();
  } else {
    UST_EXPECTS(opt.backend == core::ExecBackend::kNative);
    replica = replica_plan(d, p);
    view = replica->chunk->view();
    for (std::size_t i = 0; i < nprod; ++i) px[i] = replica->chunk->product_indices(i);
  }

  with_expr_maker(p.kind, nprod, r0, r1, [&](auto maker) {
    if (opt.backend == core::ExecBackend::kNative) {
      using Expr = decltype(maker(px.data(), fcs[0].data()));
      std::vector<Expr> exprs;
      exprs.reserve(n);
      for (std::size_t j = 0; j < n; ++j) exprs.push_back(maker(px.data(), fcs[j].data()));
      core::native::execute_batched(dev, view, out_views,
                                    std::span<const Expr>(exprs.data(), exprs.size()),
                                    opt.chunk_nnz, opt.rank_block);
      return;
    }
    UST_EXPECTS(n == 1);  // sim-backend requests never batch
    const auto expr = maker(px.data(), fcs[0].data());
    const core::UnifiedPlan& up = p.unified_plan();
    const core::UnifiedOptions ropt = up.resolve_options(cols, opt);
    const sim::LaunchConfig cfg = up.launch_config(cols, ropt);
    std::unique_ptr<sim::CarryChain> chain;
    if (ropt.strategy == core::ReduceStrategy::kAdjacentSync) {
      chain = std::make_unique<sim::CarryChain>(cfg.total_blocks(), ropt.column_tile);
    }
    sim::launch(dev, cfg, [&](sim::BlockCtx& blk) {
      core::unified_block_program(blk, view, out_views[0], ropt, expr, chain.get());
    });
  });
  copy_out();
  retire();
}

sim::DeviceBuffer<value_t> Engine::DeviceRt::take(sim::Device& dev, std::size_t elems) {
  for (auto it = scratch.begin(); it != scratch.end(); ++it) {
    if (it->size() == elems) {
      sim::DeviceBuffer<value_t> b = std::move(*it);
      scratch.erase(it);
      return b;
    }
  }
  return dev.alloc<value_t>(elems);
}

void Engine::DeviceRt::retire(std::span<sim::DeviceBuffer<value_t>> bufs,
                              std::size_t max_batch) {
  for (auto& b : bufs) {
    if (!b.empty()) scratch.push_back(std::move(b));
  }
  const std::size_t max_pooled = std::max<std::size_t>(16, max_batch * 4);
  while (scratch.size() > max_pooled) scratch.erase(scratch.begin());
}

void Engine::exec_single(unsigned d, DeviceRt& rt, const OpRequest& req) {
  const OpRequest* ptr = &req;
  exec_batch(d, rt, std::span<const OpRequest* const>(&ptr, 1));
}

bool Engine::batch_compatible(const OpRequest& a, const OpRequest& b) {
  const OpPlan& pa = *a.plan;
  const OpPlan& pb = *b.plan;
  // One pass must serve both requests: same plan *content* (the cached
  // bundle pointer -- two tenants uploading identical tensors share it, so
  // cross-tenant bursts fuse too), same kind (SpTTV shares SpMTTKRP bundles
  // but needs a different expression), same shapes (one maker, one worker
  // grid, equal-width tiles) and same grid knobs.
  if (pa.bundle == nullptr || pa.bundle.get() != pb.bundle.get()) return false;
  if (pa.kind != pb.kind || pa.mode != pb.mode) return false;
  if (a.options.backend != core::ExecBackend::kNative ||
      b.options.backend != core::ExecBackend::kNative) {
    return false;
  }
  if (a.options.shard.num_devices > 1 || b.options.shard.num_devices > 1) return false;
  if (a.options.chunk_nnz != b.options.chunk_nnz) return false;
  if (a.options.rank_block != b.options.rank_block) return false;
  if (a.out_rows != b.out_rows || a.out_cols != b.out_cols) return false;
  if (a.inputs.size() != b.inputs.size()) return false;
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    if (a.inputs[i].rows != b.inputs[i].rows || a.inputs[i].cols != b.inputs[i].cols) {
      return false;
    }
  }
  return true;
}

void Engine::run(const OpRequest& req) {
  validate_request(req);
  const OpPlan& p = *req.plan;
  core::validate(p.part, req.options);
  if (req.options.shard.num_devices > 1) {
    run_sharded_impl(req, nullptr);
    return;
  }
  DeviceRt* rt = nullptr;
  {
    std::lock_guard lock(state_mutex_);
    rt = &rt_[0];
  }
  ActiveJobGuard guard(state_mutex_, active_jobs_, queued_total_, grow_waiters_,
                       idle_cv_, space_cv_);
  std::lock_guard exec(rt->exec_mutex);
  const obs::ScopedTraceId obs_id(req.trace_id != 0 ? req.trace_id
                                                    : obs::current_trace_id());
  exec_single(0, *rt, req);
}

void Engine::run_batched(const BatchedRequest& batch) {
  UST_EXPECTS(!batch.requests.empty());
  for (const OpRequest& req : batch.requests) {
    validate_request(req);
    core::validate(req.plan->part, req.options);
  }
  // Greedy run-length fusion: adjacent compatible requests execute as one
  // pass; anything unfusable (sharded, sim backend, or simply different)
  // falls back to its usual synchronous path.
  std::size_t i = 0;
  while (i < batch.requests.size()) {
    const OpRequest& head = batch.requests[i];
    const bool fusable = head.options.backend == core::ExecBackend::kNative &&
                         head.options.shard.num_devices <= 1;
    std::size_t len = 1;
    if (fusable) {
      while (i + len < batch.requests.size() &&
             batch_compatible(head, batch.requests[i + len])) {
        ++len;
      }
    }
    if (len == 1) {
      run(head);
      ++i;
      continue;
    }
    DeviceRt* rt = nullptr;
    {
      std::lock_guard lock(state_mutex_);
      rt = &rt_[0];
    }
    ActiveJobGuard guard(state_mutex_, active_jobs_, queued_total_, grow_waiters_,
                         idle_cv_, space_cv_);
    {
      std::lock_guard exec(rt->exec_mutex);
      std::vector<const OpRequest*> reqs;
      reqs.reserve(len);
      for (std::size_t j = 0; j < len; ++j) reqs.push_back(&batch.requests[i + j]);
      exec_batch(0, *rt, std::span<const OpRequest* const>(reqs.data(), reqs.size()));
    }
    {
      std::lock_guard lock(state_mutex_);
      jobs_batched_ += len;
      ++batches_formed_;
    }
    i += len;
  }
}

void Engine::run_sharded(const OpRequest& req, shard::Report* report) {
  validate_request(req);
  core::validate(req.plan->part, req.options);
  run_sharded_impl(req, report);
}

void Engine::run_sharded_impl(const OpRequest& req, shard::Report* report) {
  UST_EXPECTS(req.options.backend == core::ExecBackend::kNative);
  const unsigned n = std::max(1u, req.options.shard.num_devices);
  ensure_devices(n);

  std::vector<DeviceRt*> rts;
  sim::Device* dev0 = nullptr;
  {
    std::lock_guard lock(state_mutex_);
    rts.reserve(n);
    for (unsigned d = 0; d < n; ++d) rts.push_back(&rt_[d]);
    dev0 = &group_->device(0);
  }
  ActiveJobGuard guard(state_mutex_, active_jobs_, queued_total_, grow_waiters_,
                       idle_cv_, space_cv_);
  // One in-flight job per device: a sharded run owns devices 0..n-1 (locked
  // in ascending order; workers only ever hold their own single mutex and
  // every sharded run takes this same ascending order, so no deadlock).
  std::vector<std::unique_lock<std::mutex>> exec_locks;
  exec_locks.reserve(n);
  for (DeviceRt* rt : rts) exec_locks.emplace_back(rt->exec_mutex);

  const OpPlan& p = *req.plan;
  const std::size_t nprod = p.product_modes.size();
  const index_t r0 = req.inputs[0].cols;
  const index_t r1 = req.inputs.size() > 1 ? req.inputs[1].cols : 1;
  const index_t cols = req.out_cols;
  const std::size_t out_elems = static_cast<std::size_t>(req.out_rows) * cols;
  const std::span<value_t> host_out{req.out, out_elems};

  // Every staging buffer comes from its device's scratch pool (we hold every
  // exec_mutex), so repeat sharded runs -- CP-ALS iterations -- reuse them.
  sim::DeviceBuffer<value_t> out_buf = rts[0]->take(*dev0, out_elems);
  out_buf.fill(value_t{0});
  const core::OutView out_view{out_buf.data(), cols, cols};

  with_expr_maker(p.kind, nprod, r0, r1, [&](auto maker) {
    // Inputs are staged per shard device, lazily, inside the expression
    // factory (shards run in device order, so one buffer set suffices: a
    // device's set goes back to its pool when the next device stages).
    std::vector<sim::DeviceBuffer<value_t>> sfac(nprod);
    unsigned staged_for = ~0u;
    shard::execute(*group_, p.host(), p.part, out_view, req.options, p.cache_op, p.mode,
                   p.tensor_fp,
                   [&](sim::Device& sdev, unsigned dd, const pipeline::ChunkPlan& c) {
                     if (staged_for != dd) {
                       if (staged_for != ~0u) rts[staged_for]->retire(sfac, max_batch_);
                       for (std::size_t i = 0; i < nprod; ++i) {
                         const HostMatrixView& in = req.inputs[i];
                         const std::size_t elems =
                             static_cast<std::size_t>(in.rows) * in.cols;
                         sfac[i] = rts[dd]->take(sdev, elems);
                         sfac[i].copy_from_host({in.data, elems});
                       }
                       staged_for = dd;
                     }
                     std::array<const index_t*, kMaxProductModes> px{};
                     std::array<const value_t*, kMaxProductModes> fc{};
                     for (std::size_t i = 0; i < nprod; ++i) {
                       px[i] = c.product_indices(i);
                       fc[i] = sfac[i].data();
                     }
                     return maker(px.data(), fc.data());
                   },
                   report);
    if (staged_for != ~0u) rts[staged_for]->retire(sfac, max_batch_);
  });
  out_buf.copy_to_host(host_out);
  rts[0]->retire(std::span(&out_buf, 1), max_batch_);
}

unsigned Engine::pick_device_locked(const OpRequest& req) {
  const unsigned n = static_cast<unsigned>(rt_.size());
  if (n <= 1) return 0;

  // Batch-affinity placement first: a job that could fuse with one already
  // queued lands on that job's device, so the worker's coalescing pop (and
  // the group-preserving steal) find the mates together.
  if (max_batch_ > 1) {
    for (unsigned i = 0; i < n; ++i) {
      for (const Job& j : rt_[i].queue) {
        if (batch_compatible(j.req, req)) return i;
      }
    }
  }

  // Least-loaded by job count (queued + executing). Scanning from the
  // cursor and keeping the first minimum rotates ties, so bursts of
  // identical jobs spread out instead of piling on device 0.
  unsigned best = next_device_;
  std::size_t best_load = static_cast<std::size_t>(-1);
  for (unsigned step = 0; step < n; ++step) {
    const unsigned d = (next_device_ + step) % n;
    const std::size_t load = rt_[d].queue.size() + rt_[d].active_now;
    if (load < best_load) {
      best_load = load;
      best = d;
    }
  }
  next_device_ = (best + 1) % n;
  return best;
}

void Engine::enqueue_locked(unsigned d, Job&& job) {
  DeviceRt& rt = rt_[d];
  if (job.req.service_class == OpRequest::ServiceClass::kLatency) {
    // Jump ahead of batch-class backlog, but never past a batch job that has
    // exhausted its skip budget (aging: bounded starvation), and keep FIFO
    // order among latency jobs themselves.
    auto pos = rt.queue.begin();
    while (pos != rt.queue.end() &&
           (pos->req.service_class == OpRequest::ServiceClass::kLatency ||
            pos->skips >= kLatencyMaxSkips)) {
      ++pos;
    }
    for (auto it = pos; it != rt.queue.end(); ++it) {
      if (it->req.service_class == OpRequest::ServiceClass::kBatch) ++it->skips;
    }
    rt.queue.insert(pos, std::move(job));
    return;
  }
  rt.queue.push_back(std::move(job));
}

std::future<void> Engine::submit(OpRequest req, JobRecord* record, Admission admission,
                                 std::function<void()> on_done) {
  validate_request(req);
  const OpPlan& p = *req.plan;
  core::validate(p.part, req.options);
  // A queued job may run on any device (placement or a steal picks it).
  // Sim-backend requests need the primary's UnifiedPlan and sharded ones a
  // span of devices, so both take the synchronous run().
  if (req.options.backend != core::ExecBackend::kNative) {
    throw core::InvalidOptions("Engine::submit: sim-backend requests run through run()");
  }
  if (req.options.shard.num_devices > 1) {
    throw core::InvalidOptions("Engine::submit: sharded requests run through run()");
  }
  std::future<void> fut;
  {
    std::unique_lock lock(state_mutex_);
    start_workers_locked();
    if (admission == Admission::kReject) {
      if (stop_) throw ShuttingDown();
      // A pending group growth also refuses admission; it clears as soon as
      // the grower runs, so it maps to the same retryable error.
      if (queued_total_ >= max_queued_ || grow_waiters_ != 0) {
        throw QueueFull(max_queued_);
      }
    } else {
      space_cv_.wait(lock, [&] {
        return (queued_total_ < max_queued_ && grow_waiters_ == 0) || stop_;
      });
    }
    if (stop_) {
      // The destructor raced this submit; fail it cleanly (and typed) instead
      // of tripping a precondition -- the engine is already tearing down.
      throw ShuttingDown();
    }
    Job job;
    job.req = std::move(req);
    job.record = record;
    job.on_done = std::move(on_done);
    job.t_submit_ns = obs::now_ns();
    job.traced = obs::tracing_enabled();
    fut = job.done.get_future();
    const unsigned d = pick_device_locked(job.req);
    enqueue_locked(d, std::move(job));
    ++queued_total_;
    ++jobs_submitted_;
  }
  queue_cv_.notify_all();
  return fut;
}

int Engine::steal_victim_locked(unsigned d) const {
  int best = -1;
  std::size_t best_depth = 0;
  for (unsigned v = 0; v < rt_.size(); ++v) {
    if (v == d) continue;
    const std::size_t depth = rt_[v].queue.size();
    if (depth == 0) continue;
    // Steal backlog the victim cannot service promptly: its worker is mid-
    // execution, or it has more than one job waiting.
    if (rt_[v].active_now == 0 && depth < 2) continue;
    if (depth > best_depth) {
      best_depth = depth;
      best = static_cast<int>(v);
    }
  }
  return best;
}

std::vector<Engine::Job> Engine::take_group_locked(unsigned v) {
  DeviceRt& rt = rt_[v];
  std::vector<Job> group;
  group.push_back(std::move(rt.queue.front()));
  rt.queue.pop_front();
  if (max_batch_ > 1) {
    // Keep the head's whole batch-affinity group together (anywhere in the
    // queue, preserving the remainder's order) so same-plan fusion still
    // forms on the destination device.
    for (auto it = rt.queue.begin();
         it != rt.queue.end() && group.size() < max_batch_;) {
      if (batch_compatible(group.front().req, it->req)) {
        group.push_back(std::move(*it));
        it = rt.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  return group;
}

void Engine::worker_loop(unsigned d, DeviceRt* rt) {
  for (;;) {
    std::vector<Job> batch;
    {
      std::unique_lock lock(state_mutex_);
      int victim = -1;
      queue_cv_.wait(lock, [&] {
        if (!rt->queue.empty()) return true;
        victim = steal_victim_locked(d);
        return victim >= 0 || stop_;
      });
      if (!rt->queue.empty()) {
        batch = take_group_locked(d);
      } else if (victim >= 0) {
        batch = take_group_locked(static_cast<unsigned>(victim));
        ++steals_;
      } else {
        return;  // stop requested and queue drained
      }
      queued_total_ -= batch.size();
      active_jobs_ += batch.size();
      rt->active_now = batch.size();
      if (batch.size() > 1) {
        jobs_batched_ += batch.size();
        ++batches_formed_;
      }
    }
    space_cv_.notify_all();
    // Queue-wait spans, one per job, measured submit -> dequeue (emitted
    // after the fact since the interval is only known now).
    const std::uint64_t t_dequeue_ns = obs::now_ns();
    for (const Job& j : batch) {
      if (j.traced) {
        obs::emit_span("engine.queue", j.req.trace_id, j.t_submit_ns, "device", d);
      }
    }

    Timer timer;
    std::exception_ptr err;
    try {
      std::lock_guard exec(rt->exec_mutex);
      std::vector<const OpRequest*> reqs;
      reqs.reserve(batch.size());
      for (const Job& j : batch) reqs.push_back(&j.req);
      const obs::ScopedTraceId obs_id(batch.front().req.trace_id);
      exec_batch(d, *rt, std::span<const OpRequest* const>(reqs.data(), reqs.size()));
    } catch (...) {
      err = std::current_exception();
    }
    const double seconds = timer.seconds();
    // A fused batch is one pass over the non-zeros; each job's exec_s is its
    // amortised share so per-job sums stay comparable with solo execution.
    const double share = seconds / static_cast<double>(batch.size());
    for (std::size_t j = 0; j < batch.size(); ++j) exec_latency_us_.record(share * 1e6);
    {
      std::lock_guard lock(state_mutex_);
      active_jobs_ -= batch.size();
      rt->active_now = 0;
      rt->jobs += batch.size();
      rt->busy_s += seconds;
      jobs_completed_ += batch.size();
      if (active_jobs_ == 0 && queued_total_ == 0) idle_cv_.notify_all();
    }
    for (Job& job : batch) {
      if (job.record != nullptr) {
        // Written before the promise resolves: future.get() orders the read.
        job.record->device = static_cast<int>(d);
        job.record->exec_s = share;
        job.record->wait_s =
            static_cast<double>(t_dequeue_ns - job.t_submit_ns) * 1e-9;
      }
      // The ONE completion call site: every admitted job resolves here, and
      // ~Engine lets workers drain their queues first. The callback runs
      // before the promise resolves, so a ready future implies it returned.
      if (job.on_done) job.on_done();
      if (err) {
        job.done.set_exception(err);
      } else {
        job.done.set_value();
      }
    }
  }
}

EngineStats Engine::stats() const {
  std::lock_guard lock(state_mutex_);
  EngineStats s;
  for (unsigned d = 0; d < group_->size(); ++d) {
    EngineStats::DeviceStats ds;
    ds.ordinal = group_->device(d).ordinal();
    ds.cache = group_->cache(d).stats();
    if (d < rt_.size()) {
      ds.jobs = rt_[d].jobs;
      ds.busy_s = rt_[d].busy_s;
      ds.queued = rt_[d].queue.size();
      ds.active = rt_[d].active_now;
    }
    accumulate_cache_stats(s.cache_total, ds.cache);
    s.devices.push_back(ds);
  }
  s.jobs_submitted = jobs_submitted_;
  s.jobs_completed = jobs_completed_;
  s.jobs_queued = queued_total_;
  s.jobs_active = active_jobs_;
  s.jobs_batched = jobs_batched_;
  s.batches_formed = batches_formed_;
  s.steals = steals_;
  s.exec_latency_us = exec_latency_us_.snapshot();
  return s;
}

std::string Engine::dump_trace(std::size_t max_events) {
  return obs::chrome_trace_json(max_events);
}

}  // namespace ust::engine
