// Multi-device sharded executor (DESIGN.md §10). Splits one unified
// operation across a group of simulated devices: the sharder assigns each
// device a contiguous run of the single-device worker grid, each device runs
// the native phase-1 loop (native::run_phase1) over its own sliced plan
// (and its own worker pool) into its own output buffer, and the merge
// replays the single-device reduction exactly:
//
//   1. per-device outputs are summed into the final buffer -- interior
//      segments are committed by exactly one device (seg_row is injective and
//      a segment wholly inside one worker chunk lives on one shard), so this
//      is a disjoint-row merge and bitwise exact;
//   2. every shard's per-worker-chunk boundary partials (tails, head
//      partials, chunk states -- segment ids rebased to global) are
//      concatenated in grid order and folded by ONE call to
//      native::fold_boundaries with the global seg_row -- the identical
//      left-to-right carry handoff a single-device run performs, so
//      cross-shard segments receive the same additions in the same order.
//
// Hence sharded execution is bitwise identical to single-device native with
// the same UnifiedOptions::chunk_nnz (tests/shard_equivalence_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "core/native_exec.hpp"
#include "core/unified_kernel.hpp"
#include "pipeline/chunker.hpp"
#include "pipeline/plan_cache.hpp"
#include "shard/sharder.hpp"
#include "sim/device.hpp"
#include "util/timer.hpp"

namespace ust::shard {

/// The simulated device group the engine shards (and distributes jobs) over.
/// Device 0 is the caller's primary device; devices 1..N-1 are owned replicas
/// of its properties, each with its own worker pool (as wide as the
/// primary's, for speed only: the worker grid never reads a pool's width, so
/// results are identical on every device) and its own byte-budgeted PlanCache
/// of shard-sliced and whole-range replica plans (repeat runs -- CP-ALS
/// iterations -- skip the slice + upload). Owned by ust::engine::Engine since
/// the engine-layer refactor; the group can grow() but never shrinks, so
/// cached plans and outstanding device references survive growth.
class DeviceGroup {
 public:
  explicit DeviceGroup(sim::Device& primary, unsigned num_devices,
                       std::size_t cache_bytes_per_device = 256u << 20);
  ~DeviceGroup();

  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(extras_.size()) + 1; }
  sim::Device& device(unsigned d);
  pipeline::PlanCache& cache(unsigned d);

  /// Appends replica devices (with pools and caches) until size() >= n.
  /// Existing devices, caches and references into them are untouched. The
  /// caller (the engine) must exclude concurrent readers during growth.
  void grow(unsigned n);

 private:
  sim::Device* primary_;
  std::size_t cache_bytes_per_device_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;      // one per extra device
  std::vector<std::unique_ptr<sim::Device>> extras_;    // ordinals 1..N-1
  // Declared last: caches hold DeviceBuffers on the devices above, so they
  // must be destroyed first.
  std::vector<std::unique_ptr<pipeline::PlanCache>> caches_;  // one per device
};

/// Per-device execution record for one sharded run.
struct DeviceReport {
  int ordinal = 0;
  nnz_t nnz = 0;            // non-zeros assigned to this device
  nnz_t segments = 0;       // segments intersecting the shard
  std::size_t chunks = 0;   // worker chunks executed
  double plan_s = 0.0;      // shard plan acquisition (≈0 on a cache hit)
  double exec_s = 0.0;      // phase-1 worker loops on this device
  /// Merging this device's range-local output rows into the final buffer.
  double merge_s = 0.0;
};

/// Report of one sharded run, in wall-clock seconds per step.
struct Report {
  std::vector<DeviceReport> devices;
  double fold_s = 0.0;      // serial cross-shard boundary fold
};

/// Cache-or-build acquisition of one shard's sliced plan on `dev` (keyed on
/// the tensor fingerprint, shard range, partitioning, op/mode and grid cap --
/// the group's caches are shared across ops and tensors since the engine
/// owns them, so the fingerprint is mandatory).
std::shared_ptr<const pipeline::ChunkPlan> acquire_shard_plan(
    pipeline::PlanCache& cache, sim::Device& dev, const pipeline::HostFcoo& host,
    const Partitioning& part, core::TensorOp op, int mode, std::uint64_t tensor_fp,
    const pipeline::StreamChunk& shard, nnz_t chunk_nnz, index_t row_base);

/// Executes one unified operation over `host` sharded across the first
/// opt.shard.num_devices devices of `group` (which may be larger -- the
/// engine's group only grows). `make_expr(device, device_index, plan)` must
/// return the op's kernel expression bound to the plan's product-index arrays
/// and factor data the caller staged on `device` (it is called once per shard
/// plan, in device order, so per-device staging can be done lazily inside
/// it). `out` is the final output view on the PRIMARY device,
/// zero-initialised by the caller. `op`/`mode`/`tensor_fp` key the
/// per-device plan caches.
template <class ExprFactory>
void execute(DeviceGroup& group, const pipeline::HostFcoo& host, const Partitioning& part,
             const core::OutView& out, const core::UnifiedOptions& opt, core::TensorOp op,
             int mode, std::uint64_t tensor_fp, const ExprFactory& make_expr,
             Report* report = nullptr) {
  if (report != nullptr) *report = Report{};
  if (host.nnz == 0 || out.num_cols == 0) return;
  const std::size_t cols = out.num_cols;
  // The single-device grid for opt.chunk_nnz: a single-device run on any
  // device uses the identical grid.
  const ShardingResult sharding =
      make_shards(host.nnz, host.bf_words, part.threadlen, opt.chunk_nnz, opt.shard);
  UST_EXPECTS(group.size() >= sharding.shards.size());

  // Global boundary tiles, one slot per worker chunk of the global grid, in
  // grid order regardless of which device ran the chunk.
  std::vector<core::native::ChunkState> states(sharding.grid_chunks);
  std::vector<float> tails(sharding.grid_chunks * cols, 0.0f);
  std::vector<float> heads(sharding.grid_chunks * cols, 0.0f);

  // Rank-block pass structure, shared by every shard (bitwise neutral; see
  // native::make_col_blocks).
  const index_t width = static_cast<index_t>(cols);
  std::vector<std::size_t> pass_off;
  const std::vector<core::native::ColBlock> blocks = core::native::make_col_blocks(
      std::span<const index_t>(&width, 1), opt.rank_block, pass_off);

  std::size_t grid_offset = 0;  // global worker-chunk index of the next shard
  for (unsigned d = 0; d < sharding.shards.size(); ++d) {
    const pipeline::StreamChunk& shard = sharding.shards[d];
    sim::Device& sdev = group.device(d);
    // Per-shard span (DESIGN.md §14): covers plan acquisition,
    // execution and the range merge for this device.
    obs::Span obs_shard("shard.device");
    obs_shard.arg("device", d).arg("nnz",
                                   static_cast<std::uint64_t>(shard.hi - shard.lo));
    DeviceReport dr;
    dr.ordinal = sdev.ordinal();
    dr.nnz = shard.hi - shard.lo;
    dr.segments = shard.num_segments;
    dr.chunks = shard.workers.size();
    if (shard.workers.empty()) {
      if (report != nullptr) report->devices.push_back(dr);
      continue;
    }

    // Per-device output buffer covering only the shard's row range: seg_row
    // is ascending in segment order (sorted index-mode coordinates, or fiber
    // ordinals), so every interior commit of this shard lands in
    // [row_lo, row_hi]. Shard plans rebase seg_row to row_lo, and the merge
    // below touches only this range -- the total merge traffic across
    // devices stays ~one output pass regardless of the device count. Rows
    // touched are disjoint across devices (each segment closes on exactly
    // one); device allocation zero-fills, as kernels expect.
    const index_t row_lo = host.seg_row[shard.first_seg];
    const index_t row_hi = host.seg_row[shard.first_seg + shard.num_segments - 1];
    const std::size_t range_elems =
        static_cast<std::size_t>(row_hi - row_lo + 1) * out.ld;
    sim::DeviceBuffer<value_t> local = sdev.alloc<value_t>(range_elems);
    const core::OutView lout{local.data(), out.ld, out.num_cols};

    Timer plan_timer;
    const std::shared_ptr<const pipeline::ChunkPlan> plan = acquire_shard_plan(
        group.cache(d), sdev, host, part, op, mode, tensor_fp, shard, opt.chunk_nnz, row_lo);
    dr.plan_s = plan_timer.seconds();

    Timer exec_timer;
    // One launch per shard plan; blocks_executed counts worker chunks, so
    // group-wide totals match a single-device run.
    sdev.note_kernel_launch(plan->spec.workers.size());
    const auto expr = make_expr(sdev, d, *plan);
    const std::vector<core::native::Chunk>& workers = plan->spec.workers;
    // This shard's worker chunks are consecutive in the global grid starting
    // at grid_offset; write boundary tiles straight into the global slots.
    const std::size_t base = grid_offset;
    const std::span<const core::OutView> louts(&lout, 1);
    core::native::run_phase1(sdev.pool(), plan->view(), louts,
                             std::span<const decltype(expr)>(&expr, 1), blocks, pass_off, cols,
                             workers, &tails[base * cols], &heads[base * cols], &states[base]);
    // Rebase the shard-local segment ids to global for the final fold.
    const index_t seg_base = static_cast<index_t>(plan->spec.first_seg);
    for (std::size_t k = 0; k < workers.size(); ++k) {
      states[base + k].first_seg += seg_base;
      states[base + k].tail_seg += seg_base;
    }
    grid_offset += workers.size();
    dr.exec_s = exec_timer.seconds();

    // Disjoint-row range merge into the final output. Adding the untouched
    // rows' +0.0f entries is bitwise neutral, so the merged value of every
    // row equals the single-device one exactly.
    Timer merge_timer;
    const value_t* UST_RESTRICT src = local.data();
    value_t* UST_RESTRICT dst = out.data + static_cast<std::size_t>(row_lo) * out.ld;
    for (std::size_t i = 0; i < range_elems; ++i) dst[i] += src[i];
    dr.merge_s = merge_timer.seconds();
    if (report != nullptr) report->devices.push_back(dr);
  }
  UST_ENSURES(grid_offset == sharding.grid_chunks);

  // Cross-shard carry merge: ONE left-to-right fold over every worker
  // chunk's boundary state, in grid order, with the global seg_row -- the
  // exact pass a single-device run ends with, so segments spanning shard
  // boundaries get bitwise-identical closing writes. This is the only
  // genuinely serial tail of a sharded run (O(worker chunks x cols)).
  Timer fold_timer;
  obs::Span obs_fold("shard.fold");
  obs_fold.arg("chunks", sharding.grid_chunks);
  std::vector<float> carry(cols, 0.0f);
  core::native::fold_boundaries(host.seg_row.data(), states, tails.data(), heads.data(),
                                cols, out, carry.data());
  if (report != nullptr) report->fold_s = fold_timer.seconds();
}

}  // namespace ust::shard
