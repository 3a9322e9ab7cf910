// Streaming executor (DESIGN.md §9): drives an F-COO tensor through the
// native unified kernel in bounded-memory chunks instead of one monolithic
// UnifiedPlan -- the paper's "tensors larger than GPU memory" partitioning
// (Section IV-D) realised as a producer/consumer pipeline:
//
//   producer thread:  slices chunk k+1's F-COO arrays out of the host view
//                     and uploads them into fresh device buffers (the plan
//                     build), publishing finished ChunkPlans into a bounded
//                     queue of max_in_flight entries;
//   consumer (caller): pops plans in order, runs the native phase-1
//                     loop (native::run_phase1) over the chunk, then folds
//                     the chunk's boundary partials into the global carry
//                     (the same serial left-to-right handoff single-shot
//                     native uses) and releases the chunk's device memory.
//
// Because stream chunks are whole runs of the native worker grid (see
// chunker.hpp) and the carry handoff is the identical left-to-right fold,
// the streamed result is bitwise identical to a single-shot native run with
// the same UnifiedOptions::chunk_nnz -- enforced by
// tests/streaming_equivalence_test.cpp across all four operations.
//
// The sharded executor (src/shard/) reuses ChunkPlan / build_chunk_plan for
// whole-shard plans and ChunkPlanStream (explicit-chunk constructor) for
// shards that themselves stream.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/native_exec.hpp"
#include "core/unified_kernel.hpp"
#include "pipeline/chunker.hpp"
#include "sim/device.hpp"
#include "tensor/fcoo.hpp"

namespace ust::pipeline {

/// Device-resident plan for one stream chunk (or one whole shard). All
/// arrays are chunk-local: non-zero x of the chunk is global non-zero
/// spec.lo + x, segment s is global segment spec.first_seg + s. seg_row
/// holds output rows relative to `row_base`: 0 for the streaming executor
/// (global rows; kernels write the shared output buffer directly), the
/// shard's first output row for the sharded executor (kernels write a
/// range-sized device-local buffer).
struct ChunkPlan {
  StreamChunk spec;
  nnz_t total_nnz = 0;      // global non-zero count (for tail detection)
  index_t row_base = 0;     // subtracted from every seg_row entry
  unsigned threadlen = 8;
  sim::DeviceBuffer<std::uint64_t> bf_words;  // head flags [lo, min(hi+1, nnz))
  sim::DeviceBuffer<value_t> vals;            // [lo, hi)
  std::vector<sim::DeviceBuffer<index_t>> pidx;  // per product mode, [lo, hi)
  sim::DeviceBuffer<index_t> thread_first_seg;   // local partition -> local seg
  sim::DeviceBuffer<index_t> seg_row;            // local seg -> global output row

  /// Chunk-local kernel view. `nnz` is rebased to (total_nnz - lo) so the
  /// worker loop's "does the tensor end here" test keeps working with local
  /// coordinates; only positions in [0, hi - lo] are ever dereferenced.
  core::FcooView view() const;

  const index_t* product_indices(std::size_t p) const { return pidx[p].data(); }

  std::size_t device_bytes() const;
};

/// Slices + uploads the device-resident plan for `spec` out of `host` (whose
/// seg_row must be populated). Shared by the streaming producer and the
/// sharded executor so the slice convention can never diverge. A non-zero
/// `row_base` is subtracted from every seg_row entry (the sharded executor's
/// range-local output buffers); host.seg_row must be ascending over the
/// spec's segments for that to be valid, which every op's output convention
/// guarantees (sorted index-mode coordinates, or fiber ordinals).
std::unique_ptr<ChunkPlan> build_chunk_plan(sim::Device& device, const HostFcoo& host,
                                            const Partitioning& part,
                                            const StreamChunk& spec, index_t row_base = 0);

/// Bounded producer/consumer stream of ChunkPlans for one tensor. The
/// producer thread builds plans in chunk order, reserving a queue slot
/// before each build, so at most max_in_flight plans exist ahead of the
/// consumer (queued plus the one being built) -- device residency is
/// bounded by (max_in_flight + 1) chunk plans including the one being
/// consumed. next() pops them in order.
class ChunkPlanStream {
 public:
  /// Streams make_stream_chunks(host, part, opt): the single-shot native
  /// worker grid, grouped under opt.chunk_bytes.
  ChunkPlanStream(sim::Device& device, const HostFcoo& host, const Partitioning& part,
                  const core::StreamingOptions& opt);

  /// Streams a caller-supplied chunk list (the sharded executor's shard
  /// slices). Chunks must be contiguous, sorted, and annotated. `row_base`
  /// is forwarded to every build_chunk_plan call (the shard's first output
  /// row, so plans target the shard's range-local buffer).
  ChunkPlanStream(sim::Device& device, const HostFcoo& host, const Partitioning& part,
                  ChunkerResult chunks, unsigned max_in_flight, index_t row_base = 0);

  ~ChunkPlanStream();

  ChunkPlanStream(const ChunkPlanStream&) = delete;
  ChunkPlanStream& operator=(const ChunkPlanStream&) = delete;

  const ChunkerResult& chunks() const noexcept { return chunks_; }

  /// Blocking pop of the next chunk plan, in order; nullptr when the stream
  /// is exhausted. Rethrows any exception raised on the producer thread
  /// (e.g. sim::DeviceOutOfMemory from a chunk upload).
  std::unique_ptr<ChunkPlan> next();

 private:
  void producer_loop();

  sim::Device& device_;
  HostFcoo host_;
  Partitioning part_;
  ChunkerResult chunks_;
  unsigned max_in_flight_;
  index_t row_base_ = 0;

  /// Trace id snapshot from the CONSTRUCTING thread (the consumer, which
  /// carries the request's thread-local context): the producer thread has no
  /// context of its own, so its pipeline.build spans pin this id explicitly.
  std::uint64_t trace_id_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_space_;  // producer waits for queue space
  std::condition_variable cv_ready_;  // consumer waits for a plan
  std::deque<std::unique_ptr<ChunkPlan>> queue_;
  std::exception_ptr error_;
  bool produced_all_ = false;
  bool stop_ = false;
  std::thread producer_;  // started last, joined in the destructor
};

/// Executes one unified operation over `host` by streaming chunk plans.
/// `make_expr(plan)` must return the op's kernel expression built from the
/// chunk's device arrays (product_indices) plus whatever device-resident
/// factor data the caller staged; the output must be zero-initialised, as
/// for the other backends. Bitwise identical to
/// native::execute(..., chunker-resolved chunk_nnz, rank_block) on any
/// pool -- rank blocking is bitwise neutral, so the streamed/single-shot
/// identity holds for every (chunk_nnz, rank_block) pair.
template <class ExprFactory>
void stream_execute(sim::Device& device, const HostFcoo& host, const Partitioning& part,
                    const core::OutView& out, const core::StreamingOptions& opt,
                    const ExprFactory& make_expr, index_t rank_block = 0) {
  if (host.nnz == 0 || out.num_cols == 0) return;
  ChunkPlanStream stream(device, host, part, opt);

  const std::size_t cols = out.num_cols;
  const index_t width = static_cast<index_t>(cols);
  std::vector<std::size_t> pass_off;
  const std::vector<core::native::ColBlock> blocks = core::native::make_col_blocks(
      std::span<const index_t>(&width, 1), rank_block, pass_off);
  const std::span<const core::OutView> outs(&out, 1);
  std::vector<float> carry(cols, 0.0f);
  std::vector<float> tails;
  std::vector<float> head_partials;
  std::vector<core::native::ChunkState> states;

  while (std::unique_ptr<ChunkPlan> plan = stream.next()) {
    obs::Span obs_chunk("pipeline.chunk");
    obs_chunk.arg("nnz", static_cast<std::uint64_t>(plan->spec.hi - plan->spec.lo))
        .arg("chunk", static_cast<std::uint64_t>(plan->spec.lo));
    const std::vector<core::native::Chunk>& workers = plan->spec.workers;
    // One launch per streamed chunk keeps the device counters comparable
    // with single-shot accounting (blocks_executed still counts worker
    // chunks, so totals match across execution styles).
    device.note_kernel_launch(workers.size());
    tails.assign(workers.size() * cols, 0.0f);
    head_partials.assign(workers.size() * cols, 0.0f);
    states.assign(workers.size(), core::native::ChunkState{});

    const core::FcooView f = plan->view();
    const auto expr = make_expr(*plan);

    // Phase 1 (parallel): the single-shot run_phase1 over identical
    // non-zero ranges -- only the backing buffers differ.
    core::native::run_phase1(device.pool(), f, outs,
                             std::span<const decltype(expr)>(&expr, 1), blocks, pass_off, cols,
                             workers, tails.data(), head_partials.data(), states.data());

    // Phase 2 (serial): fold this chunk's boundary partials into the global
    // carry, left to right -- the single-shot handoff (the SAME
    // fold_boundaries native::execute runs), resumed across streamed chunks.
    // Rows come from the chunk's seg_row slice, which holds global output
    // rows for local segment ids.
    core::native::fold_boundaries(plan->seg_row.data(), states, tails.data(),
                                  head_partials.data(), cols, out, carry.data());
    // plan goes out of scope here: the chunk's device memory is released
    // before the next chunk is consumed (bounded residency).
  }
  // The final worker chunk always closes at nnz, so the carry has flushed.
}

}  // namespace ust::pipeline
