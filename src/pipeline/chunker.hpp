// Chunk plans (DESIGN.md §9): device-resident slices of one operation's
// F-COO arrays, cut on the native backend's worker-chunk grid (which is
// itself aligned to threadlen partition boundaries). The engine builds a
// whole-range chunk plan for every replica device, and the sharded executor
// (src/shard/) builds one per shard. Because a chunk is a whole run of
// worker chunks, executing it accumulates every segment in exactly the same
// grouping as a single-device native run -- the foundation of the replicas'
// and shards' bitwise-identity guarantee.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/native_exec.hpp"
#include "core/unified_kernel.hpp"
#include "core/unified_plan.hpp"
#include "sim/device.hpp"
#include "tensor/fcoo.hpp"

namespace ust::pipeline {

/// Host-side view of one operation's F-COO arrays: what the chunk plan
/// builder slices device-resident plans out of, taken from a UnifiedPlan
/// whose buffers are host-accessible on the simulator. `seg_row` carries the
/// global output row of every segment (the index-mode coordinate for
/// row-indexed outputs, the segment ordinal for SpTTM's fiber-ordered
/// output).
struct HostFcoo {
  std::span<const std::uint64_t> bf_words;       // packed head flags
  std::span<const value_t> vals;                 // [0, nnz)
  std::vector<std::span<const index_t>> pidx;    // per product mode, [0, nnz)
  std::span<const index_t> seg_row;              // [0, num_segments)
  nnz_t nnz = 0;
  nnz_t num_segments = 0;
};

/// View of a UnifiedPlan's device buffers (host-accessible on the sim).
HostFcoo host_view(const core::UnifiedPlan& plan);

/// A contiguous run of native worker chunks plus the segment metadata
/// needed to slice a chunk-local plan out of the tensor: the whole tensor
/// for a replica plan, one device's shard for the sharded executor.
struct StreamChunk {
  nnz_t lo = 0;         // global non-zero range [lo, hi); lo is a multiple
  nnz_t hi = 0;         // of threadlen (a worker-chunk boundary)
  nnz_t first_seg = 0;  // global id of the segment containing non-zero lo
  nnz_t num_segments = 0;  // segments intersecting [lo, hi)
  /// Worker ranges in chunk-local coordinates (lo subtracted) -- exactly the
  /// ranges a single-device native run would use for this span of non-zeros.
  std::vector<core::native::Chunk> workers;
};

/// Fills first_seg / num_segments on `chunks` (sorted, non-overlapping, and
/// ending at or before nnz) by popcounting the head flags a word at a time
/// from non-zero 0: O(chunks + nnz / 64), so the sharder can recompute it on
/// every call instead of caching it. An empty chunk (lo == hi) gets
/// num_segments 0 and the segment open at its lo (the last segment when
/// lo == nnz).
void annotate_segments(std::span<const std::uint64_t> bf_words, nnz_t nnz,
                       std::span<StreamChunk> chunks);

/// Repacks bits [lo, lo + count) of a packed little-endian word array into a
/// fresh word vector whose bit 0 is global bit `lo`. Used to slice the
/// chunk-local head-flag words out of the tensor's bit-flag array.
std::vector<std::uint64_t> slice_bits(std::span<const std::uint64_t> words, nnz_t lo,
                                      nnz_t count);

/// Device-resident plan for one chunk (a whole-range replica or one shard).
/// All arrays are chunk-local: non-zero x of the chunk is global non-zero
/// spec.lo + x, segment s is global segment spec.first_seg + s. seg_row
/// holds output rows relative to `row_base`: 0 for a replica plan (global
/// rows), the shard's first output row for the sharded executor (kernels
/// write a range-sized device-local buffer).
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

/// Slices + uploads the device-resident plan for `spec` out of `host`.
/// Shared by the engine's replica plans and the sharded executor so the
/// slice convention can never diverge. A non-zero `row_base` is subtracted
/// from every seg_row entry (the sharded executor's range-local output
/// buffers); host.seg_row must be ascending over the spec's segments for
/// that to be valid, which every op's output convention guarantees (sorted
/// index-mode coordinates, or fiber ordinals).
std::unique_ptr<ChunkPlan> build_chunk_plan(sim::Device& device, const HostFcoo& host,
                                            const Partitioning& part,
                                            const StreamChunk& spec, index_t row_base = 0);

}  // namespace ust::pipeline
