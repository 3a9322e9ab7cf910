// Chunker for the streaming pipeline (DESIGN.md §9): partitions an F-COO
// tensor's non-zeros into bounded-memory stream chunks whose boundaries lie
// on the native backend's worker-chunk grid (which is itself aligned to
// threadlen partition boundaries, and through nnz_per_block to block
// boundaries). Because the worker grid is a function of nnz, threadlen and
// chunk_nnz (native::make_chunks) and stream chunks are whole runs of worker
// chunks, chunked execution accumulates every segment in exactly the same
// grouping as a single-shot native run on any pool -- the foundation of the
// pipeline's bitwise-identity guarantee. The sharded executor (src/shard/)
// slices the same grid along a second axis (devices instead of time) and
// reuses the grouping/annotation helpers below.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/native_exec.hpp"
#include "core/unified_kernel.hpp"
#include "core/unified_plan.hpp"
#include "tensor/fcoo.hpp"

namespace ust::pipeline {

/// Host-side view of one operation's F-COO arrays: what the chunk/shard plan
/// builders slice device-resident plans out of. Two producers: an op that
/// kept the host FcooTensor (streaming/sharding path) and a UnifiedPlan
/// whose buffers are host-accessible on the simulator. `seg_row` carries the
/// global output row of every segment (the index-mode coordinate for
/// row-indexed outputs, the segment ordinal for SpTTM's fiber-ordered
/// output); it may be empty when only chunk geometry is needed.
struct HostFcoo {
  std::span<const std::uint64_t> bf_words;       // packed head flags
  std::span<const value_t> vals;                 // [0, nnz)
  std::vector<std::span<const index_t>> pidx;    // per product mode, [0, nnz)
  std::span<const index_t> seg_row;              // [0, num_segments)
  nnz_t nnz = 0;
  nnz_t num_segments = 0;
};

/// View of a host FcooTensor. `seg_row` follows the operation's output
/// convention: pass fcoo.segment_coords(0) for single-index-mode ops, or an
/// ordinal iota (caller-owned storage) for SpTTM.
HostFcoo host_view(const FcooTensor& fcoo, std::span<const index_t> seg_row);

/// View of a UnifiedPlan's device buffers (host-accessible on the sim).
HostFcoo host_view(const core::UnifiedPlan& plan);

/// Device bytes a chunk plan holds per non-zero: one index_t per product
/// mode, the value, and the head-flag bit (thread_first_seg / seg_row are
/// charged separately as they scale with partitions / segments).
std::size_t plan_bytes_per_nnz(std::size_t num_product_modes);

/// One streamed chunk: a contiguous run of native worker chunks plus the
/// segment metadata needed to slice a chunk-local plan out of the tensor.
/// The sharded executor reuses this shape for whole shards (a shard is a
/// stream chunk assigned to a device instead of a point in time).
struct StreamChunk {
  nnz_t lo = 0;         // global non-zero range [lo, hi); lo is a multiple
  nnz_t hi = 0;         // of threadlen (a worker-chunk boundary)
  nnz_t first_seg = 0;  // global id of the segment containing non-zero lo
  nnz_t num_segments = 0;  // segments intersecting [lo, hi)
  /// Worker ranges in chunk-local coordinates (lo subtracted) -- exactly the
  /// ranges a single-shot native run would use for this span of non-zeros.
  std::vector<core::native::Chunk> workers;
  std::size_t est_device_bytes = 0;  // estimated resident plan size
};

struct ChunkerResult {
  /// The worker-chunk cap the grid was built with (resolved from
  /// StreamingOptions::chunk_nnz or chunk_bytes). Run single-shot native
  /// with UnifiedOptions::chunk_nnz set to this value to reproduce the
  /// streamed result bit for bit.
  nnz_t chunk_nnz = 0;
  std::vector<StreamChunk> chunks;  // empty for an empty tensor
};

/// Resolves the worker-chunk cap: an explicit StreamingOptions::chunk_nnz is
/// used as-is (validated to be a multiple of threadlen); otherwise the cap
/// is derived from chunk_bytes / plan_bytes_per_nnz, rounded down to a
/// threadlen multiple (at least one partition). Returns 0 when neither
/// bound is set (monolithic worker grid).
nnz_t resolve_chunk_nnz(nnz_t nnz, std::size_t num_product_modes,
                        const Partitioning& part, const core::StreamingOptions& opt);

/// Groups consecutive worker chunks of `grid` (global coordinates) until
/// `chunk_bytes` is reached (at least one worker chunk per stream chunk, so
/// the budget is soft; chunk_bytes == 0 means one worker chunk per stream
/// chunk). Segment metadata is NOT filled; call annotate_segments.
std::vector<StreamChunk> group_worker_chunks(std::span<const core::native::Chunk> grid,
                                             std::size_t chunk_bytes, std::size_t per_nnz);

/// Fills first_seg / num_segments on `chunks` (sorted, non-overlapping, and
/// ending at or before nnz) by popcounting the head flags a word at a time
/// from chunks.front().lo: O(chunks + span / 64), so the stream chunker and
/// the sharder can recompute it on every call instead of caching it.
/// `first_seg_at_lo` is the global id of the segment open at that first
/// non-zero (0 for a pass over the whole tensor; the shard's first segment
/// for a shard-local pass). An empty chunk (lo == hi) gets num_segments 0 and
/// the segment open at its lo (the last segment when lo == nnz).
void annotate_segments(std::span<const std::uint64_t> bf_words, nnz_t nnz,
                       std::span<StreamChunk> chunks, nnz_t first_seg_at_lo = 0);

/// Builds the stream-chunk list for `host`: computes the native worker grid
/// (native::make_chunks with the resolved chunk_nnz), groups consecutive
/// worker chunks until `opt.chunk_bytes` is reached, and annotates each
/// chunk with its first global segment id and segment count.
ChunkerResult make_stream_chunks(const HostFcoo& host, const Partitioning& part,
                                 const core::StreamingOptions& opt);

/// Convenience overload over a host FcooTensor (seg_row not needed for
/// chunk geometry).
ChunkerResult make_stream_chunks(const FcooTensor& fcoo, const Partitioning& part,
                                 const core::StreamingOptions& opt);

/// Repacks bits [lo, lo + count) of a packed little-endian word array into a
/// fresh word vector whose bit 0 is global bit `lo`. Used to slice the
/// chunk-local head-flag words out of the tensor's bit-flag array.
std::vector<std::uint64_t> slice_bits(std::span<const std::uint64_t> words, nnz_t lo,
                                      nnz_t count);

}  // namespace ust::pipeline
