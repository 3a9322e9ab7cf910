// Sharder for multi-device execution (DESIGN.md §10): splits the native
// backend's deterministic worker grid into one contiguous run of whole
// worker chunks per device. Because shard boundaries are a subset of the
// single-device grid, every worker chunk accumulates exactly as it would
// single-device, and the cross-shard merge can replay the identical
// left-to-right carry fold. Shard boundaries are chosen by a balance policy:
// raw non-zeros (the obvious split) or segment count (which prices the
// per-segment commit work nnz-splitting cannot see; cf. Nisa et al.,
// "Load-Balanced Sparse MTTKRP on GPUs", and Wijeratne et al., "Sparse
// MTTKRP Acceleration for Tensor Decomposition on GPU").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/native_exec.hpp"
#include "core/unified_kernel.hpp"
#include "pipeline/chunker.hpp"

namespace ust::shard {

struct ShardingResult {
  nnz_t total_nnz = 0;
  std::size_t grid_chunks = 0;  // size of the global single-device worker grid
  /// Exactly num_devices entries, in device order, covering [0, nnz)
  /// contiguously. A shard may be empty (lo == hi, no workers) when there
  /// are more devices than worker chunks or when one chunk carries most of
  /// the balance weight. workers are shard-local (lo subtracted).
  std::vector<pipeline::StreamChunk> shards;
};

/// Splits the worker grid make_chunks(nnz, threadlen, chunk_nnz) into
/// opt.num_devices contiguous shards. Device d receives grid chunks
/// [cut_d, cut_{d+1}) where cut_d is the smallest prefix whose cumulative
/// balance weight reaches d/num_devices of the total -- a function of
/// (nnz, threadlen, chunk_nnz, balance, num_devices) and of no pool width,
/// which the bitwise-equivalence guarantee rests on. Weights: kNnz charges a
/// chunk its non-zero count; kSegments charges it the number of segments
/// that *start* inside it (head-flag popcount), so segment-heavy regions get
/// fewer non-zeros per shard.
ShardingResult make_shards(nnz_t nnz, std::span<const std::uint64_t> bf_words,
                           unsigned threadlen, nnz_t chunk_nnz,
                           const core::ShardOptions& opt);

}  // namespace ust::shard
