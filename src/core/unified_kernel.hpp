// The unified parallel kernel skeleton (Section IV-D of the paper).
//
// All three sparse tensor operations (SpTTM, SpMTTKRP, SpTTMc) execute the
// SAME block program; they differ only in the per-non-zero product expression
// (a matrix-row gather for SpTTM, a Hadamard product of rows for SpMTTKRP, a
// Kronecker product of rows for SpTTMc) -- this is the paper's central
// unification claim, expressed here as a C++ template parameter.
//
// Launch geometry (paper Figure 4): a 2-D grid of 1-D thread blocks.
//   blockIdx.x -> a partition of BLOCK_SIZE * threadlen non-zeros
//   blockIdx.y -> a tile of dense-factor columns (the rank dimension)
// Because block shape never depends on the rank, performance is insensitive
// to rank changes (the Figure 8 experiment).
//
// Reduction (the paper's "enabling segmented scan"):
//   1. Each thread walks its `threadlen` non-zeros, accumulating a running
//      sum that restarts at every bit-flag head. Segments that both start
//      and end inside the thread are written directly -- conflict-free.
//   2. The per-thread trailing partial sums are combined with a block-wide
//      segmented scan built from warp-level (shuffle-style) segmented scans
//      plus a warp-carry scan, exactly the Sengupta et al. construction.
//   3. Only segments that cross a block boundary are committed with atomic
//      adds -- at most one per block edge -- which is how the method avoids
//      the atomic-per-non-zero cost of COO baselines (kAllAtomic reproduces
//      that cost for the ablation study).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "sim/collectives.hpp"
#include "sim/executor.hpp"
#include "tensor/fcoo.hpp"
#include "util/common.hpp"

namespace ust::core {

/// Reduction strategy; kSegmentedScan is the paper's method, kAdjacentSync
/// is its fully fused form (Section IV-D's "adjacent synchronization is used
/// to perform inter-block communication and to fuse the kernels"), and the
/// atomics variants are ablation baselines (see bench/bench_ablation.cpp).
enum class ReduceStrategy {
  kSegmentedScan,  // warp/block segmented scan, atomics only at block edges
  kAdjacentSync,   // segmented scan + StreamScan carry chain: zero atomics
  kThreadAtomic,   // per-thread boundary partials committed atomically
  kAllAtomic       // one atomic per non-zero (COO-style; no local reuse)
};

/// Which engine executes the unified plan (DESIGN.md §8). kSim runs the
/// paper-faithful GPU execution-model simulator (blocks, warps, segmented
/// scans -- the fidelity/ablation oracle, where ReduceStrategy matters).
/// kNative runs the same FcooView metadata as one tight loop per thread-pool
/// worker with a single carry handoff per worker boundary (the kAdjacentSync
/// dataflow, zero atomics); ReduceStrategy and column_tile are ignored
/// there. Both backends agree within float tolerance
/// (tests/backend_equivalence_test.cpp).
enum class ExecBackend {
  kSim,     // GPU execution-model simulator (src/sim/)
  kNative   // direct thread-pool execution (src/core/native_exec.hpp)
};

/// How the sharder balances work across devices (DESIGN.md §10). Raw
/// nnz-splitting is the obvious policy but mis-sizes shards when segment
/// lengths are skewed (the per-segment commit cost is invisible to it);
/// balancing by segment count recovers the imbalance for commit-heavy
/// tensors, per Nisa et al. (load-balanced MTTKRP) and Wijeratne et al.
/// (mode-aware remapping).
enum class ShardBalance {
  kNnz,       // equalise non-zeros per shard
  kSegments   // equalise segment count per shard
};

/// Multi-device sharding of one unified operation (src/shard/). num_devices
/// == 1 means single-device execution (the default); > 1 splits the native
/// worker grid into per-device shards whose results are merged bitwise
/// identically to a single-device run (native backend only).
struct ShardOptions {
  unsigned num_devices = 1;
  ShardBalance balance = ShardBalance::kSegments;
};

/// Execution options for a unified kernel run. The partitioning itself
/// (threadlen, block size) is a property of the UnifiedPlan, because the
/// per-partition metadata is precomputed for it.
///
/// column_tile is the number of rank columns each block computes per pass
/// over its non-zeros. The paper's CUDA layout is tile = 1 (grid.y = R, one
/// column per block) -- on a real GPU the R column-blocks run concurrently
/// on different SMs, so re-reading the tensor per column is hidden by the
/// memory hierarchy. On the CPU-backed simulator that re-read is paid in
/// full, so the default (0) auto-selects the widest tile that fits shared
/// memory while keeping enough blocks to occupy the worker pool; set 1 to
/// reproduce the paper's layout (see bench_ablation).
struct UnifiedOptions {
  ReduceStrategy strategy = ReduceStrategy::kSegmentedScan;
  unsigned column_tile = 0;  // 0 = auto; 1 = paper layout; n = fixed tile
  ExecBackend backend = ExecBackend::kNative;  // sim path is the oracle
  /// Native backend only: caps the worker-chunk size (in non-zeros) of the
  /// accumulation grid. 0 = auto (16 chunks whatever the pool width; see
  /// native::make_chunks); non-zero values must be a multiple of the
  /// plan's threadlen (see core::validate). The
  /// streaming pipeline shares this grid, which is what makes chunked
  /// execution bitwise identical to single-shot native; the auto-tuner
  /// sweeps it as a fourth grid axis (core::tune_backends).
  nnz_t chunk_nnz = 0;
  /// Native backend only: caps the accumulator-tile width (output columns)
  /// one pass over a chunk's non-zeros accumulates, so wide outputs
  /// (SpTTMc's r0*r1 columns, large-rank MTTKRP) tile through L1 instead of
  /// thrashing the per-chunk tile. 0 = auto (native::kAutoRankBlock). Any
  /// value is bitwise neutral -- columns are independent, so blocking never
  /// changes a column's per-non-zero operation order -- which is why the
  /// auto-tuner can sweep it freely as a sixth grid axis.
  index_t rank_block = 0;
  /// Multi-device sharding (native backend only; see src/shard/ and
  /// DESIGN.md §10). The tuner sweeps num_devices as a fifth grid axis.
  ShardOptions shard = {};
};

/// Options for the streaming pipeline (src/pipeline/): partitions the F-COO
/// non-zeros into bounded-memory chunks and drives them through a
/// double-buffered plan-build/execute pipeline instead of uploading one
/// monolithic UnifiedPlan (DESIGN.md §9). Native backend only.
struct StreamingOptions {
  bool enabled = false;
  /// Device-byte budget per resident chunk plan. Consecutive worker chunks
  /// are grouped until the budget is reached (always at least one worker
  /// chunk per streamed chunk, so this is a soft bound). 0 = no grouping:
  /// every worker chunk becomes its own streamed chunk.
  std::size_t chunk_bytes = 64u << 20;
  /// Worker-chunk cap in non-zeros, the streaming analogue of
  /// UnifiedOptions::chunk_nnz (must be a multiple of threadlen when
  /// non-zero). 0 = derive from chunk_bytes. Run streaming and single-shot
  /// with the same resolved value and the results are bitwise identical.
  nnz_t chunk_nnz = 0;
  /// Chunk plans buffered ahead of execution (>= 1); 2 = classic double
  /// buffering: the plan for chunk k+1 is built/uploaded while chunk k runs.
  unsigned max_in_flight = 2;
};

/// Thrown by core::validate for malformed launch/streaming options.
class InvalidOptions : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Central option validation used by all four unified ops (and UnifiedPlan):
/// rejects threadlen == 0, block_size == 0, a chunk_nnz that is not a
/// multiple of threadlen, streaming on the sim backend, max_in_flight == 0,
/// shard.num_devices == 0, and sharding on the sim backend. Throws
/// InvalidOptions.
void validate(const Partitioning& part);
void validate(const Partitioning& part, const UnifiedOptions& opt);
void validate(const Partitioning& part, const UnifiedOptions& opt,
              const StreamingOptions& stream);

/// Raw device-side view of an F-COO tensor plus partition metadata, passed
/// by value into kernels (pointers reference DeviceBuffer storage owned by a
/// UnifiedPlan).
struct FcooView {
  const std::uint64_t* bf_words = nullptr;  // packed head flags
  const value_t* vals = nullptr;
  const index_t* thread_first_seg = nullptr;  // segment id of each partition's first nnz
  const index_t* seg_row = nullptr;           // output row of each segment
  nnz_t nnz = 0;
  nnz_t num_segments = 0;
  unsigned threadlen = 8;  // non-zeros per thread (partitioning)

  bool head(nnz_t x) const { return (bf_words[x >> 6] >> (x & 63)) & 1ull; }
};

/// Output view: row-major matrix out[row * ld + col].
struct OutView {
  value_t* data = nullptr;
  index_t ld = 0;        // leading dimension (number of output columns)
  index_t num_cols = 0;  // total columns of this operation
};

namespace detail {

/// Block-wide inclusive segmented scan over per-thread trailing partials.
/// `vals`/`flags` are lane arrays of size block_dim; flags are head flags and
/// are replaced by propagated flags ("run ending at this lane contains a
/// head inside the block"). Built hierarchically from warp-level scans so the
/// dataflow matches the shuffle implementation on a real GPU.
inline void block_segmented_scan(std::span<float> vals, std::span<std::uint8_t> flags,
                                 std::span<float> warp_carry,
                                 std::span<std::uint8_t> warp_flag) {
  const std::size_t n = vals.size();
  UST_EXPECTS(flags.size() == n);
  const std::size_t nwarps = ceil_div<std::size_t>(n, sim::kWarpSize);
  UST_EXPECTS(warp_carry.size() >= nwarps && warp_flag.size() >= nwarps);

  for (std::size_t w = 0; w < nwarps; ++w) {
    const std::size_t lo = w * sim::kWarpSize;
    const std::size_t len = std::min<std::size_t>(sim::kWarpSize, n - lo);
    sim::warp_segmented_scan_add(vals.subspan(lo, len), flags.subspan(lo, len));
    warp_carry[w] = vals[lo + len - 1];
    warp_flag[w] = flags[lo + len - 1];
  }
  if (nwarps > 1) {
    // Scan the warp carries (at most 32 for block_dim <= 1024).
    sim::warp_segmented_scan_add(warp_carry.first(nwarps), warp_flag.first(nwarps));
    // Add the incoming carry to each warp's leading run (propagated flag 0).
    for (std::size_t w = 1; w < nwarps; ++w) {
      const float incoming = warp_carry[w - 1];
      const std::uint8_t incoming_flag = warp_flag[w - 1];
      const std::size_t lo = w * sim::kWarpSize;
      const std::size_t len = std::min<std::size_t>(sim::kWarpSize, n - lo);
      for (std::size_t l = 0; l < len; ++l) {
        if (flags[lo + l] == 0) {
          vals[lo + l] += incoming;
          flags[lo + l] = incoming_flag;
        }
      }
    }
  }
}

/// Per-lane state captured by the thread-local pass. Output rows are
/// resolved (via f.seg_row) once here, so the per-column commit loops of
/// phases 2-3 never re-read the segment tables.
struct LaneState {
  index_t head_row = 0;  // output row of the segment closed by the first head
  index_t tail_row = 0;  // output row of the segment open at partition end
  std::uint8_t has_head_partial = 0;
  std::uint8_t tail_closes = 0;  // partition end coincides with a segment end
  std::uint8_t active = 0;
};

}  // namespace detail

/// The unified block program. `Expr` is invocable as expr(x, col) -> float,
/// returning the product-mode contribution of non-zero x for output column
/// col (the value multiplier is applied by the kernel). The reduction
/// strategy is a template parameter so the per-non-zero inner loop carries
/// no strategy branches.
template <ReduceStrategy kStrategy, class Expr>
void unified_block_program_impl(sim::BlockCtx& blk, const FcooView& f, const OutView& out,
                                const UnifiedOptions& opt, const Expr& expr,
                                sim::CarryChain* chain = nullptr) {
  const unsigned block_dim = blk.block_dim();
  const unsigned threadlen = f.threadlen;
  const nnz_t block_base =
      static_cast<nnz_t>(blk.block_idx().x) * block_dim * threadlen;
  if (block_base >= f.nnz) return;

  const index_t col0 = static_cast<index_t>(blk.block_idx().y) * opt.column_tile;
  const index_t cols =
      std::min<index_t>(opt.column_tile, out.num_cols > col0 ? out.num_cols - col0 : 0);
  if (cols == 0) return;

  // Shared-memory lane arrays. tails/heads hold each thread's per-column
  // boundary partials in *thread-contiguous* layout ([t * cols + c]) so the
  // phase-1 commits write one cache-friendly tile per lane -- the same
  // accumulator shape the native backend uses. Phase 2 gathers one column's
  // lane values into scan_vals before each block scan.
  auto states = blk.shared_array<detail::LaneState>(block_dim);
  auto tails = blk.shared_array<float>(static_cast<std::size_t>(block_dim) * cols);
  auto heads = blk.shared_array<float>(static_cast<std::size_t>(block_dim) * cols);
  auto flags0 = blk.shared_array<std::uint8_t>(block_dim);
  auto flags = blk.shared_array<std::uint8_t>(block_dim);
  auto warp_carry = blk.shared_array<float>(blk.warp_count());
  auto warp_flag = blk.shared_array<std::uint8_t>(blk.warp_count());
  auto col_sum = blk.shared_array<float>(cols);  // running sums of one thread
  auto scan_vals = blk.shared_array<float>(block_dim);  // one column's lanes

  const nnz_t thread0 = block_base / threadlen;  // global index of lane 0's partition
  unsigned last_active = 0;

  // ---- Phase 1: thread-local pass ----------------------------------------
  for (unsigned t = 0; t < block_dim; ++t) {
    detail::LaneState st;
    const nnz_t s = block_base + static_cast<nnz_t>(t) * threadlen;
    float* tail_tile = &tails[static_cast<std::size_t>(t) * cols];
    float* head_tile = &heads[static_cast<std::size_t>(t) * cols];
    std::fill(tail_tile, tail_tile + cols, 0.0f);
    std::fill(head_tile, head_tile + cols, 0.0f);
    flags0[t] = 1;  // inactive lanes terminate scan runs
    if (s >= f.nnz) {
      states[t] = st;
      continue;
    }
    st.active = 1;
    last_active = t;
    const nnz_t e = std::min<nnz_t>(s + threadlen, f.nnz);
    index_t seg = f.thread_first_seg[thread0 + t];
    const bool starts_fresh = f.head(s);
    bool closed_any = false;
    for (index_t c = 0; c < cols; ++c) col_sum[c] = 0.0f;

    // The bit-flag word is cached across up to 64 non-zeros (the "read bf in
    // registers" optimisation the format is designed for).
    std::uint64_t bf_word = f.bf_words[s >> 6];
    for (nnz_t x = s; x < e; ++x) {
      if ((x & 63) == 0) bf_word = f.bf_words[x >> 6];
      const bool is_head = (bf_word >> (x & 63)) & 1ull;
      if (x > s && is_head) {
        // The run [.., x-1] of segment `seg` closes here. The output row and
        // its base pointer are resolved once, outside the column loop.
        const index_t row = f.seg_row[seg];
        value_t* const out_row = &out.data[static_cast<std::size_t>(row) * out.ld + col0];
        if (!starts_fresh && !closed_any) {
          if constexpr (kStrategy == ReduceStrategy::kThreadAtomic) {
            for (index_t c = 0; c < cols; ++c) {
              blk.atomic_add_global(out_row + c, col_sum[c]);
            }
          } else {
            st.has_head_partial = 1;
            st.head_row = row;
            for (index_t c = 0; c < cols; ++c) head_tile[c] = col_sum[c];
          }
        } else {
          // Interior segment: fully contained in this thread; direct write.
          for (index_t c = 0; c < cols; ++c) out_row[c] += col_sum[c];
        }
        closed_any = true;
        ++seg;
        for (index_t c = 0; c < cols; ++c) col_sum[c] = 0.0f;
      }
      const float v = f.vals[x];
      if constexpr (kStrategy == ReduceStrategy::kAllAtomic) {
        // COO-style: no local accumulation at all (ablation baseline).
        value_t* const out_row =
            &out.data[static_cast<std::size_t>(f.seg_row[seg]) * out.ld + col0];
        for (index_t c = 0; c < cols; ++c) {
          blk.atomic_add_global(out_row + c, v * expr(x, col0 + c));
        }
      } else {
        for (index_t c = 0; c < cols; ++c) col_sum[c] += v * expr(x, col0 + c);
      }
    }

    st.tail_row = f.seg_row[seg];
    st.tail_closes = (e >= f.nnz) || f.head(e);
    flags0[t] = (starts_fresh || closed_any) ? 1 : 0;
    if constexpr (kStrategy == ReduceStrategy::kAllAtomic) {
      states[t] = st;
      continue;
    }
    if constexpr (kStrategy == ReduceStrategy::kThreadAtomic) {
      // Commit the trailing partial immediately: direct when the segment is
      // fully contained in this thread, atomic otherwise.
      value_t* const out_row =
          &out.data[static_cast<std::size_t>(st.tail_row) * out.ld + col0];
      const bool exclusive = (flags0[t] != 0) && st.tail_closes;
      for (index_t c = 0; c < cols; ++c) {
        if (exclusive) {
          out_row[c] += col_sum[c];
        } else {
          blk.atomic_add_global(out_row + c, col_sum[c]);
        }
      }
      states[t] = st;
      continue;
    }
    for (index_t c = 0; c < cols; ++c) tail_tile[c] = col_sum[c];
    states[t] = st;
  }

  if constexpr (kStrategy != ReduceStrategy::kSegmentedScan &&
                kStrategy != ReduceStrategy::kAdjacentSync) {
    return;
  }

  constexpr bool kUseCarry = (kStrategy == ReduceStrategy::kAdjacentSync);
  if constexpr (kUseCarry) UST_EXPECTS(chain != nullptr);
  // Carry-chain slots are linear block ids; chains run along blockIdx.x for
  // a fixed blockIdx.y, which is contiguous in dispatch order.
  const std::size_t slot =
      static_cast<std::size_t>(blk.block_idx().y) * blk.grid_dim().x + blk.block_idx().x;

  // ---- Phase 2 + 3 per column: block segmented scan, then commits --------
  for (index_t c = 0; c < cols; ++c) {
    // Gather column c's trailing partials out of the thread-contiguous tiles
    // into a dense lane array for the scan (the shuffle exchange on a GPU).
    for (unsigned t = 0; t < block_dim; ++t) {
      scan_vals[t] = tails[static_cast<std::size_t>(t) * cols + c];
    }
    std::copy(flags0.begin(), flags0.end(), flags.begin());
    detail::block_segmented_scan(scan_vals, flags, warp_carry, warp_flag);

    // The carry entering this block: contributions of all earlier blocks to
    // the segment open at block start. Fetched lazily (it blocks on the
    // predecessor) and consumed by exactly one closing write or re-published.
    float carry_in = 0.0f;
    bool carry_fetched = blk.block_idx().x == 0;  // block 0 starts the chain
    auto fetch_carry = [&]() -> float {
      if constexpr (kUseCarry) {
        if (!carry_fetched) {
          carry_in = chain->wait(slot - 1, c);
          carry_fetched = true;
        }
      }
      return carry_in;
    };

    if constexpr (kUseCarry) {
      // Publish the trailing open partial as early as possible (before the
      // commit loop): successors only stall on pure pass-through blocks.
      const detail::LaneState& last_st = states[last_active];
      if (last_st.tail_closes) {
        chain->publish(slot, c, 0.0f);  // successor starts a fresh segment
      } else if (flags[last_active] != 0) {
        chain->publish(slot, c, scan_vals[last_active]);
      } else {
        chain->publish(slot, c, scan_vals[last_active] + fetch_carry());
      }
    }

    for (unsigned t = 0; t < block_dim; ++t) {
      const detail::LaneState& st = states[t];
      if (!st.active) continue;
      value_t* out_base = out.data;

      // Head-partial commit: the segment closed by this thread's first head
      // started in an earlier one (row resolved in phase 1).
      if (st.has_head_partial) {
        float total = heads[static_cast<std::size_t>(t) * cols + c];
        bool in_block = false;
        if (t > 0) {
          total += scan_vals[t - 1];
          in_block = flags[t - 1] != 0;
        }
        value_t* addr =
            &out_base[static_cast<std::size_t>(st.head_row) * out.ld + col0 + c];
        if constexpr (kUseCarry) {
          if (!in_block) total += fetch_carry();
          *addr += total;  // the closing write owns the segment: no atomic
        } else {
          if (in_block) {
            *addr += total;
          } else {
            blk.atomic_add_global(addr, total);
          }
        }
      }

      // Trailing-run commit: lane t owns the write iff its run ends at its
      // partition boundary; without a carry chain the last active lane must
      // also flush its open partial (atomically).
      if constexpr (kUseCarry) {
        if (st.tail_closes) {
          float total = scan_vals[t];
          if (flags[t] == 0) total += fetch_carry();
          out_base[static_cast<std::size_t>(st.tail_row) * out.ld + col0 + c] += total;
        }
        // Open trailing runs were re-published to the successor above.
      } else {
        const bool run_ends_here = st.tail_closes || (t == last_active);
        if (run_ends_here) {
          value_t* addr =
              &out_base[static_cast<std::size_t>(st.tail_row) * out.ld + col0 + c];
          const bool contained = st.tail_closes && flags[t] != 0;
          if (contained) {
            *addr += scan_vals[t];
          } else {
            blk.atomic_add_global(addr, scan_vals[t]);
          }
        }
      }
    }
  }
}

/// Runtime dispatcher over the reduction strategy. `chain` is required for
/// (and only used by) kAdjacentSync; it must have grid.x * grid.y slots with
/// stride == column_tile.
template <class Expr>
void unified_block_program(sim::BlockCtx& blk, const FcooView& f, const OutView& out,
                           const UnifiedOptions& opt, const Expr& expr,
                           sim::CarryChain* chain = nullptr) {
  switch (opt.strategy) {
    case ReduceStrategy::kSegmentedScan:
      unified_block_program_impl<ReduceStrategy::kSegmentedScan>(blk, f, out, opt, expr);
      return;
    case ReduceStrategy::kAdjacentSync:
      unified_block_program_impl<ReduceStrategy::kAdjacentSync>(blk, f, out, opt, expr,
                                                                chain);
      return;
    case ReduceStrategy::kThreadAtomic:
      unified_block_program_impl<ReduceStrategy::kThreadAtomic>(blk, f, out, opt, expr);
      return;
    case ReduceStrategy::kAllAtomic:
      unified_block_program_impl<ReduceStrategy::kAllAtomic>(blk, f, out, opt, expr);
      return;
  }
  UST_ENSURES(false);
}

/// Shared-memory bytes the block program needs for a given configuration
/// (used to size LaunchConfig::shared_bytes).
std::size_t unified_shared_bytes(unsigned block_dim, unsigned column_tile);

}  // namespace ust::core
