// Native CPU execution backend for the unified kernel (ExecBackend::kNative).
//
// The simulator (`sim/executor.hpp`) reproduces the paper's GPU *dataflow* --
// blocks, warps, shared-memory arenas, segmented scans -- which is what makes
// kernel-level claims testable, but it pays full emulation overhead on every
// production run: a std::function dispatch per block, bump-allocated shared
// arenas, column-strided lane arrays, and a per-non-zero-per-column
// expr(x, col) indirection. This backend executes the SAME UnifiedPlan
// metadata (FcooView: bf head flags, thread_first_seg, seg_row) as one tight
// loop per thread-pool worker over contiguous non-zero ranges:
//
//   * each worker owns a chunk of non-zeros aligned to threadlen partition
//     boundaries (so `thread_first_seg` gives its starting segment id),
//   * the per-non-zero product is a SIMD mul-then-add into the worker's
//     *private* accumulator tile (core/simd.hpp; the rank dimension is the
//     vector axis) -- factor-row base pointers are hoisted once per non-zero
//     by the op-specific Expr (see `accumulate`). As in the paper's kernel,
//     where each GPU thread sums its run privately and shares only segment
//     boundaries, a tile starts on a cache line and is padded to whole lines
//     (WorkerTiles), so two workers never write the same line; the chunk's
//     trailing partial is copied out once, when the chunk ends,
//   * segments fully contained in a chunk are committed with plain stores
//     (seg_row is injective: one segment per output row, as the sim kernel's
//     conflict-free interior writes already assume),
//   * segments crossing a chunk boundary are resolved by a single carry
//     handoff per boundary -- the kAdjacentSync dataflow, realised here as a
//     cheap serial pass over the O(chunks * cols) boundary partials after the
//     parallel phase. Zero atomics, and (unlike the GPU carry chain) no
//     spinning: the handoff runs after the pool joins.
//
// Rank blocking + request batching (DESIGN.md §13) generalise the walk: the
// columns a chunk accumulates are described by ColBlocks -- contiguous column
// sub-ranges of one or more *batched* requests -- grouped into passes whose
// total width is bounded by the rank block, so wide outputs (SpTTMc's r0*r1
// columns) tile through L1 instead of thrashing the accumulator, and N
// same-plan requests share one walk of the nnz stream (per-request tiles
// side by side in the same pass). Both are bitwise neutral: columns are
// independent, every column sees exactly the storage-order per-non-zero
// mul-then-add sequence and the same boundary-carry handoff it would see in
// a solo scalar run, no matter how columns are grouped into passes.
//
// The result is bitwise deterministic regardless of worker scheduling and of
// how many threads the pool has: chunk boundaries are a function of nnz,
// threadlen and chunk_nnz alone (make_chunks), each segment's partials are
// summed in storage order, and boundary partials are combined left-to-right.
// The simulator remains the fidelity/ablation oracle (ReduceStrategy only
// changes the dataflow there); this backend is the default for end-to-end
// runs. See DESIGN.md §8 and §13.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/simd.hpp"
#include "core/unified_kernel.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "util/thread_pool.hpp"

namespace ust::core::native {

/// A contiguous range of non-zeros processed by one worker task. `lo` is
/// always a multiple of the plan's threadlen (so thread_first_seg[lo /
/// threadlen] is the segment id of the first non-zero); `hi` is either a
/// multiple of threadlen or nnz.
struct Chunk {
  nnz_t lo = 0;
  nnz_t hi = 0;
};

/// The native worker grid: splits [0, nnz) into 16 chunks, each aligned to
/// `threadlen` partition boundaries, never more chunks than partitions. A
/// non-zero `max_chunk_nnz` (a multiple of threadlen, see core::validate)
/// additionally caps every chunk's size, raising the chunk count as needed.
/// The grid is a function of (nnz, threadlen, max_chunk_nnz) alone -- any
/// number of pool threads runs it -- which is what bitwise identity across
/// thread counts, devices and sharding rests on. Returns an empty
/// vector for an empty tensor.
std::vector<Chunk> make_chunks(nnz_t nnz, unsigned threadlen, nnz_t max_chunk_nnz = 0);

/// One contiguous column sub-range of one batched request's output, placed in
/// the request-concatenated accumulator tile at `acc_off`. Column `c0 + c` of
/// request `req` accumulates at tile offset `acc_off + c`.
struct ColBlock {
  std::uint32_t req = 0;  // index into the batch's outs/exprs arrays
  index_t c0 = 0;         // first output column this block covers
  index_t nc = 0;         // block width (>= 1)
  std::size_t acc_off = 0;  // offset into the concatenated accumulator tile
};

/// Default pass width (columns) when UnifiedOptions::rank_block is 0: 512
/// floats = 2 KiB of accumulator per pass, leaving most of a 32 KiB L1 for
/// the factor rows the expression gathers.
constexpr index_t kAutoRankBlock = 512;

/// Splits the batched requests' output widths into ColBlocks of at most
/// `rank_block` columns (0 = kAutoRankBlock) and groups them into passes
/// whose total width never exceeds the block size (a single block is a pass
/// of its own). Pass p covers blocks [pass_off[p], pass_off[p+1]); each pass
/// is one walk over a chunk's non-zeros. Zero-width requests get no blocks
/// (their zero-initialised outputs are already the correct result).
std::vector<ColBlock> make_col_blocks(std::span<const index_t> widths, index_t rank_block,
                                      std::vector<std::size_t>& pass_off);

/// Per-chunk boundary state produced by the parallel phase and consumed by
/// the serial carry pass. The segment structure is a property of the tensor
/// alone, so one ChunkState serves every request and every rank-block pass of
/// a batch (each pass recomputes identical values).
struct ChunkState {
  index_t first_seg = 0;          // segment id of the chunk's first non-zero
  index_t tail_seg = 0;           // segment id open at chunk end
  std::uint8_t has_head_partial = 0;  // leading run continued a predecessor
  std::uint8_t tail_closes = 0;       // chunk end coincides with a segment end
  std::uint8_t tail_committed = 0;    // trailing run already written in phase 1
};

/// Bytes per cache line: the unit worker tiles are aligned and padded to.
constexpr std::size_t kCacheLineBytes = 64;

/// Private phase-1 accumulator tiles, one per pool worker rank (rank <
/// pool.size() + 1). Each tile holds `width` floats, starts on a cache-line
/// boundary and is padded to whole lines, so workers accumulating at the same
/// time never write the same line: a narrow tile (32 bytes at rank 8) shared
/// with a neighbour would cost a coherence miss on every non-zero.
class WorkerTiles {
 public:
  WorkerTiles(unsigned workers, std::size_t width);
  // base_ points into storage_, so a copy would alias the original's tiles.
  WorkerTiles(const WorkerTiles&) = delete;
  WorkerTiles& operator=(const WorkerTiles&) = delete;

  /// Floats from one tile to the next: `width` rounded up to whole lines.
  std::size_t stride() const noexcept { return stride_; }
  float* tile(unsigned worker) noexcept { return base_ + worker * stride_; }

 private:
  std::size_t stride_;
  std::vector<float> storage_;  // over-allocated by up to one line for alignment
  float* base_;
};

/// Phase 1 worker body: walks one chunk once per rank-block pass, committing
/// interior segments directly and leaving boundary partials in `acc`
/// (trailing run) and `head_partial` (leading run continuing the previous
/// chunk). `acc` is the worker's private tile and `head_partial` the chunk's
/// packed slot, each `total_cols` floats (the concatenated width of all
/// batched requests); block b of the batch lives at tile offset b.acc_off.
/// The multi-pass walk re-reads flags and values identically per pass, so
/// every column -- and the ChunkState -- is exactly what a solo single-pass
/// run would produce.
template <class Expr>
inline void run_chunk(const FcooView& f, std::span<const OutView> outs,
                      std::span<const Expr> exprs, std::span<const ColBlock> blocks,
                      std::span<const std::size_t> pass_off, std::size_t total_cols,
                      Chunk ch, float* UST_RESTRICT acc, float* UST_RESTRICT head_partial,
                      ChunkState& st) {
  st = ChunkState{};
  st.first_seg = f.thread_first_seg[ch.lo / f.threadlen];
  const bool starts_fresh = f.head(ch.lo);
  std::fill(acc, acc + total_cols, 0.0f);

  // Fused multi-request dispatch (DESIGN.md §13): when the expression offers
  // a pass fuser and the pass qualifies (equal-width blocks of a shared-plan
  // batch), one SIMD dispatch per non-zero covers all fused tiles -- the
  // generic per-block loop would pay one indirect call per request, capping
  // what request fusion can win to the shared stream decode.
  constexpr bool kFusable = requires(std::span<const Expr> es, std::span<const ColBlock> ps,
                                     float* a) { Expr::make_pass_fuser(es, ps, a); };

  for (std::size_t p = 0; p + 1 < pass_off.size(); ++p) {
    const std::span<const ColBlock> pass = blocks.subspan(pass_off[p], pass_off[p + 1] - pass_off[p]);
    const auto fuser = [&] {
      if constexpr (kFusable) return Expr::make_pass_fuser(exprs, pass, acc);
      else return false;  // placeholder; never read
    }();
    index_t seg = st.first_seg;
    bool closed_any = false;
    // The bit-flag word is cached across up to 64 non-zeros, as in the sim
    // kernel ("read bf in registers").
    std::uint64_t bf_word = f.bf_words[ch.lo >> 6];
    for (nnz_t x = ch.lo; x < ch.hi; ++x) {
      if ((x & 63) == 0) bf_word = f.bf_words[x >> 6];
      if (x > ch.lo && ((bf_word >> (x & 63)) & 1ull)) {
        // The run [.., x-1] of segment `seg` closes here.
        if (!starts_fresh && !closed_any) {
          // Leading run of a segment opened in an earlier chunk: defer.
          for (const ColBlock& b : pass) {
            std::copy(acc + b.acc_off, acc + b.acc_off + b.nc, head_partial + b.acc_off);
          }
          st.has_head_partial = 1;
        } else {
          // Interior segment, exclusively owned: plain stores.
          for (const ColBlock& b : pass) {
            const OutView& o = outs[b.req];
            value_t* UST_RESTRICT dst =
                o.data + static_cast<std::size_t>(f.seg_row[seg]) * o.ld + b.c0;
            const float* UST_RESTRICT a = acc + b.acc_off;
            for (index_t c = 0; c < b.nc; ++c) dst[c] += a[c];
          }
        }
        for (const ColBlock& b : pass) {
          std::fill(acc + b.acc_off, acc + b.acc_off + b.nc, 0.0f);
        }
        closed_any = true;
        ++seg;
      }
      const float v = f.vals[x];
      if constexpr (kFusable) {
        if (fuser) {
          (*fuser)(x, v);
          continue;
        }
      }
      for (const ColBlock& b : pass) {
        exprs[b.req].accumulate(x, v, acc + b.acc_off, b.c0, b.nc);
      }
    }

    st.tail_seg = seg;
    st.tail_closes = (ch.hi >= f.nnz) || f.head(ch.hi);
    if (st.tail_closes && (starts_fresh || closed_any)) {
      // Trailing segment both opened and closed within this chunk: commit now.
      for (const ColBlock& b : pass) {
        const OutView& o = outs[b.req];
        value_t* UST_RESTRICT dst =
            o.data + static_cast<std::size_t>(f.seg_row[seg]) * o.ld + b.c0;
        const float* UST_RESTRICT a = acc + b.acc_off;
        for (index_t c = 0; c < b.nc; ++c) dst[c] += a[c];
      }
      st.tail_committed = 1;
    }
    // Otherwise this pass's slices of `acc` carry the open partial into the
    // serial boundary pass (run_phase1 copies them to the chunk's tails slot).
  }
}

/// Phase 2: the serial left-to-right carry fold over per-chunk boundary
/// state. `seg_row` maps the segment ids stored in `states` to output rows
/// (the plan's global table; the sharded executor rebases its shards'
/// segment ids to global before folding). `carry` must hold `total_cols`
/// zeroed floats. Shared by every caller (single-shot, sharded, batched) so
/// the handoff rule can never diverge. The chunk flags apply to every block
/// at once -- the segment structure doesn't depend on the request -- so
/// folding the concatenated tile is the same as folding each request
/// independently.
inline void fold_boundaries(const index_t* seg_row, std::span<const ChunkState> states,
                            const float* UST_RESTRICT tails,
                            const float* UST_RESTRICT head_partials, std::size_t total_cols,
                            std::span<const OutView> outs, std::span<const ColBlock> blocks,
                            float* UST_RESTRICT carry) {
  for (std::size_t k = 0; k < states.size(); ++k) {
    const ChunkState& st = states[k];
    if (st.has_head_partial) {
      // Segment st.first_seg opened earlier and closed inside chunk k.
      const float* hp = &head_partials[k * total_cols];
      for (const ColBlock& b : blocks) {
        const OutView& o = outs[b.req];
        value_t* UST_RESTRICT dst =
            o.data + static_cast<std::size_t>(seg_row[st.first_seg]) * o.ld + b.c0;
        for (index_t c = 0; c < b.nc; ++c) dst[c] += carry[b.acc_off + c] + hp[b.acc_off + c];
      }
      std::fill(carry, carry + total_cols, 0.0f);
    }
    if (st.tail_committed == 0) {
      const float* UST_RESTRICT tp = &tails[k * total_cols];
      if (st.tail_closes) {
        for (const ColBlock& b : blocks) {
          const OutView& o = outs[b.req];
          value_t* UST_RESTRICT dst =
              o.data + static_cast<std::size_t>(seg_row[st.tail_seg]) * o.ld + b.c0;
          for (index_t c = 0; c < b.nc; ++c) dst[c] += carry[b.acc_off + c] + tp[b.acc_off + c];
        }
        std::fill(carry, carry + total_cols, 0.0f);
      } else {
        for (std::size_t c = 0; c < total_cols; ++c) carry[c] += tp[c];
      }
    }
  }
}

/// Single-output compatibility overload.
inline void fold_boundaries(const index_t* seg_row, std::span<const ChunkState> states,
                            const float* UST_RESTRICT tails,
                            const float* UST_RESTRICT head_partials, std::size_t cols,
                            const OutView& out, float* UST_RESTRICT carry) {
  const ColBlock block{0, 0, static_cast<index_t>(cols), 0};
  fold_boundaries(seg_row, states, tails, head_partials, cols,
                  std::span<const OutView>(&out, 1), std::span<const ColBlock>(&block, 1),
                  carry);
}

/// Phase 1 for every native caller -- execute_batched and the sharded
/// executor's shard plans: runs
/// `chunks` over `pool`, each worker accumulating in its own WorkerTiles tile
/// and copying a chunk's trailing partial into the chunk's packed `tails`
/// slot when the chunk ends. `tails` and `head_partials` (`total_cols` floats
/// per chunk) and `states` are indexed by position in `chunks`, which is how
/// fold_boundaries reads them. Emits one `native.chunk` span per chunk under
/// the calling thread's trace id (pool workers have no trace context).
template <class Expr>
void run_phase1(ThreadPool& pool, const FcooView& f, std::span<const OutView> outs,
                std::span<const Expr> exprs, std::span<const ColBlock> blocks,
                std::span<const std::size_t> pass_off, std::size_t total_cols,
                std::span<const Chunk> chunks, float* UST_RESTRICT tails,
                float* UST_RESTRICT head_partials, ChunkState* states) {
  WorkerTiles tiles(pool.size() + 1, total_cols);
  const std::uint64_t obs_id = obs::current_trace_id();
  pool.parallel_ranges(
      chunks.size(), /*grain=*/1, [&](unsigned worker, std::size_t begin, std::size_t end) {
        float* acc = tiles.tile(worker);
        for (std::size_t k = begin; k < end; ++k) {
          obs::Span obs_chunk("native.chunk", obs_id);
          obs_chunk.arg("nnz", static_cast<std::uint64_t>(chunks[k].hi - chunks[k].lo))
              .arg("chunk", k);
          run_chunk<Expr>(f, outs, exprs, blocks, pass_off, total_cols, chunks[k], acc,
                          head_partials + k * total_cols, states[k]);
          std::copy_n(acc, total_cols, tails + k * total_cols);
        }
      });
}

/// Executes a batch of N same-plan requests natively over `device`'s worker
/// pool in one pass over the nnz stream per rank block: `outs[i]` /
/// `exprs[i]` are request i's output and expression (all over the same
/// FcooView). Every output must be zero-initialised, exactly as for the sim
/// path. Each request's result is bitwise identical to running it alone --
/// per-request tiles are disjoint and the boundary fold treats them
/// independently -- which is the invariant Engine::run_batched and the
/// device worker's queue drain rely on.
template <class Expr>
void execute_batched(sim::Device& device, const FcooView& f, std::span<const OutView> outs,
                     std::span<const Expr> exprs, nnz_t max_chunk_nnz = 0,
                     index_t rank_block = 0) {
  UST_EXPECTS(outs.size() == exprs.size());
  if (f.nnz == 0 || outs.empty()) return;
  std::vector<index_t> widths;
  widths.reserve(outs.size());
  std::size_t total_cols = 0;
  for (const OutView& o : outs) {
    widths.push_back(static_cast<index_t>(o.num_cols));
    total_cols += o.num_cols;
  }
  if (total_cols == 0) return;
  const std::vector<Chunk> chunks = make_chunks(f.nnz, f.threadlen, max_chunk_nnz);
  if (chunks.empty()) return;
  std::vector<std::size_t> pass_off;
  const std::vector<ColBlock> blocks = make_col_blocks(widths, rank_block, pass_off);
  // A native run still counts as one launch in the device counters so
  // end-to-end accounting (launches per ALS iteration etc.) stays meaningful
  // across backends; blocks_executed counts worker chunks.
  device.note_kernel_launch(chunks.size());

  // Kernel profiling hooks (DESIGN.md §14): one span per pass, plus
  // run_phase1's one per worker chunk -- never per non-zero.
  obs::Span obs_pass("native.execute");
  obs_pass.arg("nnz", static_cast<std::uint64_t>(f.nnz))
      .arg("simd", static_cast<std::uint64_t>(simd::active_level()));

  // ---- Phase 1 (parallel): one tight loop per chunk per pass -------------
  std::vector<float> tails(chunks.size() * total_cols);
  std::vector<float> head_partials(chunks.size() * total_cols);
  std::vector<ChunkState> states(chunks.size());
  run_phase1<Expr>(device.pool(), f, outs, exprs, blocks, pass_off, total_cols, chunks,
                   tails.data(), head_partials.data(), states.data());

  // ---- Phase 2 (serial): carry handoff across chunk boundaries -----------
  // Walks chunks left to right with one running carry tile; each boundary
  // segment receives exactly one closing write (the kAdjacentSync ownership
  // rule), so no atomics are needed here either.
  std::vector<float> carry(total_cols, 0.0f);
  obs::Span obs_fold("native.fold");
  obs_fold.arg("chunks", chunks.size());
  fold_boundaries(f.seg_row, states, tails.data(), head_partials.data(), total_cols, outs,
                  blocks, carry.data());
  // The last chunk always closes at nnz, so the carry has been flushed.
}

/// Executes one unified operation natively: a batch of one.
/// `expr.accumulate(x, v, acc, c0, nc)` must add v * expr(x, c0 + c) into
/// acc[c] for the block's columns (the contiguous-tile form of the sim
/// kernel's expr(x, col)).
template <class Expr>
void execute(sim::Device& device, const FcooView& f, const OutView& out,
             const Expr& expr, nnz_t max_chunk_nnz = 0, index_t rank_block = 0) {
  execute_batched<Expr>(device, f, std::span<const OutView>(&out, 1),
                        std::span<const Expr>(&expr, 1), max_chunk_nnz, rank_block);
}

}  // namespace ust::core::native
