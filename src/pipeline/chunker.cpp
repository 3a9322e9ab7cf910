#include "pipeline/chunker.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace ust::pipeline {

HostFcoo host_view(const FcooTensor& fcoo, std::span<const index_t> seg_row) {
  HostFcoo h;
  h.bf_words = fcoo.bit_flags().words();
  h.vals = fcoo.values();
  h.pidx.reserve(fcoo.product_modes().size());
  for (std::size_t p = 0; p < fcoo.product_modes().size(); ++p) {
    h.pidx.push_back(fcoo.product_indices(p));
  }
  h.seg_row = seg_row;
  h.nnz = fcoo.nnz();
  h.num_segments = fcoo.num_segments();
  return h;
}

HostFcoo host_view(const core::UnifiedPlan& plan) {
  HostFcoo h;
  const core::FcooView v = plan.view();
  h.bf_words = {v.bf_words, ceil_div<nnz_t>(plan.nnz(), 64)};
  h.vals = {v.vals, plan.nnz()};
  h.pidx.reserve(plan.product_modes().size());
  for (std::size_t p = 0; p < plan.product_modes().size(); ++p) {
    h.pidx.push_back(plan.product_indices(p).span());
  }
  h.seg_row = {v.seg_row, plan.num_segments()};
  h.nnz = plan.nnz();
  h.num_segments = plan.num_segments();
  return h;
}

std::size_t plan_bytes_per_nnz(std::size_t num_product_modes) {
  // index_t per product mode + the value; the head-flag bit is charged via
  // the +1/8 (rounded up by the caller's per-chunk estimate).
  return num_product_modes * sizeof(index_t) + sizeof(value_t) + 1;
}

nnz_t resolve_chunk_nnz(nnz_t nnz, std::size_t num_product_modes,
                        const Partitioning& part, const core::StreamingOptions& opt) {
  if (opt.chunk_nnz != 0) {
    UST_EXPECTS(opt.chunk_nnz % part.threadlen == 0);
    return opt.chunk_nnz;
  }
  if (opt.chunk_bytes == 0 || nnz == 0) return 0;
  const nnz_t by_bytes =
      static_cast<nnz_t>(opt.chunk_bytes / plan_bytes_per_nnz(num_product_modes));
  // Round down to a threadlen multiple so worker chunks stay aligned to
  // partition boundaries; never below one partition.
  const nnz_t aligned = (by_bytes / part.threadlen) * part.threadlen;
  return std::max<nnz_t>(part.threadlen, aligned);
}

std::vector<StreamChunk> group_worker_chunks(std::span<const core::native::Chunk> grid,
                                             std::size_t chunk_bytes, std::size_t per_nnz) {
  // Group consecutive worker chunks until the byte budget is reached. At
  // least one worker chunk goes into every stream chunk, so chunk_bytes is a
  // soft bound: a single worker chunk larger than the budget still streams
  // (lower chunk_nnz / chunk_bytes to shrink the grid instead).
  std::vector<StreamChunk> chunks;
  std::size_t g = 0;
  while (g < grid.size()) {
    StreamChunk sc;
    sc.lo = grid[g].lo;
    std::size_t bytes = 0;
    while (g < grid.size()) {
      const std::size_t wbytes = static_cast<std::size_t>(grid[g].hi - grid[g].lo) * per_nnz;
      if (!sc.workers.empty() && chunk_bytes != 0 && bytes + wbytes > chunk_bytes) {
        break;
      }
      sc.workers.push_back(
          core::native::Chunk{grid[g].lo - sc.lo, grid[g].hi - sc.lo});
      bytes += wbytes;
      sc.hi = grid[g].hi;
      ++g;
      if (chunk_bytes == 0) break;  // one worker chunk per stream chunk
    }
    sc.est_device_bytes = bytes;
    chunks.push_back(std::move(sc));
  }
  return chunks;
}

void annotate_segments(std::span<const std::uint64_t> bf_words, nnz_t nnz,
                       std::span<StreamChunk> chunks, nnz_t first_seg_at_lo) {
  if (chunks.empty()) return;
  UST_EXPECTS(chunks.back().hi <= nnz);
  // `seg` is the global id of the segment open at non-zero `at`; every head
  // after `at` opens the next one. Each chunk costs two word-wise popcounts,
  // so the whole pass is O(chunks + span / 64).
  nnz_t at = chunks.front().lo;
  nnz_t seg = first_seg_at_lo;
  for (StreamChunk& c : chunks) {
    UST_EXPECTS(at <= c.lo && c.lo <= c.hi);
    // An empty chunk past the last non-zero reports the last segment.
    const nnz_t lo = std::min(c.lo, nnz - 1);
    seg += count_ones(bf_words, at + 1, lo + 1);
    at = lo;
    c.first_seg = seg;
    if (c.lo == c.hi) {
      c.num_segments = 0;
      continue;
    }
    const nnz_t opened = count_ones(bf_words, c.lo + 1, c.hi);
    c.num_segments = opened + 1;
    seg += opened;
    at = c.hi - 1;
  }
}

ChunkerResult make_stream_chunks(const HostFcoo& host, const Partitioning& part,
                                 const core::StreamingOptions& opt) {
  ChunkerResult result;
  const nnz_t nnz = host.nnz;
  result.chunk_nnz = resolve_chunk_nnz(nnz, host.pidx.size(), part, opt);
  if (nnz == 0) return result;

  const std::vector<core::native::Chunk> grid =
      core::native::make_chunks(nnz, part.threadlen, result.chunk_nnz);
  result.chunks =
      group_worker_chunks(grid, opt.chunk_bytes, plan_bytes_per_nnz(host.pidx.size()));
  annotate_segments(host.bf_words, nnz, result.chunks);
  UST_ENSURES(result.chunks.front().lo == 0 && result.chunks.back().hi == nnz);
  return result;
}

ChunkerResult make_stream_chunks(const FcooTensor& fcoo, const Partitioning& part,
                                 const core::StreamingOptions& opt) {
  return make_stream_chunks(host_view(fcoo, {}), part, opt);
}

std::vector<std::uint64_t> slice_bits(std::span<const std::uint64_t> words, nnz_t lo,
                                      nnz_t count) {
  std::vector<std::uint64_t> out(ceil_div<nnz_t>(count, 64), 0);
  if (count == 0) return out;
  const nnz_t base = lo >> 6;
  const unsigned shift = static_cast<unsigned>(lo & 63);
  for (std::size_t w = 0; w < out.size(); ++w) {
    std::uint64_t v = words[base + w] >> shift;
    if (shift != 0 && base + w + 1 < words.size()) {
      v |= words[base + w + 1] << (64 - shift);
    }
    out[w] = v;
  }
  // Clear bits past `count` so equality checks on the slice are exact.
  const nnz_t rem = count & 63;
  if (rem != 0) out.back() &= (1ull << rem) - 1;
  return out;
}

}  // namespace ust::pipeline
