#include "pipeline/chunker.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace ust::pipeline {

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

void annotate_segments(std::span<const std::uint64_t> bf_words, nnz_t nnz,
                       std::span<StreamChunk> chunks) {
  if (chunks.empty()) return;
  UST_EXPECTS(chunks.back().hi <= nnz);
  // `seg` is the global id of the segment open at non-zero `at`; every head
  // after `at` opens the next one. Each chunk costs two word-wise popcounts,
  // so the whole pass is O(chunks + nnz / 64).
  nnz_t at = 0;
  nnz_t seg = 0;
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

core::FcooView ChunkPlan::view() const {
  core::FcooView v;
  v.bf_words = bf_words.data();
  v.vals = vals.data();
  v.thread_first_seg = thread_first_seg.data();
  v.seg_row = seg_row.data();
  v.nnz = total_nnz - spec.lo;
  v.num_segments = spec.num_segments;
  v.threadlen = threadlen;
  return v;
}

std::size_t ChunkPlan::device_bytes() const {
  std::size_t b = bf_words.byte_size() + vals.byte_size() + thread_first_seg.byte_size() +
                  seg_row.byte_size();
  for (const auto& p : pidx) b += p.byte_size();
  return b;
}

std::unique_ptr<ChunkPlan> build_chunk_plan(sim::Device& device, const HostFcoo& host,
                                            const Partitioning& part,
                                            const StreamChunk& spec, index_t row_base) {
  UST_EXPECTS(host.seg_row.size() == host.num_segments);
  auto plan = std::make_unique<ChunkPlan>();
  plan->spec = spec;
  plan->total_nnz = host.nnz;
  plan->row_base = row_base;
  plan->threadlen = part.threadlen;
  const nnz_t count = spec.hi - spec.lo;

  // Head flags: the slice carries one bit past the chunk (when it exists) so
  // the last worker chunk can test whether a segment closes at the boundary.
  const nnz_t bit_count = std::min<nnz_t>(spec.hi + 1, host.nnz) - spec.lo;
  const std::vector<std::uint64_t> bits = slice_bits(host.bf_words, spec.lo, bit_count);
  plan->bf_words = device.alloc<std::uint64_t>(bits.size());
  plan->bf_words.copy_from_host(bits);

  plan->vals = device.alloc<value_t>(count);
  plan->vals.copy_from_host(host.vals.subspan(spec.lo, count));

  plan->pidx.reserve(host.pidx.size());
  for (std::size_t p = 0; p < host.pidx.size(); ++p) {
    auto buf = device.alloc<index_t>(count);
    buf.copy_from_host(host.pidx[p].subspan(spec.lo, count));
    plan->pidx.push_back(std::move(buf));
  }

  // Local partition -> local segment id: the SAME scan UnifiedPlan runs,
  // applied to the chunk-local bit slice (spec.lo is threadlen-aligned).
  const std::vector<index_t> first_seg =
      first_segment_per_partition(bits, count, part.threadlen);
  plan->thread_first_seg = device.alloc<index_t>(first_seg.size());
  plan->thread_first_seg.copy_from_host(first_seg);

  // Local segment id -> output row: the host view's seg_row already encodes
  // the operation's output convention (index-mode coordinate for row-indexed
  // outputs, global segment ordinal for SpTTM's fiber order) -- mirroring
  // UnifiedPlan's seg_row, restricted to this chunk's segments and rebased
  // to row_base (0 for a replica plan: global rows).
  const auto rows_slice = host.seg_row.subspan(spec.first_seg, spec.num_segments);
  if (row_base == 0) {
    plan->seg_row = device.alloc<index_t>(spec.num_segments);
    plan->seg_row.copy_from_host(rows_slice);
  } else {
    std::vector<index_t> rows(rows_slice.begin(), rows_slice.end());
    for (index_t& r : rows) {
      UST_EXPECTS(r >= row_base);
      r -= row_base;
    }
    plan->seg_row = device.alloc<index_t>(spec.num_segments);
    plan->seg_row.copy_from_host(rows);
  }
  return plan;
}

}  // namespace ust::pipeline
