#include "core/native_exec.hpp"

#include <memory>

namespace ust::core::native {

WorkerTiles::WorkerTiles(unsigned workers, std::size_t width)
    : stride_(round_up(width, kCacheLineBytes / sizeof(float))),
      storage_(workers * stride_ + kCacheLineBytes / sizeof(float) - 1) {
  void* p = storage_.data();
  std::size_t space = storage_.size() * sizeof(float);
  base_ = static_cast<float*>(
      std::align(kCacheLineBytes, workers * stride_ * sizeof(float), p, space));
  UST_ENSURES(base_ != nullptr);
}

std::vector<Chunk> make_chunks(nnz_t nnz, unsigned threadlen, nnz_t max_chunk_nnz) {
  std::vector<Chunk> chunks;
  if (nnz == 0) return chunks;
  UST_EXPECTS(threadlen >= 1);
  const nnz_t partitions = ceil_div<nnz_t>(nnz, threadlen);
  // 16 chunks give a 4-thread pool four per thread of slack for dynamic load
  // balancing. The count reads no pool, so every pool width runs the same
  // grid; a pool wider than 16 threads leaves threads idle in phase 1. A
  // non-zero max_chunk_nnz raises the chunk count until every chunk fits the
  // cap -- the knob the sharder's grid and the tuner's fourth axis share.
  nnz_t target = 16;
  if (max_chunk_nnz != 0) {
    const nnz_t cap_partitions = std::max<nnz_t>(1, max_chunk_nnz / threadlen);
    target = std::max(target, ceil_div<nnz_t>(partitions, cap_partitions));
  }
  const nnz_t n = std::min<nnz_t>(partitions, target);
  chunks.reserve(n);
  for (nnz_t k = 0; k < n; ++k) {
    const nnz_t p0 = k * partitions / n;
    const nnz_t p1 = (k + 1) * partitions / n;  // > p0, as n <= partitions
    chunks.push_back(Chunk{p0 * threadlen, std::min<nnz_t>(p1 * threadlen, nnz)});
  }
  UST_ENSURES(!chunks.empty() && chunks.front().lo == 0 && chunks.back().hi == nnz);
  return chunks;
}

std::vector<ColBlock> make_col_blocks(std::span<const index_t> widths, index_t rank_block,
                                      std::vector<std::size_t>& pass_off) {
  const index_t block = rank_block == 0 ? kAutoRankBlock : rank_block;
  std::vector<ColBlock> blocks;
  std::size_t acc_off = 0;
  for (std::size_t req = 0; req < widths.size(); ++req) {
    for (index_t c0 = 0; c0 < widths[req]; c0 += block) {
      const index_t nc = std::min<index_t>(block, widths[req] - c0);
      blocks.push_back(ColBlock{static_cast<std::uint32_t>(req), c0, nc, acc_off + c0});
    }
    acc_off += widths[req];
  }
  // Greedy pass packing: a pass accumulates at most `block` columns total, so
  // a batch of narrow requests shares one walk of the nnz stream while a
  // wide output still tiles. Splitting and packing never reorder a column's
  // per-non-zero operations, so any (rank_block, batch) combination is
  // bitwise identical to solo full-width runs.
  pass_off.clear();
  index_t pass_cols = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (pass_off.empty() || pass_cols + blocks[i].nc > block) {
      pass_off.push_back(i);
      pass_cols = 0;
    }
    pass_cols += blocks[i].nc;
  }
  pass_off.push_back(blocks.size());
  return blocks;
}

}  // namespace ust::core::native
