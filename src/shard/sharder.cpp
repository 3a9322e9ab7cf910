#include "shard/sharder.hpp"

#include "util/bits.hpp"

namespace ust::shard {

ShardingResult make_shards(nnz_t nnz, std::span<const std::uint64_t> bf_words,
                           unsigned threadlen, nnz_t chunk_nnz,
                           const core::ShardOptions& opt) {
  UST_EXPECTS(opt.num_devices >= 1);
  ShardingResult result;
  result.total_nnz = nnz;
  result.shards.resize(opt.num_devices);
  if (nnz == 0) return result;

  const std::vector<core::native::Chunk> grid =
      core::native::make_chunks(nnz, threadlen, chunk_nnz);
  result.grid_chunks = grid.size();

  // Per-chunk balance weight and its prefix sum. cum[i] = weight of chunks
  // [0, i), so cum.back() is the total.
  std::vector<nnz_t> cum(grid.size() + 1, 0);
  for (std::size_t c = 0; c < grid.size(); ++c) {
    const nnz_t w = opt.balance == core::ShardBalance::kNnz
                        ? grid[c].hi - grid[c].lo
                        : count_ones(bf_words, grid[c].lo, grid[c].hi);
    cum[c + 1] = cum[c] + w;
  }
  const nnz_t total = cum.back();

  // cut_d = smallest chunk index whose weight prefix reaches d/D of the
  // total (integer arithmetic; cuts are monotone, so shards are contiguous
  // and possibly empty).
  const nnz_t devices = opt.num_devices;
  std::vector<std::size_t> cut(opt.num_devices + 1, grid.size());
  cut[0] = 0;
  std::size_t c = 0;
  for (nnz_t d = 1; d < devices; ++d) {
    while (c < grid.size() && cum[c] * devices < d * total) ++c;
    cut[static_cast<std::size_t>(d)] = c;
  }

  for (unsigned d = 0; d < opt.num_devices; ++d) {
    pipeline::StreamChunk& s = result.shards[d];
    const std::size_t first = cut[d];
    const std::size_t last = cut[d + 1];
    // Empty shard: anchor it at the boundary so lo == hi is well defined.
    s.lo = first < grid.size() ? grid[first].lo : nnz;
    s.hi = s.lo;
    for (std::size_t g = first; g < last; ++g) {
      s.workers.push_back(core::native::Chunk{grid[g].lo - s.lo, grid[g].hi - s.lo});
      s.hi = grid[g].hi;
    }
  }
  UST_ENSURES(result.shards.front().lo == 0 && result.shards.back().hi == nnz);

  // Segment metadata from the head flags, a word at a time (an empty shard
  // gets no segments).
  pipeline::annotate_segments(bf_words, nnz, result.shards);
  return result;
}

}  // namespace ust::shard
