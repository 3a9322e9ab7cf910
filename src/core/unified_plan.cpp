#include "core/unified_plan.hpp"

#include <string>

namespace ust::core {

void validate(const Partitioning& part) { validate(part, UnifiedOptions{}); }

void validate(const Partitioning& part, const UnifiedOptions& opt) {
  if (part.threadlen == 0) throw InvalidOptions("threadlen must be >= 1");
  if (part.block_size == 0) throw InvalidOptions("block_size must be >= 1");
  if (opt.chunk_nnz != 0 && opt.chunk_nnz % part.threadlen != 0) {
    throw InvalidOptions("chunk_nnz (" + std::to_string(opt.chunk_nnz) +
                         ") must be a multiple of threadlen (" +
                         std::to_string(part.threadlen) + ")");
  }
  if (opt.shard.num_devices == 0) {
    throw InvalidOptions("shard.num_devices must be >= 1");
  }
  if (opt.shard.num_devices > 1 && opt.backend != ExecBackend::kNative) {
    throw InvalidOptions("sharded execution requires ExecBackend::kNative");
  }
}

std::size_t unified_shared_bytes(unsigned block_dim, unsigned column_tile) {
  // Mirror of the shared_array calls in unified_block_program, each rounded
  // up to max_align like BlockCtx's bump allocator.
  const std::size_t align = alignof(std::max_align_t);
  auto padded = [&](std::size_t bytes) { return round_up(bytes, align); };
  const std::size_t warps = ceil_div<std::size_t>(block_dim, sim::kWarpSize);
  std::size_t total = 0;
  total += padded(block_dim * sizeof(detail::LaneState));              // states
  total += 2 * padded(std::size_t{block_dim} * column_tile * sizeof(float));  // tails, heads
  total += 2 * padded(block_dim * sizeof(std::uint8_t));               // flags0, flags
  total += padded(warps * sizeof(float));                              // warp_carry
  total += padded(warps * sizeof(std::uint8_t));                       // warp_flag
  total += padded(column_tile * sizeof(float));                        // col_sum
  total += padded(block_dim * sizeof(float));                          // scan_vals
  return total;
}

UnifiedPlan::UnifiedPlan(sim::Device& device, const FcooTensor& fcoo, Partitioning part)
    : device_(&device),
      part_(part),
      nnz_(fcoo.nnz()),
      num_segments_(fcoo.num_segments()),
      dims_(fcoo.dims()),
      index_modes_(fcoo.index_modes()),
      product_modes_(fcoo.product_modes()) {
  validate(part_);
  // nnz == 0 is allowed: all device arrays are empty, both backends launch
  // zero work, and the operation's zero-filled output is already correct.

  // Upload packed bit flags.
  const auto words = fcoo.bit_flags().words();
  bf_words_ = device.alloc<std::uint64_t>(words.size());
  bf_words_.copy_from_host(words);

  // Upload product-mode index arrays and values.
  pidx_.reserve(product_modes_.size());
  for (std::size_t p = 0; p < product_modes_.size(); ++p) {
    auto buf = device.alloc<index_t>(nnz_);
    buf.copy_from_host(fcoo.product_indices(p));
    pidx_.push_back(std::move(buf));
  }
  vals_ = device.alloc<value_t>(nnz_);
  vals_.copy_from_host(fcoo.values());

  // Segment id of each thread partition's first non-zero: a single pass over
  // the head-flag words (the host-side preprocessing the paper amortises).
  const std::vector<index_t> first_seg =
      first_segment_per_partition(words, nnz_, part_.threadlen);
  thread_first_seg_ = device.alloc<index_t>(first_seg.size());
  thread_first_seg_.copy_from_host(first_seg);

  // Output row of each segment: the index-mode coordinate when the output is
  // indexed by a single mode (SpMTTKRP/SpTTMc); the segment ordinal when the
  // output is a semi-sparse tensor whose fibers are stored in segment order
  // (SpTTM).
  std::vector<index_t> rows(num_segments_);
  if (index_modes_.size() == 1) {
    const auto coords = fcoo.segment_coords(0);
    std::copy(coords.begin(), coords.end(), rows.begin());
  } else {
    for (nnz_t s = 0; s < num_segments_; ++s) rows[s] = static_cast<index_t>(s);
  }
  seg_row_ = device.alloc<index_t>(num_segments_);
  seg_row_.copy_from_host(rows);
}

FcooView UnifiedPlan::view() const {
  FcooView v;
  v.bf_words = bf_words_.data();
  v.vals = vals_.data();
  v.thread_first_seg = thread_first_seg_.data();
  v.seg_row = seg_row_.data();
  v.nnz = nnz_;
  v.num_segments = num_segments_;
  v.threadlen = part_.threadlen;
  return v;
}

UnifiedOptions UnifiedPlan::resolve_options(index_t num_cols, UnifiedOptions opt) const {
  if (opt.column_tile != 0) return opt;
  const std::size_t shared_budget = device_->props().shared_mem_per_block;
  unsigned tile = std::max<index_t>(1, num_cols);
  while (tile > 1 && unified_shared_bytes(part_.block_size, tile) > shared_budget) {
    tile = (tile + 1) / 2;
  }
  // Keep enough blocks in flight to occupy the pool (plus slack for dynamic
  // load balancing).
  const std::size_t workers = device_->pool().size() + 1;
  while (tile > 1 &&
         part_.num_blocks(nnz_) * ceil_div<index_t>(num_cols, tile) < 3 * workers) {
    tile = (tile + 1) / 2;
  }
  opt.column_tile = tile;
  return opt;
}

sim::LaunchConfig UnifiedPlan::launch_config(index_t num_cols, const UnifiedOptions& opt) const {
  UST_EXPECTS(opt.column_tile >= 1);
  sim::LaunchConfig cfg;
  cfg.block_dim = part_.block_size;
  cfg.grid.x = static_cast<unsigned>(part_.num_blocks(nnz_));
  cfg.grid.y = static_cast<unsigned>(ceil_div<index_t>(num_cols, opt.column_tile));
  cfg.shared_bytes = unified_shared_bytes(part_.block_size, opt.column_tile);
  return cfg;
}

std::size_t UnifiedPlan::device_bytes() const {
  std::size_t bytes = bf_words_.byte_size() + vals_.byte_size() +
                      thread_first_seg_.byte_size() + seg_row_.byte_size();
  for (const auto& b : pidx_) bytes += b.byte_size();
  return bytes;
}

}  // namespace ust::core
