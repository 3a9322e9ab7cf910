// F-COO (flagged coordinate): the paper's unified sparse tensor format
// (Section IV-B). Non-zeros are sorted so that all entries of one index-mode
// segment (a fiber for SpTTM, a slice for SpMTTKRP) are contiguous. Only the
// product-mode indices are stored per non-zero; index-mode *changes* are
// recorded in a 1-bit-per-nnz bit-flag array (bf). A start-flag array (sf),
// derived from a partitioning (threadlen non-zeros per thread), marks whether
// each thread's partition begins a new segment.
//
// Convention (see DESIGN.md §5): bf uses head flags -- bit x == 1 iff
// non-zero x is the first of its segment. sf bit t == 1 iff partition t's
// first non-zero is a segment head. In addition to the paper's arrays, UST
// stores one output coordinate per *segment* (`seg_out`), which makes empty
// slices correct; it is accounted separately so Table II's formula can be
// reproduced exactly.
#pragma once

#include <span>
#include <vector>

#include "tensor/coo.hpp"
#include "util/bits.hpp"
#include "util/common.hpp"

namespace ust {

/// Thread/block partitioning of the non-zeros, tuned per dataset (Table V).
struct Partitioning {
  unsigned threadlen = 8;    // non-zeros processed per thread
  unsigned block_size = 128; // threads per block (1-D blocks)

  nnz_t nnz_per_block() const noexcept {
    return static_cast<nnz_t>(threadlen) * block_size;
  }
  nnz_t num_threads(nnz_t nnz) const noexcept { return ceil_div<nnz_t>(nnz, threadlen); }
  nnz_t num_blocks(nnz_t nnz) const noexcept { return ceil_div<nnz_t>(nnz, nnz_per_block()); }
};

/// Segment id of each threadlen-partition's first element over [0, nnz),
/// where `bf` holds the head flags (bit x of word x/64): the id starts at 0
/// and increments at every head strictly after position 0. Shared by
/// UnifiedPlan (global bf) and the streaming executor's chunk-local plans
/// (bf slice) so the partition-to-segment convention can never diverge
/// between them. Counts a word at a time.
std::vector<index_t> first_segment_per_partition(std::span<const std::uint64_t> bf, nnz_t nnz,
                                                 unsigned threadlen);

class FcooTensor {
 public:
  FcooTensor() = default;

  /// Builds F-COO from `coo` for an operation whose index modes and product
  /// modes are as given (Table I). The input need not be sorted or deduped:
  /// a copy is sorted (the sort and its gather run on `pool` when given) and
  /// coalesced, so duplicates sum in input order and zero sums drop, exactly
  /// as sort_by_modes + coalesce. index_modes and product_modes together
  /// must be a partition of {0..order-1}.
  static FcooTensor build(const CooTensor& coo, std::span<const int> index_modes,
                          std::span<const int> product_modes, ThreadPool* pool = nullptr);

  int order() const noexcept { return static_cast<int>(dims_.size()); }
  const std::vector<index_t>& dims() const noexcept { return dims_; }
  nnz_t nnz() const noexcept { return vals_.size(); }
  nnz_t num_segments() const noexcept { return seg_count_; }

  const std::vector<int>& index_modes() const noexcept { return index_modes_; }
  const std::vector<int>& product_modes() const noexcept { return product_modes_; }

  /// Index array of the p-th product mode (p indexes into product_modes()).
  std::span<const index_t> product_indices(std::size_t p) const {
    UST_EXPECTS(p < pidx_.size());
    return pidx_[p];
  }
  std::span<const value_t> values() const noexcept { return vals_; }
  const BitArray& bit_flags() const noexcept { return bf_; }
  bool is_head(nnz_t x) const { return bf_.get(x); }

  /// Segment number of non-zero x (0-based, increasing in storage order).
  nnz_t segment_of(nnz_t x) const {
    UST_EXPECTS(x < nnz());
    return bf_.rank(x + 1) - 1;
  }

  /// Coordinate of segment s in the m-th index mode (m indexes into
  /// index_modes()).
  index_t segment_coord(nnz_t s, std::size_t m) const {
    UST_EXPECTS(m < seg_idx_.size());
    return seg_idx_[m][s];
  }
  std::span<const index_t> segment_coords(std::size_t m) const {
    UST_EXPECTS(m < seg_idx_.size());
    return seg_idx_[m];
  }

  /// True if every possible index-mode tuple has at least one non-zero
  /// (the paper's "index mode is dense" assumption, under which seg_out is
  /// the identity and can be elided).
  bool index_mode_dense() const;

  /// Start flags for the given threadlen: bit per thread partition.
  BitArray start_flags(unsigned threadlen) const;

  /// --- Storage accounting -------------------------------------------------
  /// Bytes for the arrays the paper's Table II charges: product-mode indices,
  /// values, bf, and sf for `threadlen`.
  std::size_t paper_storage_bytes(unsigned threadlen) const;
  /// Total measured bytes including the per-segment output coordinates.
  std::size_t measured_storage_bytes(unsigned threadlen) const;
  /// The Table II closed-form (bytes/nnz * nnz) for cross-checking.
  static std::size_t table2_formula_bytes(nnz_t nnz, std::size_t num_product_modes,
                                          unsigned threadlen);

  /// Rebuilds the COO tensor (indices from product modes + segment coords);
  /// used by round-trip tests.
  CooTensor reconstruct_coo() const;

 private:
  std::vector<index_t> dims_;
  std::vector<int> index_modes_;
  std::vector<int> product_modes_;
  std::vector<std::vector<index_t>> pidx_;  // [product mode][nnz]
  std::vector<value_t> vals_;
  BitArray bf_;                              // head flags, 1 bit per nnz
  std::vector<std::vector<index_t>> seg_idx_;  // [index mode][segment]
  nnz_t seg_count_ = 0;
};

}  // namespace ust
