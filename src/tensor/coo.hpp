// Coordinate (COO) sparse tensor: the general-purpose N-order format every
// other format in UST is constructed from. Stores one index array per mode
// plus a value array (structure-of-arrays), matching the layout the paper's
// Table II charges at 16 bytes/nnz for a 3-order tensor.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace ust {

class ThreadPool;

/// Smallest run of non-zeros one worker takes in a sort or gather pass; a
/// tensor of at most one block is sorted on the caller alone.
inline constexpr nnz_t kSortBlock = nnz_t{1} << 15;

class CooTensor {
 public:
  CooTensor() = default;
  /// Creates an empty tensor with the given mode sizes.
  explicit CooTensor(std::vector<index_t> dims);

  int order() const noexcept { return static_cast<int>(dims_.size()); }
  index_t dim(int m) const {
    UST_EXPECTS(m >= 0 && m < order());
    return dims_[static_cast<std::size_t>(m)];
  }
  const std::vector<index_t>& dims() const noexcept { return dims_; }
  nnz_t nnz() const noexcept { return vals_.size(); }

  /// Fraction of non-zero positions (nnz / prod(dims)), as in Table IV.
  double density() const;

  void reserve(nnz_t n);
  /// Appends one non-zero; idx.size() must equal order().
  void push_back(std::span<const index_t> idx, value_t v);

  /// Read-only: push_back is the one writer, so every index stays below its
  /// mode's size (the sort's digit widths rely on it).
  std::span<const index_t> mode_indices(int m) const {
    UST_EXPECTS(m >= 0 && m < order());
    return idx_[static_cast<std::size_t>(m)];
  }
  std::span<const value_t> values() const noexcept { return vals_; }
  std::span<value_t> values() noexcept { return vals_; }

  index_t index(nnz_t x, int m) const { return idx_[static_cast<std::size_t>(m)][x]; }
  value_t value(nnz_t x) const { return vals_[x]; }

  /// Stable lexicographic order of the non-zeros by `mode_order`
  /// (mode_order[0] is the most significant key; a permutation of
  /// {0..order-1}): entry r is the input position of the r-th non-zero, and
  /// equal coordinates keep their input order. One LSD counting sort, one
  /// pass per digit of at most 16 bits; each pass runs its fixed blocks on
  /// `pool` when given and the tensor spans more than one block. A stable
  /// order is unique, so the result never depends on the pool.
  std::vector<std::uint32_t> sort_permutation(std::span<const int> mode_order,
                                              ThreadPool* pool = nullptr) const;
  /// Reorders the non-zeros by sort_permutation(mode_order).
  void sort_by_modes(std::span<const int> mode_order);
  /// True if non-zeros are sorted lexicographically by mode_order.
  bool is_sorted_by(std::span<const int> mode_order) const;

  /// Sums duplicate coordinates (requires any lexicographic sort first; after
  /// sort_by_modes they sum in input order) and drops explicit zeros,
  /// including sums that cancel to zero. Returns the number of entries
  /// removed.
  nnz_t coalesce();

  /// Number of distinct non-empty fibers when fixing `fixed_modes` (i.e.
  /// distinct tuples over those modes). Requires no particular order.
  nnz_t count_distinct(std::span<const int> fixed_modes) const;

  /// Frobenius norm of the tensor.
  double frobenius_norm() const;

  /// COO storage footprint in bytes (order * 4 + 4 per nnz), Table II.
  std::size_t storage_bytes() const {
    return nnz() * (static_cast<std::size_t>(order()) * sizeof(index_t) + sizeof(value_t));
  }

  /// Human-readable "I x J x K, nnz=..., density=..." description.
  std::string describe() const;

  /// Validates all indices are within bounds; throws ContractViolation.
  void validate() const;

 private:
  // FcooTensor::build sorts a copy through sorted_copy and moves its
  // product-mode columns and values out.
  friend class FcooTensor;

  /// A copy with the non-zeros in sort_permutation(mode_order, pool) order,
  /// gathered in fixed blocks on `pool` too.
  CooTensor sorted_copy(std::span<const int> mode_order, ThreadPool* pool) const;

  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> idx_;  // idx_[mode][nonzero]
  std::vector<value_t> vals_;
};

/// Returns {0,..,order-1} with `front_modes` moved to the front, preserving
/// the relative order of the rest; used to build sort orders like
/// (index modes..., product modes...).
std::vector<int> modes_front(int order, std::span<const int> front_modes);

}  // namespace ust
