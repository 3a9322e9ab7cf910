// The benchmark's own reference kernel for core.vs_inline: SpMTTKRP as one
// plain loop over mode-sorted COO, the arithmetic the unified kernel does
// (per non-zero: product of the other factor rows, scaled by the value, then
// added -- mul-then-add, no fused multiply-add) with none of its machinery.
// Rows are split across the pool's workers in contiguous, nnz-balanced
// ranges, so every output row has exactly one writer and no atomics or
// fold are needed. 3-order tensors only.
#pragma once

#include <span>
#include <vector>

#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

class InlineMttkrp {
 public:
  /// Sorts a copy of the coordinates by the `mode` index (the mode-sorted
  /// COO the loop walks) and cuts it into one row range per pool rank.
  InlineMttkrp(const ust::CooTensor& x, int mode, ust::ThreadPool& pool);

  /// out (dims[mode] x R) = MTTKRP of the tensor with factors[other modes].
  void run(std::span<const ust::DenseMatrix> factors, ust::DenseMatrix& out) const;

 private:
  int mode_;
  int pm0_, pm1_;  // product modes, ascending
  ust::index_t rows_;
  std::vector<ust::index_t> row_, j_, k_;
  std::vector<ust::value_t> val_;
  std::vector<std::size_t> part_nnz_;     // nnz offset of each rank's range
  std::vector<ust::index_t> part_row_;    // first row of each rank's range
  ust::ThreadPool* pool_;
};

}  // namespace perfbench
