#include "inline_mttkrp.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

using ust::index_t;
using ust::value_t;

InlineMttkrp::InlineMttkrp(const ust::CooTensor& x, int mode, ust::ThreadPool& pool)
    : mode_(mode), rows_(x.dim(mode)), pool_(&pool) {
  UST_EXPECTS(x.order() == 3);
  pm0_ = mode == 0 ? 1 : 0;
  pm1_ = mode == 2 ? 1 : 2;
  const std::size_t nnz = x.nnz();

  // Counting sort by the mode index (stable, so ties keep input order).
  const auto idx = x.mode_indices(mode);
  std::vector<std::size_t> start(static_cast<std::size_t>(rows_) + 1, 0);
  for (std::size_t e = 0; e < nnz; ++e) ++start[idx[e] + 1];
  for (std::size_t r = 0; r < rows_; ++r) start[r + 1] += start[r];
  row_.resize(nnz);
  j_.resize(nnz);
  k_.resize(nnz);
  val_.resize(nnz);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  const auto jj = x.mode_indices(pm0_);
  const auto kk = x.mode_indices(pm1_);
  const auto vv = x.values();
  for (std::size_t e = 0; e < nnz; ++e) {
    const std::size_t p = fill[idx[e]]++;
    row_[p] = idx[e];
    j_[p] = jj[e];
    k_[p] = kk[e];
    val_[p] = vv[e];
  }

  // One contiguous row range per rank, cut at the row boundary nearest an
  // equal nnz share.
  const std::size_t parts = pool.size() + 1;
  part_nnz_.push_back(0);
  part_row_.push_back(0);
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t target = nnz * p / parts;
    const auto r = static_cast<index_t>(
        std::lower_bound(start.begin(), start.end(), target) - start.begin());
    const index_t row = std::clamp<index_t>(r, part_row_.back(), rows_);
    part_row_.push_back(row);
    part_nnz_.push_back(start[row]);
  }
  part_nnz_.push_back(nnz);
  part_row_.push_back(rows_);
}

namespace {

template <int kR>
void accumulate(const index_t* row, const index_t* j, const index_t* k, const value_t* val,
                std::size_t lo, std::size_t hi, const value_t* b, const value_t* c,
                value_t* out, index_t rank) {
  const index_t r_cols = kR > 0 ? kR : rank;
  for (std::size_t e = lo; e < hi; ++e) {
    const value_t v = val[e];
    const value_t* brow = b + static_cast<std::size_t>(j[e]) * r_cols;
    const value_t* crow = c + static_cast<std::size_t>(k[e]) * r_cols;
    value_t* orow = out + static_cast<std::size_t>(row[e]) * r_cols;
    // The kernel's axpy2 expression, term for term: acc += v * a * b.
    for (index_t col = 0; col < r_cols; ++col) orow[col] += v * brow[col] * crow[col];
  }
}

}  // namespace

void InlineMttkrp::run(std::span<const ust::DenseMatrix> factors, ust::DenseMatrix& out) const {
  const ust::DenseMatrix& b = factors[static_cast<std::size_t>(pm0_)];
  const ust::DenseMatrix& c = factors[static_cast<std::size_t>(pm1_)];
  const index_t rank = b.cols();
  UST_EXPECTS(c.cols() == rank && out.rows() == rows_ && out.cols() == rank);
  const std::size_t parts = part_nnz_.size() - 1;
  pool_->parallel_ranges(parts, 1, [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      value_t* o = out.data();
      std::memset(o + static_cast<std::size_t>(part_row_[p]) * rank, 0,
                  static_cast<std::size_t>(part_row_[p + 1] - part_row_[p]) * rank *
                      sizeof(value_t));
      const auto lo = part_nnz_[p];
      const auto hi = part_nnz_[p + 1];
      if (rank == 8) {
        accumulate<8>(row_.data(), j_.data(), k_.data(), val_.data(), lo, hi, b.data(),
                      c.data(), o, rank);
      } else if (rank == 16) {
        accumulate<16>(row_.data(), j_.data(), k_.data(), val_.data(), lo, hi, b.data(),
                       c.data(), o, rank);
      } else {
        accumulate<0>(row_.data(), j_.data(), k_.data(), val_.data(), lo, hi, b.data(),
                      c.data(), o, rank);
      }
    }
  });
}

}  // namespace perfbench
