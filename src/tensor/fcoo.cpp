#include "tensor/fcoo.hpp"

#include <algorithm>

namespace ust {

FcooTensor FcooTensor::build(const CooTensor& coo, std::span<const int> index_modes,
                             std::span<const int> product_modes, ThreadPool* pool) {
  UST_EXPECTS(!index_modes.empty());
  UST_EXPECTS(!product_modes.empty());
  UST_EXPECTS(static_cast<int>(index_modes.size() + product_modes.size()) == coo.order());
  {
    // The two mode lists must partition {0..order-1}.
    std::vector<bool> seen(static_cast<std::size_t>(coo.order()), false);
    for (int m : index_modes) {
      UST_EXPECTS(m >= 0 && m < coo.order() && !seen[static_cast<std::size_t>(m)]);
      seen[static_cast<std::size_t>(m)] = true;
    }
    for (int m : product_modes) {
      UST_EXPECTS(m >= 0 && m < coo.order() && !seen[static_cast<std::size_t>(m)]);
      seen[static_cast<std::size_t>(m)] = true;
    }
  }

  // Sort a copy by (index modes..., product modes...) and coalesce, so that
  // each index-mode segment is contiguous and coordinates are unique.
  std::vector<int> sort_order(index_modes.begin(), index_modes.end());
  sort_order.insert(sort_order.end(), product_modes.begin(), product_modes.end());
  CooTensor sorted = coo.sorted_copy(sort_order, pool);
  sorted.coalesce();

  FcooTensor f;
  f.dims_ = sorted.dims();
  f.index_modes_.assign(index_modes.begin(), index_modes.end());
  f.product_modes_.assign(product_modes.begin(), product_modes.end());

  // The values and product-mode indices move out of the sorted copy; its
  // index-mode columns stay for the head flags.
  const nnz_t n = sorted.nnz();
  f.vals_ = std::move(sorted.vals_);
  for (int m : product_modes) {
    f.pidx_.push_back(std::move(sorted.idx_[static_cast<std::size_t>(m)]));
  }

  // Head flags: non-zero x starts a segment iff any index-mode coordinate
  // differs from x-1 (non-zero 0 is always a head).
  f.bf_ = BitArray(n);
  f.seg_idx_.resize(index_modes.size());
  for (nnz_t x = 0; x < n; ++x) {
    bool head = (x == 0);
    if (!head) {
      for (int m : index_modes) {
        if (sorted.index(x, m) != sorted.index(x - 1, m)) {
          head = true;
          break;
        }
      }
    }
    if (head) {
      f.bf_.set(x, true);
      for (std::size_t m = 0; m < index_modes.size(); ++m) {
        f.seg_idx_[m].push_back(sorted.index(x, index_modes[m]));
      }
    }
  }
  f.seg_count_ = f.seg_idx_.empty() ? 0 : f.seg_idx_[0].size();
  UST_ENSURES(n == 0 || f.seg_count_ > 0);
  return f;
}

std::vector<index_t> first_segment_per_partition(std::span<const std::uint64_t> bf, nnz_t nnz,
                                                 unsigned threadlen) {
  UST_EXPECTS(threadlen >= 1);
  UST_EXPECTS(bf.size() >= ceil_div<nnz_t>(nnz, 64));
  std::vector<index_t> first_seg(ceil_div<nnz_t>(nnz, threadlen));
  if (nnz == 0) return first_seg;
  // The segment open at x is the number of heads in [1, x]; each partition
  // adds the heads since the previous partition's first non-zero.
  nnz_t seg = 0;
  nnz_t at = 0;
  for (nnz_t t = 0; t < first_seg.size(); ++t) {
    const nnz_t x = t * threadlen;
    seg += count_ones(bf, at + 1, x + 1);
    at = x;
    first_seg[t] = static_cast<index_t>(seg);
  }
  return first_seg;
}

bool FcooTensor::index_mode_dense() const {
  double tuples = 1.0;
  for (int m : index_modes_) tuples *= static_cast<double>(dims_[static_cast<std::size_t>(m)]);
  return static_cast<double>(seg_count_) == tuples;
}

BitArray FcooTensor::start_flags(unsigned threadlen) const {
  UST_EXPECTS(threadlen >= 1);
  const nnz_t threads = ceil_div<nnz_t>(nnz(), threadlen);
  BitArray sf(threads);
  for (nnz_t t = 0; t < threads; ++t) {
    sf.set(t, bf_.get(t * threadlen));
  }
  return sf;
}

std::size_t FcooTensor::paper_storage_bytes(unsigned threadlen) const {
  UST_EXPECTS(threadlen >= 1);
  const nnz_t n = nnz();
  std::size_t bytes = 0;
  bytes += pidx_.size() * n * sizeof(index_t);        // product-mode indices
  bytes += n * sizeof(value_t);                       // values
  bytes += bf_.byte_size();                           // 1 bit per nnz
  bytes += ceil_div<nnz_t>(ceil_div<nnz_t>(n, threadlen), 8);  // sf: 1 bit per thread
  return bytes;
}

std::size_t FcooTensor::measured_storage_bytes(unsigned threadlen) const {
  std::size_t bytes = paper_storage_bytes(threadlen);
  for (const auto& col : seg_idx_) bytes += col.size() * sizeof(index_t);
  return bytes;
}

std::size_t FcooTensor::table2_formula_bytes(nnz_t nnz, std::size_t num_product_modes,
                                             unsigned threadlen) {
  // (4*P + 4 + 1/8 + 1/(8*threadlen)) bytes per non-zero; Table II's SpTTM
  // row is P=1 (8 + 1/8 + ...) and the SpMTTKRP row is P=2 (12 + ...).
  const double per_nnz = 4.0 * static_cast<double>(num_product_modes) + 4.0 + 1.0 / 8.0 +
                         1.0 / (8.0 * threadlen);
  return static_cast<std::size_t>(per_nnz * static_cast<double>(nnz));
}

CooTensor FcooTensor::reconstruct_coo() const {
  CooTensor coo(dims_);
  coo.reserve(nnz());
  std::vector<index_t> idx(static_cast<std::size_t>(order()));
  nnz_t seg = 0;
  for (nnz_t x = 0; x < nnz(); ++x) {
    if (bf_.get(x) && x != 0) ++seg;
    if (x == 0) seg = 0;
    for (std::size_t m = 0; m < index_modes_.size(); ++m) {
      idx[static_cast<std::size_t>(index_modes_[m])] = seg_idx_[m][seg];
    }
    for (std::size_t p = 0; p < product_modes_.size(); ++p) {
      idx[static_cast<std::size_t>(product_modes_[p])] = pidx_[p][x];
    }
    coo.push_back(idx, vals_[x]);
  }
  return coo;
}

}  // namespace ust
