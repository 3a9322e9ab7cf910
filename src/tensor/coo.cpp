#include "tensor/coo.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace ust {

CooTensor::CooTensor(std::vector<index_t> dims) : dims_(std::move(dims)) {
  UST_EXPECTS(!dims_.empty());
  for (index_t d : dims_) UST_EXPECTS(d > 0);
  idx_.resize(dims_.size());
}

double CooTensor::density() const {
  double cells = 1.0;
  for (index_t d : dims_) cells *= static_cast<double>(d);
  return cells == 0.0 ? 0.0 : static_cast<double>(nnz()) / cells;
}

void CooTensor::reserve(nnz_t n) {
  for (auto& v : idx_) v.reserve(n);
  vals_.reserve(n);
}

void CooTensor::push_back(std::span<const index_t> idx, value_t v) {
  UST_EXPECTS(idx.size() == dims_.size());
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    UST_EXPECTS(idx[m] < dims_[m]);
    idx_[m].push_back(idx[m]);
  }
  vals_.push_back(v);
}

namespace {

/// Cap on a sort pass's block count, which bounds its per-block histograms.
constexpr nnz_t kMaxSortBlocks = 64;

/// One digit of the LSD counting sort: `bits` bits of mode `mode`'s index,
/// starting at bit `shift`.
struct Digit {
  int mode;
  unsigned shift;
  unsigned bits;
};

}  // namespace

std::vector<std::uint32_t> CooTensor::sort_permutation(std::span<const int> mode_order,
                                                       ThreadPool* pool) const {
  UST_EXPECTS(static_cast<int>(mode_order.size()) == order());
  const nnz_t n = nnz();
  UST_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());

  // Digits least significant first: the last mode's low digit leads. A mode
  // of size 1 needs no digit; a mode wider than `max_bits` splits into even
  // digits. Digits no wider than bit_width(n) (but at least 8 bits) keep a
  // small tensor's histograms O(n) instead of 2^16 buckets.
  const auto max_bits = std::clamp(static_cast<unsigned>(std::bit_width(n)), 8u, 16u);
  std::vector<Digit> digits;
  for (auto m = mode_order.rbegin(); m != mode_order.rend(); ++m) {
    const auto bits = static_cast<unsigned>(std::bit_width(dim(*m) - 1));
    const unsigned passes = ceil_div(bits, max_bits);
    for (unsigned p = 0; p < passes; ++p) {
      const unsigned lo = bits * p / passes;
      digits.push_back({*m, lo, bits * (p + 1) / passes - lo});
    }
  }

  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  if (digits.empty()) return perm;
  std::vector<std::uint32_t> next(n);
  // Per-block histograms: the block count is capped so they stay small; any
  // blocking gives the same stable order.
  const nnz_t block = std::max(kSortBlock, ceil_div<nnz_t>(n, kMaxSortBlocks));
  const std::size_t blocks = ceil_div<nnz_t>(n, block);
  std::vector<std::uint32_t> offsets;  // [block][bucket]
  std::vector<std::uint32_t> start;    // [bucket]
  for (const Digit& d : digits) {
    const index_t* col = idx_[static_cast<std::size_t>(d.mode)].data();
    const std::size_t buckets = std::size_t{1} << d.bits;
    const auto mask = static_cast<index_t>(buckets - 1);
    offsets.assign(blocks * buckets, 0);
    for_each_block(pool, n, block, [&](std::size_t b, std::size_t lo, std::size_t hi) {
      std::uint32_t* count = offsets.data() + b * buckets;
      for (std::size_t r = lo; r < hi; ++r) ++count[(col[perm[r]] >> d.shift) & mask];
    });
    // Exclusive offsets in (bucket, block) order: a block's entries of one
    // bucket land after every earlier block's, which keeps the pass stable.
    start.assign(buckets, 0);
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t k = 0; k < buckets; ++k) start[k] += offsets[b * buckets + k];
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& s : start) {
      const std::uint32_t total = s;
      s = sum;
      sum += total;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t k = 0; k < buckets; ++k) {
        const std::uint32_t count = offsets[b * buckets + k];
        offsets[b * buckets + k] = start[k];
        start[k] += count;
      }
    }
    for_each_block(pool, n, block, [&](std::size_t b, std::size_t lo, std::size_t hi) {
      std::uint32_t* pos = offsets.data() + b * buckets;
      for (std::size_t r = lo; r < hi; ++r) {
        const std::uint32_t x = perm[r];
        next[pos[(col[x] >> d.shift) & mask]++] = x;
      }
    });
    perm.swap(next);
  }
  return perm;
}

void CooTensor::sort_by_modes(std::span<const int> mode_order) {
  const std::vector<std::uint32_t> perm = sort_permutation(mode_order);
  const nnz_t n = perm.size();
  // Apply the permutation out of place (simple and cache-friendly for the
  // sizes used here).
  for (auto& col : idx_) {
    std::vector<index_t> tmp(n);
    for (nnz_t i = 0; i < n; ++i) tmp[i] = col[perm[i]];
    col = std::move(tmp);
  }
  std::vector<value_t> tmp(n);
  for (nnz_t i = 0; i < n; ++i) tmp[i] = vals_[perm[i]];
  vals_ = std::move(tmp);
}

CooTensor CooTensor::sorted_copy(std::span<const int> mode_order, ThreadPool* pool) const {
  const std::vector<std::uint32_t> perm = sort_permutation(mode_order, pool);
  CooTensor out(dims_);
  for (auto& col : out.idx_) col.resize(perm.size());
  out.vals_.resize(perm.size());
  for_each_block(pool, perm.size(), kSortBlock, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t m = 0; m < idx_.size(); ++m) {
      for (std::size_t r = lo; r < hi; ++r) out.idx_[m][r] = idx_[m][perm[r]];
    }
    for (std::size_t r = lo; r < hi; ++r) out.vals_[r] = vals_[perm[r]];
  });
  return out;
}

bool CooTensor::is_sorted_by(std::span<const int> mode_order) const {
  UST_EXPECTS(static_cast<int>(mode_order.size()) == order());
  for (nnz_t x = 1; x < nnz(); ++x) {
    for (int m : mode_order) {
      const auto& col = idx_[static_cast<std::size_t>(m)];
      if (col[x - 1] < col[x]) break;
      if (col[x - 1] > col[x]) return false;
    }
  }
  return true;
}

nnz_t CooTensor::coalesce() {
  const nnz_t n = nnz();
  if (n == 0) return 0;
  auto same_coord = [&](nnz_t a, nnz_t b) {
    for (const auto& col : idx_) {
      if (col[a] != col[b]) return false;
    }
    return true;
  };
  nnz_t write = 0;
  for (nnz_t read = 0; read < n; ++read) {
    if (write > 0 && same_coord(write - 1, read)) {
      vals_[write - 1] += vals_[read];
      continue;
    }
    if (write != read) {
      for (auto& col : idx_) col[write] = col[read];
      vals_[write] = vals_[read];
    }
    ++write;
  }
  // Drop explicit zeros produced by cancellation.
  nnz_t keep = 0;
  for (nnz_t x = 0; x < write; ++x) {
    if (vals_[x] == value_t{0}) continue;
    if (keep != x) {
      for (auto& col : idx_) col[keep] = col[x];
      vals_[keep] = vals_[x];
    }
    ++keep;
  }
  for (auto& col : idx_) col.resize(keep);
  vals_.resize(keep);
  return n - keep;
}

nnz_t CooTensor::count_distinct(std::span<const int> fixed_modes) const {
  UST_EXPECTS(!fixed_modes.empty());
  // Hash the fixed-mode tuple of each non-zero. 64-bit mixing of up to a few
  // 32-bit coordinates is collision-safe for the sizes involved here.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(nnz()));
  for (nnz_t x = 0; x < nnz(); ++x) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int m : fixed_modes) {
      h ^= idx_[static_cast<std::size_t>(m)][x] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    seen.insert(h);
  }
  return seen.size();
}

double CooTensor::frobenius_norm() const {
  double sum = 0.0;
  for (value_t v : vals_) sum += static_cast<double>(v) * v;
  return std::sqrt(sum);
}

std::string CooTensor::describe() const {
  std::string s;
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    if (m != 0) s += " x ";
    s += std::to_string(dims_[m]);
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, ", nnz=%llu, density=%.2e",
                static_cast<unsigned long long>(nnz()), density());
  return s + buf;
}

void CooTensor::validate() const {
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    UST_ENSURES(idx_[m].size() == vals_.size());
    for (index_t v : idx_[m]) UST_ENSURES(v < dims_[m]);
  }
}

std::vector<int> modes_front(int order, std::span<const int> front_modes) {
  UST_EXPECTS(order >= 1);
  std::vector<bool> in_front(static_cast<std::size_t>(order), false);
  std::vector<int> result;
  result.reserve(static_cast<std::size_t>(order));
  for (int m : front_modes) {
    UST_EXPECTS(m >= 0 && m < order);
    UST_EXPECTS(!in_front[static_cast<std::size_t>(m)]);
    in_front[static_cast<std::size_t>(m)] = true;
    result.push_back(m);
  }
  for (int m = 0; m < order; ++m) {
    if (!in_front[static_cast<std::size_t>(m)]) result.push_back(m);
  }
  return result;
}

}  // namespace ust
