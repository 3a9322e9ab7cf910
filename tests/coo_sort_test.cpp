// Tests for the one sort behind every format build (DESIGN.md §3):
// CooTensor::sort_permutation's stable LSD counting sort against
// std::stable_sort with the lexicographic comparator, at pool widths
// 1/2/3/4/8 and across orders, duplicate-heavy data, size-1 modes, modes
// wider than one 16-bit digit and nnz 0 and 1; FcooTensor::build, whose
// sort and gather run on the pool, against sort_by_modes + coalesce on a
// copy; and duplicate coalescing pinned to input order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/mode_plan.hpp"
#include "tensor/coo.hpp"
#include "tensor/fcoo.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ust {
namespace {

constexpr unsigned kPoolWidths[] = {1, 2, 3, 4, 8};

/// Random tensor of the given shape whose coordinates are drawn from a small
/// set of `distinct` cells per mode, so duplicates are common; values are
/// small integers, a few of them explicit zeros.
CooTensor random_tensor(Prng& rng, const std::vector<index_t>& dims, nnz_t nnz,
                        index_t distinct) {
  CooTensor t(dims);
  std::vector<index_t> idx(dims.size());
  for (nnz_t x = 0; x < nnz; ++x) {
    for (std::size_t m = 0; m < dims.size(); ++m) {
      const index_t cell = rng.next_index(std::min(distinct, dims[m]));
      // Spread the chosen cells over the whole mode, top bits included.
      idx[m] = static_cast<index_t>((std::uint64_t{cell} * 2654435761u) % dims[m]);
    }
    t.push_back(idx, static_cast<value_t>(static_cast<int>(rng.next_index(7)) - 3));
  }
  return t;
}

std::vector<std::uint32_t> stable_reference(const CooTensor& t, std::span<const int> order) {
  std::vector<std::uint32_t> perm(t.nnz());
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    for (int m : order) {
      if (t.index(a, m) != t.index(b, m)) return t.index(a, m) < t.index(b, m);
    }
    return false;
  });
  return perm;
}

bool same_bits(value_t a, value_t b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Bitwise equality of two COO tensors in storage order.
void expect_same_coo(const CooTensor& got, const CooTensor& want) {
  ASSERT_EQ(got.dims(), want.dims());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (int m = 0; m < want.order(); ++m) {
    const auto g = got.mode_indices(m);
    const auto w = want.mode_indices(m);
    EXPECT_TRUE(std::equal(g.begin(), g.end(), w.begin())) << "mode " << m;
  }
  for (nnz_t x = 0; x < want.nnz(); ++x) {
    ASSERT_TRUE(same_bits(got.value(x), want.value(x))) << "value " << x;
  }
}

/// Shapes covering orders 2-5, size-1 modes and modes above 65536 (two
/// digits even at the 16-bit cap).
const std::vector<std::vector<index_t>>& shapes() {
  static const std::vector<std::vector<index_t>> s = {
      {5, 7},       {70000, 3},       {1, 9, 4},       {300, 1, 70001},
      {6, 5, 4, 3}, {2, 1, 66000, 1}, {3, 4, 2, 5, 6}, {1, 1, 1}};
  return s;
}

TEST(CooSort, PermutationMatchesStableSortAtEveryPoolWidth) {
  Prng rng(0xC005);
  for (const auto& dims : shapes()) {
    for (const nnz_t nnz : {nnz_t{0}, nnz_t{1}, nnz_t{700}, nnz_t{3 * kSortBlock + 17}}) {
      const CooTensor t = random_tensor(rng, dims, nnz, 40);
      std::vector<int> order(dims.size());
      std::iota(order.begin(), order.end(), 0);
      for (int shuffle = 0; shuffle < 2; ++shuffle) {
        rng.shuffle(order.begin(), order.end());
        const auto want = stable_reference(t, order);
        EXPECT_EQ(t.sort_permutation(order), want);
        for (const unsigned width : kPoolWidths) {
          ThreadPool pool(width);
          EXPECT_EQ(t.sort_permutation(order, &pool), want)
              << t.describe() << ", pool " << width;
        }
      }
    }
  }
}

TEST(CooSort, SortByModesGathersTheStableOrder) {
  Prng rng(0x50B7);
  for (const auto& dims : shapes()) {
    const CooTensor t = random_tensor(rng, dims, 2 * kSortBlock + 5, 60);
    std::vector<int> order(dims.size());
    std::iota(order.rbegin(), order.rend(), 0);
    CooTensor want(dims);
    for (const std::uint32_t x : stable_reference(t, order)) {
      std::vector<index_t> idx(dims.size());
      for (int m = 0; m < t.order(); ++m) idx[static_cast<std::size_t>(m)] = t.index(x, m);
      want.push_back(idx, t.value(x));
    }
    CooTensor got = t;
    got.sort_by_modes(order);
    EXPECT_TRUE(got.is_sorted_by(order));
    expect_same_coo(got, want);
  }
}

TEST(CooSort, FcooBuildEqualsSortAndCoalesceOnACopy) {
  Prng rng(0xF00C);
  const std::vector<std::vector<index_t>> fcoo_shapes = {
      {9, 70000, 4}, {30, 1, 20}, {6, 5, 4, 3}, {40, 70001}};
  for (const auto& dims : fcoo_shapes) {
    // Few distinct cells: many duplicates, explicit zeros and cancelled sums.
    const CooTensor t = random_tensor(rng, dims, 2 * kSortBlock + 99, 12);
    const int order = static_cast<int>(dims.size());
    for (int mode = 0; mode < order; ++mode) {
      for (const core::ModePlan& mp : {core::make_mode_plan_spmttkrp(order, mode),
                                       core::make_mode_plan_spttm(order, mode)}) {
        std::vector<int> sort_order = mp.index_modes;
        sort_order.insert(sort_order.end(), mp.product_modes.begin(), mp.product_modes.end());
        CooTensor want = t;
        want.sort_by_modes(sort_order);
        want.coalesce();
        for (const unsigned width : {1u, 3u, 8u}) {
          ThreadPool pool(width);
          const FcooTensor f = FcooTensor::build(t, mp.index_modes, mp.product_modes, &pool);
          ASSERT_EQ(f.nnz(), want.nnz());
          for (std::size_t p = 0; p < mp.product_modes.size(); ++p) {
            const auto got = f.product_indices(p);
            const auto ref = want.mode_indices(mp.product_modes[p]);
            EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin()));
          }
          for (nnz_t x = 0; x < want.nnz(); ++x) {
            ASSERT_TRUE(same_bits(f.values()[x], want.value(x))) << "value " << x;
            ASSERT_NE(f.values()[x], value_t{0});
            bool head = x == 0;
            for (int m : mp.index_modes) head = head || want.index(x, m) != want.index(x - 1, m);
            ASSERT_EQ(f.is_head(x), head) << "head flag " << x;
          }
          expect_same_coo(f.reconstruct_coo(), want);
        }
      }
    }
  }
}

TEST(CooSort, DuplicatesSumInInputOrder) {
  // Coordinate `dropped` is pushed as 1e8f, 1.0f, -1e8f in that order, and
  // `kept` as 1e8f, 3.0f, -1e8f, 5.0f, each push after a block of other
  // coordinates so the parts land in different sort blocks. Left to right,
  // 1e8f + 1.0f rounds back to 1e8f and `dropped` cancels to 0; `kept` sums
  // to exactly 5.0f. Adding the two large values first would keep `dropped`
  // at 1.0f, and the reverse order would sum `kept` to 8.0f. Orders 2-4 give
  // the sort an even and an odd number of passes.
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{50, 60}, std::vector<index_t>{50, 60, 70},
        std::vector<index_t>{50, 60, 70, 5}}) {
    const int order = static_cast<int>(dims.size());
    std::vector<index_t> dropped(dims.size()), kept(dims.size());
    for (std::size_t m = 0; m < dims.size(); ++m) {
      dropped[m] = static_cast<index_t>(7 + m) % dims[m];
      kept[m] = static_cast<index_t>(30 - 9 * m) % dims[m];
    }
    const std::vector<value_t> dropped_parts{1e8f, 1.0f, -1e8f};
    const std::vector<value_t> kept_parts{1e8f, 3.0f, -1e8f, 5.0f};
    Prng rng(0x1E8);
    CooTensor t(dims);
    std::vector<index_t> idx(dims.size());
    for (std::size_t i = 0; i < kept_parts.size(); ++i) {
      for (nnz_t x = 0; x < kSortBlock; ++x) {
        for (std::size_t m = 0; m < dims.size(); ++m) idx[m] = rng.next_index(dims[m]);
        if (idx == dropped || idx == kept) idx[0] = (idx[0] + 1) % dims[0];
        t.push_back(idx, 0.5f);
      }
      if (i < dropped_parts.size()) t.push_back(dropped, dropped_parts[i]);
      t.push_back(kept, kept_parts[i]);
    }
    // Number of entries at `coord` and the value of the last one.
    const auto find = [&](const CooTensor& c, const std::vector<index_t>& coord) {
      std::pair<int, value_t> hit{0, 0.0f};
      for (nnz_t x = 0; x < c.nnz(); ++x) {
        bool match = true;
        for (int m = 0; m < order; ++m) match = match && c.index(x, m) == coord[m];
        if (match) hit = {hit.first + 1, c.value(x)};
      }
      return hit;
    };
    const auto expect_input_order = [&](const CooTensor& c, const std::string& what) {
      EXPECT_EQ(find(c, dropped).first, 0) << what;
      EXPECT_EQ(find(c, kept), std::make_pair(1, 5.0f)) << what;
    };
    const std::string shape = "order " + std::to_string(order);
    std::vector<int> modes(dims.size());
    std::iota(modes.begin(), modes.end(), 0);
    for (int rotate = 0; rotate < order; ++rotate) {
      CooTensor sorted = t;
      sorted.sort_by_modes(modes);
      sorted.coalesce();
      expect_input_order(sorted, "coalesce, " + shape);
      std::rotate(modes.begin(), modes.begin() + 1, modes.end());
    }
    for (const unsigned width : kPoolWidths) {
      ThreadPool pool(width);
      const std::string where = shape + ", pool " + std::to_string(width);
      for (int mode = 0; mode < order; ++mode) {
        const auto mp = core::make_mode_plan_spmttkrp(order, mode);
        const FcooTensor f = FcooTensor::build(t, mp.index_modes, mp.product_modes, &pool);
        expect_input_order(f.reconstruct_coo(), "F-COO mode " + std::to_string(mode) + ", " + where);
      }
    }
  }
}

}  // namespace
}  // namespace ust
