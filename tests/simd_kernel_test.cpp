// SIMD kernel equivalence (DESIGN.md §13): the runtime-dispatched vector
// variants (AVX2 / AVX-512F) must be BITWISE identical to the honest scalar
// fallback -- at the primitive level (axpy / axpy2 / axpyn over awkward
// lengths) and end-to-end for all four unified ops on the same worker grid.
// Rank blocking is likewise bitwise neutral: any rank_block produces the
// exact bytes of the unblocked run. Equality is exact float comparison, not
// tolerance: vector lanes never interact and no FMA contraction is allowed.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/native_exec.hpp"
#include "core/simd.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "sim/device.hpp"
#include "test_support.hpp"

namespace ust::core {
namespace {

namespace simd = ust::core::simd;

/// Lengths that exercise full vectors, masked/scalar tails and sub-vector
/// inputs for both 8-wide and 16-wide variants.
const std::vector<std::size_t> kLens{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};

std::vector<float> random_vec(Prng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& e : v) e = rng.next_float(-2.0f, 2.0f);
  return v;
}

/// Levels the dispatcher can actually hand out: CPU support clamped by the
/// UST_SIMD environment cap (ops() clamps to max_level(), so asking for more
/// returns the capped table -- which is what the forced-scalar CI job runs).
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::cpu_has_avx2() && simd::Level::kAvx2 <= simd::max_level()) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::cpu_has_avx512() && simd::Level::kAvx512 <= simd::max_level()) {
    levels.push_back(simd::Level::kAvx512);
  }
  return levels;
}

TEST(SimdKernel, PrimitivesBitwiseMatchScalar) {
  Prng rng(811);
  const simd::Ops& scalar = simd::ops(simd::Level::kScalar);
  for (simd::Level level : available_levels()) {
    const simd::Ops& ops = simd::ops(level);
    EXPECT_EQ(ops.level, level);
    for (std::size_t n : kLens) {
      const std::vector<float> a = random_vec(rng, n);
      const std::vector<float> b = random_vec(rng, n);
      const std::vector<float> c = random_vec(rng, n);
      const std::vector<float> base = random_vec(rng, n);
      const float v = rng.next_float(-1.5f, 1.5f);

      std::vector<float> want = base;
      std::vector<float> got = base;
      scalar.axpy(want.data(), a.data(), v, n);
      ops.axpy(got.data(), a.data(), v, n);
      ASSERT_EQ(want, got) << "axpy level " << simd::level_name(level) << " n " << n;

      want = base;
      got = base;
      scalar.axpy2(want.data(), a.data(), b.data(), v, n);
      ops.axpy2(got.data(), a.data(), b.data(), v, n);
      ASSERT_EQ(want, got) << "axpy2 level " << simd::level_name(level) << " n " << n;

      const float* rows[3] = {a.data(), b.data(), c.data()};
      for (std::size_t nrows = 1; nrows <= 3; ++nrows) {
        want = base;
        got = base;
        scalar.axpyn(want.data(), rows, nrows, v, n);
        ops.axpyn(got.data(), rows, nrows, v, n);
        ASSERT_EQ(want, got) << "axpyn(" << nrows << ") level "
                             << simd::level_name(level) << " n " << n;
      }

      // axpy2b: the request-fused form must match per-request scalar axpy2
      // calls exactly, including the shared (ao, bo) row offsets.
      constexpr std::size_t kReq = 3;
      const std::size_t ao = n % 5;
      const std::size_t bo = n % 3;
      std::vector<std::vector<float>> fa, fb;
      std::vector<std::vector<float>> want_tiles, got_tiles;
      const float* abase[kReq];
      const float* bbase[kReq];
      float* accs[kReq];
      for (std::size_t j = 0; j < kReq; ++j) {
        fa.push_back(random_vec(rng, ao + n));
        fb.push_back(random_vec(rng, bo + n));
        want_tiles.push_back(random_vec(rng, n));
        got_tiles.push_back(want_tiles.back());
      }
      for (std::size_t j = 0; j < kReq; ++j) {
        abase[j] = fa[j].data();
        bbase[j] = fb[j].data();
        accs[j] = got_tiles[j].data();
        scalar.axpy2(want_tiles[j].data(), fa[j].data() + ao, fb[j].data() + bo, v, n);
      }
      ops.axpy2b(accs, abase, ao, bbase, bo, kReq, v, n);
      for (std::size_t j = 0; j < kReq; ++j) {
        ASSERT_EQ(want_tiles[j], got_tiles[j])
            << "axpy2b req " << j << " level " << simd::level_name(level) << " n " << n;
      }
    }
  }
}

TEST(SimdKernel, LevelParseAndClamp) {
  simd::Level l = simd::Level::kAvx512;
  EXPECT_TRUE(simd::parse_level("scalar", l));
  EXPECT_EQ(l, simd::Level::kScalar);
  EXPECT_TRUE(simd::parse_level("avx2", l));
  EXPECT_EQ(l, simd::Level::kAvx2);
  EXPECT_TRUE(simd::parse_level("avx512", l));
  EXPECT_EQ(l, simd::Level::kAvx512);
  EXPECT_FALSE(simd::parse_level("sse9", l));
  EXPECT_FALSE(simd::parse_level("", l));

  // set_level clamps to what the CPU supports; requesting beyond max_level
  // must not dispatch to an unsupported table.
  const simd::Level prev = simd::active_level();
  simd::set_level(simd::Level::kAvx512);
  EXPECT_LE(static_cast<int>(simd::active_level()), static_cast<int>(simd::max_level()));
  simd::set_level(prev);

  // ops() clamps the same way.
  EXPECT_LE(static_cast<int>(simd::ops(simd::Level::kAvx512).level),
            static_cast<int>(simd::max_level()));
}

TEST(SimdKernel, ScopedLevelRestores) {
  const simd::Level before = simd::active_level();
  {
    simd::ScopedLevel forced(simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    EXPECT_EQ(simd::active_ops().level, simd::Level::kScalar);
  }
  EXPECT_EQ(simd::active_level(), before);
}

TEST(SimdKernel, MakeColBlocksTilesWidthsAndPacksPasses) {
  // Two requests 20 + 9 columns wide at block 8: 20 -> 8+8+4, 9 -> 8+1,
  // accumulator offsets are the concatenation, passes pack greedily to <= 8
  // total columns.
  const index_t widths[2] = {20, 9};
  std::vector<std::size_t> pass_off;
  const auto blocks =
      native::make_col_blocks(std::span<const index_t>(widths, 2), 8, pass_off);
  ASSERT_EQ(blocks.size(), 5u);
  EXPECT_EQ(blocks[0].req, 0u);
  EXPECT_EQ(blocks[0].c0, 0u);
  EXPECT_EQ(blocks[0].nc, 8u);
  EXPECT_EQ(blocks[0].acc_off, 0u);
  EXPECT_EQ(blocks[2].nc, 4u);
  EXPECT_EQ(blocks[2].acc_off, 16u);
  EXPECT_EQ(blocks[3].req, 1u);
  EXPECT_EQ(blocks[3].c0, 0u);
  EXPECT_EQ(blocks[3].acc_off, 20u);
  EXPECT_EQ(blocks[4].nc, 1u);
  // Pass packing: [8], [8], [4+...] -- the 4-wide block and the next 8-wide
  // exceed 8 together, so the 4 shares a pass only with the trailing 1.
  ASSERT_EQ(pass_off.front(), 0u);
  ASSERT_EQ(pass_off.back(), blocks.size());
  for (std::size_t p = 0; p + 1 < pass_off.size(); ++p) {
    index_t total = 0;
    for (std::size_t i = pass_off[p]; i < pass_off[p + 1]; ++i) total += blocks[i].nc;
    EXPECT_LE(total, 8u) << "pass " << p;
  }
  // Zero-width requests contribute no blocks.
  const index_t w0[2] = {0, 5};
  std::vector<std::size_t> po0;
  const auto b0 = native::make_col_blocks(std::span<const index_t>(w0, 2), 0, po0);
  ASSERT_EQ(b0.size(), 1u);
  EXPECT_EQ(b0[0].req, 1u);
  EXPECT_EQ(b0[0].acc_off, 0u);
}

TEST(SimdKernel, WorkerTilesNeverShareACacheLine) {
  // The native phase-1 speed rests on this layout: a worker's accumulator
  // tile starts on a cache line and no other worker's tile touches any of
  // its lines (packed tiles of a narrow rank put two workers on one line).
  constexpr std::uintptr_t kLine = native::kCacheLineBytes;
  for (std::size_t width : {1, 7, 8, 15, 16, 17, 40, 512}) {
    for (unsigned workers = 1; workers <= 5; ++workers) {
      native::WorkerTiles tiles(workers, width);
      EXPECT_GE(tiles.stride(), width);
      std::vector<std::pair<std::uintptr_t, std::uintptr_t>> lines;  // [first, last]
      for (unsigned w = 0; w < workers; ++w) {
        const auto lo = reinterpret_cast<std::uintptr_t>(tiles.tile(w));
        const std::uintptr_t hi = lo + width * sizeof(float) - 1;
        EXPECT_EQ(lo % kLine, 0u) << "width " << width << " worker " << w;
        lines.emplace_back(lo / kLine, hi / kLine);
      }
      for (unsigned a = 0; a < workers; ++a) {
        for (unsigned b = a + 1; b < workers; ++b) {
          EXPECT_TRUE(lines[a].second < lines[b].first || lines[b].second < lines[a].first)
              << "width " << width << " workers " << a << " and " << b;
        }
      }
    }
  }
}

/// Runs each op forced-scalar and at the dispatched level on the same grid
/// and asserts the outputs are bitwise identical; also sweeps rank_block.
TEST(SimdKernel, OpsForcedScalarBitwiseMatchesDispatched) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(7117);
  const std::vector<index_t> rank_blocks{0, 1, 3, 8, 64};
  for (int trial = 0; trial < 12; ++trial) {
    const CooTensor t = test::random_coo3(rng, 28, 1800);
    const Partitioning part{.threadlen = 4u + 4u * static_cast<unsigned>(rng.next_below(3)),
                            .block_size = 64};
    const int mode = static_cast<int>(rng.next_below(3));
    // Rank 33 forces every variant through a masked/scalar tail.
    const index_t rank = trial % 3 == 0 ? 33 : 1 + static_cast<index_t>(rng.next_below(20));
    const UnifiedOptions opt{.backend = ExecBackend::kNative};

    {
      const auto factors = test::random_factors(t, rank, rng);
      UnifiedMttkrp op(eng, t, mode, part);
      DenseMatrix want;
      {
        simd::ScopedLevel forced(simd::Level::kScalar);
        want = op.run(factors, opt);
      }
      const DenseMatrix got = op.run(factors, opt);
      ASSERT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0)
          << "mttkrp trial " << trial << " rank " << rank;
      for (index_t rb : rank_blocks) {
        UnifiedOptions bopt = opt;
        bopt.rank_block = rb;
        const DenseMatrix blocked = op.run(factors, bopt);
        ASSERT_EQ(DenseMatrix::max_abs_diff(blocked, want), 0.0)
            << "mttkrp trial " << trial << " rank_block " << rb;
      }
    }
    {
      const DenseMatrix u = test::random_matrix(t.dim(mode), rank, rng.next_u64());
      UnifiedSpttm op(eng, t, mode, part);
      SemiSparseTensor want = op.make_output(rank);
      {
        simd::ScopedLevel forced(simd::Level::kScalar);
        want = op.run(u, opt);
      }
      const SemiSparseTensor got = op.run(u, opt);
      ASSERT_EQ(SemiSparseTensor::max_abs_diff(got, want), 0.0)
          << "spttm trial " << trial;
    }
    {
      // Odd TTMc widths (r0=5, r1=7): the blocked inner walk crosses source
      // row boundaries mid-vector.
      const int a = mode == 0 ? 1 : 0;
      const int b = mode == 2 ? 1 : 2;
      const DenseMatrix u0 = test::random_matrix(t.dim(a), 5, rng.next_u64());
      const DenseMatrix u1 = test::random_matrix(t.dim(b), 7, rng.next_u64());
      UnifiedTtmc op(eng, t, mode, part);
      DenseMatrix want;
      {
        simd::ScopedLevel forced(simd::Level::kScalar);
        want = op.run(u0, u1, opt);
      }
      const DenseMatrix got = op.run(u0, u1, opt);
      ASSERT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0) << "ttmc trial " << trial;
      for (index_t rb : rank_blocks) {
        UnifiedOptions bopt = opt;
        bopt.rank_block = rb;
        const DenseMatrix blocked = op.run(u0, u1, bopt);
        ASSERT_EQ(DenseMatrix::max_abs_diff(blocked, want), 0.0)
            << "ttmc trial " << trial << " rank_block " << rb;
      }
    }
    {
      std::vector<std::vector<value_t>> vectors;
      for (int m = 0; m < 3; ++m) {
        std::vector<value_t> v(t.dim(m));
        for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
        vectors.push_back(std::move(v));
      }
      UnifiedTtv op(eng, t, mode, part);
      std::vector<value_t> want;
      {
        simd::ScopedLevel forced(simd::Level::kScalar);
        want = op.run(vectors, opt);
      }
      const std::vector<value_t> got = op.run(vectors, opt);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "ttv trial " << trial << " row " << i;
      }
    }
  }
}

TEST(SimdKernel, RankBlockNeutralUnderStreaming) {
  // rank_block composes with the streaming executor: a streamed run at any
  // rank_block stays bitwise identical to the unblocked single-shot run.
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(9229);
  const CooTensor t = test::random_coo3(rng, 24, 1200);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const index_t rank = 21;
  const auto factors = test::random_factors(t, rank, rng);
  UnifiedMttkrp mono(eng, t, 0, part);
  const DenseMatrix want = mono.run(factors, UnifiedOptions{.chunk_nnz = 64});

  for (index_t rb : {index_t{0}, index_t{5}, index_t{16}}) {
    UnifiedMttkrp streaming_op(eng, t, 0, part,
                               StreamingOptions{.enabled = true, .chunk_nnz = 64});
    UnifiedOptions opt;
    opt.chunk_nnz = 64;
    opt.rank_block = rb;
    const DenseMatrix got = streaming_op.run(factors, opt);
    ASSERT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0) << "rank_block " << rb;
  }
}

}  // namespace
}  // namespace ust::core
