// Backend equivalence fuzz (DESIGN.md §8): the native thread-pool backend
// and the GPU execution-model simulator consume the same UnifiedPlan
// metadata and must agree -- within float-accumulation tolerance -- on every
// operation, every sim ReduceStrategy, and adversarial partitionings
// (threadlen not dividing nnz, a single partially-filled block, an empty
// tensor). The sim result is additionally checked against the serial
// reference, so a bug common to both backends cannot hide.
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "io/generate.hpp"
#include "engine/engine.hpp"
#include "sim/device.hpp"
#include "test_support.hpp"
#include "util/prng.hpp"

namespace ust {
namespace {

constexpr core::ReduceStrategy kAllStrategies[] = {
    core::ReduceStrategy::kSegmentedScan,
    core::ReduceStrategy::kAdjacentSync,
    core::ReduceStrategy::kThreadAtomic,
    core::ReduceStrategy::kAllAtomic,
};

core::UnifiedOptions sim_opt(core::ReduceStrategy s, unsigned tile) {
  return core::UnifiedOptions{
      .strategy = s, .column_tile = tile, .backend = core::ExecBackend::kSim};
}

constexpr core::UnifiedOptions kNativeOpt{.backend = core::ExecBackend::kNative};

TEST(BackendEquivalence, RandomizedSweepAllOpsAllStrategies) {
  Prng rng(0x5EED);
  sim::Device dev;
  engine::Engine eng(dev);
  for (int trial = 0; trial < 6; ++trial) {
    const CooTensor t = test::random_coo3(rng, 24, 1500);
    const auto mode = static_cast<int>(rng.next_below(3));
    const index_t rank = 1 + rng.next_index(12);
    // Odd partitionings on purpose: threadlen rarely divides nnz, block
    // sizes are not powers of two.
    const Partitioning part{.threadlen = 1 + rng.next_index(17),
                            .block_size = 16 + rng.next_index(150)};
    const unsigned tile = rng.next_index(3);  // 0 = auto
    const auto factors = test::random_factors(t, rank, rng);

    // SpMTTKRP: native vs every sim strategy vs reference.
    const DenseMatrix native_kr =
        test::spmttkrp_unified(dev, t, mode, factors, part, kNativeOpt);
    const DenseMatrix want_kr = baseline::mttkrp_reference(t, mode, factors);
    ASSERT_LT(test::relative_error(native_kr, want_kr), test::kUnifiedTol)
        << "trial " << trial << " native vs reference (tl " << part.threadlen
        << " bs " << part.block_size << " rank " << rank << " mode " << mode << ")";
    for (const auto strategy : kAllStrategies) {
      const DenseMatrix sim_kr =
          test::spmttkrp_unified(dev, t, mode, factors, part, sim_opt(strategy, tile));
      ASSERT_LT(test::relative_error(native_kr, sim_kr), test::kUnifiedTol)
          << "trial " << trial << " SpMTTKRP strategy "
          << static_cast<int>(strategy);
    }

    // SpTTM: semi-sparse outputs share the fiber ordering, so values compare
    // elementwise.
    {
      core::UnifiedSpttm op(eng, t, mode, part);
      const SemiSparseTensor native_y = op.run(factors[static_cast<std::size_t>(mode)],
                                               kNativeOpt);
      for (const auto strategy : kAllStrategies) {
        const SemiSparseTensor sim_y = op.run(factors[static_cast<std::size_t>(mode)],
                                              sim_opt(strategy, tile));
        ASSERT_LT(test::relative_error(native_y, sim_y), test::kUnifiedTol)
            << "trial " << trial << " SpTTM strategy " << static_cast<int>(strategy);
      }
    }

    // SpTTMc (Kronecker expression, wide output rows).
    {
      core::UnifiedTtmc op(eng, t, mode, part);
      const int a = mode == 0 ? 1 : 0;
      const int b = mode == 2 ? 1 : 2;
      const auto& ua = factors[static_cast<std::size_t>(a)];
      const auto& ub = factors[static_cast<std::size_t>(b)];
      const DenseMatrix native_y = op.run(ua, ub, kNativeOpt);
      for (const auto strategy : kAllStrategies) {
        const DenseMatrix sim_y = op.run(ua, ub, sim_opt(strategy, tile));
        ASSERT_LT(test::relative_error(native_y, sim_y), test::kUnifiedTol)
            << "trial " << trial << " SpTTMc strategy " << static_cast<int>(strategy);
      }
    }

    // SpTTV (single-column output).
    {
      std::vector<std::vector<value_t>> vecs;
      for (int m = 0; m < t.order(); ++m) {
        std::vector<value_t> v(t.dim(m));
        for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
        vecs.push_back(std::move(v));
      }
      core::UnifiedTtv op(eng, t, mode, part);
      const auto native_v = op.run(vecs, kNativeOpt);
      for (const auto strategy : kAllStrategies) {
        const auto sim_v = op.run(vecs, sim_opt(strategy, tile));
        ASSERT_EQ(native_v.size(), sim_v.size());
        for (std::size_t i = 0; i < native_v.size(); ++i) {
          ASSERT_NEAR(native_v[i], sim_v[i],
                      1e-3 * std::max(1.0f, std::abs(sim_v[i])))
              << "trial " << trial << " SpTTV strategy " << static_cast<int>(strategy)
              << " row " << i;
        }
      }
    }
  }
}

TEST(BackendEquivalence, NativeIsRunToRunDeterministic) {
  // Chunk boundaries depend only on (nnz, threadlen, chunk_nnz) and the
  // carry pass combines boundary partials left-to-right, so the native
  // backend must be bitwise reproducible regardless of worker scheduling.
  Prng rng(0xD07);
  sim::Device dev;
  const CooTensor t = test::random_coo3(rng, 20, 900);
  const auto factors = test::random_factors(t, 9, rng);
  const Partitioning part{.threadlen = 3, .block_size = 64};
  const DenseMatrix a = test::spmttkrp_unified(dev, t, 0, factors, part, kNativeOpt);
  const DenseMatrix b = test::spmttkrp_unified(dev, t, 0, factors, part, kNativeOpt);
  EXPECT_EQ(DenseMatrix::max_abs_diff(a, b), 0.0);
}

TEST(BackendEquivalence, SingleBlockAndSinglePartitionLayouts) {
  // One partially-filled block (block covers far more than nnz) and a
  // threadlen that swallows the whole tensor into one partition: both
  // degenerate chunkings must still agree across backends.
  Prng rng(0xB10C);
  const CooTensor t = test::random_coo3(rng, 12, 97);  // nnz <= 97, usually odd
  const auto factors = test::random_factors(t, 5, rng);
  sim::Device dev;
  for (const Partitioning part : {Partitioning{.threadlen = 7, .block_size = 1024},
                                  Partitioning{.threadlen = 1024, .block_size = 32},
                                  Partitioning{.threadlen = 1, .block_size = 1}}) {
    const DenseMatrix native =
        test::spmttkrp_unified(dev, t, 1, factors, part, kNativeOpt);
    const DenseMatrix sim = test::spmttkrp_unified(
        dev, t, 1, factors, part, sim_opt(core::ReduceStrategy::kSegmentedScan, 0));
    EXPECT_LT(test::relative_error(native, sim), test::kUnifiedTol)
        << "tl " << part.threadlen << " bs " << part.block_size;
    const DenseMatrix want = baseline::mttkrp_reference(t, 1, factors);
    EXPECT_LT(test::relative_error(native, want), test::kUnifiedTol);
  }
}

TEST(BackendEquivalence, GiantSegmentCrossesEveryChunkBoundary) {
  // All non-zeros share one index coordinate: a single segment spans every
  // worker chunk, so the result is assembled purely from the carry handoff.
  CooTensor t({1, 48, 48});
  Prng rng(41);
  for (index_t j = 0; j < 48; ++j) {
    for (index_t k = 0; k < 48; ++k) {
      t.push_back(std::vector<index_t>{0, j, k}, rng.next_float(-1.0f, 1.0f));
    }
  }
  const auto factors = test::random_factors(t, 11, rng);
  sim::Device dev;
  const Partitioning part{.threadlen = 4, .block_size = 32};
  const DenseMatrix native = test::spmttkrp_unified(dev, t, 0, factors, part, kNativeOpt);
  const DenseMatrix want = baseline::mttkrp_reference(t, 0, factors);
  EXPECT_LT(test::relative_error(native, want), test::kUnifiedTol);
  EXPECT_EQ(dev.counters().atomic_ops, 0u);  // native never touches atomics
}

TEST(BackendEquivalence, EmptyTensorYieldsZeroOutputOnBothBackends) {
  const CooTensor t({6, 5, 4});  // zero non-zeros
  Prng rng(77);
  const auto factors = test::random_factors(t, 3, rng);
  sim::Device dev;
  for (const auto opt : {kNativeOpt, sim_opt(core::ReduceStrategy::kSegmentedScan, 0)}) {
    const DenseMatrix got =
        test::spmttkrp_unified(dev, t, 0, factors, Partitioning{}, opt);
    EXPECT_EQ(got.rows(), 6);
    EXPECT_EQ(got.cols(), 3);
    for (index_t i = 0; i < got.rows(); ++i) {
      for (index_t c = 0; c < got.cols(); ++c) EXPECT_EQ(got(i, c), 0.0f);
    }
  }
}

}  // namespace
}  // namespace ust
