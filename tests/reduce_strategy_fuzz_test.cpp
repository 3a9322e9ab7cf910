// Randomized cross-strategy fuzz (DESIGN.md §6): every ReduceStrategy runs
// the SAME random input, and all four results must agree with each other and
// with the serial reference within tolerance. The strategies order their
// float additions differently (scan tree vs carry chain vs atomics), so
// bitwise equality is not required — but any real reduction bug (a dropped
// boundary partial, a double-committed segment) shows up far above 1e-3.
// All runs pin ExecBackend::kSim: reduction strategies only exist on the
// simulator (the native backend has one dataflow, covered by
// backend_equivalence_test.cpp).
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "core/spmttkrp.hpp"
#include "io/generate.hpp"
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

const char* strategy_name(core::ReduceStrategy s) {
  switch (s) {
    case core::ReduceStrategy::kSegmentedScan: return "kSegmentedScan";
    case core::ReduceStrategy::kAdjacentSync: return "kAdjacentSync";
    case core::ReduceStrategy::kThreadAtomic: return "kThreadAtomic";
    case core::ReduceStrategy::kAllAtomic: return "kAllAtomic";
  }
  return "?";
}

TEST(ReduceStrategyFuzz, AllStrategiesAgreeOnSharedInputs) {
  Prng rng(0xBEEF);
  sim::Device dev;
  for (int trial = 0; trial < 12; ++trial) {
    const CooTensor t = test::random_coo3(rng, 30, 2000);
    const auto mode = static_cast<int>(rng.next_below(3));
    const index_t rank = 1 + rng.next_index(20);
    const Partitioning part{.threadlen = 1 + rng.next_index(32),
                            .block_size = 32 + rng.next_index(128)};
    const unsigned column_tile = rng.next_index(3);  // 0 = auto
    const auto factors = test::random_factors(t, rank, rng);
    const DenseMatrix want = baseline::mttkrp_reference(t, mode, factors);

    // One result per strategy, all from the identical (t, mode, factors,
    // partitioning, tile) input.
    DenseMatrix results[4];
    for (std::size_t s = 0; s < 4; ++s) {
      const core::UnifiedOptions opt{.strategy = kAllStrategies[s],
                                     .column_tile = column_tile,
                                     .backend = core::ExecBackend::kSim};
      results[s] = test::spmttkrp_unified(dev, t, mode, factors, part, opt);
      ASSERT_LT(test::relative_error(results[s], want), test::kUnifiedTol)
          << "trial " << trial << " strategy " << strategy_name(kAllStrategies[s])
          << " vs reference (tl " << part.threadlen << " bs " << part.block_size
          << " rank " << rank << " mode " << mode << ")";
    }
    // Pairwise: comparable within tolerance (addition order differs, so the
    // bound is float-accumulation noise, much tighter than kUnifiedTol).
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = a + 1; b < 4; ++b) {
        ASSERT_LT(test::relative_error(results[a], results[b]), test::kUnifiedTol)
            << "trial " << trial << " " << strategy_name(kAllStrategies[a]) << " vs "
            << strategy_name(kAllStrategies[b]);
      }
    }
  }
}

TEST(ReduceStrategyFuzz, DeterministicPerStrategy) {
  // Each strategy must be reproducible run-to-run on the same input: the
  // scan and carry-chain strategies bitwise. The atomic ablations emulate
  // CUDA atomicAdd, whose commit order across pool workers is unordered, so
  // they promise tolerance plus the identical atomic count the ablations
  // measure (DESIGN.md §6).
  Prng rng(0xCAFE);
  sim::Device dev;
  const CooTensor t = test::random_coo3(rng, 20, 800);
  const auto factors = test::random_factors(t, 8, rng);
  const Partitioning part{.threadlen = 5, .block_size = 64};
  for (const auto strategy : kAllStrategies) {
    const core::UnifiedOptions opt{.strategy = strategy,
                                   .column_tile = 0,
                                   .backend = core::ExecBackend::kSim};
    const auto run = [&](std::uint64_t& atomics) {
      const std::uint64_t before = dev.counters().atomic_ops;
      DenseMatrix out = test::spmttkrp_unified(dev, t, 0, factors, part, opt);
      atomics = dev.counters().atomic_ops - before;
      return out;
    };
    std::uint64_t atomics_a = 0, atomics_b = 0;
    const DenseMatrix a = run(atomics_a);
    const DenseMatrix b = run(atomics_b);
    if (strategy == core::ReduceStrategy::kThreadAtomic ||
        strategy == core::ReduceStrategy::kAllAtomic) {
      EXPECT_LT(test::relative_error(a, b), 1e-6)
          << "strategy " << strategy_name(strategy) << " drifts run to run";
      EXPECT_GT(atomics_a, 0u) << "strategy " << strategy_name(strategy);
      EXPECT_EQ(atomics_a, atomics_b)
          << "strategy " << strategy_name(strategy) << " changes its atomic count";
    } else {
      EXPECT_EQ(DenseMatrix::max_abs_diff(a, b), 0.0)
          << "strategy " << strategy_name(strategy) << " is not run-to-run deterministic";
    }
  }
}

TEST(ReduceStrategyFuzz, AdversarialSegmentLayouts) {
  // Layouts chosen to stress strategy-specific paths: one giant segment
  // (every partial crosses thread and block boundaries), all-singleton
  // segments (every non-zero is a head), and a single dense slice repeated
  // (few heads, long runs).
  sim::Device dev;
  const Partitioning part{.threadlen = 4, .block_size = 32};

  // (a) one giant segment: all non-zeros share the index-mode coordinate.
  CooTensor giant({3, 16, 16});
  Prng rng(7);
  for (index_t j = 0; j < 16; ++j) {
    for (index_t k = 0; k < 16; ++k) {
      giant.push_back(std::vector<index_t>{1, j, k}, rng.next_float(-1.0f, 1.0f));
    }
  }
  // (b) singleton segments: distinct index-mode coordinate per non-zero.
  CooTensor singles({64, 4, 4});
  for (index_t i = 0; i < 64; ++i) {
    singles.push_back(std::vector<index_t>{i, i % 4, (i / 4) % 4},
                      rng.next_float(-1.0f, 1.0f));
  }

  for (const CooTensor* t : {&giant, &singles}) {
    const auto factors = test::random_factors(*t, 6, rng);
    const DenseMatrix want = baseline::mttkrp_reference(*t, 0, factors);
    for (const auto strategy : kAllStrategies) {
      const core::UnifiedOptions opt{.strategy = strategy,
                                     .column_tile = 1,
                                     .backend = core::ExecBackend::kSim};
      const DenseMatrix got = test::spmttkrp_unified(dev, *t, 0, factors, part, opt);
      EXPECT_LT(test::relative_error(got, want), test::kUnifiedTol)
          << "strategy " << strategy_name(strategy);
    }
  }
}

}  // namespace
}  // namespace ust
