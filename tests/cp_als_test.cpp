// Tests for the CP-ALS decomposition: convergence on synthetic low-rank
// tensors, fit properties, lambda ordering, stream/no-stream equivalence,
// and agreement between the unified and SPLATT-based drivers.
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "baselines/splatt.hpp"
#include "core/cp_als.hpp"
#include "core/native_exec.hpp"
#include "io/generate.hpp"
#include "test_support.hpp"

namespace ust {
namespace {

core::CpOptions basic_options(index_t rank) {
  core::CpOptions opt;
  opt.rank = rank;
  opt.max_iterations = 40;
  opt.fit_tolerance = 1e-6;
  opt.part = Partitioning{.threadlen = 8, .block_size = 64};
  opt.seed = 7;
  return opt;
}

TEST(CpAls, RecoversExactLowRankTensor) {
  // Noiseless rank-3 tensor sampled at EVERY position (a sparse tensor with
  // structural zeros is not low-rank, so full sampling is required for exact
  // recovery): ALS should fit it almost perfectly.
  const auto lr = io::generate_low_rank({15, 12, 10}, 3, 15 * 12 * 10, 0.0, 101);
  ASSERT_EQ(lr.tensor.nnz(), 1800u);
  sim::Device dev;
  const auto result = test::cp_als_unified(dev, lr.tensor, basic_options(3));
  EXPECT_GT(result.fit, 0.98) << "final fit " << result.fit;
  // Residual evaluated independently at the non-zeros.
  const double resid = baseline::cp_residual_at_nonzeros(
      lr.tensor, result.factors, result.lambda);
  EXPECT_LT(resid, 0.1);
}

TEST(CpAls, FitHistoryIsNonDecreasing) {
  const auto lr = io::generate_low_rank({20, 18, 16}, 4, 2000, 0.05, 102);
  sim::Device dev;
  const auto result = test::cp_als_unified(dev, lr.tensor, basic_options(4));
  ASSERT_GE(result.fit_history.size(), 2u);
  for (std::size_t i = 1; i < result.fit_history.size(); ++i) {
    EXPECT_GE(result.fit_history[i], result.fit_history[i - 1] - 1e-4)
        << "iteration " << i;
  }
}

TEST(CpAls, LambdaSortedDescendingAndFactorsNormalized) {
  const auto lr = io::generate_low_rank({20, 20, 20}, 4, 2000, 0.01, 103);
  sim::Device dev;
  const auto result = test::cp_als_unified(dev, lr.tensor, basic_options(4));
  for (std::size_t r = 1; r < result.lambda.size(); ++r) {
    EXPECT_GE(result.lambda[r - 1], result.lambda[r]);
  }
  for (const auto& f : result.factors) {
    for (index_t c = 0; c < f.cols(); ++c) {
      double norm = 0.0;
      for (index_t i = 0; i < f.rows(); ++i) norm += static_cast<double>(f(i, c)) * f(i, c);
      EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-3) << "column " << c;
    }
  }
}

TEST(CpAls, ConvergesAndStopsEarly) {
  const auto lr = io::generate_low_rank({15, 15, 15}, 2, 1200, 0.0, 104);
  sim::Device dev;
  auto opt = basic_options(2);
  opt.max_iterations = 200;
  opt.fit_tolerance = 1e-4;
  const auto result = test::cp_als_unified(dev, lr.tensor, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 200);
}

TEST(CpAls, StreamedAndSerialGiveSameFactors) {
  const auto lr = io::generate_low_rank({18, 14, 12}, 3, 1500, 0.02, 105);
  sim::Device dev;
  auto opt = basic_options(3);
  opt.max_iterations = 10;
  opt.fit_tolerance = 0.0;  // run all iterations
  opt.use_streams = true;
  const auto with_streams = test::cp_als_unified(dev, lr.tensor, opt);
  opt.use_streams = false;
  const auto serial = test::cp_als_unified(dev, lr.tensor, opt);
  ASSERT_EQ(with_streams.factors.size(), serial.factors.size());
  for (std::size_t m = 0; m < serial.factors.size(); ++m) {
    EXPECT_LT(DenseMatrix::max_abs_diff(with_streams.factors[m], serial.factors[m]), 1e-4);
  }
  EXPECT_NEAR(with_streams.fit, serial.fit, 1e-6);
}

TEST(CpAls, HandlesRankLargerThanSmallestMode) {
  // The brainq situation: one tiny mode (dim 6) with rank 8 makes the Gram
  // product rank-deficient; the pseudo-inverse path must keep ALS stable.
  const auto lr = io::generate_low_rank({20, 15, 6}, 3, 20 * 15 * 6, 0.05, 106);
  sim::Device dev;
  auto opt = basic_options(8);
  opt.max_iterations = 15;
  const auto result = test::cp_als_unified(dev, lr.tensor, opt);
  EXPECT_GT(result.fit, 0.5);
  for (double f : result.fit_history) EXPECT_TRUE(std::isfinite(f));
}

TEST(CpAls, TimingsBreakdownIsConsistent) {
  const auto lr = io::generate_low_rank({20, 20, 20}, 3, 1500, 0.0, 107);
  sim::Device dev;
  auto opt = basic_options(3);
  opt.max_iterations = 5;
  opt.fit_tolerance = 0.0;
  const auto result = test::cp_als_unified(dev, lr.tensor, opt);
  ASSERT_EQ(result.timings.mttkrp_seconds.size(), 3u);
  double mttkrp_total = 0.0;
  for (double s : result.timings.mttkrp_seconds) {
    EXPECT_GT(s, 0.0);
    mttkrp_total += s;
  }
  EXPECT_GE(result.timings.total_seconds, mttkrp_total);
  EXPECT_GE(result.timings.dense_seconds, 0.0);
}

TEST(CpAls, UnifiedModeChunksAreBalanced) {
  // The paper's claim (Section IV-D): with per-mode F-COO plans the three
  // MTTKRP updates have "very similar and well-balanced execution times" on
  // a cubic tensor. A wall-clock ratio depends on whatever else the host
  // runs, so the times are only reported (bench_mode, perfbench's
  // core.mttkrp_m0/m1/m2_ms). This checks the load-independent cause: every
  // mode's plan cuts the same nnz into threadlen partitions, and the native
  // worker grid depends on nnz alone, never on the mode's fiber structure,
  // so every worker chunk gets the same non-zeros to within one partition.
  const auto lr = io::generate_low_rank({60, 60, 60}, 3, 60000, 0.0, 108);
  sim::Device dev;
  engine::Engine eng(dev);
  const Partitioning part = basic_options(8).part;
  std::vector<core::native::Chunk> mode0_grid;
  for (int mode = 0; mode < 3; ++mode) {
    const auto plan = eng.plan(lr.tensor, engine::OpKind::kSpMTTKRP, mode, part);
    const core::FcooView f = plan->unified_plan().view();
    ASSERT_EQ(f.nnz, lr.tensor.nnz());
    const auto grid = core::native::make_chunks(f.nnz, f.threadlen);
    nnz_t covered = 0, min_parts = f.nnz, max_parts = 0;
    for (const auto& c : grid) {
      const nnz_t parts = ceil_div<nnz_t>(c.hi - c.lo, f.threadlen);
      min_parts = std::min(min_parts, parts);
      max_parts = std::max(max_parts, parts);
      covered += c.hi - c.lo;
    }
    EXPECT_EQ(covered, f.nnz);
    EXPECT_LE(max_parts - min_parts, 1u) << "mode " << mode;
    if (mode == 0) {
      mode0_grid = grid;
      continue;
    }
    ASSERT_EQ(grid.size(), mode0_grid.size()) << "mode " << mode;
    for (std::size_t k = 0; k < grid.size(); ++k) {
      EXPECT_EQ(grid[k].lo, mode0_grid[k].lo);
      EXPECT_EQ(grid[k].hi, mode0_grid[k].hi);
    }
  }
}

TEST(CpAls, SplattDriverAgreesOnFit) {
  const auto lr = io::generate_low_rank({14, 12, 10}, 3, 14 * 12 * 10, 0.0, 109);
  sim::Device dev;
  auto opt = basic_options(3);
  opt.max_iterations = 20;
  const auto unified = test::cp_als_unified(dev, lr.tensor, opt);
  const auto splatt = baseline::cp_als_splatt(lr.tensor, opt);
  // Same ALS driver + same init seed -> same trajectory, up to float noise.
  EXPECT_NEAR(unified.fit, splatt.fit, 1e-3);
  EXPECT_GT(splatt.fit, 0.95);
}

TEST(CpAls, FourthOrderTensor) {
  // CP-ALS is order-generic: a 4-order noiseless rank-2 tensor (fully
  // sampled) should be recovered.
  const auto lr = io::generate_low_rank({8, 7, 6, 5}, 2, 8 * 7 * 6 * 5, 0.0, 111);
  sim::Device dev;
  auto opt = basic_options(2);
  opt.max_iterations = 30;
  const auto result = test::cp_als_unified(dev, lr.tensor, opt);
  EXPECT_EQ(result.factors.size(), 4u);
  EXPECT_GT(result.fit, 0.95);
}

TEST(CpAls, RejectsInvalidOptions) {
  const auto lr = io::generate_low_rank({10, 10, 10}, 2, 300, 0.0, 110);
  sim::Device dev;
  auto opt = basic_options(0);  // rank 0
  EXPECT_THROW(test::cp_als_unified(dev, lr.tensor, opt), ContractViolation);
  opt = basic_options(2);
  opt.max_iterations = 0;
  EXPECT_THROW(test::cp_als_unified(dev, lr.tensor, opt), ContractViolation);
}

}  // namespace
}  // namespace ust
