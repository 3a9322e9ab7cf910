// Tests for the auto-tuner grid (src/core/tuning.hpp): chunk-axis alignment
// dedup (two axis values aliasing to one aligned cap must be measured once,
// not twice -- a duplicate sample would give that configuration two draws
// from the timing noise and skew "best" selection), the num_devices fifth
// axis, and the native-only axis restrictions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/tuning.hpp"

namespace ust::core {
namespace {

using Cell = std::tuple<unsigned, unsigned, ExecBackend, nnz_t, unsigned>;

Cell cell_of(const TuneSample& s) {
  return {s.part.block_size, s.part.threadlen, s.backend, s.chunk_nnz, s.num_devices};
}

TEST(Tuning, AliasingChunkValuesAreMeasuredOnce) {
  // threadlen 48: both 8192 and 8200 align up to 8208 -- the aliasing case.
  // threadlen 8: they align to 8192 and 8200 and stay distinct.
  std::map<Cell, int> invocations;
  const TuneResult r = tune_backends(
      [&](Partitioning part, ExecBackend backend, nnz_t chunk) {
        ++invocations[{part.block_size, part.threadlen, backend, chunk, 1u}];
        return 1.0;
      },
      /*threadlens=*/{8, 48}, /*block_sizes=*/{32},
      /*backends=*/{ExecBackend::kNative}, /*chunk_nnzs=*/{0, 8192, 8200});

  for (const auto& [cell, count] : invocations) {
    EXPECT_EQ(count, 1) << "aligned cell measured more than once";
  }
  // threadlen 48 collapses {8192, 8200} -> {8208}: 2 cells; threadlen 8
  // keeps 3.
  int tl48 = 0;
  int tl8 = 0;
  std::set<Cell> unique_cells;
  for (const TuneSample& s : r.samples) {
    EXPECT_TRUE(unique_cells.insert(cell_of(s)).second)
        << "duplicate sample in the sweep";
    if (s.part.threadlen == 48) ++tl48;
    if (s.part.threadlen == 8) ++tl8;
    if (s.chunk_nnz != 0) {
      EXPECT_EQ(s.chunk_nnz % s.part.threadlen, 0u);
    }
  }
  EXPECT_EQ(tl48, 2);
  EXPECT_EQ(tl8, 3);
}

TEST(Tuning, DeviceAxisSweepsNativeOnly) {
  std::set<Cell> cells;
  const TuneResult r = tune_backends(
      [&](Partitioning part, ExecBackend backend, nnz_t chunk, unsigned devices) {
        EXPECT_TRUE(cells.insert({part.block_size, part.threadlen, backend, chunk, devices})
                        .second);
        // Make the sharded native cell the winner so best_* records it.
        if (backend == ExecBackend::kNative && devices == 2) return 0.5;
        return 1.0;
      },
      /*threadlens=*/{8}, /*block_sizes=*/{32}, default_backends(),
      /*chunk_nnzs=*/{0}, /*num_devices=*/{1, 2});

  // native x {1,2} devices + sim x {1} device = 3 samples.
  EXPECT_EQ(r.samples.size(), 3u);
  for (const TuneSample& s : r.samples) {
    if (s.backend == ExecBackend::kSim) {
      EXPECT_EQ(s.num_devices, 1u);
    }
  }
  EXPECT_EQ(r.best_backend, ExecBackend::kNative);
  EXPECT_EQ(r.best_num_devices, 2u);
  EXPECT_EQ(r.best_seconds, 0.5);
}

TEST(Tuning, SimOnlySweepNeedsNeutralAxisValues) {
  const auto runner = [](Partitioning, ExecBackend, nnz_t, unsigned) { return 1.0; };
  EXPECT_THROW(tune_backends(runner, {8}, {32}, {ExecBackend::kSim}, {16384}, {1}),
               InvalidOptions);
  EXPECT_THROW(tune_backends(runner, {8}, {32}, {ExecBackend::kSim}, {0}, {2}),
               InvalidOptions);
  // Neutral values present: the sweep runs.
  const TuneResult r =
      tune_backends(runner, {8}, {32}, {ExecBackend::kSim}, {0, 16384}, {1, 2});
  EXPECT_EQ(r.samples.size(), 1u);
}

TEST(Tuning, RankBlockAxisSweepsNativeOnly) {
  std::set<std::tuple<ExecBackend, unsigned, index_t>> cells;
  const TuneResult r = tune_backends(
      [&](Partitioning, ExecBackend backend, nnz_t, unsigned devices, index_t rank_block) {
        EXPECT_TRUE(cells.insert({backend, devices, rank_block}).second);
        // Make a narrow native tile the winner so best_rank_block records it.
        if (backend == ExecBackend::kNative && rank_block == 16) return 0.5;
        return 1.0;
      },
      /*threadlens=*/{8}, /*block_sizes=*/{32}, default_backends(),
      /*chunk_nnzs=*/{0}, /*num_devices=*/{1}, /*rank_blocks=*/{0, 16});

  // native x {0,16} rank blocks + sim pinned to rank_block 0 = 3 samples.
  EXPECT_EQ(r.samples.size(), 3u);
  for (const TuneSample& s : r.samples) {
    if (s.backend == ExecBackend::kSim) {
      EXPECT_EQ(s.rank_block, 0u);
    }
  }
  EXPECT_EQ(r.best_backend, ExecBackend::kNative);
  EXPECT_EQ(r.best_rank_block, 16u);
  EXPECT_EQ(r.best_seconds, 0.5);
}

TEST(Tuning, SimOnlySweepNeedsNeutralRankBlock) {
  const auto runner = [](Partitioning, ExecBackend, nnz_t, unsigned, index_t) {
    return 1.0;
  };
  EXPECT_THROW(tune_backends(runner, {8}, {32}, {ExecBackend::kSim}, {0}, {1}, {16}),
               InvalidOptions);
  // Neutral value present: the sweep runs, skipping sim x non-zero cells.
  const TuneResult r =
      tune_backends(runner, {8}, {32}, {ExecBackend::kSim}, {0}, {1}, {0, 16});
  EXPECT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0].rank_block, 0u);
}

TEST(Tuning, FiveAxisOverloadStaysUnblocked) {
  const TuneResult r = tune_backends(
      [&](Partitioning, ExecBackend, nnz_t, unsigned) { return 1.0; }, {8}, {32},
      {ExecBackend::kNative}, {0}, {1, 2});
  EXPECT_EQ(r.samples.size(), 2u);
  for (const TuneSample& s : r.samples) EXPECT_EQ(s.rank_block, 0u);
  EXPECT_EQ(r.best_rank_block, 0u);
}

TEST(Tuning, FourAxisOverloadStaysSingleDevice) {
  const TuneResult r = tune_backends(
      [&](Partitioning, ExecBackend, nnz_t) { return 1.0; }, {8}, {32},
      {ExecBackend::kNative}, {0, 8192});
  EXPECT_EQ(r.samples.size(), 2u);
  for (const TuneSample& s : r.samples) EXPECT_EQ(s.num_devices, 1u);
  EXPECT_EQ(r.best_num_devices, 1u);
}

}  // namespace
}  // namespace ust::core
