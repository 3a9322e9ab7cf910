// Sharded-vs-single-device equivalence fuzz (DESIGN.md §10): executing any
// of the four unified operations across a multi-device shard group must be
// BITWISE identical to a single-device native run with the same worker-grid
// cap -- shard boundaries are whole worker chunks, interior segments commit
// on exactly one device, and the cross-shard merge replays the single-device
// left-to-right carry fold. Equality is exact float comparison across
// {1,2,3,5} devices, both balance policies, random partitionings, the
// streaming composition (shards that themselves stream), empty shards (more
// devices than worker chunks), and one giant segment spanning all shards.
#include <gtest/gtest.h>

#include "core/cp_als.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "pipeline/chunker.hpp"
#include "shard/shard_executor.hpp"
#include "engine/engine.hpp"
#include "sim/device.hpp"
#include "test_support.hpp"

namespace ust::core {
namespace {

constexpr unsigned kDeviceCounts[] = {1, 2, 3, 5};
constexpr ShardBalance kBalances[] = {ShardBalance::kNnz, ShardBalance::kSegments};

Partitioning random_part(Prng& rng) {
  return Partitioning{.threadlen = 2u + static_cast<unsigned>(rng.next_below(15)),
                      .block_size = 16u << rng.next_below(3)};
}

/// Random worker-grid cap (threadlen multiple; 0 = auto) shared by the
/// sharded run and its single-device mirror.
nnz_t random_cap(Prng& rng, unsigned threadlen) {
  return rng.next_below(2) == 0 ? 0 : threadlen * (1 + rng.next_below(8));
}

UnifiedOptions sharded_options(nnz_t cap, unsigned devices, ShardBalance balance) {
  UnifiedOptions opt;
  opt.backend = ExecBackend::kNative;
  opt.chunk_nnz = cap;
  opt.shard = ShardOptions{.num_devices = devices, .balance = balance};
  return opt;
}

TEST(ShardEquivalence, SpMttkrpBitwiseMatchesSingleDevice) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6001);
  for (int trial = 0; trial < 12; ++trial) {
    const CooTensor t = test::random_coo3(rng, 30, 2000);
    const Partitioning part = random_part(rng);
    const int mode = static_cast<int>(rng.next_below(3));
    const index_t rank = 1 + static_cast<index_t>(rng.next_below(9));
    const auto factors = test::random_factors(t, rank, rng);
    const nnz_t cap = random_cap(rng, part.threadlen);

    UnifiedMttkrp op(eng, t, mode, part);
    const DenseMatrix want = op.run(factors, UnifiedOptions{.chunk_nnz = cap});
    for (unsigned devices : kDeviceCounts) {
      for (ShardBalance balance : kBalances) {
        const UnifiedOptions opt = sharded_options(cap, devices, balance);
        DenseMatrix got(want.rows(), want.cols());
        // run_sharded directly so devices == 1 also goes through the shard
        // executor (run() routes there only for devices > 1).
        op.run_sharded(factors, got, opt);
        ASSERT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0)
            << "trial " << trial << " mode " << mode << " devices " << devices
            << " balance " << (balance == ShardBalance::kNnz ? "nnz" : "segments")
            << " cap " << cap;
      }
    }
  }
}

TEST(ShardEquivalence, SpttmBitwiseMatchesSingleDevice) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6002);
  for (int trial = 0; trial < 10; ++trial) {
    const CooTensor t = test::random_coo3(rng, 30, 1500);
    const Partitioning part = random_part(rng);
    const int mode = static_cast<int>(rng.next_below(3));
    const index_t rank = 1 + static_cast<index_t>(rng.next_below(7));
    const DenseMatrix u = test::random_matrix(t.dim(mode), rank, rng.next_u64());
    const nnz_t cap = random_cap(rng, part.threadlen);

    UnifiedSpttm op(eng, t, mode, part);
    const SemiSparseTensor want = op.run(u, UnifiedOptions{.chunk_nnz = cap});
    for (unsigned devices : {2u, 3u, 5u}) {
      for (ShardBalance balance : kBalances) {
        const SemiSparseTensor got = op.run(u, sharded_options(cap, devices, balance));
        ASSERT_EQ(SemiSparseTensor::max_abs_diff(got, want), 0.0)
            << "trial " << trial << " mode " << mode << " devices " << devices;
      }
    }
  }
}

TEST(ShardEquivalence, SpttmcBitwiseMatchesSingleDevice) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6003);
  for (int trial = 0; trial < 10; ++trial) {
    const CooTensor t = test::random_coo3(rng, 24, 1200);
    const Partitioning part = random_part(rng);
    const int mode = static_cast<int>(rng.next_below(3));
    const int a = mode == 0 ? 1 : 0;
    const int b = mode == 2 ? 1 : 2;
    const index_t r0 = 1 + static_cast<index_t>(rng.next_below(5));
    const index_t r1 = 1 + static_cast<index_t>(rng.next_below(5));
    const DenseMatrix u0 = test::random_matrix(t.dim(a), r0, rng.next_u64());
    const DenseMatrix u1 = test::random_matrix(t.dim(b), r1, rng.next_u64());
    const nnz_t cap = random_cap(rng, part.threadlen);

    UnifiedTtmc op(eng, t, mode, part);
    const DenseMatrix want = op.run(u0, u1, UnifiedOptions{.chunk_nnz = cap});
    for (unsigned devices : {2u, 3u, 5u}) {
      for (ShardBalance balance : kBalances) {
        const DenseMatrix got = op.run(u0, u1, sharded_options(cap, devices, balance));
        ASSERT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0)
            << "trial " << trial << " mode " << mode << " devices " << devices;
      }
    }
  }
}

TEST(ShardEquivalence, SpttvBitwiseMatchesSingleDevice) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6004);
  for (int trial = 0; trial < 12; ++trial) {
    const CooTensor t = test::random_coo3(rng, 30, 2000);
    const Partitioning part = random_part(rng);
    const int mode = static_cast<int>(rng.next_below(3));
    std::vector<std::vector<value_t>> vectors;
    for (int m = 0; m < 3; ++m) {
      std::vector<value_t> v(t.dim(m));
      for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
      vectors.push_back(std::move(v));
    }
    const nnz_t cap = random_cap(rng, part.threadlen);

    UnifiedTtv op(eng, t, mode, part);
    const std::vector<value_t> want = op.run(vectors, UnifiedOptions{.chunk_nnz = cap});
    for (unsigned devices : {2u, 3u, 5u}) {
      for (ShardBalance balance : kBalances) {
        const std::vector<value_t> got = op.run(vectors, sharded_options(cap, devices, balance));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "trial " << trial << " row " << i << " devices " << devices;
        }
      }
    }
  }
}

TEST(ShardEquivalence, ShardsComposeWithStreaming) {
  // Sharding + streaming: each shard's worker chunks are regrouped into
  // bounded stream chunks on the shard's device. Result must stay bitwise
  // identical to a single-device native run at the chunker-resolved cap.
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6005);
  for (int trial = 0; trial < 10; ++trial) {
    const CooTensor t = test::random_coo3(rng, 30, 1800);
    const Partitioning part = random_part(rng);
    const int mode = static_cast<int>(rng.next_below(3));
    const index_t rank = 1 + static_cast<index_t>(rng.next_below(8));
    const auto factors = test::random_factors(t, rank, rng);

    StreamingOptions s;
    s.enabled = true;
    s.max_in_flight = 1 + static_cast<unsigned>(rng.next_below(3));
    s.chunk_nnz = part.threadlen * (1 + rng.next_below(6));
    s.chunk_bytes = (1 + rng.next_below(3)) * s.chunk_nnz * pipeline::plan_bytes_per_nnz(2);
    const nnz_t cap = pipeline::resolve_chunk_nnz(t.nnz(), 2, part, s);

    UnifiedMttkrp streaming_op(eng, t, mode, part, s);
    UnifiedMttkrp mono(eng, t, mode, part);
    const DenseMatrix want = mono.run(factors, UnifiedOptions{.chunk_nnz = cap});
    for (unsigned devices : {2u, 4u}) {
      for (ShardBalance balance : kBalances) {
        const DenseMatrix got =
            streaming_op.run(factors, sharded_options(/*cap=*/0, devices, balance));
        ASSERT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0)
            << "trial " << trial << " devices " << devices << " chunk " << cap;
      }
    }
  }
}

TEST(ShardEquivalence, RepeatRunsHitShardPlanCachesAndStayBitwise) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6006);
  const CooTensor t = test::random_coo3(rng, 25, 1500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const auto factors = test::random_factors(t, 6, 99);
  UnifiedMttkrp op(eng, t, 0, part);
  const UnifiedOptions opt = sharded_options(/*cap=*/32, 3, ShardBalance::kSegments);
  const DenseMatrix first = op.run(factors, opt);
  const DenseMatrix second = op.run(factors, opt);
  EXPECT_EQ(DenseMatrix::max_abs_diff(first, second), 0.0);
  const DenseMatrix want = op.run(factors, UnifiedOptions{.chunk_nnz = 32});
  EXPECT_EQ(DenseMatrix::max_abs_diff(first, want), 0.0);
}

TEST(ShardEquivalence, GiantSegmentSpanningAllShards) {
  // One segment owning every non-zero: every shard boundary splits it, all
  // interior commits vanish, and the entire result flows through the
  // cross-shard carry merge.
  sim::Device dev;
  engine::Engine eng(dev);
  CooTensor t({1, 6, 7});
  for (index_t j = 0; j < 6; ++j) {
    for (index_t k = 0; k < 7; ++k) {
      const index_t idx[3] = {0, j, k};
      t.push_back(idx, 0.25f + static_cast<float>(j) - 0.5f * static_cast<float>(k));
    }
  }
  const Partitioning part{.threadlen = 4, .block_size = 32};
  const auto factors = test::random_factors(t, 5, 7);
  UnifiedMttkrp op(eng, t, 0, part);
  const DenseMatrix want = op.run(factors, UnifiedOptions{.chunk_nnz = 4});
  for (unsigned devices : kDeviceCounts) {
    for (ShardBalance balance : kBalances) {
      DenseMatrix got(want.rows(), want.cols());
      op.run_sharded(factors, got, sharded_options(4, devices, balance));
      EXPECT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0)
          << "devices " << devices;
    }
  }
}

TEST(ShardEquivalence, EmptyShardsAndTinyTensors) {
  sim::Device dev;
  engine::Engine eng(dev);
  const Partitioning part{.threadlen = 8, .block_size = 32};

  // Empty tensor: nothing to shard, output stays zero.
  CooTensor empty({4, 5, 6});
  const auto factors = test::random_factors(empty, 3, 7);
  UnifiedMttkrp op_empty(eng, empty, 0, part);
  DenseMatrix m(4, 3);
  op_empty.run_sharded(factors, m, sharded_options(0, 5, ShardBalance::kSegments));
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t c = 0; c < m.cols(); ++c) EXPECT_EQ(m(i, c), 0.0f);
  }

  // One non-zero, five devices: four shards are empty.
  CooTensor one({4, 5, 6});
  const index_t idx[3] = {1, 2, 3};
  one.push_back(idx, 2.5f);
  const auto f1 = test::random_factors(one, 4, 11);
  UnifiedMttkrp op_one(eng, one, 0, part);
  const DenseMatrix want = op_one.run(f1, UnifiedOptions{.chunk_nnz = 8});
  DenseMatrix got(want.rows(), want.cols());
  op_one.run_sharded(f1, got, sharded_options(8, 5, ShardBalance::kNnz));
  EXPECT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0);
}

TEST(ShardEquivalence, ReportAccountsForEveryDeviceAndChunk) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6007);
  const CooTensor t = test::random_coo3(rng, 25, 1600);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const auto factors = test::random_factors(t, 6, 13);
  UnifiedMttkrp op(eng, t, 0, part);
  shard::Report report;
  DenseMatrix out(t.dim(0), 6);
  op.run_sharded(factors, out, sharded_options(16, 3, ShardBalance::kSegments), &report);

  ASSERT_EQ(report.devices.size(), 3u);
  nnz_t total_nnz = 0;
  std::size_t total_chunks = 0;
  for (const shard::DeviceReport& d : report.devices) {
    total_nnz += d.nnz;
    total_chunks += d.chunks;
  }
  EXPECT_EQ(total_nnz, t.nnz());
  const auto grid = core::native::make_chunks(t.nnz(), part.threadlen, 16);
  EXPECT_EQ(total_chunks, grid.size());
  // Device ordinals are 0..N-1 in order.
  for (std::size_t d = 0; d < report.devices.size(); ++d) {
    EXPECT_EQ(report.devices[d].ordinal, static_cast<int>(d));
  }
}

TEST(ShardEquivalence, CpAlsShardedMatchesSingleDevice) {
  // ShardOptions thread through CpOptions::kernel: a sharded CP-ALS solve
  // must be bitwise identical to the single-device solve (the dense algebra
  // is shared; the MTTKRPs are bitwise equal by the tests above).
  sim::Device dev;
  Prng rng(6008);
  const CooTensor t = test::random_coo3(rng, 18, 900);
  CpOptions opt;
  opt.rank = 4;
  opt.max_iterations = 2;
  opt.fit_tolerance = 0.0;
  opt.part = Partitioning{.threadlen = 8, .block_size = 64};
  opt.kernel.chunk_nnz = 16;
  opt.seed = 5;
  const CpResult want = test::cp_als_unified(dev, t, opt);
  opt.kernel.shard = ShardOptions{.num_devices = 2, .balance = ShardBalance::kSegments};
  const CpResult got = test::cp_als_unified(dev, t, opt);
  ASSERT_EQ(got.factors.size(), want.factors.size());
  for (std::size_t m = 0; m < got.factors.size(); ++m) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(got.factors[m], want.factors[m]), 0.0) << m;
  }
  EXPECT_EQ(got.fit, want.fit);
}

TEST(ShardEquivalence, RejectsInvalidShardOptions) {
  sim::Device dev;
  engine::Engine eng(dev);
  Prng rng(6009);
  const CooTensor t = test::random_coo3(rng, 10, 200);
  const Partitioning part{.threadlen = 8, .block_size = 32};
  UnifiedMttkrp op(eng, t, 0, part);
  const auto factors = test::random_factors(t, 3, 9);

  UnifiedOptions zero_devices;
  zero_devices.shard.num_devices = 0;
  EXPECT_THROW(op.run(factors, zero_devices), InvalidOptions);

  UnifiedOptions sharded_sim;
  sharded_sim.backend = ExecBackend::kSim;
  sharded_sim.shard.num_devices = 2;
  EXPECT_THROW(op.run(factors, sharded_sim), InvalidOptions);
}

}  // namespace
}  // namespace ust::core
