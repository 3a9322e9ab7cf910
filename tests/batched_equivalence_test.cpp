// Request-batching equivalence (DESIGN.md §13): N same-plan requests fused
// into one pass over the non-zero stream -- via Engine::run_batched or the
// worker's queue coalescing behind Engine::submit -- must be BITWISE
// identical to running the N requests sequentially. Batching changes the
// wall clock and the jobs_batched / batches_formed counters, never a byte of
// output. Also covers batch formation rules (sharded requests and unequal
// shapes never fuse) and the counter invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <vector>

#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "sim/device.hpp"
#include "test_support.hpp"

namespace ust::engine {
namespace {

using core::UnifiedOptions;

const std::vector<int> kBatchSizes{1, 2, 5};

TEST(BatchedEquivalence, SpMttkrpBatchesBitwiseMatchSequential) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(6001);
  for (int n : kBatchSizes) {
    // Trial 6 pins rank 40: every worker tile spans several cache lines and
    // ends in a partial one.
    for (int trial = 0; trial < 7; ++trial) {
      const CooTensor t = test::random_coo3(rng, 26, 1500);
      const Partitioning part{.threadlen = 8, .block_size = 64};
      const int mode = static_cast<int>(rng.next_below(3));
      const index_t rank = trial == 6 ? 40 : 1 + static_cast<index_t>(rng.next_below(24));
      core::UnifiedMttkrp op(eng, t, mode, part);

      std::vector<std::vector<DenseMatrix>> factors;
      std::vector<DenseMatrix> seq_out, bat_out;
      for (int j = 0; j < n; ++j) {
        factors.push_back(test::random_factors(t, rank, rng));
        seq_out.emplace_back(t.dim(mode), rank);
        bat_out.emplace_back(t.dim(mode), rank);
      }
      for (int j = 0; j < n; ++j) {
        eng.run(op.request(factors[static_cast<std::size_t>(j)],
                           seq_out[static_cast<std::size_t>(j)]));
      }
      BatchedRequest br;
      for (int j = 0; j < n; ++j) {
        br.requests.push_back(op.request(factors[static_cast<std::size_t>(j)],
                                         bat_out[static_cast<std::size_t>(j)]));
      }
      eng.run_batched(br);
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(DenseMatrix::max_abs_diff(seq_out[static_cast<std::size_t>(j)],
                                            bat_out[static_cast<std::size_t>(j)]),
                  0.0)
            << "batch " << n << " trial " << trial << " member " << j;
      }
    }
  }
}

TEST(BatchedEquivalence, SpttmBatchesBitwiseMatchSequential) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(6002);
  for (int n : kBatchSizes) {
    const CooTensor t = test::random_coo3(rng, 26, 1500);
    const Partitioning part{.threadlen = 8, .block_size = 64};
    const int mode = static_cast<int>(rng.next_below(3));
    const index_t rank = 1 + static_cast<index_t>(rng.next_below(20));
    core::UnifiedSpttm op(eng, t, mode, part);

    std::vector<DenseMatrix> us;
    std::vector<SemiSparseTensor> seq_out, bat_out;
    for (int j = 0; j < n; ++j) {
      us.push_back(test::random_matrix(t.dim(mode), rank, rng.next_u64()));
      seq_out.push_back(op.make_output(rank));
      bat_out.push_back(op.make_output(rank));
    }
    for (int j = 0; j < n; ++j) {
      eng.run(op.request(us[static_cast<std::size_t>(j)],
                         seq_out[static_cast<std::size_t>(j)]));
    }
    BatchedRequest br;
    for (int j = 0; j < n; ++j) {
      br.requests.push_back(op.request(us[static_cast<std::size_t>(j)],
                                       bat_out[static_cast<std::size_t>(j)]));
    }
    eng.run_batched(br);
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(SemiSparseTensor::max_abs_diff(seq_out[static_cast<std::size_t>(j)],
                                               bat_out[static_cast<std::size_t>(j)]),
                0.0)
          << "batch " << n << " member " << j;
    }
  }
}

TEST(BatchedEquivalence, SpttmcBatchesBitwiseMatchSequential) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(6003);
  for (int n : kBatchSizes) {
    const CooTensor t = test::random_coo3(rng, 24, 1200);
    const Partitioning part{.threadlen = 8, .block_size = 64};
    const int mode = static_cast<int>(rng.next_below(3));
    const int a = mode == 0 ? 1 : 0;
    const int b = mode == 2 ? 1 : 2;
    const index_t r0 = 1 + static_cast<index_t>(rng.next_below(6));
    const index_t r1 = 1 + static_cast<index_t>(rng.next_below(6));
    core::UnifiedTtmc op(eng, t, mode, part);

    std::vector<DenseMatrix> u0s, u1s, seq_out, bat_out;
    for (int j = 0; j < n; ++j) {
      u0s.push_back(test::random_matrix(t.dim(a), r0, rng.next_u64()));
      u1s.push_back(test::random_matrix(t.dim(b), r1, rng.next_u64()));
      seq_out.emplace_back(t.dim(mode), r0 * r1);
      bat_out.emplace_back(t.dim(mode), r0 * r1);
    }
    for (int j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(j);
      eng.run(op.request(u0s[k], u1s[k], seq_out[k]));
    }
    BatchedRequest br;
    for (int j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(j);
      br.requests.push_back(op.request(u0s[k], u1s[k], bat_out[k]));
    }
    eng.run_batched(br);
    for (int j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(j);
      ASSERT_EQ(DenseMatrix::max_abs_diff(seq_out[k], bat_out[k]), 0.0)
          << "batch " << n << " member " << j;
    }
  }
}

TEST(BatchedEquivalence, SpttvBatchesBitwiseMatchSequential) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(6004);
  for (int n : kBatchSizes) {
    const CooTensor t = test::random_coo3(rng, 26, 1500);
    const Partitioning part{.threadlen = 8, .block_size = 64};
    const int mode = static_cast<int>(rng.next_below(3));
    core::UnifiedTtv op(eng, t, mode, part);

    std::vector<std::vector<std::vector<value_t>>> vecs;
    std::vector<std::vector<value_t>> seq_out, bat_out;
    for (int j = 0; j < n; ++j) {
      std::vector<std::vector<value_t>> vs;
      for (int m = 0; m < 3; ++m) {
        std::vector<value_t> v(t.dim(m));
        for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
        vs.push_back(std::move(v));
      }
      vecs.push_back(std::move(vs));
      seq_out.emplace_back(t.dim(mode));
      bat_out.emplace_back(t.dim(mode));
    }
    for (int j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(j);
      eng.run(op.request(vecs[k], seq_out[k]));
    }
    BatchedRequest br;
    for (int j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(j);
      br.requests.push_back(op.request(vecs[k], bat_out[k]));
    }
    eng.run_batched(br);
    for (int j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(j);
      ASSERT_EQ(0, std::memcmp(seq_out[k].data(), bat_out[k].data(),
                               seq_out[k].size() * sizeof(value_t)))
          << "batch " << n << " member " << j;
    }
  }
}

TEST(BatchedEquivalence, MixedCompositionWithSharding) {
  // One BatchedRequest holding fusable same-plan jobs plus a sharded request
  // of the same op: the unfusable member falls back to its synchronous path,
  // and every output still matches its sequential run.
  sim::Device dev;
  Engine eng(dev);
  Prng rng(6005);
  const CooTensor t = test::random_coo3(rng, 26, 1500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const index_t rank = 13;
  core::UnifiedMttkrp op(eng, t, 0, part);

  UnifiedOptions shard_opt;
  shard_opt.shard.num_devices = 2;

  std::vector<std::vector<DenseMatrix>> factors;
  std::vector<DenseMatrix> seq_out, bat_out;
  for (int j = 0; j < 3; ++j) {
    factors.push_back(test::random_factors(t, rank, rng));
    seq_out.emplace_back(t.dim(0), rank);
    bat_out.emplace_back(t.dim(0), rank);
  }
  eng.run(op.request(factors[0], seq_out[0]));
  eng.run(op.request(factors[1], seq_out[1]));
  eng.run(op.request(factors[2], seq_out[2], shard_opt));

  BatchedRequest br;
  br.requests.push_back(op.request(factors[0], bat_out[0]));
  br.requests.push_back(op.request(factors[1], bat_out[1]));
  br.requests.push_back(op.request(factors[2], bat_out[2], shard_opt));
  eng.run_batched(br);

  for (int j = 0; j < 3; ++j) {
    const auto k = static_cast<std::size_t>(j);
    ASSERT_EQ(DenseMatrix::max_abs_diff(seq_out[k], bat_out[k]), 0.0) << "member " << j;
  }

  const EngineStats s = eng.stats();
  // The two fusable members formed exactly one batch; the sharded member
  // fell back to a solo run (counted in neither batching counter).
  EXPECT_EQ(s.batches_formed, 1u);
  EXPECT_EQ(s.jobs_batched, 2u);
}

TEST(BatchedEquivalence, SubmitCoalescingPreservesResultsAndCounters) {
  // Worker-side coalescing: keep the single worker busy with a blocker job,
  // queue N compatible jobs behind it, and let the worker drain them in one
  // batched pass. Results must match sequential; the counters must satisfy
  // jobs_batched >= 2 * batches_formed.
  sim::Device dev;
  EngineOptions eopt;
  eopt.max_queued_jobs = 64;
  eopt.max_batch = 8;
  Engine eng(dev, eopt);
  Prng rng(6006);
  const CooTensor t = test::random_coo3(rng, 30, 2500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const index_t rank = 16;
  core::UnifiedMttkrp op(eng, t, 0, part);

  constexpr int kJobs = 6;
  std::vector<std::vector<DenseMatrix>> factors;
  std::vector<DenseMatrix> seq_out;
  for (int j = 0; j < kJobs; ++j) {
    factors.push_back(test::random_factors(t, rank, rng));
    seq_out.emplace_back(t.dim(0), rank);
    eng.run(op.request(factors[static_cast<std::size_t>(j)],
                       seq_out[static_cast<std::size_t>(j)]));
  }

  // A batch is only guaranteed when the submissions pile up behind a running
  // job, so each burst leads with a blocker on a different plan (incompatible,
  // hence never fused and counted in neither batching counter) that is big
  // enough for the six compatible submits to land while it runs. The retry
  // loop is a belt-and-braces fallback for a machine stalled longer than the
  // blocker's runtime (results are checked every attempt regardless).
  const CooTensor blocker_t = io::generate_uniform({60, 60, 60}, 150000, 99);
  core::UnifiedMttkrp blocker_op(eng, blocker_t, 0, part);
  const auto blocker_factors = test::random_factors(blocker_t, rank, rng);
  bool formed = false;
  for (int attempt = 0; attempt < 8 && !formed; ++attempt) {
    DenseMatrix blocker_out(blocker_t.dim(0), rank);
    std::vector<DenseMatrix> outs;
    for (int j = 0; j < kJobs; ++j) outs.emplace_back(t.dim(0), rank);
    std::vector<std::future<void>> futures;
    futures.push_back(eng.submit(blocker_op.request(blocker_factors, blocker_out)));
    // Every member of a fused batch runs its own completion callback once.
    std::vector<std::atomic<int>> calls(kJobs);
    for (int j = 0; j < kJobs; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      futures.push_back(eng.submit(op.request(factors[jj], outs[jj]), nullptr,
                                   Admission::kBlock, [&calls, jj] { ++calls[jj]; }));
    }
    for (auto& f : futures) f.get();
    for (int j = 0; j < kJobs; ++j) {
      EXPECT_EQ(calls[static_cast<std::size_t>(j)].load(), 1)
          << "attempt " << attempt << " member " << j;
      ASSERT_EQ(DenseMatrix::max_abs_diff(outs[static_cast<std::size_t>(j)],
                                          seq_out[static_cast<std::size_t>(j)]),
                0.0)
          << "attempt " << attempt << " member " << j;
    }
    formed = eng.stats().batches_formed > 0;
  }
  EXPECT_TRUE(formed) << "no batch formed across attempts";

  const EngineStats s = eng.stats();
  EXPECT_GE(s.jobs_batched, 2 * s.batches_formed);
  EXPECT_EQ(s.jobs_queued, 0u);
  EXPECT_EQ(s.jobs_active, 0u);
  EXPECT_EQ(s.jobs_submitted, s.jobs_completed);
}

TEST(BatchedEquivalence, MaxBatchOneDisablesCoalescing) {
  sim::Device dev;
  EngineOptions eopt;
  eopt.max_queued_jobs = 64;
  eopt.max_batch = 1;
  Engine eng(dev, eopt);
  Prng rng(6007);
  const CooTensor t = test::random_coo3(rng, 24, 1200);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  core::UnifiedMttkrp op(eng, t, 0, part);

  std::vector<std::vector<DenseMatrix>> factors;
  std::vector<DenseMatrix> outs;
  std::vector<std::future<void>> futures;
  for (int j = 0; j < 6; ++j) {
    factors.push_back(test::random_factors(t, 8, rng));
    outs.emplace_back(t.dim(0), 8);
  }
  for (int j = 0; j < 6; ++j) {
    futures.push_back(eng.submit(op.request(factors[static_cast<std::size_t>(j)],
                                            outs[static_cast<std::size_t>(j)])));
  }
  for (auto& f : futures) f.get();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.batches_formed, 0u);
  EXPECT_EQ(s.jobs_batched, 0u);
}

TEST(BatchedEquivalence, IncompatibleRequestsNeverFuse) {
  // Different output widths on the same plan bundle (SpTTV vs SpMTTKRP share
  // cached plan content) and different ranks must not fuse; run_batched must
  // still produce sequential-identical results.
  sim::Device dev;
  Engine eng(dev);
  Prng rng(6008);
  const CooTensor t = test::random_coo3(rng, 24, 1200);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  core::UnifiedMttkrp op(eng, t, 0, part);
  core::UnifiedTtv ttv(eng, t, 0, part);

  const auto f8 = test::random_factors(t, 8, rng);
  const auto f9 = test::random_factors(t, 9, rng);
  std::vector<std::vector<value_t>> vs;
  for (int m = 0; m < 3; ++m) {
    std::vector<value_t> v(t.dim(m));
    for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
    vs.push_back(std::move(v));
  }
  DenseMatrix seq8(t.dim(0), 8), seq9(t.dim(0), 9), bat8(t.dim(0), 8), bat9(t.dim(0), 9);
  std::vector<value_t> seqv(t.dim(0)), batv(t.dim(0));
  eng.run(op.request(f8, seq8));
  eng.run(op.request(f9, seq9));
  eng.run(ttv.request(vs, seqv));

  BatchedRequest br;
  br.requests.push_back(op.request(f8, bat8));
  br.requests.push_back(op.request(f9, bat9));
  br.requests.push_back(ttv.request(vs, batv));
  eng.run_batched(br);

  EXPECT_EQ(DenseMatrix::max_abs_diff(seq8, bat8), 0.0);
  EXPECT_EQ(DenseMatrix::max_abs_diff(seq9, bat9), 0.0);
  EXPECT_EQ(0, std::memcmp(seqv.data(), batv.data(), seqv.size() * sizeof(value_t)));
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.batches_formed, 0u);
  EXPECT_EQ(s.jobs_batched, 0u);
}

}  // namespace
}  // namespace ust::engine
