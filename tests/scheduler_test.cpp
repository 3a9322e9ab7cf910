// Scheduler tests (DESIGN.md §15): skewed mixed-op traffic must spread
// across the device group without idling it behind one long job, a
// drained worker must steal backlogged work (preserving results), latency-
// class jobs must jump batch backlog without starving it (aging bound), a
// synchronous sharded run holding every device's exec mutex must leave the
// submitted singles around it and its own result bitwise intact, and every
// scheduled result must stay bitwise identical to sequential execution
// regardless of placement.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace ust::engine {
namespace {

/// Submits `req` and returns the future (thin alias to keep call sites flat).
std::future<void> submit(Engine& eng, OpRequest req, JobRecord* rec = nullptr) {
  return eng.submit(std::move(req), rec);
}

TEST(Scheduler, SkewedMixedFuzzKeepsEveryDeviceBusyAndBitwise) {
  // One long job plus a burst of small ones: least-loaded placement must not
  // pile the smalls behind the long job, and stealing rescues any that land
  // there anyway. Every output must equal the sequential truth bitwise.
  Engine eng(EngineOptions{.num_devices = 2, .max_batch = 1});
  Prng rng(301);
  const CooTensor big = io::generate_uniform({96, 96, 96}, 180000, 3011);
  const CooTensor small = io::generate_uniform({24, 24, 24}, 2500, 3012);
  const Partitioning part{.threadlen = 8, .block_size = 64};

  core::UnifiedMttkrp big_op(eng, big, 0, part);
  core::UnifiedMttkrp small_op(eng, small, 0, part);
  core::UnifiedTtv ttv_op(eng, small, 1, part);
  eng.prewarm(*big_op.op_plan());
  eng.prewarm(*small_op.op_plan());
  eng.prewarm(*ttv_op.op_plan());

  const auto big_factors = test::random_factors(big, 24, 41);
  const auto small_factors = test::random_factors(small, 4, 43);
  std::vector<std::vector<value_t>> vecs;
  for (int m = 0; m < 3; ++m) {
    std::vector<value_t> v(static_cast<std::size_t>(small.dim(m)));
    for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
    vecs.push_back(std::move(v));
  }

  DenseMatrix big_want(big.dim(0), 24);
  big_op.run(big_factors, big_want);
  DenseMatrix small_want(small.dim(0), 4);
  small_op.run(small_factors, small_want);
  const std::vector<value_t> ttv_want = ttv_op.run(vecs);

  constexpr int kSmall = 20;
  DenseMatrix big_out(big.dim(0), 24);
  std::vector<DenseMatrix> small_outs(kSmall, DenseMatrix(small.dim(0), 4));
  std::vector<std::vector<value_t>> ttv_outs(
      kSmall, std::vector<value_t>(static_cast<std::size_t>(small.dim(1))));
  std::vector<JobRecord> records(1 + 2 * kSmall);
  std::vector<std::future<void>> futures;
  futures.push_back(submit(eng, big_op.request(big_factors, big_out), &records[0]));
  for (int j = 0; j < kSmall; ++j) {
    futures.push_back(submit(eng, small_op.request(small_factors, small_outs[j]),
                             &records[static_cast<std::size_t>(1 + 2 * j)]));
    futures.push_back(submit(eng, ttv_op.request(vecs, ttv_outs[j]),
                             &records[static_cast<std::size_t>(2 + 2 * j)]));
  }
  for (auto& f : futures) f.get();

  EXPECT_EQ(DenseMatrix::max_abs_diff(big_out, big_want), 0.0);
  for (int j = 0; j < kSmall; ++j) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(small_outs[j], small_want), 0.0) << "job " << j;
    EXPECT_EQ(ttv_outs[j], ttv_want) << "ttv " << j;
  }
  bool used[2] = {false, false};
  for (const JobRecord& r : records) {
    ASSERT_TRUE(r.device == 0 || r.device == 1);
    used[r.device] = true;
  }
  EXPECT_TRUE(used[0] && used[1]);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_completed, records.size());
}

TEST(Scheduler, DrainedWorkerStealsBackloggedQueue) {
  // Least-loaded placement sends a long blocker to device 0 and a medium job
  // to device 1, then alternates the smalls across the two busy queues.
  // Device 1 drains its share long before the blocker ends and must steal
  // device 0's backlog instead of idling. The requests are built up front so
  // the submit burst is short next to the medium job: a job that completed
  // mid-burst would change placement. The primary's one-slot pool (replicas
  // copy its width) runs every job on its device's worker thread, so
  // neither device's kernel crowds the other off the cores. Which device ran
  // which job is not asserted: device 1 may steal the blocker itself.
  ThreadPool pool(1);
  sim::Device primary(sim::DeviceProps::titan_x(), &pool);
  Engine eng(primary, EngineOptions{.num_devices = 2, .max_batch = 1});
  const CooTensor big = io::generate_uniform({96, 96, 96}, 200000, 3021);
  const CooTensor small = io::generate_uniform({20, 20, 20}, 1500, 3022);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  core::UnifiedMttkrp big_op(eng, big, 0, part);
  core::UnifiedMttkrp small_op(eng, small, 0, part);
  eng.prewarm(*big_op.op_plan());
  eng.prewarm(*small_op.op_plan());
  // Work grows with rank: the blocker's rank is four times the medium's.
  const auto blocker_factors = test::random_factors(big, 2048, 51);
  const auto medium_factors = test::random_factors(big, 512, 52);
  const auto small_factors = test::random_factors(small, 4, 53);
  DenseMatrix blocker_want(big.dim(0), 2048);
  big_op.run(blocker_factors, blocker_want);
  DenseMatrix medium_want(big.dim(0), 512);
  big_op.run(medium_factors, medium_want);
  DenseMatrix small_want(small.dim(0), 4);
  small_op.run(small_factors, small_want);

  constexpr int kSmall = 24;
  DenseMatrix blocker_out(big.dim(0), 2048);
  DenseMatrix medium_out(big.dim(0), 512);
  std::vector<DenseMatrix> outs(kSmall, DenseMatrix(small.dim(0), 4));
  std::vector<OpRequest> reqs;
  reqs.push_back(big_op.request(blocker_factors, blocker_out));
  reqs.push_back(big_op.request(medium_factors, medium_out));
  for (int j = 0; j < kSmall; ++j) reqs.push_back(small_op.request(small_factors, outs[j]));
  std::vector<std::future<void>> futures;
  for (OpRequest& req : reqs) futures.push_back(submit(eng, std::move(req)));
  for (auto& f : futures) f.get();

  EXPECT_EQ(DenseMatrix::max_abs_diff(blocker_out, blocker_want), 0.0);
  EXPECT_EQ(DenseMatrix::max_abs_diff(medium_out, medium_want), 0.0);
  for (int j = 0; j < kSmall; ++j) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(outs[j], small_want), 0.0) << "job " << j;
  }
  // At least one steal must have happened (more is fine).
  EXPECT_GE(eng.stats().steals, 1u);
}

TEST(Scheduler, LatencyClassJumpsBatchBacklogButAgingBoundsTheSkips) {
  // Single device, no batching: a blocker executes while one batch-class job
  // and more latency-class jobs than the skip budget queue behind it.
  // Latency jobs pass the batch job only until its budget is spent, so the
  // completion order shows the batch job behind AT MOST kLatencyMaxSkips --
  // and at least 1 -- latency jobs. The one worker runs each completion
  // callback before that job's future resolves, so once every future is
  // ready `order` holds the completion order. It outlives the engine, whose
  // destructor drains any queued job.
  std::vector<std::size_t> order;
  Engine eng(EngineOptions{.num_devices = 1, .max_batch = 1});
  const CooTensor big = io::generate_uniform({96, 96, 96}, 200000, 3031);
  const CooTensor batch_t = io::generate_uniform({16, 16, 16}, 1000, 3032);
  const CooTensor lat_t = io::generate_uniform({16, 16, 16}, 997, 3033);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  core::UnifiedMttkrp big_op(eng, big, 0, part);
  core::UnifiedMttkrp batch_op(eng, batch_t, 0, part);
  core::UnifiedMttkrp lat_op(eng, lat_t, 0, part);
  // A wide rank keeps the blocker running well past the submit burst.
  const auto big_factors = test::random_factors(big, 1024, 61);
  const auto batch_factors = test::random_factors(batch_t, 4, 63);
  const auto lat_factors = test::random_factors(lat_t, 4, 65);

  constexpr int kLatency = static_cast<int>(kLatencyMaxSkips) + 3;
  DenseMatrix big_out(big.dim(0), 1024);
  DenseMatrix batch_out(batch_t.dim(0), 4);
  std::vector<DenseMatrix> lat_outs(kLatency, DenseMatrix(lat_t.dim(0), 4));
  // Blocker first: it dequeues immediately and occupies the device while the
  // rest of the stream queues up in submission order. The requests are built
  // up front so the submit burst is short next to the blocker. Request j is
  // the blocker (0), the batch job (1) or a latency job (2 and up).
  std::vector<OpRequest> reqs;
  reqs.push_back(big_op.request(big_factors, big_out));
  reqs.push_back(batch_op.request(batch_factors, batch_out));
  for (int j = 0; j < kLatency; ++j) {
    reqs.push_back(lat_op.request(lat_factors, lat_outs[j]));
    reqs.back().service_class = OpRequest::ServiceClass::kLatency;
  }
  std::vector<std::future<void>> futures;
  for (std::size_t j = 0; j < reqs.size(); ++j) {
    futures.push_back(eng.submit(std::move(reqs[j]), nullptr, Admission::kBlock,
                                 [&order, j] { order.push_back(j); }));
  }
  for (auto& f : futures) f.get();

  ASSERT_EQ(order.size(), reqs.size());
  int lat_before_batch = 0;
  bool batch_seen = false;
  for (const std::size_t j : order) {
    if (j == 1) batch_seen = true;
    if (j >= 2 && !batch_seen) ++lat_before_batch;
  }
  ASSERT_TRUE(batch_seen);
  // Jumped: at least one latency job passed the earlier-queued batch job.
  EXPECT_GE(lat_before_batch, 1);
  // Not starved: the batch job was passed at most kLatencyMaxSkips times.
  EXPECT_LE(lat_before_batch, static_cast<int>(kLatencyMaxSkips));
}

TEST(Scheduler, SyncShardedRunAmidSubmittedSinglesStaysBitwise) {
  // A synchronous sharded run() holds every device's exec mutex while
  // submitted singles are queued on, and run by, those devices: the sharded
  // result must equal the 1-device native result bitwise, and the singles
  // around it must be untouched.
  Engine eng(EngineOptions{.num_devices = 2, .max_batch = 1});
  const CooTensor t = io::generate_uniform({48, 48, 48}, 30000, 3041);
  const CooTensor small = io::generate_uniform({20, 20, 20}, 2000, 3042);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  core::UnifiedMttkrp sharded_op(eng, t, 0, part);
  core::UnifiedMttkrp small_op(eng, small, 0, part);
  eng.prewarm(*small_op.op_plan());
  const auto t_factors = test::random_factors(t, 8, 71);
  const auto small_factors = test::random_factors(small, 4, 73);

  core::UnifiedOptions sharded;
  sharded.shard.num_devices = 2;
  DenseMatrix want(t.dim(0), 8);
  sharded_op.run(t_factors, want);
  DenseMatrix small_want(small.dim(0), 4);
  small_op.run(small_factors, small_want);

  constexpr int kRounds = 4;
  constexpr int kSingles = 6;
  for (int round = 0; round < kRounds; ++round) {
    DenseMatrix sharded_out(t.dim(0), 8);
    std::vector<DenseMatrix> outs(kSingles, DenseMatrix(small.dim(0), 4));
    const OpRequest sharded_req = sharded_op.request(t_factors, sharded_out, sharded);
    std::vector<std::future<void>> futures;
    for (int j = 0; j < kSingles / 2; ++j) {
      futures.push_back(submit(eng, small_op.request(small_factors, outs[j])));
    }
    std::future<void> sharded_done =
        std::async(std::launch::async, [&eng, &sharded_req] { eng.run(sharded_req); });
    for (int j = kSingles / 2; j < kSingles; ++j) {
      futures.push_back(submit(eng, small_op.request(small_factors, outs[j])));
    }
    sharded_done.get();
    for (auto& f : futures) f.get();
    EXPECT_EQ(DenseMatrix::max_abs_diff(sharded_out, want), 0.0) << "round " << round;
    for (int j = 0; j < kSingles; ++j) {
      EXPECT_EQ(DenseMatrix::max_abs_diff(outs[j], small_want), 0.0)
          << "round " << round << " single " << j;
    }
  }
}

TEST(Scheduler, BitwiseEqualityVsSequentialUnderRandomMixedLoad) {
  // Fuzz: random ops, modes and service classes submitted concurrently on 2
  // devices must reproduce the sequential truth bitwise, job for job.
  Engine eng(EngineOptions{.num_devices = 2});
  Prng rng(306);
  const CooTensor t = io::generate_uniform({28, 30, 26}, 6000, 3061);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  core::UnifiedMttkrp mttkrp(eng, t, 0, part);
  core::UnifiedSpttm ttm(eng, t, 2, part);
  core::UnifiedTtv ttv(eng, t, 1, part);
  eng.prewarm(*mttkrp.op_plan());
  eng.prewarm(*ttm.op_plan());
  eng.prewarm(*ttv.op_plan());
  const auto factors = test::random_factors(t, 6, 91);
  std::vector<std::vector<value_t>> vecs;
  for (int m = 0; m < 3; ++m) {
    std::vector<value_t> v(static_cast<std::size_t>(t.dim(m)));
    for (auto& e : v) e = rng.next_float(-1.0f, 1.0f);
    vecs.push_back(std::move(v));
  }

  DenseMatrix mttkrp_want(t.dim(0), 6);
  mttkrp.run(factors, mttkrp_want);
  const SemiSparseTensor ttm_want = ttm.run(factors[2]);
  const std::vector<value_t> ttv_want = ttv.run(vecs);

  constexpr int kJobs = 48;
  std::vector<DenseMatrix> mttkrp_outs;
  std::vector<std::vector<value_t>> ttv_outs;
  std::vector<SemiSparseTensor> ttm_outs;
  std::vector<int> kinds;
  std::vector<std::future<void>> futures;
  // Reserve so views handed to the engine stay stable while we keep pushing.
  mttkrp_outs.reserve(kJobs);
  ttv_outs.reserve(kJobs);
  ttm_outs.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    const int kind = static_cast<int>(rng.next_u64() % 3);
    kinds.push_back(kind);
    if (kind == 0) {
      mttkrp_outs.emplace_back(t.dim(0), 6);
      OpRequest req = mttkrp.request(factors, mttkrp_outs.back());
      if (rng.next_u64() % 4 == 0) req.service_class = OpRequest::ServiceClass::kLatency;
      futures.push_back(submit(eng, std::move(req)));
    } else if (kind == 1) {
      ttm_outs.push_back(ttm.make_output(6));
      futures.push_back(submit(eng, ttm.request(factors[2], ttm_outs.back())));
    } else {
      ttv_outs.emplace_back(static_cast<std::size_t>(t.dim(1)));
      futures.push_back(submit(eng, ttv.request(vecs, ttv_outs.back())));
    }
  }
  for (auto& f : futures) f.get();

  std::size_t mi = 0, si = 0, vi = 0;
  for (int j = 0; j < kJobs; ++j) {
    if (kinds[static_cast<std::size_t>(j)] == 0) {
      EXPECT_EQ(DenseMatrix::max_abs_diff(mttkrp_outs[mi++], mttkrp_want), 0.0)
          << "mttkrp job " << j;
    } else if (kinds[static_cast<std::size_t>(j)] == 1) {
      EXPECT_EQ(
          DenseMatrix::max_abs_diff(ttm_outs[si++].values(), ttm_want.values()), 0.0)
          << "ttm job " << j;
    } else {
      EXPECT_EQ(ttv_outs[vi++], ttv_want) << "ttv job " << j;
    }
  }
}

}  // namespace
}  // namespace ust::engine
