// Engine-layer tests (DESIGN.md §11): plan acquisition and sharing through
// the engine's per-device caches (SpTTV reusing SpMTTKRP entries), central
// option validation, submit() job admission (placement across the group,
// sim and sharded refusal, bounded queue with typed QueueFull/ShuttingDown
// backpressure, exception propagation, the completion callback and the
// drain at destruction), prewarm, plan forgetting, and the aggregated
// Engine::stats() report.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "baselines/reference.hpp"
#include "core/cp_als.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "test_support.hpp"

namespace ust::engine {
namespace {

TEST(Engine, OwnsDeviceGroupAndGrows) {
  Engine eng(EngineOptions{.num_devices = 2});
  EXPECT_EQ(eng.num_devices(), 2u);
  EXPECT_EQ(eng.device(0).ordinal(), 0);
  EXPECT_EQ(eng.device(1).ordinal(), 1);
  eng.ensure_devices(3);
  EXPECT_EQ(eng.num_devices(), 3u);
  EXPECT_EQ(eng.device(2).ordinal(), 2);
  eng.ensure_devices(2);  // never shrinks
  EXPECT_EQ(eng.num_devices(), 3u);
}

TEST(Engine, PlanCacheSharedAcrossOpsIncludingTtv) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(101);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  const Partitioning part{.threadlen = 8, .block_size = 64};

  // MTTKRP and TTV on the same tensor/mode share one F-COO layout and
  // therefore one cached plan: first construction misses, the rest hit.
  core::UnifiedMttkrp mttkrp(eng, t, 0, part);
  core::UnifiedTtv ttv(eng, t, 0, part);
  core::UnifiedMttkrp again(eng, t, 0, part);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.cache_total.misses, 1u);
  EXPECT_EQ(s.cache_total.hits, 2u);
  EXPECT_EQ(s.cache_total.entries, 1u);

  const auto factors = test::random_factors(t, 5, 7);
  const DenseMatrix want = baseline::mttkrp_reference(t, 0, factors);
  EXPECT_LT(test::relative_error(mttkrp.run(factors), want), test::kUnifiedTol);
}

TEST(Engine, SubmitMatchesRunBitwiseAndRoundRobins) {
  // max_batch 1: with batching on, submit() prefers the device already
  // queueing a compatible job (batch affinity, DESIGN.md §13) and all six
  // identical jobs would land on one device. Least-loaded placement with
  // rotated ties spreads a non-batching engine's burst; BatchedEquivalence
  // covers the rest.
  Engine eng(EngineOptions{.num_devices = 2, .max_batch = 1});
  Prng rng(104);
  const CooTensor t = test::random_coo3(rng, 24, 1500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const auto factors = test::random_factors(t, 6, 13);
  core::UnifiedMttkrp op(eng, t, 0, part);
  eng.prewarm(*op.op_plan());

  DenseMatrix want(t.dim(0), 6);
  op.run(factors, want);

  constexpr int kJobs = 6;
  std::vector<DenseMatrix> outs(kJobs, DenseMatrix(t.dim(0), 6));
  std::vector<JobRecord> records(kJobs);
  std::vector<std::atomic<int>> calls(kJobs);
  std::vector<std::future<void>> futures;
  for (int j = 0; j < kJobs; ++j) {
    const auto jj = static_cast<std::size_t>(j);
    futures.push_back(eng.submit(op.request(factors, outs[jj]), &records[jj],
                                 Admission::kBlock, [&calls, jj] { ++calls[jj]; }));
  }
  // The completion callback runs before the future resolves: once get()
  // returns, that job's callback has run, exactly once.
  for (std::size_t j = 0; j < futures.size(); ++j) {
    futures[j].get();
    EXPECT_EQ(calls[j].load(), 1) << "job " << j;
  }

  bool used[2] = {false, false};
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(outs[static_cast<std::size_t>(j)], want), 0.0)
        << "job " << j;
    const int d = records[static_cast<std::size_t>(j)].device;
    ASSERT_TRUE(d == 0 || d == 1);
    used[d] = true;
    EXPECT_GE(records[static_cast<std::size_t>(j)].exec_s, 0.0);
  }
  // Least-loaded placement: both devices executed jobs.
  EXPECT_TRUE(used[0] && used[1]);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.jobs_completed, static_cast<std::uint64_t>(kJobs));
  // The prewarmed replica plan was a hit for every device-1 job.
  EXPECT_GE(s.devices[1].cache.hits, 1u);
}

TEST(Engine, SubmitRefusesSimJobs) {
  // Queued jobs may run on any device; the simulator needs the primary's
  // UnifiedPlan, so sim-backend requests run through run() only.
  Engine eng(EngineOptions{.num_devices = 2});
  Prng rng(105);
  const CooTensor t = test::random_coo3(rng, 16, 600);
  const auto factors = test::random_factors(t, 4, 15);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{.threadlen = 8, .block_size = 64});
  core::UnifiedOptions opt;
  opt.backend = core::ExecBackend::kSim;

  DenseMatrix out(t.dim(0), 4);
  std::atomic<int> calls{0};
  EXPECT_THROW((void)eng.submit(op.request(factors, out, opt), nullptr, Admission::kBlock,
                                [&calls] { ++calls; }),
               core::InvalidOptions);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(eng.stats().jobs_submitted, 0u);

  eng.run(op.request(factors, out, opt));
  EXPECT_LT(test::relative_error(out, baseline::mttkrp_reference(t, 0, factors)),
            test::kUnifiedTol);
}

TEST(Engine, SubmitRefusesShardedJobsAndBadShapes) {
  // A sharded request needs a span of devices, so it runs through run()
  // only, bitwise identical to the 1-device native result.
  Engine eng(EngineOptions{.num_devices = 2});
  Prng rng(106);
  const CooTensor t = test::random_coo3(rng, 12, 300);
  const auto factors = test::random_factors(t, 3, 17);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{});
  core::UnifiedOptions sharded;
  sharded.shard.num_devices = 2;

  std::atomic<int> calls{0};
  const auto count = [&calls] { ++calls; };
  DenseMatrix out(t.dim(0), 3);
  EXPECT_THROW(
      (void)eng.submit(op.request(factors, out, sharded), nullptr, Admission::kBlock, count),
      core::InvalidOptions);
  DenseMatrix wrong(t.dim(0), 5);  // out width != rank
  EXPECT_THROW((void)eng.submit(op.request(factors, wrong), nullptr, Admission::kBlock, count),
               ContractViolation);
  // A refused submit admits no job, so its callback never runs.
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(eng.stats().jobs_submitted, 0u);

  DenseMatrix single(t.dim(0), 3);
  eng.run(op.request(factors, single));
  eng.run(op.request(factors, out, sharded));
  EXPECT_EQ(DenseMatrix::max_abs_diff(out, single), 0.0);
}

TEST(Engine, RejectsInvalidOptions) {
  // Central validation (core::validate): zero threadlen / block_size on every
  // op constructor, and a chunk_nnz that is not a multiple of threadlen at
  // run time.
  sim::Device dev;
  Engine eng(dev);
  Prng rng(5005);
  const CooTensor t = test::random_coo3(rng, 10, 200);
  EXPECT_THROW(core::UnifiedMttkrp(eng, t, 0, Partitioning{.threadlen = 0}),
               core::InvalidOptions);
  EXPECT_THROW(core::UnifiedSpttm(eng, t, 0, Partitioning{.block_size = 0}),
               core::InvalidOptions);
  EXPECT_THROW(core::UnifiedTtv(eng, t, 0, Partitioning{.threadlen = 0}), core::InvalidOptions);
  EXPECT_THROW(core::UnifiedTtmc(eng, t, 0, Partitioning{.block_size = 0}),
               core::InvalidOptions);

  const core::UnifiedMttkrp op(eng, t, 0, Partitioning{.threadlen = 8, .block_size = 32});
  const auto factors = test::random_factors(t, 3, 9);
  EXPECT_THROW(op.run(factors, core::UnifiedOptions{.chunk_nnz = 12}), core::InvalidOptions);
}

TEST(Engine, SubmitPropagatesExecutionExceptions) {
  // A capacity-limited device: the plan fits, the per-job factor staging
  // does not. The failure must surface on the job's future, not crash a
  // worker. The capacity is the plan's own footprint, measured on a probe.
  const CooTensor t = io::generate_uniform({40, 40, 40}, 4000, 1070);
  std::size_t plan_bytes = 0;
  {
    Engine probe;
    plan_bytes = probe.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{})->resident_bytes();
  }
  ASSERT_GT(plan_bytes, 0u);
  EngineOptions opt;
  opt.props.global_mem_bytes = plan_bytes - 1;
  {
    Engine too_small(opt);
    EXPECT_THROW((void)too_small.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{}),
                 sim::DeviceOutOfMemory);
  }

  opt.props.global_mem_bytes = plan_bytes;
  Engine eng(opt);
  const auto plan = eng.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{});
  const auto factors = test::random_factors(t, 4, 19);
  DenseMatrix out(t.dim(0), 4);
  OpRequest req;
  req.plan = plan;
  for (int m = 1; m < 3; ++m) {
    const DenseMatrix& f = factors[static_cast<std::size_t>(m)];
    req.inputs.push_back({f.data(), f.rows(), f.cols()});
  }
  req.out = out.data();
  req.out_rows = out.rows();
  req.out_cols = out.cols();
  std::atomic<int> calls{0};
  std::future<void> fut =
      eng.submit(std::move(req), nullptr, Admission::kBlock, [&calls] { ++calls; });
  EXPECT_THROW(fut.get(), sim::DeviceOutOfMemory);
  EXPECT_EQ(calls.load(), 1);  // failed jobs run their callback too
}

TEST(Engine, BoundedQueueStillCompletesEveryJob) {
  EngineOptions opt;
  opt.num_devices = 2;
  opt.max_queued_jobs = 1;  // maximal back-pressure
  Engine eng(opt);
  Prng rng(108);
  const CooTensor t = test::random_coo3(rng, 16, 800);
  const auto factors = test::random_factors(t, 4, 21);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{});
  DenseMatrix want(t.dim(0), 4);
  op.run(factors, want);

  std::vector<DenseMatrix> outs(8, DenseMatrix(t.dim(0), 4));
  std::vector<std::future<void>> futures;
  for (auto& o : outs) futures.push_back(eng.submit(op.request(factors, o)));
  for (auto& f : futures) f.get();
  for (const auto& o : outs) EXPECT_EQ(DenseMatrix::max_abs_diff(o, want), 0.0);

  // An engine destroyed with jobs still queued completes every one of them
  // first, callbacks included. The first job's callback holds the only
  // worker (a stand-in for a long job) until the destructor has begun, so
  // the others are provably queued when it starts.
  constexpr std::size_t kQueued = 6;
  std::vector<DenseMatrix> late(kQueued + 1, DenseMatrix(t.dim(0), 4));
  std::vector<std::future<void>> drained;
  std::atomic<int> calls{0};
  std::promise<void> entered, release;
  std::thread releaser;
  {
    Engine doomed(EngineOptions{.num_devices = 1, .max_queued_jobs = 16});
    core::UnifiedMttkrp dop(doomed, t, 0, Partitioning{});
    drained.push_back(doomed.submit(dop.request(factors, late[0]), nullptr, Admission::kBlock,
                                    [&] {
                                      ++calls;
                                      entered.set_value();
                                      release.get_future().wait();
                                    }));
    entered.get_future().wait();
    for (std::size_t j = 1; j <= kQueued; ++j) {
      drained.push_back(doomed.submit(dop.request(factors, late[j]), nullptr,
                                      Admission::kBlock, [&calls] { ++calls; }));
    }
    EXPECT_EQ(doomed.stats().jobs_queued, kQueued);
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release.set_value();
    });
  }
  releaser.join();
  EXPECT_EQ(calls.load(), static_cast<int>(kQueued + 1));
  for (std::size_t j = 0; j < drained.size(); ++j) {
    ASSERT_EQ(drained[j].wait_for(std::chrono::seconds(0)), std::future_status::ready);
    drained[j].get();
    EXPECT_EQ(DenseMatrix::max_abs_diff(late[j], want), 0.0) << "job " << j;
  }
}

TEST(Engine, CpAlsOnEngineHitsCachesAcrossSolves) {
  Engine eng(EngineOptions{});
  Prng rng(109);
  const CooTensor t = test::random_coo3(rng, 18, 900);
  core::CpOptions opt;
  opt.rank = 4;
  opt.max_iterations = 2;
  opt.fit_tolerance = 0.0;
  opt.part = Partitioning{.threadlen = 8, .block_size = 64};
  opt.seed = 5;
  const core::CpResult cold = core::cp_als_unified(eng, t, opt);
  const std::uint64_t misses_after_cold = eng.stats().cache_total.misses;
  const core::CpResult warm = core::cp_als_unified(eng, t, opt);
  // Second solve: every per-mode plan is a hit, results bitwise identical.
  EXPECT_EQ(eng.stats().cache_total.misses, misses_after_cold);
  EXPECT_GE(eng.stats().cache_total.hits, 3u);
  ASSERT_EQ(warm.factors.size(), cold.factors.size());
  for (std::size_t m = 0; m < warm.factors.size(); ++m) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(warm.factors[m], cold.factors[m]), 0.0);
  }
  EXPECT_EQ(warm.fit, cold.fit);
}

TEST(Engine, ShardedRunThroughEngineCtorMatchesSingleDevice) {
  Engine eng(EngineOptions{});
  Prng rng(110);
  const CooTensor t = test::random_coo3(rng, 24, 1500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const auto factors = test::random_factors(t, 5, 23);
  core::UnifiedMttkrp op(eng, t, 0, part);
  const DenseMatrix want = op.run(factors, core::UnifiedOptions{.chunk_nnz = 16});
  core::UnifiedOptions sharded;
  sharded.chunk_nnz = 16;
  sharded.shard.num_devices = 3;
  shard::Report report;
  DenseMatrix got(want.rows(), want.cols());
  op.run_sharded(factors, got, sharded, &report);
  EXPECT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0);
  ASSERT_EQ(report.devices.size(), 3u);
  EXPECT_EQ(eng.num_devices(), 3u);  // grew on demand
}

}  // namespace
}  // namespace ust::engine
