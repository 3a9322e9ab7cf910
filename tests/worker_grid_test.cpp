// One worker grid for every pool width (DESIGN.md §8): the native backend's
// chunk grid is a function of nnz, threadlen and chunk_nnz alone, so every
// native path -- single-shot SpTTM, SpMTTKRP, SpTTMc and SpTTV, a streamed
// run, a sharded run and a fused batch -- returns the same bits on pools of
// 1, 2, 3, 4 and 8 threads. Engine-level checks compare raw bit patterns
// against the 4-thread run; the make_chunks checks pin the grid rule itself.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "core/native_exec.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "io/datasets.hpp"
#include "pipeline/chunker.hpp"
#include "sim/device.hpp"
#include "test_support.hpp"

namespace ust {
namespace {

using Outputs = std::vector<value_t>;
using Body = std::function<Outputs(engine::Engine&)>;

/// nell2's replica at ~48k non-zeros: 750 partitions of its Table V
/// threadlen (64), Zipf-skewed segments, so most grid boundaries fall inside
/// a segment and a boundary carry is folded at each of them.
const CooTensor& tensor() {
  static const CooTensor t = io::make_replica(*io::find_dataset("nell2"), 0.04);
  return t;
}

const Partitioning& part() {
  static const Partitioning p = io::find_dataset("nell2")->best_spmttkrp;
  return p;
}

void append(Outputs& out, std::span<const value_t> values) {
  out.insert(out.end(), values.begin(), values.end());
}

/// Runs `body` on an engine whose primary device has a pool of `threads`
/// threads (ThreadPool(n) spawns n - 1 workers; the caller is the n-th).
/// Replica devices copy the primary's width.
Outputs on_pool(unsigned threads, const Body& body) {
  ThreadPool pool(threads);
  sim::Device dev(sim::DeviceProps::titan_x(), &pool);
  engine::Engine eng(dev);
  return body(eng);
}

/// Every pool width's output equals the 4-thread output bit for bit.
void expect_same_bits_at_every_width(const Body& body) {
  const Outputs want = on_pool(4, body);
  ASSERT_FALSE(want.empty());
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    const Outputs got = on_pool(threads, body);
    ASSERT_EQ(got.size(), want.size()) << threads << " threads";
    std::size_t differ = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      differ += std::memcmp(&got[i], &want[i], sizeof(value_t)) != 0 ? 1 : 0;
    }
    EXPECT_EQ(differ, 0u) << "values whose bits differ at " << threads << " threads";
  }
}

TEST(WorkerGrid, SpMttkrpIsBitwiseEqualOnEveryPoolWidth) {
  ASSERT_GT(ceil_div<nnz_t>(tensor().nnz(), part().threadlen), 16u * 16u);
  const auto factors = test::random_factors(tensor(), 8, 7001);
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedMttkrp op(eng, tensor(), 0, part());
    Outputs out;
    append(out, op.run(factors).span());
    return out;
  });
}

TEST(WorkerGrid, SpttmIsBitwiseEqualOnEveryPoolWidth) {
  const DenseMatrix u = test::random_matrix(tensor().dim(1), 8, 7002);
  const Partitioning spttm_part = io::find_dataset("nell2")->best_spttm;
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedSpttm op(eng, tensor(), 1, spttm_part);
    Outputs out;
    append(out, op.run(u).values().span());
    return out;
  });
}

TEST(WorkerGrid, SpttmcIsBitwiseEqualOnEveryPoolWidth) {
  const DenseMatrix u0 = test::random_matrix(tensor().dim(0), 4, 7003);
  const DenseMatrix u1 = test::random_matrix(tensor().dim(1), 4, 7004);
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedTtmc op(eng, tensor(), 2, part());
    Outputs out;
    append(out, op.run(u0, u1).span());
    return out;
  });
}

TEST(WorkerGrid, SpttvIsBitwiseEqualOnEveryPoolWidth) {
  std::vector<std::vector<value_t>> vectors;
  Prng rng(7005);
  for (int m = 0; m < tensor().order(); ++m) {
    std::vector<value_t> v(tensor().dim(m));
    for (value_t& x : v) x = rng.next_float(-1.0f, 1.0f);
    vectors.push_back(std::move(v));
  }
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedTtv op(eng, tensor(), 0, part());
    return op.run(vectors);
  });
}

TEST(WorkerGrid, StreamedSpMttkrpIsBitwiseEqualOnEveryPoolWidth) {
  const auto factors = test::random_factors(tensor(), 8, 7006);
  // A budget of ~12k non-zeros' plan bytes streams the tensor in several
  // chunks, each a run of whole worker chunks.
  const core::StreamingOptions stream{
      .enabled = true, .chunk_bytes = 12000 * pipeline::plan_bytes_per_nnz(2)};
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedMttkrp op(eng, tensor(), 0, part(), stream);
    sim::Device& dev = eng.device(0);
    const std::uint64_t launches = dev.counters().kernel_launches;
    Outputs out;
    append(out, op.run(factors).span());
    EXPECT_GE(dev.counters().kernel_launches - launches, 3u) << "one launch per stream chunk";
    return out;
  });
}

TEST(WorkerGrid, ShardedSpMttkrpIsBitwiseEqualOnEveryPoolWidth) {
  const auto factors = test::random_factors(tensor(), 8, 7007);
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedMttkrp op(eng, tensor(), 0, part());
    Outputs out;
    for (const core::ShardBalance balance :
         {core::ShardBalance::kNnz, core::ShardBalance::kSegments}) {
      core::UnifiedOptions opt;
      opt.shard = core::ShardOptions{.num_devices = 2, .balance = balance};
      DenseMatrix m(tensor().dim(0), 8);
      op.run_sharded(factors, m, opt);
      append(out, m.span());
    }
    return out;
  });
}

TEST(WorkerGrid, BatchedSpMttkrpIsBitwiseEqualOnEveryPoolWidth) {
  std::vector<std::vector<DenseMatrix>> factors;
  for (std::uint64_t seed : {7008u, 7009u, 7010u}) {
    factors.push_back(test::random_factors(tensor(), 8, seed));
  }
  expect_same_bits_at_every_width([&](engine::Engine& eng) {
    core::UnifiedMttkrp op(eng, tensor(), 0, part());
    std::vector<DenseMatrix> outs(factors.size(), DenseMatrix(tensor().dim(0), 8));
    engine::BatchedRequest batch;
    for (std::size_t j = 0; j < factors.size(); ++j) {
      batch.requests.push_back(op.request(factors[j], outs[j]));
    }
    eng.run_batched(batch);
    EXPECT_EQ(eng.stats().batches_formed, 1u);
    Outputs out;
    for (const DenseMatrix& m : outs) append(out, m.span());
    return out;
  });
}

// ---- The grid rule itself: make_chunks(nnz, threadlen, max_chunk_nnz) ----

nnz_t covered_and_aligned(const std::vector<core::native::Chunk>& grid, nnz_t nnz,
                          unsigned threadlen) {
  nnz_t at = 0;
  for (const core::native::Chunk& c : grid) {
    EXPECT_EQ(c.lo, at);
    EXPECT_EQ(c.lo % threadlen, 0u);
    EXPECT_TRUE(c.hi == nnz || c.hi % threadlen == 0);
    EXPECT_LT(c.lo, c.hi);
    at = c.hi;
  }
  return at;
}

TEST(WorkerGrid, SixteenChunksAtEverySize) {
  // From 16 partitions up to nell2's full 77M non-zeros.
  for (const nnz_t nnz : {nnz_t{16 * 64}, nnz_t{48000}, nnz_t{1200000}, nnz_t{77000000}}) {
    const auto grid = core::native::make_chunks(nnz, 64);
    EXPECT_EQ(grid.size(), 16u) << nnz;
    EXPECT_EQ(covered_and_aligned(grid, nnz, 64), nnz);
  }
}

TEST(WorkerGrid, NeverMoreChunksThanPartitions) {
  for (const nnz_t nnz : {nnz_t{1}, nnz_t{7}, nnz_t{64}, nnz_t{5 * 64}, nnz_t{15 * 64 + 1}}) {
    const auto grid = core::native::make_chunks(nnz, 64);
    EXPECT_EQ(grid.size(), ceil_div<nnz_t>(nnz, 64)) << nnz;
    EXPECT_EQ(covered_and_aligned(grid, nnz, 64), nnz);
  }
  EXPECT_TRUE(core::native::make_chunks(0, 64).empty());
}

TEST(WorkerGrid, CapRaisesTheChunkCount) {
  const nnz_t nnz = 48000;
  // A cap at or above nnz / 16 leaves the default grid.
  EXPECT_EQ(core::native::make_chunks(nnz, 64, 64 * 64).size(), 16u);
  // 750 partitions at 10 per chunk: 75 chunks of at most 640 non-zeros.
  const auto grid = core::native::make_chunks(nnz, 64, 640);
  EXPECT_EQ(grid.size(), 75u);
  for (const core::native::Chunk& c : grid) EXPECT_LE(c.hi - c.lo, 640u);
  EXPECT_EQ(covered_and_aligned(grid, nnz, 64), nnz);
  // 46875 partitions at 1000 per chunk: 47 chunks. A cap never goes past
  // one chunk per partition.
  EXPECT_EQ(core::native::make_chunks(3000000, 64, 64 * 1000).size(), 47u);
  EXPECT_EQ(core::native::make_chunks(nnz, 64, 64).size(), 750u);
}

}  // namespace
}  // namespace ust
