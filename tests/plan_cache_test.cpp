// Tests for the LRU plan cache (src/pipeline/plan_cache.hpp): hit/miss
// accounting, byte-budget LRU eviction, recency refresh, eviction safety
// under shared ownership, and end-to-end reuse through the unified ops.
#include <gtest/gtest.h>

#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "pipeline/plan_cache.hpp"
#include "engine/engine.hpp"
#include "sim/device.hpp"
#include "test_support.hpp"

namespace ust::pipeline {
namespace {

/// Builds a CachedPlan for an MTTKRP on `mode` of `t` (the typical payload).
CachedPlan build_plan(sim::Device& dev, const CooTensor& t, int mode, Partitioning part) {
  const FcooTensor fcoo = test::make_mttkrp_fcoo(t, mode);
  return CachedPlan{core::UnifiedPlan(dev, fcoo, part), {}};
}

PlanKey key_for(const sim::Device& dev, std::uint64_t fp, int mode,
                Partitioning part = {}) {
  return PlanKey{&dev, fp, core::TensorOp::kSpMTTKRP, mode, part.threadlen,
                 part.block_size};
}

TEST(PlanCache, HitAndMissCountersTrackLookups) {
  sim::Device dev;
  const CooTensor t = io::generate_uniform({10, 12, 14}, 300, 5);
  const std::uint64_t fp = coo_fingerprint(t);
  PlanCache cache(1u << 30);

  int builds = 0;
  const auto builder = [&] {
    ++builds;
    return build_plan(dev, t, 0, Partitioning{});
  };
  const auto p1 = cache.get_or_build(key_for(dev, fp, 0), builder);
  const auto p2 = cache.get_or_build(key_for(dev, fp, 0), builder);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p1.get(), p2.get());
  // A different mode is a different key.
  (void)cache.get_or_build(key_for(dev, fp, 1), [&] { return build_plan(dev, t, 1, {}); });

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GT(s.bytes_in_use, 0u);
}

TEST(PlanCache, DistinctTensorsAndPartitioningsMiss) {
  sim::Device dev;
  const CooTensor a = io::generate_uniform({10, 12, 14}, 300, 5);
  CooTensor b = a;
  b.values()[0] += 1.0f;  // same shape, different content
  EXPECT_NE(coo_fingerprint(a), coo_fingerprint(b));

  PlanCache cache(1u << 30);
  (void)cache.get_or_build(key_for(dev, coo_fingerprint(a), 0),
                           [&] { return build_plan(dev, a, 0, {}); });
  (void)cache.get_or_build(key_for(dev, coo_fingerprint(b), 0),
                           [&] { return build_plan(dev, b, 0, {}); });
  const Partitioning other{.threadlen = 16, .block_size = 64};
  (void)cache.get_or_build(key_for(dev, coo_fingerprint(a), 0, other),
                           [&] { return build_plan(dev, a, 0, other); });
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedOnByteBudget) {
  sim::Device dev;
  const CooTensor t = io::generate_uniform({10, 12, 14}, 400, 9);
  const std::uint64_t fp = coo_fingerprint(t);

  // Three equal-sized plans: same tensor and mode, different block_size
  // (block_size is launch geometry only -- it changes no plan array). The
  // budget holds exactly two of them.
  const Partitioning pa{.threadlen = 8, .block_size = 64};
  const Partitioning pb{.threadlen = 8, .block_size = 128};
  const Partitioning pc{.threadlen = 8, .block_size = 256};
  const std::size_t one = build_plan(dev, t, 0, pa).bytes();
  ASSERT_EQ(build_plan(dev, t, 0, pb).bytes(), one);
  PlanCache cache(2 * one);

  (void)cache.get_or_build(key_for(dev, fp, 0, pa), [&] { return build_plan(dev, t, 0, pa); });
  (void)cache.get_or_build(key_for(dev, fp, 0, pb), [&] { return build_plan(dev, t, 0, pb); });
  // Touch pa so pb becomes the LRU victim.
  (void)cache.get_or_build(key_for(dev, fp, 0, pa), [&] { return build_plan(dev, t, 0, pa); });
  (void)cache.get_or_build(key_for(dev, fp, 0, pc), [&] { return build_plan(dev, t, 0, pc); });

  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes_in_use, 2 * one);

  // pa survived (hit), pb was evicted (miss and rebuild).
  int rebuilt = 0;
  (void)cache.get_or_build(key_for(dev, fp, 0, pa), [&] {
    ++rebuilt;
    return build_plan(dev, t, 0, pa);
  });
  EXPECT_EQ(rebuilt, 0);
  (void)cache.get_or_build(key_for(dev, fp, 0, pb), [&] {
    ++rebuilt;
    return build_plan(dev, t, 0, pb);
  });
  EXPECT_EQ(rebuilt, 1);
}

TEST(PlanCache, PutOnPresentKeyUpdatesInPlaceWithoutDuplicates) {
  // Regression: put() with an already-present key must REPLACE the entry --
  // one LRU node, bytes accounted exactly once -- instead of pushing a
  // duplicate Entry and re-adding its bytes to bytes_in_use_.
  sim::Device dev;
  const CooTensor small = io::generate_uniform({10, 12, 14}, 200, 5);
  const CooTensor big = io::generate_uniform({10, 12, 14}, 600, 5);
  PlanCache cache(1u << 30);
  const PlanKey key = key_for(dev, 42, 0);

  const auto first = cache.put(key, build_plan(dev, small, 0, {}));
  const std::size_t first_bytes = first->bytes();
  ASSERT_EQ(cache.stats().entries, 1u);
  ASSERT_EQ(cache.stats().bytes_in_use, first_bytes);

  const auto second = cache.put(key, build_plan(dev, big, 0, {}));
  const std::size_t second_bytes = second->bytes();
  ASSERT_NE(first_bytes, second_bytes);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u) << "duplicate LRU entry for one key";
  EXPECT_EQ(s.bytes_in_use, second_bytes) << "old entry's bytes not released";
  EXPECT_EQ(s.evictions, 0u);
  // The replaced plan stays valid for holders; lookups see the new one.
  EXPECT_EQ(first->plan.nnz(), small.nnz());
  int rebuilt = 0;
  const auto got = cache.get_or_build(key, [&] {
    ++rebuilt;
    return build_plan(dev, big, 0, {});
  });
  EXPECT_EQ(rebuilt, 0);
  EXPECT_EQ(got.get(), second.get());

  // put() also refreshes recency: with a budget for two entries, the
  // re-put key must survive while the intermediate key is evicted.
  PlanCache lru(2 * second_bytes);
  const PlanKey a = key_for(dev, 1, 0);
  const PlanKey b = key_for(dev, 2, 0);
  const PlanKey c = key_for(dev, 3, 0);
  (void)lru.put(a, build_plan(dev, big, 0, {}));
  (void)lru.put(b, build_plan(dev, big, 0, {}));
  (void)lru.put(a, build_plan(dev, big, 0, {}));  // refresh a; b becomes LRU
  (void)lru.put(c, build_plan(dev, big, 0, {}));
  int rebuilds = 0;
  (void)lru.get_or_build(a, [&] {
    ++rebuilds;
    return build_plan(dev, big, 0, {});
  });
  EXPECT_EQ(rebuilds, 0) << "refreshed key was evicted";
}

TEST(PlanCache, OverBudgetSingleEntryStaysResidentWithoutUnderflow) {
  // The always-keep-one invariant: an entry larger than the whole budget is
  // neither evicted on insert nor allowed to underflow bytes_in_use_.
  sim::Device dev;
  const CooTensor t = io::generate_uniform({10, 12, 14}, 400, 9);
  PlanCache cache(1);  // every plan exceeds this budget

  const auto a = cache.put(key_for(dev, 1, 0), build_plan(dev, t, 0, {}));
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u) << "the just-inserted entry was evicted";
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes_in_use, a->bytes()) << "accounting drifted (underflow?)";
  EXPECT_GT(s.bytes_in_use, s.byte_budget);

  // A second over-budget entry evicts exactly the old one; accounting lands
  // exactly on the new entry's bytes (a size_t underflow would explode it).
  const auto b = cache.put(key_for(dev, 2, 0), build_plan(dev, t, 1, {}));
  s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.bytes_in_use, b->bytes());

  // Same invariant through get_or_build.
  const auto c = cache.get_or_build(key_for(dev, 3, 0),
                                    [&] { return build_plan(dev, t, 2, {}); });
  s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.bytes_in_use, c->bytes());
}

TEST(PlanCache, ShardSliceKeysAreDistinctFromWholeTensorKeys) {
  // The shard executor keys slices by (shard_lo, shard_hi, chunk_nnz);
  // a whole-tensor key (0, 0, 0) must not collide with them.
  sim::Device dev;
  const CooTensor t = io::generate_uniform({10, 12, 14}, 300, 5);
  PlanCache cache(1u << 30);
  PlanKey whole = key_for(dev, 7, 0);
  PlanKey slice = whole;
  slice.shard_lo = 0;
  slice.shard_hi = 128;
  slice.chunk_nnz = 32;
  int builds = 0;
  (void)cache.get_or_build(whole, [&] {
    ++builds;
    return build_plan(dev, t, 0, {});
  });
  (void)cache.get_or_build(slice, [&] {
    ++builds;
    return build_plan(dev, t, 0, {});
  });
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PlanCache, EvictedPlansStayValidWhileHeld) {
  sim::Device dev;
  const CooTensor t = io::generate_uniform({8, 9, 10}, 200, 3);
  const std::uint64_t fp = coo_fingerprint(t);
  PlanCache cache(1);  // evicts everything beyond the newest entry

  const auto held =
      cache.get_or_build(key_for(dev, fp, 0), [&] { return build_plan(dev, t, 0, {}); });
  (void)cache.get_or_build(key_for(dev, fp, 1), [&] { return build_plan(dev, t, 1, {}); });
  EXPECT_GE(cache.stats().evictions, 1u);
  // The evicted plan is still fully usable through the held shared_ptr.
  EXPECT_EQ(held->plan.nnz(), t.nnz());
  EXPECT_NE(held->plan.view().vals, nullptr);
}

TEST(PlanCache, PurgeDeviceDropsOnlyThatDevicesEntries) {
  sim::Device dev_a;
  sim::Device dev_b;
  const CooTensor t = io::generate_uniform({8, 9, 10}, 200, 3);
  const std::uint64_t fp = coo_fingerprint(t);
  PlanCache cache(1u << 30);

  (void)cache.get_or_build(key_for(dev_a, fp, 0), [&] { return build_plan(dev_a, t, 0, {}); });
  (void)cache.get_or_build(key_for(dev_b, fp, 0), [&] { return build_plan(dev_b, t, 0, {}); });
  ASSERT_EQ(cache.stats().entries, 2u);

  cache.purge_device(&dev_a);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);  // lifetime management, not pressure
  // dev_b's entry survived and still hits.
  int rebuilt = 0;
  (void)cache.get_or_build(key_for(dev_b, fp, 0), [&] {
    ++rebuilt;
    return build_plan(dev_b, t, 0, {});
  });
  EXPECT_EQ(rebuilt, 0);
  // dev_a's entry is gone: a lookup rebuilds.
  (void)cache.get_or_build(key_for(dev_a, fp, 0), [&] {
    ++rebuilt;
    return build_plan(dev_a, t, 0, {});
  });
  EXPECT_EQ(rebuilt, 1);
}

TEST(PlanCache, OpsShareCachedPlansAndAgreeWithUncached) {
  sim::Device dev;
  Prng rng(17);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  const auto factors = test::random_factors(t, 6, 21);
  engine::Engine eng(dev);

  core::UnifiedMttkrp cold(eng, t, 0, {});
  core::UnifiedMttkrp warm(eng, t, 0, {});
  EXPECT_EQ(eng.stats().cache_total.misses, 1u);
  EXPECT_EQ(eng.stats().cache_total.hits, 1u);

  // A second engine's cache is empty, so its plan is built afresh.
  sim::Device fresh_dev;
  engine::Engine fresh(fresh_dev);
  core::UnifiedMttkrp uncached(fresh, t, 0, {});
  EXPECT_EQ(fresh.stats().cache_total.misses, 1u);
  const DenseMatrix a = cold.run(factors);
  const DenseMatrix b = warm.run(factors);
  const DenseMatrix c = uncached.run(factors);
  EXPECT_EQ(DenseMatrix::max_abs_diff(a, b), 0.0);
  EXPECT_EQ(DenseMatrix::max_abs_diff(a, c), 0.0);

  // SpTTM caches its host fiber coordinates alongside the device plan.
  core::UnifiedSpttm s1(eng, t, 2, {});
  core::UnifiedSpttm s2(eng, t, 2, {});
  EXPECT_EQ(eng.stats().cache_total.misses, 2u);
  EXPECT_EQ(eng.stats().cache_total.hits, 2u);
  const DenseMatrix u = test::random_matrix(t.dim(2), 5, 33);
  const SemiSparseTensor y1 = s1.run(u);
  const SemiSparseTensor y2 = s2.run(u);
  EXPECT_EQ(SemiSparseTensor::max_abs_diff(y1, y2), 0.0);
}

}  // namespace
}  // namespace ust::pipeline
