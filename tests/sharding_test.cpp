// Tests for the multi-device sharder (src/shard/sharder.hpp): coverage and
// worker-grid alignment of shard boundaries, balance-policy behaviour on
// skewed segment structures, empty shards, segment metadata, and determinism
// -- the properties the sharded executor's bitwise-equivalence guarantee
// rests on.
#include <gtest/gtest.h>

#include "shard/sharder.hpp"
#include "test_support.hpp"
#include "util/prng.hpp"

namespace ust::shard {
namespace {

using core::ShardBalance;
using core::ShardOptions;

/// A 3-order tensor with `segments` mode-0 slices of `per_seg` non-zeros
/// each, built directly so segment boundaries are exact.
CooTensor segmented_tensor(index_t segments, index_t per_seg) {
  CooTensor t({segments == 0 ? 1 : segments, std::max<index_t>(per_seg, 1), 2});
  for (index_t s = 0; s < segments; ++s) {
    for (index_t j = 0; j < per_seg; ++j) {
      const index_t idx[3] = {s, j, (s + j) % 2};
      t.push_back(idx, 1.0f + static_cast<float>(j));
    }
  }
  return t;
}

/// Skewed structure: `tiny` one-non-zero segments followed by `giant`
/// segments of `giant_len` non-zeros each.
CooTensor skewed_tensor(index_t tiny, index_t giant, index_t giant_len) {
  CooTensor t({tiny + giant, std::max<index_t>(giant_len, 2), 2});
  Prng rng(4242);
  for (index_t s = 0; s < tiny; ++s) {
    const index_t idx[3] = {s, static_cast<index_t>(rng.next_index(giant_len)),
                            static_cast<index_t>(s % 2)};
    t.push_back(idx, 1.0f);
  }
  for (index_t g = 0; g < giant; ++g) {
    for (index_t j = 0; j < giant_len; ++j) {
      const index_t idx[3] = {tiny + g, j, static_cast<index_t>(j % 2)};
      t.push_back(idx, 0.5f);
    }
  }
  return t;
}

ShardingResult shards_of(const FcooTensor& f, unsigned threadlen, unsigned devices,
                         ShardBalance balance, nnz_t chunk_nnz = 0) {
  return make_shards(f.nnz(), f.bit_flags().words(), threadlen, chunk_nnz,
                     ShardOptions{.num_devices = devices, .balance = balance});
}

/// Every shard's segment metadata equals the rank queries on the head flags;
/// an empty shard reports no segments and the segment open at its lo.
void expect_metadata_matches_rank(const FcooTensor& f, const ShardingResult& r) {
  nnz_t total_starts = 0;
  for (const pipeline::StreamChunk& s : r.shards) {
    if (s.hi == s.lo) {
      EXPECT_EQ(s.num_segments, 0u);
      EXPECT_EQ(s.first_seg, f.segment_of(std::min(s.lo, f.nnz() - 1)));
      continue;
    }
    EXPECT_EQ(s.first_seg, f.segment_of(s.lo)) << "shard [" << s.lo << ", " << s.hi << ")";
    EXPECT_EQ(s.first_seg + s.num_segments - 1, f.segment_of(s.hi - 1))
        << "shard [" << s.lo << ", " << s.hi << ")";
    total_starts += s.num_segments;
  }
  // Segments spanning a boundary are counted by both sides, so the sum is
  // at least the segment count.
  EXPECT_GE(total_starts, f.num_segments());
}

TEST(Sharder, ShardsCoverNnzContiguouslyOnWorkerGridBoundaries) {
  Prng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const CooTensor t = test::random_coo3(rng, 24, 1200);
    const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
    const unsigned threadlen = 2u + static_cast<unsigned>(rng.next_below(10));
    const unsigned devices = 1u + static_cast<unsigned>(rng.next_below(6));
    const nnz_t cap = rng.next_below(2) == 0 ? 0 : threadlen * (1 + rng.next_below(6));
    const ShardBalance balance =
        rng.next_below(2) == 0 ? ShardBalance::kNnz : ShardBalance::kSegments;
    const ShardingResult r = shards_of(f, threadlen, devices, balance, cap);

    ASSERT_EQ(r.shards.size(), devices);
    const auto grid = core::native::make_chunks(f.nnz(), threadlen, cap);
    EXPECT_EQ(r.grid_chunks, grid.size());
    nnz_t expect_lo = 0;
    std::size_t total_chunks = 0;
    for (const pipeline::StreamChunk& s : r.shards) {
      EXPECT_EQ(s.lo, expect_lo);
      EXPECT_LE(s.lo, s.hi);
      // Shard boundaries are worker-grid chunk boundaries.
      if (s.hi != s.lo) {
        nnz_t wlo = 0;
        for (const auto& w : s.workers) {
          EXPECT_EQ(w.lo, wlo);
          EXPECT_LT(w.lo, w.hi);
          wlo = w.hi;
        }
        EXPECT_EQ(wlo, s.hi - s.lo);
      } else {
        EXPECT_TRUE(s.workers.empty());
      }
      total_chunks += s.workers.size();
      expect_lo = s.hi;
    }
    EXPECT_EQ(expect_lo, f.nnz());
    EXPECT_EQ(total_chunks, grid.size());
    expect_metadata_matches_rank(f, r);
  }
}

TEST(Sharder, SegmentMetadataMatchesRankQueries) {
  Prng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const CooTensor t = test::random_coo3(rng, 20, 800);
    const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
    expect_metadata_matches_rank(f, shards_of(f, 8, 3, ShardBalance::kSegments, 16));
  }
  // Shards spanning thousands of head-flag words, with boundaries on word
  // edges (threadlen 64) and next to them (63, 65); then every non-zero a
  // head, and one segment throughout.
  const index_t big = (1u << 16) + 4321;
  for (const CooTensor& t : {test::mixed_segment_coo3(rng, 3 * big), segmented_tensor(big, 1),
                             segmented_tensor(1, big)}) {
    const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
    for (const unsigned threadlen : {63u, 64u, 65u}) {
      for (const unsigned devices : {2u, 4u}) {
        for (const ShardBalance balance : {ShardBalance::kNnz, ShardBalance::kSegments}) {
          SCOPED_TRACE(testing::Message() << "nnz " << f.nnz() << " threadlen " << threadlen
                                          << " devices " << devices);
          expect_metadata_matches_rank(f, shards_of(f, threadlen, devices, balance));
        }
      }
    }
  }
}

TEST(Sharder, NnzBalanceEqualisesNonZeros) {
  // 64 equal segments of 8 non-zeros: both policies split evenly.
  const FcooTensor f = test::make_mttkrp_fcoo(segmented_tensor(64, 8), 0);
  for (const ShardBalance balance : {ShardBalance::kNnz, ShardBalance::kSegments}) {
    const ShardingResult r = shards_of(f, 8, 4, balance, 8);
    ASSERT_EQ(r.shards.size(), 4u);
    for (const pipeline::StreamChunk& s : r.shards) {
      EXPECT_NEAR(static_cast<double>(s.hi - s.lo), 128.0, 16.0);
    }
  }
}

TEST(Sharder, SegmentBalanceSplitsSkewedSegmentsEvenly) {
  // 96 tiny (1-nnz) segments then 4 giant (64-nnz) segments. nnz-balance
  // puts all tiny segments plus part of the giants on device 0; segment
  // balance gives each device ~half the segments, so the segment-heavy
  // region is split across devices.
  const FcooTensor f = test::make_mttkrp_fcoo(skewed_tensor(96, 4, 64), 0);
  ASSERT_EQ(f.num_segments(), 100u);

  const ShardingResult by_seg = shards_of(f, 4, 2, ShardBalance::kSegments, 4);
  // Device 0 should hold roughly half the segments, far fewer than all 96
  // tiny ones.
  EXPECT_LE(by_seg.shards[0].num_segments, 60u);
  EXPECT_GE(by_seg.shards[0].num_segments, 40u);

  const ShardingResult by_nnz = shards_of(f, 4, 2, ShardBalance::kNnz, 4);
  // nnz balance: total nnz = 96 + 256 = 352, so device 0 takes ~176 nnz,
  // which is all 96 tiny segments plus giants -- a segment-count skew.
  EXPECT_GE(by_nnz.shards[0].num_segments, 90u);
  // Both cover the tensor.
  EXPECT_EQ(by_seg.shards.back().hi, f.nnz());
  EXPECT_EQ(by_nnz.shards.back().hi, f.nnz());
}

TEST(Sharder, MoreDevicesThanChunksYieldsEmptyShards) {
  // nnz = 6 at threadlen 8: one partition, so one worker chunk for 5 devices.
  const FcooTensor f = test::make_mttkrp_fcoo(segmented_tensor(3, 2), 0);
  const ShardingResult r = shards_of(f, 8, 5, ShardBalance::kNnz);
  ASSERT_EQ(r.grid_chunks, 1u);
  ASSERT_EQ(r.shards.size(), 5u);
  std::size_t non_empty = 0;
  for (const pipeline::StreamChunk& s : r.shards) {
    if (!s.workers.empty()) ++non_empty;
  }
  EXPECT_GE(non_empty, 1u);
  EXPECT_LE(non_empty, r.grid_chunks);
  EXPECT_EQ(r.shards.front().lo, 0u);
  EXPECT_EQ(r.shards.back().hi, f.nnz());
  expect_metadata_matches_rank(f, r);
}

TEST(Sharder, EmptyTensorYieldsEmptyShards) {
  const ShardingResult r =
      make_shards(0, {}, 8, 0, ShardOptions{.num_devices = 3, .balance = ShardBalance::kNnz});
  ASSERT_EQ(r.shards.size(), 3u);
  for (const pipeline::StreamChunk& s : r.shards) {
    EXPECT_EQ(s.lo, s.hi);
    EXPECT_TRUE(s.workers.empty());
  }
}

TEST(Sharder, DeterministicInItsInputs) {
  Prng rng(17);
  const CooTensor t = test::random_coo3(rng, 24, 900);
  const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
  const ShardingResult a = shards_of(f, 8, 4, ShardBalance::kSegments, 16);
  const ShardingResult b = shards_of(f, 8, 4, ShardBalance::kSegments, 16);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t d = 0; d < a.shards.size(); ++d) {
    EXPECT_EQ(a.shards[d].lo, b.shards[d].lo);
    EXPECT_EQ(a.shards[d].hi, b.shards[d].hi);
    EXPECT_EQ(a.shards[d].first_seg, b.shards[d].first_seg);
    EXPECT_EQ(a.shards[d].num_segments, b.shards[d].num_segments);
  }
}

}  // namespace
}  // namespace ust::shard
