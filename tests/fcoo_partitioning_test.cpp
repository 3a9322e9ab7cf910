// Partitioning edge cases (DESIGN.md §4-§5): threadlen not dividing nnz,
// single-non-zero and empty tensors, block_size larger than the non-zero
// count — exercising Partitioning::num_threads/num_blocks arithmetic and
// F-COO start-flag (sf) construction at the boundaries.
#include <gtest/gtest.h>

#include "io/generate.hpp"
#include "test_support.hpp"
#include "util/prng.hpp"

namespace ust {
namespace {

TEST(Partitioning, CountsWhenThreadlenDoesNotDivideNnz) {
  const Partitioning part{.threadlen = 7, .block_size = 4};  // 28 nnz per block
  EXPECT_EQ(part.nnz_per_block(), 28u);
  // 30 = 4*7 + 2: a 5th, short thread; 30 > 28: a 2nd, short block.
  EXPECT_EQ(part.num_threads(30), 5u);
  EXPECT_EQ(part.num_blocks(30), 2u);
  // Exact multiples have no tail.
  EXPECT_EQ(part.num_threads(28), 4u);
  EXPECT_EQ(part.num_blocks(28), 1u);
  // One past the multiple rolls over both counts.
  EXPECT_EQ(part.num_threads(29), 5u);
  EXPECT_EQ(part.num_blocks(29), 2u);
}

TEST(Partitioning, CountsOnEmptyAndSingleNnz) {
  const Partitioning part{.threadlen = 8, .block_size = 128};
  EXPECT_EQ(part.num_threads(0), 0u);
  EXPECT_EQ(part.num_blocks(0), 0u);
  EXPECT_EQ(part.num_threads(1), 1u);
  EXPECT_EQ(part.num_blocks(1), 1u);
}

TEST(Partitioning, BlockLargerThanNnz) {
  // block_size * threadlen far exceeds nnz: everything fits in one block,
  // and only ceil(nnz / threadlen) of its threads are active.
  const Partitioning part{.threadlen = 8, .block_size = 1024};
  EXPECT_EQ(part.num_blocks(100), 1u);
  EXPECT_EQ(part.num_threads(100), 13u);
}

TEST(FcooStartFlags, ShortTailThreadSamplesBf) {
  // 10 non-zeros, threadlen 4 -> partitions [0,4) [4,8) [8,10); sf must have
  // exactly ceil(10/4) = 3 bits and equal bf at offsets 0, 4, 8.
  const CooTensor t = io::generate_zipf({6, 5, 7}, 10, {0.9, 0.9, 0.9}, 51);
  const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
  ASSERT_GT(f.nnz(), 0u);  // coalescing may drop duplicates but not everything
  const unsigned threadlen = 4;
  const BitArray sf = f.start_flags(threadlen);
  ASSERT_EQ(sf.size(), ceil_div<nnz_t>(f.nnz(), threadlen));
  for (nnz_t th = 0; th < sf.size(); ++th) {
    EXPECT_EQ(sf.get(th), f.is_head(th * threadlen)) << "thread " << th;
  }
}

TEST(FcooStartFlags, SingleNonZero) {
  CooTensor t({3, 3, 3});
  t.push_back(std::vector<index_t>{1, 2, 0}, 5.0f);
  const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
  ASSERT_EQ(f.nnz(), 1u);
  EXPECT_EQ(f.num_segments(), 1u);
  EXPECT_TRUE(f.is_head(0));
  for (unsigned threadlen : {1u, 2u, 8u, 64u}) {
    const BitArray sf = f.start_flags(threadlen);
    ASSERT_EQ(sf.size(), 1u) << "threadlen " << threadlen;
    EXPECT_TRUE(sf.get(0)) << "threadlen " << threadlen;
  }
}

TEST(FcooStartFlags, EmptyTensor) {
  const CooTensor t({4, 4, 4});
  const FcooTensor f = test::make_mttkrp_fcoo(t, 0);
  EXPECT_EQ(f.nnz(), 0u);
  EXPECT_EQ(f.num_segments(), 0u);
  EXPECT_EQ(f.bit_flags().size(), 0u);
  const BitArray sf = f.start_flags(8);
  EXPECT_EQ(sf.size(), 0u);
}

TEST(FcooStartFlags, ThreadlenOneMirrorsBf) {
  // With one non-zero per thread, sf is exactly bf.
  const CooTensor t = io::generate_uniform({10, 9, 8}, 60, 52);
  const FcooTensor f = test::make_mttkrp_fcoo(t, 1);
  const BitArray sf = f.start_flags(1);
  ASSERT_EQ(sf.size(), f.nnz());
  for (nnz_t x = 0; x < f.nnz(); ++x) {
    EXPECT_EQ(sf.get(x), f.is_head(x)) << "x=" << x;
  }
}

TEST(FcooStartFlags, ThreadlenBeyondNnzIsOneThread) {
  // threadlen > nnz: a single partition whose flag is bf[0] (always a head
  // for a non-empty tensor).
  const CooTensor t = io::generate_uniform({5, 5, 5}, 20, 53);
  const FcooTensor f = test::make_mttkrp_fcoo(t, 2);
  ASSERT_GT(f.nnz(), 0u);
  const BitArray sf = f.start_flags(static_cast<unsigned>(f.nnz()) + 100);
  ASSERT_EQ(sf.size(), 1u);
  EXPECT_TRUE(sf.get(0));
}

TEST(FcooStartFlags, PopcountBoundsAgainstSegments) {
  // Each sf bit marks a partition whose first nnz opens a segment, so the
  // sf popcount can never exceed the segment count, and with threadlen 1 it
  // equals it.
  Prng rng(54);
  for (int trial = 0; trial < 10; ++trial) {
    const CooTensor t = test::random_coo3(rng, 12, 200);
    const FcooTensor f = test::make_mttkrp_fcoo(t, static_cast<int>(rng.next_below(3)));
    const unsigned threadlen = 1 + rng.next_index(16);
    const BitArray sf = f.start_flags(threadlen);
    EXPECT_LE(sf.popcount(), f.num_segments()) << "trial " << trial;
    EXPECT_EQ(f.start_flags(1).popcount(), f.num_segments()) << "trial " << trial;
  }
}

TEST(FcooStartFlags, FirstSegmentPerPartitionCountsHeadsAfterPositionZero) {
  // The word-at-a-time count against its definition, bit by bit: partition
  // t's id is the number of heads in [1, t * threadlen]. Random words, bit 0
  // set or not (a chunk-local slice may start mid-segment), threadlens
  // around and beyond the 64-bit word.
  Prng rng(0x5E6);
  for (int trial = 0; trial < 40; ++trial) {
    const nnz_t nnz = rng.next_below(700);
    std::vector<std::uint64_t> words(ceil_div<nnz_t>(nnz, 64) + 1);
    for (auto& w : words) w = rng.next_u64() & rng.next_u64();
    const unsigned threadlen = 1 + rng.next_index(trial % 2 == 0 ? 8 : 150);
    const auto bit = [&](nnz_t x) { return ((words[x >> 6] >> (x & 63)) & 1u) != 0; };
    std::vector<index_t> want(ceil_div<nnz_t>(nnz, threadlen));
    index_t seg = 0;
    for (nnz_t x = 0; x < nnz; ++x) {
      if (x != 0 && bit(x)) ++seg;
      if (x % threadlen == 0) want[x / threadlen] = seg;
    }
    EXPECT_EQ(first_segment_per_partition(words, nnz, threadlen), want)
        << "trial " << trial << ", nnz " << nnz << ", threadlen " << threadlen;
  }
}

}  // namespace
}  // namespace ust
