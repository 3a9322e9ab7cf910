// Tests for the chunk plan helpers (src/pipeline/chunker.hpp): slice_bits,
// which cuts a chunk's head-flag words out of the tensor's bit-flag array
// for build_chunk_plan. annotate_segments is covered through the sharder
// (tests/sharding_test.cpp), and build_chunk_plan through the multi-device
// engine suites (replica plans) and tests/shard_equivalence_test.cpp.
#include <gtest/gtest.h>

#include "pipeline/chunker.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace ust::pipeline {
namespace {

TEST(Chunker, SliceBitsMatchesBitArray) {
  Prng rng(1234);
  BitArray bits(517);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.next_below(3) == 0);
  for (const auto& [lo, count] : {std::pair<nnz_t, nnz_t>{0, 517},
                                 {64, 64},
                                 {63, 2},
                                 {130, 387},
                                 {511, 6},
                                 {100, 0}}) {
    const std::vector<std::uint64_t> s = slice_bits(bits.words(), lo, count);
    ASSERT_EQ(s.size(), ceil_div<nnz_t>(count, 64));
    for (nnz_t i = 0; i < count; ++i) {
      EXPECT_EQ((s[i >> 6] >> (i & 63)) & 1ull, bits.get(lo + i) ? 1ull : 0ull)
          << "lo=" << lo << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ust::pipeline
