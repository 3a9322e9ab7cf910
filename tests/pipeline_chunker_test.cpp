// Tests for the streaming pipeline's chunker (src/pipeline/chunker.hpp):
// alignment to the native worker grid, byte-budget grouping, segment
// metadata (including chunk boundaries splitting a segment), and the edge
// cases the streaming executor relies on (empty tensor, nnz smaller than one
// chunk).
#include <gtest/gtest.h>

#include "pipeline/chunker.hpp"
#include "test_support.hpp"
#include "util/prng.hpp"

namespace ust::pipeline {
namespace {

using core::StreamingOptions;

/// A 3-order tensor with `segments` slices of `per_seg` non-zeros each
/// (index mode 0), built directly so segment boundaries are exact.
CooTensor segmented_tensor(index_t segments, index_t per_seg) {
  CooTensor t({segments == 0 ? 1 : segments, per_seg == 0 ? 1 : per_seg, 2});
  for (index_t s = 0; s < segments; ++s) {
    for (index_t j = 0; j < per_seg; ++j) {
      const index_t idx[3] = {s, j, (s + j) % 2};
      t.push_back(idx, 1.0f + static_cast<float>(j));
    }
  }
  return t;
}

FcooTensor mttkrp_fcoo(const CooTensor& t) { return test::make_mttkrp_fcoo(t, 0); }

TEST(Chunker, EmptyTensorYieldsNoChunks) {
  const FcooTensor f = mttkrp_fcoo(segmented_tensor(0, 0));
  const ChunkerResult r =
      make_stream_chunks(f, Partitioning{.threadlen = 8, .block_size = 32},
                         StreamingOptions{.enabled = true, .chunk_nnz = 16});
  EXPECT_TRUE(r.chunks.empty());
}

TEST(Chunker, NnzSmallerThanOneChunkIsSingleChunk) {
  const FcooTensor f = mttkrp_fcoo(segmented_tensor(3, 2));  // nnz = 6
  const ChunkerResult r = make_stream_chunks(
      f, Partitioning{.threadlen = 8, .block_size = 32},
      StreamingOptions{.enabled = true, .chunk_bytes = 1u << 30, .chunk_nnz = 1024});
  ASSERT_EQ(r.chunks.size(), 1u);
  EXPECT_EQ(r.chunks[0].lo, 0u);
  EXPECT_EQ(r.chunks[0].hi, f.nnz());
  EXPECT_EQ(r.chunks[0].first_seg, 0u);
  EXPECT_EQ(r.chunks[0].num_segments, f.num_segments());
  ASSERT_EQ(r.chunks[0].workers.size(), 1u);
  EXPECT_EQ(r.chunks[0].workers[0].lo, 0u);
  EXPECT_EQ(r.chunks[0].workers[0].hi, f.nnz());
}

TEST(Chunker, ChunksCoverNnzContiguouslyAndAlignToThreadlen) {
  Prng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const CooTensor t = test::random_coo3(rng, 24, 800);
    const FcooTensor f = mttkrp_fcoo(t);
    const unsigned threadlen = 4u << rng.next_below(3);  // 4, 8, 16
    const Partitioning part{.threadlen = threadlen, .block_size = 32};
    const nnz_t chunk = threadlen * (1 + rng.next_below(8));
    const ChunkerResult r = make_stream_chunks(
        f, part, StreamingOptions{.enabled = true, .chunk_bytes = 0, .chunk_nnz = chunk});
    ASSERT_FALSE(r.chunks.empty());
    EXPECT_EQ(r.chunk_nnz, chunk);
    nnz_t expect_lo = 0;
    for (const StreamChunk& sc : r.chunks) {
      EXPECT_EQ(sc.lo, expect_lo);
      EXPECT_LT(sc.lo, sc.hi);
      EXPECT_EQ(sc.lo % threadlen, 0u) << "chunk start off the partition grid";
      EXPECT_LE(sc.hi - sc.lo, chunk);
      // Worker ranges tile the chunk contiguously in local coordinates.
      nnz_t wlo = 0;
      for (const auto& w : sc.workers) {
        EXPECT_EQ(w.lo, wlo);
        EXPECT_LT(w.lo, w.hi);
        wlo = w.hi;
      }
      EXPECT_EQ(wlo, sc.hi - sc.lo);
      expect_lo = sc.hi;
    }
    EXPECT_EQ(expect_lo, f.nnz());
  }
}

TEST(Chunker, BoundarySplittingASegmentKeepsSegmentMetadataExact) {
  // One giant segment (all non-zeros share index-mode coordinate 0): every
  // chunk boundary splits it, so every chunk must report first_seg == 0 and
  // exactly one segment.
  const FcooTensor f = mttkrp_fcoo(segmented_tensor(1, 64));
  ASSERT_EQ(f.num_segments(), 1u);
  const ChunkerResult r = make_stream_chunks(
      f, Partitioning{.threadlen = 8, .block_size = 32},
      StreamingOptions{.enabled = true, .chunk_bytes = 0, .chunk_nnz = 16});
  ASSERT_GT(r.chunks.size(), 1u);
  for (const StreamChunk& sc : r.chunks) {
    EXPECT_EQ(sc.first_seg, 0u);
    EXPECT_EQ(sc.num_segments, 1u);
  }
}

void expect_metadata_matches_rank(const FcooTensor& f, const ChunkerResult& r) {
  for (const StreamChunk& sc : r.chunks) {
    EXPECT_EQ(sc.first_seg, f.segment_of(sc.lo)) << "chunk [" << sc.lo << ", " << sc.hi << ")";
    EXPECT_EQ(sc.first_seg + sc.num_segments - 1, f.segment_of(sc.hi - 1))
        << "chunk [" << sc.lo << ", " << sc.hi << ")";
  }
}

TEST(Chunker, SegmentMetadataMatchesRankQueries) {
  Prng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const CooTensor t = test::random_coo3(rng, 20, 600);
    const FcooTensor f = mttkrp_fcoo(t);
    const Partitioning part{.threadlen = 8, .block_size = 32};
    expect_metadata_matches_rank(
        f, make_stream_chunks(
               f, part, StreamingOptions{.enabled = true, .chunk_bytes = 0, .chunk_nnz = 32}));
  }
  // Chunks spanning hundreds to thousands of head-flag words, with
  // boundaries on word edges (threadlen 64) and next to them (63, 65). Two
  // grids per input: the default 16 worker chunks (about 200 words each on
  // the 210k-nnz input), and a cap of 40 partitions (27 or more worker
  // chunks). Each runs with one worker chunk per stream chunk, and with
  // worker chunks grouped under a byte budget of 40000 non-zeros (about 600
  // words a stream chunk) and of three quarters of the tensor (two stream
  // chunks; the first spans about 2450 words of the 210k-nnz input). Then
  // every non-zero a head, and one segment throughout.
  const index_t big = (1u << 16) + 4321;
  for (const CooTensor& t :
       {test::mixed_segment_coo3(rng, 3 * big), segmented_tensor(big, 1), segmented_tensor(1, big)}) {
    const FcooTensor f = mttkrp_fcoo(t);
    for (const unsigned threadlen : {63u, 64u, 65u}) {
      const Partitioning part{.threadlen = threadlen, .block_size = 32};
      for (const nnz_t cap : {nnz_t{0}, nnz_t{40} * threadlen}) {
        SCOPED_TRACE(testing::Message() << "nnz " << f.nnz() << " threadlen " << threadlen
                                        << " chunk_nnz " << cap);
        const ChunkerResult single = make_stream_chunks(
            f, part, StreamingOptions{.enabled = true, .chunk_bytes = 0, .chunk_nnz = cap});
        EXPECT_EQ(single.chunks.size(),
                  cap == 0 ? 16u : ceil_div<nnz_t>(ceil_div<nnz_t>(f.nnz(), threadlen), 40));
        expect_metadata_matches_rank(f, single);
        for (const nnz_t budget : {nnz_t{40000}, f.nnz() * 3 / 4}) {
          const ChunkerResult grouped = make_stream_chunks(
              f, part,
              StreamingOptions{.enabled = true,
                               .chunk_bytes = budget * plan_bytes_per_nnz(2),
                               .chunk_nnz = cap});
          EXPECT_LT(grouped.chunks.size(), single.chunks.size()) << "budget " << budget;
          EXPECT_GT(grouped.chunks.size(), 1u) << "budget " << budget;
          expect_metadata_matches_rank(f, grouped);
        }
      }
    }
  }
}

TEST(Chunker, ByteBudgetGroupsWorkerChunks) {
  const FcooTensor f = mttkrp_fcoo(segmented_tensor(32, 32));  // nnz = 1024
  const Partitioning part{.threadlen = 8, .block_size = 32};
  // Worker grid capped at 32 nnz -> 32 worker chunks. A budget of two worker
  // chunks' bytes groups them in pairs.
  const std::size_t worker_bytes = 32 * plan_bytes_per_nnz(2);
  const ChunkerResult grouped = make_stream_chunks(
      f, part,
      StreamingOptions{.enabled = true, .chunk_bytes = 2 * worker_bytes, .chunk_nnz = 32});
  const ChunkerResult single = make_stream_chunks(
      f, part, StreamingOptions{.enabled = true, .chunk_bytes = 0, .chunk_nnz = 32});
  EXPECT_EQ(single.chunks.size(), 32u);
  EXPECT_EQ(grouped.chunks.size(), 16u);
  for (const StreamChunk& sc : grouped.chunks) {
    EXPECT_EQ(sc.workers.size(), 2u);
    EXPECT_LE(sc.est_device_bytes, 2 * worker_bytes);
  }
}

TEST(Chunker, ResolveChunkNnzDerivesFromBytesAndAligns) {
  const Partitioning part{.threadlen = 24, .block_size = 32};
  StreamingOptions opt{.enabled = true, .chunk_bytes = 1000, .chunk_nnz = 0};
  // 2 product modes -> 13 bytes/nnz -> 76 nnz -> aligned down to 72 (= 3*24).
  const nnz_t resolved = resolve_chunk_nnz(10000, 2, part, opt);
  EXPECT_EQ(resolved % part.threadlen, 0u);
  EXPECT_EQ(resolved, 72u);
  // Explicit chunk_nnz wins over bytes.
  opt.chunk_nnz = 48;
  EXPECT_EQ(resolve_chunk_nnz(10000, 2, part, opt), 48u);
}

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
