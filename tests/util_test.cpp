// Unit tests for the util substrate: PRNG, bit arrays, thread pool, CLI,
// statistics, tables and timers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ust {
namespace {

TEST(Common, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 64), 1);
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(Common, ContractMacrosThrow) {
  EXPECT_THROW([] { UST_EXPECTS(false); }(), ContractViolation);
  EXPECT_THROW([] { UST_ENSURES(1 == 2); }(), ContractViolation);
  EXPECT_NO_THROW([] { UST_EXPECTS(true); }());
}

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool any_diff = false;
  Prng a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Prng, NextBelowIsInRangeAndCoversValues) {
  Prng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(Prng, DoubleInUnitInterval) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Prng, GaussianMomentsRoughlyStandard) {
  Prng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Prng, ShufflePreservesMultiset) {
  Prng rng(13);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w.begin(), w.end());
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Zipf, SkewPutsMassOnFewRanks) {
  Prng rng(17);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  // Rank 0 should dominate; the top 10 ranks should hold a large share.
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  EXPECT_GT(counts[0], counts[500]);
  EXPECT_GT(top10, 20000 / 4);
}

TEST(Zipf, ZeroSkewIsUniform) {
  Prng rng(19);
  ZipfSampler zipf(16, 0.0);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 16000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(BitArray, SetGetAndPopcount) {
  BitArray bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.byte_size(), 17u);
  EXPECT_EQ(bits.popcount(), 0u);
  bits.set(0, true);
  bits.set(64, true);
  bits.set(129, true);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(129));
  EXPECT_FALSE(bits.get(1));
  EXPECT_EQ(bits.popcount(), 3u);
  bits.set(64, false);
  EXPECT_EQ(bits.popcount(), 2u);
}

TEST(BitArray, RankMatchesBruteForce) {
  Prng rng(21);
  BitArray bits(300);
  std::vector<bool> ref(300, false);
  for (int i = 0; i < 120; ++i) {
    const auto p = rng.next_below(300);
    bits.set(p, true);
    ref[p] = true;
  }
  std::size_t count = 0;
  for (std::size_t i = 0; i <= 300; ++i) {
    EXPECT_EQ(bits.rank(i), count) << "at " << i;
    if (i < 300 && ref[i]) ++count;
  }
}

TEST(BitArray, AllOnesConstruction) {
  BitArray bits(70, true);
  EXPECT_EQ(bits.popcount(), 70u);
  EXPECT_EQ(bits.rank(70), 70u);
}

TEST(CountOnes, MatchesBruteForceOnEveryRange) {
  // A random word, a full one, an empty one and another random one: every
  // [lo, hi) over them covers empty ranges (lo >= hi), ranges inside one
  // word, ranges across word boundaries and whole words.
  Prng rng(23);
  const std::vector<std::uint64_t> words{rng.next_u64(), ~std::uint64_t{0}, 0, rng.next_u64()};
  const nnz_t bits = 64 * words.size();
  for (nnz_t lo = 0; lo <= bits; ++lo) {
    for (nnz_t hi = 0; hi <= bits; ++hi) {
      nnz_t expect = 0;
      for (nnz_t p = lo; p < hi; ++p) expect += (words[p >> 6] >> (p & 63)) & 1;
      ASSERT_EQ(count_ones(words, lo, hi), expect) << "[" << lo << ", " << hi << ")";
    }
  }
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100, 1,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDegradesToSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, 1, [&](std::size_t) {
    pool.parallel_for(8, 1, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, CallWhileAnotherThreadsJobRunsNeverStallsThatJob) {
  // An owner thread's job holds the pool until released. A call from this
  // thread then runs serially on it, and its body releases the owner's job
  // and waits for that job to return: the serial run must not hold anything
  // the owner's job needs to finish. The wait gives up after 10 s instead of
  // hanging.
  ThreadPool pool(2);
  std::atomic<bool> entered{false}, released{false}, owner_done{false};
  std::thread owner([&] {
    pool.parallel_for(4, 1, [&](std::size_t) {
      entered = true;
      while (!released) std::this_thread::yield();
    });
    owner_done = true;
  });
  while (!entered) std::this_thread::yield();
  std::atomic<int> ran{0};
  std::atomic<bool> owner_done_first{false};
  pool.parallel_for(4, 1, [&](std::size_t) {
    if (ran.fetch_add(1) == 0) {
      released = true;
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!owner_done && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      owner_done_first = owner_done.load();
    }
  });
  released = true;
  owner.join();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_TRUE(owner_done_first.load()) << "the owner's job waited for the serial call";
}

TEST(ThreadPool, RangesReportValidWorkerRanks) {
  ThreadPool pool(4);
  std::atomic<bool> bad{false};
  pool.parallel_ranges(1000, 10, [&](unsigned rank, std::size_t b, std::size_t e) {
    if (rank > pool.size()) bad = true;
    if (b >= e) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v{3.0, 1.0, 2.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, CoefficientOfVariationZeroForConstant) {
  const std::vector<double> v{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(v), 0.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v{1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(v), 4.0, 1e-12);
  const std::vector<double> with_zero{1.0, 0.0};
  EXPECT_DOUBLE_EQ(geometric_mean(with_zero), 0.0);
}

TEST(Stats, HistogramBinsAndClamps) {
  const std::vector<double> v{-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0] + h[1], 5u);  // out-of-range values clamp into end bins
}

TEST(Cli, ParsesOptionsFlagsAndPositional) {
  Cli cli("prog", "test");
  cli.option("rank", "16", "rank").flag("verbose", "talk more");
  const char* argv[] = {"prog", "--rank=32", "--verbose", "file.tns"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("rank"), 32);
  EXPECT_TRUE(cli.get_flag("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.tns");
}

TEST(Cli, SeparateValueFormAndDefaults) {
  Cli cli("prog", "test");
  cli.option("n", "5", "count");
  const char* argv[] = {"prog", "--n", "9"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 9);

  Cli cli2("prog", "test");
  cli2.option("n", "5", "count");
  const char* argv2[] = {"prog"};
  ASSERT_TRUE(cli2.parse(1, argv2));
  EXPECT_EQ(cli2.get_int("n"), 5);
}

TEST(Cli, RejectsUnknownOptionAndHelp) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
  Cli cli2("prog", "test");
  const char* argv2[] = {"prog", "--help"};
  EXPECT_FALSE(cli2.parse(2, argv2));
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);  // header + rule + 2 rows
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Timer, MeasuresElapsedAndFormats) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_NE(format_seconds(0.5).find("ms"), std::string::npos);
  EXPECT_NE(format_seconds(2.0).find(" s"), std::string::npos);
  EXPECT_NE(format_seconds(2e-7).find("ns"), std::string::npos);
  EXPECT_NE(format_seconds(2e-5).find("us"), std::string::npos);
}

TEST(Timer, TimeRepeatedReturnsOrderedStats) {
  const auto r = time_repeated([] {
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }, 5);
  EXPECT_EQ(r.repetitions, 5);
  EXPECT_LE(r.min_s, r.median_s);
  EXPECT_GT(r.mean_s, 0.0);
}

}  // namespace
}  // namespace ust
