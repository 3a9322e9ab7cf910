// Tests for the GPU execution-model simulator: device memory accounting and
// OOM, buffers, kernel launch coverage, warp collectives (with property-based
// checks against serial oracles), atomics, adjacent synchronisation, streams.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "sim/collectives.hpp"
#include "sim/device.hpp"
#include "sim/executor.hpp"
#include "sim/stream.hpp"
#include "util/prng.hpp"

namespace ust::sim {
namespace {

DeviceProps tiny_props(std::size_t mem = 1 << 20) {
  DeviceProps p;
  p.global_mem_bytes = mem;
  return p;
}

TEST(Device, AllocAccountsAndFreesOnScopeExit) {
  Device dev(tiny_props());
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  {
    auto buf = dev.alloc<float>(1000);
    EXPECT_EQ(dev.bytes_in_use(), 4000u);
    EXPECT_EQ(buf.size(), 1000u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 4000u);
}

TEST(Device, OutOfMemoryThrowsWithDiagnostics) {
  Device dev(tiny_props(1024));
  auto a = dev.alloc<std::uint8_t>(1000);
  try {
    auto b = dev.alloc<std::uint8_t>(100);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested_bytes, 100u);
    EXPECT_EQ(e.in_use_bytes, 1000u);
    EXPECT_EQ(e.capacity_bytes, 1024u);
  }
  // Failed allocation must not leak accounting.
  EXPECT_EQ(dev.bytes_in_use(), 1000u);
}

TEST(Device, MoveTransfersOwnership) {
  Device dev(tiny_props());
  auto a = dev.alloc<int>(10);
  auto b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(dev.bytes_in_use(), 40u);
  b = DeviceBuffer<int>();
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(Device, CopiesTrackTransferCounters) {
  Device dev(tiny_props());
  auto buf = dev.alloc<float>(8);
  std::vector<float> host(8, 1.5f);
  buf.copy_from_host(host);
  std::vector<float> back(8, 0.0f);
  buf.copy_to_host(back);
  EXPECT_EQ(back[3], 1.5f);
  const auto c = dev.counters();
  EXPECT_EQ(c.h2d_bytes, 32u);
  EXPECT_EQ(c.d2h_bytes, 32u);
}

TEST(Executor, LaunchCoversFullGridExactlyOnce) {
  Device dev(tiny_props());
  const LaunchConfig cfg{.grid = {5, 3, 2}, .block_dim = 4, .shared_bytes = 0};
  std::vector<std::atomic<int>> hits(5 * 3 * 2);
  launch(dev, cfg, [&](BlockCtx& blk) {
    const auto i = blk.block_idx();
    hits[(i.z * 3 + i.y) * 5 + i.x].fetch_add(1);
    EXPECT_EQ(blk.grid_dim().x, 5u);
    EXPECT_EQ(blk.block_dim(), 4u);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(dev.counters().kernel_launches, 1u);
  EXPECT_EQ(dev.counters().blocks_executed, 30u);
}

TEST(Executor, SharedArraysAreBlockLocal) {
  Device dev(tiny_props());
  LaunchConfig cfg{.grid = {64, 1, 1}, .block_dim = 32, .shared_bytes = 1024};
  std::atomic<bool> bad{false};
  launch(dev, cfg, [&](BlockCtx& blk) {
    auto arr = blk.shared_array<int>(64);
    for (int& v : arr) v = static_cast<int>(blk.block_idx().x);
    for (int v : arr) {
      if (v != static_cast<int>(blk.block_idx().x)) bad = true;
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(Executor, SharedOverflowIsContractViolation) {
  Device dev(tiny_props());
  LaunchConfig cfg{.grid = {1, 1, 1}, .block_dim = 1, .shared_bytes = 64};
  EXPECT_THROW(
      launch(dev, cfg, [&](BlockCtx& blk) { blk.shared_array<double>(100); }),
      ContractViolation);
}

TEST(Executor, AtomicAddGlobalIsCorrectUnderContention) {
  Device dev(tiny_props());
  float target = 0.0f;
  LaunchConfig cfg{.grid = {256, 1, 1}, .block_dim = 1, .shared_bytes = 0};
  launch(dev, cfg, [&](BlockCtx& blk) {
    for (int i = 0; i < 100; ++i) blk.atomic_add_global(&target, 1.0f);
  });
  EXPECT_EQ(target, 25600.0f);
  EXPECT_EQ(dev.counters().atomic_ops, 25600u);
}

TEST(Executor, KernelExceptionPropagates) {
  Device dev(tiny_props());
  LaunchConfig cfg{.grid = {8, 1, 1}, .block_dim = 1};
  EXPECT_THROW(launch(dev, cfg,
                      [&](BlockCtx& blk) {
                        if (blk.block_idx().x == 5) throw std::runtime_error("kernel fault");
                      }),
               std::runtime_error);
}

TEST(Executor, RejectsOversizedBlocks) {
  Device dev(tiny_props());
  LaunchConfig cfg{.grid = {1, 1, 1}, .block_dim = 4096};
  EXPECT_THROW(launch(dev, cfg, [](BlockCtx&) {}), ContractViolation);
}

TEST(Collectives, InclusiveScanMatchesSerialPrefixSum) {
  Prng rng(31);
  for (std::size_t n : {1u, 2u, 7u, 31u, 32u}) {
    std::vector<float> vals(n);
    for (auto& v : vals) v = rng.next_float(-2.0f, 2.0f);
    std::vector<float> expect(n);
    std::partial_sum(vals.begin(), vals.end(), expect.begin());
    warp_inclusive_scan_add(vals);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(vals[i], expect[i], 1e-4) << n << ":" << i;
  }
}

// Property test: segmented scan == independent prefix sums per segment, for
// random segment layouts.
TEST(Collectives, SegmentedScanMatchesPerSegmentSerial) {
  Prng rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(32);
    std::vector<float> vals(n);
    std::vector<std::uint8_t> heads(n, 0);
    heads[0] = rng.next_below(2) ? 1 : 0;  // first lane may continue a run
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = rng.next_float(-1.0f, 1.0f);
      if (i > 0) heads[i] = rng.next_below(3) == 0 ? 1 : 0;
    }
    std::vector<float> expect(n);
    float run = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      if (heads[i]) run = 0.0f;
      run += vals[i];
      expect[i] = run;
    }
    auto flags = heads;
    warp_segmented_scan_add(vals, flags);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(vals[i], expect[i], 1e-4) << "trial " << trial << " lane " << i;
    }
    // Propagated flags: lane i's flag == whether any head in its run so far.
    bool any_head = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (heads[i]) any_head = true;
      EXPECT_EQ(flags[i] != 0, any_head) << "flag at " << i;
    }
  }
}

TEST(Collectives, WarpReduceAndBroadcast) {
  const std::vector<float> vals{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_FLOAT_EQ(warp_reduce_add(vals), 10.0f);
  EXPECT_FLOAT_EQ(warp_broadcast(vals, 2), 3.0f);
}

TEST(AdjacentSignal, CarriesChainAcrossOrderedBlocks) {
  Device dev(tiny_props());
  const std::size_t blocks = 500;
  AdjacentSignal signal(blocks);
  std::vector<float> observed(blocks, -1.0f);
  LaunchConfig cfg{.grid = {static_cast<unsigned>(blocks), 1, 1}, .block_dim = 1};
  launch(dev, cfg, [&](BlockCtx& blk) {
    const std::size_t i = blk.block_idx().x;
    float incoming = 0.0f;
    if (i > 0) incoming = signal.wait(i - 1);  // spin on predecessor
    observed[i] = incoming;
    signal.publish(i, incoming + 1.0f);
  });
  for (std::size_t i = 0; i < blocks; ++i) {
    EXPECT_FLOAT_EQ(observed[i], static_cast<float>(i));
  }
}

TEST(CarryChain, MultiLaneCarriesFlowInOrder) {
  Device dev(tiny_props());
  const std::size_t blocks = 200;
  const std::size_t lanes = 4;
  CarryChain chain(blocks, lanes);
  EXPECT_EQ(chain.num_slots(), blocks);
  EXPECT_EQ(chain.stride(), lanes);
  std::vector<std::atomic<float>> seen(blocks * lanes);
  LaunchConfig cfg{.grid = {static_cast<unsigned>(blocks), 1, 1}, .block_dim = 1};
  launch(dev, cfg, [&](BlockCtx& blk) {
    const std::size_t i = blk.block_idx().x;
    for (std::size_t l = 0; l < lanes; ++l) {
      float incoming = 0.0f;
      if (i > 0) incoming = chain.wait(i - 1, l);
      seen[i * lanes + l].store(incoming);
      chain.publish(i, l, incoming + static_cast<float>(l + 1));
    }
  });
  for (std::size_t i = 0; i < blocks; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_FLOAT_EQ(seen[i * lanes + l].load(), static_cast<float>(i * (l + 1)));
    }
  }
}

TEST(CarryChain, RejectsOutOfRangeLane) {
  CarryChain chain(4, 2);
  EXPECT_THROW(chain.publish(0, 2, 1.0f), ContractViolation);
  EXPECT_THROW(chain.publish(4, 0, 1.0f), ContractViolation);
}

TEST(Stream, ExecutesInFifoOrderAndSynchronizes) {
  Stream s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    s.enqueue([&order, i] { order.push_back(i); });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Stream, OverlapsWithCallerThread) {
  Stream s;
  std::atomic<int> stream_work{0};
  s.enqueue([&] {
    for (int i = 0; i < 1000; ++i) stream_work.fetch_add(1);
  });
  int caller_work = 0;
  for (int i = 0; i < 1000; ++i) ++caller_work;
  s.synchronize();
  EXPECT_EQ(stream_work.load(), 1000);
  EXPECT_EQ(caller_work, 1000);
}

TEST(Stream, PropagatesExceptionsOnSynchronize) {
  Stream s;
  s.enqueue([] { throw std::runtime_error("stream fault"); });
  EXPECT_THROW(s.synchronize(), std::runtime_error);
  // Stream remains usable afterwards.
  std::atomic<bool> ran{false};
  s.enqueue([&] { ran = true; });
  s.synchronize();
  EXPECT_TRUE(ran.load());
}

TEST(Executor, OrderedDispatchSeesMonotoneBlockStarts) {
  // launch promises that blocks are *claimed* in increasing linear order
  // (the guarantee adjacent synchronisation needs), not that their bodies
  // start in that order: a worker may claim block i-1 and be preempted
  // before running it. Test the promise the way CarryChain uses it. Each
  // block waits on block i-1's release flag before setting its own, so the
  // chain completes only if no block is claimed ahead of its predecessor.
  // The wait is bounded and yields, so a broken order fails instead of
  // hanging.
  Device dev(tiny_props());
  const std::size_t blocks = 200;
  std::vector<std::atomic<bool>> released(blocks);
  for (auto& r : released) r.store(false);
  std::atomic<bool> timed_out{false};
  LaunchConfig cfg{.grid = {static_cast<unsigned>(blocks), 1, 1}, .block_dim = 1};
  launch(dev, cfg, [&](BlockCtx& blk) {
    const std::size_t i = blk.block_idx().x;
    if (i > 0) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!released[i - 1].load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out = true;
          break;
        }
        std::this_thread::yield();
      }
    }
    released[i].store(true, std::memory_order_release);
  });
  EXPECT_FALSE(timed_out.load());
  for (std::size_t i = 0; i < blocks; ++i) EXPECT_TRUE(released[i].load()) << "block " << i;
}

}  // namespace
}  // namespace ust::sim
