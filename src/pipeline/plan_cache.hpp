// LRU cache of UnifiedPlans (DESIGN.md §9). A plan's construction cost --
// sort + coalesce into F-COO, segment table construction, device upload --
// dominates a single kernel run for real tensors, and CP-ALS/Tucker rebuild
// identical per-mode plans on every solver invocation. The cache keys plans
// on (device, tensor fingerprint, operation, mode, partitioning, shard
// slice), holds them behind shared_ptr so eviction never invalidates a plan
// in use, and evicts least-recently-used entries once a device-byte budget
// is exceeded. The sharded executor (src/shard/) keeps one PlanCache per
// device, whose entries carry shard-sliced chunk plans instead of
// whole-tensor UnifiedPlans.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/mode_plan.hpp"
#include "core/unified_plan.hpp"
#include "tensor/coo.hpp"

namespace ust::pipeline {

struct ChunkPlan;

/// Content fingerprint of a COO tensor in storage order: hashes dims, nnz,
/// every index array and the raw value bits (FNV-1a over words). Two
/// tensors with equal fingerprints are treated as identical by the cache.
std::uint64_t coo_fingerprint(const CooTensor& tensor);

/// What the cache stores per key. Whole-tensor entries (acquire_plan) carry
/// the device-resident UnifiedPlan plus the host copies of the per-segment
/// index-mode coordinates (SpTTM needs them to assemble its semi-sparse
/// output; empty for the other ops). Shard entries (the sharded executor's
/// per-device caches) carry a shard-sliced ChunkPlan instead, with the
/// UnifiedPlan slot left empty.
struct CachedPlan {
  core::UnifiedPlan plan;
  std::vector<std::vector<index_t>> segment_coords;
  std::shared_ptr<const ChunkPlan> chunk = nullptr;

  /// Bytes charged against the cache budget: device bytes + host coords.
  std::size_t bytes() const;
};

struct PlanKey {
  /// What the entry's payload is; keyed so the three plan shapes stored in
  /// one cache can never collide (a whole-range shard slice and a whole-range
  /// replica plan cover the same nnz span but differ in row_base).
  enum Flavor : std::uint8_t {
    kWholePlan = 0,     // UnifiedPlan bundle (pipeline::acquire_plan)
    kShardSlice = 1,    // shard-sliced ChunkPlan (shard::acquire_shard_plan)
    kWholeReplica = 2,  // whole-range ChunkPlan on a replica device (engine)
  };

  const void* device = nullptr;  // plans are bound to their sim::Device
  std::uint64_t tensor_fp = 0;
  core::TensorOp op = core::TensorOp::kSpMTTKRP;
  int mode = 0;
  unsigned threadlen = 0;
  unsigned block_size = 0;
  // Shard-slice identity (whole-tensor entries leave these at 0). chunk_nnz
  // is part of the key because a cached shard plan embeds its worker-chunk
  // list, which depends on the grid cap.
  nnz_t shard_lo = 0;
  nnz_t shard_hi = 0;
  nnz_t chunk_nnz = 0;
  std::uint8_t flavor = kWholePlan;

  bool operator==(const PlanKey&) const = default;
};

class PlanCache {
 public:
  /// `byte_budget` bounds the total bytes() of cached entries; the cache
  /// evicts LRU entries after each insertion until it fits.
  ///
  /// Always-keep-one invariant: a single entry larger than the whole budget
  /// is kept resident (shared_ptr users hold it anyway, so evicting it would
  /// free nothing while guaranteeing a rebuild on the next lookup). In that
  /// state Stats::bytes_in_use legitimately exceeds Stats::byte_budget with
  /// Stats::entries == 1; bytes_in_use never underflows.
  ///
  /// Lifetime: cached plans own DeviceBuffers whose destruction touches the
  /// sim::Device they were allocated on. A cache that outlives a Device it
  /// has served must purge_device() (or clear()) before that Device is
  /// destroyed, and held shared_ptrs must likewise not outlive the Device --
  /// the same rule as for any device-resident resource.
  explicit PlanCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  using Builder = std::function<CachedPlan()>;

  /// Returns the cached plan for `key`, building (and caching) it via
  /// `build` on a miss. The returned shared_ptr stays valid after eviction.
  std::shared_ptr<const CachedPlan> get_or_build(const PlanKey& key, const Builder& build);

  /// Explicit insertion. When `key` is already present the existing entry is
  /// REPLACED and refreshed in place: its old bytes are released from the
  /// accounting exactly once and no duplicate LRU entry is created (callers
  /// holding the old shared_ptr keep a valid plan). Returns the now-resident
  /// plan.
  std::shared_ptr<const CachedPlan> put(const PlanKey& key, CachedPlan plan);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// May exceed byte_budget only in the single-over-budget-entry state
    /// described on the constructor (entries == 1).
    std::size_t bytes_in_use = 0;
    std::size_t byte_budget = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

  /// Drops the entry for `key` if present, releasing its bytes from the
  /// accounting (holders of the shared_ptr keep a valid plan). Returns true
  /// when an entry was removed. This is the quota hook the engine layers
  /// per-tenant byte budgets on (Engine::forget): unlike LRU pressure it
  /// targets one identified plan, and it does not count as an eviction.
  bool erase(const PlanKey& key);

  /// Drops every entry whose key was built for `device` (no eviction count;
  /// this is lifetime management, not pressure). Call before destroying a
  /// Device the cache has served.
  void purge_device(const void* device);

  void clear();

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const CachedPlan> plan;
    std::size_t bytes = 0;
  };
  struct KeyHash {
    std::size_t operator()(const PlanKey& k) const noexcept;
  };

  void evict_to_budget_locked();

  const std::size_t byte_budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, KeyHash> index_;
  std::size_t bytes_in_use_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Single plan-acquisition path (called by engine::Engine::plan on behalf
/// of all four unified ops): returns `cache`'s F-COO + UnifiedPlan bundle
/// for `mp` on `part`, building it on `device`'s pool on a miss. Keyed on
/// the *mode plan's* op, so SpTTV -- which reuses the SpMTTKRP mode split
/// and therefore an identical plan -- shares SpMTTKRP's cache entries, and
/// on `tensor_fp` = coo_fingerprint(tensor). `want_coords` additionally
/// captures the host per-segment index-mode coordinates in the bundle
/// (SpTTM's output assembly). The returned shared_ptr alone keeps the
/// bundle alive.
std::shared_ptr<const CachedPlan> acquire_plan(sim::Device& device,
                                               const CooTensor& tensor,
                                               const core::ModePlan& mp,
                                               const Partitioning& part, PlanCache& cache,
                                               bool want_coords, std::uint64_t tensor_fp);

}  // namespace ust::pipeline
