#include "pipeline/plan_cache.hpp"

#include "pipeline/stream_executor.hpp"
#include "tensor/fcoo.hpp"

namespace ust::pipeline {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

std::size_t CachedPlan::bytes() const {
  std::size_t b = plan.device_bytes();
  for (const auto& c : segment_coords) b += c.size() * sizeof(index_t);
  if (chunk != nullptr) b += chunk->device_bytes();
  return b;
}

std::uint64_t coo_fingerprint(const CooTensor& tensor) {
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(tensor.order()));
  for (index_t d : tensor.dims()) mix(h, d);
  mix(h, tensor.nnz());
  for (int m = 0; m < tensor.order(); ++m) {
    for (index_t i : tensor.mode_indices(m)) mix(h, i);
  }
  for (value_t v : tensor.values()) {
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    mix(h, bits);
  }
  return h;
}

std::size_t PlanCache::KeyHash::operator()(const PlanKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  mix(h, reinterpret_cast<std::uintptr_t>(k.device));
  mix(h, k.tensor_fp);
  mix(h, static_cast<std::uint64_t>(k.op));
  mix(h, static_cast<std::uint64_t>(k.mode));
  mix(h, (static_cast<std::uint64_t>(k.threadlen) << 32) | k.block_size);
  mix(h, k.shard_lo);
  mix(h, k.shard_hi);
  mix(h, k.chunk_nnz);
  mix(h, k.flavor);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const CachedPlan> PlanCache::get_or_build(const PlanKey& key,
                                                          const Builder& build) {
  {
    std::lock_guard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      // Refresh recency: splice the entry to the front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return it->second->plan;
    }
    ++misses_;
  }

  // Build outside the lock: plan construction is the expensive path and may
  // allocate device memory; a concurrent duplicate build is benign (the
  // first insertion stays canonical -- a losing builder discards its plan
  // and returns the cached one -- and both callers keep valid plans).
  auto plan = std::make_shared<const CachedPlan>(build());
  const std::size_t bytes = plan->bytes();

  std::lock_guard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->plan;  // lost the race; keep the cached one canonical
  }
  lru_.push_front(Entry{key, plan, bytes});
  index_.emplace(key, lru_.begin());
  bytes_in_use_ += bytes;
  evict_to_budget_locked();
  return plan;
}

std::shared_ptr<const CachedPlan> PlanCache::put(const PlanKey& key, CachedPlan plan) {
  auto shared = std::make_shared<const CachedPlan>(std::move(plan));
  const std::size_t bytes = shared->bytes();

  std::lock_guard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Update in place, exactly once: release the old entry's bytes, swap the
    // payload, refresh recency. No duplicate Entry and no double charge of
    // bytes_in_use_ (holders of the replaced shared_ptr keep a valid plan).
    bytes_in_use_ -= it->second->bytes;
    it->second->plan = shared;
    it->second->bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, shared, bytes});
    index_.emplace(key, lru_.begin());
  }
  bytes_in_use_ += bytes;
  evict_to_budget_locked();
  return shared;
}

void PlanCache::evict_to_budget_locked() {
  // The `size() > 1` guard is the always-keep-one invariant (see the
  // constructor comment): an entry larger than the whole budget -- including
  // one just inserted -- stays resident rather than being evicted on the
  // spot, and bytes_in_use_ may then exceed byte_budget_ without ever
  // underflowing (every eviction subtracts exactly the victim's recorded
  // bytes).
  while (bytes_in_use_ > byte_budget_ && lru_.size() > 1) {
    const auto it = std::prev(lru_.end());
    UST_ENSURES(bytes_in_use_ >= it->bytes);
    bytes_in_use_ -= it->bytes;
    index_.erase(it->key);
    lru_.erase(it);
    ++evictions_;
  }
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.bytes_in_use = bytes_in_use_;
  s.byte_budget = byte_budget_;
  s.entries = lru_.size();
  return s;
}

bool PlanCache::erase(const PlanKey& key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  UST_ENSURES(bytes_in_use_ >= it->second->bytes);
  bytes_in_use_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

void PlanCache::purge_device(const void* device) {
  std::lock_guard lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.device == device) {
      bytes_in_use_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_in_use_ = 0;
}

std::shared_ptr<const CachedPlan> acquire_plan(sim::Device& device,
                                               const CooTensor& tensor,
                                               const core::ModePlan& mp,
                                               const Partitioning& part, PlanCache& cache,
                                               bool want_coords, std::uint64_t tensor_fp) {
  const PlanKey key{&device, tensor_fp, mp.op, mp.target_mode,
                    part.threadlen, part.block_size};
  return cache.get_or_build(key, [&] {
    const FcooTensor fcoo =
        FcooTensor::build(tensor, mp.index_modes, mp.product_modes, &device.pool());
    CachedPlan cached{core::UnifiedPlan(device, fcoo, part), {}, nullptr};
    if (want_coords) {
      cached.segment_coords.resize(mp.index_modes.size());
      for (std::size_t m = 0; m < mp.index_modes.size(); ++m) {
        const auto coords = fcoo.segment_coords(m);
        cached.segment_coords[m].assign(coords.begin(), coords.end());
      }
    }
    return cached;
  });
}

}  // namespace ust::pipeline
