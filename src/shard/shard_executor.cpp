#include "shard/shard_executor.hpp"

namespace ust::shard {

DeviceGroup::DeviceGroup(sim::Device& primary, unsigned num_devices,
                         std::size_t cache_bytes_per_device)
    : primary_(&primary), cache_bytes_per_device_(cache_bytes_per_device) {
  UST_EXPECTS(num_devices >= 1);
  caches_.push_back(std::make_unique<pipeline::PlanCache>(cache_bytes_per_device_));
  grow(num_devices);
}

DeviceGroup::~DeviceGroup() {
  // Caches hold device-resident shard plans; drop them while every device in
  // the group is still alive (caches_ is also declared after extras_, so the
  // member-order destruction is safe even without this, but being explicit
  // keeps the invariant obvious).
  for (auto& c : caches_) c->clear();
}

void DeviceGroup::grow(unsigned n) {
  const unsigned slots = primary_->pool().size() + 1;
  for (unsigned d = size(); d < n; ++d) {
    // Each replica device gets its own worker pool with the primary's slot
    // count, so per-shard scheduling is symmetric across the group.
    // ThreadPool(n) spawns n - 1 workers and the calling thread is the n-th
    // slot, so replica pools report size() == primary.pool().size().
    pools_.push_back(std::make_unique<ThreadPool>(slots));
    extras_.push_back(std::make_unique<sim::Device>(primary_->props(), pools_.back().get(),
                                                    static_cast<int>(d)));
    caches_.push_back(std::make_unique<pipeline::PlanCache>(cache_bytes_per_device_));
  }
}

sim::Device& DeviceGroup::device(unsigned d) {
  UST_EXPECTS(d < size());
  return d == 0 ? *primary_ : *extras_[d - 1];
}

pipeline::PlanCache& DeviceGroup::cache(unsigned d) {
  UST_EXPECTS(d < caches_.size());
  return *caches_[d];
}

std::shared_ptr<const pipeline::ChunkPlan> acquire_shard_plan(
    pipeline::PlanCache& cache, sim::Device& dev, const pipeline::HostFcoo& host,
    const Partitioning& part, core::TensorOp op, int mode, std::uint64_t tensor_fp,
    const pipeline::StreamChunk& shard, nnz_t chunk_nnz, index_t row_base) {
  // The group's caches are shared across every op and tensor the engine
  // serves, so the key carries the tensor fingerprint alongside the shard
  // range + grid cap. chunk_nnz must be keyed: the cached plan embeds its
  // worker list, which changes with the grid cap even for an identical nnz
  // range.
  pipeline::PlanKey key;
  key.device = &dev;
  key.tensor_fp = tensor_fp;
  key.op = op;
  key.mode = mode;
  key.threadlen = part.threadlen;
  key.block_size = part.block_size;
  key.shard_lo = shard.lo;
  key.shard_hi = shard.hi;
  key.chunk_nnz = chunk_nnz;
  key.flavor = pipeline::PlanKey::kShardSlice;
  const auto bundle = cache.get_or_build(key, [&] {
    pipeline::CachedPlan cached;
    cached.chunk = pipeline::build_chunk_plan(dev, host, part, shard, row_base);
    return cached;
  });
  return bundle->chunk;
}

}  // namespace ust::shard
