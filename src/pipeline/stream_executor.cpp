#include "pipeline/stream_executor.hpp"

#include <algorithm>

namespace ust::pipeline {

core::FcooView ChunkPlan::view() const {
  core::FcooView v;
  v.bf_words = bf_words.data();
  v.vals = vals.data();
  v.thread_first_seg = thread_first_seg.data();
  v.seg_row = seg_row.data();
  v.nnz = total_nnz - spec.lo;
  v.num_segments = spec.num_segments;
  v.threadlen = threadlen;
  return v;
}

std::size_t ChunkPlan::device_bytes() const {
  std::size_t b = bf_words.byte_size() + vals.byte_size() + thread_first_seg.byte_size() +
                  seg_row.byte_size();
  for (const auto& p : pidx) b += p.byte_size();
  return b;
}

std::unique_ptr<ChunkPlan> build_chunk_plan(sim::Device& device, const HostFcoo& host,
                                            const Partitioning& part,
                                            const StreamChunk& spec, index_t row_base) {
  UST_EXPECTS(host.seg_row.size() == host.num_segments);
  auto plan = std::make_unique<ChunkPlan>();
  plan->spec = spec;
  plan->total_nnz = host.nnz;
  plan->row_base = row_base;
  plan->threadlen = part.threadlen;
  const nnz_t count = spec.hi - spec.lo;

  // Head flags: the slice carries one bit past the chunk (when it exists) so
  // the last worker chunk can test whether a segment closes at the boundary.
  const nnz_t bit_count = std::min<nnz_t>(spec.hi + 1, host.nnz) - spec.lo;
  const std::vector<std::uint64_t> bits = slice_bits(host.bf_words, spec.lo, bit_count);
  plan->bf_words = device.alloc<std::uint64_t>(bits.size());
  plan->bf_words.copy_from_host(bits);

  plan->vals = device.alloc<value_t>(count);
  plan->vals.copy_from_host(host.vals.subspan(spec.lo, count));

  plan->pidx.reserve(host.pidx.size());
  for (std::size_t p = 0; p < host.pidx.size(); ++p) {
    auto buf = device.alloc<index_t>(count);
    buf.copy_from_host(host.pidx[p].subspan(spec.lo, count));
    plan->pidx.push_back(std::move(buf));
  }

  // Local partition -> local segment id: the SAME scan UnifiedPlan runs,
  // applied to the chunk-local bit slice (spec.lo is threadlen-aligned).
  const std::vector<index_t> first_seg =
      first_segment_per_partition(bits, count, part.threadlen);
  plan->thread_first_seg = device.alloc<index_t>(first_seg.size());
  plan->thread_first_seg.copy_from_host(first_seg);

  // Local segment id -> output row: the host view's seg_row already encodes
  // the operation's output convention (index-mode coordinate for row-indexed
  // outputs, global segment ordinal for SpTTM's fiber order) -- mirroring
  // UnifiedPlan's seg_row, restricted to this chunk's segments and rebased
  // to row_base (0 for the streaming path: global rows).
  const auto rows_slice = host.seg_row.subspan(spec.first_seg, spec.num_segments);
  if (row_base == 0) {
    plan->seg_row = device.alloc<index_t>(spec.num_segments);
    plan->seg_row.copy_from_host(rows_slice);
  } else {
    std::vector<index_t> rows(rows_slice.begin(), rows_slice.end());
    for (index_t& r : rows) {
      UST_EXPECTS(r >= row_base);
      r -= row_base;
    }
    plan->seg_row = device.alloc<index_t>(spec.num_segments);
    plan->seg_row.copy_from_host(rows);
  }
  return plan;
}

ChunkPlanStream::ChunkPlanStream(sim::Device& device, const HostFcoo& host,
                                 const Partitioning& part,
                                 const core::StreamingOptions& opt)
    : device_(device),
      host_(host),
      part_(part),
      chunks_(make_stream_chunks(host, part, opt)),
      max_in_flight_(std::max(1u, opt.max_in_flight)),
      trace_id_(obs::current_trace_id()) {
  // The thread starts after every member is initialised (cf. the sim::Stream
  // init-order race fixed in PR 1): producer_loop reads chunks_ and queue_.
  producer_ = std::thread([this] { producer_loop(); });
}

ChunkPlanStream::ChunkPlanStream(sim::Device& device, const HostFcoo& host,
                                 const Partitioning& part, ChunkerResult chunks,
                                 unsigned max_in_flight, index_t row_base)
    : device_(device),
      host_(host),
      part_(part),
      chunks_(std::move(chunks)),
      max_in_flight_(std::max(1u, max_in_flight)),
      row_base_(row_base),
      trace_id_(obs::current_trace_id()) {
  producer_ = std::thread([this] { producer_loop(); });
}

ChunkPlanStream::~ChunkPlanStream() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_space_.notify_all();
  if (producer_.joinable()) producer_.join();
}

void ChunkPlanStream::producer_loop() {
  try {
    for (const StreamChunk& spec : chunks_.chunks) {
      // Reserve a queue slot BEFORE building, so device residency is truly
      // bounded: after the wait the queue holds at most max_in_flight - 1
      // plans, and the one built next brings the total ahead of the
      // consumer to max_in_flight (only the consumer ever pops, and there
      // is a single producer, so the slot cannot be stolen).
      {
        std::unique_lock lock(mutex_);
        cv_space_.wait(lock, [&] { return queue_.size() < max_in_flight_ || stop_; });
        if (stop_) return;
      }
      // Build (slice + upload) outside the lock: this is the work meant to
      // overlap the consumer's execution of the previous chunk. The span id
      // is pinned from the constructing thread (trace_id_): this producer
      // thread has no thread-local context.
      std::unique_ptr<ChunkPlan> plan;
      {
        obs::Span obs_build("pipeline.build", trace_id_);
        obs_build.arg("nnz", static_cast<std::uint64_t>(spec.hi - spec.lo))
            .arg("chunk", static_cast<std::uint64_t>(spec.lo));
        plan = build_chunk_plan(device_, host_, part_, spec, row_base_);
      }
      {
        std::lock_guard lock(mutex_);
        if (stop_) return;
        queue_.push_back(std::move(plan));
      }
      cv_ready_.notify_one();
    }
  } catch (...) {
    std::lock_guard lock(mutex_);
    error_ = std::current_exception();
    cv_ready_.notify_one();
    return;
  }
  std::lock_guard lock(mutex_);
  produced_all_ = true;
  cv_ready_.notify_one();
}

std::unique_ptr<ChunkPlan> ChunkPlanStream::next() {
  std::unique_lock lock(mutex_);
  cv_ready_.wait(lock, [&] {
    return !queue_.empty() || produced_all_ || error_ != nullptr;
  });
  if (!queue_.empty()) {
    std::unique_ptr<ChunkPlan> plan = std::move(queue_.front());
    queue_.pop_front();
    cv_space_.notify_one();
    return plan;
  }
  if (error_ != nullptr) std::rethrow_exception(error_);
  return nullptr;  // produced_all_ and drained
}

}  // namespace ust::pipeline
