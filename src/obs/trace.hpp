// Lock-light span tracer (DESIGN.md §14). Every instrumented layer emits
// closed spans {name, tid, t_start, t_end, trace_id, args} into a per-thread
// bounded ring buffer; a reader thread may export all rings as Chrome
// trace-event JSON (chrome://tracing / Perfetto) at any time, concurrently
// with live writers.
//
// Concurrency model: each ring has exactly ONE writer (its owning thread) and
// any number of readers. Every slot carries a seqlock sequence word plus an
// all-atomic payload, in the fence-free form of Boehm, "Can seqlocks get
// along with programming language memory models?" (MSPC 2012):
//   writer: seq.store(s+1, relaxed); release payload stores;
//           seq.store(s+2, release)
//   reader: s1 = seq.load(acquire); if (s1 & 1) skip; acquire payload loads;
//           accept iff seq.load(relaxed) == s1
// A reader that loads any payload value of a newer write synchronises with
// that release store, so it also sees the writer's odd sequence word and
// its re-check fails; the acquire loads keep the re-check after the payload
// loads. A reader therefore never accepts a torn event. No fences are used,
// so ThreadSanitizer models every ordering it relies on, and on x86 the
// release stores and acquire loads are the same plain moves as relaxed ones.
// Writers never take a lock and never wait: a full ring overwrites its
// oldest slot and counts the loss (TraceStats::dropped).
//
// Cost: a span costs one relaxed atomic load when runtime tracing is off
// (set_tracing), and instrumentation is placed at per-chunk granularity and
// coarser, never per-nonzero, keeping the enabled overhead < 5% on
// bench_spmttkrp (acceptance bound; bench emits obs_overhead).
//
// Span names must be string literals (or otherwise outlive the rings): the
// ring stores the pointer, not a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ust::obs {

/// Aggregate tracer accounting, cheap enough to poll.
struct TraceStats {
  std::uint64_t recorded = 0;  ///< events currently resident in rings
  std::uint64_t dropped = 0;   ///< events overwritten before export
  std::size_t threads = 0;     ///< rings (threads that ever emitted a span)
};

/// Runtime switch, off by default: a relaxed atomic read per Span
/// construction. Spans created while off record nothing.
bool tracing_enabled() noexcept;
void set_tracing(bool on) noexcept;

/// Monotonic nanoseconds since process trace epoch (steady_clock based).
std::uint64_t now_ns() noexcept;

/// The trace id (wire tenant+request_id, see server.cpp) associated with
/// work on the CURRENT thread. Spans snapshot it at construction. Threads
/// that never had one emit trace_id 0.
std::uint64_t current_trace_id() noexcept;
void set_current_trace_id(std::uint64_t id) noexcept;

/// RAII guard: installs a trace id for the scope, restores the previous one.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(std::uint64_t id) noexcept : prev_(current_trace_id()) {
    set_current_trace_id(id);
  }
  ~ScopedTraceId() { set_current_trace_id(prev_); }
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: times its own scope, records on destruction. `name` must be a
/// string literal. Up to two integer args ride along (arg keys must also be
/// literals). The two-argument ctor pins an explicit trace id for threads
/// whose thread-local context is not set (pool workers, producer threads).
class Span {
 public:
  explicit Span(const char* name) noexcept;
  Span(const char* name, std::uint64_t trace_id) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& arg(const char* key, std::uint64_t value) noexcept;

 private:
  const char* name_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t t0_ = 0;
  const char* keys_[2] = {nullptr, nullptr};
  std::uint64_t vals_[2] = {0, 0};
  bool active_ = false;
};

/// Record a span after the fact: [t_start_ns, now). Used where the interval
/// is only known in hindsight (e.g. engine queue wait measured at dequeue).
void emit_span(const char* name, std::uint64_t trace_id, std::uint64_t t_start_ns,
               const char* k0 = nullptr, std::uint64_t v0 = 0) noexcept;

/// Per-thread ring capacity for rings created AFTER the call (default 8192
/// events). Existing rings keep their size.
void set_ring_capacity(std::size_t events_per_thread) noexcept;

TraceStats trace_stats() noexcept;

/// Clears every ring in place (rings and registered threads survive, so
/// cached thread-local pointers stay valid). Callers must guarantee no span
/// is being recorded concurrently -- benches/tools call it between phases.
void reset_trace() noexcept;

/// Export all rings as Chrome trace-event JSON ("X" complete events, ts/dur
/// in microseconds, one tid per ring). Safe to call concurrently with live
/// writers. max_events == 0 means unlimited; otherwise the MOST RECENT
/// max_events spans (by start time) are kept.
std::string chrome_trace_json(std::size_t max_events = 0);

}  // namespace ust::obs
