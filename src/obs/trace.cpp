#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace ust::obs {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_ring_capacity{8192};

thread_local std::uint64_t t_trace_id = 0;

/// One recorded span. Every field is atomic so concurrent export never races
/// with the owning writer under TSan; the seqlock word makes torn reads
/// detectable and re-readable.
struct Slot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> t0{0};
  std::atomic<std::uint64_t> t1{0};
  std::atomic<const char*> k0{nullptr};
  std::atomic<const char*> k1{nullptr};
  std::atomic<std::uint64_t> v0{0};
  std::atomic<std::uint64_t> v1{0};
};

/// One ring per emitting thread; single writer (the owner), many readers.
/// Rings are never destroyed while the process runs (threads may cache a
/// pointer), only cleared in place by reset_trace().
struct Ring {
  explicit Ring(std::size_t cap, int id)
      : slots(new Slot[cap == 0 ? 1 : cap]), capacity(cap == 0 ? 1 : cap), tid(id) {}
  std::unique_ptr<Slot[]> slots;
  std::size_t capacity;
  int tid;                              ///< small stable id, Perfetto row
  std::atomic<std::uint64_t> next{0};   ///< total events ever written
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives detached threads
  return *r;
}

Ring& local_ring() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.rings.push_back(std::make_unique<Ring>(g_ring_capacity.load(std::memory_order_relaxed),
                                               static_cast<int>(reg.rings.size() + 1)));
    ring = reg.rings.back().get();
  }
  return *ring;
}

void record(const char* name, std::uint64_t trace_id, std::uint64_t t0, std::uint64_t t1,
            const char* k0, std::uint64_t v0, const char* k1, std::uint64_t v1) noexcept {
  Ring& r = local_ring();
  const std::uint64_t n = r.next.load(std::memory_order_relaxed);
  Slot& s = r.slots[n % r.capacity];
  const std::uint32_t q = s.seq.load(std::memory_order_relaxed);
  s.seq.store(q + 1, std::memory_order_relaxed);
  // Release payload stores: a reader that sees any of them also sees the
  // odd sequence word stored before it (see the protocol in trace.hpp).
  s.name.store(name, std::memory_order_release);
  s.trace_id.store(trace_id, std::memory_order_release);
  s.t0.store(t0, std::memory_order_release);
  s.t1.store(t1, std::memory_order_release);
  s.k0.store(k0, std::memory_order_release);
  s.k1.store(k1, std::memory_order_release);
  s.v0.store(v0, std::memory_order_release);
  s.v1.store(v1, std::memory_order_release);
  s.seq.store(q + 2, std::memory_order_release);
  r.next.store(n + 1, std::memory_order_release);
}

struct Event {
  const char* name;
  int tid;
  std::uint64_t trace_id, t0, t1;
  const char* k0;
  const char* k1;
  std::uint64_t v0, v1;
};

/// Seqlock read of one slot; false when the writer was mid-store (the event
/// is simply skipped -- it will be complete on the next export).
bool read_slot(const Slot& s, int tid, Event& out) noexcept {
  const std::uint32_t s1 = s.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1u) != 0) return false;
  // Acquire payload loads keep the re-check below after them.
  out.name = s.name.load(std::memory_order_acquire);
  out.trace_id = s.trace_id.load(std::memory_order_acquire);
  out.t0 = s.t0.load(std::memory_order_acquire);
  out.t1 = s.t1.load(std::memory_order_acquire);
  out.k0 = s.k0.load(std::memory_order_acquire);
  out.k1 = s.k1.load(std::memory_order_acquire);
  out.v0 = s.v0.load(std::memory_order_acquire);
  out.v1 = s.v1.load(std::memory_order_acquire);
  out.tid = tid;
  if (s.seq.load(std::memory_order_relaxed) != s1) return false;
  return out.name != nullptr;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

}  // namespace

bool tracing_enabled() noexcept { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) noexcept { g_tracing.store(on, std::memory_order_relaxed); }

std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point base = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - base).count());
}

std::uint64_t current_trace_id() noexcept { return t_trace_id; }
void set_current_trace_id(std::uint64_t id) noexcept { t_trace_id = id; }

Span::Span(const char* name) noexcept : Span(name, t_trace_id) {}

Span::Span(const char* name, std::uint64_t trace_id) noexcept
    : name_(name), trace_id_(trace_id) {
  if (!tracing_enabled()) return;
  active_ = true;
  t0_ = now_ns();
}

Span& Span::arg(const char* key, std::uint64_t value) noexcept {
  if (!active_) return *this;
  const int i = keys_[0] == nullptr ? 0 : 1;
  keys_[i] = key;
  vals_[i] = value;
  return *this;
}

Span::~Span() {
  if (!active_) return;
  record(name_, trace_id_, t0_, now_ns(), keys_[0], vals_[0], keys_[1], vals_[1]);
}

void emit_span(const char* name, std::uint64_t trace_id, std::uint64_t t_start_ns,
               const char* k0, std::uint64_t v0) noexcept {
  if (!tracing_enabled()) return;
  record(name, trace_id, t_start_ns, now_ns(), k0, v0, nullptr, 0);
}

void set_ring_capacity(std::size_t events_per_thread) noexcept {
  g_ring_capacity.store(events_per_thread == 0 ? 1 : events_per_thread,
                        std::memory_order_relaxed);
}

TraceStats trace_stats() noexcept {
  TraceStats st;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  st.threads = reg.rings.size();
  for (const auto& r : reg.rings) {
    const std::uint64_t n = r->next.load(std::memory_order_acquire);
    st.recorded += std::min<std::uint64_t>(n, r->capacity);
    st.dropped += n > r->capacity ? n - r->capacity : 0;
  }
  return st;
}

void reset_trace() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& r : reg.rings) {
    for (std::size_t i = 0; i < r->capacity; ++i) {
      r->slots[i].seq.store(0, std::memory_order_relaxed);
      r->slots[i].name.store(nullptr, std::memory_order_relaxed);
    }
    r->next.store(0, std::memory_order_release);
  }
}

std::string chrome_trace_json(std::size_t max_events) {
  std::vector<Event> events;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& r : reg.rings) {
      const std::uint64_t n = r->next.load(std::memory_order_acquire);
      const std::uint64_t live = std::min<std::uint64_t>(n, r->capacity);
      for (std::uint64_t i = 0; i < live; ++i) {
        Event e;
        if (read_slot(r->slots[i], r->tid, e)) events.push_back(e);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t0 < b.t0; });
  if (max_events != 0 && events.size() > max_events)
    events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(max_events));

  std::string out;
  out.reserve(events.size() * 160 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i != 0) out.push_back(',');
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"ust\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"trace_id\":%llu",
                  static_cast<double>(e.t0) / 1e3,
                  static_cast<double>(e.t1 - e.t0) / 1e3, e.tid,
                  static_cast<unsigned long long>(e.trace_id));
    out += buf;
    for (int a = 0; a < 2; ++a) {
      const char* k = a == 0 ? e.k0 : e.k1;
      if (k == nullptr) continue;
      out += ",\"";
      append_escaped(out, k);
      std::snprintf(buf, sizeof(buf), "\":%llu",
                    static_cast<unsigned long long>(a == 0 ? e.v0 : e.v1));
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace ust::obs
