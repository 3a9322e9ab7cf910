// The benchmark's workloads (perfbench/README.md has the why of each):
//   cp_als, cp_als_sharded -- CP-ALS on the nell2 replica, in process;
//   serve_small, serve_same_plan -- the TCP service on loopback, 4
//   closed-loop connections.
// Each fills a Report with end-to-end metrics (untraced steady phase), the
// per-layer metrics it can read from public counters and its own timers,
// and -- when opt.trace is set -- runs one extra traced pass whose Chrome
// trace goes to opt.trace_out for perfbench/trace_report.py.
#pragma once

#include <cstddef>
#include <string>

#include "report.hpp"

namespace perfbench {

void run_cp(const RunOptions& opt, bool sharded, Report& report);
void run_serve(const RunOptions& opt, bool same_plan, Report& report);

/// Per-thread span ring of the traced pass. The traced pass stops before
/// the rings could hold this many events in total, so no span is dropped.
inline constexpr std::size_t kRingEvents = std::size_t{1} << 16;
/// Upper bound on the traced pass's length, in seconds.
inline constexpr double kTracedMaxSeconds = 3.0;

/// Writes the resident spans as Chrome trace JSON to `path` and records
/// obs.dropped; throws when the file cannot be written.
void export_trace(const std::string& path, Report& report);

}  // namespace perfbench
