// Shared plumbing of the perfbench binary: run options, seed derivation,
// sample statistics, the run report (a flat JSON document the Python runner
// turns into the benchmark's result line) and host provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON of the traced pass (trace runs)
};

/// Independent generator seed for one named input of the run: every
/// generator (tensor, CP init, factor sets, tenants) is fed from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (p in [0, 1]) of `v`; 0 when empty. The
/// same definition as perfbench/trace_report.py, so C++- and trace-derived
/// percentiles agree.
double quantile(std::vector<double> v, double p);
double median(const std::vector<double>& v);

/// Peak resident set size of this process, in MB (10^6 bytes).
double peak_rss_mb();

/// Outcome accounting: every verified operation is attempted once; a
/// failed check (wrong bytes, out-of-tolerance result, error response)
/// counts as failed and is named in `failures`.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, std::uint64_t ops, const std::string& what);
};

/// The binary's report: metric name -> value (end-to-end and counter-based
/// per-layer metrics), named sample lists (per-run raw values behind a
/// median), and free-form provenance strings.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;
  Outcome outcome;

  std::string to_json() const;
};

/// nproc, CPU model, ISA flags, dispatched SIMD level, UST_NUM_THREADS and
/// build type, into report.info.
void record_provenance(Report& report);

}  // namespace perfbench
