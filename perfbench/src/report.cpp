#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "core/simd.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finaliser over (seed, tag): distinct tags give unrelated
  // streams, and the same (seed, tag) always gives the same stream.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

void Outcome::check(bool ok, std::uint64_t ops, const std::string& what) {
  attempted += ops;
  if (ok) return;
  failed += ops;
  if (failures.size() < 32) failures.push_back(what);
}

namespace {

void append_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(outcome.attempted) +
                    ",\"failed\":" + std::to_string(outcome.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_string(out, outcome.failures[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    if (!first) out.push_back(',');
    first = false;
    append_string(out, k);
    out.push_back(':');
    append_number(out, v);
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [k, vs] : samples) {
    if (!first) out.push_back(',');
    first = false;
    append_string(out, k);
    out += ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_number(out, vs[i]);
    }
    out.push_back(']');
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [k, v] : info) {
    if (!first) out.push_back(',');
    first = false;
    append_string(out, k);
    out.push_back(':');
    append_string(out, v);
  }
  out += "}}";
  return out;
}

void record_provenance(Report& report) {
  namespace simd = ust::core::simd;
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  report.info["cpu_model"] = model;
  report.info["cpu_avx2"] = std::to_string(simd::cpu_has_avx2() ? 1 : 0);
  report.info["cpu_avx512"] = std::to_string(simd::cpu_has_avx512() ? 1 : 0);
  report.info["simd_dispatch"] = simd::level_name(simd::active_level());
  const char* threads = std::getenv("UST_NUM_THREADS");
  report.info["UST_NUM_THREADS"] = threads != nullptr ? threads : "unset";
#ifdef PERFBENCH_BUILD_TYPE
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
#endif
#ifdef NDEBUG
  constexpr int kNdebug = 1;
#else
  constexpr int kNdebug = 0;
#endif
  report.info["ndebug"] = std::to_string(kNdebug);
}

}  // namespace perfbench
