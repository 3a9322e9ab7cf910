// perfbench binary: runs one workload and writes its report as one JSON
// document (see report.hpp). perfbench/run.py builds this binary, runs it,
// adds the trace-derived per-layer metrics and prints the result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <report.json> [--trace-out <trace.json>]
//
// Exit codes: 0 all outputs verified, 1 a verification failed (the report
// names it), 2 bad arguments or an error that stopped the run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

void export_trace(const std::string& path, Report& report) {
  report.metrics["obs.dropped"] = static_cast<double>(ust::obs::trace_stats().dropped);
  std::ofstream out(path, std::ios::binary);
  out << ust::obs::chrome_trace_json();
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cp_als|cp_als_sharded|serve_small|"
               "serve_same_plan --seed N --seconds S --trace 0|1 --out FILE [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = val != "0";
      else if (key == "--out") out_path = val;
      else if (key == "--trace-out") opt.trace_out = val;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (out_path.empty() || opt.seconds <= 0.0) return usage("--out and --seconds > 0 are required");
  if (opt.trace && opt.trace_out.empty()) return usage("--trace 1 needs --trace-out");

  perfbench::Report report;
  perfbench::record_provenance(report);
  report.info["workload"] = opt.workload;
  report.info["seed"] = std::to_string(opt.seed);
  try {
    if (opt.workload == "cp_als") perfbench::run_cp(opt, false, report);
    else if (opt.workload == "cp_als_sharded") perfbench::run_cp(opt, true, report);
    else if (opt.workload == "serve_small") perfbench::run_serve(opt, false, report);
    else if (opt.workload == "serve_same_plan") perfbench::run_serve(opt, true, report);
    else return usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), ex.what());
    return 2;
  }
  std::ofstream out(out_path, std::ios::binary);
  out << report.to_json() << '\n';
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return report.outcome.failed == 0 ? 0 : 1;
}
