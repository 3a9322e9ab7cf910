// cp_als / cp_als_sharded: CP-ALS (the paper's Fig. 10 application) on the
// nell2 replica x1.0 at rank 8 with Table V partitioning, driven through the
// public core::cp_als_driver with the benchmark's own MttkrpFn callback, so
// every MTTKRP call and every iteration is timed from outside the program.
// The sharded variant runs every MTTKRP through UnifiedMttkrp::run_sharded
// on 2 devices and keeps each call's shard::Report.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "baselines/reference.hpp"
#include "baselines/splatt.hpp"
#include "core/cp_als.hpp"
#include "core/spmttkrp.hpp"
#include "engine/engine.hpp"
#include "inline_mttkrp.hpp"
#include "io/datasets.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ust;

namespace {

constexpr index_t kRank = 8;
/// Set-ups built per run (each about a second); setup_s is their median.
constexpr int kSetups = 3;
/// Fixed ALS iteration count of every solve (fit_tolerance = 0, so no solve
/// stops early and every solve does the same work).
constexpr int kIters = 10;
/// Interleaved repetitions of the kernel reference rows (trace runs).
constexpr int kRefReps = 9;
/// Normwise relative error allowed between a float kernel and the double
/// reference, and absolute difference allowed between two fits.
constexpr double kMttkrpTol = 1e-4;
constexpr double kFitTol = 1e-4;

enum SeedTag : std::uint64_t { kTensorSeed = 1, kInitSeed = 2, kWarmSeed = 3 };

double rel_error(const DenseMatrix& got, const DenseMatrix& ref) {
  if (got.rows() != ref.rows() || got.cols() != ref.cols()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(got.data()[i]) - ref.data()[i];
    num += d * d;
    den += static_cast<double>(ref.data()[i]) * ref.data()[i];
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

bool same_bytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.byte_size()) == 0;
}

/// Bitwise equality of two solves: fit, weights and every factor.
bool same_solve(const core::CpResult& a, const core::CpResult& b) {
  if (a.fit != b.fit || a.lambda != b.lambda || a.factors.size() != b.factors.size()) return false;
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    if (!same_bytes(a.factors[m], b.factors[m])) return false;
  }
  return true;
}

/// One built set-up: an engine and one MTTKRP plan per mode.
struct CpSetup {
  std::unique_ptr<engine::Engine> engine;
  std::vector<core::UnifiedMttkrp> ops;
  double plan_s = 0.0;  // Engine::plan calls (inside the UnifiedMttkrp ctors)
};

/// Timings of one solve, as seen from the MttkrpFn callback.
struct SolveTimes {
  std::vector<double> iter_s;   // per iteration
  std::vector<double> dense_s;  // per iteration: iteration minus its MTTKRP calls
  std::vector<double> call_s[3];
  std::vector<shard::Report> shard_reports;
};

class CpWorkload {
 public:
  CpWorkload(const RunOptions& opt, bool sharded, Report& report)
      : opt_(opt), sharded_(sharded), report_(report) {}

  void run();

 private:
  DenseMatrix mttkrp(int mode, std::span<const DenseMatrix> f, shard::Report* rep) const;
  core::CpResult solve(const core::MttkrpFn& inner, SolveTimes* times, bool traced);
  void build_setup();
  void verify();
  void steady_phase();
  void reference_rows();
  void traced_pass();

  const RunOptions& opt_;
  bool sharded_;
  Report& report_;
  CooTensor x_;
  Partitioning part_;
  core::CpOptions copt_;
  core::UnifiedOptions kopt_;
  CpSetup setup_;
  core::CpResult verified_;
  SolveTimes steady_;
  double steady_iter_p10_ = 0.0;
  std::uint64_t trace_seq_ = 0;
};

DenseMatrix CpWorkload::mttkrp(int mode, std::span<const DenseMatrix> f,
                               shard::Report* rep) const {
  const core::UnifiedMttkrp& op = setup_.ops[static_cast<std::size_t>(mode)];
  if (!sharded_) return op.run(f, kopt_);
  DenseMatrix out(x_.dim(mode), kRank);
  op.run_sharded(f, out, kopt_, rep);
  return out;
}

/// Runs one CP-ALS solve through core::cp_als_driver. `inner` computes each
/// MTTKRP; the wrapper times calls and iterations (an iteration runs from
/// one mode-0 call to the next, the last one to cp_als_driver's return) and,
/// on the traced pass, records bench.iteration / bench.mttkrp spans under
/// one trace id per iteration.
core::CpResult CpWorkload::solve(const core::MttkrpFn& inner, SolveTimes* times, bool traced) {
  std::vector<Clock::time_point> iter_start;
  std::vector<double> iter_calls;
  std::uint64_t iter_ns = 0, iter_id = 0;
  const auto close_iteration = [&] {
    if (traced && iter_ns != 0) obs::emit_span("bench.iteration", iter_id, iter_ns);
  };
  const core::MttkrpFn timed = [&](int mode, const std::vector<DenseMatrix>& f) {
    const auto t0 = Clock::now();
    if (mode == 0) {
      close_iteration();
      iter_start.push_back(t0);
      iter_calls.push_back(0.0);
      if (traced) {
        iter_id = (std::uint64_t{1} << 40) | ++trace_seq_;
        iter_ns = obs::now_ns();
      }
    }
    DenseMatrix out;
    {
      obs::ScopedTraceId id(traced ? iter_id : obs::current_trace_id());
      obs::Span span("bench.mttkrp");
      span.arg("mode", static_cast<std::uint64_t>(mode));
      out = inner(mode, f);
    }
    const double dt = seconds_since(t0);
    iter_calls.back() += dt;
    if (times != nullptr) times->call_s[mode].push_back(dt);
    return out;
  };
  core::CpResult res = core::cp_als_driver(x_, copt_, timed);
  const auto t_end = Clock::now();
  close_iteration();
  if (times != nullptr) {
    for (std::size_t i = 0; i < iter_start.size(); ++i) {
      const auto next = i + 1 < iter_start.size() ? iter_start[i + 1] : t_end;
      const double it = std::chrono::duration<double>(next - iter_start[i]).count();
      times->iter_s.push_back(it);
      times->dense_s.push_back(it - iter_calls[i]);
    }
  }
  return res;
}

void CpWorkload::build_setup() {
  // Release the previous set-up first so set-ups do not stack in memory.
  setup_.ops.clear();
  setup_.engine.reset();
  const auto t0 = Clock::now();
  engine::EngineOptions eopt;
  eopt.num_devices = sharded_ ? 2 : 1;
  setup_.engine = std::make_unique<engine::Engine>(eopt);
  const auto tp = Clock::now();
  setup_.ops.reserve(3);
  for (int m = 0; m < 3; ++m) setup_.ops.emplace_back(*setup_.engine, x_, m, part_);
  setup_.plan_s = seconds_since(tp);
  // First run per mode (and, sharded, per device: run_sharded builds every
  // device's shard plan on its first call).
  Prng rng(derive_seed(opt_.seed, kWarmSeed));
  std::vector<DenseMatrix> f;
  for (int m = 0; m < 3; ++m) {
    f.emplace_back(x_.dim(m), kRank);
    f.back().fill_random(rng, 0.1f, 1.0f);
  }
  for (int m = 0; m < 3; ++m) (void)mttkrp(m, f, nullptr);
  report_.samples["setup_s"].push_back(seconds_since(t0));
  report_.samples["pipeline.plan_build_s"].push_back(setup_.plan_s);
}

/// Untimed checks: every MTTKRP of one solve against the double reference
/// (and, sharded, bitwise against the 1-device result), then that solve's
/// fit against a solve driven entirely by the reference MTTKRP.
void CpWorkload::verify() {
  core::UnifiedOptions one_device = kopt_;
  one_device.shard.num_devices = 1;
  verified_ = solve(
      [&](int mode, const std::vector<DenseMatrix>& f) {
        DenseMatrix out = mttkrp(mode, f, nullptr);
        const DenseMatrix ref = baseline::mttkrp_reference(x_, mode, f);
        const double err = rel_error(out, ref);
        report_.outcome.check(err <= kMttkrpTol, 1,
                              "MTTKRP mode " + std::to_string(mode) +
                                  " vs reference: rel error " + std::to_string(err));
        if (sharded_) {
          const DenseMatrix single = setup_.ops[static_cast<std::size_t>(mode)].run(f, one_device);
          report_.outcome.check(same_bytes(out, single), 1,
                                "sharded MTTKRP mode " + std::to_string(mode) +
                                    " differs from the 1-device result");
        }
        return out;
      },
      nullptr, false);
  const core::CpResult ref = core::cp_als_driver(
      x_, copt_, [&](int mode, const std::vector<DenseMatrix>& f) {
        return baseline::mttkrp_reference(x_, mode, f);
      });
  report_.outcome.check(std::abs(verified_.fit - ref.fit) <= kFitTol, 1,
                        "final fit " + std::to_string(verified_.fit) +
                            " vs reference-driven fit " + std::to_string(ref.fit));
  report_.info["fit"] = std::to_string(verified_.fit);
  report_.info["fit_reference"] = std::to_string(ref.fit);
}

void CpWorkload::steady_phase() {
  const engine::EngineStats e0 = setup_.engine->stats();
  const auto t0 = Clock::now();
  std::uint64_t solves = 0;
  do {
    const core::CpResult res = solve(
        [&](int mode, const std::vector<DenseMatrix>& f) {
          shard::Report rep;
          DenseMatrix out = mttkrp(mode, f, &rep);
          if (sharded_) steady_.shard_reports.push_back(std::move(rep));
          return out;
        },
        &steady_, false);
    // Solves are deterministic: every MTTKRP of a timed solve sees the same
    // factors as the verified solve, so a bitwise-equal result checks them.
    report_.outcome.check(same_solve(res, verified_), 3 * kIters,
                          "timed solve " + std::to_string(solves) + " differs from the verified solve");
    ++solves;
  } while (seconds_since(t0) < opt_.seconds);
  const double wall = seconds_since(t0);
  const engine::EngineStats e1 = setup_.engine->stats();

  auto& m = report_.metrics;
  steady_iter_p10_ = quantile(steady_.iter_s, 0.10);
  // The gated latency: the 10th percentile, since interference on a shared
  // host comes in multi-second slow phases that the barrier-synchronised
  // kernel threads amplify, and the median swings with the slow share.
  m["lat_ms"] = steady_iter_p10_ * 1e3;
  m["lat_p10_ms"] = steady_iter_p10_ * 1e3;
  m["lat_p50_ms"] = median(steady_.iter_s) * 1e3;
  m["lat_p99_ms"] = quantile(steady_.iter_s, 0.99) * 1e3;
  m["throughput"] = static_cast<double>(steady_.iter_s.size()) / wall;
  report_.samples["iter_s"] = steady_.iter_s;
  report_.info["samples"] = std::to_string(steady_.iter_s.size()) + " ALS iterations in " +
                            std::to_string(solves) + " solves";

  // core: per-call kernel time, and the computed (not measured) traffic and
  // arithmetic of one MTTKRP on mode n of an order-N tensor at rank R:
  //   bytes = nnz * (4 value + 4 (N-1) indices + 4 R (N-1) factor-row reads)
  //           + dims[n] * R * 4 output writes   (every read from memory)
  //   flops = nnz * R * N   ((N-1) multiplies + 1 add per column)
  std::vector<double> all_calls;
  double sum_med = 0.0, bytes = 0.0, flops = 0.0;
  const double nnz = static_cast<double>(x_.nnz());
  for (int mode = 0; mode < 3; ++mode) {
    const auto& c = steady_.call_s[mode];
    all_calls.insert(all_calls.end(), c.begin(), c.end());
    m["core.mttkrp_m" + std::to_string(mode) + "_ms"] = median(c) * 1e3;
    sum_med += median(c);
    bytes += nnz * (4.0 + 4.0 * 2 + 4.0 * kRank * 2) + x_.dim(mode) * kRank * 4.0;
    flops += nnz * kRank * 3.0;
  }
  m["core.mttkrp_ms"] = median(all_calls) * 1e3;
  m["core.ns_per_nnz"] = median(all_calls) / nnz * 1e9;
  m["core.gbps_computed"] = bytes / sum_med / 1e9;
  m["core.gflops_computed"] = flops / sum_med / 1e9;
  m["linalg.dense_ms"] = median(steady_.dense_s) * 1e3;

  const std::uint64_t hits = e1.cache_total.hits - e0.cache_total.hits;
  const std::uint64_t misses = e1.cache_total.misses - e0.cache_total.misses;
  m["pipeline.cache_hit_ratio"] =
      1.0 - static_cast<double>(misses) / static_cast<double>(std::max<std::uint64_t>(1, hits + misses));

  if (sharded_) {
    std::vector<double> dev_max, imbalance, fold;
    for (const shard::Report& r : steady_.shard_reports) {
      double worst = 0.0, sum = 0.0;
      for (const shard::DeviceReport& d : r.devices) {
        worst = std::max(worst, d.exec_s + d.merge_s);
        sum += d.exec_s + d.merge_s;
      }
      dev_max.push_back(worst);
      imbalance.push_back(sum > 0.0 ? worst * static_cast<double>(r.devices.size()) / sum : 1.0);
      fold.push_back(r.fold_s);
    }
    m["shard.device_max_ms"] = median(dev_max) * 1e3;
    m["shard.imbalance"] = median(imbalance);
    m["shard.fold_ms"] = median(fold) * 1e3;
  }
}

/// core.vs_splatt and core.vs_inline: the same MTTKRPs (verified solve's
/// final factors, every mode) through the workload's kernel path, the
/// SPLATT CSF baseline and the benchmark's inlined loop, interleaved, all
/// on the global pool (the primary device's pool, so equal thread counts).
/// Ratios are reference time over kernel time: > 1 means the kernel wins.
void CpWorkload::reference_rows() {
  ThreadPool& pool = ThreadPool::global();
  const baseline::SplattMttkrp splatt(x_, &pool);
  std::vector<InlineMttkrp> inlined;
  for (int m = 0; m < 3; ++m) inlined.emplace_back(x_, m, pool);
  const std::vector<DenseMatrix>& f = verified_.factors;
  std::vector<double> t_kernel[3], t_splatt[3], t_inline[3];
  for (int rep = 0; rep < kRefReps; ++rep) {
    for (int m = 0; m < 3; ++m) {
      auto t = Clock::now();
      (void)mttkrp(m, f, nullptr);
      t_kernel[m].push_back(seconds_since(t));
      t = Clock::now();
      const DenseMatrix b = splatt.run(m, f);
      t_splatt[m].push_back(seconds_since(t));
      DenseMatrix c(x_.dim(m), kRank);
      t = Clock::now();
      inlined[static_cast<std::size_t>(m)].run(f, c);
      t_inline[m].push_back(seconds_since(t));
      if (rep == 0) {
        const DenseMatrix ref = baseline::mttkrp_reference(x_, m, f);
        report_.outcome.check(rel_error(b, ref) <= kMttkrpTol, 1,
                              "SPLATT MTTKRP mode " + std::to_string(m) + " vs reference");
        report_.outcome.check(rel_error(c, ref) <= kMttkrpTol, 1,
                              "inlined MTTKRP mode " + std::to_string(m) + " vs reference");
      }
    }
  }
  double k = 0.0, s = 0.0, i = 0.0;
  for (int m = 0; m < 3; ++m) {
    k += median(t_kernel[m]);
    s += median(t_splatt[m]);
    i += median(t_inline[m]);
  }
  report_.metrics["core.vs_splatt"] = s / k;
  report_.metrics["core.vs_inline"] = i / k;
  report_.info["reference_ms"] = "kernel " + std::to_string(k * 1e3) + ", splatt " +
                                 std::to_string(s * 1e3) + ", inline " +
                                 std::to_string(i * 1e3) + " (sum of per-mode medians)";
}

void CpWorkload::traced_pass() {
  obs::set_ring_capacity(kRingEvents);
  obs::reset_trace();
  obs::set_tracing(true);
  SolveTimes traced;
  const auto t0 = Clock::now();
  do {
    const core::CpResult res = solve(
        [&](int mode, const std::vector<DenseMatrix>& f) { return mttkrp(mode, f, nullptr); },
        &traced, true);
    report_.outcome.check(same_solve(res, verified_), 3 * kIters,
                          "traced solve differs from the verified solve");
  } while (seconds_since(t0) < std::min(opt_.seconds, kTracedMaxSeconds));
  obs::set_tracing(false);
  report_.metrics["obs.overhead"] = quantile(traced.iter_s, 0.10) / steady_iter_p10_;
  export_trace(opt_.trace_out, report_);
}

void CpWorkload::run() {
  io::DatasetSpec spec = *io::find_dataset("nell2");
  spec.seed = derive_seed(opt_.seed, kTensorSeed);
  const auto tg = Clock::now();
  x_ = io::make_replica(spec, 1.0);
  report_.info["tensor"] = "nell2 replica x1.0, " + std::to_string(x_.nnz()) + " nnz";
  report_.info["tensor_gen_s"] = std::to_string(seconds_since(tg));
  part_ = spec.best_spmttkrp;
  copt_.rank = kRank;
  copt_.max_iterations = kIters;
  copt_.fit_tolerance = 0.0;
  copt_.part = part_;
  copt_.seed = derive_seed(opt_.seed, kInitSeed);
  kopt_.shard.num_devices = sharded_ ? 2 : 1;

  for (int s = 0; s < kSetups; ++s) build_setup();
  report_.metrics["setup_s"] = median(report_.samples["setup_s"]);
  report_.metrics["pipeline.plan_build_s"] = median(report_.samples["pipeline.plan_build_s"]);
  report_.metrics["pipeline.plan_mb"] =
      static_cast<double>(setup_.engine->stats().cache_total.bytes_in_use) / 1e6;

  verify();
  steady_phase();
  if (opt_.trace) {
    reference_rows();
    traced_pass();
  }
  report_.metrics["rss_mb"] = peak_rss_mb();
}

}  // namespace

void run_cp(const RunOptions& opt, bool sharded, Report& report) {
  CpWorkload(opt, sharded, report).run();
}

}  // namespace perfbench
