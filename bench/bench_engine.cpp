// Engine-layer benchmark (DESIGN.md §11): wall-clock time of CONCURRENT
// mixed-op submission against one Engine versus SEQUENTIAL execution of the
// same job list -- the first serving-shaped scenario. A job list cycling
// through all four unified operations is (a) executed one job after another
// with Engine::run() on device 0 and (b) submitted in one burst with
// Engine::submit(), which places each job by batch affinity or least load
// (DESIGN.md §15). Each is timed whole, as the median of --reps passes; the
// burst's per-device job counts and busy seconds come from Engine::stats()
// deltas. The devices timeshare one host CPU, so the speedup is whatever
// that host delivers; no threshold is claimed.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"

using namespace ust;

int main(int argc, char** argv) {
  Cli cli("bench_engine",
          "engine serving: concurrent mixed-op submission vs sequential runs");
  cli.option("dim", "260", "cube-ish tensor dimension");
  cli.option("nnz", "60000", "non-zeros of the synthetic tensor");
  cli.option("rank", "16", "dense factor columns for SpTTM/SpMTTKRP");
  cli.option("jobs", "24", "total jobs in the mixed list");
  cli.option("reps", "3", "timed passes of each side (median reported)");
  cli.option("num-devices", "2", "engine device-group size");
  cli.option("json", "", "also write results to this path as a BENCH_*.json file");
  if (!cli.parse(argc, argv)) return 1;

  const auto dim = static_cast<index_t>(cli.get_int("dim"));
  const auto nnz = static_cast<nnz_t>(cli.get_int("nnz"));
  const auto rank = static_cast<index_t>(cli.get_int("rank"));
  const int total_jobs = static_cast<int>(cli.get_int("jobs"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  const unsigned devices = static_cast<unsigned>(std::max(1l, cli.get_int("num-devices")));

  engine::Engine eng(engine::EngineOptions{.num_devices = devices});
  bench::print_platform(eng.device(0).props());

  const CooTensor t =
      io::generate_zipf({dim, dim, std::max<index_t>(2, dim / 2)}, nnz, {0.9, 0.9, 0.9}, 4242);
  std::printf("tensor: %s, %u devices, %d jobs\n", t.describe().c_str(), devices,
              total_jobs);
  const Partitioning part{.threadlen = 8, .block_size = 128};
  const auto factors = bench::make_factors(t, rank);
  const DenseMatrix u0 = bench::make_factors(t, 8, 77)[1];
  const DenseMatrix u1 = bench::make_factors(t, 8, 78)[2];
  std::vector<std::vector<value_t>> vecs;
  for (int m = 0; m < 3; ++m) {
    Prng rng(900 + static_cast<std::uint64_t>(m));
    std::vector<value_t> v(t.dim(m));
    for (auto& e : v) e = rng.next_float(0.1f, 1.0f);
    vecs.push_back(std::move(v));
  }

  // All four ops against ONE engine: shared device group, shared caches.
  core::UnifiedMttkrp mttkrp0(eng, t, 0, part);
  core::UnifiedMttkrp mttkrp1(eng, t, 1, part);
  core::UnifiedSpttm spttm(eng, t, 2, part);
  core::UnifiedTtmc ttmc(eng, t, 0, part);
  core::UnifiedTtv ttv(eng, t, 0, part);

  // Job list: an odd-length cycle of the five kinds, so a burst mixes
  // kinds on every device. Each entry builds a request bound to its own
  // output storage.
  std::vector<std::function<engine::OpRequest()>> jobs;
  std::vector<DenseMatrix> mat_outs;
  std::vector<SemiSparseTensor> ttm_outs;
  std::vector<std::vector<value_t>> vec_outs;
  mat_outs.reserve(static_cast<std::size_t>(total_jobs));
  ttm_outs.reserve(static_cast<std::size_t>(total_jobs));
  vec_outs.reserve(static_cast<std::size_t>(total_jobs));
  for (int j = 0; j < total_jobs; ++j) {
    switch (j % 5) {
      case 0:  // SpMTTKRP, mode 0
        mat_outs.emplace_back(t.dim(0), rank);
        jobs.push_back([&, out = &mat_outs.back()] { return mttkrp0.request(factors, *out); });
        break;
      case 1:  // SpTTM, mode 2
        ttm_outs.push_back(spttm.make_output(rank));
        jobs.push_back([&, out = &ttm_outs.back()] { return spttm.request(factors[2], *out); });
        break;
      case 2:  // SpMTTKRP, mode 1
        mat_outs.emplace_back(t.dim(1), rank);
        jobs.push_back([&, out = &mat_outs.back()] { return mttkrp1.request(factors, *out); });
        break;
      case 3:  // SpTTV, mode 0
        vec_outs.emplace_back(t.dim(0));
        jobs.push_back([&, out = &vec_outs.back()] { return ttv.request(vecs, *out); });
        break;
      default:  // SpTTMc, mode 0
        mat_outs.emplace_back(t.dim(0), u0.cols() * u1.cols());
        jobs.push_back([&, out = &mat_outs.back()] { return ttmc.request(u0, u1, *out); });
        break;
    }
  }

  // Replica plans built up front on every device, so the concurrent burst
  // measures steady-state serving, not first-touch uploads.
  for (const auto* p : {&mttkrp0.op_plan(), &mttkrp1.op_plan(), &spttm.op_plan(),
                        &ttmc.op_plan(), &ttv.op_plan()}) {
    eng.prewarm(**p);
  }

  print_banner("Sequential (Engine::run, device 0)");
  const double sequential_s = bench::time_median(
      [&] {
        for (const auto& make : jobs) eng.run(make());
      },
      reps);
  std::printf("sequential: %d jobs, %.3f ms\n", total_jobs, sequential_s * 1e3);

  print_banner("Concurrent burst (Engine::submit)");
  const engine::EngineStats before = eng.stats();
  int bursts = 0;
  const double wall_s = bench::time_median(
      [&] {
        std::vector<std::future<void>> futures;
        futures.reserve(jobs.size());
        for (const auto& make : jobs) futures.push_back(eng.submit(make()));
        for (auto& f : futures) f.get();
        ++bursts;
      },
      reps);
  const engine::EngineStats stats = eng.stats();
  const double speedup = wall_s > 0.0 ? sequential_s / wall_s : 0.0;

  // Per-device means over every burst run (the timed reps and the warmup).
  std::vector<double> device_jobs(devices), device_busy_s(devices);
  for (unsigned d = 0; d < devices; ++d) {
    device_jobs[d] =
        static_cast<double>(stats.devices[d].jobs - before.devices[d].jobs) / bursts;
    device_busy_s[d] = (stats.devices[d].busy_s - before.devices[d].busy_s) / bursts;
  }
  Table table({"device", "jobs per burst", "busy per burst (ms)"});
  for (unsigned d = 0; d < devices; ++d) {
    table.add_row({std::to_string(d), Table::num(device_jobs[d], 1),
                   Table::num(device_busy_s[d] * 1e3, 3)});
  }
  table.print();
  std::printf("concurrent burst %.3f ms vs sequential %.3f ms -> %.2fx (wall-clock medians)\n",
              wall_s * 1e3, sequential_s * 1e3, speedup);
  std::printf(
      "plan caches: %llu hits / %llu misses across %zu devices (aggregated by "
      "Engine::stats)\n",
      static_cast<unsigned long long>(stats.cache_total.hits),
      static_cast<unsigned long long>(stats.cache_total.misses), stats.devices.size());

  bench::JsonResults json("bench_engine");
  json.add("engine.devices", static_cast<double>(devices));
  json.add("engine.jobs", static_cast<double>(total_jobs));
  json.add("engine.sequential_wall_s", sequential_s);
  json.add("engine.concurrent_wall_s", wall_s);
  json.add("engine.concurrent_wall_speedup", speedup);
  json.add("engine.plan_cache_hits", static_cast<double>(stats.cache_total.hits));
  json.add("engine.plan_cache_misses", static_cast<double>(stats.cache_total.misses));
  json.add("engine.jobs_completed", static_cast<double>(stats.jobs_completed));
  for (unsigned d = 0; d < devices; ++d) {
    const std::string prefix = "engine.device" + std::to_string(d);
    json.add(prefix + ".jobs", device_jobs[d]);
    json.add(prefix + ".busy_s", device_busy_s[d]);
  }
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
