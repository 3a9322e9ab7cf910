// Scheduler benchmark (DESIGN.md §15): the latency-class queue-jump win
// under batch backlog.
//
// A 1-device engine is loaded with a batch backlog, then probe jobs are
// submitted behind it -- once as kBatch, once as kLatency. The probes'
// in-engine latency (JobRecord wait_s + exec_s) p99 must improve >= 2x when
// classed: latency jobs jump the backlog (bounded by the aging rule, so the
// probe count stays <= engine::kLatencyMaxSkips here).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"

using namespace ust;

namespace {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto at = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(at, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_sched", "latency-class probes behind batch backlog");
  cli.option("dim", "220", "cube-ish tensor dimension");
  cli.option("nnz", "180000", "non-zeros of the HEAVY (backlog) jobs' tensor");
  cli.option("light-nnz", "15000", "non-zeros of the LIGHT (probe) jobs' tensor");
  cli.option("heavy-rank", "32", "factor rank of the heavy SpMTTKRP jobs");
  cli.option("backlog", "48", "batch jobs queued ahead of the latency probes");
  cli.option("probes", "4", "latency-class probe jobs (keep <= aging bound)");
  cli.option("json", "", "also write results to this path as a BENCH_*.json file");
  if (!cli.parse(argc, argv)) return 1;

  const auto dim = static_cast<index_t>(cli.get_int("dim"));
  const auto nnz = static_cast<nnz_t>(cli.get_int("nnz"));
  const auto light_nnz = static_cast<nnz_t>(cli.get_int("light-nnz"));
  const auto heavy_rank = static_cast<index_t>(cli.get_int("heavy-rank"));
  const int backlog = static_cast<int>(cli.get_int("backlog"));
  const int probes = static_cast<int>(cli.get_int("probes"));

  // Two tensors make the skew sharp (~30x per-job cost ratio): the backlog
  // is rank-32 SpMTTKRPs over the big tensor, the probes SpTTVs over the
  // small one, so a probe stuck behind the backlog waits visibly long.
  const CooTensor t =
      io::generate_zipf({dim, dim, std::max<index_t>(2, dim / 2)}, nnz, {0.9, 0.9, 0.9}, 4242);
  const CooTensor t_light = io::generate_zipf(
      {dim, dim, std::max<index_t>(2, dim / 2)}, light_nnz, {0.9, 0.9, 0.9}, 4243);
  const Partitioning part{.threadlen = 8, .block_size = 128};
  const auto factors = bench::make_factors(t, heavy_rank);
  std::vector<std::vector<value_t>> vecs;
  for (int m = 0; m < 3; ++m) {
    Prng rng(900 + static_cast<std::uint64_t>(m));
    std::vector<value_t> v(t_light.dim(m));
    for (auto& e : v) e = rng.next_float(0.1f, 1.0f);
    vecs.push_back(std::move(v));
  }

  // Latency-class probes behind a batch backlog, 1 device.
  auto run_probes = [&](bool classed) {
    engine::EngineOptions opt;
    opt.num_devices = 1;
    opt.max_batch = 1;
    opt.max_queued_jobs = static_cast<std::size_t>(backlog + probes + 8);
    engine::Engine eng(opt);
    core::UnifiedMttkrp mttkrp(eng, t, 0, part);
    core::UnifiedTtv ttv(eng, t_light, 0, part);
    eng.prewarm(*mttkrp.op_plan());
    eng.prewarm(*ttv.op_plan());

    std::vector<DenseMatrix> mat_outs;
    std::vector<std::vector<value_t>> vec_outs;
    mat_outs.reserve(static_cast<std::size_t>(backlog));
    vec_outs.reserve(static_cast<std::size_t>(probes));
    std::vector<std::future<void>> futures;
    std::vector<engine::JobRecord> records(static_cast<std::size_t>(probes));
    for (int j = 0; j < backlog; ++j) {
      mat_outs.emplace_back(t.dim(0), heavy_rank);
      futures.push_back(eng.submit(mttkrp.request(factors, mat_outs.back())));
    }
    for (int p = 0; p < probes; ++p) {
      vec_outs.emplace_back(t_light.dim(0));
      engine::OpRequest req = ttv.request(vecs, vec_outs.back());
      if (classed) req.service_class = engine::OpRequest::ServiceClass::kLatency;
      futures.push_back(eng.submit(req, &records[static_cast<std::size_t>(p)]));
    }
    for (auto& f : futures) f.get();

    std::vector<double> lat;
    lat.reserve(records.size());
    for (const auto& r : records) lat.push_back(r.wait_s + r.exec_s);
    return lat;
  };

  print_banner("Latency probes behind batch backlog (1 device)");
  const std::vector<double> unclassed = run_probes(/*classed=*/false);
  const std::vector<double> classed = run_probes(/*classed=*/true);
  const double p99_unclassed = quantile(unclassed, 0.99);
  const double p99_classed = quantile(classed, 0.99);
  const double latency_improvement =
      p99_classed > 0.0 ? p99_unclassed / p99_classed : 0.0;
  std::printf(
      "probe p99 in-engine latency: unclassed %.3f ms vs kLatency %.3f ms -> %.2fx\n",
      p99_unclassed * 1e3, p99_classed * 1e3, latency_improvement);

  bench::JsonResults json("bench_sched");
  json.add("sched.latency_p99_unclassed_s", p99_unclassed);
  json.add("sched.latency_p99_classed_s", p99_classed);
  json.add("sched.latency_p99_improvement", latency_improvement);
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
