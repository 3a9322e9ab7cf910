// Plan-cache benchmark (DESIGN.md §9): plan-cached vs cold CP-ALS
// invocations -- what the engine's LRU PlanCache buys when solvers re-run on
// the same tensor (per-mode plans become cache hits and iterations skip
// F-COO construction/upload entirely). Cache accounting comes from the
// aggregated Engine::stats() report.
#include <cstdio>

#include "bench_common.hpp"
#include "core/cp_als.hpp"
#include "engine/engine.hpp"

using namespace ust;

int main(int argc, char** argv) {
  Cli cli = bench::make_bench_cli("bench_pipeline", "plan cache: cold vs cached CP-ALS");
  cli.option("iters", "2", "CP-ALS iterations per invocation (cold vs cached)");
  if (!cli.parse(argc, argv)) return 1;
  sim::Device dev;
  bench::print_platform(dev.props());

  const auto rank = static_cast<index_t>(cli.get_int("rank"));
  const auto datasets = bench::load_from_cli(cli);
  bench::JsonResults json("bench_pipeline");

  print_banner("Plan-cached vs cold CP-ALS (per-iteration seconds)");
  Table table({"dataset", "cold iter (ms)", "cached iter (ms)", "speedup", "hits/misses"});
  for (const auto& d : datasets) {
    core::CpOptions opt;
    opt.rank = std::min<index_t>(rank, 8);
    opt.max_iterations = static_cast<int>(cli.get_int("iters"));
    opt.fit_tolerance = 0.0;  // run all iterations for stable timing
    opt.part = d.spec.best_spmttkrp;
    opt.kernel = bench::kernel_options(cli);
    opt.seed = 77;

    // One engine per dataset: its primary plan cache is what the repeated
    // solve hits (no external cache to wire through any more).
    engine::Engine eng(dev, engine::EngineOptions{.cache_bytes_per_device = 512u << 20});

    // Cold: every per-mode plan is a miss (fingerprint + sort + upload).
    Timer cold_timer;
    const auto cold = core::cp_als_unified(eng, d.tensor, opt);
    const double cold_s = cold_timer.seconds();
    // Cached: same tensor, same partitioning -- all modes hit the cache.
    Timer warm_timer;
    const auto warm = core::cp_als_unified(eng, d.tensor, opt);
    const double warm_s = warm_timer.seconds();

    const double cold_iter = cold_s / std::max(1, cold.iterations);
    const double warm_iter = warm_s / std::max(1, warm.iterations);
    const double speedup = warm_iter > 0.0 ? cold_iter / warm_iter : 0.0;
    const engine::EngineStats stats = eng.stats();
    table.add_row({d.name, Table::num(cold_iter * 1e3, 3), Table::num(warm_iter * 1e3, 3),
                   Table::num(speedup, 2) + "x",
                   std::to_string(stats.cache_total.hits) + "/" +
                       std::to_string(stats.cache_total.misses)});
    json.add(d.name + ".cp_cold_iter_s", cold_iter);
    json.add(d.name + ".cp_cached_iter_s", warm_iter);
    json.add(d.name + ".cp_cached_speedup", speedup);
    json.add(d.name + ".plan_cache_hits", static_cast<double>(stats.cache_total.hits));
    json.add(d.name + ".plan_cache_misses", static_cast<double>(stats.cache_total.misses));
  }
  table.print();
  std::printf(
      "cold invocations pay per-mode F-COO construction (sort + coalesce + upload)\n"
      "before iterating; cached invocations fetch all per-mode plans from the\n"
      "engine's LRU cache, so iterations >= 2 of a repeated solve skip plan\n"
      "construction entirely (counters from Engine::stats).\n");
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
