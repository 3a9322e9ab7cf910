// Streaming pipeline benchmark (DESIGN.md §9): (a) chunked F-COO execution
// vs the monolithic single-shot plan -- the cost of bounded device memory --
// and (b) plan-cached vs cold CP-ALS invocations -- what the engine's LRU
// PlanCache buys when solvers re-run on the same tensor (per-mode plans
// become cache hits and iterations skip F-COO construction/upload entirely).
// Cache accounting comes from the aggregated Engine::stats() report.
#include <cstdio>

#include "bench_common.hpp"
#include "core/cp_als.hpp"
#include "core/spmttkrp.hpp"
#include "engine/engine.hpp"
#include "pipeline/chunker.hpp"

using namespace ust;

int main(int argc, char** argv) {
  Cli cli = bench::make_bench_cli("bench_pipeline",
                                  "streaming pipeline: chunked execution + plan cache");
  cli.option("iters", "2", "CP-ALS iterations per invocation (cold vs cached)");
  cli.option("chunks", "6", "target number of stream chunks for the chunked run");
  if (!cli.parse(argc, argv)) return 1;
  sim::Device dev;
  bench::print_platform(dev.props());

  const auto rank = static_cast<index_t>(cli.get_int("rank"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  const auto datasets = bench::load_from_cli(cli);
  bench::JsonResults json("bench_pipeline");

  print_banner("Chunked (streaming) vs monolithic SpMTTKRP, native backend");
  Table t1({"dataset", "monolithic (ms)", "streamed (ms)", "chunks", "overhead"});
  for (const auto& d : datasets) {
    const Partitioning part = d.spec.best_spmttkrp;
    const auto factors = bench::make_factors(d.tensor, rank);
    engine::Engine eng(dev);

    // Pick a chunk cap that yields roughly --chunks stream chunks, aligned
    // to the partitioning (the chunker aligns the grid to threadlen).
    const nnz_t target_chunks = std::max<nnz_t>(1, cli.get_int("chunks"));
    const nnz_t cap = round_up<nnz_t>(
        std::max<nnz_t>(part.threadlen, d.tensor.nnz() / target_chunks), part.threadlen);
    core::StreamingOptions stream{.enabled = true, .chunk_nnz = cap};
    stream.chunk_bytes = cap * pipeline::plan_bytes_per_nnz(2);

    core::UnifiedMttkrp mono_op(eng, d.tensor, 0, part);
    core::UnifiedMttkrp stream_op(eng, d.tensor, 0, part, stream);
    // Mirror the streamed worker grid in the monolithic run so the two
    // differ only in plan residency / pipelining, not accumulation shape.
    const core::UnifiedOptions mono_opt{.chunk_nnz = cap};

    const double mono_s =
        bench::time_median([&] { mono_op.run(factors, mono_opt); }, reps);
    const double stream_s = bench::time_median([&] { stream_op.run(factors); }, reps);
    const auto grid = core::native::make_chunks(d.tensor.nnz(), part.threadlen, cap);
    const double overhead = mono_s > 0.0 ? stream_s / mono_s : 0.0;
    t1.add_row({d.name, Table::num(mono_s * 1e3, 3), Table::num(stream_s * 1e3, 3),
                std::to_string(grid.size()), Table::num(overhead, 2) + "x"});
    json.add(d.name + ".mttkrp_monolithic_s", mono_s);
    json.add(d.name + ".mttkrp_streamed_s", stream_s);
    json.add(d.name + ".stream_worker_chunks", static_cast<double>(grid.size()));
    json.add(d.name + ".streaming_overhead_x", overhead);
  }
  t1.print();
  std::printf(
      "streamed runs hold only one chunk plan (plus the in-flight build) on the\n"
      "device; overhead near 1x means chunking is effectively free at this scale.\n");

  print_banner("Plan-cached vs cold CP-ALS (per-iteration seconds)");
  Table t2({"dataset", "cold iter (ms)", "cached iter (ms)", "speedup", "hits/misses"});
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
    t2.add_row({d.name, Table::num(cold_iter * 1e3, 3), Table::num(warm_iter * 1e3, 3),
                Table::num(speedup, 2) + "x",
                std::to_string(stats.cache_total.hits) + "/" +
                    std::to_string(stats.cache_total.misses)});
    json.add(d.name + ".cp_cold_iter_s", cold_iter);
    json.add(d.name + ".cp_cached_iter_s", warm_iter);
    json.add(d.name + ".cp_cached_speedup", speedup);
    json.add(d.name + ".plan_cache_hits", static_cast<double>(stats.cache_total.hits));
    json.add(d.name + ".plan_cache_misses", static_cast<double>(stats.cache_total.misses));
  }
  t2.print();
  std::printf(
      "cold invocations pay per-mode F-COO construction (sort + coalesce + upload)\n"
      "before iterating; cached invocations fetch all per-mode plans from the\n"
      "engine's LRU cache, so iterations >= 2 of a repeated solve skip plan\n"
      "construction entirely (counters from Engine::stats).\n");
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
