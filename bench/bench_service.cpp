// Service-layer benchmark (DESIGN.md §12): end-to-end latency and throughput
// of the TCP front-end under concurrent mixed-op load, on the loopback
// interface against an in-process server. The loadgen verifies every
// response byte-for-byte against a local engine, so the headline guarantees
// tracked by CI (BENCH_service.json) are:
//   * zero lost and zero corrupt responses under >= 32 concurrent
//     connections of mixed SpTTM/SpMTTKRP/SpTTMc/SpTTV traffic, and
//   * the queue-full retry path closes: every admission rejection surfaced
//     as a retryable response is eventually served (ok == requests).
// Latency percentiles (p50/p99) and request throughput are recorded for
// trend diffing; absolute values are loopback-machine-dependent.
//
// A second experiment measures request batching (DESIGN.md §13): a
// same-plan multi-tenant burst is replayed against a batching-on server
// (engine max_batch 8) and a batching-off server (max_batch 1);
// batch_speedup is the throughput ratio. A third forced-scalar replay yields the service-level
// simd_speedup. Both phases keep full byte-for-byte verification -- a
// fused or vectorized response that diverges from the sequential scalar
// truth counts corrupt and fails the smoke.
#include <cstdio>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "obs/trace.hpp"
#include "service/loadgen.hpp"
#include "service/server.hpp"

using namespace ust;

namespace {

struct BurstResult {
  service::LoadgenReport report;
  engine::EngineStats engine_stats;
};

/// One same-plan burst against a fresh engine + server with the given
/// max_batch. Fresh instances per phase keep the counters and plan caches
/// phase-local.
BurstResult run_burst(const service::LoadgenOptions& base, std::size_t max_batch,
                      std::size_t queue) {
  engine::EngineOptions eopt;
  eopt.num_devices = 1;
  eopt.max_queued_jobs = queue;
  eopt.max_batch = max_batch;
  engine::Engine eng(eopt);
  service::TensorOpServer server(eng);
  server.start();
  service::LoadgenOptions lopt = base;
  lopt.port = server.port();
  lopt.same_plan = true;
  BurstResult r;
  r.report = service::run_loadgen(lopt);
  server.stop();
  r.engine_stats = eng.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_service", "TCP service latency/throughput on loopback");
  cli.option("connections", "32", "concurrent client connections (one tenant each)");
  cli.option("requests", "24", "run-op requests per connection");
  cli.option("rank", "8", "factor rank of the generated traffic");
  cli.option("nnz", "20000", "non-zeros of the synthetic tensor");
  cli.option("devices", "2", "engine device-group size behind the server");
  cli.option("queue", "8",
             "bounded engine queue depth -- small enough that the burst phase "
             "exercises kQueueFull rejections and the retry path");
  cli.option("burst-connections", "16",
             "concurrent connections of the same-plan batching burst");
  cli.option("burst-requests", "32",
             "run-op requests per burst connection -- enough to amortize each "
             "tenant's one-time tensor upload, which is identical across the "
             "batching-on/off phases and would otherwise dilute the ratio");
  cli.option("burst-nnz", "300000",
             "non-zeros of the burst tensor -- large enough that kernel time "
             "dominates per-request protocol cost");
  cli.option("burst-rank", "16",
             "factor rank of the burst traffic -- at rank 16 the fused "
             "multi-request dispatch (one axpy2b per non-zero) has a full "
             "vector register per request tile and the batch's tiles still "
             "fit L1");
  cli.option("json", "", "also write results to this path as a BENCH_*.json file");
  cli.option("trace", "",
             "trace the mixed-op phase and write Chrome trace-event JSON here "
             "(loadable in Perfetto; DESIGN.md §14)");
  if (!cli.parse(argc, argv)) return 1;

  engine::EngineOptions eopt;
  eopt.num_devices = static_cast<unsigned>(std::max(1l, cli.get_int("devices")));
  eopt.max_queued_jobs = static_cast<std::size_t>(std::max(1l, cli.get_int("queue")));
  engine::Engine engine(eopt);
  bench::print_platform(engine.device(0).props());

  service::TensorOpServer server(engine);
  server.start();

  service::LoadgenOptions lopt;
  lopt.port = server.port();
  lopt.connections = static_cast<int>(std::max(1l, cli.get_int("connections")));
  lopt.requests_per_connection = static_cast<int>(std::max(1l, cli.get_int("requests")));
  lopt.rank = static_cast<index_t>(std::max(1l, cli.get_int("rank")));
  lopt.nnz = static_cast<nnz_t>(std::max(1l, cli.get_int("nnz")));

  std::printf("bench_service: %d connections x %d requests, queue depth %zu\n",
              lopt.connections, lopt.requests_per_connection, eopt.max_queued_jobs);
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) obs::set_tracing(true);
  const service::LoadgenReport r = service::run_loadgen(lopt);
  server.stop();
  if (!trace_path.empty()) {
    obs::set_tracing(false);
    const std::string json_text = obs::chrome_trace_json();
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      std::fwrite(json_text.data(), 1, json_text.size(), f);
      std::fclose(f);
      const obs::TraceStats ts = obs::trace_stats();
      std::printf("trace: %llu spans (%llu dropped) from %zu threads -> %s\n",
                  static_cast<unsigned long long>(ts.recorded),
                  static_cast<unsigned long long>(ts.dropped), ts.threads,
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "bench_service: cannot write %s\n", trace_path.c_str());
    }
  }

  const service::ServerStats ss = server.stats();
  print_banner("Service results");
  Table t({"metric", "value"});
  t.add_row({"requests", std::to_string(r.requests)});
  t.add_row({"verified ok", std::to_string(r.ok)});
  t.add_row({"corrupt", std::to_string(r.corrupt)});
  t.add_row({"lost", std::to_string(r.lost)});
  t.add_row({"queue-full responses (pre-retry)", std::to_string(r.queue_full)});
  t.add_row({"throughput (req/s)", Table::num(r.throughput_rps, 1)});
  t.add_row({"p50 latency (us)", Table::num(r.percentile_us(50), 0)});
  t.add_row({"p99 latency (us)", Table::num(r.percentile_us(99), 0)});
  t.add_row({"server bytes rx", std::to_string(ss.bytes_rx)});
  t.add_row({"server bytes tx", std::to_string(ss.bytes_tx)});
  t.print();

  const bool clean = r.corrupt == 0 && r.lost == 0 && r.ok == r.requests;
  std::printf("zero-loss check: %s (ok=%llu of %llu, %llu queue-full retried)\n",
              clean ? "PASS" : "FAIL", static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.queue_full));

  // --- same-plan burst: batching on vs off vs forced-scalar -------------
  print_banner("Same-plan burst: request batching (DESIGN.md §13)");
  service::LoadgenOptions burst;
  burst.connections = static_cast<int>(std::max(1l, cli.get_int("burst-connections")));
  burst.requests_per_connection =
      static_cast<int>(std::max(1l, cli.get_int("burst-requests")));
  burst.rank = static_cast<index_t>(std::max(1l, cli.get_int("burst-rank")));
  burst.nnz = static_cast<nnz_t>(std::max(1l, cli.get_int("burst-nnz")));
  const std::size_t burst_queue = 64;

  const BurstResult on = run_burst(burst, /*max_batch=*/8, burst_queue);
  const BurstResult off = run_burst(burst, /*max_batch=*/1, burst_queue);
  BurstResult scalar_off;
  {
    core::simd::ScopedLevel forced(core::simd::Level::kScalar);
    scalar_off = run_burst(burst, /*max_batch=*/1, burst_queue);
  }
  const double batch_speedup = off.report.throughput_rps > 0
                                   ? on.report.throughput_rps / off.report.throughput_rps
                                   : 0.0;
  const double simd_speedup = scalar_off.report.throughput_rps > 0
                                  ? off.report.throughput_rps / scalar_off.report.throughput_rps
                                  : 0.0;
  Table bt({"phase", "req/s", "p99 (us)", "batches", "jobs batched"});
  bt.add_row({"batching on", Table::num(on.report.throughput_rps, 1),
              Table::num(on.report.percentile_us(99), 0),
              std::to_string(on.engine_stats.batches_formed),
              std::to_string(on.engine_stats.jobs_batched)});
  bt.add_row({"batching off", Table::num(off.report.throughput_rps, 1),
              Table::num(off.report.percentile_us(99), 0),
              std::to_string(off.engine_stats.batches_formed),
              std::to_string(off.engine_stats.jobs_batched)});
  bt.add_row({"off + forced scalar", Table::num(scalar_off.report.throughput_rps, 1),
              Table::num(scalar_off.report.percentile_us(99), 0), "0", "0"});
  bt.print();
  std::printf("batch_speedup %.2fx, service simd_speedup %.2fx\n", batch_speedup,
              simd_speedup);

  const auto burst_clean = [](const BurstResult& b) {
    return b.report.corrupt == 0 && b.report.lost == 0 && b.report.ok == b.report.requests;
  };
  const bool all_clean =
      clean && burst_clean(on) && burst_clean(off) && burst_clean(scalar_off);

  bench::JsonResults json("service");
  json.add("connections", static_cast<double>(lopt.connections));
  json.add("requests", static_cast<double>(r.requests));
  json.add("ok", static_cast<double>(r.ok));
  json.add("corrupt", static_cast<double>(r.corrupt));
  json.add("lost", static_cast<double>(r.lost));
  json.add("queue_full_responses", static_cast<double>(r.queue_full));
  json.add("throughput_rps", r.throughput_rps);
  json.add("p50_us", r.percentile_us(50));
  json.add("p90_us", r.percentile_us(90));
  json.add("p99_us", r.percentile_us(99));
  json.add("p_max_us", r.max_us());
  json.add("wall_s", r.wall_s);
  json.add("zero_loss", all_clean ? "true" : "false");
  json.add("burst_rps_batching_on", on.report.throughput_rps);
  json.add("burst_rps_batching_off", off.report.throughput_rps);
  json.add("burst_rps_forced_scalar", scalar_off.report.throughput_rps);
  json.add("burst_batches_formed", static_cast<double>(on.engine_stats.batches_formed));
  json.add("burst_jobs_batched", static_cast<double>(on.engine_stats.jobs_batched));
  json.add("batch_speedup", batch_speedup);
  json.add("simd_speedup", simd_speedup);
  if (!json.write(cli.get("json"))) return 1;
  return all_clean ? 0 : 1;
}
