// Multi-device sharded execution benchmark (DESIGN.md §10): SpMTTKRP on a
// synthetic tensor with deliberately imbalanced segment structure (a region
// of one-non-zero segments followed by a few giant segments), across 1 / 2 /
// 4 simulated devices and both shard balance policies. Each configuration
// reports the median wall-clock time of the whole run_sharded call (shard
// split, cached shard plans, the devices' runs one after another on this
// host, merge and boundary fold): what a caller waits for. The bench claims
// no threshold.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/spmttkrp.hpp"
#include "engine/engine.hpp"
#include "shard/shard_executor.hpp"

using namespace ust;

namespace {

/// `tiny` rows of one non-zero each (segment-per-nnz region), then `giant`
/// rows of `giant_len` non-zeros each. Mode-0 MTTKRP segments == rows, so
/// segment lengths are exactly this profile.
CooTensor make_skewed(index_t tiny, index_t giant, index_t giant_len, std::uint64_t seed) {
  CooTensor t({tiny + giant, giant_len, 2});
  Prng rng(seed);
  for (index_t i = 0; i < tiny; ++i) {
    const index_t idx[3] = {i, static_cast<index_t>(rng.next_index(giant_len)),
                            static_cast<index_t>(i % 2)};
    t.push_back(idx, rng.next_float(0.5f, 1.5f));
  }
  for (index_t g = 0; g < giant; ++g) {
    for (index_t j = 0; j < giant_len; ++j) {
      const index_t idx[3] = {tiny + g, j, static_cast<index_t>(j % 2)};
      t.push_back(idx, rng.next_float(0.5f, 1.5f));
    }
  }
  return t;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

const char* balance_name(core::ShardBalance b) {
  return b == core::ShardBalance::kNnz ? "nnz" : "segments";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_shard",
          "multi-device sharded SpMTTKRP: wall clock across 1/2/4 devices");
  cli.option("tiny", "70000", "one-non-zero segments in the skewed region");
  cli.option("giant", "20", "giant segments");
  cli.option("giant-len", "1000", "non-zeros per giant segment");
  cli.option("rank", "16", "dense factor columns");
  cli.option("reps", "3", "timed repetitions per configuration");
  cli.option("num-devices", "4", "largest simulated device count (sweeps 1,2,..,max)");
  cli.option("json", "", "also write results to this path as a BENCH_*.json file");
  if (!cli.parse(argc, argv)) return 1;

  sim::Device dev;
  bench::print_platform(dev.props());

  const auto tiny = static_cast<index_t>(cli.get_int("tiny"));
  const auto giant = static_cast<index_t>(cli.get_int("giant"));
  const auto giant_len = static_cast<index_t>(cli.get_int("giant-len"));
  const auto rank = static_cast<index_t>(cli.get_int("rank"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  const unsigned max_devices = static_cast<unsigned>(std::max(1l, cli.get_int("num-devices")));

  const CooTensor t = make_skewed(tiny, giant, giant_len, 2024);
  std::printf("skewed tensor: %s (%u one-nnz segments + %u x %u giant segments)\n",
              t.describe().c_str(), tiny, giant, giant_len);
  const auto factors = bench::make_factors(t, rank);
  const Partitioning part{.threadlen = 8, .block_size = 128};
  // A worker grid of ~64 chunks gives the sharder boundary granularity well
  // below the per-device share at every swept device count.
  const nnz_t cap = round_up<nnz_t>(std::max<nnz_t>(part.threadlen, t.nnz() / 64),
                                    part.threadlen);

  std::vector<unsigned> device_counts;
  for (unsigned d = 1; d <= max_devices; d *= 2) device_counts.push_back(d);

  // One engine owns the device group + per-device shard-plan caches across
  // the whole sweep (they used to be per-op state, rebuilt per device count).
  engine::Engine eng(dev);
  core::UnifiedMttkrp op(eng, t, 0, part);
  DenseMatrix out(t.dim(0), rank);
  bench::JsonResults json("bench_shard");

  struct Row {
    double wall_s = 0.0;  // median of the whole run_sharded call
    nnz_t max_nnz = 0;
    nnz_t max_segs = 0;
  };
  const auto measure = [&](unsigned devices, core::ShardBalance balance) {
    core::UnifiedOptions opt;
    opt.chunk_nnz = cap;
    opt.shard = core::ShardOptions{.num_devices = devices, .balance = balance};
    shard::Report report;
    op.run_sharded(factors, out, opt, &report);  // warmup: builds shard plans
    std::vector<double> walls;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      op.run_sharded(factors, out, opt, &report);
      walls.push_back(timer.seconds());
    }
    Row row{.wall_s = median(std::move(walls))};
    for (const shard::DeviceReport& d : report.devices) {
      row.max_nnz = std::max(row.max_nnz, d.nnz);
      row.max_segs = std::max(row.max_segs, d.segments);
    }
    return row;
  };
  // One device runs one shard whatever the balance policy, so the baseline
  // is timed once and both policies' speedups divide the same times.
  const Row base = measure(1, core::ShardBalance::kNnz);
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  print_banner("Sharded SpMTTKRP: wall clock (skewed tensor)");
  Table table({"balance", "devices", "wall (ms)", "wall speedup", "max-dev nnz",
               "max-dev segments"});
  const auto add = [&](const std::string& balance, unsigned devices, const Row& row) {
    const double wall_speedup = ratio(base.wall_s, row.wall_s);
    table.add_row({balance, std::to_string(devices), Table::num(row.wall_s * 1e3, 3),
                   Table::num(wall_speedup, 2) + "x", std::to_string(row.max_nnz),
                   std::to_string(row.max_segs)});
    const std::string prefix =
        "shard." + (devices == 1 ? std::string() : balance + ".") + std::to_string(devices) + "dev";
    json.add(prefix + ".wall_s", row.wall_s);
    json.add(prefix + ".wall_speedup_vs_1dev", wall_speedup);
    json.add(prefix + ".max_device_nnz", static_cast<double>(row.max_nnz));
    json.add(prefix + ".max_device_segments", static_cast<double>(row.max_segs));
  };
  add("any", 1, base);
  for (const core::ShardBalance balance :
       {core::ShardBalance::kNnz, core::ShardBalance::kSegments}) {
    for (const unsigned devices : device_counts) {
      if (devices > 1) add(balance_name(balance), devices, measure(devices, balance));
    }
  }
  table.print();
  std::printf(
      "wall = median of the whole run_sharded call; the devices run one after\n"
      "another on this host. Segment balancing splits the one-nnz-segment region\n"
      "across devices, which raw nnz splitting underweights (Nisa et al.;\n"
      "Wijeratne et al.).\n");

  // Shard-plan cache accounting, aggregated by the engine (warmup runs miss,
  // every timed repetition hits the per-device caches).
  const engine::EngineStats stats = eng.stats();
  print_banner("Per-device shard-plan caches (Engine::stats)");
  Table cache_table({"device", "hits", "misses", "evictions", "entries", "MB in use"});
  for (const auto& ds : stats.devices) {
    cache_table.add_row({std::to_string(ds.ordinal), std::to_string(ds.cache.hits),
                         std::to_string(ds.cache.misses),
                         std::to_string(ds.cache.evictions),
                         std::to_string(ds.cache.entries),
                         Table::num(static_cast<double>(ds.cache.bytes_in_use) / (1 << 20), 2)});
  }
  cache_table.print();
  json.add("shard.plan_cache_hits", static_cast<double>(stats.cache_total.hits));
  json.add("shard.plan_cache_misses", static_cast<double>(stats.cache_total.misses));
  json.add("shard.plan_cache_entries", static_cast<double>(stats.cache_total.entries));
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
