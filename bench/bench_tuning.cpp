// Figure 5 / Table V reproduction: tuning threadlen x BLOCK_SIZE for
// SpMTTKRP on mode-1. Prints the full tuning surface for brainq and nell1
// (the two panels of Figure 5) and the best configuration per dataset
// (Table V), alongside the paper's published best.
#include <cstdio>

#include "bench_common.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/tuning.hpp"
#include "engine/engine.hpp"

using namespace ust;

namespace {

/// Chunk-size axis for the sweeps below: auto plus one fixed cap. The full
/// default_chunk_nnzs() grid triples the native sample count; two values are
/// enough to show whether capping the worker grid pays on a dataset.
const std::vector<nnz_t> kChunkAxis{0, 16384};

/// Rank-block axis for the sweeps below: auto (full-L1 tile) plus one narrow
/// cap. Like the chunk axis, two values keep the sample count in check while
/// showing whether tiling the accumulator pays on a dataset.
const std::vector<index_t> kRankBlockAxis{0, 32};

/// "(BLOCK_SIZE, threadlen)" label of a Table V cell, appended piecewise:
/// GCC 12 raises a false -Wrestrict on inlined `"(" + std::to_string(...)`.
std::string part_label(const Partitioning& p) {
  std::string label = "(";
  label += std::to_string(p.block_size);
  label += ", ";
  label += std::to_string(p.threadlen);
  label += ")";
  return label;
}

core::TuneResult tune_mttkrp(engine::Engine& eng, const CooTensor& t,
                             const std::vector<DenseMatrix>& factors,
                             const std::vector<unsigned>& threadlens,
                             const std::vector<unsigned>& blocks, int reps) {
  // The backend, the native worker-chunk cap, the shard device count and the
  // rank-block width join the search grid: every (threadlen, BLOCK_SIZE)
  // cell is measured on both backends (and per chunk cap / device count /
  // rank block on native) and the best sample records the winners. Tuning
  // runs against ONE engine: the device group and per-device plan caches
  // persist across cells, so sharded cells stop re-creating replica devices
  // and repeat visits to a partitioning fetch the plan from the engine cache
  // instead of re-sorting the tensor.
  return core::tune_backends(
      [&](Partitioning part, core::ExecBackend backend, nnz_t chunk, unsigned devices,
          index_t rank_block) {
        core::UnifiedMttkrp op(eng, t, 0, part);
        const core::UnifiedOptions opt{.backend = backend,
                                       .chunk_nnz = chunk,
                                       .rank_block = rank_block,
                                       .shard = {.num_devices = devices}};
        return bench::time_median([&] { op.run(factors, opt); }, reps);
      },
      threadlens, blocks, core::default_backends(), kChunkAxis,
      core::default_num_devices(), kRankBlockAxis);
}

core::TuneResult tune_spttm(engine::Engine& eng, const CooTensor& t, const DenseMatrix& u,
                            const std::vector<unsigned>& threadlens,
                            const std::vector<unsigned>& blocks, int reps) {
  return core::tune_backends(
      [&](Partitioning part, core::ExecBackend backend, nnz_t chunk) {
        core::UnifiedSpttm op(eng, t, 2, part);
        const core::UnifiedOptions opt{.backend = backend, .chunk_nnz = chunk};
        return bench::time_median([&] { op.run(u, opt); }, reps);
      },
      threadlens, blocks, core::default_backends(), kChunkAxis);
}

void print_surface(const core::TuneResult& r, const std::vector<unsigned>& threadlens,
                   const std::vector<unsigned>& blocks) {
  std::vector<std::string> header{"BLOCK_SIZE \\ threadlen"};
  for (unsigned tl : threadlens) header.push_back(std::to_string(tl));
  Table t(header);
  for (unsigned bs : blocks) {
    std::vector<std::string> row{std::to_string(bs)};
    for (unsigned tl : threadlens) {
      // Best time across backends for this (BLOCK_SIZE, threadlen) cell.
      std::string cell = "-";
      double best_cell = 0.0;
      for (const auto& s : r.samples) {
        if (s.part.block_size == bs && s.part.threadlen == tl &&
            (cell == "-" || s.seconds < best_cell)) {
          best_cell = s.seconds;
          cell = Table::num(s.seconds * 1e3, 2);
          cell += s.backend == core::ExecBackend::kNative ? "n" : "s";
        }
      }
      if (cell != "-" && bs == r.best.block_size && tl == r.best.threadlen) cell += "*";
      row.push_back(cell);
    }
    t.add_row(row);
  }
  t.print();
  std::printf(
      "cells are milliseconds (best across backends; n = native, s = sim won);\n"
      "* marks the best configuration.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli = bench::make_bench_cli("bench_tuning",
                                  "Figure 5 / Table V: threadlen x BLOCK_SIZE tuning");
  cli.flag("full", "sweep the paper's full 8x7 grid (default: a 4x4 subgrid)");
  if (!cli.parse(argc, argv)) return 1;
  sim::Device dev;
  engine::Engine eng(dev);
  bench::print_platform(dev.props());

  const auto rank = static_cast<index_t>(cli.get_int("rank"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  const bool full = cli.get_flag("full");
  const std::vector<unsigned> threadlens =
      full ? core::default_threadlens() : std::vector<unsigned>{8, 16, 32, 64};
  const std::vector<unsigned> blocks =
      full ? core::default_block_sizes() : std::vector<unsigned>{32, 128, 512, 1024};

  const auto datasets = bench::load_from_cli(cli);

  // Figure 5 panels: the tuning surface for brainq and nell1.
  for (const auto& d : datasets) {
    if (d.name != "brainq" && d.name != "nell1") continue;
    print_banner("Figure 5 (" + d.name + "): SpMTTKRP mode-1 tuning surface");
    const auto factors = bench::make_factors(d.tensor, rank);
    const auto r = tune_mttkrp(eng, d.tensor, factors, threadlens, blocks, reps);
    print_surface(r, threadlens, blocks);
    std::printf("paper best (BLOCK_SIZE, threadlen): %s\n",
                d.name == "brainq" ? "(128, 64)" : "(32, 16)");
  }

  // Table V: best configuration per dataset and operation (the backend is a
  // third axis of the search grid here).
  print_banner("Table V: best (BLOCK_SIZE, threadlen) per dataset");
  Table t({"dataset", "op", "best here", "backend", "best time (ms)", "paper best"});
  bench::JsonResults json("bench_tuning");
  for (const auto& d : datasets) {
    const auto factors = bench::make_factors(d.tensor, rank);
    {
      const auto r = tune_spttm(eng, d.tensor, factors[2], threadlens, blocks, reps);
      t.add_row({d.name, "SpTTM m3", part_label(r.best), core::backend_name(r.best_backend),
                 Table::num(r.best_seconds * 1e3, 2), part_label(d.spec.best_spttm)});
      json.add(d.name + ".spttm.best_s", r.best_seconds);
      json.add(d.name + ".spttm.best_backend", core::backend_name(r.best_backend));
      json.add(d.name + ".spttm.best_chunk_nnz", static_cast<double>(r.best_chunk_nnz));
    }
    {
      const auto r = tune_mttkrp(eng, d.tensor, factors, threadlens, blocks, reps);
      t.add_row({d.name, "SpMTTKRP m1", part_label(r.best),
                 core::backend_name(r.best_backend), Table::num(r.best_seconds * 1e3, 2),
                 part_label(d.spec.best_spmttkrp)});
      json.add(d.name + ".spmttkrp.best_s", r.best_seconds);
      json.add(d.name + ".spmttkrp.best_backend", core::backend_name(r.best_backend));
      json.add(d.name + ".spmttkrp.best_chunk_nnz", static_cast<double>(r.best_chunk_nnz));
      json.add(d.name + ".spmttkrp.best_num_devices", static_cast<double>(r.best_num_devices));
      json.add(d.name + ".spmttkrp.best_rank_block", static_cast<double>(r.best_rank_block));
    }
  }
  t.print();
  std::printf(
      "note: best configurations are hardware-specific (the paper tuned on a Titan X;\n"
      "this run tunes the simulator on the host CPU), so exact matches are not expected --\n"
      "the reproduced claim is that performance varies substantially across the grid\n"
      "and that per-dataset tuning pays off.\n");
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
