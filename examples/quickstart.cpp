// Quickstart: the 60-second tour of the UST public API.
//
//   1. build (or load) a sparse tensor in COO form,
//   2. inspect its F-COO encoding for an operation,
//   3. create an Engine (the execution context every op runs through) and
//      run unified SpTTM and SpMTTKRP (native backend by default;
//      --backend sim runs the GPU execution-model simulator),
//   4. submit a concurrent mixed-op burst to the engine,
//   5. factorise the tensor with CP-ALS.
//
// Run:  ./examples/quickstart [--tns file.tns] [--backend native|sim]
#include <cstdio>
#include <future>

#include "core/cp_als.hpp"
#include "core/mode_plan.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "io/tns.hpp"
#include "util/cli.hpp"

using namespace ust;

int main(int argc, char** argv) {
  Cli cli("quickstart", "UST quickstart tour");
  cli.option("tns", "", "optional FROSTT .tns file to load instead of a synthetic tensor");
  cli.option("backend", "native",
             "unified kernel execution backend: 'native' (thread-pool fast path) or "
             "'sim' (GPU execution-model simulator)");
  if (!cli.parse(argc, argv)) return 1;
  core::UnifiedOptions kernel_opt;
  if (const std::string b = cli.get("backend"); b == "sim") {
    kernel_opt.backend = core::ExecBackend::kSim;
  } else if (b != "native") {
    std::fprintf(stderr, "warning: unknown --backend '%s', using native\n", b.c_str());
  }

  // --- 1. A sparse tensor ---------------------------------------------------
  CooTensor x;
  if (const std::string path = cli.get("tns"); !path.empty()) {
    x = io::read_tns_file(path);
  } else {
    // 200 x 150 x 100 tensor, ~50k non-zeros with skewed index popularity.
    x = io::generate_zipf({200, 150, 100}, 50'000, {0.9, 0.9, 0.9}, /*seed=*/42);
  }
  std::printf("tensor: %s\n", x.describe().c_str());

  // --- 2. The F-COO encoding ------------------------------------------------
  // Mode classification follows the paper's Table I: for SpMTTKRP on mode-1,
  // modes 2 and 3 are product modes (indices stored) and mode 1 is the index
  // mode (compressed to one bit per non-zero).
  const core::ModePlan plan = core::make_mode_plan_spmttkrp(x.order(), 0);
  std::printf("mode plan: %s\n", plan.describe().c_str());
  const FcooTensor fcoo = FcooTensor::build(x, plan.index_modes, plan.product_modes);
  std::printf("F-COO: %llu segments, %.2f bytes/nnz vs COO's %.2f bytes/nnz\n",
              static_cast<unsigned long long>(fcoo.num_segments()),
              static_cast<double>(fcoo.paper_storage_bytes(8)) / static_cast<double>(fcoo.nnz()),
              static_cast<double>(x.storage_bytes()) / static_cast<double>(x.nnz()));

  // --- 3. An engine and the unified kernels ---------------------------------
  // The Engine owns the execution resources: the simulated device group (here
  // 2 devices, each a 12 GB Titan-X-like simulator on the CPU), one plan
  // cache per device, and the job-submission machinery. Every op front-end
  // built on it shares those resources.
  engine::Engine eng(engine::EngineOptions{.num_devices = 2});
  const index_t rank = 16;
  Prng rng(7);
  DenseMatrix u(x.dim(2), rank);
  u.fill_random(rng);

  core::UnifiedSpttm spttm(eng, x, /*mode=*/2, Partitioning{});
  const SemiSparseTensor y = spttm.run(u, kernel_opt);
  std::printf("SpTTM mode-3: %llu dense fibers of length %u\n",
              static_cast<unsigned long long>(y.num_fibers()), y.dense_length());

  std::vector<DenseMatrix> factors;
  for (int m = 0; m < x.order(); ++m) {
    DenseMatrix f(x.dim(m), rank);
    f.fill_random(rng);
    factors.push_back(std::move(f));
  }
  core::UnifiedMttkrp mttkrp(eng, x, /*mode=*/0, Partitioning{});
  const DenseMatrix m1 = mttkrp.run(factors, kernel_opt);
  std::printf("SpMTTKRP mode-1: %u x %u output, device peak %.1f MB, %llu atomic ops\n",
              m1.rows(), m1.cols(),
              static_cast<double>(eng.device(0).peak_bytes()) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(eng.device(0).counters().atomic_ops));

  // --- 4. Concurrent submission ---------------------------------------------
  // submit() places jobs on the least-loaded device of the group and returns
  // futures; results are bitwise identical to the sequential runs above. It
  // takes native single-device jobs only. This is the serving path: N
  // clients, one engine.
  if (kernel_opt.backend == core::ExecBackend::kNative) {
    eng.prewarm(*mttkrp.op_plan());
    std::vector<DenseMatrix> outs(4, DenseMatrix(x.dim(0), rank));
    std::vector<std::future<void>> futures;
    for (auto& out : outs) futures.push_back(eng.submit(mttkrp.request(factors, out)));
    for (auto& f : futures) f.get();
    const engine::EngineStats stats = eng.stats();
    std::printf("submitted %llu jobs across %zu devices (%llu plan-cache hits)\n",
                static_cast<unsigned long long>(stats.jobs_completed),
                stats.devices.size(),
                static_cast<unsigned long long>(stats.cache_total.hits));
  }

  // --- 5. CP decomposition --------------------------------------------------
  core::CpOptions opt;
  opt.rank = 8;
  opt.max_iterations = 10;
  opt.kernel = kernel_opt;
  const core::CpResult cp = core::cp_als_unified(eng, x, opt);
  std::printf("CP-ALS: fit %.4f after %d iterations (%s); lambda[0] = %.3f\n", cp.fit,
              cp.iterations, cp.converged ? "converged" : "iteration cap", cp.lambda[0]);
  std::printf("per-mode MTTKRP seconds:");
  for (double s : cp.timings.mttkrp_seconds) std::printf(" %.4f", s);
  std::printf("  (balanced across modes -- the unified property)\n");
  return 0;
}
