// CP-ALS (CANDECOMP/PARAFAC via alternating least squares) -- Algorithm 1 of
// the paper. The MTTKRP in every mode update runs as a unified one-shot
// kernel from a per-mode F-COO plan built once up front ("preprocessed for
// different modes on the host ... transferred once"). The dense update that
// follows (DESIGN.md §16) solves the Gram system in row blocks on the global
// pool, the pool device 0 runs the MTTKRP on, and normalises the columns on
// the caller. With `use_streams` the Gram of the updated factor runs on a
// second stream, overlapping the next mode's MTTKRP, as in the paper's
// two-stream Section V-E implementation. Results are bitwise the same at any
// pool width and with or without the second stream.
#pragma once

#include <functional>
#include <vector>

#include "core/spmttkrp.hpp"
#include "sim/device.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::core {

struct CpOptions {
  index_t rank = 8;
  int max_iterations = 50;
  double fit_tolerance = 1e-5;  // stop when |fit - previous fit| < tol
  Partitioning part;
  /// Kernel options for every MTTKRP, including kernel.shard: setting
  /// kernel.shard.num_devices > 1 runs every mode update sharded across a
  /// per-op simulated device group (src/shard/), bitwise identical to the
  /// single-device solve.
  UnifiedOptions kernel;
  /// Streams every MTTKRP through bounded-memory chunk plans when enabled
  /// (tensors larger than device memory); bypasses the plan cache.
  StreamingOptions streaming;
  bool use_streams = true;   // overlap dense algebra with MTTKRP
  std::uint64_t seed = 42;   // factor initialisation
};

struct CpTimings {
  std::vector<double> mttkrp_seconds;  // per mode, accumulated over iterations
  double dense_seconds = 0.0;          // gram/solve/normalise ("other")
  double total_seconds = 0.0;
};

struct CpResult {
  std::vector<DenseMatrix> factors;  // one per mode, unit-norm columns
  std::vector<double> lambda;        // component weights, descending
  double fit = 0.0;                  // 1 - ||X - model||_F / ||X||_F
  int iterations = 0;
  bool converged = false;
  std::vector<double> fit_history;   // fit after each iteration
  CpTimings timings;
};

/// Runs CP-ALS with unified SpMTTKRP kernels through `engine`: the per-mode
/// plans live in the engine's primary plan cache, so repeat solves -- and
/// any other traffic on the same engine -- share one set of caches and one
/// device group.
CpResult cp_als_unified(engine::Engine& engine, const CooTensor& tensor,
                        const CpOptions& options);

/// Shared ALS driver: both the unified and the SPLATT-style CP
/// implementations delegate to this with their own MTTKRP callback
/// (mttkrp(mode, factors) -> M). Exposed for baseline reuse and testing.
using MttkrpFn =
    std::function<DenseMatrix(int mode, const std::vector<DenseMatrix>& factors)>;
CpResult cp_als_driver(const CooTensor& tensor, const CpOptions& options,
                       const MttkrpFn& mttkrp, CpTimings* timings_out = nullptr);

}  // namespace ust::core
