// Tucker decomposition via HOOI (higher-order orthogonal iteration) built on
// the unified SpTTMc kernel. The paper implements CP and notes "a similar
// approach can be used to implement Tucker using unified" (Section IV-D);
// this module is that extension: each mode update computes the TTM chain
// with the other factors in one shot on the device, then extracts the
// leading left singular subspace with a small Gram eigen-solve.
#pragma once

#include <array>
#include <vector>

#include "core/spttmc.hpp"
#include "sim/device.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::core {

struct TuckerOptions {
  std::array<index_t, 3> core_dims = {4, 4, 4};  // (R1, R2, R3)
  int max_iterations = 20;
  double fit_tolerance = 1e-5;
  Partitioning part;
  /// Kernel options for every TTMc; kernel.shard.num_devices > 1 shards each
  /// mode update across a simulated device group (see CpOptions::kernel).
  UnifiedOptions kernel;
  /// Streams every TTMc through bounded-memory chunk plans when enabled.
  StreamingOptions streaming;
  std::uint64_t seed = 42;
};

struct TuckerResult {
  std::vector<DenseMatrix> factors;  // orthonormal columns, one per mode
  DenseTensor core;                  // R1 x R2 x R3
  double fit = 0.0;                  // 1 - ||X - model||_F / ||X||_F
  int iterations = 0;
  bool converged = false;
  std::vector<double> fit_history;
};

/// Runs HOOI on a 3-order sparse tensor through `engine` (per-mode TTMc
/// plans in the engine's primary cache).
TuckerResult tucker_hooi_unified(engine::Engine& engine, const CooTensor& tensor,
                                 const TuckerOptions& options);

}  // namespace ust::core
