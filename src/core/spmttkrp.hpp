// Unified one-shot SpMTTKRP (Section IV-C): M(i,:) += X(i,j,k) * (B(j,:) *
// C(k,:)) computed directly on the non-zeros -- no intermediate semi-sparse
// tensor, no explicit Khatri-Rao product, no mode conversion. Generalises to
// any order (the Hadamard product runs over all N-1 product-mode factor
// rows).
//
// Since the engine-layer refactor (DESIGN.md §11) this class is a thin
// front-end: it holds an engine::OpPlan (the F-COO handle) and builds an
// OpRequest per run; all backend and sharding routing lives in
// ust::engine::Engine.
#pragma once

#include <memory>
#include <span>

#include "core/unified_kernel.hpp"
#include "engine/engine.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::core {

class UnifiedMttkrp {
 public:
  /// Preprocesses `tensor` for MTTKRP on `mode` (0-based) through `engine`,
  /// whose primary-device plan cache serves repeated constructions (e.g.
  /// successive CP-ALS invocations). The engine must outlive this object.
  UnifiedMttkrp(engine::Engine& engine, const CooTensor& tensor, int mode,
                Partitioning part);

  int mode() const noexcept { return plan_->mode; }
  const UnifiedPlan& plan() const { return plan_->unified_plan(); }
  const std::shared_ptr<const engine::OpPlan>& op_plan() const noexcept { return plan_; }
  engine::Engine& engine() const noexcept { return *engine_; }

  /// Runs the kernel. `factors[m]` is the mode-m factor matrix (dims[m] x R);
  /// factors[mode()] is not read. Returns M of shape dims[mode()] x R.
  DenseMatrix run(std::span<const DenseMatrix> factors, const UnifiedOptions& opt = {}) const;

  /// As above but writes into a preallocated output (must be dims[mode] x R).
  void run(std::span<const DenseMatrix> factors, DenseMatrix& out,
           const UnifiedOptions& opt = {}) const;

  /// Builds the engine request without running it (the submit() path:
  /// `engine().submit(op.request(factors, out, opt))`). `factors` and `out`
  /// must outlive the job.
  engine::OpRequest request(std::span<const DenseMatrix> factors, DenseMatrix& out,
                            const UnifiedOptions& opt = {}) const;

  /// Runs through the multi-device sharded executor (src/shard/) regardless
  /// of opt.shard.num_devices (>= 1 allowed, so a one-device baseline can be
  /// measured on the same code path), filling `report` with per-device
  /// timings when non-null. run() routes here automatically when
  /// num_devices > 1; bench_shard calls it directly.
  void run_sharded(std::span<const DenseMatrix> factors, DenseMatrix& out,
                   const UnifiedOptions& opt, shard::Report* report = nullptr) const;

 private:
  engine::Engine* engine_;
  std::shared_ptr<const engine::OpPlan> plan_;
};

}  // namespace ust::core
