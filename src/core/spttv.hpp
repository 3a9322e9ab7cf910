// Unified SpTTV (sparse tensor-times-vector chain): contracts every mode
// except `mode` with a dense vector,
//
//   y(i) = sum_{j,k,...} X(i,j,k,...) * v2(j) * v3(k) * ...
//
// This is the rank-1 specialisation of SpMTTKRP and the inner operation of
// tensor power iteration (dominant rank-1 component / Z-eigenvector
// computation). It is not evaluated in the paper; it is included here as a
// demonstration of the conclusion's claim that the unified method "can be
// extended to support other sparse tensor operations" -- the kernel is the
// same block program with a scalar product expression. Thin front-end over
// ust::engine::Engine (DESIGN.md §11); it shares SpMTTKRP's cached plans
// (identical F-COO layout).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/unified_kernel.hpp"
#include "engine/engine.hpp"
#include "tensor/coo.hpp"

namespace ust::core {

class UnifiedTtv {
 public:
  /// The plan comes from the engine's primary plan cache, as for
  /// UnifiedMttkrp. The engine must outlive this object.
  UnifiedTtv(engine::Engine& engine, const CooTensor& tensor, int mode, Partitioning part);

  int mode() const noexcept { return plan_->mode; }
  const UnifiedPlan& plan() const { return plan_->unified_plan(); }
  const std::shared_ptr<const engine::OpPlan>& op_plan() const noexcept { return plan_; }
  engine::Engine& engine() const noexcept { return *engine_; }

  /// Contracts with `vectors[m]` along every mode m != mode() (vectors[mode]
  /// is not read). Returns the dims[mode]-length result.
  std::vector<value_t> run(std::span<const std::vector<value_t>> vectors,
                           const UnifiedOptions& opt = {}) const;

  /// Builds the engine request writing into `out` (dims[mode] entries). The
  /// vectors and `out` must outlive the job.
  engine::OpRequest request(std::span<const std::vector<value_t>> vectors,
                            std::vector<value_t>& out,
                            const UnifiedOptions& opt = {}) const;

 private:
  engine::Engine* engine_;
  std::shared_ptr<const engine::OpPlan> plan_;
};

}  // namespace ust::core
