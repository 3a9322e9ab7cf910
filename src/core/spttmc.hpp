// Unified SpTTMc (tensor-times-matrix chain, Equation (4)): the Tucker/HOOI
// building block. For a 3-order tensor on mode-1:
//   Y(1)(i,:) += X(i,j,k) * (U2(j,:) (x) U3(k,:))
// i.e. the same one-shot skeleton as SpMTTKRP with the Hadamard product
// replaced by a Kronecker product of the factor rows, producing R2*R3 output
// columns (Table I row 3). Thin front-end over ust::engine::Engine
// (DESIGN.md §11).
#pragma once

#include <memory>
#include <span>

#include "core/unified_kernel.hpp"
#include "engine/engine.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::core {

class UnifiedTtmc {
 public:
  /// Currently implemented for 3-order tensors (the paper's evaluation
  /// scope); `mode` selects the index mode. See UnifiedMttkrp for the
  /// `stream` semantics.
  UnifiedTtmc(engine::Engine& engine, const CooTensor& tensor, int mode,
              Partitioning part, const StreamingOptions& stream = {});

  int mode() const noexcept { return plan_->mode; }
  const UnifiedPlan& plan() const { return plan_->unified_plan(); }
  bool streaming() const noexcept { return plan_->streaming(); }
  const std::shared_ptr<const engine::OpPlan>& op_plan() const noexcept { return plan_; }
  engine::Engine& engine() const noexcept { return *engine_; }

  /// Runs the chain product with the two product-mode factors (in ascending
  /// mode order). Result is the mode-matricised Y(mode):
  /// dims[mode] x (r(u_first) * r(u_second)).
  DenseMatrix run(const DenseMatrix& u_first, const DenseMatrix& u_second,
                  const UnifiedOptions& opt = {}) const;

  /// Builds the engine request writing into `out` (dims[mode] x r0*r1). The
  /// factors and `out` must outlive the job.
  engine::OpRequest request(const DenseMatrix& u_first, const DenseMatrix& u_second,
                            DenseMatrix& out, const UnifiedOptions& opt = {}) const;

 private:
  engine::Engine* engine_;
  std::shared_ptr<const engine::OpPlan> plan_;
};

}  // namespace ust::core
