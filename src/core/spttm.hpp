// Unified SpTTM: Y = X x_n U (sparse tensor times dense matrix on mode n),
// Equation (3) of the paper. The output is semi-sparse -- each surviving
// fiber along mode n is dense with length R -- and is returned in sCOO form.
// Runs the same unified block program as SpMTTKRP; only the product
// expression (a single factor-row gather) differs.
//
// Thin front-end over ust::engine::Engine (DESIGN.md §11): the engine fills
// the fiber-value matrix; this class assembles the sCOO output from the
// plan's host fiber coordinates.
#pragma once

#include <memory>
#include <span>

#include "core/unified_kernel.hpp"
#include "engine/engine.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "tensor/semisparse.hpp"

namespace ust::core {

class UnifiedSpttm {
 public:
  /// See UnifiedMttkrp for the `stream` semantics: streaming keeps the
  /// tensor on the host and runs bounded-memory chunk plans; otherwise the
  /// engine's primary plan cache reuses the device plan and the host fiber
  /// coordinates across constructions.
  UnifiedSpttm(engine::Engine& engine, const CooTensor& tensor, int mode,
               Partitioning part, const StreamingOptions& stream = {});

  int mode() const noexcept { return plan_->mode; }
  const UnifiedPlan& plan() const { return plan_->unified_plan(); }
  bool streaming() const noexcept { return plan_->streaming(); }
  nnz_t num_output_fibers() const noexcept { return plan_->num_segments; }
  const std::shared_ptr<const engine::OpPlan>& op_plan() const noexcept { return plan_; }
  engine::Engine& engine() const noexcept { return *engine_; }

  /// Runs Y = X x_mode U. `u` must be dims[mode] x R; the result has one
  /// dense fiber of length R per distinct index-mode coordinate pair, in
  /// lexicographic order.
  SemiSparseTensor run(const DenseMatrix& u, const UnifiedOptions& opt = {}) const;

  /// Allocates the sCOO output (fiber coordinates filled, values zeroed) that
  /// a request() for this op writes into.
  SemiSparseTensor make_output(index_t r) const;

  /// Builds the engine request writing the fiber values of `out` (a
  /// make_output(u.cols()) result). `u` and `out` must outlive the job.
  engine::OpRequest request(const DenseMatrix& u, SemiSparseTensor& out,
                            const UnifiedOptions& opt = {}) const;

 private:
  engine::Engine* engine_;
  std::shared_ptr<const engine::OpPlan> plan_;
};

}  // namespace ust::core
