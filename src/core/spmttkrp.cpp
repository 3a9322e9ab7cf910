#include "core/spmttkrp.hpp"

namespace ust::core {

namespace {

/// Product-mode factor views for an engine request: factors[product_modes[p]]
/// in ascending mode order (factors[mode] is not read).
std::vector<engine::HostMatrixView> factor_views(const engine::OpPlan& plan,
                                                 std::span<const DenseMatrix> factors) {
  UST_EXPECTS(factors.size() == plan.dims.size());
  std::vector<engine::HostMatrixView> views;
  views.reserve(plan.product_modes.size());
  for (int m : plan.product_modes) {
    const DenseMatrix& f = factors[static_cast<std::size_t>(m)];
    views.push_back({f.data(), f.rows(), f.cols()});
  }
  return views;
}

}  // namespace

UnifiedMttkrp::UnifiedMttkrp(engine::Engine& engine, const CooTensor& tensor, int mode,
                             Partitioning part, const StreamingOptions& stream)
    : engine_(&engine),
      plan_(engine.plan(tensor, engine::OpKind::kSpMTTKRP, mode, part, stream)) {}

engine::OpRequest UnifiedMttkrp::request(std::span<const DenseMatrix> factors,
                                         DenseMatrix& out, const UnifiedOptions& opt) const {
  engine::OpRequest req;
  req.plan = plan_;
  req.inputs = factor_views(*plan_, factors);
  req.out = out.data();
  req.out_rows = out.rows();
  req.out_cols = out.cols();
  req.options = opt;
  return req;
}

DenseMatrix UnifiedMttkrp::run(std::span<const DenseMatrix> factors,
                               const UnifiedOptions& opt) const {
  const index_t rows = plan_->out_rows();
  const index_t r =
      factors[static_cast<std::size_t>(plan_->product_modes.front())].cols();
  DenseMatrix out(rows, r);
  run(factors, out, opt);
  return out;
}

void UnifiedMttkrp::run(std::span<const DenseMatrix> factors, DenseMatrix& out,
                        const UnifiedOptions& opt) const {
  engine_->run(request(factors, out, opt));
}

void UnifiedMttkrp::run_sharded(std::span<const DenseMatrix> factors, DenseMatrix& out,
                                const UnifiedOptions& opt, shard::Report* report) const {
  engine_->run_sharded(request(factors, out, opt), report);
}

}  // namespace ust::core
