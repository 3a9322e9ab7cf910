#include "core/spttmc.hpp"

namespace ust::core {

UnifiedTtmc::UnifiedTtmc(engine::Engine& engine, const CooTensor& tensor, int mode,
                         Partitioning part)
    : engine_(&engine), plan_(engine.plan(tensor, engine::OpKind::kSpTTMc, mode, part)) {}

engine::OpRequest UnifiedTtmc::request(const DenseMatrix& u_first,
                                       const DenseMatrix& u_second, DenseMatrix& out,
                                       const UnifiedOptions& opt) const {
  engine::OpRequest req;
  req.plan = plan_;
  req.inputs = {{u_first.data(), u_first.rows(), u_first.cols()},
                {u_second.data(), u_second.rows(), u_second.cols()}};
  req.out = out.data();
  req.out_rows = out.rows();
  req.out_cols = out.cols();
  req.options = opt;
  return req;
}

DenseMatrix UnifiedTtmc::run(const DenseMatrix& u_first, const DenseMatrix& u_second,
                             const UnifiedOptions& opt) const {
  DenseMatrix out(plan_->out_rows(), u_first.cols() * u_second.cols());
  engine_->run(request(u_first, u_second, out, opt));
  return out;
}

}  // namespace ust::core
