#include "core/spttm.hpp"

#include <algorithm>

namespace ust::core {

UnifiedSpttm::UnifiedSpttm(engine::Engine& engine, const CooTensor& tensor, int mode,
                           Partitioning part, const StreamingOptions& stream)
    : engine_(&engine), plan_(engine.plan(tensor, engine::OpKind::kSpTTM, mode, part, stream)) {}

SemiSparseTensor UnifiedSpttm::make_output(index_t r) const {
  std::vector<index_t> sparse_dims;
  for (int m : plan_->index_modes) {
    sparse_dims.push_back(plan_->dims[static_cast<std::size_t>(m)]);
  }
  SemiSparseTensor y(std::move(sparse_dims), plan_->num_segments, r, plan_->mode);
  for (std::size_t m = 0; m < plan_->fiber_coords.size(); ++m) {
    std::copy(plan_->fiber_coords[m].begin(), plan_->fiber_coords[m].end(),
              y.coords(static_cast<int>(m)).begin());
  }
  return y;
}

engine::OpRequest UnifiedSpttm::request(const DenseMatrix& u, SemiSparseTensor& out,
                                        const UnifiedOptions& opt) const {
  engine::OpRequest req;
  req.plan = plan_;
  req.inputs = {{u.data(), u.rows(), u.cols()}};
  req.out = out.values().data();
  req.out_rows = out.values().rows();
  req.out_cols = out.values().cols();
  req.options = opt;
  return req;
}

SemiSparseTensor UnifiedSpttm::run(const DenseMatrix& u, const UnifiedOptions& opt) const {
  SemiSparseTensor y = make_output(u.cols());
  engine_->run(request(u, y, opt));
  return y;
}

}  // namespace ust::core
