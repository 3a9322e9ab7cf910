#include "core/spttv.hpp"

namespace ust::core {

UnifiedTtv::UnifiedTtv(engine::Engine& engine, const CooTensor& tensor, int mode,
                       Partitioning part, const StreamingOptions& stream)
    : engine_(&engine), plan_(engine.plan(tensor, engine::OpKind::kSpTTV, mode, part, stream)) {}

engine::OpRequest UnifiedTtv::request(std::span<const std::vector<value_t>> vectors,
                                      std::vector<value_t>& out,
                                      const UnifiedOptions& opt) const {
  UST_EXPECTS(vectors.size() == plan_->dims.size());
  engine::OpRequest req;
  req.plan = plan_;
  req.inputs.reserve(plan_->product_modes.size());
  for (int m : plan_->product_modes) {
    const auto& v = vectors[static_cast<std::size_t>(m)];
    req.inputs.push_back({v.data(), static_cast<index_t>(v.size()), 1});
  }
  req.out = out.data();
  req.out_rows = static_cast<index_t>(out.size());
  req.out_cols = 1;
  req.options = opt;
  return req;
}

std::vector<value_t> UnifiedTtv::run(std::span<const std::vector<value_t>> vectors,
                                     const UnifiedOptions& opt) const {
  std::vector<value_t> out(plan_->out_rows());
  engine_->run(request(vectors, out, opt));
  return out;
}

}  // namespace ust::core
