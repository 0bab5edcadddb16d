#include "deepmd/network.hpp"

#include <cmath>

#include "obs/trace.hpp"

namespace fekf::deepmd {

namespace op = ag::ops;

namespace detail {

LayerParams make_layer(i64 fan_in, i64 fan_out, const std::string& name,
                       Rng& rng, f64 weight_scale) {
  LayerParams layer;
  const f64 stddev = weight_scale / std::sqrt(static_cast<f64>(fan_in));
  layer.weight =
      ag::Variable(Tensor::randn(fan_in, fan_out, rng, stddev), true);
  layer.bias = ag::Variable(Tensor::zeros(1, fan_out), true);
  layer.name = name;
  return layer;
}

ag::Variable dense(const ag::Variable& x, const LayerParams& layer,
                   bool activate, FusionLevel fusion) {
  const bool fused = fusion >= FusionLevel::kOpt2;
  ag::Variable pre = fused ? op::linear_fused(x, layer.weight, layer.bias)
                           : op::linear(x, layer.weight, layer.bias);
  if (!activate) return pre;
  return fused ? op::tanh_fused(pre) : op::tanh(pre);
}

}  // namespace detail

EmbeddingNet::EmbeddingNet(i64 width, const std::string& name, Rng& rng)
    : width_(width) {
  layers_.push_back(detail::make_layer(1, width, name + ".e0", rng));
  layers_.push_back(detail::make_layer(width, width, name + ".e1", rng));
  layers_.push_back(detail::make_layer(width, width, name + ".e2", rng));
}

ag::Variable EmbeddingNet::forward(const ag::Variable& s,
                                   FusionLevel fusion) const {
  obs::ScopedSpan span("deepmd.embedding", "deepmd");
  // E0: tanh(s W0 + b0); E1/E2: X + tanh(X W + b) (residual).
  ag::Variable h = detail::dense(s, layers_[0], /*activate=*/true, fusion);
  h = op::add(h, detail::dense(h, layers_[1], true, fusion));
  h = op::add(h, detail::dense(h, layers_[2], true, fusion));
  return h;
}

FittingNet::FittingNet(i64 input, i64 width, const std::string& name,
                       Rng& rng) {
  layers_.push_back(detail::make_layer(input, width, name + ".f0", rng));
  layers_.push_back(detail::make_layer(width, width, name + ".f1", rng));
  layers_.push_back(detail::make_layer(width, width, name + ".f2", rng));
  // Final linear layer initialized small so initial energies start near the
  // dataset bias.
  layers_.push_back(detail::make_layer(width, 1, name + ".f3", rng, 0.1));
}

ag::Variable FittingNet::forward(const ag::Variable& d,
                                 FusionLevel fusion) const {
  obs::ScopedSpan span("deepmd.fitting", "deepmd");
  ag::Variable h = detail::dense(d, layers_[0], true, fusion);
  h = op::add(h, detail::dense(h, layers_[1], true, fusion));
  h = op::add(h, detail::dense(h, layers_[2], true, fusion));
  return detail::dense(h, layers_[3], /*activate=*/false, fusion);
}

}  // namespace fekf::deepmd
