#include "nn/sequential.h"

#include <sstream>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"

namespace goldfish::nn {

Sequential::Sequential(const Sequential& other)
    : Layer(other), first_param_(other.first_param_) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  first_param_ = other.first_param_;
  return *this;
}

void Sequential::add(std::unique_ptr<Layer> layer) {
  GOLDFISH_CHECK(layer != nullptr, "null layer");
  if (first_param_ == layers_.size() && layer->params().empty())
    ++first_param_;
  layers_.push_back(std::move(layer));
}

// Peephole: a Linear or Conv2d directly followed by a ReLU runs as one
// fused GEMM (bias + ReLU in the writeback); the standalone ReLU layer is
// skipped in both passes and the GEMM layer applies the mask in its own
// backward. Results are bit-identical to running the pair unfused.
bool Sequential::fused_pair_at(std::size_t i) const {
  return i + 1 < layers_.size() &&
         dynamic_cast<const ReluFusableLayer*>(layers_[i].get()) != nullptr &&
         dynamic_cast<const ReLU*>(layers_[i + 1].get()) != nullptr;
}

const Tensor& Sequential::forward(const Tensor& x, bool train) {
  const Tensor* h = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (auto* gemm = dynamic_cast<ReluFusableLayer*>(layers_[i].get())) {
      const bool fuse = fused_pair_at(i);
      gemm->set_fuse_relu(fuse);
      h = &gemm->forward(*h, train);
      if (fuse) ++i;  // the ReLU ran inside the GEMM writeback
    } else {
      h = &layers_[i]->forward(*h, train);
    }
  }
  return *h;
}

const Tensor* Sequential::backward_walk(const Tensor& grad_output,
                                        bool params_only) {
  const Tensor* g = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i > 0 && fused_pair_at(i - 1) &&
        static_cast<const ReluFusableLayer*>(layers_[i - 1].get())
            ->fuse_relu()) {
      --i;  // skip the folded ReLU; the GEMM layer applies its mask
    }
    if (params_only && i == first_param_) {
      layers_[i]->backward_params(*g);
      return nullptr;
    }
    g = &layers_[i]->backward(*g);
  }
  return g;
}

const Tensor& Sequential::backward(const Tensor& grad_output) {
  return *backward_walk(grad_output, /*params_only=*/false);
}

void Sequential::backward_params(const Tensor& grad_output) {
  // With no parameterized layer there is nothing to accumulate.
  if (first_param_ < layers_.size())
    (void)backward_walk(grad_output, /*params_only=*/true);
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (ParamRef p : layers_[i]->params()) {
      p.name = std::to_string(i) + "." + p.name;
      out.push_back(p);
    }
  }
  return out;
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << ", ";
    os << layers_[i]->name();
  }
  os << "]";
  return os.str();
}

// ---------------------------------------------------------------------------

ResidualBlock::ResidualBlock(long in_channels, long out_channels, long stride,
                             long in_h, long in_w, Rng& rng) {
  conv1_ = std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1,
                                    in_h, in_w, rng);
  const long oh = (in_h + 2 - 3) / stride + 1;
  const long ow = (in_w + 2 - 3) / stride + 1;
  bn1_ = std::make_unique<BatchNorm2d>(out_channels);
  relu1_ = std::make_unique<ReLU>();
  conv2_ = std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1, oh,
                                    ow, rng);
  bn2_ = std::make_unique<BatchNorm2d>(out_channels);
  has_projection_ = (stride != 1) || (in_channels != out_channels);
  if (has_projection_) {
    short_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1,
                                           stride, 0, in_h, in_w, rng);
    short_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : Layer(other),
      conv1_(other.conv1_->clone()),
      bn1_(other.bn1_->clone()),
      relu1_(other.relu1_->clone()),
      conv2_(other.conv2_->clone()),
      bn2_(other.bn2_->clone()),
      has_projection_(other.has_projection_) {
  if (has_projection_) {
    short_conv_ = other.short_conv_->clone();
    short_bn_ = other.short_bn_->clone();
  }
}

const Tensor& ResidualBlock::forward(const Tensor& x, bool train) {
  // The main branch lands in bn2_'s output buffer; the block owns its
  // sublayers, so finishing the residual sum + ReLU in that buffer is safe
  // (bn2_'s backward never reads its own output).
  Tensor& main = const_cast<Tensor&>(bn2_->forward(
      conv2_->forward(relu1_->forward(bn1_->forward(conv1_->forward(x, train),
                                                    train),
                                      train),
                      train),
      train));

  const Tensor* shortcut = &x;
  if (has_projection_)
    shortcut = &short_bn_->forward(short_conv_->forward(x, train), train);
  main += *shortcut;

  // Final ReLU done inline so we can keep its mask for backward.
  Tensor& mask = mask_.acquire(main.shape());
  float* md = mask.data();
  float* yd = main.data();
  for (std::size_t i = 0; i < main.numel(); ++i) {
    if (yd[i] > 0.0f) {
      md[i] = 1.0f;
    } else {
      yd[i] = 0.0f;
      md[i] = 0.0f;
    }
  }
  return main;
}

const Tensor& ResidualBlock::backward(const Tensor& grad_output) {
  const Tensor& mask = mask_.read(grad_output.shape());
  Tensor& g = masked_.acquire(grad_output.shape());
  {
    const float* gd_in = grad_output.data();
    const float* md = mask.data();
    float* gd = g.data();
    for (std::size_t i = 0; i < g.numel(); ++i) gd[i] = gd_in[i] * md[i];
  }
  // Branch gradients: the post-add gradient flows into both paths. The main
  // chain's result is conv1_'s input-gradient buffer — block-owned, so the
  // shortcut gradient is summed into it in place.
  Tensor& g_main = const_cast<Tensor&>(conv1_->backward(bn1_->backward(
      relu1_->backward(conv2_->backward(bn2_->backward(g))))));

  const Tensor* g_short = &g;
  if (has_projection_)
    g_short = &short_conv_->backward(short_bn_->backward(g));
  g_main += *g_short;
  return g_main;
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> out;
  const auto absorb = [&out](const char* prefix, Layer& l) {
    for (ParamRef p : l.params()) {
      p.name = std::string(prefix) + "." + p.name;
      out.push_back(p);
    }
  };
  absorb("conv1", *conv1_);
  absorb("bn1", *bn1_);
  absorb("conv2", *conv2_);
  absorb("bn2", *bn2_);
  if (has_projection_) {
    absorb("short_conv", *short_conv_);
    absorb("short_bn", *short_bn_);
  }
  return out;
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  return std::make_unique<ResidualBlock>(*this);
}

std::string ResidualBlock::name() const {
  std::ostringstream os;
  os << "residual(" << conv1_->name() << (has_projection_ ? ", proj" : "")
     << ")";
  return os.str();
}

}  // namespace goldfish::nn
