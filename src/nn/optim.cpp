#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

// The update loops below are written to vectorize: one loop per tensor
// with the configuration hoisted into template flags and locals, restrict
// pointers, and sqrt free of errno (this file builds with -fno-math-errno).
// Each keeps the expressions of the plain per-element update, so every
// element receives the same roundings as before.
//
// The batch-mean scale g *= s is folded into the update loop wherever the
// scaled gradient only feeds multiplies. Where it is added to another
// product (SGD momentum, classic-L2 Adam), it runs as its own pass first:
// in one loop the compiler may fuse g·s into that add as one FMA, which
// would round differently from scaling first.

namespace pnp::nn {

namespace {

void scale_in_place(double* __restrict g, std::size_t n, double s) {
  for (std::size_t k = 0; k < n; ++k) g[k] *= s;
}

void zero(double* __restrict g, std::size_t n) { std::fill(g, g + n, 0.0); }

/// Adam's per-step constants, read once per tensor.
struct AdamStep {
  double lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps, wd, bc1, bc2;
};

/// One tensor's Adam update: kL2 = classic Adam's L2 term (g already
/// scaled, `s` unused), kDecay = AdamW's decoupled decay, kAms = amsgrad.
/// Zeroes g as it goes.
template <bool kL2, bool kDecay, bool kAms>
void adam_update(std::size_t n, double s, const AdamStep& c,
                 double* __restrict w, double* __restrict g,
                 double* __restrict m, double* __restrict v,
                 double* __restrict vh) {
  const double lr = c.lr, beta1 = c.beta1, beta2 = c.beta2;
  const double one_minus_beta1 = c.one_minus_beta1;
  const double one_minus_beta2 = c.one_minus_beta2;
  const double eps = c.eps, wd = c.wd, bc1 = c.bc1, bc2 = c.bc2;
  for (std::size_t k = 0; k < n; ++k) {
    double grad;
    if constexpr (kL2) {
      grad = g[k];
      grad += wd * w[k];  // classic Adam L2
    } else {
      grad = g[k] * s;
    }
    m[k] = beta1 * m[k] + one_minus_beta1 * grad;
    v[k] = beta2 * v[k] + one_minus_beta2 * grad * grad;
    const double mhat = m[k] / bc1;
    double vcur = v[k] / bc2;
    if constexpr (kAms) {
      vh[k] = std::max(vh[k], vcur);
      vcur = vh[k];
    }
    if constexpr (kDecay) w[k] -= lr * wd * w[k];  // AdamW decay
    w[k] -= lr * mhat / (std::sqrt(vcur) + eps);
    g[k] = 0.0;
  }
}

}  // namespace

void Optimizer::step(std::span<Param* const> params) {
  begin_step(params);
  for (std::size_t i = 0; i < params.size(); ++i) update(i, *params[i], 1.0);
}

Sgd::Sgd(double lr, double momentum) : lr_(lr), momentum_(momentum) {}

void Sgd::begin_step(std::span<Param* const> params) {
  if (velocity_.size() == params.size()) return;
  velocity_.clear();
  for (const Param* p : params)
    velocity_.push_back(Matrix::zeros(p->w.rows(), p->w.cols()));
}

void Sgd::update(std::size_t index, Param& p, double grad_scale) {
  double* __restrict g = p.g.data();
  const std::size_t n = p.g.size();
  if (p.trainable) {
    PNP_CHECK(index < velocity_.size() && velocity_[index].same_shape(p.w));
    double* __restrict w = p.w.data();
    const double lr = lr_;
    if (momentum_ > 0.0) {
      scale_in_place(g, n, grad_scale);
      double* __restrict v = velocity_[index].data();
      const double momentum = momentum_;
      for (std::size_t k = 0; k < n; ++k) {
        v[k] = momentum * v[k] + g[k];
        w[k] -= lr * v[k];
      }
    } else {
      const double a = -lr;
      for (std::size_t k = 0; k < n; ++k) w[k] += a * (g[k] * grad_scale);
    }
  }
  zero(g, n);
}

Adam::Adam(Config cfg) : cfg_(cfg) {}

std::unique_ptr<Adam> Adam::adamw_amsgrad(double lr, double weight_decay) {
  Config c;
  c.lr = lr;
  c.weight_decay = weight_decay;
  c.decoupled_weight_decay = true;
  c.amsgrad = true;
  return std::make_unique<Adam>(c);
}

std::unique_ptr<Adam> Adam::plain(double lr) {
  Config c;
  c.lr = lr;
  return std::make_unique<Adam>(c);
}

void Adam::begin_step(std::span<Param* const> params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    vhat_.clear();
    for (const Param* p : params) {
      m_.push_back(Matrix::zeros(p->w.rows(), p->w.cols()));
      v_.push_back(Matrix::zeros(p->w.rows(), p->w.cols()));
      vhat_.push_back(Matrix::zeros(p->w.rows(), p->w.cols()));
    }
  }
  ++t_;
  bc1_ = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
}

void Adam::update(std::size_t index, Param& p, double grad_scale) {
  double* g = p.g.data();
  const std::size_t n = p.g.size();
  if (!p.trainable) {
    zero(g, n);
    return;
  }
  PNP_CHECK(index < m_.size() && m_[index].same_shape(p.w));
  const bool l2 = !cfg_.decoupled_weight_decay && cfg_.weight_decay > 0.0;
  const bool decay = cfg_.decoupled_weight_decay && cfg_.weight_decay > 0.0;
  const AdamStep c{cfg_.lr,           cfg_.beta1, cfg_.beta2,
                   1.0 - cfg_.beta1,  1.0 - cfg_.beta2,
                   cfg_.eps,          cfg_.weight_decay,
                   bc1_,              bc2_};
  double* w = p.w.data();
  double* m = m_[index].data();
  double* v = v_[index].data();
  double* vh = vhat_[index].data();
  if (l2) scale_in_place(g, n, grad_scale);
  const auto run = [&](auto kernel) {
    kernel(n, grad_scale, c, w, g, m, v, vh);
  };
  if (l2)
    cfg_.amsgrad ? run(adam_update<true, false, true>)
                 : run(adam_update<true, false, false>);
  else if (decay)
    cfg_.amsgrad ? run(adam_update<false, true, true>)
                 : run(adam_update<false, true, false>);
  else
    cfg_.amsgrad ? run(adam_update<false, false, true>)
                 : run(adam_update<false, false, false>);
}

}  // namespace pnp::nn
