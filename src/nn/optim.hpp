#pragma once

/// \file optim.hpp
/// Optimizers. The paper (Table II) uses AdamW with amsgrad for the
/// power-constrained scenario and Adam for the EDP scenario; plain SGD is
/// kept for tests and ablations.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace pnp::nn {

/// A named trainable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Matrix w;
  Matrix g;
  bool trainable = true;

  Param(std::string n, Matrix weights)
      : name(std::move(n)),
        w(std::move(weights)),
        g(Matrix::zeros(w.rows(), w.cols())) {}
};

/// Base optimizer interface. One step runs in two parts, so a trainer can
/// update each tensor on the thread that summed its gradient:
///
///  - begin_step(params) on one thread: sizes the per-parameter state on
///    first use and advances the step count;
///  - update(i, *params[i], scale) once per parameter: scales the
///    accumulated gradient (g *= scale, the batch mean), applies the update
///    to a trainable parameter and zeroes g (frozen parameters are only
///    zeroed). Calls for distinct indices touch disjoint state and may run
///    concurrently.
///
/// step(params) is begin_step plus update(i, *params[i], 1.0) for every i
/// in order, so it leaves every gradient zeroed.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void begin_step(std::span<Param* const> params) = 0;
  virtual void update(std::size_t index, Param& p, double grad_scale) = 0;
  void step(std::span<Param* const> params);
  virtual std::string name() const = 0;
};

/// Plain SGD with optional momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0);
  void begin_step(std::span<Param* const> params) override;
  void update(std::size_t index, Param& p, double grad_scale) override;
  std::string name() const override { return "sgd"; }

 private:
  double lr_;
  double momentum_;
  std::vector<Matrix> velocity_;  // parallel to params by index
};

/// Adam / AdamW. `decoupled_weight_decay=false` gives classic Adam (with
/// optional L2 folded into the gradient); `true` gives AdamW. `amsgrad`
/// keeps the running max of the second-moment estimate (Table II:
/// "AdamW (amsgrad)").
class Adam final : public Optimizer {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
    bool decoupled_weight_decay = false;  // true = AdamW
    bool amsgrad = false;
  };

  explicit Adam(Config cfg);

  /// Paper defaults for the two scenarios.
  static std::unique_ptr<Adam> adamw_amsgrad(double lr = 1e-3,
                                             double weight_decay = 1e-2);
  static std::unique_ptr<Adam> plain(double lr = 1e-3);

  void begin_step(std::span<Param* const> params) override;
  void update(std::size_t index, Param& p, double grad_scale) override;
  std::string name() const override {
    return cfg_.decoupled_weight_decay ? "adamw" : "adam";
  }

 private:
  Config cfg_;
  std::int64_t t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  // bias corrections of the current step
  std::vector<Matrix> m_, v_, vhat_;  // parallel to params by index
};

}  // namespace pnp::nn
