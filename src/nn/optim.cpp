#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pnp::nn {

Sgd::Sgd(double lr, double momentum) : lr_(lr), momentum_(momentum) {}

void Sgd::step(std::vector<Param*>& params) {
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (const Param* p : params)
      velocity_.push_back(Matrix::zeros(p->w.rows(), p->w.cols()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    if (!p.trainable) continue;
    if (momentum_ > 0.0) {
      Matrix& v = velocity_[i];
      for (std::size_t k = 0; k < v.size(); ++k) {
        v.data()[k] = momentum_ * v.data()[k] + p.g.data()[k];
        p.w.data()[k] -= lr_ * v.data()[k];
      }
    } else {
      p.w.add_scaled(p.g, -lr_);
    }
  }
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

namespace {

/// One Adam update of n elements, with the config branches resolved at
/// compile time so the element loop is branch-free and vectorizes (the
/// library builds with -fno-math-errno, so std::sqrt is one instruction).
/// The per-element expressions are those of the textbook loop: every
/// element gets the same rounding whether it lands in a vector or a
/// scalar lane.
template <bool kL2, bool kAmsgrad, bool kDecoupled>
void adam_update(std::size_t n, const Adam::Config& c, double bc1, double bc2,
                 double* __restrict w, const double* __restrict g,
                 double* __restrict m, double* __restrict v,
                 double* __restrict vh) {
  const double b1 = c.beta1, b2 = c.beta2;
  const double c1 = 1.0 - c.beta1, c2 = 1.0 - c.beta2;
  const double lr = c.lr, eps = c.eps, wd = c.weight_decay;
  const double lr_wd = c.lr * c.weight_decay;
  for (std::size_t k = 0; k < n; ++k) {
    double grad = g[k];
    if constexpr (kL2) grad += wd * w[k];  // classic Adam L2
    m[k] = b1 * m[k] + c1 * grad;
    v[k] = b2 * v[k] + c2 * grad * grad;
    const double mhat = m[k] / bc1;
    double vcur = v[k] / bc2;
    if constexpr (kAmsgrad) {
      vh[k] = std::max(vh[k], vcur);
      vcur = vh[k];
    }
    if constexpr (kDecoupled) w[k] -= lr_wd * w[k];  // AdamW decay
    w[k] -= lr * mhat / (std::sqrt(vcur) + eps);
  }
}

}  // namespace

void Adam::step(std::vector<Param*>& params) {
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
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  const bool decay = cfg_.weight_decay > 0.0;
  const bool l2 = decay && !cfg_.decoupled_weight_decay;
  const bool decoupled = decay && cfg_.decoupled_weight_decay;
  auto* update = l2 ? (cfg_.amsgrad ? &adam_update<true, true, false>
                                    : &adam_update<true, false, false>)
               : decoupled ? (cfg_.amsgrad ? &adam_update<false, true, true>
                                           : &adam_update<false, false, true>)
                           : (cfg_.amsgrad ? &adam_update<false, true, false>
                                           : &adam_update<false, false, false>);
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    if (!p.trainable) continue;
    PNP_CHECK(m_[i].same_shape(p.w));
    update(p.w.size(), cfg_, bc1, bc2, p.w.data(), p.g.data(), m_[i].data(),
           v_[i].data(), vhat_[i].data());
  }
}

}  // namespace pnp::nn
