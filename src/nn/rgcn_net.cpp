#include "nn/rgcn_net.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pnp::nn {

namespace {

inline double leaky(double x, double slope) { return x > 0.0 ? x : slope * x; }
inline double leaky_grad(double x, double slope) { return x > 0.0 ? 1.0 : slope; }
inline double relu(double x) { return x > 0.0 ? x : 0.0; }
inline double relu_grad(double x) { return x > 0.0 ? 1.0 : 0.0; }

}  // namespace

int RgcnNet::add_param(const std::string& name, Matrix m, bool gnn_stage) {
  params_.push_back(std::make_unique<Param>(name, std::move(m)));
  is_gnn_param_.push_back(gnn_stage);
  return static_cast<int>(params_.size()) - 1;
}

RgcnNet::RgcnNet(RgcnNetConfig cfg) : cfg_(std::move(cfg)) {
  PNP_CHECK_MSG(cfg_.vocab_size > 0, "vocab_size must be set");
  PNP_CHECK_MSG(!cfg_.head_sizes.empty(), "head_sizes must be set");
  PNP_CHECK(cfg_.rgcn_layers >= 1 && cfg_.num_relations >= 1);

  Rng rng(cfg_.seed);

  emb_token_ = add_param("emb.token",
                         Matrix::xavier(cfg_.vocab_size, cfg_.emb_dim, rng),
                         /*gnn_stage=*/true);
  emb_kind_ = add_param("emb.kind",
                        Matrix::xavier(graph::kNumNodeKinds, cfg_.emb_dim, rng),
                        true);

  for (int l = 0; l < cfg_.rgcn_layers; ++l) {
    const int d_in = (l == 0) ? cfg_.emb_dim : cfg_.hidden;
    const int d_out = cfg_.hidden;
    LayerParams lp;
    const std::string prefix = "rgcn." + std::to_string(l) + ".";
    lp.w0 = add_param(prefix + "w0", Matrix::xavier(d_in, d_out, rng), true);
    lp.bias = add_param(prefix + "bias", Matrix::zeros(1, d_out), true);
    if (cfg_.num_bases > 0) {
      for (int b = 0; b < cfg_.num_bases; ++b)
        lp.basis.push_back(add_param(prefix + "basis." + std::to_string(b),
                                     Matrix::xavier(d_in, d_out, rng), true));
      lp.coef = add_param(prefix + "coef",
                          Matrix::xavier(cfg_.num_relations, cfg_.num_bases, rng),
                          true);
    } else {
      for (int r = 0; r < cfg_.num_relations; ++r)
        lp.wr.push_back(add_param(prefix + "wr." + std::to_string(r),
                                  Matrix::xavier(d_in, d_out, rng), true));
    }
    layers_.push_back(lp);
  }

  const int dense_in = cfg_.hidden + cfg_.extra_features;
  w1_ = add_param("dense.w1", Matrix::xavier(dense_in, cfg_.dense_hidden1, rng),
                  false);
  b1_ = add_param("dense.b1", Matrix::zeros(1, cfg_.dense_hidden1), false);
  w2_ = add_param("dense.w2",
                  Matrix::xavier(cfg_.dense_hidden1, cfg_.dense_hidden2, rng),
                  false);
  b2_ = add_param("dense.b2", Matrix::zeros(1, cfg_.dense_hidden2), false);
  w3_ = add_param("dense.w3",
                  Matrix::xavier(cfg_.dense_hidden2, cfg_.total_logits(), rng),
                  false);
  b3_ = add_param("dense.b3", Matrix::zeros(1, cfg_.total_logits()), false);

  int off = 0;
  for (int h : cfg_.head_sizes) {
    head_offset_.push_back(off);
    off += h;
  }
}

const Matrix& RgcnNet::relation_weight(const LayerParams& lp, int relation,
                                       Matrix& scratch) const {
  if (cfg_.num_bases == 0)
    return P(lp.wr[static_cast<std::size_t>(relation)]).w;
  const Matrix& coef = P(lp.coef).w;
  scratch.resize(P(lp.basis[0]).w.rows(), P(lp.basis[0]).w.cols());
  scratch.zero();
  for (int b = 0; b < cfg_.num_bases; ++b)
    scratch.add_scaled(P(lp.basis[static_cast<std::size_t>(b)]).w,
                       coef(relation, b));
  return scratch;
}

RgcnNet::GnnCache RgcnNet::encode(const graph::GraphTensors& g) const {
  GnnCache cache;
  encode_into(g, cache);
  return cache;
}

void RgcnNet::encode_into(const graph::GraphTensors& g,
                          GnnCache& cache) const {
  PNP_CHECK_MSG(g.num_nodes > 0, "cannot encode an empty graph");
  const int n = g.num_nodes;
  const int L = cfg_.rgcn_layers;
  const auto nrel = static_cast<std::size_t>(cfg_.num_relations);
  cache.g = &g;
  cache.H.resize(static_cast<std::size_t>(L) + 1);
  cache.Z.resize(static_cast<std::size_t>(L));
  cache.M.resize(static_cast<std::size_t>(L));
  if (cfg_.num_bases > 0) cache.relw.resize(static_cast<std::size_t>(L));

  // Embedding: H0[i] = emb_token[token_i] + emb_kind[kind_i].
  Matrix& h0 = cache.H[0];
  h0.resize(n, cfg_.emb_dim);
  const Matrix& et = P(emb_token_).w;
  const Matrix& ek = P(emb_kind_).w;
  for (int i = 0; i < n; ++i) {
    const int tok = g.token[static_cast<std::size_t>(i)];
    const int kind = g.kind[static_cast<std::size_t>(i)];
    PNP_CHECK(tok >= 0 && tok < cfg_.vocab_size);
    const double* trow = et.row(tok);
    const double* krow = ek.row(kind);
    double* out = h0.row(i);
    for (int d = 0; d < cfg_.emb_dim; ++d) out[d] = trow[d] + krow[d];
  }

  for (int l = 0; l < L; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const Matrix& h = cache.H[li];
    const LayerParams& lp = layers_[li];
    const int d_in = h.cols();

    auto& ms = cache.M[li];
    ms.resize(nrel);
    if (cfg_.num_bases > 0) cache.relw[li].resize(nrel);

    // Self-loop term with the bias folded into the kernel's C-tile init:
    // Z = H·W₀ + b, relations then accumulate on top.
    Matrix& z = cache.Z[li];
    z.resize(n, cfg_.hidden);
    gemm_bias(h, P(lp.w0).w, P(lp.bias).w.flat(), z);

    for (int r = 0; r < cfg_.num_relations; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const graph::RelationCsr& csr = g.csr(r);
      const int active = csr.num_active();

      // CSR aggregation, compressed to active targets:
      // M_r[i] = (1/c_{t,r}) Σ_{s∈N_r(t)} h[s] for t = active_dst[i].
      Matrix& mc = ms[ri];
      mc.resize(active, d_in);
      for (int idx = 0; idx < active; ++idx) {
        const auto dst =
            static_cast<std::size_t>(csr.active_dst[static_cast<std::size_t>(idx)]);
        const int b0 = csr.row_offset[dst];
        const int b1 = csr.row_offset[dst + 1];
        const double inv = csr.inv_deg[dst];
        double* out = mc.row(idx);
        const double* hs = h.row(csr.src[static_cast<std::size_t>(b0)]);
        for (int d = 0; d < d_in; ++d) out[d] = inv * hs[d];
        for (int e = b0 + 1; e < b1; ++e) {
          hs = h.row(csr.src[static_cast<std::size_t>(e)]);
          for (int d = 0; d < d_in; ++d) out[d] += inv * hs[d];
        }
      }

      // Z rows of active targets += M_r · W_r, scatter-accumulated by the
      // row-mapped kernel. Basis-combined weights land in the cache so the
      // backward pass reuses them instead of recombining.
      const Matrix& wr =
          cfg_.num_bases > 0
              ? relation_weight(lp, r, cache.relw[li][ri])
              : P(lp.wr[ri]).w;
      if (active == 0) continue;
      gemm_acc_rows(mc, wr, z, csr.active_dst);
    }
    Matrix& hn = cache.H[li + 1];
    hn.resize(n, cfg_.hidden);
    for (std::size_t k = 0; k < z.size(); ++k)
      hn.data()[k] = leaky(z.data()[k], cfg_.leaky_slope);
  }

  // Mean-pool readout over all nodes.
  const Matrix& hl = cache.H[static_cast<std::size_t>(L)];
  cache.readout.assign(static_cast<std::size_t>(cfg_.hidden), 0.0);
  for (int i = 0; i < n; ++i) {
    const double* hi = hl.row(i);
    for (int d = 0; d < cfg_.hidden; ++d)
      cache.readout[static_cast<std::size_t>(d)] += hi[d];
  }
  for (double& v : cache.readout) v /= static_cast<double>(n);
}

RgcnNet::DenseCache RgcnNet::dense_forward(std::span<const double> readout,
                                           std::span<const double> extra) const {
  DenseCache c;
  dense_forward_into(readout, extra, c);
  return c;
}

void RgcnNet::dense_forward_into(std::span<const double> readout,
                                 std::span<const double> extra,
                                 DenseCache& c) const {
  c.u0.resize(readout.size() + extra.size());
  c.z1.resize(static_cast<std::size_t>(cfg_.dense_hidden1));
  c.a1.resize(static_cast<std::size_t>(cfg_.dense_hidden1));
  c.z2.resize(static_cast<std::size_t>(cfg_.dense_hidden2));
  c.a2.resize(static_cast<std::size_t>(cfg_.dense_hidden2));
  c.logits.resize(static_cast<std::size_t>(cfg_.total_logits()));
  dense_forward_spans(readout, extra, c.u0, c.z1, c.a1, c.z2, c.a2, c.logits);
}

void RgcnNet::dense_forward_spans(std::span<const double> readout,
                                  std::span<const double> extra,
                                  std::span<double> u0, std::span<double> z1,
                                  std::span<double> a1, std::span<double> z2,
                                  std::span<double> a2,
                                  std::span<double> logits) const {
  PNP_CHECK(static_cast<int>(readout.size()) == cfg_.hidden);
  PNP_CHECK_MSG(static_cast<int>(extra.size()) == cfg_.extra_features,
                "expected " << cfg_.extra_features << " extra features, got "
                            << extra.size());
  PNP_CHECK(u0.size() == readout.size() + extra.size());
  std::copy(readout.begin(), readout.end(), u0.begin());
  std::copy(extra.begin(), extra.end(), u0.begin() + readout.size());

  auto linear = [&](std::span<const double> in, int w_idx, int b_idx,
                    std::span<double> out) {
    const Matrix& w = P(w_idx).w;
    const Matrix& b = P(b_idx).w;
    PNP_CHECK(static_cast<int>(in.size()) == w.rows());
    PNP_CHECK(static_cast<int>(out.size()) == w.cols());
    for (int j = 0; j < w.cols(); ++j) out[static_cast<std::size_t>(j)] = b(0, j);
    for (int i = 0; i < w.rows(); ++i) {
      const double vi = in[static_cast<std::size_t>(i)];
      if (vi == 0.0) continue;
      const double* wi = w.row(i);
      for (int j = 0; j < w.cols(); ++j)
        out[static_cast<std::size_t>(j)] += vi * wi[j];
    }
  };

  linear(u0, w1_, b1_, z1);
  PNP_CHECK(a1.size() == z1.size() && a2.size() == z2.size());
  for (std::size_t i = 0; i < z1.size(); ++i) a1[i] = relu(z1[i]);
  linear(a1, w2_, b2_, z2);
  for (std::size_t i = 0; i < z2.size(); ++i) a2[i] = relu(z2[i]);
  linear(a2, w3_, b3_, logits);
}

RgcnNet::DenseWeightsF32 RgcnNet::dense_weights_f32() const {
  return DenseWeightsF32{MatrixF::from(P(w1_).w), MatrixF::from(P(b1_).w),
                         MatrixF::from(P(w2_).w), MatrixF::from(P(b2_).w),
                         MatrixF::from(P(w3_).w), MatrixF::from(P(b3_).w)};
}

void RgcnNet::dense_forward_f32(const DenseWeightsF32& w,
                                std::span<const float> u0, std::span<float> h1,
                                std::span<float> h2, std::span<float> logits) {
  gemv_f32(u0, w.w1, w.b1.flat(), h1);
  for (float& v : h1) v = v > 0.0f ? v : 0.0f;
  gemv_f32(h1, w.w2, w.b2.flat(), h2);
  for (float& v : h2) v = v > 0.0f ? v : 0.0f;
  gemv_f32(h2, w.w3, w.b3.flat(), logits);
}

RgcnNet::DenseCache RgcnNet::forward(const graph::GraphTensors& g,
                                     std::span<const double> extra) const {
  const GnnCache gc = encode(g);
  return dense_forward(gc.readout, extra);
}

void RgcnNet::dense_batch_resize(DenseBatch& b, int rows) const {
  b.u0.resize(rows, dense_in());
  b.z1.resize(rows, cfg_.dense_hidden1);
  b.a1.resize(rows, cfg_.dense_hidden1);
  b.z2.resize(rows, cfg_.dense_hidden2);
  b.a2.resize(rows, cfg_.dense_hidden2);
  b.logits.resize(rows, cfg_.total_logits());
  b.dlogits.resize(rows, cfg_.total_logits());
  b.da1.resize(rows, cfg_.dense_hidden1);
  b.da2.resize(rows, cfg_.dense_hidden2);
  b.d_readout.resize(rows, cfg_.hidden);
}

void RgcnNet::dense_forward_batch(DenseBatch& b) const {
  PNP_CHECK(b.u0.cols() == dense_in() && b.logits.rows() == b.u0.rows());
  gemm_bias(b.u0, P(w1_).w, P(b1_).w.flat(), b.z1);
  for (std::size_t i = 0; i < b.z1.size(); ++i)
    b.a1.data()[i] = relu(b.z1.data()[i]);
  gemm_bias(b.a1, P(w2_).w, P(b2_).w.flat(), b.z2);
  for (std::size_t i = 0; i < b.z2.size(); ++i)
    b.a2.data()[i] = relu(b.z2.data()[i]);
  gemm_bias(b.a2, P(w3_).w, P(b3_).w.flat(), b.logits);
}

namespace {

/// din(r, i) = Σ_j w(i, j)·dout(r, j) over the first din.cols() rows of
/// w, summed from 0.0 in j order. The loop is the one the per-member
/// backward always ran (a gemm_nt would round differently), so it
/// compiles, and rounds, the same way.
void backprop_input(const Matrix& w, const Matrix& dout, Matrix& din) {
  const int n_out = w.cols();
  for (int r = 0; r < dout.rows(); ++r) {
    const double* d = dout.row(r);
    double* out = din.row(r);
    for (int i = 0; i < din.cols(); ++i) {
      const double* wi = w.row(i);
      double acc = 0.0;
      for (int j = 0; j < n_out; ++j) acc += wi[j] * d[j];
      out[i] = acc;
    }
  }
}

}  // namespace

template <class GetGrad>
void RgcnNet::dense_backward_impl(DenseBatch& b, bool d_readout,
                                  GetGrad&& G) const {
  PNP_CHECK(b.dlogits.rows() == b.u0.rows() &&
            b.dlogits.cols() == cfg_.total_logits());
  // Weight gradients take the rows in order, each product fused into its
  // accumulator, as one backward call per row would.
  auto weight_grads = [&](const Matrix& in, const Matrix& dout, int w_idx,
                          int b_idx) {
    colsum_acc(dout, G(b_idx).flat());
    gemm_tn_acc(in, dout, G(w_idx));
  };

  weight_grads(b.a2, b.dlogits, w3_, b3_);
  backprop_input(P(w3_).w, b.dlogits, b.da2);
  for (std::size_t i = 0; i < b.da2.size(); ++i)
    b.da2.data()[i] *= relu_grad(b.z2.data()[i]);
  weight_grads(b.a1, b.da2, w2_, b2_);
  backprop_input(P(w2_).w, b.da2, b.da1);
  for (std::size_t i = 0; i < b.da1.size(); ++i)
    b.da1.data()[i] *= relu_grad(b.z1.data()[i]);
  weight_grads(b.u0, b.da1, w1_, b1_);
  // The first cfg_.hidden entries of u0 are the readout.
  if (d_readout) backprop_input(P(w1_).w, b.da1, b.d_readout);
}

void RgcnNet::dense_backward(DenseBatch& b) {
  dense_backward_impl(b, !gnn_frozen_,
                      [this](int idx) -> Matrix& { return P(idx).g; });
}

void RgcnNet::dense_backward_into(DenseBatch& b, GradBuffer& grads) const {
  PNP_CHECK(grads.size() == params_.size());
  dense_backward_impl(b, !gnn_frozen_, [&grads](int idx) -> Matrix& {
    return grads[static_cast<std::size_t>(idx)];
  });
}

RgcnNet::DenseBatch RgcnNet::one_row_batch(
    const DenseCache& c, std::span<const double> dlogits) const {
  PNP_CHECK(static_cast<int>(dlogits.size()) == cfg_.total_logits());
  DenseBatch b;
  dense_batch_resize(b, 1);
  auto put = [](const std::vector<double>& v, Matrix& m) {
    PNP_CHECK(v.size() == m.size());
    std::copy(v.begin(), v.end(), m.data());
  };
  put(c.u0, b.u0);
  put(c.z1, b.z1);
  put(c.a1, b.a1);
  put(c.z2, b.z2);
  put(c.a2, b.a2);
  std::copy(dlogits.begin(), dlogits.end(), b.dlogits.data());
  return b;
}

std::vector<double> RgcnNet::dense_backward(const DenseCache& c,
                                            std::span<const double> dlogits) {
  DenseBatch b = one_row_batch(c, dlogits);
  dense_backward_impl(b, true,
                      [this](int idx) -> Matrix& { return P(idx).g; });
  return {b.d_readout.flat().begin(), b.d_readout.flat().end()};
}

std::vector<double> RgcnNet::dense_backward_into(
    const DenseCache& c, std::span<const double> dlogits,
    GradBuffer& grads) const {
  PNP_CHECK(grads.size() == params_.size());
  DenseBatch b = one_row_batch(c, dlogits);
  dense_backward_impl(b, true, [&grads](int idx) -> Matrix& {
    return grads[static_cast<std::size_t>(idx)];
  });
  return {b.d_readout.flat().begin(), b.d_readout.flat().end()};
}

template <class GetGrad>
void RgcnNet::gnn_backward_impl(const GnnCache& cache,
                                std::span<const double> d_readout,
                                BackwardWs& ws, GetGrad&& G) const {
  if (gnn_frozen_) return;
  PNP_CHECK(cache.g != nullptr);
  PNP_CHECK(static_cast<int>(d_readout.size()) == cfg_.hidden);
  const graph::GraphTensors& g = *cache.g;
  const int n = g.num_nodes;

  // Readout backward: every node receives d_readout / n.
  Matrix* dh = &ws.dh;
  Matrix* dh_prev = &ws.dh_prev;
  dh->resize(n, cfg_.hidden);
  for (int i = 0; i < n; ++i) {
    double* di = dh->row(i);
    for (int d = 0; d < cfg_.hidden; ++d)
      di[d] = d_readout[static_cast<std::size_t>(d)] / static_cast<double>(n);
  }

  for (int l = cfg_.rgcn_layers - 1; l >= 0; --l) {
    const auto li = static_cast<std::size_t>(l);
    const LayerParams& lp = layers_[li];
    const Matrix& z = cache.Z[li];
    const Matrix& h_in = cache.H[li];
    const auto& ms = cache.M[li];
    const int d_in = h_in.cols();

    // Through the activation.
    Matrix& dz = ws.dz;
    dz.resize(n, cfg_.hidden);
    for (std::size_t k = 0; k < z.size(); ++k)
      dz.data()[k] = dh->data()[k] * leaky_grad(z.data()[k], cfg_.leaky_slope);

    // Bias and self-weight.
    colsum_acc(dz, G(lp.bias).flat());
    gemm_tn_acc(h_in, dz, G(lp.w0));

    dh_prev->resize(n, d_in);
    gemm_nt(dz, P(lp.w0).w, *dh_prev);

    for (int r = 0; r < cfg_.num_relations; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const graph::RelationCsr& csr = g.csr(r);
      const int active = csr.num_active();
      const Matrix& mc = ms[ri];
      PNP_CHECK_MSG(mc.rows() == active,
                    "stale GnnCache: graph edges changed since encode");

      // All relation kernels run on compressed rows, reading/writing dz at
      // the relation's active targets through the row maps directly — no
      // gathered copies.
      const Matrix* wr = nullptr;
      if (cfg_.num_bases == 0) {
        gemm_tn_acc_rows(mc, dz, csr.active_dst, G(lp.wr[ri]));
        wr = &P(lp.wr[ri]).w;
      } else {
        // Basis mode: G_r = M_rᵀ·dz feeds both coef and basis grads; the
        // combined W_r was computed at encode time and shared here.
        Matrix& gr = ws.gr;
        gr.resize(d_in, cfg_.hidden);
        gr.zero();
        gemm_tn_acc_rows(mc, dz, csr.active_dst, gr);
        Matrix& coef_g = G(lp.coef);
        for (int b = 0; b < cfg_.num_bases; ++b) {
          const auto bi = static_cast<std::size_t>(b);
          coef_g(r, b) += frob_inner(gr, P(lp.basis[bi]).w);
          G(lp.basis[bi]).add_scaled(gr, P(lp.coef).w(r, b));
        }
        wr = &cache.relw[li][ri];
      }
      if (active == 0) continue;

      // dM_r = dz·W_rᵀ on compressed rows, then scatter back through the
      // normalized aggregation: dH[s] += (1/c_{t,r})·dM_r[t].
      Matrix& dmc = ws.dmc;
      dmc.resize(active, d_in);
      gemm_nt_rows(dz, csr.active_dst, *wr, dmc);
      for (int idx = 0; idx < active; ++idx) {
        const auto dst = static_cast<std::size_t>(
            csr.active_dst[static_cast<std::size_t>(idx)]);
        const double inv = csr.inv_deg[dst];
        double* dmt = dmc.row(idx);
        for (int d = 0; d < d_in; ++d) dmt[d] *= inv;
        const int b0 = csr.row_offset[dst];
        const int b1 = csr.row_offset[dst + 1];
        for (int e = b0; e < b1; ++e) {
          double* dhs = dh_prev->row(csr.src[static_cast<std::size_t>(e)]);
          for (int d = 0; d < d_in; ++d) dhs[d] += dmt[d];
        }
      }
    }
    std::swap(dh, dh_prev);
  }

  // Embedding backward: scatter rows into the two tables.
  Matrix& gt_m = G(emb_token_);
  Matrix& gk_m = G(emb_kind_);
  for (int i = 0; i < n; ++i) {
    const int tok = g.token[static_cast<std::size_t>(i)];
    const int kind = g.kind[static_cast<std::size_t>(i)];
    const double* di = dh->row(i);
    double* gt = gt_m.row(tok);
    double* gk = gk_m.row(kind);
    for (int d = 0; d < cfg_.emb_dim; ++d) {
      gt[d] += di[d];
      gk[d] += di[d];
    }
  }
}

void RgcnNet::gnn_backward(const GnnCache& cache,
                           std::span<const double> d_readout) {
  gnn_backward_impl(cache, d_readout, bws_,
                    [this](int idx) -> Matrix& { return P(idx).g; });
}

void RgcnNet::gnn_backward_into(const GnnCache& cache,
                                std::span<const double> d_readout,
                                GradBuffer& grads, BackwardWs& ws) const {
  PNP_CHECK(grads.size() == params_.size());
  gnn_backward_impl(cache, d_readout, ws, [&grads](int idx) -> Matrix& {
    return grads[static_cast<std::size_t>(idx)];
  });
}

RgcnNet::GradBuffer RgcnNet::make_grad_buffer() const {
  GradBuffer gb;
  gb.reserve(params_.size());
  for (const auto& p : params_)
    gb.push_back(Matrix::zeros(p->w.rows(), p->w.cols()));
  return gb;
}

void RgcnNet::add_grad_buffer(const GradBuffer& gb) {
  PNP_CHECK(gb.size() == params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (params_[i]->trainable) params_[i]->g.add_scaled(gb[i], 1.0);
}

std::span<const double> RgcnNet::head_logits(const DenseCache& cache,
                                             int head) const {
  PNP_CHECK(head >= 0 && head < static_cast<int>(cfg_.head_sizes.size()));
  const int off = head_offset_[static_cast<std::size_t>(head)];
  const int len = cfg_.head_sizes[static_cast<std::size_t>(head)];
  return std::span<const double>(cache.logits)
      .subspan(static_cast<std::size_t>(off), static_cast<std::size_t>(len));
}

int RgcnNet::head_offset(int head) const {
  PNP_CHECK(head >= 0 && head < static_cast<int>(head_offset_.size()));
  return head_offset_[static_cast<std::size_t>(head)];
}

std::vector<Param*> RgcnNet::params() {
  std::vector<Param*> out;
  out.reserve(params_.size());
  for (auto& p : params_) out.push_back(p.get());
  return out;
}

std::size_t RgcnNet::num_weights(bool trainable_only) const {
  std::size_t n = 0;
  for (const auto& p : params_)
    if (!trainable_only || p->trainable) n += p->w.size();
  return n;
}

void RgcnNet::zero_grad() {
  for (auto& p : params_)
    if (p->trainable) p->g.zero();
}

void RgcnNet::set_gnn_frozen(bool frozen) {
  gnn_frozen_ = frozen;
  // zero_grad() skips frozen parameters, so a toggled one starts clean.
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (is_gnn_param_[i]) {
      params_[i]->trainable = !frozen;
      params_[i]->g.zero();
    }
}

StateDict RgcnNet::state_dict() const {
  StateDict sd;
  for (const auto& p : params_) {
    std::vector<double> v(p->w.flat().begin(), p->w.flat().end());
    sd.put(p->name, std::move(v));
  }
  return sd;
}

void RgcnNet::load_state_dict(const StateDict& sd, bool load_gnn_only) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    if (load_gnn_only && !is_gnn_param_[i]) continue;
    const auto& v = sd.get(p.name);
    PNP_CHECK_MSG(v.size() == p.w.size(),
                  "state entry '" << p.name << "' has " << v.size()
                                  << " values, expected " << p.w.size());
    std::copy(v.begin(), v.end(), p.w.data());
  }
}

}  // namespace pnp::nn
