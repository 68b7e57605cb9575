#pragma once

/// \file rgcn_net.hpp
/// The PnP tuner's neural network (paper §III-D1, Table II):
///
///   token/kind embedding → 4 × RGCN (LeakyReLU) → mean-pool readout →
///   [⊕ extra features] → 3 × fully-connected (ReLU) → classification heads
///
/// RGCN layer (Schlichtkrull et al., ESWC'18):
///   h'_i = σ( W₀ h_i + Σ_r Σ_{j∈N_r(i)} (1/c_{i,r}) W_r h_j + b )
/// with c_{i,r} = |N_r(i)| and one relation per (flow type, direction).
/// Optional basis decomposition W_r = Σ_b a_{rb} V_b regularizes the
/// per-relation weights (ablation: PnpModelConfig in core).
///
/// The "extra features" slot carries the dynamic variant's inputs: the five
/// normalized PAPI-like counters and/or the normalized power cap
/// (paper §IV-B).
///
/// Backward passes are hand-derived and covered by finite-difference
/// gradient checks in tests/nn_gradcheck_test.cpp.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "graph/flow_graph.hpp"
#include "nn/matrix.hpp"
#include "nn/optim.hpp"

namespace pnp::nn {

struct RgcnNetConfig {
  int vocab_size = 0;  ///< required: graph::Vocabulary::size()
  int emb_dim = 16;
  int rgcn_layers = 4;     ///< Table II: RGCN (4)
  int hidden = 20;         ///< RGCN output width
  int dense_hidden1 = 32;  ///< Table II: FCNN (3) — two hidden + logits
  int dense_hidden2 = 24;
  std::vector<int> head_sizes;  ///< e.g. {6,3,7} threads/schedule/chunk
  int extra_features = 0;       ///< appended to the readout vector
  int num_relations = graph::kNumModelRelations;
  int num_bases = 0;  ///< 0 = full per-relation weights, >0 = basis decomp
  double leaky_slope = 0.01;
  std::uint64_t seed = 42;

  int total_logits() const {
    int s = 0;
    for (int h : head_sizes) s += h;
    return s;
  }
};

class RgcnNet {
 public:
  explicit RgcnNet(RgcnNetConfig cfg);

  /// Cached intermediate state of one GNN forward pass. Doubles as the
  /// forward workspace: encode_into() reuses every buffer in here, so
  /// repeated encodes of same-shaped graphs do zero heap allocation.
  struct GnnCache {
    const graph::GraphTensors* g = nullptr;
    /// H[0] = embedding output … H[L] = final node features (all N×d).
    std::vector<Matrix> H;
    /// Pre-activation of each layer (Z[l] for layer l, 0-based).
    std::vector<Matrix> Z;
    /// Per-layer, per-relation normalized aggregates in CSR-compressed
    /// form: row i of M[l][r] is Â_r·H for the i-th *active* target of
    /// relation r (see graph::RelationCsr::active_dst) — zero rows are
    /// never materialized.
    std::vector<std::vector<Matrix>> M;
    /// Basis mode only: the combined relation weights W_r = Σ_b a_rb·V_b
    /// of each layer, computed once at encode time and shared with the
    /// backward pass (valid for the weights as of that encode).
    std::vector<std::vector<Matrix>> relw;
    /// Mean-pooled readout (length = hidden) — all the dense stage reads.
    std::vector<double> readout;
  };

  /// Cached state of one dense-head forward pass.
  struct DenseCache {
    std::vector<double> u0;      ///< readout ⊕ extra
    std::vector<double> z1, a1;  ///< dense layer 1 pre/post activation
    std::vector<double> z2, a2;  ///< dense layer 2 pre/post activation
    std::vector<double> logits;  ///< concatenated head logits
  };

  /// Dense-stage state of a batch of rows, one per sample member: the
  /// forward activations, the caller's d(loss)/d(logits) and the backward
  /// scratch. Reused across calls (Matrix::resize keeps the allocation),
  /// so steady-state training allocates nothing here.
  struct DenseBatch {
    Matrix u0;           ///< readout ⊕ extra, filled by the caller
    Matrix z1, a1;       ///< dense layer 1 pre/post activation
    Matrix z2, a2;       ///< dense layer 2 pre/post activation
    Matrix logits;       ///< concatenated head logits
    Matrix dlogits;      ///< d(loss)/d(logits), filled by the caller
    Matrix da1, da2;     ///< backward: d(loss)/d(a1), d(loss)/d(a2)
    Matrix d_readout;    ///< backward: d(loss)/d(readout) per row
  };

  /// Scratch matrices for one GNN backward pass; reused across calls so
  /// steady-state training allocates nothing.
  struct BackwardWs {
    Matrix dh, dh_prev;  ///< d(loss)/dH flowing down the layers
    Matrix dz;           ///< activation-gradient of the current layer
    Matrix dmc;          ///< d(loss)/dM_r, compressed rows
    Matrix gr;           ///< basis mode: M_rᵀ·dz shared by coef/basis grads
  };

  /// One gradient matrix per parameter (index-parallel to params()) —
  /// the per-thread accumulation target of the parallel trainer.
  using GradBuffer = std::vector<Matrix>;
  GradBuffer make_grad_buffer() const;
  /// params[i].g += gb[i] for every trainable parameter (the optimizer
  /// reads no other gradient).
  void add_grad_buffer(const GradBuffer& gb);

  /// Run the GNN over one graph (no gradient effects).
  GnnCache encode(const graph::GraphTensors& g) const;

  /// As encode(), but reusing `cache`'s buffers (zero allocation when the
  /// shapes already match). Safe to call concurrently from several threads
  /// with distinct caches, provided the graph's CSR form has been built
  /// (graph::GraphTensors::finalize()).
  void encode_into(const graph::GraphTensors& g, GnnCache& cache) const;

  /// Run the dense classifier on a readout (+ extra features).
  DenseCache dense_forward(std::span<const double> readout,
                           std::span<const double> extra) const;

  /// As dense_forward(), but reusing `cache`'s buffers.
  void dense_forward_into(std::span<const double> readout,
                          std::span<const double> extra,
                          DenseCache& cache) const;

  /// As dense_forward_into(), but writing into caller-provided buffers of
  /// exactly the right sizes (u0 = dense_in(), z1/a1 = dense_hidden1,
  /// z2/a2 = dense_hidden2, logits = total_logits()). This is the shared
  /// implementation — dense_forward_into() delegates here, so the
  /// arena-backed serving path is bit-identical to the allocation path by
  /// construction.
  void dense_forward_spans(std::span<const double> readout,
                           std::span<const double> extra, std::span<double> u0,
                           std::span<double> z1, std::span<double> a1,
                           std::span<double> z2, std::span<double> a2,
                           std::span<double> logits) const;

  /// The dense stage's weights down-converted once (at load/publish) for
  /// the f32 inference tier.
  struct DenseWeightsF32 {
    MatrixF w1, b1, w2, b2, w3, b3;
  };
  DenseWeightsF32 dense_weights_f32() const;

  /// f32-tier dense forward over pre-converted weights: h1 = relu(u0·w1+b1),
  /// h2 = relu(h1·w2+b2), logits = h2·w3+b3. `u0` is the f32 readout ⊕
  /// extra features, filled by the caller; h1/h2 sizes are dense_hidden1/2.
  /// ReLU runs in place so the f32 tier needs no separate pre-activation
  /// buffers (inference only — no backward pass).
  static void dense_forward_f32(const DenseWeightsF32& w,
                                std::span<const float> u0, std::span<float> h1,
                                std::span<float> h2, std::span<float> logits);

  /// Size every matrix of `b` for `rows` rows. The caller then fills
  /// u0 (one row per member) before dense_forward_batch(), and dlogits
  /// before dense_backward().
  void dense_batch_resize(DenseBatch& b, int rows) const;

  /// The dense stage over all rows of `b` at once: z1 = u0·w1 + b1,
  /// a1 = relu(z1), and so on (three gemm_bias calls). Each row equals
  /// dense_forward_spans() on that row bit for bit (training only;
  /// serving keeps the per-query form).
  void dense_forward_batch(DenseBatch& b) const;

  /// Convenience: encode + dense in one call.
  DenseCache forward(const graph::GraphTensors& g,
                     std::span<const double> extra) const;

  /// Backward of dense_forward_batch() for b.dlogits: accumulates the
  /// dense weight gradients row by row in row order, which is the order
  /// one dense_backward() call per row would accumulate in. Fills
  /// b.d_readout unless the GNN is frozen (nothing would read it).
  void dense_backward(DenseBatch& b);

  /// As dense_backward(DenseBatch&), but accumulating into `grads`
  /// instead of the parameters' own gradients (thread-safe with distinct
  /// buffers and batches).
  void dense_backward_into(DenseBatch& b, GradBuffer& grads) const;

  /// One-row form of dense_backward(DenseBatch&): accumulates dense-layer
  /// gradients for d(loss)/d(logits) and returns d(loss)/d(readout) for
  /// the caller to feed into gnn_backward.
  std::vector<double> dense_backward(const DenseCache& cache,
                                     std::span<const double> dlogits);

  /// As dense_backward(), but accumulating into `grads` instead of the
  /// parameters' own gradients (thread-safe with distinct buffers).
  std::vector<double> dense_backward_into(const DenseCache& cache,
                                          std::span<const double> dlogits,
                                          GradBuffer& grads) const;

  /// Accumulate GNN gradients for d(loss)/d(readout).
  void gnn_backward(const GnnCache& cache, std::span<const double> d_readout);

  /// As gnn_backward(), but accumulating into `grads` with caller-owned
  /// scratch (thread-safe with distinct buffers/workspaces).
  void gnn_backward_into(const GnnCache& cache,
                         std::span<const double> d_readout, GradBuffer& grads,
                         BackwardWs& ws) const;

  /// View of one head's logits inside a DenseCache.
  std::span<const double> head_logits(const DenseCache& cache, int head) const;

  /// Offset of head `head`'s logits inside the concatenated logits vector
  /// (for span/arena-backed callers that slice logits themselves).
  int head_offset(int head) const;

  /// Dense-stage input width: hidden + extra_features.
  int dense_in() const { return cfg_.hidden + cfg_.extra_features; }

  const RgcnNetConfig& config() const { return cfg_; }

  /// All parameters (stable addresses for the optimizer).
  std::vector<Param*> params();

  /// Number of scalar weights (trainable only, or all).
  std::size_t num_weights(bool trainable_only = false) const;

  /// Zero the gradients of the trainable parameters. A frozen
  /// parameter's gradient is never read, so it is not swept; freezing or
  /// unfreezing zeroes it once.
  void zero_grad();

  /// Freeze/unfreeze the GNN stage (embedding + RGCN layers) — the paper's
  /// transfer-learning step retrains only the dense layers (§IV-B).
  void set_gnn_frozen(bool frozen);
  bool gnn_frozen() const { return gnn_frozen_; }

  /// Persistence. `load_gnn_only` restores just the embedding + RGCN
  /// weights (cross-machine transfer where the dense head is re-learned).
  StateDict state_dict() const;
  void load_state_dict(const StateDict& sd, bool load_gnn_only = false);

 private:
  // Parameter handles (indices into params_).
  struct LayerParams {
    int w0 = -1;
    int bias = -1;
    std::vector<int> wr;     // full mode: one per relation
    std::vector<int> basis;  // basis mode: num_bases matrices
    int coef = -1;           // basis mode: (relations × bases)
  };

  Param& P(int idx) { return *params_[static_cast<std::size_t>(idx)]; }
  const Param& P(int idx) const { return *params_[static_cast<std::size_t>(idx)]; }
  int add_param(const std::string& name, Matrix m, bool gnn_stage);

  /// Effective relation weight: a reference to the parameter itself in
  /// full mode, or `scratch` filled with the basis combination.
  const Matrix& relation_weight(const LayerParams& lp, int relation,
                                Matrix& scratch) const;

  /// A one-row DenseBatch holding `cache`'s activations and `dlogits`.
  DenseBatch one_row_batch(const DenseCache& cache,
                           std::span<const double> dlogits) const;

  template <class GetGrad>
  void dense_backward_impl(DenseBatch& b, bool d_readout, GetGrad&& G) const;
  template <class GetGrad>
  void gnn_backward_impl(const GnnCache& cache,
                         std::span<const double> d_readout, BackwardWs& ws,
                         GetGrad&& G) const;

  RgcnNetConfig cfg_;
  std::vector<std::unique_ptr<Param>> params_;
  std::vector<bool> is_gnn_param_;
  bool gnn_frozen_ = false;

  int emb_token_ = -1;
  int emb_kind_ = -1;
  std::vector<LayerParams> layers_;
  int w1_ = -1, b1_ = -1, w2_ = -1, b2_ = -1, w3_ = -1, b3_ = -1;
  std::vector<int> head_offset_;

  /// Default backward scratch for the sequential gnn_backward() overload.
  BackwardWs bws_;
};

}  // namespace pnp::nn
