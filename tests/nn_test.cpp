/// Unit tests for the NN substrate: matrix kernels, losses, optimizers,
/// serialization, and end-to-end trainability on toy tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optim.hpp"
#include "nn/rgcn_net.hpp"
#include "nn/trainer.hpp"

namespace pnp::nn {
namespace {

TEST(Matrix, ShapeAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, XavierWithinBounds) {
  Rng rng(3);
  const Matrix m = Matrix::xavier(10, 20, rng);
  const double a = std::sqrt(6.0 / 30.0);
  for (double v : m.flat()) {
    EXPECT_GE(v, -a);
    EXPECT_LE(v, a);
  }
}

TEST(Matrix, GemmAgainstHandComputed) {
  Matrix a(2, 3), b(3, 2), c(2, 2);
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  gemm_acc(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
  // Accumulation semantics.
  gemm_acc(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 116.0);
}

TEST(Matrix, TransposedGemmsAgree) {
  Rng rng(11);
  Matrix a = Matrix::xavier(4, 3, rng);
  Matrix b = Matrix::xavier(4, 5, rng);
  // a^T b via gemm_tn vs explicit transpose + gemm.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j) at(j, i) = a(i, j);
  Matrix c1(3, 5), c2(3, 5);
  gemm_tn_acc(a, b, c1);
  gemm_acc(at, b, c2);
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-12);
}

TEST(Matrix, GemmNtAgrees) {
  Rng rng(13);
  Matrix a = Matrix::xavier(4, 3, rng);
  Matrix b = Matrix::xavier(5, 3, rng);
  Matrix bt(3, 5);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 3; ++j) bt(j, i) = b(i, j);
  Matrix c1(4, 5), c2(4, 5);
  gemm_nt_acc(a, b, c1);
  gemm_acc(a, bt, c2);
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-12);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(gemm_acc(a, b, c), Error);
  EXPECT_THROW(a.add_scaled(b, 1.0), Error);
}

TEST(Matrix, BiasAndColsum) {
  Matrix m(2, 3);
  m.fill(1.0);
  std::vector<double> bias{1.0, 2.0, 3.0};
  add_bias_rows(m, bias);
  EXPECT_DOUBLE_EQ(m(0, 2), 4.0);
  std::vector<double> cs(3, 0.0);
  colsum_acc(m, cs);
  EXPECT_DOUBLE_EQ(cs[0], 4.0);
  EXPECT_DOUBLE_EQ(cs[2], 8.0);
}

TEST(Loss, SoftmaxSumsToOne) {
  std::vector<double> logits{1.0, 2.0, 3.0};
  const auto p = softmax(logits);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
}

TEST(Loss, CrossEntropyMatchesClosedForm) {
  std::vector<double> logits{0.0, 0.0};
  std::vector<double> grad(2);
  const double l = softmax_cross_entropy(logits, 0, grad);
  EXPECT_NEAR(l, std::log(2.0), 1e-12);
  EXPECT_NEAR(grad[0], -0.5, 1e-12);
  EXPECT_NEAR(grad[1], 0.5, 1e-12);
}

TEST(Loss, CrossEntropyGradIsFiniteDifferenceCorrect) {
  std::vector<double> logits{0.3, -1.2, 0.7, 2.0};
  std::vector<double> grad(4);
  softmax_cross_entropy(logits, 2, grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    std::vector<double> dummy(4);
    const double fd = (softmax_cross_entropy(lp, 2, dummy) -
                       softmax_cross_entropy(lm, 2, dummy)) /
                      (2 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-6);
  }
}

TEST(Loss, NumericallyStableForHugeLogits) {
  std::vector<double> logits{1000.0, -1000.0};
  std::vector<double> grad(2);
  const double l = softmax_cross_entropy(logits, 0, grad);
  EXPECT_NEAR(l, 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(grad[1]));
}

TEST(Optim, SgdStepsDownhill) {
  // Minimize f(w) = (w-3)^2 by hand-feeding gradients.
  Param p("w", Matrix::zeros(1, 1));
  std::vector<Param*> ps{&p};
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    p.g(0, 0) = 2.0 * (p.w(0, 0) - 3.0);
    opt.step(ps);
    p.g.zero();
  }
  EXPECT_NEAR(p.w(0, 0), 3.0, 1e-6);
}

TEST(Optim, SgdMomentumConvergesFasterOnRavine) {
  // On an ill-conditioned quadratic, momentum needs fewer steps than
  // plain SGD with the same learning rate.
  auto run = [](double momentum) {
    Param p("w", Matrix::zeros(1, 2));
    p.w(0, 0) = 5.0;
    p.w(0, 1) = 5.0;
    std::vector<Param*> ps{&p};
    Sgd opt(0.02, momentum);
    int steps = 0;
    while (steps < 5000) {
      p.g(0, 0) = 2.0 * 10.0 * p.w(0, 0);  // steep axis
      p.g(0, 1) = 2.0 * 0.5 * p.w(0, 1);   // shallow axis
      opt.step(ps);
      p.g.zero();
      ++steps;
      if (std::abs(p.w(0, 0)) < 1e-3 && std::abs(p.w(0, 1)) < 1e-3) break;
    }
    return steps;
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Param p("w", Matrix::zeros(1, 2));
  std::vector<Param*> ps{&p};
  auto opt = Adam::plain(0.05);
  for (int i = 0; i < 600; ++i) {
    p.g(0, 0) = 2.0 * (p.w(0, 0) - 1.0);
    p.g(0, 1) = 2.0 * (p.w(0, 1) + 2.0);
    opt->step(ps);
    p.g.zero();
  }
  EXPECT_NEAR(p.w(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(p.w(0, 1), -2.0, 1e-3);
}

TEST(Optim, AdamWDecaysWeightsWithoutGradient) {
  Param p("w", Matrix::zeros(1, 1));
  p.w(0, 0) = 1.0;
  std::vector<Param*> ps{&p};
  auto opt = Adam::adamw_amsgrad(1e-3, 0.5);
  for (int i = 0; i < 10; ++i) {
    p.g.zero();  // zero gradient: only decoupled decay acts
    opt->step(ps);
  }
  EXPECT_LT(p.w(0, 0), 1.0);
  EXPECT_GT(p.w(0, 0), 0.9);  // ~ (1 - lr*wd)^10
}

TEST(Optim, FrozenParamsUntouched) {
  Param p("w", Matrix::zeros(1, 1));
  p.trainable = false;
  p.g(0, 0) = 100.0;
  std::vector<Param*> ps{&p};
  auto opt = Adam::plain(0.1);
  opt->step(ps);
  EXPECT_DOUBLE_EQ(p.w(0, 0), 0.0);
}

/// The textbook Adam loop, config branches inside the element loop: the
/// reference the branch-free, vectorized update must match bit for bit.
void reference_adam_step(const Adam::Config& c, std::int64_t t, Matrix& w,
                         const Matrix& g, Matrix& m, Matrix& v, Matrix& vh) {
  const double bc1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
  for (std::size_t k = 0; k < w.size(); ++k) {
    double grad = g.data()[k];
    if (!c.decoupled_weight_decay && c.weight_decay > 0.0)
      grad += c.weight_decay * w.data()[k];
    m.data()[k] = c.beta1 * m.data()[k] + (1.0 - c.beta1) * grad;
    v.data()[k] = c.beta2 * v.data()[k] + (1.0 - c.beta2) * grad * grad;
    const double mhat = m.data()[k] / bc1;
    double vcur = v.data()[k] / bc2;
    if (c.amsgrad) {
      vh.data()[k] = std::max(vh.data()[k], vcur);
      vcur = vh.data()[k];
    }
    if (c.decoupled_weight_decay && c.weight_decay > 0.0)
      w.data()[k] -= c.lr * c.weight_decay * w.data()[k];
    w.data()[k] -= c.lr * mhat / (std::sqrt(vcur) + c.eps);
  }
}

TEST(Optim, VectorizedAdamMatchesScalarReference) {
  Adam::Config plain;
  plain.lr = 1e-3;
  Adam::Config adamw = plain;  // Adam::adamw_amsgrad()
  adamw.weight_decay = 1e-2;
  adamw.decoupled_weight_decay = true;
  adamw.amsgrad = true;
  Adam::Config l2 = plain;
  l2.weight_decay = 1e-2;
  Adam::Config ams = plain;
  ams.amsgrad = true;
  for (const Adam::Config& cfg : {plain, adamw, l2, ams}) {
    Rng rng(3);
    // Odd sizes leave SIMD tails; the frozen one must be skipped.
    std::vector<Param> ps;
    ps.emplace_back("a", Matrix::xavier(7, 13, rng));
    ps.emplace_back("frozen", Matrix::xavier(3, 3, rng));
    ps.emplace_back("b", Matrix::xavier(1, 5, rng));
    ps[1].trainable = false;
    std::vector<Param*> ptrs;
    for (Param& p : ps) ptrs.push_back(&p);
    std::vector<Matrix> w, m, v, vh;
    for (const Param& p : ps) {
      w.push_back(p.w);
      m.push_back(Matrix::zeros(p.w.rows(), p.w.cols()));
      v.push_back(m.back());
      vh.push_back(m.back());
    }
    Adam opt(cfg);
    for (std::int64_t t = 1; t <= 200; ++t) {
      for (Param& p : ps)
        for (double& g : p.g.flat())
          g = rng.uniform() < 0.1 ? 0.0 : rng.uniform(-2.0, 2.0);
      opt.step(ptrs);
      for (std::size_t i = 0; i < ps.size(); ++i)
        if (ps[i].trainable)
          reference_adam_step(cfg, t, w[i], ps[i].g, m[i], v[i], vh[i]);
    }
    for (std::size_t i = 0; i < ps.size(); ++i)
      EXPECT_TRUE(std::equal(w[i].flat().begin(), w[i].flat().end(),
                             ps[i].w.flat().begin()))
          << ps[i].name << " (amsgrad " << cfg.amsgrad << ", decay "
          << cfg.weight_decay << ", decoupled "
          << cfg.decoupled_weight_decay << ")";
  }
}

TEST(Optim, Names) {
  EXPECT_EQ(Adam::plain(1e-3)->name(), "adam");
  EXPECT_EQ(Adam::adamw_amsgrad()->name(), "adamw");
  EXPECT_EQ(Sgd(0.1).name(), "sgd");
}

// ---------------------------------------------------------------------------
// RgcnNet structural tests (gradient correctness lives in
// nn_gradcheck_test.cpp).
// ---------------------------------------------------------------------------

graph::GraphTensors toy_graph(int num_nodes, int vocab_size,
                              std::uint64_t seed) {
  graph::GraphTensors g;
  g.name = "toy";
  g.num_nodes = num_nodes;
  Rng rng(seed);
  for (int i = 0; i < num_nodes; ++i) {
    g.token.push_back(
        static_cast<int>(rng.uniform_index(static_cast<std::size_t>(vocab_size))));
    g.kind.push_back(static_cast<int>(rng.uniform_index(3)));
  }
  for (int rel = 0; rel < graph::kNumEdgeRelations; ++rel) {
    for (int e = 0; e < num_nodes; ++e) {
      const int s = static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(num_nodes)));
      const int d = static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(num_nodes)));
      g.rel_edges[static_cast<std::size_t>(2 * rel)].emplace_back(s, d);
      g.rel_edges[static_cast<std::size_t>(2 * rel + 1)].emplace_back(d, s);
    }
  }
  return g;
}

RgcnNetConfig toy_config(int vocab_size) {
  RgcnNetConfig c;
  c.vocab_size = vocab_size;
  c.emb_dim = 6;
  c.rgcn_layers = 2;
  c.hidden = 7;
  c.dense_hidden1 = 8;
  c.dense_hidden2 = 5;
  c.head_sizes = {3, 2};
  c.extra_features = 2;
  c.seed = 99;
  return c;
}

TEST(RgcnNet, ForwardShapes) {
  RgcnNet net(toy_config(10));
  const auto g = toy_graph(9, 10, 5);
  const auto gc = net.encode(g);
  EXPECT_EQ(static_cast<int>(gc.readout.size()), 7);
  EXPECT_EQ(gc.H.size(), 3u);  // emb + 2 layers
  const std::vector<double> extra{0.5, -0.5};
  const auto dc = net.dense_forward(gc.readout, extra);
  EXPECT_EQ(static_cast<int>(dc.logits.size()), 5);
  EXPECT_EQ(net.head_logits(dc, 0).size(), 3u);
  EXPECT_EQ(net.head_logits(dc, 1).size(), 2u);
}

TEST(RgcnNet, DeterministicForward) {
  RgcnNet a(toy_config(10)), b(toy_config(10));
  const auto g = toy_graph(9, 10, 5);
  const std::vector<double> extra{0.1, 0.2};
  const auto da = a.forward(g, extra);
  const auto db = b.forward(g, extra);
  for (std::size_t i = 0; i < da.logits.size(); ++i)
    EXPECT_DOUBLE_EQ(da.logits[i], db.logits[i]);
}

TEST(RgcnNet, ExtraFeaturesChangeOutput) {
  RgcnNet net(toy_config(10));
  const auto g = toy_graph(9, 10, 5);
  const auto d1 = net.forward(g, std::vector<double>{0.0, 0.0});
  const auto d2 = net.forward(g, std::vector<double>{5.0, -3.0});
  bool differ = false;
  for (std::size_t i = 0; i < d1.logits.size(); ++i)
    if (std::abs(d1.logits[i] - d2.logits[i]) > 1e-9) differ = true;
  EXPECT_TRUE(differ);
}

TEST(RgcnNet, StateDictRoundTrip) {
  RgcnNet a(toy_config(10));
  auto cfg_b = toy_config(10);
  cfg_b.seed = 123456;  // different init
  RgcnNet b(cfg_b);
  const auto g = toy_graph(9, 10, 5);
  const std::vector<double> extra{0.1, 0.2};
  b.load_state_dict(a.state_dict());
  const auto da = a.forward(g, extra);
  const auto db = b.forward(g, extra);
  for (std::size_t i = 0; i < da.logits.size(); ++i)
    EXPECT_DOUBLE_EQ(da.logits[i], db.logits[i]);
}

TEST(RgcnNet, GnnOnlyLoadPreservesDense) {
  RgcnNet a(toy_config(10));
  auto cfg_b = toy_config(10);
  cfg_b.seed = 4242;
  RgcnNet b(cfg_b);
  const auto before = b.state_dict();
  b.load_state_dict(a.state_dict(), /*load_gnn_only=*/true);
  const auto after = b.state_dict();
  // GNN params now equal a's; dense params unchanged from b's init.
  EXPECT_EQ(after.get("emb.token"), a.state_dict().get("emb.token"));
  EXPECT_EQ(after.get("dense.w1"), before.get("dense.w1"));
  EXPECT_NE(after.get("rgcn.0.w0"), before.get("rgcn.0.w0"));
}

TEST(RgcnNet, FreezeGnnStopsGnnUpdates) {
  RgcnNet net(toy_config(10));
  net.set_gnn_frozen(true);
  EXPECT_TRUE(net.gnn_frozen());
  EXPECT_LT(net.num_weights(/*trainable_only=*/true),
            net.num_weights(/*trainable_only=*/false));
  // Frozen GNN backward is a no-op: grads stay zero.
  const auto g = toy_graph(9, 10, 5);
  const auto gc = net.encode(g);
  std::vector<double> dr(7, 1.0);
  net.gnn_backward(gc, dr);
  for (Param* p : net.params()) {
    if (p->name.rfind("rgcn.", 0) == 0 || p->name.rfind("emb.", 0) == 0) {
      for (double v : p->g.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }
}

TEST(RgcnNet, BasisDecompositionRuns) {
  auto cfg = toy_config(10);
  cfg.num_bases = 2;
  RgcnNet net(cfg);
  const auto g = toy_graph(9, 10, 5);
  const auto dc = net.forward(g, std::vector<double>{0.0, 0.0});
  EXPECT_EQ(dc.logits.size(), 5u);
  // Far fewer relation weights than the full model.
  RgcnNet full(toy_config(10));
  EXPECT_LT(net.num_weights(), full.num_weights());
}

TEST(RgcnNet, RejectsBadConfigs) {
  auto cfg = toy_config(10);
  cfg.vocab_size = 0;
  EXPECT_THROW(RgcnNet{cfg}, Error);
  cfg = toy_config(10);
  cfg.head_sizes.clear();
  EXPECT_THROW(RgcnNet{cfg}, Error);
}

TEST(RgcnNet, RejectsEmptyGraph) {
  RgcnNet net(toy_config(10));
  graph::GraphTensors g;
  g.num_nodes = 0;
  EXPECT_THROW(net.encode(g), Error);
}

// ---------------------------------------------------------------------------
// Trainer: toy-task convergence.
// ---------------------------------------------------------------------------

TEST(Trainer, LearnsToSeparateTwoGraphClasses) {
  // Class 0: nodes mostly token 1; class 1: nodes mostly token 2. The net
  // must learn to classify by token content.
  auto cfg = toy_config(4);
  cfg.extra_features = 0;
  cfg.head_sizes = {2};
  RgcnNet net(cfg);

  std::vector<graph::GraphTensors> graphs;
  std::vector<TrainSample> samples;
  for (int i = 0; i < 12; ++i) {
    auto g = toy_graph(8, 1, static_cast<std::uint64_t>(i));
    const int label = i % 2;
    for (auto& t : g.token) t = label + 1;
    graphs.push_back(std::move(g));
  }
  for (int i = 0; i < 12; ++i) {
    TrainSample s;
    s.graph = &graphs[static_cast<std::size_t>(i)];
    s.members.push_back(SampleMember{{}, {i % 2}});
    samples.push_back(std::move(s));
  }

  auto opt = Adam::plain(5e-3);
  TrainerConfig tc;
  tc.max_epochs = 120;
  tc.batch_size = 4;
  tc.min_loss = 1e-3;
  const auto rep = train(net, *opt, samples, tc);
  EXPECT_EQ(evaluate_accuracy(net, samples), 1.0);
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front());
}

TEST(Trainer, ExtraFeaturesAloneCanDriveLabels) {
  // Same graph for every sample; label is determined by the extra feature.
  auto cfg = toy_config(5);
  cfg.extra_features = 1;
  cfg.head_sizes = {2};
  RgcnNet net(cfg);
  const auto g = toy_graph(8, 5, 77);

  std::vector<TrainSample> samples;
  TrainSample s;
  s.graph = &g;
  for (int i = 0; i < 8; ++i)
    s.members.push_back(
        SampleMember{{i % 2 ? 1.0 : -1.0}, {i % 2}});
  samples.push_back(std::move(s));

  auto opt = Adam::plain(1e-2);
  TrainerConfig tc;
  tc.max_epochs = 200;
  tc.min_loss = 1e-3;
  tc.patience = 50;
  train(net, *opt, samples, tc);
  EXPECT_EQ(evaluate_accuracy(net, samples), 1.0);
}

/// 16 toy graphs of 30 nodes, one labelled member each.
struct FrozenToy {
  FrozenToy() {
    for (int i = 0; i < 16; ++i)
      graphs.push_back(toy_graph(30, 6, static_cast<std::uint64_t>(i)));
    for (int i = 0; i < 16; ++i) {
      TrainSample s;
      s.graph = &graphs[static_cast<std::size_t>(i)];
      s.members.push_back(SampleMember{{}, {i % 2}});
      samples.push_back(std::move(s));
    }
  }
  static RgcnNetConfig config() {
    auto cfg = toy_config(6);
    cfg.extra_features = 0;
    cfg.head_sizes = {2};
    return cfg;
  }
  static TrainerConfig trainer() {
    TrainerConfig tc;
    tc.max_epochs = 30;
    tc.patience = 1000;  // run every epoch
    tc.min_loss = 0.0;
    return tc;
  }
  std::vector<graph::GraphTensors> graphs;
  std::vector<TrainSample> samples;
};

std::vector<std::vector<double>> weights_of(RgcnNet& net) {
  std::vector<std::vector<double>> w;
  for (const Param* p : net.params())
    w.emplace_back(p->w.flat().begin(), p->w.flat().end());
  return w;
}

TEST(Trainer, FrozenGnnTrainsOnlyDenseLayers) {
  // Transfer learning (§IV-B) retrains only the dense layers: a frozen
  // training leaves every GNN weight bit-unchanged, moves the dense
  // weights, and runs the same epochs as a full training. (Its speed is
  // measured by BM_TrainEpoch and the end-to-end benchmark, not here.)
  const FrozenToy toy;
  RgcnNet full(FrozenToy::config());
  auto o1 = Adam::plain(1e-3);
  const auto before_full = weights_of(full);
  const auto rep_full = train(full, *o1, toy.samples, FrozenToy::trainer());

  RgcnNet frozen(FrozenToy::config());
  frozen.set_gnn_frozen(true);
  auto o2 = Adam::plain(1e-3);
  const auto before = weights_of(frozen);
  const auto rep_frozen =
      train(frozen, *o2, toy.samples, FrozenToy::trainer());

  EXPECT_EQ(rep_full.epochs_run, rep_frozen.epochs_run);
  const auto after = weights_of(frozen);
  const auto after_full = weights_of(full);
  const auto params = frozen.params();
  int gnn = 0, dense = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->trainable) {
      ++gnn;
      EXPECT_EQ(after[i], before[i]) << params[i]->name << " moved";
      EXPECT_NE(after_full[i], before_full[i])
          << params[i]->name << " did not train unfrozen";
    } else {
      ++dense;
      EXPECT_NE(after[i], before[i]) << params[i]->name << " did not train";
    }
  }
  EXPECT_GT(gnn, 0);
  EXPECT_GT(dense, 0);
}

TEST(Trainer, FrozenReadoutReuseMatchesReencoding) {
  // A frozen training encodes each graph once and reuses the readouts for
  // every epoch and the closing accuracy. The reference re-encodes every
  // step: the same GNN weights held fixed by marking them non-trainable,
  // without freezing, so train() takes the encode-per-step path. Loss,
  // accuracy and every weight must match bit for bit.
  const FrozenToy toy;
  RgcnNet frozen(FrozenToy::config());
  frozen.set_gnn_frozen(true);
  RgcnNet reference(FrozenToy::config());
  const auto fp = frozen.params();
  const auto rp = reference.params();
  ASSERT_EQ(fp.size(), rp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) rp[i]->trainable = fp[i]->trainable;
  ASSERT_FALSE(reference.gnn_frozen());

  auto o1 = Adam::plain(1e-3);
  auto o2 = Adam::plain(1e-3);
  const auto gnn_before = weights_of(frozen);
  const auto a = train(frozen, *o1, toy.samples, FrozenToy::trainer());
  const auto b = train(reference, *o2, toy.samples, FrozenToy::trainer());

  EXPECT_EQ(a.epoch_loss, b.epoch_loss);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.train_accuracy, b.train_accuracy);
  EXPECT_EQ(a.train_accuracy, evaluate_accuracy(frozen, toy.samples));
  const auto after = weights_of(frozen);
  EXPECT_EQ(after, weights_of(reference));
  for (std::size_t i = 0; i < fp.size(); ++i) {
    if (!fp[i]->trainable)
      EXPECT_EQ(after[i], gnn_before[i]) << fp[i]->name << " moved";
  }
}

TEST(Trainer, FrozenGradsStayZeroAndUnfreezingTrains) {
  // zero_grad() and the batch mean skip frozen parameters: a frozen
  // training must leave their gradients at zero, and unfreezing must
  // start the GNN's training from clean gradients.
  const FrozenToy toy;
  RgcnNet net(FrozenToy::config());
  net.set_gnn_frozen(true);
  auto o1 = Adam::plain(1e-3);
  train(net, *o1, toy.samples, FrozenToy::trainer());
  int frozen = 0;
  for (const Param* p : net.params())
    if (!p->trainable) {
      ++frozen;
      for (double g : p->g.flat()) EXPECT_EQ(g, 0.0) << p->name;
    }
  EXPECT_GT(frozen, 0);

  net.set_gnn_frozen(false);
  const auto before = weights_of(net);
  auto o2 = Adam::plain(1e-3);
  const auto rep = train(net, *o2, toy.samples, FrozenToy::trainer());
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front());
  const auto after = weights_of(net);
  const auto params = net.params();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_NE(after[i], before[i]) << params[i]->name << " did not train";
}

TEST(Trainer, PredictLabelsMatchesEvaluate) {
  auto cfg = toy_config(4);
  cfg.extra_features = 0;
  cfg.head_sizes = {2, 3};
  RgcnNet net(cfg);
  const auto g = toy_graph(8, 4, 3);
  const auto preds = predict_labels(net, g, {});
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_GE(preds[0], 0);
  EXPECT_LT(preds[0], 2);
  EXPECT_GE(preds[1], 0);
  EXPECT_LT(preds[1], 3);
}

TEST(Trainer, RejectsEmptySampleSet) {
  RgcnNet net(toy_config(4));
  auto opt = Adam::plain(1e-3);
  std::vector<TrainSample> samples;
  TrainerConfig tc;
  EXPECT_THROW(train(net, *opt, samples, tc), Error);
}

}  // namespace
}  // namespace pnp::nn
