/// Equivalence property tests for the fast training engine: the
/// blocked/SIMD (optionally OpenMP-parallel) GEMM kernels against the
/// naive reference implementations across random shapes, the row-mapped
/// CSR kernels against materialized gather/scatter, the CSR form of
/// GraphTensors against the plain edge lists, the engine's RGCN forward
/// against a from-scratch reference implementation, the GradBuffer
/// backward against in-place gradient accumulation, and the batched dense
/// stage against the per-member passes it replaced (bit for bit).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/flow_graph.hpp"
#include "nn/matrix.hpp"
#include "nn/rgcn_net.hpp"

namespace pnp::nn {
namespace {

Matrix random_matrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(-2.0, 2.0);
  return m;
}

/// |a - b| within 1e-12 relative to the larger magnitude (the SIMD kernels
/// may contract multiply-adds, so exact bit equality is not guaranteed).
void expect_close(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom =
        std::max({std::abs(a.data()[i]), std::abs(b.data()[i]), 1.0});
    EXPECT_NEAR(a.data()[i] / denom, b.data()[i] / denom, tol)
        << "element " << i << " of " << a.rows() << "x" << a.cols();
  }
}

TEST(GemmKernels, MatchNaiveAcrossRandomShapes) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 1 + static_cast<int>(rng.uniform_index(40));
    const int k = 1 + static_cast<int>(rng.uniform_index(40));
    const int n = 1 + static_cast<int>(rng.uniform_index(40));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c_fast = random_matrix(m, n, rng);
    Matrix c_ref = c_fast;

    gemm_acc(a, b, c_fast);
    detail::gemm_acc_naive(a, b, c_ref);
    expect_close(c_fast, c_ref);

    const Matrix at = random_matrix(k, m, rng);
    Matrix t_fast = random_matrix(m, n, rng);
    Matrix t_ref = t_fast;
    gemm_tn_acc(at, b, t_fast);
    detail::gemm_tn_acc_naive(at, b, t_ref);
    expect_close(t_fast, t_ref);

    const Matrix bt = random_matrix(n, k, rng);
    Matrix n_fast = random_matrix(m, n, rng);
    Matrix n_ref = n_fast;
    gemm_nt_acc(a, bt, n_fast);
    detail::gemm_nt_acc_naive(a, bt, n_ref);
    expect_close(n_fast, n_ref);
  }
}

TEST(GemmKernels, LargeShapesMatchNaive) {
  // Big enough to cross the PNP_PARALLEL row-parallel threshold, so the
  // OpenMP path (when built in) is exercised and must stay bit-compatible
  // with its own sequential order.
  Rng rng(11);
  const Matrix a = random_matrix(300, 64, rng);
  const Matrix b = random_matrix(64, 48, rng);
  Matrix c_fast = Matrix::zeros(300, 48);
  Matrix c_ref = Matrix::zeros(300, 48);
  gemm_acc(a, b, c_fast);
  detail::gemm_acc_naive(a, b, c_ref);
  expect_close(c_fast, c_ref);
}

TEST(GemmKernels, BiasFusedOverwriteMatchesSeparatePasses) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 1 + static_cast<int>(rng.uniform_index(30));
    const int k = 1 + static_cast<int>(rng.uniform_index(30));
    const int n = 1 + static_cast<int>(rng.uniform_index(30));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    std::vector<double> bias(static_cast<std::size_t>(n));
    for (double& v : bias) v = rng.uniform(-1.0, 1.0);

    Matrix c_fast = random_matrix(m, n, rng);  // stale contents overwritten
    gemm_bias(a, b, bias, c_fast);

    Matrix c_ref = Matrix::zeros(m, n);
    detail::gemm_acc_naive(a, b, c_ref);
    add_bias_rows(c_ref, bias);
    expect_close(c_fast, c_ref);

    // Empty bias = plain overwrite.
    Matrix c0 = random_matrix(m, n, rng);
    gemm_bias(a, b, {}, c0);
    Matrix c0_ref = Matrix::zeros(m, n);
    detail::gemm_acc_naive(a, b, c0_ref);
    expect_close(c0, c0_ref);

    const Matrix bt = random_matrix(n, k, rng);
    Matrix nt_fast = random_matrix(m, n, rng);
    gemm_nt(a, bt, nt_fast);
    Matrix nt_ref = Matrix::zeros(m, n);
    detail::gemm_nt_acc_naive(a, bt, nt_ref);
    expect_close(nt_fast, nt_ref);
  }
}

TEST(GemmKernels, RowMappedVariantsMatchMaterializedGatherScatter) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int full = 8 + static_cast<int>(rng.uniform_index(30));
    const int k = 1 + static_cast<int>(rng.uniform_index(20));
    const int n = 1 + static_cast<int>(rng.uniform_index(24));
    // A strictly increasing subset of rows (as CSR active targets are).
    std::vector<int> rows;
    for (int i = 0; i < full; ++i)
      if (rng.uniform(0.0, 1.0) < 0.5) rows.push_back(i);
    if (rows.empty()) rows.push_back(0);
    const int a_rows = static_cast<int>(rows.size());

    // gemm_acc_rows: C.row(rows[i]) += A.row(i)·B.
    const Matrix a = random_matrix(a_rows, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c_fast = random_matrix(full, n, rng);
    Matrix c_ref = c_fast;
    gemm_acc_rows(a, b, c_fast, rows);
    Matrix dense = Matrix::zeros(a_rows, n);
    detail::gemm_acc_naive(a, b, dense);
    for (int i = 0; i < a_rows; ++i)
      for (int j = 0; j < n; ++j)
        c_ref(rows[static_cast<std::size_t>(i)], j) += dense(i, j);
    expect_close(c_fast, c_ref);

    // gemm_tn_acc_rows: C += Aᵀ·gather(B, rows).
    const Matrix big_b = random_matrix(full, n, rng);
    Matrix gathered(a_rows, n);
    for (int i = 0; i < a_rows; ++i)
      for (int j = 0; j < n; ++j)
        gathered(i, j) = big_b(rows[static_cast<std::size_t>(i)], j);
    Matrix tn_fast = random_matrix(k, n, rng);
    Matrix tn_ref = tn_fast;
    gemm_tn_acc_rows(a, big_b, rows, tn_fast);
    detail::gemm_tn_acc_naive(a, gathered, tn_ref);
    expect_close(tn_fast, tn_ref);

    // gemm_nt_rows: C = gather(A, rows)·Bᵀ.
    const Matrix big_a = random_matrix(full, k, rng);
    const Matrix bt = random_matrix(n, k, rng);
    Matrix gathered_a(a_rows, k);
    for (int i = 0; i < a_rows; ++i)
      for (int p = 0; p < k; ++p)
        gathered_a(i, p) = big_a(rows[static_cast<std::size_t>(i)], p);
    Matrix ntr_fast = random_matrix(a_rows, n, rng);
    gemm_nt_rows(big_a, rows, bt, ntr_fast);
    Matrix ntr_ref = Matrix::zeros(a_rows, n);
    detail::gemm_nt_acc_naive(gathered_a, bt, ntr_ref);
    expect_close(ntr_fast, ntr_ref);
  }
}

// ---------------------------------------------------------------------------
// CSR form of GraphTensors.
// ---------------------------------------------------------------------------

graph::GraphTensors random_graph(int num_nodes, int vocab, std::uint64_t seed,
                                 int edges_per_rel) {
  graph::GraphTensors g;
  g.name = "random";
  g.num_nodes = num_nodes;
  Rng rng(seed);
  for (int i = 0; i < num_nodes; ++i) {
    g.token.push_back(static_cast<int>(
        rng.uniform_index(static_cast<std::size_t>(vocab))));
    g.kind.push_back(static_cast<int>(rng.uniform_index(3)));
  }
  for (int r = 0; r < graph::kNumModelRelations; ++r)
    for (int e = 0; e < edges_per_rel; ++e)
      g.rel_edges[static_cast<std::size_t>(r)].emplace_back(
          static_cast<int>(
              rng.uniform_index(static_cast<std::size_t>(num_nodes))),
          static_cast<int>(
              rng.uniform_index(static_cast<std::size_t>(num_nodes))));
  return g;
}

TEST(GraphCsr, MatchesEdgeListsAndInDegrees) {
  const auto g = random_graph(23, 5, 99, 40);
  for (int r = 0; r < graph::kNumModelRelations; ++r) {
    const auto& csr = g.csr(r);
    const auto deg = g.in_degree(r);
    ASSERT_EQ(csr.row_offset.size(), static_cast<std::size_t>(g.num_nodes) + 1);
    ASSERT_EQ(csr.inv_deg.size(), static_cast<std::size_t>(g.num_nodes));
    EXPECT_EQ(csr.num_edges(),
              static_cast<int>(g.rel_edges[static_cast<std::size_t>(r)].size()));

    // Row extents and normalization match the in-degrees.
    int active_seen = 0;
    for (int i = 0; i < g.num_nodes; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      EXPECT_EQ(csr.row_offset[ii + 1] - csr.row_offset[ii], deg[ii]);
      if (deg[ii] > 0) {
        EXPECT_DOUBLE_EQ(csr.inv_deg[ii], 1.0 / deg[ii]);
        EXPECT_EQ(csr.active_dst[static_cast<std::size_t>(active_seen)], i);
        ++active_seen;
      } else {
        EXPECT_DOUBLE_EQ(csr.inv_deg[ii], 0.0);
      }
    }
    EXPECT_EQ(csr.num_active(), active_seen);

    // Each target's sources appear in edge-insertion order.
    std::vector<std::vector<int>> expected(
        static_cast<std::size_t>(g.num_nodes));
    for (const auto& [src, dst] : g.rel_edges[static_cast<std::size_t>(r)])
      expected[static_cast<std::size_t>(dst)].push_back(src);
    for (int i = 0; i < g.num_nodes; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const std::vector<int> got(
          csr.src.begin() + csr.row_offset[ii],
          csr.src.begin() + csr.row_offset[ii + 1]);
      EXPECT_EQ(got, expected[ii]);
    }
  }
}

TEST(GraphCsr, LazilyRebuildsAfterEdgeMutation) {
  auto g = random_graph(9, 4, 3, 6);
  EXPECT_EQ(g.csr(0).num_edges(), 6);
  g.rel_edges[0].emplace_back(2, 5);
  EXPECT_EQ(g.csr(0).num_edges(), 7);  // stale CSR was rebuilt
  const auto deg = g.in_degree(0);
  EXPECT_EQ(g.csr(0).row_offset[6] - g.csr(0).row_offset[5], deg[5]);
}

// ---------------------------------------------------------------------------
// Engine vs reference RGCN forward.
// ---------------------------------------------------------------------------

RgcnNetConfig small_config(int vocab) {
  RgcnNetConfig c;
  c.vocab_size = vocab;
  c.emb_dim = 6;
  c.rgcn_layers = 3;
  c.hidden = 9;
  c.dense_hidden1 = 8;
  c.dense_hidden2 = 7;
  c.head_sizes = {4, 3};
  c.extra_features = 0;
  c.seed = 5;
  return c;
}

const Matrix& param_by_name(RgcnNet& net, const std::string& name) {
  for (Param* p : net.params())
    if (p->name == name) return p->w;
  ADD_FAILURE() << "missing param " << name;
  static Matrix dummy;
  return dummy;
}

/// Textbook RGCN forward (edge-list aggregation, naive products) — the
/// ground truth the CSR/SIMD engine must reproduce.
std::vector<double> reference_readout(RgcnNet& net,
                                      const graph::GraphTensors& g) {
  const auto& cfg = net.config();
  const int n = g.num_nodes;
  const Matrix& et = param_by_name(net, "emb.token");
  const Matrix& ek = param_by_name(net, "emb.kind");
  Matrix h(n, cfg.emb_dim);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.emb_dim; ++d)
      h(i, d) = et(g.token[static_cast<std::size_t>(i)], d) +
                ek(g.kind[static_cast<std::size_t>(i)], d);

  for (int l = 0; l < cfg.rgcn_layers; ++l) {
    const std::string prefix = "rgcn." + std::to_string(l) + ".";
    const Matrix& w0 = param_by_name(net, prefix + "w0");
    const Matrix& bias = param_by_name(net, prefix + "bias");
    Matrix z = Matrix::zeros(n, cfg.hidden);
    detail::gemm_acc_naive(h, w0, z);
    for (int r = 0; r < cfg.num_relations; ++r) {
      const auto deg = g.in_degree(r);
      Matrix m = Matrix::zeros(n, h.cols());
      for (const auto& [src, dst] : g.rel_edges[static_cast<std::size_t>(r)])
        for (int d = 0; d < h.cols(); ++d)
          m(dst, d) += h(src, d) / deg[static_cast<std::size_t>(dst)];
      const Matrix& wr = param_by_name(net, prefix + "wr." + std::to_string(r));
      detail::gemm_acc_naive(m, wr, z);
    }
    add_bias_rows(z, bias.flat());
    Matrix hn(n, cfg.hidden);
    for (std::size_t i = 0; i < z.size(); ++i)
      hn.data()[i] =
          z.data()[i] > 0.0 ? z.data()[i] : cfg.leaky_slope * z.data()[i];
    h = std::move(hn);
  }

  std::vector<double> readout(static_cast<std::size_t>(cfg.hidden), 0.0);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.hidden; ++d)
      readout[static_cast<std::size_t>(d)] += h(i, d);
  for (double& v : readout) v /= n;
  return readout;
}

TEST(RgcnEngine, EncodeMatchesReferenceForward) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RgcnNet net(small_config(6));
    const auto g = random_graph(17, 6, seed, 25);
    const auto gc = net.encode(g);
    const auto ref = reference_readout(net, g);
    ASSERT_EQ(gc.readout.size(), ref.size());
    for (std::size_t d = 0; d < ref.size(); ++d)
      EXPECT_NEAR(gc.readout[d], ref[d], 1e-9) << "dim " << d;
  }
}

TEST(RgcnEngine, EncodeIntoReusedCacheMatchesFreshEncode) {
  RgcnNet net(small_config(6));
  const auto g1 = random_graph(17, 6, 1, 25);
  const auto g2 = random_graph(9, 6, 2, 10);  // different shape
  RgcnNet::GnnCache reused;
  net.encode_into(g1, reused);
  net.encode_into(g2, reused);  // shrinks the buffers
  net.encode_into(g1, reused);  // grows them back
  const auto fresh = net.encode(g1);
  ASSERT_EQ(reused.readout.size(), fresh.readout.size());
  for (std::size_t d = 0; d < fresh.readout.size(); ++d)
    EXPECT_DOUBLE_EQ(reused.readout[d], fresh.readout[d]);
}

TEST(RgcnEngine, EncodeIsDeterministic) {
  RgcnNet net(small_config(6));
  const auto g = random_graph(17, 6, 4, 25);
  const auto a = net.encode(g);
  const auto b = net.encode(g);
  for (std::size_t d = 0; d < a.readout.size(); ++d)
    EXPECT_DOUBLE_EQ(a.readout[d], b.readout[d]);
}

TEST(RgcnEngine, GradBufferMatchesDirectAccumulation) {
  for (int num_bases : {0, 2}) {
    auto cfg = small_config(6);
    cfg.num_bases = num_bases;
    RgcnNet net(cfg);
    const auto g = random_graph(13, 6, 8, 18);
    const auto gc = net.encode(g);
    const auto dc = net.dense_forward(gc.readout, {});
    std::vector<double> dlogits(dc.logits.size());
    for (std::size_t i = 0; i < dlogits.size(); ++i)
      dlogits[i] = 0.1 * static_cast<double>(i + 1);

    net.zero_grad();
    const auto dr_direct = net.dense_backward(dc, dlogits);
    net.gnn_backward(gc, dr_direct);
    std::vector<double> direct;
    for (Param* p : net.params())
      direct.insert(direct.end(), p->g.flat().begin(), p->g.flat().end());

    auto grads = net.make_grad_buffer();
    RgcnNet::BackwardWs ws;
    const auto dr_buf = net.dense_backward_into(dc, dlogits, grads);
    EXPECT_EQ(dr_direct, dr_buf);
    net.gnn_backward_into(gc, dr_buf, grads, ws);

    net.zero_grad();
    net.add_grad_buffer(grads);
    std::size_t idx = 0;
    for (Param* p : net.params())
      for (double v : p->g.flat()) EXPECT_DOUBLE_EQ(v, direct[idx++]);
  }
}

// ---------------------------------------------------------------------------
// Batched dense stage vs the per-member passes it replaced.
// ---------------------------------------------------------------------------

std::size_t param_index(RgcnNet& net, const std::string& name) {
  const auto ps = net.params();
  for (std::size_t i = 0; i < ps.size(); ++i)
    if (ps[i]->name == name) return i;
  ADD_FAILURE() << "missing param " << name;
  return 0;
}

/// The per-member dense backward the batch replaced, kept verbatim as the
/// reference: weight grads accumulate into `g` one member at a time, and
/// d(input) sums w(i, j)·dout(j) in j order. Returns d(loss)/d(readout).
std::vector<double> per_member_backward(RgcnNet& net,
                                        const RgcnNet::DenseCache& c,
                                        std::span<const double> dlogits,
                                        RgcnNet::GradBuffer& g) {
  const auto ps = net.params();
  auto backward_linear = [&](const std::vector<double>& in,
                             std::span<const double> dout, char layer) {
    const std::size_t w_idx = param_index(net, std::string("dense.w") + layer);
    const std::size_t b_idx = param_index(net, std::string("dense.b") + layer);
    const Matrix& w = ps[w_idx]->w;
    Matrix& gw_m = g[w_idx];
    Matrix& gb_m = g[b_idx];
    for (int j = 0; j < w.cols(); ++j)
      gb_m(0, j) += dout[static_cast<std::size_t>(j)];
    std::vector<double> din(in.size(), 0.0);
    for (int i = 0; i < w.rows(); ++i) {
      const double vi = in[static_cast<std::size_t>(i)];
      double* gw = gw_m.row(i);
      const double* wi = w.row(i);
      double acc = 0.0;
      for (int j = 0; j < w.cols(); ++j) {
        gw[j] += vi * dout[static_cast<std::size_t>(j)];
        acc += wi[j] * dout[static_cast<std::size_t>(j)];
      }
      din[static_cast<std::size_t>(i)] = acc;
    }
    return din;
  };
  std::vector<double> da2 = backward_linear(c.a2, dlogits, '3');
  for (std::size_t i = 0; i < da2.size(); ++i)
    da2[i] *= c.z2[i] > 0.0 ? 1.0 : 0.0;
  std::vector<double> da1 = backward_linear(c.a1, da2, '2');
  for (std::size_t i = 0; i < da1.size(); ++i)
    da1[i] *= c.z1[i] > 0.0 ? 1.0 : 0.0;
  const std::vector<double> du0 = backward_linear(c.u0, da1, '1');
  return {du0.begin(), du0.begin() + net.config().hidden};
}

std::vector<double> row_of(const Matrix& m, int r) {
  return {m.row(r), m.row(r) + m.cols()};
}

void expect_same_grads(const RgcnNet::GradBuffer& got,
                       const RgcnNet::GradBuffer& want, int rows) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(std::equal(got[i].flat().begin(), got[i].flat().end(),
                           want[i].flat().begin()))
        << "param " << i << " at " << rows << " rows";
}

TEST(DenseBatch, MatchesPerMemberPassesBitForBit) {
  // Small odd widths and the Table II widths (SIMD tails differ), one-hot
  // extra features (mostly zeros, skipped by the per-row forward), batches
  // of 1..17 rows; grads into a GradBuffer and into the net's own.
  for (const bool table2 : {false, true}) {
    RgcnNetConfig cfg = small_config(6);
    cfg.extra_features = 5;
    if (table2) {
      cfg.hidden = 20;
      cfg.dense_hidden1 = 32;
      cfg.dense_hidden2 = 24;
      cfg.head_sizes = {6, 3, 8};
    }
    RgcnNet net(cfg);
    Rng rng(21);
    std::size_t relu_zeros = 0;
    for (int rows = 1; rows <= 17; ++rows) {
      std::vector<double> readout(static_cast<std::size_t>(cfg.hidden));
      for (double& v : readout) v = rng.uniform(-1.5, 1.5);
      RgcnNet::DenseBatch b;
      net.dense_batch_resize(b, rows);
      std::vector<RgcnNet::DenseCache> ref(static_cast<std::size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        std::vector<double> extra(static_cast<std::size_t>(cfg.extra_features));
        extra[static_cast<std::size_t>(r % cfg.extra_features)] = 1.0;
        std::copy(extra.begin(), extra.end(),
                  std::copy(readout.begin(), readout.end(), b.u0.row(r)));
        net.dense_forward_into(readout, extra, ref[static_cast<std::size_t>(r)]);
      }
      net.dense_forward_batch(b);
      for (int r = 0; r < rows; ++r) {
        const auto& c = ref[static_cast<std::size_t>(r)];
        EXPECT_EQ(row_of(b.z1, r), c.z1) << rows << " rows, row " << r;
        EXPECT_EQ(row_of(b.a1, r), c.a1);
        EXPECT_EQ(row_of(b.z2, r), c.z2);
        EXPECT_EQ(row_of(b.a2, r), c.a2);
        EXPECT_EQ(row_of(b.logits, r), c.logits);
        relu_zeros += static_cast<std::size_t>(
            std::count(c.a1.begin(), c.a1.end(), 0.0) +
            std::count(c.a2.begin(), c.a2.end(), 0.0));
      }

      for (double& v : b.dlogits.flat()) v = rng.uniform(-1.0, 1.0);
      auto want = net.make_grad_buffer();
      auto one_row = net.make_grad_buffer();
      for (int r = 0; r < rows; ++r) {
        const auto dl = row_of(b.dlogits, r);
        const auto dr = per_member_backward(
            net, ref[static_cast<std::size_t>(r)], dl, want);
        EXPECT_EQ(net.dense_backward_into(ref[static_cast<std::size_t>(r)],
                                          dl, one_row),
                  dr);
      }
      auto got = net.make_grad_buffer();
      net.dense_backward_into(b, got);
      expect_same_grads(got, want, rows);
      expect_same_grads(one_row, want, rows);
      for (int r = 0; r < rows; ++r) {
        auto scratch = net.make_grad_buffer();
        EXPECT_EQ(row_of(b.d_readout, r),
                  per_member_backward(net, ref[static_cast<std::size_t>(r)],
                                      row_of(b.dlogits, r), scratch));
      }

      net.zero_grad();
      net.dense_backward(b);
      RgcnNet::GradBuffer own;
      for (Param* p : net.params()) own.push_back(p->g);
      expect_same_grads(own, want, rows);
    }
    EXPECT_GT(relu_zeros, 0u);
  }
}

TEST(DenseBatch, FrozenGnnSkipsTheReadoutGradient) {
  RgcnNetConfig cfg = small_config(6);
  RgcnNet net(cfg);
  net.set_gnn_frozen(true);
  RgcnNet::DenseBatch b;
  net.dense_batch_resize(b, 3);
  Rng rng(4);
  for (double& v : b.u0.flat()) v = rng.uniform(-1.0, 1.0);
  net.dense_forward_batch(b);
  for (double& v : b.dlogits.flat()) v = rng.uniform(-1.0, 1.0);
  b.d_readout.fill(7.0);
  auto got = net.make_grad_buffer();
  net.dense_backward_into(b, got);
  for (double v : b.d_readout.flat()) EXPECT_EQ(v, 7.0);

  // The weight gradients are those of the unfrozen net.
  net.set_gnn_frozen(false);
  auto want = net.make_grad_buffer();
  net.dense_backward_into(b, want);
  expect_same_grads(got, want, 3);
}

}  // namespace
}  // namespace pnp::nn
