#include "nn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <unordered_map>

#ifdef PNP_PARALLEL
#include <omp.h>
#endif

#include "common/error.hpp"
#include "nn/loss.hpp"

namespace pnp::nn {

namespace {

/// Scale the accumulated gradients by `s` (used to mean-reduce a batch).
/// Frozen parameters are skipped: their gradients are never read.
void scale_grads(RgcnNet& net, double s) {
  for (Param* p : net.params())
    if (p->trainable)
      for (double& g : p->g.flat()) g *= s;
}

/// Reusable per-worker state: the GNN forward/backward workspaces and the
/// dense batch a sample's members run through as rows of one matrix, so
/// steady-state training allocates nothing per sample or per member.
struct SampleCtx {
  RgcnNet::GnnCache gc;
  RgcnNet::DenseBatch dense;
  RgcnNet::BackwardWs ws;
  std::vector<double> d_readout;
};

/// Mean-pooled readout per distinct graph. Samples sharing a graph (e.g.
/// the four power caps of one region) share one encode, and one forward
/// workspace serves every encode, so only the readouts stay allocated.
using ReadoutMap =
    std::unordered_map<const graph::GraphTensors*, std::vector<double>>;

ReadoutMap encode_readouts(const RgcnNet& net,
                           std::span<const TrainSample> samples) {
  ReadoutMap readouts;
  RgcnNet::GnnCache ws;
  for (const TrainSample& s : samples) {
    PNP_CHECK(s.graph != nullptr);
    auto [it, inserted] = readouts.try_emplace(s.graph);
    if (inserted) {
      net.encode_into(*s.graph, ws);
      it->second = ws.readout;
    }
  }
  return readouts;
}

/// Exact-match accuracy over precomputed per-graph readouts.
double accuracy_from(const RgcnNet& net, std::span<const TrainSample> samples,
                     const ReadoutMap& readouts) {
  std::size_t correct = 0, total = 0;
  RgcnNet::DenseCache dc;
  for (const TrainSample& s : samples) {
    const std::vector<double>& readout = readouts.at(s.graph);
    for (const SampleMember& m : s.members) {
      net.dense_forward_into(readout, m.extra, dc);
      bool all = true;
      for (std::size_t h = 0; h < m.labels.size(); ++h) {
        const auto logits = net.head_logits(dc, static_cast<int>(h));
        if (argmax_index(logits) != m.labels[h]) {
          all = false;
          break;
        }
      }
      correct += all ? 1 : 0;
      ++total;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) /
                                static_cast<double>(total);
}

/// Forward + backward of one sample group; returns summed member loss.
/// A frozen GNN reads the group's readout from `frozen` and skips the GNN
/// passes; otherwise the graph is encoded into `ctx.gc`. The members run
/// the dense stage as one batch, a row each. Gradients go into `grads`
/// when set (the parallel per-thread path, which only calls const members
/// of `net`), or straight into the net otherwise.
double sample_backward(RgcnNet& net, const TrainSample& s,
                       const ReadoutMap& frozen, SampleCtx& ctx,
                       RgcnNet::GradBuffer* grads) {
  std::span<const double> readout;
  if (net.gnn_frozen()) {
    readout = frozen.at(s.graph);
  } else {
    net.encode_into(*s.graph, ctx.gc);
    readout = ctx.gc.readout;
  }
  const RgcnNetConfig& cfg = net.config();
  RgcnNet::DenseBatch& b = ctx.dense;
  const int rows = static_cast<int>(s.members.size());
  net.dense_batch_resize(b, rows);
  PNP_CHECK(static_cast<int>(readout.size()) == cfg.hidden);
  for (int r = 0; r < rows; ++r) {
    const SampleMember& m = s.members[static_cast<std::size_t>(r)];
    PNP_CHECK_MSG(static_cast<int>(m.extra.size()) == cfg.extra_features,
                  "expected " << cfg.extra_features
                              << " extra features, got " << m.extra.size());
    std::copy(m.extra.begin(), m.extra.end(),
              std::copy(readout.begin(), readout.end(), b.u0.row(r)));
  }
  net.dense_forward_batch(b);

  double loss = 0.0;
  for (int r = 0; r < rows; ++r) {
    const SampleMember& m = s.members[static_cast<std::size_t>(r)];
    PNP_CHECK(m.labels.size() == cfg.head_sizes.size());
    int off = 0;
    for (std::size_t h = 0; h < m.labels.size(); ++h) {
      const auto len = static_cast<std::size_t>(cfg.head_sizes[h]);
      loss += softmax_cross_entropy(
          std::span<const double>(b.logits.row(r) + off, len), m.labels[h],
          std::span<double>(b.dlogits.row(r) + off, len));
      off += cfg.head_sizes[h];
    }
  }
  if (grads)
    net.dense_backward_into(b, *grads);
  else
    net.dense_backward(b);
  if (net.gnn_frozen()) return loss;

  // Members add their d(readout) in member order.
  ctx.d_readout.assign(static_cast<std::size_t>(cfg.hidden), 0.0);
  colsum_acc(b.d_readout, ctx.d_readout);
  if (grads)
    net.gnn_backward_into(ctx.gc, ctx.d_readout, *grads, ctx.ws);
  else
    net.gnn_backward(ctx.gc, ctx.d_readout);
  return loss;
}

}  // namespace

TrainReport train(RgcnNet& net, Optimizer& opt,
                  std::span<const TrainSample> samples,
                  const TrainerConfig& cfg) {
  PNP_CHECK_MSG(!samples.empty(), "no training samples");
  const auto t0 = std::chrono::steady_clock::now();

  // Validate up front and make sure every graph's CSR form exists before
  // any parallel region touches it (lazy builds are not thread-safe).
  for (const TrainSample& s : samples) {
    PNP_CHECK(s.graph != nullptr && !s.members.empty());
    s.graph->finalize();
  }

  // Frozen GNN: the readouts never change, so they are computed once up
  // front; epochs only do (cheap) dense passes, threads share the map
  // read-only, and the closing accuracy reuses it.
  ReadoutMap frozen;
  if (net.gnn_frozen()) frozen = encode_readouts(net, samples);

#ifdef PNP_PARALLEL
  // Inside an active parallel region (e.g. concurrent LOOCV folds) a
  // nested omp-for would get a team of one — keep the sequential path and
  // skip the per-thread buffers there.
  const int num_workers = omp_in_parallel() ? 1 : omp_get_max_threads();
#else
  const int num_workers = 1;
#endif
  std::vector<SampleCtx> ctx(static_cast<std::size_t>(num_workers));
  // Parallel mode: per-thread gradient buffers, reduced in fixed thread
  // order after each batch. With OpenMP's static schedule the sample →
  // thread assignment is deterministic, so training is bit-reproducible
  // run to run for a given thread count.
  std::vector<RgcnNet::GradBuffer> thread_grads;
  if (num_workers > 1)
    for (int t = 0; t < num_workers; ++t)
      thread_grads.push_back(net.make_grad_buffer());

  Rng rng(cfg.seed);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  auto param_ptrs = net.params();

  TrainReport report;
  double best_loss = 1e300;
  int stale = 0;

  std::vector<const TrainSample*> batch;
  std::vector<double> batch_loss;

  // Gradient of one staged batch, accumulated into the net; returns the
  // batch's summed member loss (summed in sample order regardless of the
  // thread count, so early stopping sees a deterministic value).
  auto batch_backward = [&]() -> double {
    batch_loss.assign(batch.size(), 0.0);
#ifdef PNP_PARALLEL
    const int nb = static_cast<int>(batch.size());
    if (num_workers > 1 && nb > 1) {
      std::exception_ptr err;
#pragma omp parallel for schedule(static)
      for (int i = 0; i < nb; ++i) {
        const auto t = static_cast<std::size_t>(omp_get_thread_num());
        try {
          batch_loss[static_cast<std::size_t>(i)] =
              sample_backward(net, *batch[static_cast<std::size_t>(i)],
                              frozen, ctx[t], &thread_grads[t]);
        } catch (...) {
#pragma omp critical
          if (!err) err = std::current_exception();
        }
      }
      if (err) std::rethrow_exception(err);
      for (auto& tg : thread_grads) {
        net.add_grad_buffer(tg);
        for (std::size_t p = 0; p < tg.size(); ++p)
          if (param_ptrs[p]->trainable) tg[p].zero();
      }
    } else
#endif
    {
      for (std::size_t i = 0; i < batch.size(); ++i)
        batch_loss[i] =
            sample_backward(net, *batch[i], frozen, ctx[0], nullptr);
    }
    double loss = 0.0;
    for (double v : batch_loss) loss += v;
    return loss;
  };

  for (int epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t total_members = 0;

    net.zero_grad();
    batch.clear();
    int batch_members = 0;
    auto flush = [&]() {
      if (batch_members == 0) return;
      epoch_loss += batch_backward();
      scale_grads(net, 1.0 / batch_members);
      opt.step(param_ptrs);
      net.zero_grad();
      batch.clear();
      batch_members = 0;
    };

    for (std::size_t oi : order) {
      const TrainSample& s = samples[oi];
      batch.push_back(&s);
      total_members += s.members.size();
      batch_members += static_cast<int>(s.members.size());
      if (batch_members >= cfg.batch_size) flush();
    }
    flush();

    const double mean_loss = epoch_loss / static_cast<double>(total_members);
    report.epoch_loss.push_back(mean_loss);
    if (cfg.verbose)
      std::printf("epoch %3d  loss %.4f\n", epoch, mean_loss);

    if (mean_loss < best_loss - 1e-4) {
      best_loss = mean_loss;
      stale = 0;
    } else {
      ++stale;
    }
    if (mean_loss < cfg.min_loss || stale >= cfg.patience) break;
  }

  report.epochs_run = static_cast<int>(report.epoch_loss.size());
  report.final_loss = report.epoch_loss.back();
  report.train_accuracy = net.gnn_frozen()
                              ? accuracy_from(net, samples, frozen)
                              : evaluate_accuracy(net, samples);
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

double evaluate_accuracy(const RgcnNet& net,
                         std::span<const TrainSample> samples) {
  return accuracy_from(net, samples, encode_readouts(net, samples));
}

std::vector<int> predict_labels(const RgcnNet& net,
                                const graph::GraphTensors& g,
                                std::span<const double> extra) {
  const auto dc = net.forward(g, extra);
  std::vector<int> out;
  out.reserve(net.config().head_sizes.size());
  for (std::size_t h = 0; h < net.config().head_sizes.size(); ++h)
    out.push_back(argmax_index(net.head_logits(dc, static_cast<int>(h))));
  return out;
}

}  // namespace pnp::nn
