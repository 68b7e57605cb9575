#include "nn/trainer.hpp"

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

/// Scale all accumulated gradients by `s` (used to mean-reduce a batch).
void scale_grads(RgcnNet& net, double s) {
  for (Param* p : net.params())
    for (double& g : p->g.flat()) g *= s;
}

/// Reusable per-worker state: forward/backward workspaces plus the small
/// per-member scratch vectors, so the hot GNN passes allocate nothing in
/// steady state (the tiny dense-layer backward still makes a few
/// ≤32-element vector allocations per member).
struct SampleCtx {
  RgcnNet::GnnCache gc;
  RgcnNet::DenseCache dc;
  RgcnNet::BackwardWs ws;
  std::vector<double> d_readout;
  std::vector<double> dlogits;
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
/// passes; otherwise the graph is encoded into `ctx.gc`. Gradients go into
/// `grads` when set (the parallel per-thread path, which only calls const
/// members of `net`), or straight into the net otherwise.
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
  const int hidden = net.config().hidden;
  ctx.d_readout.assign(static_cast<std::size_t>(hidden), 0.0);
  double loss = 0.0;
  for (const SampleMember& m : s.members) {
    net.dense_forward_into(readout, m.extra, ctx.dc);
    ctx.dlogits.assign(ctx.dc.logits.size(), 0.0);
    PNP_CHECK(m.labels.size() == net.config().head_sizes.size());
    int off = 0;
    for (std::size_t h = 0; h < m.labels.size(); ++h) {
      const int len = net.config().head_sizes[h];
      loss += softmax_cross_entropy(
          std::span<const double>(ctx.dc.logits)
              .subspan(static_cast<std::size_t>(off),
                       static_cast<std::size_t>(len)),
          m.labels[h],
          std::span<double>(ctx.dlogits)
              .subspan(static_cast<std::size_t>(off),
                       static_cast<std::size_t>(len)));
      off += len;
    }
    const auto dr = grads
                        ? net.dense_backward_into(ctx.dc, ctx.dlogits, *grads)
                        : net.dense_backward(ctx.dc, ctx.dlogits);
    for (std::size_t d = 0; d < ctx.d_readout.size(); ++d)
      ctx.d_readout[d] += dr[d];
  }
  if (net.gnn_frozen()) return loss;
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
        for (Matrix& m : tg) m.zero();
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
