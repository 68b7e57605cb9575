/// \file train_eval.cpp
/// The in-process loop (perfbench/NOTES.md, "What one run does"): a
/// fixed-seed corpus feeds measurement dbs on Haswell's Table I and
/// extended spaces; fixed-epoch training of the power (scalar cap), EDP
/// and transfer tuners; held-out quality; batched InferenceEngine
/// prediction on both spaces. Traced runs add per-layer probes around the
/// public functions of graph, sim, nn, core and serve.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/config_search.hpp"
#include "core/evaluator.hpp"
#include "core/measurement_db.hpp"
#include "core/measurement_log.hpp"
#include "core/pnp_tuner.hpp"
#include "core/tuner_artifact.hpp"
#include "graph/builder.hpp"
#include "hw/machine_generator.hpp"
#include "ir/extract.hpp"
#include "nn/matrix.hpp"
#include "serve/inference_engine.hpp"
#include "serve/tuning_service.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using pnp::core::MeasurementDb;
using pnp::core::PnpTuner;
using pnp::core::SearchSpace;

namespace {

/// Fixed corpus: the 68 paper regions plus this many generated ones. The
/// corpus never depends on --seed, so quality compares exactly.
constexpr int kGeneratedRegions = 32;
constexpr std::uint64_t kCorpusSeed = 7;
/// Every training runs exactly this many epochs (early stop off).
constexpr int kEpochs = 24;
/// Per round of the timing loop: transfer trainings, and seconds of
/// prediction batches.
constexpr int kTransferPerRound = 3;
constexpr double kPredictSlice = 0.2;
/// Queries per timed prediction batch.
constexpr std::size_t kBatch = 1024;

/// Everything set-up builds: the corpus and the dbs over it.
struct World {
  World() {
    const auto haswell = pnp::hw::machine_by_name("haswell");
    const auto skylake = pnp::hw::machine_by_name("skylake");
    sim = std::make_unique<pnp::sim::Simulator>(haswell);
    sim_sky = std::make_unique<pnp::sim::Simulator>(skylake);
    pnp::workloads::GeneratorOptions g;
    g.seed = kCorpusSeed;
    g.num_regions = kGeneratedRegions;
    generated = pnp::workloads::Generator(g).generate();
    regions = pnp::workloads::Suite::instance().all_regions();
    for (const auto& r : generated.all_regions()) regions.push_back(r);
    table1 = std::make_unique<MeasurementDb>(
        *sim, SearchSpace::for_machine(haswell), regions);
    extended = std::make_unique<MeasurementDb>(
        *sim, SearchSpace::extended_for_machine(haswell), regions);
    sky = std::make_unique<MeasurementDb>(
        *sim_sky, SearchSpace::for_machine(skylake), regions);
  }

  std::unique_ptr<pnp::sim::Simulator> sim, sim_sky;
  pnp::workloads::Corpus generated;
  std::vector<pnp::workloads::Corpus::RegionRef> regions;
  std::unique_ptr<MeasurementDb> table1, extended, sky;
};

pnp::core::PnpOptions options(bool scalar_cap) {
  pnp::core::PnpOptions o;
  o.cap_onehot = !scalar_cap;
  o.seed = kCorpusSeed;
  o.trainer.max_epochs = kEpochs;
  o.trainer.patience = kEpochs + 1;  // never stops early
  o.trainer.min_loss = 0.0;
  return o;
}

/// Held-out split: every fourth application (paper and generated) is
/// test-only.
pnp::core::EvalSplit split_of(const MeasurementDb& db) {
  std::set<std::string> apps;
  for (int r = 0; r < db.num_regions(); ++r) apps.insert(db.region(r).app->name);
  std::set<std::string> test;
  int i = 0;
  for (const auto& a : apps)
    if (i++ % 4 == 1) test.insert(a);
  return pnp::core::make_app_split(
      db, "heldout", [&](const std::string& a) { return test.count(a) > 0; });
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Seeded (region, cap) queries over a db.
std::vector<pnp::serve::PowerQuery> queries(const MeasurementDb& db,
                                            std::uint64_t seed) {
  pnp::Rng rng(seed);
  std::vector<pnp::serve::PowerQuery> q(kBatch);
  for (auto& x : q) {
    x.region = static_cast<int>(
        rng.uniform_index(static_cast<std::size_t>(db.num_regions())));
    x.cap_index = static_cast<int>(
        rng.uniform_index(static_cast<std::size_t>(db.num_caps())));
  }
  return q;
}

/// Check one batch of engine predictions against PnpTuner::predict_power
/// (the reference); this also warms the engine's encode cache.
void check_batch(pnp::serve::InferenceEngine& e,
                 const std::vector<pnp::serve::PowerQuery>& q,
                 Report& report) {
  const auto out = e.predict_power_batch(q);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < q.size(); ++i)
    if (!(out[i] == e.tuner().predict_power(q[i].region, q[i].cap_index)))
      ++bad;
  report.attempt(q.size(), bad);
  if (bad) report.fail("batched predictions differ from PnpTuner");
}

/// Per-layer probes of traced runs: each times a layer's public function
/// over the corpus into spans, and reports the span median.
void probe_layers(const World& w, const PnpTuner& power, const PnpTuner& edp,
                  const PnpTuner& ext, const ServedModel& served,
                  const Settings& s, Trace& trace, Report& report) {
  Trace::Buffer& tb = trace.buffer();
  const auto med = [&](const char* name, double scale) {
    return median(trace.durations(name)) / scale;
  };
  pnp::Rng rng(s.seed + 17);

  // graph: build + tensors for every region.
  std::vector<pnp::graph::GraphTensors> tensors;
  for (int r = 0; r < w.table1->num_regions(); ++r) {
    const auto& rr = w.table1->region(r);
    const std::int64_t a = now_ns();
    const auto g = pnp::graph::build_flow_graph(
        pnp::ir::extract_function(rr.app->module, rr.region->function));
    const std::int64_t b = now_ns();
    tensors.push_back(pnp::graph::to_tensors(g, power.vocab()));
    tb.add("graph.build", a, b);
    tb.add("graph.tensors", b, now_ns());
  }
  report.per_layer("graph.build_us", med("graph.build", 1e3), "us");
  report.per_layer("graph.tensors_us", med("graph.tensors", 1e3), "us");

  // sim: noiseless expected() over random cells.
  {
    const auto& space = w.table1->space();
    for (int i = 0; i < 20000; ++i) {
      const auto& rr = w.table1->region(static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(w.table1->num_regions()))));
      const auto cfg = space.omp_config(static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(space.num_omp_configs()))));
      const double cap = space.power_caps()[rng.uniform_index(
          space.power_caps().size())];
      const std::int64_t a = now_ns();
      const auto res = w.sim->expected(rr.region->desc, cfg, cap);
      tb.add("sim.expected", a, now_ns());
      report.attempt(1, std::isfinite(res.seconds) && res.seconds > 0 ? 0 : 1);
    }
    report.per_layer("sim.expected_ns", med("sim.expected", 1.0), "ns");
  }

  // nn: GEMM at the RGCN's widest per-layer shape, forward, backward.
  {
    int nodes = 0;
    for (const auto& t : tensors) nodes = std::max(nodes, t.num_nodes);
    const int h = power.net().config().hidden;
    pnp::nn::Matrix a(nodes, h), b(h, h), c(nodes, h);
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform();
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform();
    const int reps = 2000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) pnp::nn::gemm_acc(a, b, c);
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    // FLOPs computed from the shapes (2·m·n·k per product), not counted.
    report.per_layer("nn.gemm_gflops",
                     2.0 * nodes * h * h * reps / secs / 1e9, "GFLOP/s");

    const auto& net = power.net();
    const std::vector<double> extra(
        static_cast<std::size_t>(net.config().extra_features), 0.5);
    std::vector<double> dlogits(
        static_cast<std::size_t>(net.config().total_logits()), 0.01);
    auto grads = net.make_grad_buffer();
    pnp::nn::RgcnNet::BackwardWs ws;
    for (const auto& t : tensors) {
      const std::int64_t t1 = now_ns();
      const auto dc = net.forward(t, extra);
      const std::int64_t t2 = now_ns();
      tb.add("nn.rgcn.forward", t1, t2);
      const auto enc = net.encode(t);
      const auto dense = net.dense_forward(enc.readout, extra);
      const auto d_readout = net.dense_backward_into(dense, dlogits, grads);
      net.gnn_backward_into(enc, d_readout, grads, ws);
      tb.add("nn.rgcn.forward_backward", t2, now_ns());
      report.attempt(1, dc.logits.empty() ? 1 : 0);
    }
    report.per_layer("nn.rgcn.forward_us", med("nn.rgcn.forward", 1e3), "us");
    report.per_layer("nn.rgcn.forward_backward_us",
                     med("nn.rgcn.forward_backward", 1e3), "us");
  }

  // serve.model: encode, dense heads and the decodes, per ModelState.
  {
    const pnp::serve::ModelState m1(
        PnpTuner::from_artifact(*w.table1, power.to_artifact()));
    const pnp::serve::ModelState me(
        PnpTuner::from_artifact(*w.extended, ext.to_artifact()));
    const pnp::serve::ModelState md(
        PnpTuner::from_artifact(*w.table1, edp.to_artifact()));
    pnp::serve::ModelState::Workspace ws1, wse, wsd;
    ws1.bind(m1);
    wse.bind(me);
    wsd.bind(md);
    pnp::nn::RgcnNet::GnnCache enc;
    const auto& ext_space = w.extended->space();
    const auto& ext_net = me.tuner().net();
    for (int r = 0; r < m1.num_regions(); ++r) {
      const std::int64_t a = now_ns();
      m1.encode(r, enc);
      tb.add("serve.model.encode", a, now_ns());
      for (int k = 0; k < m1.num_caps(); ++k) {
        const std::int64_t b = now_ns();
        m1.run_heads(enc, r, std::nullopt,
                     w.table1->space().power_caps()[static_cast<std::size_t>(k)],
                     ws1);
        const std::int64_t c = now_ns();
        const auto cfg = m1.decode_power(ws1);
        tb.add("serve.model.run_heads", b, c);
        tb.add("serve.model.decode_power.table1", c, now_ns());
        report.attempt(1, cfg == power.predict_power(r, k) ? 0 : 1);
      }
      pnp::nn::RgcnNet::GnnCache enc_e;
      me.encode(r, enc_e);
      for (int k = 0; k < me.num_caps(); ++k) {
        me.run_heads(enc_e, r, k, std::nullopt, wse);
        const std::int64_t c = now_ns();
        const auto cfg = me.decode_power(wse);
        tb.add("serve.model.decode_power.extended", c, now_ns());
        report.attempt(1, cfg == ext.predict_power(r, k) ? 0 : 1);
        // The exhaustive oracle over the same logits. The extended model's
        // only extra input is the one-hot cap (options(false)).
        std::vector<double> onehot(static_cast<std::size_t>(me.num_caps()));
        onehot[static_cast<std::size_t>(k)] = 1.0;
        const auto dense = ext_net.dense_forward(enc_e.readout, onehot);
        const std::int64_t d = now_ns();
        const auto choice = pnp::core::exhaustive_power<double>(
            ext_space, ext_space.power_caps()[static_cast<std::size_t>(k)],
            ext_net.head_logits(dense, 0), ext_net.head_logits(dense, 1),
            ext_net.head_logits(dense, 2));
        tb.add("core.search.exhaustive_power.extended", d, now_ns());
        report.attempt(1, ext_space.config_from_classes(
                              choice.thread_cls, choice.sched_cls,
                              choice.chunk_cls) == cfg
                              ? 0
                              : 1);
      }
      pnp::nn::RgcnNet::GnnCache enc_d;
      md.encode(r, enc_d);
      md.run_heads(enc_d, r, std::nullopt, std::nullopt, wsd);
      const std::int64_t e = now_ns();
      const auto jc = md.decode_edp(wsd);
      tb.add("serve.model.decode_edp", e, now_ns());
      const auto want = edp.predict_edp(r);
      report.attempt(1, jc.cap_index == want.cap_index && jc.cfg == want.cfg
                            ? 0
                            : 1);
    }
    report.per_layer("serve.model.encode_us", med("serve.model.encode", 1e3),
                     "us");
    report.per_layer("serve.model.run_heads_ns",
                     med("serve.model.run_heads", 1.0), "ns");
    report.per_layer("serve.model.decode_power_ns.table1",
                     med("serve.model.decode_power.table1", 1.0), "ns");
    report.per_layer("serve.model.decode_power_ns.extended",
                     med("serve.model.decode_power.extended", 1.0), "ns");
    report.per_layer("serve.model.decode_edp_ns",
                     med("serve.model.decode_edp", 1.0), "ns");
    report.per_layer("core.search.exhaustive_power_ns.extended",
                     med("core.search.exhaustive_power.extended", 1.0), "ns");
  }

  // core.log: durable appends to a scratch log.
  {
    const fs::path path = fs::path(s.run_dir) / "probe.log";
    fs::remove(path);
    {
      pnp::core::MeasurementLog log(path.string());
      const auto& space = w.table1->space();
      for (int i = 0; i < 2000; ++i) {
        const int r = i % 68;
        const int k = i % w.table1->num_caps();
        const int c = i % space.num_omp_configs();
        const auto& res = w.table1->at(r, k, c);
        const pnp::core::MeasurementRecord rec{
            r, space.power_caps()[static_cast<std::size_t>(k)],
            space.omp_config(c), res.seconds, res.joules};
        const std::int64_t a = now_ns();
        const std::uint64_t seq = log.append(rec);
        tb.add("core.log.append", a, now_ns());
        report.attempt(1, seq == static_cast<std::uint64_t>(i + 1) ? 0 : 1);
      }
    }
    fs::remove(path);
    report.per_layer("core.log.append_us", med("core.log.append", 1e3), "us");
  }

  // serve.service: in-process TuningService on the daemon's artifact.
  {
    const MeasurementDb& db = served.db;
    pnp::serve::TuningService svc(db, served.path);
    for (int i = 0; i < 5; ++i) {
      const std::int64_t a = now_ns();
      svc.reload(served.path);
      tb.add("serve.reload", a, now_ns());
    }
    report.per_layer("serve.reload_ms", med("serve.reload", 1e6), "ms");
    const auto reqs = [&](std::uint64_t seed) {
      pnp::Rng r(seed);
      std::vector<pnp::serve::TuneRequest> v(kBatch);
      for (auto& q : v)
        q = pnp::serve::TuneRequest::power(
            static_cast<int>(r.uniform_index(68)),
            static_cast<int>(r.uniform_index(
                static_cast<std::size_t>(db.num_caps()))));
      return v;
    };
    const auto one = reqs(s.seed + 1);
    for (const auto& q : one) svc.tune(q);  // warm the encode cache
    const std::int64_t a = now_ns();
    for (const auto& q : one) svc.tune(q);
    const double t1_ns =
        static_cast<double>(now_ns() - a) / static_cast<double>(one.size());
    report.per_layer("serve.service.tune_ns.t1", t1_ns, "ns");
    std::vector<std::thread> callers;
    const int rounds = 16;
    const std::int64_t b = now_ns();
    for (int t = 0; t < 4; ++t)
      callers.emplace_back([&, t] {
        const auto mine = reqs(s.seed + 2 + static_cast<std::uint64_t>(t));
        for (int k = 0; k < rounds; ++k)
          for (const auto& q : mine) svc.tune(q);
      });
    for (auto& c : callers) c.join();
    const double qps4 = 4.0 * rounds * kBatch /
                        (static_cast<double>(now_ns() - b) / 1e9);
    report.per_layer("serve.service.qps.t4", qps4, "1/s");
    report.per_layer("serve.service.scaling.t4", qps4 / (1e9 / t1_ns), "ratio");
  }
}

}  // namespace

/// Everything the in-process loop keeps between its set-up, its timing
/// slices and its report.
struct TrainEval::State {
  State(const Settings& s, Report& report, Trace& trace)
      : s(s), report(report), trace(trace), tb(trace.buffer()) {}

  /// Train a power-scenario tuner and check its epoch count.
  pnp::nn::TrainReport train_power(PnpTuner& t, const char* what) {
    const auto rep = t.train_power_scenario(split.train_regions);
    report.check(rep.epochs_run == kEpochs,
                 std::string(what) + " ran " + std::to_string(rep.epochs_run) +
                     " epochs, configured " + std::to_string(kEpochs));
    return rep;
  }

  /// One predict batch's throughput (queries/s), as a span when `b`
  /// records.
  static double timed(pnp::serve::InferenceEngine& e,
                      const std::vector<pnp::serve::PowerQuery>& q,
                      Trace::Buffer& b, const char* span) {
    const std::int64_t t0 = now_ns();
    const auto out = e.predict_power_batch(q);
    const std::int64_t t1 = now_ns();
    b.add(span, t0, t1);
    return static_cast<double>(out.size()) /
           (static_cast<double>(t1 - t0) / 1e9);
  }

  const Settings& s;
  Report& report;
  Trace& trace;
  Trace::Buffer& tb;
  Trace off{false};
  LoopCost cost;
  std::unique_ptr<World> w;
  pnp::core::EvalSplit split;
  std::unique_ptr<PnpTuner> power, edp, ext;
  /// The daemon's db (the 68 suite regions on Table I), its model and
  /// the file that model is saved to.
  std::unique_ptr<MeasurementDb> suite;
  std::unique_ptr<PnpTuner> served;
  std::string served_path;
  double power_loss = 0.0;
  pnp::StateDict sky_gnn;
  std::unique_ptr<pnp::serve::InferenceEngine> e1, ee;
  std::vector<pnp::serve::PowerQuery> q1, qe;
  std::vector<double> epoch_ms, transfer_s, qps1, qpse, qps1_traced;
};

TrainEval::TrainEval(const Settings& s, Report& report, Trace& trace,
                     HostRecord& host)
    : st_(std::make_unique<State>(s, report, trace)) {
  State& st = *st_;
  Trace::Buffer& tb = st.tb;

  // Set-up, kSetups times: corpus generation, the dbs, one tuner's graphs.
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    st.w.reset();
    const std::int64_t a = now_ns();
    st.w = std::make_unique<World>();
    const std::int64_t b = now_ns();
    PnpTuner graphs(*st.w->table1, options(true));
    const std::int64_t c = now_ns();
    setups.push_back(static_cast<double>(c - a) / 1e9);
    tb.add("workloads+core.db.build", a, b);
    tb.add("graph.corpus_build", b, c);
  }
  st.cost.setup_s = median(setups);
  std::cerr << "train-eval setup_s per build:";
  for (double x : setups) std::cerr << " " << x;
  std::cerr << "\n";
  const World& w = *st.w;
  if (trace.on()) {
    // Time the two halves of one more set-up separately.
    const std::int64_t a = now_ns();
    pnp::workloads::GeneratorOptions g;
    g.seed = kCorpusSeed;
    g.num_regions = kGeneratedRegions;
    const auto corpus = pnp::workloads::Generator(g).generate();
    const std::int64_t b = now_ns();
    const auto haswell = pnp::hw::machine_by_name("haswell");
    const MeasurementDb t1(*w.sim, SearchSpace::for_machine(haswell),
                           w.regions);
    const MeasurementDb ex(*w.sim, SearchSpace::extended_for_machine(haswell),
                           w.regions);
    const std::int64_t c = now_ns();
    report.per_layer("workloads.generate_s", static_cast<double>(b - a) / 1e9,
                     "s");
    report.per_layer("core.db.build_s", static_cast<double>(c - b) / 1e9, "s");
    report.attempt(1, corpus.total_regions() ==
                              static_cast<std::size_t>(kGeneratedRegions)
                          ? 0
                          : 1);
  }

  const MeasurementDb& db = *w.table1;
  st.split = split_of(db);

  // The models behind the quality metrics, and the transfer source, each
  // trained once.
  host.sample("train.begin");
  st.power = std::make_unique<PnpTuner>(db, options(true));
  st.power_loss = st.train_power(*st.power, "power training").final_loss;
  st.edp = std::make_unique<PnpTuner>(db, options(false));
  report.check(st.edp->train_edp_scenario(st.split.train_regions).epochs_run ==
                   kEpochs,
               "edp training epochs");
  st.ext = std::make_unique<PnpTuner>(*w.extended, options(false));
  st.train_power(*st.ext, "extended training");
  PnpTuner sky(*w.sky, options(true));
  st.train_power(sky, "skylake training");
  st.sky_gnn = sky.state();
  report.per_layer("nn.train.epochs", kEpochs, "count");
  host.sample("train.end");

  // Held-out quality, predicted through the batched engine.
  const pnp::core::Evaluator eval(*w.sim, db);
  const pnp::core::Evaluator eval_ext(*w.sim, *w.extended);
  const auto score = [&](const pnp::core::Evaluator& ev, const PnpTuner& t,
                         const MeasurementDb& d) {
    pnp::serve::InferenceEngine engine(
        PnpTuner::from_artifact(d, t.to_artifact()));
    std::vector<pnp::serve::PowerQuery> pq;
    for (const auto& q : ev.queries(st.split))
      pq.push_back({q.region, q.cap_index});
    return ev.score(st.split, engine.predict_power_batch(pq)).overall;
  };
  const auto m1 = score(eval, *st.power, db);
  const auto me = score(eval_ext, *st.ext, *w.extended);
  std::vector<double> edp_gain;
  const int tdp = db.num_caps() - 1;
  for (int r : st.split.test_regions) {
    const auto c = st.edp->predict_edp(r);
    const auto& space = db.space();
    const auto& chosen = c.cfg == space.default_config()
                             ? db.at_default(r, c.cap_index)
                             : db.at(r, c.cap_index, space.omp_index(c.cfg));
    edp_gain.push_back(db.at_default(r, tdp).edp() / chosen.edp());
  }
  const std::vector<std::pair<std::string, double>> quality = {
      {"quality.geomean_speedup", m1.geomean_speedup},
      {"quality.oracle_match", m1.oracle_match},
      {"quality.edp_improvement", geomean(edp_gain)},
      {"quality.geomean_speedup.extended", me.geomean_speedup}};
  for (const auto& [k, v] : quality) report.end_to_end(k, v, "ratio");

  st.e1 = std::make_unique<pnp::serve::InferenceEngine>(
      PnpTuner::from_artifact(db, st.power->to_artifact()));
  st.ee = std::make_unique<pnp::serve::InferenceEngine>(
      PnpTuner::from_artifact(*w.extended, st.ext->to_artifact()));
  st.q1 = queries(db, s.seed);
  st.qe = queries(*w.extended, s.seed + 1);
  check_batch(*st.e1, st.q1, report);
  check_batch(*st.ee, st.qe, report);

  // The served model, trained on all 68 suite regions and saved for the
  // daemon; every run trains it afresh, so it always comes from this build.
  const auto haswell = pnp::hw::machine_by_name("haswell");
  st.suite = std::make_unique<MeasurementDb>(
      *w.sim, SearchSpace::for_machine(haswell),
      pnp::workloads::Suite::instance().all_regions());
  st.served = std::make_unique<PnpTuner>(*st.suite, options(true));
  std::vector<int> all(static_cast<std::size_t>(st.suite->num_regions()));
  for (int r = 0; r < st.suite->num_regions(); ++r)
    all[static_cast<std::size_t>(r)] = r;
  report.check(st.served->train_power_scenario(all).epochs_run == kEpochs,
               "served model training epochs");
  st.served_path = (fs::path(s.run_dir) / "served.pnp").string();
  st.served->save(st.served_path);
  st.cost.peak_rss_mb = peak_rss_mb();
}

TrainEval::~TrainEval() = default;

ServedModel TrainEval::served() const {
  return {*st_->suite, *st_->served, st_->served_path};
}

void TrainEval::time_slice(double seconds) {
  State& st = *st_;
  const MeasurementDb& db = *st.w->table1;
  Trace::Buffer& untraced = st.off.buffer();
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    PnpTuner t(db, options(true));
    const auto rep = st.train_power(t, "power training");
    st.report.check(rep.final_loss == st.power_loss,
                    "repeated training is not deterministic");
    if (st.epoch_ms.empty()) {
      // The quality values come from one training; a retrained model must
      // make the same held-out choices, or they would not reproduce.
      std::uint64_t differ = 0;
      for (int r : st.split.test_regions)
        for (int k = 0; k < db.num_caps(); ++k)
          if (!(t.predict_power(r, k) == st.power->predict_power(r, k)))
            ++differ;
      st.report.check(differ == 0, "a retrained model chose differently on " +
                                       std::to_string(differ) +
                                       " held-out queries");
    }
    st.epoch_ms.push_back(rep.seconds * 1e3 / rep.epochs_run);
    for (int j = 0; j < kTransferPerRound; ++j) {
      PnpTuner tt(db, options(true));
      tt.import_gnn(st.sky_gnn, /*freeze_gnn=*/true);
      const std::int64_t a = now_ns();
      st.train_power(tt, "transfer training");
      const std::int64_t b = now_ns();
      st.tb.add("core.pnp_tuner.train_transfer", a, b);
      st.transfer_s.push_back(static_cast<double>(b - a) / 1e9);
    }
    const std::int64_t slice =
        now_ns() + static_cast<std::int64_t>(kPredictSlice * 1e9);
    do {
      st.qps1.push_back(State::timed(*st.e1, st.q1, untraced, ""));
      st.qpse.push_back(State::timed(*st.ee, st.qe, untraced, ""));
      // Traced runs interleave traced batches: the overhead is the
      // difference, on the same stretch of host time.
      if (st.trace.on())
        st.qps1_traced.push_back(State::timed(
            *st.e1, st.q1, st.tb, "serve.engine.predict_power_batch"));
    } while (now_ns() < slice);
  } while (now_ns() < end);
}

LoopCost TrainEval::finish() {
  State& st = *st_;
  Report& report = st.report;
  // Host contention comes in episodes of up to tens of seconds and only
  // ever slows a sample, so each timing is the fastest decile of samples
  // spread over the whole run.
  report.end_to_end("train.epoch_ms", quantile(st.epoch_ms, 0.1), "ms");
  report.end_to_end("train.transfer_s", quantile(st.transfer_s, 0.1), "s");
  report.end_to_end("predict.qps.table1", quantile(st.qps1, 0.9), "1/s");
  report.end_to_end("predict.qps.extended", quantile(st.qpse, 0.9), "1/s");
  if (st.trace.on())
    report.per_layer("trace.overhead.predict_qps",
                     quantile(st.qps1, 0.9) - quantile(st.qps1_traced, 0.9),
                     "1/s");
  std::cerr << "timing rounds=" << st.epoch_ms.size()
            << " epoch_ms median=" << median(st.epoch_ms)
            << " transfer_s median=" << median(st.transfer_s)
            << " qps.table1 median=" << median(st.qps1)
            << " qps.extended median=" << median(st.qpse) << "\n";
  if (st.trace.on())
    probe_layers(*st.w, *st.power, *st.edp, *st.ext, served(), st.s,
                 st.trace, report);
  return st.cost;
}

}  // namespace perfbench
