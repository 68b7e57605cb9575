#include "serve/inference_engine.hpp"

#include <algorithm>

#ifdef PNP_PARALLEL
#include <omp.h>
#endif

#include "common/error.hpp"
#include "core/config_search.hpp"

namespace pnp::serve {

namespace {

int worker_count() {
#ifdef PNP_PARALLEL
  return omp_get_max_threads();
#else
  return 1;
#endif
}

const char* mode_name(core::PnpTuner::Mode m) {
  switch (m) {
    case core::PnpTuner::Mode::Power:
      return "power";
    case core::PnpTuner::Mode::Edp:
      return "edp";
    default:
      return "untrained";
  }
}

}  // namespace

// --- ModelState --------------------------------------------------------------

namespace {

// Arena tensor indices, in execution-step order. The f64 tier mirrors the
// allocation path's DenseCache buffer-for-buffer (separate pre/post
// activations) so both paths run the identical dense_forward_spans code;
// the f32 tier runs ReLU in place and needs fewer slots.
enum F64Slot { kExtra64 = 0, kU0, kZ1, kA1, kZ2, kA2, kLogits };
enum F32Slot { kExtra32 = 0, kU0F, kH1F, kH2F, kLogitsF };

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

ModelState::ModelState(core::PnpTuner tuner,
                       std::optional<nn::Precision> precision)
    : tuner_(std::move(tuner)),
      precision_(precision.value_or(tuner_.serve_precision())) {
  PNP_CHECK_MSG(
      tuner_.net_ != nullptr && tuner_.mode_ != core::PnpTuner::Mode::None,
      "serving needs a trained or loaded tuner");
  if (precision_ == nn::Precision::f32)
    dense_f32_ = tuner_.net_->dense_weights_f32();
}

void ModelState::Workspace::bind(const ModelState& m) {
  const nn::RgcnNetConfig& cfg = m.tuner_.net_->config();
  std::uint64_t key = 0x8000000000000001ull;  // never 0 (= unbound)
  key = mix(key, static_cast<std::uint64_t>(m.precision_));
  key = mix(key, static_cast<std::uint64_t>(cfg.extra_features));
  key = mix(key, static_cast<std::uint64_t>(cfg.hidden));
  key = mix(key, static_cast<std::uint64_t>(cfg.dense_hidden1));
  key = mix(key, static_cast<std::uint64_t>(cfg.dense_hidden2));
  key = mix(key, static_cast<std::uint64_t>(cfg.total_logits()));
  if (key == key_) return;

  // Lifetimes by execution step of run_heads: fill_extra writes `extra`
  // (0), u0 = readout ⊕ extra (1), each linear/activation is one step,
  // and the logits live until the decode reads them. Buffers whose intervals
  // never meet (e.g. extra and z1) share bytes.
  const auto d = [](int n) { return static_cast<std::size_t>(n) * sizeof(double); };
  const auto f = [](int n) { return static_cast<std::size_t>(n) * sizeof(float); };
  std::vector<nn::TensorSpec> specs;
  if (m.precision_ == nn::Precision::f64) {
    specs = {
        {"extra", d(cfg.extra_features), 0, 1},
        {"u0", d(cfg.hidden + cfg.extra_features), 1, 2},
        {"z1", d(cfg.dense_hidden1), 2, 3},
        {"a1", d(cfg.dense_hidden1), 3, 4},
        {"z2", d(cfg.dense_hidden2), 4, 5},
        {"a2", d(cfg.dense_hidden2), 5, 6},
        {"logits", d(cfg.total_logits()), 6, 7},
    };
  } else {
    specs = {
        {"extra", d(cfg.extra_features), 0, 1},
        {"u0f", f(cfg.hidden + cfg.extra_features), 1, 2},
        {"h1f", f(cfg.dense_hidden1), 2, 3},
        {"h2f", f(cfg.dense_hidden2), 3, 4},
        {"logitsf", f(cfg.total_logits()), 4, 5},
    };
  }
  arena_.reset(nn::ArenaPlan::build(std::move(specs)));
  key_ = key;
}

bool ModelState::scalar_cap() const { return !tuner_.opt_.cap_onehot; }

void ModelState::validate_region(int region) const {
  PNP_CHECK_MSG(region >= 0 && region < tuner_.db_.num_regions(),
                "region " << region << " out of range [0, "
                          << tuner_.db_.num_regions() << ")");
}

void ModelState::validate_cap(int cap_index) const {
  PNP_CHECK_MSG(cap_index >= 0 && cap_index < tuner_.db_.num_caps(),
                "cap index " << cap_index << " out of range [0, "
                             << tuner_.db_.num_caps() << ")");
}

void ModelState::require_mode(core::PnpTuner::Mode m, const char* what) const {
  PNP_CHECK_MSG(tuner_.mode_ == m, what << " not servable by a "
                                        << mode_name(tuner_.mode_)
                                        << "-scenario model");
}

void ModelState::require_scalar_cap() const {
  PNP_CHECK_MSG(!tuner_.opt_.cap_onehot,
                "predicting at arbitrary caps requires a scalar-cap model "
                "(cap_onehot == false)");
}

void ModelState::encode(int region, nn::RgcnNet::GnnCache& fwd) const {
  validate_region(region);
  tuner_.net_->encode_into(tuner_.tensors_[static_cast<std::size_t>(region)],
                           fwd);
}

void ModelState::encode(int region, nn::RgcnNet::GnnCache& fwd,
                        Encoding& out) const {
  encode(region, fwd);
  out.readout = fwd.readout;
}

namespace {

/// f32-tier dense input: u0 = readout ⊕ extra, cast to f32.
void fill_u0_f32(const ReadoutView& enc, std::span<const double> extra,
                 std::span<float> u0) {
  const std::size_t h = enc.f64.size();
  for (std::size_t i = 0; i < h; ++i) u0[i] = static_cast<float>(enc.f64[i]);
  for (std::size_t i = 0; i < extra.size(); ++i)
    u0[h + i] = static_cast<float>(extra[i]);
}

}  // namespace

void ModelState::run_heads(const ReadoutView& enc, int region,
                           std::optional<int> cap_index,
                           std::optional<double> cap_w, Scratch& s) const {
  s.cap_w = cap_index.has_value()
                ? tuner_.db_.space()
                      .power_caps()[static_cast<std::size_t>(*cap_index)]
                : cap_w.value_or(0.0);
  tuner_.fill_extra(region, cap_index, cap_w, s.extra);
  const nn::RgcnNet& net = *tuner_.net_;
  const nn::RgcnNetConfig& cfg = net.config();
  if (precision_ == nn::Precision::f64) {
    net.dense_forward_into(enc.f64, s.extra, s.dc);
    return;
  }
  s.u0f.resize(enc.f64.size() + s.extra.size());
  fill_u0_f32(enc, s.extra, s.u0f);
  s.h1f.resize(static_cast<std::size_t>(cfg.dense_hidden1));
  s.h2f.resize(static_cast<std::size_t>(cfg.dense_hidden2));
  s.logitsf.resize(static_cast<std::size_t>(cfg.total_logits()));
  nn::RgcnNet::dense_forward_f32(dense_f32_, s.u0f, s.h1f, s.h2f, s.logitsf);
}

void ModelState::run_heads(const ReadoutView& enc, int region,
                           std::optional<int> cap_index,
                           std::optional<double> cap_w, Workspace& ws) const {
  ws.bind(*this);
  ws.cap_w_ = cap_index.has_value()
                  ? tuner_.db_.space()
                        .power_caps()[static_cast<std::size_t>(*cap_index)]
                  : cap_w.value_or(0.0);
  const nn::RgcnNet& net = *tuner_.net_;
  nn::Arena& a = ws.arena_;
  const auto dspan = [&a](std::size_t slot) {
    return std::span<double>(a.data<double>(slot), a.count<double>(slot));
  };
  const auto fspan = [&a](std::size_t slot) {
    return std::span<float>(a.data<float>(slot), a.count<float>(slot));
  };
  if (precision_ == nn::Precision::f64) {
    const std::span<double> extra = dspan(kExtra64);
    tuner_.fill_extra_into(region, cap_index, cap_w, extra);
    net.dense_forward_spans(enc.f64, extra, dspan(kU0), dspan(kZ1),
                            dspan(kA1), dspan(kZ2), dspan(kA2),
                            dspan(kLogits));
    return;
  }
  const std::span<double> extra = dspan(kExtra32);
  tuner_.fill_extra_into(region, cap_index, cap_w, extra);
  const std::span<float> u0 = fspan(kU0F);
  fill_u0_f32(enc, extra, u0);
  nn::RgcnNet::dense_forward_f32(dense_f32_, u0, fspan(kH1F), fspan(kH2F),
                                 fspan(kLogitsF));
}

core::Decoded ModelState::decode(const Scratch& s, bool edp) const {
  const core::SearchSpace& space = tuner_.db_.space();
  const bool factored = tuner_.opt_.factored_heads;
  if (precision_ == nn::Precision::f64)
    return core::decode_logits<double>(space, factored, edp, s.dc.logits,
                                       s.cap_w);
  return core::decode_logits<float>(space, factored, edp, s.logitsf, s.cap_w);
}

core::Decoded ModelState::decode(const Workspace& ws, bool edp) const {
  PNP_CHECK_MSG(ws.key_ != 0, "decode before run_heads on this workspace");
  const core::SearchSpace& space = tuner_.db_.space();
  const bool factored = tuner_.opt_.factored_heads;
  if (precision_ == nn::Precision::f64)
    return core::decode_logits<double>(
        space, factored, edp,
        std::span<const double>(ws.arena_.data<double>(kLogits),
                                ws.arena_.count<double>(kLogits)),
        ws.cap_w_);
  return core::decode_logits<float>(
      space, factored, edp,
      std::span<const float>(ws.arena_.data<float>(kLogitsF),
                             ws.arena_.count<float>(kLogitsF)),
      ws.cap_w_);
}

sim::OmpConfig ModelState::decode_power(const Scratch& s) const {
  return decode(s, /*edp=*/false).cfg;
}

sim::OmpConfig ModelState::decode_power(const Workspace& ws) const {
  return decode(ws, /*edp=*/false).cfg;
}

core::PnpTuner::JointChoice ModelState::decode_edp(const Scratch& s) const {
  const core::Decoded d = decode(s, /*edp=*/true);
  return {d.cap_index, d.cfg};
}

core::PnpTuner::JointChoice ModelState::decode_edp(const Workspace& ws) const {
  const core::Decoded d = decode(ws, /*edp=*/true);
  return {d.cap_index, d.cfg};
}

// --- InferenceEngine ---------------------------------------------------------

InferenceEngine::InferenceEngine(const core::MeasurementDb& db,
                                 const std::string& path,
                                 EngineOptions options)
    : InferenceEngine(core::PnpTuner::load(db, path), options) {}

InferenceEngine::InferenceEngine(core::PnpTuner tuner, EngineOptions options)
    : state_(std::move(tuner), options.precision),
      opt_(options),
      enc_(static_cast<std::size_t>(state_.num_regions())) {
  scratch_.resize(static_cast<std::size_t>(worker_count()));
}

void InferenceEngine::ensure_encoded(std::span<const int> regions) {
  // The OpenMP thread count may have been raised since construction
  // (omp_set_num_threads); re-size the per-thread scratch at this serial
  // point so the dense phase never indexes past it.
  if (scratch_.size() < static_cast<std::size_t>(worker_count()))
    scratch_.resize(static_cast<std::size_t>(worker_count()));
  // Validate the whole batch before touching the cache, so enc_ is only
  // ever indexed in range.
  for (int r : regions) state_.validate_region(r);
  pending_.clear();
  for (int r : regions)
    if (enc_[static_cast<std::size_t>(r)].readout.empty()) pending_.push_back(r);
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
  // Each thread encodes through its own forward workspace; only the
  // readout of each pass is kept.
#ifdef PNP_PARALLEL
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < pending_.size(); ++i)
    state_.encode(pending_[i],
                  scratch_[static_cast<std::size_t>(omp_get_thread_num())].fwd,
                  enc_[static_cast<std::size_t>(pending_[i])]);
#else
  for (int r : pending_)
    state_.encode(r, scratch_[0].fwd, enc_[static_cast<std::size_t>(r)]);
#endif
  cached_ += pending_.size();
}

template <class Fn>
void InferenceEngine::for_each_query(std::size_t n, Fn&& fn) {
#ifdef PNP_PARALLEL
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i)
    fn(i, scratch_[static_cast<std::size_t>(omp_get_thread_num())]);
#else
  for (std::size_t i = 0; i < n; ++i) fn(i, scratch_[0]);
#endif
}

sim::OmpConfig InferenceEngine::serve_power(const Encoding& enc, int region,
                                            std::optional<int> cap_index,
                                            std::optional<double> cap_w,
                                            PerThread& t) {
  core::Decoded d;
  if (opt_.use_arena) {
    state_.run_heads(enc, region, cap_index, cap_w, t.ws);
    d = state_.decode(t.ws, /*edp=*/false);
  } else {
    state_.run_heads(enc, region, cap_index, cap_w, t.scratch);
    d = state_.decode(t.scratch, /*edp=*/false);
  }
  t.argmax_pruned += d.argmax_pruned ? 1 : 0;
  return d.cfg;
}

std::uint64_t InferenceEngine::argmax_pruned() const {
  std::uint64_t n = 0;
  for (const PerThread& t : scratch_) n += t.argmax_pruned;
  return n;
}

sim::OmpConfig InferenceEngine::predict_power(int region, int cap_index) {
  const PowerQuery q{region, cap_index};
  return predict_power_batch(std::span<const PowerQuery>(&q, 1))[0];
}

core::PnpTuner::JointChoice InferenceEngine::predict_edp(int region) {
  return predict_edp_batch(std::span<const int>(&region, 1))[0];
}

std::vector<sim::OmpConfig> InferenceEngine::predict_power_batch(
    std::span<const PowerQuery> queries) {
  state_.require_mode(core::PnpTuner::Mode::Power, "a power query");
  regions_buf_.clear();
  regions_buf_.reserve(queries.size());
  for (const PowerQuery& q : queries) {
    state_.validate_cap(q.cap_index);
    regions_buf_.push_back(q.region);
  }
  ensure_encoded(regions_buf_);

  std::vector<sim::OmpConfig> out(queries.size());
  for_each_query(queries.size(), [&](std::size_t i, PerThread& t) {
    const int r = queries[i].region;
    out[i] = serve_power(enc_[static_cast<std::size_t>(r)], r,
                         queries[i].cap_index, std::nullopt, t);
  });
  return out;
}

std::vector<sim::OmpConfig> InferenceEngine::predict_power_at_batch(
    std::span<const int> regions, double cap_w) {
  state_.require_mode(core::PnpTuner::Mode::Power, "a power query");
  state_.require_scalar_cap();
  PNP_CHECK_MSG(cap_w > 0.0, "cap must be positive, got " << cap_w);
  ensure_encoded(regions);

  std::vector<sim::OmpConfig> out(regions.size());
  for_each_query(regions.size(), [&](std::size_t i, PerThread& t) {
    out[i] = serve_power(enc_[static_cast<std::size_t>(regions[i])],
                         regions[i], std::nullopt, cap_w, t);
  });
  return out;
}

std::vector<core::PnpTuner::JointChoice> InferenceEngine::predict_edp_batch(
    std::span<const int> regions) {
  state_.require_mode(core::PnpTuner::Mode::Edp, "an edp query");
  ensure_encoded(regions);

  std::vector<core::PnpTuner::JointChoice> out(regions.size());
  for_each_query(regions.size(), [&](std::size_t i, PerThread& t) {
    const Encoding& enc = enc_[static_cast<std::size_t>(regions[i])];
    if (opt_.use_arena) {
      state_.run_heads(enc, regions[i], std::nullopt, std::nullopt, t.ws);
      out[i] = state_.decode_edp(t.ws);
    } else {
      state_.run_heads(enc, regions[i], std::nullopt, std::nullopt, t.scratch);
      out[i] = state_.decode_edp(t.scratch);
    }
  });
  return out;
}

}  // namespace pnp::serve
