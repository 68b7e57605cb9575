/// Search-equivalence and constraint-layer tests: the exact constrained
/// decode vs the exhaustive oracle (both precisions, power and EDP, grid
/// and off-grid caps, planted and FP-rounding ties), the extended
/// constraint-carrying spaces, custom-space validation, and the serving
/// decode end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/config_search.hpp"
#include "core/measurement_db.hpp"
#include "core/pnp_tuner.hpp"
#include "core/search_space.hpp"
#include "core/tuner_artifact.hpp"
#include "hw/machine_generator.hpp"
#include "nn/loss.hpp"
#include "serve/inference_engine.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

namespace pnp::core {
namespace {

/// Deterministic logit generator (xorshift64*): tests never touch global
/// RNG state, so every run scores the identical synthetic models.
class LogitGen {
 public:
  explicit LogitGen(std::uint64_t seed) : s_(seed * 2685821657736338717ull + 1) {}
  double next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    const std::uint64_t v = s_ * 2685821657736338717ull;
    return static_cast<double>(v >> 11) / 4503599627370496.0 - 1.0;  // [-1,1)
  }
  std::vector<double> vec(int n) {
    std::vector<double> out(static_cast<std::size_t>(n));
    for (double& x : out) x = next();
    return out;
  }

 private:
  std::uint64_t s_;
};

std::vector<SearchSpace> all_spaces() {
  std::vector<SearchSpace> spaces;
  for (const auto& m :
       {hw::MachineModel::haswell(), hw::MachineModel::skylake()}) {
    spaces.push_back(SearchSpace::for_machine(m));
    spaces.push_back(SearchSpace::extended_for_machine(m));
  }
  return spaces;
}

bool same_choice(const SearchChoice& a, const SearchChoice& b) {
  return a.cap_cls == b.cap_cls && a.thread_cls == b.thread_cls &&
         a.sched_cls == b.sched_cls && a.chunk_cls == b.chunk_cls &&
         a.score == b.score;  // bit-identical, not approximately equal
}

// --- Extended / custom space shape ----------------------------------------

TEST(ExtendedSpace, HaswellExceedsTwoThousandConfigs) {
  const auto s = SearchSpace::extended_for_machine(hw::MachineModel::haswell());
  EXPECT_EQ(s.num_thread_classes(), 12);
  EXPECT_EQ(s.num_schedule_classes(), 3);
  EXPECT_EQ(s.num_chunk_classes(), 16);  // 15 values + default class
  EXPECT_GE(s.joint_size(), 2000);
  EXPECT_EQ(s.joint_size(), 4 * (12 * 3 * 15 + 1));
  EXPECT_TRUE(s.has_constraints());
  EXPECT_GT(s.joint_invalid_count(), 0);
  EXPECT_LT(s.joint_invalid_count(), s.joint_size());
}

TEST(ExtendedSpace, SkylakeExceedsTwoThousandConfigs) {
  const auto s = SearchSpace::extended_for_machine(hw::MachineModel::skylake());
  EXPECT_EQ(s.num_thread_classes(), 16);
  EXPECT_GE(s.joint_size(), 2000);
  EXPECT_TRUE(s.has_constraints());
}

TEST(ExtendedSpace, FullGridValidAtTdpOnly) {
  const auto s = SearchSpace::extended_for_machine(hw::MachineModel::haswell());
  // The thread-per-watt slope admits the whole thread grid exactly at TDP.
  EXPECT_EQ(s.max_valid_threads(s.tdp()), 32);
  // At the tightest cap (40 W) high thread counts are pruned:
  // 40 * 32 / 85 ≈ 15.06, so 12 is the largest admissible grid value.
  EXPECT_EQ(s.max_valid_threads(40.0), 12);
  EXPECT_FALSE(s.is_valid({16, sim::Schedule::Static, 32}, 40.0));
  EXPECT_TRUE(s.is_valid({12, sim::Schedule::Static, 32}, 40.0));
}

TEST(ExtendedSpace, DefaultConfigValidAtEveryCap) {
  for (const auto& s : all_spaces())
    for (double cap_w : s.power_caps())
      EXPECT_TRUE(s.is_valid(s.default_config(), cap_w));
}

TEST(ExtendedSpace, DynamicScheduleChunkFloor) {
  const auto s = SearchSpace::extended_for_machine(hw::MachineModel::haswell());
  EXPECT_FALSE(s.is_valid({4, sim::Schedule::Dynamic, 2}, s.tdp()));
  EXPECT_TRUE(s.is_valid({4, sim::Schedule::Dynamic, 4}, s.tdp()));
  EXPECT_TRUE(s.is_valid({4, sim::Schedule::Static, 2}, s.tdp()));
}

TEST(ExtendedSpace, ChunkThreadProductCeiling) {
  const auto s = SearchSpace::extended_for_machine(hw::MachineModel::haswell());
  EXPECT_FALSE(s.is_valid({32, sim::Schedule::Static, 256}, s.tdp()));
  EXPECT_TRUE(s.is_valid({8, sim::Schedule::Static, 256}, s.tdp()));
}

TEST(PaperSpace, TableOneCarriesNoConstraints) {
  for (const auto& m :
       {hw::MachineModel::haswell(), hw::MachineModel::skylake()}) {
    const auto s = SearchSpace::for_machine(m);
    EXPECT_FALSE(s.has_constraints());
    EXPECT_EQ(s.joint_invalid_count(), 0);
    // Constraint pruning can never remove a config the oracle would pick:
    // every joint point stays valid at its cap.
    for (int i = 0; i < s.joint_size(); ++i) {
      const auto p = s.joint_point(i);
      EXPECT_TRUE(s.is_valid(
          p.cfg, s.power_caps()[static_cast<std::size_t>(p.cap_index)]));
    }
  }
}

TEST(CustomSpace, ValidatesItsInputs) {
  const sim::OmpConfig def{8, sim::Schedule::Static, 0};
  const std::vector<sim::Schedule> scheds{sim::Schedule::Static};
  EXPECT_THROW(SearchSpace::custom({}, scheds, {1}, {50.0}, def), Error);
  EXPECT_THROW(SearchSpace::custom({8}, scheds, {1}, {60.0, 50.0}, def),
               Error);  // caps must ascend
  EXPECT_THROW(SearchSpace::custom({8}, scheds, {1}, {50.0},
                                   {8, sim::Schedule::Static, 16}),
               Error);  // default chunk must be 0
  EXPECT_THROW(SearchSpace::custom({4}, scheds, {1}, {50.0}, def),
               Error);  // default threads off the grid
  EXPECT_THROW(SearchSpace::custom({8}, {sim::Schedule::Dynamic}, {1}, {50.0},
                                   def),
               Error);  // default schedule off the grid
  EXPECT_THROW(
      SearchSpace::custom({8}, scheds, {1}, {50.0}, def,
                          {{static_cast<ConstraintRule::Kind>(99), 1.0, 0.0}}),
      Error);  // unknown constraint kind
  EXPECT_THROW(SearchSpace::custom({0, 8}, scheds, {1}, {50.0}, def),
               Error);  // thread counts must be positive
  const auto ok = SearchSpace::custom(
      {4, 8}, scheds, {1, 2}, {50.0}, def,
      {{ConstraintRule::Kind::kMaxThreads, 4.0, 0.0}});
  EXPECT_TRUE(ok.has_constraints());
  EXPECT_EQ(ok.max_valid_threads(50.0), 4);
}

// --- Exact constrained decode vs the exhaustive oracle ---------------------

/// A custom space exercising all four rule kinds. The default (16 threads)
/// sits above the kMaxThreads bound, so it is the one exempt tuple there.
SearchSpace four_rule_space() {
  return SearchSpace::custom(
      {1, 2, 4, 6, 8, 12, 16},
      {sim::Schedule::Static, sim::Schedule::Dynamic, sim::Schedule::Guided},
      {1, 2, 4, 8, 16, 64, 256}, {30.0, 45.0, 60.0, 90.0},
      {16, sim::Schedule::Static, 0},
      {{ConstraintRule::Kind::kMaxThreads, 12.0, 0.0},
       {ConstraintRule::Kind::kMaxThreadsPerWatt, 0.2, 0.0},
       {ConstraintRule::Kind::kMinChunkForSchedule,
        static_cast<double>(static_cast<int>(sim::Schedule::Guided)), 8.0},
       {ConstraintRule::Kind::kMaxChunkThreadProduct, 512.0, 0.0}});
}

/// A custom space with more chunk classes than the decode ranks on the
/// stack (41), so its heap path runs too.
SearchSpace long_chunk_space() {
  std::vector<int> chunks;
  for (int c = 1; c <= 40; ++c) chunks.push_back(c);
  return SearchSpace::custom(
      {1, 2, 4, 8},
      {sim::Schedule::Static, sim::Schedule::Dynamic, sim::Schedule::Guided},
      std::move(chunks), {20.0, 40.0}, {8, sim::Schedule::Static, 0},
      {{ConstraintRule::Kind::kMaxThreadsPerWatt, 0.1, 0.0},
       {ConstraintRule::Kind::kMinChunkForSchedule,
        static_cast<double>(static_cast<int>(sim::Schedule::Dynamic)), 10.0},
       {ConstraintRule::Kind::kMaxChunkThreadProduct, 100.0, 0.0}});
}

/// Every space the equivalence properties run on: Table I and extended
/// grids of both paper machines and two generated machines, plus the
/// four-rule and long-chunk custom spaces.
std::vector<SearchSpace> decode_spaces() {
  std::vector<SearchSpace> spaces = all_spaces();
  for (const char* name : {"gen:7:0", "gen:7:1"})
    spaces.push_back(
        SearchSpace::extended_for_machine(hw::machine_by_name(name)));
  spaces.push_back(four_rule_space());
  spaces.push_back(long_chunk_space());
  return spaces;
}

/// Power-mode query caps: the grid caps plus off-grid watts — between two
/// grid caps, above TDP, and far below every thread's bound (where only
/// the default survives).
std::vector<double> query_caps(const SearchSpace& s) {
  std::vector<double> caps = s.power_caps();
  caps.push_back(0.5 * (s.power_caps()[0] + s.power_caps()[1]));
  caps.push_back(1.5 * s.tdp());
  caps.push_back(1e-3);
  return caps;
}

/// Logit flavours. kRandom: uniform in [-1, 1). kPlantedTies: three
/// levels, so many tuples tie exactly. kRoundingTies: one head carries a
/// 1e16 offset, so the double sum swallows the other heads' sub-ulp
/// differences (ss + a == ss + b with a != b).
enum class Flavour { kRandom, kPlantedTies, kRoundingTies };

template <typename T>
std::vector<T> head_logits(LogitGen& gen, int n, Flavour f, bool offset) {
  std::vector<T> out;
  for (double x : gen.vec(n)) {
    if (f == Flavour::kPlantedTies)
      x = static_cast<double>(static_cast<int>(x * 1.5));
    if (offset) x += 1e16;
    out.push_back(static_cast<T>(x));
  }
  return out;
}

template <typename T>
struct Logits {
  std::vector<T> cap, thr, sch, chk;
  Logits(const SearchSpace& s, std::uint64_t seed, Flavour f) {
    LogitGen gen(seed);
    const int big =
        f == Flavour::kRoundingTies ? static_cast<int>(seed % 4) : -1;
    cap = head_logits<T>(gen, s.num_cap_classes(), f, big == 0);
    thr = head_logits<T>(gen, s.num_thread_classes(), f, big == 1);
    sch = head_logits<T>(gen, s.num_schedule_classes(), f, big == 2);
    chk = head_logits<T>(gen, s.num_chunk_classes(), f, big == 3);
  }
};

sim::OmpConfig config_of(const SearchSpace& s, const SearchChoice& c) {
  return s.config_from_classes(c.thread_cls, c.sched_cls, c.chunk_cls);
}

template <typename T>
void check_equivalence(const SearchSpace& s, std::uint64_t seed, Flavour f) {
  const Logits<T> l(s, seed, f);
  const std::span<const T> ps(l.cap), ts(l.thr), ss(l.sch), cs(l.chk);
  const sim::OmpConfig argmax_cfg = s.config_from_classes(
      nn::argmax_index(ts), nn::argmax_index(ss), nn::argmax_index(cs));
  for (double cap_w : query_caps(s)) {
    const SearchChoice oracle = exhaustive_power<T>(s, cap_w, ts, ss, cs);
    const SearchChoice exact = search_power<T>(s, cap_w, ts, ss, cs);
    EXPECT_TRUE(same_choice(exact, oracle))
        << "power cap " << cap_w << " seed " << seed;
    EXPECT_EQ(exact.cap_cls, -1);
    EXPECT_TRUE(s.is_valid(config_of(s, exact), cap_w));
    EXPECT_EQ(exact.argmax_pruned, !s.is_valid(argmax_cfg, cap_w));
    if (s.max_valid_threads(cap_w) == 0) {
      EXPECT_EQ(config_of(s, exact), s.default_config()) << "cap " << cap_w;
    }
  }
  const SearchChoice oracle = exhaustive_edp<T>(s, ps, ts, ss, cs);
  const SearchChoice exact = search_edp<T>(s, ps, ts, ss, cs);
  EXPECT_TRUE(same_choice(exact, oracle)) << "edp seed " << seed;
  EXPECT_TRUE(s.is_valid(
      config_of(s, exact),
      s.power_caps()[static_cast<std::size_t>(exact.cap_cls)]));
}

template <typename T>
void check_all_spaces(Flavour f, int seeds) {
  for (const auto& s : decode_spaces())
    for (int seed = 1; seed <= seeds; ++seed)
      check_equivalence<T>(s, static_cast<std::uint64_t>(seed), f);
}

TEST(ExactSearch, MatchesExhaustiveF64) {
  check_all_spaces<double>(Flavour::kRandom, 12);
}

TEST(ExactSearch, MatchesExhaustiveF32) {
  check_all_spaces<float>(Flavour::kRandom, 12);
}

TEST(ExactSearch, MatchesExhaustiveOnPlantedTies) {
  check_all_spaces<double>(Flavour::kPlantedTies, 8);
  check_all_spaces<float>(Flavour::kPlantedTies, 8);
}

TEST(ExactSearch, MatchesExhaustiveOnRoundingTies) {
  check_all_spaces<double>(Flavour::kRoundingTies, 8);
  check_all_spaces<float>(Flavour::kRoundingTies, 8);
}

TEST(ExactSearch, RoundingTieDefersTheFastPath) {
  // The per-head argmax (thread class 1) is valid, but 1e16 swallows the
  // thread logits' difference, so thread class 0 reaches the same sum
  // first: the first-max tie-break picks it, as the oracle does.
  const auto s = SearchSpace::for_machine(hw::MachineModel::haswell());
  std::vector<double> thr(static_cast<std::size_t>(s.num_thread_classes()), -1.0);
  thr[0] = 0.25;
  thr[1] = 0.5;
  std::vector<double> sch(static_cast<std::size_t>(s.num_schedule_classes()), 0.0);
  sch[0] = 1e16;
  const std::vector<double> chk(static_cast<std::size_t>(s.num_chunk_classes()), 0.0);
  const double cap_w = s.power_caps()[0];
  const SearchChoice c = search_power<double>(s, cap_w, thr, sch, chk);
  EXPECT_TRUE(same_choice(c, exhaustive_power<double>(s, cap_w, thr, sch, chk)));
  EXPECT_EQ(c.thread_cls, 0);
  EXPECT_FALSE(c.argmax_pruned);
}

TEST(ExactSearch, ChunkTableMatchesIsValid) {
  for (const auto& s : decode_spaces())
    for (double cap_w : query_caps(s)) {
      const int tmax = s.max_valid_threads(cap_w);
      for (int t = 0; t < s.num_thread_classes(); ++t)
        for (int sc = 0; sc < s.num_schedule_classes(); ++sc) {
          const std::uint8_t* row = s.chunk_validity(t, sc);
          const std::uint8_t need =
              s.thread_values()[static_cast<std::size_t>(t)] <= tmax
                  ? SearchSpace::kChunkAdmitted
                  : SearchSpace::kChunkExempt;
          for (int k = 0; k < s.num_chunk_classes(); ++k)
            EXPECT_EQ((row[k] & need) != 0,
                      s.is_valid(s.config_from_classes(t, sc, k), cap_w))
                << "cap " << cap_w << " tuple " << t << "," << sc << "," << k;
        }
    }
}

TEST(ConstrainedDecode, TieBreakIsLexicographicOnEqualLogits) {
  // All-zero logits: every tuple scores 0, so the winner must be the first
  // valid tuple in (cap, thread, sched, chunk) lexicographic order — the
  // same first-max-wins protocol as nn::argmax_index.
  for (const auto& s : all_spaces()) {
    const std::vector<double> thr(static_cast<std::size_t>(s.num_thread_classes()), 0.0);
    const std::vector<double> sch(static_cast<std::size_t>(s.num_schedule_classes()), 0.0);
    const std::vector<double> chk(static_cast<std::size_t>(s.num_chunk_classes()), 0.0);
    const double cap_w = s.power_caps().front();
    const SearchChoice c = search_power<double>(s, cap_w, thr, sch, chk);
    const SearchChoice oracle =
        exhaustive_power<double>(s, cap_w, thr, sch, chk);
    EXPECT_TRUE(same_choice(c, oracle));
    EXPECT_EQ(oracle.thread_cls, 0);
    EXPECT_EQ(oracle.sched_cls, 0);
    EXPECT_EQ(oracle.chunk_cls, 0);  // (1 thread, static, default chunk)
  }
}

TEST(ConstrainedDecode, FastPathEqualsArgmaxOnUnconstrainedSpace) {
  // On a constraint-free space the per-head argmax tuple is always valid,
  // so the search must return exactly the independent-argmax decode.
  const auto s = SearchSpace::for_machine(hw::MachineModel::haswell());
  LogitGen gen(42);
  const auto thr = gen.vec(s.num_thread_classes());
  const auto sch = gen.vec(s.num_schedule_classes());
  const auto chk = gen.vec(s.num_chunk_classes());
  const auto argmax = [](const std::vector<double>& v) {
    int best = 0;
    for (std::size_t i = 1; i < v.size(); ++i)
      if (v[i] > v[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
    return best;
  };
  const SearchChoice c =
      search_power<double>(s, s.power_caps()[0], thr, sch, chk);
  EXPECT_EQ(c.thread_cls, argmax(thr));
  EXPECT_EQ(c.sched_cls, argmax(sch));
  EXPECT_EQ(c.chunk_cls, argmax(chk));
  EXPECT_FALSE(c.argmax_pruned);
}

TEST(ConstrainedDecode, FallsBackToDefaultWhenEverythingIsPruned) {
  // kMaxThreads 0.5 prunes every grid config; only the default survives
  // (the fallback guarantee).
  const auto s = SearchSpace::custom(
      {4, 8}, {sim::Schedule::Static, sim::Schedule::Dynamic}, {16, 32},
      {50.0, 80.0}, {8, sim::Schedule::Static, 0},
      {{ConstraintRule::Kind::kMaxThreads, 0.5, 0.0}});
  LogitGen gen(3);
  const auto thr = gen.vec(s.num_thread_classes());
  const auto sch = gen.vec(s.num_schedule_classes());
  const auto chk = gen.vec(s.num_chunk_classes());
  for (double cap_w : s.power_caps()) {
    const SearchChoice c = search_power<double>(s, cap_w, thr, sch, chk);
    // The default tuple is a regular (always-valid) candidate, so this is
    // a genuine search result.
    EXPECT_EQ(config_of(s, c), s.default_config());
    const SearchChoice ex = exhaustive_power<double>(s, cap_w, thr, sch, chk);
    EXPECT_TRUE(same_choice(c, ex));
  }
  // Dense layout: the only valid flat class is the default tuple's.
  std::vector<double> dense(
      static_cast<std::size_t>(s.num_thread_classes() *
                               s.num_schedule_classes() *
                               s.num_chunk_classes()));
  LogitGen dg(4);
  for (double& x : dense) x = dg.next();
  const int flat = dense_argmax_valid<double>(s, dense, false, 50.0);
  ASSERT_GE(flat, 0);
  const TunerClasses tc = tuner_classes_from_flat(s, flat, false);
  EXPECT_EQ(s.config_from_classes(tc.thread, tc.sched, tc.chunk),
            s.default_config());
  const Decoded d = decode_logits<double>(s, /*factored=*/false,
                                          /*edp=*/false, dense, 50.0);
  EXPECT_EQ(d.cfg, s.default_config());
  EXPECT_TRUE(d.argmax_pruned);
}

TEST(DenseArgmax, EqualsPlainArgmaxOnUnconstrainedSpace) {
  const auto s = SearchSpace::for_machine(hw::MachineModel::skylake());
  LogitGen gen(9);
  std::vector<double> dense(
      static_cast<std::size_t>(s.num_thread_classes() *
                               s.num_schedule_classes() *
                               s.num_chunk_classes()));
  for (double& x : dense) x = gen.next();
  int plain = 0;
  for (std::size_t i = 1; i < dense.size(); ++i)
    if (dense[i] > dense[static_cast<std::size_t>(plain)])
      plain = static_cast<int>(i);
  EXPECT_EQ(dense_argmax_valid<double>(s, dense, false, s.power_caps()[0]),
            plain);
}

// --- Trained models: serving equals the tuner across spaces --------------

MeasurementDb small_db(const hw::MachineModel& m, const SearchSpace& space) {
  auto regions = workloads::Suite::instance().all_regions();
  regions.resize(12);  // enough structure, fast to measure and train
  return MeasurementDb(sim::Simulator(m), space, regions);
}

TEST(ModelGuidedServing, EngineMatchesTunerOnExtendedSpace) {
  const auto m = hw::MachineModel::haswell();
  const auto space = SearchSpace::extended_for_machine(m);
  const MeasurementDb db = small_db(m, space);
  PnpOptions opt;
  opt.trainer.max_epochs = 2;
  PnpTuner tuner(db, opt);
  std::vector<int> all;
  for (int r = 0; r < db.num_regions(); ++r) all.push_back(r);
  tuner.train_power_scenario(all);

  // The tuner's own predictions are the reference; the engine must match
  // them through both scratch paths.
  std::vector<sim::OmpConfig> ref;
  for (int r = 0; r < db.num_regions(); ++r)
    for (int k = 0; k < db.num_caps(); ++k)
      ref.push_back(tuner.predict_power(r, k));

  for (const bool use_arena : {true, false}) {
    serve::EngineOptions eopt;
    eopt.use_arena = use_arena;
    serve::InferenceEngine engine(PnpTuner::from_artifact(db, tuner.to_artifact()),
                                  eopt);
    std::size_t i = 0;
    for (int r = 0; r < db.num_regions(); ++r)
      for (int k = 0; k < db.num_caps(); ++k)
        EXPECT_EQ(engine.predict_power(r, k), ref[i++])
            << "region " << r << " cap " << k << " arena " << use_arena;
  }
}

TEST(ModelGuidedServing, EdpEngineMatchesTunerOnExtendedSpace) {
  const auto m = hw::MachineModel::haswell();
  const auto space = SearchSpace::extended_for_machine(m);
  const MeasurementDb db = small_db(m, space);
  PnpOptions opt;
  opt.trainer.max_epochs = 2;
  PnpTuner tuner(db, opt);
  std::vector<int> all;
  for (int r = 0; r < db.num_regions(); ++r) all.push_back(r);
  tuner.train_edp_scenario(all);

  std::vector<PnpTuner::JointChoice> ref;
  for (int r = 0; r < db.num_regions(); ++r) ref.push_back(tuner.predict_edp(r));

  serve::InferenceEngine engine(
      PnpTuner::from_artifact(db, tuner.to_artifact()));
  for (int r = 0; r < db.num_regions(); ++r) {
    const auto jc = engine.predict_edp(r);
    EXPECT_EQ(jc.cap_index, ref[static_cast<std::size_t>(r)].cap_index);
    EXPECT_EQ(jc.cfg, ref[static_cast<std::size_t>(r)].cfg);
    EXPECT_TRUE(space.is_valid(
        jc.cfg, space.power_caps()[static_cast<std::size_t>(jc.cap_index)]));
  }
}

TEST(ModelGuidedServing, ServiceHotReloadsExtendedSpaceArtifact) {
  const auto m = hw::MachineModel::haswell();
  const auto space = SearchSpace::extended_for_machine(m);
  const MeasurementDb db = small_db(m, space);
  ASSERT_GE(space.joint_size(), 2000);

  PnpOptions opt;
  opt.trainer.max_epochs = 2;
  std::vector<int> all;
  for (int r = 0; r < db.num_regions(); ++r) all.push_back(r);

  PnpTuner first(db, opt);
  first.train_power_scenario(all);
  const std::string p1 = testing::TempDir() + "search_ext_v1.pnp";
  const std::string p2 = testing::TempDir() + "search_ext_v2.pnp";
  first.save(p1);
  opt.seed = 99;  // a genuinely different second model
  PnpTuner second(db, opt);
  second.train_power_scenario(all);
  second.save(p2);

  serve::TuningService service(db, p1);
  EXPECT_EQ(service.model_version(), 1u);

  // Serve → hot-reload → serve; both versions answer deterministically and
  // within the constraint layer.
  const auto grid = [&](std::uint64_t want_version) {
    std::vector<serve::TuneResult> out;
    for (int r = 0; r < db.num_regions(); ++r)
      for (int k = 0; k < db.num_caps(); ++k) {
        const auto res = service.tune(serve::TuneRequest::power(r, k));
        EXPECT_EQ(res.model_version, want_version);
        EXPECT_TRUE(space.is_valid(
            res.config, space.power_caps()[static_cast<std::size_t>(k)]));
        out.push_back(res);
      }
    return out;
  };
  const auto g1a = grid(1);
  const auto g1b = grid(1);
  for (std::size_t i = 0; i < g1a.size(); ++i)
    EXPECT_EQ(g1a[i].config, g1b[i].config);

  EXPECT_EQ(service.reload(p2), 2u);
  const auto g2 = grid(2);
  EXPECT_EQ(g2.size(), g1a.size());
}

}  // namespace
}  // namespace pnp::core
