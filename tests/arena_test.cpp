/// \file arena_test.cpp
/// The static workspace planner (nn/arena.hpp) and the arena-backed
/// serving fast path built on it. Three layers of guarantees:
///
///  1. Planner safety properties, driven with random interval sets:
///     tensors with overlapping lifetimes never share bytes, every offset
///     honors its alignment, and the arena never exceeds the sum of the
///     individual aligned sizes (reuse can only shrink it).
///  2. Serving bit-identity: the arena-backed Workspace path produces
///     predictions bit-identical to the allocation-path Scratch oracle —
///     across power, power_at, and edp queries, and across a hot reload.
///  3. The fast path's reason to exist: steady-state arena serving
///     performs ZERO heap allocations, verified by counting every global
///     operator new in this binary.
///  4. The compact encode cache: a cached region keeps only its readout
///     (under 1 KiB, counted in live heap bytes beyond the per-thread
///     forward workspace), and predictions served from it equal the full
///     forward pass at both precision tiers, on Table I and the extended
///     space, and across a hot reload.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#ifdef PNP_PARALLEL
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "core/pnp_tuner.hpp"
#include "core/tuner_artifact.hpp"
#include "nn/arena.hpp"
#include "serve/inference_engine.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

// --- global allocation counter ----------------------------------------------
// One gtest binary per test file (tests/CMakeLists.txt), so overriding the
// global allocation functions here is scoped to this suite. Counting is
// always on; tests read the counters before/after the region of interest.
// Live bytes count each block's usable size (malloc_usable_size), added
// on allocation and subtracted on release, so a difference of two reads
// is the heap a region of code left allocated.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (!p) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (!p) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}
}  // namespace

// The replacements below pair malloc-backed new with free-backed delete —
// a matched set; GCC's heuristic can't see across the replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) / a * a));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

// --- planner unit tests ------------------------------------------------------

TEST(ArenaPlan, EmptyPlanIsEmpty) {
  const auto plan = nn::ArenaPlan::build({});
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.total_bytes(), 0u);
}

TEST(ArenaPlan, MalformedSpecsRejected) {
  EXPECT_THROW(nn::ArenaPlan::build({{"bad", 8, 3, 2}}), Error);
  EXPECT_THROW(nn::ArenaPlan::build({{"bad-align", 8, 0, 1, 48}}), Error);
  EXPECT_THROW(nn::ArenaPlan::build({{"zero-align", 8, 0, 1, 0}}), Error);
}

TEST(ArenaPlan, DisjointLifetimesShareBytes) {
  // Two same-size tensors whose intervals never meet collapse into one
  // reservation; a third overlapping both needs its own bytes.
  const auto plan = nn::ArenaPlan::build({
      {"a", 256, 0, 1},
      {"b", 256, 2, 3},
      {"c", 256, 0, 3},
  });
  EXPECT_EQ(plan.offset(0), plan.offset(1));
  EXPECT_EQ(plan.total_bytes(), 512u);
}

TEST(ArenaPlan, OverlappingLifetimesNeverShare) {
  const auto plan = nn::ArenaPlan::build({
      {"a", 64, 0, 2},
      {"b", 64, 1, 3},
  });
  EXPECT_NE(plan.offset(0), plan.offset(1));
  EXPECT_EQ(plan.total_bytes(), 128u);
}

TEST(ArenaPlan, ZeroByteTensorsAreLegal) {
  // A model with no extra features plans an empty slot; it must not
  // disturb its neighbours.
  const auto plan = nn::ArenaPlan::build({
      {"empty", 0, 0, 1},
      {"real", 128, 0, 2},
  });
  EXPECT_EQ(plan.total_bytes(), 128u);
}

bool lifetimes_overlap(const nn::TensorSpec& a, const nn::TensorSpec& b) {
  return a.first_use <= b.last_use && b.first_use <= a.last_use;
}

bool bytes_overlap(const nn::PlannedTensor& a, const nn::PlannedTensor& b) {
  if (a.spec.bytes == 0 || b.spec.bytes == 0) return false;
  return a.offset < b.offset + b.spec.bytes &&
         b.offset < a.offset + a.spec.bytes;
}

TEST(ArenaPlan, PropertyRandomIntervalsSafeAndBounded) {
  // The two safety properties over 300 random interval sets: conflicting
  // tensors never share bytes; the arena never exceeds the sum of the
  // aligned sizes (what a no-reuse layout would take).
  Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_index(12));
    // One alignment per trial (like ModelState's all-64 plans): the
    // sum-of-aligned-sizes bound below assumes a common alignment.
    const std::size_t align = std::size_t{1} << (3 + rng.uniform_index(5));
    std::vector<nn::TensorSpec> specs;
    for (int i = 0; i < n; ++i) {
      nn::TensorSpec s;
      s.name = "t" + std::to_string(i);
      s.bytes = rng.uniform_index(4096);  // 0 allowed
      s.first_use = static_cast<int>(rng.uniform_index(10));
      s.last_use = s.first_use + static_cast<int>(rng.uniform_index(5));
      s.align = align;
      specs.push_back(s);
    }
    const auto plan = nn::ArenaPlan::build(specs);
    ASSERT_EQ(plan.size(), specs.size());

    std::size_t no_reuse = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const nn::PlannedTensor& t = plan.at(i);
      EXPECT_EQ(t.offset % t.spec.align, 0u)
          << "trial " << trial << ": tensor " << i << " misaligned";
      EXPECT_LE(t.offset + t.spec.bytes, plan.total_bytes());
      no_reuse += (t.spec.bytes + t.spec.align - 1) / t.spec.align *
                  t.spec.align;
    }
    EXPECT_LE(plan.total_bytes(), no_reuse) << "trial " << trial;

    for (std::size_t i = 0; i < plan.size(); ++i)
      for (std::size_t j = i + 1; j < plan.size(); ++j)
        if (lifetimes_overlap(plan.at(i).spec, plan.at(j).spec))
          EXPECT_FALSE(bytes_overlap(plan.at(i), plan.at(j)))
              << "trial " << trial << ": tensors " << i << " and " << j
              << " overlap in both lifetime and bytes";
  }
}

TEST(ArenaTest, TypedViewsRespectSizeAndAlignment) {
  nn::Arena arena(nn::ArenaPlan::build({
      {"doubles", 8 * sizeof(double), 0, 1},
      {"ints", 4 * sizeof(int), 1, 2},
  }));
  EXPECT_EQ(arena.count<double>(0), 8u);
  EXPECT_EQ(arena.count<int>(1), 4u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.data<double>(0)) % 64, 0u);
  // A 12-byte tensor is not viewable as doubles.
  nn::Arena odd(nn::ArenaPlan::build({{"odd", 12, 0, 1}}));
  EXPECT_THROW(odd.data<double>(0), Error);
}

// --- serving fixture ---------------------------------------------------------

/// A small trained world shared by the serving tests: 10 regions of the
/// Haswell suite, a few epochs — deterministic, non-trivial predictions.
class ArenaServingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto machine = hw::MachineModel::haswell();
    sim_ = new sim::Simulator(machine);
    auto regions = workloads::Suite::instance().all_regions();
    regions.resize(10);
    db_ = new core::MeasurementDb(
        *sim_, core::SearchSpace::for_machine(machine), regions);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete sim_;
    db_ = nullptr;
    sim_ = nullptr;
  }

  static core::PnpOptions small_options() {
    core::PnpOptions opt;
    opt.trainer.max_epochs = 4;
    opt.trainer.min_loss = 0.0;
    return opt;
  }

  static std::vector<int> all_regions() {
    std::vector<int> r;
    for (int i = 0; i < db_->num_regions(); ++i) r.push_back(i);
    return r;
  }

  static core::TunerArtifact trained_power_artifact(bool scalar_cap = false) {
    core::PnpOptions opt = small_options();
    opt.cap_onehot = !scalar_cap;
    core::PnpTuner tuner(*db_, opt);
    tuner.train_power_scenario(all_regions());
    return tuner.to_artifact();
  }

  static sim::Simulator* sim_;
  static core::MeasurementDb* db_;
};

sim::Simulator* ArenaServingFixture::sim_ = nullptr;
core::MeasurementDb* ArenaServingFixture::db_ = nullptr;

serve::EngineOptions engine_options(bool use_arena) {
  serve::EngineOptions opt;
  opt.use_arena = use_arena;
  return opt;
}

TEST_F(ArenaServingFixture, ArenaPowerPredictionsMatchOracle) {
  const auto art = trained_power_artifact();
  serve::InferenceEngine arena(core::PnpTuner::from_artifact(*db_, art),
                               engine_options(true));
  serve::InferenceEngine oracle(core::PnpTuner::from_artifact(*db_, art),
                                engine_options(false));
  std::vector<serve::PowerQuery> grid;
  for (int r = 0; r < db_->num_regions(); ++r)
    for (int k = 0; k < db_->num_caps(); ++k) grid.push_back({r, k});
  const auto a = arena.predict_power_batch(grid);
  const auto b = oracle.predict_power_batch(grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "query " << i;
}

TEST_F(ArenaServingFixture, ArenaPowerAtPredictionsMatchOracle) {
  const auto art = trained_power_artifact(/*scalar_cap=*/true);
  serve::InferenceEngine arena(core::PnpTuner::from_artifact(*db_, art),
                               engine_options(true));
  serve::InferenceEngine oracle(core::PnpTuner::from_artifact(*db_, art),
                                engine_options(false));
  const auto regions = all_regions();
  for (const double cap_w : {35.0, 52.5, 71.0}) {
    const auto a = arena.predict_power_at_batch(regions, cap_w);
    const auto b = oracle.predict_power_at_batch(regions, cap_w);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i], b[i]) << "region " << i << " cap " << cap_w;
  }
}

TEST_F(ArenaServingFixture, ArenaEdpPredictionsMatchOracle) {
  core::PnpTuner t1(*db_, small_options());
  t1.train_edp_scenario(all_regions());
  const auto art = t1.to_artifact();
  serve::InferenceEngine arena(core::PnpTuner::from_artifact(*db_, art),
                               engine_options(true));
  serve::InferenceEngine oracle(core::PnpTuner::from_artifact(*db_, art),
                                engine_options(false));
  const auto regions = all_regions();
  const auto a = arena.predict_edp_batch(regions);
  const auto b = oracle.predict_edp_batch(regions);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cfg, b[i].cfg) << "region " << i;
    EXPECT_EQ(a[i].cap_index, b[i].cap_index) << "region " << i;
  }
}

TEST_F(ArenaServingFixture, ArenaServiceMatchesOracleAcrossReload) {
  // Same request stream against an arena-backed service and the
  // allocation-path oracle service, with a hot reload in the middle —
  // results (and served versions) must stay bit-identical throughout.
  const auto art = trained_power_artifact();
  const std::string path = ::testing::TempDir() + "arena_reload.pnp";
  art.save_file(path);

  serve::TuningServiceOptions arena_opt, oracle_opt;
  arena_opt.use_arena = true;
  oracle_opt.use_arena = false;
  serve::TuningService arena_svc(core::PnpTuner::from_artifact(*db_, art),
                                 arena_opt);
  serve::TuningService oracle_svc(core::PnpTuner::from_artifact(*db_, art),
                                  oracle_opt);

  const auto compare_grid = [&] {
    for (int r = 0; r < db_->num_regions(); ++r)
      for (int k = 0; k < db_->num_caps(); ++k) {
        const auto q = serve::TuneRequest::power(r, k);
        const auto a = arena_svc.tune(q);
        const auto b = oracle_svc.tune(q);
        EXPECT_EQ(a.config, b.config) << "region " << r << " cap " << k;
        EXPECT_EQ(a.model_version, b.model_version);
      }
  };
  compare_grid();
  EXPECT_EQ(arena_svc.reload(path), 2u);
  EXPECT_EQ(oracle_svc.reload(path), 2u);
  compare_grid();
}

TEST_F(ArenaServingFixture, WorkspacePlanIsBoundedAndStable) {
  const auto art = trained_power_artifact();
  const serve::ModelState model(core::PnpTuner::from_artifact(*db_, art));
  serve::ModelState::Workspace ws;
  ws.bind(model);
  const std::size_t bytes = ws.arena_bytes();
  ASSERT_GT(bytes, 0u);
  // Re-binding to the same model must keep the same plan (no re-planning
  // churn in the serve loop).
  ws.bind(model);
  EXPECT_EQ(ws.arena_bytes(), bytes);
  // The plan must not exceed a no-reuse layout of its own tensors.
  std::size_t no_reuse = 0;
  for (std::size_t i = 0; i < ws.plan().size(); ++i) {
    const auto& s = ws.plan().at(i).spec;
    no_reuse += (s.bytes + s.align - 1) / s.align * s.align;
  }
  EXPECT_LE(bytes, no_reuse);
}

TEST_F(ArenaServingFixture, SteadyStateArenaServingIsAllocationFree) {
  const auto art = trained_power_artifact();
  const serve::ModelState model(core::PnpTuner::from_artifact(*db_, art));

  // Warm up: encode the region, bind the workspace, run once so every
  // lazily sized buffer exists.
  nn::RgcnNet::GnnCache fwd;
  serve::Encoding enc;
  model.encode(0, fwd, enc);
  serve::ModelState::Workspace ws;
  model.run_heads(enc, 0, 0, std::nullopt, ws);
  (void)model.decode_power(ws);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int iter = 0; iter < 200; ++iter) {
    const int cap = iter % db_->num_caps();
    model.run_heads(enc, 0, cap, std::nullopt, ws);
    const sim::OmpConfig cfg = model.decode_power(ws);
    ASSERT_GE(cfg.threads, 1);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "arena steady-state serving allocated " << (after - before)
      << " times in 200 requests";
}

// --- compact encode cache ----------------------------------------------------

/// The 68 suite regions on Haswell's Table I and extended spaces, with
/// briefly trained models (predictions need only be deterministic).
class CompactCacheFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto machine = hw::MachineModel::haswell();
    sim_ = new sim::Simulator(machine);
    const auto regions = workloads::Suite::instance().all_regions();
    table1_ = new core::MeasurementDb(
        *sim_, core::SearchSpace::for_machine(machine), regions);
    extended_ = new core::MeasurementDb(
        *sim_, core::SearchSpace::extended_for_machine(machine), regions);
  }
  static void TearDownTestSuite() {
    delete extended_;
    delete table1_;
    delete sim_;
    extended_ = table1_ = nullptr;
    sim_ = nullptr;
  }

  static core::TunerArtifact trained(const core::MeasurementDb& db, bool edp,
                                     std::uint64_t seed = 42) {
    core::PnpOptions opt;
    opt.cap_onehot = false;  // scalar cap: power_at is servable
    opt.seed = seed;
    opt.trainer.max_epochs = 2;
    opt.trainer.min_loss = 0.0;
    core::PnpTuner tuner(db, opt);
    std::vector<int> all(static_cast<std::size_t>(db.num_regions()));
    for (int r = 0; r < db.num_regions(); ++r)
      all[static_cast<std::size_t>(r)] = r;
    if (edp)
      tuner.train_edp_scenario(all);
    else
      tuner.train_power_scenario(all);
    return tuner.to_artifact();
  }

  /// Live heap bytes of one forward workspace after encoding regions
  /// [0, n) in order — what a serial cache's per-thread workspace holds
  /// after warming them.
  static std::int64_t workspace_bytes(const serve::ModelState& m, int n) {
    const std::int64_t before = live_bytes();
    nn::RgcnNet::GnnCache fwd;
    for (int r = 0; r < n; ++r) m.encode(r, fwd);
    return live_bytes() - before;
  }

  /// Budget for the forward workspaces that grow while regions [1, n) are
  /// encoded after region 0. Serially that is one workspace's growth,
  /// exactly; with OpenMP each thread grows its own workspace over a
  /// subset, each at most twice a full one (vector growth doubles).
  static std::int64_t workspace_budget(const serve::ModelState& m, int n) {
    const std::int64_t all = workspace_bytes(m, n);
#ifdef PNP_PARALLEL
    return 2 * kEncodeThreads * all;
#else
    return all - workspace_bytes(m, 1);
#endif
  }

  /// Threads the parallel build encodes with in the memory tests. Fixed,
  /// so the workspace budget (which scales with it) stays far below the
  /// full-forward-pass-per-region cache it must tell apart from a compact
  /// one, whatever the host's core count.
  static constexpr int kEncodeThreads = 2;

  static constexpr std::int64_t kPerRegionBudget = 1024;

  static sim::Simulator* sim_;
  static core::MeasurementDb* table1_;
  static core::MeasurementDb* extended_;
};

sim::Simulator* CompactCacheFixture::sim_ = nullptr;
core::MeasurementDb* CompactCacheFixture::table1_ = nullptr;
core::MeasurementDb* CompactCacheFixture::extended_ = nullptr;

TEST_F(CompactCacheFixture, EngineKeepsUnder1KiBPerCachedRegion) {
  const auto art = trained(*table1_, /*edp=*/false);
#ifdef PNP_PARALLEL
  // Restored on every exit, early ASSERT returns included.
  struct ThreadCap {
    int saved = omp_get_max_threads();
    ThreadCap() { omp_set_num_threads(kEncodeThreads); }
    ~ThreadCap() { omp_set_num_threads(saved); }
  } cap;
#endif
  for (const nn::Precision p : {nn::Precision::f64, nn::Precision::f32}) {
    serve::EngineOptions opt;
    opt.precision = p;
    serve::InferenceEngine engine(core::PnpTuner::from_artifact(*table1_, art),
                                  opt);
    const int n = table1_->num_regions();
    // Region 0 first: sizes the per-thread scratch and arena, so what is
    // counted next is the cache plus the forward workspace's growth.
    (void)engine.predict_power(0, 0);
    std::vector<serve::PowerQuery> rest;
    for (int r = 1; r < n; ++r) rest.push_back({r, 0});
    const std::int64_t before = live_bytes();
    (void)engine.predict_power_batch(rest);
    const std::int64_t grown = live_bytes() - before;
    ASSERT_EQ(engine.cached_encodings(), static_cast<std::size_t>(n));
    const std::int64_t ws = workspace_budget(engine.state(), n);
    EXPECT_LT(grown - ws, kPerRegionBudget * (n - 1))
        << nn::precision_name(p) << ": " << grown << " bytes for " << n - 1
        << " regions, forward workspace " << ws;
  }
}

TEST_F(CompactCacheFixture, ServiceKeepsUnder1KiBPerCachedRegion) {
  const auto art = trained(*table1_, /*edp=*/false);
  serve::TuningService svc(core::PnpTuner::from_artifact(*table1_, art));
  const int n = table1_->num_regions();
  ASSERT_EQ(n, 68);
  (void)svc.tune(serve::TuneRequest::power(0, 0));
  const std::int64_t before = live_bytes();
  for (int r = 1; r < n; ++r) (void)svc.tune(serve::TuneRequest::power(r, 0));
  const std::int64_t grown = live_bytes() - before;
  ASSERT_EQ(svc.cached_encodings(), static_cast<std::size_t>(n));
  // One caller thread leases the same serving context every time, so its
  // forward workspace grows exactly as a serial one does.
  const serve::ModelState model(core::PnpTuner::from_artifact(*table1_, art));
  const std::int64_t ws =
      workspace_bytes(model, n) - workspace_bytes(model, 1);
  EXPECT_LT(grown - ws, kPerRegionBudget * (n - 1))
      << grown << " bytes for " << n - 1 << " regions, forward workspace "
      << ws;
}

/// Full-forward-pass references for one model: PnpTuner at f64 (it only
/// predicts in f64), and ModelState::run_heads over an uncompacted GnnCache
/// at the model's tier, which must agree with PnpTuner at f64.
struct Reference {
  Reference(const core::MeasurementDb& db, const core::TunerArtifact& art,
            nn::Precision p, const std::vector<double>& watts)
      : tuner(core::PnpTuner::from_artifact(db, art)),
        model(core::PnpTuner::from_artifact(db, art), p) {
    nn::RgcnNet::GnnCache fwd;
    serve::ModelState::Workspace ws;
    for (int r = 0; r < db.num_regions(); ++r) {
      model.encode(r, fwd);
      if (tuner.mode() == core::PnpTuner::Mode::Edp) {
        model.run_heads(fwd, r, std::nullopt, std::nullopt, ws);
        edp.push_back(model.decode_edp(ws));
        if (p == nn::Precision::f64) {
          const auto want = tuner.predict_edp(r);
          EXPECT_EQ(edp.back().cfg, want.cfg) << "region " << r;
          EXPECT_EQ(edp.back().cap_index, want.cap_index) << "region " << r;
        }
        continue;
      }
      for (int k = 0; k < db.num_caps(); ++k) {
        model.run_heads(fwd, r, k, std::nullopt, ws);
        power.push_back(model.decode_power(ws));
        if (p == nn::Precision::f64) {
          EXPECT_EQ(power.back(), tuner.predict_power(r, k))
              << "region " << r << " cap " << k;
        }
      }
      for (const double w : watts) {
        model.run_heads(fwd, r, std::nullopt, w, ws);
        power_at.push_back(model.decode_power(ws));
        if (p == nn::Precision::f64) {
          EXPECT_EQ(power_at.back(), tuner.predict_power_at(r, w))
              << "region " << r << " at " << w << " W";
        }
      }
    }
  }

  core::PnpTuner tuner;
  serve::ModelState model;
  std::vector<sim::OmpConfig> power, power_at;  ///< region-major
  std::vector<core::PnpTuner::JointChoice> edp;
};

TEST_F(CompactCacheFixture, CompactPredictionsMatchTheFullForwardPass) {
  const std::vector<double> watts = {1.0, 35.0, 52.5, 71.0, 140.0};
  for (const core::MeasurementDb* db : {table1_, extended_}) {
    const auto power_art = trained(*db, /*edp=*/false);
    const auto edp_art = trained(*db, /*edp=*/true);
    std::vector<int> regions;
    std::vector<serve::PowerQuery> grid;
    for (int r = 0; r < db->num_regions(); ++r) {
      regions.push_back(r);
      for (int k = 0; k < db->num_caps(); ++k) grid.push_back({r, k});
    }
    for (const nn::Precision p : {nn::Precision::f64, nn::Precision::f32}) {
      const std::string where = std::string(db == table1_ ? "table1" : "extended") +
                                "/" + nn::precision_name(p);
      const Reference power_ref(*db, power_art, p, watts);
      const Reference edp_ref(*db, edp_art, p, watts);
      for (const bool arena : {true, false}) {
        serve::EngineOptions opt;
        opt.precision = p;
        opt.use_arena = arena;
        serve::InferenceEngine power(core::PnpTuner::from_artifact(*db, power_art),
                                     opt);
        EXPECT_EQ(power.predict_power_batch(grid), power_ref.power) << where;
        std::vector<sim::OmpConfig> at;
        for (const double w : watts) {
          const auto got = power.predict_power_at_batch(regions, w);
          at.insert(at.end(), got.begin(), got.end());
        }
        std::vector<sim::OmpConfig> want_at;  // watt-major, as served above
        for (std::size_t wi = 0; wi < watts.size(); ++wi)
          for (std::size_t r = 0; r < regions.size(); ++r)
            want_at.push_back(power_ref.power_at[r * watts.size() + wi]);
        EXPECT_EQ(at, want_at) << where;

        serve::InferenceEngine edp(core::PnpTuner::from_artifact(*db, edp_art),
                                   opt);
        const auto got = edp.predict_edp_batch(regions);
        ASSERT_EQ(got.size(), edp_ref.edp.size());
        for (std::size_t r = 0; r < got.size(); ++r) {
          EXPECT_EQ(got[r].cfg, edp_ref.edp[r].cfg) << where << " region " << r;
          EXPECT_EQ(got[r].cap_index, edp_ref.edp[r].cap_index)
              << where << " region " << r;
        }
      }
    }
  }
}

TEST_F(CompactCacheFixture, ServiceMatchesTheFullForwardPassAcrossReload) {
  // Version 1 serves model A at f64; the reload publishes model B (other
  // seed) asking for the f32 tier, with a fresh cache; version 3 is A
  // again. Every version's grid must equal its own full-pass reference.
  const std::vector<double> watts = {35.0, 71.0};
  const auto a = trained(*table1_, /*edp=*/false, 42);
  auto b = trained(*table1_, /*edp=*/false, 7);
  b.serve_precision = nn::Precision::f32;
  const std::string a_path = ::testing::TempDir() + "compact_a.pnp";
  const std::string b_path = ::testing::TempDir() + "compact_b.pnp";
  a.save_file(a_path);
  b.save_file(b_path);
  const Reference ref_a(*table1_, a, nn::Precision::f64, watts);
  const Reference ref_b(*table1_, b, nn::Precision::f32, watts);

  serve::TuningService svc(*table1_, a_path);
  const auto check = [&](const Reference& ref, std::uint64_t version) {
    std::size_t i = 0, j = 0;
    for (int r = 0; r < table1_->num_regions(); ++r) {
      for (int k = 0; k < table1_->num_caps(); ++k, ++i) {
        const auto got = svc.tune(serve::TuneRequest::power(r, k));
        EXPECT_EQ(got.model_version, version);
        EXPECT_EQ(got.config, ref.power[i]) << "v" << version << " region "
                                            << r << " cap " << k;
      }
      for (const double w : watts) {
        const auto got = svc.tune(serve::TuneRequest::power_at(r, w));
        EXPECT_EQ(got.config, ref.power_at[j++])
            << "v" << version << " region " << r << " at " << w << " W";
      }
    }
    EXPECT_EQ(svc.cached_encodings(),
              static_cast<std::size_t>(table1_->num_regions()));
  };
  check(ref_a, 1);
  EXPECT_EQ(svc.reload(b_path), 2u);
  EXPECT_EQ(svc.precision(), nn::Precision::f32);
  check(ref_b, 2);
  EXPECT_EQ(svc.reload(a_path), 3u);
  EXPECT_EQ(svc.precision(), nn::Precision::f64);
  check(ref_a, 3);
}

}  // namespace
