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
///     operator new in this binary. The same counter shows that a cache
///     miss encodes in a reused GNN workspace and allocates only the
///     readout entry it caches.
///  4. Workspace reuse is invisible: one service (and one engine) serving
///     regions of different graph sizes, through misses, hits and a
///     reload, answers every query bit-identically to a fresh-memory
///     reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

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
// always on; tests read the counter before/after the region of interest.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacements below pair malloc-backed new with free-backed delete —
// a matched set; GCC's heuristic can't see across the replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
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
  nn::RgcnNet::GnnCache enc;
  model.encode(0, enc);
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

/// Regions ordered so consecutive ones alternate between the smallest and
/// largest remaining graphs: every step changes the encode workspace's
/// shapes, growing and shrinking it.
std::vector<int> size_interleaved_regions(const core::PnpTuner& tuner) {
  std::vector<int> by_size;
  for (int r = 0; r < tuner.db().num_regions(); ++r) by_size.push_back(r);
  // std::sort, not stable_sort: stable_sort's nothrow temporary buffer
  // bypasses this binary's counting operator new.
  std::sort(by_size.begin(), by_size.end(), [&](int a, int b) {
    const int na = tuner.region_graph(a).num_nodes();
    const int nb = tuner.region_graph(b).num_nodes();
    return na != nb ? na < nb : a < b;
  });
  std::vector<int> out;
  for (std::size_t lo = 0, hi = by_size.size(); lo < hi;) {
    out.push_back(by_size[lo++]);
    if (lo < hi) out.push_back(by_size[--hi]);
  }
  return out;
}

serve::TuningServiceOptions service_options(nn::Precision p, int shards) {
  serve::TuningServiceOptions opt;
  opt.precision = p;
  opt.worker_shards = shards;
  return opt;
}

TEST_F(ArenaServingFixture, MissesAllocateOnlyTheirEntryAndHitsNothing) {
  // A miss encodes in the serving context's reused GNN workspace and
  // caches only the readouts: the entry's map node, its f64 readout, its
  // f32 copy (f32 tier), and now and then a grown bucket array. Warm-up
  // serves every region once so the one workspace has held every graph
  // shape; a reload of the same artifact then empties the cache and each
  // region misses again. Worker-shard and direct (coalesce = false) modes
  // exercise the two ways a request reaches its context without a
  // per-batch vector of the admission queue.
  constexpr std::uint64_t kMaxAllocsPerMiss = 4;
  const std::string path = ::testing::TempDir() + "arena_alloc.pnp";
  trained_power_artifact().save_file(path);
  for (const nn::Precision p : {nn::Precision::f64, nn::Precision::f32}) {
    for (const int shards : {0, 1}) {
      SCOPED_TRACE(::testing::Message()
                   << "precision " << static_cast<int>(p) << " shards "
                   << shards);
      serve::TuningServiceOptions opt = service_options(p, shards);
      opt.coalesce = false;
      serve::TuningService svc(*db_, path, opt);
      for (int r = 0; r < db_->num_regions(); ++r)
        (void)svc.tune(serve::TuneRequest::power(r, 0));
      ASSERT_EQ(svc.reload(path), 2u);

      for (int r = 0; r < db_->num_regions(); ++r) {
        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        const serve::TuneResult res = svc.tune(serve::TuneRequest::power(r, 0));
        const std::uint64_t after =
            g_allocations.load(std::memory_order_relaxed);
        ASSERT_EQ(res.model_version, 2u);
        EXPECT_LE(after - before, kMaxAllocsPerMiss)
            << "miss on region " << r << " allocated " << (after - before)
            << " times";
      }
      const auto st = svc.stats();
      EXPECT_EQ(st.encode_misses,
                2u * static_cast<std::uint64_t>(db_->num_regions()));

      const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
      for (int r = 0; r < db_->num_regions(); ++r)
        for (int k = 0; k < db_->num_caps(); ++k)
          (void)svc.tune(serve::TuneRequest::power(r, k));
      const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after, before) << "cache hits allocated " << (after - before)
                               << " times";
    }
  }
}

TEST_F(ArenaServingFixture, ReusedWorkspaceBitIdenticalAcrossShapesAndReload) {
  // Reference per tier, computed in fresh memory per region: f64 is
  // PnpTuner::predict_power; f32 is an f32 ModelState encoding each
  // region into its own GnnCache.
  const auto art = trained_power_artifact();
  const std::string path = ::testing::TempDir() + "arena_reuse.pnp";
  art.save_file(path);
  const core::PnpTuner tuner = core::PnpTuner::from_artifact(*db_, art);
  const std::vector<int> order = size_interleaved_regions(tuner);
  ASSERT_LT(tuner.region_graph(order[0]).num_nodes(),
            tuner.region_graph(order[1]).num_nodes());
  const int nc = db_->num_caps();

  for (const nn::Precision p : {nn::Precision::f64, nn::Precision::f32}) {
    SCOPED_TRACE(::testing::Message() << "precision " << static_cast<int>(p));
    std::vector<sim::OmpConfig> want(
        static_cast<std::size_t>(db_->num_regions() * nc));
    const auto at = [&](int r, int k) -> sim::OmpConfig& {
      return want[static_cast<std::size_t>(r * nc + k)];
    };
    if (p == nn::Precision::f64) {
      for (int r = 0; r < db_->num_regions(); ++r)
        for (int k = 0; k < nc; ++k) at(r, k) = tuner.predict_power(r, k);
    } else {
      const serve::ModelState ref(core::PnpTuner::from_artifact(*db_, art),
                                  nn::Precision::f32);
      serve::ModelState::Scratch s;
      for (int r = 0; r < db_->num_regions(); ++r) {
        nn::RgcnNet::GnnCache fresh;
        ref.encode(r, fresh);
        for (int k = 0; k < nc; ++k) {
          ref.run_heads(fresh, r, k, std::nullopt, s);
          at(r, k) = ref.decode_power(s);
        }
      }
    }

    for (const int shards : {0, 2}) {
      SCOPED_TRACE(::testing::Message() << "shards " << shards);
      serve::TuningService svc(*db_, path, service_options(p, shards));
      ASSERT_EQ(svc.precision(), p);
      // Miss (first cap of each region) then hit (the rest), a second
      // all-hit pass, a reload of the same artifact, and misses again.
      const auto serve_grid = [&](std::uint64_t version) {
        for (const int r : order)
          for (int k = 0; k < nc; ++k) {
            const auto res = svc.tune(serve::TuneRequest::power(r, k));
            EXPECT_EQ(res.config, at(r, k)) << "region " << r << " cap " << k;
            EXPECT_EQ(res.model_version, version);
          }
      };
      serve_grid(1);
      serve_grid(1);
      ASSERT_EQ(svc.reload(path), 2u);
      serve_grid(2);
      const auto st = svc.stats();
      EXPECT_EQ(st.encode_misses,
                2u * static_cast<std::uint64_t>(db_->num_regions()));
      EXPECT_EQ(st.encode_hits + st.encode_misses, st.requests);
    }

    serve::EngineOptions eopt;
    eopt.precision = p;
    serve::InferenceEngine engine(core::PnpTuner::from_artifact(*db_, art),
                                  eopt);
    std::vector<serve::PowerQuery> grid;
    for (const int r : order)
      for (int k = 0; k < nc; ++k) grid.push_back({r, k});
    for (int pass = 0; pass < 2; ++pass) {  // misses, then hits
      const auto got = engine.predict_power_batch(grid);
      ASSERT_EQ(got.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(got[i], at(grid[i].region, grid[i].cap_index))
            << "engine pass " << pass << " query " << i;
      EXPECT_EQ(engine.cached_encodings(),
                static_cast<std::size_t>(db_->num_regions()));
    }
  }
}

}  // namespace
