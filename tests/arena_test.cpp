/// \file arena_test.cpp
/// The static workspace planner (nn/arena.hpp) and the arena-backed
/// serving fast path built on it. Three layers of guarantees:
///
///  1. Planner safety properties, driven with random interval sets:
///     tensors with overlapping lifetimes never share bytes, every offset
///     honors its alignment, and the arena never exceeds the sum of the
///     individual aligned sizes (reuse can only shrink it).
///  2. Serving bit-identity: at both precision tiers, the arena-backed
///     Workspace path produces predictions bit-identical to a
///     fresh-memory reference that shares no Workspace or arena code —
///     PnpTuner::predict_* at f64, a plain-vector f32 dense pass plus the
///     public core decoders at f32 — across power, power_at, and
///     edp queries, factored and dense heads, and across a hot reload.
///  3. The fast path's reason to exist: steady-state arena serving
///     performs ZERO heap allocations, verified by counting every global
///     operator new in this binary. The same counter shows that a cache
///     miss encodes in a reused GNN workspace and allocates only the
///     readout entry it caches.
///  4. Workspace reuse is invisible: one service serving regions of
///     different graph sizes, through misses, hits, a reload and
///     caller-formed batches, answers every query bit-identically to the
///     fresh-memory reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config_search.hpp"
#include "core/pnp_tuner.hpp"
#include "core/tuner_artifact.hpp"
#include "graph/builder.hpp"
#include "nn/arena.hpp"
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
      for (std::size_t j = i + 1; j < plan.size(); ++j) {
        if (lifetimes_overlap(plan.at(i).spec, plan.at(j).spec)) {
          EXPECT_FALSE(bytes_overlap(plan.at(i), plan.at(j)))
              << "trial " << trial << ": tensors " << i << " and " << j
              << " overlap in both lifetime and bytes";
        }
      }
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

 public:
  static const core::MeasurementDb& db() { return *db_; }
};

sim::Simulator* ArenaServingFixture::sim_ = nullptr;
core::MeasurementDb* ArenaServingFixture::db_ = nullptr;

/// Fresh-memory reference for one request at one tier, sharing no
/// Workspace or arena code with serving. f64 is PnpTuner::predict_*. f32
/// re-encodes the region from its flow graph, runs
/// nn::RgcnNet::dense_forward_f32 on plain vectors, and decodes at full
/// width with the public core::search_* / dense_argmax_valid, as
/// predict_* does at f64. Power requests echo their cap index (-1 for
/// power_at), as TuneResult does.
core::PnpTuner::JointChoice reference(const core::PnpTuner& t,
                                      nn::Precision p,
                                      const serve::TuneRequest& q) {
  using Kind = serve::TuneRequest::Kind;
  const std::optional<int> cap_index =
      q.kind == Kind::Power ? std::optional<int>(q.cap_index) : std::nullopt;
  const std::optional<double> cap_w =
      q.kind == Kind::PowerAt ? std::optional<double>(q.cap_w) : std::nullopt;
  const int echo = q.kind == Kind::Power ? q.cap_index : -1;
  if (p == nn::Precision::f64) {
    if (q.kind == Kind::Edp) return t.predict_edp(q.region);
    if (q.kind == Kind::Power)
      return {echo, t.predict_power(q.region, q.cap_index)};
    return {echo, t.predict_power_at(q.region, q.cap_w)};
  }

  const nn::RgcnNet& net = t.net();
  const nn::RgcnNetConfig& cfg = net.config();
  const std::vector<double> readout =
      net.encode(graph::to_tensors(t.region_graph(q.region), t.vocab()))
          .readout;
  std::vector<float> u0(readout.begin(), readout.end());
  for (const double x : t.make_extra(q.region, cap_index, cap_w))
    u0.push_back(static_cast<float>(x));
  std::vector<float> h1(static_cast<std::size_t>(cfg.dense_hidden1));
  std::vector<float> h2(static_cast<std::size_t>(cfg.dense_hidden2));
  std::vector<float> out(static_cast<std::size_t>(cfg.total_logits()));
  nn::RgcnNet::dense_forward_f32(net.dense_weights_f32(), u0, h1, h2, out);

  const core::SearchSpace& s = t.db().space();
  const std::span<const float> l(out);
  const bool edp = q.kind == Kind::Edp;
  const double w =
      cap_index ? s.power_caps()[static_cast<std::size_t>(*cap_index)]
                : cap_w.value_or(0.0);  // 0 for EDP: the cap is predicted
  if (cfg.head_sizes.size() == 1) {  // dense head
    const int flat = core::dense_argmax_valid<float>(s, l, edp, w);
    if (flat < 0)
      return {edp ? s.num_cap_classes() - 1 : echo, s.default_config()};
    const core::TunerClasses c = core::tuner_classes_from_flat(s, flat, edp);
    return {edp ? c.cap : echo,
            s.config_from_classes(c.thread, c.sched, c.chunk)};
  }
  const auto head = [&](int h) {
    return l.subspan(static_cast<std::size_t>(net.head_offset(h)),
                     static_cast<std::size_t>(
                         cfg.head_sizes[static_cast<std::size_t>(h)]));
  };
  const core::SearchChoice c =
      edp ? core::search_edp<float>(s, head(0), head(1), head(2), head(3))
          : core::search_power<float>(s, w, head(0), head(1), head(2));
  return {edp ? c.cap_cls : echo,
          s.config_from_classes(c.thread_cls, c.sched_cls, c.chunk_cls)};
}

constexpr nn::Precision kTiers[] = {nn::Precision::f64, nn::Precision::f32};

/// Serve `batch` through one tune_batch at tier `p` and require every
/// result to equal the fresh-memory reference bit for bit.
void expect_batch_matches_reference(
    const core::TunerArtifact& art, nn::Precision p,
    const std::vector<serve::TuneRequest>& batch) {
  SCOPED_TRACE(::testing::Message() << "precision " << nn::precision_name(p));
  const core::PnpTuner ref = core::PnpTuner::from_artifact(
      ArenaServingFixture::db(), art);
  serve::TuningServiceOptions opt;
  opt.precision = p;
  serve::TuningService svc(
      core::PnpTuner::from_artifact(ArenaServingFixture::db(), art), opt);
  const auto got = svc.tune_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto want = reference(ref, p, batch[i]);
    EXPECT_EQ(got[i].config, want.cfg) << "request " << i;
    EXPECT_EQ(got[i].cap_index, want.cap_index) << "request " << i;
  }
}

TEST_F(ArenaServingFixture, ArenaPowerPredictionsMatchOracle) {
  for (const bool factored : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "factored " << factored);
    core::PnpOptions opt = small_options();
    opt.factored_heads = factored;
    core::PnpTuner tuner(*db_, opt);
    tuner.train_power_scenario(all_regions());
    std::vector<serve::TuneRequest> grid;
    for (int r = 0; r < db_->num_regions(); ++r)
      for (int k = 0; k < db_->num_caps(); ++k)
        grid.push_back(serve::TuneRequest::power(r, k));
    for (const nn::Precision p : kTiers)
      expect_batch_matches_reference(tuner.to_artifact(), p, grid);
  }
}

TEST_F(ArenaServingFixture, ArenaPowerAtPredictionsMatchOracle) {
  const auto art = trained_power_artifact(/*scalar_cap=*/true);
  std::vector<serve::TuneRequest> batch;
  for (const double cap_w : {35.0, 52.5, 71.0})
    for (int r = 0; r < db_->num_regions(); ++r)
      batch.push_back(serve::TuneRequest::power_at(r, cap_w));
  for (const nn::Precision p : kTiers)
    expect_batch_matches_reference(art, p, batch);
}

TEST_F(ArenaServingFixture, ArenaEdpPredictionsMatchOracle) {
  for (const bool factored : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "factored " << factored);
    core::PnpOptions opt = small_options();
    opt.factored_heads = factored;
    core::PnpTuner tuner(*db_, opt);
    tuner.train_edp_scenario(all_regions());
    std::vector<serve::TuneRequest> regions;
    for (int r = 0; r < db_->num_regions(); ++r)
      regions.push_back(serve::TuneRequest::edp(r));
    for (const nn::Precision p : kTiers)
      expect_batch_matches_reference(tuner.to_artifact(), p, regions);
  }
}

TEST_F(ArenaServingFixture, ArenaServiceMatchesOracleAcrossReload) {
  // One request stream per tier through tune(), with a hot reload in the
  // middle: results stay bit-identical to the fresh-memory reference and
  // carry the version that served them.
  const auto art = trained_power_artifact();
  const std::string path = ::testing::TempDir() + "arena_reload.pnp";
  art.save_file(path);
  const core::PnpTuner ref = core::PnpTuner::from_artifact(*db_, art);
  for (const nn::Precision p : kTiers) {
    SCOPED_TRACE(::testing::Message() << "precision " << nn::precision_name(p));
    serve::TuningServiceOptions opt;
    opt.precision = p;
    serve::TuningService svc(core::PnpTuner::from_artifact(*db_, art), opt);
    const auto compare_grid = [&](std::uint64_t version) {
      for (int r = 0; r < db_->num_regions(); ++r)
        for (int k = 0; k < db_->num_caps(); ++k) {
          const auto q = serve::TuneRequest::power(r, k);
          const auto got = svc.tune(q);
          EXPECT_EQ(got.config, reference(ref, p, q).cfg)
              << "region " << r << " cap " << k;
          EXPECT_EQ(got.model_version, version);
        }
    };
    compare_grid(1);
    EXPECT_EQ(svc.reload(path), 2u);
    compare_grid(2);
  }
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

serve::TuningServiceOptions service_options(nn::Precision p) {
  serve::TuningServiceOptions opt;
  opt.precision = p;
  return opt;
}

TEST_F(ArenaServingFixture, MissesAllocateOnlyTheirEntryAndHitsNothing) {
  // A miss encodes in the serving context's reused GNN workspace and
  // caches only the readouts: the entry's map node, its f64 readout, its
  // f32 copy (f32 tier), and now and then a grown bucket array. Warm-up
  // serves every region once so the one workspace has held every graph
  // shape; a reload of the same artifact then empties the cache and each
  // region misses again. Default options throughout: tune() serves on
  // the calling thread in a leased context, so a hit allocates nothing.
  constexpr std::uint64_t kMaxAllocsPerMiss = 4;
  const std::string path = ::testing::TempDir() + "arena_alloc.pnp";
  trained_power_artifact().save_file(path);
  for (const nn::Precision p : {nn::Precision::f64, nn::Precision::f32}) {
    SCOPED_TRACE(::testing::Message() << "precision " << static_cast<int>(p));
    serve::TuningService svc(*db_, path, service_options(p));
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

TEST_F(ArenaServingFixture, ReusedWorkspaceBitIdenticalAcrossShapesAndReload) {
  // Reference per tier, computed in fresh memory per region (see
  // reference() above).
  const auto art = trained_power_artifact();
  const std::string path = ::testing::TempDir() + "arena_reuse.pnp";
  art.save_file(path);
  const core::PnpTuner tuner = core::PnpTuner::from_artifact(*db_, art);
  const std::vector<int> order = size_interleaved_regions(tuner);
  ASSERT_LT(tuner.region_graph(order[0]).num_nodes(),
            tuner.region_graph(order[1]).num_nodes());
  const int nc = db_->num_caps();

  for (const nn::Precision p : kTiers) {
    SCOPED_TRACE(::testing::Message() << "precision " << static_cast<int>(p));
    std::vector<sim::OmpConfig> want(
        static_cast<std::size_t>(db_->num_regions() * nc));
    const auto at = [&](int r, int k) -> sim::OmpConfig& {
      return want[static_cast<std::size_t>(r * nc + k)];
    };
    for (int r = 0; r < db_->num_regions(); ++r)
      for (int k = 0; k < nc; ++k)
        at(r, k) = reference(tuner, p, serve::TuneRequest::power(r, k)).cfg;

    serve::TuningService svc(*db_, path, service_options(p));
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

    // The same grid as one caller-formed batch, twice: misses, then hits.
    serve::TuningService batch_svc(*db_, path, service_options(p));
    std::vector<serve::TuneRequest> grid;
    for (const int r : order)
      for (int k = 0; k < nc; ++k)
        grid.push_back(serve::TuneRequest::power(r, k));
    for (int pass = 0; pass < 2; ++pass) {
      const auto got = batch_svc.tune_batch(grid);
      ASSERT_EQ(got.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(got[i].config, at(grid[i].region, grid[i].cap_index))
            << "batch pass " << pass << " request " << i;
      EXPECT_EQ(batch_svc.cached_encodings(),
                static_cast<std::size_t>(db_->num_regions()));
    }
  }
}

}  // namespace
