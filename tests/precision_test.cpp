/// \file precision_test.cpp
/// The opt-in f32 inference tier: f64 stays the bit-exact reference; f32
/// is a serving-time down-conversion of the dense phase. Covered here:
///
///  - the accuracy contract: over the full (region × cap) grid, the f32
///    tier's argmax-flip rate against f64 is bounded and the predicted
///    power/time deltas (core::Evaluator::precision_delta) are small;
///  - artifact round-trips preserve the persisted serving tier, and old
///    artifacts without the field default to f64;
///  - the service-options precision override beats the artifact's
///    preference;
///  - mixed-precision hot reload: an f64-serving TuningService publishes
///    an f32 artifact mid-stream and switches tiers atomically.

#include <gtest/gtest.h>

#include <vector>

#include "core/evaluator.hpp"
#include "core/pnp_tuner.hpp"
#include "core/tuner_artifact.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

namespace {

class PrecisionFixture : public ::testing::Test {
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

  static core::TunerArtifact trained_power_artifact() {
    core::PnpTuner tuner(*db_, small_options());
    tuner.train_power_scenario(all_regions());
    return tuner.to_artifact();
  }

  static serve::TuningServiceOptions at(nn::Precision p) {
    serve::TuningServiceOptions opt;
    opt.precision = p;
    return opt;
  }

  /// Configs for `regions` × all caps (row-major, the order
  /// Evaluator::queries uses) from one tune_batch at tier `p`.
  static std::vector<sim::OmpConfig> predict(const core::TunerArtifact& art,
                                             nn::Precision p,
                                             const std::vector<int>& regions) {
    serve::TuningService svc(core::PnpTuner::from_artifact(*db_, art), at(p));
    std::vector<serve::TuneRequest> grid;
    for (const int r : regions)
      for (int k = 0; k < db_->num_caps(); ++k)
        grid.push_back(serve::TuneRequest::power(r, k));
    std::vector<sim::OmpConfig> out;
    for (const serve::TuneResult& res : svc.tune_batch(grid))
      out.push_back(res.config);
    return out;
  }

  static sim::Simulator* sim_;
  static core::MeasurementDb* db_;
};

sim::Simulator* PrecisionFixture::sim_ = nullptr;
core::MeasurementDb* PrecisionFixture::db_ = nullptr;

TEST_F(PrecisionFixture, ServicePrecisionFollowsArtifactAndOverride) {
  core::TunerArtifact art = trained_power_artifact();
  EXPECT_EQ(art.serve_precision, nn::Precision::f64);  // default tier

  art.serve_precision = nn::Precision::f32;
  serve::TuningService follows(core::PnpTuner::from_artifact(*db_, art));
  EXPECT_EQ(follows.precision(), nn::Precision::f32);

  serve::TuningService overridden(core::PnpTuner::from_artifact(*db_, art),
                                  at(nn::Precision::f64));
  EXPECT_EQ(overridden.precision(), nn::Precision::f64);
}

TEST_F(PrecisionFixture, ArtifactRoundTripPreservesPrecision) {
  core::TunerArtifact art = trained_power_artifact();
  art.serve_precision = nn::Precision::f32;
  const std::string path = ::testing::TempDir() + "precision_rt.pnp";
  art.save_file(path);
  const auto loaded = core::TunerArtifact::load_file(path);
  EXPECT_EQ(loaded.serve_precision, nn::Precision::f32);

  // A corrupt tier value is rejected up front, before any model state is
  // built (the enum is persisted as 0/1).
  StateDict sd = art.to_state_dict();
  sd.put_int("serve.precision", 7);
  EXPECT_THROW(core::TunerArtifact::from_state_dict(sd), Error);
}

TEST_F(PrecisionFixture, F32TierAccuracyCloseToF64) {
  const auto art = trained_power_artifact();
  const auto ref = predict(art, nn::Precision::f64, all_regions());
  const auto f32 = predict(art, nn::Precision::f32, all_regions());
  ASSERT_EQ(ref.size(), f32.size());

  int flips = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (!(ref[i] == f32[i])) ++flips;
  // The dense phase rounds to ~7 significant digits; argmax ties are the
  // only place that can show. A small trained model must agree almost
  // everywhere — allow at most 5% flips.
  EXPECT_LE(flips, static_cast<int>(ref.size()) / 20)
      << flips << " of " << ref.size() << " predictions flipped";

  // f64 must be the unchanged reference: a second f64 service from the
  // same artifact reproduces it bit for bit.
  const auto ref2 = predict(art, nn::Precision::f64, all_regions());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], ref2[i]);
}

TEST_F(PrecisionFixture, EvaluatorPrecisionDeltaBoundsTheTier) {
  const auto art = trained_power_artifact();
  core::Evaluator evaluator(*sim_, *db_);
  core::EvalSplit split;
  split.name = "tier-diff";
  for (int r = 0; r < db_->num_regions(); ++r)
    (r < db_->num_regions() / 2 ? split.train_regions : split.test_regions)
        .push_back(r);

  // precision_delta scores one config per queries() entry, in order:
  // test_regions × all caps.
  const auto ref = predict(art, nn::Precision::f64, split.test_regions);
  const auto f32 = predict(art, nn::Precision::f32, split.test_regions);

  const auto d = evaluator.precision_delta(split, ref, f32);
  EXPECT_EQ(d.queries, static_cast<int>(ref.size()));
  EXPECT_EQ(d.flips <= d.queries, true);
  EXPECT_GE(d.flip_rate, 0.0);
  EXPECT_LE(d.flip_rate, 0.05);
  // Where configs agree the simulator scores agree; flipped configs must
  // still land within a few watts / a sizable time fraction of reference.
  EXPECT_LT(d.max_abs_dpower_w, 10.0);
  EXPECT_GT(d.geomean_speedup_reference, 0.0);
  EXPECT_GT(d.geomean_speedup_candidate, 0.0);
  EXPECT_NEAR(d.geomean_speedup_candidate, d.geomean_speedup_reference,
              0.25 * d.geomean_speedup_reference);

  // Identical inputs → zero delta, unity everything else.
  const auto zero = evaluator.precision_delta(split, ref, ref);
  EXPECT_EQ(zero.flips, 0);
  EXPECT_EQ(zero.flip_rate, 0.0);
  EXPECT_EQ(zero.max_abs_dpower_w, 0.0);
  EXPECT_EQ(zero.max_abs_dtime_s, 0.0);

  // Size mismatches are caller bugs, not data.
  std::vector<sim::OmpConfig> short_cand(ref.begin(), ref.end() - 1);
  EXPECT_THROW(evaluator.precision_delta(split, ref, short_cand), Error);
}

TEST_F(PrecisionFixture, ServicePrecisionOverrideAndMixedReload) {
  // An f64-serving service hot-reloads an artifact whose persisted tier
  // is f32: the snapshot swap must switch tiers atomically and keep
  // serving the same scenario.
  core::TunerArtifact art = trained_power_artifact();
  const std::string f64_path = ::testing::TempDir() + "mixed_f64.pnp";
  art.save_file(f64_path);
  art.serve_precision = nn::Precision::f32;
  const std::string f32_path = ::testing::TempDir() + "mixed_f32.pnp";
  art.save_file(f32_path);

  serve::TuningService svc(*db_, f64_path);
  EXPECT_EQ(svc.precision(), nn::Precision::f64);
  const auto q = serve::TuneRequest::power(0, 0);
  const auto before = svc.tune(q);
  EXPECT_EQ(before.model_version, 1u);

  EXPECT_EQ(svc.reload(f32_path), 2u);
  EXPECT_EQ(svc.precision(), nn::Precision::f32);
  const auto after = svc.tune(q);
  EXPECT_EQ(after.model_version, 2u);
  // Same weights, narrower tier: the served config must match what a
  // fresh f32 service predicts.
  EXPECT_EQ(after.config, predict(art, nn::Precision::f32, {0}).front());

  // A service-level override beats both artifacts' preferences.
  serve::TuningServiceOptions pinned;
  pinned.precision = nn::Precision::f64;
  serve::TuningService svc64(*db_, f32_path, pinned);
  EXPECT_EQ(svc64.precision(), nn::Precision::f64);
  EXPECT_EQ(svc64.reload(f32_path), 2u);
  EXPECT_EQ(svc64.precision(), nn::Precision::f64);
}

}  // namespace
