/// End-to-end integration tests: the PnP tuner's train→predict pipeline on
/// a reduced LOOCV (to keep runtimes test-friendly), the experiment
/// drivers, and the transfer-learning workflow.

#include <gtest/gtest.h>
#include <sched.h>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/loocv.hpp"
#include "core/metrics.hpp"
#include "nn/task_pool.hpp"
#include "workloads/suite.hpp"

namespace pnp::core {
namespace {

/// Shared small-scale fixture: Haswell db + fast trainer settings.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new hw::MachineModel(hw::MachineModel::haswell());
    simulator_ = new sim::Simulator(*machine_);
    space_ = new SearchSpace(SearchSpace::for_machine(*machine_));
    db_ = new MeasurementDb(*simulator_, *space_,
                            workloads::Suite::instance().all_regions());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete space_;
    delete simulator_;
    delete machine_;
  }

  static PnpOptions fast_pnp(std::uint64_t seed = 11) {
    PnpOptions p;
    p.trainer.max_epochs = 25;
    p.trainer.patience = 6;
    p.seed = seed;
    return p;
  }

  static hw::MachineModel* machine_;
  static sim::Simulator* simulator_;
  static SearchSpace* space_;
  static MeasurementDb* db_;
};

hw::MachineModel* IntegrationTest::machine_ = nullptr;
sim::Simulator* IntegrationTest::simulator_ = nullptr;
SearchSpace* IntegrationTest::space_ = nullptr;
MeasurementDb* IntegrationTest::db_ = nullptr;

TEST_F(IntegrationTest, TrainingFitsTheTrainingSet) {
  PnpTuner tuner(*db_, fast_pnp());
  std::vector<int> train;
  for (int r = 0; r < 30; ++r) train.push_back(r);
  const auto rep = tuner.train_power_scenario(train);
  // Exact-match over three heads after a deliberately short training run.
  EXPECT_GT(rep.train_accuracy, 0.4);
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front());
}

TEST_F(IntegrationTest, PredictionsAreValidConfigs) {
  PnpTuner tuner(*db_, fast_pnp());
  std::vector<int> train;
  for (int r = 0; r < 30; ++r) train.push_back(r);
  tuner.train_power_scenario(train);
  for (int r = 30; r < 40; ++r) {
    for (int k = 0; k < db_->num_caps(); ++k) {
      const auto cfg = tuner.predict_power(r, k);
      EXPECT_GE(cfg.threads, 1);
      EXPECT_LE(cfg.threads, machine_->max_threads());
      EXPECT_GE(cfg.chunk, 0);
    }
  }
}

TEST_F(IntegrationTest, StaticTunerBeatsDefaultOnHeldOut) {
  // Reduced LOOCV over the first 10 applications, static features only.
  ExperimentOptions opt;
  opt.pnp = fast_pnp();
  opt.max_apps = 10;
  opt.run_pnp_dynamic = false;
  opt.run_baselines = false;
  const auto res = run_power_experiment(*simulator_, *db_, opt);

  const auto& cells = res.tuners.at(kPnpStatic);
  std::vector<double> speedups;
  const auto by_app = regions_by_app(*db_);
  for (int a = 0; a < 10; ++a)
    for (int r : by_app[static_cast<std::size_t>(a)].second)
      for (std::size_t k = 0; k < res.caps.size(); ++k)
        speedups.push_back(
            res.default_seconds[static_cast<std::size_t>(r)][k] /
            cells[static_cast<std::size_t>(r)][k].seconds);
  // On held-out applications the tuner must on average beat the default.
  EXPECT_GT(geomean(speedups), 1.0);
}

TEST_F(IntegrationTest, PredictionsNeverBelowOracleFloor) {
  ExperimentOptions opt;
  opt.pnp = fast_pnp();
  opt.max_apps = 6;
  opt.run_pnp_dynamic = false;
  opt.run_baselines = false;
  const auto res = run_power_experiment(*simulator_, *db_, opt);
  const auto& cells = res.tuners.at(kPnpStatic);
  const auto by_app = regions_by_app(*db_);
  for (int a = 0; a < 6; ++a) {
    for (int r : by_app[static_cast<std::size_t>(a)].second) {
      for (std::size_t k = 0; k < res.caps.size(); ++k) {
        const double norm = normalized_speedup(
            res.oracle_seconds[static_cast<std::size_t>(r)][k],
            cells[static_cast<std::size_t>(r)][k].seconds);
        EXPECT_GT(norm, 0.0);
        EXPECT_LE(norm, 1.05);  // small slack: chunk-0 off-grid predictions
      }
    }
  }
}

TEST_F(IntegrationTest, EdpExperimentProducesChoicesForEveryRegion) {
  ExperimentOptions opt;
  opt.pnp = fast_pnp();
  opt.max_apps = 6;
  opt.run_pnp_dynamic = false;
  opt.run_baselines = false;
  const auto res = run_edp_experiment(*simulator_, *db_, opt);
  const auto& cells = res.tuners.at(kPnpStatic);
  const auto by_app = regions_by_app(*db_);
  for (int a = 0; a < 6; ++a) {
    for (int r : by_app[static_cast<std::size_t>(a)].second) {
      const auto& c = cells[static_cast<std::size_t>(r)];
      EXPECT_GT(c.seconds, 0.0);
      EXPECT_GT(c.joules, 0.0);
      EXPECT_GE(c.cap_index, 0);
      EXPECT_LT(c.cap_index, 4);
      // EDP of the choice can never beat the oracle EDP.
      EXPECT_GE(c.seconds * c.joules,
                res.oracle_edp[static_cast<std::size_t>(r)] * 0.999);
    }
  }
}

TEST_F(IntegrationTest, UnseenCapExperimentPredictsAtHeldOutCap) {
  ExperimentOptions opt;
  opt.pnp = fast_pnp();
  opt.max_apps = 5;
  const auto res = run_unseen_cap_experiment(*simulator_, *db_, opt);
  ASSERT_EQ(res.heldout_cap_indices.size(), 2u);
  EXPECT_EQ(res.heldout_cap_indices[0], 0);
  EXPECT_EQ(res.heldout_cap_indices[1], 3);
  const auto by_app = regions_by_app(*db_);
  for (std::size_t hi = 0; hi < 2; ++hi) {
    for (int a = 0; a < 5; ++a)
      for (int r : by_app[static_cast<std::size_t>(a)].second)
        EXPECT_GT(res.pnp[hi][static_cast<std::size_t>(r)].seconds, 0.0);
  }
}

TEST_F(IntegrationTest, TransferLearningIsFasterAndComparable) {
  // Cross-machine transfer: Haswell → Skylake on a reduced suite.
  const auto sky = hw::MachineModel::skylake();
  const sim::Simulator sky_sim(sky);
  const auto sky_space = SearchSpace::for_machine(sky);
  const MeasurementDb sky_db(sky_sim, sky_space,
                             workloads::Suite::instance().all_regions());

  ExperimentOptions opt;
  opt.pnp = fast_pnp();
  opt.pnp.trainer.max_epochs = 15;
  opt.pnp.trainer.patience = 1000;  // fixed epochs: timing comparison
  opt.pnp.trainer.min_loss = 0.0;
  const auto rep = run_transfer_experiment(*db_, sky_db, opt);

  EXPECT_GT(rep.speedup, 1.5);  // paper: 4.18×
  EXPECT_LT(rep.transfer_trainable_weights, rep.full_trainable_weights);
  // The transferred model must stay in the same quality class.
  EXPECT_GT(rep.transfer_accuracy, 0.5 * rep.full_accuracy);
}

TEST_F(IntegrationTest, LoocvFoldsExcludeValidationApp) {
  const auto by_app = regions_by_app(*db_);
  EXPECT_EQ(by_app.size(), 30u);
  std::size_t total = 0;
  for (const auto& [app, regions] : by_app) total += regions.size();
  EXPECT_EQ(total, 68u);
  // Region indices are contiguous per app and non-overlapping.
  std::vector<bool> seen(68, false);
  for (const auto& [app, regions] : by_app)
    for (int r : regions) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(r)]);
      seen[static_cast<std::size_t>(r)] = true;
    }
}

/// Pins the calling thread to the first CPU of its affinity mask for the
/// scope's lifetime; threads it starts meanwhile inherit the one-CPU mask.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    PNP_CHECK(sched_getaffinity(0, sizeof(saved_), &saved_) == 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved_)) ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    PNP_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0);
  }
  ~PinToOneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  // The folds run on a pool as wide as the affinity mask: pinned to one
  // CPU they run one after another, unpinned (on a multi-core host) they
  // run concurrently. The cells must not depend on it.
  ExperimentOptions opt;
  opt.pnp = fast_pnp(123);
  opt.max_apps = 4;
  opt.run_pnp_dynamic = false;
  opt.run_baselines = false;
  Scenario1Result serial;
  {
    PinToOneCpu pin;
    ASSERT_EQ(nn::affinity_cpu_count(), 1);
    serial = run_power_experiment(*simulator_, *db_, opt);
  }
  const auto concurrent = run_power_experiment(*simulator_, *db_, opt);
  const auto& ca = serial.tuners.at(kPnpStatic);
  const auto& cb = concurrent.tuners.at(kPnpStatic);
  const auto by_app = regions_by_app(*db_);
  for (int ai = 0; ai < 4; ++ai)
    for (int r : by_app[static_cast<std::size_t>(ai)].second)
      for (std::size_t k = 0; k < serial.caps.size(); ++k) {
        const S1Cell& a = ca[static_cast<std::size_t>(r)][k];
        const S1Cell& b = cb[static_cast<std::size_t>(r)][k];
        EXPECT_TRUE(a.cfg == b.cfg);
        EXPECT_EQ(a.seconds, b.seconds);
      }
}

}  // namespace
}  // namespace pnp::core
