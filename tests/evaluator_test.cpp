/// Tests for the cross-suite generalization harness (core::Evaluator):
/// split validation, test-grid enumeration, metric correctness against
/// known-perfect (oracle) and known-neutral (default) predictions, the
/// unseen-cap protocol, and the split builders.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/evaluator.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/generator.hpp"

namespace pnp::core {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::GeneratorOptions gopt;
    gopt.seed = 19;
    gopt.num_regions = 10;
    corpus_ = new workloads::Corpus(workloads::Generator(gopt).generate());
    machine_ = new hw::MachineModel(hw::MachineModel::haswell());
    simulator_ = new sim::Simulator(*machine_);
    space_ = new SearchSpace(SearchSpace::for_machine(*machine_));
    db_ = new MeasurementDb(*simulator_, *space_, corpus_->all_regions());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete space_;
    delete simulator_;
    delete machine_;
    delete corpus_;
  }

  static EvalSplit half_split() {
    EvalSplit s;
    s.name = "half";
    for (int r = 0; r < db_->num_regions(); ++r)
      (r < db_->num_regions() / 2 ? s.train_regions : s.test_regions)
          .push_back(r);
    return s;
  }

  static EvaluatorOptions fast_options() {
    EvaluatorOptions opt;
    opt.pnp.trainer.max_epochs = 2;
    return opt;
  }

  static workloads::Corpus* corpus_;
  static hw::MachineModel* machine_;
  static sim::Simulator* simulator_;
  static SearchSpace* space_;
  static MeasurementDb* db_;
};

workloads::Corpus* EvaluatorTest::corpus_ = nullptr;
hw::MachineModel* EvaluatorTest::machine_ = nullptr;
sim::Simulator* EvaluatorTest::simulator_ = nullptr;
SearchSpace* EvaluatorTest::space_ = nullptr;
MeasurementDb* EvaluatorTest::db_ = nullptr;

TEST_F(EvaluatorTest, MalformedSplitsThrow) {
  const Evaluator ev(*simulator_, *db_);
  EvalSplit s = half_split();
  s.train_regions.clear();
  EXPECT_THROW(ev.queries(s), pnp::Error);

  s = half_split();
  s.test_regions.clear();
  EXPECT_THROW(ev.queries(s), pnp::Error);

  s = half_split();
  s.test_regions.push_back(s.train_regions[0]);  // overlap
  EXPECT_THROW(ev.queries(s), pnp::Error);

  s = half_split();
  s.test_regions.push_back(db_->num_regions());  // out of range
  EXPECT_THROW(ev.queries(s), pnp::Error);

  s = half_split();
  s.test_regions.push_back(s.test_regions[0]);  // duplicate test region
  EXPECT_THROW(ev.queries(s), pnp::Error);

  s = half_split();
  s.train_regions.push_back(s.train_regions[0]);  // duplicate train region
  EXPECT_THROW(ev.queries(s), pnp::Error);

  s = half_split();
  for (int k = 0; k < db_->num_caps(); ++k) s.train_cap_indices.push_back(k);
  EXPECT_THROW(ev.queries(s), pnp::Error);  // holds out no cap

  s = half_split();
  s.train_cap_indices = {0, 0, 1};  // duplicate cap index
  EXPECT_THROW(ev.queries(s), pnp::Error);
}

TEST_F(EvaluatorTest, QueriesEnumerateTestGridRowMajor) {
  const Evaluator ev(*simulator_, *db_);
  const EvalSplit s = half_split();
  const auto qs = ev.queries(s);
  ASSERT_EQ(qs.size(), s.test_regions.size() *
                           static_cast<std::size_t>(db_->num_caps()));
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto C = static_cast<std::size_t>(db_->num_caps());
    EXPECT_EQ(qs[i].region, s.test_regions[i / C]);
    EXPECT_EQ(qs[i].cap_index, static_cast<int>(i % C));
  }

  const EvalSplit hc = with_heldout_cap(half_split(), 0, db_->num_caps());
  const auto hqs = ev.queries(hc);
  ASSERT_EQ(hqs.size(), hc.test_regions.size());
  for (const auto& q : hqs) EXPECT_EQ(q.cap_index, 0);
}

TEST_F(EvaluatorTest, OraclePredictionsScorePerfectly) {
  const Evaluator ev(*simulator_, *db_);
  const EvalSplit s = half_split();
  const auto qs = ev.queries(s);
  std::vector<sim::OmpConfig> oracle;
  for (const auto& q : qs)
    oracle.push_back(space_->candidate(
        db_->best_candidate_by_time(q.region, q.cap_index)));
  const auto res = ev.score(s, oracle);
  EXPECT_EQ(res.name, "half");
  EXPECT_EQ(res.overall.queries, static_cast<int>(qs.size()));
  EXPECT_NEAR(res.overall.geomean_normalized, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(res.overall.oracle_match, 1.0);
  EXPECT_GE(res.overall.geomean_speedup, 1.0);
  ASSERT_EQ(res.per_cap.size(), static_cast<std::size_t>(db_->num_caps()));
  for (const auto& m : res.per_cap) {
    EXPECT_NEAR(m.geomean_normalized, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(m.oracle_match, 1.0);
  }
}

TEST_F(EvaluatorTest, DefaultPredictionsScoreNeutrally) {
  const Evaluator ev(*simulator_, *db_);
  const EvalSplit s = half_split();
  const auto qs = ev.queries(s);
  const std::vector<sim::OmpConfig> dflt(qs.size(),
                                         simulator_->default_config());
  const auto res = ev.score(s, dflt);
  EXPECT_NEAR(res.overall.geomean_speedup, 1.0, 1e-12);
  EXPECT_LE(res.overall.geomean_normalized, 1.0 + 1e-12);
  for (std::size_t i = 0; i < res.per_app_speedup.apps.size(); ++i)
    EXPECT_NEAR(res.per_app_speedup.geomeans[i], 1.0, 1e-12);
}

TEST_F(EvaluatorTest, ScoreRejectsWrongConfigCount) {
  const Evaluator ev(*simulator_, *db_);
  const EvalSplit s = half_split();
  std::vector<sim::OmpConfig> configs(3, simulator_->default_config());
  EXPECT_THROW(ev.score(s, configs), pnp::Error);
}

TEST_F(EvaluatorTest, EvaluateEndToEndProducesSaneMetrics) {
  const Evaluator ev(*simulator_, *db_);
  const auto res = ev.evaluate(half_split(), fast_options());
  EXPECT_GT(res.overall.queries, 0);
  EXPECT_TRUE(std::isfinite(res.overall.geomean_speedup));
  EXPECT_GT(res.overall.geomean_speedup, 0.0);
  EXPECT_GT(res.overall.geomean_normalized, 0.0);
  // Predicted configs may land off the sweep grid (default-chunk with a
  // non-default thread count) and slightly beat the grid oracle, so only
  // a sanity ceiling applies here.
  EXPECT_LT(res.overall.geomean_normalized, 2.0);
  EXPECT_GE(res.overall.oracle_match, 0.0);
  EXPECT_LE(res.overall.oracle_match, 1.0);
  EXPECT_EQ(res.num_train_regions, db_->num_regions() / 2);
  EXPECT_EQ(res.num_test_regions,
            db_->num_regions() - db_->num_regions() / 2);
  // Every test application shows up in the per-app aggregation.
  EXPECT_FALSE(res.per_app_speedup.apps.empty());
}

TEST_F(EvaluatorTest, EvaluateIsDeterministic) {
  const Evaluator ev(*simulator_, *db_);
  const auto a = ev.evaluate(half_split(), fast_options());
  const auto b = ev.evaluate(half_split(), fast_options());
  EXPECT_DOUBLE_EQ(a.overall.geomean_speedup, b.overall.geomean_speedup);
  EXPECT_DOUBLE_EQ(a.overall.geomean_normalized,
                   b.overall.geomean_normalized);
  EXPECT_DOUBLE_EQ(a.overall.oracle_match, b.overall.oracle_match);
}

TEST_F(EvaluatorTest, HeldOutCapUsesScalarFeatureAndScoresHeldCapOnly) {
  const Evaluator ev(*simulator_, *db_);
  const int high = db_->num_caps() - 1;
  const EvalSplit s = with_heldout_cap(half_split(), high, db_->num_caps());
  const auto res = ev.evaluate(s, fast_options());
  ASSERT_EQ(res.eval_cap_indices.size(), 1u);
  EXPECT_EQ(res.eval_cap_indices[0], high);
  ASSERT_EQ(res.per_cap.size(), 1u);
  EXPECT_EQ(res.overall.queries, res.per_cap[0].queries);
  EXPECT_GT(res.overall.geomean_speedup, 0.0);

  // The trained tuner must carry the unseen-cap recipe (scalar cap).
  const PnpTuner tuner = ev.train(s, fast_options());
  const auto cfg =
      tuner.predict_power_at(s.test_regions[0], 0.5 * space_->tdp());
  EXPECT_GT(cfg.threads, 0);
}

TEST_F(EvaluatorTest, PredictPowerAtBatchMatchesSingleQueryPath) {
  // The served unseen-cap path (cached encodings + scalar cap feature)
  // must be bit-identical to PnpTuner::predict_power_at — pnp_eval's
  // unseen-cap metrics ride on it.
  const Evaluator ev(*simulator_, *db_);
  const EvalSplit s = with_heldout_cap(half_split(), 0, db_->num_caps());
  const double cap_w = db_->space().power_caps()[0];

  const PnpTuner direct = ev.train(s, fast_options());
  std::vector<sim::OmpConfig> expected;
  for (int r : s.test_regions)
    expected.push_back(direct.predict_power_at(r, cap_w));

  // Training is deterministic, so a second train() yields the same model.
  serve::TuningService service(ev.train(s, fast_options()));
  const auto at_cap = [&](double w) {
    std::vector<serve::TuneRequest> batch;
    for (int r : s.test_regions)
      batch.push_back(serve::TuneRequest::power_at(r, w));
    return batch;
  };
  const auto batched = service.tune_batch(at_cap(cap_w));
  // Repeat to exercise the warm encoding cache.
  const auto again = service.tune_batch(at_cap(cap_w));
  ASSERT_EQ(batched.size(), expected.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].config, expected[i]) << "region " << i;
    EXPECT_EQ(again[i].config, expected[i]) << "region " << i;
  }
  EXPECT_THROW(service.tune_batch(at_cap(-5.0)), pnp::Error);

  // A one-hot-cap model must refuse arbitrary-cap serving.
  serve::TuningService onehot(ev.train(half_split(), fast_options()));
  EXPECT_THROW(onehot.tune_batch(at_cap(cap_w)), pnp::Error);
}

TEST_F(EvaluatorTest, SplitBuildersPartitionByAppAndCap) {
  const auto split = make_app_split(*db_, "by-name", [](const std::string& a) {
    return !a.empty() && a.back() % 2 == 0;
  });
  EXPECT_EQ(split.name, "by-name");
  EXPECT_EQ(split.train_regions.size() + split.test_regions.size(),
            static_cast<std::size_t>(db_->num_regions()));
  for (int r : split.test_regions) {
    const auto& app = db_->region(r).region->desc.app;
    EXPECT_EQ(app.back() % 2, 0) << app;
  }

  const auto hc = with_heldout_cap(half_split(), 1, db_->num_caps());
  ASSERT_EQ(hc.train_cap_indices.size(),
            static_cast<std::size_t>(db_->num_caps()) - 1);
  for (int k : hc.train_cap_indices) EXPECT_NE(k, 1);
  EXPECT_THROW(with_heldout_cap(half_split(), -1, db_->num_caps()),
               pnp::Error);
  EXPECT_THROW(with_heldout_cap(half_split(), db_->num_caps(),
                                db_->num_caps()),
               pnp::Error);
  // One cap total: the complement would be empty = the all-caps sentinel.
  EXPECT_THROW(with_heldout_cap(half_split(), 0, 1), pnp::Error);
}

}  // namespace
}  // namespace pnp::core
