/// \file stats_consistency_test.cpp
/// TuningService::stats() consistency under concurrency (the documented
/// contract in serve/tuning_service.hpp): while tuner threads hammer the
/// service, every stats() snapshot must satisfy
///
///   encode_hits + encode_misses <= requests
///   batches + coalesced         <= requests
///
/// — the derived counters may trail `requests` (a request is counted on
/// entry, its cache/batch accounting lands later) but must never lead
/// it, which is exactly what the release/acquire ordering plus the
/// "requests loaded last" read order buys. At quiescence both turn into
/// the equalities service_test already asserts. Snapshot readers race
/// real tuners calling tune() (one batch per request) and caller-formed
/// tune_batch calls, empty batches included (an empty batch must count
/// nothing).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

namespace pnp::serve {
namespace {

constexpr int kTuners = 6;
constexpr int kReaders = 2;
constexpr int kRequestsPerTuner = 400;
/// tune_batch sizes a batched tuner cycles through.
constexpr int kBatchSizes[] = {0, 1, 3};

class StatsConsistencyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto machine = hw::MachineModel::haswell();
    sim_ = new sim::Simulator(machine);
    auto regions = workloads::Suite::instance().all_regions();
    regions.resize(10);
    db_ = new core::MeasurementDb(
        *sim_, core::SearchSpace::for_machine(machine), regions);
    core::PnpOptions opt;
    opt.trainer.max_epochs = 3;
    opt.trainer.min_loss = 0.0;
    core::PnpTuner t(*db_, opt);
    std::vector<int> all;
    for (int r = 0; r < db_->num_regions(); ++r) all.push_back(r);
    t.train_power_scenario(all);
    model_path_ = ::testing::TempDir() + "stats_consistency_model.pnp";
    t.save(model_path_);
  }

  static void TearDownTestSuite() {
    delete db_;
    delete sim_;
    db_ = nullptr;
    sim_ = nullptr;
  }

  /// Hammer `service` with kTuners threads while kReaders threads pull
  /// stats() snapshots as fast as they can. Violations are counted, not
  /// asserted, inside the threads (TSan-clean gtest usage); the main
  /// thread asserts after join. Each tuner sends kRequestsPerTuner
  /// requests, one tune() each or, when `batched`, through tune_batch
  /// calls of kBatchSizes requests in turn.
  static void hammer_and_check(TuningService& service, bool batched = false) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> hits_lead{0}, batch_lead{0}, snapshots{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int i = 0; i < kReaders; ++i) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const TuningService::Stats st = service.stats();
          snapshots.fetch_add(1, std::memory_order_relaxed);
          if (st.encode_hits + st.encode_misses > st.requests)
            hits_lead.fetch_add(1, std::memory_order_relaxed);
          if (st.batches + st.coalesced > st.requests)
            batch_lead.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::vector<std::thread> tuners;
    tuners.reserve(kTuners);
    for (int t = 0; t < kTuners; ++t) {
      tuners.emplace_back([&service, t, batched] {
        const auto request = [&](int i) {
          return TuneRequest::power((t * 31 + i) % service.db().num_regions(),
                                    (t + i) % service.db().num_caps());
        };
        if (!batched) {
          for (int i = 0; i < kRequestsPerTuner; ++i) service.tune(request(i));
          return;
        }
        std::vector<TuneRequest> batch;
        for (int call = 0, sent = 0; sent < kRequestsPerTuner; ++call) {
          const int size = std::min(kBatchSizes[call % std::size(kBatchSizes)],
                                    kRequestsPerTuner - sent);
          batch.clear();
          for (int j = 0; j < size; ++j) batch.push_back(request(sent++));
          service.tune_batch(batch);
        }
      });
    }
    for (auto& th : tuners) th.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : readers) th.join();

    EXPECT_EQ(hits_lead.load(), 0u)
        << "a snapshot saw encode_hits + encode_misses > requests";
    EXPECT_EQ(batch_lead.load(), 0u)
        << "a snapshot saw batches + coalesced > requests";
    EXPECT_GT(snapshots.load(), 0u);

    // Quiescent: the inequalities close into the documented equalities.
    const TuningService::Stats st = service.stats();
    EXPECT_EQ(st.requests,
              static_cast<std::uint64_t>(kTuners) * kRequestsPerTuner);
    EXPECT_EQ(st.encode_hits + st.encode_misses, st.requests);
    EXPECT_EQ(st.batches + st.coalesced, st.requests);
  }

  static sim::Simulator* sim_;
  static core::MeasurementDb* db_;
  static std::string model_path_;
};

sim::Simulator* StatsConsistencyFixture::sim_ = nullptr;
core::MeasurementDb* StatsConsistencyFixture::db_ = nullptr;
std::string StatsConsistencyFixture::model_path_;

TEST_F(StatsConsistencyFixture, TunePathNeverLeads) {
  TuningService service(*db_, model_path_);
  hammer_and_check(service);
  // tune() never coalesces: every request is its own batch.
  const TuningService::Stats st = service.stats();
  EXPECT_EQ(st.batches, st.requests);
  EXPECT_EQ(st.coalesced, 0u);
}

TEST_F(StatsConsistencyFixture, TuneBatchPathNeverLeads) {
  TuningService service(*db_, model_path_);
  hammer_and_check(service, /*batched=*/true);
}

}  // namespace
}  // namespace pnp::serve
