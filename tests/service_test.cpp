/// \file service_test.cpp
/// The concurrent tuning service (serve::TuningService): stress tests
/// proving that results under 8+ hammering threads are bit-identical to a
/// single-threaded reference run — including across a mid-stream hot
/// reload — plus the reload failure contract (corrupt / truncated /
/// wrong-search-space / missing artifacts leave the old model serving),
/// accounting invariants, and the common/sync.hpp
/// primitives. Worker threads never call gtest assertions; they record
/// into pre-sized slots and the main thread verifies after join (keeps
/// the suite clean under ThreadSanitizer, which CI runs it with).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

namespace pnp {
namespace {

constexpr int kThreads = 8;

// --- common/sync.hpp primitives ---------------------------------------------

TEST(ShardOfKey, DeterministicInRangeAndSpreading) {
  // The router behind the encoding cache's lock stripes: stable across
  // calls, always in range, and not degenerate (distinct small keys
  // spread over stripes rather than clumping on one).
  std::vector<int> hits(4, 0);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::size_t s = shard_of_key(k, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, shard_of_key(k, 4));
    ++hits[s];
  }
  for (int h : hits) EXPECT_GT(h, 0);
  EXPECT_THROW(shard_of_key(1, 0), Error);
}

TEST(StripedSharedMutex, MapsKeysToValidStripesDeterministically) {
  StripedSharedMutex m(7);
  EXPECT_EQ(m.stripes(), 7u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::size_t s = m.stripe_of(k);
    EXPECT_LT(s, 7u);
    EXPECT_EQ(s, m.stripe_of(k));  // stable
    EXPECT_EQ(&m.for_key(k), &m.at(s));
  }
  // Dense keys must not all collapse onto one stripe.
  std::vector<int> hist(7, 0);
  for (std::uint64_t k = 0; k < 70; ++k) ++hist[m.stripe_of(k)];
  int nonzero = 0;
  for (int h : hist) nonzero += h > 0;
  EXPECT_GT(nonzero, 3);
  EXPECT_THROW(StripedSharedMutex(0), Error);
  EXPECT_THROW(m.at(7), Error);
}

TEST(VersionedSnapshot, PublishBumpsVersionAndKeepsOldAlive) {
  VersionedSnapshot<int> holder;
  EXPECT_EQ(holder.version(), 0u);
  EXPECT_EQ(holder.current().value, nullptr);
  EXPECT_EQ(holder.publish(std::make_shared<int>(10)), 1u);
  const auto old = holder.current();
  EXPECT_EQ(*old.value, 10);
  EXPECT_EQ(old.version, 1u);
  EXPECT_EQ(holder.publish(std::make_shared<int>(20)), 2u);
  // The old ref is still alive and unchanged; new readers see v2.
  EXPECT_EQ(*old.value, 10);
  EXPECT_EQ(*holder.current().value, 20);
  EXPECT_EQ(holder.version(), 2u);
  EXPECT_THROW(holder.publish(nullptr), Error);
}

// --- trained-service fixture -------------------------------------------------

/// A small serving world shared by every test: 10 Haswell suite regions,
/// three saved power artifacts (scalar-cap, so power_at works) that
/// differ in training length — v1/v2 reload material — plus an EDP
/// artifact and a Skylake-trained artifact for the negative paths.
class ServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto machine = hw::MachineModel::haswell();
    sim_ = new sim::Simulator(machine);
    auto regions = workloads::Suite::instance().all_regions();
    regions.resize(10);
    db_ = new core::MeasurementDb(
        *sim_, core::SearchSpace::for_machine(machine), regions);

    path_a_ = save_power_artifact(*db_, 3, "service_model_a.pnp");
    path_b_ = save_power_artifact(*db_, 5, "service_model_b.pnp");
    path_edp_ = ::testing::TempDir() + "service_model_edp.pnp";
    {
      core::PnpTuner t(*db_, options(3));
      t.train_edp_scenario(all_regions(*db_));
      t.save(path_edp_);
    }

    const auto sky = hw::MachineModel::skylake();
    sky_sim_ = new sim::Simulator(sky);
    auto sky_regions = workloads::Suite::instance().all_regions();
    sky_regions.resize(10);
    sky_db_ = new core::MeasurementDb(
        *sky_sim_, core::SearchSpace::for_machine(sky), sky_regions);
    path_sky_ = save_power_artifact(*sky_db_, 3, "service_model_sky.pnp");
  }

  static void TearDownTestSuite() {
    delete db_;
    delete sim_;
    delete sky_db_;
    delete sky_sim_;
    db_ = nullptr;
    sim_ = nullptr;
    sky_db_ = nullptr;
    sky_sim_ = nullptr;
  }

  /// Scalar-cap options so one model serves both `power` and `power_at`.
  static core::PnpOptions options(int epochs) {
    core::PnpOptions opt;
    opt.cap_onehot = false;
    opt.trainer.max_epochs = epochs;
    opt.trainer.min_loss = 0.0;
    return opt;
  }

  static std::vector<int> all_regions(const core::MeasurementDb& db) {
    std::vector<int> r;
    for (int i = 0; i < db.num_regions(); ++i) r.push_back(i);
    return r;
  }

  static std::string save_power_artifact(const core::MeasurementDb& db,
                                         int epochs, const char* name) {
    core::PnpTuner t(db, options(epochs));
    t.train_power_scenario(all_regions(db));
    const std::string path = ::testing::TempDir() + name;
    t.save(path);
    return path;
  }

  /// A deterministic mixed request set over the power model: cap-index
  /// queries, arbitrary-watt queries, region duplicates — `n` requests
  /// from a tiny LCG so every build produces the same set.
  static std::vector<serve::TuneRequest> mixed_power_requests(int n) {
    std::vector<serve::TuneRequest> reqs;
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    const auto next = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(s >> 33);
    };
    const int regions = db_->num_regions();
    const int caps = db_->num_caps();
    for (int i = 0; i < n; ++i) {
      const int region = static_cast<int>(next() % regions);
      if (i % 3 == 2) {
        // Unseen cap in watts, spread over [30, 90) W.
        const double w = 30.0 + static_cast<double>(next() % 600) / 10.0;
        reqs.push_back(serve::TuneRequest::power_at(region, w));
      } else {
        reqs.push_back(
            serve::TuneRequest::power(region, static_cast<int>(next() % caps)));
      }
    }
    return reqs;
  }

  /// Single-threaded reference answers for a request set, computed
  /// through a freshly loaded PnpTuner — a fully independent code path
  /// from the service (no cache, no batching, no threads).
  static std::vector<serve::TuneResult> reference_answers(
      const std::string& artifact, std::uint64_t version,
      const std::vector<serve::TuneRequest>& reqs) {
    const core::PnpTuner ref = core::PnpTuner::load(*db_, artifact);
    std::vector<serve::TuneResult> out;
    out.reserve(reqs.size());
    for (const auto& q : reqs) {
      serve::TuneResult r;
      r.model_version = version;
      switch (q.kind) {
        case serve::TuneRequest::Kind::Power:
          r.config = ref.predict_power(q.region, q.cap_index);
          r.cap_index = q.cap_index;
          break;
        case serve::TuneRequest::Kind::PowerAt:
          r.config = ref.predict_power_at(q.region, q.cap_w);
          r.cap_index = -1;
          break;
        case serve::TuneRequest::Kind::Edp: {
          const auto jc = ref.predict_edp(q.region);
          r.config = jc.cfg;
          r.cap_index = jc.cap_index;
          break;
        }
      }
      out.push_back(r);
    }
    return out;
  }

  /// Hammer `service` with `reqs` from kThreads workers pulling a shared
  /// atomic index; results land in request order. Workers record, the
  /// caller asserts.
  static std::vector<serve::TuneResult> hammer(
      serve::TuningService& service,
      const std::vector<serve::TuneRequest>& reqs) {
    std::vector<serve::TuneResult> results(reqs.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> team;
    team.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      team.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= reqs.size()) return;
          results[i] = service.tune(reqs[i]);
        }
      });
    for (auto& th : team) th.join();
    return results;
  }

  static void expect_result_eq(const serve::TuneResult& got,
                               const serve::TuneResult& want, std::size_t i) {
    EXPECT_EQ(got.config, want.config) << "request " << i;
    EXPECT_EQ(got.cap_index, want.cap_index) << "request " << i;
    EXPECT_EQ(got.model_version, want.model_version) << "request " << i;
  }

  static sim::Simulator* sim_;
  static core::MeasurementDb* db_;
  static sim::Simulator* sky_sim_;
  static core::MeasurementDb* sky_db_;
  static std::string path_a_, path_b_, path_edp_, path_sky_;
};

sim::Simulator* ServiceFixture::sim_ = nullptr;
core::MeasurementDb* ServiceFixture::db_ = nullptr;
sim::Simulator* ServiceFixture::sky_sim_ = nullptr;
core::MeasurementDb* ServiceFixture::sky_db_ = nullptr;
std::string ServiceFixture::path_a_;
std::string ServiceFixture::path_b_;
std::string ServiceFixture::path_edp_;
std::string ServiceFixture::path_sky_;

// --- concurrent serving == single-threaded reference -------------------------

TEST_F(ServiceFixture, ConcurrentMixedQueriesMatchSingleThreadedReference) {
  const auto reqs = mixed_power_requests(600);
  const auto want = reference_answers(path_a_, 1, reqs);

  // tune() from kThreads callers at once, then the caller-batch API.
  // Both must be bit-identical to the reference.
  serve::TuningService service(*db_, path_a_);
  const auto got = hammer(service, reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_result_eq(got[i], want[i], i);

  serve::TuningService batch(*db_, path_a_);
  const auto got_batch = batch.tune_batch(reqs);
  ASSERT_EQ(got_batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_result_eq(got_batch[i], want[i], i);

  // Every distinct region encoded at most once per snapshot, despite the
  // races: the cache holds exactly the touched regions.
  std::vector<bool> touched(static_cast<std::size_t>(db_->num_regions()));
  for (const auto& q : reqs) touched[static_cast<std::size_t>(q.region)] = true;
  std::size_t distinct = 0;
  for (const bool t : touched) distinct += t;
  EXPECT_EQ(service.cached_encodings(), distinct);
  EXPECT_EQ(batch.cached_encodings(), distinct);
}

TEST_F(ServiceFixture, ConcurrentEdpQueriesMatchReference) {
  std::vector<serve::TuneRequest> reqs;
  for (int i = 0; i < 200; ++i)
    reqs.push_back(serve::TuneRequest::edp(i % db_->num_regions()));
  const auto want = reference_answers(path_edp_, 1, reqs);

  serve::TuningService service(*db_, path_edp_);
  EXPECT_EQ(service.mode(), core::PnpTuner::Mode::Edp);
  const auto got = hammer(service, reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_result_eq(got[i], want[i], i);

  // Wrong-kind requests fail cleanly on an EDP service.
  EXPECT_THROW(service.tune(serve::TuneRequest::power(0, 0)), Error);
  EXPECT_THROW(service.tune(serve::TuneRequest::power_at(0, 50.0)), Error);
}

// --- hot reload --------------------------------------------------------------

TEST_F(ServiceFixture, ReloadBoundaryEveryResultConsistentWithItsVersion) {
  const auto reqs = mixed_power_requests(400);
  const auto want_v1 = reference_answers(path_a_, 1, reqs);
  const auto want_v2 = reference_answers(path_b_, 2, reqs);

  serve::TuningService service(*db_, path_a_);
  ASSERT_EQ(service.model_version(), 1u);

  // 8 workers hammer the request list round-robin while the main thread
  // swaps A -> B mid-stream. Each worker records, per slot: its result
  // and whether it *observed* the reload as completed before issuing.
  struct Record {
    serve::TuneResult result;
    bool after_reload = false;
  };
  const int rounds = 4;
  std::vector<std::vector<Record>> log(
      kThreads, std::vector<Record>(reqs.size() * rounds));
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> reload_done{false};

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    team.emplace_back([&, t] {
      auto& mine = log[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < mine.size(); ++i) {
        // The last request per thread waits out the swap, so every run
        // exercises traffic on both sides of the reload boundary even
        // when a starved reload() finishes after the main burst.
        if (i + 1 == mine.size())
          while (!reload_done.load(std::memory_order_acquire))
            std::this_thread::yield();
        mine[i].after_reload = reload_done.load(std::memory_order_acquire);
        mine[i].result = service.tune(reqs[i % reqs.size()]);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Let the old model serve some traffic, then swap.
  while (completed.load(std::memory_order_relaxed) < 50)
    std::this_thread::yield();
  EXPECT_EQ(service.reload(path_b_), 2u);
  reload_done.store(true, std::memory_order_release);
  for (auto& th : team) th.join();

  EXPECT_EQ(service.model_version(), 2u);
  std::size_t v1_seen = 0, v2_seen = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < log[t].size(); ++i) {
      const Record& rec = log[static_cast<std::size_t>(t)][i];
      const std::uint64_t v = rec.result.model_version;
      // Atomicity: the result must be bit-identical to the single-threaded
      // reference of the version that claims to have served it — a
      // half-swapped model would produce some other configuration.
      ASSERT_TRUE(v == 1 || v == 2) << "thread " << t << " slot " << i;
      const auto& want = v == 1 ? want_v1 : want_v2;
      expect_result_eq(rec.result, want[i % reqs.size()], i);
      // Versions can only move forward within a thread…
      EXPECT_GE(v, prev) << "thread " << t << " slot " << i;
      prev = v;
      // …and a request issued after the reload completed must see v2.
      if (rec.after_reload) {
        EXPECT_EQ(v, 2u) << "thread " << t << " slot " << i;
      }
      (v == 1 ? v1_seen : v2_seen)++;
    }
  }
  // The swap point itself was exercised: traffic ran on both models.
  EXPECT_GT(v1_seen, 0u);
  EXPECT_GT(v2_seen, 0u);
  EXPECT_EQ(service.stats().reloads, 1u);
}

TEST_F(ServiceFixture, FailedReloadsLeaveOldModelServing) {
  serve::TuningService service(*db_, path_a_);
  const auto reqs = mixed_power_requests(40);
  const auto want = reference_answers(path_a_, 1, reqs);
  const auto check_still_serving = [&] {
    EXPECT_EQ(service.model_version(), 1u);
    const auto got = service.tune_batch(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      expect_result_eq(got[i], want[i], i);
  };

  // Missing file.
  EXPECT_THROW(service.reload(::testing::TempDir() + "no_such_model.pnp"),
               Error);
  check_still_serving();

  // Corrupt bytes (not a StateDict at all).
  const std::string corrupt = ::testing::TempDir() + "service_corrupt.pnp";
  {
    std::ofstream f(corrupt, std::ios::binary);
    f << "this is not a tuner artifact";
  }
  EXPECT_THROW(service.reload(corrupt), Error);
  check_still_serving();

  // Truncated real artifact (valid magic, cut mid-stream).
  std::string bytes;
  {
    std::ifstream f(path_a_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_GT(bytes.size(), 100u);
  const std::string truncated = ::testing::TempDir() + "service_trunc.pnp";
  {
    std::ofstream f(truncated, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(service.reload(truncated), Error);
  check_still_serving();

  // Wrong search space: a Skylake-trained artifact against the Haswell
  // db. The head layouts coincide (6×3×8 over 4 caps on both machines) —
  // only the v2 space fingerprint catches this.
  EXPECT_THROW(service.reload(path_sky_), Error);
  check_still_serving();

  // Scenario switch: an EDP artifact cannot replace a power service.
  EXPECT_THROW(service.reload(path_edp_), Error);
  check_still_serving();

  EXPECT_EQ(service.stats().failed_reloads, 5u);
  EXPECT_EQ(service.stats().reloads, 0u);

  // And the service still accepts a *valid* reload afterwards.
  EXPECT_EQ(service.reload(path_b_), 2u);
  EXPECT_EQ(service.model_version(), 2u);
}

TEST_F(ServiceFixture, ConcurrentQueriesDuringFailedReloadsUndisturbed) {
  serve::TuningService service(*db_, path_a_);
  const auto reqs = mixed_power_requests(200);
  const auto want = reference_answers(path_a_, 1, reqs);

  const std::string corrupt = ::testing::TempDir() + "service_corrupt2.pnp";
  {
    std::ofstream f(corrupt, std::ios::binary);
    f << "garbage";
  }

  std::vector<serve::TuneResult> results(reqs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<int> failed_reloads{0};
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t)
    team.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= reqs.size()) return;
        if (i % 25 == 7) {
          try {
            service.reload(corrupt);
          } catch (const Error&) {
            failed_reloads.fetch_add(1, std::memory_order_relaxed);
          }
        }
        results[i] = service.tune(reqs[i]);
      }
    });
  for (auto& th : team) th.join();

  EXPECT_GT(failed_reloads.load(), 0);
  EXPECT_EQ(service.model_version(), 1u);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_result_eq(results[i], want[i], i);
}

// --- request validation under concurrency ------------------------------------

TEST_F(ServiceFixture, BadRequestsFailAloneWithoutPoisoningTheService) {
  serve::TuningService service(*db_, path_a_);

  EXPECT_THROW(service.tune(serve::TuneRequest::power(-1, 0)), Error);
  EXPECT_THROW(service.tune(serve::TuneRequest::power(db_->num_regions(), 0)),
               Error);
  EXPECT_THROW(service.tune(serve::TuneRequest::power(0, -1)), Error);
  EXPECT_THROW(service.tune(serve::TuneRequest::power(0, db_->num_caps())),
               Error);
  EXPECT_THROW(service.tune(serve::TuneRequest::power_at(0, -5.0)), Error);
  EXPECT_THROW(service.tune(serve::TuneRequest::edp(0)), Error);

  // Mixed good/bad traffic from many threads: every good request must
  // still match the reference, every bad one must throw to its caller.
  const auto good = mixed_power_requests(120);
  const auto want = reference_answers(path_a_, 1, good);
  std::vector<serve::TuneResult> results(good.size());
  std::vector<char> threw(good.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t)
    team.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= good.size()) return;
        try {
          if (i % 10 == 3) {
            service.tune(serve::TuneRequest::power(-7, 0));
          } else {
            results[i] = service.tune(good[i]);
          }
        } catch (const Error&) {
          threw[i] = 1;
        }
      }
    });
  for (auto& th : team) th.join();

  for (std::size_t i = 0; i < good.size(); ++i) {
    if (i % 10 == 3) {
      EXPECT_EQ(threw[i], 1) << "request " << i;
    } else {
      ASSERT_EQ(threw[i], 0) << "request " << i;
      expect_result_eq(results[i], want[i], i);
    }
  }
}

// --- accounting --------------------------------------------------------------

TEST_F(ServiceFixture, StatsInvariantsHoldUnderConcurrency) {
  serve::TuningService service(*db_, path_a_);

  const auto reqs = mixed_power_requests(256);
  hammer(service, reqs);

  const auto st = service.stats();
  EXPECT_EQ(st.requests, reqs.size());
  // tune() serves each request as its own batch: nothing coalesces.
  EXPECT_EQ(st.batches, st.requests);
  EXPECT_EQ(st.coalesced, 0u);
  // Exactly one encoding lookup per request; the cache never shrinks.
  EXPECT_EQ(st.encode_hits + st.encode_misses, st.requests);
  EXPECT_GE(st.encode_misses, service.cached_encodings());
  EXPECT_LE(service.cached_encodings(),
            static_cast<std::size_t>(db_->num_regions()));

  // Steady state: repeating a served request computes no new encodings.
  const auto before = service.stats().encode_misses;
  for (int i = 0; i < 10; ++i) service.tune(reqs[0]);
  EXPECT_EQ(service.stats().encode_misses, before);
}

TEST_F(ServiceFixture, AdoptedTunerAndUntrainedRejection) {
  // The in-process adoption path (no artifact file) serves identically.
  core::PnpTuner t(*db_, options(3));
  t.train_power_scenario(all_regions(*db_));
  const auto reqs = mixed_power_requests(20);
  const auto want = reference_answers(path_a_, 1, reqs);
  serve::TuningService service(std::move(t));
  const auto got = service.tune_batch(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_result_eq(got[i], want[i], i);

  core::PnpTuner untrained(*db_, options(3));
  EXPECT_THROW(serve::TuningService{std::move(untrained)}, Error);
}

}  // namespace
}  // namespace pnp
