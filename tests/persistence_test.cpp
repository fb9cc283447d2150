/// \file persistence_test.cpp
/// The persistence + serving subsystem: hardened StateDict (v2 typed
/// entries, v1 back-compat, malformed-input corpus), TunerArtifact
/// round-trips, PnpTuner::save/load bit-exactness, and
/// TuningService::tune_batch batched-vs-sequential equivalence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/tuner_artifact.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

namespace pnp {
namespace {

// --- byte-crafting helpers --------------------------------------------------

void append_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_f64(std::string& s, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  append_u64(s, bits);
}

/// Serialize entries in the legacy v1 layout (f64 arrays only).
std::string v1_bytes(
    const std::vector<std::pair<std::string, std::vector<double>>>& entries) {
  std::string s = "PNPSTAT1";
  append_u64(s, entries.size());
  for (const auto& [name, values] : entries) {
    append_u64(s, name.size());
    s += name;
    append_u64(s, values.size());
    for (double d : values) append_f64(s, d);
  }
  return s;
}

StateDict load_bytes(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return StateDict::load(is);
}

std::string dict_bytes(const StateDict& sd) {
  std::ostringstream os(std::ios::binary);
  sd.save(os);
  return os.str();
}

// --- StateDict v2 ------------------------------------------------------------

TEST(StateDictV2, RoundTripTypedEntries) {
  StateDict sd;
  sd.put("weights", {1.0, -2.5, 1e300, 1e-300});
  sd.put("empty", {});
  sd.put_string("kind", "pnp-tuner");
  sd.put_string("blob", std::string("a\0b\nc", 5));
  sd.put_int("version", -7);
  sd.put_int("big", std::int64_t(1) << 62);

  const StateDict back = load_bytes(dict_bytes(sd));
  EXPECT_EQ(back, sd);
  EXPECT_EQ(back.get_string("blob"), std::string("a\0b\nc", 5));
  EXPECT_EQ(back.get_int("big"), std::int64_t(1) << 62);
  // Kinds have separate namespaces and separate lookups.
  EXPECT_FALSE(back.contains("kind"));
  EXPECT_TRUE(back.contains_string("kind"));
  EXPECT_THROW(back.get_int("kind"), Error);
}

TEST(StateDictV2, V1FilesStillLoad) {
  const std::string bytes =
      v1_bytes({{"emb.token", {1.0, 2.0}}, {"rgcn.0.w0", {-1.5}}});
  const StateDict sd = load_bytes(bytes);
  EXPECT_EQ(sd.size(), 2u);
  EXPECT_EQ(sd.get("emb.token"), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sd.get("rgcn.0.w0"), (std::vector<double>{-1.5}));
}

TEST(StateDictV2, TruncationAtEveryByteRejected) {
  StateDict sd;
  sd.put("ab", {3.0, 4.0});
  sd.put_string("s", "xy");
  sd.put_int("i", 5);
  const std::string full = dict_bytes(sd);
  ASSERT_GT(full.size(), 40u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    SCOPED_TRACE(len);
    EXPECT_THROW(load_bytes(full.substr(0, len)), Error);
  }
  EXPECT_EQ(load_bytes(full), sd);
}

TEST(StateDictV2, BadMagicRejected) {
  EXPECT_THROW(load_bytes("not a statedict at all"), Error);
  std::string wrong = dict_bytes(StateDict{});
  wrong[7] = '9';  // unknown version digit
  EXPECT_THROW(load_bytes(wrong), Error);
}

TEST(StateDictV2, AbsurdLengthsRejectedWithoutAllocation) {
  // The motivating bug: a ~24-byte file whose array length claims 2^32
  // elements must fail cleanly instead of pre-allocating 32 GiB.
  std::string s = "PNPSTAT1";
  append_u64(s, 1);               // one entry
  append_u64(s, 1);               // name length
  s += "w";
  append_u64(s, (1ULL << 32) - 1);  // array length: ~4 billion doubles
  EXPECT_THROW(load_bytes(s), Error);

  // Absurd entry counts and name lengths fail the same way.
  std::string t = "PNPSTAT1";
  append_u64(t, ~0ULL);
  EXPECT_THROW(load_bytes(t), Error);
  std::string u = "PNPSTAT1";
  append_u64(u, 1);
  append_u64(u, 1ULL << 50);  // name length
  EXPECT_THROW(load_bytes(u), Error);
}

TEST(StateDictV2, DuplicateEntryNamesRejected) {
  const std::string bytes = v1_bytes({{"dup", {1.0}}, {"dup", {2.0}}});
  EXPECT_THROW(load_bytes(bytes), Error);
}

TEST(StateDictV2, TrailingGarbageRejected) {
  StateDict sd;
  sd.put("a", {1.0});
  EXPECT_THROW(load_bytes(dict_bytes(sd) + "x"), Error);
  EXPECT_THROW(load_bytes(dict_bytes(sd) + std::string(1, '\0')), Error);
}

TEST(StateDictV2, UnknownTagRejected) {
  std::string s = "PNPSTAT2";
  append_u64(s, 1);
  s.push_back(9);  // no such tag
  append_u64(s, 1);
  s += "x";
  append_u64(s, 0);
  EXPECT_THROW(load_bytes(s), Error);
}

TEST(StateDictV2, SaveFileToUnwritablePathThrows) {
  StateDict sd;
  sd.put("a", {1.0});
  EXPECT_THROW(sd.save_file("/nonexistent-dir/sub/state.bin"), Error);
  EXPECT_THROW(StateDict::load_file("/nonexistent-dir/state.bin"), Error);
}

// --- trained-tuner fixture ---------------------------------------------------

/// A small trained world shared by the artifact/serving tests: 10 regions
/// of the Haswell suite, a few epochs — enough for deterministic,
/// non-trivial predictions without slowing the suite down.
class PersistenceFixture : public ::testing::Test {
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

  static sim::Simulator* sim_;
  static core::MeasurementDb* db_;
};

sim::Simulator* PersistenceFixture::sim_ = nullptr;
core::MeasurementDb* PersistenceFixture::db_ = nullptr;

TEST_F(PersistenceFixture, SaveLoadPredictBitExactPower) {
  core::PnpTuner trained(*db_, small_options());
  trained.train_power_scenario(all_regions());

  const std::string path = ::testing::TempDir() + "pnp_artifact_power.pnp";
  trained.save(path);
  const core::PnpTuner loaded = core::PnpTuner::load(*db_, path);
  EXPECT_EQ(loaded.mode(), core::PnpTuner::Mode::Power);
  EXPECT_EQ(loaded.vocab().size(), trained.vocab().size());

  for (int r = 0; r < db_->num_regions(); ++r)
    for (int k = 0; k < db_->num_caps(); ++k)
      EXPECT_EQ(loaded.predict_power(r, k), trained.predict_power(r, k))
          << "region " << r << " cap " << k;
}

TEST_F(PersistenceFixture, SaveLoadPredictBitExactEdp) {
  core::PnpOptions opt = small_options();
  core::PnpTuner trained(*db_, opt);
  trained.train_edp_scenario(all_regions());

  const std::string path = ::testing::TempDir() + "pnp_artifact_edp.pnp";
  trained.save(path);
  const core::PnpTuner loaded = core::PnpTuner::load(*db_, path);
  EXPECT_EQ(loaded.mode(), core::PnpTuner::Mode::Edp);

  for (int r = 0; r < db_->num_regions(); ++r) {
    const auto a = trained.predict_edp(r);
    const auto b = loaded.predict_edp(r);
    EXPECT_EQ(a.cap_index, b.cap_index);
    EXPECT_EQ(a.cfg, b.cfg);
  }
}

TEST_F(PersistenceFixture, SaveLoadRoundTripsCountersAndScalarCap) {
  core::PnpOptions opt = small_options();
  opt.use_counters = true;
  opt.cap_onehot = false;
  core::PnpTuner trained(*db_, opt);
  trained.train_power_scenario(all_regions());

  const std::string path = ::testing::TempDir() + "pnp_artifact_dyn.pnp";
  trained.save(path);
  const core::PnpTuner loaded = core::PnpTuner::load(*db_, path);
  for (int r = 0; r < db_->num_regions(); ++r)
    for (int k = 0; k < db_->num_caps(); ++k)
      EXPECT_EQ(loaded.predict_power(r, k), trained.predict_power(r, k));
  // The scalar-cap variant also serves unseen caps after reload.
  EXPECT_EQ(loaded.predict_power_at(0, 0.55), trained.predict_power_at(0, 0.55));
}

TEST_F(PersistenceFixture, SaveWithoutTrainingThrows) {
  core::PnpTuner untrained(*db_, small_options());
  EXPECT_THROW(untrained.save(::testing::TempDir() + "nope.pnp"), Error);
}

TEST_F(PersistenceFixture, ArtifactMetadataValidated) {
  core::PnpTuner trained(*db_, small_options());
  trained.train_power_scenario(all_regions());
  const std::string path = ::testing::TempDir() + "pnp_artifact_meta.pnp";
  trained.save(path);
  const StateDict good = StateDict::load_file(path);

  {  // wrong kind
    StateDict bad = good;
    bad.put_string("artifact.kind", "something-else");
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
  }
  {  // future version
    StateDict bad = good;
    bad.put_int("artifact.version", core::TunerArtifact::kFormatVersion + 1);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
  }
  {  // untrained / out-of-range mode
    StateDict bad = good;
    bad.put_int("tuner.mode", 0);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
    bad.put_int("tuner.mode", 3);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
  }
  {  // vocabulary count disagrees with the token blob
    StateDict bad = good;
    bad.put_int("vocab.count", bad.get_int("vocab.count") + 1);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
  }
  {  // broken head layout
    StateDict bad = good;
    bad.put("model.head_sizes", {6.0, 0.0, 8.0});
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
    bad.put("model.head_sizes", {6.5});
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
    bad.put("model.head_sizes", {1e300});  // unrepresentable as int
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
    bad.put("model.head_sizes", {std::nan("")});
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
  }
  {  // network dimensions that would OOM at RgcnNet construction
    StateDict bad = good;
    bad.put_int("opt.emb_dim", 2000000000);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
    bad.put_int("opt.emb_dim", -1);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
    StateDict bad2 = good;
    bad2.put_int("opt.rgcn_layers", std::int64_t(1) << 40);
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad2), Error);
  }
  // The untouched dict still loads and serves.
  const auto art = core::TunerArtifact::from_state_dict(good);
  EXPECT_EQ(art.mode, core::TunerArtifact::Mode::Power);
}

TEST_F(PersistenceFixture, MalformedArtifactFileCorpusRejected) {
  core::PnpTuner trained(*db_, small_options());
  trained.train_power_scenario(all_regions());
  const std::string path = ::testing::TempDir() + "pnp_artifact_corpus.pnp";
  trained.save(path);

  std::ostringstream os(std::ios::binary);
  core::TunerArtifact::load_file(path).to_state_dict().save(os);
  const std::string full = os.str();
  ASSERT_GT(full.size(), 1000u);

  // Truncations: every boundary in the header region, then sampled
  // offsets across the body and the very end of the file.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 64; ++i) cuts.push_back(i);
  for (std::size_t i = 64; i < full.size(); i += 509) cuts.push_back(i);
  for (std::size_t i = full.size() - 16; i < full.size(); ++i) cuts.push_back(i);
  for (std::size_t cut : cuts) {
    SCOPED_TRACE(cut);
    EXPECT_THROW(load_bytes(full.substr(0, cut)), Error);
  }

  // Trailing garbage and bad magic on the real artifact bytes.
  EXPECT_THROW(load_bytes(full + "!"), Error);
  std::string bad_magic = full;
  bad_magic[0] = 'X';
  EXPECT_THROW(load_bytes(bad_magic), Error);

  // A valid *empty* StateDict is not a tuner artifact.
  EXPECT_THROW(core::TunerArtifact::from_state_dict(StateDict{}), Error);
}

TEST_F(PersistenceFixture, ImportGnnFromLegacyV1File) {
  // Cross-machine transfer must keep working from v1 GNN-only dumps.
  core::PnpTuner source(*db_, small_options());
  source.train_power_scenario(all_regions());
  const StateDict state = source.state();

  std::vector<std::pair<std::string, std::vector<double>>> entries;
  for (const auto& name : state.names()) entries.emplace_back(name, state.get(name));
  const std::string path = ::testing::TempDir() + "legacy_v1.state";
  {
    std::ofstream f(path, std::ios::binary);
    const std::string bytes = v1_bytes(entries);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  core::PnpTuner target(*db_, small_options());
  target.import_gnn(StateDict::load_file(path), /*freeze_gnn=*/true);
  target.train_power_scenario(all_regions());
  EXPECT_EQ(target.mode(), core::PnpTuner::Mode::Power);
}

// --- artifact v3: constraint fingerprint -------------------------------------

TEST_F(PersistenceFixture, LegacyVersionArtifactsServeOnLegacyPath) {
  // v1/v2 files never recorded a constraint fingerprint. They must still
  // load against an unconstrained (Table I) space and serve bit-identical
  // predictions through the historic decode path.
  core::PnpTuner trained(*db_, small_options());
  trained.train_power_scenario(all_regions());
  const std::string path = ::testing::TempDir() + "pnp_artifact_v3.pnp";
  trained.save(path);
  const StateDict good = StateDict::load_file(path);

  for (std::int64_t version : {std::int64_t{1}, std::int64_t{2}}) {
    SCOPED_TRACE(version);
    StateDict legacy = good;
    legacy.put_int("artifact.version", version);
    const auto art = core::TunerArtifact::from_state_dict(legacy);
    EXPECT_EQ(art.version, version);
    EXPECT_FALSE(art.has_constraint_fingerprint);
    EXPECT_TRUE(art.constraint_rules().empty());

    const std::string p = ::testing::TempDir() + "pnp_artifact_legacy_" +
                          std::to_string(version) + ".pnp";
    legacy.save_file(p);
    const core::PnpTuner loaded = core::PnpTuner::load(*db_, p);
    for (int r = 0; r < db_->num_regions(); ++r)
      for (int k = 0; k < db_->num_caps(); ++k)
        EXPECT_EQ(loaded.predict_power(r, k), trained.predict_power(r, k))
            << "region " << r << " cap " << k;
  }
}

TEST_F(PersistenceFixture, ConstraintFingerprintGuardsLoad) {
  // A db over the extended, constraint-carrying space: its artifacts are
  // v3 with a non-empty fingerprint, and loading demands an exact match.
  const auto machine = hw::MachineModel::haswell();
  auto regions = workloads::Suite::instance().all_regions();
  regions.resize(8);
  const core::MeasurementDb xdb(
      *sim_, core::SearchSpace::extended_for_machine(machine), regions);
  ASSERT_TRUE(xdb.space().has_constraints());

  core::PnpTuner trained(xdb, small_options());
  trained.train_power_scenario([&] {
    std::vector<int> r;
    for (int i = 0; i < xdb.num_regions(); ++i) r.push_back(i);
    return r;
  }());
  const std::string path = ::testing::TempDir() + "pnp_artifact_ext.pnp";
  trained.save(path);
  const StateDict good = StateDict::load_file(path);

  // The untouched v3 artifact reloads and serves the constrained space.
  const core::PnpTuner reloaded = core::PnpTuner::load(xdb, path);
  EXPECT_EQ(reloaded.predict_power(0, 0), trained.predict_power(0, 0));

  {  // pre-v3 artifact (no fingerprint) vs a constraint-carrying space
    StateDict legacy = good;
    legacy.put_int("artifact.version", 2);
    const std::string p = ::testing::TempDir() + "pnp_artifact_ext_v2.pnp";
    legacy.save_file(p);
    EXPECT_THROW(core::PnpTuner::load(xdb, p), Error);
  }
  {  // fingerprint present but disagreeing with the space's rule set
    StateDict bad = good;
    auto rules = bad.get("space.constraints");
    ASSERT_GE(rules.size(), 3u);
    rules[1] += 1.0;  // perturb the first rule's parameter
    bad.put("space.constraints", rules);
    const std::string p = ::testing::TempDir() + "pnp_artifact_ext_bad.pnp";
    bad.save_file(p);
    EXPECT_THROW(core::PnpTuner::load(xdb, p), Error);
  }
  {  // fingerprint emptied: "v3, no rules" must not serve a ruled space
    StateDict bad = good;
    bad.put("space.constraints", {});
    const std::string p = ::testing::TempDir() + "pnp_artifact_ext_empty.pnp";
    bad.save_file(p);
    EXPECT_THROW(core::PnpTuner::load(xdb, p), Error);
  }
  {  // head-layout family flipped (factored artifact claiming dense heads)
    StateDict bad = good;
    bad.put_int("opt.factored_heads", 0);
    const std::string p = ::testing::TempDir() + "pnp_artifact_ext_dense.pnp";
    bad.save_file(p);
    EXPECT_THROW(core::PnpTuner::load(xdb, p), Error);
  }
}

TEST_F(PersistenceFixture, MalformedConstraintFingerprintRejected) {
  core::PnpTuner trained(*db_, small_options());
  trained.train_power_scenario(all_regions());
  const std::string path = ::testing::TempDir() + "pnp_artifact_fp.pnp";
  trained.save(path);
  const StateDict good = StateDict::load_file(path);

  const auto rejects = [&](std::vector<double> fp) {
    StateDict bad = good;
    bad.put("space.constraints", std::move(fp));
    EXPECT_THROW(core::TunerArtifact::from_state_dict(bad), Error);
  };
  rejects({1.0, 2.0});                    // not a multiple of 3
  rejects({9.0, 1.0, 1.0});               // no such rule kind
  rejects({-1.0, 1.0, 1.0});              // negative kind
  rejects({0.5, 1.0, 1.0});               // fractional kind
  rejects({0.0, std::nan(""), 1.0});      // non-finite parameter
  rejects({0.0, 1.0, HUGE_VAL});          // infinite parameter
  rejects(std::vector<double>(3 * 4097));  // absurd rule count

  // A well-formed empty fingerprint still loads (v3 over Table I space).
  const auto art = core::TunerArtifact::from_state_dict(good);
  EXPECT_TRUE(art.has_constraint_fingerprint);
  EXPECT_TRUE(art.constraint_rules().empty());
}

// --- TuningService::tune_batch ----------------------------------------------

TEST_F(PersistenceFixture, BatchedPowerMatchesSequential) {
  core::PnpTuner tuner(*db_, small_options());
  tuner.train_power_scenario(all_regions());
  const std::string path = ::testing::TempDir() + "pnp_batch_power.pnp";
  tuner.save(path);

  serve::TuningService service(*db_, path);
  // A batch with duplicates, reversed order, and every (region, cap) pair.
  std::vector<serve::TuneRequest> batch;
  for (int r = db_->num_regions() - 1; r >= 0; --r)
    for (int k = 0; k < db_->num_caps(); ++k) {
      batch.push_back(serve::TuneRequest::power(r, k));
      if (r % 3 == 0) batch.push_back(serve::TuneRequest::power(r, k));
    }
  const auto batched = service.tune_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batched[i].config,
              tuner.predict_power(batch[i].region, batch[i].cap_index))
        << "request " << i;
  // Each distinct graph was encoded exactly once despite duplicates.
  EXPECT_EQ(service.cached_encodings(),
            static_cast<std::size_t>(db_->num_regions()));
  EXPECT_EQ(service.stats().encode_misses,
            static_cast<std::uint64_t>(db_->num_regions()));

  // Single-request API agrees too, and repeated batches stay stable.
  EXPECT_EQ(service.tune(serve::TuneRequest::power(0, 1)).config,
            tuner.predict_power(0, 1));
  const auto again = service.tune_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(again[i].config, batched[i].config) << "request " << i;
}

TEST_F(PersistenceFixture, BatchedEdpMatchesSequential) {
  core::PnpTuner tuner(*db_, small_options());
  tuner.train_edp_scenario(all_regions());
  serve::TuningService service(
      core::PnpTuner::load(*db_, [&] {
        const std::string p = ::testing::TempDir() + "pnp_batch_edp.pnp";
        tuner.save(p);
        return p;
      }()));

  std::vector<serve::TuneRequest> batch;
  for (int r = 0; r < db_->num_regions(); ++r) {
    batch.push_back(serve::TuneRequest::edp(r));
    batch.push_back(serve::TuneRequest::edp(db_->num_regions() - 1 - r));
  }
  const auto batched = service.tune_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto expect = tuner.predict_edp(batch[i].region);
    EXPECT_EQ(batched[i].cap_index, expect.cap_index);
    EXPECT_EQ(batched[i].config, expect.cfg);
  }
}

TEST_F(PersistenceFixture, TuneBatchRejectsBadQueries) {
  core::PnpTuner tuner(*db_, small_options());
  tuner.train_power_scenario(all_regions());
  serve::TuningService service(std::move(tuner));
  const auto one = [&](const serve::TuneRequest& q) {
    return service.tune_batch(std::span<const serve::TuneRequest>(&q, 1))
        .at(0)
        .config;
  };

  EXPECT_THROW(one(serve::TuneRequest::power(-1, 0)), Error);
  EXPECT_THROW(one(serve::TuneRequest::power(db_->num_regions(), 0)), Error);
  EXPECT_THROW(one(serve::TuneRequest::power(0, -1)), Error);
  EXPECT_THROW(one(serve::TuneRequest::power(0, db_->num_caps())), Error);
  EXPECT_THROW(one(serve::TuneRequest::edp(0)), Error);  // power-mode model

  // A batch that fails validation must not poison the encoding cache:
  // the valid region in the failed batch still serves correctly after.
  const auto before = one(serve::TuneRequest::power(3, 1));
  const std::vector<serve::TuneRequest> mixed = {
      serve::TuneRequest::power(5, 0),
      serve::TuneRequest::power(db_->num_regions(), 0)};
  EXPECT_THROW(service.tune_batch(mixed), Error);
  EXPECT_EQ(one(serve::TuneRequest::power(5, 0)),
            one(serve::TuneRequest::power(5, 0)));
  EXPECT_EQ(one(serve::TuneRequest::power(3, 1)), before);

  core::PnpTuner untrained(*db_, small_options());
  EXPECT_THROW(serve::TuningService{std::move(untrained)}, Error);
}

}  // namespace
}  // namespace pnp
