/// Search-equivalence and constraint-layer tests: the model-guided
/// constrained search vs the exhaustive oracle, the extended
/// constraint-carrying spaces, custom-space validation, and the serving
/// decode's fast-path/fallback protocol end to end.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/config_search.hpp"
#include "core/measurement_db.hpp"
#include "core/pnp_tuner.hpp"
#include "core/search_space.hpp"
#include "core/tuner_artifact.hpp"
#include "hw/machine_generator.hpp"
#include "nn/loss.hpp"
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
  const auto ok = SearchSpace::custom(
      {4, 8}, scheds, {1, 2}, {50.0}, def,
      {{ConstraintRule::Kind::kMaxThreads, 4.0, 0.0}});
  EXPECT_TRUE(ok.has_constraints());
  EXPECT_EQ(ok.max_valid_threads(50.0), 4);
}

// --- Constrained search vs the exhaustive oracle --------------------------

template <typename T>
void check_power_equivalence(const SearchSpace& s, std::uint64_t seed) {
  LogitGen gen(seed);
  const auto thr64 = gen.vec(s.num_thread_classes());
  const auto sch64 = gen.vec(s.num_schedule_classes());
  const auto chk64 = gen.vec(s.num_chunk_classes());
  std::vector<T> thr(thr64.begin(), thr64.end());
  std::vector<T> sch(sch64.begin(), sch64.end());
  std::vector<T> chk(chk64.begin(), chk64.end());
  const std::span<const T> ts(thr), ss(sch), cs(chk);
  for (double cap_w : s.power_caps()) {
    const SearchChoice oracle = exhaustive_power<T>(s, cap_w, ts, ss, cs);
    EXPECT_TRUE(s.is_valid(
        s.config_from_classes(oracle.thread_cls, oracle.sched_cls,
                              oracle.chunk_cls),
        cap_w));
    EXPECT_TRUE(same_choice(search_power<T>(s, cap_w, ts, ss, cs), oracle))
        << "cap " << cap_w;
  }
}

template <typename T>
void check_edp_equivalence(const SearchSpace& s, std::uint64_t seed) {
  LogitGen gen(seed);
  const auto cap64 = gen.vec(s.num_cap_classes());
  const auto thr64 = gen.vec(s.num_thread_classes());
  const auto sch64 = gen.vec(s.num_schedule_classes());
  const auto chk64 = gen.vec(s.num_chunk_classes());
  std::vector<T> cap(cap64.begin(), cap64.end());
  std::vector<T> thr(thr64.begin(), thr64.end());
  std::vector<T> sch(sch64.begin(), sch64.end());
  std::vector<T> chk(chk64.begin(), chk64.end());
  const std::span<const T> ps(cap), ts(thr), ss(sch), cs(chk);
  const SearchChoice oracle = exhaustive_edp<T>(s, ps, ts, ss, cs);
  EXPECT_TRUE(same_choice(search_edp<T>(s, ps, ts, ss, cs), oracle));
}

TEST(ConstrainedSearch, MatchesExhaustivePowerF64) {
  for (const auto& s : all_spaces())
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u})
      check_power_equivalence<double>(s, seed);
}

TEST(ConstrainedSearch, MatchesExhaustivePowerF32) {
  for (const auto& s : all_spaces())
    for (std::uint64_t seed : {1u, 2u, 3u})
      check_power_equivalence<float>(s, seed);
}

TEST(ConstrainedSearch, MatchesExhaustiveEdpF64) {
  for (const auto& s : all_spaces())
    for (std::uint64_t seed : {7u, 8u, 9u, 10u, 11u})
      check_edp_equivalence<double>(s, seed);
}

TEST(ConstrainedSearch, MatchesExhaustiveEdpF32) {
  for (const auto& s : all_spaces())
    for (std::uint64_t seed : {7u, 8u, 9u})
      check_edp_equivalence<float>(s, seed);
}

TEST(ConstrainedSearch, TieBreakIsLexicographicOnEqualLogits) {
  // All-zero logits: every tuple scores 0, so the winner must be the first
  // valid tuple in (cap, thread, sched, chunk) lexicographic order — the
  // same first-max-wins protocol as nn::argmax_index.
  for (const auto& s : all_spaces()) {
    const std::vector<double> thr(static_cast<std::size_t>(s.num_thread_classes()), 0.0);
    const std::vector<double> sch(static_cast<std::size_t>(s.num_schedule_classes()), 0.0);
    const std::vector<double> chk(static_cast<std::size_t>(s.num_chunk_classes()), 0.0);
    const double cap_w = s.power_caps().front();
    const SearchChoice got = search_power<double>(s, cap_w, thr, sch, chk);
    const SearchChoice oracle =
        exhaustive_power<double>(s, cap_w, thr, sch, chk);
    EXPECT_TRUE(same_choice(got, oracle));
    EXPECT_EQ(oracle.thread_cls, 0);
    EXPECT_EQ(oracle.sched_cls, 0);
    EXPECT_EQ(oracle.chunk_cls, 0);  // (1 thread, static, default chunk)
  }
}

TEST(ConstrainedSearch, FastPathEqualsArgmaxOnUnconstrainedSpace) {
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
  EXPECT_FALSE(c.used_fallback);
}

TEST(ConstrainedSearch, FallsBackToDefaultWhenEverythingIsPruned) {
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
    // The default tuple is reachable as a regular (always-valid) scan
    // candidate, so this is a genuine search result, not the emergency
    // fallback path.
    EXPECT_EQ(s.config_from_classes(c.thread_cls, c.sched_cls, c.chunk_cls),
              s.default_config());
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
}

// --- Seeded sweep: the decode is the exhaustive argmax, bit for bit --------

/// Every field, the score compared by its bit pattern (so a NaN score
/// must match and -0.0 differs from +0.0).
bool identical(const SearchChoice& a, const SearchChoice& b) {
  return a.cap_cls == b.cap_cls && a.thread_cls == b.thread_cls &&
         a.sched_cls == b.sched_cls && a.chunk_cls == b.chunk_cls &&
         a.used_fallback == b.used_fallback &&
         std::bit_cast<std::uint64_t>(a.score) ==
             std::bit_cast<std::uint64_t>(b.score);
}

std::string describe(const SearchChoice& c) {
  std::ostringstream os;
  os << "(" << c.cap_cls << "," << c.thread_cls << "," << c.sched_cls << ","
     << c.chunk_cls << ") score " << c.score << " fallback "
     << c.used_fallback;
  return os.str();
}

constexpr int kSweepSets = 210;
constexpr int kSweepKinds = 6;

/// One head of a sweep logit set of kind `kind` (see sweep_set()).
std::vector<double> sweep_head(LogitGen& gen, int n, int kind) {
  std::vector<double> v = gen.vec(n);
  for (double& x : v) {
    if (kind == 1 || kind == 3) x = std::round(x * 4.0) / 4.0;
    const double u = gen.next();
    if ((kind == 2 || kind == 4) && u > 0.8)
      x = std::numeric_limits<double>::quiet_NaN();
    else if ((kind == 3 || kind == 4) && u < -0.8)
      x = (u < -0.9 ? -1.0 : 1.0) * std::numeric_limits<double>::infinity();
  }
  return v;
}

TEST(ExactScanSweep, FastPathScoreKeepsTheOraclesSignedZero) {
  // Every head's maximum is -0.0: the fast path answers, and its score must
  // carry the oracle's bits (0.0 + -0.0 = +0.0), not -0.0.
  const auto s = SearchSpace::for_machine(hw::MachineModel::haswell());
  std::vector<double> thr(static_cast<std::size_t>(s.num_thread_classes()), -1.0);
  std::vector<double> sch(static_cast<std::size_t>(s.num_schedule_classes()), -1.0);
  std::vector<double> chk(static_cast<std::size_t>(s.num_chunk_classes()), -1.0);
  thr[2] = sch[1] = chk[3] = -0.0;
  const double cap_w = s.power_caps().front();
  const SearchChoice got = search_power<double>(s, cap_w, thr, sch, chk);
  EXPECT_EQ(got.thread_cls, 2);
  EXPECT_TRUE(identical(got, exhaustive_power<double>(s, cap_w, thr, sch, chk)))
      << describe(got);
}

/// The extended spaces of the sweep: haswell, skylake and one generated
/// machine.
std::vector<SearchSpace> sweep_spaces() {
  return {SearchSpace::extended_for_machine(hw::MachineModel::haswell()),
          SearchSpace::extended_for_machine(hw::MachineModel::skylake()),
          SearchSpace::extended_for_machine(
              hw::MachineGenerator(2024).machine(2))};
}

/// A cap below the extended space's one-thread watt budget (its
/// thread-per-watt slope is max threads / TDP): the rule prunes every grid
/// thread count, so only the default config stays valid.
double starved_cap(const SearchSpace& s) {
  return 0.5 * s.tdp() / static_cast<double>(s.thread_values().back());
}

/// `s` with every cap starved.
SearchSpace starved(const SearchSpace& s) {
  const double cap_w = starved_cap(s);
  return SearchSpace::custom(s.thread_values(), s.schedule_values(),
                             s.chunk_values(), {cap_w / 2.0, cap_w},
                             s.default_config(), s.constraints());
}

/// Sweep logit set `i`, heads in cap, thread, schedule, chunk order. The
/// kinds rotate with `i`:
///   0 continuous in [-1, 1);
///   1 quantized to quarters — sums are exact, so ties (and -0.0) abound;
///   2 continuous, ~10% NaN;
///   3 quantized, ~5% +inf and ~5% -inf;
///   4 continuous, NaN and ±inf mixed;
///   5 continuous with the largest thread count's logit planted on top —
///     pruned below TDP, so the fast path misses and the scan runs.
struct SweepSet {
  int kind = 0;
  std::vector<double> cap, thr, sch, chk;
};

SweepSet sweep_set(const SearchSpace& s, std::uint64_t seed, int i) {
  LogitGen gen(seed * 1000 + static_cast<std::uint64_t>(i));
  SweepSet set;
  set.kind = i % kSweepKinds;
  set.cap = sweep_head(gen, s.num_cap_classes(), set.kind);
  set.thr = sweep_head(gen, s.num_thread_classes(), set.kind);
  set.sch = sweep_head(gen, s.num_schedule_classes(), set.kind);
  set.chk = sweep_head(gen, s.num_chunk_classes(), set.kind);
  if (set.kind == 5) set.thr.back() = 2.0;
  return set;
}

template <typename T>
std::vector<T> as(const std::vector<double>& v) {
  return std::vector<T>(v.begin(), v.end());
}

template <typename T>
void sweep_power(const SearchSpace& s, std::uint64_t seed) {
  std::vector<double> caps = s.power_caps();
  caps.push_back(starved_cap(s));
  ASSERT_EQ(s.max_valid_threads(caps.back()), 0);
  int scanned = 0;
  for (int i = 0; i < kSweepSets; ++i) {
    const SweepSet set = sweep_set(s, seed, i);
    const auto thr = as<T>(set.thr), sch = as<T>(set.sch),
               chk = as<T>(set.chk);
    const std::span<const T> ts(thr), ss(sch), cs(chk);
    for (double cap_w : caps) {
      const SearchChoice oracle = exhaustive_power<T>(s, cap_w, ts, ss, cs);
      const SearchChoice got = search_power<T>(s, cap_w, ts, ss, cs);
      ASSERT_TRUE(identical(got, oracle))
          << "set " << i << " kind " << set.kind << " cap " << cap_w << ": "
          << describe(got) << " vs oracle " << describe(oracle);
      const int ti = nn::argmax_index(ts), si = nn::argmax_index(ss),
                ki = nn::argmax_index(cs);
      if (!s.is_valid(s.config_from_classes(ti, si, ki), cap_w)) ++scanned;
    }
  }
  EXPECT_GT(scanned, kSweepSets);  // the scan, not the fast path, is tested
}

template <typename T>
void sweep_edp(const SearchSpace& s, std::uint64_t seed) {
  int scanned = 0;
  for (int i = 0; i < kSweepSets; ++i) {
    const SweepSet set = sweep_set(s, seed, i);
    const auto cap = as<T>(set.cap), thr = as<T>(set.thr),
               sch = as<T>(set.sch), chk = as<T>(set.chk);
    const std::span<const T> ps(cap), ts(thr), ss(sch), cs(chk);
    const SearchChoice oracle = exhaustive_edp<T>(s, ps, ts, ss, cs);
    const SearchChoice got = search_edp<T>(s, ps, ts, ss, cs);
    ASSERT_TRUE(identical(got, oracle))
        << "set " << i << " kind " << set.kind << ": " << describe(got)
        << " vs oracle " << describe(oracle);
    const int ci = nn::argmax_index(ps), ti = nn::argmax_index(ts),
              si = nn::argmax_index(ss), ki = nn::argmax_index(cs);
    if (!s.is_valid(s.config_from_classes(ti, si, ki),
                    s.power_caps()[static_cast<std::size_t>(ci)]))
      ++scanned;
  }
  EXPECT_GT(scanned, 0);
}

TEST(ExactScanSweep, PowerEqualsExhaustiveF64) {
  std::uint64_t seed = 100;
  for (const auto& s : sweep_spaces()) sweep_power<double>(s, ++seed);
}

TEST(ExactScanSweep, PowerEqualsExhaustiveF32) {
  std::uint64_t seed = 200;
  for (const auto& s : sweep_spaces()) sweep_power<float>(s, ++seed);
}

TEST(ExactScanSweep, EdpEqualsExhaustiveF64) {
  std::uint64_t seed = 300;
  for (const auto& s : sweep_spaces()) {
    sweep_edp<double>(s, ++seed);
    sweep_edp<double>(starved(s), ++seed);
  }
}

TEST(ExactScanSweep, EdpEqualsExhaustiveF32) {
  std::uint64_t seed = 400;
  for (const auto& s : sweep_spaces()) {
    sweep_edp<float>(s, ++seed);
    sweep_edp<float>(starved(s), ++seed);
  }
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

/// The validity-filtered scan over the flat grid, without the argmax fast
/// path: the reference for dense_argmax_valid.
int dense_reference(const SearchSpace& s, std::span<const double> logits,
                    bool edp, double cap_w) {
  int best = -1;
  double best_score = 0.0;
  for (int flat = 0; flat < static_cast<int>(logits.size()); ++flat) {
    const TunerClasses c = tuner_classes_from_flat(s, flat, edp);
    const double w =
        edp ? s.power_caps()[static_cast<std::size_t>(c.cap)] : cap_w;
    if (!s.is_valid(s.config_from_classes(c.thread, c.sched, c.chunk), w))
      continue;
    const double x = logits[static_cast<std::size_t>(flat)];
    if (best < 0 || x > best_score) {
      best = flat;
      best_score = x;
    }
  }
  return best;
}

TEST(DenseArgmax, FastPathEqualsTheValidityScan) {
  // Every sweep kind, on the constraint-carrying spaces, power (every cap
  // and a starved one) and EDP: the fast path may only answer when the
  // full scan would give the same index.
  for (const auto& s : sweep_spaces()) {
    const int grid =
        s.num_thread_classes() * s.num_schedule_classes() * s.num_chunk_classes();
    std::vector<double> caps = s.power_caps();
    caps.push_back(starved_cap(s));
    LogitGen gen(77);
    for (int i = 0; i < 6 * kSweepKinds; ++i) {
      const int kind = i % kSweepKinds;
      std::vector<double> power = sweep_head(gen, grid, kind);
      std::vector<double> edp =
          sweep_head(gen, grid * s.num_cap_classes(), kind);
      if (kind == 5) {
        // Plant the maximum on the largest thread count: pruned below TDP.
        const int top = s.num_thread_classes() - 1;
        power[static_cast<std::size_t>(
            tuner_flat_class(s, {0, top, 0, 0}, false))] = 2.0;
        edp[static_cast<std::size_t>(
            tuner_flat_class(s, {0, top, 0, 0}, true))] = 2.0;
      }
      for (double cap_w : caps)
        EXPECT_EQ(dense_argmax_valid<double>(s, power, false, cap_w),
                  dense_reference(s, power, false, cap_w))
            << "set " << i << " cap " << cap_w;
      EXPECT_EQ(dense_argmax_valid<double>(s, edp, true, 0.0),
                dense_reference(s, edp, true, 0.0))
          << "set " << i;
    }
  }
}

TEST(DenseArgmax, NanOnTheFirstValidClassTakesTheScan) {
  // At the 10 W cap only the default (8 threads) is valid, so the first
  // valid EDP class is not class 0. A NaN there wins the scan (nothing
  // compares greater), while the plain argmax skips it: the fast path
  // must not answer.
  const auto s = SearchSpace::custom(
      {4, 8}, {sim::Schedule::Static, sim::Schedule::Dynamic}, {16, 32},
      {10.0, 80.0}, {8, sim::Schedule::Static, 0},
      {{ConstraintRule::Kind::kMaxThreadsPerWatt, 0.1, 0.0}});
  LogitGen gen(5);
  std::vector<double> edp = gen.vec(s.num_cap_classes() *
                                    s.num_thread_classes() *
                                    s.num_schedule_classes() *
                                    s.num_chunk_classes());
  const int def = tuner_flat_class(
      s, tuner_classes_for(s, s.default_config(), 0), true);
  edp[static_cast<std::size_t>(def)] =
      std::numeric_limits<double>::quiet_NaN();
  edp.back() = 2.0;  // the argmax: valid at the 80 W cap
  EXPECT_EQ(dense_argmax_valid<double>(s, edp, true, 0.0), def);
  EXPECT_EQ(dense_reference(s, edp, true, 0.0), def);
}

// --- Trained models: serving equals the tuner on the extended space -------

MeasurementDb small_db(const hw::MachineModel& m, const SearchSpace& space) {
  auto regions = workloads::Suite::instance().all_regions();
  regions.resize(12);  // enough structure, fast to measure and train
  return MeasurementDb(sim::Simulator(m), space, regions);
}

TEST(ModelGuidedServing, ServiceMatchesTunerOnExtendedSpace) {
  const auto m = hw::MachineModel::haswell();
  const auto space = SearchSpace::extended_for_machine(m);
  const MeasurementDb db = small_db(m, space);
  PnpOptions opt;
  opt.trainer.max_epochs = 2;
  PnpTuner tuner(db, opt);
  std::vector<int> all;
  for (int r = 0; r < db.num_regions(); ++r) all.push_back(r);
  tuner.train_power_scenario(all);

  // The tuner's own predictions are the reference; the service must match
  // them.
  std::vector<serve::TuneRequest> grid;
  for (int r = 0; r < db.num_regions(); ++r)
    for (int k = 0; k < db.num_caps(); ++k)
      grid.push_back(serve::TuneRequest::power(r, k));
  serve::TuningService service(
      PnpTuner::from_artifact(db, tuner.to_artifact()));
  const auto got = service.tune_batch(grid);
  ASSERT_EQ(got.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(got[i].config,
              tuner.predict_power(grid[i].region, grid[i].cap_index))
        << "region " << grid[i].region << " cap " << grid[i].cap_index;
}

TEST(ModelGuidedServing, EdpServiceMatchesTunerOnExtendedSpace) {
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

  serve::TuningService service(
      PnpTuner::from_artifact(db, tuner.to_artifact()));
  for (int r = 0; r < db.num_regions(); ++r) {
    const auto res = service.tune(serve::TuneRequest::edp(r));
    EXPECT_EQ(res.cap_index, ref[static_cast<std::size_t>(r)].cap_index);
    EXPECT_EQ(res.config, ref[static_cast<std::size_t>(r)].cfg);
    EXPECT_TRUE(space.is_valid(
        res.config,
        space.power_caps()[static_cast<std::size_t>(res.cap_index)]));
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
