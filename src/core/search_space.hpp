#pragma once

/// \file search_space.hpp
/// The tuning search space of Table I:
///
///   Power caps  : 75/100/120/150 W (Skylake), 40/60/70/85 W (Haswell)
///   Threads     : 1,4,8,16,32,64 (Skylake), 1,2,4,8,16,32 (Haswell)
///   Schedule    : static, dynamic, guided
///   Chunk sizes : 1, 8, 32, 64, 128, 256, 512
///
/// 4 × 6 × 3 × 7 = 504 regular configurations, plus the default OpenMP
/// configuration (all hardware threads, static, compiler-default chunk) at
/// each of the four caps = 508 total.
///
/// The classifier's label space additionally treats "compiler-default
/// chunk" (chunk = 0) as an eighth chunk class so the default
/// configuration is representable as a label (see DESIGN.md §2 on this
/// deliberate deviation); the oracle and the baselines stay on the paper's
/// 508-point space.
///
/// Beyond Table I the space is parameterized: `custom()` builds a space
/// over arbitrary thread/chunk grids and `extended_for_machine()` builds a
/// ≥2000-point grid with realistic validity constraints. Constraints are
/// declarative `ConstraintRule` triples (kind, a, b) so they can be
/// fingerprinted into the tuner artifact, and `is_valid()` is the single
/// constraint layer every scorer (oracle, beam search, serving decode)
/// consults. The machine's default configuration is always valid — it is
/// the guaranteed fallback when pruning empties a cap's slice.

#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "sim/omp_config.hpp"

namespace pnp::core {

/// One declarative validity constraint. Rules are (kind, a, b) triples of
/// plain numbers — no callbacks — so a space's constraint set can be
/// serialized verbatim into the artifact fingerprint and compared on load.
struct ConstraintRule {
  enum class Kind : int {
    /// threads <= a.
    kMaxThreads = 0,
    /// threads <= a * cap_w: high thread counts are invalid under tight
    /// power caps (they would immediately throttle).
    kMaxThreadsPerWatt = 1,
    /// schedule index == int(a) and chunk != 0 implies chunk >= b:
    /// fine-grained chunks under dynamic scheduling thrash the runtime.
    kMinChunkForSchedule = 2,
    /// threads * chunk <= a (chunk != 0): oversubscribed iteration blocks.
    kMaxChunkThreadProduct = 3,
  };
  Kind kind = Kind::kMaxThreads;
  double a = 0.0;
  double b = 0.0;

  friend bool operator==(const ConstraintRule&, const ConstraintRule&) = default;
};

/// Number of rule kinds — loaders reject fingerprints outside [0, count).
inline constexpr int kNumConstraintKinds = 4;

class SearchSpace {
 public:
  /// Table I values for one of the two machines (keyed on machine name).
  static SearchSpace for_machine(const hw::MachineModel& m);

  /// Extended constraint-carrying grid for the same machine: ~12 thread
  /// classes × 3 schedules × 15 chunk classes (+ default) over the Table I
  /// caps — ≥2000 joint candidates — with the validity rules above.
  static SearchSpace extended_for_machine(const hw::MachineModel& m);

  /// The `--space` flag every tool shares: "table1" (for_machine) or
  /// "extended" (extended_for_machine). Throws pnp::Error on anything
  /// else.
  static SearchSpace by_name(const std::string& name,
                             const hw::MachineModel& m);

  /// Fully parameterized space. `default_cfg.threads` must be on the
  /// thread grid and `default_cfg.chunk` must be 0 (the compiler-default
  /// chunk class) so the default remains representable as a label.
  static SearchSpace custom(std::vector<int> threads,
                            std::vector<sim::Schedule> schedules,
                            std::vector<int> chunks, std::vector<double> caps,
                            sim::OmpConfig default_cfg,
                            std::vector<ConstraintRule> constraints = {});

  const std::vector<int>& thread_values() const { return threads_; }
  const std::vector<sim::Schedule>& schedule_values() const { return schedules_; }
  const std::vector<int>& chunk_values() const { return chunks_; }
  const std::vector<double>& power_caps() const { return caps_; }

  /// Thermal design power = the highest cap (no constraint).
  double tdp() const { return caps_.back(); }

  // --- Constraint layer ---------------------------------------------------
  const std::vector<ConstraintRule>& constraints() const { return constraints_; }
  bool has_constraints() const { return !constraints_.empty(); }

  /// True when `cfg` may run at power cap `cap_w`. The machine default is
  /// always valid (the fallback guarantee); other configs must satisfy
  /// every rule.
  bool is_valid(const sim::OmpConfig& cfg, double cap_w) const;

  /// Largest thread count on the grid that the thread-only rules admit at
  /// `cap_w` (0 if they admit none). The default config is exempt from
  /// pruning — `is_valid` handles that; this is the beam search's early
  /// thread-stage bound.
  int max_valid_threads(double cap_w) const;

  /// Joint candidates removed by the constraint layer (0 on Table I
  /// spaces, which carry no constraints).
  int joint_invalid_count() const;

  // --- Per-cap OpenMP configuration grid (126 points) --------------------
  int num_omp_configs() const;
  sim::OmpConfig omp_config(int index) const;
  /// Index of a grid configuration; -1 if not on the grid.
  int omp_index(const sim::OmpConfig& cfg) const;

  /// Axis positions of one grid configuration on the raw value grids
  /// (thread-major layout: index == (thread * S + sched) * C + chunk).
  /// The single codec behind omp_config/omp_index and the baselines'
  /// neighborhood moves; the classifier's label layout (with its extra
  /// default-chunk class) lives in the tuner_head_layout helper family.
  struct GridAxes {
    int thread = 0;
    int sched = 0;
    int chunk = 0;
  };
  GridAxes omp_axes(int index) const;
  int omp_index_from_axes(const GridAxes& ax) const;

  /// The default OpenMP configuration for this machine.
  sim::OmpConfig default_config() const { return default_; }

  /// Candidates the oracle/baselines scan at one cap: the 126-point grid
  /// plus the default (index == num_omp_configs() encodes the default).
  int num_candidates_per_cap() const { return num_omp_configs() + 1; }
  sim::OmpConfig candidate(int index) const;

  /// Total size of the joint space across caps (paper: 508).
  int joint_size() const { return static_cast<int>(caps_.size()) * num_candidates_per_cap(); }
  struct JointPoint {
    int cap_index;
    sim::OmpConfig cfg;
    bool is_default;
  };
  JointPoint joint_point(int index) const;

  // --- Label-space helpers for the factorized classifier -----------------
  /// Head sizes: threads, schedule, chunk classes (chunk 0 = default).
  int num_thread_classes() const { return static_cast<int>(threads_.size()); }
  int num_schedule_classes() const { return static_cast<int>(schedules_.size()); }
  int num_chunk_classes() const { return static_cast<int>(chunks_.size()) + 1; }
  int num_cap_classes() const { return static_cast<int>(caps_.size()); }

  int thread_class(int threads) const;
  int chunk_class(int chunk) const;  ///< chunk 0 → class 0
  /// Build a configuration from head predictions.
  sim::OmpConfig config_from_classes(int thread_cls, int sched_cls,
                                     int chunk_cls) const;

  int cap_index(double cap_w) const;

 private:
  std::vector<int> threads_;
  std::vector<sim::Schedule> schedules_;
  std::vector<int> chunks_;
  std::vector<double> caps_;
  std::vector<ConstraintRule> constraints_;
  sim::OmpConfig default_;
};

}  // namespace pnp::core
