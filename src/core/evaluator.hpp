#pragma once

/// \file evaluator.hpp
/// Cross-suite generalization harness: train a PnP tuner on one set of
/// regions (suite A) and score it on a disjoint set (suite B) with the
/// paper's §IV metrics. Where the LOOCV drivers (loocv.hpp) reproduce the
/// paper's leave-one-application-out protocol inside the fixed 68-region
/// corpus, the Evaluator stresses the actual generalization claim on
/// corpora the model never saw — typically procedurally generated ones
/// (workloads::Generator) mixed with the paper suite in one MeasurementDb.
///
/// Split axes (tools/pnp_eval builds all three):
///   - unseen-app:    every test region belongs to an application absent
///                    from training;
///   - unseen-family: every test region belongs to a kernel-family
///                    archetype absent from training;
///   - unseen-cap:    training sees a strict subset of the power caps and
///                    the model predicts at a held-out cap through the
///                    scalar cap feature (paper Figs. 4–5 protocol).
///
/// The harness separates training from prediction from scoring so the
/// serving layer can sit in the middle: train() returns the tuner,
/// queries() enumerates the (region, cap) test grid, and score() consumes
/// externally produced configurations — e.g. the results of
/// serve::TuningService::tune_batch — keeping core free of any serve
/// dependency. evaluate() is the in-process convenience that wires the
/// three together.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/measurement_db.hpp"
#include "core/metrics.hpp"
#include "core/pnp_tuner.hpp"

namespace pnp::core {

/// One train-on-A / test-on-B experiment over a shared MeasurementDb.
struct EvalSplit {
  std::string name;
  std::vector<int> train_regions;  ///< db region indices (disjoint from test)
  std::vector<int> test_regions;
  /// Caps visible during training; empty = all caps (the test grid then
  /// covers all caps too). Non-empty = unseen-cap protocol: the tuner
  /// trains with the scalar cap feature on these caps only and the test
  /// grid covers exactly the complement.
  std::vector<int> train_cap_indices;
};

/// §IV metrics over a set of (region, cap) cells.
struct SplitMetrics {
  int queries = 0;
  /// Geometric-mean speedup over the default configuration
  /// (t_default / t_chosen; the paper's headline per-figure metric).
  double geomean_speedup = 0.0;
  /// Geometric-mean oracle-normalized speedup t_best / t_chosen — 1.0
  /// means every choice matches the exhaustive-sweep optimum.
  double geomean_normalized = 0.0;
  /// Fraction of cells whose chosen config ties the oracle's time
  /// (relative tolerance 1e-9 — tie-aware, unlike label exact-match).
  double oracle_match = 0.0;
};

/// §IV metrics from raw per-query timings: `chosen` is each query's
/// achieved time, `dflt` the default config's, `best` the oracle's. Shared
/// by Evaluator::score, precision_delta, and the fleet evaluator
/// (fleet.hpp) so every split in the codebase scores identically.
SplitMetrics split_metrics_over(std::span<const double> chosen,
                                std::span<const double> dflt,
                                std::span<const double> best);

struct SplitResult {
  std::string name;
  int num_train_regions = 0;
  int num_test_regions = 0;
  std::vector<int> eval_cap_indices;    ///< caps the test grid covered
  SplitMetrics overall;
  std::vector<SplitMetrics> per_cap;    ///< parallel to eval_cap_indices
  PerAppGeomean per_app_speedup;        ///< per test application
};

struct EvaluatorOptions {
  PnpOptions pnp;  ///< base tuner options; per-split seed derived from it
};

class Evaluator {
 public:
  /// Both references must outlive the Evaluator.
  Evaluator(const sim::Simulator& sim, const MeasurementDb& db);

  /// Train a tuner for the split (power scenario). For unseen-cap splits
  /// (non-empty train_cap_indices) the scalar cap feature and profiled
  /// counters are forced on, per the paper's protocol. The split's name
  /// is folded into the weight-init seed so distinct splits do not share
  /// initializations. Throws pnp::Error on malformed splits.
  PnpTuner train(const EvalSplit& split, const EvaluatorOptions& opt) const;

  /// The test grid score() expects predictions for, in row-major
  /// (test_region, eval_cap) order.
  struct Query {
    int region = 0;
    int cap_index = 0;
  };
  std::vector<Query> queries(const EvalSplit& split) const;

  /// The cap indices the test grid covers, in ascending order: all caps
  /// for ordinary splits, the held-out complement for unseen-cap splits.
  /// queries() enumerates exactly test_regions × eval_caps.
  std::vector<int> eval_caps(const EvalSplit& split) const;

  /// Score externally produced configurations, one per queries() entry in
  /// order. Chosen configs are evaluated with noiseless sim.expected()
  /// (predictions may land off the 508-point grid — e.g. default-chunk
  /// with a non-default thread count — so the db alone cannot score them).
  SplitResult score(const EvalSplit& split,
                    std::span<const sim::OmpConfig> configs) const;

  /// train() + tuner predictions + score() in one call. Held-out caps are
  /// predicted through predict_power_at (scalar cap feature), in-space
  /// caps through predict_power.
  SplitResult evaluate(const EvalSplit& split,
                       const EvaluatorOptions& opt) const;

  /// Agreement between two serving tiers of the SAME trained model over
  /// the same test grid — the acceptance gate of the opt-in f32 inference
  /// tier (docs/SERVING.md): how often did the reduced-precision argmax
  /// flip the chosen configuration, and when it flipped, how much did the
  /// outcome (power drawn, execution time) actually move.
  struct PrecisionDelta {
    int queries = 0;
    int flips = 0;          ///< queries where the chosen configs differ
    double flip_rate = 0.0; ///< flips / queries (0 when queries == 0)
    /// Outcome deltas |candidate − reference| under noiseless
    /// sim.expected() at each query's cap, maxed over all queries (not
    /// just flipped ones; agreeing configs contribute 0).
    double max_abs_dpower_w = 0.0;
    double max_abs_dtime_s = 0.0;
    /// Headline metric of each tier over the grid, for side-by-side
    /// reporting (geometric-mean speedup over the default config).
    double geomean_speedup_reference = 0.0;
    double geomean_speedup_candidate = 0.0;
  };

  /// Compare `candidate` (e.g. f32-tier service output) against
  /// `reference` (f64), one config per queries() entry in order. Pure
  /// scoring: the Evaluator never sees the models, so any two prediction
  /// sources can be diffed. Throws pnp::Error on size mismatches.
  PrecisionDelta precision_delta(
      const EvalSplit& split, std::span<const sim::OmpConfig> reference,
      std::span<const sim::OmpConfig> candidate) const;

 private:
  void check_split(const EvalSplit& split) const;

  const sim::Simulator& sim_;
  const MeasurementDb& db_;
};

/// Build a split by application-name predicate: regions of applications
/// where `is_test` returns true become the test set, all others train.
EvalSplit make_app_split(const MeasurementDb& db, std::string name,
                         const std::function<bool(const std::string&)>& is_test);

/// Turn a split into its unseen-cap variant: training sees every cap
/// except `heldout_cap`; the test grid covers exactly `heldout_cap`.
EvalSplit with_heldout_cap(EvalSplit split, int heldout_cap, int num_caps);

}  // namespace pnp::core
