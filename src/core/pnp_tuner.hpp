#pragma once

/// \file pnp_tuner.hpp
/// The PnP auto-tuner (paper §III): flow-aware code graphs of OpenMP
/// regions modeled by an RGCN whose readout feeds a dense classifier that
/// predicts the best configuration — without executing the code.
///
/// Two scenarios (paper §III-D):
///  1. power-constrained: at a given package cap, predict the OpenMP
///     configuration (threads / schedule / chunk) minimizing time;
///  2. EDP: jointly predict a power cap and an OpenMP configuration
///     minimizing energy-delay product.
///
/// Variants:
///  - static (graphs only) vs dynamic (graphs + five normalized profiled
///    counters appended to the dense input, §IV-B);
///  - power-cap feature as one-hot (within-space caps) or as a normalized
///    scalar (generalizing to *unseen* caps, Figs. 4–5);
///  - transfer learning: import a GNN stage trained on another machine and
///    retrain only the dense layers (§IV-B, the 4.18× training-time win).

#include <memory>
#include <optional>
#include <vector>

#include "core/measurement_db.hpp"
#include "core/search_space.hpp"
#include "graph/builder.hpp"
#include "nn/rgcn_net.hpp"
#include "nn/trainer.hpp"

namespace pnp::serve {
class ModelState;
}

namespace pnp::core {

struct TunerArtifact;

struct PnpOptions {
  // Feature variants.
  bool use_counters = false;  ///< dynamic variant (5 profiled counters)
  bool cap_onehot = true;     ///< false → normalized scalar cap feature
  bool factored_heads = true; ///< false → one flat softmax over all configs
  /// Append hw::kNumMachineFeatures machine-conditioned inputs (normalized
  /// core count, bandwidth/compute balance, cap-range shape) to the dense
  /// block — what lets one artifact serve a whole hardware zoo
  /// (train_power_fleet, docs/HARDWARE.md).
  bool machine_features = false;

  // Model hyperparameters (paper Table II: 4 RGCN + 3 FC layers; widths
  // sized for single-core training of 60 LOOCV folds per figure).
  int emb_dim = 12;
  int rgcn_layers = 4;
  int hidden = 16;
  int dense_hidden1 = 32;
  int dense_hidden2 = 24;
  int num_bases = 0;  ///< >0 enables RGCN basis decomposition (ablation)

  // Optimization (Table II: AdamW(amsgrad) for scenario 1, Adam for EDP,
  // lr 1e-3, batch 16, cross-entropy).
  bool use_adamw = true;
  double lr = 1e-3;
  double weight_decay = 1e-2;
  nn::TrainerConfig trainer;

  /// Cap indices available during training (scenario 1); empty = all.
  /// Used by the unseen-power-constraint experiments (Figs. 4–5).
  std::vector<int> train_cap_indices;

  std::uint64_t seed = 42;
};

class PnpTuner {
 public:
  /// Builds flow graphs for every region in `db` (extract → PROGRAML).
  PnpTuner(const MeasurementDb& db, PnpOptions options);

  /// Which scenario the tuner was trained (or loaded) for.
  enum class Mode { None, Power, Edp };
  Mode mode() const { return mode_; }

  // --- Scenario 1: power-constrained tuning -------------------------------
  /// Train on the given region indices; labels are the db's best-by-time
  /// candidates per cap.
  nn::TrainReport train_power_scenario(const std::vector<int>& train_regions);

  /// Fleet variant of the power scenario (docs/HARDWARE.md): one model
  /// trained across several machines' measurement tables at once. `dbs`
  /// must start with this tuner's own db, share its regions (same
  /// RegionRef identity — one graph per region serves every machine), cap
  /// count, and search-space *shape*; machine_features must be enabled so
  /// the model can tell the machines apart. Counter statistics are refit
  /// over all dbs' training regions. The resulting artifact records every
  /// training machine's fingerprint and loads on machines outside the
  /// fleet whose space shape matches — the unseen-machine transfer split.
  nn::TrainReport train_power_fleet(
      const std::vector<const MeasurementDb*>& dbs,
      const std::vector<int>& train_regions);

  /// Fingerprints of the fleet's training machines (empty unless
  /// train_power_fleet ran or a fleet artifact was restored).
  const std::vector<std::uint64_t>& fleet_fingerprints() const {
    return fleet_fingerprints_;
  }

  /// Predict the best OpenMP configuration for `region` at `cap_index`.
  /// predict_power_at takes the cap in watts (unseen caps). Like
  /// predict_edp, both throw pnp::Error on an out-of-range region or cap.
  sim::OmpConfig predict_power(int region, int cap_index) const;
  sim::OmpConfig predict_power_at(int region, double cap_w) const;

  // --- Scenario 2: EDP tuning ---------------------------------------------
  nn::TrainReport train_edp_scenario(const std::vector<int>& train_regions);

  struct JointChoice {
    int cap_index = 0;
    sim::OmpConfig cfg;
  };
  JointChoice predict_edp(int region) const;

  // --- Continual retraining -------------------------------------------------
  /// Continue training the current model on the db's *current* labels
  /// without rebuilding it: vocabulary, graph tensors, counter statistics
  /// and — crucially — the network weights are all kept, so training
  /// warm-starts from wherever the model is (a freshly trained tuner or
  /// one restored from the serving artifact). This is the feedback loop's
  /// retrain step: after observations are replayed into the MeasurementDb,
  /// best-by-time / best-by-EDP labels are rederived from the grown table
  /// and the incumbent weights are fine-tuned toward them under `cfg`
  /// (which overrides the stored trainer config for this call only).
  /// Throws pnp::Error when no scenario has been trained or restored.
  nn::TrainReport fine_tune(const std::vector<int>& train_regions,
                            const nn::TrainerConfig& cfg);

  // --- Persistence ----------------------------------------------------------
  /// Write the full trained tuner — options, vocabulary, counter stats,
  /// mode, head layout, and all net weights — as a versioned artifact
  /// (docs/SERVING.md). Throws if no scenario has been trained.
  void save(const std::string& path) const;

  /// Reload a saved tuner against a measurement db with a compatible
  /// search space. Predictions are bit-identical to the tuner that was
  /// saved. Throws pnp::Error on malformed or incompatible artifacts.
  static PnpTuner load(const MeasurementDb& db, const std::string& path);

  /// In-memory artifact round-trip — save()/load() without the file.
  /// PnpTuner is move-only (it owns the net), so this is how callers stamp
  /// out several independent tuners from one training run (e.g. an f64
  /// reference and an f32 fast tier served side by side).
  TunerArtifact to_artifact() const;
  static PnpTuner from_artifact(const MeasurementDb& db,
                                const TunerArtifact& art);

  /// Preferred serving precision, persisted in the artifact (missing key →
  /// f64, so artifacts from before the f32 tier load unchanged). Serving
  /// layers may override it per service; training is always f64.
  nn::Precision serve_precision() const { return serve_precision_; }
  void set_serve_precision(nn::Precision p) { serve_precision_ = p; }

  /// The training vocabulary (valid after train_* or load()).
  const graph::Vocabulary& vocab() const { return vocab_; }

  // --- Transfer learning ----------------------------------------------------
  /// GNN-stage weights of the trained model.
  StateDict state() const;
  /// Load a (possibly cross-machine) state before training; when `freeze_gnn`
  /// is set only dense layers train and encode() results are cached.
  void import_gnn(const StateDict& sd, bool freeze_gnn);

  /// The trained network (valid after train_*).
  const nn::RgcnNet& net() const;

  /// The dense block's extra features for one query — cap (one-hot or
  /// normalized watts; exactly one of `cap_index` / `cap_w` for power
  /// models, neither for EDP), counters, machine features — laid out as
  /// the trained model expects them after the graph readout.
  std::vector<double> make_extra(int region, std::optional<int> cap_index,
                                 std::optional<double> cap_w) const;

  const graph::FlowGraph& region_graph(int region) const;
  const MeasurementDb& db() const { return db_; }

 private:
  // The serving layer's immutable model wrapper reuses the tuner's private
  // caches and decode helpers without widening the public API.
  friend class pnp::serve::ModelState;

  /// Throw pnp::Error unless `region` / `cap_index` indexes the db — the
  /// one bounds rule every predictor and serving layer shares.
  void check_region(int region) const;
  void check_cap(int cap_index) const;

  /// make_extra into a pre-sized span of exactly extra_feature_count(mode)
  /// doubles — the arena-backed serving path (no allocation, ever).
  void fill_extra_into(int region, std::optional<int> cap_index,
                       std::optional<double> cap_w, std::span<double> x) const;
  int extra_feature_count(Mode mode) const;
  /// Classifier head layout for a mode under this db's search space.
  std::vector<int> head_layout(Mode mode) const;
  /// Restore trained state from a loaded artifact (load() helper).
  void restore(const TunerArtifact& art);
  std::vector<int> power_labels(int region, int cap) const;
  /// power_labels against an arbitrary fleet db (labels are computed in
  /// that machine's own space — same class *shape*, different values).
  std::vector<int> power_labels_db(const MeasurementDb& db, int region,
                                   int cap) const;
  /// Power-scenario extra block for a fleet db: cap feature from the db's
  /// own space, counters from its table, `mfeats` its machine features.
  std::vector<double> fleet_extra(const MeasurementDb& db,
                                  std::span<const double> mfeats, int region,
                                  int cap) const;
  std::vector<int> edp_labels(int region) const;
  /// Constraint-aware decode straight from the classifier logits: factored
  /// heads go through core::search_* (per-head-argmax fast path, exact
  /// scan on constraint violation), the dense head through
  /// core::dense_argmax_valid. The tuner's predictions and the serving
  /// layer both decode here, so they cannot drift. On constraint-free
  /// spaces both decodes are bit-identical to the historic
  /// independent/flat argmax.
  /// Templated on the logits type so the f32 serving tier decodes with
  /// the same code (instantiated for double and float).
  template <typename T>
  sim::OmpConfig decode_power_logits(std::span<const T> logits,
                                     double cap_w) const;
  template <typename T>
  JointChoice decode_edp_logits(std::span<const T> logits) const;
  void build_model(Mode mode, const std::vector<int>& train_regions);
  nn::TrainReport run_training(const std::vector<nn::TrainSample>& samples);

  const MeasurementDb& db_;
  PnpOptions opt_;
  std::vector<graph::FlowGraph> graphs_;           // one per region
  graph::Vocabulary vocab_;                        // from training graphs
  std::vector<graph::GraphTensors> tensors_;       // rebuilt per training run
  std::unique_ptr<nn::RgcnNet> net_;
  Mode mode_ = Mode::None;
  nn::Precision serve_precision_ = nn::Precision::f64;

  // Counter normalization (fit on training regions).
  std::vector<double> counter_mean_, counter_std_;

  // Machine-conditioned features of db_'s machine (always computed; used
  // only when opt_.machine_features) and, after train_power_fleet or a
  // fleet restore, the training machines' fingerprints.
  std::vector<double> machine_feats_;
  std::vector<std::uint64_t> fleet_fingerprints_;

  // Pending transfer-learning import (applied at build_model time).
  std::optional<StateDict> pending_gnn_;
  bool pending_freeze_ = false;
};

}  // namespace pnp::core
