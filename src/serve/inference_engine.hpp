#pragma once

/// \file inference_engine.hpp
/// The serving half of the paper's train-once, predict-anywhere deployment
/// story (§IV-B), in two layers:
///
///  - ModelState: an immutable trained model (tuner + net + tensors) with
///    const, thread-safe primitives — encode a region into a caller-owned
///    cache, run the dense heads with caller-owned scratch, decode the
///    predictions. Every serving front end (the single-threaded batched
///    InferenceEngine below, the concurrent serve::TuningService) is a
///    cache/scheduling policy over these primitives, and hot reload is
///    "publish a new ModelState snapshot".
///
///  - InferenceEngine: batched single-caller serving. Each distinct region
///    graph is encoded through the GNN at most once and its readout cached
///    across batches; per-query buffers are reused so steady-state serving
///    does zero heap allocation; under PNP_PARALLEL the encode and dense
///    phases run query-parallel with per-thread scratch, bit-identical to
///    serial.
///
/// See docs/SERVING.md for the end-to-end flow (pnp_tune CLI → artifact →
/// engine → service).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pnp_tuner.hpp"
#include "nn/arena.hpp"

namespace pnp::serve {

/// One scenario-1 query: the best OpenMP configuration for `region` under
/// power cap `cap_index`.
struct PowerQuery {
  int region = 0;
  int cap_index = 0;
};

/// What a serving cache keeps for one encoded region: the mean-pooled
/// RGCN readout (paper §III-D), plus its f32 copy when the model serves at
/// Precision::f32 (empty at f64). This is everything run_heads reads —
/// about 200 B per region, where the full nn::RgcnNet::GnnCache an encode
/// runs in (every layer's H, Z and per-relation aggregates, kept for
/// backprop) is about 390 KB.
struct Encoding {
  std::vector<double> readout;
  std::vector<float> readout_f32;
};

/// Read-only view of one region's readouts — the input of run_heads.
/// Converts implicitly from a cached Encoding and from a GnnCache that
/// ModelState::encode filled, so either can be served directly.
struct ReadoutView {
  std::span<const double> readout;
  std::span<const float> readout_f32;

  // Implicit on purpose: callers pass either source straight through.
  ReadoutView(const Encoding& e)
      : readout(e.readout), readout_f32(e.readout_f32) {}
  ReadoutView(const nn::RgcnNet::GnnCache& c)
      : readout(c.readout), readout_f32(c.readout_f32) {}
};

/// An immutable trained model. All methods are const and safe to call
/// concurrently from many threads provided each thread passes its own
/// GnnCache / Scratch (the model itself is never mutated after
/// construction). This is the unit serve::TuningService snapshots for
/// zero-downtime hot reload.
class ModelState {
 public:
  /// Adopt a trained or loaded tuner. Throws pnp::Error if the tuner has
  /// no trained scenario. `precision` overrides the serving tier; nullopt
  /// uses the tuner's artifact-persisted preference (f64 by default).
  /// At Precision::f32 the dense weights are down-converted once here and
  /// encodings additionally carry an f32 readout. `beam_width` bounds the
  /// constraint-fallback beam search (<= 0 = full width, exact); it only
  /// matters when the per-head argmax tuple violates a constraint —
  /// unconstrained spaces never run the beam.
  explicit ModelState(core::PnpTuner tuner,
                      std::optional<nn::Precision> precision = std::nullopt,
                      int beam_width = 0);

  const core::PnpTuner& tuner() const { return tuner_; }
  core::PnpTuner::Mode mode() const { return tuner_.mode(); }
  nn::Precision precision() const { return precision_; }
  int num_regions() const { return tuner_.db().num_regions(); }
  int num_caps() const { return tuner_.db().num_caps(); }
  /// True when the model uses the normalized scalar cap feature and can
  /// therefore serve arbitrary (unseen) caps in watts.
  bool scalar_cap() const;

  /// Per-query dense-phase scratch; reused across calls so steady-state
  /// serving allocates nothing. This is the allocation-path oracle the
  /// arena-backed Workspace below is tested against.
  struct Scratch {
    nn::RgcnNet::DenseCache dc;
    std::vector<double> extra;
    std::vector<int> preds;
    /// f32 tier only: u0 = readout_f32 ⊕ extra, in-place-relu hiddens,
    /// logits.
    std::vector<float> u0f, h1f, h2f, logitsf;
    /// Query cap in watts, stashed by run_heads for the decode-time
    /// constraint check (0 for EDP queries, which carry the cap in the
    /// prediction itself).
    double cap_w = 0.0;
  };

  /// Arena-backed per-thread serving workspace: every per-request scratch
  /// tensor of run_heads — extra features, dense activations, logits,
  /// predictions — laid into ONE contiguous nn::Arena with lifetime-based
  /// byte reuse (nn/arena.hpp). bind() re-plans only when the model's
  /// dense shape or precision changes (first use and hot reloads);
  /// steady-state run_heads/decode touch one hot cache-resident block and
  /// never allocate.
  class Workspace {
   public:
    /// Plan (or re-plan) the arena for `m`; cheap no-op when already
    /// bound to the same shape/precision key.
    void bind(const ModelState& m);
    /// Total planned arena bytes (0 before the first bind).
    std::size_t arena_bytes() const { return arena_.bytes(); }
    const nn::ArenaPlan& plan() const { return arena_.plan(); }

   private:
    friend class ModelState;
    std::uint64_t key_ = 0;  ///< shape/precision fingerprint; 0 = unbound
    double cap_w_ = 0.0;     ///< query cap stash (see Scratch::cap_w)
    nn::Arena arena_;
  };

  // --- Validation (all throw pnp::Error) ---------------------------------
  void validate_region(int region) const;
  void validate_cap(int cap_index) const;
  /// Require the trained scenario to be `m`; `what` names the request in
  /// the error message.
  void require_mode(core::PnpTuner::Mode m, const char* what) const;
  void require_scalar_cap() const;

  // --- Serving primitives ------------------------------------------------
  /// GNN-encode one region into `out`, reusing its buffers (zero
  /// allocation when the shapes already match). At Precision::f32 this
  /// also fills out.readout_f32; at f64 it empties it.
  void encode(int region, nn::RgcnNet::GnnCache& out) const;

  /// The miss path of both serving caches: encode() into the caller's
  /// reused workspace `ws`, then copy out only the readouts. Leaves
  /// ws.g unset, since this model's graphs may be retired (hot reload)
  /// before the workspace's next encode.
  Encoding encode_readout(int region, nn::RgcnNet::GnnCache& ws) const;

  /// Dense pass + argmax over a cached encoding; fills s.preds. Exactly
  /// one of `cap_index` / `cap_w` is set for power queries (cap_w serves
  /// held-out caps on scalar-cap models); both empty for EDP.
  void run_heads(ReadoutView enc, int region, std::optional<int> cap_index,
                 std::optional<double> cap_w, Scratch& s) const;

  /// Arena-backed run_heads: identical arithmetic (the dense phase runs
  /// through the same span implementation), zero allocations at steady
  /// state. Results are bit-identical to the Scratch overload.
  void run_heads(ReadoutView enc, int region, std::optional<int> cap_index,
                 std::optional<double> cap_w, Workspace& ws) const;

  /// Decode after a power-scenario run_heads: the argmax tuple in preds is
  /// constraint-checked against the stashed query cap; a violation falls
  /// back to beam search over the logits (both live in the scratch /
  /// workspace, at the serving tier). On unconstrained spaces this is the
  /// historic argmax decode bit-for-bit.
  sim::OmpConfig decode_power(const Scratch& s) const;
  sim::OmpConfig decode_power(const Workspace& ws) const;
  /// Decode after an EDP run_heads (same fast-path/beam protocol).
  core::PnpTuner::JointChoice decode_edp(const Scratch& s) const;
  core::PnpTuner::JointChoice decode_edp(const Workspace& ws) const;

  /// Beam width of the constraint-fallback search (0 = full width).
  int beam_width() const { return beam_width_; }

 private:
  template <typename T>
  sim::OmpConfig decode_power_logits_t(std::span<const int> preds,
                                       std::span<const T> logits,
                                       double cap_w) const;
  template <typename T>
  core::PnpTuner::JointChoice decode_edp_logits_t(
      std::span<const int> preds, std::span<const T> logits) const;
  std::span<const int> preds_of(const Workspace& ws) const;

  core::PnpTuner tuner_;
  nn::Precision precision_ = nn::Precision::f64;
  int beam_width_ = 0;
  /// f32 tier only: the dense weights down-converted once at construction.
  nn::RgcnNet::DenseWeightsF32 dense_f32_;
};

struct EngineOptions {
  /// Serving tier override; nullopt uses the artifact's persisted
  /// preference (f64 for artifacts predating the f32 tier).
  std::optional<nn::Precision> precision;
  /// Arena-backed per-query scratch (the fast path). false keeps the
  /// allocation-path oracle — kept selectable so tests can compare both.
  bool use_arena = true;
  /// Constraint-fallback beam width (<= 0 = full width). Only consulted
  /// when the argmax tuple is pruned by the space's constraint layer.
  int beam_width = 0;
};

class InferenceEngine {
 public:
  /// Serve the artifact at `path` against `db` (the fresh-process entry:
  /// load + validate + ready to predict). Throws pnp::Error on malformed
  /// or incompatible artifacts.
  InferenceEngine(const core::MeasurementDb& db, const std::string& path,
                  EngineOptions options = {});

  /// Adopt an already-trained or already-loaded tuner.
  explicit InferenceEngine(core::PnpTuner tuner, EngineOptions options = {});

  const core::PnpTuner& tuner() const { return state_.tuner(); }
  /// The immutable model this engine serves.
  const ModelState& state() const { return state_; }
  nn::Precision precision() const { return state_.precision(); }

  /// Single-query predictions; bit-identical to PnpTuner::predict_* but
  /// allocation-free in steady state.
  sim::OmpConfig predict_power(int region, int cap_index);
  core::PnpTuner::JointChoice predict_edp(int region);

  /// Batched predictions, one result per query in query order.
  /// Bit-identical to calling the single-query APIs one by one.
  std::vector<sim::OmpConfig> predict_power_batch(
      std::span<const PowerQuery> queries);
  std::vector<core::PnpTuner::JointChoice> predict_edp_batch(
      std::span<const int> regions);

  /// Batched scenario-1 predictions at an arbitrary package cap in watts —
  /// including caps outside the training search space (paper Figs. 4–5).
  /// Requires a scalar-cap model (cap_onehot == false); bit-identical to
  /// PnpTuner::predict_power_at per region. Used by the cross-suite
  /// generalization harness to serve held-out-cap grids over generated
  /// corpora.
  std::vector<sim::OmpConfig> predict_power_at_batch(
      std::span<const int> regions, double cap_w);

  /// Number of region encodings currently cached.
  std::size_t cached_encodings() const { return enc_.size(); }

 private:
  /// Per-thread serving state (index 0 serves the serial path): the
  /// allocation-path Scratch and the arena-backed Workspace, of which
  /// EngineOptions picks one per query, plus the GNN workspace this
  /// thread's cache misses encode in.
  struct PerThread {
    ModelState::Scratch scratch;
    ModelState::Workspace ws;
    nn::RgcnNet::GnnCache gnn;
  };

  /// Encode any not-yet-cached regions of the batch (parallel when built
  /// with PNP_PARALLEL) and cache their readouts; a region is inserted
  /// only once its encode succeeded.
  void ensure_encoded(std::span<const int> regions);
  /// Run `fn(i, per_thread)` for every i in [0, n) — query-parallel with
  /// per-thread scratch under PNP_PARALLEL, serial otherwise. Queries are
  /// independent and write disjoint outputs, so the parallel path is
  /// bit-identical to the serial one.
  template <class Fn>
  void for_each_query(std::size_t n, Fn&& fn);
  /// run_heads through the arena or allocation path per opt_.use_arena,
  /// then decode_power.
  sim::OmpConfig serve_power(ReadoutView enc, int region,
                             std::optional<int> cap_index,
                             std::optional<double> cap_w, PerThread& t);

  ModelState state_;
  EngineOptions opt_;
  std::unordered_map<int, Encoding> enc_;
  std::vector<PerThread> scratch_;
  std::vector<int> pending_;      ///< ensure_encoded work list (reused)
  std::vector<Encoding> fresh_;   ///< readouts of pending_, pre-insert
  std::vector<int> regions_buf_;  ///< per-batch region-id staging (reused)
};

}  // namespace pnp::serve
