#pragma once

/// \file inference_engine.hpp
/// The serving half of the paper's train-once, predict-anywhere deployment
/// story (§IV-B): ModelState, an immutable trained model (tuner + net +
/// tensors) with const, thread-safe primitives — encode a region into a
/// caller-owned cache, run the dense heads in a caller-owned arena
/// Workspace, decode the predictions. serve::TuningService is the one
/// front end over them (single requests and caller-formed batches, a
/// lock-striped readout cache), and hot reload is "publish a new
/// ModelState snapshot".
///
/// See docs/SERVING.md for the end-to-end flow (pnp_tune CLI → artifact →
/// service → server).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/pnp_tuner.hpp"
#include "nn/arena.hpp"

namespace pnp::serve {

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
/// GnnCache / Workspace (the model itself is never mutated after
/// construction). This is the unit serve::TuningService snapshots for
/// zero-downtime hot reload.
class ModelState {
 public:
  /// Adopt a trained or loaded tuner. Throws pnp::Error if the tuner has
  /// no trained scenario. `precision` overrides the serving tier; nullopt
  /// uses the tuner's artifact-persisted preference (f64 by default).
  /// At Precision::f32 the dense weights are down-converted once here and
  /// encodings additionally carry an f32 readout.
  explicit ModelState(core::PnpTuner tuner,
                      std::optional<nn::Precision> precision = std::nullopt);

  const core::PnpTuner& tuner() const { return tuner_; }
  core::PnpTuner::Mode mode() const { return tuner_.mode(); }
  nn::Precision precision() const { return precision_; }
  int num_regions() const { return tuner_.db().num_regions(); }
  int num_caps() const { return tuner_.db().num_caps(); }
  /// True when the model uses the normalized scalar cap feature and can
  /// therefore serve arbitrary (unseen) caps in watts.
  bool scalar_cap() const;

  /// Arena-backed per-thread serving workspace: every per-request scratch
  /// tensor of run_heads — extra features, dense activations, logits —
  /// laid into ONE contiguous nn::Arena with lifetime-based byte reuse
  /// (nn/arena.hpp). bind() re-plans only when the model's
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
    /// Query cap in watts, stashed by run_heads for the decode-time
    /// constraint check (0 for EDP queries, whose cap is predicted).
    double cap_w_ = 0.0;
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

  /// The miss path of the serving cache: encode() into the caller's
  /// reused workspace `ws`, then copy out only the readouts. Leaves
  /// ws.g unset, since this model's graphs may be retired (hot reload)
  /// before the workspace's next encode.
  Encoding encode_readout(int region, nn::RgcnNet::GnnCache& ws) const;

  /// Dense pass over a cached encoding, leaving the head logits in `ws`
  /// for decode_*, at this model's tier; zero allocations at steady
  /// state. Exactly one of `cap_index` / `cap_w` is set for power queries
  /// (cap_w serves held-out caps on scalar-cap models); both empty for
  /// EDP.
  void run_heads(ReadoutView enc, int region, std::optional<int> cap_index,
                 std::optional<double> cap_w, Workspace& ws) const;

  /// Decode after a power-scenario run_heads: the tuner's own
  /// constraint-aware decode (PnpTuner::decode_power_logits) over the
  /// workspace's logits at the serving tier, against the stashed query
  /// cap. On unconstrained spaces this is the historic argmax decode
  /// bit-for-bit.
  sim::OmpConfig decode_power(const Workspace& ws) const;
  /// Decode after an EDP run_heads (PnpTuner::decode_edp_logits).
  core::PnpTuner::JointChoice decode_edp(const Workspace& ws) const;

 private:
  // One body, templated on the logits type: double at Precision::f64,
  // float at f32. run_heads and decode_* dispatch on precision_ once.
  template <typename T>
  void run_heads_t(ReadoutView enc, int region, std::optional<int> cap_index,
                   std::optional<double> cap_w, Workspace& ws) const;

  core::PnpTuner tuner_;
  nn::Precision precision_ = nn::Precision::f64;
  /// f32 tier only: the dense weights down-converted once at construction.
  nn::RgcnNet::DenseWeightsF32 dense_f32_;
};

}  // namespace pnp::serve
