#pragma once

/// \file rgcn_net.hpp
/// The PnP tuner's neural network (paper §III-D1, Table II):
///
///   token/kind embedding → 4 × RGCN (LeakyReLU) → mean-pool readout →
///   [⊕ extra features] → 3 × fully-connected (ReLU) → classification heads
///
/// RGCN layer (Schlichtkrull et al., ESWC'18):
///   h'_i = σ( W₀ h_i + Σ_r Σ_{j∈N_r(i)} (1/c_{i,r}) W_r h_j + b )
/// with c_{i,r} = |N_r(i)| and one relation per (flow type, direction).
/// Optional basis decomposition W_r = Σ_b a_{rb} V_b regularizes the
/// per-relation weights (ablation: PnpModelConfig in core).
///
/// The "extra features" slot carries the dynamic variant's inputs: the five
/// normalized PAPI-like counters and/or the normalized power cap
/// (paper §IV-B).
///
/// Backward passes are hand-derived and covered by finite-difference
/// gradient checks in tests/nn_gradcheck_test.cpp.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "graph/flow_graph.hpp"
#include "nn/matrix.hpp"
#include "nn/optim.hpp"

namespace pnp::nn {

struct RgcnNetConfig {
  int vocab_size = 0;  ///< required: graph::Vocabulary::size()
  int emb_dim = 16;
  int rgcn_layers = 4;     ///< Table II: RGCN (4)
  int hidden = 20;         ///< RGCN output width
  int dense_hidden1 = 32;  ///< Table II: FCNN (3) — two hidden + logits
  int dense_hidden2 = 24;
  std::vector<int> head_sizes;  ///< e.g. {6,3,7} threads/schedule/chunk
  int extra_features = 0;       ///< appended to the readout vector
  int num_relations = graph::kNumModelRelations;
  int num_bases = 0;  ///< 0 = full per-relation weights, >0 = basis decomp
  double leaky_slope = 0.01;  ///< must be ≥ 0
  std::uint64_t seed = 42;

  int total_logits() const {
    int s = 0;
    for (int h : head_sizes) s += h;
    return s;
  }
};

class RgcnNet {
 public:
  explicit RgcnNet(RgcnNetConfig cfg);

  /// Cached intermediate state of one GNN forward pass. Doubles as the
  /// forward workspace: encode_into() reuses every buffer in here, so
  /// repeated encodes of same-shaped graphs do zero heap allocation.
  struct GnnCache {
    const graph::GraphTensors* g = nullptr;
    /// H[0] = embedding output … H[L] = final node features (all N×d).
    /// Layer l's pre-activation Z_l is never stored: the fused layer kernel
    /// activates it in registers. With a non-negative slope H[l+1] > 0
    /// exactly where Z_l > 0, which is all the backward pass needs of Z_l.
    std::vector<Matrix> H;
    /// Per-layer, per-relation normalized aggregates in CSR-compressed
    /// form: row i of M[l][r] is Â_r·H for the i-th *active* target of
    /// relation r (see graph::RelationCsr::active_dst) — zero rows are
    /// never materialized.
    std::vector<std::vector<Matrix>> M;
    /// Basis mode only: the combined relation weights W_r = Σ_b a_rb·V_b
    /// of each layer, computed once at encode time and shared with the
    /// backward pass (valid for the weights as of that encode).
    std::vector<std::vector<Matrix>> relw;
    /// Mean-pooled readout (length = hidden).
    std::vector<double> readout;
    /// f32 inference tier: the readout down-converted once per encode.
    /// RgcnNet itself never touches this — serve::ModelState fills it when
    /// serving at Precision::f32 so cached encodings carry both tiers.
    std::vector<float> readout_f32;
  };

  /// Cached state of one dense-head forward pass.
  struct DenseCache {
    std::vector<double> u0;      ///< readout ⊕ extra
    std::vector<double> z1, a1;  ///< dense layer 1 pre/post activation
    std::vector<double> z2, a2;  ///< dense layer 2 pre/post activation
    std::vector<double> logits;  ///< concatenated head logits
  };

  /// Input gradients of one member's dense backward pass: phase A of the
  /// two-phase backward (see dense_backward()).
  struct DenseGrads {
    std::vector<double> dlogits;    ///< input: d(loss)/d(logits)
    std::vector<double> da2, da1;   ///< d(loss)/dz2, d(loss)/dz1
    std::vector<double> d_readout;  ///< d(loss)/d(readout)
  };

  /// Input gradients of one graph's GNN backward pass (phase A of the
  /// two-phase backward, see gnn_backward()); reused across calls so
  /// steady-state training allocates nothing.
  struct GnnGrads {
    std::vector<Matrix> dz;  ///< d(loss)/dZ_l of each layer (N×hidden)
    Matrix dh0;              ///< d(loss)/dH_0, the embedding output
    /// Scratch: d(loss)/dM_r of every relation, compressed rows stacked as
    /// graph::SourceIndex lays them out.
    Matrix dmc;
  };

  /// Run the GNN over one graph (no gradient effects).
  GnnCache encode(const graph::GraphTensors& g) const;

  /// As encode(), but reusing `cache`'s buffers (zero allocation when the
  /// shapes already match). Safe to call concurrently from several threads
  /// with distinct caches, provided the graph's CSR form has been built
  /// (graph::GraphTensors::finalize()).
  void encode_into(const graph::GraphTensors& g, GnnCache& cache) const;

  /// Grows `cache` (and `grads`, when set) to fit the largest of `graphs`
  /// buffer by buffer, so that encode_into() and gnn_input_grads() on any
  /// of them allocate nothing afterwards — so a trainer can size its
  /// per-sample buffers up front and its pool workers never allocate.
  void reserve(std::span<const graph::GraphTensors* const> graphs,
               GnnCache& cache, GnnGrads* grads) const;

  /// Run the dense classifier on a readout (+ extra features).
  DenseCache dense_forward(std::span<const double> readout,
                           std::span<const double> extra) const;

  /// As dense_forward(), but reusing `cache`'s buffers.
  void dense_forward_into(std::span<const double> readout,
                          std::span<const double> extra,
                          DenseCache& cache) const;

  /// As dense_forward_into(), but writing into caller-provided buffers of
  /// exactly the right sizes (u0 = dense_in(), z1/a1 = dense_hidden1,
  /// z2/a2 = dense_hidden2, logits = total_logits()). This is the shared
  /// implementation — dense_forward_into() delegates here, so the
  /// arena-backed serving path is bit-identical to the allocation path by
  /// construction.
  void dense_forward_spans(std::span<const double> readout,
                           std::span<const double> extra, std::span<double> u0,
                           std::span<double> z1, std::span<double> a1,
                           std::span<double> z2, std::span<double> a2,
                           std::span<double> logits) const;

  /// The dense stage's weights down-converted once (at load/publish) for
  /// the f32 inference tier.
  struct DenseWeightsF32 {
    MatrixF w1, b1, w2, b2, w3, b3;
  };
  DenseWeightsF32 dense_weights_f32() const;

  /// f32-tier dense forward over pre-converted weights: h1 = relu(u0·w1+b1),
  /// h2 = relu(h1·w2+b2), logits = h2·w3+b3. `u0` is the f32 readout ⊕
  /// extra features, filled by the caller; h1/h2 sizes are dense_hidden1/2.
  /// ReLU runs in place so the f32 tier needs no separate pre-activation
  /// buffers (inference only — no backward pass).
  static void dense_forward_f32(const DenseWeightsF32& w,
                                std::span<const float> u0, std::span<float> h1,
                                std::span<float> h2, std::span<float> logits);

  /// Convenience: encode + dense in one call.
  DenseCache forward(const graph::GraphTensors& g,
                     std::span<const double> extra) const;

  // Backward passes run in two phases, so that a trainer can spread one
  // mini-batch over several threads and still add every gradient element
  // up in the same order as a one-thread loop over the batch:
  //
  //  A. per sample, input gradients only (dense_input_grads,
  //     gnn_input_grads) — const, nothing is written to Param::g;
  //  B. per gradient tensor, the parameter gradients (dense_param_grads,
  //     gnn_param_grads) — each call adds to its own tensors only, so
  //     distinct layers / task indices may run concurrently, and calling
  //     one of them for the samples in batch order reproduces the adds of
  //     dense_backward()/gnn_backward() over that batch exactly.

  /// Phase A of the dense backward: fills g.da2, g.da1 and g.d_readout
  /// from g.dlogits and the forward cache.
  void dense_input_grads(const DenseCache& cache, DenseGrads& g) const;

  /// Phase B of the dense backward: accumulates dense layer `layer`'s
  /// weight and bias gradients (layer in [0, kDenseLayers), 0 = first).
  static constexpr int kDenseLayers = 3;
  void dense_param_grads(int layer, const DenseCache& cache,
                         const DenseGrads& g);

  /// Phase A of the GNN backward for d(loss)/d(readout). The cache must
  /// come from encode_into() with the current weights. Two passes per
  /// layer: rgcn_layer_backward over the row plan, then rgcn_gather over
  /// the graph's source index, which is built on first use unless
  /// graph::GraphTensors::finalize_backward() built it already.
  void gnn_input_grads(const GnnCache& cache,
                       std::span<const double> d_readout, GnnGrads& g) const;

  /// Phase B work items of the GNN backward: one per layer bias, per layer
  /// self weight, per (layer, relation) weight — or, with num_bases > 0,
  /// one per layer for its coefficients and bases — and one per embedding
  /// table. Largest tasks come first.
  int num_gnn_grad_tasks() const;
  /// Accumulates the gradient tensors of phase-B task `task`. `scratch` is
  /// a caller-owned matrix (basis mode's per-relation M_rᵀ·dz).
  void gnn_param_grads(int task, const GnnCache& cache, const GnnGrads& g,
                       Matrix& scratch);

  /// The parameters whose gradients phase-B task `task` accumulates, as
  /// indices into params(): GNN tasks are [0, num_gnn_grad_tasks()), dense
  /// layer l is task num_gnn_grad_tasks() + l. Every parameter belongs to
  /// exactly one task, and no task reads another task's weights, so a task
  /// may apply the optimizer update to its own parameters as soon as it
  /// has summed their gradients over the batch.
  std::span<const int> grad_task_params(int task) const;

  /// One-sample backward of the dense stage: both phases for
  /// d(loss)/d(logits), accumulating into the parameters' gradients;
  /// returns d(loss)/d(readout) for the caller to feed into gnn_backward.
  std::vector<double> dense_backward(const DenseCache& cache,
                                     std::span<const double> dlogits);

  /// One-sample backward of the GNN stage (both phases) for
  /// d(loss)/d(readout); a no-op while the GNN stage is frozen.
  void gnn_backward(const GnnCache& cache, std::span<const double> d_readout);

  /// View of one head's logits inside a DenseCache.
  std::span<const double> head_logits(const DenseCache& cache, int head) const;

  /// Offset of head `head`'s logits inside the concatenated logits vector
  /// (for span/arena-backed callers that slice logits themselves).
  int head_offset(int head) const;

  /// Dense-stage input width: hidden + extra_features.
  int dense_in() const { return cfg_.hidden + cfg_.extra_features; }

  const RgcnNetConfig& config() const { return cfg_; }

  /// All parameters (stable addresses for the optimizer).
  std::vector<Param*> params();

  /// Number of scalar weights (trainable only, or all).
  std::size_t num_weights(bool trainable_only = false) const;

  void zero_grad();

  /// Freeze/unfreeze the GNN stage (embedding + RGCN layers) — the paper's
  /// transfer-learning step retrains only the dense layers (§IV-B).
  void set_gnn_frozen(bool frozen);
  bool gnn_frozen() const { return gnn_frozen_; }

  /// Persistence. `load_gnn_only` restores just the embedding + RGCN
  /// weights (cross-machine transfer where the dense head is re-learned).
  StateDict state_dict() const;
  void load_state_dict(const StateDict& sd, bool load_gnn_only = false);

 private:
  // Parameter handles (indices into params_).
  struct LayerParams {
    int w0 = -1;
    int bias = -1;
    std::vector<int> wr;     // full mode: one per relation
    std::vector<int> basis;  // basis mode: num_bases matrices
    int coef = -1;           // basis mode: (relations × bases)
  };

  Param& P(int idx) { return *params_[static_cast<std::size_t>(idx)]; }
  const Param& P(int idx) const { return *params_[static_cast<std::size_t>(idx)]; }
  int add_param(const std::string& name, Matrix m, bool gnn_stage);

  /// Effective relation weight: a reference to the parameter itself in
  /// full mode, or `scratch` filled with the basis combination.
  const Matrix& relation_weight(const LayerParams& lp, int relation,
                                Matrix& scratch) const;

  RgcnNetConfig cfg_;
  std::vector<std::unique_ptr<Param>> params_;
  std::vector<bool> is_gnn_param_;
  bool gnn_frozen_ = false;

  int emb_token_ = -1;
  int emb_kind_ = -1;
  std::vector<LayerParams> layers_;
  int w1_ = -1, b1_ = -1, w2_ = -1, b2_ = -1, w3_ = -1, b3_ = -1;
  std::vector<int> head_offset_;
  std::vector<std::vector<int>> task_params_;  ///< see grad_task_params()

  /// Scratch of the one-sample gnn_backward().
  GnnGrads gnn_grads_;
  Matrix gnn_scratch_;
};

}  // namespace pnp::nn
