#include "nn/rgcn_net.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pnp::nn {

namespace {

inline double leaky_grad(double x, double slope) { return x > 0.0 ? 1.0 : slope; }
inline double relu(double x) { return x > 0.0 ? x : 0.0; }
inline double relu_grad(double x) { return x > 0.0 ? 1.0 : 0.0; }

}  // namespace

int RgcnNet::add_param(const std::string& name, Matrix m, bool gnn_stage) {
  params_.push_back(std::make_unique<Param>(name, std::move(m)));
  is_gnn_param_.push_back(gnn_stage);
  return static_cast<int>(params_.size()) - 1;
}

RgcnNet::RgcnNet(RgcnNetConfig cfg) : cfg_(std::move(cfg)) {
  PNP_CHECK_MSG(cfg_.vocab_size > 0, "vocab_size must be set");
  PNP_CHECK_MSG(!cfg_.head_sizes.empty(), "head_sizes must be set");
  PNP_CHECK(cfg_.rgcn_layers >= 1 && cfg_.num_relations >= 1);
  PNP_CHECK_MSG(cfg_.leaky_slope >= 0.0, "leaky_slope must be non-negative");

  Rng rng(cfg_.seed);

  emb_token_ = add_param("emb.token",
                         Matrix::xavier(cfg_.vocab_size, cfg_.emb_dim, rng),
                         /*gnn_stage=*/true);
  emb_kind_ = add_param("emb.kind",
                        Matrix::xavier(graph::kNumNodeKinds, cfg_.emb_dim, rng),
                        true);

  for (int l = 0; l < cfg_.rgcn_layers; ++l) {
    const int d_in = (l == 0) ? cfg_.emb_dim : cfg_.hidden;
    const int d_out = cfg_.hidden;
    LayerParams lp;
    const std::string prefix = "rgcn." + std::to_string(l) + ".";
    lp.w0 = add_param(prefix + "w0", Matrix::xavier(d_in, d_out, rng), true);
    lp.bias = add_param(prefix + "bias", Matrix::zeros(1, d_out), true);
    if (cfg_.num_bases > 0) {
      for (int b = 0; b < cfg_.num_bases; ++b)
        lp.basis.push_back(add_param(prefix + "basis." + std::to_string(b),
                                     Matrix::xavier(d_in, d_out, rng), true));
      lp.coef = add_param(prefix + "coef",
                          Matrix::xavier(cfg_.num_relations, cfg_.num_bases, rng),
                          true);
    } else {
      for (int r = 0; r < cfg_.num_relations; ++r)
        lp.wr.push_back(add_param(prefix + "wr." + std::to_string(r),
                                  Matrix::xavier(d_in, d_out, rng), true));
    }
    layers_.push_back(lp);
  }

  const int dense_in = cfg_.hidden + cfg_.extra_features;
  w1_ = add_param("dense.w1", Matrix::xavier(dense_in, cfg_.dense_hidden1, rng),
                  false);
  b1_ = add_param("dense.b1", Matrix::zeros(1, cfg_.dense_hidden1), false);
  w2_ = add_param("dense.w2",
                  Matrix::xavier(cfg_.dense_hidden1, cfg_.dense_hidden2, rng),
                  false);
  b2_ = add_param("dense.b2", Matrix::zeros(1, cfg_.dense_hidden2), false);
  w3_ = add_param("dense.w3",
                  Matrix::xavier(cfg_.dense_hidden2, cfg_.total_logits(), rng),
                  false);
  b3_ = add_param("dense.b3", Matrix::zeros(1, cfg_.total_logits()), false);

  int off = 0;
  for (int h : cfg_.head_sizes) {
    head_offset_.push_back(off);
    off += h;
  }

  // Phase-B task ownership, in gnn_param_grads' task order: self weights,
  // relation weights (or per layer its coefficients and bases), biases,
  // the two tables; then the dense layers.
  for (const LayerParams& lp : layers_) task_params_.push_back({lp.w0});
  for (const LayerParams& lp : layers_) {
    if (cfg_.num_bases > 0) {
      std::vector<int> owned{lp.coef};
      owned.insert(owned.end(), lp.basis.begin(), lp.basis.end());
      task_params_.push_back(std::move(owned));
    } else {
      for (int w : lp.wr) task_params_.push_back({w});
    }
  }
  for (const LayerParams& lp : layers_) task_params_.push_back({lp.bias});
  task_params_.push_back({emb_token_});
  task_params_.push_back({emb_kind_});
  task_params_.push_back({w1_, b1_});
  task_params_.push_back({w2_, b2_});
  task_params_.push_back({w3_, b3_});
  PNP_CHECK(static_cast<int>(task_params_.size()) ==
            num_gnn_grad_tasks() + kDenseLayers);
}

const Matrix& RgcnNet::relation_weight(const LayerParams& lp, int relation,
                                       Matrix& scratch) const {
  if (cfg_.num_bases == 0)
    return P(lp.wr[static_cast<std::size_t>(relation)]).w;
  const Matrix& coef = P(lp.coef).w;
  scratch.resize(P(lp.basis[0]).w.rows(), P(lp.basis[0]).w.cols());
  scratch.zero();
  for (int b = 0; b < cfg_.num_bases; ++b)
    scratch.add_scaled(P(lp.basis[static_cast<std::size_t>(b)]).w,
                       coef(relation, b));
  return scratch;
}

RgcnNet::GnnCache RgcnNet::encode(const graph::GraphTensors& g) const {
  GnnCache cache;
  encode_into(g, cache);
  return cache;
}

void RgcnNet::encode_into(const graph::GraphTensors& g,
                          GnnCache& cache) const {
  PNP_CHECK_MSG(g.num_nodes > 0, "cannot encode an empty graph");
  const int n = g.num_nodes;
  const int L = cfg_.rgcn_layers;
  const auto nrel = static_cast<std::size_t>(cfg_.num_relations);
  cache.g = &g;
  cache.H.resize(static_cast<std::size_t>(L) + 1);
  cache.M.resize(static_cast<std::size_t>(L));
  if (cfg_.num_bases > 0) cache.relw.resize(static_cast<std::size_t>(L));

  // Embedding: H0[i] = emb_token[token_i] + emb_kind[kind_i].
  Matrix& h0 = cache.H[0];
  h0.resize(n, cfg_.emb_dim);
  const Matrix& et = P(emb_token_).w;
  const Matrix& ek = P(emb_kind_).w;
  for (int i = 0; i < n; ++i) {
    const int tok = g.token[static_cast<std::size_t>(i)];
    const int kind = g.kind[static_cast<std::size_t>(i)];
    PNP_CHECK(tok >= 0 && tok < cfg_.vocab_size);
    const double* trow = et.row(tok);
    const double* krow = ek.row(kind);
    double* out = h0.row(i);
    for (int d = 0; d < cfg_.emb_dim; ++d) out[d] = trow[d] + krow[d];
  }

  const graph::RowPlan& plan = g.row_plan();
  std::array<const Matrix*, graph::kNumModelRelations> m_ptr{}, w_ptr{};
  for (int l = 0; l < L; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const Matrix& h = cache.H[li];
    const LayerParams& lp = layers_[li];
    const int d_in = h.cols();

    auto& ms = cache.M[li];
    ms.resize(nrel);
    if (cfg_.num_bases > 0) cache.relw[li].resize(nrel);

    for (int r = 0; r < cfg_.num_relations; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const graph::RelationCsr& csr = g.csr(r);
      const int active = csr.num_active();

      // CSR aggregation, compressed to active targets:
      // M_r[i] = (1/c_{t,r}) Σ_{s∈N_r(t)} h[s] for t = active_dst[i].
      Matrix& mc = ms[ri];
      mc.resize(active, d_in);
      for (int idx = 0; idx < active; ++idx) {
        const auto dst =
            static_cast<std::size_t>(csr.active_dst[static_cast<std::size_t>(idx)]);
        const int b0 = csr.row_offset[dst];
        const int b1 = csr.row_offset[dst + 1];
        const double inv = csr.inv_deg[static_cast<std::size_t>(idx)];
        double* out = mc.row(idx);
        const double* hs = h.row(csr.src[static_cast<std::size_t>(b0)]);
        for (int d = 0; d < d_in; ++d) out[d] = inv * hs[d];
        for (int e = b0 + 1; e < b1; ++e) {
          hs = h.row(csr.src[static_cast<std::size_t>(e)]);
          for (int d = 0; d < d_in; ++d) out[d] += inv * hs[d];
        }
      }

      // Basis-combined weights land in the cache so the backward pass
      // reuses them instead of recombining.
      m_ptr[ri] = &mc;
      w_ptr[ri] = cfg_.num_bases > 0
                      ? &relation_weight(lp, r, cache.relw[li][ri])
                      : &P(lp.wr[ri]).w;
    }

    // The whole layer in one pass over its output, tile by tile of the
    // row plan: Z = H·W₀ + b plus every active relation's M_r·W_r, then
    // the activation, with each tile's rows held in registers throughout.
    Matrix& z = cache.H[li + 1];
    z.resize(n, cfg_.hidden);
    rgcn_layer(h, P(lp.w0).w, P(lp.bias).w.flat(),
               std::span(m_ptr).first(nrel), std::span(w_ptr).first(nrel),
               plan, cfg_.leaky_slope, z);
  }

  // Mean-pool readout over all nodes.
  const Matrix& hl = cache.H[static_cast<std::size_t>(L)];
  cache.readout.assign(static_cast<std::size_t>(cfg_.hidden), 0.0);
  for (int i = 0; i < n; ++i) {
    const double* hi = hl.row(i);
    for (int d = 0; d < cfg_.hidden; ++d)
      cache.readout[static_cast<std::size_t>(d)] += hi[d];
  }
  for (double& v : cache.readout) v /= static_cast<double>(n);
}

void RgcnNet::reserve(std::span<const graph::GraphTensors* const> graphs,
                      GnnCache& cache, GnnGrads* grads) const {
  int max_nodes = 0, max_stacked = 0;
  std::vector<int> max_active(static_cast<std::size_t>(cfg_.num_relations), 0);
  for (const graph::GraphTensors* g : graphs) {
    max_nodes = std::max(max_nodes, g->num_nodes);
    for (int r = 0; r < cfg_.num_relations; ++r) {
      int& m = max_active[static_cast<std::size_t>(r)];
      m = std::max(m, g->csr(r).num_active());
    }
    // The backward stacks every model relation's compressed rows.
    int stacked = 0;
    for (int r = 0; r < graph::kNumModelRelations; ++r)
      stacked += g->csr(r).num_active();
    max_stacked = std::max(max_stacked, stacked);
  }
  // Matrix::resize never gives capacity back, so sizing every buffer to
  // its largest shape once is enough.
  const auto L = static_cast<std::size_t>(cfg_.rgcn_layers);
  const auto nrel = static_cast<std::size_t>(cfg_.num_relations);
  cache.H.resize(L + 1);
  cache.M.resize(L);
  if (cfg_.num_bases > 0) cache.relw.resize(L);
  cache.H[0].resize(max_nodes, cfg_.emb_dim);
  for (std::size_t l = 0; l < L; ++l) {
    const int d_in = l == 0 ? cfg_.emb_dim : cfg_.hidden;
    cache.H[l + 1].resize(max_nodes, cfg_.hidden);
    cache.M[l].resize(nrel);
    for (std::size_t r = 0; r < nrel; ++r)
      cache.M[l][r].resize(max_active[r], d_in);
    if (cfg_.num_bases > 0) {
      cache.relw[l].resize(nrel);
      for (Matrix& w : cache.relw[l]) w.resize(d_in, cfg_.hidden);
    }
  }
  cache.readout.reserve(static_cast<std::size_t>(cfg_.hidden));
  if (grads == nullptr) return;
  grads->dz.resize(L);
  for (Matrix& dz : grads->dz) dz.resize(max_nodes, cfg_.hidden);
  grads->dh0.resize(max_nodes, cfg_.emb_dim);
  grads->dmc.resize(max_stacked, std::max(cfg_.emb_dim, cfg_.hidden));
}

RgcnNet::DenseCache RgcnNet::dense_forward(std::span<const double> readout,
                                           std::span<const double> extra) const {
  DenseCache c;
  dense_forward_into(readout, extra, c);
  return c;
}

void RgcnNet::dense_forward_into(std::span<const double> readout,
                                 std::span<const double> extra,
                                 DenseCache& c) const {
  c.u0.resize(readout.size() + extra.size());
  c.z1.resize(static_cast<std::size_t>(cfg_.dense_hidden1));
  c.a1.resize(static_cast<std::size_t>(cfg_.dense_hidden1));
  c.z2.resize(static_cast<std::size_t>(cfg_.dense_hidden2));
  c.a2.resize(static_cast<std::size_t>(cfg_.dense_hidden2));
  c.logits.resize(static_cast<std::size_t>(cfg_.total_logits()));
  dense_forward_spans(readout, extra, c.u0, c.z1, c.a1, c.z2, c.a2, c.logits);
}

void RgcnNet::dense_forward_spans(std::span<const double> readout,
                                  std::span<const double> extra,
                                  std::span<double> u0, std::span<double> z1,
                                  std::span<double> a1, std::span<double> z2,
                                  std::span<double> a2,
                                  std::span<double> logits) const {
  PNP_CHECK(static_cast<int>(readout.size()) == cfg_.hidden);
  PNP_CHECK_MSG(static_cast<int>(extra.size()) == cfg_.extra_features,
                "expected " << cfg_.extra_features << " extra features, got "
                            << extra.size());
  PNP_CHECK(u0.size() == readout.size() + extra.size());
  std::copy(readout.begin(), readout.end(), u0.begin());
  std::copy(extra.begin(), extra.end(), u0.begin() + readout.size());

  auto linear = [&](std::span<const double> in, int w_idx, int b_idx,
                    std::span<double> out) {
    const Matrix& w = P(w_idx).w;
    const Matrix& b = P(b_idx).w;
    PNP_CHECK(static_cast<int>(in.size()) == w.rows());
    PNP_CHECK(static_cast<int>(out.size()) == w.cols());
    for (int j = 0; j < w.cols(); ++j) out[static_cast<std::size_t>(j)] = b(0, j);
    for (int i = 0; i < w.rows(); ++i) {
      const double vi = in[static_cast<std::size_t>(i)];
      if (vi == 0.0) continue;
      const double* wi = w.row(i);
      for (int j = 0; j < w.cols(); ++j)
        out[static_cast<std::size_t>(j)] += vi * wi[j];
    }
  };

  linear(u0, w1_, b1_, z1);
  PNP_CHECK(a1.size() == z1.size() && a2.size() == z2.size());
  for (std::size_t i = 0; i < z1.size(); ++i) a1[i] = relu(z1[i]);
  linear(a1, w2_, b2_, z2);
  for (std::size_t i = 0; i < z2.size(); ++i) a2[i] = relu(z2[i]);
  linear(a2, w3_, b3_, logits);
}

RgcnNet::DenseWeightsF32 RgcnNet::dense_weights_f32() const {
  return DenseWeightsF32{MatrixF::from(P(w1_).w), MatrixF::from(P(b1_).w),
                         MatrixF::from(P(w2_).w), MatrixF::from(P(b2_).w),
                         MatrixF::from(P(w3_).w), MatrixF::from(P(b3_).w)};
}

void RgcnNet::dense_forward_f32(const DenseWeightsF32& w,
                                std::span<const float> u0, std::span<float> h1,
                                std::span<float> h2, std::span<float> logits) {
  gemv_f32(u0, w.w1, w.b1.flat(), h1);
  for (float& v : h1) v = v > 0.0f ? v : 0.0f;
  gemv_f32(h1, w.w2, w.b2.flat(), h2);
  for (float& v : h2) v = v > 0.0f ? v : 0.0f;
  gemv_f32(h2, w.w3, w.b3.flat(), logits);
}

RgcnNet::DenseCache RgcnNet::forward(const graph::GraphTensors& g,
                                     std::span<const double> extra) const {
  const GnnCache gc = encode(g);
  return dense_forward(gc.readout, extra);
}

void RgcnNet::dense_input_grads(const DenseCache& c, DenseGrads& g) const {
  PNP_CHECK(static_cast<int>(g.dlogits.size()) == cfg_.total_logits());

  // d(loss)/d(in) of a linear layer: din[i] = Σ_j w[i][j]·dout[j], for
  // the first din.size() inputs.
  auto input_grad = [&](int w_idx, std::span<const double> dout,
                        std::vector<double>& din) {
    const Matrix& w = P(w_idx).w;
    for (std::size_t i = 0; i < din.size(); ++i) {
      const double* wi = w.row(static_cast<int>(i));
      double acc = 0.0;
      for (int j = 0; j < w.cols(); ++j)
        acc += wi[j] * dout[static_cast<std::size_t>(j)];
      din[i] = acc;
    }
  };

  g.da2.resize(c.a2.size());
  input_grad(w3_, g.dlogits, g.da2);
  for (std::size_t i = 0; i < g.da2.size(); ++i) g.da2[i] *= relu_grad(c.z2[i]);
  g.da1.resize(c.a1.size());
  input_grad(w2_, g.da2, g.da1);
  for (std::size_t i = 0; i < g.da1.size(); ++i) g.da1[i] *= relu_grad(c.z1[i]);
  // Only the readout part of u0 feeds a trainable stage.
  g.d_readout.resize(static_cast<std::size_t>(cfg_.hidden));
  input_grad(w1_, g.da1, g.d_readout);
}

void RgcnNet::dense_param_grads(int layer, const DenseCache& c,
                                const DenseGrads& g) {
  PNP_CHECK(layer >= 0 && layer < kDenseLayers);
  // Layer inputs and output gradients: u0 → z1, a1 → z2, a2 → logits.
  const std::vector<double>& in = layer == 0 ? c.u0 : layer == 1 ? c.a1 : c.a2;
  const std::vector<double>& dout =
      layer == 0 ? g.da1 : layer == 1 ? g.da2 : g.dlogits;
  Matrix& gw_m = P(layer == 0 ? w1_ : layer == 1 ? w2_ : w3_).g;
  Matrix& gb_m = P(layer == 0 ? b1_ : layer == 1 ? b2_ : b3_).g;
  PNP_CHECK(static_cast<int>(in.size()) == gw_m.rows() &&
            static_cast<int>(dout.size()) == gw_m.cols());
  for (int j = 0; j < gw_m.cols(); ++j)
    gb_m(0, j) += dout[static_cast<std::size_t>(j)];
  for (int i = 0; i < gw_m.rows(); ++i) {
    const double vi = in[static_cast<std::size_t>(i)];
    double* gw = gw_m.row(i);
    for (int j = 0; j < gw_m.cols(); ++j)
      gw[j] += vi * dout[static_cast<std::size_t>(j)];
  }
}

std::vector<double> RgcnNet::dense_backward(const DenseCache& c,
                                            std::span<const double> dlogits) {
  DenseGrads g;
  g.dlogits.assign(dlogits.begin(), dlogits.end());
  dense_input_grads(c, g);
  for (int layer = 0; layer < kDenseLayers; ++layer)
    dense_param_grads(layer, c, g);
  return std::move(g.d_readout);
}

void RgcnNet::gnn_input_grads(const GnnCache& cache,
                              std::span<const double> d_readout,
                              GnnGrads& gg) const {
  PNP_CHECK(cache.g != nullptr);
  PNP_CHECK(static_cast<int>(d_readout.size()) == cfg_.hidden);
  const graph::GraphTensors& g = *cache.g;
  const int n = g.num_nodes;
  const int L = cfg_.rgcn_layers;
  const auto nrel = static_cast<std::size_t>(cfg_.num_relations);
  const graph::RowPlan& plan = g.row_plan();
  const graph::SourceIndex& sources = g.source_index();
  gg.dz.resize(static_cast<std::size_t>(L));

  // Readout backward: every node receives d_readout / n, gated by the top
  // layer's activation (its output has the sign of its input). Row 0
  // holds the quotients until it is gated, last.
  Matrix& top = gg.dz[static_cast<std::size_t>(L - 1)];
  top.resize(n, cfg_.hidden);
  const Matrix& act = cache.H[static_cast<std::size_t>(L)];
  double* quot = top.row(0);
  for (int d = 0; d < cfg_.hidden; ++d)
    quot[d] = d_readout[static_cast<std::size_t>(d)] / static_cast<double>(n);
  for (int i = n - 1; i >= 0; --i) {
    double* di = top.row(i);
    const double* ai = act.row(i);
    for (int d = 0; d < cfg_.hidden; ++d)
      di[d] = quot[d] * leaky_grad(ai[d], cfg_.leaky_slope);
  }

  std::array<const Matrix*, graph::kNumModelRelations> w_ptr{};
  std::array<const double*, graph::kNumModelRelations> inv{};
  for (int l = L - 1; l >= 0; --l) {
    const auto li = static_cast<std::size_t>(l);
    const LayerParams& lp = layers_[li];
    for (std::size_t r = 0; r < nrel; ++r) {
      const graph::RelationCsr& csr = g.csr(static_cast<int>(r));
      PNP_CHECK_MSG(cache.M[li][r].rows() == csr.num_active(),
                    "stale GnnCache: graph edges changed since encode");
      // In basis mode the combined W_r was computed at encode time.
      w_ptr[r] = cfg_.num_bases == 0 ? &P(lp.wr[r]).w : &cache.relw[li][r];
      inv[r] = csr.inv_deg.data();
    }

    // d(loss)/dH_l in two passes: per plan tile, the self term straight
    // into dH and every relation's d(loss)/dM_r = (1/c)·dz·W_rᵀ into its
    // compressed rows; then per node, the relation terms of its out-edges
    // added in scatter order, and layer l-1's activation gate.
    Matrix& dh = l > 0 ? gg.dz[li - 1] : gg.dh0;
    dh.resize(n, cache.H[li].cols());
    gg.dmc.resize(sources.num_rows(), dh.cols());
    rgcn_layer_backward(gg.dz[li], P(lp.w0).w, std::span(w_ptr).first(nrel),
                        std::span(inv).first(nrel), sources.rel_base, plan, dh,
                        gg.dmc);
    rgcn_gather(gg.dmc, sources.offset, sources.row, sources.rel_base[nrel],
                l > 0 ? &cache.H[li] : nullptr, cfg_.leaky_slope, dh);
  }
}

int RgcnNet::num_gnn_grad_tasks() const {
  const int per_layer = cfg_.num_bases > 0 ? 1 : cfg_.num_relations;
  return cfg_.rgcn_layers * (2 + per_layer) + 2;
}

void RgcnNet::gnn_param_grads(int task, const GnnCache& cache,
                              const GnnGrads& gg, Matrix& scratch) {
  const int L = cfg_.rgcn_layers;
  PNP_CHECK(task >= 0 && task < num_gnn_grad_tasks());
  PNP_CHECK(cache.g != nullptr &&
            gg.dz.size() == static_cast<std::size_t>(L));
  const graph::GraphTensors& g = *cache.g;

  // Tasks: L self weights, then the relation tasks, L biases, 2 tables.
  if (task < L) {
    const auto li = static_cast<std::size_t>(task);
    gemm_tn_acc(cache.H[li], gg.dz[li], P(layers_[li].w0).g);
    return;
  }
  task -= L;
  const int rel_tasks =
      L * (cfg_.num_bases > 0 ? 1 : cfg_.num_relations);
  if (task < rel_tasks && cfg_.num_bases == 0) {
    const auto li = static_cast<std::size_t>(task / cfg_.num_relations);
    const int r = task % cfg_.num_relations;
    const auto ri = static_cast<std::size_t>(r);
    gemm_tn_acc_rows(cache.M[li][ri], gg.dz[li], g.csr(r).active_dst,
                     P(layers_[li].wr[ri]).g);
    return;
  }
  if (task < rel_tasks) {
    // Basis mode, one layer: G_r = M_rᵀ·dz feeds both the coefficient
    // and the basis gradients of every relation in turn.
    const auto li = static_cast<std::size_t>(task);
    const LayerParams& lp = layers_[li];
    const Matrix& dz = gg.dz[li];
    Matrix& coef_g = P(lp.coef).g;
    for (int r = 0; r < cfg_.num_relations; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      scratch.resize(cache.H[li].cols(), cfg_.hidden);
      scratch.zero();
      gemm_tn_acc_rows(cache.M[li][ri], dz, g.csr(r).active_dst, scratch);
      for (int b = 0; b < cfg_.num_bases; ++b) {
        const auto bi = static_cast<std::size_t>(b);
        coef_g(r, b) += frob_inner(scratch, P(lp.basis[bi]).w);
        P(lp.basis[bi]).g.add_scaled(scratch, P(lp.coef).w(r, b));
      }
    }
    return;
  }
  task -= rel_tasks;
  if (task < L) {
    const auto li = static_cast<std::size_t>(task);
    colsum_acc(gg.dz[li], P(layers_[li].bias).g.flat());
    return;
  }
  // Embedding backward: scatter dH_0's rows into one of the two tables.
  const bool token = task == L;
  Matrix& gm = P(token ? emb_token_ : emb_kind_).g;
  for (int i = 0; i < g.num_nodes; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const double* di = gg.dh0.row(i);
    double* gr = gm.row(token ? g.token[ii] : g.kind[ii]);
    for (int d = 0; d < cfg_.emb_dim; ++d) gr[d] += di[d];
  }
}

std::span<const int> RgcnNet::grad_task_params(int task) const {
  PNP_CHECK(task >= 0 && task < static_cast<int>(task_params_.size()));
  return task_params_[static_cast<std::size_t>(task)];
}

void RgcnNet::gnn_backward(const GnnCache& cache,
                           std::span<const double> d_readout) {
  if (gnn_frozen_) return;
  gnn_input_grads(cache, d_readout, gnn_grads_);
  for (int t = 0; t < num_gnn_grad_tasks(); ++t)
    gnn_param_grads(t, cache, gnn_grads_, gnn_scratch_);
}

std::span<const double> RgcnNet::head_logits(const DenseCache& cache,
                                             int head) const {
  PNP_CHECK(head >= 0 && head < static_cast<int>(cfg_.head_sizes.size()));
  const int off = head_offset_[static_cast<std::size_t>(head)];
  const int len = cfg_.head_sizes[static_cast<std::size_t>(head)];
  return std::span<const double>(cache.logits)
      .subspan(static_cast<std::size_t>(off), static_cast<std::size_t>(len));
}

int RgcnNet::head_offset(int head) const {
  PNP_CHECK(head >= 0 && head < static_cast<int>(head_offset_.size()));
  return head_offset_[static_cast<std::size_t>(head)];
}

std::vector<Param*> RgcnNet::params() {
  std::vector<Param*> out;
  out.reserve(params_.size());
  for (auto& p : params_) out.push_back(p.get());
  return out;
}

std::size_t RgcnNet::num_weights(bool trainable_only) const {
  std::size_t n = 0;
  for (const auto& p : params_)
    if (!trainable_only || p->trainable) n += p->w.size();
  return n;
}

void RgcnNet::zero_grad() {
  for (auto& p : params_) p->g.zero();
}

void RgcnNet::set_gnn_frozen(bool frozen) {
  gnn_frozen_ = frozen;
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (is_gnn_param_[i]) params_[i]->trainable = !frozen;
}

StateDict RgcnNet::state_dict() const {
  StateDict sd;
  for (const auto& p : params_) {
    std::vector<double> v(p->w.flat().begin(), p->w.flat().end());
    sd.put(p->name, std::move(v));
  }
  return sd;
}

void RgcnNet::load_state_dict(const StateDict& sd, bool load_gnn_only) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    if (load_gnn_only && !is_gnn_param_[i]) continue;
    const auto& v = sd.get(p.name);
    PNP_CHECK_MSG(v.size() == p.w.size(),
                  "state entry '" << p.name << "' has " << v.size()
                                  << " values, expected " << p.w.size());
    std::copy(v.begin(), v.end(), p.w.data());
  }
}

}  // namespace pnp::nn
