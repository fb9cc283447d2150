/// Equivalence property tests for the fast training engine: the
/// blocked/SIMD GEMM kernels against the naive reference implementations
/// across random shapes, the row-mapped CSR kernels against materialized
/// gather/scatter, the CSR form of GraphTensors against the plain edge
/// lists, the engine's RGCN forward against a from-scratch reference
/// implementation, the fused layer kernels (the forward, and the backward's
/// tile and gather passes) against the composed kernels they replaced, and
/// the two-phase backward (input gradients per sample, then parameter
/// gradients per tensor) against one-sample backward passes in sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "graph/flow_graph.hpp"
#include "nn/matrix.hpp"
#include "nn/rgcn_net.hpp"

namespace pnp::nn {
namespace {

Matrix random_matrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(-2.0, 2.0);
  return m;
}

/// |a - b| within 1e-12 relative to the larger magnitude (the SIMD kernels
/// may contract multiply-adds, so exact bit equality is not guaranteed).
void expect_close(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom =
        std::max({std::abs(a.data()[i]), std::abs(b.data()[i]), 1.0});
    EXPECT_NEAR(a.data()[i] / denom, b.data()[i] / denom, tol)
        << "element " << i << " of " << a.rows() << "x" << a.cols();
  }
}

TEST(GemmKernels, MatchNaiveAcrossRandomShapes) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 1 + static_cast<int>(rng.uniform_index(40));
    const int k = 1 + static_cast<int>(rng.uniform_index(40));
    const int n = 1 + static_cast<int>(rng.uniform_index(40));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c_fast = random_matrix(m, n, rng);
    Matrix c_ref = c_fast;

    gemm_acc(a, b, c_fast);
    detail::gemm_acc_naive(a, b, c_ref);
    expect_close(c_fast, c_ref);

    const Matrix at = random_matrix(k, m, rng);
    Matrix t_fast = random_matrix(m, n, rng);
    Matrix t_ref = t_fast;
    gemm_tn_acc(at, b, t_fast);
    detail::gemm_tn_acc_naive(at, b, t_ref);
    expect_close(t_fast, t_ref);

    const Matrix bt = random_matrix(n, k, rng);
    Matrix n_fast = random_matrix(m, n, rng);
    Matrix n_ref = n_fast;
    gemm_nt_acc(a, bt, n_fast);
    detail::gemm_nt_acc_naive(a, bt, n_ref);
    expect_close(n_fast, n_ref);
  }
}

TEST(GemmKernels, LargeShapesMatchNaive) {
  // Many full micro-tiles in one product, plus a ragged row edge.
  Rng rng(11);
  const Matrix a = random_matrix(300, 64, rng);
  const Matrix b = random_matrix(64, 48, rng);
  Matrix c_fast = Matrix::zeros(300, 48);
  Matrix c_ref = Matrix::zeros(300, 48);
  gemm_acc(a, b, c_fast);
  detail::gemm_acc_naive(a, b, c_ref);
  expect_close(c_fast, c_ref);
}

TEST(GemmKernels, BiasFusedOverwriteMatchesSeparatePasses) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 1 + static_cast<int>(rng.uniform_index(30));
    const int k = 1 + static_cast<int>(rng.uniform_index(30));
    const int n = 1 + static_cast<int>(rng.uniform_index(30));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    std::vector<double> bias(static_cast<std::size_t>(n));
    for (double& v : bias) v = rng.uniform(-1.0, 1.0);

    Matrix c_fast = random_matrix(m, n, rng);  // stale contents overwritten
    detail::gemm_bias(a, b, bias, c_fast);

    Matrix c_ref = Matrix::zeros(m, n);
    detail::gemm_acc_naive(a, b, c_ref);
    add_bias_rows(c_ref, bias);
    expect_close(c_fast, c_ref);

    // Empty bias = plain overwrite.
    Matrix c0 = random_matrix(m, n, rng);
    detail::gemm_bias(a, b, {}, c0);
    Matrix c0_ref = Matrix::zeros(m, n);
    detail::gemm_acc_naive(a, b, c0_ref);
    expect_close(c0, c0_ref);

    const Matrix bt = random_matrix(n, k, rng);
    Matrix nt_fast = random_matrix(m, n, rng);
    detail::gemm_nt(a, bt, nt_fast);
    Matrix nt_ref = Matrix::zeros(m, n);
    detail::gemm_nt_acc_naive(a, bt, nt_ref);
    expect_close(nt_fast, nt_ref);
  }
}

TEST(GemmKernels, RowMappedVariantsMatchMaterializedGatherScatter) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int full = 8 + static_cast<int>(rng.uniform_index(30));
    const int k = 1 + static_cast<int>(rng.uniform_index(20));
    const int n = 1 + static_cast<int>(rng.uniform_index(24));
    // A strictly increasing subset of rows (as CSR active targets are).
    std::vector<int> rows;
    for (int i = 0; i < full; ++i)
      if (rng.uniform(0.0, 1.0) < 0.5) rows.push_back(i);
    if (rows.empty()) rows.push_back(0);
    const int a_rows = static_cast<int>(rows.size());

    // gemm_acc_rows: C.row(rows[i]) += A.row(i)·B.
    const Matrix a = random_matrix(a_rows, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c_fast = random_matrix(full, n, rng);
    Matrix c_ref = c_fast;
    detail::gemm_acc_rows(a, b, c_fast, rows);
    Matrix dense = Matrix::zeros(a_rows, n);
    detail::gemm_acc_naive(a, b, dense);
    for (int i = 0; i < a_rows; ++i)
      for (int j = 0; j < n; ++j)
        c_ref(rows[static_cast<std::size_t>(i)], j) += dense(i, j);
    expect_close(c_fast, c_ref);

    // gemm_tn_acc_rows: C += Aᵀ·gather(B, rows).
    const Matrix big_b = random_matrix(full, n, rng);
    Matrix gathered(a_rows, n);
    for (int i = 0; i < a_rows; ++i)
      for (int j = 0; j < n; ++j)
        gathered(i, j) = big_b(rows[static_cast<std::size_t>(i)], j);
    Matrix tn_fast = random_matrix(k, n, rng);
    Matrix tn_ref = tn_fast;
    gemm_tn_acc_rows(a, big_b, rows, tn_fast);
    detail::gemm_tn_acc_naive(a, gathered, tn_ref);
    expect_close(tn_fast, tn_ref);

    // gemm_nt_rows: C = gather(A, rows)·Bᵀ.
    const Matrix big_a = random_matrix(full, k, rng);
    const Matrix bt = random_matrix(n, k, rng);
    Matrix gathered_a(a_rows, k);
    for (int i = 0; i < a_rows; ++i)
      for (int p = 0; p < k; ++p)
        gathered_a(i, p) = big_a(rows[static_cast<std::size_t>(i)], p);
    Matrix ntr_fast = random_matrix(a_rows, n, rng);
    detail::gemm_nt_rows(big_a, rows, bt, ntr_fast);
    Matrix ntr_ref = Matrix::zeros(a_rows, n);
    detail::gemm_nt_acc_naive(gathered_a, bt, ntr_ref);
    expect_close(ntr_fast, ntr_ref);
  }
}

// ---------------------------------------------------------------------------
// CSR form of GraphTensors.
// ---------------------------------------------------------------------------

graph::GraphTensors random_graph(int num_nodes, int vocab, std::uint64_t seed,
                                 int edges_per_rel) {
  graph::GraphTensors g;
  g.name = "random";
  g.num_nodes = num_nodes;
  Rng rng(seed);
  for (int i = 0; i < num_nodes; ++i) {
    g.token.push_back(static_cast<int>(
        rng.uniform_index(static_cast<std::size_t>(vocab))));
    g.kind.push_back(static_cast<int>(rng.uniform_index(3)));
  }
  for (int r = 0; r < graph::kNumModelRelations; ++r)
    for (int e = 0; e < edges_per_rel; ++e)
      g.rel_edges[static_cast<std::size_t>(r)].emplace_back(
          static_cast<int>(
              rng.uniform_index(static_cast<std::size_t>(num_nodes))),
          static_cast<int>(
              rng.uniform_index(static_cast<std::size_t>(num_nodes))));
  return g;
}

TEST(GraphCsr, MatchesEdgeListsAndInDegrees) {
  const auto g = random_graph(23, 5, 99, 40);
  for (int r = 0; r < graph::kNumModelRelations; ++r) {
    const auto& csr = g.csr(r);
    const auto deg = g.in_degree(r);
    ASSERT_EQ(csr.row_offset.size(), static_cast<std::size_t>(g.num_nodes) + 1);
    ASSERT_EQ(csr.inv_deg.size(), csr.active_dst.size());
    EXPECT_EQ(csr.num_edges(),
              static_cast<int>(g.rel_edges[static_cast<std::size_t>(r)].size()));

    // Row extents and normalization match the in-degrees.
    int active_seen = 0;
    for (int i = 0; i < g.num_nodes; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      EXPECT_EQ(csr.row_offset[ii + 1] - csr.row_offset[ii], deg[ii]);
      if (deg[ii] > 0) {
        const auto ai = static_cast<std::size_t>(active_seen);
        EXPECT_EQ(csr.active_dst[ai], i);
        EXPECT_DOUBLE_EQ(csr.inv_deg[ai], 1.0 / deg[ii]);
        ++active_seen;
      }
    }
    EXPECT_EQ(csr.num_active(), active_seen);

    // Each target's sources appear in edge-insertion order.
    std::vector<std::vector<int>> expected(
        static_cast<std::size_t>(g.num_nodes));
    for (const auto& [src, dst] : g.rel_edges[static_cast<std::size_t>(r)])
      expected[static_cast<std::size_t>(dst)].push_back(src);
    for (int i = 0; i < g.num_nodes; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const std::vector<int> got(
          csr.src.begin() + csr.row_offset[ii],
          csr.src.begin() + csr.row_offset[ii + 1]);
      EXPECT_EQ(got, expected[ii]);
    }
  }
}

TEST(GraphCsr, LazilyRebuildsAfterEdgeMutation) {
  auto g = random_graph(9, 4, 3, 6);
  EXPECT_EQ(g.csr(0).num_edges(), 6);
  g.rel_edges[0].emplace_back(2, 5);
  EXPECT_EQ(g.csr(0).num_edges(), 7);  // stale CSR was rebuilt
  const auto deg = g.in_degree(0);
  EXPECT_EQ(g.csr(0).row_offset[6] - g.csr(0).row_offset[5], deg[5]);
}

/// Checks every RowPlan invariant of `g` against its edge lists: the order
/// is a permutation, tiles hold 1..kTileRows nodes of one signature in
/// signature order (node ids ascending within one), and each M-row map
/// points at the node's row of that relation's compressed aggregate.
void expect_row_plan_consistent(const graph::GraphTensors& g) {
  const graph::RowPlan& p = g.row_plan();
  const int n = g.num_nodes;
  std::vector<unsigned> sig(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < graph::kNumModelRelations; ++r) {
    const auto deg = g.in_degree(r);
    for (int i = 0; i < n; ++i)
      if (deg[static_cast<std::size_t>(i)] > 0)
        sig[static_cast<std::size_t>(i)] |= 1u << r;
  }

  std::vector<int> sorted = p.order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  ASSERT_EQ(sorted, ids) << "order is not a permutation";

  ASSERT_EQ(p.tile_start.size(), static_cast<std::size_t>(p.num_tiles()) + 1);
  ASSERT_EQ(p.tile_mrow.size(), static_cast<std::size_t>(p.num_tiles()));
  ASSERT_EQ(p.tile_start.front(), 0);
  ASSERT_EQ(p.tile_start.back(), n);
  int mrow_at = 0;
  for (int t = 0; t < p.num_tiles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const int first = p.tile_start[ti];
    const int rows = p.tile_start[ti + 1] - first;
    ASSERT_GE(rows, 1);
    ASSERT_LE(rows, graph::RowPlan::kTileRows);
    if (t > 0) {
      EXPECT_LE(p.tile_sig[ti - 1], p.tile_sig[ti]);
    }
    ASSERT_EQ(p.tile_mrow[ti], mrow_at);
    for (int i = first; i < first + rows; ++i) {
      const int node = p.order[static_cast<std::size_t>(i)];
      EXPECT_EQ(sig[static_cast<std::size_t>(node)], p.tile_sig[ti])
          << "tile " << t << " mixes signatures";
      const int prev = i > 0 ? p.order[static_cast<std::size_t>(i - 1)] : -1;
      if (prev >= 0 && sig[static_cast<std::size_t>(prev)] == p.tile_sig[ti]) {
        EXPECT_LT(prev, node);
      }
    }
    for (int r = 0; r < graph::kNumModelRelations; ++r) {
      if (!((p.tile_sig[ti] >> r) & 1u)) continue;
      const auto& active = g.csr(r).active_dst;
      for (int i = first; i < first + rows; ++i) {
        const int m = p.mrow[static_cast<std::size_t>(mrow_at++)];
        ASSERT_GE(m, 0);
        ASSERT_LT(m, static_cast<int>(active.size()));
        EXPECT_EQ(active[static_cast<std::size_t>(m)],
                  p.order[static_cast<std::size_t>(i)])
            << "relation " << r << " tile " << t;
      }
    }
  }
  EXPECT_EQ(mrow_at, static_cast<int>(p.mrow.size()));
}

TEST(GraphCsr, RowPlanGroupsRowsBySignature) {
  expect_row_plan_consistent(random_graph(23, 5, 99, 40));
  expect_row_plan_consistent(random_graph(70, 5, 7, 25));
  expect_row_plan_consistent(random_graph(130, 5, 8, 400));  // full tiles
  expect_row_plan_consistent(random_graph(1, 5, 1, 0));
  expect_row_plan_consistent(random_graph(1, 5, 1, 2));  // self loops
}

TEST(GraphCsr, RowPlanRebuiltAfterLazyCsrRebuild) {
  auto g = random_graph(9, 4, 3, 6);
  expect_row_plan_consistent(g);
  // A new in-edge changes its target's signature.
  const auto deg = g.in_degree(0);
  const int fresh = static_cast<int>(
      std::find(deg.begin(), deg.end(), 0) - deg.begin());
  ASSERT_LT(fresh, g.num_nodes);
  g.rel_edges[0].emplace_back(1, fresh);
  expect_row_plan_consistent(g);
  // More nodes: the plan covers them too.
  g.num_nodes += 3;
  for (int i = 0; i < 3; ++i) {
    g.token.push_back(0);
    g.kind.push_back(0);
  }
  g.rel_edges[3].emplace_back(0, g.num_nodes - 1);
  expect_row_plan_consistent(g);
  EXPECT_EQ(g.row_plan().order.size(), static_cast<std::size_t>(g.num_nodes));
}

// ---------------------------------------------------------------------------
// Engine vs reference RGCN forward.
// ---------------------------------------------------------------------------

RgcnNetConfig small_config(int vocab) {
  RgcnNetConfig c;
  c.vocab_size = vocab;
  c.emb_dim = 6;
  c.rgcn_layers = 3;
  c.hidden = 9;
  c.dense_hidden1 = 8;
  c.dense_hidden2 = 7;
  c.head_sizes = {4, 3};
  c.extra_features = 0;
  c.seed = 5;
  return c;
}

const Matrix& param_by_name(RgcnNet& net, const std::string& name) {
  for (Param* p : net.params())
    if (p->name == name) return p->w;
  ADD_FAILURE() << "missing param " << name;
  static Matrix dummy;
  return dummy;
}

/// Textbook RGCN forward (edge-list aggregation, naive products) — the
/// ground truth the CSR/SIMD engine must reproduce.
std::vector<double> reference_readout(RgcnNet& net,
                                      const graph::GraphTensors& g) {
  const auto& cfg = net.config();
  const int n = g.num_nodes;
  const Matrix& et = param_by_name(net, "emb.token");
  const Matrix& ek = param_by_name(net, "emb.kind");
  Matrix h(n, cfg.emb_dim);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.emb_dim; ++d)
      h(i, d) = et(g.token[static_cast<std::size_t>(i)], d) +
                ek(g.kind[static_cast<std::size_t>(i)], d);

  for (int l = 0; l < cfg.rgcn_layers; ++l) {
    const std::string prefix = "rgcn." + std::to_string(l) + ".";
    const Matrix& w0 = param_by_name(net, prefix + "w0");
    const Matrix& bias = param_by_name(net, prefix + "bias");
    Matrix z = Matrix::zeros(n, cfg.hidden);
    detail::gemm_acc_naive(h, w0, z);
    for (int r = 0; r < cfg.num_relations; ++r) {
      const auto deg = g.in_degree(r);
      Matrix m = Matrix::zeros(n, h.cols());
      for (const auto& [src, dst] : g.rel_edges[static_cast<std::size_t>(r)])
        for (int d = 0; d < h.cols(); ++d)
          m(dst, d) += h(src, d) / deg[static_cast<std::size_t>(dst)];
      const Matrix& wr = param_by_name(net, prefix + "wr." + std::to_string(r));
      detail::gemm_acc_naive(m, wr, z);
    }
    add_bias_rows(z, bias.flat());
    Matrix hn(n, cfg.hidden);
    for (std::size_t i = 0; i < z.size(); ++i)
      hn.data()[i] =
          z.data()[i] > 0.0 ? z.data()[i] : cfg.leaky_slope * z.data()[i];
    h = std::move(hn);
  }

  std::vector<double> readout(static_cast<std::size_t>(cfg.hidden), 0.0);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.hidden; ++d)
      readout[static_cast<std::size_t>(d)] += h(i, d);
  for (double& v : readout) v /= n;
  return readout;
}

TEST(RgcnEngine, EncodeMatchesReferenceForward) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RgcnNet net(small_config(6));
    const auto g = random_graph(17, 6, seed, 25);
    const auto gc = net.encode(g);
    const auto ref = reference_readout(net, g);
    ASSERT_EQ(gc.readout.size(), ref.size());
    for (std::size_t d = 0; d < ref.size(); ++d)
      EXPECT_NEAR(gc.readout[d], ref[d], 1e-9) << "dim " << d;
  }
}

TEST(RgcnEngine, EncodeIntoReusedCacheMatchesFreshEncode) {
  RgcnNet net(small_config(6));
  const auto g1 = random_graph(17, 6, 1, 25);
  const auto g2 = random_graph(9, 6, 2, 10);  // different shape
  RgcnNet::GnnCache reused;
  net.encode_into(g1, reused);
  net.encode_into(g2, reused);  // shrinks the buffers
  net.encode_into(g1, reused);  // grows them back
  const auto fresh = net.encode(g1);
  ASSERT_EQ(reused.readout.size(), fresh.readout.size());
  for (std::size_t d = 0; d < fresh.readout.size(); ++d)
    EXPECT_DOUBLE_EQ(reused.readout[d], fresh.readout[d]);
}

TEST(RgcnEngine, EncodeIsDeterministic) {
  RgcnNet net(small_config(6));
  const auto g = random_graph(17, 6, 4, 25);
  const auto a = net.encode(g);
  const auto b = net.encode(g);
  for (std::size_t d = 0; d < a.readout.size(); ++d)
    EXPECT_DOUBLE_EQ(a.readout[d], b.readout[d]);
}

/// The RGCN forward composed of separate kernels, as the engine ran it
/// before the fused layer kernel: the bias-fused self GEMM, one row-mapped
/// accumulate per active relation in ascending order, then an activation
/// pass. The engine's H, M and readout must equal it bit for bit.
RgcnNet::GnnCache composed_encode(RgcnNet& net, const graph::GraphTensors& g) {
  const auto& cfg = net.config();
  const int n = g.num_nodes;
  const auto L = static_cast<std::size_t>(cfg.rgcn_layers);
  RgcnNet::GnnCache c;
  c.H.resize(L + 1);
  c.M.resize(L);
  const Matrix& et = param_by_name(net, "emb.token");
  const Matrix& ek = param_by_name(net, "emb.kind");
  c.H[0].resize(n, cfg.emb_dim);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.emb_dim; ++d)
      c.H[0](i, d) = et(g.token[static_cast<std::size_t>(i)], d) +
                     ek(g.kind[static_cast<std::size_t>(i)], d);

  for (std::size_t l = 0; l < L; ++l) {
    const std::string prefix = "rgcn." + std::to_string(l) + ".";
    const Matrix& h = c.H[l];
    Matrix z(n, cfg.hidden);
    detail::gemm_bias(h, param_by_name(net, prefix + "w0"),
                      param_by_name(net, prefix + "bias").flat(), z);
    for (int r = 0; r < cfg.num_relations; ++r) {
      const graph::RelationCsr& csr = g.csr(r);
      Matrix mc(csr.num_active(), h.cols());
      for (int idx = 0; idx < csr.num_active(); ++idx) {
        const auto dst = static_cast<std::size_t>(
            csr.active_dst[static_cast<std::size_t>(idx)]);
        const double inv = csr.inv_deg[static_cast<std::size_t>(idx)];
        const int b0 = csr.row_offset[dst], b1 = csr.row_offset[dst + 1];
        for (int d = 0; d < h.cols(); ++d)
          mc(idx, d) = inv * h(csr.src[static_cast<std::size_t>(b0)], d);
        for (int e = b0 + 1; e < b1; ++e)
          for (int d = 0; d < h.cols(); ++d)
            mc(idx, d) += inv * h(csr.src[static_cast<std::size_t>(e)], d);
      }
      Matrix wr;
      if (cfg.num_bases == 0) {
        wr = param_by_name(net, prefix + "wr." + std::to_string(r));
      } else {
        const Matrix& coef = param_by_name(net, prefix + "coef");
        wr = Matrix::zeros(h.cols(), cfg.hidden);
        for (int b = 0; b < cfg.num_bases; ++b)
          wr.add_scaled(param_by_name(net, prefix + "basis." + std::to_string(b)),
                        coef(r, b));
      }
      if (csr.num_active() > 0)
        detail::gemm_acc_rows(mc, wr, z, csr.active_dst);
      c.M[l].push_back(std::move(mc));
    }
    for (double& v : z.flat()) v = v > 0.0 ? v : cfg.leaky_slope * v;
    c.H[l + 1] = std::move(z);
  }

  c.readout.assign(static_cast<std::size_t>(cfg.hidden), 0.0);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.hidden; ++d)
      c.readout[static_cast<std::size_t>(d)] += c.H[L](i, d);
  for (double& v : c.readout) v /= static_cast<double>(n);
  return c;
}

void expect_bit_equal(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
}

TEST(RgcnEngine, GroupedLayerKernelBitIdenticalToComposedKernels) {
  std::vector<graph::GraphTensors> graphs;
  graphs.push_back(random_graph(40, 6, 21, 30));
  graphs.push_back(random_graph(130, 6, 22, 400));  // full same-signature tiles
  graphs.push_back(random_graph(1, 6, 23, 0));      // one node, no edges
  graphs.push_back(random_graph(1, 6, 24, 1));      // one node, self loops
  {
    // Nodes with no in-edges at all: sources only.
    auto g = random_graph(30, 6, 25, 20);
    for (int i = 0; i < 4; ++i) {
      g.token.push_back(i);
      g.kind.push_back(i % 3);
      g.rel_edges[static_cast<std::size_t>(i)].emplace_back(g.num_nodes + i, 0);
    }
    g.num_nodes += 4;
    graphs.push_back(std::move(g));
  }
  {
    // One relation active on every node.
    auto g = random_graph(45, 6, 26, 15);
    for (int i = 0; i < g.num_nodes; ++i)
      g.rel_edges[2].emplace_back((i + 7) % g.num_nodes, i);
    graphs.push_back(std::move(g));
  }

  for (int hidden : {9, 16, 20, 33}) {
    for (int num_bases : {0, 2}) {
      auto cfg = small_config(6);
      cfg.hidden = hidden;
      cfg.emb_dim = hidden == 16 ? 12 : 6;
      cfg.rgcn_layers = 4;
      cfg.num_bases = num_bases;
      cfg.seed = static_cast<std::uint64_t>(hidden * 10 + num_bases);
      RgcnNet net(cfg);
      RgcnNet::GnnCache reused;
      for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const std::string what = "hidden " + std::to_string(hidden) +
                                 " bases " + std::to_string(num_bases) +
                                 " graph " + std::to_string(gi);
        const auto ref = composed_encode(net, graphs[gi]);
        net.encode_into(graphs[gi], reused);
        ASSERT_EQ(reused.H.size(), ref.H.size());
        for (std::size_t l = 0; l < ref.H.size(); ++l)
          expect_bit_equal(reused.H[l], ref.H[l], what + " H" + std::to_string(l));
        ASSERT_EQ(reused.M.size(), ref.M.size());
        for (std::size_t l = 0; l < ref.M.size(); ++l)
          for (std::size_t r = 0; r < ref.M[l].size(); ++r)
            expect_bit_equal(reused.M[l][r], ref.M[l][r],
                             what + " M" + std::to_string(l) + "." +
                                 std::to_string(r));
        ASSERT_EQ(reused.readout, ref.readout) << what;
      }
    }
  }
}

/// The GNN input-gradient pass as the engine ran it before the two-pass
/// backward: per layer, an activation-mask pass over dz, the self term by
/// gemm_nt, then per active relation a row-gathered gemm_nt_rows, a ×(1/c)
/// pass over its rows and a scatter along the relation's CSR rows. The
/// engine's dz, dH_0 and parameter gradients must equal it bit for bit.
RgcnNet::GnnGrads composed_input_grads(RgcnNet& net,
                                       const RgcnNet::GnnCache& cache,
                                       std::span<const double> d_readout) {
  const auto& cfg = net.config();
  const graph::GraphTensors& g = *cache.g;
  const int n = g.num_nodes;
  const auto L = static_cast<std::size_t>(cfg.rgcn_layers);
  RgcnNet::GnnGrads gg;
  gg.dz.resize(L);
  Matrix& top = gg.dz[L - 1];
  top.resize(n, cfg.hidden);
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < cfg.hidden; ++d)
      top(i, d) =
          d_readout[static_cast<std::size_t>(d)] / static_cast<double>(n);

  for (std::size_t l = L; l-- > 0;) {
    const std::string prefix = "rgcn." + std::to_string(l) + ".";
    const Matrix& act = cache.H[l + 1];
    const int d_in = cache.H[l].cols();
    Matrix& dz = gg.dz[l];
    for (std::size_t k = 0; k < act.size(); ++k)
      dz.data()[k] *= act.data()[k] > 0.0 ? 1.0 : cfg.leaky_slope;
    Matrix& dh = l > 0 ? gg.dz[l - 1] : gg.dh0;
    dh.resize(n, d_in);
    detail::gemm_nt(dz, param_by_name(net, prefix + "w0"), dh);
    for (int r = 0; r < cfg.num_relations; ++r) {
      const graph::RelationCsr& csr = g.csr(r);
      const int active = csr.num_active();
      if (active == 0) continue;
      const Matrix& wr =
          cfg.num_bases == 0
              ? param_by_name(net, prefix + "wr." + std::to_string(r))
              : cache.relw[l][static_cast<std::size_t>(r)];
      Matrix dmc(active, d_in);
      detail::gemm_nt_rows(dz, csr.active_dst, wr, dmc);
      for (int idx = 0; idx < active; ++idx) {
        const auto dst = static_cast<std::size_t>(
            csr.active_dst[static_cast<std::size_t>(idx)]);
        const double inv = csr.inv_deg[static_cast<std::size_t>(idx)];
        double* dmt = dmc.row(idx);
        for (int d = 0; d < d_in; ++d) dmt[d] *= inv;
        for (int e = csr.row_offset[dst]; e < csr.row_offset[dst + 1]; ++e) {
          double* dhs = dh.row(csr.src[static_cast<std::size_t>(e)]);
          for (int d = 0; d < d_in; ++d) dhs[d] += dmt[d];
        }
      }
    }
  }
  return gg;
}

/// Every parameter gradient of the GNN's phase-B tasks for one sample.
std::vector<double> gnn_param_grads_of(RgcnNet& net,
                                       const RgcnNet::GnnCache& cache,
                                       const RgcnNet::GnnGrads& gg) {
  net.zero_grad();
  Matrix scratch;
  for (int t = 0; t < net.num_gnn_grad_tasks(); ++t)
    net.gnn_param_grads(t, cache, gg, scratch);
  std::vector<double> out;
  for (Param* p : net.params())
    out.insert(out.end(), p->g.flat().begin(), p->g.flat().end());
  return out;
}

TEST(RgcnEngine, GroupedBackwardBitIdenticalToComposed) {
  std::vector<graph::GraphTensors> graphs;
  graphs.push_back(random_graph(40, 6, 31, 30));
  graphs.push_back(random_graph(130, 6, 32, 400));  // full same-signature tiles
  graphs.push_back(random_graph(1, 6, 33, 0));      // one node, no edges
  graphs.push_back(random_graph(1, 6, 34, 2));      // one node, self loops
  {
    // Duplicate (t←s) edges, several times over, in two relations.
    auto g = random_graph(25, 6, 35, 12);
    for (int k = 0; k < 3; ++k) {
      g.rel_edges[1].emplace_back(4, 9);
      g.rel_edges[4].emplace_back(7, 7);
    }
    g.rel_edges[1].emplace_back(11, 9);
    g.rel_edges[1].emplace_back(4, 9);
    graphs.push_back(std::move(g));
  }
  {
    // Sources only (no in-edges) and sinks only (no out-edges).
    auto g = random_graph(30, 6, 36, 20);
    const int base = g.num_nodes;
    for (int i = 0; i < 8; ++i) {
      g.token.push_back(i % 6);
      g.kind.push_back(i % 3);
      const auto rel = static_cast<std::size_t>(i % graph::kNumModelRelations);
      if (i < 4)
        g.rel_edges[rel].emplace_back(base + i, i);  // source only
      else
        g.rel_edges[rel].emplace_back(i, base + i);  // sink only
    }
    g.num_nodes += 8;
    graphs.push_back(std::move(g));
  }

  for (int hidden : {9, 16, 20, 33}) {
    for (int num_bases : {0, 2}) {
      auto cfg = small_config(6);
      cfg.hidden = hidden;
      cfg.emb_dim = hidden == 16 ? 12 : 6;
      cfg.rgcn_layers = 4;
      cfg.num_bases = num_bases;
      cfg.seed = static_cast<std::uint64_t>(hidden * 10 + num_bases + 1);
      RgcnNet net(cfg);
      RgcnNet::GnnCache gc;
      RgcnNet::GnnGrads reused;
      Rng rng(static_cast<std::uint64_t>(hidden + num_bases));
      for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const std::string what = "hidden " + std::to_string(hidden) +
                                 " bases " + std::to_string(num_bases) +
                                 " graph " + std::to_string(gi);
        std::vector<double> d_readout(static_cast<std::size_t>(hidden));
        for (double& v : d_readout) v = rng.uniform(-1.0, 1.0);
        net.encode_into(graphs[gi], gc);
        const auto ref = composed_input_grads(net, gc, d_readout);
        net.gnn_input_grads(gc, d_readout, reused);
        ASSERT_EQ(reused.dz.size(), ref.dz.size());
        for (std::size_t l = 0; l < ref.dz.size(); ++l)
          expect_bit_equal(reused.dz[l], ref.dz[l],
                           what + " dz" + std::to_string(l));
        expect_bit_equal(reused.dh0, ref.dh0, what + " dh0");
        ASSERT_EQ(gnn_param_grads_of(net, gc, reused),
                  gnn_param_grads_of(net, gc, ref))
            << what;
      }
    }
  }
}

/// The trainer's batch backward in miniature: phase A for every sample
/// first, then phase-B tasks in an arbitrary order (here reversed), each
/// walking the samples in batch order, must add up bit-identical gradients
/// to dense_backward + gnn_backward run sample after sample — and phase A
/// must leave every Param::g untouched.
TEST(RgcnEngine, TwoPhaseBackwardMatchesOneSampleBackward) {
  for (int num_bases : {0, 2}) {
    auto cfg = small_config(6);
    cfg.num_bases = num_bases;
    cfg.extra_features = 2;
    RgcnNet net(cfg);
    const std::vector<graph::GraphTensors> graphs = {
        random_graph(13, 6, 8, 18), random_graph(7, 6, 9, 4),
        random_graph(21, 6, 10, 40)};
    const std::vector<std::vector<double>> extra = {
        {0.5, -1.0}, {0.0, 2.0}, {-0.25, 0.75}};

    struct Sample {
      RgcnNet::GnnCache gc;
      RgcnNet::DenseCache dc;
      RgcnNet::DenseGrads dg;
      RgcnNet::GnnGrads gg;
    };
    std::vector<Sample> batch(graphs.size());
    for (std::size_t s = 0; s < graphs.size(); ++s) {
      net.encode_into(graphs[s], batch[s].gc);
      net.dense_forward_into(batch[s].gc.readout, extra[s], batch[s].dc);
      batch[s].dg.dlogits.resize(batch[s].dc.logits.size());
      for (std::size_t i = 0; i < batch[s].dg.dlogits.size(); ++i)
        batch[s].dg.dlogits[i] =
            0.1 * static_cast<double>(i + 1) - 0.3 * static_cast<double>(s);
    }

    net.zero_grad();
    for (const Sample& b : batch)
      net.gnn_backward(b.gc, net.dense_backward(b.dc, b.dg.dlogits));
    std::vector<double> sequential;
    for (Param* p : net.params())
      sequential.insert(sequential.end(), p->g.flat().begin(),
                        p->g.flat().end());

    net.zero_grad();
    for (Sample& b : batch) {
      net.dense_input_grads(b.dc, b.dg);
      net.gnn_input_grads(b.gc, b.dg.d_readout, b.gg);
    }
    for (Param* p : net.params())
      for (double v : p->g.flat()) ASSERT_EQ(v, 0.0) << p->name;
    Matrix scratch;
    for (int t = net.num_gnn_grad_tasks() - 1; t >= 0; --t)
      for (const Sample& b : batch) net.gnn_param_grads(t, b.gc, b.gg, scratch);
    for (int layer = RgcnNet::kDenseLayers - 1; layer >= 0; --layer)
      for (const Sample& b : batch) net.dense_param_grads(layer, b.dc, b.dg);

    std::size_t idx = 0;
    for (Param* p : net.params())
      for (double v : p->g.flat()) {
        EXPECT_EQ(v, sequential[idx]) << p->name << " bases=" << num_bases;
        ++idx;
      }
    EXPECT_EQ(idx, sequential.size());
  }
}

}  // namespace
}  // namespace pnp::nn
