/// Unit tests for the NN substrate: matrix kernels, losses, optimizers,
/// serialization, and end-to-end trainability on toy tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optim.hpp"
#include "nn/rgcn_net.hpp"
#include "nn/task_pool.hpp"
#include "nn/trainer.hpp"

namespace pnp::nn {
namespace {

TEST(Matrix, ShapeAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, XavierWithinBounds) {
  Rng rng(3);
  const Matrix m = Matrix::xavier(10, 20, rng);
  const double a = std::sqrt(6.0 / 30.0);
  for (double v : m.flat()) {
    EXPECT_GE(v, -a);
    EXPECT_LE(v, a);
  }
}

TEST(Matrix, GemmAgainstHandComputed) {
  Matrix a(2, 3), b(3, 2), c(2, 2);
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  gemm_acc(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
  // Accumulation semantics.
  gemm_acc(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 116.0);
}

TEST(Matrix, TransposedGemmsAgree) {
  Rng rng(11);
  Matrix a = Matrix::xavier(4, 3, rng);
  Matrix b = Matrix::xavier(4, 5, rng);
  // a^T b via gemm_tn vs explicit transpose + gemm.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j) at(j, i) = a(i, j);
  Matrix c1(3, 5), c2(3, 5);
  gemm_tn_acc(a, b, c1);
  gemm_acc(at, b, c2);
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-12);
}

TEST(Matrix, GemmNtAgrees) {
  Rng rng(13);
  Matrix a = Matrix::xavier(4, 3, rng);
  Matrix b = Matrix::xavier(5, 3, rng);
  Matrix bt(3, 5);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 3; ++j) bt(j, i) = b(i, j);
  Matrix c1(4, 5), c2(4, 5);
  gemm_nt_acc(a, b, c1);
  gemm_acc(a, bt, c2);
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-12);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(gemm_acc(a, b, c), Error);
  EXPECT_THROW(a.add_scaled(b, 1.0), Error);
}

TEST(Matrix, BiasAndColsum) {
  Matrix m(2, 3);
  m.fill(1.0);
  std::vector<double> bias{1.0, 2.0, 3.0};
  add_bias_rows(m, bias);
  EXPECT_DOUBLE_EQ(m(0, 2), 4.0);
  std::vector<double> cs(3, 0.0);
  colsum_acc(m, cs);
  EXPECT_DOUBLE_EQ(cs[0], 4.0);
  EXPECT_DOUBLE_EQ(cs[2], 8.0);
}

TEST(Loss, SoftmaxSumsToOne) {
  std::vector<double> logits{1.0, 2.0, 3.0};
  const auto p = softmax(logits);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
}

TEST(Loss, CrossEntropyMatchesClosedForm) {
  std::vector<double> logits{0.0, 0.0};
  std::vector<double> grad(2);
  const double l = softmax_cross_entropy(logits, 0, grad);
  EXPECT_NEAR(l, std::log(2.0), 1e-12);
  EXPECT_NEAR(grad[0], -0.5, 1e-12);
  EXPECT_NEAR(grad[1], 0.5, 1e-12);
}

TEST(Loss, CrossEntropyGradIsFiniteDifferenceCorrect) {
  std::vector<double> logits{0.3, -1.2, 0.7, 2.0};
  std::vector<double> grad(4);
  softmax_cross_entropy(logits, 2, grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    std::vector<double> dummy(4);
    const double fd = (softmax_cross_entropy(lp, 2, dummy) -
                       softmax_cross_entropy(lm, 2, dummy)) /
                      (2 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-6);
  }
}

TEST(Loss, NumericallyStableForHugeLogits) {
  std::vector<double> logits{1000.0, -1000.0};
  std::vector<double> grad(2);
  const double l = softmax_cross_entropy(logits, 0, grad);
  EXPECT_NEAR(l, 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(grad[1]));
}

TEST(Optim, SgdStepsDownhill) {
  // Minimize f(w) = (w-3)^2 by hand-feeding gradients.
  Param p("w", Matrix::zeros(1, 1));
  std::vector<Param*> ps{&p};
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    p.g(0, 0) = 2.0 * (p.w(0, 0) - 3.0);
    opt.step(ps);
    p.g.zero();
  }
  EXPECT_NEAR(p.w(0, 0), 3.0, 1e-6);
}

TEST(Optim, SgdMomentumConvergesFasterOnRavine) {
  // On an ill-conditioned quadratic, momentum needs fewer steps than
  // plain SGD with the same learning rate.
  auto run = [](double momentum) {
    Param p("w", Matrix::zeros(1, 2));
    p.w(0, 0) = 5.0;
    p.w(0, 1) = 5.0;
    std::vector<Param*> ps{&p};
    Sgd opt(0.02, momentum);
    int steps = 0;
    while (steps < 5000) {
      p.g(0, 0) = 2.0 * 10.0 * p.w(0, 0);  // steep axis
      p.g(0, 1) = 2.0 * 0.5 * p.w(0, 1);   // shallow axis
      opt.step(ps);
      p.g.zero();
      ++steps;
      if (std::abs(p.w(0, 0)) < 1e-3 && std::abs(p.w(0, 1)) < 1e-3) break;
    }
    return steps;
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Param p("w", Matrix::zeros(1, 2));
  std::vector<Param*> ps{&p};
  auto opt = Adam::plain(0.05);
  for (int i = 0; i < 600; ++i) {
    p.g(0, 0) = 2.0 * (p.w(0, 0) - 1.0);
    p.g(0, 1) = 2.0 * (p.w(0, 1) + 2.0);
    opt->step(ps);
    p.g.zero();
  }
  EXPECT_NEAR(p.w(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(p.w(0, 1), -2.0, 1e-3);
}

TEST(Optim, AdamWDecaysWeightsWithoutGradient) {
  Param p("w", Matrix::zeros(1, 1));
  p.w(0, 0) = 1.0;
  std::vector<Param*> ps{&p};
  auto opt = Adam::adamw_amsgrad(1e-3, 0.5);
  for (int i = 0; i < 10; ++i) {
    p.g.zero();  // zero gradient: only decoupled decay acts
    opt->step(ps);
  }
  EXPECT_LT(p.w(0, 0), 1.0);
  EXPECT_GT(p.w(0, 0), 0.9);  // ~ (1 - lr*wd)^10
}

TEST(Optim, FrozenParamsUntouched) {
  Param p("w", Matrix::zeros(1, 1));
  p.trainable = false;
  p.g(0, 0) = 100.0;
  std::vector<Param*> ps{&p};
  auto opt = Adam::plain(0.1);
  opt->step(ps);
  EXPECT_DOUBLE_EQ(p.w(0, 0), 0.0);
}

/// The trainer's step: begin_step on the caller, then update(i, p, scale)
/// per tensor on a pool, must equal the old serial step — scale every
/// gradient, step(), zero — bit for bit, over several steps, for every
/// optimizer variant and thread count, and must zero every gradient,
/// frozen parameters' included.
TEST(Optim, PerTensorUpdateBitIdenticalToStep) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<Optimizer>()> make;
  };
  const Case cases[] = {
      {"sgd", [] { return std::make_unique<Sgd>(0.05); }},
      {"sgd-momentum", [] { return std::make_unique<Sgd>(0.05, 0.9); }},
      {"adam", [] { return Adam::plain(1e-2); }},
      {"adam-l2",
       [] {
         Adam::Config c;
         c.lr = 1e-2;
         c.weight_decay = 0.1;
         return std::make_unique<Adam>(c);
       }},
      {"adamw-amsgrad", [] { return Adam::adamw_amsgrad(1e-2, 0.1); }},
  };
  // Odd sizes leave vector tails; the last tensor is frozen.
  const std::pair<int, int> shapes[] = {
      {3, 5}, {1, 7}, {17, 3}, {1, 1}, {4, 4}};
  auto make_params = [&] {
    Rng rng(3);
    std::vector<std::unique_ptr<Param>> ps;
    for (const auto& [r, c] : shapes)
      ps.push_back(std::make_unique<Param>("p", Matrix::xavier(r, c, rng)));
    ps.back()->trainable = false;
    return ps;
  };
  auto fill_grads = [](std::vector<Param*>& ps, int step) {
    Rng rng(100 + static_cast<std::uint64_t>(step));
    for (Param* p : ps)
      for (double& g : p->g.flat()) g = rng.uniform(-3.0, 3.0);
  };
  for (const Case& c : cases) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      auto ref_owned = make_params();
      auto got_owned = make_params();
      std::vector<Param*> ref, got;
      for (auto& p : ref_owned) ref.push_back(p.get());
      for (auto& p : got_owned) got.push_back(p.get());
      const auto ref_opt = c.make();
      const auto got_opt = c.make();
      TaskPool pool(threads);
      for (int step = 0; step < 6; ++step) {
        const double scale = 1.0 / (3 + step);
        fill_grads(ref, step);
        fill_grads(got, step);
        for (Param* p : ref)
          for (double& g : p->g.flat()) g *= scale;
        ref_opt->step(ref);
        got_opt->begin_step(got);
        pool.run(static_cast<int>(got.size()), [&](int i, int) {
          const auto pi = static_cast<std::size_t>(i);
          got_opt->update(pi, *got[pi], scale);
        });
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(std::memcmp(ref[i]->w.data(), got[i]->w.data(),
                                ref[i]->w.size() * sizeof(double)),
                    0)
              << "tensor " << i << " step " << step;
          for (double g : got[i]->g.flat()) ASSERT_EQ(g, 0.0) << "tensor " << i;
          for (double g : ref[i]->g.flat()) ASSERT_EQ(g, 0.0) << "tensor " << i;
        }
      }
      // The frozen tensor never moved.
      const auto fresh = make_params();
      EXPECT_EQ(std::memcmp(got.back()->w.data(), fresh.back()->w.data(),
                            fresh.back()->w.size() * sizeof(double)),
                0);
    }
  }
}

TEST(Optim, Names) {
  EXPECT_EQ(Adam::plain(1e-3)->name(), "adam");
  EXPECT_EQ(Adam::adamw_amsgrad()->name(), "adamw");
  EXPECT_EQ(Sgd(0.1).name(), "sgd");
}

// ---------------------------------------------------------------------------
// RgcnNet structural tests (gradient correctness lives in
// nn_gradcheck_test.cpp).
// ---------------------------------------------------------------------------

graph::GraphTensors toy_graph(int num_nodes, int vocab_size,
                              std::uint64_t seed) {
  graph::GraphTensors g;
  g.name = "toy";
  g.num_nodes = num_nodes;
  Rng rng(seed);
  for (int i = 0; i < num_nodes; ++i) {
    g.token.push_back(
        static_cast<int>(rng.uniform_index(static_cast<std::size_t>(vocab_size))));
    g.kind.push_back(static_cast<int>(rng.uniform_index(3)));
  }
  for (int rel = 0; rel < graph::kNumEdgeRelations; ++rel) {
    for (int e = 0; e < num_nodes; ++e) {
      const int s = static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(num_nodes)));
      const int d = static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(num_nodes)));
      g.rel_edges[static_cast<std::size_t>(2 * rel)].emplace_back(s, d);
      g.rel_edges[static_cast<std::size_t>(2 * rel + 1)].emplace_back(d, s);
    }
  }
  return g;
}

RgcnNetConfig toy_config(int vocab_size) {
  RgcnNetConfig c;
  c.vocab_size = vocab_size;
  c.emb_dim = 6;
  c.rgcn_layers = 2;
  c.hidden = 7;
  c.dense_hidden1 = 8;
  c.dense_hidden2 = 5;
  c.head_sizes = {3, 2};
  c.extra_features = 2;
  c.seed = 99;
  return c;
}

TEST(RgcnNet, ForwardShapes) {
  RgcnNet net(toy_config(10));
  const auto g = toy_graph(9, 10, 5);
  const auto gc = net.encode(g);
  EXPECT_EQ(static_cast<int>(gc.readout.size()), 7);
  EXPECT_EQ(gc.H.size(), 3u);  // emb + 2 layers
  const std::vector<double> extra{0.5, -0.5};
  const auto dc = net.dense_forward(gc.readout, extra);
  EXPECT_EQ(static_cast<int>(dc.logits.size()), 5);
  EXPECT_EQ(net.head_logits(dc, 0).size(), 3u);
  EXPECT_EQ(net.head_logits(dc, 1).size(), 2u);
}

TEST(RgcnNet, DeterministicForward) {
  RgcnNet a(toy_config(10)), b(toy_config(10));
  const auto g = toy_graph(9, 10, 5);
  const std::vector<double> extra{0.1, 0.2};
  const auto da = a.forward(g, extra);
  const auto db = b.forward(g, extra);
  for (std::size_t i = 0; i < da.logits.size(); ++i)
    EXPECT_DOUBLE_EQ(da.logits[i], db.logits[i]);
}

TEST(RgcnNet, ExtraFeaturesChangeOutput) {
  RgcnNet net(toy_config(10));
  const auto g = toy_graph(9, 10, 5);
  const auto d1 = net.forward(g, std::vector<double>{0.0, 0.0});
  const auto d2 = net.forward(g, std::vector<double>{5.0, -3.0});
  bool differ = false;
  for (std::size_t i = 0; i < d1.logits.size(); ++i)
    if (std::abs(d1.logits[i] - d2.logits[i]) > 1e-9) differ = true;
  EXPECT_TRUE(differ);
}

TEST(RgcnNet, StateDictRoundTrip) {
  RgcnNet a(toy_config(10));
  auto cfg_b = toy_config(10);
  cfg_b.seed = 123456;  // different init
  RgcnNet b(cfg_b);
  const auto g = toy_graph(9, 10, 5);
  const std::vector<double> extra{0.1, 0.2};
  b.load_state_dict(a.state_dict());
  const auto da = a.forward(g, extra);
  const auto db = b.forward(g, extra);
  for (std::size_t i = 0; i < da.logits.size(); ++i)
    EXPECT_DOUBLE_EQ(da.logits[i], db.logits[i]);
}

TEST(RgcnNet, GnnOnlyLoadPreservesDense) {
  RgcnNet a(toy_config(10));
  auto cfg_b = toy_config(10);
  cfg_b.seed = 4242;
  RgcnNet b(cfg_b);
  const auto before = b.state_dict();
  b.load_state_dict(a.state_dict(), /*load_gnn_only=*/true);
  const auto after = b.state_dict();
  // GNN params now equal a's; dense params unchanged from b's init.
  EXPECT_EQ(after.get("emb.token"), a.state_dict().get("emb.token"));
  EXPECT_EQ(after.get("dense.w1"), before.get("dense.w1"));
  EXPECT_NE(after.get("rgcn.0.w0"), before.get("rgcn.0.w0"));
}

TEST(RgcnNet, FreezeGnnStopsGnnUpdates) {
  RgcnNet net(toy_config(10));
  net.set_gnn_frozen(true);
  EXPECT_TRUE(net.gnn_frozen());
  EXPECT_LT(net.num_weights(/*trainable_only=*/true),
            net.num_weights(/*trainable_only=*/false));
  // Frozen GNN backward is a no-op: grads stay zero.
  const auto g = toy_graph(9, 10, 5);
  const auto gc = net.encode(g);
  std::vector<double> dr(7, 1.0);
  net.gnn_backward(gc, dr);
  for (Param* p : net.params()) {
    if (p->name.rfind("rgcn.", 0) == 0 || p->name.rfind("emb.", 0) == 0) {
      for (double v : p->g.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }
}

/// Phase-B tasks own disjoint parameter sets that cover the net, so each
/// task can update its own parameters without a step of its own: every
/// parameter belongs to exactly one task, the dense layers' tasks own
/// exactly the dense parameters, and with a frozen GNN the tasks the
/// trainer still runs (the dense ones) own exactly the trainable ones.
TEST(RgcnNet, EveryParamOwnedByExactlyOneGradTask) {
  for (int num_bases : {0, 2}) {
    for (bool frozen : {false, true}) {
      SCOPED_TRACE("bases=" + std::to_string(num_bases) +
                   " frozen=" + std::to_string(frozen));
      auto cfg = toy_config(10);
      cfg.num_bases = num_bases;
      RgcnNet net(cfg);
      net.set_gnn_frozen(frozen);
      const auto params = net.params();
      const int gnn_tasks = net.num_gnn_grad_tasks();
      std::vector<int> owners(params.size(), 0);
      for (int t = 0; t < gnn_tasks + RgcnNet::kDenseLayers; ++t) {
        for (int p : net.grad_task_params(t)) {
          ASSERT_GE(p, 0);
          ASSERT_LT(p, static_cast<int>(params.size()));
          ++owners[static_cast<std::size_t>(p)];
          const bool dense =
              params[static_cast<std::size_t>(p)]->name.rfind("dense.", 0) == 0;
          EXPECT_EQ(dense, t >= gnn_tasks)
              << params[static_cast<std::size_t>(p)]->name << " task " << t;
          if (frozen) {
            EXPECT_EQ(params[static_cast<std::size_t>(p)]->trainable,
                      t >= gnn_tasks);
          }
        }
      }
      for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_EQ(owners[i], 1) << params[i]->name;
      EXPECT_THROW(net.grad_task_params(gnn_tasks + RgcnNet::kDenseLayers),
                   Error);
    }
  }
}

TEST(RgcnNet, BasisDecompositionRuns) {
  auto cfg = toy_config(10);
  cfg.num_bases = 2;
  RgcnNet net(cfg);
  const auto g = toy_graph(9, 10, 5);
  const auto dc = net.forward(g, std::vector<double>{0.0, 0.0});
  EXPECT_EQ(dc.logits.size(), 5u);
  // Far fewer relation weights than the full model.
  RgcnNet full(toy_config(10));
  EXPECT_LT(net.num_weights(), full.num_weights());
}

TEST(RgcnNet, RejectsBadConfigs) {
  auto cfg = toy_config(10);
  cfg.vocab_size = 0;
  EXPECT_THROW(RgcnNet{cfg}, Error);
  cfg = toy_config(10);
  cfg.head_sizes.clear();
  EXPECT_THROW(RgcnNet{cfg}, Error);
}

TEST(RgcnNet, RejectsEmptyGraph) {
  RgcnNet net(toy_config(10));
  graph::GraphTensors g;
  g.num_nodes = 0;
  EXPECT_THROW(net.encode(g), Error);
}

// ---------------------------------------------------------------------------
// Trainer: toy-task convergence.
// ---------------------------------------------------------------------------

TEST(Trainer, LearnsToSeparateTwoGraphClasses) {
  // Class 0: nodes mostly token 1; class 1: nodes mostly token 2. The net
  // must learn to classify by token content.
  auto cfg = toy_config(4);
  cfg.extra_features = 0;
  cfg.head_sizes = {2};
  RgcnNet net(cfg);

  std::vector<graph::GraphTensors> graphs;
  std::vector<TrainSample> samples;
  for (int i = 0; i < 12; ++i) {
    auto g = toy_graph(8, 1, static_cast<std::uint64_t>(i));
    const int label = i % 2;
    for (auto& t : g.token) t = label + 1;
    graphs.push_back(std::move(g));
  }
  for (int i = 0; i < 12; ++i) {
    TrainSample s;
    s.graph = &graphs[static_cast<std::size_t>(i)];
    s.members.push_back(SampleMember{{}, {i % 2}});
    samples.push_back(std::move(s));
  }

  auto opt = Adam::plain(5e-3);
  TrainerConfig tc;
  tc.max_epochs = 120;
  tc.batch_size = 4;
  tc.min_loss = 1e-3;
  const auto rep = train(net, *opt, samples, tc);
  EXPECT_EQ(evaluate_accuracy(net, samples), 1.0);
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front());
}

TEST(Trainer, ExtraFeaturesAloneCanDriveLabels) {
  // Same graph for every sample; label is determined by the extra feature.
  auto cfg = toy_config(5);
  cfg.extra_features = 1;
  cfg.head_sizes = {2};
  RgcnNet net(cfg);
  const auto g = toy_graph(8, 5, 77);

  std::vector<TrainSample> samples;
  TrainSample s;
  s.graph = &g;
  for (int i = 0; i < 8; ++i)
    s.members.push_back(
        SampleMember{{i % 2 ? 1.0 : -1.0}, {i % 2}});
  samples.push_back(std::move(s));

  auto opt = Adam::plain(1e-2);
  TrainerConfig tc;
  tc.max_epochs = 200;
  tc.min_loss = 1e-3;
  tc.patience = 50;
  train(net, *opt, samples, tc);
  EXPECT_EQ(evaluate_accuracy(net, samples), 1.0);
}

TEST(Trainer, FrozenGnnTrainsFasterPerEpoch) {
  auto cfg = toy_config(6);
  cfg.extra_features = 0;
  cfg.head_sizes = {2};

  std::vector<graph::GraphTensors> graphs;
  for (int i = 0; i < 16; ++i)
    graphs.push_back(toy_graph(30, 6, static_cast<std::uint64_t>(i)));
  std::vector<TrainSample> samples;
  for (int i = 0; i < 16; ++i) {
    TrainSample s;
    s.graph = &graphs[static_cast<std::size_t>(i)];
    s.members.push_back(SampleMember{{}, {i % 2}});
    samples.push_back(std::move(s));
  }

  TrainerConfig tc;
  tc.max_epochs = 30;
  tc.patience = 1000;  // run all epochs for a fair timing comparison
  tc.min_loss = 0.0;

  // Wall clock on a noisy shared box: compare best-of-3 runs, not single
  // samples — the minimum strips scheduler preemption from both sides.
  double full_s = 1e30, frozen_s = 1e30;
  int full_epochs = -1, frozen_epochs = -1;
  for (int rep = 0; rep < 3; ++rep) {
    RgcnNet full(cfg);
    auto o1 = Adam::plain(1e-3);
    const auto rep_full = train(full, *o1, samples, tc);
    full_s = std::min(full_s, rep_full.seconds);
    full_epochs = rep_full.epochs_run;

    RgcnNet frozen(cfg);
    frozen.set_gnn_frozen(true);
    auto o2 = Adam::plain(1e-3);
    const auto rep_frozen = train(frozen, *o2, samples, tc);
    frozen_s = std::min(frozen_s, rep_frozen.seconds);
    frozen_epochs = rep_frozen.epochs_run;
  }
  EXPECT_EQ(full_epochs, frozen_epochs);
  // The cached-encode path must be substantially faster (paper: 4.18×).
  EXPECT_LT(frozen_s, full_s);
}

TEST(Trainer, PredictLabelsMatchesEvaluate) {
  auto cfg = toy_config(4);
  cfg.extra_features = 0;
  cfg.head_sizes = {2, 3};
  RgcnNet net(cfg);
  const auto g = toy_graph(8, 4, 3);
  const auto preds = predict_labels(net, g, {});
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_GE(preds[0], 0);
  EXPECT_LT(preds[0], 2);
  EXPECT_GE(preds[1], 0);
  EXPECT_LT(preds[1], 3);
}

// ---------------------------------------------------------------------------
// Trainer: bit-identity across thread counts.
// ---------------------------------------------------------------------------

/// The oracle: the one-thread trainer as it was before batches were split
/// over threads — per sample, encode (or the frozen cache), then
/// dense_backward and gnn_backward in member order, straight into the
/// parameters' gradients; evaluate_accuracy's serial one-encode-per-graph
/// pass at the end.
TrainReport sequential_train(RgcnNet& net, Optimizer& opt,
                             std::span<const TrainSample> samples,
                             const TrainerConfig& cfg) {
  std::unordered_map<const graph::GraphTensors*, RgcnNet::GnnCache> frozen;
  if (net.gnn_frozen())
    for (const TrainSample& s : samples) {
      auto [it, inserted] = frozen.try_emplace(s.graph);
      if (inserted) net.encode_into(*s.graph, it->second);
    }
  RgcnNet::GnnCache gc_ws;
  RgcnNet::DenseCache dc;
  std::vector<double> d_readout, dlogits;
  auto sample_backward = [&](const TrainSample& s,
                             const RgcnNet::GnnCache& gc) {
    d_readout.assign(static_cast<std::size_t>(net.config().hidden), 0.0);
    double loss = 0.0;
    for (const SampleMember& m : s.members) {
      net.dense_forward_into(gc.readout, m.extra, dc);
      dlogits.assign(dc.logits.size(), 0.0);
      int off = 0;
      for (std::size_t h = 0; h < m.labels.size(); ++h) {
        const auto len =
            static_cast<std::size_t>(net.config().head_sizes[h]);
        const auto o = static_cast<std::size_t>(off);
        loss += softmax_cross_entropy(
            std::span<const double>(dc.logits).subspan(o, len), m.labels[h],
            std::span<double>(dlogits).subspan(o, len));
        off += static_cast<int>(len);
      }
      const auto dr = net.dense_backward(dc, dlogits);
      for (std::size_t d = 0; d < d_readout.size(); ++d) d_readout[d] += dr[d];
    }
    net.gnn_backward(gc, d_readout);
    return loss;
  };

  Rng rng(cfg.seed);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto params = net.params();
  TrainReport report;
  double best_loss = 1e300;
  int stale = 0;
  std::vector<const TrainSample*> batch;
  for (int epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t total_members = 0;
    net.zero_grad();
    batch.clear();
    int batch_members = 0;
    auto flush = [&]() {
      if (batch_members == 0) return;
      std::vector<double> batch_loss;
      for (const TrainSample* s : batch) {
        const RgcnNet::GnnCache* gc = &gc_ws;
        if (net.gnn_frozen())
          gc = &frozen.at(s->graph);
        else
          net.encode_into(*s->graph, gc_ws);
        batch_loss.push_back(sample_backward(*s, *gc));
      }
      double loss = 0.0;
      for (double v : batch_loss) loss += v;
      epoch_loss += loss;
      for (Param* p : params)
        for (double& g : p->g.flat()) g *= 1.0 / batch_members;
      opt.step(params);
      net.zero_grad();
      batch.clear();
      batch_members = 0;
    };
    for (std::size_t oi : order) {
      batch.push_back(&samples[oi]);
      total_members += samples[oi].members.size();
      batch_members += static_cast<int>(samples[oi].members.size());
      if (batch_members >= cfg.batch_size) flush();
    }
    flush();
    const double mean_loss = epoch_loss / static_cast<double>(total_members);
    report.epoch_loss.push_back(mean_loss);
    if (mean_loss < best_loss - 1e-4) {
      best_loss = mean_loss;
      stale = 0;
    } else {
      ++stale;
    }
    if (mean_loss < cfg.min_loss || stale >= cfg.patience) break;
  }
  report.epochs_run = static_cast<int>(report.epoch_loss.size());
  report.final_loss = report.epoch_loss.back();

  std::size_t correct = 0, total = 0;
  std::unordered_map<const graph::GraphTensors*, std::vector<double>> readouts;
  for (const TrainSample& s : samples) {
    auto [it, inserted] = readouts.try_emplace(s.graph);
    if (inserted) it->second = net.encode(*s.graph).readout;
    for (const SampleMember& m : s.members) {
      net.dense_forward_into(it->second, m.extra, dc);
      bool all = true;
      for (std::size_t h = 0; h < m.labels.size(); ++h)
        all = all && argmax_index(net.head_logits(dc, static_cast<int>(h))) ==
                         m.labels[h];
      correct += all ? 1 : 0;
      ++total;
    }
  }
  report.train_accuracy =
      static_cast<double>(correct) / static_cast<double>(total);
  return report;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Graphs of mixed sizes, `members` members per graph (power scenario: 4
/// caps per region; EDP: 1 per region), random labels.
struct TrainSet {
  std::vector<graph::GraphTensors> graphs;
  std::vector<TrainSample> samples;
  TrainSet(int num_graphs, int members, int vocab, std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < num_graphs; ++i)
      graphs.push_back(toy_graph(4 + static_cast<int>(rng.uniform_index(60)),
                                 vocab, seed + static_cast<std::uint64_t>(i)));
    for (const auto& g : graphs) {
      TrainSample s;
      s.graph = &g;
      for (int k = 0; k < members; ++k)
        s.members.push_back(SampleMember{
            {rng.uniform(-1.0, 1.0), 0.25 * k},
            {static_cast<int>(rng.uniform_index(3)),
             static_cast<int>(rng.uniform_index(2))}});
      samples.push_back(std::move(s));
    }
  }
};

TEST(Trainer, TrainingBitIdenticalAcrossThreadCounts) {
  struct Case {
    const char* name;
    int graphs, members, num_bases;
    bool frozen;
  };
  const Case cases[] = {{"power", 14, 4, 0, false},
                        {"edp", 37, 1, 0, false},
                        {"frozen", 14, 4, 0, true},
                        {"bases", 37, 1, 2, false}};
  for (const Case& c : cases) {
    auto cfg = toy_config(10);
    cfg.num_bases = c.num_bases;
    const TrainSet set(c.graphs, c.members, cfg.vocab_size, 17);
    TrainerConfig tc;
    tc.max_epochs = 4;
    tc.patience = 100;
    tc.min_loss = 0.0;
    tc.batch_size = 16;

    RgcnNet ref(cfg);
    ref.set_gnn_frozen(c.frozen);
    auto ref_opt = Adam::adamw_amsgrad(3e-3, 1e-4);
    const TrainReport want = sequential_train(ref, *ref_opt, set.samples, tc);
    const StateDict want_sd = ref.state_dict();

    for (int threads : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      RgcnNet net(cfg);
      net.set_gnn_frozen(c.frozen);
      auto opt = Adam::adamw_amsgrad(3e-3, 1e-4);
      tc.threads = threads;
      const TrainReport got = train(net, *opt, set.samples, tc);
      EXPECT_TRUE(same_bits(got.epoch_loss, want.epoch_loss));
      EXPECT_EQ(got.train_accuracy, want.train_accuracy);
      EXPECT_EQ(evaluate_accuracy(net, set.samples), want.train_accuracy);
      const StateDict sd = net.state_dict();
      ASSERT_EQ(sd.names(), want_sd.names());
      for (const std::string& n : sd.names())
        EXPECT_TRUE(same_bits(sd.get(n), want_sd.get(n))) << n;
    }
  }
}

TEST(Trainer, RejectsEmptySampleSet) {
  RgcnNet net(toy_config(4));
  auto opt = Adam::plain(1e-3);
  std::vector<TrainSample> samples;
  TrainerConfig tc;
  EXPECT_THROW(train(net, *opt, samples, tc), Error);
}

}  // namespace
}  // namespace pnp::nn
