#pragma once

/// \file trainer.hpp
/// Mini-batch training loop for RgcnNet.
///
/// Samples are grouped by graph: all members of a group (e.g. the four
/// power caps of one OpenMP region in scenario 1) share a single GNN
/// forward/backward pass, with per-member dense passes — mathematically
/// identical to independent samples, but ~4× cheaper on the GNN stage.
///
/// When the GNN stage is frozen (transfer learning, paper §IV-B), each
/// graph's readout is encoded once and reused across epochs, which is where
/// the paper's reported 4.18× training-time reduction comes from.
///
/// Threads: each mini-batch runs on a std::thread pool owned by train()
/// (TrainerConfig::threads, by default the calling thread's CPU affinity
/// count; joined before train() returns). The backward pass is split in two
/// phases — per sample, the forward pass and the input gradients; then per
/// gradient tensor, the parameter gradients, adding up the samples in batch
/// order (RgcnNet's dense_/gnn_input_grads and dense_/gnn_param_grads). So
/// every gradient element receives the same floating-point adds in the same
/// order as a one-thread loop over the batch. Each phase-B task then applies
/// the optimizer update to the tensors it owns (Optimizer::update, which
/// also zeroes their gradients), so the step runs on the pool too. The
/// trained weights, epoch losses and accuracy are bit-identical for every
/// thread count, in every build (tests/nn_test.cpp,
/// TrainingBitIdenticalAcrossThreadCounts).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/flow_graph.hpp"
#include "nn/optim.hpp"
#include "nn/rgcn_net.hpp"

namespace pnp::nn {

/// One (extra-features, labels) pair attached to a graph.
struct SampleMember {
  std::vector<double> extra;  ///< length = RgcnNetConfig::extra_features
  std::vector<int> labels;    ///< one label per head
};

/// A graph and its attached members.
struct TrainSample {
  const graph::GraphTensors* graph = nullptr;
  std::vector<SampleMember> members;
};

struct TrainerConfig {
  int max_epochs = 80;
  int batch_size = 16;  ///< members per optimizer step (Table II)
  int patience = 12;    ///< early-stop after this many non-improving epochs
  double min_loss = 1e-2;  ///< early-stop when mean loss drops below this
  std::uint64_t seed = 1234;
  bool verbose = false;
  /// Threads per mini-batch, the caller included: ≤ 0 = the calling
  /// thread's CPU affinity count. Results do not depend on it. Inside a
  /// task of a multi-threaded TaskPool loop (e.g. a concurrent LOOCV fold)
  /// training runs on the calling thread.
  int threads = 0;
};

struct TrainReport {
  std::vector<double> epoch_loss;  ///< mean per-member loss per epoch
  int epochs_run = 0;
  double final_loss = 0.0;
  double train_accuracy = 0.0;  ///< exact-match over all heads
  double seconds = 0.0;         ///< wall-clock training time
};

/// Train `net` in place. Loss = sum of per-head softmax cross-entropies.
TrainReport train(RgcnNet& net, Optimizer& opt,
                  std::span<const TrainSample> samples,
                  const TrainerConfig& cfg);

/// Exact-match accuracy of `net` on `samples` (all heads must match). The
/// per-graph encodes run on as many threads as the CPU affinity mask holds.
double evaluate_accuracy(const RgcnNet& net,
                         std::span<const TrainSample> samples);

/// Predicted label per head for one graph + extra features.
std::vector<int> predict_labels(const RgcnNet& net,
                                const graph::GraphTensors& g,
                                std::span<const double> extra);

}  // namespace pnp::nn
