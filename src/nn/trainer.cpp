#include "nn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "common/error.hpp"
#include "nn/loss.hpp"
#include "nn/task_pool.hpp"

namespace pnp::nn {

namespace {

/// TrainerConfig::threads → pool size. Inside a task of another pool
/// (concurrent LOOCV folds) TaskPool itself caps the pool at one thread.
int resolve_threads(int requested) {
  return requested > 0 ? requested : affinity_cpu_count();
}

/// One member's dense pass and its input gradients.
struct MemberSlot {
  RgcnNet::DenseCache dc;
  RgcnNet::DenseGrads dg;
};

/// What one sample of a batch carries from phase A to phase B. Slots are
/// indexed by batch position and reused from batch to batch (and as the
/// encode workspaces of GraphReadouts), so steady-state training
/// allocates nothing.
struct SampleSlot {
  RgcnNet::GnnCache gc;  ///< this sample's encode (unused when frozen)
  RgcnNet::GnnGrads gg;
  std::vector<MemberSlot> members;
  std::vector<double> d_readout;
  double loss = 0.0;
};

/// The readouts of the distinct graphs of a sample set, encoded on the
/// pool into preallocated storage.
class GraphReadouts {
 public:
  /// `workspace(slot)` is the encode workspace of pool slot `slot`.
  template <class Workspace>
  void build(const RgcnNet& net, std::span<const TrainSample> samples,
             TaskPool& pool, Workspace&& workspace) {
    index_.clear();
    graphs_.clear();
    for (const TrainSample& s : samples) {
      PNP_CHECK(s.graph != nullptr);
      if (index_.try_emplace(s.graph, graphs_.size()).second)
        graphs_.push_back(s.graph);
    }
    hidden_ = static_cast<std::size_t>(net.config().hidden);
    flat_.resize(graphs_.size() * hidden_);
    pool.run(static_cast<int>(graphs_.size()), [&](int i, int slot) {
      RgcnNet::GnnCache& ws = workspace(slot);
      const auto gi = static_cast<std::size_t>(i);
      net.encode_into(*graphs_[gi], ws);
      std::copy(ws.readout.begin(), ws.readout.end(),
                flat_.begin() + static_cast<std::ptrdiff_t>(gi * hidden_));
    });
  }

  std::span<const double> of(const graph::GraphTensors* g) const {
    return std::span<const double>(flat_).subspan(index_.at(g) * hidden_,
                                                  hidden_);
  }

 private:
  std::unordered_map<const graph::GraphTensors*, std::size_t> index_;
  std::vector<const graph::GraphTensors*> graphs_;
  std::vector<double> flat_;
  std::size_t hidden_ = 0;
};

/// Exact-match accuracy over `samples` given their graphs' readouts.
double accuracy(const RgcnNet& net, std::span<const TrainSample> samples,
                const GraphReadouts& readouts) {
  std::size_t correct = 0, total = 0;
  RgcnNet::DenseCache dc;
  for (const TrainSample& s : samples) {
    for (const SampleMember& m : s.members) {
      net.dense_forward_into(readouts.of(s.graph), m.extra, dc);
      bool all = true;
      for (std::size_t h = 0; h < m.labels.size(); ++h) {
        const auto logits = net.head_logits(dc, static_cast<int>(h));
        if (argmax_index(logits) != m.labels[h]) {
          all = false;
          break;
        }
      }
      correct += all ? 1 : 0;
      ++total;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) /
                                static_cast<double>(total);
}

/// Phase A for one sample: dense passes, loss and every input gradient,
/// written to `slot` only. Sums the member losses in member and head
/// order, as the one-thread loop always has.
void sample_input_grads(const RgcnNet& net, const TrainSample& s,
                        std::span<const double> readout, SampleSlot& slot) {
  const RgcnNetConfig& cfg = net.config();
  if (slot.members.size() < s.members.size())
    slot.members.resize(s.members.size());
  slot.d_readout.assign(static_cast<std::size_t>(cfg.hidden), 0.0);
  double loss = 0.0;
  for (std::size_t k = 0; k < s.members.size(); ++k) {
    const SampleMember& m = s.members[k];
    MemberSlot& ms = slot.members[k];
    net.dense_forward_into(readout, m.extra, ms.dc);
    ms.dg.dlogits.assign(ms.dc.logits.size(), 0.0);
    PNP_CHECK(m.labels.size() == cfg.head_sizes.size());
    int off = 0;
    for (std::size_t h = 0; h < m.labels.size(); ++h) {
      const int len = cfg.head_sizes[h];
      loss += softmax_cross_entropy(
          std::span<const double>(ms.dc.logits)
              .subspan(static_cast<std::size_t>(off),
                       static_cast<std::size_t>(len)),
          m.labels[h],
          std::span<double>(ms.dg.dlogits)
              .subspan(static_cast<std::size_t>(off),
                       static_cast<std::size_t>(len)));
      off += len;
    }
    net.dense_input_grads(ms.dc, ms.dg);
    for (std::size_t d = 0; d < slot.d_readout.size(); ++d)
      slot.d_readout[d] += ms.dg.d_readout[d];
  }
  slot.loss = loss;
  if (!net.gnn_frozen())
    net.gnn_input_grads(slot.gc, slot.d_readout, slot.gg);
}

}  // namespace

TrainReport train(RgcnNet& net, Optimizer& opt,
                  std::span<const TrainSample> samples,
                  const TrainerConfig& cfg) {
  PNP_CHECK_MSG(!samples.empty(), "no training samples");
  const auto t0 = std::chrono::steady_clock::now();

  // Validate up front and build every graph's CSR form, row plan and (for
  // the GNN backward) source index before any worker touches them (lazy
  // builds are not thread-safe).
  const bool frozen = net.gnn_frozen();
  for (const TrainSample& s : samples) {
    PNP_CHECK(s.graph != nullptr && !s.members.empty());
    if (frozen)
      s.graph->finalize();
    else
      s.graph->finalize_backward();
  }

  TaskPool pool(resolve_threads(cfg.threads));
  std::vector<Matrix> scratch(static_cast<std::size_t>(pool.size()));

  // Slots are sized for the largest graph here, on the calling thread, so
  // the workers never allocate them (and never spread them over their own
  // malloc arenas). The first pool.size() slots double as the workers'
  // encode workspaces; a frozen GNN needs no other GNN buffers.
  std::vector<const graph::GraphTensors*> graphs;
  for (const TrainSample& s : samples) graphs.push_back(s.graph);
  std::vector<SampleSlot> slots;
  auto grow_slots = [&](std::size_t n) {
    while (slots.size() < n) {
      const bool encodes =
          !frozen || slots.size() < static_cast<std::size_t>(pool.size());
      SampleSlot& slot = slots.emplace_back();
      if (encodes) net.reserve(graphs, slot.gc, frozen ? nullptr : &slot.gg);
    }
  };
  grow_slots(static_cast<std::size_t>(pool.size()));
  auto workspace = [&slots](int slot) -> RgcnNet::GnnCache& {
    return slots[static_cast<std::size_t>(slot)].gc;
  };

  // Frozen GNN: the readouts never change, so encode each graph once up
  // front and run only the dense passes per epoch.
  GraphReadouts readouts;
  if (frozen) readouts.build(net, samples, pool, workspace);

  Rng rng(cfg.seed);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  auto param_ptrs = net.params();

  TrainReport report;
  double best_loss = 1e300;
  int stale = 0;

  std::vector<const TrainSample*> batch;
  const int dense_owner = net.num_gnn_grad_tasks();
  const int gnn_tasks = frozen ? 0 : net.num_gnn_grad_tasks();

  // One optimizer step on the staged batch; returns the batch's summed
  // member loss. Phase A fills one slot per sample; phase B runs one task
  // per gradient tensor group, each walking the samples in batch order —
  // every gradient element receives the same adds in the same order as a
  // one-thread loop over the batch, whatever the thread count. A task then
  // updates the parameters it owns (RgcnNet::grad_task_params) with the
  // batch mean and zeroes their gradients: no task reads another's
  // weights, so the step needs no pass of its own.
  auto batch_step = [&](double grad_scale) -> double {
    const int nb = static_cast<int>(batch.size());
    grow_slots(batch.size());
    pool.run(nb, [&](int i, int) {
      const TrainSample& s = *batch[static_cast<std::size_t>(i)];
      SampleSlot& slot = slots[static_cast<std::size_t>(i)];
      if (frozen) {
        sample_input_grads(net, s, readouts.of(s.graph), slot);
      } else {
        net.encode_into(*s.graph, slot.gc);
        sample_input_grads(net, s, slot.gc.readout, slot);
      }
    });
    opt.begin_step(param_ptrs);
    pool.run(gnn_tasks + RgcnNet::kDenseLayers, [&](int task, int worker) {
      for (int i = 0; i < nb; ++i) {
        const SampleSlot& slot = slots[static_cast<std::size_t>(i)];
        if (task < gnn_tasks) {
          net.gnn_param_grads(task, slot.gc, slot.gg,
                              scratch[static_cast<std::size_t>(worker)]);
          continue;
        }
        const std::size_t members =
            batch[static_cast<std::size_t>(i)]->members.size();
        for (std::size_t k = 0; k < members; ++k)
          net.dense_param_grads(task - gnn_tasks, slot.members[k].dc,
                                slot.members[k].dg);
      }
      const int owner =
          task < gnn_tasks ? task : dense_owner + task - gnn_tasks;
      for (int p : net.grad_task_params(owner))
        opt.update(static_cast<std::size_t>(p),
                   *param_ptrs[static_cast<std::size_t>(p)], grad_scale);
    });
    double loss = 0.0;
    for (int i = 0; i < nb; ++i) loss += slots[static_cast<std::size_t>(i)].loss;
    return loss;
  };

  // Each step leaves the gradients it used zeroed; a frozen GNN's are
  // never written.
  net.zero_grad();
  for (int epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t total_members = 0;

    batch.clear();
    int batch_members = 0;
    auto flush = [&]() {
      if (batch_members == 0) return;
      epoch_loss += batch_step(1.0 / batch_members);
      batch.clear();
      batch_members = 0;
    };

    for (std::size_t oi : order) {
      const TrainSample& s = samples[oi];
      batch.push_back(&s);
      total_members += s.members.size();
      batch_members += static_cast<int>(s.members.size());
      if (batch_members >= cfg.batch_size) flush();
    }
    flush();

    const double mean_loss = epoch_loss / static_cast<double>(total_members);
    report.epoch_loss.push_back(mean_loss);
    if (cfg.verbose)
      std::printf("epoch %3d  loss %.4f\n", epoch, mean_loss);

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
  // A frozen GNN's weights did not move (the optimizer skips frozen
  // parameters), so its up-front readouts are still current.
  if (!frozen) readouts.build(net, samples, pool, workspace);
  report.train_accuracy = accuracy(net, samples, readouts);
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

double evaluate_accuracy(const RgcnNet& net,
                         std::span<const TrainSample> samples) {
  for (const TrainSample& s : samples) {
    PNP_CHECK(s.graph != nullptr);
    s.graph->finalize();
  }
  TaskPool pool(resolve_threads(0));
  std::vector<const graph::GraphTensors*> graphs;
  for (const TrainSample& s : samples) graphs.push_back(s.graph);
  std::vector<RgcnNet::GnnCache> ws(static_cast<std::size_t>(pool.size()));
  for (RgcnNet::GnnCache& w : ws) net.reserve(graphs, w, nullptr);
  GraphReadouts readouts;
  readouts.build(net, samples, pool, [&ws](int slot) -> RgcnNet::GnnCache& {
    return ws[static_cast<std::size_t>(slot)];
  });
  return accuracy(net, samples, readouts);
}

std::vector<int> predict_labels(const RgcnNet& net,
                                const graph::GraphTensors& g,
                                std::span<const double> extra) {
  const auto dc = net.forward(g, extra);
  std::vector<int> out;
  out.reserve(net.config().head_sizes.size());
  for (std::size_t h = 0; h < net.config().head_sizes.size(); ++h)
    out.push_back(argmax_index(net.head_logits(dc, static_cast<int>(h))));
  return out;
}

}  // namespace pnp::nn
