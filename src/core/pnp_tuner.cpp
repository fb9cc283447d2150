#include "core/pnp_tuner.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "core/config_search.hpp"
#include "core/tuner_artifact.hpp"
#include "hw/machine_generator.hpp"
#include "ir/extract.hpp"
#include "nn/loss.hpp"

namespace pnp::core {

namespace {

constexpr int kNumCounters = kNumProfiledCounters;

std::array<double, kNumCounters> counter_values(const hw::Counters& c) {
  return {c.instructions, c.l1_misses, c.l2_misses, c.l3_misses,
          c.branch_mispredictions};
}

/// Head logits of one uncached prediction. The encode and dense
/// workspaces are per-thread and reused, so a thread's predictions stop
/// allocating once its buffers fit the largest graph, and concurrent
/// const calls on any tuner never share one. The span stays valid until
/// the calling thread's next prediction.
std::span<const double> predict_logits(const nn::RgcnNet& net,
                                       const graph::GraphTensors& g,
                                       std::span<const double> extra) {
  thread_local nn::RgcnNet::GnnCache gnn;
  thread_local nn::RgcnNet::DenseCache dense;
  net.encode_into(g, gnn);
  gnn.g = nullptr;
  net.dense_forward_into(gnn.readout, extra, dense);
  return dense.logits;
}

}  // namespace

PnpTuner::PnpTuner(const MeasurementDb& db, PnpOptions options)
    : db_(db), opt_(std::move(options)) {
  graphs_.reserve(static_cast<std::size_t>(db_.num_regions()));
  for (int r = 0; r < db_.num_regions(); ++r) {
    const auto& rr = db_.region(r);
    // llvm-extract equivalent: carve the outlined region out of the
    // application module, then build its PROGRAML graph.
    const ir::Module one = ir::extract_function(rr.app->module, rr.region->function);
    graphs_.push_back(graph::build_flow_graph(one));
  }
  if (!opt_.train_cap_indices.empty())
    PNP_CHECK_MSG(!opt_.cap_onehot,
                  "unseen-cap training requires the scalar cap feature");
  const auto mf = hw::machine_feature_vector(db_.machine());
  machine_feats_.assign(mf.begin(), mf.end());
}

int PnpTuner::extra_feature_count(Mode mode) const {
  return tuner_extra_feature_count(mode == Mode::Power, opt_.cap_onehot,
                                   db_.num_caps(), opt_.use_counters,
                                   opt_.machine_features);
}

void PnpTuner::fill_extra_into(int region, std::optional<int> cap_index,
                               std::optional<double> cap_w,
                               std::span<double> x) const {
  PNP_CHECK_MSG(static_cast<int>(x.size()) == extra_feature_count(mode_),
                "extra-feature buffer holds " << x.size() << ", expected "
                                              << extra_feature_count(mode_));
  std::size_t n = 0;
  if (mode_ == Mode::Power) {
    if (opt_.cap_onehot) {
      PNP_CHECK(cap_index.has_value());
      for (int k = 0; k < db_.num_caps(); ++k)
        x[n++] = k == *cap_index ? 1.0 : 0.0;
    } else {
      // Normalized power constraint (paper §IV-B, unseen-cap experiment).
      const double w =
          cap_w.has_value()
              ? *cap_w
              : db_.space().power_caps()[static_cast<std::size_t>(
                    cap_index.value())];
      x[n++] = w / db_.space().tdp();
    }
  }
  if (opt_.use_counters) {
    const auto vals = counter_values(db_.at(region, 0, 0).counters);
    PNP_CHECK(counter_mean_.size() == kNumCounters);
    for (int i = 0; i < kNumCounters; ++i) {
      const double z = (std::log1p(vals[static_cast<std::size_t>(i)]) -
                        counter_mean_[static_cast<std::size_t>(i)]) /
                       counter_std_[static_cast<std::size_t>(i)];
      x[n++] = z;
    }
  }
  if (opt_.machine_features)
    for (double v : machine_feats_) x[n++] = v;
  PNP_CHECK(n == x.size());
}

std::vector<double> PnpTuner::make_extra(int region,
                                         std::optional<int> cap_index,
                                         std::optional<double> cap_w) const {
  std::vector<double> x(static_cast<std::size_t>(extra_feature_count(mode_)));
  fill_extra_into(region, cap_index, cap_w, x);
  return x;
}

std::vector<int> PnpTuner::power_labels(int region, int cap) const {
  return power_labels_db(db_, region, cap);
}

std::vector<int> PnpTuner::power_labels_db(const MeasurementDb& db, int region,
                                           int cap) const {
  const int c = db.best_candidate_by_time(region, cap);
  const sim::OmpConfig cfg = db.space().candidate(c);
  return tuner_labels(db.space(), tuner_classes_for(db.space(), cfg, cap),
                      opt_.factored_heads, /*edp_scenario=*/false);
}

std::vector<double> PnpTuner::fleet_extra(const MeasurementDb& db,
                                          std::span<const double> mfeats,
                                          int region, int cap) const {
  // Mirrors fill_extra_into's Mode::Power layout, but every machine-bound
  // input comes from the fleet db: the cap feature is indexed into (or
  // normalized by) *that machine's* cap grid, counters come from its
  // table, and mfeats are its machine features.
  std::vector<double> x;
  x.reserve(static_cast<std::size_t>(extra_feature_count(Mode::Power)));
  if (opt_.cap_onehot) {
    for (int k = 0; k < db.num_caps(); ++k) x.push_back(k == cap ? 1.0 : 0.0);
  } else {
    x.push_back(db.space().power_caps()[static_cast<std::size_t>(cap)] /
                db.space().tdp());
  }
  if (opt_.use_counters) {
    const auto vals = counter_values(db.at(region, 0, 0).counters);
    PNP_CHECK(counter_mean_.size() == kNumCounters);
    for (int i = 0; i < kNumCounters; ++i)
      x.push_back((std::log1p(vals[static_cast<std::size_t>(i)]) -
                   counter_mean_[static_cast<std::size_t>(i)]) /
                  counter_std_[static_cast<std::size_t>(i)]);
  }
  for (double v : mfeats) x.push_back(v);
  PNP_CHECK(static_cast<int>(x.size()) == extra_feature_count(Mode::Power));
  return x;
}

std::vector<int> PnpTuner::edp_labels(int region) const {
  const auto jb = db_.best_by_edp(region);
  const sim::OmpConfig cfg = db_.space().candidate(jb.candidate);
  return tuner_labels(db_.space(),
                      tuner_classes_for(db_.space(), cfg, jb.cap_index),
                      opt_.factored_heads, /*edp_scenario=*/true);
}

template <typename T>
sim::OmpConfig PnpTuner::decode_power_logits(std::span<const T> logits,
                                             double cap_w) const {
  const SearchSpace& s = db_.space();
  if (opt_.factored_heads) {
    const int nt = s.num_thread_classes(), ns = s.num_schedule_classes();
    const int nc = s.num_chunk_classes();
    const auto choice = search_power<T>(
        s, cap_w, logits.subspan(0, static_cast<std::size_t>(nt)),
        logits.subspan(static_cast<std::size_t>(nt),
                       static_cast<std::size_t>(ns)),
        logits.subspan(static_cast<std::size_t>(nt + ns),
                       static_cast<std::size_t>(nc)));
    return s.config_from_classes(choice.thread_cls, choice.sched_cls,
                                 choice.chunk_cls);
  }
  const int flat = dense_argmax_valid(s, logits, /*edp=*/false, cap_w);
  if (flat < 0) return s.default_config();
  const TunerClasses c = tuner_classes_from_flat(s, flat, /*edp=*/false);
  return s.config_from_classes(c.thread, c.sched, c.chunk);
}

template <typename T>
PnpTuner::JointChoice PnpTuner::decode_edp_logits(
    std::span<const T> logits) const {
  const SearchSpace& s = db_.space();
  JointChoice jc;
  if (opt_.factored_heads) {
    const int np = s.num_cap_classes(), nt = s.num_thread_classes();
    const int ns = s.num_schedule_classes(), nc = s.num_chunk_classes();
    const auto choice = search_edp<T>(
        s, logits.subspan(0, static_cast<std::size_t>(np)),
        logits.subspan(static_cast<std::size_t>(np),
                       static_cast<std::size_t>(nt)),
        logits.subspan(static_cast<std::size_t>(np + nt),
                       static_cast<std::size_t>(ns)),
        logits.subspan(static_cast<std::size_t>(np + nt + ns),
                       static_cast<std::size_t>(nc)));
    jc.cap_index = choice.cap_cls;
    jc.cfg = s.config_from_classes(choice.thread_cls, choice.sched_cls,
                                   choice.chunk_cls);
    return jc;
  }
  int flat = dense_argmax_valid(s, logits, /*edp=*/true, 0.0);
  if (flat < 0) {
    // Everything pruned: serve the default at the best-scoring default
    // slot's cap — scan the per-cap default logits is overkill here, the
    // highest cap (TDP, least constrained) is the canonical fallback.
    jc.cap_index = s.num_cap_classes() - 1;
    jc.cfg = s.default_config();
    return jc;
  }
  const TunerClasses c = tuner_classes_from_flat(s, flat, /*edp=*/true);
  jc.cap_index = c.cap;
  jc.cfg = s.config_from_classes(c.thread, c.sched, c.chunk);
  return jc;
}

template sim::OmpConfig PnpTuner::decode_power_logits<double>(
    std::span<const double>, double) const;
template sim::OmpConfig PnpTuner::decode_power_logits<float>(
    std::span<const float>, double) const;
template PnpTuner::JointChoice PnpTuner::decode_edp_logits<double>(
    std::span<const double>) const;
template PnpTuner::JointChoice PnpTuner::decode_edp_logits<float>(
    std::span<const float>) const;

std::vector<int> PnpTuner::head_layout(Mode mode) const {
  return tuner_head_layout(db_.space(), opt_.factored_heads,
                           mode == Mode::Edp);
}

void PnpTuner::build_model(Mode mode, const std::vector<int>& train_regions) {
  mode_ = mode;
  // A rebuilt model is single-machine until train_power_fleet stamps it.
  fleet_fingerprints_.clear();

  // Vocabulary strictly from training graphs; held-out regions exercise the
  // OOV path like the paper's unseen applications do.
  std::vector<const graph::FlowGraph*> corpus;
  for (int r : train_regions)
    corpus.push_back(&graphs_[static_cast<std::size_t>(r)]);
  vocab_ = graph::Vocabulary::from_graphs(corpus);

  tensors_.clear();
  tensors_.reserve(graphs_.size());
  for (const auto& g : graphs_) tensors_.push_back(graph::to_tensors(g, vocab_));

  // Counter normalization from training regions only.
  if (opt_.use_counters) {
    counter_mean_.assign(kNumCounters, 0.0);
    counter_std_.assign(kNumCounters, 0.0);
    for (int r : train_regions) {
      const auto vals = counter_values(db_.at(r, 0, 0).counters);
      for (int i = 0; i < kNumCounters; ++i)
        counter_mean_[static_cast<std::size_t>(i)] +=
            std::log1p(vals[static_cast<std::size_t>(i)]);
    }
    for (auto& m : counter_mean_) m /= static_cast<double>(train_regions.size());
    for (int r : train_regions) {
      const auto vals = counter_values(db_.at(r, 0, 0).counters);
      for (int i = 0; i < kNumCounters; ++i) {
        const double d = std::log1p(vals[static_cast<std::size_t>(i)]) -
                         counter_mean_[static_cast<std::size_t>(i)];
        counter_std_[static_cast<std::size_t>(i)] += d * d;
      }
    }
    for (auto& s : counter_std_) {
      s = std::sqrt(s / static_cast<double>(train_regions.size()));
      if (s < 1e-9) s = 1.0;
    }
  }

  nn::RgcnNetConfig nc;
  nc.vocab_size = vocab_.size();
  nc.emb_dim = opt_.emb_dim;
  nc.rgcn_layers = opt_.rgcn_layers;
  nc.hidden = opt_.hidden;
  nc.dense_hidden1 = opt_.dense_hidden1;
  nc.dense_hidden2 = opt_.dense_hidden2;
  nc.extra_features = extra_feature_count(mode);
  nc.num_bases = opt_.num_bases;
  nc.seed = opt_.seed;

  nc.head_sizes = head_layout(mode);

  net_ = std::make_unique<nn::RgcnNet>(nc);
  if (pending_gnn_.has_value()) {
    net_->load_state_dict(*pending_gnn_, /*load_gnn_only=*/true);
    net_->set_gnn_frozen(pending_freeze_);
  }
}

nn::TrainReport PnpTuner::run_training(
    const std::vector<nn::TrainSample>& samples) {
  std::unique_ptr<nn::Optimizer> opt;
  if (opt_.use_adamw)
    opt = nn::Adam::adamw_amsgrad(opt_.lr, opt_.weight_decay);
  else
    opt = nn::Adam::plain(opt_.lr);
  return nn::train(*net_, *opt, samples, opt_.trainer);
}

nn::TrainReport PnpTuner::train_power_scenario(
    const std::vector<int>& train_regions) {
  PNP_CHECK(!train_regions.empty());
  build_model(Mode::Power, train_regions);

  std::vector<int> caps = opt_.train_cap_indices;
  if (caps.empty())
    for (int k = 0; k < db_.num_caps(); ++k) caps.push_back(k);

  std::vector<nn::TrainSample> samples;
  samples.reserve(train_regions.size());
  for (int r : train_regions) {
    nn::TrainSample s;
    s.graph = &tensors_[static_cast<std::size_t>(r)];
    for (int k : caps) {
      nn::SampleMember m;
      m.extra = make_extra(r, k, std::nullopt);
      m.labels = power_labels(r, k);
      s.members.push_back(std::move(m));
    }
    samples.push_back(std::move(s));
  }
  return run_training(samples);
}

nn::TrainReport PnpTuner::train_power_fleet(
    const std::vector<const MeasurementDb*>& dbs,
    const std::vector<int>& train_regions) {
  PNP_CHECK(!train_regions.empty());
  PNP_CHECK_MSG(opt_.machine_features,
                "fleet training requires machine_features — without them the "
                "model cannot tell the fleet's machines apart");
  PNP_CHECK_MSG(!dbs.empty() && dbs[0] == &db_,
                "fleet training must start with this tuner's own db");
  for (const MeasurementDb* db : dbs) {
    PNP_CHECK(db != nullptr);
    PNP_CHECK_MSG(db->num_regions() == db_.num_regions(),
                  "fleet dbs must cover the same regions");
    for (int r = 0; r < db_.num_regions(); ++r)
      PNP_CHECK_MSG(db->region(r).region == db_.region(r).region,
                    "fleet dbs must reference the same region objects (one "
                    "graph per region serves the whole fleet)");
    PNP_CHECK_MSG(db->num_caps() == db_.num_caps(),
                  "fleet dbs must have the same cap count, got "
                      << db->num_caps() << " vs " << db_.num_caps());
    PNP_CHECK_MSG(tuner_head_layout(db->space(), opt_.factored_heads,
                                    /*edp_scenario=*/false) ==
                      tuner_head_layout(db_.space(), opt_.factored_heads,
                                        /*edp_scenario=*/false),
                  "fleet dbs must share one classifier head layout — machine '"
                      << db->machine().name << "' has a different space shape");
  }

  build_model(Mode::Power, train_regions);

  // Counter statistics must describe the whole fleet, not just machine 0:
  // refit over every (db, training region) pair.
  if (opt_.use_counters) {
    counter_mean_.assign(kNumCounters, 0.0);
    counter_std_.assign(kNumCounters, 0.0);
    const double count =
        static_cast<double>(dbs.size() * train_regions.size());
    for (const MeasurementDb* db : dbs)
      for (int r : train_regions) {
        const auto vals = counter_values(db->at(r, 0, 0).counters);
        for (int i = 0; i < kNumCounters; ++i)
          counter_mean_[static_cast<std::size_t>(i)] +=
              std::log1p(vals[static_cast<std::size_t>(i)]);
      }
    for (auto& m : counter_mean_) m /= count;
    for (const MeasurementDb* db : dbs)
      for (int r : train_regions) {
        const auto vals = counter_values(db->at(r, 0, 0).counters);
        for (int i = 0; i < kNumCounters; ++i) {
          const double d = std::log1p(vals[static_cast<std::size_t>(i)]) -
                           counter_mean_[static_cast<std::size_t>(i)];
          counter_std_[static_cast<std::size_t>(i)] += d * d;
        }
      }
    for (auto& s : counter_std_) {
      s = std::sqrt(s / count);
      if (s < 1e-9) s = 1.0;
    }
  }

  std::vector<int> caps = opt_.train_cap_indices;
  if (caps.empty())
    for (int k = 0; k < db_.num_caps(); ++k) caps.push_back(k);

  std::vector<nn::TrainSample> samples;
  samples.reserve(dbs.size() * train_regions.size());
  fleet_fingerprints_.clear();
  for (const MeasurementDb* db : dbs) {
    fleet_fingerprints_.push_back(hw::machine_fingerprint(db->machine()));
    const auto mfeats = hw::machine_feature_vector(db->machine());
    for (int r : train_regions) {
      nn::TrainSample s;
      s.graph = &tensors_[static_cast<std::size_t>(r)];
      for (int k : caps) {
        nn::SampleMember m;
        m.extra = fleet_extra(*db, mfeats, r, k);
        m.labels = power_labels_db(*db, r, k);
        s.members.push_back(std::move(m));
      }
      samples.push_back(std::move(s));
    }
  }
  return run_training(samples);
}

nn::TrainReport PnpTuner::train_edp_scenario(
    const std::vector<int>& train_regions) {
  PNP_CHECK(!train_regions.empty());
  build_model(Mode::Edp, train_regions);

  std::vector<nn::TrainSample> samples;
  samples.reserve(train_regions.size());
  for (int r : train_regions) {
    nn::TrainSample s;
    s.graph = &tensors_[static_cast<std::size_t>(r)];
    nn::SampleMember m;
    m.extra = make_extra(r, std::nullopt, std::nullopt);
    m.labels = edp_labels(r);
    s.members.push_back(std::move(m));
    samples.push_back(std::move(s));
  }
  return run_training(samples);
}

nn::TrainReport PnpTuner::fine_tune(const std::vector<int>& train_regions,
                                    const nn::TrainerConfig& cfg) {
  PNP_CHECK_MSG(net_ != nullptr && mode_ != Mode::None,
                "fine_tune needs a trained or restored model");
  PNP_CHECK(!train_regions.empty());

  // Samples are rebuilt exactly as train_*_scenario builds them — from the
  // db's *current* labels — but build_model is skipped: vocab_, tensors_,
  // counter stats and net_ stay as they are, so the existing weights are
  // the starting point.
  std::vector<nn::TrainSample> samples;
  samples.reserve(train_regions.size());
  if (mode_ == Mode::Power) {
    std::vector<int> caps = opt_.train_cap_indices;
    if (caps.empty())
      for (int k = 0; k < db_.num_caps(); ++k) caps.push_back(k);
    for (int r : train_regions) {
      nn::TrainSample s;
      s.graph = &tensors_[static_cast<std::size_t>(r)];
      for (int k : caps) {
        nn::SampleMember m;
        m.extra = make_extra(r, k, std::nullopt);
        m.labels = power_labels(r, k);
        s.members.push_back(std::move(m));
      }
      samples.push_back(std::move(s));
    }
  } else {
    for (int r : train_regions) {
      nn::TrainSample s;
      s.graph = &tensors_[static_cast<std::size_t>(r)];
      nn::SampleMember m;
      m.extra = make_extra(r, std::nullopt, std::nullopt);
      m.labels = edp_labels(r);
      s.members.push_back(std::move(m));
      samples.push_back(std::move(s));
    }
  }

  const nn::TrainerConfig saved = opt_.trainer;
  opt_.trainer = cfg;
  try {
    nn::TrainReport report = run_training(samples);
    opt_.trainer = saved;
    return report;
  } catch (...) {
    opt_.trainer = saved;
    throw;
  }
}

void PnpTuner::check_region(int region) const {
  PNP_CHECK_MSG(region >= 0 && region < db_.num_regions(),
                "region " << region << " out of range [0, "
                          << db_.num_regions() << ")");
}

void PnpTuner::check_cap(int cap_index) const {
  PNP_CHECK_MSG(cap_index >= 0 && cap_index < db_.num_caps(),
                "cap index " << cap_index << " out of range [0, "
                             << db_.num_caps() << ")");
}

sim::OmpConfig PnpTuner::predict_power(int region, int cap_index) const {
  PNP_CHECK_MSG(mode_ == Mode::Power && net_ != nullptr,
                "train_power_scenario must run first");
  check_region(region);
  check_cap(cap_index);
  const auto extra = make_extra(region, cap_index, std::nullopt);
  return decode_power_logits<double>(
      predict_logits(*net_, tensors_[static_cast<std::size_t>(region)], extra),
      db_.space().power_caps()[static_cast<std::size_t>(cap_index)]);
}

sim::OmpConfig PnpTuner::predict_power_at(int region, double cap_w) const {
  PNP_CHECK_MSG(mode_ == Mode::Power && net_ != nullptr,
                "train_power_scenario must run first");
  PNP_CHECK_MSG(!opt_.cap_onehot,
                "predicting at an arbitrary cap requires the scalar feature");
  check_region(region);
  const auto extra = make_extra(region, std::nullopt, cap_w);
  return decode_power_logits<double>(
      predict_logits(*net_, tensors_[static_cast<std::size_t>(region)], extra),
      cap_w);
}

PnpTuner::JointChoice PnpTuner::predict_edp(int region) const {
  PNP_CHECK_MSG(mode_ == Mode::Edp && net_ != nullptr,
                "train_edp_scenario must run first");
  check_region(region);
  const auto extra = make_extra(region, std::nullopt, std::nullopt);
  return decode_edp_logits<double>(
      predict_logits(*net_, tensors_[static_cast<std::size_t>(region)], extra));
}

TunerArtifact PnpTuner::to_artifact() const {
  PNP_CHECK_MSG(net_ != nullptr && mode_ != Mode::None,
                "no trained model to save — run train_*_scenario first");
  TunerArtifact art;
  art.set_options(opt_);
  art.mode = mode_ == Mode::Power ? TunerArtifact::Mode::Power
                                  : TunerArtifact::Mode::Edp;
  art.vocab_tokens.reserve(static_cast<std::size_t>(vocab_.size()) - 1);
  for (int id = 1; id < vocab_.size(); ++id)
    art.vocab_tokens.push_back(vocab_.token(id));
  art.counter_mean = counter_mean_;
  art.counter_std = counter_std_;
  art.head_sizes = net_->config().head_sizes;
  art.extra_features = net_->config().extra_features;
  art.serve_precision = serve_precision_;
  art.set_space(db_.space());
  // v4 machine identity: the primary training machine, plus the full
  // fingerprint list when the model was fleet-trained.
  art.machine_name = db_.machine().name;
  art.machine_fingerprint = hw::machine_fingerprint(db_.machine());
  art.fleet = !fleet_fingerprints_.empty();
  art.fleet_fingerprints = fleet_fingerprints_;
  art.net_weights = net_->state_dict();
  return art;
}

void PnpTuner::save(const std::string& path) const {
  to_artifact().save_file(path);
}

PnpTuner PnpTuner::from_artifact(const MeasurementDb& db,
                                 const TunerArtifact& art) {
  // Reject incompatible artifacts before building any model state (graph
  // extraction and tensor construction are the expensive part of the
  // constructor) — hot reload relies on this being side-effect-free.
  validate_artifact(art, db);
  PnpTuner tuner(db, art.options());
  tuner.restore(art);
  return tuner;
}

PnpTuner PnpTuner::load(const MeasurementDb& db, const std::string& path) {
  return from_artifact(db, TunerArtifact::load_file(path));
}

void PnpTuner::restore(const TunerArtifact& art) {
  // load() validates before constructing; re-validate here so restore is
  // safe on its own too (the checks are cheap and side-effect-free).
  validate_artifact(art, db_);
  mode_ = art.mode == TunerArtifact::Mode::Power ? Mode::Power : Mode::Edp;
  serve_precision_ = art.serve_precision;
  fleet_fingerprints_ = art.fleet ? art.fleet_fingerprints
                                  : std::vector<std::uint64_t>{};
  vocab_ = art.make_vocab();
  tensors_.clear();
  tensors_.reserve(graphs_.size());
  for (const auto& g : graphs_) tensors_.push_back(graph::to_tensors(g, vocab_));

  counter_mean_ = art.counter_mean;
  counter_std_ = art.counter_std;

  nn::RgcnNetConfig nc;
  nc.vocab_size = vocab_.size();
  nc.emb_dim = opt_.emb_dim;
  nc.rgcn_layers = opt_.rgcn_layers;
  nc.hidden = opt_.hidden;
  nc.dense_hidden1 = opt_.dense_hidden1;
  nc.dense_hidden2 = opt_.dense_hidden2;
  nc.extra_features = art.extra_features;
  nc.num_bases = opt_.num_bases;
  nc.seed = opt_.seed;
  nc.head_sizes = art.head_sizes;
  net_ = std::make_unique<nn::RgcnNet>(nc);
  net_->load_state_dict(art.net_weights);
}

StateDict PnpTuner::state() const {
  PNP_CHECK_MSG(net_ != nullptr, "no trained model");
  return net_->state_dict();
}

void PnpTuner::import_gnn(const StateDict& sd, bool freeze_gnn) {
  pending_gnn_ = sd;
  pending_freeze_ = freeze_gnn;
}

const nn::RgcnNet& PnpTuner::net() const {
  PNP_CHECK_MSG(net_ != nullptr, "no trained model");
  return *net_;
}

const graph::FlowGraph& PnpTuner::region_graph(int region) const {
  return graphs_.at(static_cast<std::size_t>(region));
}

}  // namespace pnp::core
