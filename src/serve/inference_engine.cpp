#include "serve/inference_engine.hpp"

#include <algorithm>

#ifdef PNP_PARALLEL
#include <omp.h>
#endif

#include "common/error.hpp"
#include "core/config_search.hpp"
#include "core/tuner_artifact.hpp"
#include "nn/loss.hpp"

namespace pnp::serve {

namespace {

int worker_count() {
#ifdef PNP_PARALLEL
  return omp_get_max_threads();
#else
  return 1;
#endif
}

const char* mode_name(core::PnpTuner::Mode m) {
  switch (m) {
    case core::PnpTuner::Mode::Power:
      return "power";
    case core::PnpTuner::Mode::Edp:
      return "edp";
    default:
      return "untrained";
  }
}

}  // namespace

// --- ModelState --------------------------------------------------------------

namespace {

// Arena tensor indices, in execution-step order. The f64 tier mirrors the
// allocation path's DenseCache buffer-for-buffer (separate pre/post
// activations) so both paths run the identical dense_forward_spans code;
// the f32 tier runs ReLU in place and needs fewer slots.
enum F64Slot { kExtra64 = 0, kU0, kZ1, kA1, kZ2, kA2, kLogits, kPreds64 };
enum F32Slot { kExtra32 = 0, kU0F, kH1F, kH2F, kLogitsF, kPreds32 };

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

ModelState::ModelState(core::PnpTuner tuner,
                       std::optional<nn::Precision> precision, int beam_width)
    : tuner_(std::move(tuner)),
      precision_(precision.value_or(tuner_.serve_precision())),
      beam_width_(beam_width) {
  PNP_CHECK_MSG(
      tuner_.net_ != nullptr && tuner_.mode_ != core::PnpTuner::Mode::None,
      "serving needs a trained or loaded tuner");
  if (precision_ == nn::Precision::f32)
    dense_f32_ = tuner_.net_->dense_weights_f32();
}

void ModelState::Workspace::bind(const ModelState& m) {
  const nn::RgcnNetConfig& cfg = m.tuner_.net_->config();
  const int heads = static_cast<int>(cfg.head_sizes.size());
  std::uint64_t key = 0x8000000000000001ull;  // never 0 (= unbound)
  key = mix(key, static_cast<std::uint64_t>(m.precision_));
  key = mix(key, static_cast<std::uint64_t>(cfg.extra_features));
  key = mix(key, static_cast<std::uint64_t>(cfg.hidden));
  key = mix(key, static_cast<std::uint64_t>(cfg.dense_hidden1));
  key = mix(key, static_cast<std::uint64_t>(cfg.dense_hidden2));
  key = mix(key, static_cast<std::uint64_t>(cfg.total_logits()));
  key = mix(key, static_cast<std::uint64_t>(heads));
  if (key == key_) return;

  // Lifetimes by execution step of run_heads: fill_extra writes `extra`
  // (0), u0 = readout ⊕ extra (1), each linear/activation is one step,
  // argmax reads logits and writes preds last. Buffers whose intervals
  // never meet (e.g. extra and z1) share bytes.
  const auto d = [](int n) { return static_cast<std::size_t>(n) * sizeof(double); };
  const auto f = [](int n) { return static_cast<std::size_t>(n) * sizeof(float); };
  std::vector<nn::TensorSpec> specs;
  if (m.precision_ == nn::Precision::f64) {
    specs = {
        {"extra", d(cfg.extra_features), 0, 1},
        {"u0", d(cfg.hidden + cfg.extra_features), 1, 2},
        {"z1", d(cfg.dense_hidden1), 2, 3},
        {"a1", d(cfg.dense_hidden1), 3, 4},
        {"z2", d(cfg.dense_hidden2), 4, 5},
        {"a2", d(cfg.dense_hidden2), 5, 6},
        {"logits", d(cfg.total_logits()), 6, 7},
        {"preds", static_cast<std::size_t>(heads) * sizeof(int), 7, 8},
    };
  } else {
    specs = {
        {"extra", d(cfg.extra_features), 0, 1},
        {"u0f", f(cfg.hidden + cfg.extra_features), 1, 2},
        {"h1f", f(cfg.dense_hidden1), 2, 3},
        {"h2f", f(cfg.dense_hidden2), 3, 4},
        {"logitsf", f(cfg.total_logits()), 4, 5},
        {"preds", static_cast<std::size_t>(heads) * sizeof(int), 5, 6},
    };
  }
  arena_.reset(nn::ArenaPlan::build(std::move(specs)));
  key_ = key;
}

bool ModelState::scalar_cap() const { return !tuner_.opt_.cap_onehot; }

void ModelState::validate_region(int region) const {
  tuner_.check_region(region);
}

void ModelState::validate_cap(int cap_index) const {
  tuner_.check_cap(cap_index);
}

void ModelState::require_mode(core::PnpTuner::Mode m, const char* what) const {
  PNP_CHECK_MSG(tuner_.mode_ == m, what << " not servable by a "
                                        << mode_name(tuner_.mode_)
                                        << "-scenario model");
}

void ModelState::require_scalar_cap() const {
  PNP_CHECK_MSG(!tuner_.opt_.cap_onehot,
                "predicting at arbitrary caps requires a scalar-cap model "
                "(cap_onehot == false)");
}

void ModelState::encode(int region, nn::RgcnNet::GnnCache& out) const {
  validate_region(region);
  tuner_.net_->encode_into(tuner_.tensors_[static_cast<std::size_t>(region)],
                           out);
  if (precision_ == nn::Precision::f32) {
    // Down-convert once per encode; cached encodings then carry both
    // tiers, so the per-query fast path never touches doubles.
    out.readout_f32.resize(out.readout.size());
    for (std::size_t i = 0; i < out.readout.size(); ++i)
      out.readout_f32[i] = static_cast<float>(out.readout[i]);
  } else {
    // A reused workspace may still hold an f32 model's readout; drop it
    // so run_heads' f32 guard can't accept this encoding.
    out.readout_f32.clear();
  }
}

Encoding ModelState::encode_readout(int region,
                                    nn::RgcnNet::GnnCache& ws) const {
  encode(region, ws);
  ws.g = nullptr;
  return Encoding{ws.readout, ws.readout_f32};
}

void ModelState::run_heads(ReadoutView enc, int region,
                           std::optional<int> cap_index,
                           std::optional<double> cap_w, Scratch& s) const {
  s.cap_w = cap_index.has_value()
                ? tuner_.db_.space()
                      .power_caps()[static_cast<std::size_t>(*cap_index)]
                : cap_w.value_or(0.0);
  tuner_.fill_extra(region, cap_index, cap_w, s.extra);
  const nn::RgcnNet& net = *tuner_.net_;
  const nn::RgcnNetConfig& cfg = net.config();
  const int heads = static_cast<int>(cfg.head_sizes.size());
  s.preds.clear();
  if (precision_ == nn::Precision::f64) {
    net.dense_forward_into(enc.readout, s.extra, s.dc);
    for (int h = 0; h < heads; ++h)
      s.preds.push_back(nn::argmax_index(net.head_logits(s.dc, h)));
    return;
  }
  PNP_CHECK_MSG(enc.readout_f32.size() == enc.readout.size(),
                "encoding lacks the f32 readout — encode regions through "
                "this f32 ModelState");
  s.u0f.resize(enc.readout_f32.size() + s.extra.size());
  std::copy(enc.readout_f32.begin(), enc.readout_f32.end(), s.u0f.begin());
  for (std::size_t i = 0; i < s.extra.size(); ++i)
    s.u0f[enc.readout_f32.size() + i] = static_cast<float>(s.extra[i]);
  s.h1f.resize(static_cast<std::size_t>(cfg.dense_hidden1));
  s.h2f.resize(static_cast<std::size_t>(cfg.dense_hidden2));
  s.logitsf.resize(static_cast<std::size_t>(cfg.total_logits()));
  nn::RgcnNet::dense_forward_f32(dense_f32_, s.u0f, s.h1f, s.h2f, s.logitsf);
  for (int h = 0; h < heads; ++h)
    s.preds.push_back(nn::argmax_index(
        std::span<const float>(s.logitsf)
            .subspan(static_cast<std::size_t>(net.head_offset(h)),
                     static_cast<std::size_t>(
                         cfg.head_sizes[static_cast<std::size_t>(h)]))));
}

void ModelState::run_heads(ReadoutView enc, int region,
                           std::optional<int> cap_index,
                           std::optional<double> cap_w, Workspace& ws) const {
  ws.bind(*this);
  ws.cap_w_ = cap_index.has_value()
                  ? tuner_.db_.space()
                        .power_caps()[static_cast<std::size_t>(*cap_index)]
                  : cap_w.value_or(0.0);
  const nn::RgcnNet& net = *tuner_.net_;
  const nn::RgcnNetConfig& cfg = net.config();
  const int heads = static_cast<int>(cfg.head_sizes.size());
  nn::Arena& a = ws.arena_;
  const auto dspan = [&a](std::size_t slot) {
    return std::span<double>(a.data<double>(slot), a.count<double>(slot));
  };
  const auto fspan = [&a](std::size_t slot) {
    return std::span<float>(a.data<float>(slot), a.count<float>(slot));
  };
  if (precision_ == nn::Precision::f64) {
    const std::span<double> extra = dspan(kExtra64);
    tuner_.fill_extra_into(region, cap_index, cap_w, extra);
    const std::span<double> logits = dspan(kLogits);
    net.dense_forward_spans(enc.readout, extra, dspan(kU0), dspan(kZ1),
                            dspan(kA1), dspan(kZ2), dspan(kA2), logits);
    int* preds = a.data<int>(kPreds64);
    for (int h = 0; h < heads; ++h)
      preds[h] = nn::argmax_index(std::span<const double>(logits).subspan(
          static_cast<std::size_t>(net.head_offset(h)),
          static_cast<std::size_t>(
              cfg.head_sizes[static_cast<std::size_t>(h)])));
    return;
  }
  PNP_CHECK_MSG(enc.readout_f32.size() == enc.readout.size(),
                "encoding lacks the f32 readout — encode regions through "
                "this f32 ModelState");
  const std::span<double> extra = dspan(kExtra32);
  tuner_.fill_extra_into(region, cap_index, cap_w, extra);
  const std::span<float> u0 = fspan(kU0F);
  std::copy(enc.readout_f32.begin(), enc.readout_f32.end(), u0.begin());
  for (std::size_t i = 0; i < extra.size(); ++i)
    u0[enc.readout_f32.size() + i] = static_cast<float>(extra[i]);
  const std::span<float> logits = fspan(kLogitsF);
  nn::RgcnNet::dense_forward_f32(dense_f32_, u0, fspan(kH1F), fspan(kH2F),
                                 logits);
  int* preds = a.data<int>(kPreds32);
  for (int h = 0; h < heads; ++h)
    preds[h] = nn::argmax_index(std::span<const float>(logits).subspan(
        static_cast<std::size_t>(net.head_offset(h)),
        static_cast<std::size_t>(
            cfg.head_sizes[static_cast<std::size_t>(h)])));
}

std::span<const int> ModelState::preds_of(const Workspace& ws) const {
  PNP_CHECK_MSG(ws.key_ != 0, "decode before run_heads on this workspace");
  const std::size_t slot = precision_ == nn::Precision::f64
                               ? static_cast<std::size_t>(kPreds64)
                               : static_cast<std::size_t>(kPreds32);
  return {ws.arena_.data<int>(slot), ws.arena_.count<int>(slot)};
}

template <typename T>
sim::OmpConfig ModelState::decode_power_logits_t(std::span<const int> preds,
                                                 std::span<const T> logits,
                                                 double cap_w) const {
  const core::SearchSpace& space = tuner_.db_.space();
  // Fast path: run_heads already computed the per-head (or flat) argmax —
  // the maximum-sum tuple. If the constraint layer admits it, it is the
  // constrained argmax too, and this decode is the historic one verbatim.
  const sim::OmpConfig fast = tuner_.decode_config(preds, 0);
  if (space.is_valid(fast, cap_w)) return fast;
  if (tuner_.opt_.factored_heads) {
    const int nt = space.num_thread_classes();
    const int ns = space.num_schedule_classes();
    const int nc = space.num_chunk_classes();
    const auto choice = core::search_power<T>(
        space, cap_w, logits.subspan(0, static_cast<std::size_t>(nt)),
        logits.subspan(static_cast<std::size_t>(nt),
                       static_cast<std::size_t>(ns)),
        logits.subspan(static_cast<std::size_t>(nt + ns),
                       static_cast<std::size_t>(nc)),
        beam_width_);
    return space.config_from_classes(choice.thread_cls, choice.sched_cls,
                                     choice.chunk_cls);
  }
  const int flat =
      core::dense_argmax_valid<T>(space, logits, /*edp_scenario=*/false, cap_w);
  if (flat < 0) return space.default_config();
  const core::TunerClasses c =
      core::tuner_classes_from_flat(space, flat, /*edp_scenario=*/false);
  return space.config_from_classes(c.thread, c.sched, c.chunk);
}

template <typename T>
core::PnpTuner::JointChoice ModelState::decode_edp_logits_t(
    std::span<const int> preds, std::span<const T> logits) const {
  const core::SearchSpace& space = tuner_.db_.space();
  core::PnpTuner::JointChoice jc;
  if (tuner_.opt_.factored_heads) {
    jc.cap_index = preds[0];
    jc.cfg = tuner_.decode_config(preds, 1);
  } else {
    jc.cap_index = core::tuner_classes_from_flat(space, preds[0],
                                                 /*edp_scenario=*/true)
                       .cap;
    jc.cfg = tuner_.decode_config(preds, 0);
  }
  const double cap_w =
      space.power_caps()[static_cast<std::size_t>(jc.cap_index)];
  if (space.is_valid(jc.cfg, cap_w)) return jc;
  if (tuner_.opt_.factored_heads) {
    const int np = space.num_cap_classes();
    const int nt = space.num_thread_classes();
    const int ns = space.num_schedule_classes();
    const int nc = space.num_chunk_classes();
    const auto choice = core::search_edp<T>(
        space, logits.subspan(0, static_cast<std::size_t>(np)),
        logits.subspan(static_cast<std::size_t>(np),
                       static_cast<std::size_t>(nt)),
        logits.subspan(static_cast<std::size_t>(np + nt),
                       static_cast<std::size_t>(ns)),
        logits.subspan(static_cast<std::size_t>(np + nt + ns),
                       static_cast<std::size_t>(nc)),
        beam_width_);
    jc.cap_index = choice.cap_cls;
    jc.cfg = space.config_from_classes(choice.thread_cls, choice.sched_cls,
                                       choice.chunk_cls);
    return jc;
  }
  const int flat = core::dense_argmax_valid<T>(space, logits,
                                               /*edp_scenario=*/true, 0.0);
  if (flat < 0) {
    jc.cap_index = space.num_cap_classes() - 1;
    jc.cfg = space.default_config();
    return jc;
  }
  const core::TunerClasses c =
      core::tuner_classes_from_flat(space, flat, /*edp_scenario=*/true);
  jc.cap_index = c.cap;
  jc.cfg = space.config_from_classes(c.thread, c.sched, c.chunk);
  return jc;
}

sim::OmpConfig ModelState::decode_power(const Scratch& s) const {
  if (precision_ == nn::Precision::f64)
    return decode_power_logits_t<double>(
        s.preds, std::span<const double>(s.dc.logits), s.cap_w);
  return decode_power_logits_t<float>(
      s.preds, std::span<const float>(s.logitsf), s.cap_w);
}

sim::OmpConfig ModelState::decode_power(const Workspace& ws) const {
  const std::span<const int> preds = preds_of(ws);
  if (precision_ == nn::Precision::f64)
    return decode_power_logits_t<double>(
        preds,
        std::span<const double>(ws.arena_.data<double>(kLogits),
                                ws.arena_.count<double>(kLogits)),
        ws.cap_w_);
  return decode_power_logits_t<float>(
      preds,
      std::span<const float>(ws.arena_.data<float>(kLogitsF),
                             ws.arena_.count<float>(kLogitsF)),
      ws.cap_w_);
}

core::PnpTuner::JointChoice ModelState::decode_edp(const Scratch& s) const {
  if (precision_ == nn::Precision::f64)
    return decode_edp_logits_t<double>(s.preds,
                                       std::span<const double>(s.dc.logits));
  return decode_edp_logits_t<float>(s.preds,
                                    std::span<const float>(s.logitsf));
}

core::PnpTuner::JointChoice ModelState::decode_edp(const Workspace& ws) const {
  const std::span<const int> preds = preds_of(ws);
  if (precision_ == nn::Precision::f64)
    return decode_edp_logits_t<double>(
        preds, std::span<const double>(ws.arena_.data<double>(kLogits),
                                       ws.arena_.count<double>(kLogits)));
  return decode_edp_logits_t<float>(
      preds, std::span<const float>(ws.arena_.data<float>(kLogitsF),
                                    ws.arena_.count<float>(kLogitsF)));
}

// --- InferenceEngine ---------------------------------------------------------

InferenceEngine::InferenceEngine(const core::MeasurementDb& db,
                                 const std::string& path,
                                 EngineOptions options)
    : InferenceEngine(core::PnpTuner::load(db, path), options) {}

InferenceEngine::InferenceEngine(core::PnpTuner tuner, EngineOptions options)
    : state_(std::move(tuner), options.precision, options.beam_width),
      opt_(options) {
  scratch_.resize(static_cast<std::size_t>(worker_count()));
}

void InferenceEngine::ensure_encoded(std::span<const int> regions) {
  // The OpenMP thread count may have been raised since construction
  // (omp_set_num_threads); re-size the per-thread scratch at this serial
  // point so neither phase indexes past it.
  if (scratch_.size() < static_cast<std::size_t>(worker_count()))
    scratch_.resize(static_cast<std::size_t>(worker_count()));
  // Validate the whole batch before encoding anything.
  for (int r : regions) state_.validate_region(r);
  pending_.clear();
  for (int r : regions)
    if (!enc_.contains(r)) pending_.push_back(r);
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  // Each miss encodes in its thread's reused GNN workspace; only the
  // readouts are kept, and they enter the cache after every encode of
  // the batch returned.
  fresh_.resize(pending_.size());
#ifdef PNP_PARALLEL
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < pending_.size(); ++i)
    fresh_[i] = state_.encode_readout(
        pending_[i],
        scratch_[static_cast<std::size_t>(omp_get_thread_num())].gnn);
#else
  for (std::size_t i = 0; i < pending_.size(); ++i)
    fresh_[i] = state_.encode_readout(pending_[i], scratch_[0].gnn);
#endif
  for (std::size_t i = 0; i < pending_.size(); ++i)
    enc_.emplace(pending_[i], std::move(fresh_[i]));
}

template <class Fn>
void InferenceEngine::for_each_query(std::size_t n, Fn&& fn) {
#ifdef PNP_PARALLEL
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i)
    fn(i, scratch_[static_cast<std::size_t>(omp_get_thread_num())]);
#else
  for (std::size_t i = 0; i < n; ++i) fn(i, scratch_[0]);
#endif
}

sim::OmpConfig InferenceEngine::serve_power(ReadoutView enc, int region,
                                            std::optional<int> cap_index,
                                            std::optional<double> cap_w,
                                            PerThread& t) {
  if (opt_.use_arena) {
    state_.run_heads(enc, region, cap_index, cap_w, t.ws);
    return state_.decode_power(t.ws);
  }
  state_.run_heads(enc, region, cap_index, cap_w, t.scratch);
  return state_.decode_power(t.scratch);
}

sim::OmpConfig InferenceEngine::predict_power(int region, int cap_index) {
  const PowerQuery q{region, cap_index};
  return predict_power_batch(std::span<const PowerQuery>(&q, 1))[0];
}

core::PnpTuner::JointChoice InferenceEngine::predict_edp(int region) {
  return predict_edp_batch(std::span<const int>(&region, 1))[0];
}

std::vector<sim::OmpConfig> InferenceEngine::predict_power_batch(
    std::span<const PowerQuery> queries) {
  state_.require_mode(core::PnpTuner::Mode::Power, "a power query");
  regions_buf_.clear();
  regions_buf_.reserve(queries.size());
  for (const PowerQuery& q : queries) {
    state_.validate_cap(q.cap_index);
    regions_buf_.push_back(q.region);
  }
  ensure_encoded(regions_buf_);

  std::vector<sim::OmpConfig> out(queries.size());
  for_each_query(queries.size(), [&](std::size_t i, PerThread& t) {
    out[i] = serve_power(enc_.find(queries[i].region)->second,
                         queries[i].region, queries[i].cap_index,
                         std::nullopt, t);
  });
  return out;
}

std::vector<sim::OmpConfig> InferenceEngine::predict_power_at_batch(
    std::span<const int> regions, double cap_w) {
  state_.require_mode(core::PnpTuner::Mode::Power, "a power query");
  state_.require_scalar_cap();
  PNP_CHECK_MSG(cap_w > 0.0, "cap must be positive, got " << cap_w);
  ensure_encoded(regions);

  std::vector<sim::OmpConfig> out(regions.size());
  for_each_query(regions.size(), [&](std::size_t i, PerThread& t) {
    out[i] = serve_power(enc_.find(regions[i])->second, regions[i],
                         std::nullopt, cap_w, t);
  });
  return out;
}

std::vector<core::PnpTuner::JointChoice> InferenceEngine::predict_edp_batch(
    std::span<const int> regions) {
  state_.require_mode(core::PnpTuner::Mode::Edp, "an edp query");
  ensure_encoded(regions);

  std::vector<core::PnpTuner::JointChoice> out(regions.size());
  for_each_query(regions.size(), [&](std::size_t i, PerThread& t) {
    if (opt_.use_arena) {
      state_.run_heads(enc_.find(regions[i])->second, regions[i],
                       std::nullopt, std::nullopt, t.ws);
      out[i] = state_.decode_edp(t.ws);
    } else {
      state_.run_heads(enc_.find(regions[i])->second, regions[i],
                       std::nullopt, std::nullopt, t.scratch);
      out[i] = state_.decode_edp(t.scratch);
    }
  });
  return out;
}

}  // namespace pnp::serve
