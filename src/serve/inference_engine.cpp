#include "serve/inference_engine.hpp"

#include <algorithm>
#include <type_traits>

#include "common/error.hpp"

namespace pnp::serve {

namespace {

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

// Arena tensor indices per tier, in execution-step order. The f64 tier
// keeps separate pre/post activations, as dense_forward_spans (the
// training arithmetic) needs; the f32 tier runs ReLU in place and needs
// fewer slots.
template <typename T>
struct Slots;
template <>
struct Slots<double> {
  enum : std::size_t { extra, u0, z1, a1, z2, a2, logits };
};
template <>
struct Slots<float> {
  enum : std::size_t { extra, u0, h1, h2, logits };
};

template <typename T>
std::span<T> view(nn::Arena& a, std::size_t slot) {
  return {a.data<T>(slot), a.count<T>(slot)};
}
template <typename T>
std::span<const T> view(const nn::Arena& a, std::size_t slot) {
  return {a.data<T>(slot), a.count<T>(slot)};
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

ModelState::ModelState(core::PnpTuner tuner,
                       std::optional<nn::Precision> precision)
    : tuner_(std::move(tuner)),
      precision_(precision.value_or(tuner_.serve_precision())) {
  PNP_CHECK_MSG(
      tuner_.net_ != nullptr && tuner_.mode_ != core::PnpTuner::Mode::None,
      "serving needs a trained or loaded tuner");
  if (precision_ == nn::Precision::f32)
    dense_f32_ = tuner_.net_->dense_weights_f32();
}

void ModelState::Workspace::bind(const ModelState& m) {
  const nn::RgcnNetConfig& cfg = m.tuner_.net_->config();
  std::uint64_t key = 0x8000000000000001ull;  // never 0 (= unbound)
  key = mix(key, static_cast<std::uint64_t>(m.precision_));
  key = mix(key, static_cast<std::uint64_t>(cfg.extra_features));
  key = mix(key, static_cast<std::uint64_t>(cfg.hidden));
  key = mix(key, static_cast<std::uint64_t>(cfg.dense_hidden1));
  key = mix(key, static_cast<std::uint64_t>(cfg.dense_hidden2));
  key = mix(key, static_cast<std::uint64_t>(cfg.total_logits()));
  if (key == key_) return;

  // Lifetimes by execution step of run_heads: fill_extra_into writes
  // `extra` (0), u0 = readout ⊕ extra (1), each linear/activation is one
  // step, and decode reads the logits last. Buffers whose
  // intervals never meet (e.g. extra and z1) share bytes.
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
    };
  } else {
    specs = {
        {"extra", d(cfg.extra_features), 0, 1},
        {"u0f", f(cfg.hidden + cfg.extra_features), 1, 2},
        {"h1f", f(cfg.dense_hidden1), 2, 3},
        {"h2f", f(cfg.dense_hidden2), 3, 4},
        {"logitsf", f(cfg.total_logits()), 4, 5},
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

template <typename T>
void ModelState::run_heads_t(ReadoutView enc, int region,
                             std::optional<int> cap_index,
                             std::optional<double> cap_w,
                             Workspace& ws) const {
  using S = Slots<T>;
  nn::Arena& a = ws.arena_;
  const nn::RgcnNet& net = *tuner_.net_;
  const std::span<double> extra = view<double>(a, S::extra);
  tuner_.fill_extra_into(region, cap_index, cap_w, extra);
  const std::span<T> logits = view<T>(a, S::logits);
  if constexpr (std::is_same_v<T, double>) {
    net.dense_forward_spans(enc.readout, extra, view<double>(a, S::u0),
                            view<double>(a, S::z1), view<double>(a, S::a1),
                            view<double>(a, S::z2), view<double>(a, S::a2),
                            logits);
  } else {
    PNP_CHECK_MSG(enc.readout_f32.size() == enc.readout.size(),
                  "encoding lacks the f32 readout — encode regions through "
                  "this f32 ModelState");
    // u0 = readout_f32 ⊕ extra, down-converted.
    const std::span<float> u0 = view<float>(a, S::u0);
    std::copy(enc.readout_f32.begin(), enc.readout_f32.end(), u0.begin());
    for (std::size_t i = 0; i < extra.size(); ++i)
      u0[enc.readout_f32.size() + i] = static_cast<float>(extra[i]);
    nn::RgcnNet::dense_forward_f32(dense_f32_, u0, view<float>(a, S::h1),
                                   view<float>(a, S::h2), logits);
  }
}

void ModelState::run_heads(ReadoutView enc, int region,
                           std::optional<int> cap_index,
                           std::optional<double> cap_w, Workspace& ws) const {
  ws.bind(*this);
  ws.cap_w_ = cap_index.has_value()
                  ? tuner_.db_.space()
                        .power_caps()[static_cast<std::size_t>(*cap_index)]
                  : cap_w.value_or(0.0);
  if (precision_ == nn::Precision::f64)
    run_heads_t<double>(enc, region, cap_index, cap_w, ws);
  else
    run_heads_t<float>(enc, region, cap_index, cap_w, ws);
}

sim::OmpConfig ModelState::decode_power(const Workspace& ws) const {
  PNP_CHECK_MSG(ws.key_ != 0, "decode before run_heads on this workspace");
  const nn::Arena& a = ws.arena_;
  return precision_ == nn::Precision::f64
             ? tuner_.decode_power_logits(
                   view<double>(a, Slots<double>::logits), ws.cap_w_)
             : tuner_.decode_power_logits(
                   view<float>(a, Slots<float>::logits), ws.cap_w_);
}

core::PnpTuner::JointChoice ModelState::decode_edp(const Workspace& ws) const {
  PNP_CHECK_MSG(ws.key_ != 0, "decode before run_heads on this workspace");
  const nn::Arena& a = ws.arena_;
  return precision_ == nn::Precision::f64
             ? tuner_.decode_edp_logits(view<double>(a, Slots<double>::logits))
             : tuner_.decode_edp_logits(view<float>(a, Slots<float>::logits));
}

}  // namespace pnp::serve
