#include "serve/tuning_service.hpp"

#include "common/error.hpp"
#include "core/tuner_artifact.hpp"

namespace pnp::serve {

namespace {

// Counter increments release, stats() loads acquire: a derived counter's
// increment (hit/miss/batch/coalesced) is sequenced after its request's
// increment, so a stats() snapshot that observes the derived increment
// also observes the request increment — provided it reads the derived
// counters first and `requests` last (see stats()). On x86 this costs
// nothing over relaxed; the ordering is what makes the documented
// snapshot invariants provable instead of accidental.
constexpr auto kRelease = std::memory_order_release;
constexpr auto kAcquire = std::memory_order_acquire;

}  // namespace

// --- Snapshot ----------------------------------------------------------------

TuningService::Snapshot::Snapshot(core::PnpTuner tuner,
                                  std::optional<nn::Precision> precision,
                                  std::shared_ptr<Counters> ctrs)
    : model(std::move(tuner), precision),
      shards(kCacheStripes),
      counters(std::move(ctrs)) {}

const Encoding& TuningService::Snapshot::encoding(
    int region, nn::RgcnNet::GnnCache& gnn) const {
  const std::size_t stripe =
      locks.stripe_of(static_cast<std::uint64_t>(region));
  {
    std::shared_lock<std::shared_mutex> rl(locks.at(stripe));
    const auto it = shards[stripe].find(region);
    if (it != shards[stripe].end()) {
      counters->encode_hits.fetch_add(1, kRelease);
      // Safe to use after unlock: entries are append-only and immutable
      // once published under the stripe lock.
      return it->second;
    }
  }
  // Miss: run the GNN outside any lock — encoding dominates the cost and
  // must not serialize unrelated regions. If two threads race on the same
  // region, both encodes are bit-identical and the first insert wins.
  Encoding fresh = model.encode_readout(region, gnn);
  counters->encode_misses.fetch_add(1, kRelease);
  std::unique_lock<std::shared_mutex> wl(locks.at(stripe));
  return shards[stripe].try_emplace(region, std::move(fresh)).first->second;
}

TuneResult TuningService::Snapshot::serve(const TuneRequest& q,
                                          ServeCtx& c) const {
  model.validate_region(q.region);
  TuneResult out;
  out.model_version = version;
  const auto run = [&](std::optional<int> ci, std::optional<double> cw) {
    model.run_heads(encoding(q.region, c.gnn), q.region, ci, cw, c.ws);
  };
  switch (q.kind) {
    case TuneRequest::Kind::Power: {
      model.require_mode(core::PnpTuner::Mode::Power, "a power query");
      model.validate_cap(q.cap_index);
      run(q.cap_index, std::nullopt);
      out.config = model.decode_power(c.ws);
      out.cap_index = q.cap_index;
      return out;
    }
    case TuneRequest::Kind::PowerAt: {
      model.require_mode(core::PnpTuner::Mode::Power, "a power_at query");
      model.require_scalar_cap();
      PNP_CHECK_MSG(q.cap_w > 0.0,
                    "cap must be positive, got " << q.cap_w << " W");
      run(std::nullopt, q.cap_w);
      out.config = model.decode_power(c.ws);
      out.cap_index = -1;
      return out;
    }
    case TuneRequest::Kind::Edp: {
      model.require_mode(core::PnpTuner::Mode::Edp, "an edp query");
      run(std::nullopt, std::nullopt);
      const core::PnpTuner::JointChoice jc = model.decode_edp(c.ws);
      out.config = jc.cfg;
      out.cap_index = jc.cap_index;
      return out;
    }
  }
  PNP_CHECK_MSG(false, "unknown request kind "
                           << static_cast<int>(q.kind));
  throw Error("unreachable");
}

std::size_t TuningService::Snapshot::cached() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::shared_lock<std::shared_mutex> rl(locks.at(i));
    n += shards[i].size();
  }
  return n;
}

// --- CtxLease ----------------------------------------------------------------

TuningService::CtxLease::CtxLease(TuningService& svc) : svc_(svc) {
  std::lock_guard<std::mutex> lk(svc_.ctx_mu_);
  if (svc_.ctx_free_.empty()) {
    svc_.ctx_owned_.push_back(std::make_unique<ServeCtx>());
    ctx_ = svc_.ctx_owned_.back().get();
  } else {
    ctx_ = svc_.ctx_free_.back();
    svc_.ctx_free_.pop_back();
  }
}

TuningService::CtxLease::~CtxLease() {
  std::lock_guard<std::mutex> lk(svc_.ctx_mu_);
  svc_.ctx_free_.push_back(ctx_);
}

// --- TuningService -----------------------------------------------------------

TuningService::TuningService(const core::MeasurementDb& db,
                             const std::string& artifact_path,
                             TuningServiceOptions options)
    : db_(db), opt_(options), counters_(std::make_shared<Counters>()) {
  {
    std::lock_guard<std::mutex> rl(reload_mu_);
    publish_locked(core::PnpTuner::load(db_, artifact_path));
  }
}

TuningService::TuningService(core::PnpTuner tuner,
                             TuningServiceOptions options)
    : db_(tuner.db()), opt_(options),
      counters_(std::make_shared<Counters>()) {
  {
    std::lock_guard<std::mutex> rl(reload_mu_);
    publish_locked(std::move(tuner));
  }
}

std::uint64_t TuningService::publish_locked(core::PnpTuner tuner) {
  // ModelState's constructor rejects untrained tuners, so an invalid
  // candidate throws here, before anything is published.
  auto snap = std::make_shared<Snapshot>(std::move(tuner), opt_.precision,
                                         counters_);
  snap->version = snapshot_.version() + 1;
  return snapshot_.publish(std::move(snap));
}

std::uint64_t TuningService::reload(const std::string& artifact_path) {
  std::lock_guard<std::mutex> rl(reload_mu_);
  try {
    // Everything fallible happens off to the side: artifact parse,
    // search-space validation (core::validate_artifact, inside load),
    // tensor rebuild. The live snapshot is untouched until publish.
    core::PnpTuner fresh = core::PnpTuner::load(db_, artifact_path);
    const auto cur = snapshot_.current();
    PNP_CHECK_MSG(fresh.mode() == cur.value->model.mode(),
                  "reload would switch the served scenario (power vs edp); "
                  "start a new service for a different scenario");
    const std::uint64_t v = publish_locked(std::move(fresh));
    counters_->reloads.fetch_add(1, kRelease);
    return v;
  } catch (...) {
    counters_->failed_reloads.fetch_add(1, kRelease);
    throw;
  }
}

core::PnpTuner::Mode TuningService::mode() const {
  return snapshot_.current().value->model.mode();
}

nn::Precision TuningService::precision() const {
  return snapshot_.current().value->model.precision();
}

std::size_t TuningService::cached_encodings() const {
  return snapshot_.current().value->cached();
}

TuneResult TuningService::tune(const TuneRequest& request) {
  counters_->requests.fetch_add(1, kRelease);
  counters_->batches.fetch_add(1, kRelease);
  const std::shared_ptr<const Snapshot> snap = snapshot_.current().value;
  CtxLease lease(*this);
  return snap->serve(request, lease.get());
}

std::vector<TuneResult> TuningService::tune_batch(
    std::span<const TuneRequest> requests) {
  std::vector<TuneResult> out;
  if (requests.empty()) return out;  // no batch ran: count nothing
  counters_->requests.fetch_add(requests.size(), kRelease);
  counters_->batches.fetch_add(1, kRelease);
  counters_->coalesced.fetch_add(requests.size() - 1, kRelease);
  // One snapshot for the whole batch: every request in it is served — and
  // version-tagged — by exactly one model, never a half-swapped one.
  const std::shared_ptr<const Snapshot> snap = snapshot_.current().value;
  CtxLease lease(*this);
  out.reserve(requests.size());
  for (const TuneRequest& q : requests)
    out.push_back(snap->serve(q, lease.get()));
  return out;
}

TuningService::Stats TuningService::stats() const {
  // Read order is the contract (see the Stats doc comment): every derived
  // counter first, `requests` last, all with acquire. A derived increment
  // is released after its request's increment, so observing it here
  // guarantees the later `requests` load covers that request too —
  // which is exactly the snapshot invariants
  //   encode_hits + encode_misses <= requests
  //   batches + coalesced        <= requests.
  // Reading `requests` first (or everything relaxed, as this used to)
  // allows a snapshot where a request's hit is counted but the request
  // itself is not, momentarily violating the stats frame's own
  // documented arithmetic under load.
  Stats s;
  s.encode_hits = counters_->encode_hits.load(kAcquire);
  s.encode_misses = counters_->encode_misses.load(kAcquire);
  s.coalesced = counters_->coalesced.load(kAcquire);
  s.batches = counters_->batches.load(kAcquire);
  s.reloads = counters_->reloads.load(kAcquire);
  s.failed_reloads = counters_->failed_reloads.load(kAcquire);
  s.requests = counters_->requests.load(kAcquire);
  return s;
}

core::TunerArtifact TuningService::current_artifact() const {
  return snapshot_.current().value->model.tuner().to_artifact();
}

}  // namespace pnp::serve
