#include "serve/tuning_service.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/tuner_artifact.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

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

/// Best-effort: pin `t` to CPU `cpu` mod hardware_concurrency. Failures
/// (cgroup-restricted affinity masks, non-Linux hosts) are ignored —
/// pinning is a locality hint, never a correctness requirement.
void pin_to_cpu(std::thread& t, unsigned cpu) {
#if defined(__linux__)
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % hw, &set);
  (void)pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)cpu;
#endif
}

}  // namespace

// --- Snapshot ----------------------------------------------------------------

TuningService::Snapshot::Snapshot(core::PnpTuner tuner,
                                  std::optional<nn::Precision> precision,
                                  int beam_width, std::size_t shard_count,
                                  std::shared_ptr<Counters> ctrs)
    : model(std::move(tuner), precision, beam_width),
      locks(shard_count),
      shards(shard_count),
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
  start_workers();
}

TuningService::TuningService(core::PnpTuner tuner,
                             TuningServiceOptions options)
    : db_(tuner.db()), opt_(options),
      counters_(std::make_shared<Counters>()) {
  {
    std::lock_guard<std::mutex> rl(reload_mu_);
    publish_locked(std::move(tuner));
  }
  start_workers();
}

TuningService::~TuningService() {
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    w->stop = true;
    w->cv.notify_all();
  }
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

std::size_t TuningService::shard_count() const {
  // Worker mode stripes the cache to exactly the worker count so a
  // region's cache stripe and its worker coincide (see shard_of_key).
  if (opt_.worker_shards > 0)
    return static_cast<std::size_t>(opt_.worker_shards);
  return static_cast<std::size_t>(std::max(1, opt_.cache_shards));
}

std::uint64_t TuningService::publish_locked(core::PnpTuner tuner) {
  // ModelState's constructor rejects untrained tuners, so an invalid
  // candidate throws here, before anything is published.
  auto snap = std::make_shared<Snapshot>(std::move(tuner), opt_.precision,
                                         opt_.beam_width, shard_count(),
                                         counters_);
  snap->version = snapshot_.version() + 1;
  const std::uint64_t published = snapshot_.publish(std::move(snap));
  return published;
}

void TuningService::start_workers() {
  if (opt_.worker_shards <= 0) return;
  workers_.reserve(static_cast<std::size_t>(opt_.worker_shards));
  for (int i = 0; i < opt_.worker_shards; ++i) {
    workers_.push_back(std::make_unique<WorkerShard>());
    WorkerShard& w = *workers_.back();
    w.thread = std::thread([this, &w] { worker_loop(w); });
    if (opt_.pin_workers) pin_to_cpu(w.thread, static_cast<unsigned>(i));
  }
}

void TuningService::worker_loop(WorkerShard& w) {
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max(1, opt_.max_batch));
  std::vector<Pending*> batch;
  std::unique_lock<std::mutex> lk(w.mu);
  for (;;) {
    w.cv.wait(lk, [&] { return w.stop || !w.queue.empty(); });
    if (w.queue.empty()) return;  // stop && drained
    const auto take = static_cast<std::ptrdiff_t>(
        std::min(w.queue.size(), max_batch));
    batch.assign(w.queue.begin(), w.queue.begin() + take);
    w.queue.erase(w.queue.begin(), w.queue.begin() + take);
    lk.unlock();
    counters_->batches.fetch_add(1, kRelease);
    counters_->coalesced.fetch_add(batch.size() - 1, kRelease);
    // One snapshot per drained batch — same atomicity contract as the
    // leader/follower path.
    const std::shared_ptr<const Snapshot> snap = snapshot_.current().value;
    for (Pending* p : batch) {
      try {
        p->result = snap->serve(*p->req, w.ctx);
      } catch (...) {
        p->error = std::current_exception();
      }
    }
    lk.lock();
    for (Pending* p : batch) p->done = true;
    w.cv.notify_all();
  }
}

TuneResult TuningService::tune_sharded(const TuneRequest& request) {
  WorkerShard& w = *workers_[shard_of_key(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(request.region)),
      workers_.size())];
  Pending p;
  p.req = &request;
  std::unique_lock<std::mutex> lk(w.mu);
  w.queue.push_back(&p);
  w.cv.notify_all();
  w.cv.wait(lk, [&] { return p.done; });
  lk.unlock();
  if (p.error) std::rethrow_exception(p.error);
  return p.result;
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

void TuningService::run_batch(const std::vector<Pending*>& batch) {
  counters_->batches.fetch_add(1, kRelease);
  counters_->coalesced.fetch_add(batch.size() - 1, kRelease);
  // One snapshot for the whole batch: every request in it is served —
  // and version-tagged — by exactly one model, never a half-swapped one.
  const std::shared_ptr<const Snapshot> snap = snapshot_.current().value;
  CtxLease lease(*this);
  for (Pending* p : batch) {
    try {
      p->result = snap->serve(*p->req, lease.get());
    } catch (...) {
      p->error = std::current_exception();
    }
  }
}

TuneResult TuningService::tune(const TuneRequest& request) {
  counters_->requests.fetch_add(1, kRelease);

  if (!workers_.empty()) return tune_sharded(request);

  if (!opt_.coalesce) {
    counters_->batches.fetch_add(1, kRelease);
    const std::shared_ptr<const Snapshot> snap = snapshot_.current().value;
    CtxLease lease(*this);
    return snap->serve(request, lease.get());
  }

  Pending p;
  p.req = &request;
  std::unique_lock<std::mutex> lk(admit_mu_);
  queue_.push_back(&p);
  // Wake a leader parked in its bounded batch_wait: the queue just grew.
  // With batch_wait == 0 no leader ever parks there, so skip the
  // broadcast — it would only wake followers into re-sleeping.
  if (opt_.batch_wait.count() > 0) admit_cv_.notify_all();
  while (!p.done) {
    if (leader_active_) {
      // Follower: a leader is executing (or filling) a batch; our request
      // either rides in it or waits for the next leader.
      admit_cv_.wait(lk);
      continue;
    }
    // Become the leader. Optionally wait — bounded — for the batch to
    // fill, then take up to max_batch queued requests and execute them
    // outside the lock.
    leader_active_ = true;
    const std::size_t max_batch =
        static_cast<std::size_t>(std::max(1, opt_.max_batch));
    if (opt_.batch_wait.count() > 0 && queue_.size() < max_batch) {
      admit_cv_.wait_for(lk, opt_.batch_wait,
                         [&] { return queue_.size() >= max_batch; });
    }
    const std::size_t take = std::min(queue_.size(), max_batch);
    const std::vector<Pending*> batch(queue_.begin(),
                                      queue_.begin() + static_cast<std::ptrdiff_t>(take));
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(take));
    lk.unlock();
    run_batch(batch);
    lk.lock();
    for (Pending* q : batch) q->done = true;
    leader_active_ = false;
    // Wake the batch's owners and the next leader candidate.
    admit_cv_.notify_all();
  }
  lk.unlock();
  if (p.error) std::rethrow_exception(p.error);
  return p.result;
}

std::vector<TuneResult> TuningService::tune_batch(
    std::span<const TuneRequest> requests) {
  std::vector<TuneResult> out;
  if (requests.empty()) return out;  // no batch ran: count nothing
  counters_->requests.fetch_add(requests.size(), kRelease);
  counters_->batches.fetch_add(1, kRelease);
  counters_->coalesced.fetch_add(requests.size() - 1, kRelease);
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
