#pragma once

/// \file tuning_service.hpp
/// Thread-safe concurrent tuning service — the production front end of the
/// paper's deployment story: many callers asking "best (threads, schedule,
/// chunk) under this power cap" at once, against a model that can be
/// replaced without downtime. Three mechanisms (docs/SERVING.md has the
/// full contracts):
///
///  - **Sharded encoding cache.** Per-region GNN readouts (serve::Encoding,
///    about 200 B each) live in N lock-striped shards (common/sync.hpp
///    StripedSharedMutex), so queries for unrelated regions never contend;
///    each region is encoded at most once per model version, in the
///    caller's reused GNN workspace and outside any lock.
///
///  - **Admission queue.** Small concurrent requests coalesce into
///    batches (leader/follower combining): the first caller to find no
///    active leader takes the queued requests — optionally waiting a
///    bounded `batch_wait` for the batch to fill — executes them against
///    one model snapshot, and wakes the owners. Callers never see the
///    queue; tune() simply returns their result (or rethrows their
///    error).
///
///  - **Worker shards (opt-in).** worker_shards > 0 replaces the
///    leader/follower queue with N dedicated worker threads, requests
///    routed by region hash (common/sync.hpp shard_of_key) to the worker
///    whose index equals the region's cache stripe. Each worker owns one
///    serving context — the arena-backed Workspace (nn/arena.hpp) and
///    the GNN workspace its misses encode in — so steady-state serving
///    is allocation-free and workers never touch each other's cache
///    stripes. Optionally pinned to cores (pin_workers).
///
///  - **Versioned hot reload.** reload(path) loads and validates a new
///    artifact entirely off to the side, then atomically publishes it
///    (common/sync.hpp VersionedSnapshot). In-flight requests finish on
///    the snapshot that admitted them; requests admitted after the
///    publish use the new model; a failed reload (corrupt / incompatible
///    / missing artifact) throws and the old model keeps serving. Every
///    result is tagged with the model version that served it.
///
/// Determinism contract: a request's result is a pure function of
/// (request, model version). Concurrent execution, batching order, cache
/// state, and thread count never change any result — the stress suite
/// (tests/service_test.cpp) checks bit-identity against a single-threaded
/// reference run, including across a mid-stream reload.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "serve/inference_engine.hpp"

namespace pnp::serve {

/// One tuning request. `Power` asks for the best OpenMP configuration at
/// a search-space cap index; `PowerAt` at an arbitrary cap in watts
/// (scalar-cap models only, paper Figs. 4–5); `Edp` for the joint
/// (cap, configuration) minimizing energy-delay product.
struct TuneRequest {
  enum class Kind { Power, PowerAt, Edp };
  Kind kind = Kind::Power;
  int region = 0;
  int cap_index = 0;  ///< Kind::Power only
  double cap_w = 0.0; ///< Kind::PowerAt only

  static TuneRequest power(int region, int cap_index) {
    return {Kind::Power, region, cap_index, 0.0};
  }
  static TuneRequest power_at(int region, double cap_w) {
    return {Kind::PowerAt, region, 0, cap_w};
  }
  static TuneRequest edp(int region) { return {Kind::Edp, region, 0, 0.0}; }
};

struct TuneResult {
  sim::OmpConfig config;
  /// Edp: the predicted best cap index. Power: the request's cap index
  /// echoed back. PowerAt: -1 (the cap was given in watts).
  int cap_index = -1;
  /// The model version that served this request (1 for the initial model,
  /// +1 per successful reload). Proves swap atomicity: a result is always
  /// consistent with exactly this version's single-threaded predictions.
  std::uint64_t model_version = 0;
};

struct TuningServiceOptions {
  /// Lock stripes of the per-version encoding cache (≥ 1).
  int cache_shards = 16;
  /// Largest batch one admission-queue leader executes at once (≥ 1).
  int max_batch = 64;
  /// Bounded extra wait for a batch to fill before the leader runs it.
  /// 0 (default) adds no latency: a leader takes whatever is queued at
  /// that instant, and batches still form naturally under load because
  /// requests arriving while a leader executes queue up for the next one.
  std::chrono::microseconds batch_wait{0};
  /// false → skip the admission queue entirely: every caller executes its
  /// own request directly against the current snapshot (lowest latency,
  /// no coalescing; cache sharding still applies).
  bool coalesce = true;
  /// > 0 → worker-shard mode: that many dedicated worker threads, each
  /// owning one serving context (arena + GNN workspaces). Requests are
  /// routed to workers by region hash (common/sync.hpp shard_of_key) and
  /// the encoding cache is striped to exactly the worker count, so a
  /// region's worker and its cache stripe coincide — workers never
  /// contend on each other's stripes. Supersedes the leader/follower
  /// admission queue (`coalesce` is ignored); batching still happens
  /// because a busy worker drains up to max_batch queued requests per
  /// wakeup. 0 (default) keeps the caller-thread leader/follower path.
  int worker_shards = 0;
  /// Worker-shard mode only: best-effort pin worker i to CPU
  /// i mod hardware_concurrency (Linux pthread_setaffinity_np; silently
  /// a no-op elsewhere or when the affinity call is rejected).
  bool pin_workers = false;
  /// Serving tier override passed to every published ModelState; nullopt
  /// uses each artifact's persisted preference (f64 for artifacts
  /// predating the f32 tier). A reload may therefore switch tiers
  /// mid-stream when the new artifact asks for a different one.
  std::optional<nn::Precision> precision;
  /// Constraint-fallback beam width passed to every published ModelState
  /// (<= 0 = full width, exact). Only consulted when a query's argmax
  /// tuple is pruned by the search space's constraint layer.
  int beam_width = 0;
};

class TuningService {
 public:
  /// Load + validate the artifact at `artifact_path` and serve it against
  /// `db`. Throws pnp::Error on malformed or incompatible artifacts.
  TuningService(const core::MeasurementDb& db,
                const std::string& artifact_path,
                TuningServiceOptions options = {});

  /// Adopt an already-trained or already-loaded tuner as version 1.
  explicit TuningService(core::PnpTuner tuner,
                         TuningServiceOptions options = {});

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Serve one request. Thread-safe; blocks until the result is ready
  /// (possibly riding in another caller's batch). Throws pnp::Error for
  /// invalid requests (bad region/cap, kind not servable by the current
  /// model's scenario) — an invalid request never affects the others in
  /// its batch.
  TuneResult tune(const TuneRequest& request);

  /// Serve a caller-assembled batch on the calling thread against one
  /// model snapshot: one result per request, in order, all tagged with
  /// the same version. Thread-safe; bypasses the admission queue. This is
  /// also the offline batch API (pnp_tune, pnp_eval, the retrain gate):
  /// at worker_shards = 0 the service starts no threads. Throws on the
  /// first invalid request (the ones before it were served); an empty
  /// batch counts nothing.
  std::vector<TuneResult> tune_batch(std::span<const TuneRequest> requests);

  /// Zero-downtime model replacement: load the artifact at `path`,
  /// validate it against the live db and the served scenario, and
  /// atomically publish it as the new version. Returns the new version.
  /// On any failure — missing file, corrupt bytes, wrong search space,
  /// scenario switch — throws pnp::Error and the current model keeps
  /// serving, unchanged. Concurrent reloads are serialized.
  std::uint64_t reload(const std::string& artifact_path);

  ~TuningService();

  /// Version of the model currently serving new requests.
  std::uint64_t model_version() const { return snapshot_.version(); }
  /// Scenario of the model currently serving new requests.
  core::PnpTuner::Mode mode() const;
  /// Inference tier of the model currently serving new requests.
  nn::Precision precision() const;
  /// Worker threads in worker-shard mode (0 on the leader/follower path).
  int worker_shards() const { return static_cast<int>(workers_.size()); }
  /// Region encodings cached by the current snapshot.
  std::size_t cached_encodings() const;
  /// The measurement db this service validates and serves against.
  const core::MeasurementDb& db() const { return db_; }
  /// Full artifact of the model currently serving new requests — the
  /// warm-start source for the retrain loop (serve/retrainer.hpp).
  /// Consistent with one published snapshot; reloading it through
  /// from_artifact yields bit-identical predictions to that snapshot.
  core::TunerArtifact current_artifact() const;

  struct Stats {
    std::uint64_t requests = 0;       ///< tune() + tune_batch() requests
    std::uint64_t batches = 0;        ///< executed batches (incl. direct)
    std::uint64_t coalesced = 0;      ///< requests − batches: requests
                                      ///< that shared a batch instead of
                                      ///< executing one of their own
                                      ///< (another caller's admission
                                      ///< batch, or extra members of a
                                      ///< tune_batch() call)
    std::uint64_t encode_hits = 0;    ///< cache lookups that found the
                                      ///< region already encoded
    std::uint64_t encode_misses = 0;  ///< lookups that ran the GNN
    std::uint64_t reloads = 0;        ///< successful reload() calls
    std::uint64_t failed_reloads = 0; ///< reload() calls that threw
  };
  /// A consistent-enough snapshot of the counters. Under concurrent
  /// traffic a snapshot is NOT an instantaneous cut — requests are always
  /// mid-flight — but every snapshot satisfies the invariants
  ///
  ///     encode_hits + encode_misses <= requests
  ///     batches + coalesced        <= requests
  ///
  /// because every derived counter's increment happens after its
  /// request's increment (release order), and stats() reads the derived
  /// counters first and `requests` last (acquire order) — a derived
  /// increment can never be visible without the request increment that
  /// caused it. At quiescence (no tune/tune_batch call in flight) both
  /// become the documented equalities:
  ///
  ///     encode_hits + encode_misses == requests
  ///     batches + coalesced        == requests
  ///
  /// tests/stats_consistency_test.cpp hammers both claims.
  Stats stats() const;

 private:
  /// Monotonic counters shared by the service and its snapshots (shared
  /// ownership: an in-flight snapshot may outlive a publish).
  struct Counters {
    std::atomic<std::uint64_t> requests{0}, batches{0}, coalesced{0},
        encode_hits{0}, encode_misses{0}, reloads{0}, failed_reloads{0};
  };

  /// One thread's serving context: the arena-backed Workspace the dense
  /// heads and decode run in, plus the GNN workspace a cache miss encodes
  /// in (both reused across requests, regions and snapshots).
  struct ServeCtx {
    ModelState::Workspace ws;
    nn::RgcnNet::GnnCache gnn;
  };

  /// One published model: the immutable ModelState plus its sharded
  /// readout cache. The cache is internally synchronized and append-only
  /// (entries are never replaced or erased), so a reference returned by
  /// encoding() stays valid for the snapshot's lifetime.
  struct Snapshot {
    Snapshot(core::PnpTuner tuner, std::optional<nn::Precision> precision,
             int beam_width, std::size_t shard_count,
             std::shared_ptr<Counters> counters);

    std::uint64_t version = 0;
    ModelState model;
    StripedSharedMutex locks;
    /// shards[i] guarded by locks.at(i); entries are immutable once
    /// inserted (unordered_map nodes never move).
    mutable std::vector<std::unordered_map<int, Encoding>> shards;
    std::shared_ptr<Counters> counters;

    /// Get-or-compute the encoding of `region`. A miss encodes in `gnn`
    /// (the caller's workspace) unlocked; on a race the first insert wins
    /// — both encodings are bit-identical.
    const Encoding& encoding(int region, nn::RgcnNet::GnnCache& gnn) const;
    /// Serve one request entirely against this snapshot.
    TuneResult serve(const TuneRequest& q, ServeCtx& c) const;
    std::size_t cached() const;
  };

  /// A request parked in the admission queue.
  struct Pending {
    const TuneRequest* req = nullptr;
    TuneResult result;
    std::exception_ptr error;
    bool done = false;
  };

  /// One worker shard: a dedicated thread draining its own queue with its
  /// own serving context. `mu` guards `queue` and `stop`; `cv` is both
  /// the worker's wakeup and the callers' completion signal.
  struct WorkerShard {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Pending*> queue;
    bool stop = false;
    ServeCtx ctx;
    std::thread thread;
  };

  /// RAII lease of a ServeCtx from the service pool (leader/follower and
  /// tune_batch paths; worker shards own theirs outright).
  class CtxLease {
   public:
    explicit CtxLease(TuningService& svc);
    ~CtxLease();
    ServeCtx& get() { return *ctx_; }

   private:
    TuningService& svc_;
    ServeCtx* ctx_;
  };

  std::size_t shard_count() const;
  /// Build + publish a snapshot; all publishes run under reload_mu_.
  std::uint64_t publish_locked(core::PnpTuner tuner);
  /// Execute a formed batch against one snapshot, filling each Pending.
  void run_batch(const std::vector<Pending*>& batch);
  /// Spawn opt_.worker_shards workers (no-op at 0).
  void start_workers();
  /// Body of one worker thread: drain ≤ max_batch requests per wakeup,
  /// serve them against one snapshot, wake the owners; exits when `stop`
  /// is set and the queue is empty.
  void worker_loop(WorkerShard& w);
  /// Worker-shard tune(): route by region hash, park until served.
  TuneResult tune_sharded(const TuneRequest& request);

  const core::MeasurementDb& db_;
  TuningServiceOptions opt_;
  std::shared_ptr<Counters> counters_;
  VersionedSnapshot<Snapshot> snapshot_;
  std::mutex reload_mu_;  ///< serializes publishes (ctor + reload)

  // Admission queue (leader/follower combining; unused in worker mode).
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::vector<Pending*> queue_;
  bool leader_active_ = false;

  // Worker shards (empty on the leader/follower path). The vector is
  // filled once in the constructor and never resized, so unsynchronized
  // reads of workers_.size()/workers_[i] are safe.
  std::vector<std::unique_ptr<WorkerShard>> workers_;

  // ServeCtx pool (grows on demand, reused forever).
  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<ServeCtx>> ctx_owned_;
  std::vector<ServeCtx*> ctx_free_;
};

}  // namespace pnp::serve
