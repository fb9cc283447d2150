#pragma once

/// \file tuning_service.hpp
/// Thread-safe concurrent tuning service — the production front end of the
/// paper's deployment story: many callers asking "best (threads, schedule,
/// chunk) under this power cap" at once, against a model that can be
/// replaced without downtime. The service has no scheduler of its own:
/// tune() serves on the calling thread, so concurrency is whatever the
/// caller brings (serve::Server's worker pool on the wire path). Three
/// mechanisms (docs/SERVING.md has the full contracts):
///
///  - **Striped encoding cache.** Per-region GNN readouts (serve::Encoding,
///    about 200 B each) live behind kCacheStripes lock stripes
///    (common/sync.hpp StripedSharedMutex), so queries for unrelated
///    regions never contend; each region is encoded at most once per
///    model version, outside any lock.
///
///  - **Leased serving contexts.** Each call leases a ServeCtx — the
///    arena-backed Workspace (nn/arena.hpp) its dense heads and decode
///    run in, plus the GNN workspace a miss encodes in — from a pool that
///    grows to the peak number of concurrent callers and is reused
///    forever, so steady-state cache hits allocate nothing.
///
///  - **Versioned hot reload.** reload(path) loads and validates a new
///    artifact entirely off to the side, then atomically publishes it
///    (common/sync.hpp VersionedSnapshot). In-flight requests finish on
///    the snapshot they started on; requests started after the publish
///    use the new model; a failed reload (corrupt / incompatible /
///    missing artifact) throws and the old model keeps serving. Every
///    result is tagged with the model version that served it.
///
/// Determinism contract: a request's result is a pure function of
/// (request, model version). Concurrent execution, cache state, and
/// thread count never change any result — the stress suite
/// (tests/service_test.cpp) checks bit-identity against a single-threaded
/// reference run, including across a mid-stream reload.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
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
  /// Serving tier override passed to every published ModelState; nullopt
  /// uses each artifact's persisted preference (f64 for artifacts
  /// predating the f32 tier). A reload may therefore switch tiers
  /// mid-stream when the new artifact asks for a different one.
  std::optional<nn::Precision> precision;
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

  /// Serve one request on the calling thread against the current model
  /// snapshot. Thread-safe; counts one request and one batch. Throws
  /// pnp::Error for invalid requests (bad region/cap, kind not servable
  /// by the current model's scenario) — an invalid request never affects
  /// any other caller.
  TuneResult tune(const TuneRequest& request);

  /// Serve a caller-assembled batch on the calling thread against one
  /// model snapshot: one result per request, in order, all tagged with
  /// the same version. Thread-safe. This is the offline batch API
  /// (pnp_tune, pnp_eval, the retrain gate) and the only call that
  /// coalesces: n requests count one batch and n − 1 coalesced. Throws
  /// on the first invalid request (the ones before it were served); an
  /// empty batch counts nothing.
  std::vector<TuneResult> tune_batch(std::span<const TuneRequest> requests);

  /// Zero-downtime model replacement: load the artifact at `path`,
  /// validate it against the live db and the served scenario, and
  /// atomically publish it as the new version. Returns the new version.
  /// On any failure — missing file, corrupt bytes, wrong search space,
  /// scenario switch — throws pnp::Error and the current model keeps
  /// serving, unchanged. Concurrent reloads are serialized.
  std::uint64_t reload(const std::string& artifact_path);

  /// Version of the model currently serving new requests.
  std::uint64_t model_version() const { return snapshot_.version(); }
  /// Scenario of the model currently serving new requests.
  core::PnpTuner::Mode mode() const;
  /// Inference tier of the model currently serving new requests.
  nn::Precision precision() const;
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
    std::uint64_t batches = 0;        ///< one per tune(), one per
                                      ///< non-empty tune_batch()
    std::uint64_t coalesced = 0;      ///< requests − batches: the extra
                                      ///< members of tune_batch() calls
                                      ///< (tune() never coalesces)
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

  /// Lock stripes of each snapshot's encoding cache.
  static constexpr std::size_t kCacheStripes = 16;

  /// One published model: the immutable ModelState plus its striped
  /// readout cache. The cache is internally synchronized and append-only
  /// (entries are never replaced or erased), so a reference returned by
  /// encoding() stays valid for the snapshot's lifetime.
  struct Snapshot {
    Snapshot(core::PnpTuner tuner, std::optional<nn::Precision> precision,
             std::shared_ptr<Counters> counters);

    std::uint64_t version = 0;
    ModelState model;
    StripedSharedMutex locks{kCacheStripes};
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

  /// RAII lease of a ServeCtx from the service pool.
  class CtxLease {
   public:
    explicit CtxLease(TuningService& svc);
    ~CtxLease();
    ServeCtx& get() { return *ctx_; }

   private:
    TuningService& svc_;
    ServeCtx* ctx_;
  };

  /// Build + publish a snapshot; all publishes run under reload_mu_.
  std::uint64_t publish_locked(core::PnpTuner tuner);

  const core::MeasurementDb& db_;
  TuningServiceOptions opt_;
  std::shared_ptr<Counters> counters_;
  VersionedSnapshot<Snapshot> snapshot_;
  std::mutex reload_mu_;  ///< serializes publishes (ctor + reload)

  // ServeCtx pool (grows on demand, reused forever).
  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<ServeCtx>> ctx_owned_;
  std::vector<ServeCtx*> ctx_free_;
};

}  // namespace pnp::serve
