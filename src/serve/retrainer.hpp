#pragma once

/// \file retrainer.hpp
/// The continual-retraining half of the serving feedback loop
/// (docs/SERVING.md, "Model lifecycle"):
///
///   observe → MeasurementLog → replay onto a train db → warm-start
///   fine-tune → held-out validation → regression gate → reload()
///
/// RetrainController owns a mutable *copy* of the service's measurement
/// db. Each round it replays any new log records onto that copy (the
/// serving db stays immutable — in-flight requests never race an ingest),
/// restores a candidate tuner from the currently-published artifact's
/// weights, fine-tunes it on the grown table, and scores candidate vs.
/// incumbent on a held-out region split with core::Evaluator. Only a
/// candidate that beats the incumbent on the gate metrics (geomean
/// speedup strictly better, oracle-match no worse than the configured
/// slack, f32-tier flip rate within bounds) is saved and published
/// through TuningService::reload(). Every failed candidate is counted
/// and discarded; the incumbent keeps serving bit-identical predictions.
///
/// Failure contract, per round:
///  - unreadable / torn / poisoned log  → RejectedLog, nothing applied,
///    nothing trained, nothing published;
///  - candidate not better on the gate  → RejectedGate, not published;
///  - candidate save/reload failure     → RejectedCandidate, the
///    incumbent keeps serving (reload() already guarantees this).
///
/// Power scenario only (core::Evaluator scores scenario 1). The optional
/// background thread (start/stop) is how pnp_served --retrain-interval
/// drives it; run_once() is the synchronous unit tests and tools call.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/measurement_log.hpp"
#include "serve/tuning_service.hpp"

namespace pnp::serve {

struct RetrainOptions {
  /// The MeasurementLog file observations land in (required).
  std::string log_path;
  /// Where gated candidates are saved before reload() republishes them
  /// (required). Overwritten per publish.
  std::string publish_path;
  /// Regions held out of fine-tuning and used to score the gate. Empty →
  /// every 4th region (deterministic default).
  std::vector<int> holdout_regions;
  /// Per-round fine-tune budget (epochs/patience/min_loss). `threads` is
  /// ignored: fine-tuning always runs on the controller's one thread.
  nn::TrainerConfig fine_tune;
  /// A round with fewer than this many unconsumed records is a no-op.
  std::uint64_t min_new_records = 1;
  /// The candidate's held-out geomean speedup must exceed the
  /// incumbent's by more than this margin.
  double min_speedup_gain = 0.0;
  /// The candidate's oracle-match may be at most this much below the
  /// incumbent's.
  double oracle_match_slack = 0.0;
  /// When the service serves the f32 tier: the candidate's f32-vs-f64
  /// flip rate on the held-out grid must not exceed this.
  double max_flip_rate = 1.0;
  /// Log each round's outcome to stderr.
  bool verbose = false;
  /// Test-only: invoked with publish_path after the candidate is saved
  /// and before reload() — lets tests corrupt the artifact mid-publish
  /// to prove a corrupt candidate never serves. Must be null in
  /// production use.
  std::function<void(const std::string&)> test_hook_after_save;
};

class RetrainController {
 public:
  /// `sim` scores held-out predictions (noiseless expected()); `service`
  /// supplies the incumbent artifact and the reload() publish path. Both
  /// must outlive the controller. Throws pnp::Error unless the service
  /// serves the power scenario and the options name a log + publish path.
  RetrainController(const sim::Simulator& sim, TuningService& service,
                    RetrainOptions options);

  RetrainController(const RetrainController&) = delete;
  RetrainController& operator=(const RetrainController&) = delete;

  /// Implies stop().
  ~RetrainController();

  enum class Outcome {
    NoNewData,          ///< fewer than min_new_records unconsumed records
    Published,          ///< candidate beat the gate and is now serving
    RejectedGate,       ///< candidate trained but not better on held-out
    RejectedCandidate,  ///< candidate save or reload failed
    RejectedLog,        ///< log unreadable/torn/poisoned; nothing applied
  };

  /// One synchronous ingest → retrain → gate → publish round.
  /// Thread-safe (rounds are serialized); never throws — every failure
  /// maps to an Outcome and a counter.
  Outcome run_once();

  /// Start the background thread: one run_once() every `interval` until
  /// stop(). Throws if already started.
  void start(std::chrono::milliseconds interval);
  /// Stop and join the background thread (no-op when not started). The
  /// round in flight, if any, completes first.
  void stop();

  struct Stats {
    std::uint64_t observed = 0;       ///< records ingested into the train db
    std::uint64_t attempts = 0;       ///< rounds that trained a candidate
    std::uint64_t published = 0;
    std::uint64_t rejected_gate = 0;
    std::uint64_t rejected_candidate = 0;
    std::uint64_t rejected_log = 0;
    std::uint64_t last_published_version = 0;  ///< 0 = never published
  };
  Stats stats() const;

  /// The controller's private training table (the serving db plus every
  /// replayed observation). Exposed for tests that perturb the table to
  /// stage improvement/regression scenarios; production code never
  /// touches it.
  core::MeasurementDb& train_db() { return train_db_; }

  /// Regions the gate scores on (the configured or derived holdout).
  const std::vector<int>& holdout_regions() const { return holdout_; }

 private:
  Outcome run_once_locked();
  void log_outcome(Outcome outcome, const std::string& detail);

  const sim::Simulator& sim_;
  TuningService& service_;
  RetrainOptions opt_;
  core::MeasurementDb train_db_;  ///< private copy; grown by replay
  std::vector<int> holdout_;
  std::vector<int> train_regions_;

  std::mutex round_mu_;     ///< serializes run_once rounds
  std::size_t consumed_ = 0;  ///< log records already replayed (round_mu_)

  std::atomic<std::uint64_t> observed_{0}, attempts_{0}, published_{0},
      rejected_gate_{0}, rejected_candidate_{0}, rejected_log_{0},
      last_published_version_{0};

  std::mutex thread_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace pnp::serve
