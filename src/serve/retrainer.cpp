#include "serve/retrainer.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "core/tuner_artifact.hpp"

namespace pnp::serve {

namespace {

const char* outcome_name(RetrainController::Outcome o) {
  switch (o) {
    case RetrainController::Outcome::NoNewData: return "no-new-data";
    case RetrainController::Outcome::Published: return "published";
    case RetrainController::Outcome::RejectedGate: return "rejected-gate";
    case RetrainController::Outcome::RejectedCandidate:
      return "rejected-candidate";
    case RetrainController::Outcome::RejectedLog: return "rejected-log";
  }
  return "unknown";
}

}  // namespace

RetrainController::RetrainController(const sim::Simulator& sim,
                                     TuningService& service,
                                     RetrainOptions options)
    : sim_(sim),
      service_(service),
      opt_(std::move(options)),
      train_db_(service.db()) {
  PNP_CHECK_MSG(!opt_.log_path.empty(), "retrain needs a measurement log path");
  PNP_CHECK_MSG(!opt_.publish_path.empty(),
                "retrain needs a candidate publish path");
  PNP_CHECK_MSG(service_.mode() == core::PnpTuner::Mode::Power,
                "the retrain gate scores the power scenario; an edp service "
                "cannot be retrained online");

  const int n = train_db_.num_regions();
  holdout_ = opt_.holdout_regions;
  if (holdout_.empty()) {
    // Deterministic default: every 4th region is held out of fine-tuning
    // and scores the gate.
    for (int r = 3; r < n; r += 4) holdout_.push_back(r);
  }
  std::sort(holdout_.begin(), holdout_.end());
  holdout_.erase(std::unique(holdout_.begin(), holdout_.end()),
                 holdout_.end());
  for (int r : holdout_)
    PNP_CHECK_MSG(r >= 0 && r < n,
                  "holdout region " << r << " outside the db's " << n);
  for (int r = 0; r < n; ++r)
    if (!std::binary_search(holdout_.begin(), holdout_.end(), r))
      train_regions_.push_back(r);
  PNP_CHECK_MSG(!holdout_.empty() && !train_regions_.empty(),
                "retrain needs both a training and a held-out region set ("
                    << n << " regions, " << holdout_.size() << " held out)");
}

RetrainController::~RetrainController() { stop(); }

void RetrainController::start(std::chrono::milliseconds interval) {
  PNP_CHECK_MSG(!thread_.joinable(), "retrain thread already started");
  {
    std::lock_guard<std::mutex> lk(thread_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lk(thread_mu_);
    for (;;) {
      if (stop_cv_.wait_for(lk, interval, [this] { return stop_; })) return;
      lk.unlock();
      run_once();
      lk.lock();
    }
  });
}

void RetrainController::stop() {
  {
    std::lock_guard<std::mutex> lk(thread_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

RetrainController::Stats RetrainController::stats() const {
  Stats s;
  s.observed = observed_.load(std::memory_order_acquire);
  s.attempts = attempts_.load(std::memory_order_acquire);
  s.published = published_.load(std::memory_order_acquire);
  s.rejected_gate = rejected_gate_.load(std::memory_order_acquire);
  s.rejected_candidate = rejected_candidate_.load(std::memory_order_acquire);
  s.rejected_log = rejected_log_.load(std::memory_order_acquire);
  s.last_published_version =
      last_published_version_.load(std::memory_order_acquire);
  return s;
}

void RetrainController::log_outcome(Outcome outcome,
                                    const std::string& detail) {
  if (!opt_.verbose) return;
  std::fprintf(stderr, "retrain: %s%s%s\n", outcome_name(outcome),
               detail.empty() ? "" : " — ", detail.c_str());
}

RetrainController::Outcome RetrainController::run_once() {
  std::lock_guard<std::mutex> lk(round_mu_);
  return run_once_locked();
}

RetrainController::Outcome RetrainController::run_once_locked() {
  // --- 1. Ingest: read + validate the whole log, replay the new tail. ----
  std::vector<core::MeasurementRecord> records;
  try {
    records = core::MeasurementLog::read_all(opt_.log_path);
    PNP_CHECK_MSG(records.size() >= consumed_,
                  "measurement log shrank under the retrainer ("
                      << records.size() << " records, " << consumed_
                      << " already consumed)");
  } catch (const std::exception& e) {
    rejected_log_.fetch_add(1, std::memory_order_release);
    log_outcome(Outcome::RejectedLog, e.what());
    return Outcome::RejectedLog;
  }
  if (records.size() - consumed_ < opt_.min_new_records) {
    log_outcome(Outcome::NoNewData, "");
    return Outcome::NoNewData;
  }
  try {
    // All-or-nothing: one record that cannot land on the grid aborts the
    // whole batch before any cell is overwritten, and stays unconsumed —
    // a poisoned log keeps being rejected, it never trains anything.
    const std::size_t applied =
        core::replay_observations(train_db_, records, consumed_);
    consumed_ = records.size();
    observed_.fetch_add(applied, std::memory_order_release);
  } catch (const std::exception& e) {
    rejected_log_.fetch_add(1, std::memory_order_release);
    log_outcome(Outcome::RejectedLog, e.what());
    return Outcome::RejectedLog;
  }

  // --- 2. Warm-start a candidate from the incumbent's weights. -----------
  core::SplitMetrics inc_metrics, cand_metrics;
  std::uint64_t incumbent_version = 0;
  try {
    const core::TunerArtifact incumbent_art = service_.current_artifact();
    incumbent_version = service_.model_version();
    attempts_.fetch_add(1, std::memory_order_release);

    core::PnpTuner candidate =
        core::PnpTuner::from_artifact(train_db_, incumbent_art);
    // One thread: a background retrain never takes the serving cores.
    nn::TrainerConfig fine_tune = opt_.fine_tune;
    fine_tune.threads = 1;
    candidate.fine_tune(train_regions_, fine_tune);

    // --- 3. Gate: incumbent vs candidate on the held-out split. ----------
    core::EvalSplit split;
    split.name = "retrain-gate";
    split.train_regions = train_regions_;
    split.test_regions = holdout_;
    const core::Evaluator ev(sim_, train_db_);
    const auto queries = ev.queries(split);

    const core::PnpTuner incumbent =
        core::PnpTuner::from_artifact(train_db_, incumbent_art);
    std::vector<sim::OmpConfig> inc_cfgs, cand_cfgs;
    inc_cfgs.reserve(queries.size());
    cand_cfgs.reserve(queries.size());
    for (const auto& q : queries) {
      inc_cfgs.push_back(incumbent.predict_power(q.region, q.cap_index));
      cand_cfgs.push_back(candidate.predict_power(q.region, q.cap_index));
    }
    inc_metrics = ev.score(split, inc_cfgs).overall;
    cand_metrics = ev.score(split, cand_cfgs).overall;

    const bool better =
        cand_metrics.geomean_speedup >
            inc_metrics.geomean_speedup + opt_.min_speedup_gain &&
        cand_metrics.oracle_match >=
            inc_metrics.oracle_match - opt_.oracle_match_slack;
    bool tier_ok = true;
    double flip_rate = 0.0;
    if (better && service_.precision() == nn::Precision::f32) {
      // The service serves the f32 tier: the candidate must also stay
      // within the precision-delta bound, scored exactly like pnp_eval's
      // precision_tier block (f64 reference vs f32-tier batch output).
      TuningServiceOptions f32_opt;
      f32_opt.precision = nn::Precision::f32;
      TuningService f32_service(
          core::PnpTuner::from_artifact(train_db_, candidate.to_artifact()),
          f32_opt);
      std::vector<TuneRequest> batch;
      batch.reserve(queries.size());
      for (const auto& q : queries)
        batch.push_back(TuneRequest::power(q.region, q.cap_index));
      std::vector<sim::OmpConfig> f32_cfgs;
      f32_cfgs.reserve(queries.size());
      for (const TuneResult& r : f32_service.tune_batch(batch))
        f32_cfgs.push_back(r.config);
      flip_rate = ev.precision_delta(split, cand_cfgs, f32_cfgs).flip_rate;
      tier_ok = flip_rate <= opt_.max_flip_rate;
    }

    char detail[256];
    std::snprintf(detail, sizeof detail,
                  "held-out speedup %.4f -> %.4f, oracle-match %.3f -> %.3f, "
                  "flip-rate %.3f (incumbent v%llu)",
                  inc_metrics.geomean_speedup, cand_metrics.geomean_speedup,
                  inc_metrics.oracle_match, cand_metrics.oracle_match,
                  flip_rate,
                  static_cast<unsigned long long>(incumbent_version));
    if (!better || !tier_ok) {
      rejected_gate_.fetch_add(1, std::memory_order_release);
      log_outcome(Outcome::RejectedGate, detail);
      return Outcome::RejectedGate;
    }

    // --- 4. Publish through the zero-downtime reload path. ---------------
    candidate.save(opt_.publish_path);
    if (opt_.test_hook_after_save) opt_.test_hook_after_save(opt_.publish_path);
    const std::uint64_t v = service_.reload(opt_.publish_path);
    last_published_version_.store(v, std::memory_order_release);
    published_.fetch_add(1, std::memory_order_release);
    log_outcome(Outcome::Published, detail);
    return Outcome::Published;
  } catch (const std::exception& e) {
    // Training, save, or reload failed: the candidate is discarded and the
    // incumbent keeps serving (reload() never publishes on failure).
    rejected_candidate_.fetch_add(1, std::memory_order_release);
    log_outcome(Outcome::RejectedCandidate, e.what());
    return Outcome::RejectedCandidate;
  }
}

}  // namespace pnp::serve
