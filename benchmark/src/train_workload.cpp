/// \file train_workload.cpp
/// train_power: train the power-scenario tuner on the 68 paper regions plus
/// 512 generated ones, holding out every generated application whose index
/// is a multiple of 4 (the unseen-app split), for a fixed number of epochs
/// with early stopping off; then answer the held-out grid and score it with
/// core::Evaluator. It is the only workload whose measured phase runs the
/// RGCN backward pass and AdamW, and its quality metrics catch a speed-up
/// that changes what the tuner picks.
///
/// A run: rounds of a set-up repetition (setup_s is the median), a
/// training (train_s is the fastest; every one must produce bit-identical
/// weights) and a closed-loop pass of uncached PnpTuner::predict_power over
/// every (region, cap) of the db (the latency metrics), until the run's
/// time is up; scoring the held-out grid against a quality floor; an
/// artifact round trip. Traced runs add the per-layer replays. Rounds
/// spread every kind of sample over the whole run, so each run's numbers
/// sample all of a shared host's faster and slower phases.

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "core/tuner_artifact.hpp"
#include "hw/machine_generator.hpp"
#include "layers.hpp"
#include "serve/protocol.hpp"
#include "workload.hpp"
#include "workloads/generator.hpp"

namespace pnp::bench {

namespace {

namespace protocol = serve::protocol;
using Clock = std::chrono::steady_clock;

constexpr int kGeneratedRegions = 512;
constexpr std::uint64_t kCorpusSeed = 2023;
constexpr int kHeldOutEvery = 4;
/// Fixed epoch count (early stop off): about 0.45 s of training per
/// repetition on a 4-core host, so a run holds some 35 rounds. On a
/// shared host the fastest of many short trainings is far steadier than
/// the fastest of a few long ones: a neighbour that slows the host for
/// seconds slows every long repetition, but rarely every short one. Four
/// epochs already reach the held-out quality of twelve (1.317x vs 1.320x).
constexpr int kEpochs = 4;
/// The model's initialization and shuffling seed is part of the workload's
/// definition, so every run trains the same model (and its quality metrics
/// repeat exactly); the run seed orders the prediction passes and replays.
constexpr std::uint64_t kModelSeed = 42;
/// Quality floors on the held-out grid, set a margin below the values the
/// fixed model seed reaches (1.317x, 0.523; README.md, "Calibration").
constexpr double kMinSpeedup = 1.25;
constexpr double kMinOracleMatch = 0.45;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// "g12_stencil" → 12; -1 for names the generator did not produce.
int app_index(const std::string& app) {
  if (!workloads::Generator::family_of(app)) return -1;
  const auto us = app.find('_');
  return std::stoi(app.substr(1, us - 1));
}

struct TrainEnv {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<workloads::Corpus> generated;
  std::unique_ptr<core::MeasurementDb> db;
  core::EvalSplit split;
  std::unique_ptr<core::Evaluator> evaluator;
  double setup_s = 0.0, corpus_ms = 0.0, db_ms = 0.0;
};

std::unique_ptr<TrainEnv> setup() {
  auto env = std::make_unique<TrainEnv>();
  const auto t0 = Clock::now();
  const hw::MachineModel machine = hw::machine_by_name("haswell");
  env->sim = std::make_unique<sim::Simulator>(machine);
  auto regions = workloads::Suite::instance().all_regions();
  const auto c0 = Clock::now();
  workloads::GeneratorOptions g;
  g.seed = kCorpusSeed;
  g.num_regions = kGeneratedRegions;
  env->generated =
      std::make_unique<workloads::Corpus>(workloads::Generator(g).generate());
  for (const auto& rr : env->generated->all_regions()) regions.push_back(rr);
  env->corpus_ms = ms_since(c0);
  const auto d0 = Clock::now();
  env->db = std::make_unique<core::MeasurementDb>(
      *env->sim, core::SearchSpace::for_machine(machine), regions);
  env->db_ms = ms_since(d0);
  env->split = core::make_app_split(*env->db, "unseen-app",
                                    [](const std::string& app) {
                                      const int i = app_index(app);
                                      return i >= 0 && i % kHeldOutEvery == 0;
                                    });
  env->evaluator = std::make_unique<core::Evaluator>(*env->sim, *env->db);
  env->setup_s = seconds_since(t0);
  return env;
}

bool same_weights(const core::PnpTuner& a, const core::PnpTuner& b) {
  const StateDict sa = a.net().state_dict(), sb = b.net().state_dict();
  if (sa.names() != sb.names()) return false;
  for (const std::string& n : sa.names())
    if (sa.get(n) != sb.get(n)) return false;
  return true;
}

}  // namespace

RunResult run_train_workload(const RunArgs& args, Tracer* tracer) {
  const auto t_start = Clock::now();
  RunResult res;
  std::vector<double> setup_s, corpus_ms, db_ms;
  const auto timed_setup = [&] {
    std::unique_ptr<TrainEnv> e = setup();
    setup_s.push_back(e->setup_s);
    corpus_ms.push_back(e->corpus_ms);
    db_ms.push_back(e->db_ms);
    return e;
  };
  const std::unique_ptr<TrainEnv> env = timed_setup();
  const core::MeasurementDb& db = *env->db;
  const core::Evaluator& evaluator = *env->evaluator;

  core::EvaluatorOptions eopt;
  eopt.pnp.trainer.max_epochs = kEpochs;
  eopt.pnp.trainer.patience = kEpochs;
  eopt.pnp.trainer.min_loss = 0.0;
  eopt.pnp.seed = kModelSeed;
  eopt.pnp.trainer.seed = hash_combine(kModelSeed, 1);

  // Predictions: closed loop, one caller, no cache. Every (region, cap) of
  // the db, in one seeded order, pass after pass. The work of one
  // prediction is fixed, so its latency is the fastest of its passes: on a
  // shared host the slower passes measure the neighbours.
  const int caps = db.num_caps();
  const std::size_t cells = static_cast<std::size_t>(db.num_regions()) *
                            static_cast<std::size_t>(caps);
  std::vector<std::size_t> order(cells);
  for (std::size_t i = 0; i < cells; ++i) order[i] = i;
  Rng rng(args.seed);
  rng.shuffle(order);
  std::vector<double> best_us(cells, std::numeric_limits<double>::infinity());
  std::vector<sim::OmpConfig> first(cells);
  double best_rate = 0.0;
  std::uint64_t pass_mismatch = 0, predictions = 0;

  // --- Rounds until the budget is spent: a set-up repetition (built and
  // torn down), a training of fixed epochs, a prediction pass. Every
  // training must give the weights of the first, every pass its answers.
  const double budget = (tracer ? 0.7 : 0.9) * args.seconds;
  std::vector<double> train_s;
  std::unique_ptr<core::PnpTuner> tuner;
  for (int pass = 0; pass < 3 || seconds_since(t_start) < budget; ++pass) {
    if (pass > 0) timed_setup();
    const auto r0 = Clock::now();
    auto t = std::make_unique<core::PnpTuner>(
        evaluator.train(env->split, eopt));
    train_s.push_back(seconds_since(r0));
    if (!tuner) {
      tuner = std::move(t);
    } else if (!same_weights(*tuner, *t)) {
      res.problems.push_back("training repetition " +
                             std::to_string(train_s.size()) +
                             " produced different weights");
      ++res.failed;
    }

    const auto p0 = Clock::now();
    for (const std::size_t i : order) {
      const int region = static_cast<int>(i / static_cast<std::size_t>(caps));
      const int cap = static_cast<int>(i % static_cast<std::size_t>(caps));
      const auto q0 = Clock::now();
      const sim::OmpConfig cfg = tuner->predict_power(region, cap);
      best_us[i] = std::min(best_us[i], seconds_since(q0) * 1e6);
      if (pass == 0)
        first[i] = cfg;
      else if (!(first[i] == cfg))
        ++pass_mismatch;
    }
    best_rate = std::max(best_rate,
                         static_cast<double>(cells) / seconds_since(p0));
    predictions += cells;
  }
  res.end_to_end.set("setup_s", args.suite_s + median_value(setup_s), "s");
  res.layers.set("workloads.corpus_ms",
                 args.suite_s * 1e3 + median_value(corpus_ms), "ms");
  res.layers.set("sim.db_build_ms", median_value(db_ms), "ms");
  res.layers.set("setup.repetitions", static_cast<double>(setup_s.size()),
                 "count");
  // Every training does the same work: the fastest is its cost.
  res.end_to_end.set("train_s",
                     *std::min_element(train_s.begin(), train_s.end()), "s");
  res.layers.set("train.repetitions", static_cast<double>(train_s.size()),
                 "count");
  res.attempted += train_s.size() + predictions;
  res.end_to_end.set("latency_p50_us", quantile(best_us, 0.5), "us");
  res.layers.set("latency_p99_us", quantile(best_us, 0.99), "us");
  // A closed loop on one caller: its fastest pass is its capacity (its
  // latency is far inside any SLO the serving workloads use).
  res.end_to_end.set("max_rps_at_slo", best_rate, "1/s");
  res.layers.set("train.predict_passes",
                 static_cast<double>(predictions / cells), "count");
  if (pass_mismatch > 0) {
    res.problems.push_back(std::to_string(pass_mismatch) +
                           " predictions changed between passes");
    res.failed += pass_mismatch;
  }
  // The held-out grid's answers, in Evaluator::queries order.
  const std::vector<core::Evaluator::Query> queries =
      evaluator.queries(env->split);
  std::vector<sim::OmpConfig> held_out;
  for (const auto& q : queries)
    held_out.push_back(first[static_cast<std::size_t>(q.region) *
                                 static_cast<std::size_t>(caps) +
                             static_cast<std::size_t>(q.cap_index)]);

  // --- Quality on the held-out grid, against the floors. ---
  {
    std::vector<Span> buf;
    Section s(tracer, "core.score");
    const core::SplitResult sr = evaluator.score(env->split, held_out);
    res.layers.set("core.score_ms", static_cast<double>(s.close(buf)) / 1e6,
                   "ms");
    if (tracer) tracer->add_all(buf);
    res.end_to_end.set("speedup_geomean", sr.overall.geomean_speedup, "x");
    res.end_to_end.set("oracle_match", sr.overall.oracle_match, "fraction");
    res.layers.set("train.test_regions",
                   static_cast<double>(sr.num_test_regions), "count");
    res.layers.set("train.train_regions",
                   static_cast<double>(sr.num_train_regions), "count");
    if (sr.overall.geomean_speedup < kMinSpeedup ||
        sr.overall.oracle_match < kMinOracleMatch) {
      res.problems.push_back("held-out quality below the floor (speedup " +
                             std::to_string(sr.overall.geomean_speedup) +
                             ", oracle match " +
                             std::to_string(sr.overall.oracle_match) + ")");
      ++res.failed;
    }
  }

  // --- Artifact round trip: the reloaded tuner answers identically. ---
  const std::string model_path = args.tmp_dir + "/model.pnp";
  std::filesystem::create_directories(args.tmp_dir);
  tuner->save(model_path);
  {
    const core::PnpTuner back = core::PnpTuner::load(db, model_path);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(256, queries.size()); ++i)
      if (!(back.predict_power(queries[i].region, queries[i].cap_index) ==
            held_out[i]))
        ++bad;
    if (bad > 0) {
      res.problems.push_back(std::to_string(bad) +
                             " predictions changed across an artifact round "
                             "trip");
      res.failed += bad;
    }
  }

  if (tracer) {
    std::vector<Span> buf;
    std::vector<double> ctor_ms;
    for (int i = 0; i < 3; ++i) {
      Section s(tracer, "core.tuner_ctor");
      const core::PnpTuner t(db, eopt.pnp);
      ctor_ms.push_back(static_cast<double>(s.close(buf)) / 1e6);
    }
    tracer->add_all(buf);
    res.layers.set("core.tuner_ctor_ms", median_value(ctor_ms), "ms");

    // Tracing overhead: the same epoch replay untraced, then traced.
    const double plain =
        replay_epoch(*tuner, env->split.train_regions, /*cap_onehot=*/true,
                     args.seed, nullptr, nullptr);
    const double traced =
        replay_epoch(*tuner, env->split.train_regions, /*cap_onehot=*/true,
                     args.seed, tracer, &res.layers);
    res.layers.set("trace.overhead_frac", traced / plain - 1.0, "fraction");

    replay_graph_build(db, tuner->vocab(), 256, tracer, res.layers);
    replay_artifact_load(db, model_path, 3, tracer, res.layers);
    replay_observe_append(db, args.tmp_dir + "/append-replay.log", 2000,
                          args.seed, tracer, res.layers);

    // The held-out grid through the serving layers, in process.
    std::vector<ReplayOp> ops;
    for (const auto& q : queries)
      ops.push_back({false, 0, serve::TuneRequest::power(q.region, q.cap_index)});
    const std::vector<std::string> artifacts{model_path};
    const auto model_out =
        replay_model(db, artifacts, {}, ops, tracer, res.layers);
    const auto svc_out =
        replay_service(db, artifacts, {}, ops, 2, 3, tracer, res.layers);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < queries.size(); ++i)
      if (!(model_out[i] == held_out[i]) ||
          !(svc_out[i].config == held_out[i]))
        ++bad;
    if (bad > 0) {
      res.problems.push_back(std::to_string(bad) +
                             " serving-layer answers differ from "
                             "PnpTuner::predict_power");
      res.failed += bad;
    }

    // Wire codec cost on this workload's messages (no socket).
    std::vector<double> enc_ns, dec_ns;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      protocol::Request q;
      q.id = i + 1;
      q.op = protocol::Op::Power;
      q.tune = ops[i].tune;
      Section e(tracer, "serve.protocol.encode_request");
      const std::string bytes = protocol::encode_request(q);
      enc_ns.push_back(static_cast<double>(e.close(buf)));
      const std::string reply =
          protocol::encode_tune_response(q.id, q.op, svc_out[i]);
      Section d(tracer, "serve.protocol.decode_response");
      const protocol::Response resp = protocol::decode_response(reply);
      dec_ns.push_back(static_cast<double>(d.close(buf)));
      if (resp.id != q.id || bytes.empty()) {
        res.problems.push_back("wire codec round trip lost request " +
                               std::to_string(q.id));
        ++res.failed;
      }
    }
    tracer->add_all(buf);
    res.layers.set("serve.protocol.encode_request_ns", median_value(enc_ns),
                   "ns");
    res.layers.set("serve.protocol.decode_response_ns", median_value(dec_ns),
                   "ns");
  }
  std::filesystem::remove(model_path);
  res.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return res;
}

}  // namespace pnp::bench
