/// \file pnp_eval.cpp
/// Cross-suite generalization harness CLI (docs/WORKLOADS.md):
///
///   pnp_eval --seed 7 --regions 64 [--machine haswell|skylake]
///            [--epochs N] [--max-per-app K] [--counters]
///            [--heads factored|dense] [--space table1|extended]
///            [--out FILE]
///
/// End-to-end flow: procedurally generate a corpus of --regions OpenMP
/// regions (workloads::Generator), build one MeasurementDb over paper
/// suite + generated corpus, then train/evaluate the §IV split axes via
/// core::Evaluator with predictions served through
/// serve::TuningService::tune_batch:
///
///   - unseen-app:          train on the 68 paper regions, test on every
///                          generated region (all apps unseen);
///   - unseen-family-<f>:   train on paper + all generated families but f,
///                          test on family f (one split per family
///                          present in the generated corpus);
///   - unseen-cap-low/high: train on paper regions at all caps but one
///                          (scalar cap feature + counters), test on the
///                          generated regions at the held-out cap;
///   - unseen-machine:      with --machines N --holdout-machines K, build
///                          a seeded hardware-zoo fleet (docs/HARDWARE.md),
///                          train one machine-conditioned tuner across the
///                          first N−K machines' tables, and score the v4
///                          fleet artifact on the K machines it never saw
///                          (the "machine_split" JSON block).
///
/// Output is one stable JSON document (schema "pnp-eval-v4", self-checked
/// with json_validate before writing): a pure function of the flags, so
/// two runs with the same arguments are byte-identical, whatever the CPU
/// affinity mask (and so the trainer's thread count). CI runs it twice
/// and diffs.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "core/evaluator.hpp"
#include "core/fleet.hpp"
#include "core/tuner_artifact.hpp"
#include "hw/machine_generator.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

namespace {

struct Args {
  std::uint64_t seed = 7;
  int regions = 64;
  int max_per_app = 4;
  int epochs = 12;
  bool counters = false;
  std::string machine = "haswell";
  std::string heads = "factored";  // factored | dense
  std::string space = "table1";    // table1 | extended
  int machines = 0;                // 0 = no unseen-machine split
  int holdout_machines = 2;
  std::string out_path;  // empty = stdout
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--regions N] [--machine NAME]\n"
               "          [--epochs N] [--max-per-app N] [--counters]\n"
               "          [--heads factored|dense] [--space table1|extended]\n"
               "          [--machines N]\n"
               "          [--holdout-machines K] [--out FILE]\n"
               "machine names: haswell, skylake, or gen:<seed>:<index>\n"
               "--machines N adds the unseen-machine split over an N-machine\n"
               "generated fleet (table1 space only), holding out the last K\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (flag == "--seed") a.seed = parse_uint64(value(), "--seed");
      else if (flag == "--regions")
        a.regions = parse_int(value(), "--regions", 1, 100000);
      else if (flag == "--machine") a.machine = value();
      else if (flag == "--epochs")
        a.epochs = parse_int(value(), "--epochs", 1, 100000);
      else if (flag == "--max-per-app")
        a.max_per_app = parse_int(value(), "--max-per-app", 1, 100000);
      else if (flag == "--counters") a.counters = true;
      else if (flag == "--heads") a.heads = value();
      else if (flag == "--space") a.space = value();
      else if (flag == "--machines")
        a.machines = parse_int(value(), "--machines", 2, 256);
      else if (flag == "--holdout-machines")
        a.holdout_machines = parse_int(value(), "--holdout-machines", 1, 255);
      else if (flag == "--out") a.out_path = value();
      else usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  if (a.machines > 0) {
    if (a.machines - a.holdout_machines < 1) {
      std::fprintf(stderr,
                   "--holdout-machines %d leaves no training machine out of "
                   "--machines %d\n",
                   a.holdout_machines, a.machines);
      usage(argv[0]);
    }
    if (a.space != "table1") {
      std::fprintf(stderr,
                   "--machines requires --space table1 (fleet machines share "
                   "one head layout only on the generic grid)\n");
      usage(argv[0]);
    }
  }
  return a;
}

bool factored_for(const std::string& heads) {
  if (heads == "factored") return true;
  if (heads == "dense") return false;
  throw Error("unknown heads '" + heads + "' (expected factored or dense)");
}

std::string hex_fingerprint(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

/// Serve one split's test grid as one batch, in the row-major
/// (region, cap) order core::Evaluator::score expects. Held-out-cap
/// splits ask at the cap in watts (scalar-cap models).
std::vector<sim::OmpConfig> predict_split(const core::Evaluator& evaluator,
                                          const core::EvalSplit& split,
                                          serve::TuningService& service,
                                          const std::vector<double>& caps_w) {
  const bool at_watts = !split.train_cap_indices.empty();
  std::vector<serve::TuneRequest> batch;
  for (const auto& q : evaluator.queries(split))
    batch.push_back(
        at_watts ? serve::TuneRequest::power_at(
                       q.region, caps_w[static_cast<std::size_t>(q.cap_index)])
                 : serve::TuneRequest::power(q.region, q.cap_index));
  std::vector<sim::OmpConfig> configs;
  configs.reserve(batch.size());
  for (const serve::TuneResult& r : service.tune_batch(batch))
    configs.push_back(r.config);
  return configs;
}

void emit_metrics(JsonWriter& w, const core::SplitMetrics& m) {
  w.begin_object();
  w.key("queries").value(m.queries);
  w.key("geomean_speedup").value(m.geomean_speedup);
  w.key("geomean_normalized").value(m.geomean_normalized);
  w.key("oracle_match").value(m.oracle_match);
  w.end_object();
}

void emit_split(JsonWriter& w, const core::EvalSplit& split,
                const core::SplitResult& res, bool base_counters,
                const std::vector<double>& caps_w) {
  // Unseen-cap splits train with the scalar cap feature and counters
  // forced on (Evaluator::train, paper §IV-B recipe) regardless of
  // --counters; record the configuration actually used.
  const bool scalar_cap = !split.train_cap_indices.empty();
  w.begin_object();
  w.key("name").value(res.name);
  w.key("train_regions").value(res.num_train_regions);
  w.key("test_regions").value(res.num_test_regions);
  w.key("scalar_cap").value(scalar_cap);
  w.key("counters").value(base_counters || scalar_cap);
  w.key("eval_caps_w").begin_array();
  for (int k : res.eval_cap_indices)
    w.value(caps_w[static_cast<std::size_t>(k)]);
  w.end_array();
  w.key("overall");
  emit_metrics(w, res.overall);
  w.key("per_cap").begin_array();
  for (std::size_t i = 0; i < res.per_cap.size(); ++i) {
    w.begin_object();
    w.key("cap_w").value(
        caps_w[static_cast<std::size_t>(res.eval_cap_indices[i])]);
    w.key("metrics");
    emit_metrics(w, res.per_cap[i]);
    w.end_object();
  }
  w.end_array();
  w.key("per_app").begin_array();
  for (std::size_t i = 0; i < res.per_app_speedup.apps.size(); ++i) {
    w.begin_object();
    w.key("app").value(res.per_app_speedup.apps[i]);
    w.key("geomean_speedup").value(res.per_app_speedup.geomeans[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

int run(const Args& a) {
  const auto machine = hw::machine_by_name(a.machine);
  const sim::Simulator sim(machine);
  const auto space = core::SearchSpace::by_name(a.space, machine);

  workloads::GeneratorOptions gopt;
  gopt.seed = a.seed;
  gopt.num_regions = a.regions;
  gopt.max_regions_per_app = a.max_per_app;
  const workloads::Generator generator(gopt);
  const workloads::Corpus generated = generator.generate();
  std::fprintf(stderr, "generated %zu applications / %zu regions (seed %llu)\n",
               generated.application_count(), generated.total_regions(),
               static_cast<unsigned long long>(a.seed));

  // One measurement db over both corpora: paper regions first, generated
  // regions after — split indices derive from application names.
  auto regions = workloads::Suite::instance().all_regions();
  const std::size_t paper_regions = regions.size();
  for (const auto& rr : generated.all_regions()) regions.push_back(rr);
  const core::MeasurementDb db(sim, space, regions);

  core::EvaluatorOptions eopt;
  eopt.pnp.trainer.max_epochs = a.epochs;
  eopt.pnp.use_counters = a.counters;
  eopt.pnp.seed = a.seed;
  eopt.pnp.factored_heads = factored_for(a.heads);
  const core::Evaluator evaluator(sim, db);

  const auto is_generated = [&](const std::string& app) {
    return workloads::Generator::family_of(app).has_value();
  };

  std::vector<core::EvalSplit> splits;
  splits.push_back(core::make_app_split(db, "unseen-app", is_generated));
  for (int f = 0; f < workloads::kNumFamilies; ++f) {
    const auto fam = static_cast<workloads::Family>(f);
    auto s = core::make_app_split(
        db, std::string("unseen-family-") + workloads::family_name(fam),
        [&](const std::string& app) {
          return workloads::Generator::family_of(app) == fam;
        });
    if (!s.test_regions.empty()) splits.push_back(std::move(s));
  }
  splits.push_back(core::with_heldout_cap(
      core::make_app_split(db, "unseen-cap-low", is_generated), 0,
      db.num_caps()));
  splits.push_back(core::with_heldout_cap(
      core::make_app_split(db, "unseen-cap-high", is_generated),
      db.num_caps() - 1, db.num_caps()));

  const auto& caps_w = space.power_caps();
  std::vector<core::SplitResult> results;
  core::Evaluator::PrecisionDelta pdelta;
  for (std::size_t i = 0; i < splits.size(); ++i) {
    const auto& split = splits[i];
    core::PnpTuner tuner = evaluator.train(split, eopt);
    std::vector<sim::OmpConfig> configs;
    if (i == 0) {
      // The unseen-app split doubles as the f32-tier acceptance gate:
      // stamp an f64 reference service and an f32 candidate service from
      // ONE artifact of the same trained model (an in-memory round trip —
      // exactly what reload deserializes), serve the identical grid
      // through both, and diff. The reference grid is also the split's
      // scored prediction set, so the f64 path stays the single source of
      // truth for the headline metrics.
      const core::TunerArtifact art = tuner.to_artifact();
      serve::TuningServiceOptions ref_opt, f32_opt;
      ref_opt.precision = nn::Precision::f64;
      f32_opt.precision = nn::Precision::f32;
      serve::TuningService ref_service(core::PnpTuner::from_artifact(db, art),
                                       ref_opt);
      serve::TuningService f32_service(core::PnpTuner::from_artifact(db, art),
                                       f32_opt);
      configs = predict_split(evaluator, split, ref_service, caps_w);
      const auto f32_configs =
          predict_split(evaluator, split, f32_service, caps_w);
      pdelta = evaluator.precision_delta(split, configs, f32_configs);
      std::fprintf(stderr,
                   "f32 tier: %d/%d flips (%.4f), max |dPower| %.4f W\n",
                   pdelta.flips, pdelta.queries, pdelta.flip_rate,
                   pdelta.max_abs_dpower_w);
    } else {
      serve::TuningService service(std::move(tuner));
      configs = predict_split(evaluator, split, service, caps_w);
    }
    results.push_back(evaluator.score(split, configs));
    const auto& res = results.back();
    std::fprintf(stderr,
                 "%-24s train=%d test=%d speedup=%.3f normalized=%.3f\n",
                 res.name.c_str(), res.num_train_regions, res.num_test_regions,
                 res.overall.geomean_speedup, res.overall.geomean_normalized);
  }

  // Unseen-machine split (docs/HARDWARE.md): a seeded fleet over the SAME
  // combined corpus, one machine-conditioned tuner trained across the
  // first N−K machines' tables, scored on the K held-out machines.
  std::unique_ptr<core::Fleet> fleet;
  std::vector<core::MachineSplitResult> machine_results;
  if (a.machines > 0) {
    fleet = std::make_unique<core::Fleet>(a.seed, a.machines, regions);
    const core::FleetEvaluator fleet_eval(*fleet);
    machine_results = fleet_eval.evaluate(a.holdout_machines, eopt.pnp);
    for (const auto& mr : machine_results)
      std::fprintf(stderr,
                   "unseen-machine %-18s speedup=%.3f normalized=%.3f\n",
                   mr.machine_name.c_str(), mr.overall.geomean_speedup,
                   mr.overall.geomean_normalized);
  }

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pnp-eval-v4");
  w.key("machine").value(a.machine);
  w.key("seed").value(static_cast<std::uint64_t>(a.seed));
  // Self-describing search-space block: the grid this run tuned over, how
  // the classifier scored it, and how much of it the constraint layer
  // prunes — so an archived report is interpretable without the flags.
  w.key("search_space").begin_object();
  w.key("space").value(a.space);
  w.key("heads").value(a.heads);
  w.key("caps").value(space.num_cap_classes());
  w.key("threads").value(space.num_thread_classes());
  w.key("schedules").value(space.num_schedule_classes());
  w.key("chunks").value(space.num_chunk_classes());
  w.key("joint_candidates").value(space.joint_size());
  w.key("constraint_rules").value(
      static_cast<std::int64_t>(space.constraints().size()));
  w.key("constraint_pruned").value(space.joint_invalid_count());
  w.end_object();
  w.key("generator").begin_object();
  w.key("regions").value(a.regions);
  w.key("max_regions_per_app").value(a.max_per_app);
  w.key("applications").value(
      static_cast<std::int64_t>(generated.application_count()));
  w.key("families").begin_object();
  {
    std::vector<int> counts(workloads::kNumFamilies, 0);
    for (const auto& app : generated.applications()) {
      const auto fam = workloads::Generator::family_of(app.name);
      if (fam)
        counts[static_cast<std::size_t>(*fam)] +=
            static_cast<int>(app.regions.size());
    }
    for (int f = 0; f < workloads::kNumFamilies; ++f)
      w.key(workloads::family_name(static_cast<workloads::Family>(f)))
          .value(counts[static_cast<std::size_t>(f)]);
  }
  w.end_object();
  w.end_object();
  w.key("corpus").begin_object();
  w.key("paper_regions").value(static_cast<std::int64_t>(paper_regions));
  w.key("generated_regions").value(
      static_cast<std::int64_t>(generated.total_regions()));
  w.key("total_regions").value(db.num_regions());
  w.end_object();
  w.key("training").begin_object();
  w.key("epochs").value(a.epochs);
  w.key("counters").value(a.counters);  // base flag; see per-split values
  w.end_object();
  if (fleet) {
    const hw::MachineGenerator gen(a.seed);
    w.key("machine_split").begin_object();
    w.key("fleet_seed").value(static_cast<std::uint64_t>(a.seed));
    w.key("machines").value(a.machines);
    w.key("holdout").value(a.holdout_machines);
    w.key("fleet").begin_array();
    for (int i = 0; i < fleet->size(); ++i) {
      const hw::MachineModel& m = fleet->machine(i);
      w.begin_object();
      w.key("index").value(i);
      w.key("name").value(m.name);
      w.key("archetype").value(hw::archetype_name(gen.archetype_of(i)));
      w.key("fingerprint").value(
          hex_fingerprint(hw::machine_fingerprint(m)));
      w.key("max_threads").value(m.max_threads());
      w.key("tdp_w").value(m.tdp_w);
      w.key("min_cap_w").value(m.min_cap_w);
      w.key("held_out").value(i >= fleet->size() - a.holdout_machines);
      w.end_object();
    }
    w.end_array();
    w.key("holdout_results").begin_array();
    for (const auto& mr : machine_results) {
      const auto& mcaps = fleet->db(mr.machine_index).space().power_caps();
      w.begin_object();
      w.key("index").value(mr.machine_index);
      w.key("name").value(mr.machine_name);
      w.key("fingerprint").value(hex_fingerprint(mr.fingerprint));
      w.key("overall");
      emit_metrics(w, mr.overall);
      w.key("per_cap").begin_array();
      for (std::size_t k = 0; k < mr.per_cap.size(); ++k) {
        w.begin_object();
        w.key("cap_w").value(mcaps[k]);
        w.key("metrics");
        emit_metrics(w, mr.per_cap[k]);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.key("precision_tier").begin_object();
  w.key("split").value(results.front().name);
  w.key("reference").value(nn::precision_name(nn::Precision::f64));
  w.key("candidate").value(nn::precision_name(nn::Precision::f32));
  w.key("queries").value(pdelta.queries);
  w.key("flips").value(pdelta.flips);
  w.key("flip_rate").value(pdelta.flip_rate);
  w.key("max_abs_dpower_w").value(pdelta.max_abs_dpower_w);
  w.key("max_abs_dtime_s").value(pdelta.max_abs_dtime_s);
  w.key("geomean_speedup_f64").value(pdelta.geomean_speedup_reference);
  w.key("geomean_speedup_f32").value(pdelta.geomean_speedup_candidate);
  w.end_object();
  w.key("splits").begin_array();
  for (std::size_t i = 0; i < results.size(); ++i)
    emit_split(w, splits[i], results[i], a.counters, caps_w);
  w.end_array();
  w.end_object();

  const std::string doc = w.str();
  std::string err;
  PNP_CHECK_MSG(json_validate(doc, &err), "pnp_eval JSON self-check: " << err);

  if (a.out_path.empty()) {
    std::cout << doc;
    PNP_CHECK_MSG(std::cout.good(), "writing to stdout failed");
  } else {
    std::ofstream os(a.out_path, std::ios::binary);
    PNP_CHECK_MSG(os.is_open(), "cannot open '" << a.out_path << "'");
    os << doc;
    os.flush();
    PNP_CHECK_MSG(os.good(), "writing '" << a.out_path << "' failed");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnp_eval: error: %s\n", e.what());
    return 1;
  }
}
