/// \file pnp_tune.cpp
/// End-to-end CLI for the persistence + serving workflow (docs/SERVING.md):
///
///   pnp_tune train   --machine haswell --scenario power --out model.pnp
///                    [--epochs N] [--predictions preds.txt]
///   pnp_tune predict --machine haswell --model model.pnp
///                    [--predictions preds.txt]
///   pnp_tune info    --model model.pnp
///
/// `train` trains a tuner on every region of the machine's measurement db,
/// saves the versioned artifact, and dumps the model's predictions for the
/// whole (region × cap) grid. `predict` reloads the artifact in a fresh
/// process and dumps the same grid as one TuningService::tune_batch —
/// the two dumps must be byte-identical (CI diffs them). `info` prints the
/// artifact metadata without needing a measurement db.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/tuner_artifact.hpp"
#include "hw/machine_generator.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

namespace {

struct Args {
  std::string command;
  std::string machine = "haswell";
  std::string scenario = "power";
  std::string model_path;
  std::string predictions_path;  // empty = stdout
  int epochs = 12;
  bool scalar_cap = false;
  std::string precision;  // empty = keep the artifact's default (f64)
  std::string heads = "factored";  // factored | dense
  std::string space = "table1";    // table1 | extended
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s train   --machine NAME --scenario power|edp\n"
               "             --out MODEL [--epochs N] [--scalar-cap]\n"
               "             [--precision f64|f32] [--heads factored|dense]\n"
               "             [--space table1|extended] [--predictions FILE]\n"
               "  %s predict --machine NAME --model MODEL\n"
               "             [--space table1|extended]\n"
               "             [--predictions FILE]\n"
               "  %s info    --model MODEL\n"
               "machine names: haswell, skylake, or gen:<seed>:<index>\n",
               argv0, argv0, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Args a;
  a.command = argv[1];
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (flag == "--machine") a.machine = value();
      else if (flag == "--scenario") a.scenario = value();
      else if (flag == "--out" || flag == "--model") a.model_path = value();
      else if (flag == "--predictions") a.predictions_path = value();
      else if (flag == "--epochs")
        a.epochs = parse_int(value(), "--epochs", 1, 100000);
      else if (flag == "--scalar-cap") a.scalar_cap = true;
      else if (flag == "--precision") a.precision = value();
      else if (flag == "--heads") a.heads = value();
      else if (flag == "--space") a.space = value();
      else usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  return a;
}

bool factored_for(const std::string& heads) {
  if (heads == "factored") return true;
  if (heads == "dense") return false;
  throw Error("unknown heads '" + heads + "' (expected factored or dense)");
}

/// Dump predictions over the full query grid in a stable text format —
/// the train-process and fresh-process outputs are diffed byte for byte.
void dump_predictions(serve::TuningService& service, std::ostream& os) {
  const core::MeasurementDb& db = service.db();
  const bool power = service.mode() == core::PnpTuner::Mode::Power;
  std::vector<serve::TuneRequest> batch;
  for (int r = 0; r < db.num_regions(); ++r) {
    if (!power) batch.push_back(serve::TuneRequest::edp(r));
    else
      for (int k = 0; k < db.num_caps(); ++k)
        batch.push_back(serve::TuneRequest::power(r, k));
  }
  const auto results = service.tune_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i)
    os << "region=" << batch[i].region
       << (power ? " cap=" : " cap*=") << results[i].cap_index << " "
       << results[i].config.to_string() << "\n";
}

void dump_to(serve::TuningService& service, const std::string& path) {
  if (path.empty()) {
    dump_predictions(service, std::cout);
    return;
  }
  std::ofstream os(path);
  PNP_CHECK_MSG(os.is_open(), "cannot open '" << path << "' for writing");
  dump_predictions(service, os);
  os.flush();
  PNP_CHECK_MSG(os.good(), "writing '" << path << "' failed");
}

int cmd_train(const Args& a) {
  if (a.model_path.empty()) throw Error("train needs --out MODEL");
  const auto machine = hw::machine_by_name(a.machine);
  const sim::Simulator sim(machine);
  const core::MeasurementDb db(
      sim, core::SearchSpace::by_name(a.space, machine),
      workloads::Suite::instance().all_regions());
  core::PnpOptions opt;
  opt.trainer.max_epochs = a.epochs;
  // Scalar-cap models additionally serve arbitrary-watt power_at queries
  // (paper Figs. 4-5) — what pnp_served needs for mixed loadgen blends.
  opt.cap_onehot = !a.scalar_cap;
  opt.factored_heads = factored_for(a.heads);
  core::PnpTuner tuner(db, opt);
  std::vector<int> all;
  for (int r = 0; r < db.num_regions(); ++r) all.push_back(r);

  nn::TrainReport report;
  if (a.scenario == "power") report = tuner.train_power_scenario(all);
  else if (a.scenario == "edp") report = tuner.train_edp_scenario(all);
  else throw Error("unknown scenario '" + a.scenario + "'");
  std::fprintf(stderr, "trained %s/%s: %d epochs, %.2fs, train acc %.2f\n",
               a.machine.c_str(), a.scenario.c_str(), report.epochs_run,
               report.seconds, report.train_accuracy);

  // Stamp the preferred serving tier into the artifact ("serve.precision"):
  // loaders that don't override precision will serve at this tier.
  if (!a.precision.empty()) {
    const auto p = nn::precision_from_name(a.precision);
    if (!p)
      throw Error("unknown precision '" + a.precision +
                  "' (expected f64 or f32)");
    tuner.set_serve_precision(*p);
  }
  tuner.save(a.model_path);
  std::fprintf(stderr, "saved artifact -> %s (serve precision %s)\n",
               a.model_path.c_str(),
               nn::precision_name(tuner.serve_precision()));

  serve::TuningService service(std::move(tuner));
  dump_to(service, a.predictions_path);
  return 0;
}

int cmd_predict(const Args& a) {
  if (a.model_path.empty()) throw Error("predict needs --model MODEL");
  const auto machine = hw::machine_by_name(a.machine);
  const sim::Simulator sim(machine);
  const core::MeasurementDb db(
      sim, core::SearchSpace::by_name(a.space, machine),
      workloads::Suite::instance().all_regions());
  serve::TuningService service(db, a.model_path);
  std::fprintf(stderr, "loaded artifact %s (%zu regions)\n",
               a.model_path.c_str(),
               static_cast<std::size_t>(db.num_regions()));
  dump_to(service, a.predictions_path);
  return 0;
}

int cmd_info(const Args& a) {
  if (a.model_path.empty()) throw Error("info needs --model MODEL");
  const auto art = core::TunerArtifact::load_file(a.model_path);
  std::printf("artifact: %s v%lld\n", core::TunerArtifact::kKind,
              static_cast<long long>(art.version));
  std::printf("mode: %s\n",
              art.mode == core::TunerArtifact::Mode::Power ? "power" : "edp");
  std::printf("vocab tokens: %zu (+1 OOV)\n", art.vocab_tokens.size());
  std::printf("heads: %s\n", art.opt_factored_heads ? "factored" : "dense");
  std::printf("head sizes:");
  for (int h : art.head_sizes) std::printf(" %d", h);
  std::printf("\nextra features: %d\n", art.extra_features);
  if (art.has_constraint_fingerprint)
    std::printf("constraint rules: %zu\n", art.constraint_rules().size());
  else
    std::printf("constraint rules: none (pre-v3 artifact)\n");
  if (art.machine_fingerprint != 0) {
    std::printf("machine: %s (fingerprint %016llx)\n",
                art.machine_name.c_str(),
                static_cast<unsigned long long>(art.machine_fingerprint));
    if (art.fleet)
      std::printf("fleet: yes (%zu training machines, machine features %s)\n",
                  art.fleet_fingerprints.size(),
                  art.opt_machine_features ? "on" : "off");
    else
      std::printf("fleet: no\n");
  } else {
    std::printf("machine: unknown (pre-v4 artifact)\n");
  }
  std::printf("counter stats: %zu\n", art.counter_mean.size());
  std::printf("serve precision: %s\n", nn::precision_name(art.serve_precision));
  std::size_t weights = 0;
  for (const auto& name : art.net_weights.names())
    weights += art.net_weights.get(name).size();
  std::printf("net parameters: %zu tensors, %zu weights\n",
              art.net_weights.names().size(), weights);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.command == "train") return cmd_train(a);
    if (a.command == "predict") return cmd_predict(a);
    if (a.command == "info") return cmd_info(a);
    usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnp_tune: error: %s\n", e.what());
    return 1;
  }
}
