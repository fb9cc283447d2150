/// \file bench_micro_pipeline.cpp
/// google-benchmark micro-benchmarks for the library's substrates: IR
/// emission, graph construction (+ CSR tensor form), RGCN
/// forward/backward in steady-state training mode (reused workspaces, the
/// path train() drives), one full train epoch, simulator throughput,
/// exhaustive-sweep (oracle) cost, and per-run cost of the sampling
/// baselines. These quantify the §VI claim that a trained PnP tuner needs
/// *no* executions while BLISS/OpenTuner pay per region.
///
/// Besides the normal console output, the binary writes BENCH_micro.json
/// (kernel → ns/op) to the working directory — or to the path in the
/// PNP_BENCH_JSON environment variable — for CI artifact upload and the
/// before/after tables in docs/BENCHMARKS.md.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/latency_histogram.hpp"
#include "core/baselines.hpp"
#include "core/config_search.hpp"
#include "core/measurement_db.hpp"
#include "core/pnp_tuner.hpp"
#include "core/tuner_artifact.hpp"
#include "graph/builder.hpp"
#include "ir/extract.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/trainer.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/generator.hpp"
#include "workloads/irgen.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

namespace {

const workloads::Application& gemm_app() {
  return *workloads::Suite::instance().find("gemm");
}

void BM_IrEmission(benchmark::State& state) {
  const auto& desc = gemm_app().regions[0].desc;
  for (auto _ : state) {
    auto m = workloads::emit_application("gemm", {desc});
    benchmark::DoNotOptimize(m.instruction_count());
  }
}
BENCHMARK(BM_IrEmission);

void BM_GenerateCorpus(benchmark::State& state) {
  // Procedural corpus sampling + IR emission + verification for 32
  // regions — the per-run setup cost of every cross-suite evaluation
  // (pnp_eval) and generated-load scenario.
  workloads::GeneratorOptions opt;
  opt.seed = 7;
  opt.num_regions = 32;
  const workloads::Generator gen(opt);
  for (auto _ : state) {
    const auto corpus = gen.generate();
    benchmark::DoNotOptimize(corpus.total_regions());
  }
}
BENCHMARK(BM_GenerateCorpus);

void BM_FlowGraphBuild(benchmark::State& state) {
  const auto one =
      ir::extract_function(gemm_app().module, gemm_app().regions[0].function);
  for (auto _ : state) {
    auto g = graph::build_flow_graph(one);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_FlowGraphBuild);

void BM_GraphTensorsBuild(benchmark::State& state) {
  // Vocabulary lookup + per-relation edge lists + the CSR message-passing
  // form (dst-sorted offsets, 1/deg) built once per graph.
  const auto one =
      ir::extract_function(gemm_app().module, gemm_app().regions[0].function);
  const auto fg = graph::build_flow_graph(one);
  const auto vocab = graph::Vocabulary::from_graphs({&fg});
  for (auto _ : state) {
    auto t = graph::to_tensors(fg, vocab);
    benchmark::DoNotOptimize(t.csr(0).num_edges());
  }
}
BENCHMARK(BM_GraphTensorsBuild);

void BM_SimulatorExpected(benchmark::State& state) {
  const sim::Simulator simulator(hw::MachineModel::haswell());
  const auto& desc = gemm_app().regions[0].desc;
  const sim::OmpConfig cfg{16, sim::Schedule::Dynamic, 64};
  for (auto _ : state)
    benchmark::DoNotOptimize(simulator.expected(desc, cfg, 60.0).seconds);
}
BENCHMARK(BM_SimulatorExpected);

void BM_ExhaustiveOracleSweep(benchmark::State& state) {
  // Cost of what the paper's oracle does for ONE region at one cap:
  // 127 candidate evaluations.
  const sim::Simulator simulator(hw::MachineModel::haswell());
  const auto space = core::SearchSpace::for_machine(hw::MachineModel::haswell());
  const auto& desc = gemm_app().regions[0].desc;
  for (auto _ : state) {
    double best = 1e300;
    for (int c = 0; c < space.num_candidates_per_cap(); ++c)
      best = std::min(best,
                      simulator.expected(desc, space.candidate(c), 60.0).seconds);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_ExhaustiveOracleSweep);

void BM_ConstrainedSearch(benchmark::State& state, bool exhaustive) {
  // Model-guided decode over the extended, constraint-carrying space
  // (haswell: 2164 joint classes, 3 validity rules) in EDP mode — the
  // largest search the serving path ever runs. `exhaustive` scans the full
  // joint class grid (the test oracle); `scan` is the production decode,
  // the exact bounded scan (same answer, pruned subtrees, no allocation).
  static const core::SearchSpace space =
      core::SearchSpace::extended_for_machine(hw::MachineModel::haswell());
  static const std::vector<double> logits = [] {
    std::vector<double> v;
    std::uint64_t x = 0x2545f4914f6cdd1dull;  // deterministic pseudo-logits
    const int n = space.num_cap_classes() + space.num_thread_classes() +
                  space.num_schedule_classes() + space.num_chunk_classes();
    for (int i = 0; i < n; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      v.push_back(static_cast<double>((x * 0x2545f4914f6cdd1dull) >> 11) *
                      0x1p-52 -
                  1.0);
    }
    // Plant the per-head argmax on (lowest cap, highest thread count) —
    // a tuple the thread-per-watt rule prunes — so search_edp cannot take
    // its O(1) fast path and the rows below time the search itself.
    v[0] = 8.0;
    v[static_cast<std::size_t>(space.num_cap_classes() +
                               space.num_thread_classes()) -
      1] = 8.0;
    return v;
  }();
  const std::span<const double> all(logits);
  const std::size_t np = static_cast<std::size_t>(space.num_cap_classes());
  const std::size_t nt = static_cast<std::size_t>(space.num_thread_classes());
  const std::size_t ns = static_cast<std::size_t>(space.num_schedule_classes());
  const std::size_t nc = static_cast<std::size_t>(space.num_chunk_classes());
  const auto cap = all.subspan(0, np), thr = all.subspan(np, nt),
             sch = all.subspan(np + nt, ns), chk = all.subspan(np + nt + ns, nc);
  for (auto _ : state) {
    const core::SearchChoice c =
        exhaustive ? core::exhaustive_edp<double>(space, cap, thr, sch, chk)
                   : core::search_edp<double>(space, cap, thr, sch, chk);
    benchmark::DoNotOptimize(c.score);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ConstrainedSearch, exhaustive, true);
BENCHMARK_CAPTURE(BM_ConstrainedSearch, scan, false);

nn::RgcnNetConfig table2_config(int vocab_size) {
  nn::RgcnNetConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.head_sizes = {6, 3, 8};
  cfg.extra_features = 0;
  return cfg;
}

void BM_RgcnForward(benchmark::State& state) {
  // Steady-state training mode: the encode/dense workspaces are reused
  // across passes (zero allocation), exactly as train() drives them.
  const auto one =
      ir::extract_function(gemm_app().module, gemm_app().regions[0].function);
  const auto fg = graph::build_flow_graph(one);
  const auto vocab = graph::Vocabulary::from_graphs({&fg});
  const auto tensors = graph::to_tensors(fg, vocab);
  nn::RgcnNet net(table2_config(vocab.size()));
  nn::RgcnNet::GnnCache gc;
  nn::RgcnNet::DenseCache dc;
  for (auto _ : state) {
    net.encode_into(tensors, gc);
    net.dense_forward_into(gc.readout, {}, dc);
    benchmark::DoNotOptimize(dc.logits[0]);
  }
}
BENCHMARK(BM_RgcnForward);

void BM_RgcnForwardBackward(benchmark::State& state) {
  const auto one =
      ir::extract_function(gemm_app().module, gemm_app().regions[0].function);
  const auto fg = graph::build_flow_graph(one);
  const auto vocab = graph::Vocabulary::from_graphs({&fg});
  const auto tensors = graph::to_tensors(fg, vocab);
  nn::RgcnNet net(table2_config(vocab.size()));
  nn::RgcnNet::GnnCache gc;
  nn::RgcnNet::DenseCache dc;
  std::vector<double> dlogits;
  for (auto _ : state) {
    net.encode_into(tensors, gc);
    net.dense_forward_into(gc.readout, {}, dc);
    dlogits.assign(dc.logits.size(), 0.1);
    const auto dr = net.dense_backward(dc, dlogits);
    net.gnn_backward(gc, dr);
    net.zero_grad();
    benchmark::DoNotOptimize(dc.logits[0]);
  }
}
BENCHMARK(BM_RgcnForwardBackward);

void BM_TrainEpoch(benchmark::State& state) {
  // One full training epoch (16 region graphs × 4 members, batch 16) —
  // the unit the LOOCV folds repeat tens of times per trained fold.
  const auto& suite = workloads::Suite::instance();
  std::vector<graph::FlowGraph> graphs;
  std::vector<const graph::FlowGraph*> graph_ptrs;
  const auto regions = suite.all_regions();
  for (int i = 0; i < 16 && i < static_cast<int>(regions.size()); ++i) {
    const auto& rr = regions[static_cast<std::size_t>(i)];
    const auto m = ir::extract_function(rr.app->module, rr.region->function);
    graphs.push_back(graph::build_flow_graph(m));
  }
  for (const auto& g : graphs) graph_ptrs.push_back(&g);
  const auto vocab = graph::Vocabulary::from_graphs(graph_ptrs);
  std::vector<graph::GraphTensors> tensors;
  for (const auto& g : graphs) tensors.push_back(graph::to_tensors(g, vocab));

  std::vector<nn::TrainSample> samples;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    nn::TrainSample s;
    s.graph = &tensors[i];
    for (int mbr = 0; mbr < 4; ++mbr)
      s.members.push_back(nn::SampleMember{
          {}, {static_cast<int>(i) % 6, mbr % 3, (mbr + static_cast<int>(i)) % 8}});
    samples.push_back(std::move(s));
  }

  nn::TrainerConfig tc;
  tc.max_epochs = 1;
  tc.patience = 1000;
  tc.min_loss = 0.0;
  nn::RgcnNet net(table2_config(vocab.size()));
  auto opt = nn::Adam::adamw_amsgrad();
  for (auto _ : state) {
    const auto rep = nn::train(net, *opt, samples, tc);
    benchmark::DoNotOptimize(rep.final_loss);
  }
}
BENCHMARK(BM_TrainEpoch);

void BM_PnpInference(benchmark::State& state) {
  // Whole-pipeline inference cost for one unseen region: what replaces the
  // baselines' 20–40 sampled executions.
  const auto machine = hw::MachineModel::haswell();
  const sim::Simulator simulator(machine);
  const auto space = core::SearchSpace::for_machine(machine);
  static const core::MeasurementDb db(
      simulator, space, workloads::Suite::instance().all_regions());
  core::PnpOptions opt;
  opt.trainer.max_epochs = 8;
  static core::PnpTuner tuner(db, opt);
  static bool trained = false;
  if (!trained) {
    std::vector<int> train;
    for (int r = 0; r < 40; ++r) train.push_back(r);
    tuner.train_power_scenario(train);
    trained = true;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(tuner.predict_power(50, 1).threads);
}
BENCHMARK(BM_PnpInference);

/// Shared serving fixtures: one measurement db and ONE trained artifact
/// behind every serving benchmark, so the f64/f32 rows and the service
/// saturation curves all serve the same weights and differ only in the
/// dimension each benchmark varies (precision, thread count, shard mode).
const core::MeasurementDb& serving_db() {
  static const core::MeasurementDb* db = [] {
    const auto machine = hw::MachineModel::haswell();
    const sim::Simulator simulator(machine);
    return new core::MeasurementDb(
        simulator, core::SearchSpace::for_machine(machine),
        workloads::Suite::instance().all_regions());
  }();
  return *db;
}

const core::TunerArtifact& serving_artifact() {
  static const core::TunerArtifact* art = [] {
    core::PnpOptions opt;
    opt.trainer.max_epochs = 8;
    core::PnpTuner tuner(serving_db(), opt);
    std::vector<int> train;
    for (int r = 0; r < 40; ++r) train.push_back(r);
    tuner.train_power_scenario(train);
    return new core::TunerArtifact(tuner.to_artifact());
  }();
  return *art;
}

void BM_PredictBatch(benchmark::State& state, nn::Precision precision) {
  // Steady-state serving: a 64-request batch (16 regions × 4 caps) through
  // TuningService::tune_batch on the calling thread. Each distinct graph
  // is encoded once ever (cached across batches) and the dense phase runs
  // in one planned workspace — compare the per-request cost (ns/op ÷ 64)
  // against BM_PnpInference, which re-encodes the graph on every call,
  // and the f32 row against the f64 row for the SIMD-width win.
  static serve::TuningService* services[2] = {nullptr, nullptr};
  const std::size_t pi = precision == nn::Precision::f32 ? 1 : 0;
  if (!services[pi]) {
    serve::TuningServiceOptions sopt;
    sopt.precision = precision;
    services[pi] = new serve::TuningService(
        core::PnpTuner::from_artifact(serving_db(), serving_artifact()), sopt);
  }
  serve::TuningService& service = *services[pi];
  static const std::vector<serve::TuneRequest> batch = [] {
    std::vector<serve::TuneRequest> q;
    for (int r = 40; r < 56; ++r)
      for (int k = 0; k < serving_db().num_caps(); ++k)
        q.push_back(serve::TuneRequest::power(r, k));
    return q;
  }();
  for (auto _ : state) {
    auto out = service.tune_batch(batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK_CAPTURE(BM_PredictBatch, f64, nn::Precision::f64);
BENCHMARK_CAPTURE(BM_PredictBatch, f32, nn::Precision::f32);

/// The service each saturation-curve row drives, one per precision tier
/// (function-local statics: built once, thread-safely, by whichever
/// benchmark thread gets there first).
serve::TuningService& service_for(nn::Precision precision) {
  const auto make = [](nn::Precision p) {
    serve::TuningServiceOptions sopt;
    sopt.precision = p;
    return new serve::TuningService(
        core::PnpTuner::from_artifact(serving_db(), serving_artifact()), sopt);
  };
  static serve::TuningService* f64_svc = make(nn::Precision::f64);
  static serve::TuningService* f32_svc = make(nn::Precision::f32);
  return precision == nn::Precision::f32 ? *f32_svc : *f64_svc;
}

/// Saturation curve per precision tier: N caller threads issue single
/// power queries against one TuningService, each served on its caller's
/// thread; items_per_second is the served query rate. Run at 1/2/4/8
/// threads the curve shows where the service saturates (numbers in
/// docs/BENCHMARKS.md).
void BM_ServiceThroughput(benchmark::State& state, nn::Precision precision) {
  serve::TuningService& svc = service_for(precision);
  // Round-robin over 16 held-out regions × all caps; offset per thread so
  // concurrent callers hit different cache stripes.
  int i = state.thread_index() * 7;
  for (auto _ : state) {
    const serve::TuneRequest q = serve::TuneRequest::power(
        40 + (i % 16), i % serving_db().num_caps());
    ++i;
    benchmark::DoNotOptimize(svc.tune(q).config.threads);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ServiceThroughput, f64, nn::Precision::f64)
    ->ThreadRange(1, 8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ServiceThroughput, f32, nn::Precision::f32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_HistogramRecord(benchmark::State& state) {
  // The per-request cost the network server pays to record one latency
  // sample into common::LatencyHistogram (one relaxed fetch_add per
  // counter, no locks). Run at 1/4 threads: the multi-threaded rate
  // shows the recording path stays wait-free under the worker pool.
  static LatencyHistogram hist;
  std::uint64_t v = 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(state.thread_index());
  for (auto _ : state) {
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    hist.record((v >> 33) & 0xfffff);  // 0..1M ns, several octaves
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4)->UseRealTime();

void BM_BlissTuneOneRegion(benchmark::State& state) {
  const auto machine = hw::MachineModel::haswell();
  const sim::Simulator simulator(machine);
  const auto space = core::SearchSpace::for_machine(machine);
  const auto& desc = gemm_app().regions[0].desc;
  core::BaselineOptions opt;
  core::BlissTuner bliss(simulator, space, opt);
  for (auto _ : state)
    benchmark::DoNotOptimize(bliss.tune_at_cap(desc, 60.0).executions);
}
BENCHMARK(BM_BlissTuneOneRegion);

void BM_OpenTunerTuneOneRegion(benchmark::State& state) {
  const auto machine = hw::MachineModel::haswell();
  const sim::Simulator simulator(machine);
  const auto space = core::SearchSpace::for_machine(machine);
  const auto& desc = gemm_app().regions[0].desc;
  core::BaselineOptions opt;
  core::OpenTunerLike otl(simulator, space, opt);
  for (auto _ : state)
    benchmark::DoNotOptimize(otl.tune_at_cap(desc, 60.0).executions);
}
BENCHMARK(BM_OpenTunerTuneOneRegion);

/// Console output plus a kernel → ns/op map written as BENCH_micro.json
/// (or $PNP_BENCH_JSON) when the run finishes — the machine-readable
/// artifact CI uploads and docs/BENCHMARKS.md tables are built from.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  // benchmark 1.8 replaced Run::error_occurred with Run::skipped; detect
  // whichever this libbenchmark has so the bench builds against both.
  template <class R, class = void>
  struct HasSkipped : std::false_type {};
  template <class R>
  struct HasSkipped<R, std::void_t<decltype(std::declval<const R&>().skipped)>>
      : std::true_type {};
  template <class R>
  static bool run_skipped(const R& run) {
    if constexpr (HasSkipped<R>::value)
      return static_cast<bool>(run.skipped);
    else
      return run.error_occurred;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run_skipped(run) || run.run_type != Run::RT_Iteration) continue;
      const double ns = run.GetAdjustedRealTime();  // console unit is ns
      // Keep one entry per kernel (under --benchmark_repetitions every
      // repetition reports the same name — keep the fastest).
      bool found = false;
      for (auto& [name, best] : results_)
        if (name == run.benchmark_name()) {
          best = std::min(best, ns);
          found = true;
          break;
        }
      if (!found) results_.emplace_back(run.benchmark_name(), ns);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  /// Parse an existing flat `"name": number` map written by a previous
  /// run — the only shape this reporter ever produces — so a filtered run
  /// (--benchmark_filter=BM_Service.*) merges into the full kernel table
  /// instead of clobbering it down to the filtered subset. Anything that
  /// doesn't parse is skipped (the re-measured entries still land).
  static std::vector<std::pair<std::string, double>> read_existing(
      const std::string& path) {
    std::vector<std::pair<std::string, double>> out;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f) return out;
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      const char* q1 = std::strchr(line, '"');
      if (!q1) continue;
      const char* q2 = std::strchr(q1 + 1, '"');
      if (!q2) continue;
      const char* colon = std::strchr(q2 + 1, ':');
      if (!colon) continue;
      char* end = nullptr;
      const double ns = std::strtod(colon + 1, &end);
      if (end == colon + 1) continue;
      out.emplace_back(std::string(q1 + 1, q2), ns);
    }
    std::fclose(f);
    return out;
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    const char* env_path = std::getenv("PNP_BENCH_JSON");
    const std::string path = env_path ? env_path : "BENCH_micro.json";
    // Merge by key: keep every previously recorded kernel, overwrite the
    // ones this run re-measured, append the new ones in run order.
    std::vector<std::pair<std::string, double>> merged = read_existing(path);
    for (const auto& [name, ns] : results_) {
      bool found = false;
      for (auto& [mname, mns] : merged)
        if (mname == name) {
          mns = ns;
          found = true;
          break;
        }
      if (!found) merged.emplace_back(name, ns);
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < merged.size(); ++i)
      std::fprintf(f, "  \"%s\": %.1f%s\n", merged[i].first.c_str(),
                   merged[i].second, i + 1 < merged.size() ? "," : "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu kernels, %zu re-measured, ns/op)\n",
                 path.c_str(), merged.size(), results_.size());
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
