/// \file pnp_bench.cpp
/// The benchmark program: runs one workload in this process and reports it.
///
///   pnp_bench --workload NAME [--seed S] [--seconds T] [--trace [0|1]]
///             [--out DIR] [--commit SHA]
///
/// Workloads: serve_hot, serve_churn, serve_write_mix, train_power
/// (README.md says why each exists). An untraced run prints every
/// end-to-end metric; a traced run (--trace) prints every per-layer metric,
/// a self-time summary per layer, and writes the spans as JSON lines.
/// DIR receives result.json (metrics, counts, host/build stamp, ladder)
/// and, traced, spans.jsonl. The last line of standard output is one JSON
/// object {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 all
/// outputs correct, 1 a correctness failure or an error, 2 bad usage.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "workload.hpp"
#include "workloads/suite.hpp"

using namespace pnp;
using namespace pnp::bench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: "end_to_end" and "per_layer", in order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"latency_p50_us", "us"},  {"max_rps_at_slo", "1/s"},
    {"train_s", "s"},          {"speedup_geomean", "x"},
    {"oracle_match", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"latency_p99_us", "us"},
    {"workloads.corpus_ms", "ms"},
    {"sim.db_build_ms", "ms"},
    {"ir.extract_us", "us"},
    {"graph.flow_graph_us", "us"},
    {"graph.tensors_us", "us"},
    {"core.tuner_ctor_ms", "ms"},
    {"core.artifact_load_ms", "ms"},
    {"nn.rgcn_forward_us", "us"},
    {"nn.dense_forward_us", "us"},
    {"nn.dense_backward_us", "us"},
    {"nn.rgcn_backward_us", "us"},
    {"nn.optim_step_us", "us"},
    {"nn.epoch_ms", "ms"},
    {"core.score_ms", "ms"},
    {"serve.model.encode_us", "us"},
    {"serve.model.run_heads_ns", "ns"},
    {"serve.model.decode_ns", "ns"},
    {"serve.service.tune_p50_us", "us"},
    {"serve.service.tune_p99_us", "us"},
    {"serve.service.batch_mean", "req/batch"},
    {"serve.service.encode_hit_ratio", "fraction"},
    {"serve.service.reload_ms", "ms"},
    {"serve.protocol.encode_request_ns", "ns"},
    {"serve.protocol.decode_response_ns", "ns"},
    {"core.observe_append_p50_us", "us"},
    {"core.observe_append_p99_us", "us"},
    {"trace.overhead_frac", "fraction"},
};

struct Args {
  RunArgs run;
  std::string out_dir;
  std::string commit;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_hot|serve_churn|serve_write_mix|"
               "train_power\n"
               "          [--seed S] [--seconds T] [--trace [0|1]] [--out DIR]"
               " [--commit SHA]\n",
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
      if (flag == "--workload") a.run.workload = value();
      else if (flag == "--seed") a.run.seed = parse_uint64(value(), "--seed");
      else if (flag == "--seconds") {
        a.run.seconds = parse_double(value(), "--seconds");
        if (!(a.run.seconds >= 1.0 && a.run.seconds <= 600.0)) usage(argv[0]);
      } else if (flag == "--trace") {
        a.run.trace = true;
        if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1"))
          a.run.trace = std::string(argv[++i]) == "1";
      } else if (flag == "--out") a.out_dir = value();
      else if (flag == "--commit") a.commit = value();
      else usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  if (!is_serve_workload(a.run.workload) && a.run.workload != "train_power")
    usage(argv[0]);
  if (a.out_dir.empty())
    a.out_dir = "build-bench/results/" + a.run.workload + "-s" +
                std::to_string(a.run.seed) + (a.run.trace ? "-trace" : "");
  return a;
}

/// Temporary directory for sockets, logs and artifacts. A unix socket path
/// must stay short, so it is made relative to the working directory.
std::string temp_dir(const std::string& out_dir) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::proximate(fs::path(out_dir) /
                                     ("tmp-" + std::to_string(::getpid())));
  PNP_CHECK_MSG(dir.string().size() < 80,
                "temporary path '" << dir.string()
                                 << "' is too long for a unix socket; pass a "
                                    "shorter --out");
  fs::create_directories(dir);
  return dir.string();
}

void write_metrics(JsonWriter& w, const Metrics& m) {
  w.begin_object();
  for (const Metric& x : m.all()) {
    w.key(x.name).begin_object();
    w.key("value").value(x.value);
    w.key("unit").value(x.unit);
    w.end_object();
  }
  w.end_object();
}

void write_result(const std::string& path, const Args& a, const RunResult& r,
                  bool correct) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pnp-bench-v1");
  w.key("workload").value(a.run.workload);
  w.key("trace").value(a.run.trace);
  w.key("seconds").value(a.run.seconds);
  w.key("stamp");
  write_stamp(w, collect_stamp(a.commit, a.run.seed));
  w.key("correct").value(correct);
  w.key("valid").value(r.valid);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics");
  write_metrics(w, r.end_to_end);
  w.key("layers");
  write_metrics(w, r.layers);
  w.key("ladder").begin_array();
  for (std::size_t i = 0; i < r.ladder.size(); ++i) {
    const Rung& g = r.ladder[i];
    w.begin_object();
    w.key("rate").value(g.rate);
    w.key("offered").value(g.offered);
    w.key("completed").value(g.completed);
    w.key("failed").value(g.failed);
    w.key("p99_us").value(std::isfinite(g.p99_us) ? g.p99_us : -1.0);
    w.key("passed").value(static_cast<bool>(r.ladder_passed[i]));
    w.end_object();
  }
  w.end_array();
  w.key("problems").begin_array();
  for (const std::string& p : r.problems) w.value(p);
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : r.notes) w.value(n);
  w.end_array();
  w.end_object();
  std::ofstream os(path);
  PNP_CHECK_MSG(os.is_open(), "cannot open '" << path << "' for writing");
  os << w.str();
  os.flush();
  PNP_CHECK_MSG(os.good(), "writing '" << path << "' failed");
}

/// The result line: exactly the listed metrics, in order.
std::string result_line(const RunResult& r, bool correct,
                        std::span<const MetricDef> defs,
                        const Metrics& source) {
  JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const MetricDef& d : defs) {
    const Metric* m = source.find(d.name);
    PNP_CHECK_MSG(m != nullptr, "workload did not measure " << d.name);
    PNP_CHECK_MSG(m->unit == d.unit, d.name << " measured in " << m->unit
                                            << ", declared " << d.unit);
    w.key(d.name).begin_object();
    w.key("value").value(m->value);
    w.key("unit").value(d.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::string line = w.str();
  while (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

void print_metrics(const char* title, std::span<const MetricDef> defs,
                   const Metrics& m) {
  std::printf("%s\n", title);
  for (const MetricDef& d : defs)
    if (const Metric* x = m.find(d.name))
      std::printf("  %-36s %14.4f %s\n", d.name, x->value, d.unit);
}

int run(const Args& a) {
  RunArgs ra = a.run;
  std::filesystem::create_directories(a.out_dir);
  ra.tmp_dir = temp_dir(a.out_dir);
  {
    // The paper suite's IR is built once per process; time it here so
    // setup_s counts it once, not once per setup repetition.
    const auto t0 = std::chrono::steady_clock::now();
    (void)workloads::Suite::instance();
    ra.suite_s = seconds_since(t0);
  }
  Tracer tracer;
  Tracer* tr = ra.trace ? &tracer : nullptr;
  RunResult r;
  try {
    r = is_serve_workload(ra.workload) ? run_serve_workload(ra, tr)
                                       : run_train_workload(ra, tr);
  } catch (...) {
    std::filesystem::remove_all(ra.tmp_dir);
    throw;
  }
  std::filesystem::remove_all(ra.tmp_dir);
  const bool correct = r.problems.empty();

  std::printf("workload %s  seed %llu  %s  (%.0f s measured)\n",
              ra.workload.c_str(), static_cast<unsigned long long>(ra.seed),
              ra.trace ? "traced" : "untraced", ra.seconds);
  if (ra.trace) {
    const std::vector<Span> spans = tracer.spans();
    tracer.write_jsonl(a.out_dir + "/spans.jsonl");
    std::printf("layer self time (%zu spans -> %s/spans.jsonl)\n",
                spans.size(), a.out_dir.c_str());
    std::printf("  %-34s %9s %12s %12s %12s\n", "span", "count", "p50_us",
                "self_p50_us", "self_total_ms");
    for (const LayerSummary& s : summarize(spans))
      std::printf("  %-34s %9zu %12.3f %12.3f %12.3f\n", s.name.c_str(),
                  s.count, s.p50_us, s.self_p50_us, s.self_total_ms);
    print_metrics("per-layer metrics", kPerLayer, r.layers);
    std::printf("other layer numbers\n");
    for (const Metric& m : r.layers.all()) {
      bool listed = false;
      for (const MetricDef& d : kPerLayer) listed |= m.name == d.name;
      if (!listed)
        std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
  } else {
    print_metrics("end-to-end metrics", kEndToEnd, r.end_to_end);
    for (std::size_t i = 0; i < r.ladder.size(); ++i)
      std::printf("  ladder rung %8.0f req/s  p99 %10.1f us  failed %llu/%llu"
                  "  %s\n",
                  r.ladder[i].rate, r.ladder[i].p99_us,
                  static_cast<unsigned long long>(r.ladder[i].failed),
                  static_cast<unsigned long long>(r.ladder[i].offered),
                  r.ladder_passed[i] ? "pass" : "fail");
  }
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& p : r.problems)
    std::printf("INCORRECT: %s\n", p.c_str());
  std::printf("attempted %llu  failed %llu  failed_frac %.6f  %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              correct ? "correct" : "INCORRECT");
  write_result(a.out_dir + "/result.json", a, r, correct);
  const std::string line =
      ra.trace ? result_line(r, correct, kPerLayer, r.layers)
               : result_line(r, correct, kEndToEnd, r.end_to_end);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pnp_bench: error: %s\n", e.what());
    return 1;
  }
}
