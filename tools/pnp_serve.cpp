/// \file pnp_serve.cpp
/// Drive serve::TuningService from a request file with a configurable
/// thread pool and print a deterministic result grid (docs/SERVING.md):
///
///   pnp_serve --machine NAME --model MODEL --requests FILE
///             [--threads N] [--space table1|extended]
///             [--out FILE] [--observe-log PATH]
///
/// The request file holds one request per line ('#' starts a comment):
///
///   power    <region> <cap_index>
///   power_at <region> <cap_watts>      (scalar-cap models only)
///   edp      <region>
///   reload   <artifact-path>
///   observe  <region> <cap_watts> <threads> <sched> <chunk> <seconds> <joules>
///
/// Query lines are served concurrently by N pool threads, each calling
/// TuningService::tune on its own thread. A `reload` line is a barrier:
/// all earlier requests drain, the model is swapped, and later requests
/// are served by the new version — so the printed grid, including the
/// per-request model-version tags, is a pure function of the file and
/// byte-identical across runs and thread counts (CI diffs a one-thread
/// grid against a multi-thread one). An `observe` line (requires --observe-log)
/// is also a barrier: the measurement is validated against the serving
/// grid and durably appended to the core::MeasurementLog, feeding the
/// retraining loop of docs/SERVING.md "Model lifecycle" (`sched` is the
/// schedule index: 0=static, 1=dynamic, 2=guided). Exit codes: 0 success,
/// 1 bad input (unreadable model/request file, invalid request), 2 bad
/// usage.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/measurement_log.hpp"
#include "hw/machine_generator.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

namespace {

struct Args {
  std::string machine = "haswell";
  std::string model_path;
  std::string requests_path;
  std::string out_path;  // empty = stdout
  std::string space = "table1";  // table1 | extended
  std::string observe_log;  // empty = observe lines rejected
  int threads = 4;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s --machine NAME --model MODEL --requests FILE\n"
      "     [--threads N] [--space table1|extended]\n"
      "     [--out FILE] [--observe-log PATH]\n"
      "request file lines: 'power R K' | 'power_at R WATTS' | 'edp R' |\n"
      "'reload PATH' (a barrier: drains, swaps the model, continues) |\n"
      "'observe R WATTS THREADS SCHED CHUNK SECONDS JOULES' (a barrier:\n"
      "validates + appends the measurement to --observe-log)\n"
      "machine names: haswell, skylake, or gen:<seed>:<index>\n",
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
      if (flag == "--machine") a.machine = value();
      else if (flag == "--model") a.model_path = value();
      else if (flag == "--requests") a.requests_path = value();
      else if (flag == "--out") a.out_path = value();
      else if (flag == "--threads")
        a.threads = parse_int(value(), "--threads", 1, 4096);
      else if (flag == "--space") a.space = value();
      else if (flag == "--observe-log") a.observe_log = value();
      else usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  if (a.model_path.empty() || a.requests_path.empty()) usage(argv[0]);
  return a;
}

struct Op {
  bool is_reload = false;
  bool is_observe = false;
  serve::TuneRequest request;       // query lines
  std::string reload_path;          // when is_reload
  core::MeasurementRecord observe;  // when is_observe
  int line = 0;
};

std::vector<Op> parse_requests(const std::string& path) {
  std::ifstream is(path);
  PNP_CHECK_MSG(is.is_open(), "cannot open request file '" << path << "'");
  std::vector<Op> ops;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank / comment-only line
    Op op;
    op.line = line_no;
    const auto fail = [&](const char* why) -> Error {
      return Error("request file line " + std::to_string(line_no) + ": " +
                   why + ": '" + line + "'");
    };
    if (kind == "power") {
      int region = 0, cap = 0;
      if (!(ls >> region >> cap)) throw fail("expected 'power R K'");
      op.request = serve::TuneRequest::power(region, cap);
    } else if (kind == "power_at") {
      int region = 0;
      double watts = 0.0;
      if (!(ls >> region >> watts)) throw fail("expected 'power_at R WATTS'");
      op.request = serve::TuneRequest::power_at(region, watts);
    } else if (kind == "edp") {
      int region = 0;
      if (!(ls >> region)) throw fail("expected 'edp R'");
      op.request = serve::TuneRequest::edp(region);
    } else if (kind == "reload") {
      std::string p;
      if (!(ls >> p)) throw fail("expected 'reload PATH'");
      op.is_reload = true;
      op.reload_path = p;
    } else if (kind == "observe") {
      int sched = 0;
      core::MeasurementRecord& m = op.observe;
      if (!(ls >> m.region >> m.cap_w >> m.config.threads >> sched >>
            m.config.chunk >> m.seconds >> m.joules))
        throw fail(
            "expected 'observe R WATTS THREADS SCHED CHUNK SECONDS JOULES'");
      if (sched < 0 || sched >= sim::kNumSchedules)
        throw fail("schedule index out of range");
      m.config.schedule = static_cast<sim::Schedule>(sched);
      op.is_observe = true;
    } else {
      throw fail("unknown request kind");
    }
    std::string extra;
    if (ls >> extra) throw fail("trailing tokens");
    ops.push_back(std::move(op));
  }
  PNP_CHECK_MSG(!ops.empty(), "request file '" << path << "' holds no requests");
  return ops;
}

/// Serve ops[seg_begin, seg_end) — all queries — with `threads` pool
/// threads pulling from a shared index. Results land in their op's slot,
/// so the output order is the file order regardless of scheduling.
void run_segment(serve::TuningService& service, const std::vector<Op>& ops,
                 std::size_t seg_begin, std::size_t seg_end, int threads,
                 std::vector<serve::TuneResult>& results,
                 std::vector<std::string>& errors) {
  std::atomic<std::size_t> next{seg_begin};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= seg_end) return;
      try {
        results[i] = service.tune(ops[i].request);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  const int pool = std::min<int>(
      threads, static_cast<int>(seg_end - seg_begin) > 0
                   ? static_cast<int>(seg_end - seg_begin)
                   : 1);
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(pool));
  for (int t = 0; t < pool; ++t) team.emplace_back(worker);
  for (auto& th : team) th.join();
}

void print_grid(const std::vector<Op>& ops,
                const std::vector<serve::TuneResult>& results,
                std::ostream& os) {
  os << "# pnp-serve-v1\n";
  std::size_t req = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].is_reload) {
      os << "# reload -> v=" << results[i].model_version << "\n";
      continue;
    }
    if (ops[i].is_observe) {
      // Barrier ops park their result in the model_version slot: for an
      // observe that's the log sequence number of the appended record.
      os << "# observe -> seq=" << results[i].model_version << "\n";
      continue;
    }
    const serve::TuneRequest& q = ops[i].request;
    const serve::TuneResult& r = results[i];
    os << "req=" << req++ << " ";
    switch (q.kind) {
      case serve::TuneRequest::Kind::Power:
        os << "power region=" << q.region << " cap=" << q.cap_index;
        break;
      case serve::TuneRequest::Kind::PowerAt: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", q.cap_w);
        os << "power_at region=" << q.region << " cap_w=" << buf;
        break;
      }
      case serve::TuneRequest::Kind::Edp:
        os << "edp region=" << q.region;
        break;
    }
    os << " -> " << r.config.to_string();
    if (q.kind == serve::TuneRequest::Kind::Edp)
      os << " cap*=" << r.cap_index;
    os << " v=" << r.model_version << "\n";
  }
}

int run(const Args& a) {
  const auto machine = hw::machine_by_name(a.machine);
  const sim::Simulator sim(machine);
  const core::MeasurementDb db(
      sim, core::SearchSpace::by_name(a.space, machine),
      workloads::Suite::instance().all_regions());
  serve::TuningService service(db, a.model_path);
  std::fprintf(stderr, "serving %s v%llu with %d threads\n",
               a.model_path.c_str(),
               static_cast<unsigned long long>(service.model_version()),
               a.threads);

  const std::vector<Op> ops = parse_requests(a.requests_path);
  std::vector<serve::TuneResult> results(ops.size());
  std::vector<std::string> errors(ops.size());

  std::optional<core::MeasurementLog> observe_log;
  if (!a.observe_log.empty()) observe_log.emplace(a.observe_log);

  // Serve the file as segments between barriers (reload/observe lines):
  // every request before a barrier is answered by the old model, every
  // request after by the new one — which makes the version tags
  // deterministic. (The racy mid-stream reload path is exercised by
  // tests/service_test.cpp.)
  std::size_t seg_begin = 0;
  for (std::size_t i = 0; i <= ops.size(); ++i) {
    if (i < ops.size() && !ops[i].is_reload && !ops[i].is_observe) continue;
    run_segment(service, ops, seg_begin, i, a.threads, results, errors);
    if (i < ops.size() && ops[i].is_reload) {
      results[i].model_version = service.reload(ops[i].reload_path);
      std::fprintf(stderr, "reloaded %s -> v%llu\n",
                   ops[i].reload_path.c_str(),
                   static_cast<unsigned long long>(results[i].model_version));
    } else if (i < ops.size()) {
      PNP_CHECK_MSG(observe_log.has_value(),
                    "request file line " << ops[i].line
                                         << ": observe needs --observe-log");
      // Refuse off-grid measurements before anything becomes durable,
      // exactly like the network server's observe path.
      core::locate_observation(service.db(), ops[i].observe);
      results[i].model_version = observe_log->append(ops[i].observe);
    }
    seg_begin = i + 1;
  }

  for (std::size_t i = 0; i < ops.size(); ++i)
    if (!errors[i].empty())
      throw Error("request file line " + std::to_string(ops[i].line) +
                  " failed: " + errors[i]);

  if (a.out_path.empty()) {
    print_grid(ops, results, std::cout);
  } else {
    std::ofstream os(a.out_path);
    PNP_CHECK_MSG(os.is_open(), "cannot open '" << a.out_path
                                                << "' for writing");
    print_grid(ops, results, os);
    os.flush();
    PNP_CHECK_MSG(os.good(), "writing '" << a.out_path << "' failed");
  }

  const auto st = service.stats();
  std::fprintf(stderr,
               "served %llu requests, encodings %llu cached / %llu "
               "computed, %llu reloads\n",
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.encode_hits),
               static_cast<unsigned long long>(st.encode_misses),
               static_cast<unsigned long long>(st.reloads));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnp_serve: error: %s\n", e.what());
    return 1;
  }
}
