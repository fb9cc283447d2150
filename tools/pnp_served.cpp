/// \file pnp_served.cpp
/// The always-on network serving daemon: serve::Server over a
/// serve::TuningService, speaking the length-prefixed binary protocol of
/// docs/SERVING.md ("Network protocol") on a TCP or unix socket:
///
///   pnp_served --machine NAME[,NAME...] --model MODEL --listen ADDR
///              [--workers N] [--queue N] [--precision f64|f32]
///              [--observe-log PATH] [--retrain-interval MS]
///              [--retrain-publish PATH] [--retrain-epochs N]
///              [--retrain-min-records N] [--retrain-min-gain X]
///
/// `--machine` takes one or more comma-separated machine names (haswell,
/// skylake, or gen:<seed>:<index> zoo specs, docs/HARDWARE.md). Each name
/// becomes one *tenant*: its own simulator, measurement db, and
/// TuningService, all serving the same artifact — so a multi-machine
/// daemon needs a fleet artifact whose fingerprint list admits every
/// tenant. Tune requests carry the tenant index on the wire; `reload`
/// broadcasts to every tenant, `observe` and the retraining loop bind
/// tenant 0.
///
/// Each connection's reader serves a lone tune request itself when the
/// admission queue is empty and a worker is free; every other request
/// (pipelined backlogs, reload, observe, stats) goes through the
/// `--queue`-deep admission queue to the `--workers` pool. At most
/// `--workers` requests execute at once, inline or queued. Both serve on the executing thread
/// through TuningService::tune. `--precision` overrides the artifact's
/// persisted serving tier.
///
/// `--observe-log PATH` opens (or creates) a core::MeasurementLog and
/// enables the `observe` opcode: clients stream real (region, config,
/// cap, runtime/energy) measurements, each durably appended before it is
/// acked. `--retrain-interval MS` additionally starts the
/// serve::RetrainController feedback loop (requires --observe-log and the
/// power scenario): every MS milliseconds, new log records are replayed
/// onto a private copy of the measurement db, a candidate is warm-started
/// from the incumbent's weights and fine-tuned, and it is published
/// through the zero-downtime reload path only if it beats the incumbent
/// on a held-out split. `--retrain-publish` names the candidate artifact
/// file (default: observe-log path + ".candidate"); `--retrain-epochs`
/// bounds each fine-tune; `--retrain-min-records` is the per-round
/// ingest floor; `--retrain-min-gain` is the gate's speedup margin.
///
/// ADDR is `unix:PATH` or `tcp:[HOST:]PORT` (`tcp:0` picks an ephemeral
/// loopback port; the bound address is printed to stderr as
/// `listening on …`). The daemon serves until SIGINT/SIGTERM, then drains
/// gracefully — the listener closes first, every accepted request
/// completes and flushes its reply, and a final summary (request counts
/// and the p50/p95/p99 tune latency) lands on stderr. Exit codes: 0
/// success (clean drain), 1 bad input (unreadable model, unbindable
/// address), 2 bad usage.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "hw/machine_generator.hpp"
#include "serve/retrainer.hpp"
#include "serve/server.hpp"
#include "workloads/suite.hpp"

using namespace pnp;

namespace {

struct Args {
  std::string machine = "haswell";
  std::string model_path;
  std::string listen;
  serve::ServerOptions server;
  serve::TuningServiceOptions service;
  std::string observe_log;
  int retrain_interval_ms = 0;  ///< 0 = feedback loop off
  serve::RetrainOptions retrain;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s --machine NAME[,NAME...] --model MODEL --listen ADDR\n"
      "     [--workers N] [--queue N] [--precision f64|f32]\n"
      "     [--observe-log PATH] [--retrain-interval MS]\n"
      "     [--retrain-publish PATH] [--retrain-epochs N]\n"
      "     [--retrain-min-records N] [--retrain-min-gain X]\n"
      "ADDR: 'unix:PATH' or 'tcp:[HOST:]PORT' (tcp:0 = ephemeral port).\n"
      "--machine NAME[,NAME...]: one tenant per comma-separated machine\n"
      "(haswell, skylake, or gen:<seed>:<index>); multi-machine daemons\n"
      "need a fleet artifact.\n"
      "--workers N threads serve queued requests from a --queue N deep\n"
      "admission queue; a lone tune request runs on its connection's reader\n"
      "while a worker is free. At most --workers requests execute at once.\n"
      "--precision overrides the artifact's serving tier.\n"
      "--observe-log enables the observe opcode; --retrain-interval\n"
      "starts the gated online-retraining loop (requires --observe-log).\n"
      "Serves until SIGINT/SIGTERM, then drains gracefully.\n",
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
      else if (flag == "--listen") a.listen = value();
      else if (flag == "--workers")
        a.server.workers = parse_int(value(), "--workers", 1, 4096);
      else if (flag == "--queue")
        a.server.queue_depth = parse_int(value(), "--queue", 1, 1 << 20);
      else if (flag == "--precision") {
        const std::string p = value();
        a.service.precision = nn::precision_from_name(p);
        if (!a.service.precision)
          throw Error("bad --precision '" + p + "' (expected f64 or f32)");
      }
      else if (flag == "--observe-log") a.observe_log = value();
      else if (flag == "--retrain-interval")
        a.retrain_interval_ms =
            parse_int(value(), "--retrain-interval", 0, 86400000);
      else if (flag == "--retrain-publish") a.retrain.publish_path = value();
      else if (flag == "--retrain-epochs")
        a.retrain.fine_tune.max_epochs =
            parse_int(value(), "--retrain-epochs", 1, 100000);
      else if (flag == "--retrain-min-records")
        a.retrain.min_new_records = static_cast<std::uint64_t>(
            parse_int(value(), "--retrain-min-records", 0, 1 << 30));
      else if (flag == "--retrain-min-gain")
        a.retrain.min_speedup_gain = parse_double(value(), "--retrain-min-gain");
      else usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  if (a.model_path.empty() || a.listen.empty()) usage(argv[0]);
  if (a.retrain_interval_ms > 0 && a.observe_log.empty())
    throw Error("--retrain-interval requires --observe-log");
  a.server.listen = a.listen;
  a.retrain.log_path = a.observe_log;
  if (a.retrain.publish_path.empty() && !a.observe_log.empty())
    a.retrain.publish_path = a.observe_log + ".candidate";
  return a;
}

/// "--machine A,B,C" → one resolved MachineModel per tenant, in order.
std::vector<hw::MachineModel> machines_for(const std::string& spec) {
  std::vector<hw::MachineModel> out;
  std::istringstream is(spec);
  std::string name;
  while (std::getline(is, name, ',')) {
    PNP_CHECK_MSG(!name.empty(), "empty machine name in '" << spec << "'");
    out.push_back(hw::machine_by_name(name));
  }
  PNP_CHECK_MSG(!out.empty(), "no machine names in '" << spec << "'");
  return out;
}

// SIGINT/SIGTERM handshake: the handler writes one byte into a self-pipe
// (async-signal-safe); the main thread blocks reading it.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const char b = 's';
  [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe[1], &b, 1);
}

int run(const Args& a) {
  // Install the handlers before the server exists and starts accepting:
  // a signal delivered in that window must park in the self-pipe for the
  // drain below, not kill the daemon with the default disposition.
  PNP_CHECK_MSG(::pipe(g_signal_pipe) == 0, "cannot create signal pipe");
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // One tenant per --machine name: its own simulator, measurement db,
  // and TuningService, all loading the same artifact. Tenant 0 is the
  // observe/retrain tenant. Construction order doubles as lifetime
  // order: sims outlive dbs outlive services outlive the server.
  const std::vector<hw::MachineModel> machines = machines_for(a.machine);
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<core::MeasurementDb>> dbs;
  std::vector<std::unique_ptr<serve::TuningService>> services;
  for (const hw::MachineModel& m : machines) {
    sims.push_back(std::make_unique<sim::Simulator>(m));
    dbs.push_back(std::make_unique<core::MeasurementDb>(
        *sims.back(), core::SearchSpace::for_machine(m),
        workloads::Suite::instance().all_regions()));
    services.push_back(std::make_unique<serve::TuningService>(
        *dbs.back(), a.model_path, a.service));
  }
  serve::TuningService& service = *services.front();
  std::vector<serve::TuningService*> tenants;
  for (auto& s : services) tenants.push_back(s.get());

  std::unique_ptr<core::MeasurementLog> observe_log;
  std::unique_ptr<serve::RetrainController> retrainer;
  serve::ServerOptions server_opt = a.server;
  if (!a.observe_log.empty()) {
    observe_log = std::make_unique<core::MeasurementLog>(a.observe_log);
    server_opt.observe_log = observe_log.get();
  }
  if (a.retrain_interval_ms > 0) {
    serve::RetrainOptions ro = a.retrain;
    ro.verbose = true;
    retrainer = std::make_unique<serve::RetrainController>(*sims.front(),
                                                           service,
                                                           std::move(ro));
    server_opt.retrain_counters = [&retrainer] {
      const auto s = retrainer->stats();
      serve::protocol::RetrainCounters rc;
      rc.observed = s.observed;
      rc.attempts = s.attempts;
      rc.published = s.published;
      rc.rejected_gate = s.rejected_gate;
      rc.rejected_candidate = s.rejected_candidate;
      rc.rejected_log = s.rejected_log;
      rc.last_published_version = s.last_published_version;
      return rc;
    };
  }

  serve::Server server(tenants, server_opt);
  if (retrainer)
    retrainer->start(std::chrono::milliseconds(a.retrain_interval_ms));
  std::fprintf(stderr,
               "listening on %s (model %s v%llu %s, %zu tenants, %d workers, "
               "queue %d)\n",
               server.address().to_string().c_str(), a.model_path.c_str(),
               static_cast<unsigned long long>(service.model_version()),
               nn::precision_name(service.precision()), tenants.size(),
               a.server.workers, a.server.queue_depth);

  char b;
  for (;;) {
    const ssize_t r = ::read(g_signal_pipe[0], &b, 1);
    if (r >= 0) break;  // got the handler's byte (or EOF — either way, stop)
    // Retry only the handler interrupting us mid-read; any other errno
    // (EBADF, ...) would busy-spin forever.
    PNP_CHECK_MSG(errno == EINTR, "signal pipe read failed");
  }
  std::fprintf(stderr, "draining...\n");
  // Stop the feedback loop before the drain: the final summary below must
  // not race a publish, and a round in flight completes first.
  if (retrainer) retrainer->stop();
  server.shutdown();

  const auto st = server.stats();
  const auto& h = server.latency();
  std::fprintf(stderr,
               "served %llu ok, %llu errors, %llu shed, %llu malformed over "
               "%llu connections\n",
               static_cast<unsigned long long>(st.ok),
               static_cast<unsigned long long>(st.errors),
               static_cast<unsigned long long>(st.shed),
               static_cast<unsigned long long>(st.malformed),
               static_cast<unsigned long long>(st.connections));
  if (h.count() > 0) {
    std::fprintf(stderr,
                 "tune latency (ns): p50<=%llu p95<=%llu p99<=%llu max=%llu\n",
                 static_cast<unsigned long long>(h.quantile_ns(0.50)),
                 static_cast<unsigned long long>(h.quantile_ns(0.95)),
                 static_cast<unsigned long long>(h.quantile_ns(0.99)),
                 static_cast<unsigned long long>(h.max_ns()));
  }
  if (observe_log)
    std::fprintf(stderr, "observe log %s: %llu records\n",
                 observe_log->path().c_str(),
                 static_cast<unsigned long long>(observe_log->size()));
  if (retrainer) {
    const auto rs = retrainer->stats();
    std::fprintf(stderr,
                 "retrain observed=%llu attempts=%llu published=%llu "
                 "rejected_gate=%llu rejected_candidate=%llu "
                 "rejected_log=%llu last_published_version=%llu\n",
                 static_cast<unsigned long long>(rs.observed),
                 static_cast<unsigned long long>(rs.attempts),
                 static_cast<unsigned long long>(rs.published),
                 static_cast<unsigned long long>(rs.rejected_gate),
                 static_cast<unsigned long long>(rs.rejected_candidate),
                 static_cast<unsigned long long>(rs.rejected_log),
                 static_cast<unsigned long long>(rs.last_published_version));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnp_served: error: %s\n", e.what());
    return 1;
  }
}
