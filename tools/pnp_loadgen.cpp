/// \file pnp_loadgen.cpp
/// Seeded open-loop load generator for pnp_served (docs/SERVING.md,
/// docs/BENCHMARKS.md): replays a deterministic blend of power /
/// power_at / edp requests against a live daemon at a fixed arrival
/// rate, measures per-request latency client-side, and prints a summary
/// suitable for CI assertion:
///
///   pnp_loadgen --target ADDR [--seed S] [--requests N] [--rate R]
///               [--arrivals poisson|fixed] [--connections C]
///               [--blend power:W,power_at:W,edp:W,observe:W]
///               [--machine haswell|skylake] [--regions N] [--caps N]
///               [--precision f64|f32]
///               [--reload PATH --reload-after K] [--no-stats]
///               [--connect-timeout-ms T] [--recv-timeout-ms T] [--out FILE]
///
/// `--precision` records which serving tier the targeted daemon runs
/// (pnp_served --precision) in the summary header, so a sweep over both
/// tiers yields self-describing outputs; it changes no request bytes.
///
/// An `observe:W` blend weight mixes write-path traffic in: observe
/// requests carrying truthful (region, cap, config, runtime/energy)
/// measurements drawn from the same noiseless tables pnp_served builds
/// (`--machine` must match the daemon's), so an enabled feedback loop
/// (pnp_served --observe-log --retrain-interval) ingests real ground
/// truth. With observe weight 0 the planned request stream is
/// byte-identical to earlier versions of this tool for the same seed.
/// When `--no-stats` is absent the summary ends with a `p99_side_by_side`
/// line putting the client-observed and server-observed p99 next to each
/// other — the gap is the transport + queueing overhead the wire adds on
/// top of the service's own serve time.
///
/// Open loop: every request's send time is fixed up front by the arrival
/// process (Poisson or fixed-interval at `--rate` req/s, from `--seed`) —
/// senders do not wait for replies, so an overloaded server cannot slow
/// the offered load down; it must shed, and the summary counts exactly
/// how much. Requests round-robin over C connections, each with a sender
/// and a receiver thread; replies are matched to send timestamps by
/// request id. `--reload-after K` turns the K-th request into a hot
/// `reload` of the given artifact mid-run.
///
/// The request stream is a pure function of the flags; the latency
/// numbers of course are not. Exit codes: 0 success (shed and
/// request-level errors are *reported*, not fatal), 1 transport/protocol
/// failure (unreachable target, malformed reply, dropped connection),
/// 2 bad usage.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/latency_histogram.hpp"
#include "common/net.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/measurement_db.hpp"
#include "hw/machine_generator.hpp"
#include "nn/matrix.hpp"
#include "serve/protocol.hpp"
#include "workloads/suite.hpp"

using namespace pnp;
namespace protocol = serve::protocol;

namespace {

struct Args {
  std::string target;
  std::string out_path;  // empty = stdout
  std::string machine = "haswell";  // observe blends: must match the daemon
  std::uint64_t seed = 7;
  int requests = 1000;
  double rate = 2000.0;  // offered req/s across all connections
  bool poisson = true;
  int connections = 4;
  std::string blend = "power:2,power_at:1";
  int regions = 10;
  int caps = 4;
  std::string precision;  // label only; empty = unspecified
  std::string reload_path;
  int reload_after = -1;
  int tenants = 1;  // daemon tenants; tune requests round-robin over them
  bool fetch_stats = true;
  int connect_timeout_ms = 5000;
  int recv_timeout_ms = 30000;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s --target ADDR [--seed S] [--requests N] [--rate R]\n"
      "     [--arrivals poisson|fixed] [--connections C]\n"
      "     [--blend power:W,power_at:W,edp:W,observe:W]\n"
      "     [--machine NAME] [--regions N] [--caps N] [--tenants N]\n"
      "     [--precision f64|f32]\n"
      "     [--reload PATH --reload-after K] [--no-stats]\n"
      "     [--connect-timeout-ms T] [--recv-timeout-ms T] [--out FILE]\n"
      "ADDR: 'unix:PATH' or 'tcp:HOST:PORT' of a running pnp_served.\n"
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
      if (flag == "--target") a.target = value();
      else if (flag == "--out") a.out_path = value();
      else if (flag == "--seed") a.seed = parse_uint64(value(), "--seed");
      else if (flag == "--requests")
        a.requests = parse_int(value(), "--requests", 1, 100000000);
      else if (flag == "--rate") {
        a.rate = parse_double(value(), "--rate");
        if (a.rate <= 0.0) usage(argv[0]);
      } else if (flag == "--arrivals") {
        const std::string v = value();
        if (v == "poisson") a.poisson = true;
        else if (v == "fixed") a.poisson = false;
        else usage(argv[0]);
      } else if (flag == "--connections")
        a.connections = parse_int(value(), "--connections", 1, 4096);
      else if (flag == "--machine") a.machine = value();
      else if (flag == "--blend") a.blend = value();
      else if (flag == "--regions")
        a.regions = parse_int(value(), "--regions", 1, 100000);
      else if (flag == "--caps")
        a.caps = parse_int(value(), "--caps", 1, 100000);
      else if (flag == "--tenants")
        a.tenants = parse_int(value(), "--tenants", 1, 256);
      else if (flag == "--precision") {
        a.precision = value();
        if (!nn::precision_from_name(a.precision)) usage(argv[0]);
      }
      else if (flag == "--reload") a.reload_path = value();
      else if (flag == "--reload-after")
        a.reload_after = parse_int(value(), "--reload-after", 0, 100000000);
      else if (flag == "--no-stats") a.fetch_stats = false;
      else if (flag == "--connect-timeout-ms")
        a.connect_timeout_ms =
            parse_int(value(), "--connect-timeout-ms", 1, 600000);
      else if (flag == "--recv-timeout-ms")
        a.recv_timeout_ms = parse_int(value(), "--recv-timeout-ms", 1, 600000);
      else usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  if (a.target.empty()) usage(argv[0]);
  if (!a.reload_path.empty() != (a.reload_after >= 0)) usage(argv[0]);
  if (a.reload_after >= a.requests) usage(argv[0]);
  return a;
}

/// Relative request-kind weights parsed from
/// "power:2,power_at:1,edp:0,observe:1".
struct Blend {
  int power = 0, power_at = 0, edp = 0, observe = 0;
  int total() const { return power + power_at + edp + observe; }
};

Blend parse_blend(const std::string& spec) {
  Blend b;
  std::istringstream is(spec);
  std::string part;
  while (std::getline(is, part, ',')) {
    const auto colon = part.find(':');
    PNP_CHECK_MSG(colon != std::string::npos,
                  "bad blend part '" << part << "' (expected kind:weight)");
    const std::string kind = part.substr(0, colon);
    const int w = parse_int(part.substr(colon + 1), "blend weight", 0, 1000000);
    if (kind == "power") b.power = w;
    else if (kind == "power_at") b.power_at = w;
    else if (kind == "edp") b.edp = w;
    else if (kind == "observe") b.observe = w;
    else throw Error("unknown blend kind '" + kind + "'");
  }
  PNP_CHECK_MSG(b.total() > 0, "blend '" << spec << "' has no positive weight");
  return b;
}

struct PlannedRequest {
  protocol::Request request;
  std::uint64_t offset_ns = 0;  ///< send time relative to run start
  bool is_tune = false;         ///< counted into the latency histogram
  bool is_observe = false;      ///< write-path; counted separately
};

/// The full seeded open-loop schedule: request i's kind/arguments and
/// arrival offset are a pure function of (seed, i). `obs_db` supplies
/// truthful measurement values for observe requests (non-null iff the
/// blend has observe weight); cap and candidate indices are derived from
/// the same single uniform draw every kind consumes, so a zero observe
/// weight leaves the stream byte-identical to earlier tool versions.
std::vector<PlannedRequest> plan(const Args& a, const Blend& blend,
                                 const core::MeasurementDb* obs_db) {
  Rng rng(a.seed);
  std::vector<PlannedRequest> out;
  out.reserve(static_cast<std::size_t>(a.requests));
  double t_ns = 0.0;
  const double mean_gap_ns = 1e9 / a.rate;
  for (int i = 0; i < a.requests; ++i) {
    // Arrival process first, so the timeline is independent of the blend.
    if (a.poisson) {
      const double u = rng.uniform();
      t_ns += -std::log(1.0 - u) * mean_gap_ns;
    } else {
      t_ns += mean_gap_ns;
    }
    PlannedRequest p;
    p.offset_ns = static_cast<std::uint64_t>(t_ns);
    p.request.id = static_cast<std::uint64_t>(i);
    if (i == a.reload_after) {
      p.request.op = protocol::Op::Reload;
      p.request.reload_path = a.reload_path;
      // Burn the draws a tune request would take so later requests are
      // unchanged by the reload's presence.
      rng.uniform_index(static_cast<std::size_t>(blend.total()));
      rng.uniform_index(static_cast<std::size_t>(a.regions));
      rng.uniform(0.0, 1.0);
      out.push_back(std::move(p));
      continue;
    }
    const int pick = static_cast<int>(
        rng.uniform_index(static_cast<std::size_t>(blend.total())));
    const int region =
        static_cast<int>(rng.uniform_index(static_cast<std::size_t>(a.regions)));
    const double draw = rng.uniform(0.0, 1.0);
    // Tenant routing is round-robin by request index — no extra rng draw,
    // so --tenants 1 leaves the planned stream identical to a pre-tenant
    // plan of the same seed.
    p.request.machine = static_cast<std::uint32_t>(i % a.tenants);
    if (pick < blend.power) {
      p.is_tune = true;
      p.request.op = protocol::Op::Power;
      p.request.tune = serve::TuneRequest::power(
          region, static_cast<int>(draw * a.caps));
    } else if (pick < blend.power + blend.power_at) {
      p.is_tune = true;
      p.request.op = protocol::Op::PowerAt;
      p.request.tune =
          serve::TuneRequest::power_at(region, 30.0 + draw * 60.0);
    } else if (pick < blend.power + blend.power_at + blend.edp) {
      p.is_tune = true;
      p.request.op = protocol::Op::Edp;
      p.request.tune = serve::TuneRequest::edp(region);
    } else {
      // Truthful observation of one grid cell: the cap index comes from
      // the draw's integer part over the cap axis, the candidate from the
      // fractional remainder — one draw, two independent uniforms.
      p.is_observe = true;
      p.request.op = protocol::Op::Observe;
      const int nr = obs_db->num_regions();
      const int r = region % nr;
      const int nc = obs_db->num_caps();
      const int nomp = obs_db->space().num_omp_configs();
      const double scaled = draw * nc;
      const int cap = std::min(nc - 1, static_cast<int>(scaled));
      const int cand =
          std::min(nomp - 1, static_cast<int>((scaled - cap) * nomp));
      const sim::ExecutionResult& res = obs_db->at(r, cap, cand);
      p.request.observe.region = r;
      p.request.observe.cap_w = obs_db->space().power_caps()[
          static_cast<std::size_t>(cap)];
      p.request.observe.config = obs_db->space().candidate(cand);
      p.request.observe.seconds = res.seconds;
      p.request.observe.joules = res.joules;
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// One connection's worth of the run: a sender thread pacing the
/// schedule and a receiver thread matching replies to send timestamps.
struct ConnDriver {
  net::Socket sock;
  std::vector<const PlannedRequest*> mine;
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point>
      sent_at;
  LatencyHistogram latency;
  std::uint64_t ok = 0, errors = 0, shed = 0, reload_ok = 0, reload_errors = 0;
  std::uint64_t observe_ok = 0, observe_errors = 0;
  std::string failure;  ///< first transport/protocol failure, if any
  std::chrono::steady_clock::time_point last_reply;
};

enum class ReqKind : std::uint8_t { Control, Tune, Observe };

void sender_loop(ConnDriver& c, std::chrono::steady_clock::time_point start) {
  try {
    for (const PlannedRequest* p : c.mine) {
      std::this_thread::sleep_until(start +
                                    std::chrono::nanoseconds(p->offset_ns));
      const std::string payload = protocol::encode_request(p->request);
      {
        // Timestamp before the write so the measured latency includes
        // the full round trip; the map entry must exist before the reply
        // can possibly arrive.
        std::lock_guard<std::mutex> lk(c.mu);
        c.sent_at[p->request.id] = std::chrono::steady_clock::now();
      }
      net::send_frame(c.sock, payload);
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(c.mu);
    if (c.failure.empty()) c.failure = e.what();
  }
}

void receiver_loop(ConnDriver& c, const std::vector<ReqKind>& kind_by_id) {
  try {
    for (std::size_t n = 0; n < c.mine.size(); ++n) {
      const auto frame = net::recv_frame(c.sock);
      PNP_CHECK_MSG(frame.has_value(),
                    "server closed the connection " << n << " replies in, "
                    << c.mine.size() - n << " outstanding");
      const protocol::Response resp = protocol::decode_response(*frame);
      const auto now = std::chrono::steady_clock::now();
      std::chrono::steady_clock::time_point t0;
      {
        std::lock_guard<std::mutex> lk(c.mu);
        const auto it = c.sent_at.find(resp.id);
        PNP_CHECK_MSG(it != c.sent_at.end(),
                      "reply for unknown request id " << resp.id);
        t0 = it->second;
        c.sent_at.erase(it);
      }
      c.last_reply = now;
      const ReqKind kind = resp.id < kind_by_id.size() ? kind_by_id[resp.id]
                                                       : ReqKind::Control;
      const bool tune = kind == ReqKind::Tune;
      switch (resp.status) {
        case protocol::Status::Ok:
          (kind == ReqKind::Tune      ? c.ok
           : kind == ReqKind::Observe ? c.observe_ok
                                      : c.reload_ok)++;
          break;
        case protocol::Status::Error:
          (kind == ReqKind::Tune      ? c.errors
           : kind == ReqKind::Observe ? c.observe_errors
                                      : c.reload_errors)++;
          break;
        case protocol::Status::Shed:
          ++c.shed;
          break;
      }
      if (tune && resp.status != protocol::Status::Shed) {
        c.latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0)
                .count()));
      }
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(c.mu);
    if (c.failure.empty()) c.failure = e.what();
  }
}

void print_quantiles(std::ostream& os, const char* label,
                     const LatencyHistogram& h) {
  os << label << " count=" << h.count();
  if (h.count() > 0) {
    os << " p50<=" << h.quantile_ns(0.50) << " p95<=" << h.quantile_ns(0.95)
       << " p99<=" << h.quantile_ns(0.99) << " max=" << h.max_ns() << " mean="
       << static_cast<std::uint64_t>(static_cast<double>(h.total_ns()) /
                                     static_cast<double>(h.count()));
  }
  os << "\n";
}

int run(const Args& a) {
  const Blend blend = parse_blend(a.blend);
  const net::Address target = net::Address::parse(a.target);

  // Observe blends carry real measurements: rebuild the daemon's own
  // noiseless tables (pnp_served uses the table-1 space + the full suite)
  // so every observation is ground truth for its grid cell.
  std::unique_ptr<core::MeasurementDb> obs_db;
  if (blend.observe > 0) {
    const hw::MachineModel machine = hw::machine_by_name(a.machine);
    const sim::Simulator sim(machine);
    obs_db = std::make_unique<core::MeasurementDb>(
        sim, core::SearchSpace::for_machine(machine),
        workloads::Suite::instance().all_regions());
  }

  const std::vector<PlannedRequest> schedule = plan(a, blend, obs_db.get());
  std::vector<ReqKind> kind_by_id(schedule.size(), ReqKind::Control);
  for (const auto& p : schedule)
    kind_by_id[p.request.id] = p.is_tune      ? ReqKind::Tune
                               : p.is_observe ? ReqKind::Observe
                                              : ReqKind::Control;

  // Connect every connection up front (retrying while a freshly started
  // daemon finishes binding), then fan the schedule out round-robin.
  std::vector<std::unique_ptr<ConnDriver>> conns;
  for (int c = 0; c < a.connections; ++c) {
    auto d = std::make_unique<ConnDriver>();
    d->sock = net::connect_to(target, a.connect_timeout_ms);
    d->sock.set_recv_timeout_ms(a.recv_timeout_ms);
    conns.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < schedule.size(); ++i)
    conns[i % conns.size()]->mine.push_back(&schedule[i]);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> team;
  for (auto& c : conns) {
    team.emplace_back([&c, start] { sender_loop(*c, start); });
    team.emplace_back([&c, &kind_by_id] { receiver_loop(*c, kind_by_id); });
  }
  for (auto& t : team) t.join();

  // Aggregate in connection order: the merge is deterministic addition.
  LatencyHistogram latency;
  std::uint64_t ok = 0, errors = 0, shed = 0, reload_ok = 0, reload_errors = 0;
  std::uint64_t observe_ok = 0, observe_errors = 0;
  auto last_reply = start;
  for (auto& c : conns) {
    if (!c->failure.empty())
      throw Error("connection failed: " + c->failure);
    latency.merge(c->latency);
    ok += c->ok;
    errors += c->errors;
    shed += c->shed;
    reload_ok += c->reload_ok;
    reload_errors += c->reload_errors;
    observe_ok += c->observe_ok;
    observe_errors += c->observe_errors;
    if (c->last_reply > last_reply) last_reply = c->last_reply;
  }
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(last_reply -
                                                                start)
          .count();

  std::ostringstream os;
  os << "# pnp-loadgen-v1\n";
  os << "target=" << target.to_string() << " seed=" << a.seed
     << " requests=" << a.requests << " connections=" << a.connections
     << " rate=" << a.rate << " arrivals=" << (a.poisson ? "poisson" : "fixed")
     << " blend=power:" << blend.power << ",power_at:" << blend.power_at
     << ",edp:" << blend.edp << ",observe:" << blend.observe;
  if (!a.precision.empty()) os << " precision=" << a.precision;
  if (a.tenants > 1) os << " tenants=" << a.tenants;
  os << "\n";
  os << "sent=" << schedule.size() << " ok=" << ok << " errors=" << errors
     << " shed=" << shed << " reload_ok=" << reload_ok
     << " reload_errors=" << reload_errors << " observe_ok=" << observe_ok
     << " observe_errors=" << observe_errors << "\n";
  {
    char buf[64];
    std::snprintf(buf, sizeof buf, "elapsed_s=%.3f achieved_rps=%.1f",
                  elapsed_s,
                  elapsed_s > 0.0
                      ? static_cast<double>(schedule.size()) / elapsed_s
                      : 0.0);
    os << buf << "\n";
  }
  print_quantiles(os, "latency_ns", latency);

  if (a.fetch_stats) {
    // One final stats frame on a fresh connection: the server-side view
    // (its own histogram + the TuningService counters).
    net::Socket s = net::connect_to(target, a.connect_timeout_ms);
    s.set_recv_timeout_ms(a.recv_timeout_ms);
    protocol::Request q;
    q.id = schedule.size();
    q.op = protocol::Op::Stats;
    net::send_frame(s, protocol::encode_request(q));
    const auto frame = net::recv_frame(s);
    PNP_CHECK_MSG(frame.has_value(), "server closed before the stats reply");
    LatencyHistogram server_latency;
    const protocol::Response resp =
        protocol::decode_response(*frame, &server_latency);
    PNP_CHECK_MSG(resp.status == protocol::Status::Ok,
                  "stats request failed: " << resp.error);
    os << "server ok=" << resp.server.ok << " errors=" << resp.server.errors
       << " shed=" << resp.server.shed << " malformed=" << resp.server.malformed
       << " connections=" << resp.server.connections << "\n";
    os << "service requests=" << resp.service.requests
       << " batches=" << resp.service.batches
       << " coalesced=" << resp.service.coalesced
       << " encode_hits=" << resp.service.encode_hits
       << " encode_misses=" << resp.service.encode_misses
       << " reloads=" << resp.service.reloads
       << " failed_reloads=" << resp.service.failed_reloads << "\n";
    os << "retrain observed=" << resp.retrain.observed
       << " attempts=" << resp.retrain.attempts
       << " published=" << resp.retrain.published
       << " rejected_gate=" << resp.retrain.rejected_gate
       << " rejected_candidate=" << resp.retrain.rejected_candidate
       << " rejected_log=" << resp.retrain.rejected_log
       << " last_published_version=" << resp.retrain.last_published_version
       << "\n";
    print_quantiles(os, "server_latency_ns", server_latency);
    // Client p99 (full round trip) next to server p99 (admission→reply):
    // the difference is what the wire + reader/worker queueing add.
    if (latency.count() > 0 && server_latency.count() > 0) {
      const std::uint64_t client_p99 = latency.quantile_ns(0.99);
      const std::uint64_t server_p99 = server_latency.quantile_ns(0.99);
      os << "p99_side_by_side client_ns=" << client_p99
         << " server_ns=" << server_p99 << " transport_overhead_ns="
         << (client_p99 > server_p99 ? client_p99 - server_p99 : 0) << "\n";
    }
  }

  if (a.out_path.empty()) {
    std::cout << os.str();
    std::cout.flush();
  } else {
    std::ofstream f(a.out_path);
    PNP_CHECK_MSG(f.is_open(), "cannot open '" << a.out_path
                                               << "' for writing");
    f << os.str();
    f.flush();
    PNP_CHECK_MSG(f.good(), "writing '" << a.out_path << "' failed");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnp_loadgen: error: %s\n", e.what());
    return 1;
  }
}
