#pragma once

/// \file loadgen.hpp
/// Open-loop load generator for an in-process serve::Server. A phase's
/// schedule is fixed before it starts (a seeded Poisson process, built by
/// the workload); each connection has one sender thread that waits for
/// every request's due time and sends it whether or not earlier replies
/// came back, and one receiver thread that matches replies by request id.
/// Latency runs from the request's *due* time to its decoded reply, so a
/// stalled sender shows up as latency of the requests it delayed, and how
/// late each send left is recorded separately.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/net.hpp"
#include "core/measurement_log.hpp"
#include "harness.hpp"
#include "serve/protocol.hpp"

namespace pnp::bench {

/// One scheduled request. Kept compact (a ladder rung schedules ~10^5 of
/// them); the wire request is encoded when its phase starts.
struct Planned {
  std::int64_t due_ns = 0;  ///< offset from the phase start
  serve::protocol::Op op = serve::protocol::Op::Power;
  serve::TuneRequest tune;   ///< Power / PowerAt / Edp
  /// Observe: index into Traffic::observations. Reload: index into
  /// Traffic::artifacts.
  std::uint32_t ref = 0;
};

/// Tune and observe requests are the workload's traffic; reload and stats
/// are control requests, excluded from latency and failure accounting.
bool is_traffic(serve::protocol::Op op);

/// One phase's schedule plus the payload tables its requests refer to.
struct Traffic {
  std::vector<Planned> plan;
  std::vector<core::MeasurementRecord> observations;
  const std::vector<std::string>* artifacts = nullptr;
};

/// The wire request for plan[i], carrying request id `id`.
serve::protocol::Request to_request(const Traffic& t, std::size_t i,
                                    std::uint64_t id);

/// What came back for one planned request.
struct Outcome {
  std::int64_t reply_ns = -1;  ///< reply decoded (phase-relative); -1 = none
  serve::protocol::Status status = serve::protocol::Status::Ok;
  serve::TuneResult result;    ///< tune opcodes
  std::uint64_t value = 0;     ///< observe: log sequence; reload: new version
};

struct PhaseResult {
  std::vector<Outcome> out;           ///< index-parallel to the plan
  std::vector<std::int64_t> send_ns;  ///< actual send start; -1 = never sent
  std::string failure;                ///< first transport/protocol failure
  std::uint64_t id_base = 0;          ///< request id of plan[0]
};

struct ClientOptions {
  int connections = 2;
  /// CPUs the sender and receiver threads run on (empty = anywhere).
  std::vector<int> cpus;
  /// Test hook: runs in the sender right before plan index i is sent
  /// (after its due time has passed). Lets the self-test inject a stall.
  std::function<void(std::size_t)> before_send;
};

class OpenLoopClient {
 public:
  /// Connect `options.connections` sockets to `target`.
  OpenLoopClient(const net::Address& target, ClientOptions options);

  /// Run one phase: plan[i] goes out on connection i mod C at its due
  /// time. Returns when every request has a reply or a connection failed.
  /// With a tracer, each answered request leaves a root span from its due
  /// time to its reply with children for encode, send, receive and decode.
  PhaseResult run(const Traffic& t, Tracer* tracer = nullptr);

 private:
  ClientOptions opt_;
  std::vector<net::Socket> socks_;
  std::uint64_t next_id_ = 1;
};

/// Per-phase accounting over the traffic requests of a finished phase.
struct PhaseStats {
  std::uint64_t sent = 0;        ///< traffic requests scheduled
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t unanswered = 0;  ///< never sent or never answered
  std::uint64_t late_sends = 0;  ///< left more than 1 ms after their due time
  double lag_p99_us = 0.0;       ///< exact p99 of send lateness
  std::uint64_t writes_ok = 0;   ///< ok observe (write) requests
  /// Exact due→reply quantiles (µs) over every ok tune request, and over
  /// every ok observe request: the latency a workload reports, in which
  /// every stall shows.
  double tune_p50_us = 0.0, tune_p99_us = 0.0;
  double write_p50_us = 0.0, write_p99_us = 0.0;
};
PhaseStats phase_stats(const Traffic& t, const PhaseResult& r);

/// One capacity-ladder rung from a finished phase of `duration_s` seconds:
/// the exact p99 over all of its traffic requests (a failed request counts
/// as a miss), and its failures and completions.
Rung to_rung(const Traffic& t, const PhaseResult& r, double rate,
             double duration_s, double slo_us);

}  // namespace pnp::bench
