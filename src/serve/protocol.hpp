#pragma once

/// \file protocol.hpp
/// The pnp_served wire protocol (docs/SERVING.md, "Network protocol"):
/// request/response payload encode/decode shared byte-for-byte by the
/// server (serve/server.cpp), the load generator (tools/pnp_loadgen.cpp),
/// and the test clients. Every message rides in a net.hpp length-prefixed
/// frame; this file defines what is inside the frame.
///
/// Request payload (little-endian):
///
///   u64 id          echoed verbatim in the response (responses may be
///                   written out of order across a connection's pipeline)
///   u8  opcode      1 power | 2 power_at | 3 edp | 4 reload | 5 stats |
///                   6 observe
///   opcode 1: u32 machine, u32 region, u32 cap_index
///   opcode 2: u32 machine, u32 region, f64 cap_watts
///   opcode 3: u32 machine, u32 region
///   opcode 4: u32 path_len, path bytes (the artifact to hot-reload)
///   opcode 5: (empty)
///   opcode 6: u32 region, f64 cap_watts, u32 threads, u8 schedule,
///             u32 chunk, f64 seconds, f64 joules — one observed
///             measurement for the feedback loop (core::MeasurementLog)
///
/// Response payload:
///
///   u64 id
///   u8  status      0 ok | 1 error | 2 shed
///   status 0: u8 opcode echo, then per opcode:
///     1/2/3: u32 threads, u8 schedule, u32 chunk, u32 cap_index (two's
///            complement; -1 for power_at), u64 model_version
///     4:     u64 new_version
///     5:     the stats blob: u64 × {connections, ok, error, shed,
///            malformed} server counters, u64 × {requests, batches,
///            coalesced, encode_hits, encode_misses, reloads,
///            failed_reloads} TuningService counters, u64 × {observed,
///            attempts, published, rejected_gate, rejected_candidate,
///            rejected_log, last_published_version} retrain counters
///            (all zero when the daemon runs without a retrain
///            controller), then the common::LatencyHistogram wire form.
///            The server calls TuningService::tune once per tune request,
///            so on the wire path batches == requests and coalesced
///            stays 0; only in-process tune_batch callers coalesce
///     6:     u64 seq — the measurement's 1-based sequence number in the
///            durable log (the append is flushed before this reply is
///            written)
///   status 1: u32 msg_len, message bytes (the pnp::Error text)
///   status 2: (empty — the admission queue was full; retry later)
///
/// Trailing bytes after any well-formed payload are a protocol error.
/// Integers that carry an `int` (region, cap_index, chunk) are encoded as
/// two's-complement u32 so invalid negatives round-trip into the
/// service's own validation instead of dying in the codec.
///
/// The tune opcodes (1/2/3) carry a required `machine` field — the tenant
/// index of a multi-tenant daemon (pnp_served --machine A,B,...). Single-
/// tenant daemons accept only machine 0; routing to an out-of-range
/// tenant is a Status::Error, not a malformed frame. Reload deliberately
/// carries no machine: it is a broadcast barrier that swaps every
/// tenant's model. Observe always lands on tenant 0, the retraining
/// tenant. Stats sums the per-tenant service counters.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/latency_histogram.hpp"
#include "core/measurement_log.hpp"
#include "serve/tuning_service.hpp"

namespace pnp::serve::protocol {

enum class Op : std::uint8_t {
  Power = 1,
  PowerAt = 2,
  Edp = 3,
  Reload = 4,
  Stats = 5,
  Observe = 6,
};

enum class Status : std::uint8_t {
  Ok = 0,
  Error = 1,
  Shed = 2,
};

struct Request {
  std::uint64_t id = 0;
  Op op = Op::Power;
  std::uint32_t machine = 0;  ///< tenant index (Power / PowerAt / Edp)
  TuneRequest tune;          ///< Power / PowerAt / Edp
  std::string reload_path;   ///< Reload
  core::MeasurementRecord observe;  ///< Observe
};

/// Server-side counters carried by a stats response, alongside the
/// TuningService counters and the latency histogram.
struct ServerCounters {
  std::uint64_t connections = 0;  ///< accepted connections
  std::uint64_t ok = 0;           ///< requests answered with Status::Ok
  std::uint64_t errors = 0;       ///< requests answered with Status::Error
  std::uint64_t shed = 0;         ///< requests refused with Status::Shed
  std::uint64_t malformed = 0;    ///< frames rejected before admission
};

/// Feedback-loop counters carried by a stats response (docs/SERVING.md,
/// "Model lifecycle"). All zero when the daemon runs without a retrain
/// controller.
struct RetrainCounters {
  std::uint64_t observed = 0;       ///< log records ingested into the train db
  std::uint64_t attempts = 0;       ///< retrain rounds that trained a candidate
  std::uint64_t published = 0;      ///< candidates that passed the gate
  std::uint64_t rejected_gate = 0;  ///< candidates worse on the held-out split
  std::uint64_t rejected_candidate = 0;  ///< candidates whose save/reload failed
  std::uint64_t rejected_log = 0;   ///< rounds aborted by a corrupt/poisoned log
  std::uint64_t last_published_version = 0;  ///< 0 = never published
};

/// A decoded response. Which fields are meaningful depends on (status,
/// op), mirroring the payload layout above.
struct Response {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  Op op = Op::Power;           ///< echoed opcode (Status::Ok only)
  TuneResult result;           ///< tune opcodes
  std::uint64_t new_version = 0;  ///< reload
  std::uint64_t observe_seq = 0;  ///< observe: durable log sequence number
  std::string error;           ///< Status::Error message
  ServerCounters server;       ///< stats
  TuningService::Stats service;  ///< stats
  RetrainCounters retrain;     ///< stats
};

std::string encode_request(const Request& q);
/// Throws pnp::Error on malformed payloads (truncation, unknown opcode,
/// trailing bytes). The id, when present, is recoverable from the first 8
/// bytes even of a malformed payload — see peek_id.
Request decode_request(std::string_view payload);

/// Best-effort id of a request payload too malformed to decode (0 when
/// even the id is truncated), so error replies can still name the
/// request they reject.
std::uint64_t peek_id(std::string_view payload);

std::string encode_tune_response(std::uint64_t id, Op op, const TuneResult& r);
std::string encode_reload_response(std::uint64_t id, std::uint64_t version);
std::string encode_observe_response(std::uint64_t id, std::uint64_t seq);
std::string encode_stats_response(std::uint64_t id, const ServerCounters& sc,
                                  const TuningService::Stats& svc,
                                  const RetrainCounters& rc,
                                  const LatencyHistogram& hist);
std::string encode_error_response(std::uint64_t id, std::string_view message);
std::string encode_shed_response(std::uint64_t id);

/// Decode any response payload. For stats responses the histogram is
/// decoded into `stats_hist` when non-null (and skipped otherwise).
/// Throws pnp::Error on malformed payloads.
Response decode_response(std::string_view payload,
                         LatencyHistogram* stats_hist = nullptr);

}  // namespace pnp::serve::protocol
