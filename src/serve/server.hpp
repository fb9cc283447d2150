#pragma once

/// \file server.hpp
/// The network front end over serve::TuningService (docs/SERVING.md,
/// "Network protocol"): a TCP/unix-socket daemon speaking the
/// length-prefixed binary protocol of serve/protocol.hpp, built from
/// three moving parts:
///
///  - **an acceptor** + one reader thread per connection, which parse
///    frames and *admit* requests — a malformed frame is answered with an
///    error frame (or, when the stream cannot be resynchronized: a
///    truncated length prefix, an oversized length claim, a mid-frame
///    disconnect) the connection is closed, while every other connection
///    keeps serving;
///  - **a bounded admission queue** drained by a fixed worker pool — the
///    only scheduler on the serving path: each worker serves its request
///    on its own thread through TuningService::tune. Backpressure is
///    explicit: when the queue is full the reader replies with a shed
///    frame immediately — the server never buffers without bound, and a
///    load generator sees exactly how much traffic was refused;
///  - **graceful drain**: shutdown() closes the listener first, stops
///    admitting (late arrivals get shed frames), lets every accepted
///    request finish and flush its reply, then closes connections with a
///    lingering close and joins every thread. An accepted request is
///    never lost.
///
/// Responses carry the request's id, so workers may answer a
/// connection's pipelined requests out of order; per-connection writes
/// are serialized by a write mutex. Each admitted tune request's
/// admission→reply latency lands in a common::LatencyHistogram, exported
/// (with the server + TuningService counters) through the `stats`
/// opcode. Request semantics and results are exactly TuningService's:
/// the soak suite (tests/server_soak_test.cpp) proves served results are
/// bit-identical to an in-process reference, across a hot reload.
///
/// A server may front several TuningServices at once — one per machine of
/// a multi-tenant daemon (pnp_served --machine A,B,...). Tune requests
/// carry the tenant index on the wire and are routed to that tenant's
/// service; an out-of-range index is an error reply, not a protocol
/// violation. `reload` is a broadcast (every tenant swaps to the same
/// artifact — only a fleet artifact can satisfy every tenant's machine
/// fingerprint, docs/HARDWARE.md), `observe` always ingests against
/// tenant 0 (the retraining tenant), and `stats` sums the per-tenant
/// service counters.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.hpp"
#include "common/net.hpp"
#include "serve/protocol.hpp"
#include "serve/tuning_service.hpp"

namespace pnp::serve {

struct ServerOptions {
  /// Endpoint spec: "unix:PATH" or "tcp:[HOST:]PORT" ("tcp:0" binds an
  /// ephemeral loopback port; Server::address() reports it).
  std::string listen = "tcp:127.0.0.1:0";
  /// Worker threads executing admitted requests (≥ 1).
  int workers = 2;
  /// Admission-queue capacity (≥ 1). A request arriving while the queue
  /// holds this many is refused with a shed frame.
  int queue_depth = 128;
  /// Largest request payload a client may send; larger length claims
  /// close the connection (net::kMaxFrameBytes caps it).
  std::uint32_t max_frame_bytes = 64 * 1024;
  /// Ingestion sink for `observe` requests (the feedback loop's write
  /// path). null → observe requests are answered with an error frame.
  /// The log must outlive the server. An admitted observe is appended —
  /// and flushed — before its reply is written, and the graceful drain
  /// finishes every admitted request, so an observe accepted before a
  /// drain is always durably logged and answered exactly once.
  core::MeasurementLog* observe_log = nullptr;
  /// Source of the feedback-loop counters exported in the stats frame
  /// (serve/retrainer.hpp RetrainController::counters). null → zeros.
  std::function<protocol::RetrainCounters()> retrain_counters;
  /// Test-only: invoked by a worker before executing each admitted
  /// request. Lets tests hold the worker pool on a latch to fill the
  /// admission queue deterministically (tests/server_test.cpp). Must be
  /// null in production use.
  std::function<void()> test_hook_before_execute;
};

class Server {
 public:
  /// Bind, listen, and start serving `service` immediately (single
  /// tenant: every tune request must carry machine index 0). Throws
  /// pnp::Error on a bad option or an unbindable address.
  Server(TuningService& service, ServerOptions options);
  /// Multi-tenant: tune requests route to services[machine]. The
  /// services (all non-null, ≥ 1) must outlive the server; tenant 0 is
  /// the observe/retrain tenant.
  Server(std::vector<TuningService*> services, ServerOptions options);
  /// Implies shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound endpoint (ephemeral tcp port resolved).
  const net::Address& address() const { return listener_.bound(); }

  /// Graceful drain, idempotent: stop accepting, refuse new admissions
  /// with shed frames, finish + flush every accepted request, close every
  /// connection, join every thread. The close lingers: after its last
  /// reply a connection's write side is half-closed, and whatever the
  /// client still sends is read and discarded until it closes its end
  /// (or kLingerMs pass). Closing a socket with unread bytes would send a
  /// reset, which can destroy replies the client has not read yet.
  void shutdown();

  /// Longest a drain waits for clients to close after their final reply.
  static constexpr int kLingerMs = 1000;

  struct Stats {
    std::uint64_t connections = 0;  ///< connections accepted
    std::uint64_t ok = 0;           ///< requests answered Status::Ok
    std::uint64_t errors = 0;       ///< requests answered Status::Error
    std::uint64_t shed = 0;   ///< requests refused with a delivered
                              ///< shed frame (a refusal whose frame the
                              ///< drain's FIN beat to the socket counts
                              ///< as never read, not as shed)
    std::uint64_t malformed = 0;    ///< frames rejected before admission
  };
  Stats stats() const;

  /// Admission→reply latency of every admitted tune request (ok and
  /// error; reload/stats requests are not SLO traffic and are excluded).
  const LatencyHistogram& latency() const { return latency_; }

 private:
  struct Conn {
    explicit Conn(net::Socket s) : sock(std::move(s)) {}
    net::Socket sock;
    std::mutex write_mu;  ///< workers + reader serialize frame writes
    /// Set (under write_mu) before shutdown_write so no frame is ever
    /// truncated by the FIN and late writes fail fast instead of EPIPE.
    bool write_closed = false;
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    protocol::Request request;
    std::chrono::steady_clock::time_point admitted;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void worker_loop();
  /// Admit or shed one decoded request. Returns false when the job was
  /// shed (reply already sent).
  bool admit(Job job);
  void execute(const Job& job);
  /// Write one response frame. Returns false when it could not be
  /// delivered (write side closed, or the peer is gone).
  bool reply(Conn& conn, std::string_view payload);
  /// Half-close a connection's write side, serialized against reply().
  static void close_writes(Conn& conn);

  std::vector<TuningService*> services_;  ///< tenant index → service
  ServerOptions opt_;
  net::Listener listener_;
  LatencyHistogram latency_;

  std::atomic<std::uint64_t> connections_{0}, ok_{0}, errors_{0}, shed_{0},
      malformed_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;  ///< workers: work available / stop
  std::condition_variable drain_cv_;  ///< shutdown: queue empty + idle
  std::deque<Job> queue_;
  int executing_ = 0;
  bool admitting_ = true;     ///< cleared first in shutdown()
  bool workers_stop_ = false; ///< set after the queue drains

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> readers_;
  int live_readers_ = 0;               ///< readers not yet returned
  std::condition_variable readers_cv_; ///< shutdown: a reader returned

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex shutdown_mu_;
  /// Atomic so readers can distinguish a drain-induced stream end from a
  /// malformed stream without taking shutdown_mu_.
  std::atomic<bool> shut_down_{false};
};

}  // namespace pnp::serve
