#pragma once

/// \file server.hpp
/// The network front end over serve::TuningService (docs/SERVING.md,
/// "Network protocol"): a TCP/unix-socket daemon speaking the
/// length-prefixed binary protocol of serve/protocol.hpp, built from
/// three moving parts:
///
///  - **an acceptor** + one reader thread per connection. Each reader
///    does one recv() per read into a reused per-connection buffer
///    (net::FrameReader) and decodes every complete frame in it — a
///    malformed frame is answered with an error frame (or, when the
///    stream cannot be resynchronized: a truncated length prefix, an
///    oversized length claim, a mid-frame disconnect) the connection is
///    closed once the requests admitted before the fault are answered,
///    while every other connection keeps serving. A reader whose
///    connection ends leaves the connection table, and its thread is
///    joined at the next accept (or by shutdown()), so connection churn
///    holds no descriptors or threads;
///  - **a bounded admission queue** drained by a fixed worker pool, plus
///    an inline fast path. When a read held exactly one frame, a tune
///    request, with nothing behind it, the queue is empty and fewer than
///    `workers` requests are executing, the reader executes it itself: a
///    free worker could not start it sooner, and the handoff (a wake of a
///    sleeping worker on another CPU) would cost more than the request.
///    Inline runs count against the same bound, so at most `workers`
///    requests execute at once however many connections are open. Every
///    other read — a pipelined backlog, `reload`,
///    `observe`, `stats` — is queued under one lock acquisition, so
///    workers stay the only threads that run a reload or a durable
///    append, and a reader never stops reading for long. Both paths serve
///    through TuningService::tune on the executing thread. Backpressure
///    is explicit: a request that does not fit the queue gets a shed
///    frame immediately — the server never buffers without bound, and a
///    load generator sees exactly how much traffic was refused;
///  - **graceful drain**: shutdown() closes the listener first, stops
///    admitting (late arrivals get shed frames, inline ones too), lets
///    every accepted request finish and flush its reply — on a worker or
///    on its reader — then closes connections with a lingering close and
///    joins every thread. An accepted request is never lost.
///
/// Responses carry the request's id, so workers and the reader may
/// answer a connection's pipelined requests out of order; per-connection
/// writes are serialized by a write mutex. Each admitted tune request's
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
#include <list>
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
  /// Worker threads executing queued requests (≥ 1), and the most
  /// requests that execute at once: a reader runs a lone tune request
  /// itself only while fewer than this many execute (see the file
  /// comment).
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
  /// Test-only: invoked by a worker before executing each queued
  /// request. Lets tests hold the worker pool on a latch to fill the
  /// admission queue deterministically (tests/server_test.cpp). Workers
  /// only: a lone tune request a reader runs inline never calls it, so
  /// tests park the worker on a queued non-tune request (`stats`). Must
  /// be null in production use.
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
    /// Admitted requests whose replies are not yet written. A reader
    /// winding down on a framing fault waits (on settled_cv, under
    /// write_mu) for zero before it half-closes the write side.
    std::atomic<int> in_flight{0};
    std::condition_variable settled_cv;
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    protocol::Request request;
    std::chrono::steady_clock::time_point admitted;
  };

  /// A live connection's reader. The entry leaves readers_ when its
  /// reader returns; in-flight jobs keep the Conn (and its socket) open
  /// until their replies are written.
  struct Reader {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };
  using ReaderIt = std::list<Reader>::iterator;

  void accept_loop();
  void reader_loop(ReaderIt self);
  void worker_loop();
  /// Admit the requests decoded from one read, in order. A lone tune
  /// request meeting an empty queue and a free worker runs here, on the
  /// calling reader;
  /// otherwise every job is queued under one lock acquisition and what
  /// does not fit (or arrives while draining) is shed.
  void admit(std::vector<Job>& jobs, bool lone_tune);
  void execute(const Job& job);
  /// An admitted request's reply is written (or undeliverable).
  static void settled(Conn& conn);
  /// An execution finished: wake the drain once the server is idle.
  void executed();
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
  int executing_ = 0;         ///< jobs running, on workers or readers
  bool admitting_ = true;     ///< cleared first in shutdown()
  bool workers_stop_ = false; ///< set after the queue drains

  std::mutex readers_mu_;
  std::list<Reader> readers_;           ///< one per live connection
  std::vector<std::thread> finished_;   ///< returned readers, to join
  std::condition_variable readers_cv_;  ///< shutdown: a reader returned

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex shutdown_mu_;
  /// Atomic so readers can distinguish a drain-induced stream end from a
  /// malformed stream without taking shutdown_mu_.
  std::atomic<bool> shut_down_{false};
};

}  // namespace pnp::serve
