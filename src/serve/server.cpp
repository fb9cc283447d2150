#include "serve/server.hpp"

#include <chrono>
#include <exception>

#include "common/error.hpp"

namespace pnp::serve {

namespace {

ServerOptions validated(ServerOptions opt) {
  PNP_CHECK_MSG(opt.workers >= 1, "a server needs at least one worker");
  PNP_CHECK_MSG(opt.queue_depth >= 1,
                "a server needs an admission queue of at least one");
  PNP_CHECK_MSG(opt.max_frame_bytes > 0 &&
                    opt.max_frame_bytes <= net::kMaxFrameBytes,
                "max_frame_bytes " << opt.max_frame_bytes
                                   << " outside (0, " << net::kMaxFrameBytes
                                   << "]");
  return opt;
}

bool is_tune_op(protocol::Op op) {
  return op == protocol::Op::Power || op == protocol::Op::PowerAt ||
         op == protocol::Op::Edp;
}

}  // namespace

Server::Server(TuningService& service, ServerOptions options)
    : Server(std::vector<TuningService*>{&service}, std::move(options)) {}

Server::Server(std::vector<TuningService*> services, ServerOptions options)
    : services_(std::move(services)),
      opt_(validated(std::move(options))),
      listener_(net::Address::parse(opt_.listen)) {
  PNP_CHECK_MSG(!services_.empty(), "a server needs at least one service");
  for (const TuningService* s : services_)
    PNP_CHECK_MSG(s != nullptr, "a server tenant service must not be null");
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { shutdown(); }

void Server::accept_loop() {
  for (;;) {
    std::optional<net::Socket> sock;
    try {
      sock = listener_.accept();
    } catch (const std::exception&) {
      return;  // listener torn down under us during shutdown
    }
    if (!sock.has_value()) return;  // interrupted: shutting down
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::thread> reaped;
    {
      std::lock_guard<std::mutex> lk(readers_mu_);
      reaped.swap(finished_);
      const ReaderIt it = readers_.insert(
          readers_.end(),
          Reader{std::make_shared<Conn>(std::move(*sock)), std::thread()});
      // Assigned under readers_mu_, which the reader takes before it hands
      // its thread to finished_.
      it->thread = std::thread([this, it] { reader_loop(it); });
    }
    // Threads of connections that ended since the last accept.
    for (std::thread& t : reaped) t.join();
  }
}

void Server::reader_loop(ReaderIt self) {
  const std::shared_ptr<Conn> conn = self->conn;
  struct Returned {
    Server& s;
    ReaderIt self;
    ~Returned() {
      std::lock_guard<std::mutex> lk(s.readers_mu_);
      s.finished_.push_back(std::move(self->thread));
      s.readers_.erase(self);
      s.readers_cv_.notify_all();
    }
  } returned{*this, self};
  net::FrameReader in(opt_.max_frame_bytes);
  std::vector<Job> jobs;
  for (;;) {
    jobs.clear();
    bool lone_tune = false;
    std::string fault;
    try {
      if (!in.fill(conn->sock)) return;  // clean EOF at a frame boundary
      const auto now = std::chrono::steady_clock::now();
      int frames = 0;
      while (const std::optional<std::string_view> payload = in.next()) {
        ++frames;
        Job job{conn, {}, now};
        try {
          job.request = protocol::decode_request(*payload);
        } catch (const std::exception& e) {
          // The frame boundary is intact — reject just this request and
          // keep the connection serving.
          malformed_.fetch_add(1, std::memory_order_relaxed);
          reply(*conn, protocol::encode_error_response(
                           protocol::peek_id(*payload), e.what()));
          continue;
        }
        jobs.push_back(std::move(job));
      }
      // The read held exactly one frame, a tune request, and nothing
      // behind it: the client is waiting on this reply alone.
      lone_tune = frames == 1 && jobs.size() == 1 && in.buffered() == 0 &&
                  is_tune_op(jobs[0].request.op);
    } catch (const std::exception& e) {
      fault = e.what();
    }
    // Frames that preceded a framing fault still count as received.
    admit(jobs, lone_tune);
    if (fault.empty()) continue;
    // Unsynchronizable stream (truncated prefix, oversized claim,
    // mid-frame disconnect): best-effort error frame, then wind this
    // connection down; other connections are untouched. During a drain
    // the stream may end mid-frame because the client hung up on the
    // drain's FIN, or shutdown() gave up lingering and half-closed our
    // read side — not because the client misbehaved: don't inflate the
    // malformed counter or emit an id-0 error frame a strict id-matching
    // client cannot correlate.
    if (!shut_down_.load(std::memory_order_relaxed)) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      reply(*conn, protocol::encode_error_response(0, fault));
    }
    // The requests admitted before the fault are answered before the FIN.
    {
      std::unique_lock<std::mutex> lk(conn->write_mu);
      conn->settled_cv.wait(lk, [&] {
        return conn->in_flight.load(std::memory_order_acquire) == 0;
      });
    }
    close_writes(*conn);
    // The socket closes once this reader returns. Closing it with unread
    // client bytes would reset the connection and could destroy the
    // replies and the error frame, so read and discard until the client
    // closes (or kLingerMs of silence).
    try {
      conn->sock.set_recv_timeout_ms(kLingerMs);
      char sink[4096];
      while (conn->sock.read_some(sink, sizeof sink) > 0) {
      }
    } catch (const std::exception&) {
    }
    return;
  }
}

void Server::admit(std::vector<Job>& jobs, bool lone_tune) {
  if (jobs.empty()) return;  // no decodable frame in this read
  Conn& conn = *jobs[0].conn;  // one read, one connection
  std::size_t queued = 0;
  bool run_here = false;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (admitting_) {
      if (lone_tune && queue_.empty() && executing_ < opt_.workers) {
        // Nothing waits ahead of it and a worker is free, so no worker
        // could start it any sooner; running it here skips the handoff.
        // Counted in executing_, so the drain waits for it and at most
        // `workers` requests execute at once, inline or not.
        ++executing_;
        run_here = true;
      } else {
        const auto depth = static_cast<std::size_t>(opt_.queue_depth);
        for (; queued < jobs.size() && queue_.size() < depth; ++queued)
          queue_.push_back(std::move(jobs[queued]));
      }
      // Before any worker can pop (and settle) one of them.
      conn.in_flight.fetch_add(static_cast<int>(queued) + (run_here ? 1 : 0),
                               std::memory_order_relaxed);
    }
  }
  if (run_here) {
    execute(jobs[0]);
    executed();
    return;
  }
  if (queued == 1) queue_cv_.notify_one();
  else if (queued > 1) queue_cv_.notify_all();
  // Full queue (or draining): explicit backpressure, never unbounded
  // buffering — the client gets a shed frame right now. Count only after
  // the frame is delivered: a refusal the client can never observe
  // (during a drain the reader may still be flushing requests buffered
  // before the FIN went out) must not show up in the stats the client
  // reconciles against, and counting post-send keeps the counter
  // monotonic. A client holding shed frame N still finds it in stats,
  // because its stats request re-enters this reader only after the
  // increment below.
  for (std::size_t i = queued; i < jobs.size(); ++i) {
    if (reply(conn, protocol::encode_shed_response(jobs[i].request.id)))
      shed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return !queue_.empty() || workers_stop_; });
      if (queue_.empty()) return;  // workers_stop_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
    }
    if (opt_.test_hook_before_execute) opt_.test_hook_before_execute();
    execute(job);
    executed();
  }
}

void Server::executed() {
  std::lock_guard<std::mutex> lk(queue_mu_);
  --executing_;
  if (queue_.empty() && executing_ == 0) drain_cv_.notify_all();
}

void Server::execute(const Job& job) {
  const protocol::Request& q = job.request;
  std::string out;
  switch (q.op) {
    case protocol::Op::Power:
    case protocol::Op::PowerAt:
    case protocol::Op::Edp:
      try {
        PNP_CHECK_MSG(q.machine < services_.size(),
                      "unknown tenant " << q.machine << " (this daemon serves "
                                        << services_.size() << ")");
        const TuneResult r = services_[q.machine]->tune(q.tune);
        out = protocol::encode_tune_response(q.id, q.op, r);
        ok_.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        out = protocol::encode_error_response(q.id, e.what());
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case protocol::Op::Reload:
      try {
        // Broadcast: every tenant swaps to the same artifact (sequential,
        // not atomic — a tenant that rejects the artifact leaves earlier
        // tenants on the new model and the rest on the old, and the error
        // reply names it). The echoed version is tenant 0's.
        std::uint64_t v = 0;
        for (std::size_t t = 0; t < services_.size(); ++t) {
          try {
            const std::uint64_t vt = services_[t]->reload(q.reload_path);
            if (t == 0) v = vt;
          } catch (const std::exception& e) {
            throw Error("tenant " + std::to_string(t) +
                        " rejected the reload: " + e.what());
          }
        }
        out = protocol::encode_reload_response(q.id, v);
        ok_.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        out = protocol::encode_error_response(q.id, e.what());
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case protocol::Op::Observe:
      try {
        PNP_CHECK_MSG(opt_.observe_log != nullptr,
                      "observation ingestion is disabled on this server");
        // Locate before appending: a record that cannot land on the
        // serving grid (unknown region, off-grid cap or config, absurd
        // values) is refused here and never becomes durable. Observations
        // always ingest against tenant 0, the retraining tenant.
        core::locate_observation(services_[0]->db(), q.observe);
        const std::uint64_t seq = opt_.observe_log->append(q.observe);
        // The append flushed before we reply: a client holding this ack
        // can count on the record surviving a drain (exactly-once — the
        // drain finishes every admitted request, and a request is only
        // admitted once).
        out = protocol::encode_observe_response(q.id, seq);
        ok_.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        out = protocol::encode_error_response(q.id, e.what());
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case protocol::Op::Stats: {
      // Counters are sampled before this stats request itself is counted.
      protocol::ServerCounters sc;
      const Stats st = stats();
      sc.connections = st.connections;
      sc.ok = st.ok;
      sc.errors = st.errors;
      sc.shed = st.shed;
      sc.malformed = st.malformed;
      const protocol::RetrainCounters rc =
          opt_.retrain_counters ? opt_.retrain_counters()
                                : protocol::RetrainCounters{};
      // Multi-tenant: the exported service counters are the sum over
      // tenants — one daemon, one stats frame.
      TuningService::Stats svc;
      for (const TuningService* s : services_) {
        const TuningService::Stats t = s->stats();
        svc.requests += t.requests;
        svc.batches += t.batches;
        svc.coalesced += t.coalesced;
        svc.encode_hits += t.encode_hits;
        svc.encode_misses += t.encode_misses;
        svc.reloads += t.reloads;
        svc.failed_reloads += t.failed_reloads;
      }
      out = protocol::encode_stats_response(q.id, sc, svc, rc, latency_);
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  // Record before replying: once a client holds the reply to request N,
  // any later stats frame is guaranteed to include N's latency sample.
  if (is_tune_op(q.op)) {
    const auto dt = std::chrono::steady_clock::now() - job.admitted;
    latency_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  reply(*job.conn, out);
  settled(*job.conn);
}

void Server::settled(Conn& conn) {
  if (conn.in_flight.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Under write_mu, so a reader between its check and its wait cannot
  // miss the wake.
  std::lock_guard<std::mutex> lk(conn.write_mu);
  conn.settled_cv.notify_all();
}

bool Server::reply(Conn& conn, std::string_view payload) {
  std::lock_guard<std::mutex> lk(conn.write_mu);
  if (conn.write_closed) return false;
  try {
    net::send_frame(conn.sock, payload);
    return true;
  } catch (const std::exception&) {
    // The peer is gone; its reader will observe EOF and wind the
    // connection down. Nothing useful to do with the reply.
    return false;
  }
}

void Server::close_writes(Conn& conn) {
  // Taking write_mu means a FIN can never land mid-frame: either a
  // reply's last byte precedes it, or the reply never starts.
  std::lock_guard<std::mutex> lk(conn.write_mu);
  if (conn.write_closed) return;
  conn.write_closed = true;
  conn.sock.shutdown_write();
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (shut_down_.load(std::memory_order_relaxed)) return;
    // Readers consult this flag to tell a drain-induced EOF from a
    // genuinely malformed stream; set it before step 3 closes anything.
    shut_down_.store(true, std::memory_order_relaxed);
  }
  // 1. Stop admitting (late arrivals get shed frames) and close the
  //    listener so no new connections form.
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    admitting_ = false;
  }
  listener_.interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  // 2. Drain: every admitted request executes and flushes its reply.
  //    Readers keep reading meanwhile; what they read now is refused with
  //    a shed frame.
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    drain_cv_.wait(lk, [this] { return queue_.empty() && executing_ == 0; });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // 3. Lingering close. Half-close every write side (clients see EOF
  //    after their last reply; close_writes serializes the FIN against
  //    in-flight replies), then let the readers read and discard what
  //    clients still send — late requests get fail-fast, uncounted shed
  //    refusals — until each client closes its end. Only then are the
  //    sockets closed, so none is closed with unread bytes, which would
  //    answer the client with a reset instead of the pending replies and
  //    FIN. Readers of clients that neither send nor close by the
  //    deadline are woken by a read-side shutdown.
  std::vector<std::thread> returned;
  {
    std::unique_lock<std::mutex> lk(readers_mu_);
    for (Reader& r : readers_) close_writes(*r.conn);
    readers_cv_.wait_for(lk, std::chrono::milliseconds(kLingerMs),
                         [this] { return readers_.empty(); });
    for (Reader& r : readers_) r.conn->sock.shutdown_read();
    readers_cv_.wait(lk, [this] { return readers_.empty(); });
    returned.swap(finished_);
  }
  for (std::thread& t : returned) t.join();
  listener_.close();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pnp::serve
