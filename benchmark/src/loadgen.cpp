#include "loadgen.hpp"

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <limits>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace pnp::bench {

namespace protocol = serve::protocol;
using Clock = std::chrono::steady_clock;

bool is_traffic(protocol::Op op) {
  return op != protocol::Op::Reload && op != protocol::Op::Stats;
}

protocol::Request to_request(const Traffic& t, std::size_t i,
                             std::uint64_t id) {
  const Planned& p = t.plan[i];
  protocol::Request q;
  q.id = id;
  q.op = p.op;
  switch (p.op) {
    case protocol::Op::Power:
    case protocol::Op::PowerAt:
    case protocol::Op::Edp:
      q.tune = p.tune;
      break;
    case protocol::Op::Observe:
      q.observe = t.observations.at(p.ref);
      break;
    case protocol::Op::Reload:
      PNP_CHECK(t.artifacts != nullptr);
      q.reload_path = t.artifacts->at(p.ref);
      break;
    case protocol::Op::Stats:
      break;
  }
  return q;
}

OpenLoopClient::OpenLoopClient(const net::Address& target,
                               ClientOptions options)
    : opt_(std::move(options)) {
  // A phase never waits on a silent server for longer than this.
  constexpr int kIoTimeoutS = 30;
  PNP_CHECK(opt_.connections >= 1);
  for (int c = 0; c < opt_.connections; ++c) {
    net::Socket s = net::connect_to(target, 5000);
    s.set_recv_timeout_ms(kIoTimeoutS * 1000);
    // A sender must not block forever on a server that stopped reading.
    struct timeval tv = {};
    tv.tv_sec = kIoTimeoutS;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    socks_.push_back(std::move(s));
  }
}

PhaseResult OpenLoopClient::run(const Traffic& t, Tracer* tracer) {
  const std::size_t n = t.plan.size();
  const std::size_t conns = socks_.size();
  PhaseResult res;
  res.out.assign(n, Outcome{});
  res.send_ns.assign(n, -1);
  res.id_base = next_id_;
  next_id_ += n;

  // Every request is encoded into one contiguous buffer of complete frames
  // (u32 length prefix + payload) before the phase starts, so a sender's
  // hot path is sleep + one write and never allocates: in one process with
  // the server, an allocation can wait behind the server's own memory
  // traffic (a reload frees and refills the encode cache) and that wait
  // would show up as generator lateness.
  std::string frames;
  std::vector<std::size_t> frame_at(n + 1, 0);
  std::vector<std::int64_t> enc0(tracer ? n : 0), enc1(tracer ? n : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point e0 = Clock::now();
    const std::string payload =
        protocol::encode_request(to_request(t, i, res.id_base + i));
    if (tracer) {
      enc0[i] = tracer->to_ns(e0);
      enc1[i] = tracer->now_ns();
    }
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b)
      frames.push_back(static_cast<char>((len >> (8 * b)) & 0xff));
    frames += payload;
    frame_at[i + 1] = frames.size();
  }

  // Client timestamps for the traced run: send end (sender) and receive
  // start / frame read (receiver). Separate arrays: one writer thread each.
  struct RecvTimes {
    std::int64_t recv0 = 0, recv1 = 0;
  };
  std::vector<std::int64_t> sent_end(tracer ? n : 0);
  std::vector<RecvTimes> rt(tracer ? n : 0);

  std::mutex fail_mu;
  const auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lk(fail_mu);
    if (res.failure.empty()) res.failure = what;
  };
  // A short lead so every thread is parked before the first due time.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto rel = [t0](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
  };

  const auto sender = [&](std::size_t c) {
    const ThreadPin pin(opt_.cpus);
    // Default timer slack (50 µs) would add that much lateness to sends
    // that sleep; the schedule's gaps are tens of µs.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      for (std::size_t i = c; i < n; i += conns) {
        std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(
                                               t.plan[i].due_ns));
        if (opt_.before_send) opt_.before_send(i);
        const Clock::time_point s0 = Clock::now();
        socks_[c].write_all(frames.data() + frame_at[i],
                            frame_at[i + 1] - frame_at[i]);
        res.send_ns[i] = rel(s0);
        if (tracer) sent_end[i] = rel(Clock::now());
      }
    } catch (const std::exception& e) {
      fail(std::string("send failed: ") + e.what());
      socks_[c].shutdown_read();  // unblock this connection's receiver
    }
  };

  const auto receiver = [&](std::size_t c) {
    const ThreadPin pin(opt_.cpus);
    const std::size_t expect = c < n ? (n - c + conns - 1) / conns : 0;
    try {
      for (std::size_t k = 0; k < expect; ++k) {
        const Clock::time_point r0 = Clock::now();
        const auto frame = net::recv_frame(socks_[c]);
        const Clock::time_point r1 = Clock::now();
        PNP_CHECK_MSG(frame.has_value(), "server closed the connection with "
                                             << expect - k
                                             << " replies outstanding");
        const protocol::Response resp = protocol::decode_response(*frame);
        const Clock::time_point r2 = Clock::now();
        PNP_CHECK_MSG(resp.id >= res.id_base && resp.id - res.id_base < n &&
                          (resp.id - res.id_base) % conns == c,
                      "reply for unknown request id " << resp.id);
        const std::size_t i = resp.id - res.id_base;
        Outcome& o = res.out[i];
        PNP_CHECK_MSG(o.reply_ns < 0, "second reply for request id " << resp.id);
        o.status = resp.status;
        o.result = resp.result;
        o.value = resp.op == protocol::Op::Observe ? resp.observe_seq
                                                   : resp.new_version;
        o.reply_ns = rel(r2);
        if (tracer) rt[i] = {rel(r0), rel(r1)};
      }
    } catch (const std::exception& e) {
      fail(std::string("receive failed: ") + e.what());
    }
  };

  {
    std::vector<std::thread> team;
    team.reserve(2 * conns);
    for (std::size_t c = 0; c < conns; ++c) {
      team.emplace_back(sender, c);
      team.emplace_back(receiver, c);
    }
    for (auto& th : team) th.join();
  }

  if (tracer) {
    const std::int64_t base = tracer->to_ns(t0);
    std::vector<Span> spans;
    spans.reserve(5 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const Outcome& o = res.out[i];
      if (o.reply_ns < 0 || res.send_ns[i] < 0) continue;
      const std::uint64_t req = res.id_base + i;
      const std::uint64_t root = tracer->new_id();
      spans.push_back({"wire.request", root, 0, req,
                       base + t.plan[i].due_ns, base + o.reply_ns});
      // Encoded before the phase: a child of the request that lies before
      // its due time, so it takes nothing from the root's self time.
      spans.push_back({"serve.protocol.encode_request", tracer->new_id(), root,
                       req, enc0[i], enc1[i]});
      spans.push_back({"net.send", tracer->new_id(), root, req,
                       base + res.send_ns[i], base + sent_end[i]});
      spans.push_back({"net.receive", tracer->new_id(), root, req,
                       base + rt[i].recv0, base + rt[i].recv1});
      spans.push_back({"serve.protocol.decode_response", tracer->new_id(),
                       root, req, base + rt[i].recv1, base + o.reply_ns});
    }
    tracer->add_all(spans);
  }
  return res;
}

PhaseStats phase_stats(const Traffic& t, const PhaseResult& r) {
  PhaseStats s;
  std::vector<double> lag_us, tune_us, write_us;
  for (std::size_t i = 0; i < t.plan.size(); ++i) {
    if (!is_traffic(t.plan[i].op)) continue;
    ++s.sent;
    if (r.send_ns[i] >= 0) {
      const double lag = static_cast<double>(r.send_ns[i] - t.plan[i].due_ns);
      lag_us.push_back(lag / 1e3);
      if (lag > 1e6) ++s.late_sends;
    }
    const Outcome& o = r.out[i];
    if (o.reply_ns < 0) {
      ++s.unanswered;
      continue;
    }
    switch (o.status) {
      case protocol::Status::Ok:
        ++s.ok;
        (t.plan[i].op == protocol::Op::Observe ? write_us : tune_us)
            .push_back(static_cast<double>(o.reply_ns - t.plan[i].due_ns) /
                       1e3);
        break;
      case protocol::Status::Error:
        ++s.errors;
        break;
      case protocol::Status::Shed:
        ++s.shed;
        break;
    }
  }
  s.lag_p99_us = quantile(lag_us, 0.99);
  s.writes_ok = write_us.size();
  s.tune_p50_us = quantile(tune_us, 0.5);
  s.tune_p99_us = quantile(tune_us, 0.99);
  s.write_p50_us = quantile(write_us, 0.5);
  s.write_p99_us = quantile(write_us, 0.99);
  return s;
}

Rung to_rung(const Traffic& t, const PhaseResult& r, double rate,
             double duration_s, double slo_us) {
  Rung g;
  g.rate = rate;
  const auto end_ns =
      static_cast<std::int64_t>((duration_s * 1e6 + slo_us) * 1e3);
  std::vector<double> lat;
  for (std::size_t i = 0; i < t.plan.size(); ++i) {
    if (!is_traffic(t.plan[i].op)) continue;
    ++g.offered;
    const Outcome& o = r.out[i];
    if (o.reply_ns < 0 || o.status != protocol::Status::Ok) {
      ++g.failed;
      // A failed or refused request misses any latency limit.
      lat.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    if (o.reply_ns <= end_ns) ++g.completed;
    lat.push_back(static_cast<double>(o.reply_ns - t.plan[i].due_ns) / 1e3);
  }
  g.p99_us = quantile(lat, 0.99);
  return g;
}

}  // namespace pnp::bench
