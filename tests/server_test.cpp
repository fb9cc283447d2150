/// \file server_test.cpp
/// The network front end (serve::Server + serve/protocol): loopback
/// round trips of every request type bit-identical to a direct
/// TuningService / PnpTuner reference, the malformed-frame corpus
/// (truncated length prefix, oversized length claim, unknown opcode,
/// garbage payload, trailing bytes, mid-frame disconnect) each rejected
/// cleanly while a canary connection keeps serving, deterministic
/// load-shedding when the admission queue fills (the worker parked on the
/// test hook by a queued stats request), the inline path (a lone tune
/// request answered on its reader while a worker is free, and queued
/// while the only worker is busy), graceful drain:
/// every accepted request answers before the connection sees EOF,
/// finished connections releasing their descriptors, and hostile byte
/// streams: the buffered frame parser (net::FrameReader) and the server
/// fed one stream split at every offset, byte by byte and in seeded
/// random chunks, and cut at every offset, against net::recv_frame as
/// the reference. Client threads never call gtest assertions; they
/// record and the main thread verifies.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/net.hpp"
#include "common/wire.hpp"
#include "serve/server.hpp"
#include "workloads/suite.hpp"

namespace pnp {
namespace {

namespace proto = serve::protocol;

/// A test client: one connection, frame-level send/recv, id-keyed reply
/// collection (the server may answer a pipeline out of order).
struct Client {
  explicit Client(const net::Address& addr) : sock(net::connect_to(addr)) {
    sock.set_recv_timeout_ms(10000);  // a hung test fails, not wedges
  }

  void send(const proto::Request& q) {
    net::send_frame(sock, proto::encode_request(q));
  }
  void send_tune(std::uint64_t id, proto::Op op, const serve::TuneRequest& t) {
    proto::Request q;
    q.id = id;
    q.op = op;
    q.tune = t;
    send(q);
  }
  void send_stats(std::uint64_t id) {
    proto::Request q;
    q.id = id;
    q.op = proto::Op::Stats;
    send(q);
  }
  /// Raw bytes, bypassing framing — the malformed-frame corpus.
  void send_raw(std::string_view bytes) {
    sock.write_all(bytes.data(), bytes.size());
  }

  /// Next response frame; throws on EOF (use eof() when EOF is the point).
  proto::Response recv() {
    auto payload = net::recv_frame(sock);
    PNP_CHECK_MSG(payload.has_value(), "unexpected EOF from server");
    return proto::decode_response(*payload);
  }
  /// Collect exactly n responses keyed by id.
  std::map<std::uint64_t, proto::Response> recv_n(std::size_t n) {
    std::map<std::uint64_t, proto::Response> out;
    for (std::size_t i = 0; i < n; ++i) {
      const proto::Response r = recv();
      out[r.id] = r;
    }
    return out;
  }
  bool eof() { return !net::recv_frame(sock).has_value(); }

  net::Socket sock;
};

/// Trained serving world shared by every test: 10 Haswell regions, two
/// scalar-cap power artifacts (v1/v2 reload material) and an EDP
/// artifact, mirroring tests/service_test.cpp.
class ServerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto machine = hw::MachineModel::haswell();
    sim_ = new sim::Simulator(machine);
    auto regions = workloads::Suite::instance().all_regions();
    regions.resize(10);
    db_ = new core::MeasurementDb(
        *sim_, core::SearchSpace::for_machine(machine), regions);
    path_a_ = save_artifact(3, "server_model_a.pnp", /*edp=*/false);
    path_b_ = save_artifact(5, "server_model_b.pnp", /*edp=*/false);
    path_edp_ = save_artifact(3, "server_model_edp.pnp", /*edp=*/true);
  }

  static void TearDownTestSuite() {
    delete db_;
    delete sim_;
    db_ = nullptr;
    sim_ = nullptr;
  }

  static core::PnpOptions options(int epochs) {
    core::PnpOptions opt;
    opt.cap_onehot = false;  // power_at must be servable
    opt.trainer.max_epochs = epochs;
    opt.trainer.min_loss = 0.0;
    return opt;
  }

  static std::string save_artifact(int epochs, const char* name, bool edp) {
    core::PnpTuner t(*db_, options(epochs));
    std::vector<int> all;
    for (int r = 0; r < db_->num_regions(); ++r) all.push_back(r);
    if (edp) t.train_edp_scenario(all);
    else t.train_power_scenario(all);
    const std::string path = ::testing::TempDir() + name;
    t.save(path);
    return path;
  }

  /// Deterministic mixed tune requests (power / power_at), as
  /// (op, TuneRequest) pairs ready for the wire.
  static std::vector<std::pair<proto::Op, serve::TuneRequest>> mixed_requests(
      int n, std::uint64_t seed) {
    std::vector<std::pair<proto::Op, serve::TuneRequest>> reqs;
    std::uint64_t s = seed;
    const auto next = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(s >> 33);
    };
    const int regions = db_->num_regions();
    const int caps = db_->num_caps();
    for (int i = 0; i < n; ++i) {
      const int region = static_cast<int>(next() % regions);
      if (i % 3 == 2) {
        const double w = 30.0 + static_cast<double>(next() % 600) / 10.0;
        reqs.emplace_back(proto::Op::PowerAt,
                          serve::TuneRequest::power_at(region, w));
      } else {
        reqs.emplace_back(
            proto::Op::Power,
            serve::TuneRequest::power(region, static_cast<int>(next() % caps)));
      }
    }
    return reqs;
  }

  /// Single-threaded reference through a freshly loaded PnpTuner — fully
  /// independent of the service/server code path.
  static serve::TuneResult reference(const core::PnpTuner& ref,
                                     std::uint64_t version,
                                     const serve::TuneRequest& q) {
    serve::TuneResult r;
    r.model_version = version;
    switch (q.kind) {
      case serve::TuneRequest::Kind::Power:
        r.config = ref.predict_power(q.region, q.cap_index);
        r.cap_index = q.cap_index;
        break;
      case serve::TuneRequest::Kind::PowerAt:
        r.config = ref.predict_power_at(q.region, q.cap_w);
        r.cap_index = -1;
        break;
      case serve::TuneRequest::Kind::Edp: {
        const auto jc = ref.predict_edp(q.region);
        r.config = jc.cfg;
        r.cap_index = jc.cap_index;
        break;
      }
    }
    return r;
  }

  static void expect_result_eq(const serve::TuneResult& got,
                               const serve::TuneResult& want, std::uint64_t id) {
    EXPECT_EQ(got.config, want.config) << "request id " << id;
    EXPECT_EQ(got.cap_index, want.cap_index) << "request id " << id;
    EXPECT_EQ(got.model_version, want.model_version) << "request id " << id;
  }

  static sim::Simulator* sim_;
  static core::MeasurementDb* db_;
  static std::string path_a_, path_b_, path_edp_;
};

sim::Simulator* ServerFixture::sim_ = nullptr;
core::MeasurementDb* ServerFixture::db_ = nullptr;
std::string ServerFixture::path_a_;
std::string ServerFixture::path_b_;
std::string ServerFixture::path_edp_;

// --- options validation ------------------------------------------------------

TEST_F(ServerFixture, RejectsBadOptionsAndBadEndpoints) {
  serve::TuningService service(*db_, path_a_);
  const auto with = [](auto mut) {
    serve::ServerOptions o;
    mut(o);
    return o;
  };
  EXPECT_THROW(serve::Server(service,
                             with([](auto& o) { o.workers = 0; })),
               Error);
  EXPECT_THROW(serve::Server(service,
                             with([](auto& o) { o.queue_depth = 0; })),
               Error);
  EXPECT_THROW(serve::Server(service, with([](auto& o) {
                               o.max_frame_bytes = net::kMaxFrameBytes + 1;
                             })),
               Error);
  EXPECT_THROW(serve::Server(service,
                             with([](auto& o) { o.listen = "bogus:addr"; })),
               Error);
  // A stale unix socket file is an error, not silently stolen.
  const std::string sock_path = ::testing::TempDir() + "server_stale.sock";
  std::remove(sock_path.c_str());
  {
    serve::Server first(service,
                        with([&](auto& o) { o.listen = "unix:" + sock_path; }));
    EXPECT_THROW(serve::Server(service, with([&](auto& o) {
                                 o.listen = "unix:" + sock_path;
                               })),
                 Error);
  }
  // ...and the file is unlinked on close, so rebinding works.
  serve::Server again(service,
                      with([&](auto& o) { o.listen = "unix:" + sock_path; }));
}

// --- loopback round trips ----------------------------------------------------

TEST_F(ServerFixture, EveryRequestTypeRoundTripsBitIdenticalToReference) {
  serve::TuningService service(*db_, path_a_);
  serve::Server server(service, {});
  Client c(server.address());

  // Mixed power/power_at pipeline, answered out of order, every result
  // byte-equal to the fresh-tuner reference at version 1.
  const auto reqs = mixed_requests(60, 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    c.send_tune(i + 1, reqs[i].first, reqs[i].second);
  auto replies = c.recv_n(reqs.size());
  {
    const core::PnpTuner ref = core::PnpTuner::load(*db_, path_a_);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto it = replies.find(i + 1);
      ASSERT_NE(it, replies.end()) << "no reply for id " << i + 1;
      ASSERT_EQ(it->second.status, proto::Status::Ok) << it->second.error;
      EXPECT_EQ(it->second.op, reqs[i].first);
      expect_result_eq(it->second.result,
                       reference(ref, 1, reqs[i].second), i + 1);
    }
  }

  // reload -> v2; the same requests now match the v2 reference.
  {
    proto::Request q;
    q.id = 1000;
    q.op = proto::Op::Reload;
    q.reload_path = path_b_;
    c.send(q);
    const auto r = c.recv();
    ASSERT_EQ(r.status, proto::Status::Ok) << r.error;
    ASSERT_EQ(r.op, proto::Op::Reload);
    EXPECT_EQ(r.new_version, 2u);
  }
  for (std::size_t i = 0; i < reqs.size(); ++i)
    c.send_tune(2000 + i, reqs[i].first, reqs[i].second);
  replies = c.recv_n(reqs.size());
  {
    const core::PnpTuner ref = core::PnpTuner::load(*db_, path_b_);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto& r = replies.at(2000 + i);
      ASSERT_EQ(r.status, proto::Status::Ok) << r.error;
      expect_result_eq(r.result, reference(ref, 2, reqs[i].second), 2000 + i);
    }
  }

  // stats: counters agree with the server's own view, histogram counts
  // every tune request answered so far (ok or error), sampled before the
  // stats request itself is counted.
  {
    proto::Request q;
    q.id = 3000;
    q.op = proto::Op::Stats;
    c.send(q);
    LatencyHistogram hist;
    auto payload = net::recv_frame(c.sock);
    ASSERT_TRUE(payload.has_value());
    const auto r = proto::decode_response(*payload, &hist);
    ASSERT_EQ(r.status, proto::Status::Ok) << r.error;
    ASSERT_EQ(r.op, proto::Op::Stats);
    EXPECT_EQ(r.server.connections, 1u);
    EXPECT_EQ(r.server.ok, 2 * reqs.size() + 1);  // tunes + reload
    EXPECT_EQ(r.server.errors, 0u);
    EXPECT_EQ(r.server.shed, 0u);
    EXPECT_EQ(r.server.malformed, 0u);
    EXPECT_EQ(hist.count(), 2 * reqs.size());  // reload/stats excluded
    EXPECT_EQ(r.service.requests, 2 * reqs.size());
    EXPECT_EQ(r.service.reloads, 1u);
    EXPECT_EQ(hist.count(), server.latency().count());
    EXPECT_EQ(hist.max_ns(), server.latency().max_ns());
  }

  // An invalid region is a per-request error; the connection survives it.
  {
    c.send_tune(4000, proto::Op::Power, serve::TuneRequest::power(9999, 0));
    const auto r = c.recv();
    EXPECT_EQ(r.status, proto::Status::Error);
    EXPECT_FALSE(r.error.empty());
    c.send_tune(4001, proto::Op::Power, reqs[0].second);
    EXPECT_EQ(c.recv().status, proto::Status::Ok);
  }

  server.shutdown();
  EXPECT_TRUE(c.eof());
}

TEST_F(ServerFixture, EdpRoundTripOverUnixSocketMatchesReference) {
  const std::string sock_path = ::testing::TempDir() + "server_edp.sock";
  std::remove(sock_path.c_str());
  serve::TuningService service(*db_, path_edp_);
  serve::ServerOptions opt;
  opt.listen = "unix:" + sock_path;
  serve::Server server(service, opt);
  ASSERT_TRUE(server.address().is_unix);

  Client c(server.address());
  const core::PnpTuner ref = core::PnpTuner::load(*db_, path_edp_);
  for (int region = 0; region < db_->num_regions(); ++region)
    c.send_tune(static_cast<std::uint64_t>(region) + 1, proto::Op::Edp,
                serve::TuneRequest::edp(region));
  const auto replies = c.recv_n(static_cast<std::size_t>(db_->num_regions()));
  for (int region = 0; region < db_->num_regions(); ++region) {
    const auto& r = replies.at(static_cast<std::uint64_t>(region) + 1);
    ASSERT_EQ(r.status, proto::Status::Ok) << r.error;
    expect_result_eq(r.result,
                     reference(ref, 1, serve::TuneRequest::edp(region)),
                     static_cast<std::uint64_t>(region) + 1);
  }
}

// --- malformed-frame corpus --------------------------------------------------

TEST_F(ServerFixture, MalformedFramesRejectCleanlyWhileOthersKeepServing) {
  serve::TuningService service(*db_, path_a_);
  serve::ServerOptions opt;
  opt.max_frame_bytes = 1024;
  serve::Server server(service, opt);

  // The canary holds one connection open across the whole corpus and
  // must get a correct answer after every abuse.
  Client canary(server.address());
  const core::PnpTuner ref = core::PnpTuner::load(*db_, path_a_);
  const auto probe_canary = [&](std::uint64_t id) {
    canary.send_tune(id, proto::Op::Power, serve::TuneRequest::power(1, 0));
    const auto r = canary.recv();
    ASSERT_EQ(r.status, proto::Status::Ok) << r.error;
    expect_result_eq(r.result,
                     reference(ref, 1, serve::TuneRequest::power(1, 0)), id);
  };
  probe_canary(1);

  std::uint64_t malformed = 0;

  // (a) Truncated length prefix: 2 of 4 header bytes, then half-close.
  // The stream cannot resync -> error frame (id unknowable: 0), then EOF.
  {
    Client c(server.address());
    c.send_raw(std::string_view("\x02\x00", 2));
    c.sock.shutdown_write();
    const auto r = c.recv();
    EXPECT_EQ(r.status, proto::Status::Error);
    EXPECT_EQ(r.id, 0u);
    EXPECT_TRUE(c.eof());
    ++malformed;
    probe_canary(2);
  }

  // (b) Oversized length claim: rejected before allocation, connection
  // closed.
  {
    Client c(server.address());
    std::string header;
    wire::put_u32(header, opt.max_frame_bytes + 1);
    c.send_raw(header);
    const auto r = c.recv();
    EXPECT_EQ(r.status, proto::Status::Error);
    EXPECT_NE(r.error.find("exceeds"), std::string::npos) << r.error;
    EXPECT_TRUE(c.eof());
    ++malformed;
    probe_canary(3);
  }

  // (c) Mid-frame disconnect: a frame claiming 64 bytes delivers 10, then
  // the peer vanishes.
  {
    Client c(server.address());
    std::string partial;
    wire::put_u32(partial, 64);
    partial.append(10, 'x');
    c.send_raw(partial);
    c.sock.shutdown_write();
    EXPECT_EQ(c.recv().status, proto::Status::Error);
    EXPECT_TRUE(c.eof());
    ++malformed;
    probe_canary(4);
  }

  // (d) Unknown opcode: the frame boundary is intact, so the error frame
  // echoes the request id and the connection keeps serving.
  {
    Client c(server.address());
    std::string payload;
    wire::put_u64(payload, 77);
    wire::put_u8(payload, 9);
    net::send_frame(c.sock, payload);
    const auto r = c.recv();
    EXPECT_EQ(r.status, proto::Status::Error);
    EXPECT_EQ(r.id, 77u);
    EXPECT_NE(r.error.find("opcode"), std::string::npos) << r.error;
    ++malformed;
    c.send_tune(78, proto::Op::Power, serve::TuneRequest::power(0, 0));
    EXPECT_EQ(c.recv().status, proto::Status::Ok);  // same conn still serves
    probe_canary(5);
  }

  // (e) Garbage payload too short for even an id: error frame with id 0,
  // connection survives.
  {
    Client c(server.address());
    net::send_frame(c.sock, "abc");
    const auto r = c.recv();
    EXPECT_EQ(r.status, proto::Status::Error);
    EXPECT_EQ(r.id, 0u);
    ++malformed;
    // (f) Truncated arguments after a valid opcode.
    std::string payload;
    wire::put_u64(payload, 91);
    wire::put_u8(payload, static_cast<std::uint8_t>(proto::Op::Power));
    wire::put_u32(payload, 1);  // region present, cap_index missing
    net::send_frame(c.sock, payload);
    const auto r2 = c.recv();
    EXPECT_EQ(r2.status, proto::Status::Error);
    EXPECT_EQ(r2.id, 91u);
    ++malformed;
    // (g) Trailing bytes after a well-formed request.
    proto::Request q;
    q.id = 92;
    q.op = proto::Op::Edp;
    q.tune = serve::TuneRequest::edp(0);
    std::string enc = proto::encode_request(q);
    wire::put_u8(enc, 0xff);
    net::send_frame(c.sock, enc);
    const auto r3 = c.recv();
    EXPECT_EQ(r3.status, proto::Status::Error);
    EXPECT_EQ(r3.id, 92u);
    EXPECT_NE(r3.error.find("trailing"), std::string::npos) << r3.error;
    ++malformed;
    // (h) Empty payload.
    net::send_frame(c.sock, "");
    EXPECT_EQ(c.recv().status, proto::Status::Error);
    ++malformed;
    c.send_tune(93, proto::Op::Power, serve::TuneRequest::power(0, 0));
    EXPECT_EQ(c.recv().status, proto::Status::Ok);
    probe_canary(6);
  }

  const auto st = server.stats();
  EXPECT_EQ(st.malformed, malformed);
  EXPECT_EQ(st.shed, 0u);
  server.shutdown();
  EXPECT_TRUE(canary.eof());
}

// --- backpressure + drain (deterministic via the worker hook) ----------------

/// A gate the single worker parks on: the test learns when the worker
/// has dequeued a job (entered) and releases all executions at once.
struct WorkerGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  serve::ServerOptions options(int queue_depth) {
    serve::ServerOptions o;
    o.workers = 1;
    o.queue_depth = queue_depth;
    o.test_hook_before_execute = [this] {
      std::unique_lock<std::mutex> lk(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lk, [this] { return open; });
    };
    return o;
  }
  void wait_entered(int n) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
};

TEST_F(ServerFixture, FullQueueShedsExplicitlyAndServesEveryAcceptedRequest) {
  serve::TuningService service(*db_, path_a_);
  WorkerGate gate;
  serve::Server server(service, gate.options(/*queue_depth=*/1));
  Client c(server.address());

  // A lone tune request meeting an empty queue runs on its reader, so
  // the worker is parked on a stats request instead: stats id 1 occupies
  // the (single) worker, stats id 2 fills the queue, and the reader is
  // strictly sequential per connection, so tunes 3..6 must shed.
  c.send_stats(1);
  gate.wait_entered(1);
  c.send_stats(2);
  for (std::uint64_t id = 3; id <= 6; ++id)
    c.send_tune(id, proto::Op::Power, serve::TuneRequest::power(0, 1));
  // Shed replies arrive immediately, while the worker is still parked.
  auto shed = c.recv_n(4);
  for (std::uint64_t id = 3; id <= 6; ++id) {
    ASSERT_TRUE(shed.count(id)) << "expected shed frame for id " << id;
    EXPECT_EQ(shed[id].status, proto::Status::Shed);
  }
  // The reader counts a shed only after its frame is delivered, so the
  // out-of-band stats() API trails the frames we just read off the
  // socket by the reader's post-send increment — poll briefly. (In-band
  // stats requests never see the gap: the same reader thread increments
  // before it reads the next frame.)
  for (int spin = 0; spin < 10000 && server.stats().shed < 4; ++spin)
    std::this_thread::yield();
  EXPECT_EQ(server.stats().shed, 4u);

  gate.release();
  const auto done = c.recv_n(2);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    ASSERT_TRUE(done.count(id)) << "accepted request " << id << " lost";
    ASSERT_EQ(done.at(id).status, proto::Status::Ok);
    EXPECT_EQ(done.at(id).op, proto::Op::Stats);
  }
  // With the queue drained, tunes are served again, matching the
  // reference. (One at a time: two in one read would be queued together,
  // and a queue of one would shed the second.)
  const core::PnpTuner ref = core::PnpTuner::load(*db_, path_a_);
  for (std::uint64_t id = 7; id <= 8; ++id) {
    const auto q = serve::TuneRequest::power(0, static_cast<int>(id) - 7);
    c.send_tune(id, proto::Op::Power, q);
    const auto r = c.recv();
    ASSERT_EQ(r.id, id);
    ASSERT_EQ(r.status, proto::Status::Ok);
    expect_result_eq(r.result, reference(ref, 1, q), id);
  }
  const auto st = server.stats();
  EXPECT_EQ(st.ok, 4u);
  EXPECT_EQ(st.shed, 4u);
  EXPECT_EQ(server.latency().count(), 2u);  // shed never reaches the histogram
}

TEST_F(ServerFixture, LoneTuneRequestRunsOnItsReaderOnlyWhileAWorkerIsFree) {
  serve::TuningService service(*db_, path_a_);
  WorkerGate gate;
  serve::Server server(service, gate.options(/*queue_depth=*/1));
  Client c(server.address());
  const core::PnpTuner ref = core::PnpTuner::load(*db_, path_a_);

  // The only worker is free and the queue empty: a lone tune request
  // runs on its connection's reader and is answered without ever
  // reaching the worker's hook (which would park it until release).
  c.sock.set_recv_timeout_ms(2000);
  c.send_tune(1, proto::Op::Power, serve::TuneRequest::power(3, 1));
  std::optional<proto::Response> r;
  std::string failure;
  try {
    r = c.recv();
  } catch (const std::exception& e) {
    failure = e.what();
  }
  if (!r.has_value()) gate.release();
  ASSERT_TRUE(r.has_value())
      << "lone tune request waited for the worker: " << failure;
  EXPECT_EQ(r->id, 1u);
  ASSERT_EQ(r->status, proto::Status::Ok) << r->error;
  expect_result_eq(r->result,
                   reference(ref, 1, serve::TuneRequest::power(3, 1)), 1);

  // Stats is never served inline: it parks the worker, which holds the
  // server's only execution slot. A lone tune request now queues (the
  // workers bound how many requests execute at once, inline or not): it
  // is not answered while the worker stays parked, and tune 4 finds the
  // queue full and is shed.
  c.send_stats(2);
  gate.wait_entered(1);
  c.send_tune(3, proto::Op::Power, serve::TuneRequest::power(4, 0));
  c.sock.set_recv_timeout_ms(300);
  bool answered_while_parked = true;
  try {
    c.recv();
  } catch (const std::exception&) {
    answered_while_parked = false;  // timed out, nothing consumed
  }
  if (answered_while_parked) gate.release();
  ASSERT_FALSE(answered_while_parked)
      << "a lone tune request ran while no worker was free";
  c.sock.set_recv_timeout_ms(0);
  c.send_tune(4, proto::Op::Power, serve::TuneRequest::power(5, 0));
  const proto::Response shed = c.recv();
  EXPECT_EQ(shed.id, 4u);
  EXPECT_EQ(shed.status, proto::Status::Shed);
  gate.release();
  const auto done = c.recv_n(2);
  ASSERT_TRUE(done.count(2) && done.count(3));
  EXPECT_EQ(done.at(2).op, proto::Op::Stats);
  ASSERT_EQ(done.at(3).status, proto::Status::Ok) << done.at(3).error;
  expect_result_eq(done.at(3).result,
                   reference(ref, 1, serve::TuneRequest::power(4, 0)), 3);
  {
    std::lock_guard<std::mutex> lk(gate.mu);
    EXPECT_EQ(gate.entered, 2);  // stats 2 and tune 3; tune 1 ran inline
  }
  EXPECT_EQ(server.latency().count(), 2u);
}

TEST_F(ServerFixture, ShutdownDrainsEveryAcceptedRequestThenClosesCleanly) {
  serve::TuningService service(*db_, path_a_);
  WorkerGate gate;
  auto server = std::make_unique<serve::Server>(
      service, gate.options(/*queue_depth=*/4));
  const net::Address addr = server->address();
  Client c(addr);

  // Fill the pipeline: stats id 1 executing (parked on the gate — waited
  // for, so the queue is empty when the burst lands), stats id 2 queued
  // ahead of tunes 3..5 (a lone tune meeting an empty queue would run on
  // the reader instead). The shed frame for tune 6 proves 2..5 were
  // admitted (sequential reader) before shutdown begins.
  c.send_stats(1);
  gate.wait_entered(1);
  c.send_stats(2);
  for (std::uint64_t id = 3; id <= 6; ++id)
    c.send_tune(id, proto::Op::Power,
                serve::TuneRequest::power(static_cast<int>(id) % 10, 0));
  {
    const auto r = c.recv();
    EXPECT_EQ(r.id, 6u);
    EXPECT_EQ(r.status, proto::Status::Shed);
  }

  std::thread closer([&] { server->shutdown(); });
  gate.release();
  closer.join();

  // Every accepted request (1..5) answered ok, then EOF — zero lost.
  const auto replies = c.recv_n(5);
  const core::PnpTuner ref = core::PnpTuner::load(*db_, path_a_);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(replies.count(id)) << "accepted request " << id << " lost";
    ASSERT_EQ(replies.at(id).status, proto::Status::Ok);
    if (id <= 2) {
      EXPECT_EQ(replies.at(id).op, proto::Op::Stats);
      continue;
    }
    expect_result_eq(
        replies.at(id).result,
        reference(ref, 1,
                  serve::TuneRequest::power(static_cast<int>(id) % 10, 0)),
        id);
  }
  EXPECT_TRUE(c.eof());
  const auto st = server->stats();
  EXPECT_EQ(st.ok, 5u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(server->latency().count(), 3u);

  // The listener is gone: a fresh connect must fail.
  server.reset();
  EXPECT_THROW(net::connect_to(addr), Error);
}

// --- connection lifetime -----------------------------------------------------

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

TEST_F(ServerFixture, FinishedConnectionsReleaseTheirDescriptors) {
  serve::TuningService service(*db_, path_a_);
  serve::ServerOptions opt;
  opt.max_frame_bytes = 1024;
  serve::Server server(service, opt);
  const std::size_t baseline = open_fds();

  // Connection churn: every connection closes after its reply. Every
  // fourth one ends on an unsynchronizable frame (oversized claim), so
  // the error path's wind-down is reaped too.
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    Client c(server.address());
    if (i % 4 == 3) {
      std::string header;
      wire::put_u32(header, opt.max_frame_bytes + 1);
      c.send_raw(header);
      EXPECT_EQ(c.recv().status, proto::Status::Error);
      EXPECT_TRUE(c.eof());
    } else {
      c.send_tune(static_cast<std::uint64_t>(i) + 1, proto::Op::Power,
                  serve::TuneRequest::power(i % 10, 0));
      EXPECT_EQ(c.recv().status, proto::Status::Ok);
    }
  }
  // Readers see each client's close asynchronously: wait for the last.
  std::size_t fds = open_fds();
  for (int spin = 0; spin < 500 && fds > baseline + 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fds = open_fds();
  }
  EXPECT_LE(fds, baseline + 2) << "baseline " << baseline;
  EXPECT_GE(fds + 2, baseline);
  EXPECT_EQ(server.stats().connections,
            static_cast<std::uint64_t>(kConnections));
}

// --- hostile byte streams ----------------------------------------------------

/// A frame stream and where its frames start and end.
struct Stream {
  std::string bytes;
  std::vector<std::size_t> starts;  ///< offset of each frame's header
  std::vector<std::uint32_t> lengths;

  void add(std::string_view payload) {
    starts.push_back(bytes.size());
    lengths.push_back(static_cast<std::uint32_t>(payload.size()));
    wire::put_u32(bytes, static_cast<std::uint32_t>(payload.size()));
    wire::put_bytes(bytes, payload);
  }
  /// The message a parser must give when the stream ends after `cut`
  /// bytes, or "" when the cut falls on a frame boundary.
  std::string truncation_message(std::size_t cut) const {
    for (std::size_t f = 0; f < starts.size(); ++f) {
      if (cut <= starts[f]) continue;
      const std::size_t in = cut - starts[f];
      if (in >= 4 + std::size_t{lengths[f]}) continue;
      if (in < 4)
        return "truncated frame length prefix (" + std::to_string(in) +
               " of 4 bytes)";
      return "connection closed mid-frame (" + std::to_string(in - 4) +
             " of " + std::to_string(lengths[f]) + " payload bytes)";
    }
    return "";
  }
};

/// A connected unix socket pair: what `tx` writes, `rx` reads.
struct Pipe {
  Pipe() {
    int fds[2];
    PNP_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    tx = net::Socket(fds[0]);
    rx = net::Socket(fds[1]);
  }
  net::Socket tx, rx;
};

/// A framing error's text from its check onward: recv_frame and
/// FrameReader state the same condition and message from different
/// source lines, so the "file:line: " prefix is dropped.
std::string check_text(std::string_view what) {
  const std::size_t at = what.find("check failed: ");
  return std::string(at == std::string_view::npos ? what : what.substr(at));
}

/// What a parser made of a stream: its frames, then "" for a clean EOF
/// or the check text (check_text) of the error it threw.
struct Parsed {
  std::vector<std::string> frames;
  std::string error;
  bool operator==(const Parsed& o) const {
    return frames == o.frames && error == o.error;
  }
  friend std::ostream& operator<<(std::ostream& os, const Parsed& p) {
    os << p.frames.size() << " frames (";
    for (const auto& f : p.frames) os << f.size() << " bytes, ";
    return os << ") then '" << p.error << "'";
  }
};

/// recv_frame over the whole stream at once: the reference parser.
Parsed parse_with_recv_frame(std::string_view bytes, std::uint32_t max) {
  Pipe p;
  p.tx.write_all(bytes.data(), bytes.size());
  p.tx.shutdown_write();
  Parsed out;
  try {
    while (auto f = net::recv_frame(p.rx, max)) out.frames.push_back(*f);
  } catch (const std::exception& e) {
    out.error = check_text(e.what());
  }
  return out;
}

/// FrameReader fed the stream in the given chunks, each written before
/// the fill that reads it, draining every complete frame after each fill.
Parsed parse_with_frame_reader(std::string_view bytes,
                               const std::vector<std::size_t>& chunks,
                               std::uint32_t max) {
  Pipe p;
  net::FrameReader in(max);
  Parsed out;
  try {
    const auto drain = [&] {
      while (const auto f = in.next()) out.frames.emplace_back(*f);
    };
    std::size_t at = 0;
    for (const std::size_t n : chunks) {
      if (n == 0) continue;
      p.tx.write_all(bytes.data() + at, n);
      at += n;
      PNP_CHECK(in.fill(p.rx));
      drain();
    }
    p.tx.shutdown_write();
    while (in.fill(p.rx)) drain();
  } catch (const std::exception& e) {
    out.error = check_text(e.what());
  }
  return out;
}

std::vector<std::vector<std::size_t>> chunkings(std::size_t n,
                                                std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> out;
  out.push_back({n});                           // whole
  out.push_back(std::vector<std::size_t>(n, 1));  // byte at a time
  for (std::size_t k = 1; k < n; ++k) out.push_back({k, n - k});  // every split
  std::uint64_t s = seed;
  for (int round = 0; round < 32; ++round) {  // seeded random chunkings
    std::vector<std::size_t> c;
    for (std::size_t left = n; left > 0;) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t take = std::min<std::size_t>(left, 1 + (s >> 33) % 64);
      c.push_back(take);
      left -= take;
    }
    out.push_back(std::move(c));
  }
  return out;
}

TEST(FrameParser, EverySplitAndTruncationMatchesRecvFrame) {
  constexpr std::uint32_t kMax = 64 * 1024;
  Stream st;
  st.add("");
  st.add("abc");
  st.add(std::string(300, 'x'));
  std::string big(17000, '\0');  // larger than the reader's first buffer
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i * 131 % 251);
  st.add(big);
  st.add("tail");

  const Parsed whole = parse_with_recv_frame(st.bytes, kMax);
  ASSERT_EQ(whole.frames.size(), 5u);
  ASSERT_EQ(whole.error, "");
  for (const auto& chunks : chunkings(st.bytes.size(), 0x5eed))
    ASSERT_EQ(parse_with_frame_reader(st.bytes, chunks, kMax), whole)
        << chunks.size() << " chunks, the first of " << chunks[0] << " bytes";

  // Truncation at every offset: the reference's frames and error text.
  for (std::size_t cut = 0; cut <= st.bytes.size(); ++cut) {
    const std::string_view prefix(st.bytes.data(), cut);
    const Parsed want = parse_with_recv_frame(prefix, kMax);
    const std::string msg = st.truncation_message(cut);
    ASSERT_EQ(want.error.empty(), msg.empty()) << "cut " << cut;
    ASSERT_NE(want.error.find(msg), std::string::npos)
        << "cut " << cut << ": " << want.error;
    ASSERT_EQ(parse_with_frame_reader(prefix, {cut}, kMax), want)
        << "cut " << cut;
    if (cut > 0) {
      ASSERT_EQ(parse_with_frame_reader(prefix, {cut - 1, 1}, kMax), want)
          << "cut " << cut;
    }
  }
}

TEST(FrameParser, OversizedClaimFailsOnceItsHeaderIsIn) {
  constexpr std::uint32_t kMax = 1024;
  Stream st;
  st.add("first");
  std::string header;
  wire::put_u32(header, kMax + 1);
  Pipe p;
  net::FrameReader in(kMax);
  const std::string bytes = st.bytes + header;
  std::vector<std::string> frames;
  std::string error;
  // Byte at a time, with the client never closing: the claim must fail
  // on the fill that completes its header, not wait for the payload.
  for (std::size_t i = 0; i < bytes.size() && error.empty(); ++i) {
    p.tx.write_all(bytes.data() + i, 1);
    ASSERT_TRUE(in.fill(p.rx));
    try {
      while (const auto f = in.next()) frames.emplace_back(*f);
    } catch (const std::exception& e) {
      error = check_text(e.what());
      EXPECT_EQ(i, bytes.size() - 1) << "failed before the header was in";
    }
  }
  EXPECT_EQ(frames, std::vector<std::string>{"first"});
  EXPECT_EQ(error, parse_with_recv_frame(bytes, kMax).error);
  EXPECT_NE(error.find("frame length claim of 1025 bytes exceeds limit 1024"),
            std::string::npos)
      << error;
}

/// Every reply of one connection's stream, keyed by id (id-0 error frames
/// have no request: their message is kept apart), read through to EOF.
struct Transcript {
  std::map<std::uint64_t, std::string> replies;
  std::vector<std::string> stream_errors;
};

Transcript deliver(const net::Address& addr, std::string_view bytes,
                   const std::vector<std::size_t>& chunks) {
  Client c(addr);
  std::size_t at = 0;
  for (const std::size_t n : chunks) {
    // A pause lets the server's reader see each chunk in its own read.
    if (at > 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    c.send_raw(bytes.substr(at, n));
    at += n;
  }
  c.sock.shutdown_write();
  Transcript t;
  while (auto payload = net::recv_frame(c.sock)) {
    const proto::Response r = proto::decode_response(*payload);
    if (r.id == 0) t.stream_errors.push_back(check_text(r.error));
    else t.replies[r.id] = *payload;
  }
  return t;
}

TEST_F(ServerFixture, HostileSplitsGetTheRepliesAndErrorsOfTheWholeStream) {
  serve::TuningService service(*db_, path_a_);
  serve::Server server(service, {});

  // Tunes the server answers, an edp request the power model refuses,
  // and two frames whose content is undecodable (unknown opcode,
  // trailing bytes): the connection keeps serving through all of them.
  Stream st;
  std::uint64_t id = 0;
  for (const auto& [op, q] : mixed_requests(6, 0x4242)) {
    proto::Request r;
    r.id = ++id;
    r.op = op;
    r.tune = q;
    st.add(proto::encode_request(r));
  }
  {
    proto::Request r;
    r.id = ++id;
    r.op = proto::Op::Edp;
    r.tune = serve::TuneRequest::edp(2);
    st.add(proto::encode_request(r));
    std::string unknown;
    wire::put_u64(unknown, ++id);
    wire::put_u8(unknown, 9);
    st.add(unknown);
    r.id = ++id;
    std::string trailing = proto::encode_request(r);
    wire::put_u8(trailing, 0xff);
    st.add(trailing);
  }

  const Transcript whole =
      deliver(server.address(), st.bytes, {st.bytes.size()});
  ASSERT_EQ(whole.replies.size(), static_cast<std::size_t>(id));
  ASSERT_TRUE(whole.stream_errors.empty());
  const core::PnpTuner ref = core::PnpTuner::load(*db_, path_a_);
  const auto reqs = mixed_requests(6, 0x4242);
  for (std::uint64_t i = 1; i <= reqs.size(); ++i) {
    const proto::Response r = proto::decode_response(whole.replies.at(i));
    ASSERT_EQ(r.status, proto::Status::Ok) << r.error;
    expect_result_eq(r.result, reference(ref, 1, reqs[i - 1].second), i);
  }
  for (std::uint64_t i = reqs.size() + 1; i <= id; ++i)
    EXPECT_EQ(proto::decode_response(whole.replies.at(i)).status,
              proto::Status::Error);

  // Split anywhere, the same replies, byte for byte.
  for (const auto& chunks : chunkings(st.bytes.size(), 0xc0ffee)) {
    const Transcript t = deliver(server.address(), st.bytes, chunks);
    EXPECT_EQ(t.replies, whole.replies)
        << chunks.size() << " chunks, the first of " << chunks[0] << " bytes";
    EXPECT_TRUE(t.stream_errors.empty());
  }

  // Cut anywhere: the whole stream's reply to every frame before the cut
  // (the fault's half-close waits for them), the reference parser's
  // error in one id-0 frame, and the malformed count of the undecodable
  // frames received plus the cut.
  const std::size_t first_undecodable = reqs.size() + 1;  // 0-based frame
  std::uint64_t malformed = server.stats().malformed;
  for (std::size_t cut = 0; cut <= st.bytes.size(); ++cut) {
    const std::string_view prefix(st.bytes.data(), cut);
    const Transcript t = deliver(server.address(), prefix, {cut});
    const Parsed want = parse_with_recv_frame(prefix, net::kMaxFrameBytes);
    // Frame i carries id i.
    std::map<std::uint64_t, std::string> before_cut;
    for (std::uint64_t i = 1; i <= want.frames.size(); ++i)
      before_cut[i] = whole.replies.at(i);
    EXPECT_EQ(t.replies, before_cut) << "cut " << cut;
    if (want.error.empty()) {
      EXPECT_TRUE(t.stream_errors.empty()) << "cut " << cut;
    } else {
      ASSERT_EQ(t.stream_errors.size(), 1u) << "cut " << cut;
      EXPECT_EQ(t.stream_errors[0], want.error) << "cut " << cut;
      EXPECT_NE(want.error.find(st.truncation_message(cut)), std::string::npos);
    }
    malformed += (want.error.empty() ? 0 : 1) +
                 (want.frames.size() > first_undecodable
                      ? want.frames.size() - first_undecodable
                      : 0);
    EXPECT_EQ(server.stats().malformed, malformed) << "cut " << cut;
  }
}

}  // namespace
}  // namespace pnp
