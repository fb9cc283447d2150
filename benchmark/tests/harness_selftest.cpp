/// \file harness_selftest.cpp
/// Self-test of the benchmark harness (registered with ctest in the
/// benchmark project): exact quantiles, due-time latency under an injected
/// sender stall, the capacity-ladder rule, and self-time arithmetic on a
/// hand-built span tree. Exit code 0 when every check holds.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "loadgen.hpp"

using namespace pnp;
using namespace pnp::bench;
namespace protocol = serve::protocol;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void test_quantiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(quantile(v, 0.5) == 50.0);
  CHECK(quantile(v, 0.99) == 99.0);
  CHECK(quantile(v, 1.0) == 100.0);
  CHECK(quantile(v, 0.001) == 1.0);
  std::vector<double> one{7.0};
  CHECK(quantile(one, 0.99) == 7.0);
  std::vector<double> none;
  CHECK(quantile(none, 0.5) == 0.0);
  // Exact, not bucketed: values 1 µs apart stay distinguishable.
  std::vector<double> fine{1000.0, 1001.0, 1002.0, 1003.0};
  CHECK(quantile(fine, 0.75) == 1002.0);
  // Over all samples: one burst of 150 slow requests among 10,000 (one
  // stall in one tenth of a phase) sets the p99.
  std::vector<double> burst(10000, 50.0);
  for (int i = 4000; i < 4150; ++i) burst[static_cast<std::size_t>(i)] = 5000.0;
  CHECK(quantile(burst, 0.99) == 5000.0);
}

/// Echo server for the stall test: answers every request at once with an
/// ok tune reply carrying the request's id.
class EchoServer {
 public:
  explicit EchoServer(const std::string& path)
      : listener_(net::Address::parse("unix:" + path)) {
    acceptor_ = std::thread([this] {
      while (auto s = listener_.accept()) {
        conns_.push_back(std::move(*s));
        net::Socket* sock = &conns_.back();
        workers_.emplace_back([sock] {
          try {
            while (auto frame = net::recv_frame(*sock)) {
              const protocol::Request q = protocol::decode_request(*frame);
              net::send_frame(*sock, protocol::encode_tune_response(
                                         q.id, q.op, serve::TuneResult{}));
            }
          } catch (const std::exception&) {
          }
        });
      }
    });
  }
  ~EchoServer() {
    listener_.interrupt();
    acceptor_.join();
    for (auto& s : conns_) s.shutdown_read();
    for (auto& w : workers_) w.join();
  }
  const net::Address& address() const { return listener_.bound(); }

 private:
  net::Listener listener_;
  std::deque<net::Socket> conns_;
  std::vector<std::thread> workers_;
  std::thread acceptor_;
};

/// Evenly spaced power requests: `n` of them, `gap_ns` apart.
Traffic even_traffic(int n, std::int64_t gap_ns) {
  Traffic t;
  for (int i = 0; i < n; ++i) {
    Planned p;
    p.due_ns = static_cast<std::int64_t>(i) * gap_ns;
    p.op = protocol::Op::Power;
    p.tune = serve::TuneRequest::power(i % 7, 0);
    t.plan.push_back(p);
  }
  return t;
}

void test_stall_shows_in_due_latency() {
  const std::string path = "selftest-" + std::to_string(::getpid()) + ".sock";
  EchoServer server(path);
  // 20k req/s for 0.2 s: 4000 requests, 50 µs apart.
  const Traffic t = even_traffic(4000, 50'000);
  const std::size_t stall_at = 1000;
  ClientOptions opt;
  opt.connections = 1;
  opt.before_send = [&](std::size_t i) {
    if (i == stall_at) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  OpenLoopClient client(server.address(), opt);
  const PhaseResult r = client.run(t);
  CHECK(r.failure.empty());
  const PhaseStats s = phase_stats(t, r);
  CHECK(s.ok == 4000);
  // tune_p99_us is what a serving workload reports as latency_p99_us. The
  // 5 ms stall delays the ~100 requests due during it by 0..5 ms: 2.5% of
  // the sample, so the reported p99 sits well above 1 ms.
  const double p99_due = s.tune_p99_us;
  std::vector<double> send_lat;
  for (std::size_t i = 0; i < t.plan.size(); ++i)
    send_lat.push_back(static_cast<double>(r.out[i].reply_ns - r.send_ns[i]) /
                       1e3);
  // What a loadgen timing from the send would report: the stall hides.
  const double p99_send = quantile(send_lat, 0.99);
  std::fprintf(stderr,
               "stall test: reported p99 %.1f us, send->reply p99 %.1f us, "
               "late sends %llu\n",
               p99_due, p99_send,
               static_cast<unsigned long long>(s.late_sends));
  CHECK(p99_due >= 2000.0);
  CHECK(p99_due > p99_send);
  CHECK(s.late_sends >= 20);  // due in the stall's first 4 ms, sent >1 ms late
  CHECK(s.lag_p99_us >= 1000.0);
  // A ladder rung over the stalled phase misses a 1 ms SLO.
  LadderRule rule;
  rule.slo_us = 1000.0;
  const Rung g = to_rung(t, r, 20000.0, 0.2, rule.slo_us);
  CHECK(g.p99_us == p99_due);
  CHECK(!rung_passes(g, rule));
  std::filesystem::remove(path);
}

Rung fake_rung(double rate, double capacity) {
  Rung g;
  g.rate = rate;
  g.offered = 1000;
  g.completed = rate <= capacity ? 1000 : 900;
  g.p99_us = rate <= capacity ? 400.0 : 9000.0;
  return g;
}

void test_ladder_rule() {
  LadderRule rule;
  rule.slo_us = 1000.0;
  Rung ok{50000.0, 10000, 10000, 0, 999.0};
  CHECK(rung_passes(ok, rule));
  Rung slow = ok;
  slow.p99_us = 1000.1;
  CHECK(!rung_passes(slow, rule));
  Rung failing = ok;
  failing.failed = 11;  // 0.11% > 0.1%
  CHECK(!rung_passes(failing, rule));
  failing.failed = 10;  // exactly 0.1%
  CHECK(rung_passes(failing, rule));
  Rung backlog = ok;
  backlog.completed = 9799;  // 97.99% < 98%
  CHECK(!rung_passes(backlog, rule));
  Rung empty{};
  CHECK(!rung_passes(empty, rule));

  // Capacity 73k from a passing 30k base: coarse 45k, 67.5k pass, 101.25k
  // fails twice. The staircase starts at 74.25k (fail) and then alternates
  // 67.5k (pass) / 74.25k (fail): the capacity is their geometric mean.
  LadderRule four = rule;
  four.fine_rungs = 4;
  const auto cap73 = [](double r) { return fake_rung(r, 73000.0); };
  LadderResult a = run_ladder(30000.0, true, four, cap73);
  CHECK(std::abs(a.max_rps_at_slo - std::sqrt(67500.0 * 74250.0)) < 1e-6);
  CHECK(a.passed == (std::vector<bool>{true, true, false, false, false, true,
                                       false, true}));

  // A transient failure of a coarse rung is retried; the result stands.
  int coarse_calls = 0;
  LadderResult t = run_ladder(30000.0, true, four, [&](double r) {
    return fake_rung(r, ++coarse_calls == 1 ? 0.0 : 73000.0);
  });
  CHECK(t.max_rps_at_slo == a.max_rps_at_slo);
  CHECK(t.rungs.size() == a.rungs.size() + 1);

  // Capacity 100k: the staircase climbs 74.25k, 81.7k, 89.8k, 98.8k (all
  // pass) to 108.7k (fail) and then alternates; the mean starts at the
  // last rung before the first flip, so the climb does not count.
  LadderRule nine = rule;
  nine.fine_rungs = 9;
  LadderResult b = run_ladder(30000.0, true, nine, [](double r) {
    return fake_rung(r, 100000.0);
  });
  const double lo = 67500.0 * std::pow(1.1, 4), hi = lo * 1.1;
  CHECK(std::abs(b.max_rps_at_slo - std::sqrt(lo * hi)) < 1e-6);

  // A transient failure inside the staircase moves the estimate by a
  // fraction of one fine step, not by a whole decision.
  int calls = 0;
  LadderResult c = run_ladder(30000.0, true, nine, [&](double r) {
    return fake_rung(r, ++calls == 7 ? 0.0 : 100000.0);
  });
  CHECK(c.max_rps_at_slo < b.max_rps_at_slo);
  CHECK(c.max_rps_at_slo > lo / 1.1);

  // Base fails (capacity 12k): coarse rungs fall 20k, 13.3k (each failing
  // twice), 8.9k (pass); the staircase climbs to 11.8k (pass) and 13.0k
  // (fail).
  LadderResult d = run_ladder(30000.0, false, four,
                              [](double r) { return fake_rung(r, 12000.0); });
  const double base = 30000.0 / std::pow(1.5, 3);
  CHECK(d.passed.front() == false);
  CHECK(std::abs(d.max_rps_at_slo -
                 std::sqrt(base * std::pow(1.1, 3) * base * std::pow(1.1, 4))) <
        1e-6);
  CHECK(d.max_rps_at_slo <= 12000.0 * 1.1);

  // Nothing passes: the lowest rate tried, eight coarse steps down (each
  // tried twice).
  LadderResult e = run_ladder(30000.0, false, four,
                              [](double r) { return fake_rung(r, 0.0); });
  CHECK(e.rungs.size() == 16);
  CHECK(std::abs(e.max_rps_at_slo - 30000.0 / std::pow(1.5, 8)) < 1e-6);

  // Time runs out after five rungs: the staircase stops where it is.
  std::size_t ran = 0;
  LadderResult f = run_ladder(
      30000.0, true, nine,
      [&](double r) {
        ++ran;
        return fake_rung(r, 100000.0);
      },
      [&] { return ran < 5; });
  CHECK(f.rungs.size() == 5);
  CHECK(f.max_rps_at_slo == f.rungs.back().rate);
  // Out of time before the first rung: the base rate stands.
  LadderResult z =
      run_ladder(30000.0, true, nine, cap73, [] { return false; });
  CHECK(z.rungs.empty());
  CHECK(z.max_rps_at_slo == 30000.0);
}

void test_self_time() {
  // root [0,100] ─┬─ A [10,30] ── D [15,25]
  //               ├─ B [20,50]   (overlaps A)
  //               └─ C [90,120]  (runs past root: clipped to [90,100])
  const std::vector<Span> spans = {
      {"root", 1, 0, 7, 0, 100}, {"A", 2, 1, 7, 10, 30},
      {"B", 3, 1, 7, 20, 50},    {"C", 4, 1, 7, 90, 120},
      {"D", 5, 2, 7, 15, 25},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  CHECK(self[0] == 100 - (40 + 10));  // children cover [10,50] ∪ [90,100]
  CHECK(self[1] == 20 - 10);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 10);
  const auto sum = summarize(spans);
  CHECK(sum.size() == 5);
  CHECK(sum[0].name == "root" && sum[0].count == 1);
  CHECK(std::abs(sum[0].self_total_ms - 50e-6) < 1e-12);
}

}  // namespace

int main() {
  test_quantiles();
  test_stall_shows_in_due_latency();
  test_ladder_rule();
  test_self_time();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("harness self-test passed\n");
  return 0;
}
