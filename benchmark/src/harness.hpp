#pragma once

/// \file harness.hpp
/// Measurement primitives of pnp_bench: exact quantiles, the
/// capacity-ladder rule, in-memory span tracing with self-time accounting,
/// the host/build stamp every result carries, and the metric set a run
/// prints. Everything here is independent of the workloads so the harness
/// self-test (tests/harness_selftest.cpp) can check it in isolation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace pnp {
class JsonWriter;
}

namespace pnp::bench {

// --- Exact quantiles ---------------------------------------------------------

/// Sort `samples` in place and return their nearest-rank q-quantile — the
/// ceil(q·n)-th smallest, q clamped to (0, 1] — or 0 for an empty vector.
/// Exact: no buckets.
double quantile(std::vector<double>& samples, double q);

/// Median of a copy of `samples` (the mean of the middle two for an even
/// count); 0 when empty.
double median_value(std::vector<double> samples);

// --- Capacity ladder ---------------------------------------------------------

/// Outcome of one open-loop rung at a fixed offered rate.
struct Rung {
  double rate = 0.0;            ///< offered req/s
  std::uint64_t offered = 0;    ///< requests scheduled in the rung
  std::uint64_t completed = 0;  ///< ok replies by rung end + SLO
  std::uint64_t failed = 0;     ///< error / shed / unanswered requests
  /// Exact p99 due→reply over every request of the rung, failures counted
  /// as misses.
  double p99_us = 0.0;
};

struct LadderRule {
  double slo_us = 1000.0;  ///< p99 limit
  int fine_rungs = 10;     ///< rungs of the up-down staircase
};

/// A rung passes when its p99 meets the SLO, at most 0.1% of its requests
/// failed, and at least 98% completed by the rung's end (+SLO).
bool rung_passes(const Rung& r, const LadderRule& rule);

struct LadderResult {
  /// Capacity at the SLO: the rate the fine staircase settles at; when no
  /// rung passed, the lowest rate tried.
  double max_rps_at_slo = 0.0;
  std::vector<Rung> rungs;  ///< every rung, in the order they ran
  std::vector<bool> passed;
};

/// Capacity search from a base rate (nominal traffic, which passed or
/// not). Coarse rungs rise ×1.5 until a rate fails twice in a row (or, when
/// the base failed, fall ÷1.5 until one passes in one of two attempts), at
/// most eight rates either way. Fine rungs then start ×1.1 above the last
/// passing coarse rate and run an up-down staircase: after a pass the next
/// rung rises ×1.1, after a failure it falls ÷1.1. Once the outcome first
/// flips, the staircase oscillates around the rate that passes half the
/// time; the capacity is the geometric mean of the rates from the rung
/// before that flip on. On a shared host a rung near capacity passes or
/// fails by chance, so one decision must not set the result, as it would in
/// a bisection: the mean over the staircase averages that chance out.
/// `run_rung(rate)` runs one rung; when `time_left` is given and returns
/// false before a rung, the ladder ends with the rungs it ran.
LadderResult run_ladder(double base_rate, bool base_passed,
                        const LadderRule& rule,
                        const std::function<Rung(double)>& run_rung,
                        const std::function<bool()>& time_left = {});

// --- Tracing -----------------------------------------------------------------

/// One timed interval at a layer boundary. Spans of one request share its
/// request id; `parent` links a child to the span that caused it.
struct Span {
  const char* name = "";     ///< layer name (a string literal)
  std::uint64_t id = 0;      ///< unique within a tracer, > 0
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0; ///< 0 = not tied to a request
  std::int64_t start_ns = 0; ///< since the tracer's epoch
  std::int64_t end_ns = 0;
};

/// In-memory span store. Spans are kept until the workload ends and then
/// written as JSON lines. Hot loops buffer spans in a thread-local vector
/// and hand them over with add_all(); ids come from one atomic counter.
class Tracer {
 public:
  Tracer();
  std::int64_t now_ns() const;
  std::int64_t to_ns(std::chrono::steady_clock::time_point t) const;
  std::uint64_t new_id();
  void add_all(std::vector<Span>& spans);  ///< moves and clears `spans`
  std::vector<Span> spans() const;
  /// One JSON object per line: name, id, parent, request, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Wall-clock timing of one call into a layer, timed from outside; when a
/// tracer is given it also becomes a span. Open a section before the call,
/// close it after. A section's id() is the parent of sections opened inside
/// it.
class Section {
 public:
  Section(Tracer* tracer, const char* name, std::uint64_t parent = 0,
          std::uint64_t request = 0);
  std::uint64_t id() const { return span_.id; }
  /// Record the span into `buf` (when tracing) and return the elapsed ns.
  std::int64_t close(std::vector<Span>& buf);

 private:
  Tracer* tracer_;
  Span span_;
  std::chrono::steady_clock::time_point t0_;
};

/// Self time of every span (index-parallel to `spans`): its duration minus
/// the part of [start, end) covered by the union of its direct children's
/// intervals, each clipped to the parent's interval.
std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// Per-layer totals over a span set, in first-seen name order.
struct LayerSummary {
  std::string name;
  std::size_t count = 0;
  double p50_us = 0.0;       ///< median span duration
  double self_p50_us = 0.0;  ///< median self time
  double self_total_ms = 0.0;
};
std::vector<LayerSummary> summarize(std::span<const Span> spans);

/// Durations (ns) of every span named `name`.
std::vector<double> durations_ns(std::span<const Span> spans, const char* name);

// --- CPU placement -----------------------------------------------------------

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus` for the object's lifetime, then
/// restores the previous mask; threads started meanwhile inherit the
/// restriction. No-op for an empty list.
class ThreadPin {
 public:
  explicit ThreadPin(const std::vector<int>& cpus);
  ~ThreadPin();
  ThreadPin(const ThreadPin&) = delete;
  ThreadPin& operator=(const ThreadPin&) = delete;

 private:
  std::vector<int> previous_;
};

// --- Host / build stamp ------------------------------------------------------

struct Stamp {
  int nproc = 0;
  std::string cpu_model;
  std::string isa;       ///< the SIMD flags the kernels can use
  std::string compiler;  ///< compiler id and version
  std::string build_type;
  bool pnp_native = false;
  bool pnp_parallel = false;
  std::string commit;    ///< "unknown" outside a git checkout
  std::uint64_t seed = 0;
};
Stamp collect_stamp(const std::string& commit, std::uint64_t seed);
void write_stamp(JsonWriter& w, const Stamp& s);

/// Peak resident set size of this process so far, MiB (Linux VmHWM).
double peak_rss_mb();

// --- Metric set --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order; set() overwrites an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Seconds since `t0` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point t0);

}  // namespace pnp::bench
