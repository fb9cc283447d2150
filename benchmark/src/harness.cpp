#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/json.hpp"

namespace pnp::bench {

// --- Exact quantiles ---------------------------------------------------------

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double median_value(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double hi = samples[mid];
  if (samples.size() % 2 == 1) return hi;
  return (*std::max_element(samples.begin(), samples.begin() + mid) + hi) / 2;
}

// --- Capacity ladder ---------------------------------------------------------

namespace {
constexpr double kMaxFailedFrac = 0.001;   // failed / offered
constexpr double kMinCompletedFrac = 0.98; // completed / offered: no backlog
constexpr double kCoarseStep = 1.5;
constexpr double kFineStep = 1.1;
constexpr int kMaxCoarse = 8;  // coarse rates in either direction
}  // namespace

bool rung_passes(const Rung& r, const LadderRule& rule) {
  if (r.offered == 0) return false;
  const auto offered = static_cast<double>(r.offered);
  return r.p99_us <= rule.slo_us &&
         static_cast<double>(r.failed) <= kMaxFailedFrac * offered &&
         static_cast<double>(r.completed) >= kMinCompletedFrac * offered;
}

LadderResult run_ladder(double base_rate, bool base_passed,
                        const LadderRule& rule,
                        const std::function<Rung(double)>& run_rung,
                        const std::function<bool()>& time_left) {
  LadderResult out;
  bool stopped = false;
  // Runs one rung at `rate` unless time is up; true when it passed.
  const auto step = [&](double rate) {
    stopped = stopped || (time_left && !time_left());
    if (stopped) return false;
    out.rungs.push_back(run_rung(rate));
    out.passed.push_back(rung_passes(out.rungs.back(), rule));
    return static_cast<bool>(out.passed.back());
  };
  // A coarse rate fails only when two attempts fail: every fine rung
  // starts from the coarse result, so one stall there would cost the
  // staircase several rungs of climbing.
  const auto coarse = [&](double rate) { return step(rate) || step(rate); };
  double pass = base_passed ? base_rate : 0.0;
  if (base_passed) {
    for (int i = 0; i < kMaxCoarse; ++i) {
      const double rate = pass * kCoarseStep;
      if (!coarse(rate)) break;
      pass = rate;
    }
  } else {
    double rate = base_rate;
    for (int i = 0; i < kMaxCoarse && pass == 0.0 && !stopped; ++i) {
      rate /= kCoarseStep;
      if (coarse(rate)) pass = rate;
    }
  }
  if (pass == 0.0) {
    // Nothing passed: the capacity lies below the lowest rate tried.
    out.max_rps_at_slo = out.rungs.empty() ? base_rate : out.rungs.back().rate;
    return out;
  }

  const std::size_t first_fine = out.rungs.size();
  double rate = pass * kFineStep;
  for (int i = 0; i < rule.fine_rungs && !stopped; ++i)
    rate = step(rate) ? rate * kFineStep : rate / kFineStep;
  if (out.rungs.size() == first_fine) {
    out.max_rps_at_slo = pass;
    return out;
  }
  std::size_t from = out.rungs.size();
  for (std::size_t i = first_fine + 1; i < out.rungs.size(); ++i)
    if (out.passed[i] != out.passed[first_fine]) {
      from = i - 1;
      break;
    }
  if (from == out.rungs.size()) {
    // No flip: every fine rung passed (report the highest) or failed (the
    // coarse rate stands).
    out.max_rps_at_slo = out.passed[first_fine] ? out.rungs.back().rate : pass;
    return out;
  }
  double log_sum = 0.0;
  for (std::size_t i = from; i < out.rungs.size(); ++i)
    log_sum += std::log(out.rungs[i].rate);
  out.max_rps_at_slo =
      std::exp(log_sum / static_cast<double>(out.rungs.size() - from));
  return out;
}

// --- Tracing -----------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return to_ns(std::chrono::steady_clock::now());
}

std::int64_t Tracer::to_ns(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint64_t Tracer::new_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::add_all(std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  PNP_CHECK_MSG(os.is_open(), "cannot open '" << path << "' for writing");
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_)
    os << "{\"name\":" << json_quote(s.name) << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << "}\n";
  os.flush();
  PNP_CHECK_MSG(os.good(), "writing '" << path << "' failed");
}

Section::Section(Tracer* tracer, const char* name, std::uint64_t parent,
                 std::uint64_t request)
    : tracer_(tracer) {
  span_.name = name;
  span_.parent = parent;
  span_.request = request;
  if (tracer_) span_.id = tracer_->new_id();
  t0_ = std::chrono::steady_clock::now();
}

std::int64_t Section::close(std::vector<Span>& buf) {
  const auto t1 = std::chrono::steady_clock::now();
  if (tracer_) {
    span_.start_ns = tracer_->to_ns(t0_);
    span_.end_ns = tracer_->to_ns(t1);
    buf.push_back(span_);
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_)
      .count();
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::vector<LayerSummary> summarize(std::span<const Span> spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::string> order;
  std::unordered_map<std::string, std::pair<std::vector<double>,
                                            std::vector<double>>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto [it, fresh] = by_name.try_emplace(spans[i].name);
    if (fresh) order.push_back(spans[i].name);
    it->second.first.push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns));
    it->second.second.push_back(static_cast<double>(self[i]));
  }
  std::vector<LayerSummary> out;
  for (const std::string& name : order) {
    auto& [dur, own] = by_name[name];
    LayerSummary s;
    s.name = name;
    s.count = dur.size();
    for (double v : own) s.self_total_ms += v / 1e6;
    s.p50_us = quantile(dur, 0.5) / 1e3;
    s.self_p50_us = quantile(own, 0.5) / 1e3;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<double> durations_ns(std::span<const Span> spans,
                                 const char* name) {
  const std::string_view want(name);
  std::vector<double> out;
  for (const Span& s : spans)
    if (want == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

// --- CPU placement -----------------------------------------------------------

namespace {

void set_this_thread_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // Best effort: a refused mask leaves the thread where it was.
  (void)::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

std::vector<int> this_thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::pthread_getaffinity_np(::pthread_self(), sizeof set, &set) != 0)
    return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

ThreadPin::ThreadPin(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  previous_ = this_thread_cpus();
  set_this_thread_cpus(cpus);
}

ThreadPin::~ThreadPin() {
  if (!previous_.empty()) set_this_thread_cpus(previous_);
}

// --- Host / build stamp ------------------------------------------------------

namespace {

/// Value of the first "/proc/cpuinfo" line starting with `key`.
std::string cpuinfo_field(const std::string& key) {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

Stamp collect_stamp(const std::string& commit, std::uint64_t seed) {
  Stamp s;
  s.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  s.cpu_model = cpuinfo_field("model name");
  // Only the SIMD extensions the GEMM micro-kernels can select.
  static const char* const kIsa[] = {"sse4_2",   "avx",      "avx2",
                                     "fma",      "avx512f",  "avx512bw",
                                     "avx512vl", "avx512dq", "avx512_vnni"};
  std::istringstream flags(cpuinfo_field("flags"));
  std::vector<std::string> have;
  for (std::string f; flags >> f;) have.push_back(f);
  for (const char* want : kIsa)
    if (std::find(have.begin(), have.end(), want) != have.end()) {
      if (!s.isa.empty()) s.isa += ' ';
      s.isa += want;
    }
  s.compiler = PNP_BENCH_COMPILER;
  s.build_type = PNP_BENCH_BUILD_TYPE;
  s.pnp_native = PNP_BENCH_NATIVE != 0;
  s.pnp_parallel = PNP_BENCH_PARALLEL != 0;
  s.commit = commit.empty() ? "unknown" : commit;
  s.seed = seed;
  return s;
}

void write_stamp(JsonWriter& w, const Stamp& s) {
  w.begin_object();
  w.key("nproc").value(s.nproc);
  w.key("cpu_model").value(s.cpu_model);
  w.key("isa").value(s.isa);
  w.key("compiler").value(s.compiler);
  w.key("build_type").value(s.build_type);
  w.key("pnp_native").value(s.pnp_native);
  w.key("pnp_parallel").value(s.pnp_parallel);
  w.key("commit").value(s.commit);
  w.key("seed").value(s.seed);
  w.end_object();
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  for (std::string line; std::getline(is, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  struct rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Metric set --------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  items_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace pnp::bench
