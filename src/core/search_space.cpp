#include "core/search_space.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pnp::core {

SearchSpace SearchSpace::for_machine(const hw::MachineModel& m) {
  SearchSpace s;
  s.schedules_ = {sim::Schedule::Static, sim::Schedule::Dynamic,
                  sim::Schedule::Guided};
  s.chunks_ = {1, 8, 32, 64, 128, 256, 512};
  if (m.name == "skylake") {
    s.threads_ = {1, 4, 8, 16, 32, 64};
    s.caps_ = {75.0, 100.0, 120.0, 150.0};
  } else if (m.name == "haswell") {
    s.threads_ = {1, 2, 4, 8, 16, 32};
    s.caps_ = {40.0, 60.0, 70.0, 85.0};
  } else {
    // Generic machine — the main path for generated machines (the
    // hardware zoo, docs/HARDWARE.md): powers of two up to max threads
    // (at most 6 thread classes including max_threads itself; exactly 6
    // for every MachineGenerator machine, whose contract guarantees
    // max_threads() >= 32 — what gives the whole fleet one classifier
    // head layout); caps spanning [min_cap, tdp] in four steps.
    int t = 1;
    while (t < m.max_threads() && s.threads_.size() < 5) {
      s.threads_.push_back(t);
      t *= 2;
    }
    s.threads_.push_back(m.max_threads());
    // Degenerate cap ranges (min_cap == tdp, or so narrow the four points
    // collide within cap_index's 1e-9 match tolerance) collapse to the
    // distinct points only — duplicate caps would make cap_index
    // ambiguous and break the per-cap label layout.
    const double lo = m.min_cap_w, hi = m.tdp_w;
    PNP_CHECK_MSG(lo <= hi && lo > 0.0,
                  "machine '" << m.name << "' has an invalid cap range ["
                              << lo << ", " << hi << "]");
    for (double cap :
         {lo, lo + (hi - lo) / 3.0, lo + 2.0 * (hi - lo) / 3.0, hi}) {
      if (s.caps_.empty() || cap - s.caps_.back() > 1e-6) s.caps_.push_back(cap);
    }
  }
  s.default_ = sim::OmpConfig{m.max_threads(), sim::Schedule::Static, 0};
  return s;
}

SearchSpace SearchSpace::by_name(const std::string& name,
                                 const hw::MachineModel& m) {
  if (name == "table1") return for_machine(m);
  if (name == "extended") return extended_for_machine(m);
  throw Error("unknown space '" + name + "' (expected table1 or extended)");
}

SearchSpace SearchSpace::extended_for_machine(const hw::MachineModel& m) {
  SearchSpace s = for_machine(m);
  // Deeper thread grid: every Table I value plus intermediate counts,
  // capped at the machine's hardware threads (which must stay on the grid
  // so the default config remains representable).
  std::vector<int> threads;
  for (int t : {1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64}) {
    if (t <= m.max_threads()) threads.push_back(t);
  }
  if (threads.empty() || threads.back() != m.max_threads())
    threads.push_back(m.max_threads());
  s.threads_ = std::move(threads);
  // Denser chunk grid (15 values + the default class).
  s.chunks_ = {1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512};
  // Realistic validity rules. The thread-per-watt slope admits the full
  // grid only at TDP; tighter caps prune the high thread counts. The
  // default config is exempt by the fallback guarantee.
  const double slope = static_cast<double>(m.max_threads()) / s.tdp();
  s.constraints_ = {
      {ConstraintRule::Kind::kMaxThreadsPerWatt, slope, 0.0},
      {ConstraintRule::Kind::kMinChunkForSchedule,
       static_cast<double>(static_cast<int>(sim::Schedule::Dynamic)), 4.0},
      {ConstraintRule::Kind::kMaxChunkThreadProduct, 4096.0, 0.0},
  };
  return s;
}

SearchSpace SearchSpace::custom(std::vector<int> threads,
                                std::vector<sim::Schedule> schedules,
                                std::vector<int> chunks,
                                std::vector<double> caps,
                                sim::OmpConfig default_cfg,
                                std::vector<ConstraintRule> constraints) {
  PNP_CHECK_MSG(!threads.empty() && !schedules.empty() && !chunks.empty() &&
                    !caps.empty(),
                "custom search space needs non-empty grids");
  PNP_CHECK_MSG(std::is_sorted(caps.begin(), caps.end()),
                "power caps must be ascending");
  PNP_CHECK_MSG(default_cfg.chunk == 0,
                "default config must use the compiler-default chunk");
  PNP_CHECK_MSG(
      std::find(threads.begin(), threads.end(), default_cfg.threads) !=
          threads.end(),
      "default config thread count must be on the thread grid");
  PNP_CHECK_MSG(std::find(schedules.begin(), schedules.end(),
                          default_cfg.schedule) != schedules.end(),
                "default config schedule must be on the schedule grid");
  for (const ConstraintRule& r : constraints) {
    const int k = static_cast<int>(r.kind);
    PNP_CHECK_MSG(k >= 0 && k < kNumConstraintKinds,
                  "unknown constraint kind " << k);
    PNP_CHECK_MSG(std::isfinite(r.a) && std::isfinite(r.b),
                  "constraint parameters must be finite");
  }
  SearchSpace s;
  s.threads_ = std::move(threads);
  s.schedules_ = std::move(schedules);
  s.chunks_ = std::move(chunks);
  s.caps_ = std::move(caps);
  s.default_ = default_cfg;
  s.constraints_ = std::move(constraints);
  return s;
}

bool SearchSpace::is_valid(const sim::OmpConfig& cfg, double cap_w) const {
  if (cfg == default_) return true;  // the fallback guarantee
  for (const ConstraintRule& r : constraints_) {
    switch (r.kind) {
      case ConstraintRule::Kind::kMaxThreads:
        if (static_cast<double>(cfg.threads) > r.a) return false;
        break;
      case ConstraintRule::Kind::kMaxThreadsPerWatt:
        if (static_cast<double>(cfg.threads) > r.a * cap_w) return false;
        break;
      case ConstraintRule::Kind::kMinChunkForSchedule:
        if (static_cast<int>(cfg.schedule) == static_cast<int>(r.a) &&
            cfg.chunk != 0 && static_cast<double>(cfg.chunk) < r.b)
          return false;
        break;
      case ConstraintRule::Kind::kMaxChunkThreadProduct:
        if (cfg.chunk != 0 &&
            static_cast<double>(cfg.threads) * static_cast<double>(cfg.chunk) >
                r.a)
          return false;
        break;
    }
  }
  return true;
}

int SearchSpace::max_valid_threads(double cap_w) const {
  double limit = static_cast<double>(threads_.back());
  for (const ConstraintRule& r : constraints_) {
    if (r.kind == ConstraintRule::Kind::kMaxThreads)
      limit = std::min(limit, r.a);
    else if (r.kind == ConstraintRule::Kind::kMaxThreadsPerWatt)
      limit = std::min(limit, r.a * cap_w);
  }
  int best = 0;  // 0 = every grid thread count is pruned at this cap
  for (int t : threads_)
    if (static_cast<double>(t) <= limit) best = std::max(best, t);
  return best;
}

int SearchSpace::joint_invalid_count() const {
  if (constraints_.empty()) return 0;
  int pruned = 0;
  for (int i = 0; i < joint_size(); ++i) {
    const JointPoint p = joint_point(i);
    if (!is_valid(p.cfg, caps_[static_cast<std::size_t>(p.cap_index)]))
      ++pruned;
  }
  return pruned;
}

int SearchSpace::num_omp_configs() const {
  return static_cast<int>(threads_.size() * schedules_.size() * chunks_.size());
}

SearchSpace::GridAxes SearchSpace::omp_axes(int index) const {
  PNP_CHECK(index >= 0 && index < num_omp_configs());
  const int nc = static_cast<int>(chunks_.size());
  const int ns = static_cast<int>(schedules_.size());
  return GridAxes{index / (nc * ns), (index / nc) % ns, index % nc};
}

int SearchSpace::omp_index_from_axes(const GridAxes& ax) const {
  const int nc = static_cast<int>(chunks_.size());
  const int ns = static_cast<int>(schedules_.size());
  PNP_CHECK(ax.thread >= 0 && ax.thread < static_cast<int>(threads_.size()));
  PNP_CHECK(ax.sched >= 0 && ax.sched < ns);
  PNP_CHECK(ax.chunk >= 0 && ax.chunk < nc);
  return (ax.thread * ns + ax.sched) * nc + ax.chunk;
}

sim::OmpConfig SearchSpace::omp_config(int index) const {
  const GridAxes ax = omp_axes(index);
  return sim::OmpConfig{threads_[static_cast<std::size_t>(ax.thread)],
                        schedules_[static_cast<std::size_t>(ax.sched)],
                        chunks_[static_cast<std::size_t>(ax.chunk)]};
}

int SearchSpace::omp_index(const sim::OmpConfig& cfg) const {
  int ti = -1, si = -1, ci = -1;
  for (std::size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == cfg.threads) ti = static_cast<int>(i);
  for (std::size_t i = 0; i < schedules_.size(); ++i)
    if (schedules_[i] == cfg.schedule) si = static_cast<int>(i);
  for (std::size_t i = 0; i < chunks_.size(); ++i)
    if (chunks_[i] == cfg.chunk) ci = static_cast<int>(i);
  if (ti < 0 || si < 0 || ci < 0) return -1;
  return omp_index_from_axes(GridAxes{ti, si, ci});
}

sim::OmpConfig SearchSpace::candidate(int index) const {
  PNP_CHECK(index >= 0 && index < num_candidates_per_cap());
  if (index == num_omp_configs()) return default_;
  return omp_config(index);
}

SearchSpace::JointPoint SearchSpace::joint_point(int index) const {
  PNP_CHECK(index >= 0 && index < joint_size());
  const int per_cap = num_candidates_per_cap();
  JointPoint p;
  p.cap_index = index / per_cap;
  const int ci = index % per_cap;
  p.is_default = (ci == num_omp_configs());
  p.cfg = candidate(ci);
  return p;
}

int SearchSpace::thread_class(int threads) const {
  for (std::size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == threads) return static_cast<int>(i);
  PNP_CHECK_MSG(false, "thread count " << threads << " not in search space");
  throw Error("unreachable");  // PNP_CHECK_MSG(false, …) always throws
}

int SearchSpace::chunk_class(int chunk) const {
  if (chunk == 0) return 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i)
    if (chunks_[i] == chunk) return static_cast<int>(i) + 1;
  PNP_CHECK_MSG(false, "chunk " << chunk << " not in search space");
  throw Error("unreachable");
}

sim::OmpConfig SearchSpace::config_from_classes(int thread_cls, int sched_cls,
                                                int chunk_cls) const {
  PNP_CHECK(thread_cls >= 0 && thread_cls < num_thread_classes());
  PNP_CHECK(sched_cls >= 0 && sched_cls < num_schedule_classes());
  PNP_CHECK(chunk_cls >= 0 && chunk_cls < num_chunk_classes());
  sim::OmpConfig cfg;
  cfg.threads = threads_[static_cast<std::size_t>(thread_cls)];
  cfg.schedule = schedules_[static_cast<std::size_t>(sched_cls)];
  cfg.chunk = (chunk_cls == 0) ? 0 : chunks_[static_cast<std::size_t>(chunk_cls - 1)];
  return cfg;
}

int SearchSpace::cap_index(double cap_w) const {
  for (std::size_t i = 0; i < caps_.size(); ++i)
    if (std::abs(caps_[i] - cap_w) < 1e-9) return static_cast<int>(i);
  PNP_CHECK_MSG(false, "cap " << cap_w << " W not in search space");
  throw Error("unreachable");
}

}  // namespace pnp::core
