#include "core/config_search.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/tuner_artifact.hpp"
#include "nn/loss.hpp"

namespace pnp::core {

namespace {

/// Class tuple of the machine default configuration — the guaranteed
/// fallback (always constraint-valid, always representable as a label).
template <typename T>
SearchChoice default_choice(const SearchSpace& space, int cap_cls,
                            double cap_base_score,
                            std::span<const T> thread_logits,
                            std::span<const T> sched_logits,
                            std::span<const T> chunk_logits) {
  const sim::OmpConfig def = space.default_config();
  SearchChoice c;
  c.cap_cls = cap_cls;
  c.thread_cls = space.thread_class(def.threads);
  for (std::size_t i = 0; i < space.schedule_values().size(); ++i)
    if (space.schedule_values()[i] == def.schedule)
      c.sched_cls = static_cast<int>(i);
  c.chunk_cls = 0;
  c.score = cap_base_score +
            static_cast<double>(thread_logits[static_cast<std::size_t>(c.thread_cls)]);
  c.score += static_cast<double>(sched_logits[static_cast<std::size_t>(c.sched_cls)]);
  c.score += static_cast<double>(chunk_logits[static_cast<std::size_t>(c.chunk_cls)]);
  c.used_fallback = true;
  return c;
}

/// What every decoder serves when the constraint layer prunes every tuple:
/// the machine default (always valid) — in EDP mode at the cap whose
/// default tuple scores best. Power mode passes empty `cap_logits`.
template <typename T>
SearchChoice pruned_fallback(const SearchSpace& space,
                             std::span<const T> cap_logits,
                             std::span<const T> thread_logits,
                             std::span<const T> sched_logits,
                             std::span<const T> chunk_logits) {
  if (cap_logits.empty())
    return default_choice(space, -1, 0.0, thread_logits, sched_logits,
                          chunk_logits);
  SearchChoice best{};
  for (std::size_t c = 0; c < cap_logits.size(); ++c) {
    const SearchChoice cand = default_choice(
        space, static_cast<int>(c), static_cast<double>(cap_logits[c]),
        thread_logits, sched_logits, chunk_logits);
    if (c == 0 || cand.score > best.score) best = cand;
  }
  return best;
}

/// True when no logit is NaN or infinite — the precondition of the
/// argmax fast paths: a NaN sum never compares greater and infinite sums
/// tie, so with such logits the argmax tuple need not be the answer.
template <typename T>
bool all_finite(std::span<const T> xs) {
  for (const T x : xs)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Largest logit of a head, NaN entries skipped: a NaN logit makes every
/// sum through it NaN, which never wins a strictly-greater update, so it
/// needs no bound.
template <typename T>
double head_max(std::span<const T> xs) {
  double m = -std::numeric_limits<double>::infinity();
  for (const T x : xs)
    if (static_cast<double>(x) > m) m = static_cast<double>(x);
  return m;
}

/// One cap's share of the exact scan: `exhaustive_*`'s lexicographic
/// thread → schedule → chunk loop and strictly-greater update, minus the
/// work that cannot change its answer.
///  - Thread classes above `max_valid_threads(cap_w)` hold no valid tuple
///    except the default's, so only the default thread count's class is
///    entered among them.
///  - Once a tuple is found, a subtree whose score bound is <= the best
///    score cannot beat it: rounded addition is monotone, so
///    st + s + k <= (st + max_s) + max_k exactly. A NaN bound compares
///    false and never prunes.
template <typename T>
void scan_cap(const SearchSpace& space, int cap_cls, double cap_w,
              double base, std::span<const T> thread_logits,
              std::span<const T> sched_logits,
              std::span<const T> chunk_logits, double max_s, double max_k,
              SearchChoice& best, bool& found) {
  const std::vector<int>& threads = space.thread_values();
  const int def_threads = space.default_config().threads;
  const int tmax = space.max_valid_threads(cap_w);
  for (std::size_t t = 0; t < thread_logits.size(); ++t) {
    if (threads[t] > tmax && threads[t] != def_threads) continue;
    const double st = base + static_cast<double>(thread_logits[t]);
    if (found && (st + max_s) + max_k <= best.score) continue;
    for (std::size_t s = 0; s < sched_logits.size(); ++s) {
      const double ss = st + static_cast<double>(sched_logits[s]);
      if (found && ss + max_k <= best.score) continue;
      for (std::size_t k = 0; k < chunk_logits.size(); ++k) {
        // The score test first: a tuple that cannot win needs no
        // validity check.
        const double sk = ss + static_cast<double>(chunk_logits[k]);
        if (found && !(sk > best.score)) continue;
        const sim::OmpConfig cfg = space.config_from_classes(
            static_cast<int>(t), static_cast<int>(s), static_cast<int>(k));
        if (!space.is_valid(cfg, cap_w)) continue;
        best = {cap_cls, static_cast<int>(t), static_cast<int>(s),
                static_cast<int>(k), sk, false};
        found = true;
      }
    }
  }
}

/// The constrained decode: the exhaustive argmax, bit for bit, computed
/// by a bounded scan with no allocation. Power mode passes empty
/// `cap_logits` and the query's `fixed_cap_w`.
template <typename T>
SearchChoice exact_scan(const SearchSpace& space, double fixed_cap_w,
                        std::span<const T> cap_logits,
                        std::span<const T> thread_logits,
                        std::span<const T> sched_logits,
                        std::span<const T> chunk_logits) {
  const double max_s = head_max(sched_logits);
  const double max_k = head_max(chunk_logits);
  SearchChoice best{};
  bool found = false;
  if (cap_logits.empty()) {
    scan_cap(space, -1, fixed_cap_w, 0.0, thread_logits, sched_logits,
             chunk_logits, max_s, max_k, best, found);
  } else {
    for (std::size_t c = 0; c < cap_logits.size(); ++c)
      scan_cap(space, static_cast<int>(c), space.power_caps()[c],
               static_cast<double>(cap_logits[c]), thread_logits,
               sched_logits, chunk_logits, max_s, max_k, best, found);
  }
  if (!found)
    return pruned_fallback(space, cap_logits, thread_logits, sched_logits,
                           chunk_logits);
  return best;
}

}  // namespace

template <typename T>
SearchChoice search_power(const SearchSpace& space, double cap_w,
                          std::span<const T> thread_logits,
                          std::span<const T> sched_logits,
                          std::span<const T> chunk_logits) {
  PNP_CHECK(static_cast<int>(thread_logits.size()) == space.num_thread_classes());
  PNP_CHECK(static_cast<int>(sched_logits.size()) == space.num_schedule_classes());
  PNP_CHECK(static_cast<int>(chunk_logits.size()) == space.num_chunk_classes());
  // Fast path: the per-head argmax tuple attains the maximum joint sum, so
  // if the constraint layer admits it, it is the joint argmax — no search.
  const int ti = nn::argmax_index(thread_logits);
  const int si = nn::argmax_index(sched_logits);
  const int ki = nn::argmax_index(chunk_logits);
  if (space.is_valid(space.config_from_classes(ti, si, ki), cap_w) &&
      all_finite(thread_logits) && all_finite(sched_logits) &&
      all_finite(chunk_logits)) {
    double score = 0.0 + static_cast<double>(thread_logits[static_cast<std::size_t>(ti)]);
    score += static_cast<double>(sched_logits[static_cast<std::size_t>(si)]);
    score += static_cast<double>(chunk_logits[static_cast<std::size_t>(ki)]);
    return {-1, ti, si, ki, score, false};
  }
  return exact_scan<T>(space, cap_w, {}, thread_logits, sched_logits,
                       chunk_logits);
}

template <typename T>
SearchChoice search_edp(const SearchSpace& space, std::span<const T> cap_logits,
                        std::span<const T> thread_logits,
                        std::span<const T> sched_logits,
                        std::span<const T> chunk_logits) {
  PNP_CHECK(static_cast<int>(cap_logits.size()) == space.num_cap_classes());
  PNP_CHECK(static_cast<int>(thread_logits.size()) == space.num_thread_classes());
  PNP_CHECK(static_cast<int>(sched_logits.size()) == space.num_schedule_classes());
  PNP_CHECK(static_cast<int>(chunk_logits.size()) == space.num_chunk_classes());
  const int ci = nn::argmax_index(cap_logits);
  const int ti = nn::argmax_index(thread_logits);
  const int si = nn::argmax_index(sched_logits);
  const int ki = nn::argmax_index(chunk_logits);
  const double cap_w = space.power_caps()[static_cast<std::size_t>(ci)];
  if (space.is_valid(space.config_from_classes(ti, si, ki), cap_w) &&
      all_finite(cap_logits) && all_finite(thread_logits) &&
      all_finite(sched_logits) && all_finite(chunk_logits)) {
    double score = static_cast<double>(cap_logits[static_cast<std::size_t>(ci)]);
    score += static_cast<double>(thread_logits[static_cast<std::size_t>(ti)]);
    score += static_cast<double>(sched_logits[static_cast<std::size_t>(si)]);
    score += static_cast<double>(chunk_logits[static_cast<std::size_t>(ki)]);
    return {ci, ti, si, ki, score, false};
  }
  return exact_scan(space, 0.0, cap_logits, thread_logits, sched_logits,
                    chunk_logits);
}

template <typename T>
SearchChoice exhaustive_power(const SearchSpace& space, double cap_w,
                              std::span<const T> thread_logits,
                              std::span<const T> sched_logits,
                              std::span<const T> chunk_logits) {
  PNP_CHECK(static_cast<int>(thread_logits.size()) == space.num_thread_classes());
  PNP_CHECK(static_cast<int>(sched_logits.size()) == space.num_schedule_classes());
  PNP_CHECK(static_cast<int>(chunk_logits.size()) == space.num_chunk_classes());
  SearchChoice best{};
  bool found = false;
  for (std::size_t t = 0; t < thread_logits.size(); ++t) {
    const double st = 0.0 + static_cast<double>(thread_logits[t]);
    for (std::size_t s = 0; s < sched_logits.size(); ++s) {
      const double ss = st + static_cast<double>(sched_logits[s]);
      for (std::size_t k = 0; k < chunk_logits.size(); ++k) {
        const sim::OmpConfig cfg = space.config_from_classes(
            static_cast<int>(t), static_cast<int>(s), static_cast<int>(k));
        if (!space.is_valid(cfg, cap_w)) continue;
        const double sk = ss + static_cast<double>(chunk_logits[k]);
        if (!found || sk > best.score) {
          best = {-1, static_cast<int>(t), static_cast<int>(s),
                  static_cast<int>(k), sk, false};
          found = true;
        }
      }
    }
  }
  if (!found)
    return pruned_fallback<T>(space, {}, thread_logits, sched_logits,
                              chunk_logits);
  return best;
}

template <typename T>
SearchChoice exhaustive_edp(const SearchSpace& space,
                            std::span<const T> cap_logits,
                            std::span<const T> thread_logits,
                            std::span<const T> sched_logits,
                            std::span<const T> chunk_logits) {
  PNP_CHECK(static_cast<int>(cap_logits.size()) == space.num_cap_classes());
  SearchChoice best{};
  bool found = false;
  for (std::size_t c = 0; c < cap_logits.size(); ++c) {
    const double cap_w = space.power_caps()[c];
    const double sc = static_cast<double>(cap_logits[c]);
    for (std::size_t t = 0; t < thread_logits.size(); ++t) {
      const double st = sc + static_cast<double>(thread_logits[t]);
      for (std::size_t s = 0; s < sched_logits.size(); ++s) {
        const double ss = st + static_cast<double>(sched_logits[s]);
        for (std::size_t k = 0; k < chunk_logits.size(); ++k) {
          const sim::OmpConfig cfg = space.config_from_classes(
              static_cast<int>(t), static_cast<int>(s), static_cast<int>(k));
          if (!space.is_valid(cfg, cap_w)) continue;
          const double sk = ss + static_cast<double>(chunk_logits[k]);
          if (!found || sk > best.score) {
            best = {static_cast<int>(c), static_cast<int>(t),
                    static_cast<int>(s), static_cast<int>(k), sk, false};
            found = true;
          }
        }
      }
    }
  }
  if (!found)
    return pruned_fallback(space, cap_logits, thread_logits, sched_logits,
                           chunk_logits);
  return best;
}

template <typename T>
int dense_argmax_valid(const SearchSpace& space, std::span<const T> logits,
                       bool edp_scenario, double cap_w) {
  // Fast path, as in search_*: with finite logits the first maximum is
  // the scan's answer whenever the constraint layer admits it.
  const int top = nn::argmax_index(logits);
  const TunerClasses tc = tuner_classes_from_flat(space, top, edp_scenario);
  const double top_w =
      edp_scenario ? space.power_caps()[static_cast<std::size_t>(tc.cap)]
                   : cap_w;
  if (space.is_valid(space.config_from_classes(tc.thread, tc.sched, tc.chunk),
                     top_w) &&
      all_finite(logits))
    return top;
  int best = -1;
  double best_score = 0.0;
  for (int flat = 0; flat < static_cast<int>(logits.size()); ++flat) {
    const TunerClasses c = tuner_classes_from_flat(space, flat, edp_scenario);
    const sim::OmpConfig cfg =
        space.config_from_classes(c.thread, c.sched, c.chunk);
    const double w = edp_scenario
                         ? space.power_caps()[static_cast<std::size_t>(c.cap)]
                         : cap_w;
    if (!space.is_valid(cfg, w)) continue;
    const double score =
        static_cast<double>(logits[static_cast<std::size_t>(flat)]);
    if (best < 0 || score > best_score) {
      best = flat;
      best_score = score;
    }
  }
  return best;
}

// The serving layer scores at both precision tiers.
template SearchChoice search_power<double>(const SearchSpace&, double,
                                           std::span<const double>,
                                           std::span<const double>,
                                           std::span<const double>);
template SearchChoice search_power<float>(const SearchSpace&, double,
                                          std::span<const float>,
                                          std::span<const float>,
                                          std::span<const float>);
template SearchChoice search_edp<double>(const SearchSpace&,
                                         std::span<const double>,
                                         std::span<const double>,
                                         std::span<const double>,
                                         std::span<const double>);
template SearchChoice search_edp<float>(const SearchSpace&,
                                        std::span<const float>,
                                        std::span<const float>,
                                        std::span<const float>,
                                        std::span<const float>);
template SearchChoice exhaustive_power<double>(const SearchSpace&, double,
                                               std::span<const double>,
                                               std::span<const double>,
                                               std::span<const double>);
template SearchChoice exhaustive_power<float>(const SearchSpace&, double,
                                              std::span<const float>,
                                              std::span<const float>,
                                              std::span<const float>);
template SearchChoice exhaustive_edp<double>(const SearchSpace&,
                                             std::span<const double>,
                                             std::span<const double>,
                                             std::span<const double>,
                                             std::span<const double>);
template SearchChoice exhaustive_edp<float>(const SearchSpace&,
                                            std::span<const float>,
                                            std::span<const float>,
                                            std::span<const float>,
                                            std::span<const float>);
template int dense_argmax_valid<double>(const SearchSpace&,
                                        std::span<const double>, bool, double);
template int dense_argmax_valid<float>(const SearchSpace&,
                                       std::span<const float>, bool, double);

}  // namespace pnp::core
