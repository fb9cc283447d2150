#pragma once

/// \file config_search.hpp
/// Model-guided search over the factored head logits.
///
/// A factored model scores a joint configuration as the SUM of its
/// per-dimension head logits (cap + thread + schedule + chunk). Because
/// that sum is maximized by the per-head argmax tuple, the production
/// decode is a two-step protocol:
///
///   1. Fast path: take the per-head argmax tuple (exactly the historic
///      independent-argmax decode). If every logit is finite and the
///      constraint layer admits it, it IS the joint argmax — done. On
///      constraint-free spaces (the paper's Table I grids) this is
///      bit-identical to the pre-refactor behavior and costs nothing
///      extra. A NaN or infinite logit breaks the argmax-sum argument
///      (NaN sums never compare greater; infinite sums tie), so such
///      logits always take step 2.
///   2. Constrained search: an exact bounded scan. It walks cap → thread
///      → schedule → chunk in lexicographic order with the exhaustive
///      oracle's strictly-greater update, skips thread classes a
///      thread-only rule forbids at the cap (the default thread count's
///      class excepted), and skips any thread or schedule subtree whose
///      best possible sum cannot beat the best tuple found so far.
///      Rounded addition is monotone, so the bound is exact and the
///      answer equals `exhaustive_*` bit for bit; it allocates nothing.
///      If the constraint layer prunes every tuple it falls back to the
///      machine default configuration (the default is always valid, so
///      serving can never fail to answer).
///
/// Ties break deterministically: higher score first, then lexicographic
/// ascending (cap, thread, schedule, chunk) class order — the same "first
/// maximum wins" protocol as `nn::argmax_index`. `exhaustive_*` scan the
/// entire class grid with the same scoring and tie-break and are the test
/// oracle: `search_*` must match them bit-for-bit.

#include <span>

#include "core/search_space.hpp"

namespace pnp::core {

/// Outcome of a model-guided search: the chosen class tuple, its score
/// (sum of the per-head logits, summed in cap→thread→sched→chunk order),
/// and whether the constraint layer forced the default-config fallback.
struct SearchChoice {
  int cap_cls = 0;
  int thread_cls = 0;
  int sched_cls = 0;
  int chunk_cls = 0;
  double score = 0.0;
  bool used_fallback = false;
};

/// Power mode: the cap is part of the query, so only the thread/schedule/
/// chunk heads are searched. `cap_w` feeds the constraint layer.
template <typename T>
SearchChoice search_power(const SearchSpace& space, double cap_w,
                          std::span<const T> thread_logits,
                          std::span<const T> sched_logits,
                          std::span<const T> chunk_logits);

/// EDP mode: the cap head is searched jointly with the config heads.
template <typename T>
SearchChoice search_edp(const SearchSpace& space,
                        std::span<const T> cap_logits,
                        std::span<const T> thread_logits,
                        std::span<const T> sched_logits,
                        std::span<const T> chunk_logits);

/// Exhaustive oracles: scan every class tuple in lexicographic order,
/// keep the best constraint-valid one (strictly-greater update == the
/// tie-break protocol above). O(joint class grid) — tests and benchmarks.
template <typename T>
SearchChoice exhaustive_power(const SearchSpace& space, double cap_w,
                              std::span<const T> thread_logits,
                              std::span<const T> sched_logits,
                              std::span<const T> chunk_logits);

template <typename T>
SearchChoice exhaustive_edp(const SearchSpace& space,
                            std::span<const T> cap_logits,
                            std::span<const T> thread_logits,
                            std::span<const T> sched_logits,
                            std::span<const T> chunk_logits);

/// Dense (one-logit-per-config) layout: validity-filtered argmax over the
/// flat class grid. Strictly-greater updates in index order — the same
/// first-max-wins tie-break as `nn::argmax_index`, so on an unconstrained
/// space this equals argmax_index(logits) exactly. For EDP layouts the
/// flat index is cap-majored and `cap_w` is ignored. Like `search_*`, it
/// answers from the plain argmax when every logit is finite and the
/// constraint layer admits it. Returns -1 when the constraint layer
/// prunes every class (callers fall back to the default config).
template <typename T>
int dense_argmax_valid(const SearchSpace& space, std::span<const T> logits,
                       bool edp_scenario, double cap_w);

}  // namespace pnp::core
