#pragma once

/// \file config_search.hpp
/// Constraint-aware decode of the classifier logits.
///
/// A factored model scores a joint configuration as the SUM of its
/// per-dimension head logits (cap + thread + schedule + chunk), summed in
/// that order in double. The constrained argmax is found in two steps:
///
///   1. Fast path: the per-head argmax tuple attains the maximum sum. If
///      the constraint layer admits it and no lexicographically earlier
///      tuple can round to the same sum, it is the answer. On
///      constraint-free spaces (the paper's Table I grids) this is the
///      historic independent-argmax decode.
///   2. Exact scan: otherwise. Every rule touches at most two axes, so the
///      search splits: thread-only rules give one thread bound per cap
///      (`SearchSpace::max_valid_threads`), and the cap-independent rules
///      are a per-(thread, schedule) chunk table built with the space
///      (`SearchSpace::chunk_validity`). The chunk logits are ordered
///      once; each (thread, schedule) pair then takes its best admitted
///      chunk. No `is_valid` call runs per candidate.
///
/// Ties break as in `nn::argmax_index`: the first maximum in
/// lexicographic (cap, thread, schedule, chunk) order wins, including
/// ties that FP rounding creates (`ss + a == ss + b` with `a != b`).
/// `search_*` therefore equal `exhaustive_*` bit for bit, score included;
/// the exhaustive scans are the test oracle. The default configuration is
/// valid at every cap, so every query has an answer.

#include <span>

#include "core/search_space.hpp"

namespace pnp::core {

/// Outcome of a search: the chosen class tuple, its score (the sum of the
/// per-head logits in cap→thread→sched→chunk order) and, for `search_*`,
/// whether the constraint layer rejected the per-head argmax tuple.
struct SearchChoice {
  int cap_cls = 0;
  int thread_cls = 0;
  int sched_cls = 0;
  int chunk_cls = 0;
  double score = 0.0;
  bool argmax_pruned = false;
};

/// Power mode: the cap is part of the query, so only the thread/schedule/
/// chunk heads are searched (cap_cls is -1). `cap_w` may be any wattage.
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

/// Exhaustive oracles: scan every class tuple in lexicographic order and
/// keep the best constraint-valid one (strictly-greater update == the
/// tie-break above). O(joint class grid) — tests and benchmarks.
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
/// flat index is cap-majored and `cap_w` is ignored. Returns -1 when the
/// constraint layer prunes every class.
template <typename T>
int dense_argmax_valid(const SearchSpace& space, std::span<const T> logits,
                       bool edp_scenario, double cap_w);

/// One decoded prediction. `cap_index` is the chosen cap class in EDP
/// mode and -1 in power mode; `argmax_pruned` reports that the
/// constraint layer rejected the unconstrained argmax.
struct Decoded {
  int cap_index = -1;
  sim::OmpConfig cfg;
  bool argmax_pruned = false;
};

/// The logits → configuration decode shared by PnpTuner and the serving
/// ModelState, at either precision. `logits` is the classifier's full
/// output: factored heads ([cap |] thread | sched | chunk) go through
/// `search_*`; the dense layout takes its flat argmax, or
/// `dense_argmax_valid` when that is pruned. `cap_w` is the power-mode
/// query cap and is ignored in EDP mode.
template <typename T>
Decoded decode_logits(const SearchSpace& space, bool factored, bool edp,
                      std::span<const T> logits, double cap_w);

}  // namespace pnp::core
