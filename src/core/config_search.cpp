#include "core/config_search.hpp"

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/tuner_artifact.hpp"
#include "nn/loss.hpp"

namespace pnp::core {

namespace {

/// The four head spans; `cap` is empty in power mode.
template <typename T>
struct Heads {
  std::span<const T> cap, thr, sch, chk;

  /// The score of one tuple, summed exactly as the exhaustive scans do.
  double sum(double base, std::size_t t, std::size_t s, std::size_t k) const {
    double v = base + static_cast<double>(thr[t]);
    v += static_cast<double>(sch[s]);
    return v + static_cast<double>(chk[k]);
  }
};

/// True when the per-head argmax tuple (ci, ti, si, ki), whose sum is
/// `top`, is also the first maximum of the joint sum: no lexicographically
/// earlier tuple rounds to `top`. Such a tuple differs first on some axis
/// at a smaller class, and its sum is at most the argmax tuple's with
/// that one class swapped in (FP addition is monotone), so checking each
/// earlier class on each axis suffices. `ci` is 0 in power mode.
template <typename T>
bool argmax_is_first_max(const Heads<T>& h, std::size_t ci, std::size_t ti,
                         std::size_t si, std::size_t ki, double top) {
  for (std::size_t c = 0; c < ci; ++c)
    if (h.sum(static_cast<double>(h.cap[c]), ti, si, ki) >= top) return false;
  const double b = h.cap.empty() ? 0.0 : static_cast<double>(h.cap[ci]);
  for (std::size_t t = 0; t < ti; ++t)
    if (h.sum(b, t, si, ki) >= top) return false;
  for (std::size_t s = 0; s < si; ++s)
    if (h.sum(b, ti, s, ki) >= top) return false;
  for (std::size_t k = 0; k < ki; ++k)
    if (h.sum(b, ti, si, k) >= top) return false;
  return true;
}

/// Exact constrained argmax. Caps (one pseudo-cap with base 0 in power
/// mode) and (thread, schedule) pairs are scanned in lexicographic order
/// with strictly-greater updates, like the exhaustive oracle; within a
/// pair the chunk classes are visited in descending-logit order, so the
/// first admitted one gives the pair's best sum, and the FP-tie run after
/// it yields the smallest chunk class reaching that sum.
template <typename T>
SearchChoice exact_search(const SearchSpace& space, const Heads<T>& h,
                          double cap_w) {
  // Chunk classes by descending logit, ties by ascending class (stable
  // insertion sort: chunk heads are short).
  struct Ranked {
    double logit;
    int cls;
  };
  const std::size_t nc = h.chk.size();
  constexpr std::size_t kInline = 32;  // every built-in space fits
  std::array<Ranked, kInline> inline_ranked{};
  std::vector<Ranked> heap_ranked;
  Ranked* ranked = inline_ranked.data();
  if (nc > kInline) {
    heap_ranked.resize(nc);
    ranked = heap_ranked.data();
  }
  for (std::size_t i = 0; i < nc; ++i) {
    const Ranked r{static_cast<double>(h.chk[i]), static_cast<int>(i)};
    std::size_t j = i;
    for (; j > 0 && ranked[j - 1].logit < r.logit; --j)
      ranked[j] = ranked[j - 1];
    ranked[j] = r;
  }

  const std::vector<int>& threads = space.thread_values();
  const bool edp = !h.cap.empty();
  const std::size_t ncaps = edp ? h.cap.size() : 1;
  SearchChoice best{};
  bool found = false;
  for (std::size_t c = 0; c < ncaps; ++c) {
    const double base = edp ? static_cast<double>(h.cap[c]) : 0.0;
    const int tmax =
        space.max_valid_threads(edp ? space.power_caps()[c] : cap_w);
    for (std::size_t t = 0; t < h.thr.size(); ++t) {
      const double st = base + static_cast<double>(h.thr[t]);
      const std::uint8_t need = threads[t] <= tmax
                                    ? SearchSpace::kChunkAdmitted
                                    : SearchSpace::kChunkExempt;
      for (std::size_t s = 0; s < h.sch.size(); ++s) {
        const double ss = st + static_cast<double>(h.sch[s]);
        // No chunk of this pair can beat the incumbent strictly.
        if (found && ss + ranked[0].logit <= best.score) continue;
        const std::uint8_t* row = space.chunk_validity(
            static_cast<int>(t), static_cast<int>(s));
        std::size_t j = 0;
        while (j < nc && !(row[ranked[j].cls] & need)) ++j;
        if (j == nc) continue;
        int k_best = ranked[j].cls;
        const double top = ss + ranked[j].logit;
        // Later classes whose sum still rounds to `top`: the first wins.
        for (++j; j < nc && ss + ranked[j].logit == top; ++j)
          if ((row[ranked[j].cls] & need) && ranked[j].cls < k_best)
            k_best = ranked[j].cls;
        if (!found || top > best.score) {
          best = {edp ? static_cast<int>(c) : -1, static_cast<int>(t),
                  static_cast<int>(s), k_best, top, false};
          found = true;
        }
      }
    }
  }
  PNP_CHECK_MSG(found, "the default configuration must stay valid");
  return best;
}

/// Fast path, then the exact scan when the argmax tuple is pruned or
/// could tie with an earlier tuple.
template <typename T>
SearchChoice search(const SearchSpace& space, const Heads<T>& h,
                    double cap_w) {
  PNP_CHECK(static_cast<int>(h.thr.size()) == space.num_thread_classes());
  PNP_CHECK(static_cast<int>(h.sch.size()) == space.num_schedule_classes());
  PNP_CHECK(static_cast<int>(h.chk.size()) == space.num_chunk_classes());
  const bool edp = !h.cap.empty();
  const int ci = edp ? nn::argmax_index(h.cap) : -1;
  const auto ti = static_cast<std::size_t>(nn::argmax_index(h.thr));
  const auto si = static_cast<std::size_t>(nn::argmax_index(h.sch));
  const auto ki = static_cast<std::size_t>(nn::argmax_index(h.chk));
  const std::size_t cu = edp ? static_cast<std::size_t>(ci) : 0;
  const double w = edp ? space.power_caps()[cu] : cap_w;
  const std::uint8_t entry = space.chunk_validity(static_cast<int>(ti),
                                                  static_cast<int>(si))[ki];
  const bool admitted =
      (entry & SearchSpace::kChunkExempt) ||
      ((entry & SearchSpace::kChunkAdmitted) &&
       space.thread_values()[ti] <= space.max_valid_threads(w));
  if (admitted) {
    const double top =
        h.sum(edp ? static_cast<double>(h.cap[cu]) : 0.0, ti, si, ki);
    if (argmax_is_first_max(h, cu, ti, si, ki, top))
      return {ci, static_cast<int>(ti), static_cast<int>(si),
              static_cast<int>(ki), top, false};
  }
  SearchChoice c = exact_search(space, h, cap_w);
  c.argmax_pruned = !admitted;
  return c;
}

}  // namespace

template <typename T>
SearchChoice search_power(const SearchSpace& space, double cap_w,
                          std::span<const T> thread_logits,
                          std::span<const T> sched_logits,
                          std::span<const T> chunk_logits) {
  return search<T>(space, {{}, thread_logits, sched_logits, chunk_logits},
                   cap_w);
}

template <typename T>
SearchChoice search_edp(const SearchSpace& space, std::span<const T> cap_logits,
                        std::span<const T> thread_logits,
                        std::span<const T> sched_logits,
                        std::span<const T> chunk_logits) {
  PNP_CHECK(static_cast<int>(cap_logits.size()) == space.num_cap_classes());
  return search<T>(space,
                   {cap_logits, thread_logits, sched_logits, chunk_logits},
                   0.0);
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
  PNP_CHECK_MSG(found, "the default configuration must stay valid");
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
  PNP_CHECK_MSG(found, "the default configuration must stay valid");
  return best;
}

template <typename T>
int dense_argmax_valid(const SearchSpace& space, std::span<const T> logits,
                       bool edp_scenario, double cap_w) {
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

template <typename T>
Decoded decode_logits(const SearchSpace& space, bool factored, bool edp,
                      std::span<const T> logits, double cap_w) {
  Decoded d;
  if (factored) {
    const auto np = static_cast<std::size_t>(edp ? space.num_cap_classes() : 0);
    const auto nt = static_cast<std::size_t>(space.num_thread_classes());
    const auto ns = static_cast<std::size_t>(space.num_schedule_classes());
    const auto nc = static_cast<std::size_t>(space.num_chunk_classes());
    const Heads<T> h{logits.subspan(0, np), logits.subspan(np, nt),
                     logits.subspan(np + nt, ns),
                     logits.subspan(np + nt + ns, nc)};
    const SearchChoice c = search<T>(space, h, cap_w);
    d.cap_index = c.cap_cls;
    d.cfg = space.config_from_classes(c.thread_cls, c.sched_cls, c.chunk_cls);
    d.argmax_pruned = c.argmax_pruned;
    return d;
  }
  int flat = nn::argmax_index(logits);
  TunerClasses tc = tuner_classes_from_flat(space, flat, edp);
  d.cfg = space.config_from_classes(tc.thread, tc.sched, tc.chunk);
  const double w =
      edp ? space.power_caps()[static_cast<std::size_t>(tc.cap)] : cap_w;
  if (!space.is_valid(d.cfg, w)) {
    d.argmax_pruned = true;
    flat = dense_argmax_valid(space, logits, edp, cap_w);
    PNP_CHECK_MSG(flat >= 0, "the default configuration must stay valid");
    tc = tuner_classes_from_flat(space, flat, edp);
    d.cfg = space.config_from_classes(tc.thread, tc.sched, tc.chunk);
  }
  d.cap_index = edp ? tc.cap : -1;
  return d;
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
template Decoded decode_logits<double>(const SearchSpace&, bool, bool,
                                       std::span<const double>, double);
template Decoded decode_logits<float>(const SearchSpace&, bool, bool,
                                      std::span<const float>, double);

}  // namespace pnp::core
