#include "nn/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

namespace pnp::nn {

namespace {

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

bool lifetimes_overlap(const TensorSpec& a, const TensorSpec& b) {
  return a.first_use <= b.last_use && b.first_use <= a.last_use;
}

}  // namespace

void ArenaPlan::index_error(std::size_t i) const {
  throw Error("arena tensor index " + std::to_string(i) +
              " out of range [0, " + std::to_string(tensors_.size()) + ")");
}

void Arena::type_error(const PlannedTensor& t) {
  throw Error("arena tensor '" + t.spec.name + "' (" +
              std::to_string(t.spec.bytes) + " bytes, align " +
              std::to_string(t.spec.align) +
              ") is not viewable as this type");
}

ArenaPlan ArenaPlan::build(std::vector<TensorSpec> specs) {
  for (const TensorSpec& s : specs) {
    PNP_CHECK_MSG(s.last_use >= s.first_use,
                  "arena tensor '" << s.name << "' has last_use "
                                   << s.last_use << " < first_use "
                                   << s.first_use);
    PNP_CHECK_MSG(s.align > 0 && (s.align & (s.align - 1)) == 0,
                  "arena tensor '" << s.name << "' alignment " << s.align
                                   << " is not a power of two");
  }

  // Place largest first so big tensors claim low offsets and small ones
  // fill the gaps; ties broken by first_use then original index so the
  // plan is a deterministic function of the specs.
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    if (specs[i].bytes != specs[j].bytes) return specs[i].bytes > specs[j].bytes;
    if (specs[i].first_use != specs[j].first_use)
      return specs[i].first_use < specs[j].first_use;
    return i < j;
  });

  ArenaPlan plan;
  plan.tensors_.resize(specs.size());
  std::vector<bool> placed(specs.size(), false);
  for (const std::size_t i : order) {
    const TensorSpec& s = specs[i];
    // First-fit: the candidate offsets worth trying are 0 and the aligned
    // end of each conflicting tensor already placed — any other offset is
    // dominated by one of these.
    std::vector<std::size_t> candidates{0};
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (!placed[j] || !lifetimes_overlap(s, specs[j])) continue;
      candidates.push_back(
          align_up(plan.tensors_[j].offset + specs[j].bytes, s.align));
    }
    std::sort(candidates.begin(), candidates.end());
    std::size_t chosen = 0;
    for (const std::size_t cand : candidates) {
      bool clash = false;
      for (std::size_t j = 0; j < specs.size() && !clash; ++j) {
        if (!placed[j] || !lifetimes_overlap(s, specs[j])) continue;
        const std::size_t jo = plan.tensors_[j].offset;
        clash = cand < jo + specs[j].bytes && jo < cand + s.bytes;
      }
      if (!clash) {
        chosen = cand;
        break;
      }
    }
    plan.tensors_[i] = PlannedTensor{s, chosen};
    placed[i] = true;
    plan.total_ = std::max(plan.total_, chosen + s.bytes);
  }
  for (std::size_t i = 0; i < specs.size(); ++i)
    plan.tensors_[i].spec = std::move(specs[i]);
  return plan;
}

void Arena::reset(ArenaPlan plan) {
  plan_ = std::move(plan);
  constexpr std::size_t kAlign = 64;
  storage_.assign(plan_.total_bytes() + kAlign, static_cast<unsigned char>(0));
  const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
  base_ = storage_.data() + (align_up(addr, kAlign) - addr);
}

}  // namespace pnp::nn
