#pragma once

/// \file arena.hpp
/// Static workspace planning for the serving fast path: given the set of
/// scratch tensors one request touches — each with a byte size and a
/// [first_use, last_use] step interval — lay them into ONE contiguous
/// block, reusing bytes between tensors whose lifetimes never overlap
/// (interval-graph coloring in the style of MIGraphX's
/// memory_coloring_impl). Steady-state serving then does zero heap
/// allocations per request and touches a single hot, cache-resident
/// arena instead of eight scattered vectors.
///
/// The planner is deliberately generic (byte sizes + step intervals, no
/// knowledge of the network): serve::ModelState enumerates the dense-phase
/// scratch tensors of run_heads and their use steps, and tests drive the
/// planner with random interval sets to check the two safety properties —
/// tensors with overlapping lifetimes never share bytes, and the arena is
/// never larger than the sum of the individual (aligned) sizes.

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pnp::nn {

/// One scratch tensor's reservation: how many bytes it needs, its
/// alignment, and the step interval during which it holds live data.
/// Steps are abstract integers (0, 1, 2, … in execution order); a tensor
/// is live on every step in [first_use, last_use], inclusive. Two tensors
/// conflict — must not share bytes — iff their intervals intersect.
struct TensorSpec {
  std::string name;        ///< diagnostic only
  std::size_t bytes = 0;   ///< 0 is allowed (e.g. an empty feature slot)
  int first_use = 0;       ///< step of the first write
  int last_use = 0;        ///< step of the last read (>= first_use)
  std::size_t align = 64;  ///< power of two; 64 keeps tensors line-aligned
};

/// A planned tensor: its spec plus the byte offset assigned in the arena.
struct PlannedTensor {
  TensorSpec spec;
  std::size_t offset = 0;
};

/// The result of planning: per-tensor offsets (in the ORIGINAL spec
/// order, so callers can index by the enum they built the specs with) and
/// the total arena size.
class ArenaPlan {
 public:
  ArenaPlan() = default;

  /// Assign offsets with lifetime-based reuse. Tensors are placed largest
  /// first; each takes the lowest aligned offset that does not overlap
  /// any already-placed tensor with a conflicting lifetime (first-fit).
  /// The plan is a pure function of the specs. Throws pnp::Error on a
  /// malformed spec (last_use < first_use, non-power-of-two alignment).
  static ArenaPlan build(std::vector<TensorSpec> specs);

  std::size_t size() const { return tensors_.size(); }
  bool empty() const { return tensors_.empty(); }
  const PlannedTensor& at(std::size_t i) const {
    if (i >= tensors_.size()) index_error(i);
    return tensors_[i];
  }
  std::size_t offset(std::size_t i) const { return at(i).offset; }

  /// Bytes the arena must hold (max over tensors of offset + bytes).
  std::size_t total_bytes() const { return total_; }

 private:
  /// Throws pnp::Error for an out-of-range index. The failure path is out
  /// of line so at() and Arena::data() stay small enough for the compiler
  /// to inline into the per-query serving path.
  [[noreturn]] void index_error(std::size_t i) const;

  std::vector<PlannedTensor> tensors_;
  std::size_t total_ = 0;
};

/// One contiguous, 64-byte-aligned buffer realized from a plan, with
/// typed views of each planned tensor. reset() re-plans (allocating) —
/// intended only for first use and model reloads; between resets every
/// view is stable and no member function allocates.
class Arena {
 public:
  Arena() = default;
  explicit Arena(ArenaPlan plan) { reset(std::move(plan)); }

  void reset(ArenaPlan plan);

  const ArenaPlan& plan() const { return plan_; }
  std::size_t bytes() const { return plan_.total_bytes(); }

  /// Raw pointer to planned tensor `i`, cast to T*. The tensor's byte
  /// size must be a multiple of sizeof(T) and its alignment at least
  /// alignof(T) (checked).
  template <class T>
  T* data(std::size_t i) {
    const PlannedTensor& t = plan_.at(i);
    if (t.spec.bytes % sizeof(T) != 0 || t.spec.align % alignof(T) != 0)
      type_error(t);
    return reinterpret_cast<T*>(base_ + t.offset);
  }

  template <class T>
  const T* data(std::size_t i) const {
    const PlannedTensor& t = plan_.at(i);
    if (t.spec.bytes % sizeof(T) != 0 || t.spec.align % alignof(T) != 0)
      type_error(t);
    return reinterpret_cast<const T*>(base_ + t.offset);
  }

  /// Number of T elements planned tensor `i` holds.
  template <class T>
  std::size_t count(std::size_t i) const {
    return plan_.at(i).spec.bytes / sizeof(T);
  }

 private:
  /// Throws pnp::Error: tensor `t` is not viewable as the requested type
  /// (out of line, as ArenaPlan::index_error).
  [[noreturn]] static void type_error(const PlannedTensor& t);

  ArenaPlan plan_;
  std::vector<unsigned char> storage_;  ///< total_bytes() + alignment slack
  unsigned char* base_ = nullptr;       ///< 64-byte-aligned start
};

}  // namespace pnp::nn
