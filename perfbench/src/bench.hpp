#pragma once

/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark (perfbench/NOTES.md): the
/// metric report, the in-memory span trace, host-state sampling and exact
/// quantiles. The two halves of a run — the wire loop against a live
/// pnp_served (wire.cpp) and the in-process train/eval loop
/// (train_eval.cpp) — both report through these.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pnp::core {
class MeasurementDb;
class PnpTuner;
}  // namespace pnp::core

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the one time base of every span
/// and latency sample.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact q-quantile (nearest rank, q in (0, 1]) of a sample; reorders
/// `v`. Requires a non-empty sample.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Metrics by name, each with its unit; failures counted against
/// attempts. `end_to_end` metrics are printed by untraced runs and
/// `per_layer` ones by traced runs (BENCHMARK.json lists both).
class Report {
 public:
  void end_to_end(const std::string& name, double value, const char* unit);
  void per_layer(const std::string& name, double value, const char* unit);

  /// Count `n` attempted operations, `failed` of which were wrong.
  void attempt(std::uint64_t n, std::uint64_t failed = 0);
  /// Count one failed operation and log why (first few only).
  void fail(const std::string& why);
  /// A check that is not itself an operation (a drain exit code, a
  /// deterministic quality value): a false `ok` is one failed attempt.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// the end-to-end or the per-layer metrics.
  std::string json(bool per_layer) const;
  /// Every metric, one per line, for stderr and the results file.
  std::string text() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> e2e_, layer_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  int logged_ = 0;
};

/// One timed interval recorded by the benchmark around a call into a
/// layer's public functions. Spans of one wire request share `request`.
struct Span {
  const char* name = "";  ///< static string: the layer function
  std::int64_t start = 0, end = 0;  ///< now_ns()
  std::uint64_t id = 0, parent = 0;  ///< parent 0 = root
  std::uint64_t request = 0;  ///< wire request id, 0 = none
};

/// In-memory span store. Each recording thread takes its own Buffer, so
/// recording takes no lock; disabled traces record nothing.
class Trace {
 public:
  class Buffer {
   public:
    /// Record [start, end) and return the span id (0 when disabled).
    /// `id` 0 allocates a fresh id; a caller that must name a span before
    /// it ends (a wire request's root) passes its own.
    std::uint64_t add(const char* name, std::int64_t start, std::int64_t end,
                      std::uint64_t parent = 0, std::uint64_t request = 0,
                      std::uint64_t id = 0);
    bool on() const { return on_; }

   private:
    friend class Trace;
    bool on_ = false;
    std::uint64_t base_ = 0, next_ = 0;
    std::vector<Span> spans_;
  };

  explicit Trace(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// A fresh buffer owned by the trace (valid for its lifetime).
  Buffer& buffer();

  /// Durations (ns) of every span named `name`, across all buffers.
  std::vector<double> durations(const std::string& name) const;
  /// Write every span as one JSON document (at most `per_name_cap` spans
  /// per name, to keep the file small; metrics use all of them).
  void write(const std::string& path, std::size_t per_name_cap) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Host state recorded around every phase (never used to drop or retry a
/// run): CPU steal share since the previous sample, and the wall time of a
/// fixed integer loop.
class HostRecord {
 public:
  /// Sample /proc/stat and time the reference loop; `label` names the
  /// phase boundary in the log.
  void sample(const std::string& label);
  /// Steal ticks / all ticks over every interval sampled so far.
  double steal_share() const;
  std::vector<double> ref_loop_ms() const { return ref_ms_; }
  /// One line per sample, for the results file.
  std::string text() const;

 private:
  struct Cpu {
    std::uint64_t total = 0, steal = 0;
  };
  static Cpu read_cpu();
  std::vector<std::string> labels_;
  std::vector<Cpu> cpu_;
  std::vector<double> ref_ms_;
};

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
/// Returns 0 when /proc cannot be read.
double peak_rss_mb(int pid = 0);

/// Command-line settings shared by both loops.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< results and traces (inside the checkout)
  std::string served_bin;  ///< the pnp_served executable
  std::string run_dir;     ///< this run's files, removed when it ends
};

/// A directory of per-run files (artifact, socket, observe log, daemon
/// logs), removed when the run ends however it ends.
struct RunDir {
  explicit RunDir(std::filesystem::path p);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  std::filesystem::path path;
};

/// The wire loop's measured phases run as this many rounds of (r10k, r40k,
/// sat), with an in-process timing slice after each, so every metric's
/// samples spread over the whole run and a host episode of a few seconds
/// cannot cover most of them.
constexpr int kWireRounds = 4;

/// Each loop builds its set-up this many times and reports the median.
constexpr int kSetups = 5;

/// What each loop contributes to the shared set-up and memory metrics.
struct LoopCost {
  double setup_s = 0.0;      ///< median of the loop's repeated set-ups
  double peak_rss_mb = 0.0;  ///< VmHWM of the process that did the work
};

/// What the daemon serves: a fixed-seed scalar-cap power tuner on
/// Haswell's Table I space over the 68 suite regions (the db pnp_served
/// builds), trained in this run and saved to `path`.
struct ServedModel {
  const pnp::core::MeasurementDb& db;
  const pnp::core::PnpTuner& tuner;
  std::string path;
};

/// The wire loop: launch pnp_served on `model`, drive the workload's
/// phases over one connection, drain it, and report. `between_rounds`
/// runs after each round of measured phases, while the daemon idles.
LoopCost run_wire(const Settings& s, const ServedModel& model, Report& report,
                  Trace& trace, HostRecord& host,
                  const std::function<void()>& between_rounds);

/// The in-process loop. Construction does the set-up (corpus, dbs and
/// graphs, kSetups times), trains the quality models and the served model
/// once and reports the quality; time_slice() adds timing samples
/// (training from scratch, transfer training, batched prediction) and is
/// called between wire rounds so the samples spread over the whole run;
/// finish() reports the timings and, in traced runs, probes the layers.
class TrainEval {
 public:
  TrainEval(const Settings& s, Report& report, Trace& trace, HostRecord& host);
  ~TrainEval();
  TrainEval(const TrainEval&) = delete;
  TrainEval& operator=(const TrainEval&) = delete;

  ServedModel served() const;
  void time_slice(double seconds);
  /// The loop's set-up time, and the process's VmHWM as it stood at the
  /// end of construction, before the wire loop's client buffers exist.
  LoopCost finish();

 private:
  struct State;
  std::unique_ptr<State> st_;
};

}  // namespace perfbench
