/// \file main.cpp
/// pnp_perfbench: the end-to-end benchmark of the PnP tuner
/// (perfbench/NOTES.md). One run trains and evaluates in process, drives
/// the serving daemon over the wire in rounds with in-process timing
/// slices between them, checks every output, and prints the metrics as
/// one JSON line:
///
///   pnp_perfbench --workload wire-table1|wire-observe --seed N
///                 --seconds S --trace 0|1 --work-dir DIR --served BIN
///
/// Untraced runs print the end-to-end metrics, traced runs the per-layer
/// ones and write the span trace to DIR/traces/. Exit code 0 with a
/// result line, 1 when the benchmark itself could not run, 2 bad usage.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: pnp_perfbench --workload wire-table1|wire-observe "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "--served PATH\n");
  std::exit(2);
}

perfbench::Settings parse(int argc, char** argv) {
  perfbench::Settings s;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") s.workload = v;
      else if (flag == "--seed") s.seed = std::stoull(v);
      else if (flag == "--seconds") s.seconds = std::stod(v);
      else if (flag == "--trace") s.trace = std::stoi(v) != 0;
      else if (flag == "--work-dir") s.work_dir = v;
      else if (flag == "--served") s.served_bin = v;
      else usage();
    } catch (const std::logic_error&) {
      usage();
    }
  }
  if ((s.workload != "wire-table1" && s.workload != "wire-observe") ||
      s.seconds <= 0 || s.work_dir.empty() || s.served_bin.empty())
    usage();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Settings s = parse(argc, argv);
  try {
    namespace fs = std::filesystem;
    fs::create_directories(s.work_dir);
    const perfbench::RunDir run_dir(fs::path(s.work_dir) /
                                    ("run-" + std::to_string(::getpid())));
    s.run_dir = run_dir.path.string();
    perfbench::Report report;
    perfbench::Trace trace(s.trace);
    perfbench::HostRecord host;
    host.sample("start");
    // The in-process timings run in slices between the wire rounds, so
    // both loops' samples spread over the whole run.
    perfbench::TrainEval train_eval(s, report, trace, host);
    const auto wire = perfbench::run_wire(
        s, train_eval.served(), report, trace, host, [&] {
          train_eval.time_slice(0.35 * s.seconds / perfbench::kWireRounds);
        });
    const auto train = train_eval.finish();
    host.sample("end");

    // Set-up and memory cover both loops: the daemon's launch to first
    // reply plus the in-process corpus/db/graph build, and the daemon's
    // peak resident set plus the in-process loop's (sampled before the
    // wire client allocates its buffers).
    report.end_to_end("setup_s", wire.setup_s + train.setup_s, "s");
    report.end_to_end("peak_rss_mb", wire.peak_rss_mb + train.peak_rss_mb,
                      "MiB");
    report.per_layer("host.steal_share", host.steal_share(), "ratio");
    report.per_layer("host.ref_loop_ms", perfbench::median(host.ref_loop_ms()),
                     "ms");

    const std::string tag =
        s.workload + "-seed" + std::to_string(s.seed) + (s.trace ? "-trace" : "");
    fs::create_directories(fs::path(s.work_dir) / "results");
    std::ofstream(fs::path(s.work_dir) / "results" / (tag + ".txt"))
        << report.text() << host.text();
    if (s.trace) {
      fs::create_directories(fs::path(s.work_dir) / "traces");
      const auto path = fs::path(s.work_dir) / "traces" / (tag + ".json");
      trace.write(path.string(), 5000);
      std::cerr << "trace written to " << path.string() << "\n";
    }
    std::cerr << report.text() << host.text();
    std::cout << report.json(s.trace) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnp_perfbench: error: %s\n", e.what());
    return 1;
  }
}
