/// \file wire.cpp
/// The wire loop: a freshly launched pnp_served on a unix socket, driven
/// over one connection by a sender thread and a receiver thread
/// (perfbench/NOTES.md, "What one run does"). Every reply is checked
/// against the in-process prediction of the same artifact.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/latency_histogram.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "core/measurement_db.hpp"
#include "core/measurement_log.hpp"
#include "core/pnp_tuner.hpp"
#include "serve/protocol.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace protocol = pnp::serve::protocol;
using pnp::serve::TuneRequest;

namespace {

constexpr int kWorkers = 2;
/// Admission queue: 16384 slots hold 400 ms of 40k req/s, far above any
/// burst a host stall queues, so an unchanged daemon sheds nothing.
constexpr int kQueueDepth = 16384;
/// Closed-loop requests in flight.
constexpr int kWindow = 32;
/// wire-observe: a hot reload every this many requests of the stream.
constexpr std::uint64_t kReloadEvery = 65536;
/// Root span ids of wire requests: this bit plus the request id.
constexpr std::uint64_t kRequestSpan = 1ull << 62;

// --- The daemon process ------------------------------------------------------

/// One pnp_served child. The destructor kills and reaps a daemon that was
/// not stopped, so no process outlives the benchmark; PR_SET_PDEATHSIG
/// covers the benchmark itself dying.
class Daemon {
 public:
  Daemon(const Settings& s, const std::string& artifact,
         const std::string& sock, const std::string& observe_log,
         const std::string& err_log) : sock_(sock) {
    std::vector<std::string> args = {
        s.served_bin,  "--machine", "haswell", "--model", artifact,
        "--listen",    "unix:" + sock, "--workers", std::to_string(kWorkers),
        "--queue",     std::to_string(kQueueDepth)};
    if (!observe_log.empty()) {
      args.push_back("--observe-log");
      args.push_back(observe_log);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(127);
      const int err = ::open(err_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      const int null = ::open("/dev/null", O_RDWR);
      if (err >= 0) ::dup2(err, 2);
      if (null >= 0) {
        ::dup2(null, 0);
        ::dup2(null, 1);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ec;
    fs::remove(sock_, ec);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// Connect once the daemon listens, polling every millisecond (finer
  /// than net::connect_to's retry step, which would quantize set-up
  /// time). Throws when the daemon exits or 60 s pass.
  pnp::net::Socket connect() {
    const auto addr = pnp::net::Address::parse("unix:" + sock_);
    const std::int64_t deadline = now_ns() + 60'000'000'000;
    for (;;) {
      try {
        return pnp::net::connect_to(addr, 0);
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("pnp_served exited during start-up");
        }
        if (now_ns() > deadline)
          throw std::runtime_error("pnp_served did not start listening");
        ::usleep(1000);
      }
    }
  }

  /// SIGTERM drain; the exit code, or -1 when the daemon had to be killed
  /// after 60 s or died on a signal.
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 6000; ++i) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      ::usleep(10'000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return -1;
  }

 private:
  pid_t pid_ = -1;
  std::string sock_;
};

// --- The expected answers ----------------------------------------------------

/// In-process predictions of the served model: every (region, cap) power
/// answer and every (region, watt) power_at answer on a finite watt grid,
/// so checking a reply is a table lookup. The tuner is the one trained in
/// this run, not a reload of its file, so the check also covers the
/// artifact's save and load.
struct Reference {
  explicit Reference(const ServedModel& m) : db(m.db) {
    const pnp::core::PnpTuner& tuner = m.tuner;
    regions = db.num_regions();
    caps = db.num_caps();
    const auto& cw = db.space().power_caps();
    // Cap grid plus midpoints: on-grid and between-grid watts.
    for (std::size_t k = 0; k < cw.size(); ++k) {
      watts.push_back(cw[k]);
      if (k + 1 < cw.size()) watts.push_back(0.5 * (cw[k] + cw[k + 1]));
    }
    for (int r = 0; r < regions; ++r) {
      for (int k = 0; k < caps; ++k) power.push_back(tuner.predict_power(r, k));
      for (double w : watts) power_at.push_back(tuner.predict_power_at(r, w));
    }
  }

  const pnp::core::MeasurementDb& db;
  int regions = 0, caps = 0;
  std::vector<double> watts;
  std::vector<pnp::sim::OmpConfig> power, power_at;
};

enum class Kind : std::uint8_t { Power, PowerAt, Observe, Reload };

/// One planned request: what to send and, for open loops, when.
struct Planned {
  std::int64_t due = 0;  ///< ns after the phase start (open loop)
  Kind kind = Kind::Power;
  int region = 0;
  int cap = 0;   ///< cap index (Power, Observe)
  int watt = 0;  ///< watt-grid index (PowerAt)
  int cfg = 0;   ///< OpenMP grid index (Observe)
};

/// Seeded request stream of one workload's blend.
class Stream {
 public:
  Stream(const Reference& ref, bool observe, std::uint64_t seed)
      : ref_(ref), observe_(observe), rng_(seed) {}

  Planned next() {
    Planned p;
    const std::uint64_t i = index_++;
    if (observe_ && i % kReloadEvery == kReloadEvery - 1) {
      p.kind = Kind::Reload;
      return p;
    }
    // power:2, power_at:1 (+ observe:1 on wire-observe).
    const int pick = static_cast<int>(rng_.uniform_index(observe_ ? 4 : 3));
    p.region = static_cast<int>(
        rng_.uniform_index(static_cast<std::size_t>(ref_.regions)));
    if (pick < 2) {
      p.kind = Kind::Power;
      p.cap = static_cast<int>(
          rng_.uniform_index(static_cast<std::size_t>(ref_.caps)));
    } else if (pick == 2) {
      p.kind = Kind::PowerAt;
      p.watt = static_cast<int>(rng_.uniform_index(ref_.watts.size()));
    } else {
      p.kind = Kind::Observe;
      p.cap = static_cast<int>(
          rng_.uniform_index(static_cast<std::size_t>(ref_.caps)));
      p.cfg = static_cast<int>(rng_.uniform_index(
          static_cast<std::size_t>(ref_.db.space().num_omp_configs())));
    }
    return p;
  }

 private:
  const Reference& ref_;
  bool observe_;
  pnp::Rng rng_;
  std::uint64_t index_ = 0;
};

/// One stats scrape: cumulative counters + histogram buckets.
struct Scrape {
  protocol::ServerCounters server;
  pnp::serve::TuningService::Stats service;
  std::vector<std::uint64_t> buckets;
};

/// Add the histogram difference of two cumulative scrapes to `into`.
void add_diff(const Scrape& a, const Scrape& b,
              std::vector<std::uint64_t>& into) {
  into.resize(b.buckets.size());
  for (std::size_t i = 0; i < b.buckets.size(); ++i)
    into[i] += b.buckets[i] - a.buckets[i];
}

/// Quantile of a bucketed histogram (upper bucket bound, like
/// LatencyHistogram::quantile_ns), in µs; 0 when empty.
double bucket_quantile_us(const std::vector<std::uint64_t>& buckets,
                          double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const auto want = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= want)
      return static_cast<double>(
                 pnp::LatencyHistogram::bucket_bounds(i).upper) /
             1e3;
  }
  return 0.0;
}

/// Latency windows (by due time) of open loops; completion windows of
/// closed loops. Host interference comes in bursts: a statistic taken per
/// window and then the median over windows ignores a burst that spoils a
/// minority of them.
constexpr double kWindowSeconds = 0.5;
constexpr double kRateWindowSeconds = 0.25;

/// Per-phase client results.
struct Phase {
  std::string name;
  std::vector<double> latency_us;  ///< due → reply, every request
  std::vector<std::vector<double>> windows;  ///< latency_us by due window
  std::vector<double> window_rps;  ///< closed loop: replies/s per window
  std::vector<double> observe_us;  ///< the observe requests only
  std::vector<double> late_us;     ///< send time − due time
  std::uint64_t sent = 0, received = 0;
  double seconds = 0.0;            ///< first send → last reply
};

/// Concatenate the samples of several phases (the rounds of one rate).
Phase merge(const std::vector<Phase>& parts) {
  Phase m;
  for (const Phase& p : parts) {
    m.name = p.name;
    m.latency_us.insert(m.latency_us.end(), p.latency_us.begin(),
                        p.latency_us.end());
    m.windows.insert(m.windows.end(), p.windows.begin(), p.windows.end());
    m.window_rps.insert(m.window_rps.end(), p.window_rps.begin(),
                        p.window_rps.end());
    m.observe_us.insert(m.observe_us.end(), p.observe_us.begin(),
                        p.observe_us.end());
    m.late_us.insert(m.late_us.end(), p.late_us.begin(), p.late_us.end());
    m.sent += p.sent;
    m.received += p.received;
    m.seconds += p.seconds;
  }
  return m;
}

/// Median over the phase's full windows of each window's exact
/// q-quantile.
double windowed(Phase& ph, double q) {
  std::vector<double> per_window;
  for (auto& w : ph.windows)
    if (w.size() >= 1000) per_window.push_back(quantile(w, q));
  if (per_window.empty()) return quantile(ph.latency_us, q);
  return median(per_window);
}

// --- The client --------------------------------------------------------------

/// One connection to the daemon. Open- and closed-loop phases run a
/// sender thread and a receiver thread over it; stats scrapes run between
/// phases, when nothing is in flight.
class Client {
 public:
  Client(pnp::net::Socket sock, const Reference& ref, std::string artifact,
         Report& report)
      : sock_(std::move(sock)), ref_(ref), artifact_(std::move(artifact)),
        report_(report) {
    sock_.set_recv_timeout_ms(30'000);
  }

  /// Open loop: every request's send time is fixed by `plan`.
  Phase open_loop(const std::string& name, const std::vector<Planned>& plan,
                  Trace::Buffer& tx, Trace::Buffer& rx) {
    Phase ph;
    ph.name = name;
    const std::size_t n = plan.size();
    const std::uint64_t base = next_id_;
    next_id_ += n;
    std::vector<std::int64_t> due(n), done(n, -1);
    ph.late_us.resize(n);
    if (n == 0) return ph;
    const std::int64_t t0 = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < n; ++i) due[i] = t0 + plan[i].due;

    std::thread sender([&] {
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      for (std::size_t i = 0; i < n; ++i) {
        const timespec ts{static_cast<time_t>(due[i] / 1'000'000'000),
                          static_cast<long>(due[i] % 1'000'000'000)};
        while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                                 nullptr) == EINTR) {
        }
        const std::int64_t t = now_ns();
        ph.late_us[i] = static_cast<double>(t - due[i]) / 1e3;
        if (!send(plan[i], base + i, tx)) return;
      }
    });
    receive(
        base,
        [&](std::size_t i) {
          return i < n ? std::optional<Planned>(plan[i]) : std::nullopt;
        },
        done, due.data(), rx,
        [n](std::size_t received) { return received == n; });
    sender.join();
    if (!send_error_.empty()) report_.fail("send: " + send_error_);

    ph.sent = n;
    std::int64_t last = t0;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] < 0) continue;
      ++ph.received;
      last = std::max(last, done[i]);
      const double us = static_cast<double>(done[i] - due[i]) / 1e3;
      ph.latency_us.push_back(us);
      const auto w = static_cast<std::size_t>(
          static_cast<double>(plan[i].due) / 1e9 / kWindowSeconds);
      if (ph.windows.size() <= w) ph.windows.resize(w + 1);
      ph.windows[w].push_back(us);
      if (plan[i].kind == Kind::Observe) ph.observe_us.push_back(us);
    }
    ph.seconds = static_cast<double>(last - t0) / 1e9;
    report_.attempt(n, n - ph.received);
    return ph;
  }

  /// Closed loop: a fixed window of requests in flight for `seconds`. The
  /// sender draws each request from `stream` as it sends it, so the
  /// stream's cadence (reloads) counts requests actually sent.
  Phase closed_loop(const std::string& name, Stream& stream, double seconds,
                    Trace::Buffer& tx, Trace::Buffer& rx) {
    Phase ph;
    ph.name = name;
    std::mutex mu;
    std::deque<Planned> sent_plan;  // guarded by mu; the receiver looks up
    std::vector<std::int64_t> done;  // receiver only
    std::counting_semaphore<kWindow> window(kWindow);
    std::atomic<std::size_t> sent{0};
    std::atomic<bool> stop{false};
    const std::uint64_t base = next_id_;
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);

    std::thread sender([&] {
      for (std::size_t i = 0;; ++i) {
        window.acquire();
        const Planned p = stream.next();
        const bool last = now_ns() >= end;
        {
          std::lock_guard<std::mutex> lk(mu);
          sent_plan.push_back(p);
        }
        sent.store(i + 1, std::memory_order_release);
        if (last) stop.store(true, std::memory_order_release);
        if (!send(p, base + i, tx) || last) return;
      }
    });
    receive(
        base,
        [&](std::size_t i) {
          std::lock_guard<std::mutex> lk(mu);
          return i < sent_plan.size() ? std::optional<Planned>(sent_plan[i])
                                      : std::nullopt;
        },
        done, nullptr, rx,
        [&](std::size_t received) {
          window.release();
          return stop.load(std::memory_order_acquire) &&
                 received == sent.load(std::memory_order_acquire);
        });
    sender.join();
    if (!send_error_.empty()) report_.fail("send: " + send_error_);

    ph.sent = sent.load();
    next_id_ += ph.sent;
    std::int64_t last = t0;
    const auto full = static_cast<std::size_t>(seconds / kRateWindowSeconds);
    std::vector<double> per_window(full, 0.0);
    for (std::int64_t t : done)
      if (t >= 0) {
        ++ph.received;
        last = std::max(last, t);
        const auto w = static_cast<std::size_t>(
            static_cast<double>(t - t0) / 1e9 / kRateWindowSeconds);
        if (w < full) per_window[w] += 1.0 / kRateWindowSeconds;
      }
    ph.window_rps = per_window;
    ph.seconds = static_cast<double>(last - t0) / 1e9;
    report_.attempt(ph.sent, ph.sent - ph.received);
    return ph;
  }

  /// One synchronous request (the set-up probe); true when its reply
  /// arrived and matched.
  bool ping(const Planned& p) {
    Trace off(false);
    Trace::Buffer& b = off.buffer();
    const std::uint64_t id = next_id_++;
    const std::int64_t due = now_ns();
    std::vector<std::int64_t> done(1, -1);
    if (!send(p, id, b)) {
      report_.fail("set-up request: " + send_error_);
      return false;
    }
    const std::uint64_t failed = report_.failed();
    receive(
        id,
        [&](std::size_t i) {
          return i == 0 ? std::optional<Planned>(p) : std::nullopt;
        },
        done, &due, b, [](std::size_t) { return true; });
    report_.attempt(1);
    return done[0] >= 0 && report_.failed() == failed;
  }

  /// One synchronous stats round trip.
  Scrape scrape() {
    protocol::Request q;
    q.id = next_id_++;
    q.op = protocol::Op::Stats;
    pnp::net::send_frame(sock_, protocol::encode_request(q));
    const auto payload = pnp::net::recv_frame(sock_);
    if (!payload) throw std::runtime_error("daemon closed during stats");
    pnp::LatencyHistogram h;
    const protocol::Response r = protocol::decode_response(*payload, &h);
    if (r.id != q.id || r.status != protocol::Status::Ok ||
        r.op != protocol::Op::Stats)
      throw std::runtime_error("bad stats reply");
    Scrape s{r.server, r.service, {}};
    s.buckets.resize(pnp::LatencyHistogram::kBucketCount);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) s.buckets[i] = h.bucket(i);
    return s;
  }

  /// Sequence numbers of every acked observe and versions of every acked
  /// reload, checked once the daemon has drained.
  const std::vector<std::uint64_t>& observe_seqs() const { return seqs_; }
  const std::vector<std::uint64_t>& reload_versions() const {
    return versions_;
  }
  double request_bytes() const {
    return tx_msgs_ ? static_cast<double>(tx_bytes_) / tx_msgs_ : 0.0;
  }
  double response_bytes() const {
    return rx_msgs_ ? static_cast<double>(rx_bytes_) / rx_msgs_ : 0.0;
  }

 private:
  bool send(const Planned& p, std::uint64_t id, Trace::Buffer& tx) {
    const std::uint64_t root = tx.on() ? (kRequestSpan | id) : 0;
    const std::int64_t a = now_ns();
    protocol::Request q;
    q.id = id;
    switch (p.kind) {
      case Kind::Power:
        q.op = protocol::Op::Power;
        q.tune = TuneRequest::power(p.region, p.cap);
        break;
      case Kind::PowerAt:
        q.op = protocol::Op::PowerAt;
        q.tune = TuneRequest::power_at(
            p.region, ref_.watts[static_cast<std::size_t>(p.watt)]);
        break;
      case Kind::Observe: {
        q.op = protocol::Op::Observe;
        const auto& res = ref_.db.at(p.region, p.cap, p.cfg);
        q.observe.region = p.region;
        q.observe.cap_w =
            ref_.db.space().power_caps()[static_cast<std::size_t>(p.cap)];
        q.observe.config = ref_.db.space().omp_config(p.cfg);
        q.observe.seconds = res.seconds;
        q.observe.joules = res.joules;
        break;
      }
      case Kind::Reload:
        q.op = protocol::Op::Reload;
        q.reload_path = artifact_;
        reloads_sent_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    const std::string bytes = protocol::encode_request(q);
    const std::int64_t b = now_ns();
    try {
      pnp::net::send_frame(sock_, bytes);
    } catch (const std::exception& e) {
      send_error_ = e.what();  // read by the caller after the join
      sock_.shutdown_read();   // wake the receiver
      return false;
    }
    const std::int64_t c = now_ns();
    tx.add("serve.protocol.encode_request", a, b, root, id);
    tx.add("common.net.send_frame", b, c, root, id);
    tx_bytes_ += bytes.size() + 4;
    ++tx_msgs_;
    return true;
  }

  /// Receive replies, check each against the request `plan_at(i)` names
  /// (i = id − base; nullopt when no such request was sent) and stamp its
  /// arrival in `done` (grown as needed), until `after(received)` says the
  /// phase is over. `due` (may be null) only feeds the trace.
  template <class PlanAt, class After>
  void receive(std::uint64_t base, PlanAt plan_at,
               std::vector<std::int64_t>& done, const std::int64_t* due,
               Trace::Buffer& rx, After after) {
    std::size_t received = 0;
    for (;;) {
      std::optional<std::string> payload;
      try {
        payload = pnp::net::recv_frame(sock_);
      } catch (const std::exception& e) {
        report_.fail(std::string("receive: ") + e.what());
        return;
      }
      const std::int64_t t = now_ns();
      if (!payload) {
        report_.fail("daemon closed the connection");
        return;
      }
      rx_bytes_ += payload->size() + 4;
      ++rx_msgs_;
      protocol::Response r;
      try {
        r = protocol::decode_response(*payload);
      } catch (const std::exception& e) {
        report_.fail(std::string("undecodable reply: ") + e.what());
        continue;
      }
      const std::int64_t t2 = now_ns();
      const std::size_t i = static_cast<std::size_t>(r.id - base);
      const std::optional<Planned> p =
          r.id >= base ? plan_at(i) : std::nullopt;
      if (!p || (i < done.size() && done[i] >= 0)) {
        report_.fail("reply with unexpected id " + std::to_string(r.id));
        continue;
      }
      if (done.size() <= i) done.resize(i + 1, -1);
      done[i] = t;
      ++received;
      if (rx.on()) {
        rx.add("serve.protocol.decode_response", t, t2, kRequestSpan | r.id,
               r.id);
        // Closed loops pass no due times; their requests get no root span.
        if (due)
          rx.add("wire.request", due[i], t, 0, r.id, kRequestSpan | r.id);
      }
      check(*p, r);
      if (after(received)) return;
    }
  }

  void check(const Planned& p, const protocol::Response& r) {
    if (r.status != protocol::Status::Ok) {
      report_.fail(std::string(r.status == protocol::Status::Shed ? "shed"
                                                                  : "error") +
                   " reply to request " + std::to_string(r.id) + ": " +
                   r.error);
      return;
    }
    switch (p.kind) {
      case Kind::Power:
      case Kind::PowerAt: {
        const bool at = p.kind == Kind::PowerAt;
        const std::size_t row = static_cast<std::size_t>(p.region);
        const auto& want =
            at ? ref_.power_at[row * ref_.watts.size() +
                               static_cast<std::size_t>(p.watt)]
               : ref_.power[row * static_cast<std::size_t>(ref_.caps) +
                            static_cast<std::size_t>(p.cap)];
        const std::uint64_t v = r.result.model_version;
        const bool ok =
            r.op == (at ? protocol::Op::PowerAt : protocol::Op::Power) &&
            r.result.config == want &&
            r.result.cap_index == (at ? -1 : p.cap) && v >= 1 &&
            v <= 1 + reloads_sent_.load(std::memory_order_relaxed);
        if (!ok)
          report_.fail("reply to request " + std::to_string(r.id) +
                       " differs from the in-process prediction");
        break;
      }
      case Kind::Observe:
        if (r.op != protocol::Op::Observe)
          report_.fail("observe request answered with another opcode");
        else
          seqs_.push_back(r.observe_seq);
        break;
      case Kind::Reload:
        if (r.op != protocol::Op::Reload)
          report_.fail("reload request answered with another opcode");
        else
          versions_.push_back(r.new_version);
        break;
    }
  }

  pnp::net::Socket sock_;
  const Reference& ref_;
  std::string artifact_;
  Report& report_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> reloads_sent_{0};
  std::string send_error_;
  std::vector<std::uint64_t> seqs_, versions_;
  std::uint64_t tx_bytes_ = 0, tx_msgs_ = 0, rx_bytes_ = 0, rx_msgs_ = 0;
};

/// Poisson arrivals at `rate` req/s for `seconds`.
std::vector<Planned> plan_open(Stream& stream, double rate, double seconds,
                               std::uint64_t seed) {
  pnp::Rng rng(seed);
  std::vector<Planned> plan;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Planned p = stream.next();
    p.due = static_cast<std::int64_t>(t * 1e9);
    plan.push_back(p);
  }
  return plan;
}

/// Check that `v` holds exactly first, first+1, ..., first+size-1.
bool contiguous(std::vector<std::uint64_t> v, std::uint64_t first) {
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] != first + i) return false;
  return true;
}

}  // namespace

LoopCost run_wire(const Settings& s, const ServedModel& model, Report& report,
                  Trace& trace, HostRecord& host,
                  const std::function<void()>& between_rounds) {
  const bool observe_workload = s.workload == "wire-observe";
  const std::string artifact = fs::absolute(model.path).string();
  const Reference ref(model);

  const fs::path dir = s.run_dir;
  const std::string sock = (dir / "d.sock").string();
  // The observe log is on for wire-observe, and in traced runs of
  // wire-table1 for the observe probe phase.
  const bool log_on = observe_workload || s.trace;
  const std::string log_path = log_on ? (dir / "observe.log").string()
                                      : std::string();

  // Set-up, kSetups times: launch → first good reply. The last daemon
  // serves the phases.
  LoopCost cost;
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> client;
  for (int k = 0; k < kSetups; ++k) {
    if (!log_path.empty()) fs::remove(log_path);
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(
        s, artifact, sock, log_path,
        (dir / ("daemon" + std::to_string(k) + ".err")).string());
    client = std::make_unique<Client>(daemon->connect(), ref, artifact,
                                      report);
    const bool ok = client->ping({0, Kind::Power, 0, 0, 0, 0});
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    report.check(ok, "first reply from launch " + std::to_string(k));
    if (k + 1 < kSetups) {
      client.reset();
      report.check(daemon->stop() == 0, "daemon drain exit code");
      daemon.reset();
    }
  }
  cost.setup_s = median(setups);

  Trace off(false);
  Trace::Buffer& off_tx = off.buffer();
  Trace::Buffer& off_rx = off.buffer();
  Trace::Buffer& tx = trace.buffer();
  Trace::Buffer& rx = trace.buffer();

  // Warm-up: every (region, cap) and (region, watt) answer once, so the
  // encode cache is hot before the first measured phase.
  {
    std::vector<Planned> warm;
    for (int r = 0; r < ref.regions; ++r) {
      for (int k = 0; k < ref.caps; ++k)
        warm.push_back({0, Kind::Power, r, k, 0, 0});
      for (std::size_t w = 0; w < ref.watts.size(); ++w)
        warm.push_back({0, Kind::PowerAt, r, 0, static_cast<int>(w), 0});
    }
    for (std::size_t i = 0; i < warm.size(); ++i)
      warm[i].due = static_cast<std::int64_t>(i) * 20'000;  // 50k req/s
    client->open_loop("warm-up", warm, off_tx, off_rx);
  }

  const double S = s.seconds;
  Stream stream(ref, observe_workload, s.seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<Scrape> scrapes;
  std::vector<Phase> phases;
  scrapes.push_back(client->scrape());

  const auto open_phase = [&](const std::string& name, double rate,
                              double seconds, Stream& st, bool traced) {
    const auto plan = plan_open(st, rate, seconds,
                                s.seed * 1000003ull + phases.size());
    host.sample(name + ".begin");
    phases.push_back(client->open_loop(name, plan, traced ? tx : off_tx,
                                       traced ? rx : off_rx));
    host.sample(name + ".end");
    scrapes.push_back(client->scrape());
  };

  // Traced runs first measure r10k untraced: the tracing overhead is the
  // difference between the two.
  std::size_t untraced_r10k = 0;
  if (s.trace) {
    open_phase("r10k.untraced", 10'000, 0.15 * S, stream, false);
    untraced_r10k = phases.size() - 1;
  }
  const std::size_t first_round = phases.size();
  for (int k = 0; k < kWireRounds; ++k) {
    open_phase("r10k", 10'000, 0.3 * S / kWireRounds, stream, true);
    open_phase("r40k", 40'000, 0.2 * S / kWireRounds, stream, true);
    host.sample("sat.begin");
    phases.push_back(
        client->closed_loop("sat", stream, 0.1 * S / kWireRounds, tx, rx));
    host.sample("sat.end");
    scrapes.push_back(client->scrape());
    between_rounds();
  }
  const std::size_t last_round = phases.size();
  // Per rate: the rounds' samples, and the server's histogram differenced
  // across each round's two scrapes. The counters cover the measured rounds
  // only (warm-up and traced extras excluded).
  const auto rate = [&](const std::string& name,
                        std::vector<std::uint64_t>* server) {
    std::vector<Phase> parts;
    for (std::size_t i = first_round; i < last_round; ++i)
      if (phases[i].name == name) {
        parts.push_back(phases[i]);
        if (server) add_diff(scrapes[i], scrapes[i + 1], *server);
      }
    return merge(parts);
  };
  std::vector<std::uint64_t> r10k_server;
  Phase r10k = rate("r10k", &r10k_server);
  Phase r40k = rate("r40k", nullptr);
  Phase sat = rate("sat", nullptr);
  const Scrape begin = scrapes[first_round];
  const Scrape end = scrapes[last_round];

  std::vector<double> observe_us = r10k.observe_us;
  if (s.trace && !observe_workload) {
    // wire-table1 sends no observe traffic; its traced run measures the
    // write path in a separate probe phase with the wire-observe blend.
    Stream writes(ref, true, s.seed * 7919 + 3);
    open_phase("observe-probe", 10'000, 0.1 * S, writes, true);
    observe_us = phases.back().observe_us;
  }

  const double hwm = peak_rss_mb(daemon->pid());
  const double request_bytes = client->request_bytes();
  const double response_bytes = client->response_bytes();
  const auto seqs = client->observe_seqs();
  const auto versions = client->reload_versions();
  client.reset();
  const int code = daemon->stop();
  report.check(code == 0, "daemon drain exit code " + std::to_string(code));
  report.check(!fs::exists(sock), "socket file left after the drain");
  daemon.reset();

  // Durable-write checks: acks are exactly 1..N, and the log holds N.
  report.check(contiguous(seqs, 1), "observe acks are not 1..N");
  if (log_on) {
    const auto records = pnp::core::MeasurementLog::read_all(log_path);
    report.check(records.size() == seqs.size(),
                 "observe log holds " + std::to_string(records.size()) +
                     " records for " + std::to_string(seqs.size()) + " acks");
  }
  report.check(contiguous(versions, 2), "reload versions are not 2..R+1");

  // Server-side counters over the measured rounds: nothing shed, no errors.
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.check(end.server.shed == begin.server.shed, "daemon shed requests");
  report.check(end.server.errors == begin.server.errors,
               "daemon answered with errors");
  report.check(end.server.malformed == begin.server.malformed,
               "daemon saw malformed frames");

  // The serving loop's user-facing numbers: windowed medians of exact
  // per-request samples. Reported per layer, not gated: across runs
  // minutes apart the host's speed drifts by more than the largest bound
  // a gated metric may have (perfbench/NOTES.md, "Steadiness").
  cost.peak_rss_mb = hwm;
  report.per_layer("wire.p50_us.r10k", windowed(r10k, 0.50), "us");
  report.per_layer("wire.p90_us.r10k", windowed(r10k, 0.90), "us");
  report.per_layer("wire.p50_us.r40k", windowed(r40k, 0.50), "us");
  report.per_layer("wire.p90_us.r40k", windowed(r40k, 0.90), "us");
  report.per_layer("wire.sat_rps",
                   sat.window_rps.empty()
                       ? static_cast<double>(sat.received) / sat.seconds
                       : median(sat.window_rps),
                   "1/s");

  // Tails with their sample counts, generator lateness.
  report.per_layer("wire.p99_us.r10k", quantile(r10k.latency_us, 0.99), "us");
  report.per_layer("wire.p999_us.r10k", quantile(r10k.latency_us, 0.999),
                   "us");
  report.per_layer("wire.p99_us.r40k", quantile(r40k.latency_us, 0.99), "us");
  report.per_layer("wire.samples.r10k",
                   static_cast<double>(r10k.latency_us.size()), "count");
  report.per_layer("wire.samples.r40k",
                   static_cast<double>(r40k.latency_us.size()), "count");
  std::vector<double> late = r10k.late_us;
  late.insert(late.end(), r40k.late_us.begin(), r40k.late_us.end());
  report.per_layer("driver.late_p50_us", quantile(late, 0.50), "us");
  report.per_layer("driver.late_p99_us", quantile(late, 0.99), "us");
  if (!observe_us.empty())
    report.per_layer("wire.observe_p50_us.r10k", quantile(observe_us, 0.50),
                     "us");

  // Server side, from differenced stats scrapes.
  const double server_p50 = bucket_quantile_us(r10k_server, 0.50);
  report.per_layer("serve.server.admit_to_reply_p50_us", server_p50, "us");
  report.per_layer("serve.server.admit_to_reply_p99_us",
                   bucket_quantile_us(r10k_server, 0.99), "us");
  report.per_layer("serve.server.outside_p50_us",
                   quantile(r10k.latency_us, 0.50) - server_p50, "us");
  report.per_layer("serve.server.ok", d(begin.server.ok, end.server.ok),
                   "count");
  report.per_layer("serve.server.errors",
                   d(begin.server.errors, end.server.errors), "count");
  report.per_layer("serve.server.shed", d(begin.server.shed, end.server.shed),
                   "count");
  report.per_layer("serve.server.malformed",
                   d(begin.server.malformed, end.server.malformed), "count");
  const double reqs = d(begin.service.requests, end.service.requests);
  const double hits = d(begin.service.encode_hits, end.service.encode_hits);
  const double misses =
      d(begin.service.encode_misses, end.service.encode_misses);
  report.per_layer("serve.service.coalesced_ratio",
                   d(begin.service.coalesced, end.service.coalesced) / reqs,
                   "ratio");
  report.per_layer("serve.service.batch_mean",
                   reqs / d(begin.service.batches, end.service.batches),
                   "count");
  report.per_layer("serve.service.encode_hit_ratio", hits / (hits + misses),
                   "ratio");
  report.per_layer("serve.protocol.request_bytes", request_bytes, "bytes");
  report.per_layer("serve.protocol.response_bytes", response_bytes, "bytes");
  if (s.trace) {
    report.per_layer("trace.overhead.wire_p50_us",
                     windowed(r10k, 0.50) -
                         windowed(phases[untraced_r10k], 0.50),
                     "us");
    // Client-side layers, from the spans around each call.
    const auto med = [&](const char* name, double scale) {
      return median(trace.durations(name)) / scale;
    };
    report.per_layer("common.net.send_frame_us",
                     med("common.net.send_frame", 1e3), "us");
    report.per_layer("serve.protocol.encode_request_ns",
                     med("serve.protocol.encode_request", 1.0), "ns");
    report.per_layer("serve.protocol.decode_response_ns",
                     med("serve.protocol.decode_response", 1.0), "ns");
  }

  std::ostringstream log;
  log << "setup_s per launch:";
  for (double x : setups) log << " " << x;
  log << "\n";
  for (Phase& ph : phases) {
    log << "phase " << ph.name << " sent=" << ph.sent
        << " received=" << ph.received << " seconds=" << ph.seconds;
    for (auto& w : ph.windows)
      if (!w.empty())
        log << " [p50 " << quantile(w, 0.5) << " p90 " << quantile(w, 0.9)
            << "]";
    for (double r : ph.window_rps) log << " " << r;
    log << "\n";
  }
  std::cerr << log.str();
  return cost;
}

}  // namespace perfbench
