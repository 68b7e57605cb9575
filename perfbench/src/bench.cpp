#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Report ----------------------------------------------------------------

void Report::end_to_end(const std::string& name, double value,
                        const char* unit) {
  e2e_[name] = {value, unit};
}

void Report::per_layer(const std::string& name, double value,
                       const char* unit) {
  layer_[name] = {value, unit};
}

void Report::attempt(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (logged_++ < 20) std::cerr << "perfbench: FAILED: " << why << "\n";
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(what);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

std::string Report::json(bool per_layer) const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : per_layer ? layer_ : e2e_) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << number(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string Report::text() const {
  std::ostringstream os;
  for (const auto& [name, v] : e2e_)
    os << "e2e   " << name << " = " << number(v.value) << " " << v.unit
       << "\n";
  for (const auto& [name, v] : layer_)
    os << "layer " << name << " = " << number(v.value) << " " << v.unit
       << "\n";
  os << "attempted " << attempted_ << " failed " << failed_ << "\n";
  return os.str();
}

// --- Trace -----------------------------------------------------------------

std::uint64_t Trace::Buffer::add(const char* name, std::int64_t start,
                                 std::int64_t end, std::uint64_t parent,
                                 std::uint64_t request, std::uint64_t id) {
  if (!on_) return 0;
  if (id == 0) id = base_ + ++next_;
  spans_.push_back({name, start, end, id, parent, request});
  return id;
}

Trace::Buffer& Trace::buffer() {
  std::lock_guard<std::mutex> lk(mu_);
  auto b = std::make_unique<Buffer>();
  b->on_ = on_;
  b->base_ = static_cast<std::uint64_t>(buffers_.size() + 1) << 40;
  if (on_) b->spans_.reserve(1 << 16);
  buffers_.push_back(std::move(b));
  return *buffers_.back();
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans_)
      if (name == s.name) out.push_back(static_cast<double>(s.end - s.start));
  return out;
}

void Trace::write(const std::string& path, std::size_t per_name_cap) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::map<std::string, std::size_t> written, total;
  os << "{\"spans\": [\n";
  bool first = true;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans_) {
      ++total[s.name];
      if (written[s.name]++ >= per_name_cap) continue;
      os << (first ? "" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
         << ", \"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"request\": " << s.request << "}";
      first = false;
    }
  os << "\n], \"span_counts\": {";
  first = true;
  for (const auto& [name, n] : total) {
    os << (first ? "" : ", ") << '"' << name << "\": " << n;
    first = false;
  }
  os << "}}\n";
}

// --- Host ------------------------------------------------------------------

volatile std::uint64_t g_ref_loop_sink = 0;

HostRecord::Cpu HostRecord::read_cpu() {
  std::ifstream is("/proc/stat");
  std::string tag;
  is >> tag;
  Cpu c;
  if (tag != "cpu") return c;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already inside user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(is >> v)) break;
    c.total += v;
    if (i == 7) c.steal = v;
  }
  return c;
}

void HostRecord::sample(const std::string& label) {
  labels_.push_back(label);
  cpu_.push_back(read_cpu());
  // Fixed integer work: an xorshift chain the compiler cannot fold.
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ull + cpu_.size();
  for (int i = 0; i < 8'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const std::int64_t t1 = now_ns();
  g_ref_loop_sink = x;  // keeps the loop's result observable
  ref_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
}

double HostRecord::steal_share() const {
  if (cpu_.size() < 2) return 0.0;
  const double total =
      static_cast<double>(cpu_.back().total - cpu_.front().total);
  const double steal =
      static_cast<double>(cpu_.back().steal - cpu_.front().steal);
  return total > 0 ? steal / total : 0.0;
}

std::string HostRecord::text() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    double share = 0.0;
    if (i > 0) {
      const double t = static_cast<double>(cpu_[i].total - cpu_[i - 1].total);
      if (t > 0)
        share = static_cast<double>(cpu_[i].steal - cpu_[i - 1].steal) / t;
    }
    os << "host " << labels_[i] << " ref_loop_ms=" << ref_ms_[i]
       << " steal_share_since_prev=" << share << "\n";
  }
  return os.str();
}

RunDir::RunDir(std::filesystem::path p) : path(std::move(p)) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double peak_rss_mb(int pid) {
  std::ifstream is(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
