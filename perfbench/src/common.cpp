#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace bench {

double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::series(const std::string& name, std::vector<double> values) {
  series_.emplace_back(name, std::move(values));
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "cxbench: FAILED: %s\n", why.c_str());
}

namespace {

void print_number(double v) {
  std::printf("%.17g", std::isfinite(v) ? v : -1.0);
}

}  // namespace

void Report::print() const {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": ", i == 0 ? "" : ", ", metrics_[i].first.c_str());
    print_number(metrics_[i].second);
  }
  std::printf("}, \"series\": {");
  for (std::size_t i = 0; i < series_.size(); ++i) {
    std::printf("%s\"%s\": [", i == 0 ? "" : ", ", series_[i].first.c_str());
    for (std::size_t j = 0; j < series_[i].second.size(); ++j) {
      if (j > 0) std::printf(", ");
      print_number(series_[i].second[j]);
    }
    std::printf("]");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Snap Snap::of(const cx::trace::Counters& c) {
  Snap s;
  s.msgs_sent = c.msgs_sent;
  s.bytes_sent = c.bytes_sent;
  s.entries = c.entries;
  s.entry_time = c.entry_time;
  s.idle_time = c.idle_time;
  s.when_buffered = c.when_buffered;
  s.migrations_out = c.migrations_out;
  s.fiber_suspends = c.fiber_suspends;
  s.dyn_dispatches = c.dyn_dispatches;
  s.ft_acks = c.ft_acks;
  s.ft_retransmits = c.ft_retransmits;
  return s;
}

Snap& Snap::operator+=(const Snap& o) {
  msgs_sent += o.msgs_sent;
  bytes_sent += o.bytes_sent;
  entries += o.entries;
  entry_time += o.entry_time;
  idle_time += o.idle_time;
  when_buffered += o.when_buffered;
  migrations_out += o.migrations_out;
  fiber_suspends += o.fiber_suspends;
  dyn_dispatches += o.dyn_dispatches;
  ft_acks += o.ft_acks;
  ft_retransmits += o.ft_retransmits;
  return *this;
}

Snap Snap::minus(const Snap& o) const {
  Snap d;
  d.msgs_sent = msgs_sent - o.msgs_sent;
  d.bytes_sent = bytes_sent - o.bytes_sent;
  d.entries = entries - o.entries;
  d.entry_time = entry_time - o.entry_time;
  d.idle_time = idle_time - o.idle_time;
  d.when_buffered = when_buffered - o.when_buffered;
  d.migrations_out = migrations_out - o.migrations_out;
  d.fiber_suspends = fiber_suspends - o.fiber_suspends;
  d.dyn_dispatches = dyn_dispatches - o.dyn_dispatches;
  d.ft_acks = ft_acks - o.ft_acks;
  d.ft_retransmits = ft_retransmits - o.ft_retransmits;
  return d;
}

Snap Probe::snap() { return Snap::of(cx::trace::counters(cx::my_pe())); }
double Probe::stamp() { return mono_now(); }
std::vector<std::uint64_t> Probe::echo(std::vector<std::uint64_t> v) {
  return v;
}
void Probe::sink(std::uint64_t) { ++got_; }
std::uint64_t Probe::count() { return got_; }

void pin_to_nth_cpu(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(n) % cpus.size()], &one);
  (void)::sched_setaffinity(0, sizeof(one), &one);
}

Snap snap_all(const cx::CollectionProxy<Probe>& probe) {
  std::vector<cx::Future<Snap>> fs;
  for (int pe = 0; pe < cx::num_pes(); ++pe) {
    fs.push_back(probe[cx::Index(pe)].call<&Probe::snap>());
  }
  Snap total;
  for (const auto& f : fs) total += f.get();
  return total;
}

}  // namespace bench
