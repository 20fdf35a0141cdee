#pragma once
// Shared pieces of the cxbench workloads: arguments, the result report,
// order statistics, and the per-PE counter probe.
//
// Every workload drives the public cx::, cpy::, cxpool:: and app entry
// points and reports raw measurements by name; perfbench/run.py turns
// them into the benchmark's JSON result line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/charm.hpp"
#include "trace/trace.hpp"

namespace bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 4.0;  ///< measuring budget of this pass
  bool trace = false;    ///< cx::trace on; report per-layer metrics
  /// rtt-xrank only: monotonic clock reading taken by the launcher just
  /// before it started cxrun (shared clock on one host).
  double launch_t = -1.0;
  /// Traced passes: write the recorded spans here as JSON lines.
  std::string spans_out;
};

/// Seconds on the monotonic clock (CLOCK_MONOTONIC on Linux, so readings
/// from different processes on one host are comparable).
double mono_now();

/// Linear-interpolated median of a copy of `v` (0 when empty).
double median(std::vector<double> v);

/// Pin the calling thread, and every thread it starts later, to the
/// n-th (mod count) CPU of the set this process may run on.
void pin_to_nth_cpu(int n);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// splitmix64: derives workload inputs from the seed.
std::uint64_t mix(std::uint64_t x);

/// Result of one pass: named scalar metrics, named sample series (run.py
/// takes medians and tails of those) and the correctness ledger.
class Report {
 public:
  void metric(const std::string& name, double value);
  void series(const std::string& name, std::vector<double> values);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count `n` failed operations and explain why on stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Print the report as one JSON line on stdout.
  void print() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The trace counters the per-layer metrics use, read on one PE.
struct Snap {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t entries = 0;
  double entry_time = 0.0;
  double idle_time = 0.0;
  std::uint64_t when_buffered = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t fiber_suspends = 0;
  std::uint64_t dyn_dispatches = 0;
  std::uint64_t ft_acks = 0;
  std::uint64_t ft_retransmits = 0;

  static Snap of(const cx::trace::Counters& c);
  Snap& operator+=(const Snap& o);
  [[nodiscard]] Snap minus(const Snap& o) const;

  void pup(pup::Er& p) {
    p | msgs_sent;
    p | bytes_sent;
    p | entries;
    p | entry_time;
    p | idle_time;
    p | when_buffered;
    p | migrations_out;
    p | fiber_suspends;
    p | dyn_dispatches;
    p | ft_acks;
    p | ft_retransmits;
  }
};

/// One member per PE; snap() reads the trace counters of its own PE on
/// that PE's thread (the only writer), so a mid-run read races with
/// nothing. Each snapshot costs the same fixed number of messages.
class Probe : public cx::Chare {
 public:
  Snap snap();
  /// Monotonic clock reading taken on arrival (one-way latency stamps).
  double stamp();
  /// Returns its argument (64 KiB round trips).
  std::vector<std::uint64_t> echo(std::vector<std::uint64_t> v);
  /// Target of the send-call burst; counts what arrives.
  void sink(std::uint64_t v);
  std::uint64_t count();

 private:
  std::uint64_t got_ = 0;
};

/// Sum of every PE's counters, read through `probe` (from the
/// entry fiber on PE 0 only).
Snap snap_all(const cx::CollectionProxy<Probe>& probe);

// Workload entry points (one translation unit each).
void run_halo3d(const Args& a, Report& r);
void run_mddyn(const Args& a, Report& r);
void run_rtt(const Args& a, Report& r);
void run_pmap(const Args& a, Report& r);

}  // namespace bench
