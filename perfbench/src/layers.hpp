#pragma once
// Per-layer measurements shared by every traced pass: spans around the
// benchmark's own calls into the kernels and PUP, the counter deltas a
// count segment produces, and the emission of every per-layer metric
// under one name scheme.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench {

/// Spans kept in memory while a pass runs; the per-layer metrics are
/// computed from them and they can be dumped when the pass ends.
class Spans {
 public:
  void add(const std::string& name, double t0, double t1);
  /// Median duration of `name` in seconds (0 when none was recorded).
  [[nodiscard]] double median_of(const std::string& name) const;
  /// Write the spans as JSON lines to `path` (no-op when empty).
  void dump(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  std::vector<Span> spans_;
};

/// Everything a count segment reads, from one process.
struct Counts {
  Snap snap;
  cx::trace::WireStats wire;
  cx::trace::WhenEngineStats when;
  cx::trace::PoolStats pool;

  // Raw bytes for the stats structs: both ends run the same binary.
  void pup(pup::Er& p) {
    snap.pup(p);
    p.bytes(&wire, sizeof(wire));
    p.bytes(&when, sizeof(when));
    p.bytes(&pool, sizeof(pool));
  }
};

/// Read the process-wide wire/when/pool counters (atomics, safe mid-run)
/// and pair them with `snap`.
Counts read_counts(const Snap& snap);
/// `b - a` for every cumulative counter (high-water marks keep `b`).
Counts counts_minus(const Counts& b, const Counts& a);
/// Sum of two sets of counts (two ranks, or successive episodes).
Counts counts_plus(const Counts& a, const Counts& b);

/// Kernel and PUP spans measured by the benchmark's own calls:
/// stencil Block::compute at the halo3d block size, lj_pair_forces at the
/// md-dyn density, pup::to_bytes of a 64 KiB payload and a ghost face.
void kernel_spans(Spans& spans);

/// Inputs of emit_layers that are not counter deltas.
struct LayerExtras {
  double ops = 1.0;        ///< iterations, steps, round trips or tasks
  double wall_s = 0.0;     ///< wall time the deltas cover
  int pes = 4;             ///< PEs whose busy/idle time the deltas cover
  double dyn_over_typed = 0.0;
  double oneway_fwd_us = 0.0;
  double oneway_back_us = 0.0;
  double rtt_large_us = 0.0;  ///< 64 KiB round trip, median
  double wireup_s = 0.0;
  double grants_per_ktask = 0.0;  ///< from the exact-count segment
  double count_mismatches = 0.0;
};

/// Message-path probes on the threaded backend, in a 4-PE Runtime of
/// their own: bring-up to the first completed cross-PE call
/// (x.wireup_s), one-way stamps to PE 1, 64 KiB round trips to PE 1, and
/// a burst of typed 8 B sends (spans "core.send_call"). rtt-xrank
/// measures the same on its cross-rank job instead.
void threaded_probes(Spans& spans, LayerExtras& x, Report& r);

/// Emit every per-layer metric (same names on every workload).
void emit_layers(Report& r, const Spans& spans, const Counts& d,
                 const LayerExtras& x);

/// Compare the exact counts `names` (msgs_sent, transport_msgs,
/// envelopes, when_buffered, pool_grants) of two count segments; returns
/// how many differ and names them on stderr.
int compare_exact(const std::string& workload, const Counts& a,
                  const Counts& b, const std::vector<std::string>& names);

}  // namespace bench
