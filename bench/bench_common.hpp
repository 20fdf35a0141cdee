#pragma once
// Shared helpers for the figure-reproduction harnesses.

#include <cstdio>
#include <string>

#include "apps/stencil/stencil_cpy.hpp"
#include "machine/machine.hpp"
#include "model/cpy.hpp"
#include "trace/trace.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "wire/pool.hpp"

namespace bench {

/// Wire --trace / --trace-out=<path> / --trace-buffer=<events> into
/// cx::trace. Call once right after parsing options, then
/// trace_report() after the last run: the trace covers the most recent
/// Runtime (for a sweep, the final configuration).
inline void trace_from_options(const cxu::Options& opt) {
  cx::trace::configure_from_options(opt);
  cx::wire::configure_from_options(opt);  // --wire-pool=on|off rides along
}

/// Write the JSON timeline and print the summary table if --trace is on.
inline void trace_report() { cx::trace::report_if_enabled(); }

/// Simulated-machine config for a "Blue Waters"-like system: 3D torus,
/// 32 PEs per node (the paper's fig. 1/4 platform).
inline cxm::MachineConfig blue_waters(int pes) {
  cxm::MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = cxm::Backend::Sim;
  cfg.network = "torus";
  cfg.net.pes_per_node = 32;
  cfg.net.alpha = 2.0e-6;
  cfg.net.beta = 1.0 / 5.0e9;  // ~5 GB/s links
  cfg.net.per_hop = 1.0e-7;
  return cfg;
}

/// "Cori"-like system: dragonfly, 64 PEs (KNL cores) per node — the
/// paper's figs. 2/3 run on 2 KNL nodes, 8..128 cores.
inline cxm::MachineConfig cori(int pes) {
  cxm::MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = cxm::Backend::Sim;
  cfg.network = "dragonfly";
  cfg.net.pes_per_node = 64;
  cfg.net.alpha = 1.5e-6;
  cfg.net.beta = 1.0 / 8.0e9;
  cfg.net.per_hop = 1.0e-7;
  return cfg;
}

/// The measured per-message cost the dynamic layer adds over the typed
/// core, with its spread across rounds.
struct DispatchCalibration {
  double median_s = 0.0;  ///< per-message overhead, seconds
  double iqr_s = 0.0;     ///< interquartile range across rounds, seconds
  int rounds = 0;

  /// One line for a bench header, e.g. "dispatch calibration: 0.61
  /// us/message (IQR 0.04 us over 9 rounds)".
  [[nodiscard]] std::string describe() const;
};

/// Measure the real per-message cost the dynamic layer adds over the
/// typed core (method-name dispatch, Value boxing, generic
/// serialization) — the analogue of CharmPy's interpreter overhead per
/// entry method. Used to charge the cpy series in simulated runs
/// (calibrated, not guessed; see bench/micro_dispatch for the full
/// breakdown). Runs interleaved typed/dynamic bursts on one Runtime and
/// reports the median difference; throws std::runtime_error when the
/// median is not positive (a host too noisy to calibrate on), rather
/// than charging the cpy series nothing.
DispatchCalibration measure_dispatch_overhead();

/// Steady-state per-iteration time via the two-run slope method:
/// (T(2n) - T(n)) / n. Removes one-time costs (collection creation,
/// the completion reduction) from the figure measurements, matching the
/// paper's steady-state time-per-step metric.
template <typename RunFn>
double slope_time_per_iter(RunFn&& run, int iters) {
  const double t1 = run(iters);
  const double t2 = run(iters * 2);
  const double slope = (t2 - t1) / iters;
  return slope > 0 ? slope : t2 / (iters * 2);
}

/// Factor the block grid of `pes` blocks into a near-cubic (bx, by, bz).
inline void near_cubic(int n, int& bx, int& by, int& bz) {
  bx = 1;
  by = 1;
  bz = 1;
  int dim = 0;
  while (n > 1) {
    int* d = dim == 0 ? &bx : dim == 1 ? &by : &bz;
    *d *= 2;
    n /= 2;
    dim = (dim + 1) % 3;
  }
}

}  // namespace bench
