// halo3d — typed stencil3d (paper Figs. 1-3) on the threaded backend.
//
// Each episode builds a fresh 4-PE Runtime, creates the 4x4x4 array of
// stencil::CxBlock (16^3 cells per block, 16 blocks per PE, ~6 MB), runs
// kWarm untimed iterations, then kRounds timed rounds of kRoundIters
// iterations, each a start_until broadcast closed by the checksum
// reduction. Episodes repeat until the time budget is spent. A fresh
// Runtime per episode keeps every round's work identical and lets each
// episode's checksum be checked against one serial reference.

#include <algorithm>
#include <cmath>
#include <string>

#include "apps/stencil/stencil_cx.hpp"
#include "common.hpp"
#include "layers.hpp"

namespace bench {

namespace {

constexpr int kPes = 4;
constexpr int kWarm = 20;          ///< untimed iterations after creation
constexpr int kRoundIters = 20;    ///< iterations per timed round
constexpr int kRounds = 20;        ///< timed rounds per episode
constexpr int kCountRounds = 5;    ///< rounds per exact-count segment
constexpr int kMinEpisodes = 3;

stencil::Params halo_params() {
  stencil::Params p;
  p.geo = stencil::Geometry{4, 4, 4, 16, 16, 16};
  return p;
}

bool same_checksum(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

}  // namespace

void run_halo3d(const Args& a, Report& r) {
  const stencil::Params p = halo_params();
  const int episode_iters = kWarm + kRounds * kRoundIters;
  const int count_iters = 2 * kCountRounds * kRoundIters;
  // References are computed before any timing starts.
  const double want = stencil::serial_checksum(p.geo, episode_iters);
  const double want_counted =
      a.trace ? stencil::serial_checksum(p.geo, episode_iters + count_iters)
              : 0.0;

  Spans spans;
  LayerExtras x;
  Counts seg_a, seg_b;
  bool counted = false;
  if (a.trace) {
    kernel_spans(spans);
    threaded_probes(spans, x, r);
  }

  const double cells =
      static_cast<double>(p.geo.num_blocks() * p.geo.cells_per_block());
  std::vector<double> setup, iter_s, rate;
  const double t_end = mono_now() + a.seconds;
  for (int ep = 0; ep < kMinEpisodes || mono_now() < t_end; ++ep) {
    const bool count_here = a.trace && !counted;
    cx::RuntimeConfig cfg;
    cfg.machine.num_pes = kPes;
    cfg.seed = a.seed;
    double sum = 0.0;
    double timed_s = 0.0;
    const double t0 = mono_now();
    cx::Runtime rt(cfg);
    rt.run([&] {
      const double c0 = mono_now();
      auto arr = cx::create_array<stencil::CxBlock>({4, 4, 4}, p);
      int iter = 0;
      auto run_to = [&](int until) {
        auto f = cx::make_future<double>();
        arr.broadcast<&stencil::CxBlock::start_until>(cx::cb(f), until);
        const double s = f.get();
        iter = until;
        return s;
      };
      (void)run_to(0);  // barrier: every element exists
      spans.add("core.create", c0, mono_now());
      (void)run_to(kWarm);
      setup.push_back(mono_now() - t0);

      for (int k = 0; k < kRounds; ++k) {
        const double ts = mono_now();
        sum = run_to(iter + kRoundIters);
        const double dt = mono_now() - ts;
        iter_s.push_back(dt / kRoundIters);
        timed_s += dt;
      }

      if (count_here) {
        // Two fixed segments bracketed by counter snapshots; their exact
        // counts must agree.
        auto probe = cx::create_group<Probe>();
        (void)snap_all(probe);
        auto segment = [&](double& wall) {
          const Counts c0 = read_counts(snap_all(probe));
          const double w0 = mono_now();
          for (int k = 0; k < kCountRounds; ++k) {
            sum = run_to(iter + kRoundIters);
          }
          wall = mono_now() - w0;
          return counts_minus(read_counts(snap_all(probe)), c0);
        };
        double wall_b = 0.0;
        seg_a = segment(x.wall_s);
        seg_b = segment(wall_b);
      }
      cx::exit();
    });
    rate.push_back(cells * kRounds * kRoundIters / timed_s);
    r.attempt(kRounds);
    const double expect = count_here ? want_counted : want;
    if (!same_checksum(sum, expect)) {
      r.fail("halo3d episode " + std::to_string(ep) + ": checksum " +
                 std::to_string(sum) + " != serial " + std::to_string(expect),
             kRounds);
    }
    counted = counted || count_here;
  }

  r.series("setup_s", setup);
  r.series("op_s", iter_s);        // seconds per iteration, per round
  r.series("work_per_s", rate);    // cell updates per second, per episode
  r.metric("peak_rss_MB", peak_rss_mb());

  if (a.trace) {
    x.ops = kCountRounds * kRoundIters;
    x.pes = kPes;
    x.count_mismatches = compare_exact(
        "halo3d", seg_a, seg_b,
        {"msgs_sent", "transport_msgs", "envelopes"});
    emit_layers(r, spans, seg_a, x);
    spans.dump(a.spans_out);
  }
}

}  // namespace bench
