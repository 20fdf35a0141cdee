// md-dyn — LeanMD on the dynamic cpy:: layer (paper Fig. 4, "CharmPy").
//
// Each episode is one leanmd::run_cpy call: a fresh 4-PE Runtime, 4x4x4
// cells of 16 atoms (64 cells + 896 computes = 960 chares), kSteps steps
// with atom migration every 5 steps. At dt 2e-4 the kinetic energy stays
// flat over an episode, and every episode starts from the same atoms, so
// each one does the same work. Episodes repeat until the time budget is
// spent; each is checked against leanmd::run_cx on the same parameters.

#include <cmath>
#include <string>

#include "apps/leanmd/leanmd_cpy.hpp"
#include "apps/leanmd/leanmd_cx.hpp"
#include "common.hpp"
#include "layers.hpp"

namespace bench {

namespace {

constexpr int kPes = 4;
constexpr int kSteps = 20;
constexpr int kMinEpisodes = 3;

leanmd::PhysParams md_params() {
  leanmd::PhysParams p;
  p.cx = p.cy = p.cz = 4;
  p.ppc = 16;
  p.dt = 2.0e-4;
  p.steps = kSteps;
  p.migrate_every = 5;
  return p;
}

/// Episodes until `seconds` pass (at least kMinEpisodes); returns the
/// per-step seconds of each.
template <typename RunFn>
std::vector<double> episodes(double seconds, RunFn&& run) {
  std::vector<double> steps;
  const double t_end = mono_now() + seconds;
  while (steps.size() < kMinEpisodes || mono_now() < t_end) {
    steps.push_back(run());
  }
  return steps;
}

}  // namespace

void run_mddyn(const Args& a, Report& r) {
  const leanmd::PhysParams p = md_params();
  cxm::MachineConfig m;
  m.num_pes = kPes;
  const std::int64_t atoms = p.num_cells() * p.ppc;

  // Reference outside the timed region: the typed variant, same inputs.
  const leanmd::Result ref = leanmd::run_cx(p, m);
  if (ref.atoms != atoms) {
    r.attempt();
    r.fail("md-dyn reference run_cx lost atoms: " +
           std::to_string(ref.atoms));
  }

  Spans spans;
  LayerExtras x;
  if (a.trace) {
    kernel_spans(spans);
    threaded_probes(spans, x, r);
  }

  std::vector<double> setup, rate;
  std::int64_t timed_steps = 0;
  Counts total;
  const std::vector<double> step_s = episodes(a.seconds, [&] {
    const double t0 = mono_now();
    const leanmd::Result res = leanmd::run_cpy(p, m);
    const double t1 = mono_now();
    // run_cpy times its steps itself; the rest of the call is runtime
    // bring-up, collection creation and teardown.
    setup.push_back((t1 - t0) - res.elapsed);
    rate.push_back(static_cast<double>(atoms * kSteps) / res.elapsed);
    timed_steps += kSteps;
    r.attempt(kSteps);
    const bool ke_ok = std::abs(res.kinetic_energy - ref.kinetic_energy) <=
                       1e-6 * std::abs(ref.kinetic_energy);
    if (res.atoms != atoms || !ke_ok) {
      r.fail("md-dyn episode: atoms " + std::to_string(res.atoms) + " (want " +
                 std::to_string(atoms) + "), kinetic energy " +
                 std::to_string(res.kinetic_energy) + " (run_cx " +
                 std::to_string(ref.kinetic_energy) + ")",
             kSteps);
    }
    if (a.trace) {
      // The episode's Runtime is gone, so its counters are final.
      total = counts_plus(
          total, read_counts(Snap::of(cx::trace::aggregate())));
      x.wall_s += t1 - t0;
    }
    return res.time_per_step;
  });

  r.series("setup_s", setup);
  r.series("op_s", step_s);        // seconds per step, per episode
  r.series("work_per_s", rate);    // atom-steps per second, per episode
  r.metric("peak_rss_MB", peak_rss_mb());

  if (a.trace) {
    // The paper's CharmPy/Charm++ ratio: the typed variant, same
    // parameters, also traced.
    const std::vector<double> cx_step = episodes(a.seconds / 4, [&] {
      return leanmd::run_cx(p, m).time_per_step;
    });
    x.dyn_over_typed = median(step_s) / median(cx_step);
    x.ops = static_cast<double>(timed_steps);
    x.pes = kPes;
    // Setup here is creation: bring-up, the cell array and the 896
    // sparse compute inserts.
    for (const double s : setup) spans.add("core.create", 0.0, s);
    emit_layers(r, spans, total, x);
    spans.dump(a.spans_out);
  }
}

}  // namespace bench
