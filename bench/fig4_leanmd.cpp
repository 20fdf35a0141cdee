// Figure 4: LeanMD strong scaling on "Blue Waters", 2048 -> 16384 cores.
// Paper: near-linear scaling; CharmPy within ~20% of Charm++ — a larger
// gap than stencil3d because the fine-grained decomposition (hundreds of
// chares/PE) stresses per-message runtime overhead.
//
// Defaults use a 20^3 cell grid (~120k chares with computes) and the
// 2048..8192 core axis; pass --full for the paper's 2048..16384 axis
// (and --cells 24 or 32 for larger runs).
//
//   ./bench/fig4_leanmd [--full] [--cells 20] [--steps 3] [--ppc 250]

#include <cstdio>
#include <vector>

#include "apps/leanmd/leanmd_cpy.hpp"
#include "apps/leanmd/leanmd_cx.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  bench::trace_from_options(opt);
  const int cells = static_cast<int>(opt.get_int("cells", 20));
  const int steps = static_cast<int>(opt.get_int("steps", 3));
  const int ppc = static_cast<int>(opt.get_int("ppc", 250));

  const bench::DispatchCalibration cal = bench::measure_dispatch_overhead();
  const double overhead = cal.median_s;
  const long long nchares = 15LL * cells * cells * cells;
  std::printf("fig4: LeanMD strong scaling (torus), %d^3 cells, %d\n",
              cells, ppc);
  std::printf("      atoms/cell (%lld atoms, %lld chares), %d steps,\n",
              static_cast<long long>(ppc) * cells * cells * cells, nchares,
              steps);
  std::printf("      modeled kernel, %s\n\n", cal.describe().c_str());

  cxu::Table table({"cores", "chares/PE", "charm++ (cx) ms/step",
                    "charmpy (cpy) ms/step", "cpy/cx"});
  std::vector<int> cores = {2048, 4096, 8192};
  if (opt.get_bool("full", false)) cores.push_back(16384);
  for (int pes : cores) {
    leanmd::PhysParams p;
    p.cx = p.cy = p.cz = cells;
    p.ppc = ppc;
    p.steps = steps;
    p.migrate_every = 0;  // paper measures the force-step pipeline
    p.real = false;
    p.pair_cost = 4.0e-12;  // seconds per atom pair

    const double cx_t = bench::slope_time_per_iter(
        [&](int n) {
          leanmd::PhysParams q = p;
          q.steps = n;
          return leanmd::run_cx(q, bench::blue_waters(pes)).elapsed;
        },
        steps);
    const double cpy_t = bench::slope_time_per_iter(
        [&](int n) {
          leanmd::PhysParams q = p;
          q.steps = n;
          return leanmd::run_cpy(q, bench::blue_waters(pes), overhead)
              .elapsed;
        },
        steps);

    table.add_row(
        {std::to_string(pes),
         cxu::Table::num(static_cast<double>(nchares) / pes, 1),
         cxu::Table::num(cx_t * 1e3, 3), cxu::Table::num(cpy_t * 1e3, 3),
         cxu::Table::num(cpy_t / cx_t, 3)});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nexpected shape (paper fig. 4): near-linear scaling; cpy within\n"
      "~20%% of cx, a larger gap than stencil3d (fine-grained chares).\n");
  bench::trace_report();  // covers the last (largest) cpy sweep point
  return 0;
}
