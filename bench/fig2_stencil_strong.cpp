// Figure 2: stencil3d strong scaling on "Cori" (2 KNL nodes, dragonfly),
// 8 -> 128 cores, fixed global grid. Paper: time/step falls ~linearly
// from ~1600 ms to ~110 ms; the three implementations overlap.
//
//   ./bench/fig2_stencil_strong [--grid 256] [--iters 12]

#include <cstdio>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "apps/stencil/stencil_mpi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int grid = static_cast<int>(opt.get_int("grid", 256));
  const int iters = static_cast<int>(opt.get_int("iters", 12));
  // Heavier per-cell cost than fig1: the paper's strong-scaling problem
  // is compute-dominated (1.6 s/step at 8 cores).
  const double cell_cost = opt.get_double("cell_cost", 4.0e-9);

  const bench::DispatchCalibration cal = bench::measure_dispatch_overhead();
  const double overhead = cal.median_s;
  std::printf("fig2: stencil3d strong scaling (dragonfly, %d^3 grid)\n",
              grid);
  std::printf("      %d iterations, modeled kernel\n", iters);
  std::printf("      %s\n\n", cal.describe().c_str());

  cxu::Table table({"cores", "charm++ (cx) ms", "mpi ms",
                    "charmpy (cpy) ms", "speedup vs 8 (cx)"});
  double base = 0.0;
  for (int pes : std::vector<int>{8, 16, 32, 64, 128}) {
    stencil::Params p;
    bench::near_cubic(pes, p.geo.bx, p.geo.by, p.geo.bz);
    p.geo.nx = grid / p.geo.bx;
    p.geo.ny = grid / p.geo.by;
    p.geo.nz = grid / p.geo.bz;
    p.iterations = iters;
    p.real_kernel = false;
    p.cell_cost = cell_cost;

    const double cx_t = bench::slope_time_per_iter(
        [&](int n) {
          stencil::Params q = p;
          q.iterations = n;
          return stencil::run_cx(q, bench::cori(pes)).elapsed;
        },
        iters);
    const double mpi_t = bench::slope_time_per_iter(
        [&](int n) {
          stencil::Params q = p;
          q.iterations = n;
          return stencil::run_mpi(q, bench::cori(pes)).elapsed;
        },
        iters);
    const double cpy_t = bench::slope_time_per_iter(
        [&](int n) {
          stencil::Params q = p;
          q.iterations = n;
          return stencil::run_cpy(q, bench::cori(pes), "greedy", overhead)
              .elapsed;
        },
        iters);
    if (pes == 8) base = cx_t;

    table.add_row({std::to_string(pes), cxu::Table::num(cx_t * 1e3, 3),
                   cxu::Table::num(mpi_t * 1e3, 3),
                   cxu::Table::num(cpy_t * 1e3, 3),
                   cxu::Table::num(base / cx_t, 2)});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nexpected shape (paper fig. 2): ~linear strong scaling (speedup\n"
      "~16x at 128 cores); the three series overlap.\n");
  return 0;
}
