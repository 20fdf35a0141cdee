// Figure 1: stencil3d weak scaling on "Blue Waters" (3D torus, 32
// PEs/node), 1k -> 65k cores, comparing the typed core ("Charm++"), the
// mini-MPI baseline ("mpi4py") and the dynamic model layer ("CharmPy").
//
// Paper's result: all three within a few percent; Charm++ fastest;
// CharmPy at most 6.2% behind (at 32k cores).
//
// Defaults sweep 1k..16k simulated PEs with a modeled kernel (the host
// runs virtual PEs); pass --full for the paper's 1k..65k axis.
//
//   ./bench/fig1_stencil_weak [--full] [--iters 12] [--block 16]

#include <cstdio>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "apps/stencil/stencil_mpi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  bench::trace_from_options(opt);
  const int iters = static_cast<int>(opt.get_int("iters", 12));
  const int block = static_cast<int>(opt.get_int("block", 24));
  std::vector<int> cores = {1024, 2048, 4096, 8192, 16384};
  if (opt.get_bool("full", false)) {
    cores.push_back(32768);
    cores.push_back(65536);
  }

  const bench::DispatchCalibration cal = bench::measure_dispatch_overhead();
  const double overhead = cal.median_s;
  std::printf("fig1: stencil3d weak scaling (torus, 32 PEs/node)\n");
  std::printf("      one %d^3 block per PE, %d iterations, modeled kernel\n",
              block, iters);
  std::printf("      %s\n\n", cal.describe().c_str());

  cxu::Table table({"cores", "charm++ (cx) ms", "mpi ms", "charmpy (cpy) ms",
                    "cpy/cx"});
  for (int pes : cores) {
    stencil::Params p;
    bench::near_cubic(pes, p.geo.bx, p.geo.by, p.geo.bz);
    p.geo.nx = p.geo.ny = p.geo.nz = block;
    p.iterations = iters;
    p.real_kernel = false;
    p.cell_cost = 2.0e-9;

    const double cx_t = bench::slope_time_per_iter(
        [&](int n) {
          stencil::Params q = p;
          q.iterations = n;
          return stencil::run_cx(q, bench::blue_waters(pes)).elapsed;
        },
        iters);
    const double mpi_t = bench::slope_time_per_iter(
        [&](int n) {
          stencil::Params q = p;
          q.iterations = n;
          return stencil::run_mpi(q, bench::blue_waters(pes)).elapsed;
        },
        iters);
    const double cpy_t = bench::slope_time_per_iter(
        [&](int n) {
          stencil::Params q = p;
          q.iterations = n;
          return stencil::run_cpy(q, bench::blue_waters(pes), "greedy",
                                  overhead)
              .elapsed;
        },
        iters);

    table.add_row({std::to_string(pes), cxu::Table::num(cx_t * 1e3, 3),
                   cxu::Table::num(mpi_t * 1e3, 3),
                   cxu::Table::num(cpy_t * 1e3, 3),
                   cxu::Table::num(cpy_t / cx_t, 3)});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nexpected shape (paper fig. 1): flat weak scaling; cx fastest;\n"
      "cpy within ~6%% of cx; mpi between them.\n");
  bench::trace_report();  // covers the last (largest) cpy sweep point
  return 0;
}
