// Figure 3: stencil3d with synthetic load imbalance (paper §V-B) on
// "Cori", 8 -> 128 cores. Five series: Charm++(no lb), CharmPy(no lb),
// MPI, Charm++(lb), CharmPy(lb). The chare versions use 4 blocks per
// process and GreedyLB every 30 iterations.
//
// Paper's result: without LB all three are similar; with LB the chare
// versions run 1.9x - 2.27x faster.
//
//   ./bench/fig3_stencil_lb [--iters 150] [--grid 128]

#include <cstdio>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "apps/stencil/stencil_mpi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int iters = static_cast<int>(opt.get_int("iters", 150));
  const int grid = static_cast<int>(opt.get_int("grid", 128));
  const int lb_period = static_cast<int>(opt.get_int("lb", 30));
  // Phase-drift period of the alpha model (see stencil_common.hpp):
  // 30 = slow-drift reading (reproduces the paper's LB gains);
  // 1 = literal per-iteration rotation (smaller gains; see EXPERIMENTS.md).
  const int drift = static_cast<int>(opt.get_int("drift", 30));

  const bench::DispatchCalibration cal = bench::measure_dispatch_overhead();
  const double overhead = cal.median_s;
  std::printf("fig3: stencil3d with synthetic imbalance (alpha model of\n");
  std::printf("      paper SecV-B), 4 chares/PE, greedy LB every %d iters,\n",
              lb_period);
  std::printf("      %d iterations, %d^3 grid\n", iters, grid);
  std::printf("      %s\n\n", cal.describe().c_str());

  cxu::Table table({"cores", "cx-nolb ms", "cpy-nolb ms", "mpi ms",
                    "cx-lb ms", "cpy-lb ms", "lb speedup (cx)"});
  for (int pes : std::vector<int>{8, 16, 32, 64, 128}) {
    // MPI decomposition: one block per rank; load group = rank.
    stencil::Params mp;
    bench::near_cubic(pes, mp.geo.bx, mp.geo.by, mp.geo.bz);
    mp.geo.nx = grid / mp.geo.bx;
    mp.geo.ny = grid / mp.geo.by;
    mp.geo.nz = grid / mp.geo.bz;
    mp.iterations = iters;
    mp.real_kernel = false;
    mp.cell_cost = 2.0e-9;
    mp.imbalance = true;
    mp.num_load_groups = pes;
    mp.imb_drift = drift;

    // Chare decomposition: 4 blocks per PE, strictly refining the MPI
    // blocks (same load group <=> same MPI block, as in the paper).
    stencil::Params cp = mp;
    bench::near_cubic(pes * 4, cp.geo.bx, cp.geo.by, cp.geo.bz);
    cp.geo.nx = grid / cp.geo.bx;
    cp.geo.ny = grid / cp.geo.by;
    cp.geo.nz = grid / cp.geo.bz;

    stencil::Params cp_lb = cp;
    cp_lb.lb_period = lb_period;

    const auto mpi_r = stencil::run_mpi(mp, bench::cori(pes));
    const auto cx_nolb = stencil::run_cx(cp, bench::cori(pes));
    const auto cpy_nolb =
        stencil::run_cpy(cp, bench::cori(pes), "greedy", overhead);
    const auto cx_lb = stencil::run_cx(cp_lb, bench::cori(pes));
    const auto cpy_lb =
        stencil::run_cpy(cp_lb, bench::cori(pes), "greedy", overhead);

    table.add_row(
        {std::to_string(pes), cxu::Table::num(cx_nolb.time_per_iter * 1e3, 2),
         cxu::Table::num(cpy_nolb.time_per_iter * 1e3, 2),
         cxu::Table::num(mpi_r.time_per_iter * 1e3, 2),
         cxu::Table::num(cx_lb.time_per_iter * 1e3, 2),
         cxu::Table::num(cpy_lb.time_per_iter * 1e3, 2),
         cxu::Table::num(cx_nolb.time_per_iter / cx_lb.time_per_iter, 2)});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nexpected shape (paper fig. 3): no-lb series similar across all\n"
      "three; lb series ~2x faster (paper: 1.9x-2.27x).\n");
  return 0;
}
