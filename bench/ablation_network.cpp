// Network-model sensitivity (DESIGN.md): how stable is the Fig. 1 shape
// (cx <= mpi ~ cpy) across plausible network parameters and topologies?
// A simulation-based reproduction is only credible if the headline
// ordering is not an artifact of one parameter choice.
//
//   ./bench/ablation_network [--pes 4096] [--iters 10]

#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "apps/stencil/stencil_mpi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int pes = static_cast<int>(opt.get_int("pes", 4096));
  const int iters = static_cast<int>(opt.get_int("iters", 10));
  const bench::DispatchCalibration cal = bench::measure_dispatch_overhead();
  const double overhead = cal.median_s;

  stencil::Params p;
  bench::near_cubic(pes, p.geo.bx, p.geo.by, p.geo.bz);
  p.geo.nx = p.geo.ny = p.geo.nz = 24;
  p.iterations = iters;
  p.real_kernel = false;
  p.cell_cost = 2.0e-9;

  struct Case {
    const char* name;
    std::string network;
    double alpha;
    double beta;
  };
  const Case cases[] = {
      {"torus, 2us, 5GB/s (default)", "torus", 2.0e-6, 1.0 / 5.0e9},
      {"torus, 5us, 5GB/s (slow latency)", "torus", 5.0e-6, 1.0 / 5.0e9},
      {"torus, 2us, 1GB/s (slow bw)", "torus", 2.0e-6, 1.0 / 1.0e9},
      {"dragonfly, 1.5us, 8GB/s", "dragonfly", 1.5e-6, 1.0 / 8.0e9},
      {"simple, 2us, 5GB/s", "simple", 2.0e-6, 1.0 / 5.0e9},
  };

  std::printf("ablation_network: fig1 point at %d PEs under different\n",
              pes);
  std::printf("                  network models (%d iterations)\n", iters);
  std::printf("                  %s\n\n", cal.describe().c_str());
  cxu::Table table({"network", "cx ms", "mpi ms", "cpy ms", "cpy/cx",
                    "mpi/cx"});
  for (const auto& c : cases) {
    cxm::MachineConfig machine = bench::blue_waters(pes);
    machine.network = c.network;
    machine.net.alpha = c.alpha;
    machine.net.beta = c.beta;
    auto run_with_iters = [&](auto fn) {
      return bench::slope_time_per_iter(
          [&](int n) {
            stencil::Params q = p;
            q.iterations = n;
            return fn(q);
          },
          iters);
    };
    const double cx_t = run_with_iters(
        [&](const stencil::Params& q) { return stencil::run_cx(q, machine).elapsed; });
    const double mpi_t = run_with_iters(
        [&](const stencil::Params& q) { return stencil::run_mpi(q, machine).elapsed; });
    const double cpy_t = run_with_iters([&](const stencil::Params& q) {
      return stencil::run_cpy(q, machine, "greedy", overhead).elapsed;
    });
    table.add_row({c.name, cxu::Table::num(cx_t * 1e3, 3),
                   cxu::Table::num(mpi_t * 1e3, 3),
                   cxu::Table::num(cpy_t * 1e3, 3),
                   cxu::Table::num(cpy_t / cx_t, 2),
                   cxu::Table::num(mpi_t / cx_t, 2)});
    std::fflush(stdout);
  }
  table.print();
  std::printf("\nexpected: ratios stay in a narrow band across models.\n");
  return 0;
}
