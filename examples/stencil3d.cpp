// stencil3d driver — run any of the three variants (typed core, dynamic
// model layer, mini-MPI) on either backend, with optional synthetic
// imbalance and dynamic load balancing (paper §V-A/B).
//
//   ./examples/stencil3d --variant cx   --pes 4 --blocks 2,2,2 --cells 8,8,8
//   ./examples/stencil3d --variant cpy  --iters 20
//   ./examples/stencil3d --variant mpi  --pes 8 --blocks 2,2,2
//   ./examples/stencil3d --variant cx --imbalance --lb 30 --backend sim
//       --pes 16 --blocks 4,4,4                        (one command line)

#include <cstdio>
#include <cstdlib>

#include "apps/stencil/stencil_common.hpp"
#include "apps/stencil/stencil_cpy.hpp"
#include "apps/stencil/stencil_cx.hpp"
#include "apps/stencil/stencil_mpi.hpp"
#include "ft/fault.hpp"
#include "trace/trace.hpp"
#include "util/options.hpp"
#include "wire/pool.hpp"

namespace {

void parse_triplet(const std::string& s, int& a, int& b, int& c) {
  if (std::sscanf(s.c_str(), "%d,%d,%d", &a, &b, &c) != 3) {
    std::fprintf(stderr, "expected x,y,z triplet, got '%s'\n", s.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  cx::trace::configure_from_options(opt);  // --trace [--trace-out=...]
  cx::wire::configure_from_options(opt);   // --wire-pool=on|off
  stencil::Params p;
  parse_triplet(opt.get_string("blocks", "2,2,2"), p.geo.bx, p.geo.by,
                p.geo.bz);
  parse_triplet(opt.get_string("cells", "8,8,8"), p.geo.nx, p.geo.ny,
                p.geo.nz);
  p.iterations = static_cast<int>(opt.get_int("iters", 10));
  p.real_kernel = !opt.get_bool("modeled", false);
  p.imbalance = opt.get_bool("imbalance", false);
  p.lb_period = static_cast<int>(opt.get_int("lb", 0));

  cxm::MachineConfig machine;
  machine.num_pes = static_cast<int>(opt.get_int("pes", 4));
  machine.backend = opt.get_string("backend", "threaded") == "sim"
                        ? cxm::Backend::Sim
                        : cxm::Backend::Threaded;
  // Fault injection / reliable delivery (cx::ft): --ft-drop, --ft-dup,
  // --ft-delay, --ft-seed, --ft-script crash:<pe>@<time>, ...
  machine.faults = cx::ft::fault_config_from_options(opt);
  p.ckpt_every =
      static_cast<int>(opt.get_int("ft-checkpoint-every", 0));
  p.num_load_groups = static_cast<int>(
      opt.get_int("groups", machine.num_pes));

  const std::string variant = opt.get_string("variant", "cx");
  if (p.ckpt_every > 0 && variant != "cx") {
    std::fprintf(stderr,
                 "--ft-checkpoint-every is only supported by --variant cx\n");
    return 1;
  }
  stencil::Result r;
  if (variant == "cx") {
    r = stencil::run_cx(p, machine, opt.get_string("strategy", "greedy"));
  } else if (variant == "cpy") {
    r = stencil::run_cpy(p, machine, opt.get_string("strategy", "greedy"));
  } else if (variant == "mpi") {
    r = stencil::run_mpi(p, machine);
  } else {
    std::fprintf(stderr, "unknown --variant '%s' (cx|cpy|mpi)\n",
                 variant.c_str());
    return 1;
  }

  if (cxm::launched_rank() != 0) {
    // Under cxrun only rank 0 hosts PE 0, where the driver ran and the
    // results were gathered; worker ranks have nothing to report.
    return 0;
  }
  std::printf("stencil3d %s: %dx%dx%d blocks of %dx%dx%d cells, %d iters\n",
              variant.c_str(), p.geo.bx, p.geo.by, p.geo.bz, p.geo.nx,
              p.geo.ny, p.geo.nz, p.iterations);
  std::printf("  elapsed      %.6f s (%s)\n", r.elapsed,
              machine.backend == cxm::Backend::Sim ? "virtual" : "wall");
  std::printf("  time/iter    %.3f ms\n", r.time_per_iter * 1e3);
  std::printf("  checksum     %.12g\n", r.checksum);
  if (p.lb_period > 0) {
    std::printf("  lb           %llu migrations, imbalance %.2f -> %.2f\n",
                static_cast<unsigned long long>(r.lb_migrations),
                r.imbalance_before, r.imbalance_after);
  }
  cx::trace::report_if_enabled();
  return 0;
}
