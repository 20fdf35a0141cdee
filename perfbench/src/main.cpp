// cxbench — one pass of one workload of the CharmX wall-clock benchmark.
//
//   cxbench <halo3d|md-dyn|rtt-xrank|pmap> [--seed N] [--seconds S]
//           [--trace 0|1] [--spans-out PATH]
//           [--launch-t T]                               (rtt-xrank only)
//
// rtt-xrank must run under `cxrun -np 2 -ppn 1`. The pass prints one JSON
// line {attempted, failed, metrics, series} (rank 0 only under cxrun):
// scalar metrics plus raw sample series that perfbench/run.py reduces to
// medians and tails. Exit status is 0 when the pass ran, whatever it
// measured; wrong outputs are in the `failed` count.

#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "machine/machine.hpp"

namespace {

bool parse(int argc, char** argv, bench::Args& a) {
  if (argc < 2) return false;
  a.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--launch-t") {
      a.launch_t = std::stod(v);
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 0 && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args a;
  try {
    if (!parse(argc, argv, a)) {
      std::fprintf(stderr,
                   "usage: cxbench <halo3d|md-dyn|rtt-xrank|pmap> [--seed N] "
                   "[--seconds S] [--trace 0|1] [--spans-out PATH] "
                   "[--launch-t T]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cxbench: bad argument: %s\n", e.what());
    return 2;
  }

  cx::trace::Config tc;
  tc.enabled = a.trace;
  tc.print_summary = false;
  cx::trace::configure(tc);

  bench::Report report;
  try {
    if (a.workload == "halo3d") {
      bench::run_halo3d(a, report);
    } else if (a.workload == "md-dyn") {
      bench::run_mddyn(a, report);
    } else if (a.workload == "rtt-xrank") {
      bench::run_rtt(a, report);
    } else if (a.workload == "pmap") {
      bench::run_pmap(a, report);
    } else {
      std::fprintf(stderr, "cxbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cxbench: %s: %s\n", a.workload.c_str(), e.what());
    return 3;
  }
  if (cxm::launched_rank() == 0) report.print();
  return 0;
}
