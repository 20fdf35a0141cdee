// Helper program for the cxrun tests (run as `cxrun -np 2 <this>`):
// once the job is wired up, rank 0 asks a chare on PE 1 (rank 1) to
// SIGKILL its own process and then waits on a future nobody fulfils.
// No fault tolerance is configured, so the job cannot finish; cxrun
// must notice the dead rank and end the job.

#include <csignal>

#include "core/charm.hpp"

namespace {

struct Victim : cx::Chare {
  void die() { std::raise(SIGKILL); }
};

}  // namespace

int main() {
  cx::RuntimeConfig cfg;  // geometry comes from the CXRUN_* environment
  cx::Runtime rt(cfg);
  rt.run([] {
    auto victim = cx::create_chare<Victim>(1);
    auto never = cx::make_future<int>();
    victim.send<&Victim::die>();
    (void)never.get();
    cx::exit();
  });
  return 0;
}
