// cx::ft x sections: a scripted PE crash lands mid-run while section
// multicasts and section-scoped reductions are in flight. The phased
// driver detects the failure, rolls back to the last collective
// checkpoint (which carries the section specs, per-element sequence
// tags, and any partially folded fragments), and re-runs the phase; the
// final reduction value and the last checkpoint digest must match a
// fault-free run bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ft/ft.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"

namespace {

constexpr int kCells = 16;
constexpr int kMembers = 8;  // the odd indices
constexpr int kPhases = 6;

struct FtCell : cx::Chare {
  int hits = 0;

  void pup(pup::Er& p) override { p | hits; }

  // Idempotent phase step: climb to `target` multicast rounds, then
  // fold the count into the section reduction. Re-broadcasting after a
  // rollback (from any restored boundary) converges to the same state.
  void work(int target, cx::SectionProxy<FtCell> s, cx::Future<int> f) {
    while (hits < target) {
      cx::compute(5e-6);  // advance virtual time so the crash lands mid-run
      ++hits;
    }
    contribute(s, hits, cx::reducer::sum<int>(), cx::cb(f));
  }

  int get_hits() { return hits; }
};

// Run the phased section workload; returns the final section-reduction
// value and writes the digest of the last checkpoint taken.
int run_scenario(const cxm::MachineConfig& machine, std::uint64_t* digest) {
  cx::RuntimeConfig cfg;
  cfg.machine = machine;
  cx::Runtime rt(cfg);
  int final_sum = -1;
  rt.run([&] {
    auto arr = cx::create_array<FtCell>({kCells});
    std::vector<cx::Index> members;
    for (int i = 1; i < kCells; i += 2) members.push_back(cx::Index(i));
    auto s = arr.section(members);
    {
      // target=0 is a pure section barrier: every element exists and the
      // section is installed everywhere before the first checkpoint.
      auto barrier = cx::make_future<int>();
      s.broadcast<&FtCell::work>(0, s, barrier);
      (void)barrier.get();
    }
    const cx::ft::RetryPolicy& pol = cx::ft::retry_policy();
    (void)cx::ft::checkpoint();
    for (int target = 1; target <= kPhases; ++target) {
      auto f = cx::make_future<int>();
      s.broadcast<&FtCell::work>(target, s, f);
      std::optional<int> phase;
      int attempt = 0;
      while (!(phase = f.get_for(std::max(pol.delay(attempt), 1.0)))) {
        if (cx::ft::failed_pes().empty()) continue;  // slow, not dead
        if (cx::ft::restore() != cx::ft::RestoreStatus::Ok) continue;
        if (!pol.allows(++attempt)) {
          throw std::runtime_error(
              "ft-sections: phase could not complete within the retry "
              "policy's attempt budget");
        }
        f = cx::make_future<int>();
        s.broadcast<&FtCell::work>(target, s, f);
      }
      final_sum = *phase;
      (void)cx::ft::checkpoint();
    }
    for (int i = 0; i < kCells; ++i) {
      EXPECT_EQ(arr[i].call<&FtCell::get_hits>().get(),
                i % 2 == 1 ? kPhases : 0);
    }
    cx::exit();
  });
  *digest = cx::ft::checkpoint_digest();
  return final_sum;
}

TEST(FtSections, CrashMidSectionReductionMatchesFaultFree) {
  cxm::MachineConfig machine;
  machine.num_pes = 4;
  machine.backend = cxm::Backend::Sim;

  std::uint64_t clean_digest = 0;
  const int clean = run_scenario(machine, &clean_digest);
  EXPECT_EQ(clean, kMembers * kPhases);

  // Same workload with PE 2 scripted to die mid-run (virtual seconds:
  // inside phase 2 of the loop, while reduction fragments are in
  // flight — the fault-free phases land at ~2.4e-5s intervals).
  machine.faults.script = {{2, 5.0e-5, cx::ft::FailureKind::Crashed}};
  cx::trace::reset();
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  cx::trace::configure(tc);
  std::uint64_t crashed_digest = 0;
  const int crashed = run_scenario(machine, &crashed_digest);
  const auto counters = cx::trace::aggregate();
  cx::trace::reset();

  // Guard against the crash silently not firing (a crash time past the
  // makespan would make the digest comparison vacuous).
  EXPECT_GE(counters.ft_failures, 1u);
  EXPECT_EQ(crashed, clean);
  EXPECT_EQ(crashed_digest, clean_digest);
  EXPECT_NE(crashed_digest, 0u);
}

}  // namespace
