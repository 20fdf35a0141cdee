// cx::ft checkpoint/restart: collective PUP checkpoints round-trip chare
// state (in-memory buddy copies and on-disk snapshots), restore() rolls
// the whole machine back to the latest epoch, and a scripted mid-run PE
// crash in the stencil app recovers to the exact fault-free answer —
// the paper-figure workload surviving a failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "ft/ft.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"

namespace {

using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

struct CkptCell : cx::Chare {
  int x = 0;
  std::vector<double> history;

  void bump(int by) {
    x += by;
    history.push_back(static_cast<double>(x));
  }
  int get() { return x; }
  std::vector<double> get_history() { return history; }

  void pup(pup::Er& p) override {
    p | x;
    p | history;
  }
};

constexpr int kCells = 6;

void bump_all(cx::CollectionProxy<CkptCell>& arr, int by) {
  for (int i = 0; i < kCells; ++i) arr[{i}].send<&CkptCell::bump>(by);
  for (int i = 0; i < kCells; ++i) {
    (void)arr[{i}].call<&CkptCell::get>().get();  // drain before moving on
  }
}

void expect_all(cx::CollectionProxy<CkptCell>& arr, int want) {
  for (int i = 0; i < kCells; ++i) {
    EXPECT_EQ(arr[{i}].call<&CkptCell::get>().get(), want);
    const auto h = arr[{i}].call<&CkptCell::get_history>().get();
    ASSERT_FALSE(h.empty());
    EXPECT_EQ(h.back(), static_cast<double>(want));
  }
}

// ---------------------------------------------------------------------------

TEST(FtCheckpoint, RestoreWithoutCheckpointReportsTypedError) {
  run_program(sim_cfg(2), [] {
    EXPECT_EQ(cx::ft::restore(), cx::ft::RestoreStatus::NoCheckpoint);
    cx::exit();
  });
}

TEST(FtCheckpoint, RoundTripRestoresPuppedStateAndWritesSnapshots) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("ft_ckpt_test_out");
  fs::create_directories(dir);

  for (const auto& cfg : {threaded_cfg(3), sim_cfg(3)}) {
    const int pes = cfg.machine.num_pes;
    // The whole scenario runs twice; the final checkpoint digest must be
    // identical across runs (blobs are built in sorted order, so the
    // digest is a deterministic function of program state).
    std::uint64_t final_digest[2] = {0, 0};
    for (int rep = 0; rep < 2; ++rep) {
      run_program(cfg, [&] {
        auto arr = cx::create_array<CkptCell>({kCells});
        bump_all(arr, 1);
        cx::ft::set_checkpoint_dir(dir.string());
        EXPECT_EQ(cx::ft::checkpoint(), 1u);  // epochs count from 1
        const std::uint64_t d1 = cx::ft::checkpoint_digest();

        bump_all(arr, 1);
        EXPECT_EQ(cx::ft::checkpoint(), 2u);
        const std::uint64_t d2 = cx::ft::checkpoint_digest();
        EXPECT_NE(d1, d2);  // state changed, digest must move
        cx::ft::set_checkpoint_dir("");

        // Damage the state past the checkpoint, then roll back.
        bump_all(arr, 10);
        expect_all(arr, 12);
        cx::ft::restore();
        expect_all(arr, 2);  // the +10 never happened

        // The restored state checkpoints to the same digest every run.
        EXPECT_EQ(cx::ft::checkpoint(), 3u);
        final_digest[rep] = cx::ft::checkpoint_digest();
        cx::exit();
      });

      // Both mirrored epochs hit the disk for every PE.
      for (int pe = 0; pe < pes; ++pe) {
        EXPECT_TRUE(fs::exists(
            dir / ("ckpt_e1_pe" + std::to_string(pe) + ".bin")));
        EXPECT_TRUE(fs::exists(
            dir / ("ckpt_e2_pe" + std::to_string(pe) + ".bin")));
      }
      fs::remove_all(dir);
      fs::create_directories(dir);
    }
    EXPECT_EQ(final_digest[0], final_digest[1]);
    EXPECT_NE(final_digest[0], 0u);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: stencil3d on the DES backend, checkpointing
// every 2 iterations, with PE 2 scripted to die mid-run. The phased
// driver detects the failure, restores, and re-runs the lost phase; the
// final checksum and the last checkpoint digest must match a fault-free
// run bit for bit.

stencil::Params small_stencil() {
  stencil::Params p;  // default geometry: 2x2x2 blocks of 8x8x8 cells
  p.iterations = 10;
  p.real_kernel = true;
  p.ckpt_every = 2;
  return p;
}

TEST(FtCheckpoint, StencilCrashRestartMatchesFaultFree) {
  cxm::MachineConfig machine;
  machine.num_pes = 4;
  machine.backend = cxm::Backend::Sim;

  const stencil::Result clean = stencil::run_cx(small_stencil(), machine);
  const std::uint64_t clean_digest = cx::ft::checkpoint_digest();

  // PE 2 crashes mid-run (virtual seconds).
  machine.faults.script = {{2, 5.0e-5, cx::ft::FailureKind::Crashed}};
  cx::trace::reset();
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  cx::trace::configure(tc);
  const stencil::Result crashed = stencil::run_cx(small_stencil(), machine);
  const std::uint64_t crashed_digest = cx::ft::checkpoint_digest();
  const auto counters = cx::trace::aggregate();
  cx::trace::reset();

  // Guard against the crash silently not firing (a crash time past the
  // makespan would make this test vacuous).
  EXPECT_GE(counters.ft_failures, 1u);
  EXPECT_DOUBLE_EQ(crashed.checksum, clean.checksum);
  EXPECT_EQ(crashed_digest, clean_digest);

  // And checkpointing itself does not perturb the answer.
  machine.faults = cx::ft::FaultConfig{};
  stencil::Params plain = small_stencil();
  plain.ckpt_every = 0;
  const stencil::Result baseline = stencil::run_cx(plain, machine);
  EXPECT_DOUBLE_EQ(baseline.checksum, clean.checksum);
}

}  // namespace
