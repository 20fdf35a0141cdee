// Soak gate for bounded future memory: PE 0 makes 20 000 consumed
// `call<>().get()` round trips with a 64 KiB payload to an echo chare on
// the last PE, and the process's resident set after the last call must
// stay within 16 MB of the resident set after the first 1 000. A future
// that kept its reply would grow by 64 KiB per call (about 1.2 GB over
// the run); the check runs every 1 000 calls, so such a leak fails fast.
//
// Run it directly (threaded backend, 2 PEs) or as a socket job:
//   ./future_soak
//   cxrun -np 2 ./future_soak     # PE 0 on rank 0, the echo on rank 1
// Exits 0 when the resident set stays flat, 1 otherwise. Sanitizer
// builds compare live heap bytes instead of the resident set.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/charm.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace {

constexpr int kCalls = 20000;
constexpr int kWarmup = 1000;
constexpr std::size_t kPayload = 64 * 1024;
constexpr double kMarginMb = 16.0;

struct SoakEcho : cx::Chare {
  std::vector<std::uint8_t> echo(std::vector<std::uint8_t> v) { return v; }
};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
/// Sanitizer allocators park freed blocks in a quarantine, so the
/// resident set tracks the quarantine rather than the program: measure
/// the live heap instead.
double mem_mb() {
  return static_cast<double>(__sanitizer_get_current_allocated_bytes()) /
         (1024.0 * 1024.0);
}
#else
/// Current resident set of this process in MB (/proc/self/statm).
double mem_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}
#endif

}  // namespace

int main() {
  cx::RuntimeConfig cfg;  // under cxrun the CXRUN_* environment wins
  cfg.machine.num_pes = 2;
  cx::Runtime rt(cfg);
  int status = 0;
  rt.run([&status] {
    auto echo = cx::create_chare<SoakEcho>(cx::num_pes() - 1);
    const std::vector<std::uint8_t> payload(kPayload, 0x5a);
    double base = 0.0;
    for (int i = 1; i <= kCalls; ++i) {
      const auto back = echo.call<&SoakEcho::echo>(payload).get();
      if (back.size() != kPayload) {
        std::fprintf(stderr, "future_soak: call %d echoed %zu bytes\n", i,
                     back.size());
        status = 1;
        break;
      }
      if (i % kWarmup != 0) continue;
      const double now = mem_mb();
      if (i == kWarmup) {
        base = now;
        continue;
      }
      if (now - base > kMarginMb) {
        std::fprintf(stderr,
                     "future_soak: memory grew %.1f -> %.1f MB after %d calls "
                     "(margin %.0f MB)\n",
                     base, now, i, kMarginMb);
        status = 1;
        break;
      }
    }
    const std::size_t table = cx::Runtime::current().future_table_size();
    if (status == 0 && table != 0) {
      std::fprintf(stderr, "future_soak: %zu futures left in the table\n",
                   table);
      status = 1;
    }
    if (status == 0) {
      std::printf(
          "future_soak: %d calls of %zu B, %.1f MB after %d, %.1f MB "
          "after the last\n",
          kCalls, kPayload, base, kWarmup, mem_mb());
    }
    cx::exit();
  });
  return status;
}
