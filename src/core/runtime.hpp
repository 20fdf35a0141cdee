#pragma once
// Runtime — the orchestrator tying chares, proxies, reductions, futures,
// migration and load balancing to a Machine backend.
//
// Lifecycle (mirrors charm.start()/charm.exit() of the paper):
//
//   cx::RuntimeConfig cfg;
//   cfg.machine.num_pes = 8;
//   cx::Runtime rt(cfg);
//   rt.run([] {                 // entry point, threaded, on PE 0
//     auto g = cx::create_group<Worker>();
//     auto f = cx::make_future<double>();
//     ...
//     cx::exit();
//   });
//
// Exactly one Runtime may exist at a time (it installs itself as the
// process-current runtime, like the `charm` object of the paper).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/reduction.hpp"
#include "machine/machine.hpp"

namespace cx {

struct RuntimeConfig {
  cxm::MachineConfig machine;
  /// Strategy used when chares reach AtSync (see lb.hpp).
  std::string lb_strategy = "greedy";
  std::uint64_t seed = 1;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Run `entry` as a threaded entry point on PE 0; blocks until exit()
  /// (or, on the simulated backend, until all work drains).
  void run(std::function<void()> entry);

  /// Stop the runtime (charm.exit()). Callable from entry methods.
  void exit();

  [[nodiscard]] int num_pes() const noexcept;
  [[nodiscard]] int my_pe() const noexcept;
  /// Multi-process locality (socket backend): this process's
  /// rank and the job's rank count. 0 of 1 on single-process backends.
  [[nodiscard]] int my_rank() const noexcept;
  [[nodiscard]] int num_ranks() const noexcept;
  [[nodiscard]] double now() const;
  void compute(double seconds);
  void charge(double seconds);
  [[nodiscard]] bool is_simulated() const noexcept;

  /// Simulated makespan (max virtual time over PEs); only for Sim backend.
  [[nodiscard]] double sim_makespan() const;

  cxm::Machine& machine() noexcept;

  /// Deliver an empty value to `target` once no messages are in flight
  /// and no entry method is executing (quiescence detection).
  void start_quiescence(const Callback& target);

  /// Aggregate LB statistics (for tests, benches and EXPERIMENTS.md).
  struct LbStats {
    std::uint64_t rounds = 0;
    std::uint64_t migrations = 0;
    double last_imbalance_before = 0.0;
    double last_imbalance_after = 0.0;
  };
  [[nodiscard]] LbStats lb_stats() const;

  /// Total application messages sent so far (all PEs).
  [[nodiscard]] std::uint64_t messages_sent() const;

  /// Futures the calling PE's table tracks: pending, or still held by a
  /// Future handle on this PE (tests and soak probes).
  [[nodiscard]] std::size_t future_table_size() const;

  static Runtime& current();
  static bool has_current() noexcept;

  struct Impl;  // internal; reachable from runtime.cpp free functions
  [[nodiscard]] Impl& impl() noexcept { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Free-function shorthands (the `charm` module surface of the paper).
inline int num_pes() { return Runtime::current().num_pes(); }
inline int my_pe() { return Runtime::current().my_pe(); }
inline int my_rank() { return Runtime::current().my_rank(); }
inline int num_ranks() { return Runtime::current().num_ranks(); }
inline double now() { return Runtime::current().now(); }
inline void compute(double s) { Runtime::current().compute(s); }
inline void charge(double s) { Runtime::current().charge(s); }
inline void exit() { Runtime::current().exit(); }

/// Run `fn` on the calling PE's scheduler after `delay_s` (wall clock on
/// the threaded backend, virtual time on the simulator). Uncounted —
/// like Future::get_for deadlines, an armed post never holds off
/// quiescence detection; a post still armed when the runtime exits is
/// dropped. Must be called from a PE context (entry method or fiber).
void post_after(double delay_s, std::function<void()> fn);

}  // namespace cx
