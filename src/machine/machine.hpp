#pragma once
// Machine — the execution substrate under the runtime.
//
// A Machine owns a set of PEs (processing elements), a handler table, and
// the transport between PEs. Two implementations exist:
//
//   * ThreadedMachine — one std::thread per PE, real wall clock. Used by
//     tests, examples and host-scale benchmarks: real concurrency, real
//     message passing through per-PE mailboxes. Launched by `cxrun` (or
//     any parent that sets the CXRUN_* environment, see
//     socket_env_active()) it hosts `ppn` PEs of a job of N OS processes
//     (ranks), and a Link carries cross-process messages as
//     length-prefixed cx::wire envelopes over nonblocking TCP (src/net/).
//
//   * SimMachine — a deterministic discrete-event simulator: virtual PEs,
//     per-PE virtual clocks and a NetworkModel. Entry methods execute real
//     code; time is charged via compute()/charge-scopes and the network
//     model. This is the BigSim-style backend used to regenerate the
//     paper's supercomputer-scale figures (1k-65k PEs) on a workstation.
//
// Both run the same send/receive steps and the same PE-liveness state
// machine (machine/pipeline.hpp).
//
// The runtime registers handlers once (before run()) and then communicates
// exclusively through send(). All handler execution happens on the
// destination PE's context.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ft/fault.hpp"
#include "machine/message.hpp"
#include "machine/network.hpp"

namespace cxm {

using Handler = std::function<void(MessagePtr)>;

/// Socket is a ThreadedMachine that joins a multi-process job.
enum class Backend { Threaded, Sim, Socket };

/// Multi-process launch geometry (Backend::Socket). Filled from the
/// CXRUN_* environment by apply_socket_env(); the launcher (`cxrun`)
/// runs the root rendezvous the ranks wire up through.
struct SocketParams {
  int rank = 0;
  int nranks = 1;
  int ppn = 1;  ///< worker PEs per rank; global PE count = nranks * ppn
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
};

struct MachineConfig {
  int num_pes = 4;
  Backend backend = Backend::Threaded;
  /// Socket-backend geometry. Under cxrun the global PE count is
  /// nranks * ppn (num_pes above is ignored — the launcher owns the
  /// job shape).
  SocketParams socket{};
  /// Simulated network (ignored by the threaded backend):
  std::string network = "simple";  ///< "simple" | "torus" | "dragonfly"
  NetworkParams net{};
  /// Fault-tolerance knobs (cx::ft). Defaults are all-off: the backends
  /// keep the exact pre-ft fast path when faults.enabled() is false.
  /// A fault script needs Backend::Sim.
  cx::ft::FaultConfig faults{};
};

class Machine {
 public:
  virtual ~Machine() = default;

  /// Register a handler; returns its id. Only valid before run().
  virtual std::uint32_t register_handler(Handler h) = 0;

  /// Number of PEs.
  [[nodiscard]] virtual int num_pes() const noexcept = 0;

  /// PE id of the calling context; -1 if not on a PE (e.g. driver thread).
  [[nodiscard]] virtual int current_pe() const noexcept = 0;

  /// Enqueue a message for delivery to msg->dst_pe. Callable from any PE
  /// context, and from outside run() to seed initial work.
  virtual void send(MessagePtr msg) = 0;

  /// Current time (seconds) on the calling PE: wall time for the threaded
  /// backend, virtual time for the simulator.
  [[nodiscard]] virtual double now() const = 0;

  /// Charge `seconds` of compute to the calling PE: the simulator advances
  /// its virtual clock; the threaded backend spins for that long (used for
  /// synthetic load injection, e.g. the paper's imbalance factors).
  virtual void compute(double seconds) = 0;

  /// Advance the calling PE's clock without consuming host CPU. In the
  /// threaded backend this is a no-op (real work already took real time);
  /// in the simulator it is how measured kernel times are charged.
  virtual void charge(double seconds) = 0;

  /// Run the scheduler loop on all PEs; blocks until stop() is called (or,
  /// for the simulator, until the event queue drains).
  virtual void run() = 0;

  /// Request termination of all PE loops. Callable from handler context.
  virtual void stop() = 0;

  /// True when the machine uses virtual time (SimMachine).
  [[nodiscard]] virtual bool is_simulated() const noexcept = 0;

  // ---- multi-process locality (Backend::Socket) --------------------------
  // Single-process backends host every PE in rank 0 of 1.

  /// This process's rank in the job.
  [[nodiscard]] virtual int my_rank() const noexcept { return 0; }

  /// Number of OS processes in the job.
  [[nodiscard]] virtual int num_ranks() const noexcept { return 1; }

  /// The rank hosting `pe` (block distribution: pe / ppn).
  [[nodiscard]] virtual int pe_to_rank(int /*pe*/) const noexcept {
    return 0;
  }

  /// Whether `pe`'s scheduler thread runs in this process. The runtime
  /// gates per-PE seeding (the Start envelope, heartbeat timers) on
  /// this so each rank only drives its own PEs.
  [[nodiscard]] bool hosts_pe(int pe) const noexcept {
    return pe_to_rank(pe) == my_rank();
  }

  // ---- fault tolerance (cx::ft) -----------------------------------------

  /// Deliver `msg` to msg->dst_pe after `delay_s` seconds of the calling
  /// PE's clock, without charging network cost. Used for runtime timers
  /// (future timeouts); delivery goes through the normal handler table.
  virtual void send_after(MessagePtr msg, double delay_s) = 0;

  /// Mark `pe` crashed, overriding a hang: it stops processing (and
  /// acking) everything from now on, and its unacked sends and open
  /// batches die with it. Notifies the failure listener. Callable from
  /// handler context.
  virtual void inject_kill(int pe) = 0;

  /// Make `pe` stop draining its mailbox without any notification — the
  /// test/chaos hook for silent failures. Peers only learn of it via
  /// retransmit give-up or the heartbeat detector (declare_failed). A
  /// hang never overrides a crash.
  virtual void inject_hang(int pe) = 0;

  /// Mark `pe` failed as `kind` based on external evidence (the
  /// liveness layer's accrual detector crossing its threshold): crashed
  /// for Crashed, otherwise unreachable unless it is already down.
  /// Traffic to the PE stops and the failure listener fires once,
  /// exactly as if the machine had detected the failure itself.
  virtual void declare_failed(int pe, cx::ft::FailureKind kind) = 0;

  /// Undo inject_kill / a scripted crash or hang, as part of restart.
  /// Messages the PE accumulated while down are discarded.
  virtual void revive_pe(int pe) = 0;

  /// True when `pe` is currently marked crashed, hung, or unreachable.
  [[nodiscard]] virtual bool pe_failed(int pe) const noexcept = 0;

  using FailureListener = std::function<void(const cx::ft::PeFailure&)>;

  /// Install the callback invoked (from machine context — scheduler
  /// thread on Sim, a PE thread or the Link's comm thread on Threaded)
  /// when a PE failure is detected: scripted crash, inject_kill,
  /// declare_failed, or retransmit give-up. At most one notification
  /// fires per failure; revive_pe re-arms it.
  void set_failure_listener(FailureListener cb) {
    failure_listener_ = std::move(cb);
  }

 protected:
  FailureListener failure_listener_;
};

/// Create a machine from a config. When the CXRUN_* environment is set
/// (the process was launched by cxrun) a Threaded request is upgraded
/// to the Socket backend — Sim runs are never upgraded. Throws
/// std::invalid_argument for a fault script off the simulator.
std::unique_ptr<Machine> make_machine(const MachineConfig& cfg);

/// True when this process was launched by cxrun (CXRUN_RANK et al. are
/// set) and should join a multi-process socket job.
bool socket_env_active();

/// Fill cfg.socket from the CXRUN_* environment and select
/// Backend::Socket. Throws std::invalid_argument if the environment is
/// malformed (CXRUN_ROOT must be host:port with a port in 1-65535).
void apply_socket_env(MachineConfig& cfg);

/// The rank cxrun assigned this process, or 0 when not under cxrun.
/// Usable before any Machine exists — examples gate their result
/// printing on it.
int launched_rank();

}  // namespace cxm
