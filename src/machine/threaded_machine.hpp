#pragma once
// ThreadedMachine — one OS thread per PE, per-PE MPSC mailbox, wall clock.
//
// The machine hosts PEs [rank*ppn, (rank+1)*ppn) of a job of nranks*ppn
// PEs. A single-process run is rank 0 of 1 with ppn = num_pes. In a
// multi-process job (launched by cxrun) every message for a PE of
// another rank goes to the machine's Link (machine/link.hpp), and the
// Link hands frames from other ranks to the local mailboxes. Within a
// rank, PEs talk through the mailboxes only, including the by-reference
// `local` payload path, which never crosses a process boundary.
//
// Fault tolerance (cx::ft): with MachineConfig::faults enabled, cross-PE
// sends pass through a seeded injector (drop/duplicate/delay) and the
// seq+ack reliable-delivery protocol. Each local PE owns its windows
// and its injector stream, touched only by its own thread (sends run on
// the sender's thread; acks come back to the sender's mailbox), so the
// protocol takes no locks. The reliable header rides in the frame, so it
// works across ranks unchanged. An injected extra delay applies only to
// rank-local destinations: TCP supplies real latency, and delaying
// inside the comm thread would stall unrelated traffic. Retransmit
// deadlines and delayed deliveries are honored by bounding the mailbox
// cv wait. Scripted crash/hang at a time is a simulator feature; here
// PEs die via Machine::inject_kill/inject_hang or a lost connection (a
// crashed PE keeps draining its mailbox but discards, and never acks,
// everything). Liveness flags cover every global PE, so a remote failure
// stops local traffic to it exactly like a local one.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "machine/pipeline.hpp"

namespace cxm {

class Link;

class ThreadedMachine final : public PipelineMachine {
 public:
  /// A Backend::Socket config joins cfg.socket's job; any other config
  /// hosts cfg.num_pes PEs in this process. Throws std::invalid_argument
  /// on a bad geometry or a non-empty fault script.
  explicit ThreadedMachine(const MachineConfig& cfg);
  ~ThreadedMachine() override;

  [[nodiscard]] int num_pes() const noexcept override { return num_pes_; }
  [[nodiscard]] int current_pe() const noexcept override;
  void send(MessagePtr msg) override;
  [[nodiscard]] double now() const override;
  void compute(double seconds) override;
  void charge(double seconds) override;
  void run() override;
  void stop() override;
  [[nodiscard]] bool is_simulated() const noexcept override { return false; }

  [[nodiscard]] int my_rank() const noexcept override { return rank_; }
  [[nodiscard]] int num_ranks() const noexcept override { return nranks_; }
  [[nodiscard]] int pe_to_rank(int pe) const noexcept override {
    return pe / ppn_;
  }

  void send_after(MessagePtr msg, double delay_s) override;
  void inject_kill(int pe) override;
  void inject_hang(int pe) override;
  void declare_failed(int pe, cx::ft::FailureKind kind) override;
  void revive_pe(int pe) override;
  [[nodiscard]] bool pe_failed(int pe) const noexcept override;

 private:
  friend class Link;

  ThreadedMachine(const MachineConfig& cfg, const SocketParams& job);

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<MessagePtr> queue;
    /// Deferred deliveries (send_after, injected delays), keyed by the
    /// absolute machine-time deadline; promoted into `queue` when due.
    std::multimap<double, MessagePtr> delayed;
  };

  /// A local PE's reliable-delivery windows and its injector stream.
  struct PeFt : FtPeState {
    PeFt(const cx::ft::FaultConfig& cfg, int pe) : inj(cfg, pe) {}
    cx::ft::FaultInjector inj;
  };

  [[nodiscard]] bool is_local(int pe) const noexcept {
    return pe >= pe_base_ && pe < pe_base_ + ppn_;
  }
  /// Index of local PE `pe` in the per-PE vectors.
  [[nodiscard]] std::size_t lidx(int pe) const noexcept {
    return static_cast<std::size_t>(pe - pe_base_);
  }

  void pe_loop(int pe);
  void enqueue(int dst, MessagePtr msg);
  void enqueue_delayed(int dst, MessagePtr msg, double deadline);
  /// Hand `msg` to its local mailbox or to the Link.
  void deliver(MessagePtr msg);
  void retransmit_due(int pe, PeFt& me);
  /// Wake local PE `pe` so it notices a change of its failure flags.
  void wake(int pe);
  // Failure control. A change made here is broadcast to the other ranks
  // first; the Link applies the ones it receives without rebroadcast.
  void request_stop(bool broadcast);
  void apply_kill(int pe);
  void apply_hang(int pe);
  void apply_revive(int pe);

  int rank_;
  int nranks_;
  int ppn_;       ///< PEs hosted here
  int num_pes_;   ///< global PE count = nranks * ppn
  int pe_base_;   ///< first global PE hosted here = rank * ppn
  // Per local PE:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<PeFt>> ft_pes_;
  std::atomic<bool> stop_{false};
  double epoch_ = 0.0;

  cx::ft::FaultConfig ft_;
  bool ft_enabled_ = false;
  /// Liveness flags, per global PE, are always allocated: inject_kill()
  /// must work even without any --ft-* config (e.g. pool tests kill a
  /// worker directly).
  std::atomic<bool> any_failed_{false};
  std::vector<std::atomic<bool>> crashed_;
  std::vector<std::atomic<bool>> unreachable_;
  /// A hung PE parks: unlike a crashed PE it does not even drain its
  /// mailbox, so peers see total silence (no acks, no heartbeats).
  std::vector<std::atomic<bool>> hung_;

  std::unique_ptr<Link> link_;  ///< null in a single-process run
};

}  // namespace cxm
