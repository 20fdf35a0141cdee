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
// Fault tolerance (cx::ft): the fault, retry and receive steps and the
// PE-liveness state machine are PipelineMachine's. Each local PE's
// windows and injector stream are touched only by its own thread (sends
// run on the sender's thread; acks come back to the sender's mailbox),
// so the protocol takes no locks; a sender abandons its traffic to a
// peer it finds Crashed or Unreachable when that traffic comes due. The
// reliable header rides in the frame, so it works across ranks
// unchanged. An injected extra delay applies only to rank-local
// destinations: TCP supplies real latency, and delaying inside the comm
// thread would stall unrelated traffic. Retransmit deadlines and
// delayed deliveries are honored by bounding the mailbox cv wait.
//
// An idle PE polls before it parks: with the mailbox lock released it
// yield-spins on the mailbox's post counter for up to kPollBudget (and
// never past its next deadline), then parks on the cv only if nothing
// was posted. A hand-off to a polling PE costs no futex wake. Polling
// is on only when the job's threads on this host (every rank's PEs plus
// its Link comm thread; cxrun starts all ranks locally) fit in the
// host's hardware threads; an oversubscribed job parks at once. The
// Link's comm thread follows the same rule for its epoll wait.
//
// A PE sending to another rank while its mailbox holds nothing runnable
// writes the frame to the socket itself (Link::ship); a busy PE leaves
// the write to the comm thread, so it never pays a syscall it could
// have overlapped with work.
//
// Scripted crash/hang at a time is a simulator feature; here PEs die via
// Machine::inject_kill/inject_hang or a lost connection. A crashed PE
// keeps draining its mailbox but discards, and never acks, everything; a
// hung PE parks. A kill, hang or revive is broadcast to the other ranks,
// so a remote failure stops local traffic to the PE like a local one.

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
    return pe / local_pes_;
  }

  void send_after(MessagePtr msg, double delay_s) override;

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
    /// Bumped under `mutex` by every post that can end an idle wait
    /// (enqueue, enqueue_delayed, wake, request_stop); a polling PE
    /// reads it without the lock. Own cache line, so the poller's reads
    /// do not bounce the mutex's line.
    alignas(64) std::atomic<std::uint64_t> posts{0};
    /// queue.size(), stored under `mutex` after every change; the
    /// owning PE reads it without the lock to learn whether it has
    /// anything else to run (deliver).
    std::atomic<std::size_t> ready{0};
  };

  /// How long an idle PE polls its mailbox, and the Link's comm thread
  /// its epoll set, before parking. A parked hand-off pays a futex wake:
  /// on a 4-core VM a two-thread condvar ping-pong took 16 us per round
  /// trip parked and 0.9 us polled. The pool's submit/start/grant/
  /// result/future chain is five such hand-offs, each answered within
  /// tens of microseconds, so 100 us catches them while an idle thread
  /// still gives its core back within 0.1 ms (EXPERIMENTS.md sweeps
  /// 25-200 us).
  static constexpr double kPollBudget = 100e-6;

  void pe_loop(int pe);
  /// Spin with `lock` released until something is posted to `mb` or the
  /// machine clock reaches `until`; returns with `lock` held again.
  void poll(Mailbox& mb, std::unique_lock<std::mutex>& lock, double until);
  void enqueue(int dst, MessagePtr msg);
  void enqueue_delayed(int dst, MessagePtr msg, double deadline);
  /// Hand `msg` to its local mailbox or to the Link, telling the Link
  /// whether the sending PE has nothing else to run.
  void deliver(MessagePtr msg);
  /// True when local `pe`'s mailbox holds nothing runnable (read
  /// without its lock; `pe` must be the calling PE).
  [[nodiscard]] bool nothing_runnable(int pe) const {
    return mailboxes_[lidx(pe)]->ready.load(std::memory_order_relaxed) == 0;
  }
  void retransmit_due(int pe, PeSlot& me);
  void arm_retry(int pe, const cx::ft::PendingSend& p) override;
  /// Broadcast a kill, hang or revive to the other ranks first; the
  /// Link applies the ones it receives without rebroadcast.
  void announce(int pe, Liveness to) override;
  void wake(int pe) override;
  void discard_backlog(int pe) override;
  void request_stop(bool broadcast);

  int rank_;
  int nranks_;
  // Per local PE:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> stop_{false};
  double epoch_ = 0.0;
  bool poll_ = false;  ///< idle PEs poll before parking (see top)

  std::unique_ptr<Link> link_;  ///< null in a single-process run
};

}  // namespace cxm
