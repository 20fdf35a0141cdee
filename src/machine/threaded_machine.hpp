#pragma once
// ThreadedMachine — one OS thread per PE, per-PE MPSC mailbox, wall clock.
//
// A mailbox is an intrusive multi-producer, single-consumer queue
// chained through Message::next. A send exchanges itself into the tail
// and links its predecessor to it; the owning PE pops from the head.
// Neither takes a lock. The mutex and cv serve the slow lane only:
// delayed deliveries, waking a parked PE, stop, and a hung PE's park.
// A PE announces that it is about to park by storing `sleeping`, then
// re-checks the queue; a sender exchanges the tail, then loads
// `sleeping` and takes the mutex to notify only if it is set. Both
// sides are seq_cst, so either the PE sees the message or the sender
// sees the PE parking. Reviving a PE pushes a cut marker through its
// queue; the owner drops everything it pops before the marker, so
// nothing from before the failure resurfaces and no other thread ever
// pops.
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
// An idle PE polls before it parks: it yield-spins on its queue and the
// slow lane's post counter for up to kPollBudget (and never past its
// next deadline), then parks on the cv only if nothing arrived. A
// hand-off to a polling PE costs no futex wake. Polling is on only when
// the job's threads on this host (every rank's PEs plus its Link comm
// thread; cxrun starts all ranks locally) fit in the host's hardware
// threads; an oversubscribed job parks at once. The Link's comm thread
// follows the same rule for its epoll wait.
//
// A PE sending to another rank while its mailbox holds nothing runnable
// writes the frame to the socket itself (Link::ship); a busy PE leaves
// the write to the comm thread, so it never pays a syscall it could
// have overlapped with work. A polling PE likewise reads small frames
// off the same-host rings itself (Link::poll_rings).
//
// Scripted crash/hang at a time is a simulator feature; here PEs die via
// Machine::inject_kill/inject_hang or a lost connection. A crashed PE
// keeps draining its mailbox but discards, and never acks, everything; a
// hung PE parks. A kill, hang or revive is broadcast to the other ranks,
// so a remote failure stops local traffic to the PE like a local one.

#include <atomic>
#include <condition_variable>
#include <cstdint>
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

  /// Destination of a revive's cut marker (a real message's dst_pe is
  /// its mailbox's PE).
  static constexpr std::int32_t kCutMarker = -2;

  class Mailbox {
   public:
    Mailbox() noexcept : tail_(&stub_), head_(&stub_) {}
    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;
    ~Mailbox() {
      while (pop()) {
      }
    }

    /// Any thread: append `m` (taking ownership). True when the owner
    /// has announced that it is parking and must be notified.
    bool push(Message* m) noexcept {
      m->next.store(nullptr, std::memory_order_relaxed);
      Message* prev = tail_.exchange(m, std::memory_order_seq_cst);
      prev->next.store(m, std::memory_order_release);
      return sleeping.load(std::memory_order_seq_cst);
    }

    /// Owner only: the oldest message, or null when the queue is empty
    /// or its oldest push has exchanged the tail but not linked yet.
    MessagePtr pop() noexcept {
      Message* h = head_;
      Message* next = h->next.load(std::memory_order_acquire);
      if (h == &stub_) {
        if (next == nullptr) return nullptr;
        head_ = next;
        h = next;
        next = next->next.load(std::memory_order_acquire);
      }
      if (next == nullptr) {
        if (h != tail_.load(std::memory_order_acquire)) return nullptr;
        // `h` is the last message: queue the stub behind it so the
        // head can move past `h`.
        push(&stub_);
        next = h->next.load(std::memory_order_acquire);
        if (next == nullptr) return nullptr;
      }
      head_ = next;
      return MessagePtr(h);
    }

    /// Owner only: nothing queued and no push in flight.
    [[nodiscard]] bool empty() const noexcept {
      return head_ == &stub_ &&
             tail_.load(std::memory_order_seq_cst) == &stub_;
    }

    /// Set by the owner while it parks for messages (see push).
    std::atomic<bool> sleeping{false};
    /// Cut markers queued by discard_backlog and not yet popped.
    std::atomic<int> cuts{0};

    // ---- slow lane, under `mutex` ----
    alignas(64) std::mutex mutex;
    std::condition_variable cv;
    /// Deferred deliveries (send_after, injected delays), keyed by the
    /// absolute machine-time deadline; pushed onto the queue when due.
    std::multimap<double, MessagePtr> delayed;
    /// delayed's earliest deadline, read by the owner without the lock.
    std::atomic<double> next_due{cx::ft::SenderWindow::kNever};
    /// Bumped (release) under `mutex` by every slow-lane post that can
    /// end an idle wait: enqueue_delayed, wake, request_stop.
    std::atomic<std::uint64_t> posts{0};

   private:
    /// Producers' end; its own cache line, away from the owner's head.
    alignas(64) std::atomic<Message*> tail_;
    alignas(64) Message* head_;
    Message stub_;
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
  /// The owner's next message, dropping what a pending cut discards.
  static MessagePtr take(Mailbox& mb);
  /// Push delayed deliveries due by `tnow` onto the queue.
  static void promote_due(Mailbox& mb, double tnow);
  /// Spin until a message or a slow-lane post (other than `seen`)
  /// arrives, or the machine clock reaches `until`, reading small frames
  /// off the Link's rings meanwhile.
  void poll(Mailbox& mb, std::uint64_t seen, double until);
  /// Wait on the cv until a slow-lane post other than `seen` or the
  /// clock reaching `until` — and, when `for_messages`, a message.
  void park(Mailbox& mb, std::uint64_t seen, double until,
            bool for_messages);
  void enqueue(int dst, MessagePtr msg);
  void enqueue_delayed(int dst, MessagePtr msg, double deadline);
  /// Hand `msg` to its local mailbox or to the Link, telling the Link
  /// whether the sending PE has nothing else to run.
  void deliver(MessagePtr msg);
  /// True when local `pe`'s mailbox holds nothing runnable (`pe` must
  /// be the calling PE).
  [[nodiscard]] bool nothing_runnable(int pe) const {
    return mailboxes_[lidx(pe)]->empty();
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
