#pragma once
// The send/receive steps and the PE-liveness state machine every
// Machine backend shares.
//
// PipelineMachine owns the handler table, each local PE's slot
// (reliable-delivery windows, injector stream, aggregator), the
// liveness state of every PE in the job and the steps of a send and a
// receive: aggregation (absorb, or seal a batch ahead of a bypassing
// message), the MsgSend trace and transport count, the fault step
// (enrollment, injector decision, drop trace), the retry step
// (retransmit copy or give-up) and the receive step (ack, dedup, batch
// unpack, dispatch).
//
// PE liveness. Every global PE is Up, Crashed, Hung or Unreachable, in
// one relaxed atomic; any_failed_ stays false until the first failure,
// so a fault-free run pays one relaxed load per scheduling step. The
// transition rule: a crash overrides any state, a hang overrides Up and
// Unreachable but never a crash, a declared non-crash (or a retransmit
// give-up) marks only an Up PE Unreachable, and revive returns the PE
// to Up and re-arms its once-per-failure notice. A PE that goes down
// sheds its own unacked sends and open batches in its own context,
// before its scheduler handles anything else (own_step), so a dead
// sender neither retransmits nor gives up on a live peer.
//
// A backend keeps only how it runs: its clock, its timer mechanism
// (arm_retry: DES timer events on the simulator, the deadline heap on
// the threaded machine), its delivery of a send's fate, and the hooks
// that tell its schedulers of a liveness change.

#include <atomic>
#include <mutex>
#include <vector>

#include "ft/fault.hpp"
#include "ft/reliable.hpp"
#include "machine/machine.hpp"
#include "wire/agg.hpp"

namespace cxm {

// FtDrop trace reasons (slot a).
inline constexpr std::uint64_t kDropInjected = 0;
inline constexpr std::uint64_t kDropDuplicate = 1;
inline constexpr std::uint64_t kDropDeadDst = 2;

enum class Liveness : std::uint8_t { Up, Crashed, Hung, Unreachable };

class PipelineMachine : public Machine {
 public:
  std::uint32_t register_handler(Handler h) final;
  [[nodiscard]] int num_pes() const noexcept final { return num_pes_; }

  void inject_kill(int pe) final;
  void inject_hang(int pe) final;
  void declare_failed(int pe, cx::ft::FailureKind kind) final;
  void revive_pe(int pe) final;
  [[nodiscard]] bool pe_failed(int pe) const noexcept final {
    return valid(pe) && liveness(pe) != Liveness::Up;
  }

 protected:
  /// Injector streams: one shared by every PE, drawn in the simulator's
  /// deterministic event order, or one per PE for concurrent senders.
  enum class Streams { Shared, PerPe };

  /// The job has `num_pes` global PEs; this process runs
  /// [first_pe, first_pe + local_pes).
  PipelineMachine(int num_pes, int first_pe, int local_pes,
                  const cx::ft::FaultConfig& faults, Streams streams);

  /// What one local PE owns. Only that PE's context touches it: sends
  /// run on the sender, acks come back to its mailbox, and the
  /// simulator runs every PE on one thread.
  struct alignas(64) PeSlot {
    cx::ft::SenderWindow sw;
    cx::ft::ReceiverWindow rw;
    cx::ft::FaultInjector* inj = nullptr;  ///< null with faults off
    std::unique_ptr<cx::wire::PeAggregator> agg;  ///< created lazily
    std::uint32_t downs_seen = 0;  ///< the PE's down count at its last shed
  };

  [[nodiscard]] bool valid(int pe) const noexcept {
    return pe >= 0 && pe < num_pes_;
  }
  [[nodiscard]] bool is_local(int pe) const noexcept {
    return pe >= first_pe_ && pe < first_pe_ + local_pes_;
  }
  /// Slot index of local PE `pe`.
  [[nodiscard]] std::size_t lidx(int pe) const noexcept {
    return static_cast<std::size_t>(pe - first_pe_);
  }

  // ---- sender-side aggregation (--wire-agg) ------------------------------

  enum class Aggregated {
    No,          ///< bypassed the aggregator: send it on
    Absorbed,    ///< joined an open batch
    AbsorbedArm  ///< opened a batch whose flush timer the caller may arm
  };

  /// The aggregation step of a send from the calling PE: absorb an
  /// eligible `msg` into `slot`'s aggregator, charging `absorb_cost` and
  /// tracing its MsgSend; or seal the open batch to its destination
  /// ahead of it. An absorbing caller drains the slot once its timer is
  /// armed.
  Aggregated aggregate(std::size_t slot, MessagePtr& msg, double absorb_cost);
  [[nodiscard]] cx::wire::PeAggregator& agg(std::size_t slot);
  /// Hand every sealed batch of `slot` to the transport (re-enters send()).
  void drain_agg(std::size_t slot);
  /// Trace `msg`'s MsgSend (batched messages were traced as they joined)
  /// and count it if it is a cross-PE transport envelope.
  void note_send(const Message& msg);

  // ---- fault tolerance ----------------------------------------------------

  /// What the fault step decided for a send: the backend delivers the
  /// message unless it was lost, plus a copy when duplicated, `delay`
  /// seconds late.
  struct Fate {
    bool lost = false;
    bool dup = false;
    double delay = 0.0;
  };

  /// The fault step of a cross-PE send from the calling PE (a no-op
  /// with faults off): enroll it in the sender window and arm its
  /// retransmit timer, draw the injector's decision, trace a drop.
  Fate fault_step(Message& msg);

  /// The retry step of `pe`'s unacked send `p` at `tnow`. At
  /// max_attempts it gives up: abandons the window to p's destination,
  /// marks that PE Unreachable, notices it once and returns null.
  /// Otherwise it counts the attempt, re-arms the timer and returns the
  /// copy to send.
  MessagePtr retry(int pe, cx::ft::PendingSend& p, double tnow);

  /// Arm a retransmit timer for `pe`'s pending send `p` at p.deadline.
  virtual void arm_retry(int pe, const cx::ft::PendingSend& p) = 0;

  enum class Received {
    Ack,        ///< an ack, consumed by the sender window
    Dropped,    ///< a duplicate or a message for an unknown handler
    Dispatched  ///< handed to its handler (a batch: to every record's)
  };

  /// The receive step, on local PE `pe`'s context: consume an ack; ack a
  /// reliable message and drop it if it is a duplicate; unpack a batch,
  /// charging `per_record` before each record; dispatch.
  Received receive(int pe, MessagePtr msg, double per_record);

  // ---- PE liveness --------------------------------------------------------

  [[nodiscard]] Liveness liveness(int pe) const noexcept {
    return static_cast<Liveness>(
        life_[static_cast<std::size_t>(pe)].load(std::memory_order_relaxed));
  }
  /// Whether `pe` itself stopped running: Crashed or Hung.
  [[nodiscard]] bool halted(int pe) const noexcept {
    const Liveness l = liveness(pe);
    return l == Liveness::Crashed || l == Liveness::Hung;
  }

  /// Local PE `pe`'s scheduler calls this before it handles anything
  /// once a failure has happened: if `pe` went down since its last
  /// step, its unacked sends and open batches die with it. Returns its
  /// state.
  Liveness own_step(int pe);

  // Transitions without the broadcast (the Link applies what other
  // ranks announce). A crash is noticed once, traced on `ctx` at `t`.
  void apply_kill(int pe, int ctx, double t);
  void apply_hang(int pe);
  void apply_revive(int pe);

  /// Tell the other ranks of an injected kill, hang (`to`) or revive.
  virtual void announce(int /*pe*/, Liveness /*to*/) {}
  /// Rouse `pe`'s scheduler so it notices its new state promptly.
  virtual void wake(int /*pe*/) {}
  /// Drop what `pe` accumulated while down (revive).
  virtual void discard_backlog(int pe) = 0;
  /// Stop local traffic to `pe`, which was declared failed or revived.
  virtual void forget_peer(int /*pe*/) {}

  std::vector<Handler> handlers_;
  bool running_ = false;
  int num_pes_;   ///< global PE count
  int first_pe_;  ///< first global PE run here
  int local_pes_;
  bool agg_on_;  ///< sampled from cx::wire::agg_enabled() at construction
  cx::wire::AggConfig agg_cfg_;
  cx::ft::FaultConfig ft_;
  bool ft_enabled_;
  std::vector<PeSlot> slots_;  ///< one per local PE
  /// Set by the first failure; until then no scheduler checks liveness.
  std::atomic<bool> any_failed_{false};

 private:
  /// Move `pe` to `to` under the transition rule; returns whether its
  /// state changed. Going down counts in downs_ and wakes the PE.
  bool set_liveness(int pe, Liveness to);
  /// Count a down event of `pe` (its scheduler sheds at its next step)
  /// and wake it.
  void went_down(int pe);
  /// Trace `pe`'s failure on `ctx` and tell the failure listener,
  /// unless it was already reported since the PE was last revived.
  void notify_failure_once(int pe, cx::ft::FailureKind kind, int ctx,
                           double t);

  std::vector<cx::ft::FaultInjector> injectors_;
  // Per global PE:
  std::vector<std::atomic<std::uint8_t>> life_;    ///< a Liveness
  std::vector<std::atomic<std::uint32_t>> downs_;  ///< down events so far
  std::mutex failure_mutex_;
  std::vector<std::uint8_t> failure_notified_;  ///< guarded by failure_mutex_
};

}  // namespace cxm
