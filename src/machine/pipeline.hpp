#pragma once
// The send/receive steps every Machine backend shares.
//
// PipelineMachine owns the handler table, the sender-side aggregators,
// the once-per-failure notice and the steps of a send and a receive:
// aggregation (absorb, or seal a batch ahead of a bypassing message),
// the MsgSend trace and transport count, enrolling a send in its sender
// window, building a retransmit copy, and the receive step (ack, dedup,
// batch unpack, dispatch). A backend keeps only its clock, its timer
// mechanism (DES timer events on the simulator, the deadline heap on
// the threaded machine) and its delivery call.

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

/// One PE's reliable-delivery windows, touched only in that PE's
/// context (sends run on the sender; acks come back to its mailbox).
struct FtPeState {
  cx::ft::SenderWindow sw;
  cx::ft::ReceiverWindow rw;
};

class PipelineMachine : public Machine {
 public:
  std::uint32_t register_handler(Handler h) final;

 protected:
  /// `num_pes` is the job's global PE count, `local_pes` the number of
  /// PEs this process runs.
  PipelineMachine(int num_pes, int local_pes);

  // ---- sender-side aggregation (--wire-agg) ------------------------------
  // One aggregator per local PE, indexed by its slot (0..local_pes) and
  // created lazily. Only that PE's context touches it, so no locks.

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

  enum class Received {
    Ack,        ///< an ack, consumed by the sender window
    Dropped,    ///< a duplicate or a message for an unknown handler
    Dispatched  ///< handed to its handler (a batch: to every record's)
  };

  /// The receive step, on `pe`'s context: consume an ack; ack a reliable
  /// message and drop it if it is a duplicate; unpack a batch, charging
  /// `per_record` before each record; dispatch. `ft` is null when fault
  /// tolerance is off.
  Received receive(int pe, MessagePtr msg, FtPeState* ft, double per_record);

  /// Give `msg`, a cross-PE send, the next sequence number of `sw` and
  /// keep a pending copy due for retransmit one timeout after `tnow`.
  static cx::ft::PendingSend& enroll(cx::ft::SenderWindow& sw,
                                     cx::ft::FaultInjector& inj, Message& msg,
                                     double tnow);

  /// Count one more retransmit of `p` by `pe` at `tnow`, draw its next
  /// deadline and return the copy to send.
  static MessagePtr retransmit(int pe, cx::ft::PendingSend& p,
                               cx::ft::FaultInjector& inj, double tnow);

  /// Trace `pe`'s failure on `trace_pe` and tell the failure listener,
  /// unless it was already reported since the PE was last revived.
  void notify_failure_once(int pe, cx::ft::FailureKind kind, int trace_pe,
                           double t);
  void clear_failure_notice(int pe);

  std::vector<Handler> handlers_;
  bool running_ = false;
  bool agg_on_;  ///< sampled from cx::wire::agg_enabled() at construction
  cx::wire::AggConfig agg_cfg_;
  std::vector<std::unique_ptr<cx::wire::PeAggregator>> aggs_;

 private:
  std::mutex failure_mutex_;
  std::vector<std::uint8_t> failure_notified_;  ///< guarded by failure_mutex_
};

}  // namespace cxm
